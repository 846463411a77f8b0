"""The exhaustive flag-major scan over the signed permutation group.

The scan counts every element of the rank-n signed permutation group by
(fmaj of inverse, fmaj) without building element objects.  It walks
plain permutations pi and takes signings of each at once.  A
descent between adjacent slots depends only on their two signs and on
how the two absolute values compare, and the rule reads one sign: when
the left absolute value is the larger, it is a descent iff the left
entry is positive, and otherwise iff the right entry is negative.  The
inverse has k, with the sign of slot k, at position pi(k), so its
descent at position j follows the same rule on the slots pi^-1(j) and
pi^-1(j+1), whose values compare as those two slot numbers do.  On both
sides fmaj is the number of negative entries plus 2j for each descent
at position j.

Two symmetries of the pair cut the walk to a quarter of the group.
Inversion sigma -> sigma^-1 swaps (a, b) to (b, a) and sends the
signings of pi onto those of pi^-1, so the walk takes only the pi with
pi <= pi^-1 as tuples: an involution counts once, and any other pi also
stands for pi^-1 with its pairs swapped.  Negation sigma -> -sigma
swaps descents with ascents and negatives with positives, so maj goes
to n(n-1)/2 - maj, the negatives to n minus them, and (a, b) to
(n^2 - a, n^2 - b), since (-sigma)^-1 = -(sigma^-1).  It pairs the
signings whose last slot is positive with those whose last slot is
negative, and only the former are walked.  Both folds are put back at
the end, on the few distinct pairs rather than on the elements.

The signings ride in the lanes of one Python int: sign mask m (bit k set
when slot k is negative, for the 2^(n-1) masks with bit n-1 clear) owns
the 16 bits from bit 16m, which hold fmaj_inv * K + fmaj with K = n^2 +
1.  Both statistics are at most n^2, so a lane holds at most (n^2 + 1)^2
- 1, below 2^16 up to rank 15, and no sum carries from one lane into the
next.  A descent at position j is then one addition for all signings: of
the lanes where the deciding slot has the deciding sign, scaled by 2j on
the direct side and by 2jK on the inverse side.  Each permutation's
lanes are counted straight from the int's bytes.  One scan takes about
3 ms at rank 6, 30 ms at rank 7 and 0.4-0.5 s at rank 8 (2-vCPU Xeon,
Python 3.11).
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import permutations

from .signed_perm import check_walk

#: Name of the scan implementation.  Benchmark results record it and
#: refuse to compare runs that differ in it, so it stays even though
#: there is only one implementation.
BACKEND = "python"


def fmaj_pair_counts(n: int) -> dict[tuple[int, int], int]:
    """Counts of (fmaj of inverse, fmaj) over the whole rank-n signed group."""
    check_walk(n)
    K = n * n + 1
    masks = range(1 << n - 1)  # the signings whose last slot is positive

    def lanes(weights) -> int:
        # one int whose lane ``mask`` holds weights[mask]
        return sum(w << 16 * mask for mask, w in enumerate(weights))

    # negative[k] / positive[k]: 1 in the lanes where slot k is negative / positive
    negative = [lanes(mask >> k & 1 for mask in masks) for k in range(n)]
    positive = [lanes(1 - (mask >> k & 1) for mask in masks) for k in range(n)]
    # direct[j][larger]: the descent at position j between slots j-1 and j,
    # ``larger`` saying whether the left absolute value is the larger one;
    # inverse[j][l][r]: the inverse's descent at position j between slots l
    # and r, compared as slot numbers.
    direct = [(2 * j * negative[j], 2 * j * positive[j - 1]) for j in range(1, n)]
    inverse = [
        [[2 * j * K * (positive[l] if l > r else negative[r]) for r in range(n)] for l in range(n)]
        for j in range(1, n)
    ]
    # every lane starts at its number of negatives on both sides
    start = lanes(mask.bit_count() * (K + 1) for mask in masks)
    size = 1 << n  # bytes, two per lane
    single: Counter[int] = Counter()  # the involutions
    paired: Counter[int] = Counter()  # each other pi, standing also for pi^-1
    for perm in permutations(range(n)):
        where = tuple(sorted(range(n), key=perm.__getitem__))  # slot of each value: pi^-1
        if perm > where:
            continue
        v = start
        for j in range(1, n):
            v += direct[j - 1][perm[j - 1] > perm[j]] + inverse[j - 1][where[j - 1]][where[j]]
        # native byte order, so that each unsigned short read back is one lane
        (single if perm == where else paired).update(memoryview(v.to_bytes(size, sys.byteorder)).cast("H"))
    # inversion: pi^-1 has the pairs of pi swapped, a*K + b becoming b*K + a
    counts = dict(single)
    for key, c in paired.items():
        counts[key] = counts.get(key, 0) + c
        swapped = key % K * K + key // K
        counts[swapped] = counts.get(swapped, 0) + c
    # negation: the signings with the last slot negative have the pairs
    # (n^2 - a, n^2 - b) of their negatives, key becoming n^2 (K + 1) - key
    top = n * n * (K + 1)
    full: dict[int, int] = {}
    for key, c in counts.items():
        full[key] = full.get(key, 0) + c
        full[top - key] = full.get(top - key, 0) + c
    return {divmod(key, K): c for key, c in full.items()}
