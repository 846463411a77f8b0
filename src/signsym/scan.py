"""The exhaustive flag-major scan over the signed permutation group.

The scan counts every element of the rank-n signed permutation group by
(fmaj of inverse, fmaj) without building element objects.  It walks the
n! plain permutations pi and takes all 2^n signings of each at once, as
integer vectors indexed by the sign mask (bit k set when slot k is
negative).  A descent between adjacent slots depends only on their two
sign bits and on how the two absolute values compare: (+,+) is a descent
iff the left value is larger, (-,-) iff it is smaller, (+,-) always and
(-,+) never.  The inverse has k, with the sign of slot k, at position
pi(k), so its descent at position j follows the same rule on the sign
bits of the slots pi^-1(j) and pi^-1(j+1), whose values compare as those
two slot numbers do.  On both sides fmaj is the number of negative
entries plus 2j for each descent at position j.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from operator import add

from .signed_perm import check_rank

#: Name of the scan implementation.  Benchmark results record it and
#: refuse to compare runs that differ in it, so it stays even though
#: there is only one implementation.
BACKEND = "python"


def fmaj_pair_counts(n: int) -> dict[tuple[int, int], int]:
    """Counts of (fmaj of inverse, fmaj) over the whole rank-n signed group."""
    check_rank(n)
    masks = range(1 << n)

    def descents(j: int, left: int, right: int, larger: bool) -> list[int]:
        # Over the sign masks: 2j where the entry of slot ``left``,
        # followed at position j by the entry of slot ``right``, makes a
        # descent, else 0; ``larger`` says whether the left absolute
        # value is the larger one.
        out = []
        for mask in masks:
            sl, sr = mask >> left & 1, mask >> right & 1
            out.append(2 * j if sl < sr or (sl == sr and larger != sl) else 0)
        return out

    # direct[j][larger]: slots j-1 and j at position j; inverse[j][l][r]:
    # slots l and r at position j, compared as slot numbers.
    direct = [[descents(j, j - 1, j, larger) for larger in (False, True)] for j in range(1, n)]
    inverse = [
        [[descents(j, l, r, l > r) if l != r else [] for r in range(n)] for l in range(n)]
        for j in range(1, n)
    ]
    negatives = [mask.bit_count() for mask in masks]
    counts: Counter[tuple[int, int]] = Counter()
    for perm in permutations(range(n)):
        where = sorted(range(n), key=perm.__getitem__)  # slot of each value
        fmaj = fmaj_inv = negatives
        for j in range(1, n):
            fmaj = list(map(add, fmaj, direct[j - 1][perm[j - 1] > perm[j]]))
            fmaj_inv = list(map(add, fmaj_inv, inverse[j - 1][where[j - 1]][where[j]]))
        counts.update(zip(fmaj_inv, fmaj))
    return dict(counts)

