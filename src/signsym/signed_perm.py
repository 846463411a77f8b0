"""Signed permutations and their descent statistics.

The rank-n signed permutation group (hyperoctahedral group) consists of
the bijections sigma of {-n, ..., -1, 1, ..., n} with sigma(-k) =
-sigma(k).  An element is stored by its window (sigma(1), ..., sigma(n));
the rest of the bijection follows from the sign rule.  The statistics
computed here are the descent set, the partial descent counts d_i, the
sign indicators eps_i, the flag numbers f_i = 2*d_i + eps_i, and the
major and flag-major indices.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction

#: An integer in ASCII digits, as window entries, exponent lists and CLI
#: integers are written: int() alone also reads "1_0" and non-ASCII digits.
ASCII_INTEGER = re.compile(r"[+-]?[0-9]+")

#: An exact coefficient string of the polynomial JSON schema: an
#: ASCII integer, optionally over an ASCII denominator.
ASCII_FRACTION = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

#: Rank cap of the walks over the group and over its plain permutations:
#: ``enumerate_group`` (2^n * n! elements, about ten million at rank 8,
#: where a full walk takes 50-55 s on a 2-vCPU Xeon; rank 9 has 18 times
#: as many), the Hilbert numerator scan (a quarter of them by its two
#: folds, 0.4-0.5 s at rank 8) and the n! permutations of
#: ``maj_inv_equidistribution`` (0.2-0.4 s at rank 8).  The scan's 16-bit
#: lanes hold its statistics only up to rank 15.  Past the cap ``check_walk``, its one reader, refuses a
#: walk loudly instead of silently burning time.
ENUMERATION_GUARD = 8


def check_rank(n: int) -> None:
    """Refuse a rank that is not a positive ``int``; bools and floats are refused too."""
    if type(n) is not int or n < 1:
        raise ValueError(f"rank {n!r} is not a positive integer")


def check_degree(d: int) -> None:
    """Refuse a degree that is not a non-negative ``int``; bools and floats are refused too."""
    if type(d) is not int or d < 0:
        raise ValueError(f"degree {d!r} is not a non-negative integer")


def check_walk(n: int) -> None:
    """Refuse a rank as ``check_rank`` does, or one past ``ENUMERATION_GUARD``, too large to walk."""
    check_rank(n)
    if n > ENUMERATION_GUARD:
        raise ValueError(f"rank {n} exceeds the guard {ENUMERATION_GUARD}")


def check_scalar(c: object) -> None:
    """Refuse a scalar that is not an ``int`` or a ``Fraction``; bools and floats are refused too."""
    if type(c) is not int and not isinstance(c, Fraction):
        raise ValueError(f"scalar {c!r} is not an int or a Fraction")


class Value(tuple):
    """Base of the package's value and record types, each a namedtuple.

    A tuple underneath, for a cheap import and cheap hashing, but none of
    the tuple's arithmetic or order leaks through: ``+`` and ``*`` are
    refused, and so are ``<``, ``<=``, ``>`` and ``>=``, with TypeError.  A
    value equals only a value of its own class, never a plain tuple.
    ``_make``, and so ``_replace``, goes through the constructor and its
    checks.
    """

    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __add__(self, other: object):
        return NotImplemented  # not the tuple's concatenation, nor its repetition under ``*``

    __mul__ = __rmul__ = __add__

    def __radd__(self, other: object):
        # NotImplemented here would hand ``tuple + value`` to the tuple's concatenation
        raise TypeError(f"unsupported operand type(s) for +: {type(other).__name__!r} and {type(self).__name__!r}")

    def __lt__(self, other: object):
        # NotImplemented here would hand ``tuple < value`` to the tuple's order
        raise TypeError(f"{type(self).__name__} values have no order")

    __le__ = __gt__ = __ge__ = __lt__

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


def window_descent_counts(w: tuple[int, ...]) -> tuple[int, ...]:
    """d_i, the number of descents of a window at positions >= i, by one suffix count."""
    d = [0] * len(w)
    for i in range(len(w) - 2, -1, -1):
        d[i] = d[i + 1] + (w[i] > w[i + 1])
    return tuple(d)


def window_inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    """Window of the inverse signed permutation."""
    out = [0] * len(w)
    for pos, v in enumerate(w, start=1):
        if v > 0:
            out[v - 1] = pos
        else:
            out[-v - 1] = -pos
    return tuple(out)


class SignedPermutation(Value, namedtuple("SignedPermutation", "window")):
    """A signed permutation in window notation.

    The window lists the images of 1..n as nonzero integers whose
    absolute values are a permutation of 1..n.  Values are immutable;
    all operations return new elements.
    """

    __slots__ = ()

    def __new__(cls, window: tuple[int, ...]) -> SignedPermutation:
        window = tuple(window)
        n = len(window)
        if n == 0:
            raise ValueError("window must contain at least one entry")
        seen: set[int] = set()
        for pos, value in enumerate(window, start=1):
            if type(value) is not int:
                raise ValueError(f"entry {value!r} at position {pos} is not an integer")
            if value == 0:
                raise ValueError(f"zero entry at position {pos}")
            if abs(value) > n:
                raise ValueError(
                    f"entry {value} at position {pos} is out of range for rank {n}"
                )
            if abs(value) in seen:
                raise ValueError(
                    f"repeated absolute value {abs(value)} at position {pos}"
                )
            seen.add(abs(value))
        return tuple.__new__(cls, (window,))

    @property
    def n(self) -> int:
        return len(self.window)

    def inverse(self) -> "SignedPermutation":
        return SignedPermutation(window_inverse(self.window))

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.window) + "]"


class StatisticsProfile(Value, namedtuple("StatisticsProfile", "descent_set d eps f maj neg fmaj")):
    """All descent statistics of one signed permutation.

    The descent set is a frozenset, d, eps and f are tuples and the rest
    are ints.  Invariants (theorems, not enforced here): d is weakly
    decreasing with d[n-1] = 0, f is weakly decreasing, f[i] = 2*d[i] +
    eps[i], and fmaj = sum(f) = 2*maj + neg.
    """

    __slots__ = ()


def statistics(sigma: SignedPermutation) -> StatisticsProfile:
    """Descent statistics of ``sigma``.

    The descent set holds the positions i < n with sigma(i) > sigma(i+1)
    in plain integer order; d_i counts descents at positions >= i; eps_i
    flags negative window entries; f_i = 2*d_i + eps_i.
    """
    w = sigma.window
    n = sigma.n
    descents = frozenset(i for i in range(1, n) if w[i - 1] > w[i])
    d = window_descent_counts(w)
    eps = tuple(1 if v < 0 else 0 for v in w)
    f = tuple(2 * di + ei for di, ei in zip(d, eps))
    maj = sum(descents)
    neg = sum(eps)
    return StatisticsProfile(descents, d, eps, f, maj, neg, 2 * maj + neg)


def parse_window(text: str) -> SignedPermutation:
    """Parse window notation like "[2,-1,-4,3]" (spaces tolerated)."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"window must be bracketed like [2,-1,3], got {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise ValueError("empty window")
    return SignedPermutation(parse_integers(body))


def parse_integers(text: str) -> tuple[int, ...]:
    """Parse comma-separated ASCII integers like "2, -1,3" (spaces tolerated)."""
    entries = [entry.strip() for entry in text.split(",")]
    for pos, entry in enumerate(entries, start=1):
        if not ASCII_INTEGER.fullmatch(entry):
            raise ValueError(f"entry {entry!r} at position {pos} is not an integer")
    return tuple(map(int, entries))


def enumerate_group(n: int) -> Iterator[SignedPermutation]:
    """Yield every rank-n signed permutation exactly once.

    The stream is ordered lexicographically on windows under plain
    integer order (so -k sorts before k).  ``check_walk`` refuses the rank.
    """
    check_walk(n)
    values = [v for v in range(-n, n + 1) if v != 0]

    def rec(prefix: tuple[int, ...], used: frozenset[int]) -> Iterator[SignedPermutation]:
        if len(prefix) == n:
            yield SignedPermutation(prefix)
            return
        for v in values:
            if abs(v) not in used:
                yield from rec(prefix + (v,), used | {abs(v)})

    return rec((), frozenset())
