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

import math
import re
from dataclasses import dataclass
from typing import Iterator

#: An integer in ASCII digits, as window entries and CLI integers are
#: written: int() alone also reads "1_0" and non-ASCII digits.
ASCII_INTEGER = re.compile(r"[+-]?[0-9]+")

#: An exact coefficient string of the polynomial JSON schema: an
#: ASCII integer, optionally over an ASCII denominator.
ASCII_FRACTION = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

#: Rank cap of the group walks, ``enumerate_group`` and the Hilbert
#: numerator scan, whose cost is the 2^n * n! group elements: about ten
#: million at rank 8, where the scan takes 6-7 s and a full
#: ``enumerate_group`` walk about 47 s (2-vCPU Xeon); rank 9 has 18
#: times as many elements.  Past the cap a walk is refused loudly
#: instead of silently burning time.
ENUMERATION_GUARD = 8


class ParseError(ValueError):
    """Window text that does not describe a signed permutation."""


class RankGuardError(ValueError):
    """A group walk refused because the group is too large to enumerate."""


def check_rank(n: int) -> None:
    """Refuse a rank that is not a positive ``int``; bools and floats are refused too."""
    if type(n) is not int or n < 1:
        raise ValueError(f"rank {n!r} is not a positive integer")


def group_order(n: int) -> int:
    """Order of the rank-n signed permutation group, 2^n * n!."""
    return (1 << n) * math.factorial(n)


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


@dataclass(frozen=True)
class SignedPermutation:
    """A signed permutation in window notation.

    The window lists the images of 1..n as nonzero integers whose
    absolute values are a permutation of 1..n.  Values are immutable;
    all operations return new elements.
    """

    window: tuple[int, ...]

    def __post_init__(self) -> None:
        window = tuple(self.window)
        object.__setattr__(self, "window", window)
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

    @property
    def n(self) -> int:
        return len(self.window)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        check_rank(n)
        return cls(tuple(range(1, n + 1)))

    def __call__(self, k: int) -> int:
        """Image of k for k in {-n, ..., -1, 1, ..., n}."""
        if k > 0:
            return self.window[k - 1]
        if k < 0:
            return -self.window[-k - 1]
        raise ValueError("0 is not in the domain of a signed permutation")

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """Composition self * other, applying ``other`` first."""
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        return SignedPermutation(tuple(self(v) for v in other.window))

    def inverse(self) -> "SignedPermutation":
        return SignedPermutation(window_inverse(self.window))

    def is_positive(self) -> bool:
        """True when no window entry is negative, i.e. a plain permutation."""
        return all(v > 0 for v in self.window)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.window) + "]"

    def to_json(self) -> dict:
        return {"n": self.n, "window": list(self.window)}

    @classmethod
    def from_json(cls, data: dict) -> "SignedPermutation":
        if not isinstance(data, dict) or not isinstance(data.get("window"), list):
            raise ValueError('a signed permutation must be a JSON object with a "window" list')
        if "n" in data and type(data["n"]) is not int:
            raise ValueError(f"declared rank {data['n']!r} is not an integer")
        sigma = cls(tuple(data["window"]))
        if "n" in data and data["n"] != sigma.n:
            raise ValueError(f"declared rank {data['n']} does not match window length {sigma.n}")
        return sigma


@dataclass(frozen=True)
class StatisticsProfile:
    """All descent statistics of one signed permutation.

    Invariants (theorems, not enforced here): d is weakly decreasing with
    d[n-1] = 0, f is weakly decreasing, f[i] = 2*d[i] + eps[i], and
    fmaj = sum(f) = 2*maj + neg.
    """

    descent_set: frozenset[int]
    d: tuple[int, ...]
    eps: tuple[int, ...]
    f: tuple[int, ...]
    maj: int
    neg: int
    fmaj: int


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
        raise ParseError(f"window must be bracketed like [2,-1,3], got {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise ParseError("empty window")
    entries = [entry.strip() for entry in body.split(",")]
    for pos, entry in enumerate(entries, start=1):
        if not ASCII_INTEGER.fullmatch(entry):
            raise ParseError(f"entry {entry!r} at position {pos} is not an integer")
    try:
        return SignedPermutation(tuple(int(entry) for entry in entries))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def enumerate_group(n: int) -> Iterator[SignedPermutation]:
    """Yield every rank-n signed permutation exactly once.

    The stream is ordered lexicographically on windows under plain
    integer order (so -k sorts before k).  Ranks above
    ``ENUMERATION_GUARD`` are refused with the size they would stream.
    """
    check_rank(n)
    if n > ENUMERATION_GUARD:
        raise RankGuardError(
            f"rank {n} exceeds the enumeration guard {ENUMERATION_GUARD}: refusing to stream {group_order(n)} elements"
        )
    values = [v for v in range(-n, n + 1) if v != 0]

    def rec(prefix: tuple[int, ...], used: frozenset[int]) -> Iterator[SignedPermutation]:
        if len(prefix) == n:
            yield SignedPermutation(prefix)
            return
        for v in values:
            if abs(v) not in used:
                yield from rec(prefix + (v,), used | {abs(v)})

    return rec((), frozenset())
