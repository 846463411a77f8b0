"""Exact sparse polynomials in two variable families with the signed group action.

Polynomials live in Q[x_1..x_n, y_1..y_n] with Fraction coefficients.  A
signed permutation acts diagonally, sending x_i and y_i to
sign(sigma(i)) * x_{|sigma(i)|} and sign(sigma(i)) * y_{|sigma(i)|}.
Invariance is decided by orbits, without acting on anything: the group
negates a term with an odd slot and otherwise only rearranges its
exponent pairs.  The averaging operator projects onto the invariant
ring by averaging the orbit of each monomial.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .signed_perm import ASCII_FRACTION, SignedPermutation, check_rank

Scalar = Union[int, Fraction]

#: Cap on the terms that ``rho`` and the products of ``straighten`` build: CLI
#: ``rho`` of 90,720 terms takes 1.9 s and 117 MB, and ``straighten`` of x1^30
#: y1^30 at rank 3 builds 69,121 in 1.25 s (2-vCPU Xeon).
TERM_GUARD = 100_000


class Bidegree(NamedTuple):
    """Total x-degree and total y-degree of a bihomogeneous piece."""

    a: int
    b: int


@dataclass(frozen=True)
class Monomial:
    """x^p y^q as a pair of dense exponent vectors of equal length."""

    p: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self) -> None:
        p = tuple(self.p)
        q = tuple(self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if len(p) == 0 or len(p) != len(q):
            raise ValueError("exponent vectors must be nonempty and of equal length")
        # Exact type int refuses floats, bools and strings alike; ``min``
        # runs only once every entry is an int.
        if set(map(type, p + q)) != {int} or min(p + q) < 0:
            raise ValueError(f"exponents must be non-negative integers, got {p} and {q}")

    @property
    def n(self) -> int:
        return len(self.p)

    @classmethod
    def one(cls, n: int) -> "Monomial":
        check_rank(n)
        return cls((0,) * n, (0,) * n)

    def bidegree(self) -> Bidegree:
        return Bidegree(sum(self.p), sum(self.q))

    def total_degree(self) -> int:
        return sum(self.p) + sum(self.q)

    def odd_slot(self) -> Optional[int]:
        """First slot k (from 1) with p_k + q_k odd, whose sign flip negates this monomial."""
        return next((k for k, (a, b) in enumerate(zip(self.p, self.q), start=1) if (a + b) % 2), None)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        return Monomial(
            tuple(a + b for a, b in zip(self.p, other.p)),
            tuple(a + b for a, b in zip(self.q, other.q)),
        )

    def text(self) -> str:
        parts = []
        for name, exps in (("x", self.p), ("y", self.q)):
            for i, e in enumerate(exps, start=1):
                if e == 1:
                    parts.append(f"{name}{i}")
                elif e > 1:
                    parts.append(f"{name}{i}^{e}")
        return " ".join(parts) if parts else "1"


def json_object(data: object, what: str, key: str) -> tuple[int, list[dict]]:
    """The rank and the ``key`` list of a JSON object; bool and float ranks are refused.

    A missing ``key`` is refused, since a misspelt key would load as zero.
    """
    try:
        check_rank(data.get("n") if isinstance(data, dict) else None)
    except ValueError:
        raise ValueError(f'{what} must be a JSON object with a positive integer "n"') from None
    entries = data.get(key)
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f'{what} needs "{key}", a list of objects')
    return data["n"], entries


class Polynomial:
    """Finite map from monomials to nonzero exact rational coefficients.

    Instances are immutable: arithmetic returns new polynomials and zero
    coefficients are never stored.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Optional[Mapping[Monomial, Scalar]] = None):
        check_rank(n)
        clean: dict[Monomial, Fraction] = {}
        for m, c in (terms or {}).items():
            if m.n != n:
                raise ValueError(f"monomial rank {m.n} does not match polynomial rank {n}")
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[m] = c
        self.n = n
        self._terms = clean

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls(n, {Monomial.one(n): 1})

    @classmethod
    def from_monomial(cls, m: Monomial, coeff: Scalar = 1) -> "Polynomial":
        return cls(m.n, {m: coeff})

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(m, Fraction(0))

    def monomials(self) -> Iterator[Monomial]:
        return iter(self._terms)

    def items(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical order, decreasing lexicographic on (p, q)."""
        return sorted(self._terms.items(), key=lambda mc: (mc[0].p, mc[0].q), reverse=True)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    __hash__ = None  # mutable-looking container; expansions key on permutations instead

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {m: -c for m, c in self._terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, Fraction(0)) + c
        return Polynomial(self.n, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.n, {m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.n, acc)

    def __rmul__(self, other: Scalar) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def text(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for m, c in self.items():
            mono = m.text()
            if mono == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)} {mono}"
            chunks.append((c < 0, body))
        out = ("-" if chunks[0][0] else "") + chunks[0][1]
        for negative, body in chunks[1:]:
            out += (" - " if negative else " + ") + body
        return out

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}, {self.text()})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"p": list(m.p), "q": list(m.q), "coeff": str(c)}
                for m, c in self.items()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        # Exponents must be ints too; coefficients may also be exact
        # fraction strings.  The fraction is built from the integers that
        # ``ASCII_FRACTION`` matched, never by ``Fraction`` parsing the
        # string, which would expand a decimal exponent such as
        # "1e10000000" in full.
        n, entries = json_object(data, "a polynomial", "terms")
        terms: dict[Monomial, Fraction] = {}
        for entry in entries:
            p, q, c = entry.get("p"), entry.get("q"), entry.get("coeff")
            if not all(isinstance(v, list) and all(type(e) is int for e in v) for v in (p, q)):
                raise ValueError(f"term exponents p and q must be lists of integers, got {entry!r}")
            if type(c) is int:
                num, den = c, 1
            else:
                match = ASCII_FRACTION.fullmatch(c) if isinstance(c, str) else None
                if match is None:
                    raise ValueError(f"a coefficient must be an integer or a fraction string, got {c!r}")
                num, den = int(match[1]), int(match[2] or 1)
            if not den:
                raise ValueError(f"coefficient {c!r} has a zero denominator")
            m = Monomial(tuple(p), tuple(q))
            if m in terms:
                raise ValueError(f"monomial {m.text()} is listed twice")
            terms[m] = Fraction(num, den)
        return cls(n, terms)


def act(sigma: SignedPermutation, f: Polynomial) -> Polynomial:
    """Diagonal action of ``sigma`` on ``f``.

    Acting twice composes: act(sigma, act(tau, f)) equals
    act(sigma * tau, f).
    """
    if sigma.n != f.n:
        raise ValueError(f"rank mismatch: {sigma.n} vs {f.n}")
    acc: dict[Monomial, Fraction] = {}
    for m, c in f._terms.items():
        p = [0] * f.n
        q = [0] * f.n
        sign = 1
        for i, v in enumerate(sigma.window):
            p[abs(v) - 1] = m.p[i]
            q[abs(v) - 1] = m.q[i]
            if v < 0 and (m.p[i] + m.q[i]) % 2:
                sign = -sign
        image = Monomial(tuple(p), tuple(q))
        acc[image] = acc.get(image, Fraction(0)) + sign * c
    return Polynomial(f.n, acc)


def distinct_permutations(items: Iterable) -> Iterator[tuple]:
    """The distinct rearrangements of ``items``, in increasing lexicographic order.

    Knuth's Algorithm L (TAOCP 4A, 7.2.1.2) for multisets: from the
    sorted sequence, each step finds the last j with a[j] < a[j+1],
    swaps a[j] with the last entry above it and reverses the tail after
    j.  No duplicate is ever built, so the cost is the number of
    distinct rearrangements, not n!.
    """
    a = sorted(items)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(a) - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


def rearrangements(m: Monomial) -> list[Monomial]:
    """The distinct monomials whose exponent pairs (p_k, q_k) rearrange those of ``m``."""
    return [Monomial(*zip(*pairs)) for pairs in distinct_permutations(zip(m.p, m.q))]


def orbit_key(m: Monomial) -> tuple[tuple[int, int], ...]:
    """The sorted exponent pairs (p_k, q_k) of ``m``.

    Two monomials with every slot total even share an averaging orbit
    exactly when their keys are equal.
    """
    return tuple(sorted(zip(m.p, m.q)))


def _orbits(f: Polynomial, key: Callable[[Monomial], object]) -> dict[object, list[Monomial]]:
    # The terms of ``f`` grouped by ``key``, which is called once per term.
    orbits: dict[object, list[Monomial]] = {}
    for m in f._terms:
        orbits.setdefault(key(m), []).append(m)
    return orbits


def rearrangement_count(items: Iterable) -> int:
    """Number of distinct rearrangements of a finite sequence."""
    counts = Counter(items)
    return math.factorial(sum(counts.values())) // math.prod(math.factorial(k) for k in counts.values())


def orbit_sums(f: Polynomial) -> dict[tuple[tuple[int, int], ...], Fraction]:
    """The nonzero sums of the coefficients of ``f`` over its orbits, keyed by ``orbit_key``.

    An orbit whose monomials have an odd total exponent in some slot is
    left out, because flipping the sign of that slot negates it, so it
    averages to 0.  ``rho`` puts each sum over the orbit size on every
    member of its orbit, so two polynomials have equal sums exactly when
    ``rho`` maps them to the same polynomial.  On an invariant the sum at
    w is the orbit size times the coefficient at w, which is injective.
    No orbit is expanded, and the odd slots are looked for once per orbit.
    """
    sums = {key: sum(f._terms[m] for m in ms) for key, ms in _orbits(f, orbit_key).items()}
    return {key: c for key, c in sums.items() if c and not any((p + q) % 2 for p, q in key)}


def rho(f: Polynomial) -> Polynomial:
    """Average of ``f`` over the whole signed permutation group.

    The result is invariant, the operator is linear and idempotent, and
    it fixes every invariant polynomial.  Coefficients stay exact.

    No group element is enumerated: each orbit sum of ``orbit_sums``,
    divided by the orbit size, goes to the distinct rearrangements of
    the orbit's (x, y) exponent pairs, so each orbit is walked once.
    The weight 1/|orbit| = |stabiliser|/n! is what averaging over all n!
    plain permutations gives.  More than ``TERM_GUARD`` orbit members
    are refused before any is built.
    """
    sums = orbit_sums(f)
    sizes = list(map(rearrangement_count, sums))
    terms = sum(sizes)
    if terms > TERM_GUARD:
        raise ValueError(f"the average has {terms} terms, above the cap of {TERM_GUARD}")
    acc: dict[Monomial, Fraction] = {}
    for (key, c), size in zip(sums.items(), sizes):
        acc.update(dict.fromkeys(rearrangements(Monomial(*zip(*key))), c / size))
    return Polynomial(f.n, acc)


def _orbit_failure(f: Polynomial, orbits: dict[object, list[Monomial]], size) -> Optional[str]:
    # Why the grouped terms of ``f`` are not whole orbits of ``size(key)``
    # members with one coefficient each, or None.
    for key, members in orbits.items():
        first = members[0]
        if len(members) != size(key):
            return f"the orbit of {first.text()} has {len(members)} of its {size(key)} terms"
        if any(f._terms[m] != f._terms[first] for m in members):
            return f"the orbit of {first.text()} has unequal coefficients"
    return None


def _invariance_failure(f: Polynomial, orbits: dict[tuple[tuple[int, int], ...], list[Monomial]]) -> Optional[str]:
    # Why ``f``, whose terms ``orbits`` groups by ``orbit_key``, is not
    # invariant, naming a term of ``f``, or None when it is.  Every member
    # of an orbit has the odd slots of its key, so they are looked for once
    # per key; the first odd key holds the first odd term.
    odd = next((ms[0] for key, ms in orbits.items() if any((p + q) % 2 for p, q in key)), None)
    if odd is not None:
        return f"the term {odd.text()} has an odd total exponent in slot {odd.odd_slot()}"
    return _orbit_failure(f, orbits, rearrangement_count)


def is_invariant(f: Polynomial) -> bool:
    """True when ``f`` is fixed by the diagonal action of the whole group.

    Decided by orbits, with no polynomial acted on.  A term with an odd
    total exponent in some slot is negated by that slot's sign flip.
    When every slot is even, the group only rearranges the exponent
    pairs, so each orbit must appear in full with one coefficient.
    """
    return _invariance_failure(f, _orbits(f, orbit_key)) is None


def is_separately_invariant(f: Polynomial) -> bool:
    """True when ``f`` is fixed by the group acting on x alone and on y alone.

    Such polynomials form the coefficient ring of the straightening
    expansion: symmetric functions of the squared x variables times
    symmetric functions of the squared y variables.  Decided by orbits:
    every exponent is even, and the terms sharing sorted x and sorted y
    exponents form a whole orbit with one coefficient.
    """
    orbits = _orbits(f, lambda m: (tuple(sorted(m.p)), tuple(sorted(m.q))))
    if any(e % 2 for p, q in orbits for e in p + q):
        return False
    return _orbit_failure(
        f, orbits, lambda key: rearrangement_count(key[0]) * rearrangement_count(key[1])
    ) is None


def elementary_sym_squares(k: int, family: str, n: int) -> Polynomial:
    """k-th elementary symmetric polynomial in the squared variables."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    return monomial_sym_squares((1,) * k + (0,) * (n - k), family, n)


def monomial_sym_squares(lam: Iterable[int], family: str, n: int) -> Polynomial:
    """Orbit sum of x^(2*lam) (or y^(2*lam)) over distinct rearrangements.

    Each distinct rearrangement of ``lam`` contributes one term with
    coefficient 1 and doubled exponents, so the result is a monomial
    symmetric polynomial in the squared variables.
    """
    if family not in ("x", "y"):
        raise ValueError(f"family must be 'x' or 'y', got {family!r}")
    lam = tuple(lam)
    if len(lam) != n:
        raise ValueError(f"expected {n} entries, got {len(lam)}")
    doubled = tuple(2 * v for v in lam)
    exponents = (doubled, (0,) * n) if family == "x" else ((0,) * n, doubled)
    return Polynomial(n, dict.fromkeys(rearrangements(Monomial(*exponents)), 1))


def bidegree_components(f: Polynomial) -> dict[Bidegree, Polynomial]:
    """Split ``f`` into its bihomogeneous parts; the parts sum to ``f``."""
    buckets: dict[Bidegree, dict[Monomial, Fraction]] = {}
    for m, c in f._terms.items():
        buckets.setdefault(m.bidegree(), {})[m] = c
    return {bd: Polynomial(f.n, terms) for bd, terms in sorted(buckets.items())}
