"""Exact sparse polynomials in two variable families with the signed group action.

Polynomials live in Q[x_1..x_n, y_1..y_n] with Fraction coefficients.  A
signed permutation acts diagonally, sending x_i and y_i to
sign(sigma(i)) * x_{|sigma(i)|} and sign(sigma(i)) * y_{|sigma(i)|}.
The averaging operator projects onto the invariant ring by averaging the
orbit of each monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .signed_perm import (
    ENUMERATION_GUARD,
    RankGuardError,
    SignedPermutation,
    generators,
    group_order,
)

Scalar = Union[int, Fraction]


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
        if any(e < 0 for e in p) or any(e < 0 for e in q):
            raise ValueError("exponents must be non-negative")

    @property
    def n(self) -> int:
        return len(self.p)

    @classmethod
    def one(cls, n: int) -> "Monomial":
        return cls((0,) * n, (0,) * n)

    def bidegree(self) -> Bidegree:
        return Bidegree(sum(self.p), sum(self.q))

    def total_degree(self) -> int:
        return sum(self.p) + sum(self.q)

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


class Polynomial:
    """Finite map from monomials to nonzero exact rational coefficients.

    Instances are immutable: arithmetic returns new polynomials and zero
    coefficients are never stored.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Optional[Mapping[Monomial, Scalar]] = None):
        if n < 1:
            raise ValueError("rank must be at least 1")
        clean: dict[Monomial, Fraction] = {}
        for m, c in (terms or {}).items():
            if m.n != n:
                raise ValueError(f"monomial rank {m.n} does not match polynomial rank {n}")
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
        # ``type(v) is int`` refuses bools and floats, so no inexact value
        # gets in; coefficients may also be exact fraction strings.
        if not isinstance(data, dict) or type(data.get("n")) is not int:
            raise ValueError('a polynomial must be a JSON object with an integer "n"')
        entries = data.get("terms", [])
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError('"terms" must be a list of objects')
        terms: dict[Monomial, Fraction] = {}
        for entry in entries:
            p, q, c = entry.get("p"), entry.get("q"), entry.get("coeff")
            if not all(isinstance(v, list) and all(type(e) is int for e in v) for v in (p, q)):
                raise ValueError(f"term exponents p and q must be lists of integers, got {entry!r}")
            if type(c) is not int and not isinstance(c, str):
                raise ValueError(f"a coefficient must be an integer or a fraction string, got {c!r}")
            try:
                coeff = Fraction(c)
            except ZeroDivisionError:
                raise ValueError(f"coefficient {c!r} has a zero denominator") from None
            m = Monomial(tuple(p), tuple(q))
            terms[m] = terms.get(m, Fraction(0)) + coeff
        return cls(data["n"], terms)


def _act_monomial(
    sigma: SignedPermutation, m: Monomial, on_x: bool = True, on_y: bool = True
) -> tuple[Monomial, int]:
    """Image of a monomial under sigma acting on the selected families."""
    n = m.n
    p = [0] * n if on_x else list(m.p)
    q = [0] * n if on_y else list(m.q)
    sign = 1
    for i, v in enumerate(sigma.window):
        j = abs(v) - 1
        moved = 0
        if on_x:
            p[j] = m.p[i]
            moved += m.p[i]
        if on_y:
            q[j] = m.q[i]
            moved += m.q[i]
        if v < 0 and moved % 2:
            sign = -sign
    return Monomial(tuple(p), tuple(q)), sign


def act(sigma: SignedPermutation, f: Polynomial) -> Polynomial:
    """Diagonal action of ``sigma`` on ``f``.

    Acting twice composes: act(sigma, act(tau, f)) equals
    act(sigma * tau, f).
    """
    if sigma.n != f.n:
        raise ValueError(f"rank mismatch: {sigma.n} vs {f.n}")
    acc: dict[Monomial, Fraction] = {}
    for m, c in f._terms.items():
        image, sign = _act_monomial(sigma, m)
        acc[image] = acc.get(image, Fraction(0)) + sign * c
    return Polynomial(f.n, acc)


def _act_family(sigma: SignedPermutation, f: Polynomial, family: str) -> Polynomial:
    on_x = family == "x"
    acc: dict[Monomial, Fraction] = {}
    for m, c in f._terms.items():
        image, sign = _act_monomial(sigma, m, on_x=on_x, on_y=not on_x)
        acc[image] = acc.get(image, Fraction(0)) + sign * c
    return Polynomial(f.n, acc)


def _rho_monomial(m: Monomial) -> dict[Monomial, Fraction]:
    # See rho for the two cases; the weight 1/|orbit| = |stabiliser|/n! is
    # what averaging over all n! plain permutations gives.
    if any((pi + qi) % 2 for pi, qi in zip(m.p, m.q)):
        return {}
    orbit = set(permutations(zip(m.p, m.q)))
    weight = Fraction(1, len(orbit))
    return {
        Monomial(tuple(p for p, _ in pairs), tuple(q for _, q in pairs)): weight
        for pairs in orbit
    }


def rho(f: Polynomial, guard: int = ENUMERATION_GUARD) -> Polynomial:
    """Average of ``f`` over the whole signed permutation group.

    The result is invariant, the operator is linear and idempotent, and
    it fixes every invariant polynomial.  Coefficients stay exact.

    No group element is enumerated.  A monomial with an odd total
    exponent in some slot averages to 0, because flipping the sign of
    that slot negates it; any other monomial averages to its orbit sum
    over the distinct rearrangements of its (x, y) exponent pairs,
    divided by the orbit size.
    """
    if f.n > guard:
        raise RankGuardError(
            f"rank {f.n} exceeds the averaging guard {guard}: "
            f"the group has {group_order(f.n)} elements"
        )
    acc: dict[Monomial, Fraction] = {}
    for m, c in f._terms.items():
        for image, weight in _rho_monomial(m).items():
            acc[image] = acc.get(image, Fraction(0)) + c * weight
    return Polynomial(f.n, acc)


def find_violated_generator(f: Polynomial) -> Optional[SignedPermutation]:
    """First group generator that moves ``f``, or None when invariant."""
    for g in generators(f.n):
        if act(g, f) != f:
            return g
    return None


def is_invariant(f: Polynomial) -> bool:
    """True when ``f`` is fixed by the diagonal action of the whole group.

    Checked on a generating set (adjacent transpositions plus one sign
    flip), which is equivalent to checking all group elements.
    """
    return find_violated_generator(f) is None


def is_separately_invariant(f: Polynomial) -> bool:
    """True when ``f`` is fixed by the group acting on x alone and on y alone.

    Such polynomials form the coefficient ring of the straightening
    expansion: symmetric functions of the squared x variables times
    symmetric functions of the squared y variables.
    """
    for family in ("x", "y"):
        for g in generators(f.n):
            if _act_family(g, f, family) != f:
                return False
    return True


def elementary_sym_squares(k: int, family: str, n: int) -> Polynomial:
    """k-th elementary symmetric polynomial in the squared variables."""
    if family not in ("x", "y"):
        raise ValueError(f"family must be 'x' or 'y', got {family!r}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    terms: dict[Monomial, int] = {}
    zero = (0,) * n
    for idxs in combinations(range(n), k):
        exps = [0] * n
        for j in idxs:
            exps[j] = 2
        vec = tuple(exps)
        m = Monomial(vec, zero) if family == "x" else Monomial(zero, vec)
        terms[m] = 1
    return Polynomial(n, terms)


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
    if any(v < 0 for v in lam):
        raise ValueError("entries must be non-negative")
    zero = (0,) * n
    terms: dict[Monomial, int] = {}
    for arrangement in set(permutations(lam)):
        vec = tuple(2 * v for v in arrangement)
        m = Monomial(vec, zero) if family == "x" else Monomial(zero, vec)
        terms[m] = 1
    return Polynomial(n, terms)


def bidegree_components(f: Polynomial) -> dict[Bidegree, Polynomial]:
    """Split ``f`` into its bihomogeneous parts; the parts sum to ``f``."""
    buckets: dict[Bidegree, dict[Monomial, Fraction]] = {}
    for m, c in f._terms.items():
        buckets.setdefault(m.bidegree(), {})[m] = c
    return {bd: Polynomial(f.n, terms) for bd, terms in sorted(buckets.items())}
