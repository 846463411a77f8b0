"""Expansion of invariant polynomials over the averaged descent monomials.

Every diagonally invariant polynomial is a unique combination of the
averaged diagonal signed descent monomials with coefficients that are
separately invariant in each variable family.  An invariant is fixed by
its coefficients at the ordered monomials, so the expansion works on
those columns alone, walking them once in decreasing order.  A nonzero
column w decomposes as x^(2 nu) y^(2 mu) c_sigma, and m_nu(x^2)
m_mu(y^2) rho(c_sigma) is positive at w and zero at every larger
column, so subtracting its matching multiple clears w for good.  The
walk works in orbit sums alone: the remainder starts as the input's
``orbit_sums`` at the columns, and ``product_coefficients`` gives the
product's orbit sums there as integer term counts, so the scalar at a
column is its remainder over its count.  On invariants the orbit sum
at w is the orbit size times the coefficient at w, which is injective.
The walk keeps one scalar per (sigma, nu, mu) and builds each
coefficient once at the end, from the same cached rearrangements of
2 nu and 2 mu.  ``rho`` is linear over invariants, so ``evaluate`` sums
an expansion back as one average of coefficient * c_sigma,
independently of ``product_coefficients`` and ``decompose``;
``evaluates_to`` compares the orbit sums of that sum with the input's,
which checks the walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .descent_basis import (
    column_index,
    decompose,
    diagonal_signed_descent_monomial,
    doubled_rearrangements,
    order_key,
    ordered_monomials,
    product_coefficients,
)
from .hilbert import COLUMN_GUARD
from .poly import (
    TERM_GUARD,
    Monomial,
    Polynomial,
    _invariance_failure,
    is_separately_invariant,
    json_object,
    orbit_sums,
    rearrangement_count,
    rho,
)
from .signed_perm import SignedPermutation


@dataclass
class BasisExpansion:
    """Coefficients of an invariant over the averaged descent basis.

    Maps each signed permutation to a separately invariant coefficient
    polynomial; zero coefficients are never stored.
    """

    n: int
    entries: dict[SignedPermutation, Polynomial] = field(default_factory=dict)

    def add(self, sigma: SignedPermutation, coeff: Polynomial) -> None:
        total = self.entries.get(sigma, Polynomial.zero(self.n)) + coeff
        if total.is_zero():
            self.entries.pop(sigma, None)
        else:
            self.entries[sigma] = total

    def validate(self) -> None:
        """Check the coefficient-ring membership of every entry."""
        for sigma, coeff in self.entries.items():
            if coeff.is_zero():
                raise ValueError(f"zero coefficient stored for {sigma}")
            if not is_separately_invariant(coeff):
                raise ValueError(
                    f"coefficient of {sigma} is not separately invariant in x and y"
                )

    def items(self) -> list[tuple[SignedPermutation, Polynomial]]:
        return sorted(self.entries.items(), key=lambda sc: sc[0].window)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {"sigma": list(sigma.window), "coeff": coeff.to_json()}
                for sigma, coeff in self.items()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BasisExpansion":
        n, entries = json_object(data, "an expansion", "entries")
        exp = cls(n)
        seen: set[SignedPermutation] = set()
        for entry in entries:
            sigma, coeff = entry.get("sigma"), Polynomial.from_json(entry.get("coeff"))
            if not isinstance(sigma, list) or len(sigma) != n or coeff.n != n:
                raise ValueError(f"entry {entry!r} needs a window list and a coefficient of rank {n}")
            sigma = SignedPermutation(tuple(sigma))
            if sigma in seen:
                raise ValueError(f"sigma {sigma} is listed twice")
            seen.add(sigma)
            exp.add(sigma, coeff)
        return exp


def straighten(f: Polynomial) -> BasisExpansion:
    """Expand an invariant polynomial over the averaged descent basis.

    The orbit sums of each bidegree are read at the ordered monomials
    of that bidegree and reduced by one walk over them in decreasing
    order.  The products are triangular, so the walk must leave a zero
    remainder at every column; anything else raises RuntimeError.  More
    than ``COLUMN_GUARD`` columns or ``TERM_GUARD`` product terms are
    refused before the walk or the product that would pass the cap.
    """
    reason = _invariance_failure(f)
    if reason is not None:
        raise ValueError(f"input is not invariant: {reason}")
    allowance, terms = COLUMN_GUARD, 0
    # The scalar of m_nu(x^2) m_mu(y^2) in each sigma's coefficient.  A
    # column names its (sigma, nu, sorted mu) uniquely and is visited
    # once, so each key is set once.
    scalars: dict[SignedPermutation, dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]] = {}
    components: dict[tuple[int, int], dict[tuple[tuple[int, int], ...], Fraction]] = {}
    for key, c in orbit_sums(f).items():
        components.setdefault(tuple(map(sum, zip(*key))), {})[key] = c
    for bd, sums in sorted(components.items()):
        columns = list(islice(ordered_monomials(f.n, *bd), allowance + 1))
        allowance -= len(columns)
        if allowance < 0:
            raise ValueError(f"bidegree {bd} takes the ordered columns past the cap of {COLUMN_GUARD}")
        columns.sort(key=order_key, reverse=True)
        index = column_index(columns)
        # the index lists the columns in order
        remainder = [sums.get(key, 0) for key in index]
        for j, w in enumerate(columns):
            if remainder[j]:
                dec = decompose(w)
                terms += rearrangement_count(dec.nu) * rearrangement_count(dec.mu)
                if terms > TERM_GUARD:
                    raise ValueError(f"products reach {terms} terms at bidegree {bd}, above the cap of {TERM_GUARD}")
                product = product_coefficients(dec, index)
                lead = product.get(j, 0)
                if lead <= 0:
                    raise RuntimeError(
                        "leading coefficient of the reduction product must be positive; "
                        f"got {lead} for {w.text()}"
                    )
                scalar = Fraction(remainder[j], lead)
                for v, count in product.items():
                    remainder[v] -= scalar * count
                scalars.setdefault(dec.sigma, {})[dec.nu, tuple(sorted(dec.mu, reverse=True))] = scalar
        if any(remainder):
            raise RuntimeError(
                f"straightening of bidegree {bd} left a nonzero remainder; "
                "the reduction products are not triangular"
            )
    return BasisExpansion(
        f.n, {sigma: _coefficient(f.n, labels) for sigma, labels in scalars.items()}
    )


def _coefficient(n: int, labels: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]) -> Polynomial:
    # The sum of scalar * m_nu(x^2) m_mu(y^2): each term is one distinct
    # rearrangement of 2*nu in x times one of 2*mu in y, and distinct
    # (nu, mu) share no term, so no coefficient is added to another.
    terms: dict[Monomial, Fraction] = {}
    for (nu, mu), scalar in labels.items():
        ys = doubled_rearrangements(mu)
        for xs in doubled_rearrangements(nu):
            terms.update(dict.fromkeys((Monomial(xs, s) for s in ys), scalar))
    return Polynomial(n, terms)


def _combination(expansion: BasisExpansion) -> Polynomial:
    # The sum of coefficient * c_sigma, once ``validate`` passes.
    expansion.validate()
    acc: dict[Monomial, Fraction] = {}
    for sigma, coeff in expansion.entries.items():
        c = diagonal_signed_descent_monomial(sigma)
        for m in coeff.monomials():
            u = m * c
            acc[u] = acc.get(u, Fraction(0)) + coeff.coefficient(m)
    return Polynomial(expansion.n, acc)


def evaluate(expansion: BasisExpansion) -> Polynomial:
    """rho(sum of coefficient * c_sigma): the expansion's value, once ``validate`` passes."""
    return rho(_combination(expansion))


def evaluates_to(expansion: BasisExpansion, f: Polynomial) -> bool:
    """True when ``evaluate(expansion)`` equals ``rho(f)``, which is ``f`` for invariant ``f``.

    Compares the orbit sums of the sum of coefficient * c_sigma with
    those of ``f``, so no orbit is expanded and no term cap applies.  Like
    ``evaluate`` it runs ``validate`` first and calls neither
    ``decompose`` nor ``product_coefficients``.
    """
    return orbit_sums(_combination(expansion)) == orbit_sums(f)
