"""Expansion of invariant polynomials over the averaged descent monomials.

Every diagonally invariant polynomial is a unique combination of the
averaged diagonal signed descent monomials with coefficients that are
separately invariant in each variable family.  The expansion is computed
by iterated leading-term reduction: take the largest ordered monomial,
peel off its even part as a product of monomial symmetric functions in
the squared variables, subtract the matching multiple of the averaged
basis element, and repeat on the strictly smaller remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .descent_basis import (
    decompose,
    diagonal_signed_descent_monomial,
    is_ordered,
    order_key,
    ordered_monomials,
)
from .poly import (
    Bidegree,
    Monomial,
    Polynomial,
    bidegree_components,
    find_violated_generator,
    is_separately_invariant,
    monomial_sym_squares,
    rho,
)
from .signed_perm import ENUMERATION_GUARD, RankGuardError, SignedPermutation


@lru_cache(maxsize=None)
def averaged_basis_element(sigma: SignedPermutation) -> Polynomial:
    """Group average of the diagonal signed descent monomial of ``sigma``."""
    return rho(Polynomial.from_monomial(diagonal_signed_descent_monomial(sigma)))


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
        exp = cls(int(data["n"]))
        for entry in data.get("entries", []):
            exp.add(
                SignedPermutation(tuple(entry["sigma"])),
                Polynomial.from_json(entry["coeff"]),
            )
        return exp


def _leading_ordered(f: Polynomial) -> tuple[Monomial, Fraction]:
    # Every orbit contributing to an invariant polynomial contains its
    # ordered representative with the same coefficient, so the maximum
    # over ordered monomials is the true leading term.
    best: Optional[Monomial] = None
    best_key = None
    for m in f.monomials():
        if is_ordered(m):
            key = order_key(m)
            if best_key is None or key > best_key:
                best, best_key = m, key
    if best is None:
        raise RuntimeError("invariant polynomial without an ordered monomial; action bug")
    return best, f.coefficient(best)


def leading_term(
    f: Polynomial, bidegree: Optional[Bidegree] = None
) -> tuple[Monomial, Fraction]:
    """Largest ordered monomial of a bihomogeneous invariant, with coefficient."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    violated = find_violated_generator(f)
    if violated is not None:
        raise ValueError(f"polynomial is not invariant: it changes under {violated}")
    components = bidegree_components(f)
    if len(components) != 1:
        raise ValueError("polynomial is not bihomogeneous")
    (actual,) = components
    if bidegree is not None and Bidegree(*bidegree) != actual:
        raise ValueError(f"expected bidegree {tuple(bidegree)}, found {tuple(actual)}")
    return _leading_ordered(f)


class ReduceStep(NamedTuple):
    """One straightening step: f = scalar * m_nu(x^2) m_mu(y^2) rho(c_sigma) + remainder."""

    sigma: SignedPermutation
    nu: tuple[int, ...]
    mu: tuple[int, ...]
    scalar: Fraction
    remainder: Polynomial


def _reduce_once(f: Polynomial) -> ReduceStep:
    m, c = _leading_ordered(f)
    return _reduce_at(f, m, c)


def _reduce_at(f: Polynomial, m: Monomial, c: Fraction) -> ReduceStep:
    dec = decompose(m)
    product = (
        monomial_sym_squares(dec.nu, "x", f.n)
        * monomial_sym_squares(dec.mu, "y", f.n)
        * averaged_basis_element(dec.sigma)
    )
    lead = product.coefficient(m)
    if lead <= 0:
        raise RuntimeError(
            "leading coefficient of the reduction product must be positive; "
            f"got {lead} for {m.text()}"
        )
    scalar = c / lead
    return ReduceStep(dec.sigma, dec.nu, dec.mu, scalar, f - scalar * product)


def reduce_step(f: Polynomial, bidegree: Optional[Bidegree] = None) -> ReduceStep:
    """Strip the leading ordered monomial of a bihomogeneous invariant.

    Subtracts scalar * m_nu(x^2) * m_mu(y^2) * rho(c_sigma), chosen so the
    leading ordered monomial cancels; every ordered monomial of the
    remainder is strictly smaller.
    """
    leading_term(f, bidegree)  # validates nonzero, invariant, bihomogeneous
    return _reduce_once(f)


def straighten(f: Polynomial, guard: int = ENUMERATION_GUARD) -> BasisExpansion:
    """Expand an invariant polynomial over the averaged descent basis.

    The input is split into bihomogeneous components and each component
    is reduced until it vanishes.  Termination is guarded by the number
    of ordered monomials of the component's bidegree, which bounds the
    length of any strictly decreasing chain.
    """
    if f.n > guard:
        raise RankGuardError(
            f"rank {f.n} exceeds the straightening guard {guard}: "
            f"each monomial has up to {math.factorial(f.n)} rearrangements of its exponent pairs"
        )
    violated = find_violated_generator(f)
    if violated is not None:
        raise ValueError(f"input is not invariant: it changes under generator {violated}")
    expansion = BasisExpansion(f.n)
    for bd, component in bidegree_components(f).items():
        bound = sum(1 for _ in ordered_monomials(f.n, bd.a, bd.b))
        remainder = component
        previous_key = None
        steps = 0
        while not remainder.is_zero():
            steps += 1
            if steps > bound:
                raise RuntimeError(
                    f"straightening of bidegree {tuple(bd)} exceeded {bound} steps; "
                    "descent chain failed to terminate"
                )
            m, c = _leading_ordered(remainder)
            key = order_key(m)
            if previous_key is not None and not key < previous_key:
                raise RuntimeError("leading ordered monomial failed to strictly decrease")
            previous_key = key
            step = _reduce_at(remainder, m, c)
            coeff = (
                monomial_sym_squares(step.nu, "x", f.n)
                * monomial_sym_squares(step.mu, "y", f.n)
                * step.scalar
            )
            expansion.add(step.sigma, coeff)
            remainder = step.remainder
    return expansion


def evaluate(expansion: BasisExpansion) -> Polynomial:
    """Sum of coefficient * rho(c_sigma) over all entries, computed exactly."""
    total = Polynomial.zero(expansion.n)
    for sigma, coeff in expansion.entries.items():
        total = total + coeff * averaged_basis_element(sigma)
    return total
