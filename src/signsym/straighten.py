"""Expansion of invariant polynomials over the averaged descent monomials.

Every diagonally invariant polynomial is a unique combination of the
averaged diagonal signed descent monomials rho(c_sigma) with
coefficients in Sym(x^2) (x) Sym(y^2), the polynomials separately
invariant in each variable family.  That ring has the basis
m_nu(x^2) m_mu(y^2), and an expansion keeps each coefficient in it: one
scalar per label (nu, mu) of weakly decreasing n-tuples.  A coefficient
becomes a polynomial only at the output edge, in
``BasisExpansion.coefficient``, and ``BasisExpansion.from_json`` reads
one back into labels, refusing a coefficient outside the ring.

An invariant is fixed by its coefficients at the ordered monomials, one
per orbit, so the expansion works on those columns alone.  A nonzero
column w decomposes as x^(2 nu) y^(2 mu) c_sigma, and m_nu(x^2)
m_mu(y^2) rho(c_sigma) is positive at w and zero at every larger column,
so subtracting its matching multiple clears w for good.  The walk is
the heap division of sparse polynomial algebra: it visits only the
orbits of its remainder, largest column first, and the products add
only smaller ones.  It works in orbit sums alone, keyed by the orbit's
sorted ``pair_codes``: the remainder starts as the input's orbit sums,
and ``product_coefficients`` gives the product's orbit sums as integer
term counts, so the scalar at a column is its remainder over its
count.  On invariants the
orbit sum at w is the orbit size times the coefficient at w, which is
injective.  A column names its label (sigma, nu, sorted mu) uniquely,
so the walk's scalars are the expansion.  ``rho`` is linear over
invariants, so ``evaluate`` sums an expansion back as one average of
coefficient * c_sigma, whose terms x^(r + delta) y^(s + gamma) are
walked straight from the labels, independently of
``product_coefficients`` and ``decompose``; ``evaluates_to`` compares
the orbit sums of that sum with the input's, which checks the walk.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from heapq import heappop, heappush

from .descent_basis import (
    _decompose,
    diagonal_signed_descent_monomial,
    doubled_rearrangements,
    order_key,
    pair_codes,
    product_coefficients,
    sign_twist,
)
from .poly import (
    Monomial,
    Polynomial,
    _invariance_failure,
    _orbit_groups,
    check_terms,
    is_separately_invariant,
    json_object,
    orbit_sums,
    rearrangement_count,
    rho,
)
from .signed_perm import SignedPermutation, check_rank, check_scalar

#: The partitions (nu, mu) of m_nu(x^2) m_mu(y^2).
Label = tuple[tuple[int, ...], tuple[int, ...]]


class BasisExpansion:
    """Coefficients of an invariant over the averaged descent basis.

    Maps each signed permutation to its coefficient in the basis
    m_nu(x^2) m_mu(y^2): a map from labels (nu, mu) to nonzero scalars.
    ``straighten`` and ``from_json`` store nu and mu as weakly decreasing
    n-tuples and never an empty coefficient.  A part in another order
    names the same product, and ``coefficient`` and ``evaluate`` add the
    scalars of labels that name one product.  They refuse, with
    ValueError, a sigma whose rank is not n, a part without n entries
    and a scalar that is not an int or a Fraction; ``check_rank`` refuses
    n at construction.
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: dict[SignedPermutation, dict[Label, Fraction]] | None = None):
        check_rank(n)
        self.n = n
        self.entries = {} if entries is None else entries

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __repr__(self) -> str:
        return f"BasisExpansion(n={self.n!r}, entries={self.entries!r})"

    def coefficient(self, sigma: SignedPermutation) -> Polynomial:
        """The coefficient of ``sigma`` as a polynomial, the sum of scalar * m_nu(x^2) m_mu(y^2)."""
        # Each term is one distinct rearrangement of 2*nu in x times one
        # of 2*mu in y, and distinct canonical labels share no term.  The
        # first term of a label goes through ``Monomial``, so a part that is
        # not non-negative ints is refused; the others rearrange its
        # entries, so they are checked too.
        terms: dict[Monomial, Fraction] = {}
        for (nu, mu), scalar in _canonical(self.n, sigma, self.entries.get(sigma, {})).items():
            xss, ys = doubled_rearrangements(nu), doubled_rearrangements(mu)
            Monomial(xss[0], ys[0])
            if scalar:
                scalar = Fraction(scalar)
                for xs in xss:
                    terms.update(dict.fromkeys([Monomial._from_checked(xs, s) for s in ys], scalar))
        # every key has rank n, as ``_canonical`` checked; every value is a nonzero Fraction
        return Polynomial._from_checked(self.n, terms)

    def items(self) -> list[tuple[SignedPermutation, Polynomial]]:
        """Each sigma with its coefficient polynomial, by increasing window."""
        return [(sigma, self.coefficient(sigma)) for sigma in sorted(self.entries, key=lambda s: s.window)]

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
        """Read ``to_json`` output back into labels.

        A coefficient that is not separately invariant in x and y is
        refused; one whose terms are all zero is not stored.
        """
        n, entries = json_object(data, "an expansion", "entries", {"sigma", "coeff"})
        exp = cls(n)
        for entry in entries:
            sigma, coeff = entry.get("sigma"), Polynomial.from_json(entry.get("coeff"))
            if not isinstance(sigma, list) or len(sigma) != n or coeff.n != n:
                raise ValueError(f"entry {entry!r} needs a window list and a coefficient of rank {n}")
            sigma = SignedPermutation(tuple(sigma))
            if sigma in exp.entries:
                raise ValueError(f"sigma {sigma} is listed twice")
            if not is_separately_invariant(coeff):
                raise ValueError(f"coefficient of {sigma} is not separately invariant in x and y")
            # every term of one separate orbit has its label and its scalar
            exp.entries[sigma] = {(_halved(m.p), _halved(m.q)): coeff.coefficient(m) for m in coeff.monomials()}
        # a zero coefficient counts as listed, but is not kept
        exp.entries = {sigma: labels for sigma, labels in exp.entries.items() if labels}
        return exp


def _halved(exps: tuple[int, ...]) -> tuple[int, ...]:
    # The part nu, weakly decreasing, of a rearrangement of 2*nu.
    return tuple(sorted((e // 2 for e in exps), reverse=True))


def _canonical(n: int, sigma: SignedPermutation, labels: dict[Label, Fraction]) -> dict[Label, Fraction]:
    # The scalars summed by the product each label names, with its parts
    # weakly decreasing.  A sigma of another rank, a part without n
    # entries and a scalar that is not an int or a Fraction are refused.
    if sigma.n != n:
        raise ValueError(f"sigma {sigma} has rank {sigma.n}, not {n}")
    out: Counter = Counter()
    for label, scalar in labels.items():
        if any(len(part) != n for part in label):
            raise ValueError(f"label {label!r} needs two parts of {n} entries")
        check_scalar(scalar)
        out[tuple(tuple(sorted(part, reverse=True)) for part in label)] += scalar
    return out


def straighten(f: Polynomial) -> BasisExpansion:
    """Expand an invariant polynomial over the averaged descent basis.

    The orbit sums of each bidegree are reduced by one walk over the
    orbits of the remainder, largest ordered monomial first: a heap holds
    the orbits met so far, and each product pushes the orbits it meets
    for the first time.  The products are triangular, so each must be
    positive at its own column and reach only smaller ones; anything else
    raises RuntimeError.  ``check_terms`` refuses the product whose
    terms, summed over all products, pass their cap, before it is built.
    """
    reason = _invariance_failure(f)
    if reason is not None:
        raise ValueError(f"input is not invariant: {reason}")
    terms = 0
    # The scalar of m_nu(x^2) m_mu(y^2) in each sigma's coefficient.  A
    # column names its (sigma, nu, sorted mu) uniquely and is visited
    # once, so each key is set once.
    scalars: dict[SignedPermutation, dict[Label, Fraction]] = {}
    components: dict[tuple[int, int], dict[tuple[tuple[int, int], ...], Fraction]] = {}
    # On an invariant an orbit's sum is its member count times their one coefficient.
    for key, members in _orbit_groups(f).items():
        components.setdefault(tuple(map(sum, zip(*key))), {})[key] = len(members) * f.coefficient(members[0])
    for bd, sums in sorted(components.items()):
        base, classes = bd[1] + 1, {}
        # the codes of an orbit key's sorted pairs are sorted too
        remainder = {pair_codes(*zip(*key), base): v for key, v in sums.items()}
        heap = sorted(_column(key, base) for key in remainder)  # a sorted list is a heap
        while heap:
            _, key, w = top = heappop(heap)
            if value := remainder.pop(key):
                dec = _decompose(w)
                terms += rearrangement_count(dec.nu) * rearrangement_count(dec.mu)
                check_terms(terms, "products at bidegree {} take the terms past", bd)
                product = product_coefficients(dec, base, classes)
                lead = product.pop(key, 0)
                if lead <= 0:
                    raise RuntimeError("leading coefficient of the reduction product must be positive; "
                                       f"got {lead} for {w.text()}")
                scalar = Fraction(value, lead)
                for v, count in product.items():
                    # a visited orbit has left the remainder, so a product
                    # term there, or at any other orbit above the lead, is new
                    if v not in remainder:
                        column = _column(v, base)
                        if column < top:
                            raise RuntimeError(f"the reduction product of {w.text()} reaches "
                                               f"{column[2].text()}, above its lead")
                        heappush(heap, column)
                    remainder[v] = remainder.get(v, 0) - scalar * count
                scalars.setdefault(dec.sigma, {})[dec.nu, tuple(sorted(dec.mu, reverse=True))] = scalar
    return BasisExpansion(f.n, scalars)


def _column(codes: tuple[int, ...], base: int) -> tuple[tuple[int, ...], tuple[int, ...], Monomial]:
    # The heap entry of the orbit with sorted pair codes ``codes`` at
    # ``base``: the ``order_key`` of its ordered monomial, every entry
    # negated so that the heap's smallest entry is the largest column,
    # then the codes and that monomial, whose pairs are sorted by (x,
    # twisted y), largest first; every slot total of an orbit of the
    # remainder is even.  Distinct orbits have distinct keys, so no two
    # entries compare past their key.
    pairs = sorted([divmod(code, base) for code in codes], key=lambda xy: (xy[0], sign_twist(xy[1])), reverse=True)
    w = Monomial._from_checked(*zip(*pairs))
    return tuple([-v for part in order_key(w) for v in part]), codes, w


def _combination(expansion: BasisExpansion) -> dict[tuple[tuple[int, int], ...], Fraction]:
    # The nonzero orbit sums of the sum of coefficient * c_sigma, keyed by
    # ``orbit_key``.  Each label's terms x^(r + delta) y^(s + gamma) are
    # counted by orbit, with (delta, gamma) the exponents of c_sigma; every
    # slot total is even, since delta_i and gamma_i share parity.
    sums: Counter = Counter()
    for sigma, labels in expansion.entries.items():
        c = diagonal_signed_descent_monomial(sigma)
        for (nu, mu), scalar in _canonical(expansion.n, sigma, labels).items():
            xs = [[a + b for a, b in zip(r, c.p)] for r in doubled_rearrangements(nu)]
            ys = [[a + b for a, b in zip(s, c.q)] for s in doubled_rearrangements(mu)]
            counts = Counter(tuple(sorted(zip(x, y))) for x in xs for y in ys)
            for key, k in counts.items():
                sums[key] += scalar * k
    return {key: v for key, v in sums.items() if v}


def evaluate(expansion: BasisExpansion) -> Polynomial:
    """rho(sum of coefficient * c_sigma): the expansion's value.

    ``rho`` reads only orbit sums, so it averages one term per orbit of
    ``_combination``, carrying that orbit's sum.
    """
    return rho(Polynomial(expansion.n, {Monomial(*zip(*key)): c for key, c in _combination(expansion).items()}))


def evaluates_to(expansion: BasisExpansion, f: Polynomial) -> bool:
    """True when ``evaluate(expansion)`` equals ``rho(f)``, which is ``f`` for invariant ``f``.

    Compares the orbit sums of the sum of coefficient * c_sigma with
    those of ``f``, so no orbit is expanded and no term cap applies.
    Like ``evaluate`` it calls neither ``decompose`` nor
    ``product_coefficients``.
    """
    return _combination(expansion) == orbit_sums(f)
