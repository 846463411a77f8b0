"""Diagonal invariant theory of the signed permutation group.

Signed-permutation descent statistics, the four descent monomial
families, exact polynomial arithmetic with the diagonal signed action,
the averaging projector onto invariants, a straightening algorithm over
the averaged descent basis, and bigraded Hilbert-series verification.
"""

from .descent_basis import (
    Decomposition,
    compare,
    decompose,
    descent_monomial,
    diagonal_descent_monomial,
    diagonal_signed_descent_monomial,
    is_ordered,
    order_key,
    ordered_monomials,
    ordered_representative,
    sign_twist,
    signed_descent_monomial,
    signed_index_permutation,
)
from .hilbert import (
    BiSeries,
    CellReport,
    fmaj_distribution,
    fmaj_numerator,
    invariant_dimension,
    maj_inv_equidistribution,
    series_coefficient,
    verify_basis_rank,
)
from .poly import (
    Bidegree,
    Monomial,
    Polynomial,
    act,
    bidegree_components,
    elementary_sym_squares,
    is_invariant,
    is_separately_invariant,
    monomial_sym_squares,
    rho,
)
from .signed_perm import (
    ENUMERATION_GUARD,
    ParseError,
    RankGuardError,
    SignedPermutation,
    StatisticsProfile,
    enumerate_group,
    group_order,
    parse_window,
    statistics,
)
from .straighten import BasisExpansion, evaluate, straighten

__version__ = "0.1.0"

__all__ = [
    "BasisExpansion",
    "Bidegree",
    "BiSeries",
    "CellReport",
    "Decomposition",
    "ENUMERATION_GUARD",
    "Monomial",
    "ParseError",
    "Polynomial",
    "RankGuardError",
    "SignedPermutation",
    "StatisticsProfile",
    "act",
    "bidegree_components",
    "compare",
    "decompose",
    "descent_monomial",
    "diagonal_descent_monomial",
    "diagonal_signed_descent_monomial",
    "elementary_sym_squares",
    "enumerate_group",
    "evaluate",
    "fmaj_distribution",
    "fmaj_numerator",
    "group_order",
    "invariant_dimension",
    "is_invariant",
    "is_ordered",
    "is_separately_invariant",
    "maj_inv_equidistribution",
    "monomial_sym_squares",
    "order_key",
    "ordered_monomials",
    "ordered_representative",
    "parse_window",
    "rho",
    "series_coefficient",
    "sign_twist",
    "signed_descent_monomial",
    "signed_index_permutation",
    "statistics",
    "straighten",
    "verify_basis_rank",
]
