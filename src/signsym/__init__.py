"""Diagonal invariant theory of the signed permutation group.

Signed-permutation descent statistics, the four descent monomial
families, exact polynomial arithmetic with the diagonal signed action,
the averaging projector onto invariants, a straightening algorithm over
the averaged descent basis, and bigraded Hilbert-series verification.
"""

# Every other name is read from its module (signsym.poly, signsym.straighten,
# ...); these four stay because the benchmark reads them from the package.
from .hilbert import fmaj_numerator, series_coefficient, verify_basis_rank
from .poly import rho
