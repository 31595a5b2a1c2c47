"""Exact-arithmetic engine for the quantized Hopf hierarchy on Fock space.

Everything is computed over Q[u0][eps, eps^-1] with hbar = eps^2; there is no
floating point anywhere.  The package builds the commuting quantum
Hamiltonians, verifies their Schur-polynomial eigenbasis (with an independent
fermionic oracle), assembles the disk potential, checks the KP/Hirota
bilinear identities on exact truncations, and computes degree-graded
partition sums and transposition-factorization counts.
"""

__version__ = "0.1.0"

from .scalars import ExactScalar
from .partitions import partitions_of, partitions_upto, dim, transpose
from .fock import FockPolynomial, NormalOrderedOperator
from .schur import schur, scaled_schur
from .hamiltonians import hamiltonian, eigenvalue_series

__all__ = [
    "__version__", "ExactScalar", "FockPolynomial", "NormalOrderedOperator",
    "partitions_of", "partitions_upto", "dim", "transpose",
    "schur", "scaled_schur", "hamiltonian", "eigenvalue_series",
]
