"""Schur polynomials in the power-sum normalization q_k = k * x_k.

The q_k are power sums, so s_lambda = sum_mu chi^lambda(mu) q^mu / z_mu and
q^mu = sum_lambda chi^lambda(mu) s_lambda, with chi^lambda(mu) the integer
character table of S_n (Murnaghan-Nakayama rule) and z_mu the centralizer
order (Macdonald, Symmetric Functions and Hall Polynomials, I.7).  That one
table gives both the Schur polynomials and the Schur coefficients of any
polynomial, and `verify fermion` compares it with the wedge integers
<0| alpha_mu |lambda>.  h_k, with sum_k h_k(q) z^k = exp(sum_k q_k z^k / k),
serves the KP layer.  The eps-scaled s_lambda(q/eps) (uniform substitution
q_k -> q_k / eps) is the eigenvector family of the quantum Hamiltonians.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .fock import FockPolynomial, mono_from_partition
from .partitions import partitions_of, size, transpose
from .scalars import ExactScalar


@lru_cache(maxsize=None)
def complete_homogeneous(k, num_vars=None):
    """h_k(q_1, ..., q_num_vars); zero for k < 0, one for k = 0.

    Uses k h_k = sum_{j=1}^{k} q_j h_{k-j} (log-derivative of the generating
    exponential); variables above num_vars are set to zero.
    """
    if k < 0:
        return FockPolynomial.zero()
    if k == 0:
        return FockPolynomial.one()
    bound = k if num_vars is None else min(k, num_vars)
    acc = FockPolynomial.zero()
    for j in range(1, bound + 1):
        acc = acc + FockPolynomial.variable(j) * complete_homogeneous(k - j, num_vars)
    return acc * Fraction(1, k)


@lru_cache(maxsize=None)
def _rim_hooks(partition, r):
    """(sign, smaller) for every rim hook of length r of the partition:
    smaller is what is left once it is stripped, sign is (-1)^height.

    On the beta-set {lambda_i + l - i} (l = l(lambda)), stripping a rim hook
    of length r moves one bead b to a free place b - r >= 0; its height is
    the number of beads strictly between."""
    l = len(partition)
    beta = {p + l - 1 - i for i, p in enumerate(partition)}
    hooks = []
    for b in beta:
        if b >= r and b - r not in beta:
            height = sum(b - r < c < b for c in beta)
            moved = sorted(beta - {b} | {b - r}, reverse=True)
            smaller = (c - (l - 1 - i) for i, c in enumerate(moved))
            hooks.append(((-1) ** height, tuple(p for p in smaller if p)))
    return tuple(hooks)


@lru_cache(maxsize=None)
def character(partition, cycle_type):
    """chi^lambda(mu) by the Murnaghan-Nakayama rule: strip rim hooks of
    lengths mu_1, mu_2, ... off lambda, each with sign (-1)^height."""
    if not cycle_type:
        return int(not partition)
    rest = cycle_type[1:]
    return sum(sign * character(smaller, rest)
               for sign, smaller in _rim_hooks(partition, cycle_type[0]))


def centralizer_size(cycle_type):
    """z_mu = prod_k k^m_k m_k!, m_k the number of parts of mu equal to k."""
    return prod(k ** m * factorial(m) for k, m in mono_from_partition(cycle_type))


@lru_cache(maxsize=None)
def schur(partition):
    """s_lambda = sum_mu chi^lambda(mu) q^mu / z_mu over the mu with
    |mu| = |lambda| and chi^lambda(mu) != 0."""
    return FockPolynomial({
        mono_from_partition(mu): ExactScalar.from_rational(
            Fraction(chi, centralizer_size(mu)))
        for mu in partitions_of(size(partition))
        if (chi := character(partition, mu))})


@lru_cache(maxsize=None)
def scaled_schur(partition):
    """s_lambda(q/eps): every monomial q_mu picks up eps^(-l(mu))."""
    inv_eps = ExactScalar.eps(-1)
    return schur(partition).map_variables(inv_eps)


def verify_transpose_sign(partition):
    """Check s_{lambda'}(q) == (-1)^|lambda| s_lambda(-q) exactly."""
    n = size(partition)
    flipped = schur(partition).map_variables(-1)
    if n % 2:
        flipped = -flipped
    return schur(transpose(partition)) == flipped


# ---------------------------------------------------------------------------
# expansion in the Schur basis: q^mu = sum_lambda chi^lambda(mu) s_lambda


def expand_in_schur_basis(poly, n):
    """Coefficients of a weight-n homogeneous polynomial in {s_lambda}:
    for poly = sum_mu c_mu q^mu, the map lambda -> sum_mu chi^lambda(mu) c_mu
    over the partitions lambda of n.  The c_mu must be rational; the
    values are Fractions.
    """
    if not poly.is_homogeneous(n):
        raise ValueError("polynomial is not homogeneous of the stated weight")
    values = [(tuple(k for k, m in reversed(mono) for _ in range(m)),
               c.as_fraction()) for mono, c in poly.terms.items()]
    return {lam: sum((c * character(lam, mu) for mu, c in values),
                     Fraction(0))
            for lam in partitions_of(n)}


def power_of_q1_expansion(n):
    """Schur coefficients of q_1^n; equals dim(lambda) for every |lambda| = n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    poly = FockPolynomial.monomial(((1, n),) if n else ())
    return {lam: int(c) for lam, c in expand_in_schur_basis(poly, n).items()
            if c}
