"""Schur polynomials in the power-sum normalization q_k = k * x_k.

h_k is defined by sum_k h_k(q) z^k = exp(sum_k q_k z^k / k) and s_lambda by
the Jacobi-Trudi determinant det(h_{lambda_i - i + j}).  The eps-scaled
s_lambda(q/eps) (uniform substitution q_k -> q_k / eps) is the eigenvector
family of the quantum Hamiltonians.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .fock import FockPolynomial, mono_degree, weight_basis
from .partitions import dim, partitions_of, size, transpose
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
def schur(partition):
    """Jacobi-Trudi determinant s_lambda = det(h_{lambda_i - i + j})."""
    rows = len(partition)
    if rows == 0:
        return FockPolynomial.one()
    entries = [[complete_homogeneous(partition[i] - i + j)
                for j in range(rows)] for i in range(rows)]

    @lru_cache(maxsize=None)
    def det(cols):
        """Minor on the last len(cols) rows and the columns cols, expanded
        along its first row; each minor is computed once."""
        row = rows - len(cols)
        if len(cols) == 1:
            return entries[row][cols[0]]
        acc = FockPolynomial.zero()
        for i, c in enumerate(cols):
            term = entries[row][c] * det(cols[:i] + cols[i + 1:])
            acc = acc + (term if i % 2 == 0 else -term)
        return acc

    return det(tuple(range(rows)))


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
# expansion in the Schur basis (rational linear algebra on V_n)


def _invert_rational(matrix):
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] +
           [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def _schur_basis_inverse(n):
    """Inverse of the (monomial x schur) coefficient matrix on V_n."""
    labels = partitions_of(n)
    monos = weight_basis(n)
    matrix = [[schur(lam).coefficient(mono).as_fraction() for lam in labels]
              for mono in monos]
    return _invert_rational(matrix)


def expand_in_schur_basis(poly, n):
    """Coefficients of a weight-n homogeneous polynomial in {s_lambda}.

    The polynomial must have rational coefficients; returns a map
    partition -> Fraction.
    """
    if not poly.is_homogeneous(n):
        raise ValueError("polynomial is not homogeneous of the stated weight")
    labels = partitions_of(n)
    monos = weight_basis(n)
    inv = _schur_basis_inverse(n)
    vec = [poly.coefficient(m).as_fraction() for m in monos]
    return {lam: sum(inv[i][j] * vec[j] for j in range(len(monos)))
            for i, lam in enumerate(labels)}


def expand_in_scaled_schur(poly, n):
    """Coefficients (ExactScalar) of a weight-n polynomial in {s_lambda(q/eps)}."""
    if not poly.is_homogeneous(n):
        raise ValueError("polynomial is not homogeneous of the stated weight")
    labels = partitions_of(n)
    monos = weight_basis(n)
    inv = _schur_basis_inverse(n)
    # undo the eps scaling monomial-wise, then expand rationally
    vec = [poly.coefficient(m).shift_eps(mono_degree(m)) for m in monos]
    out = {}
    for i, lam in enumerate(labels):
        acc = ExactScalar.zero()
        for j in range(len(monos)):
            if inv[i][j]:
                acc = acc + vec[j] * inv[i][j]
        out[lam] = acc
    return out


def power_of_q1_expansion(n):
    """Schur coefficients of q_1^n; equals dim(lambda) for every |lambda| = n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return {(): 1}
    poly = FockPolynomial.monomial(((1, n),))
    coeffs = expand_in_schur_basis(poly, n)
    out = {}
    for lam, c in coeffs.items():
        if c:
            if c.denominator != 1:
                raise AssertionError(f"non-integer Schur coefficient at {lam}")
            out[lam] = int(c)
    return out


def plane_wave_expansion(max_weight):
    """Truncation of e^{q1/hbar} = sum_lambda eps^(-|lambda|) dim/|lambda|! *
    s_lambda(q/eps) over |lambda| <= max_weight."""
    from math import factorial
    acc = FockPolynomial.zero()
    for n in range(max_weight + 1):
        for lam in partitions_of(n):
            pref = ExactScalar.monomial(Fraction(dim(lam), factorial(n)), -n)
            acc = acc + scaled_schur(lam) * pref
    return acc
