"""Schur polynomials in the power-sum normalization q_k = k * x_k.

The q_k are power sums, so s_lambda = sum_mu chi^lambda(mu) q^mu / z_mu and
q^mu = sum_lambda chi^lambda(mu) s_lambda, with chi^lambda(mu) the integer
character table of S_n (Murnaghan-Nakayama rule) and z_mu the centralizer
order (Macdonald, Symmetric Functions and Hall Polynomials, I.7).  That one
table gives the Schur polynomials, and `verify fermion` compares it with
the wedge integers <0| alpha_mu |lambda>; the Schur coefficients of a
polynomial and the transpose sign are oracles in `tests/oracles.py`.
h_k, with sum_k h_k(q) z^k = exp(sum_k q_k z^k / k), serves the KP layer.
The eps-scaled s_lambda(q/eps) (uniform substitution q_k -> q_k / eps) is
the eigenvector family of the quantum Hamiltonians.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import factorial, prod
from operator import add, itemgetter, sub

from .fock import FockPolynomial, mono_from_partition
from .partitions import partitions_of, size
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
def _maya_index(n):
    """The position of each partition of n in partitions_of(n), keyed by its
    Maya mask sum_i 2^(lambda_i + l - i), i = 1..l: one bead per row.  The
    lowest bead sits at lambda_l >= 1, so bit 0 is clear: the canonical mask
    of the partition."""
    return {sum(1 << p + len(lam) - 1 - i for i, p in enumerate(lam)): a
            for a, lam in enumerate(partitions_of(n))}


@lru_cache(maxsize=None)
def character_table(n):
    """(index, rows) for S_n: rows[a][b] = chi^lambda(mu) with lambda =
    parts[a] and mu = parts[b], parts = partitions_of(n), and index maps
    parts[a] to a.  Built once per n, row by row, from the tables of
    smaller n.

    A row is the Murnaghan-Nakayama rule chi^lambda(mu) = sum over the rim
    hooks of length r = mu_1 of (-1)^height chi^(lambda - hook)(mu without
    mu_1), the second factor read from the n - r table.  On the abacus a rim
    hook of length r is a bead moved r places down to a free place, and its
    height is the number of beads it jumps (James and Kerber, The
    Representation Theory of the Symmetric Group, 2.7; Macdonald I.7).  The
    beads are the set bits of the Maya mask m (`_maya_index`), and every
    place below bit 0 is taken, so a bead at b can move only to a free
    place b - r >= 0: the movable beads are (m & ~(m << r)) >> r << r.  For
    the bead L = 1 << b and stop = L >> r, the place b - r is free, so the
    height is the number of set bits of m & (L - stop), and lambda - hook
    is m ^ L ^ stop with its trailing 1 bits, which stand for empty rows,
    stripped by m >> ((~m & (m + 1)).bit_length() - 1): its key in the
    n - r table.

    The mu with mu_1 = r are r followed by the partitions of n - r with
    parts <= r, in the order of partitions_of(n - r), where they are the
    last columns: so the block of a row at mu_1 = r sums tails of rows of
    the n - r table."""
    parts = partitions_of(n)
    index = {lam: a for a, lam in enumerate(parts)}
    if not n:
        return index, ((1,),)
    blocks = []
    for r, group in groupby(parts, itemgetter(0)):
        sub_rows = character_table(n - r)[1]
        start = len(sub_rows) - sum(1 for _ in group)
        blocks.append((r, _maya_index(n - r),
                       [row[start:] for row in sub_rows],
                       (0,) * (len(sub_rows) - start)))
    rows = []
    for m in _maya_index(n):
        row = []
        for r, sub_index, tails, block in blocks:
            beads = (m & ~(m << r)) >> r << r
            while beads:
                bead = beads & -beads
                beads ^= bead
                stop = bead >> r
                smaller = m ^ bead ^ stop
                smaller >>= (~smaller & smaller + 1).bit_length() - 1
                odd = (m & (bead - stop)).bit_count() & 1
                block = tuple(map(sub if odd else add, block,
                                  tails[sub_index[smaller]]))
            row += block
        rows.append(tuple(row))
    return index, tuple(rows)


def character(partition, cycle_type):
    """chi^lambda(mu), read from `character_table`.  Raises ValueError
    unless lambda and mu are partitions of one size."""
    n, k = size(partition), size(cycle_type)
    if n != k:
        raise ValueError(f"chi^lambda(mu) needs |lambda| = |mu|, not {n} "
                         f"and {k}")
    index, rows = character_table(n)
    for p in (partition, cycle_type):
        if p not in index:
            raise ValueError(f"{p!r} is not a partition of {n}")
    return rows[index[partition]][index[cycle_type]]


def centralizer_size(cycle_type):
    """z_mu = prod_k k^m_k m_k!, m_k the number of parts of mu equal to k."""
    return prod(k ** m * factorial(m) for k, m in mono_from_partition(cycle_type))


@lru_cache(maxsize=None)
def schur(partition):
    """s_lambda = sum_mu chi^lambda(mu) q^mu / z_mu over the mu with
    |mu| = |lambda| and chi^lambda(mu) != 0."""
    n = size(partition)
    index, rows = character_table(n)
    return FockPolynomial({
        mono_from_partition(mu): ExactScalar.from_rational(
            Fraction(chi, centralizer_size(mu)))
        for mu, chi in zip(partitions_of(n), rows[index[partition]]) if chi})


@lru_cache(maxsize=None)
def scaled_schur(partition):
    """s_lambda(q/eps): every monomial q_mu picks up eps^(-l(mu))."""
    inv_eps = ExactScalar.eps(-1)
    return schur(partition).map_variables(inv_eps)
