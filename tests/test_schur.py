"""Schur polynomials, the character table, basis expansion, and the
plane-wave decomposition."""

import hashlib
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from hopfq.fock import FockPolynomial
from hopfq.partitions import dim, partitions_of, partitions_upto
from hopfq.scalars import ExactScalar
from hopfq.schur import (centralizer_size, character, character_table,
                         complete_homogeneous, scaled_schur, schur)
from oracles import (coefficient, expand_in_schur_basis, is_homogeneous,
                     power_of_q1_expansion, verify_transpose_sign)


def jacobi_trudi(partition):
    """Reference oracle: s_lambda = det(h_{lambda_i - i + j}), expanded along
    the first row, each minor computed once."""
    rows = len(partition)
    if rows == 0:
        return FockPolynomial.one()
    entries = [[complete_homogeneous(partition[i] - i + j)
                for j in range(rows)] for i in range(rows)]

    @lru_cache(maxsize=None)
    def det(cols):
        """Minor on the last len(cols) rows and the columns cols."""
        row = rows - len(cols)
        if len(cols) == 1:
            return entries[row][cols[0]]
        acc = FockPolynomial.zero()
        for i, c in enumerate(cols):
            term = entries[row][c] * det(cols[:i] + cols[i + 1:])
            acc = acc + (term if i % 2 == 0 else -term)
        return acc

    return det(tuple(range(rows)))


def test_schur_equals_jacobi_trudi():
    # equality compares the term dicts, so a stored zero coefficient fails
    for lam in partitions_upto(9):
        assert schur(lam) == jacobi_trudi(lam), lam


@lru_cache(maxsize=None)
def rim_hooks_oracle(partition, r):
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
def character_oracle(partition, cycle_type):
    """Reference oracle: chi^lambda(mu) by the Murnaghan-Nakayama rule on
    beta-sets, one entry at a time: strip rim hooks of lengths mu_1, mu_2,
    ... off lambda, each with sign (-1)^height."""
    if not cycle_type:
        return int(not partition)
    rest = cycle_type[1:]
    return sum(sign * character_oracle(smaller, rest)
               for sign, smaller in rim_hooks_oracle(partition, cycle_type[0]))


def test_character_table_agrees_with_beta_set_oracle():
    for n in range(13):
        index, rows = character_table(n)
        parts = partitions_of(n)
        assert list(index) == list(parts)
        assert [list(row) for row in rows] == [
            [character_oracle(lam, mu) for mu in parts] for lam in parts], n


def test_character_table_is_orthogonal():
    # rows: X diag(n!/z_mu) X^T = n! Id; columns: X^T X = diag(z_mu); in
    # plain ints
    for n in range(15):
        labels = partitions_of(n)
        weights = [factorial(n) // centralizer_size(mu) for mu in labels]
        table = character_table(n)[1]
        for i, row in enumerate(table):
            for j, other in enumerate(table):
                assert sum(a * w * b for a, w, b in zip(row, weights, other)) \
                    == (factorial(n) if i == j else 0), (n, labels[i], labels[j])
        columns = list(zip(*table))
        for i, col in enumerate(columns):
            for j, other in enumerate(columns):
                assert sum(a * b for a, b in zip(col, other)) \
                    == (centralizer_size(labels[i]) if i == j else 0), \
                    (n, labels[i], labels[j])


# sha256 over repr(row) of every row [chi^lambda(mu) for mu], lambda and mu
# in partitions_of(n) order, n = 0..16, as the beta-set engine built them
CHARACTER_TABLE_SHA256 = (
    "333819efc4fa5628a16aac2f5bd5c09d47cc2961e6a8caf649b605f54da93dba")


def test_character_table_golden_digest():
    digest = hashlib.sha256()
    for n in range(17):
        parts = partitions_of(n)
        for lam in parts:
            digest.update(repr([character(lam, mu) for mu in parts]).encode())
    assert digest.hexdigest() == CHARACTER_TABLE_SHA256


@pytest.mark.parametrize("lam, mu", [((2,), (1,)), ((), (1,)),
                                     ((2, 1), (1, 1)), ((1,), ())])
def test_character_refuses_a_cycle_type_of_another_size(lam, mu):
    with pytest.raises(ValueError, match=f"{sum(lam)} and {sum(mu)}"):
        character(lam, mu)


@pytest.mark.parametrize("lam, mu", [((1, 2), (2, 1)), ((2, 1), (1, 2)),
                                     ((3, 0), (3,)), ((4, -1), (2, 1)),
                                     ((2, 1), (3, 0))])
def test_character_refuses_what_is_not_a_partition(lam, mu):
    with pytest.raises(ValueError, match="is not a partition of 3"):
        character(lam, mu)


def test_complete_homogeneous_small():
    assert complete_homogeneous(0) == FockPolynomial.one()
    h2 = complete_homogeneous(2)
    assert coefficient(h2, ((1, 2),)) == ExactScalar.from_rational(Fraction(1, 2))
    assert coefficient(h2, ((2, 1),)) == ExactScalar.from_rational(Fraction(1, 2))
    # generating identity: h_k is homogeneous of weight k
    for k in range(6):
        assert is_homogeneous(complete_homogeneous(k), k)


def test_schur_known_values():
    # s_(1) = q1, s_(2) = (q1^2 + q2)/2, s_(1,1) = (q1^2 - q2)/2
    assert schur((1,)) == FockPolynomial.variable(1)
    s2 = schur((2,))
    assert coefficient(s2, ((2, 1),)) == ExactScalar.from_rational(Fraction(1, 2))
    s11 = schur((1, 1))
    assert coefficient(s11, ((2, 1),)) == ExactScalar.from_rational(Fraction(-1, 2))
    # s_(2,1) = (q1^3 - q3)/3
    s21 = schur((2, 1))
    assert coefficient(s21, ((1, 3),)) == ExactScalar.from_rational(Fraction(1, 3))
    assert coefficient(s21, ((3, 1),)) == ExactScalar.from_rational(Fraction(-1, 3))
    assert coefficient(s21, ((1, 1), (2, 1))) == ExactScalar.zero()


def test_leading_q1_coefficient_is_dim_over_factorial():
    for lam in partitions_upto(7):
        n = sum(lam)
        got = coefficient(schur(lam), ((1, n),) if n else ())
        assert got == ExactScalar.from_rational(Fraction(dim(lam), factorial(n)))


def test_transpose_sign_identity():
    for lam in partitions_upto(9):
        assert verify_transpose_sign(lam)


def test_scaled_schur_relates_by_eps_degree():
    lam = (2, 1)
    plain, scaled = schur(lam), scaled_schur(lam)
    for mono, c in plain.terms.items():
        degree = sum(m for _, m in mono)
        assert coefficient(scaled, mono) == c.shift_eps(-degree)


def test_schur_basis_expansion_roundtrip():
    for n in range(1, 7):
        poly = FockPolynomial.monomial(((1, n),))
        coeffs = expand_in_schur_basis(poly, n)
        back = FockPolynomial.zero()
        for lam, c in coeffs.items():
            back = back + schur(lam) * c
        assert back == poly


def test_power_of_q1_expansion_gives_dimensions():
    for n in range(8):
        coeffs = power_of_q1_expansion(n)
        assert coeffs == {lam: dim(lam) for lam in partitions_of(n)}


def plane_wave_expansion(max_weight):
    """Truncation of e^{q1/hbar} = sum_lambda eps^(-|lambda|) dim/|lambda|! *
    s_lambda(q/eps) over |lambda| <= max_weight."""
    acc = FockPolynomial.zero()
    for n in range(max_weight + 1):
        for lam in partitions_of(n):
            pref = ExactScalar.monomial(Fraction(dim(lam), factorial(n)), -n)
            acc = acc + scaled_schur(lam) * pref
    return acc


def test_plane_wave_expansion_is_exponential():
    W = 6
    acc = plane_wave_expansion(W)
    for n in range(W + 1):
        mono = ((1, n),) if n else ()
        assert coefficient(acc, mono) == ExactScalar.monomial(
            Fraction(1, factorial(n)), -2 * n)
    # nothing but q1-powers survives the sum
    for mono, c in acc.terms.items():
        if any(k != 1 for k, _ in mono):
            assert c.is_zero()
