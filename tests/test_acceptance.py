"""End-to-end acceptance sweep.

Each test covers one numbered criterion and emits a single PASS line on the
terminal when it succeeds (pytest reports the failure otherwise).  All
comparisons are exact: rational arithmetic throughout, zero tolerance.
"""

from fractions import Fraction
from math import factorial

import pytest

from hopfq.disk import (disk_potential, integer_hbar_check,
                        hurwitz_match_report, p1_partition_function,
                        verify_printed_expansion)
from hopfq.fermion import (FermionVector, dressed_fermion_check, psi,
                           psi_star, state_for_partition_label)
from hopfq.fock import NormalOrderedOperator, naive_hamiltonian
from hopfq.hamiltonians import (eigenvalue_series, exponential_row_form,
                                hamiltonian, verify_commutativity,
                                verify_eigenvectors)
from hopfq.kp import (kp_bilinear_check, kp_equation_check,
                      kp_hierarchy_check, tau_from_disk)
from hopfq.partitions import dim, partitions_of, partitions_upto, transpose
from hopfq.schur import schur
from hopfq.scalars import ExactScalar
from oracles import (b_sign_exponent, boson_fermion_map, coefficient,
                     commutator, diagonal_operator_eigenvalue,
                     eigenvalue_closed_form, eigenvalue_frobenius_form,
                     exponential_frobenius_form,
                     fermionic_hamiltonian_eigenvalue_series, identity,
                     power_of_q1_expansion, restrict_weight,
                     state_of_partition, syt_count, term,
                     verify_transpose_sign)


@pytest.fixture
def report(capsys):
    def emit(number, text):
        with capsys.disabled():
            print(f"PASS criterion {number:2d}: {text}")
    return emit


def test_criterion_01_commutativity(report):
    sweep = verify_commutativity(5, 10)
    assert sweep["failures"] == []
    assert sweep["pairs_checked"] == 21
    report(1, "[H_n, H_m] = 0 on weight <= 10 for -1 <= n < m <= 5 "
              "(symbolic u0, eps)")


def test_criterion_02_naive_noncommutativity(report):
    W = 8
    comm = commutator(naive_hamiltonian(1, W), naive_hamiltonian(2, W),
                      max_weight=W)
    formula = NormalOrderedOperator.zero()
    for i in range(1, W):
        for j in range(1, W - i + 1):
            pair = ((i, 2),) if i == j else tuple(sorted([(i, 1), (j, 1)]))
            c = ExactScalar.monomial(Fraction(i * j * (i + j), 8), 4)
            formula = formula + term(((i + j, 1),), pair, c)
            formula = formula - term(pair, ((i + j, 1),), c)
    assert restrict_weight(comm, W) == restrict_weight(formula, W)
    report(2, "[H_1^0, H_2^0] equals the closed quadratic formula on "
              "weight <= 8")


def test_criterion_03_explicit_corrections(report):
    W = 6
    for n, const in [(0, ExactScalar.monomial(Fraction(-1, 24), 2)),
                     (1, ExactScalar.monomial(Fraction(-1, 24), 2, 1))]:
        diff = hamiltonian(n, W) - naive_hamiltonian(n, W)
        assert diff == identity(const)
    diff = hamiltonian(2, W) - naive_hamiltonian(2, W)
    expected = identity(
        ExactScalar.monomial(Fraction(-1, 48), 2, 2)
        + ExactScalar.monomial(Fraction(7, 5760), 4))
    for k in range(1, W + 1):
        expected = expected + term(
            ((k, 1),), ((k, 1),),
            ExactScalar.monomial(Fraction(2 * k * k - 1, 24), 2))
    assert diff == expected
    report(3, "quantum corrections: -hbar/24, -hbar u0/24, and the "
              "7 hbar^2/5760 constant with diagonal hbar/24 structure")


def test_criterion_04_schur_eigenbasis(report):
    sweep = verify_eigenvectors(5, 8)
    assert sweep["failures"] == []
    for lam in partitions_upto(8):
        series = eigenvalue_series(lam, 5)
        for k in range(-1, 6):
            closed = eigenvalue_closed_form(k, lam)
            assert series[k] == closed, (lam, k)
            assert eigenvalue_frobenius_form(k, lam) == closed, (lam, k)
    for lam in partitions_upto(10):
        assert exponential_row_form(lam) == exponential_frobenius_form(lam)
    report(4, "H_k s_lambda(q/eps) = E_k s_lambda(q/eps) for |lambda| <= 8, "
              "k <= 5; closed, series, and Frobenius eigenvalue forms agree")


def test_criterion_05_printed_disk_expansion(report):
    issues = []
    assert verify_printed_expansion(issues)
    assert issues == []
    report(5, "disk potential matches the frozen degree <= 3 expansion "
              "term by term, half-integer hbar powers included")


def test_criterion_06_integer_hbar(report):
    assert integer_hbar_check(disk_potential(6, 2))
    report(6, "expanded potential has integer hbar powers only, "
              "weight <= 6 (transpose pairing)")


def test_criterion_07_boson_fermion(report):
    for lam in partitions_upto(6):
        maya = FermionVector.basis(state_for_partition_label(lam))
        assert boson_fermion_map(maya) == schur(lam)
        string = state_of_partition(lam)
        sign = (-1) ** b_sign_exponent(lam)
        assert boson_fermion_map(string) == schur(lam) * sign
    half = [Fraction(2 * n + 1, 2) for n in range(-3, 3)]
    states = [state_for_partition_label(lam) for lam in partitions_upto(3)]
    for state in states:
        v = FermionVector.basis(state)
        for a in half:
            for b in half:
                assert (psi(a, psi(b, v)) + psi(b, psi(a, v))).is_zero()
                assert (psi_star(a, psi_star(b, v))
                        + psi_star(b, psi_star(a, v))).is_zero()
                anti = psi(a, psi_star(b, v)) + psi_star(b, psi(a, v))
                assert anti == (v if a == b else FermionVector.zero())
    assert dressed_fermion_check(
        [Fraction(j, 2) for j in (-5, -3, -1, 1, 3, 5)], 3)
    K = 4
    for lam in partitions_upto(5):
        fer = fermionic_hamiltonian_eigenvalue_series(lam, K + 2)
        bos = eigenvalue_series(lam, K)
        for n in range(-1, K + 1):
            assert bos[n].substitute(eps=1) == fer[n + 2].substitute(eps=1)
        assert diagonal_operator_eigenvalue(lam) == exponential_row_form(lam)
    report(7, "wedge states map to (-1)^b(lambda) s_lambda for "
              "|lambda| <= 6; anticommutators, dressed fermions, and the "
              "O(z) eigenvalue series all check out")


def test_criterion_08_kp_hierarchy(report):
    pot = disk_potential(8, 1)
    for active in [set(), {0}, {0, 1}]:
        tau = tau_from_disk(pot, active, 0, Fraction(1))
        assert kp_bilinear_check(1, tau), active
        assert kp_bilinear_check(2, tau), active
        sweep = kp_hierarchy_check(tau, y_order=2, y_vars=4)
        assert sweep["failures"] == [], active
        assert sweep["checked"] > 0
        assert kp_equation_check(tau), active
    report(8, "printed bilinear pair, the y-order <= 2 generating slice, "
              "and the scalar KP equation vanish on weight <= 8 taus for "
              "active t-sets {}, {0}, {0,1}")


def test_criterion_09_p1_two_routes(report):
    slices = p1_partition_function(4, 2)  # raises on route disagreement
    assert sorted(slices) == [0, 1, 2, 3, 4]
    for d in range(5):
        assert [lam for lam, _, _ in slices[d]] == list(partitions_of(d))
        for lam, coeff, _ in slices[d]:
            want = ExactScalar.monomial(
                Fraction(dim(lam), factorial(d)) ** 2, -2 * d)
            assert coeff == want
    report(9, "projective-line partition sum, degree <= 4: closed formula "
              "and Fock pairing routes agree slice by slice")


def test_criterion_10_hurwitz(report):
    sweep = hurwitz_match_report(5, 6)
    assert sweep["mismatches"] == []
    assert sweep["checked"] == sum(
        len(partitions_of(n)) for n in range(1, 6)) * 7
    report(10, "cut-and-join series coefficients equal brute-force "
               "transposition factorization counts, n <= 5, m <= 6")


def test_criterion_11_classical_identities(report):
    for n in range(9):
        expansion = power_of_q1_expansion(n)
        assert expansion == {lam: dim(lam) for lam in partitions_of(n)}
        assert sum(dim(lam) ** 2 for lam in partitions_of(n)) == factorial(n)
        for lam in partitions_of(n):
            lead = coefficient(schur(lam), ((1, n),) if n else ())
            assert lead == ExactScalar.from_rational(
                Fraction(dim(lam), factorial(n)))
            assert dim(lam) == syt_count(lam)
            assert dim(transpose(lam)) == dim(lam)
            assert verify_transpose_sign(lam)
    report(11, "q1^n expansion, leading Schur coefficients, hook lengths "
               "vs tableau counts, transpose symmetries, and "
               "sum dim^2 = n! for n <= 8")


def test_criterion_12_semiclassical_limit(report):
    for n in range(-1, 6):
        quantum = hamiltonian(n, 8)
        naive = naive_hamiltonian(n, 8)
        for ab, c in naive.sorted_terms():
            qc = coefficient(quantum, *ab)
            for key, v in c.terms.items():
                assert qc.terms.get(key) == v, (n, ab)
            low = min(e for e, _ in qc.terms)
            assert all((e, u) in c.terms for (e, u) in qc.terms if e == low), \
                (n, ab)
    report(12, "lowest-eps coefficients of H_n coincide with the classical "
               "operators for n <= 5, weight <= 8")
