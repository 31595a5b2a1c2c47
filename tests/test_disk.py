"""Disk potential, pairing, degree slices, and factorization counts."""

import importlib
import itertools
import pkgutil
from fractions import Fraction
from math import factorial

import pytest

import hopfq
from hopfq import disk, hamiltonians
from hopfq.disk import (_cycle_type, disk_potential, fock_pairing,
                        hurwitz_match_report, hurwitz_oracle,
                        integer_hbar_check, p1_partition_function,
                        schroedinger_check, verify_printed_expansion)
from hopfq.fock import (FockPolynomial, NormalOrderedOperator,
                        mono_from_partition)
from hopfq.hamiltonians import verify_eigenvectors
from hopfq.kp import tau_from_disk
from hopfq.partitions import dim, partitions_of, partitions_upto, size
from hopfq.scalars import ExactScalar, add_into
from hopfq.schur import schur


# ---------------------------------------------------------------------------
# oracle: the potential Taylor-expanded in t, with symbolic u0 and eps


def expand_in_t(pot, t_orders):
    """Map from a t-exponent tuple (m_0, ..., m_K), m_k <= t_orders[k], to
    the coefficient p-polynomial of t^m in the potential."""
    if len(t_orders) != pot.K + 1:
        raise ValueError("need one order bound per t-variable")
    result = {}
    for amp in pot.amplitudes.values():
        base = amp.polynomial_part()
        for powers in itertools.product(*(range(b + 1) for b in t_orders)):
            coeff = ExactScalar.one()
            for k, m in enumerate(powers):
                if m:
                    coeff = coeff * amp.exponents[k] ** m * Fraction(1, factorial(m))
            add_into(result, powers, base * coeff)
    return result


def integer_hbar_oracle(W, K=2, t_orders=None):
    """Every coefficient of the t-expanded potential (each t_k to order
    t_orders[k], default 1) has only even eps powers."""
    pot = disk.disk_potential(W, K)
    t_orders = t_orders if t_orders is not None else [1] * (K + 1)
    return not any(e % 2 for poly in expand_in_t(pot, t_orders).values()
                   for c in poly.terms.values() for e, _ in c.terms)


def test_amplitude_table_shape():
    pot = disk_potential(3, 2)
    assert set(pot.amplitudes) == set(partitions_upto(3))
    amp = pot.amplitudes[(1,)]
    assert amp.prefactor == ExactScalar.eps(-1)
    # t_0 exponent relative to the vacuum is exactly 1
    vac = pot.amplitudes[()].exponents[0]
    assert amp.exponents[0] - vac == ExactScalar.one()


def test_vacuum_exponents_at_u0_zero():
    pot = disk_potential(0, 3)
    exps = [e.substitute(u0=0) for e in pot.amplitudes[()].exponents]
    assert exps[0] == ExactScalar.from_rational(Fraction(-1, 24))
    assert exps[1].is_zero()
    assert exps[2] == ExactScalar.monomial(Fraction(7, 5760), 2)
    assert exps[3].is_zero()


def test_expand_in_t_plane_wave_at_t_zero():
    pot = disk_potential(4, 0)
    table = expand_in_t(pot, [0])
    poly = table[(0,)]
    for n in range(5):
        mono = ((1, n),) if n else ()
        assert poly.coefficient(mono) == ExactScalar.monomial(
            Fraction(1, factorial(n)), -2 * n)


def test_printed_expansion_matches():
    issues = []
    assert verify_printed_expansion(issues)
    assert issues == []


def test_integer_hbar_property():
    assert integer_hbar_check(disk_potential(6, 2))


def test_integer_hbar_check_agrees_with_expansion_oracle():
    for W in range(7):
        assert (integer_hbar_check(disk_potential(W, 2))
                and integer_hbar_oracle(W))
    assert (integer_hbar_check(disk_potential(4, 3))
            and integer_hbar_oracle(4, 3, [2, 2, 1, 1]))


@pytest.mark.parametrize("part", ["exponent", "prefactor"])
def test_odd_eps_term_on_one_amplitude_fails_both(part, monkeypatch):
    # eps added to the t_0 exponent of (2) but not of (1, 1), or its
    # prefactor times (1 + eps): the pair no longer cancels, and the
    # coefficient of p_1^2 gains eps^-3 / 4 at t_0, or at t^0
    build = disk.disk_potential

    def perturbed(W, K):
        pot = build(W, K)
        amp = pot.amplitudes[(2,)]
        if part == "exponent":
            amp = amp._replace(exponents=(amp.exponents[0] + ExactScalar.eps(),)
                               + amp.exponents[1:])
        else:
            amp = amp._replace(prefactor=amp.prefactor * (1 + ExactScalar.eps()))
        pot.amplitudes[(2,)] = amp
        return pot

    monkeypatch.setattr(disk, "disk_potential", perturbed)
    assert not integer_hbar_check(disk.disk_potential(4, 2))
    assert not integer_hbar_oracle(4)


def test_schroedinger_checks():
    for k in range(4):
        assert schroedinger_check(disk_potential(6, k))


def test_perturbed_stored_exponent_fails_schroedinger_check():
    pot = disk_potential(4, 2)
    amp = pot.amplitudes[(2, 1)]
    exponents = amp.exponents[:1] + (amp.exponents[1] + 1,) + amp.exponents[2:]
    pot.amplitudes[(2, 1)] = amp._replace(exponents=exponents)
    assert not schroedinger_check(pot)


def test_stored_exponent_wrong_only_in_u0_fails_schroedinger_check(
        monkeypatch):
    # u0 added to the t_1 exponent of (2, 1): E_1 gains the graded term
    # eps^2 u0, invisible at u0 = 0, so only d/du0 E_k = E_{k-1} sees it,
    # at k = 1 and again at k = 2
    reports = []

    def recorded(*args):
        reports.append(verify_eigenvectors(*args))
        return reports[-1]

    pot = disk_potential(4, 2)
    amp = pot.amplitudes[(2, 1)]
    bumped = amp.exponents[1] + ExactScalar.monomial(1, 0, 1)
    pot.amplitudes[(2, 1)] = amp._replace(
        exponents=amp.exponents[:1] + (bumped,) + amp.exponents[2:])
    monkeypatch.setattr(disk, "verify_eigenvectors", recorded)
    assert not schroedinger_check(pot)
    assert [(f.get("premise"), f["k"], f["partition"])
            for f in reports[0]["failures"]] == [
        ("eigenvalue_u0_expansion", k, [2, 1]) for k in (1, 2)]


def test_schroedinger_check_builds_no_series(monkeypatch):
    # the eigen sweep reads the potential's stored exponents
    built = []
    series = disk.eigenvalue_series

    def counted(lam, K):
        built.append(lam)
        return series(lam, K)

    pot = disk_potential(4, 2)
    monkeypatch.setattr(disk, "eigenvalue_series", counted)
    monkeypatch.setattr(hamiltonians, "eigenvalue_series", counted)
    assert schroedinger_check(pot)
    assert built == []


@pytest.mark.parametrize("j", range(4))
def test_transpose_break_fails_schroedinger_check(j, monkeypatch):
    # q2 p1^2 added to H_j alone: H_j is no longer its own transpose.  The
    # lone term also breaks the u0 expansion that the eigen sweep asserts,
    # so the sweep is then stubbed out and the transpose check must fail
    # on its own, for every j <= K in one call.
    generate = disk.hamiltonian_generating_coefficients

    def perturbed(K, W):
        ops = generate(K, W)
        ops[j + 1] = ops[j + 1] + NormalOrderedOperator.term(
            ((2, 1),), ((1, 2),), ExactScalar.one())
        return ops

    monkeypatch.setattr(disk, "hamiltonian_generating_coefficients", perturbed)
    assert not schroedinger_check(disk_potential(6, 3))
    monkeypatch.setattr(disk, "verify_eigenvectors",
                        lambda K, W, operators, series: {"failures": []})
    assert not schroedinger_check(disk_potential(6, 3))
    monkeypatch.setattr(disk, "hamiltonian_generating_coefficients", generate)
    assert schroedinger_check(disk_potential(6, 3))


def test_fock_pairing_examples():
    p1, q1 = FockPolynomial.variable(1), FockPolynomial.variable(1)
    assert fock_pairing(p1, q1) == ExactScalar.hbar()
    p2, q2 = FockPolynomial.variable(2), FockPolynomial.variable(2)
    assert fock_pairing(p2, q2) == ExactScalar.hbar() * 2
    for lam in partitions_upto(5):
        n = size(lam)
        ket = FockPolynomial.monomial(((1, n),) if n else ())
        assert fock_pairing(schur(lam), ket) == ExactScalar.monomial(
            dim(lam), 2 * n)


def test_fock_pairing_is_the_action_at_q_zero():
    # <p^mu, q^nu> is p^mu, as the operator p_k = hbar k d/dq_k, applied
    # to q^nu at q = 0
    monos = [mono_from_partition(lam) for lam in partitions_upto(5)]
    for mu in monos:
        bra = FockPolynomial.monomial(mu)
        op = NormalOrderedOperator.term((), mu)
        for nu in monos:
            ket = FockPolynomial.monomial(nu)
            assert fock_pairing(bra, ket) == op.apply(ket).coefficient(())


def test_schur_pairing_orthonormality():
    for lam in partitions_upto(5):
        for mu in partitions_upto(5):
            got = fock_pairing(schur(lam), schur(mu)).substitute(eps=1)
            assert got == ExactScalar.from_rational(int(lam == mu))


def test_p1_two_routes_agree():
    slices = p1_partition_function(4, 2)
    assert sorted(slices) == [0, 1, 2, 3, 4]
    assert [lam for lam, _, _ in slices[2]] == list(partitions_of(2))
    # degree-0 slice: only the vacuum with coefficient 1
    (lam, coeff, _), = slices[0]
    assert lam == () and coeff == ExactScalar.one()


def test_hurwitz_oracle_examples():
    assert hurwitz_oracle(1, 0, (1,)) == 1
    assert hurwitz_oracle(2, 2, (1, 1)) == Fraction(1, 2)
    assert hurwitz_oracle(3, 1, (3,)) == 0


def test_hurwitz_oracle_bound_refusal():
    for n, mu in [(0, ()), (3, (2,)), (3, (1, 2))]:
        with pytest.raises(ValueError):
            hurwitz_oracle(n, 1, mu)
    # no cap on n or m: the 21 transpositions of S_7
    assert hurwitz_oracle(7, 1, (2, 1, 1, 1, 1, 1)) == Fraction(21, 5040)


def hurwitz_oracle_direct(n, m, mu):
    """The count of `hurwitz_oracle` by literal iteration over all
    transposition m-tuples; only viable for tiny parameters."""
    transpositions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    hits = 0
    for tup in itertools.product(transpositions, repeat=m):
        perm = list(range(n))
        for i, j in tup:
            perm[i], perm[j] = perm[j], perm[i]
        if _cycle_type(perm) == mu:
            hits += 1
    return Fraction(hits, factorial(n))


def test_hurwitz_oracle_matches_direct_enumeration():
    for n in range(1, 4):
        for m in range(4):
            for mu in partitions_of(n):
                assert hurwitz_oracle(n, m, mu) == \
                    hurwitz_oracle_direct(n, m, mu)


def test_hurwitz_series_against_oracle():
    report = hurwitz_match_report(4, 4)
    assert report["mismatches"] == []
    assert report["checked"] > 0


EIGENVALUE_ORACLES = ("eigenvalue_closed_form", "eigenvalue_frobenius_form",
                      "vacuum_constant")


def test_production_paths_read_no_eigenvalue_oracle(monkeypatch):
    # the closed, Frobenius and Bernoulli-vacuum forms only check
    # eigenvalue_series in the tests; no verifier or table may read them
    def refuse(*args):
        raise AssertionError(f"eigenvalue oracle called with {args}")

    modules = [hopfq] + [importlib.import_module(f"hopfq.{info.name}")
                         for info in pkgutil.iter_modules(hopfq.__path__)]
    for module in modules:
        for name in EIGENVALUE_ORACLES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert verify_eigenvectors(3, 6)["failures"] == []
    pot = disk_potential(6, 3)
    assert schroedinger_check(pot)
    assert verify_printed_expansion()
    assert hurwitz_match_report(5, 4)["mismatches"] == []
    assert len(p1_partition_function(4, 2)[4]) == 5
    assert tau_from_disk(pot, {0, 1}, 0, Fraction(1)).terms
