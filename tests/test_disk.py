"""Disk potential, pairing, degree slices, and factorization counts."""

import importlib
import itertools
import pkgutil
from fractions import Fraction
from math import comb, factorial

import pytest

import hopfq
from hopfq import disk, hamiltonians
from hopfq.disk import (_cycle_type, _flip_eps, disk_potential,
                        hurwitz_match_report,
                        integer_hbar_check, p1_partition_function,
                        schroedinger_check, verify_printed_expansion)
from hopfq.fock import (EMPTY, FockPolynomial, NormalOrderedOperator,
                        _lowering_factor, mono_degree, mono_from_partition)
from hopfq.hamiltonians import verify_eigenvectors
from hopfq.kp import tau_from_disk
from hopfq.partitions import (dim, partitions_of, partitions_upto, size,
                              transpose)
from hopfq.scalars import ExactScalar, add_into
from hopfq.schur import scaled_schur, schur

schur_module = importlib.import_module("hopfq.schur")


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


def integer_hbar_polynomial_oracle(pot):
    """The pairing check on expanded polynomials: for every lambda >=
    lambda', prefactor times s_lambda(p/eps), flipped eps -> -eps, equals
    the same for lambda', and so do the exponent vectors."""
    for lam, amp in pot.amplitudes.items():
        mate = transpose(lam)
        if lam < mate:
            continue
        twin = pot.amplitudes[mate]
        flipped = amp.polynomial_part().remap(lambda m, c: (m, _flip_eps(c)))
        if (flipped != twin.polynomial_part()
                or tuple(map(_flip_eps, amp.exponents)) != twin.exponents):
            return False
    return True


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


def test_integer_hbar_check_agrees_with_polynomial_oracle():
    for W in range(9):
        for K in range(4):
            pot = disk_potential(W, K)
            assert integer_hbar_check(pot)
            assert integer_hbar_polynomial_oracle(pot)


def test_integer_hbar_check_agrees_with_expansion_oracle():
    for W in range(7):
        assert (integer_hbar_check(disk_potential(W, 2))
                and integer_hbar_oracle(W))
    assert (integer_hbar_check(disk_potential(4, 3))
            and integer_hbar_oracle(4, 3, [2, 2, 1, 1]))


@pytest.mark.parametrize("part", ["exponent", "prefactor", "doubled"])
def test_odd_eps_term_on_one_amplitude_fails_both(part, monkeypatch):
    # eps added to the t_0 exponent of (2) but not of (1, 1), its prefactor
    # times (1 + eps), or its prefactor doubled: the pair no longer cancels.
    # The coefficient of p_1^2 gains eps^-3 / 4 at t_0, or at t^0; with the
    # doubled prefactor, that of p_2 gains eps^-3 / 4 at t^0
    build = disk.disk_potential

    def perturbed(W, K):
        pot = build(W, K)
        amp = pot.amplitudes[(2,)]
        if part == "exponent":
            amp = amp._replace(exponents=(amp.exponents[0] + ExactScalar.eps(),)
                               + amp.exponents[1:])
        elif part == "prefactor":
            amp = amp._replace(prefactor=amp.prefactor * (1 + ExactScalar.eps()))
        else:
            amp = amp._replace(prefactor=amp.prefactor * 2)
        pot.amplitudes[(2,)] = amp
        return pot

    monkeypatch.setattr(disk, "disk_potential", perturbed)
    assert not integer_hbar_check(disk.disk_potential(4, 2))
    assert not integer_hbar_polynomial_oracle(disk.disk_potential(4, 2))
    assert not integer_hbar_oracle(4)


@pytest.fixture
def fresh_schur_caches():
    """Empty the Schur memos before and after a test that perturbs the
    character table, so that no other test reads a perturbed entry."""
    memos = (schur_module.character, schur, scaled_schur)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_wrong_character_sign_fails_every_route(monkeypatch,
                                                fresh_schur_caches):
    # chi^(3,1)((2,1,1)) = 1 given the wrong sign: s_(3,1) no longer maps
    # to s_(2,1,1) under omega, and the coefficient of p_2 p_1^2 at t^0
    # gains an eps^-7 term
    table = schur_module.character

    def perturbed(lam, mu):
        sign = -1 if (lam, mu) == ((3, 1), (2, 1, 1)) else 1
        return sign * table(lam, mu)

    assert table((3, 1), (2, 1, 1)) == 1
    monkeypatch.setattr(schur_module, "character", perturbed)
    monkeypatch.setattr(disk, "character", perturbed)
    pot = disk_potential(4, 2)
    assert not integer_hbar_check(pot)
    assert not integer_hbar_polynomial_oracle(pot)
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


# ---------------------------------------------------------------------------
# oracle: the Fock pairing of expanded polynomials


def fock_pairing(bra, ket):
    """<bra(p), ket(q)>: substitute p_n -> hbar n d/dq_n in the bra, apply to
    the ket, set q = 0.  Diagonal in monomials:
    <p^mu, q^mu> = prod_k (hbar k)^{mu_k} mu_k!."""
    acc = ExactScalar.zero()
    for mono, b in bra.terms.items():
        c = ket.terms.get(mono)
        if c is None:
            continue
        acc = acc + b * c * ExactScalar.monomial(
            _lowering_factor(EMPTY, mono), 2 * mono_degree(mono))
    return acc


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


def test_p1_coefficient_is_the_full_pairing():
    # the p_1^d coefficient that p1_partition_function reads (and asserts
    # equal to the closed form) is the pairing of the whole expanded
    # amplitude with q_1^d / (d! hbar^d)
    pot = disk_potential(6, 1)
    slices = p1_partition_function(6, 1)
    for d, rows in slices.items():
        ket = FockPolynomial.monomial(((1, d),) if d else ())
        unit = ExactScalar.monomial(Fraction(1, factorial(d)), -2 * d)
        for lam, coeff, _ in rows:
            paired = fock_pairing(pot.amplitudes[lam].polynomial_part(), ket)
            assert paired * unit == coeff


def hurwitz_count(n, m, mu):
    """The number of m-tuples of transpositions in S_n whose product has
    cycle type mu, divided by n!, read off `hurwitz_distributions`."""
    return disk.hurwitz_distributions(n, m)[m].get(mu, 0)


def test_hurwitz_oracle_examples():
    assert hurwitz_count(1, 0, (1,)) == 1
    assert hurwitz_count(2, 2, (1, 1)) == Fraction(1, 2)
    assert hurwitz_count(3, 1, (3,)) == 0


def test_hurwitz_oracle_bound_refusal():
    # no cap on n or m: the 21 transpositions of S_7
    assert hurwitz_count(7, 1, (2, 1, 1, 1, 1, 1)) == Fraction(21, 5040)


def hurwitz_oracle_direct(n, m, mu):
    """`hurwitz_count` by literal iteration over all transposition
    m-tuples; only viable for tiny parameters."""
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
                assert hurwitz_count(n, m, mu) == \
                    hurwitz_oracle_direct(n, m, mu)


def test_hurwitz_distributions_count_every_tuple():
    # one distribution per m, each stepped from the one before: the
    # (n choose 2)^m tuples are all counted
    for n in range(1, 6):
        distributions = disk.hurwitz_distributions(n, 6)
        assert len(distributions) == 7
        for m, counts in enumerate(distributions):
            assert sum(counts.values()) * factorial(n) == comb(n, 2) ** m
            assert distributions[:m + 1] == disk.hurwitz_distributions(n, m)


def hurwitz_series(W, M):
    """The counts as expanded Schur polynomials: map (n, m) to
    sum_{|lambda|=n} (dim/n!) E_1(lambda)^m s_lambda(p), whose coefficient of
    p_mu is `hurwitz_count`."""
    result = {}
    for n in range(W + 1):
        energies = [(lam, disk.eigenvalue_series(lam, 1)[1]
                     .substitute(eps=1, u0=0).as_fraction())
                    for lam in partitions_of(n)]
        for m in range(M + 1):
            acc = FockPolynomial.zero()
            for lam, energy in energies:
                coeff = energy ** m * Fraction(dim(lam), factorial(n))
                acc = acc + schur(lam) * coeff
            result[(n, m)] = acc
    return result


def hurwitz_series_mismatches(W, M):
    """The (n, m, mu) at which `hurwitz_series` disagrees with
    `hurwitz_count`."""
    return [(n, m, mu) for (n, m), poly in hurwitz_series(W, M).items() if n
            for mu in partitions_of(n)
            if poly.coefficient(mono_from_partition(mu))
            != ExactScalar.from_rational(hurwitz_count(n, m, mu))]


def test_hurwitz_series_against_oracle():
    report = hurwitz_match_report(4, 4)
    assert report["mismatches"] == []
    assert report["checked"] > 0


def test_hurwitz_character_sum_agrees_with_series_oracle():
    # both routes match the brute-force count at every (n, m, mu)
    report = hurwitz_match_report(6, 6)
    assert report == {"checked": 7 * sum(len(partitions_of(n))
                                         for n in range(1, 7)),
                      "mismatches": []}
    assert hurwitz_series_mismatches(6, 6) == []


@pytest.mark.parametrize("shift", [1, Fraction(1, 2)],
                         ids=["off-by-one", "half"])
def test_wrong_e1_fails_both_hurwitz_routes(shift, monkeypatch):
    # E_1((3,)) = 3 shifted to 4, or to the non-integer 7/2: the counts at
    # (n, m) = (3, 1) and (3, 2) change.  Truncating 7/2 to 3 would hide
    # the second, so this also fails a rounded e_1.
    series = disk.eigenvalue_series

    def perturbed(lam, K):
        values = series(lam, K)
        if lam == (3,):
            values = {**values, 1: values[1] + shift}
        return values

    monkeypatch.setattr(disk, "eigenvalue_series", perturbed)
    mismatches = hurwitz_match_report(3, 2)["mismatches"]
    assert {entry[:2] for entry in mismatches} == {(3, 1), (3, 2)}
    assert hurwitz_series_mismatches(3, 2)


def test_hurwitz_mismatch_entry_shape(monkeypatch):
    # one entry per failing (n, m, mu): the computed count as text, the
    # oracle's as a Fraction
    series = disk.eigenvalue_series
    monkeypatch.setattr(disk, "eigenvalue_series", lambda lam, K: {
        **series(lam, K), 1: series(lam, K)[1] + Fraction(1, 2)})
    mismatches = hurwitz_match_report(1, 1)["mismatches"]
    assert mismatches == [(1, 1, (1,), "1/2", Fraction(0))]


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
