"""Hirota operators and KP verification on exact truncations."""

import itertools
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfq.disk import disk_potential
from hopfq.fock import FockPolynomial, mono_weight
from hopfq.kp import (Laurent, TruncatedTau, generating_identity_coefficients,
                      hirota_apply, kp_bilinear_check, kp_equation_check,
                      kp_hierarchy_check, log_series, printed_bilinear,
                      tau_from_disk, vl_constant)
from hopfq.scalars import ExactScalar


def repeated_derivative_hirota(P, f, g):
    """Reference for `hirota_apply`: every D-monomial and every Leibniz split
    takes its derivatives again, as chains of single d/dp_k, and the result
    is summed one TruncatedTau at a time."""
    valid = min(f.valid_weight, g.valid_weight)
    if P.terms:
        valid -= max(mono_weight(m) for m in P.terms)
    acc = TruncatedTau({}, valid, f.eps)
    for dmono, coeff in P.terms.items():
        for choice in itertools.product(*(range(a + 1) for _, a in dmono)):
            fac = Fraction(1)
            df, dg = f, g
            flips = 0
            for (k, a), b in zip(dmono, choice):
                fac *= comb(a, b)
                flips += a - b
                for _ in range(b):
                    df = df.derivative(((k, 1),))
                for _ in range(a - b):
                    dg = dg.derivative(((k, 1),))
            term = (df * dg).scale(coeff * (fac if flips % 2 == 0 else -fac))
            acc = acc + term.copy_meta(term.terms, valid)
    return acc.truncate()


def power_sum_log_series(tau):
    """Reference for `log_series`: log(1 + r) = sum_m (-1)^{m+1} r^m / m
    with r = tau / c0 - 1, one full truncated product per power."""
    (vexp, coeff), = tau.terms[()].terms.items()
    if not isinstance(coeff, ExactScalar):
        coeff = ExactScalar.from_rational(coeff)
    (ce, _), cval = next(iter(coeff.terms.items()))
    zeros = (0,) * len(vexp)
    inv = Laurent({tuple(-x for x in vexp):
                   ExactScalar.monomial(1 / cval, -ce)})
    one = TruncatedTau({(): Laurent({zeros: ExactScalar.one()})},
                       tau.valid_weight, tau.eps)
    r = tau.scale(inv) - one
    assert all(mono_weight(m) > 0 for m in r.terms)
    acc = TruncatedTau({}, tau.valid_weight, tau.eps)
    power = one
    for m in range(1, tau.valid_weight + 1):
        power = (power * r).truncate()
        acc = acc + power.scale(Fraction((-1) ** (m + 1), m))
    return acc.truncate()


def assert_same_tau(got, want):
    assert got.valid_weight == want.valid_weight
    assert got.eps == want.eps
    assert got.terms == want.terms


def exp_series(a, W):
    """e^{a p_1} truncated at weight W with trivial v-coefficients."""
    terms = {}
    for d in range(W + 1):
        mono = ((1, d),) if d else ()
        terms[mono] = vl_constant(Fraction(a) ** d / factorial(d))
    return TruncatedTau(terms, W, Fraction(1))


def random_series():
    monos = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)),
                     max_size=2).map(
        lambda kvs: tuple(sorted({k: v for k, v in kvs}.items())))
    return st.dictionaries(monos, st.integers(-5, 5), max_size=4).map(
        lambda d: TruncatedTau(
            {m: vl_constant(c) for m, c in d.items() if c}, 8, Fraction(1)))


def test_trivial_tau_is_plane_wave():
    pot = disk_potential(5, 1)
    tau = tau_from_disk(pot, set(), 0, Fraction(1))
    for d in range(6):
        mono = ((1, d),) if d else ()
        assert tau.terms.get(mono, {}) == vl_constant(Fraction(1, factorial(d)))


def test_exponent_substitution_values():
    # active {0}: amplitude carries v0^{24 (|lambda| - 1/24)}
    pot = disk_potential(3, 1)
    tau = tau_from_disk(pot, {0}, 0, Fraction(1))
    exps = {e for c in tau.terms.values() for e in c.terms}
    assert (24 * 1 - 1,) in exps  # |lambda| = 1
    assert (-1,) in exps          # vacuum


def test_refusal_on_symbolic_exponent():
    pot = disk_potential(3, 1)
    try:
        tau_from_disk(pot, {1}, None, Fraction(1))  # symbolic u0, k = 1
        assert False
    except ValueError:
        pass


@given(random_series())
@settings(max_examples=30, deadline=None)
def test_odd_hirota_vanishes_on_diagonal(f):
    for mono in [((1, 1),), ((3, 1),), ((1, 2), (2, 1),)]:
        P = FockPolynomial.monomial(mono)
        assert hirota_apply(P, f, f).is_zero_to_valid()


def test_hirota_on_exponentials():
    P = FockPolynomial.monomial(((1, 1),))
    got = hirota_apply(P, exp_series(2, 6), exp_series(3, 6))
    want = exp_series(5, 6).scale(Fraction(2 - 3))
    assert (got - want.copy_meta(want.terms, got.valid_weight)).is_zero_to_valid()


@given(random_series(), random_series())
@settings(max_examples=20, deadline=None)
def test_hirota_bilinearity(f, g):
    P = FockPolynomial.monomial(((2, 1),))
    lhs = hirota_apply(P, f + g, f + g)
    rhs = hirota_apply(P, f, f) + hirota_apply(P, f, g) + \
        hirota_apply(P, g, f) + hirota_apply(P, g, g)
    assert (lhs - rhs).is_zero_to_valid()


def test_bilinear_checks_on_disk_tau():
    pot = disk_potential(6, 4)
    for active in [set(), {0}, {0, 1}]:
        tau = tau_from_disk(pot, active, 0, Fraction(1))
        assert kp_bilinear_check(1, tau)
        assert kp_bilinear_check(2, tau)


def test_bilinear_with_symbolic_eps():
    pot = disk_potential(6, 1)
    tau = tau_from_disk(pot, {0}, 0, None)
    assert kp_bilinear_check(1, tau)
    assert kp_bilinear_check(2, tau)


def test_hierarchy_slice_and_printed_factors():
    pot = disk_potential(6, 1)
    tau = tau_from_disk(pot, {0}, 0, Fraction(1))
    report = kp_hierarchy_check(tau, y_order=1)
    assert report["failures"] == []
    assert report["factors"][(0, 0, 1, 0)] == "-1/36"
    assert report["factors"][(0, 0, 0, 1)] == "-1/12"


def test_log_series_of_exponential():
    tau = exp_series(3, 6)
    log = log_series(tau)
    # log e^{3 p1} = 3 p1 exactly
    assert log.terms == {((1, 1),): vl_constant(3)}


def test_kp_equation_on_disk_tau():
    pot = disk_potential(8, 1)
    tau = tau_from_disk(pot, {0}, 0, Fraction(1))
    assert kp_equation_check(tau)
    assert kp_equation_check(tau_from_disk(pot, set(), 0, Fraction(1)))


def test_specialization_sweep():
    pot = disk_potential(6, 2)
    for u0, eps in [(0, Fraction(1)), (Fraction(1, 2), Fraction(1)),
                    (Fraction(1, 2), Fraction(1, 2))]:
        tau = tau_from_disk(pot, {0}, u0, eps)
        assert kp_bilinear_check(1, tau) and kp_bilinear_check(2, tau)


def test_printed_bilinear_contents():
    P = printed_bilinear(1)
    assert P.coefficient(((1, 4),)) == ExactScalar.hbar()
    assert P.coefficient(((2, 2),)) == ExactScalar.from_rational(12)


def test_hirota_engine_agrees_with_repeated_derivatives_on_diagonal():
    # y-order 2 at W = 6; at W = 8 the polynomials `verify hirota` applies
    # (the y-order 2 slice would take the reference about 11 s there)
    for W, y_order, count in [(6, 2, 15), (8, 1, 5)]:
        tau = tau_from_disk(disk_potential(W, 1), {0, 1}, 0, Fraction(1))
        polys = [printed_bilinear(1, tau.eps), printed_bilinear(2, tau.eps)]
        polys += generating_identity_coefficients(y_order, 4, tau.eps).values()
        assert len(polys) == 2 + count
        for P in polys:
            assert_same_tau(hirota_apply(P, tau, tau),
                            repeated_derivative_hirota(P, tau, tau))


def test_hirota_engine_agrees_with_repeated_derivatives_off_diagonal():
    pot = disk_potential(6, 1)
    f = tau_from_disk(pot, {0, 1}, 0, Fraction(1))
    g = tau_from_disk(pot, {0}, 0, Fraction(1))
    for P in [FockPolynomial.monomial(((1, 2), (2, 1))),
              printed_bilinear(1, f.eps)]:
        for left, right in [(f, g), (g, f)]:
            got = hirota_apply(P, left, right)
            assert not got.is_zero_to_valid()
            assert_same_tau(got, repeated_derivative_hirota(P, left, right))


def test_multi_index_derivative_is_the_chain_of_single_ones():
    tau = tau_from_disk(disk_potential(6, 1), {0, 1}, 0, Fraction(1))
    for mono in [(), ((1, 3),), ((2, 2),), ((1, 1), (3, 1)),
                 ((1, 2), (2, 1), (3, 1))]:
        chain = tau
        for k, a in mono:
            for _ in range(a):
                chain = chain.derivative(((k, 1),))
        assert_same_tau(tau.derivative(mono), chain)


@pytest.mark.parametrize("W, b1, b2, kp", [
    (3, None, None, None), (4, True, None, None), (5, True, True, None),
    (6, True, True, True)])
def test_checks_complete_to_no_weight_are_skipped(W, b1, b2, kp):
    tau = tau_from_disk(disk_potential(W, 1), {0}, 0, Fraction(1))
    assert kp_bilinear_check(1, tau) is b1
    assert kp_bilinear_check(2, tau) is b2
    assert kp_equation_check(tau) is kp


@pytest.mark.parametrize("W, y_order, checked, skipped", [
    (4, 1, 4, 1), (6, 2, 11, 4), (8, 2, 14, 1), (9, 2, 15, 0)])
def test_hierarchy_counts_skipped_coefficients(W, y_order, checked, skipped):
    # the y-coefficient of y-weight w is a Hirota polynomial of D-weight
    # w + 1, so its residual is complete to weight W - w - 1
    tau = tau_from_disk(disk_potential(W, 1), set(), 0, Fraction(1))
    report = kp_hierarchy_check(tau, y_order=y_order)
    assert report["failures"] == []
    assert (report["checked"], report["skipped"]) == (checked, skipped)


def test_log_series_agrees_with_power_sums():
    pot = disk_potential(8, 1)
    taus = [tau_from_disk(pot, active, 0, Fraction(1))
            for active in [set(), {0}, {0, 1}]]
    taus.append(tau_from_disk(disk_potential(6, 1), {0}, 0, None))
    for tau in taus:
        assert_same_tau(log_series(tau), power_sum_log_series(tau))


def ring(tau):
    return {type(v) for c in tau.terms.values() for v in c.terms.values()}


def specialise(tau, u0, eps):
    """Every ExactScalar coefficient of tau at the given u0 and eps."""
    terms = {}
    for m, c in tau.terms.items():
        lc = {e: v.substitute(eps=eps, u0=u0).as_fraction()
              for e, v in c.terms.items()}
        lc = {e: v for e, v in lc.items() if v}
        if lc:
            terms[m] = Laurent(lc)
    return TruncatedTau(terms, tau.valid_weight, eps)


def test_numeric_tau_is_the_symbolic_tau_specialised():
    # numeric u0 and eps give Fraction coefficients, symbolic eps (or u0)
    # ExactScalars with the same values; u0 enters no coefficient of the
    # tau with no active t, so it can stay symbolic there
    eps = Fraction(1, 2)
    pot = disk_potential(6, 1)
    taus = []
    for active, u0 in [(set(), Fraction(1, 3)), ({0}, 0)]:
        symbolic = tau_from_disk(pot, active, u0 if active else None, None)
        numeric = tau_from_disk(pot, active, u0, eps)
        assert ring(symbolic) == {ExactScalar} and ring(numeric) == {Fraction}
        assert numeric.terms == specialise(symbolic, u0, eps).terms
        taus.append((symbolic, numeric))
    # both taus are plane waves in p_1: only hbar D_1^4 of the first
    # equation, on the pair of different waves, leaves a non-zero product
    (f, f_num), (g, g_num) = taus
    for which in (1, 2):
        for left, right, left_num, right_num in [(f, g, f_num, g_num),
                                                 (g, g, g_num, g_num)]:
            got = hirota_apply(printed_bilinear(which, eps), left_num,
                               right_num)
            want = hirota_apply(printed_bilinear(which), left, right)
            assert bool(got.terms) == (which == 1 and left is not right)
            assert_same_tau(got, specialise(want, 0, eps))


def test_fraction_and_exact_scalar_rings_agree():
    numeric = tau_from_disk(disk_potential(7, 1), {0, 1}, 0, Fraction(1))
    lifted = numeric.copy_meta({
        m: Laurent({e: ExactScalar.from_rational(v)
                    for e, v in c.terms.items()})
        for m, c in numeric.terms.items()})
    for which in (1, 2):
        for dmono, c in printed_bilinear(which, numeric.eps).terms.items():
            P = FockPolynomial.monomial(dmono, c)
            got = hirota_apply(P, numeric, numeric)
            assert got.terms and ring(got) == {Fraction}
            assert_same_tau(got, hirota_apply(P, lifted, lifted))
    log = log_series(numeric)
    assert ring(log) == {Fraction}
    assert_same_tau(log, log_series(lifted))
    assert kp_equation_check(numeric) is kp_equation_check(lifted) is True


def test_perturbed_numeric_tau_fails_with_a_rendered_residual():
    # C_(2,1) doubled: the tau is no longer a KP tau, and the failure is
    # rendered from Fraction coefficients
    pot = disk_potential(6, 1)
    amp = pot.amplitudes[(2, 1)]
    pot.amplitudes[(2, 1)] = amp._replace(prefactor=amp.prefactor * 2)
    tau = tau_from_disk(pot, {0}, 0, Fraction(1))
    assert kp_bilinear_check(1, tau) is False
    residual = hirota_apply(printed_bilinear(1, tau.eps), tau, tau)
    assert residual.max_residual_term() == "1: (-8) * v0^94"
    failures = kp_hierarchy_check(tau, y_order=1)["failures"]
    assert failures and all(isinstance(t, str) and t for _, t in failures)
