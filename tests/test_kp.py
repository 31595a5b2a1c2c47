"""Hirota operators and KP verification on exact truncations."""

import itertools
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfq.disk import disk_potential
from hopfq.fock import FockPolynomial, mono_weight
from hopfq.kp import (TruncatedTau, generating_identity_coefficients,
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
    tau = tau_from_disk(disk_potential(6, 1), {0, 1}, 0, Fraction(1))
    polys = [printed_bilinear(1, tau.eps), printed_bilinear(2, tau.eps)]
    polys += generating_identity_coefficients(2, 4, tau.eps).values()
    assert len(polys) == 2 + 15
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
