"""Hirota operators and KP verification on exact truncations."""

import itertools
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfq import kp, scalars
from hopfq.disk import disk_potential
from hopfq.fock import (FockPolynomial, mono_degree, mono_from_partition,
                        mono_weight)
from hopfq.kp import (Laurent, TruncatedTau, generating_identity_coefficients,
                      hirota_apply, kp_bilinear_check, kp_equation_check,
                      kp_hierarchy_check, printed_bilinear, tau_from_disk)
from hopfq.partitions import partitions_of
from hopfq.scalars import ExactScalar, add_into
from hopfq.schur import centralizer_size, character
from oracles import coefficient

# ---------------------------------------------------------------------------
# the tau on Fraction coefficients, the checks on unscaled D-polynomials and
# the rational log series: oracles of the integer engine in `hopfq.kp`


def fraction_tau(pot, active_k, u0, eps):
    """The tau before `tau_from_disk` scales it to integers: the term of
    lambda contributes prefactor(lambda) chi^lambda(mu) eps^{-l(mu)} / z_mu
    to p^mu, on `Fraction` coefficients."""
    u0, eps = Fraction(u0), Fraction(eps)

    def value(scalar):
        return scalar.substitute(eps=eps, u0=u0).as_fraction()

    exponents = {lam: [value(amp.exponents[k]) if k in active_k
                       else Fraction(0) for k in range(pot.K + 1)]
                 for lam, amp in pot.amplitudes.items()}
    denominators = [lcm(*(row[k].denominator for row in exponents.values()))
                    for k in range(pot.K + 1)]
    terms = {}
    for lam, amp in pot.amplitudes.items():
        vexp = tuple(int(q * d) for q, d in zip(exponents[lam], denominators))
        prefactor = value(amp.prefactor)
        for mu in partitions_of(sum(lam)):
            chi = character(lam, mu)
            add_into(terms.setdefault(mono_from_partition(mu), {}), vexp,
                     prefactor * Fraction(chi, centralizer_size(mu))
                     / eps ** len(mu))
    return TruncatedTau({m: Laurent(c) for m, c in terms.items() if c},
                        pot.max_weight, eps)


def denominator_lcm(tau):
    return lcm(*(q.denominator for c in tau.terms.values()
                 for q in c.terms.values()))


def log_series(tau, drop=None):
    """log(tau / c0) where c0 is the constant coefficient (required to be a
    single Laurent monomial).

    T = tau / c0 is split by p-weight, T_0 = 1, and the weight-w part of
    L = log T follows from the Euler relation w T_w = sum_j j L_j T_{w-j}:
    w L_w = w T_w - sum_{0<j<w} (j L_j) T_{w-j}.  drop = (w, j) leaves that
    one term out, as a deliberately broken recurrence.
    """
    c0 = tau.terms.get((), Laurent())
    if len(c0.terms) != 1:
        raise ValueError("constant term is not a single monomial")
    (vexp, coeff), = c0.terms.items()
    inv = Laurent({tuple(-x for x in vexp): Fraction(1, coeff)})
    W = tau.valid_weight
    pieces = [tau.remap(lambda m, c: (m, c * inv) if mono_weight(m) == w
                        else None) for w in range(W + 1)]  # T_w
    euler = [None]  # w L_w
    log = tau.scaled(0)
    for w in range(1, W + 1):
        euler.append(pieces[w].scaled(w))
        for j in range(1, w):
            if (w, j) != drop:
                euler[w] = euler[w] - euler[j] * pieces[w - j]
        log = log + euler[w].scaled(Fraction(1, w))
    return log


def fraction_verdict(residual):
    if residual.valid_weight < 0:
        return None
    return residual.is_zero_to_valid()


def fraction_bilinear_check(which, tau):
    return fraction_verdict(
        hirota_apply(printed_bilinear(which, tau.eps), tau))


def fraction_hierarchy_check(tau, y_order=2, y_vars=4):
    coeffs = kp.generating_identity_coefficients(y_order, y_vars, tau.eps)
    report = {"checked": 0, "skipped": 0, "failures": [], "factors": {}}
    for ymono, P in sorted(coeffs.items()):
        residual = hirota_apply(P, tau)
        verdict = fraction_verdict(residual)
        report["checked" if verdict is not None else "skipped"] += 1
        if verdict is False:
            report["failures"].append((ymono, residual.max_residual_term()))
    hbar = tau.eps ** 2
    expectations = {
        (0, 0, 1, 0): (printed_bilinear(1, tau.eps), hbar * Fraction(-1, 36)),
        (0, 0, 0, 1): (printed_bilinear(2, tau.eps), hbar * Fraction(-1, 12)),
    }
    for ymono, (target, factor) in expectations.items():
        if sum(ymono) > y_order or len(ymono) != y_vars:
            continue
        got = coeffs.get(ymono, FockPolynomial.zero())
        if got != target * factor:
            report["failures"].append((ymono, "proportionality mismatch"))
        else:
            report["factors"][ymono] = str(factor)
    return report


def fraction_kp_equation_check(tau, log=None):
    hbar = tau.eps ** 2
    log = log_series(tau) if log is None else log
    u = log.derivative(((1, 2),)).scaled(hbar)
    u_xt = u.derivative(((1, 1), (3, 1)))
    u_yy = u.derivative(((2, 2),))
    inner = u * u.derivative(((1, 1),)) + \
        u.derivative(((1, 3),)).scaled(hbar * Fraction(1, 12))
    return fraction_verdict(u_xt - u_yy - inner.derivative(((1, 1),)))


def truncated(tau):
    """tau without its monomials above the valid weight."""
    return TruncatedTau({m: c for m, c in tau.terms.items()
                         if mono_weight(m) <= tau.valid_weight},
                        tau.valid_weight, tau.eps)


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
            term = (df * dg).scaled(coeff * (fac if flips % 2 == 0 else -fac))
            acc = acc + TruncatedTau(term.terms, valid, term.eps)
    return truncated(acc)


def power_sum_log_series(tau):
    """Reference for `log_series`: log(1 + r) = sum_m (-1)^{m+1} r^m / m
    with r = tau / c0 - 1, one full truncated product per power."""
    (vexp, coeff), = tau.terms[()].terms.items()
    inv = Laurent({tuple(-x for x in vexp): Fraction(1, coeff)})
    one = TruncatedTau({(): Laurent({(0,) * len(vexp): Fraction(1)})},
                       tau.valid_weight, tau.eps)
    r = tau.scaled(inv) - one
    assert all(mono_weight(m) > 0 for m in r.terms)
    acc = TruncatedTau({}, tau.valid_weight, tau.eps)
    power = one
    for m in range(1, tau.valid_weight + 1):
        power = truncated(power * r)
        acc = acc + power.scaled(Fraction((-1) ** (m + 1), m))
    return truncated(acc)


def assert_same_tau(got, want):
    assert got.valid_weight == want.valid_weight
    assert got.eps == want.eps
    assert got.terms == want.terms


def constant(value, slots=0):
    """value as a Laurent with exponent tuples of the given length."""
    return Laurent({(0,) * slots: Fraction(value)} if value else {})


def exp_series(a, W):
    """e^{a p_1} truncated at weight W with trivial v-coefficients."""
    terms = {}
    for d in range(W + 1):
        mono = ((1, d),) if d else ()
        terms[mono] = constant(Fraction(a) ** d / factorial(d))
    return TruncatedTau(terms, W, Fraction(1))


def random_series():
    monos = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)),
                     max_size=2).map(
        lambda kvs: tuple(sorted({k: v for k, v in kvs}.items())))
    return st.dictionaries(monos, st.integers(-5, 5), max_size=4).map(
        lambda d: TruncatedTau(
            {m: constant(c) for m, c in d.items() if c}, 8, Fraction(1)))


def test_trivial_tau_is_plane_wave():
    # 5! e^{p1}, with one exponent slot per t-variable t0, t1 of the potential
    pot = disk_potential(5, 1)
    tau = tau_from_disk(pot, set(), 0, Fraction(1))
    for d in range(6):
        mono = ((1, d),) if d else ()
        assert tau.terms.get(mono, {}) == constant(120 // factorial(d), 2)


def test_exponent_substitution_values():
    # active {0}: amplitude carries v0^{24 (|lambda| - 1/24)}, and the slot
    # of the inactive t1 stays zero
    pot = disk_potential(3, 1)
    tau = tau_from_disk(pot, {0}, 0, Fraction(1))
    exps = {e for c in tau.terms.values() for e in c.terms}
    assert (24 * 1 - 1, 0) in exps  # |lambda| = 1
    assert (-1, 0) in exps          # vacuum


def test_refusal_on_symbolic_exponent():
    # a symbolic u0 or eps, or eps = 0, leaves no rational tau to build
    pot = disk_potential(3, 1)
    for u0, eps in [(None, Fraction(1)), (0, None), (0, Fraction(0))]:
        with pytest.raises(ValueError):
            tau_from_disk(pot, {1}, u0, eps)
    # and an active index outside the potential's t0..tK names no exponent
    for active in [{-1}, {0, 2}]:
        with pytest.raises(ValueError):
            tau_from_disk(pot, active, 0, Fraction(1))


@given(random_series())
@settings(max_examples=30, deadline=None)
def test_odd_hirota_vanishes_on_diagonal(f):
    # the Leibniz sum of an odd D-monomial cancels on f.f, which is why
    # `hirota_apply` skips it
    for mono in [((1, 1),), ((3, 1),), ((1, 2), (2, 1),)]:
        P = FockPolynomial.monomial(mono)
        assert repeated_derivative_hirota(P, f, f).is_zero_to_valid()
        assert not hirota_apply(P, f).terms


def test_bilinear_checks_on_disk_tau():
    pot = disk_potential(6, 4)
    for active in [set(), {0}, {0, 1}]:
        tau = tau_from_disk(pot, active, 0, Fraction(1))
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
    assert log.terms == {((1, 1),): constant(3)}


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
    assert coefficient(P, ((1, 4),)) == ExactScalar.hbar()
    assert coefficient(P, ((2, 2),)) == ExactScalar.from_rational(12)


def test_hirota_engine_agrees_with_repeated_derivatives_on_diagonal():
    # y-order 2 at W = 6; at W = 8 the polynomials `verify hirota` applies
    # (the y-order 2 slice would take the reference about 11 s there); the
    # odd D1, D1 D2 and D1^3 - D3 keep the engine's odd skip compared too
    odd = [FockPolynomial.monomial(((1, 1),)),
           FockPolynomial.monomial(((1, 1), (2, 1)), 2),
           FockPolynomial.monomial(((1, 3),)) - FockPolynomial.monomial(
               ((3, 1),))]
    for W, y_order, count in [(6, 2, 11), (8, 1, 2)]:
        tau = tau_from_disk(disk_potential(W, 1), {0, 1}, 0, Fraction(1))
        polys = [printed_bilinear(1, tau.eps), printed_bilinear(2, tau.eps)]
        polys += generating_identity_coefficients(y_order, 4, tau.eps).values()
        assert len(polys) == 2 + count
        polys += odd
        for P in polys:
            assert_same_tau(hirota_apply(P, tau),
                            repeated_derivative_hirota(P, tau, tau))


def test_generating_identity_keeps_the_even_parts_only():
    # D^a f.f = 0 for odd |a|: at y-order 1 the coefficients of 1, y1 and
    # y2 have no even part, so only y3 and y4 are formed
    assert sorted(generating_identity_coefficients(1, 4, 1)) == [
        (0, 0, 0, 1), (0, 0, 1, 0)]
    for P in generating_identity_coefficients(2, 4, 1).values():
        assert P and not any(mono_degree(m) % 2 for m in P.terms)


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
    (4, 1, 1, 1), (6, 2, 7, 4), (8, 2, 10, 1), (9, 2, 11, 0)])
def test_hierarchy_counts_skipped_coefficients(W, y_order, checked, skipped):
    # the y-coefficient of y-weight w is a Hirota polynomial of D-weight
    # w + 1, so its residual is complete to weight W - w - 1; only the 2
    # (y_order 1) or 11 (y_order 2) coefficients with an even part count
    tau = tau_from_disk(disk_potential(W, 1), set(), 0, Fraction(1))
    report = kp_hierarchy_check(tau, y_order=y_order)
    assert report["failures"] == []
    assert (report["checked"], report["skipped"]) == (checked, skipped)


def test_log_series_agrees_with_power_sums():
    pot = disk_potential(8, 1)
    taus = [tau_from_disk(pot, active, 0, Fraction(1))
            for active in [set(), {0}, {0, 1}]]
    taus.append(tau_from_disk(disk_potential(6, 1), {0}, 0, Fraction(1, 2)))
    for tau in taus:
        assert_same_tau(log_series(tau), power_sum_log_series(tau))


def ring(tau):
    return {type(v) for c in tau.terms.values() for v in c.terms.values()}


def test_hbar_grading_decides_every_eps():
    # at u0 = 0 with at most t0 active, the tau at eps is the tau at eps = 1
    # with p_k -> p_k eps^{-(k+1)}: p^mu picks up eps^{-(|mu| + l(mu))}
    pot = disk_potential(6, 1)
    for active in [set(), {0}]:
        unit = fraction_tau(pot, active, 0, Fraction(1))
        for eps in [Fraction(1, 2), Fraction(2), Fraction(-3)]:
            assert fraction_tau(pot, active, 0, eps).terms == {
                m: c * eps ** -(mono_weight(m) + mono_degree(m))
                for m, c in unit.terms.items()}
            tau = tau_from_disk(pot, active, 0, eps)
            assert kp_bilinear_check(1, tau) and kp_bilinear_check(2, tau)
            assert kp_hierarchy_check(tau, y_order=1)["failures"] == []
            assert kp_equation_check(tau)
            assert ring(tau) == {int}


def test_hirota_polynomials_are_graded():
    # each coefficient is a single eps^s with s - wt(a) - deg(a) fixed in
    # its polynomial: with D_k of grade k + 1 and hbar of grade 2, every
    # polynomial is homogeneous, which is why eps = 1 decides every eps
    polys = [printed_bilinear(1), printed_bilinear(2)]
    polys += generating_identity_coefficients(2, 4).values()
    for P in polys:
        grades = set()
        for a, c in P.terms.items():
            (s, u0_power), = c.terms
            assert u0_power == 0
            grades.add(s - mono_weight(a) - mono_degree(a))
        assert len(grades) == 1
    # a symbolic eps does not meet a tau
    tau = tau_from_disk(disk_potential(4, 1), set(), 0, Fraction(1))
    with pytest.raises(ValueError):
        hirota_apply(printed_bilinear(1), tau)


def test_perturbed_numeric_tau_fails_with_a_rendered_residual():
    # C_(2,1) doubled: the tau is no longer a KP tau, and the failure is
    # rendered on the tau as built, L^2 = 720^2 times the Fraction tau's
    pot = disk_potential(6, 1)
    amp = pot.amplitudes[(2, 1)]
    pot.amplitudes[(2, 1)] = amp._replace(prefactor=amp.prefactor * 2)
    tau = tau_from_disk(pot, {0}, 0, Fraction(1))
    rational = fraction_tau(pot, {0}, 0, Fraction(1))
    assert denominator_lcm(rational) == 720
    assert kp_bilinear_check(1, tau) is False
    P = printed_bilinear(1, tau.eps)
    assert hirota_apply(P, rational).max_residual_term() == "1: (-8) * v0^94"
    assert hirota_apply(P, tau).max_residual_term() == \
        f"1: ({-8 * 720 ** 2}) * v0^94"
    failures = kp_hierarchy_check(tau, y_order=1)["failures"]
    assert failures and all(isinstance(t, str) and t for _, t in failures)


def test_inherited_operations_keep_valid_weight_and_eps():
    # TruncatedTau takes its sum, negation, scaling and term map from
    # SparseSum; each result is a tau with the operands' eps, complete to the
    # smaller valid weight of a sum
    pot = disk_potential(6, 1)
    eps = Fraction(1, 2)
    a = tau_from_disk(pot, {0}, 0, eps)
    b = tau_from_disk(pot, {0, 1}, 0, eps).derivative(((1, 1),))
    assert (a.valid_weight, b.valid_weight) == (6, 5)
    cases = [(-a, 6), (a + b, 5), (b + a, 5), (a - b, 5), (b - a, 5),
             (a - a, 6), (a.scaled(0), 6), (a.scaled(Fraction(3)), 6),
             (a.remap(lambda m, c: (m, c * 2)), 6)]
    for result, valid in cases:
        assert type(result) is TruncatedTau
        assert (result.valid_weight, result.eps) == (valid, eps)
    assert not (a - a).terms and not a.scaled(0).terms
    assert (-a).terms == {m: -c for m, c in a.terms.items()}
    assert a.scaled(Fraction(3)).terms == {m: c * 3 for m, c in a.terms.items()}
    assert a.remap(lambda m, c: (m, c * 2)) == a + a


def test_tau_equality_compares_valid_weight_and_eps():
    pot = disk_potential(4, 1)
    tau = tau_from_disk(pot, {0}, 0, Fraction(1))
    again = tau_from_disk(pot, {0}, 0, Fraction(1))
    assert tau is not again and tau == again
    assert tau != TruncatedTau(tau.terms, 3, tau.eps)
    assert tau != TruncatedTau(tau.terms, 4, Fraction(2))
    assert TruncatedTau({}, 4, Fraction(1)) != Laurent()


def test_exponent_tuples_have_one_slot_per_t_variable():
    pot = disk_potential(4, 2)
    for active in [set(), {0}, {2}, {0, 1, 2}]:
        tau = tau_from_disk(pot, active, 0, Fraction(1))
        assert {len(e) for c in tau.terms.values() for e in c.terms} == {3}
    # tuples of two lengths are refused, not padded or cut short
    with pytest.raises(ValueError):
        Laurent({(1, 2): Fraction(1)}) * Laurent({(1,): Fraction(1)})
    f = tau_from_disk(disk_potential(4, 1), {0}, 0, Fraction(1))
    g = tau_from_disk(pot, {0}, 0, Fraction(1))
    with pytest.raises(ValueError):
        f * g


# ---------------------------------------------------------------------------
# the integer engine against the Fraction oracles


def oracle_points(W):
    """The arguments of the three taus `verify hirota` builds, at
    (u0, eps) = (0, 1) and at (1/3, 2)."""
    pot = disk_potential(W, 1)
    return [(pot, active, u0, eps)
            for u0, eps in [(0, Fraction(1)), (Fraction(1, 3), Fraction(2))]
            for active in [set(), {0}, {0, 1}]]


def oracle_taus(W):
    return [tau_from_disk(*point) for point in oracle_points(W)]


def assert_engines_agree(tau, y_order=2):
    for which in (1, 2):
        assert kp_bilinear_check(which, tau) is \
            fraction_bilinear_check(which, tau)
    report = kp_hierarchy_check(tau, y_order=y_order)
    oracle = fraction_hierarchy_check(tau, y_order=y_order)
    assert {key: report[key] for key in oracle} == oracle
    assert kp_equation_check(tau) is fraction_kp_equation_check(tau)


@pytest.mark.parametrize("W", [4, 6, 8])
def test_integer_engine_agrees_with_the_fraction_oracles(W):
    for tau in oracle_taus(W):
        assert_engines_agree(tau)


def test_the_tau_is_built_once_on_integers():
    # tau_from_disk returns the Fraction tau times the lcm L of its
    # denominators, every coefficient an int
    scales = set()
    for point in oracle_points(6):
        tau, rational = tau_from_disk(*point), fraction_tau(*point)
        scale = denominator_lcm(rational)
        assert_same_tau(tau, rational.scaled(scale))
        assert ring(tau) == {int}
        scales.add(scale)
    assert len(scales) > 1 and 1 not in scales


def test_integer_residuals_are_the_scaled_rational_ones():
    # on the tau as built, L tau, the residual of L_P P is L^2 L_P times
    # that of P on the Fraction tau, and the integer log is S log(tau / c0)
    # of either, term by term
    for point in oracle_points(6):
        tau, rational = tau_from_disk(*point), fraction_tau(*point)
        scale = denominator_lcm(rational)
        polys = [printed_bilinear(1, tau.eps), printed_bilinear(2, tau.eps)]
        polys += generating_identity_coefficients(2, 4, tau.eps).values()
        for P in polys:
            residual, poly_scale = kp._integer_residual(P, tau)
            want = hirota_apply(P, rational)
            assert residual.valid_weight == want.valid_weight
            assert residual.terms == want.scaled(
                scale * scale * poly_scale).terms
        S, log = kp._integer_log(tau)
        assert log.terms == log_series(rational).scaled(S).terms
        assert log.terms == log_series(tau).scaled(S).terms
        assert log.valid_weight == tau.valid_weight


def scale_blind_results(tau):
    """What the checks report on tau, none of which reads its scale: the
    bilinear and KP-equation verdicts, and the hierarchy's counts, failures
    and printed pair."""
    report = kp_hierarchy_check(tau, y_order=1)
    return ([kp_bilinear_check(which, tau) for which in (1, 2)],
            {key: report[key]
             for key in ("checked", "skipped", "failures", "printed")},
            kp_equation_check(tau))


def test_the_checks_do_not_read_the_scale_of_tau():
    # a KP tau is defined up to a nonzero constant: c tau is decided as tau
    pot = disk_potential(8, 1)
    taus = [tau_from_disk(pot, active, 0, Fraction(1))
            for active in [set(), {0}, {0, 1}]]
    taus += oracle_taus(8)[3:]
    for tau in taus:
        want = scale_blind_results(tau)
        for c in (3, -1, Fraction(2, 3)):
            assert scale_blind_results(tau.scaled(c)) == want


def test_the_printed_pair_is_read_off_the_hierarchy():
    # the y3 and y4 residuals decide the printed pair, skipped ones included
    for W in range(3, 9):
        for tau in oracle_taus(W)[:3]:
            printed = kp_hierarchy_check(tau, y_order=1)["printed"]
            assert printed == {which: kp_bilinear_check(which, tau)
                               for which in (1, 2)}


def perturbed_tau(W=8):
    """The {t0, t1} tau with 1/7 added to one coefficient of p1 p2."""
    tau = tau_from_disk(disk_potential(W, 1), {0, 1}, 0, Fraction(1))
    mono = ((1, 1), (2, 1))
    vexp = min(tau.terms[mono].terms)
    terms = dict(tau.terms)
    terms[mono] = tau.terms[mono] + Laurent({vexp: Fraction(1, 7)})
    return TruncatedTau(terms, tau.valid_weight, tau.eps)


def test_a_perturbed_coefficient_fails_both_engines():
    tau = perturbed_tau()
    for which in (1, 2):
        assert kp_bilinear_check(which, tau) is False
        assert fraction_bilinear_check(which, tau) is False
    report = kp_hierarchy_check(tau, y_order=1)
    oracle = fraction_hierarchy_check(tau, y_order=1)
    # a failure entry divides L_P back out: it reads as the oracle's
    assert report["failures"] and report["failures"] == oracle["failures"]
    assert report["printed"] == {1: False, 2: False}
    assert kp_equation_check(tau) is False
    assert fraction_kp_equation_check(tau) is False


def test_a_wrong_proportionality_factor_fails_both_engines(monkeypatch):
    # the y3 coefficient doubled is -hbar/18 times the printed equation
    coefficients = kp.generating_identity_coefficients

    def doubled_y3(*args):
        coeffs = dict(coefficients(*args))  # a copy: the memo is shared
        coeffs[(0, 0, 1, 0)] = coeffs[(0, 0, 1, 0)].scaled(2)
        return coeffs

    monkeypatch.setattr(kp, "generating_identity_coefficients", doubled_y3)
    tau = oracle_taus(6)[2]
    for report in [kp_hierarchy_check(tau, y_order=1),
                   fraction_hierarchy_check(tau, y_order=1)]:
        assert report["failures"] == [((0, 0, 1, 0),
                                       "proportionality mismatch")]
        assert list(report["factors"]) == [(0, 0, 0, 1)]
    assert kp_hierarchy_check(tau, y_order=1)["printed"] == {2: True}


def test_a_dropped_recurrence_term_fails_both_engines(monkeypatch):
    # log tau with the j = 2 term of w = 5 left out of the Euler recurrence
    tau = oracle_taus(8)[2]
    good, bad = log_series(tau), log_series(tau, drop=(5, 2))
    assert fraction_kp_equation_check(tau, bad) is False
    S, log = kp._integer_log(tau)
    error = (good - bad).scaled(S)
    error = error.remap(lambda m, c: (m, Laurent(
        {e: q.numerator for e, q in c.terms.items() if q.denominator == 1})))
    assert error.terms == (good - bad).scaled(S).terms  # integral
    monkeypatch.setattr(kp, "_integer_log", lambda tau: (S, log - error))
    assert kp_equation_check(tau) is False


def test_a_zero_scale_is_refused(monkeypatch):
    # L_P comes from `scalars._numerators`, S from `kp._integer_log`
    tau = oracle_taus(6)[2]
    for module in (kp, scalars):
        monkeypatch.setattr(module, "lcm", lambda *values: 0)
    for check in [lambda: kp_bilinear_check(1, tau),
                  lambda: kp_hierarchy_check(tau, y_order=1),
                  lambda: kp_equation_check(tau)]:
        with pytest.raises(AssertionError, match="zero scale"):
            check()


def test_the_checks_multiply_integers(monkeypatch):
    # the tau as built, and every partial, product and residual inside the
    # checks, holds int coefficients
    tau = oracle_taus(8)[5]  # {t0, t1} at (1/3, 2)
    seen = set()

    def spy(fn):
        def wrapper(*args):
            result = fn(*args)
            for series in (*args, result):
                if isinstance(series, TruncatedTau):
                    seen.update(ring(series))
            return result
        return wrapper

    for name in ("__mul__", "derivative", "remap", "scaled", "__add__"):
        monkeypatch.setattr(TruncatedTau, name,
                            spy(getattr(TruncatedTau, name)))
    monkeypatch.setattr(kp, "hirota_apply", spy(kp.hirota_apply))
    assert kp_bilinear_check(1, tau)
    assert kp_hierarchy_check(tau, y_order=1)["failures"] == []
    assert kp_equation_check(tau)
    assert seen == {int}
