"""Coefficient-ring arithmetic, Bernoulli numbers, and the s-series."""

from fractions import Fraction
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfq.scalars import (ExactScalar, _inv_s_memo, bernoulli,
                           eigenvalue_inner_series, inv_s_series, lift,
                           s_series)

rationals = st.builds(Fraction, st.integers(-50, 50),
                      st.integers(1, 12))


def scalars():
    terms = st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(0, 3)),
        rationals, max_size=4)
    return terms.map(lambda d: ExactScalar(
        {k: v for k, v in d.items() if v}))


@given(scalars(), scalars(), scalars())
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ExactScalar.zero() == a
    assert a * ExactScalar.one() == a
    assert (a - a).is_zero()
    for result in (a + b, a - b, a * b, a * b + c, a - b * c):
        assert all(result.terms.values())  # no zero coefficient is stored


@given(scalars(), scalars(),
       st.builds(Fraction, st.integers(-5, 5).filter(lambda x: x != 0),
                 st.integers(1, 3)),
       st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)))
@settings(max_examples=60)
def test_substitution_is_a_homomorphism(a, b, eps, u0):
    def ev(x):
        return x.substitute(eps=eps, u0=u0)
    assert ev(a + b) == ev(a) + ev(b)
    assert ev(a * b) == ev(a) * ev(b)


def test_monomial_and_accessors():
    x = ExactScalar.monomial(Fraction(3, 2), eps_power=-1, u0_power=2)
    assert x.shift_eps(1) == ExactScalar.monomial(Fraction(3, 2), 0, 2)
    assert x.substitute(eps=2, u0=1) == Fraction(3, 4)
    assert ExactScalar.hbar(Fraction(1, 2)) == ExactScalar.eps(1)


def test_substitute_sums_terms_that_meet_and_stores_no_zero():
    u0 = ExactScalar.monomial(1, 0, 1)
    assert (u0 + 1).substitute(u0=2) == 3
    assert (u0 - 1).substitute(u0=1).terms == {}
    assert (ExactScalar.eps() + ExactScalar.eps(2)).substitute(eps=-1).terms \
        == {}


def test_scaling_by_zero_leaves_no_term():
    a = ExactScalar.eps() + 2
    for zero in (0, Fraction(0), ExactScalar.zero()):
        assert (a * zero).terms == {}
        assert (zero * a).terms == {}


def test_as_fraction_guards():
    assert ExactScalar.from_rational(5).as_fraction() == 5
    try:
        ExactScalar.eps().as_fraction()
        assert False
    except ValueError:
        pass


def test_render_and_json_roundtrip():
    x = ExactScalar({(2, 0): Fraction(-1, 24), (0, 1): Fraction(1)})
    assert x.render() == "1 * u0^1 + -1/24 * eps^2"
    assert x.to_json() == [[0, 1, 1, 1], [2, 0, -1, 24]]


def test_bernoulli_values():
    expected = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0,
                Fraction(-1, 30), 0, Fraction(1, 42), 0, Fraction(-1, 30)]
    assert [bernoulli(n) for n in range(9)] == expected


def test_s_series_and_inverse():
    s = s_series(8)
    assert s[0] == 1 and s[2] == Fraction(1, 24) and s[4] == Fraction(1, 1920)
    inv = inv_s_series(8)
    prod = [sum(s[j] * inv[n - j] for j in range(n + 1)) for n in range(9)]
    assert prod == [1] + [0] * 8
    # 1/s coefficients are (2^{1-n} - 1) B_n / n!
    assert inv[2] == Fraction(-1, 24)
    assert inv[4] == Fraction(7, 5760)


def test_inverse_series_memo_is_the_fresh_series():
    for order in range(19):
        assert _inv_s_memo(order) == tuple(inv_s_series(order))


@given(st.dictionaries(rationals, st.integers(-3, 3), max_size=5),
       st.integers(0, 9))
@settings(max_examples=50, deadline=None)
def test_eigenvalue_series_in_integer_power_sums(exponentials, order):
    # one power sum over d^(n-1) (n-1)! per t^n is the sum of the rational
    # powers c e^(n-1) / (n-1)!, one per exponent and n
    want = inv_s_series(order)
    for e, c in exponentials.items():
        for n in range(1, order + 1):
            want[n] += c * e ** (n - 1) / factorial(n - 1)
    got = eigenvalue_inner_series(exponentials, order)
    assert got == want
    assert all(type(g) is Fraction for g in got)


def test_lift_over_a_common_denominator():
    # integer numerators over one denominator lift to the rational series
    g = [Fraction(1, 3), 0, Fraction(-5, 8), Fraction(7, 12), 0, Fraction(1, 2)]
    den = 24
    nums = [int(c * den) for c in g]
    for length, n in [(0, -2), (0, 3), (2, 3), (3, 5)]:
        assert lift(nums, length, n, den) == lift(g, length, n)
    # sum_i g_i eps^i u0^(d-i) / (d-i)!, d = n + 2 - length = 3
    assert lift(nums, 1, 2, den) == (
        ExactScalar.monomial(Fraction(1, 18), 0, 3)
        + ExactScalar.monomial(Fraction(-5, 8), 2, 1)
        + ExactScalar.monomial(Fraction(7, 12), 3, 0))
