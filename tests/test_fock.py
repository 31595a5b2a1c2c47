"""Fock polynomials and normally ordered operators."""

import hashlib
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfq.fock import (FockPolynomial, NormalOrderedOperator, mono_degree,
                        mono_weight, naive_hamiltonian, weight_basis)
from hopfq.hamiltonians import hamiltonian
from hopfq.scalars import ExactScalar
from oracles import compose, identity, restrict_weight, term

monos = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)),
                 max_size=3).map(
    lambda kvs: tuple(sorted({k: v for k, v in kvs}.items())))


def polys():
    return st.dictionaries(monos, st.integers(-9, 9), max_size=4).map(
        lambda d: sum((FockPolynomial.monomial(m, c) for m, c in d.items()),
                      FockPolynomial.zero()))


def small_operators():
    terms = st.tuples(monos, monos, st.integers(-5, 5))
    return st.lists(terms, min_size=1, max_size=3).map(
        lambda ts: sum((term(a, b, c)
                        for a, b, c in ts), NormalOrderedOperator.zero()))


def test_mono_helpers():
    assert mono_weight(((1, 2), (3, 1))) == 5
    assert mono_degree(((1, 2), (3, 1))) == 3
    assert weight_basis(0) == [()]
    assert len(weight_basis(6)) == 11


def test_single_contraction():
    # p_k q_k = q_k p_k + hbar k
    p = term((), ((2, 1),))
    q = term(((2, 1),), ())
    expected = term(((2, 1),), ((2, 1),)) + identity(ExactScalar.monomial(2, 2))
    assert compose(p, q) == expected


# (p-part, q-part, normally ordered product as (alpha, beta, c, hbar power))
WICK = [
    # p_1^2 q_1^2 = q_1^2 p_1^2 + 4 hbar q_1 p_1 + 2 hbar^2
    (((1, 2),), ((1, 2),), [(((1, 2),), ((1, 2),), 1, 0),
                            (((1, 1),), ((1, 1),), 4, 1), ((), (), 2, 2)]),
    # p_3^2 q_3^3 = q_3^3 p_3^2 + 18 hbar q_3^2 p_3 + 54 hbar^2 q_3
    (((3, 2),), ((3, 3),), [(((3, 3),), ((3, 2),), 1, 0),
                            (((3, 2),), ((3, 1),), 18, 1),
                            (((3, 1),), (), 54, 2)]),
    # p_1 p_2 q_1 q_2 = q_1 q_2 p_1 p_2 + 2 hbar q_1 p_1 + hbar q_2 p_2
    #                   + 2 hbar^2
    (((1, 1), (2, 1)), ((1, 1), (2, 1)), [
        (((1, 1), (2, 1)), ((1, 1), (2, 1)), 1, 0),
        (((1, 1),), ((1, 1),), 2, 1), (((2, 1),), ((2, 1),), 1, 1),
        ((), (), 2, 2)]),
]


def test_wick_values():
    # a wrong j!, binomial, k^j or eps^(2j) changes one of these coefficients
    for beta, alpha, terms in WICK:
        got = compose(term((), beta), term(alpha, ()))
        assert got == sum((term(
            a, b, ExactScalar.monomial(c, eps_power=2 * h))
            for a, b, c, h in terms), NormalOrderedOperator.zero())


def test_apply_matches_differential_action():
    # p_2 acting on q_2^3 gives 3 * hbar * 2 * q_2^2
    p = term((), ((2, 1),))
    f = FockPolynomial.monomial(((2, 3),))
    got = p.apply(f)
    assert got == FockPolynomial.monomial(((2, 2),), ExactScalar.monomial(6, 2))


@given(small_operators(), small_operators(), polys())
@settings(max_examples=40, deadline=None)
def test_compose_agrees_with_sequential_apply(a, b, f):
    assert compose(a, b).apply(f) == a.apply(b.apply(f))
    # no result stores a zero coefficient, nor a zero rational inside one
    g = b.apply(f)
    for result in (a + b, a - b, compose(a, b), a.apply(f), g,
                   f + g, f - g, f * g, a.apply(f) - a.apply(f)):
        assert all(c and all(c.terms.values()) for c in result.terms.values())


@given(small_operators())
@settings(max_examples=40)
def test_transpose_involution(op):
    assert op.transpose().transpose() == op


def test_weight_restriction_prunes_high_terms():
    op = naive_hamiltonian(1, 6)
    for (alpha, beta), _ in restrict_weight(op, 3).sorted_terms():
        assert mono_weight(alpha) == mono_weight(beta) <= 3


def test_compose_max_weight_consistency():
    a = naive_hamiltonian(1, 6)
    b = naive_hamiltonian(2, 6)
    full = compose(a, b)
    pruned = compose(a, b, max_weight=4)
    for f in [FockPolynomial.monomial(m) for m in weight_basis(4)]:
        assert full.apply(f) == pruned.apply(f)


@given(small_operators(), small_operators())
@settings(max_examples=40, deadline=None)
def test_compose_max_weight_drops_only_high_annihilation_terms(a, b):
    full = compose(a, b)
    for W in range(7):
        assert compose(a, b, W) == NormalOrderedOperator({
            key: c for key, c in full.terms.items()
            if mono_weight(key[1]) <= W})


def compose_sweep():
    for W in range(5):
        for n in range(-1, 4):
            for m in range(-1, 4):
                a, b = naive_hamiltonian(n, W), naive_hamiltonian(m, W)
                yield compose(a, b).to_json()
                yield compose(a, b, W).to_json()
    for n, m in [(0, 1), (1, 2), (2, 3), (3, 1)]:
        a, b = hamiltonian(n, 5), hamiltonian(m, 5)
        yield compose(a, b).to_json()
        yield compose(a.transpose(), b, 4).to_json()


def test_compose_products_are_pinned():
    # products of naive (W <= 4) and corrected (W = 5) Hamiltonians; no CLI
    # output pins compose, so this guards its exact coefficients
    digest = hashlib.sha256(json.dumps(list(compose_sweep())).encode())
    assert digest.hexdigest() == (
        "f3bf5d93c49509a26525bf605e9c6e9cc124fb3e795fdaf1e4a198c35393cde8")


def test_operator_json_roundtrip():
    # the terms `hamiltonian --format json` prints determine the operator
    op = naive_hamiltonian(2, 5)
    read = NormalOrderedOperator({
        (tuple(map(tuple, e["alpha"])), tuple(map(tuple, e["beta"]))):
            ExactScalar({(eps, u): Fraction(num, den)
                         for eps, u, num, den in e["coeff"]})
        for e in json.loads(json.dumps(op.to_json()))})
    assert read == op


def test_render_mentions_identity():
    op = identity(ExactScalar.monomial(1, 0, 1))
    assert op.render() == "(1 * u0^1) Id"
