"""Partitions, Frobenius coordinates, hooks, and dimension counts."""

from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfq.partitions import (dim, hooks, partitions_of, partitions_upto,
                              render, size, transpose)
from oracles import b_sign_exponent, frobenius, syt_count

small_partitions = st.integers(0, 8).flatmap(
    lambda n: st.sampled_from(partitions_of(n)))


def test_partition_counts():
    # number of partitions of 0..10
    counts = [len(partitions_of(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert len(partitions_upto(4)) == 1 + 1 + 2 + 3 + 5


@given(small_partitions)
@settings(max_examples=80)
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam
    assert size(transpose(lam)) == size(lam)


@given(small_partitions)
@settings(max_examples=80)
def test_frobenius_roundtrip(lam):
    coords = frobenius(lam)
    assert len(coords.alpha) == len(coords.beta)
    # alpha/beta strictly decreasing
    assert all(a > b for a, b in zip(coords.alpha, coords.alpha[1:]))
    assert all(a > b for a, b in zip(coords.beta, coords.beta[1:]))


def test_frobenius_transpose_swaps_arms_and_legs():
    for lam in partitions_upto(7):
        c, ct = frobenius(lam), frobenius(transpose(lam))
        assert c.alpha == ct.beta and c.beta == ct.alpha


def test_b_sign_exponent_examples():
    assert b_sign_exponent(()) == 0
    assert b_sign_exponent((1,)) == 0       # beta = (0)
    assert b_sign_exponent((2, 2)) == 1     # beta = (1, 0)
    assert b_sign_exponent((3, 1, 1)) == 2  # beta = (2, 0)


def test_hooks_and_dimension():
    assert sorted(hooks((2, 1))) == [1, 1, 3]
    assert dim((2, 1)) == 2
    assert dim(()) == 1
    assert dim((4,)) == 1
    assert dim((2, 2)) == 2


@given(small_partitions)
@settings(max_examples=40)
def test_hook_formula_matches_tableau_count(lam):
    assert dim(lam) == syt_count(lam)


def test_dimension_squares_sum_to_factorial():
    for n in range(9):
        assert sum(dim(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_transpose_preserves_dimension():
    for lam in partitions_upto(8):
        assert dim(transpose(lam)) == dim(lam)


def test_syt_bound_refusal():
    try:
        syt_count((13,))
        assert False
    except ValueError:
        pass


def test_render():
    assert render(()) == "[]"
    assert render((3, 2)) == "[3,2]"
