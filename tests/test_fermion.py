"""Semi-infinite wedge model and the boson-fermion correspondence."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfq.fermion
from hopfq.fermion import (VACUUM, FermionVector, WedgeState, _flip, alpha,
                           dressed_fermion_check, power_sum_states, psi,
                           psi_star, state_for_partition_label)
from hopfq.fock import mono_from_partition
from hopfq.hamiltonians import eigenvalue_series, exponential_row_form
from hopfq.partitions import partitions_of, partitions_upto
from hopfq.scalars import ExactScalar
from hopfq.schur import centralizer_size, schur
from oracles import (b_sign_exponent, boson_fermion_map, charged_state,
                     coefficient, diagonal_operator_eigenvalue, energy,
                     fermionic_hamiltonian_eigenvalue_series,
                     oracle_dressed_fermion_check, oracle_flip, shift_operator,
                     state_of_partition, to_state, to_tuples)

half_integers = st.integers(-4, 4).map(lambda n: Fraction(2 * n + 1, 2))
labels = st.integers(0, 5).flatmap(
    lambda n: st.sampled_from(partitions_of(n)))


def test_maya_roundtrip():
    for lam in partitions_upto(8):
        st_ = state_for_partition_label(lam)
        assert st_.charge == 0
        assert energy(st_) == sum(lam)


def test_vacuum_annihilation():
    vac = FermionVector.basis(VACUUM)
    for k in [Fraction(1, 2), Fraction(3, 2)]:
        assert psi_star(k, vac).is_zero()   # removing an empty slot
        assert psi(-k, vac).is_zero()       # inserting an occupied sea slot


@given(half_integers, half_integers, labels)
@settings(max_examples=60)
def test_anticommutation_relations(a, b, lam):
    v = FermionVector.basis(state_for_partition_label(lam))
    assert (psi(a, psi(b, v)) + psi(b, psi(a, v))).is_zero()
    assert (psi_star(a, psi_star(b, v)) + psi_star(b, psi_star(a, v))).is_zero()
    anti = psi(a, psi_star(b, v)) + psi_star(b, psi(a, v))
    assert anti == (v if a == b else FermionVector.zero())


def test_creation_string_reaches_maya_state_with_sign():
    for lam in partitions_upto(7):
        vec = state_of_partition(lam)
        assert len(vec.terms) == 1
        (state, coeff), = vec.terms.items()
        assert state == state_for_partition_label(lam)
        sign = (-1) ** b_sign_exponent(lam)
        assert coeff == sign


def test_boson_fermion_map_gives_schur():
    for lam in partitions_upto(6):
        maya = FermionVector.basis(state_for_partition_label(lam))
        assert boson_fermion_map(maya) == schur(lam)
        string = state_of_partition(lam)
        sign = (-1) ** b_sign_exponent(lam)
        assert boson_fermion_map(string) == schur(lam) * sign


def test_diagonal_operator_eigenvalue_matches_row_form():
    for lam in partitions_upto(8):
        assert diagonal_operator_eigenvalue(lam) == exponential_row_form(lam)


def test_dressed_fermions():
    assert dressed_fermion_check([Fraction(j, 2) for j in (-3, -1, 1, 3)], 3)
    with pytest.raises(ValueError):
        dressed_fermion_check([], 3)


@pytest.mark.parametrize("op, inner, outer", [
    ("psi", Fraction(1, 2), Fraction(3, 2)),
    ("psi_star", Fraction(-1, 2), Fraction(-3, 2))], ids=["psi", "psi_star"])
def test_dressed_check_starts_at_the_outermost_mode(op, inner, outer,
                                                     monkeypatch):
    # op broken at the outer mode alone (psi at slot 2, psi* at slot -1):
    # psi reaches it only from a mode at or above it, psi* only from one at
    # or below, so one pass over several modes must start at the outermost
    healthy = getattr(hopfq.fermion, op)

    def broken(k, vector):
        moved = healthy(k, vector)
        return moved.scaled(-1) if k == outer else moved

    monkeypatch.setattr(hopfq.fermion, op, broken)
    assert dressed_fermion_check([inner], 3) is True
    assert dressed_fermion_check([outer], 3) is False
    assert dressed_fermion_check([inner, outer], 3) is False


def test_fermionic_series_matches_bosonic_eigenvalues():
    K = 4
    for lam in partitions_upto(5):
        fer = fermionic_hamiltonian_eigenvalue_series(lam, K + 2)
        bos = eigenvalue_series(lam, K)
        for n in range(-1, K + 1):
            assert bos[n].substitute(eps=1) == fer[n + 2].substitute(eps=1)


def test_nonzero_charge_states():
    # remove a single deep sea slot: charge -1
    v = psi_star(Fraction(-5, 2), FermionVector.basis(VACUUM))
    (state, _), = v.terms.items()
    assert state.charge == -1 and energy(state) == 2
    assert isinstance(state, WedgeState)


def test_psi_sign_counts_the_occupied_slots_above():
    # |lambda> occupies the slots lambda_i - i + 1, i >= 1 (lambda_i = 0
    # past the last row); psi_k puts (-1)^(slots above k + 1/2) in front
    for lam in partitions_upto(4):
        v = FermionVector.basis(state_for_partition_label(lam))
        rows = lam + (0,) * 6
        slots = [rows[i] - i for i in range(len(rows))]
        for m in range(-3, 5):
            (_, coeff), = (psi(Fraction(2 * m - 1, 2), v).terms.items()
                           or [(None, None)])
            if m in slots:
                assert coeff is None
            else:
                assert coeff == (-1) ** sum(s > m for s in slots)


def test_dressed_check_refuses_noncommuting_modes(monkeypatch):
    # with alpha_2 sign-twisted by the energy parity, alpha_1 and alpha_2 no
    # longer commute; the check must say so before reaching the commutators
    def twisted(n, state):
        sign = -1 if n == 2 and energy(state) % 2 else 1
        return {s: sign * c for s, c in alpha(n, state).items()}

    def unreachable(k, vector):
        raise AssertionError("commutators checked after a failed premise")

    monkeypatch.setattr(hopfq.fermion, "alpha", twisted)
    monkeypatch.setattr(hopfq.fermion, "psi", unreachable)
    monkeypatch.setattr(hopfq.fermion, "psi_star", unreachable)
    assert dressed_fermion_check([Fraction(1, 2)], 3) is False


def states_of_charge(charges, max_energy):
    return [state for charge in charges for lam in partitions_upto(max_energy)
            if energy(state := charged_state(lam, charge)) <= max_energy]


def test_the_tuple_wedge_reads_every_mask_state_alike():
    for lam in partitions_upto(8):
        assert charged_state(lam, 0) == state_for_partition_label(lam)
    states = states_of_charge(range(-2, 3), 6)
    assert {state.charge for state in states} == set(range(-2, 3))
    for state in states:
        wedge = to_tuples(state)
        assert to_state(wedge) == state
        assert wedge.charge == state.charge
        for m in range(wedge.floor() - 2, wedge.top() + 3):
            assert state.occupied(m) == wedge.occupied(m)


def test_flip_agrees_with_the_tuple_wedge():
    # every slot from two below the lowest free one, which the mask pads
    # with sea slots, to two above the top one, beyond the mask
    for state in states_of_charge(range(-2, 3), 6):
        wedge = to_tuples(state)
        for m in range(wedge.floor() - 2, wedge.top() + 3):
            moved, odd = oracle_flip(wedge, m)
            assert _flip(state, 1, m) == (to_state(moved), -1 if odd else 1)


def test_alpha_matches_the_oracle_shift_operator_at_every_charge():
    states = states_of_charge(range(-2, 3), 6)
    for lam in partitions_upto(5):
        maya = FermionVector.basis(state_for_partition_label(lam))
        # slot 6 is empty and slot -5 occupied in every |lambda| <= 5
        for v in (psi(Fraction(11, 2), maya),
                  psi_star(Fraction(-11, 2), maya)):
            states += v.terms
    for state in states:
        for n in [*range(-8, 0), *range(1, 9)]:
            assert FermionVector(alpha(n, state)) == shift_operator(
                n, FermionVector.basis(state))


def test_dressed_check_agrees_with_the_oracle():
    for j in (-5, -3, -1, 1, 3, 5):
        k = Fraction(j, 2)
        assert dressed_fermion_check([k], 3) is \
            oracle_dressed_fermion_check(k, 3)
        assert dressed_fermion_check([k], 3)


# ---------------------------------------------------------------------------
# oracle: <0| alpha_mu |state>, alpha_{mu_1} applied first


def vacuum_amplitude(mu, state, memo):
    """The integer <0| alpha_mu |state>, applying alpha_{mu_1} first; memo
    holds it per (state, suffix of mu) across the calls that share it."""
    if not mu:
        return int(state == VACUUM)
    key = (state, mu)
    if key not in memo:
        memo[key] = sum(c * vacuum_amplitude(mu[1:], moved, memo)
                        for moved, c in alpha(mu[0], state).items())
    return memo[key]


def test_power_sum_states_match_both_oracles():
    # alpha_{-mu}|0> = sum_lambda <0| alpha_mu |lambda> |lambda>, read by
    # the recursion above and off the e^{K(q)} expansion
    vectors = power_sum_states(8)
    assert list(vectors) == partitions_upto(8)
    memo = {}
    for n in range(9):
        images = {lam: boson_fermion_map(
            FermionVector.basis(state_for_partition_label(lam)))
            for lam in partitions_of(n)}
        for mu in partitions_of(n):
            want = {}
            for lam in partitions_of(n):
                state = state_for_partition_label(lam)
                amplitude = vacuum_amplitude(mu, state, memo)
                assert coefficient(images[lam], mono_from_partition(mu)) == \
                    ExactScalar.from_rational(
                        Fraction(amplitude, centralizer_size(mu)))
                if amplitude:
                    want[state] = amplitude
            assert vectors[mu].terms == want


def test_alpha_minus_n_is_the_adjoint_of_alpha_n():
    # <t| alpha_n |s> = <s| alpha_{-n} |t> on every pair of states of
    # charge -1..1 and energy <= 6; alpha_n keeps that set
    states = [state for charge in (-1, 0, 1) for lam in partitions_upto(6)
              if energy(state := charged_state(lam, charge)) <= 6]
    assert charged_state((2, 1), 0) == state_for_partition_label((2, 1))
    assert {state.charge for state in states} == {-1, 0, 1}
    for n in range(1, 7):
        raised = {t: alpha(-n, t) for t in states}
        for s in states:
            assert alpha(n, s) == {t: c for t in states
                                   if (c := raised[t].get(s, 0))}


def test_boson_fermion_map_of_a_mixed_vector():
    # energies 0, 1 and 3, rational coefficients and one state of charge 1,
    # which the vacuum bra never meets
    charged = psi(Fraction(7, 2), FermionVector.basis(VACUUM))
    v = (FermionVector.basis(state_for_partition_label(()), Fraction(1, 2))
         + FermionVector.basis(state_for_partition_label((1,)), -3)
         + FermionVector.basis(state_for_partition_label((2, 1)), 2)
         + charged.scaled(5))
    want = (schur(()) * Fraction(1, 2) + schur((1,)) * -3
            + schur((2, 1)) * 2)
    assert boson_fermion_map(v) == want
    assert boson_fermion_map(charged).is_zero()
