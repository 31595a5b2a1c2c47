"""Semi-infinite wedge model and the boson-fermion correspondence."""

from fractions import Fraction
from math import factorial
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfq.fermion
from hopfq.fermion import (VACUUM, FermionVector, WedgeState, _flip, alpha,
                           boson_fermion_map, diagonal_operator_eigenvalue,
                           dressed_fermion_check,
                           fermionic_hamiltonian_eigenvalue_series,
                           power_sum_states, psi, psi_star,
                           state_for_partition_label, state_of_partition)
from hopfq.fock import FockPolynomial, mono_from_partition
from hopfq.hamiltonians import eigenvalue_series, exponential_row_form
from hopfq.partitions import b_sign_exponent, partitions_of, partitions_upto
from hopfq.scalars import ExactScalar, add_into
from hopfq.schur import centralizer_size, complete_homogeneous, schur

half_integers = st.integers(-4, 4).map(lambda n: Fraction(2 * n + 1, 2))
labels = st.integers(0, 5).flatmap(
    lambda n: st.sampled_from(partitions_of(n)))


def test_maya_roundtrip():
    for lam in partitions_upto(8):
        st_ = state_for_partition_label(lam)
        assert st_.charge == 0
        assert st_.energy() == sum(lam)


def test_vacuum_annihilation():
    vac = FermionVector.vacuum()
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
    v = psi_star(Fraction(-5, 2), FermionVector.vacuum())
    (state, _), = v.terms.items()
    assert state.charge == -1 and state.energy() == 2
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
        sign = -1 if n == 2 and state.energy() % 2 else 1
        return {s: sign * c for s, c in alpha(n, state).items()}

    def unreachable(k, vector):
        raise AssertionError("commutators checked after a failed premise")

    monkeypatch.setattr(hopfq.fermion, "alpha", twisted)
    monkeypatch.setattr(hopfq.fermion, "psi", unreachable)
    monkeypatch.setattr(hopfq.fermion, "psi_star", unreachable)
    assert dressed_fermion_check([Fraction(1, 2)], 3) is False


# ---------------------------------------------------------------------------
# oracle: the wedge on two sorted slot tuples, sharing no move or sign code
# with the bitmask wedge of hopfq.fermion; states cross over by their slots


class TupleWedge(NamedTuple):
    """Occupied slots = ({m <= 0} minus removed) union added."""

    added: tuple    # decreasing, all >= 1
    removed: tuple  # decreasing, all <= 0

    @property
    def charge(self):
        return len(self.added) - len(self.removed)

    def energy(self):
        return sum(self.added) - sum(self.removed)

    def occupied(self, m):
        if m >= 1:
            return m in self.added
        return m not in self.removed

    def position(self, m):
        """Number of occupied slots strictly above m."""
        above = sum(1 for a in self.added if a > m)
        if m <= 0:
            above += -m - sum(1 for r in self.removed if r > m)
        return above

    def floor(self):
        """The lowest free slot."""
        floor = min(self.removed, default=1)
        while floor in self.added:
            floor += 1
        return floor

    def top(self):
        """The highest occupied slot above the sea, or 0."""
        return max(self.added, default=0)


def _toggle(slots, m):
    """The decreasing tuple slots with m removed if present, else inserted."""
    if m in slots:
        return tuple(s for s in slots if s != m)
    return tuple(sorted(slots + (m,), reverse=True))


def oracle_flip(wedge, m):
    """(wedge with slot m toggled, parity of the occupied slots above m)."""
    if m >= 1:
        moved = TupleWedge(_toggle(wedge.added, m), wedge.removed)
    else:
        moved = TupleWedge(wedge.added, _toggle(wedge.removed, m))
    return moved, wedge.position(m) % 2


def to_tuples(state):
    """The TupleWedge of a WedgeState: bit i of its mask is slot f + i, and
    every slot below the lowest free slot f is occupied."""
    floor = state.charge + 1 - bin(state.mask).count("1")
    bits = {floor + i for i, bit in enumerate(reversed(bin(state.mask)[2:]))
            if bit == "1"}
    occupied = bits | set(range(1, floor))
    return TupleWedge(
        tuple(sorted((m for m in occupied if m >= 1), reverse=True)),
        tuple(m for m in range(0, floor - 1, -1) if m not in bits))


def to_state(wedge):
    """The WedgeState of a TupleWedge."""
    floor = wedge.floor()
    return WedgeState(wedge.charge, sum(
        1 << (m - floor) for m in range(floor, wedge.top() + 1)
        if wedge.occupied(m)))


def shift_operator(n, vector):
    """sum_j psi_j psi*_{j+n} for n != 0 (normal ordered for n >= 1, the
    q_n-component of K): every occupied slot m with m - n free moves there;
    only the occupied slots at or above floor - |n| can reach a free slot."""
    result = {}
    for state, c in vector.terms.items():
        wedge = to_tuples(state)
        for src in range(wedge.floor() - abs(n), wedge.top() + 1):
            if wedge.occupied(src) and not wedge.occupied(src - n):
                moved, odd = oracle_flip(wedge, src)
                moved, odd_too = oracle_flip(moved, src - n)
                add_into(result, to_state(moved), -c if odd ^ odd_too else c)
    return FermionVector(result)


def oracle_toggle(k, vector, occupied):
    """psi*_k (occupied=True) or psi_k (occupied=False): slot k + 1/2
    toggled in every state where it is occupied, or free."""
    m = int(k + Fraction(1, 2))
    result = {}
    for state, c in vector.terms.items():
        wedge = to_tuples(state)
        if wedge.occupied(m) == occupied:
            moved, odd = oracle_flip(wedge, m)
            add_into(result, to_state(moved), -c if odd else c)
    return FermionVector(result)


def oracle_psi(k, vector):
    return oracle_toggle(k, vector, occupied=False)


def oracle_psi_star(k, vector):
    return oracle_toggle(k, vector, occupied=True)


def charged_state(lam, charge):
    """The wedge state occupying the slots lambda_i - i + 1 + charge."""
    rows = lam + (0,) * (abs(charge) + 1)
    occupied = {rows[i] - i + charge for i in range(len(rows))}
    deepest = min(occupied)
    return to_state(TupleWedge(
        tuple(sorted((m for m in occupied if m >= 1), reverse=True)),
        tuple(m for m in range(0, deepest - 1, -1) if m not in occupied)))


def states_of_charge(charges, max_energy):
    return [state for charge in charges for lam in partitions_upto(max_energy)
            if (state := charged_state(lam, charge)).energy() <= max_energy]


def test_the_tuple_wedge_reads_every_mask_state_alike():
    for lam in partitions_upto(8):
        assert charged_state(lam, 0) == state_for_partition_label(lam)
    states = states_of_charge(range(-2, 3), 6)
    assert {state.charge for state in states} == set(range(-2, 3))
    for state in states:
        wedge = to_tuples(state)
        assert to_state(wedge) == state
        assert (wedge.charge, wedge.energy()) == (state.charge,
                                                  state.energy())
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


# ---------------------------------------------------------------------------
# oracle: e^{K(q)} expanded on wedge states with FockPolynomial coefficients


def _min_energy(charge):
    # lowest energy in the charge sector: slots packed against the Dirac sea
    # (charge +c adds slots 1..c, charge -c vacates slots 0, -1, ..., 1-c)
    if charge >= 0:
        return charge * (charge + 1) // 2
    return -charge * (-charge - 1) // 2


def apply_K(vector):
    """K(q) = sum_{n >= 1} (q_n / n) sum_j :psi_j psi*_{j+n}:; strictly
    lowers the energy grading, so repeated application terminates."""
    result = FermionVector.zero()
    for state, c in vector.terms.items():
        single = FermionVector.basis(state, c)
        for n in range(1, state.energy() - _min_energy(state.charge) + 1):
            moved = shift_operator(n, single)
            result = result + moved.scaled(
                FockPolynomial.variable(n) * Fraction(1, n))
    return result


def exp_K(vector, inverse=False):
    """e^{K(q)} (or e^{-K(q)}) by the finite nilpotent expansion, on a
    vector with FockPolynomial coefficients."""
    total = power = vector
    order = 0
    while power:
        order += 1
        power = apply_K(power)
        sign = -1 if inverse and order % 2 else 1
        total = total + power.scaled(Fraction(sign, factorial(order)))
    return total


def _polynomial(vector):
    return FermionVector({state: FockPolynomial.constant(c)
                          for state, c in vector.terms.items()})


def oracle_boson_fermion_map(vector):
    return exp_K(_polynomial(vector)).terms.get(VACUUM, FockPolynomial.zero())


def oracle_dressed_fermion_check(k, max_energy):
    """e^{K} psi_k e^{-K} = sum_m h_m(q) psi_{k-m} (and the psi* form with
    h_m(-q)) by expanding both sides on each state of energy <= E."""
    m_slot = int(k + Fraction(1, 2))
    for lam in partitions_upto(max_energy):
        state = charged_state(lam, 0)
        base = _polynomial(FermionVector.basis(state))
        conjugated = exp_K(base, inverse=True)
        # psi_{k-m} vanishes below the lowest vacated sea slot, psi*_{k+m}
        # above the highest occupied slot
        wedge = to_tuples(state)
        floor, top = wedge.floor(), wedge.top()
        for op, step, shifts, q_sign in (
                (oracle_psi, -1, max(0, m_slot - floor) + 1, 1),
                (oracle_psi_star, 1, max(-1, top - m_slot) + 1, -1)):
            rhs = FermionVector.zero()
            for shift in range(shifts):
                h = complete_homogeneous(shift).map_variables(q_sign)
                rhs = rhs + op(k + step * shift, base).scaled(h)
            if exp_K(op(k, conjugated)) != rhs:
                return False
    return True


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


def test_boson_fermion_map_agrees_with_the_oracle():
    for lam in partitions_upto(8):
        maya = FermionVector.basis(state_for_partition_label(lam))
        string = state_of_partition(lam)
        for v in (maya, string):
            assert boson_fermion_map(v) == oracle_boson_fermion_map(v)


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
        images = {lam: oracle_boson_fermion_map(
            FermionVector.basis(state_for_partition_label(lam)))
            for lam in partitions_of(n)}
        for mu in partitions_of(n):
            want = {}
            for lam in partitions_of(n):
                state = state_for_partition_label(lam)
                amplitude = vacuum_amplitude(mu, state, memo)
                assert images[lam].coefficient(mono_from_partition(mu)) == \
                    ExactScalar.from_rational(
                        Fraction(amplitude, centralizer_size(mu)))
                if amplitude:
                    want[state] = amplitude
            assert vectors[mu].terms == want


def test_alpha_minus_n_is_the_adjoint_of_alpha_n():
    # <t| alpha_n |s> = <s| alpha_{-n} |t> on every pair of states of
    # charge -1..1 and energy <= 6; alpha_n keeps that set
    states = [state for charge in (-1, 0, 1) for lam in partitions_upto(6)
              if (state := charged_state(lam, charge)).energy() <= 6]
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
    charged = psi(Fraction(7, 2), FermionVector.vacuum())
    v = (FermionVector.basis(state_for_partition_label(()), Fraction(1, 2))
         + FermionVector.basis(state_for_partition_label((1,)), -3)
         + FermionVector.basis(state_for_partition_label((2, 1)), 2)
         + charged.scaled(5))
    want = (schur(()) * Fraction(1, 2) + schur((1,)) * -3
            + schur((2, 1)) * 2)
    assert boson_fermion_map(v) == want
    assert boson_fermion_map(v) == oracle_boson_fermion_map(v)
    assert boson_fermion_map(charged).is_zero()
