"""Charge-graded fermionic Fock space as a semi-infinite wedge.

Half-integer mode indices k are stored through m = k + 1/2 (an integer); the
vacuum occupies every m <= 0.  A wedge state is the pair of finite deviations
(added occupied slots with m >= 1, removed vacuum slots with m <= 0), kept in
strictly decreasing wedge order so every insertion or removal counts its
transpositions exactly.  Charge-zero states are in bijection with partitions
(Maya diagrams), and the whole module serves as an independent oracle for the
Schur eigenbasis.  Every coefficient is an integer or a rational, and every
sign counts occupied slots: those above a toggled slot (`_flip`), or those
between the two slots of a move (`alpha`):

- the bosonic modes alpha_n = sum_j psi_j psi*_{j+n} (n >= 1) commute, so the
  boson-fermion map <0| e^{K(q)} |lambda> has q^mu-coefficient
  <0| alpha_mu |lambda> / z_mu; it sends |lambda> to s_lambda exactly when
  alpha_{-mu} |0> = sum_lambda chi^lambda(mu) |lambda> for every mu;
- the dressed-fermion identities follow from e^{ad K} and the commutators
  [alpha_n, psi_k] = psi_{k-n}, [alpha_n, psi*_k] = -psi*_{k+n}, checked on
  the states swept together with [alpha_n, alpha_m] = 0;
- the diagonal operator O(z) = sum_k e^{kz} :psi_k psi_k*: is read off the
  Maya diagram.

The expansion of e^{K(q)} with polynomial coefficients, which these
identities replace, is kept in the tests as their oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .fock import FockPolynomial, mono_from_partition
from .partitions import frobenius, partitions_upto
from .scalars import (ExactScalar, SparseSum, add_into,
                      eigenvalue_inner_series, lift)
from .schur import centralizer_size


def _to_m(k):
    """Half-integer mode index k -> integer slot m = k + 1/2."""
    m = Fraction(k) + Fraction(1, 2)
    if m.denominator != 1:
        raise ValueError(f"index {k} is not a half-integer")
    return int(m)


def _to_k(m):
    return Fraction(2 * m - 1, 2)


class WedgeState(NamedTuple):
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

    def between(self, lo, hi):
        """Number of occupied slots m with lo < m < hi, for lo < hi."""
        return self.position(lo) - self.position(hi - 1)


VACUUM = WedgeState((), ())


def state_for_partition_label(partition):
    """The wedge state whose Maya diagram is the given partition."""
    occupied = [partition[i - 1] - i + 1 for i in range(1, len(partition) + 1)]
    added = tuple(sorted((m for m in occupied if m >= 1), reverse=True))
    vacated = {-i + 1 for i in range(1, len(partition) + 1)}
    kept = {m for m in occupied if m <= 0}
    removed = tuple(sorted(vacated - kept, reverse=True))
    return WedgeState(added, removed)


class FermionVector(SparseSum):
    """Finite linear combination of wedge states; the package's
    coefficients are integers or rationals."""

    __slots__ = ()

    @classmethod
    def vacuum(cls):
        return cls.basis(VACUUM)

    @classmethod
    def basis(cls, state, coeff=1):
        return cls({state: coeff} if coeff else None)


# ---------------------------------------------------------------------------
# generator actions


def _toggle(slots, m):
    """The decreasing tuple slots with m removed if present, else inserted."""
    if m in slots:
        return tuple(s for s in slots if s != m)
    return tuple(sorted(slots + (m,), reverse=True))


def _toggled(state, m):
    """The state with slot m toggled."""
    if m >= 1:
        return WedgeState(_toggle(state.added, m), state.removed)
    return WedgeState(state.added, _toggle(state.removed, m))


def _flip(state, coeff, m):
    """The term coeff |state> with slot m toggled: (new state, coefficient),
    the sign (-1)^(number of occupied slots above m) carried by the
    coefficient."""
    return _toggled(state, m), -coeff if state.position(m) % 2 else coeff


def psi(k, vector):
    """Wedge insertion psi_k = e_k wedge (exterior multiplication)."""
    m = _to_m(k)
    return vector.remap(
        lambda state, c: None if state.occupied(m) else _flip(state, c, m))


def psi_star(k, vector):
    """Interior derivative psi_k* = d/de_k."""
    m = _to_m(k)
    return vector.remap(
        lambda state, c: _flip(state, c, m) if state.occupied(m) else None)


def state_of_partition(partition):
    """|lambda> = psi_{alpha_1 + 1/2} ... psi_{alpha_d + 1/2}
    psi*_{-beta_d - 1/2} ... psi*_{-beta_1 - 1/2} |0>, built by applying the
    creation string right-to-left to the vacuum."""
    coords = frobenius(tuple(partition))
    vec = FermionVector.vacuum()
    for beta_i in coords.beta:
        vec = psi_star(-Fraction(2 * beta_i + 1, 2), vec)
    for alpha_i in reversed(coords.alpha):
        vec = psi(Fraction(2 * alpha_i + 1, 2), vec)
    return vec


# ---------------------------------------------------------------------------
# boson-fermion correspondence


def alpha(n, state):
    """alpha_n = sum_j psi_j psi*_{j+n} (n != 0) on one state, as
    {state: +-1}: every term moves an occupied slot m to the free slot
    m - n.  No term needs normal ordering, so this holds at every charge.
    The sign is (-1)^(number of occupied slots strictly between m and
    m - n): psi*_m and then psi_{m-n} each count the occupied slots above
    their own slot, and with m emptied the two counts differ by exactly
    those between."""
    floor = min(state.removed, default=1)
    # a sea slot m can only move to a vacated slot, so m - n >= floor
    sea = (m for m in range(0, floor + n - 1, -1) if m not in state.removed)
    return {_toggled(_toggled(state, m), m - n):
            (-1) ** state.between(*sorted((m, m - n)))
            for m in state.added + tuple(sea) if not state.occupied(m - n)}


def _apply_alpha(n, vector):
    terms = {}
    for state, c in vector.terms.items():
        for moved, sign in alpha(n, state).items():
            add_into(terms, moved, sign * c)
    return FermionVector(terms)


def power_sum_states(W):
    """{mu: alpha_{-mu} |0>} for every partition mu with |mu| <= W, each
    one alpha_{-mu_last} applied to the vector of mu without its last part
    (the alpha_{-n} commute).  By the boson-fermion map the vector of mu is
    sum_lambda chi^lambda(mu) |lambda> (Macdonald I.7)."""
    vectors = {(): FermionVector.vacuum()}
    for mu in partitions_upto(W)[1:]:
        vectors[mu] = _apply_alpha(-mu[-1], vectors[mu[:-1]])
    return vectors


def boson_fermion_map(vector):
    """Phi(v) = <0| e^{K(q)} v with K = sum_{n >= 1} q_n alpha_n / n.  The
    alpha_n commute, so Phi(v) = sum_mu (q^mu / z_mu) <0| alpha_mu |v>, a
    polynomial in q; as alpha_n^dagger = alpha_{-n}, <0| alpha_mu |v> is
    v's inner product with alpha_{-mu} |0> (charge 0, energy |mu|)."""
    top = max((state.energy() for state in vector.terms if not state.charge),
              default=0)
    terms = {}
    for mu, column in power_sum_states(top).items():
        amplitude = sum(c * vector.terms.get(state, 0)
                        for state, c in column.terms.items())
        if amplitude:
            terms[mono_from_partition(mu)] = ExactScalar.from_rational(
                Fraction(amplitude, centralizer_size(mu)))
    return FockPolynomial(terms)


# ---------------------------------------------------------------------------
# diagonal operator and dressed fermions


def diagonal_operator_eigenvalue(partition):
    """Eigenvalue of O(z) = sum_k e^{kz} :psi_k psi_k*: on |lambda>, applied
    slot by slot; returned as a canonical map exponent -> integer coefficient
    representing sum c_e e^{z e}."""
    state = state_for_partition_label(tuple(partition))
    counts = {}
    for m in state.added:        # occupied positive slots: +e^{kz}
        add_into(counts, _to_k(m), 1)
    for m in state.removed:      # vacated negative slots: -e^{kz}
        add_into(counts, _to_k(m), -1)
    return counts


def dressed_fermion_check(modes, max_energy):
    """Decide e^{K} psi_k e^{-K} = sum_{m >= 0} h_m(q) psi_{k-m} and
    e^{K} psi*_k e^{-K} = sum_{m >= 0} h_m(-q) psi*_{k+m} for every k in
    `modes`, on the span V of the charge-zero states of energy <= E.

    K maps V into itself, so by e^{K} X e^{-K} = sum_j (ad K)^j X / j! and
    exp(sum_n q_n z^n / n) = sum_m h_m z^m both identities hold on V once
    [alpha_n, psi_k'] = psi_{k'-n} and [alpha_n, psi*_k'] = -psi*_{k'+n}
    hold on V at every mode k' = k - s (psi) or k + s (psi*), s >= 0, the
    expansion reaches: psi from the highest mode down, psi* from the lowest
    up.  These are checked once, for every slot some state of V can toggle
    (at the others every term vanishes on V) and every n <= E + |slot|
    (beyond, every term vanishes by energy).  The premise
    [alpha_n, alpha_m] = 0 behind reading e^{K} monomial by monomial is
    checked on V first; the check fails if it does not hold.
    """
    if not modes:
        raise ValueError("no mode to check")
    swept = [state_for_partition_label(lam)
             for lam in partitions_upto(max_energy)]
    states = [FermionVector.basis(state) for state in swept]
    for n in range(1, max_energy + 1):
        for m in range(n + 1, max_energy + 1):
            if any(_apply_alpha(n, _apply_alpha(m, v))
                   != _apply_alpha(m, _apply_alpha(n, v)) for v in states):
                return False
    floor = min(min(state.removed, default=1) for state in swept)
    top = max(max(state.added, default=0) for state in swept)
    slots = [_to_m(k) for k in modes]
    for op, span, step, sign in (
            (psi, range(max(slots), floor - 1, -1), -1, 1),
            (psi_star, range(min(slots), top + 1), 1, -1)):
        for s in span:
            for n in range(1, max_energy + abs(s) + 1):
                for v in states:
                    bracket = (_apply_alpha(n, op(_to_k(s), v))
                               - op(_to_k(s), _apply_alpha(n, v)))
                    if bracket != op(_to_k(s + step * n), v).scaled(sign):
                        return False
    return True


def fermionic_hamiltonian_eigenvalue_series(partition, order):
    """z-series of e^{z u0} (z * eig_O(lambda) + 1/s(z)) at hbar = 1: the
    fermionic form of the Hamiltonian acting on |lambda>.

    Agreement with the bosonic eigenvalue series at eps = 1 is the
    independent wedge-side check of the eigenbasis theorem.
    """
    g = eigenvalue_inner_series(diagonal_operator_eigenvalue(partition),
                                order)
    return [lift(g, 0, n - 2).substitute(eps=1) for n in range(order + 1)]
