"""Charge-graded fermionic Fock space as a semi-infinite wedge.

Half-integer mode indices k are stored through m = k + 1/2 (an integer); the
vacuum occupies every m <= 0.  A wedge state is the pair of finite deviations
(added occupied slots with m >= 1, removed vacuum slots with m <= 0), kept in
strictly decreasing wedge order so every insertion or removal counts its
transpositions exactly.  Charge-zero states are in bijection with partitions
(Maya diagrams), and the whole module serves as an independent oracle for the
Schur eigenbasis.  Every coefficient is an integer or a rational, and every
sign comes from `_flip`:

- the bosonic modes alpha_n = sum_j psi_j psi*_{j+n} (n >= 1) commute, so the
  boson-fermion map <0| e^{K(q)} |lambda> has q^mu-coefficient
  <0| alpha_mu |lambda> / z_mu; it sends |lambda> to s_lambda exactly when
  the integer <0| alpha_mu |lambda> equals chi^lambda(mu);
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
from .partitions import frobenius, partitions_of, partitions_upto
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

    def partition(self):
        """Row lengths lambda_i = m_i + i - 1 over occupied slots in
        decreasing order; only meaningful at charge zero."""
        if self.charge != 0:
            raise ValueError("state has nonzero charge")
        rows = []
        occ = sorted(self.added, reverse=True)
        vac = [m for m in range(0, min(self.removed, default=1) - 1, -1)
               if m not in self.removed]
        for i, m in enumerate(occ + vac, start=1):
            lam = m + i - 1
            if lam == 0:
                break
            rows.append(lam)
        return tuple(rows)


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


def _flip(state, coeff, m):
    """The term coeff |state> with slot m toggled: (new state, coefficient),
    the sign (-1)^(number of occupied slots above m) carried by the
    coefficient."""
    if state.position(m) % 2:
        coeff = -coeff
    if m >= 1:
        return WedgeState(_toggle(state.added, m), state.removed), coeff
    return WedgeState(state.added, _toggle(state.removed, m)), coeff


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
    """alpha_n = sum_j psi_j psi*_{j+n} (n >= 1) on one state, as
    {state: +-1}: every term moves an occupied slot m to the free slot
    m - n.  No term needs normal ordering, so this holds at every charge."""
    floor = min(state.removed, default=1)
    # a sea slot m can only move to a vacated slot, so m - n >= floor
    sea = (m for m in range(0, floor + n - 1, -1) if m not in state.removed)
    return dict(_flip(*_flip(state, 1, m), m - n)
                for m in state.added + tuple(sea)
                if not state.occupied(m - n))


def _apply_alpha(n, vector):
    return sum((FermionVector(alpha(n, state)).scaled(c)
                for state, c in vector.terms.items()), FermionVector())


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


def boson_fermion_map(vector):
    """Phi(v) = <0| e^{K(q)} v with K = sum_{n >= 1} q_n alpha_n / n.  The
    alpha_n commute, so Phi(v) = sum_mu (q^mu / z_mu) <0| alpha_mu |v>, a
    polynomial in q; only charge-zero states of energy |mu| contribute."""
    memo, terms = {}, {}
    for state, c in vector.terms.items():
        if state.charge:
            continue
        for mu in partitions_of(state.energy()):
            add_into(terms, mono_from_partition(mu), Fraction(
                c * vacuum_amplitude(mu, state, memo), centralizer_size(mu)))
    return FockPolynomial({mono: ExactScalar.from_rational(value)
                           for mono, value in terms.items()})


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


def dressed_fermion_check(k, max_energy):
    """Decide e^{K} psi_k e^{-K} = sum_{m >= 0} h_m(q) psi_{k-m} and
    e^{K} psi*_k e^{-K} = sum_{m >= 0} h_m(-q) psi*_{k+m} on the span V of
    the charge-zero states of energy <= E.

    K maps V into itself, so by e^{K} X e^{-K} = sum_j (ad K)^j X / j! and
    exp(sum_n q_n z^n / n) = sum_m h_m z^m both identities hold on V once
    [alpha_n, psi_k'] = psi_{k'-n} and [alpha_n, psi*_k'] = -psi*_{k'+n}
    hold on V at every mode k' = k - s (psi) or k + s (psi*), s >= 0, the
    expansion reaches.  These are checked for every slot some state of V can
    toggle (at the others every term vanishes on V) and every
    n <= E + |slot| (beyond, every term vanishes by energy).  The premise
    [alpha_n, alpha_m] = 0 behind reading e^{K} monomial by monomial is
    checked on V too; the check fails if it does not hold.
    """
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
    slot = _to_m(k)
    for op, slots, step, sign in (
            (psi, range(slot, floor - 1, -1), -1, 1),
            (psi_star, range(slot, top + 1), 1, -1)):
        for s in slots:
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
