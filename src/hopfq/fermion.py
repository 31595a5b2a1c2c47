"""Charge-graded fermionic Fock space as a semi-infinite wedge.

Half-integer mode indices k are stored through m = k + 1/2 (an integer); the
vacuum occupies every m <= 0.  A wedge state is the pair of finite deviations
(added occupied slots with m >= 1, removed vacuum slots with m <= 0), kept in
strictly decreasing wedge order so every insertion or removal counts its
transpositions exactly.  Charge-zero states are in bijection with partitions
(Maya diagrams), and the whole module serves as an independent oracle for the
Schur eigenbasis: the boson-fermion map, the diagonal operator
O(z) = sum_k e^{kz} :psi_k psi_k*:, and the dressed-fermion conjugation
identities are all evaluated exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .fock import FockPolynomial
from .partitions import frobenius
from .scalars import SparseSum, UnivariateSeries, add_into, inv_s_series, lift
from .schur import complete_homogeneous


def _to_m(k):
    """Half-integer mode index k -> integer slot m = k + 1/2."""
    m = Fraction(k) + Fraction(1, 2)
    if m.denominator != 1:
        raise ValueError(f"index {k} is not a half-integer")
    return int(m)


def _to_k(m):
    return Fraction(2 * m - 1, 2)


def _as_poly(coeff):
    if isinstance(coeff, FockPolynomial):
        return coeff
    return FockPolynomial.constant(coeff)


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

    def render(self):
        from .partitions import render
        if self.charge == 0:
            return render(self.partition())
        return f"charge={self.charge}, added={self.added}, removed={self.removed}"


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
    """Finite linear combination of wedge states with FockPolynomial
    coefficients (polynomials in the bosonic q-variables appear while
    expanding e^{K(q)})."""

    __slots__ = ()

    @classmethod
    def vacuum(cls):
        return cls.basis(VACUUM)

    @classmethod
    def basis(cls, state, coeff=None):
        coeff = FockPolynomial.one() if coeff is None else _as_poly(coeff)
        if coeff.is_zero():
            return cls()
        return cls({state: coeff})

    def __mul__(self, coeff):
        return self.scaled(_as_poly(coeff))

    __rmul__ = __mul__

    def coefficient(self, state):
        return self.terms.get(state, FockPolynomial.zero())

    def max_energy(self):
        return max((s.energy() for s in self.terms), default=0)

    def render(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c.render()}) |{s.render()}>"
                          for s, c in sorted(self.terms.items()))


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


def shift_operator(n, vector):
    """sum_j :psi_j psi*_{j+n}: for n >= 1 (the q_n-component of K)."""
    result = {}
    for state, c in vector.terms.items():
        sources = list(state.added)
        sources += [m for m in range(0, min(state.removed, default=1) - 1 - n, -1)
                    if m not in state.removed]
        for src in sources:
            dst = src - n
            if not state.occupied(dst):
                add_into(result, *_flip(*_flip(state, c, src), dst))
    return FermionVector(result)


def apply_K(vector):
    """K(q) = sum_{n >= 1} (q_n / n) sum_j :psi_j psi*_{j+n}:.

    Strictly lowers the energy grading, so repeated application terminates.
    """
    result = FermionVector.zero()
    for state, c in vector.terms.items():
        ceiling = state.energy() - _min_energy(state.charge)
        single = FermionVector.basis(state, c)
        for n in range(1, ceiling + 1):
            moved = shift_operator(n, single)
            if moved:
                result = result + moved * (FockPolynomial.variable(n) * Fraction(1, n))
    return result


def _min_energy(charge):
    # lowest energy in the charge sector: slots packed against the Dirac sea
    # (charge +c adds slots 1..c, charge -c vacates slots 0, -1, ..., 1-c)
    if charge >= 0:
        return charge * (charge + 1) // 2
    return -charge * (-charge - 1) // 2


def exp_K(vector, inverse=False):
    """e^{K(q)} (or e^{-K(q)}) applied by the finite nilpotent expansion."""
    total = vector
    power = vector
    order = 0
    while power:
        order += 1
        power = apply_K(power)
        if inverse and order % 2:
            total = total - power * Fraction(1, factorial(order))
        else:
            total = total + power * Fraction(1, factorial(order))
    return total


def boson_fermion_map(vector):
    """Phi(xi |0>) = <0| e^{K(q)} xi |0>: the vacuum coefficient of the
    exponentiated shift action, a polynomial in q."""
    return exp_K(vector).coefficient(VACUUM)


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
    """Verify e^{K} psi_k e^{-K} = sum_{m >= 0} h_m(q) psi_{k-m} (and the
    psi* version with h_m(-q)) on every charge-zero state of energy <= E.

    Both sides are finite: the conjugated side because K is energy-lowering,
    the h-side because psi_{k-m} hits an occupied Dirac-sea slot for large m.
    """
    from .partitions import partitions_upto
    k = Fraction(k)
    m_slot = _to_m(k)
    for lam in partitions_upto(max_energy):
        state = state_for_partition_label(lam)
        base = FermionVector.basis(state)
        conjugated = exp_K(base, inverse=True)
        # psi_{k-m} is nonzero only while its slot can be unoccupied, down to
        # the lowest vacated Dirac-sea slot; psi*_{k+m} only up to the
        # highest occupied slot
        floor = min(state.removed, default=1)
        top = max(state.added, default=0)
        for op, step, shifts, q_sign in (
                (psi, -1, max(0, m_slot - floor) + 1, 1),
                (psi_star, 1, max(-1, max(top, 0) - m_slot) + 1, -1)):
            rhs = FermionVector.zero()
            for shift in range(shifts):
                moved = op(k + step * shift, base)
                if moved:
                    h = complete_homogeneous(shift).map_variables(q_sign)
                    rhs = rhs + moved * h
            if exp_K(op(k, conjugated)) != rhs:
                return False
    return True


def fermionic_hamiltonian_eigenvalue_series(partition, order):
    """z-series of e^{z u0} (z * eig_O(lambda) + 1/s(z)) at hbar = 1: the
    fermionic form of the Hamiltonian acting on |lambda>.

    Agreement with the bosonic eigenvalue series at eps = 1 is the
    independent wedge-side check of the eigenbasis theorem.
    """
    inner = inv_s_series(order).coeffs
    for e, c in diagonal_operator_eigenvalue(partition).items():
        # t * e^{t e} contributes c * e^(n-1) t^n / (n-1)!
        for n in range(1, order + 1):
            inner[n] += c * Fraction(e) ** (n - 1) / factorial(n - 1)
    g = UnivariateSeries(inner)
    return [lift(g, 0, n - 2).substitute(eps=1) for n in range(order + 1)]
