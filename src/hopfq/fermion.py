"""Charge-graded fermionic Fock space as a semi-infinite wedge.

Half-integer mode indices k are stored through m = k + 1/2 (an integer); the
vacuum occupies every m <= 0.  A wedge state is its charge and one Maya
bitmask: bit i stands for slot f + i, where f is the lowest free slot and
every slot below f is occupied, so bit 0 is always clear and each state has
exactly one form.  Charge-zero states are in bijection with partitions
(Maya diagrams), and the whole module serves as an independent oracle for
the Schur eigenbasis.  Every coefficient is an integer or a rational, and
every sign is the parity of one popcount of the mask: of the occupied slots
above a toggled slot (`_flip`), or of those between the two slots of a move
(`alpha`):

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
identities replace, is kept in the tests as their oracle, on a wedge of
sorted slot tuples that shares no move or sign code with this one.
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
    """Occupied slots = {m < f} union {f + i : bit i of mask}, where
    f = charge + 1 - popcount(mask) is the lowest free slot."""

    charge: int
    mask: int   # bit 0 clear

    @property
    def floor(self):
        return self.charge + 1 - self.mask.bit_count()

    def energy(self):
        """Sum of the occupied slots >= 1 less that of the vacated ones <= 0:
        the mask's slots less those of the vacuum from f on, f(f - 1)/2."""
        f = self.floor
        return f * (f - 1) // 2 + sum(
            f + i for i in range(self.mask.bit_length()) if self.mask >> i & 1)

    def occupied(self, m):
        f = self.floor
        return m < f or self.mask >> (m - f) & 1 == 1


def _state(charge, mask):
    """The state of this charge and mask, the mask's trailing ones (occupied
    slots just above the sea) stripped into the sea."""
    return WedgeState(charge, mask >> ((~mask & (mask + 1)).bit_length() - 1))


VACUUM = WedgeState(0, 0)


def state_for_partition_label(partition):
    """The wedge state whose Maya diagram is the given partition: row i of l
    occupies slot lambda_i - i + 1, bit lambda_i + l - i above the lowest
    free slot 1 - l."""
    rows = len(partition)
    return WedgeState(0, sum(1 << (part + rows - i)
                             for i, part in enumerate(partition, 1)))


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


def _flip(state, coeff, m):
    """The term coeff |state> with slot m toggled: (new state, coefficient),
    the sign (-1)^(number of occupied slots above m) carried by the
    coefficient."""
    f, mask = state.floor, state.mask
    if m < f:   # pad the sea slots m..f-1 into the mask
        mask, f = (mask << (f - m)) | ((1 << (f - m)) - 1), m
    mask ^= 1 << (m - f)
    odd = (mask >> (m - f + 1)).bit_count() % 2
    return _state(f - 1 + mask.bit_count(), mask), -coeff if odd else coeff


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
    charge, mask = state
    if n < 0:   # pad -n sea slots, the only ones that can rise to a free slot
        mask = (mask << -n) | ((1 << -n) - 1)
        movable = mask & ~(mask >> -n)
    else:       # no bead below bit n may sink into the sea
        movable = mask & ~(mask << n) & -(1 << n)
    gap, terms = (1 << (abs(n) - 1)) - 1, {}
    while movable:
        bead = movable & -movable
        movable ^= bead
        m = bead.bit_length() - 1
        between = (mask >> (min(m, m - n) + 1) & gap).bit_count()
        terms[_state(charge, mask ^ bead ^ (1 << (m - n)))] = (-1) ** between
    return terms


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
    f, counts = state.floor, {}
    for m in range(f, f + state.mask.bit_length()):
        # occupied positive slots: +e^{kz}; vacated sea slots: -e^{kz}
        if state.occupied(m) != (m <= 0):
            add_into(counts, _to_k(m), 1 if m > 0 else -1)
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
    floor = min(state.floor for state in swept)
    top = max(state.floor + state.mask.bit_length() - 1 for state in swept)
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
