"""Oracles the tests compare `hopfq` with: closed forms, brute-force counts
and second routes that the `hopfq` CLI never runs, each sharing no code
path with what it checks.  Oracles that a single test module uses live in
that module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import NamedTuple

from hopfq.fermion import (VACUUM, FermionVector, WedgeState, _to_k, psi,
                           psi_star, state_for_partition_label)
from hopfq.fock import (EMPTY, FockPolynomial, NormalOrderedOperator,
                        mono_mul, mono_sub, mono_weight)
from hopfq.hamiltonians import _content_shifts, _exponentials
from hopfq.partitions import partitions_of, partitions_upto, size, transpose
from hopfq.scalars import (ExactScalar, add_into, bernoulli,
                           eigenvalue_inner_series, lift)
from hopfq.schur import character, complete_homogeneous, schur

# ---------------------------------------------------------------------------
# partitions: Frobenius coordinates and a brute-force tableau count

SYT_BOUND = 12


class Frobenius(NamedTuple):
    alpha: tuple
    beta: tuple


def frobenius(partition):
    """Frobenius coordinates alpha_i = lambda_i - i, beta_i = lambda'_i - i
    along the diagonal d = max{i : lambda_i >= i}."""
    conj = transpose(partition)
    d = sum(1 for i, p in enumerate(partition, start=1) if p >= i)
    alpha = tuple(partition[i - 1] - i for i in range(1, d + 1))
    beta = tuple(conj[i - 1] - i for i in range(1, d + 1))
    return Frobenius(alpha, beta)


def b_sign_exponent(partition):
    """sum_i beta_i over the Frobenius beta coordinates.

    (-1) to this exponent is the sign relating the fermionic creation-string
    state of a partition to its Schur polynomial image.
    """
    return sum(frobenius(partition).beta)


def syt_count(partition, bound=SYT_BOUND):
    """Number of standard Young tableaux by backtracking enumeration.

    Independent of the hook formula; refuses partitions larger than `bound`.
    """
    n = size(partition)
    if n > bound:
        raise ValueError(f"|partition| = {n} exceeds the enumeration bound {bound}")
    if n == 0:
        return 1
    rows = len(partition)

    def extend(filled):
        # filled[i] = number of entries already placed in row i
        if sum(filled) == n:
            return 1
        total = 0
        for i in range(rows):
            if filled[i] < partition[i] and (i == 0 or filled[i - 1] > filled[i]):
                filled[i] += 1
                total += extend(filled)
                filled[i] -= 1
        return total

    return extend([0] * rows)


# ---------------------------------------------------------------------------
# Fock space: coefficients, single terms and the Wick product


def coefficient(x, *key):
    """The coefficient of a FockPolynomial at the monomial key[0], or of a
    NormalOrderedOperator at the term key = (alpha, beta); zero if absent."""
    key = tuple(map(tuple, key))
    return x.terms.get(key[0] if len(key) == 1 else key, ExactScalar.zero())


def is_homogeneous(poly, w=None):
    weights = {mono_weight(m) for m in poly.terms}
    return len(weights) <= 1 and (w is None or weights <= {w})


def term(alpha, beta, coeff=None):
    """The operator coeff q^alpha p^beta (coeff 1 by default)."""
    coeff = ExactScalar.one() if coeff is None else coeff
    if isinstance(coeff, (int, Fraction)):
        coeff = ExactScalar.from_rational(coeff)
    if coeff.is_zero():
        return NormalOrderedOperator()
    return NormalOrderedOperator({(tuple(alpha), tuple(beta)): coeff})


def identity(coeff=None):
    return term(EMPTY, EMPTY, coeff)


def restrict_weight(op, max_weight):
    return NormalOrderedOperator({
        (a, b): c for (a, b), c in op.terms.items()
        if mono_weight(a) <= max_weight and mono_weight(b) <= max_weight})


def compose(left, right, max_weight=None):
    """Normally ordered product left . right, by Wick's rule
    p_k^b q_k^a = sum_j j! C(a,j) C(b,j) (hbar k)^j q_k^(a-j) p_k^(b-j).

    For terms (a1, b1, c1) of left and (a2, b2, c2) of right, a
    contraction pattern gamma = {(k, j_k)} picks j_k in 0..min(a, b) for
    each mode k in both b1 and a2, a = a2[k], b = b1[k], and adds
    c1 c2 prod_k j_k! C(a, j_k) C(b, j_k) k^j_k eps^(2|gamma|) to
    q^(a1 + a2 - gamma) p^(b1 - gamma + b2).

    apply(compose(A, B), f) == apply(A, apply(B, f)) for every f the
    truncation admits: given max_weight, terms of annihilation weight
    above it are dropped (they kill every polynomial of weight <=
    max_weight), as are pairs whose full contraction leaves more.
    """
    result = {}
    others = [(a2, b2, mono_weight(b2), c2)
              for (a2, b2), c2 in right.terms.items()]
    for (a1, b1), c1 in left.terms.items():
        b1d, w_b1 = dict(b1), mono_weight(b1)
        for a2, b2, w_b2, c2 in others:
            shared = [(k, a, b1d[k]) for k, a in a2 if k in b1d]
            if max_weight is not None and w_b1 + w_b2 - sum(
                    k * min(a, b) for k, a, b in shared) > max_weight:
                continue
            base = c1 * c2
            for js in itertools.product(
                    *(range(min(a, b) + 1) for _, a, b in shared)):
                gamma = [(k, j) for (k, _, _), j in zip(shared, js) if j]
                beta = mono_mul(mono_sub(b1, gamma), b2)
                if max_weight is not None and mono_weight(beta) > max_weight:
                    continue
                weight = prod(factorial(j) * comb(a, j) * comb(b, j) * k ** j
                              for (k, a, b), j in zip(shared, js))
                add_into(result, (mono_mul(a1, mono_sub(a2, gamma)), beta),
                         base * ExactScalar.monomial(weight, 2 * sum(js))
                         if gamma else base)
    return NormalOrderedOperator(result)


def commutator(left, right, max_weight=None):
    return (compose(left, right, max_weight)
            - compose(right, left, max_weight))


# ---------------------------------------------------------------------------
# Schur polynomials: the transpose sign and Schur coefficients


def verify_transpose_sign(partition):
    """Check s_{lambda'}(q) == (-1)^|lambda| s_lambda(-q) exactly."""
    n = size(partition)
    flipped = schur(partition).map_variables(-1)
    if n % 2:
        flipped = -flipped
    return schur(transpose(partition)) == flipped


def expand_in_schur_basis(poly, n):
    """Coefficients of a weight-n homogeneous polynomial in {s_lambda}:
    for poly = sum_mu c_mu q^mu, the map lambda -> sum_mu chi^lambda(mu) c_mu
    over the partitions lambda of n.  The c_mu must be rational; the
    values are Fractions.
    """
    if not is_homogeneous(poly, n):
        raise ValueError("polynomial is not homogeneous of the stated weight")
    values = [(tuple(k for k, m in reversed(mono) for _ in range(m)),
               c.as_fraction()) for mono, c in poly.terms.items()]
    return {lam: sum((c * character(lam, mu) for mu, c in values),
                     Fraction(0))
            for lam in partitions_of(n)}


def power_of_q1_expansion(n):
    """Schur coefficients of q_1^n; equals dim(lambda) for every |lambda| = n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    poly = FockPolynomial.monomial(((1, n),) if n else ())
    return {lam: int(c) for lam, c in expand_in_schur_basis(poly, n).items()
            if c}


# ---------------------------------------------------------------------------
# eigenvalues: the Bernoulli-sum closed forms


@lru_cache(maxsize=None)
def vacuum_constant(k):
    """c_k(u0, hbar) = -(1/(k+2)!) sum_j C(k+2, j) (1 - 2^(1-j)) B_j eps^j u0^(k+2-j).

    Shared by every E_k(lambda); callers never mutate it."""
    if k < -1:
        raise ValueError("k must be >= -1")
    acc = ExactScalar.zero()
    for j in range(k + 3):
        c = Fraction(comb(k + 2, j)) * (1 - Fraction(2) ** (1 - j)) * bernoulli(j)
        if c:
            acc = acc + ExactScalar.monomial(-c / factorial(k + 2), j, k + 2 - j)
    return acc


def _frobenius_shifts(partition):
    """Pairs (alpha_i + 1/2, -(beta_i + 1/2)) over the Frobenius coordinates."""
    coords = frobenius(tuple(partition))
    return [(Fraction(2 * alpha_i + 1, 2), -Fraction(2 * beta_i + 1, 2))
            for alpha_i, beta_i in zip(coords.alpha, coords.beta)]


def _eigenvalue(k, shifts):
    """c_k + eps sum ([u0 + eps a]^{k+1} - [u0 + eps b]^{k+1}) / (k+1)! over
    the pairs (a, b) in `shifts`."""
    acc = vacuum_constant(k)  # raises for k < -1
    inv_fact = Fraction(1, factorial(k + 1))
    for a, b in shifts:
        for j in range(k + 2):
            c = comb(k + 1, j) * (a ** j - b ** j) * inv_fact
            if c:
                acc = acc + ExactScalar.monomial(c, j + 1, k + 1 - j)
    return acc


def eigenvalue_closed_form(k, partition):
    """E_k = c_k + eps sum_i ([u0 + eps a_i]^{k+1} - [u0 + eps b_i]^{k+1}) / (k+1)!,
    with (a_i, b_i) the content shifts of the rows."""
    return _eigenvalue(k, _content_shifts(partition))


def eigenvalue_frobenius_form(k, partition):
    """Same eigenvalue from Frobenius coordinates:
    E_k = c_k + eps sum_i ([u0 + eps(alpha_i + 1/2)]^{k+1}
                           - [u0 - eps(beta_i + 1/2)]^{k+1}) / (k+1)!."""
    return _eigenvalue(k, _frobenius_shifts(partition))


def exponential_frobenius_form(partition):
    """Multiset of (sign, exponent) for sum_i [e^{z(alpha_i + 1/2)} -
    e^{-z(beta_i + 1/2)}]."""
    return _exponentials(_frobenius_shifts(partition))


# ---------------------------------------------------------------------------
# the wedge: creation strings and the diagonal operator on hopfq.fermion


def state_of_partition(partition):
    """|lambda> = psi_{alpha_1 + 1/2} ... psi_{alpha_d + 1/2}
    psi*_{-beta_d - 1/2} ... psi*_{-beta_1 - 1/2} |0>, built by applying the
    creation string right-to-left to the vacuum."""
    coords = frobenius(tuple(partition))
    vec = FermionVector.basis(VACUUM)
    for beta_i in coords.beta:
        vec = psi_star(-Fraction(2 * beta_i + 1, 2), vec)
    for alpha_i in reversed(coords.alpha):
        vec = psi(Fraction(2 * alpha_i + 1, 2), vec)
    return vec


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


def fermionic_hamiltonian_eigenvalue_series(partition, order):
    """z-series of e^{z u0} (z * eig_O(lambda) + 1/s(z)) at hbar = 1: the
    fermionic form of the Hamiltonian acting on |lambda>.

    Agreement with the bosonic eigenvalue series at eps = 1 is the
    independent wedge-side check of the eigenbasis theorem.
    """
    g = eigenvalue_inner_series(diagonal_operator_eigenvalue(partition),
                                order)
    return [lift(g, 0, n - 2).substitute(eps=1) for n in range(order + 1)]


# ---------------------------------------------------------------------------
# the wedge on two sorted slot tuples, sharing no move or sign code with
# the bitmask wedge of hopfq.fermion; states cross over by their slots


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


def energy(state):
    """The energy of a WedgeState, read on its TupleWedge."""
    return to_tuples(state).energy()


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


# ---------------------------------------------------------------------------
# e^{K(q)} expanded on wedge states with FockPolynomial coefficients


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
        for n in range(1, energy(state) - _min_energy(state.charge) + 1):
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


def boson_fermion_map(vector):
    """Phi(v) = <0| e^{K(q)} v with K = sum_{n >= 1} q_n alpha_n / n, a
    polynomial in q, from the expansion of e^{K(q)}."""
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
