"""Commuting quantum Hamiltonians of the quantized Hopf hierarchy.

The generating operator series is

    e^{z u0} / s(eps z) * sum_{(alpha, beta): wt(alpha) = wt(beta)}
        prod_k [z s(eps z k)]^{alpha_k + beta_k} / (alpha_k! beta_k!) q^alpha p^beta,

obtained by pushing s(i eps z d/dx) through the Fourier modes (s is even, so
it acts on e^{+-ikx} as the scalar s(eps z k)) and performing the x-integral
combinatorially.  H_n is the coefficient of z^(n+2).  Closed-form eigenvalues
on the scaled Schur basis come with both the z-series and the Bernoulli-sum
expression, which must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .fock import (FockPolynomial, NormalOrderedOperator, mono_from_partition,
                   weight_basis)
from .partitions import frobenius, partitions_of, partitions_upto
from .scalars import (ExactScalar, add_into, bernoulli, exp_u0_series,
                      inv_s_series, s_series, series_mul)

# ---------------------------------------------------------------------------
# z-series helpers (lists of ExactScalar, index = power of z)


def _exp_eps_series(a, order):
    """e^{z eps a} for rational a."""
    a = Fraction(a)
    return [ExactScalar.monomial(a ** n / factorial(n), n)
            for n in range(order + 1)]


def _inv_s_eps_series(order):
    """1/s(eps z) as a z-series over ExactScalar."""
    inv = inv_s_series(order)
    return [ExactScalar.monomial(inv[n], n) for n in range(order + 1)]


@lru_cache(maxsize=None)
def _s_power_coeffs(power, order):
    return tuple((s_series(order) ** power).coeffs)


def _zs_power_series(k, power, order):
    """[z s(eps z k)]^power as a z-series (z-offset included)."""
    coeffs = _s_power_coeffs(power, max(order - power, 0))
    out = [ExactScalar.zero()] * (order + 1)
    for j, c in enumerate(coeffs):
        if c and power + j <= order:
            out[power + j] = ExactScalar.monomial(c * Fraction(k) ** j, j)
    return out


@lru_cache(maxsize=None)
def _vacuum_series(order):
    """e^{z u0} / s(eps z)."""
    return tuple(series_mul(exp_u0_series(order), _inv_s_eps_series(order), order))


# ---------------------------------------------------------------------------


def hamiltonian_generating_coefficients(K, max_weight):
    """The operators H_n for n = -1 .. K, truncated to terms of creation
    weight <= max_weight.  Returned as a list indexed by n + 1."""
    if K < -1:
        raise ValueError("K must be >= -1")
    order = K + 2
    ops = [{} for _ in range(K + 2)]  # ops[n + 1] accumulates H_n
    vacuum = list(_vacuum_series(order))
    for w in range(max_weight + 1):
        for ap in partitions_of(w):
            for bp in partitions_of(w):
                degree = len(ap) + len(bp)
                if degree > order:
                    continue
                alpha = mono_from_partition(ap)
                beta = mono_from_partition(bp)
                series = vacuum
                denom = 1
                counts = {}
                for k, m in alpha:
                    counts[k] = counts.get(k, 0) + m
                    denom *= factorial(m)
                for k, m in beta:
                    counts[k] = counts.get(k, 0) + m
                    denom *= factorial(m)
                for k, m in sorted(counts.items()):
                    series = series_mul(series, _zs_power_series(k, m, order), order)
                scale = Fraction(1, denom)
                for n in range(-1, K + 1):
                    coeff = series[n + 2] * scale
                    if not coeff.is_zero():
                        ops[n + 1][(alpha, beta)] = coeff
    return [NormalOrderedOperator(terms) for terms in ops]


def hamiltonian(n, max_weight):
    """The single commuting Hamiltonian H_n."""
    return hamiltonian_generating_coefficients(n, max_weight)[n + 1]


def cut_and_join(max_weight):
    """(1/2) sum_{i,j} (hbar (i+j) q_i q_j d_{i+j} + hbar^2 i j q_{i+j} d_i d_j),
    written normally ordered; equals H_1 at u0 = 0."""
    terms = {}
    for i in range(1, max_weight):
        for j in range(i, max_weight - i + 1):
            half = Fraction(1, 2) if i == j else Fraction(1)
            alpha = mono_from_partition(tuple(sorted((i, j), reverse=True)))
            single = ((i + j, 1),)
            terms[(alpha, single)] = ExactScalar.from_rational(half)
            terms[(single, alpha)] = ExactScalar.from_rational(half)
    return NormalOrderedOperator(terms)


# ---------------------------------------------------------------------------
# eigenvalues


@dataclass(frozen=True)
class EigenvalueSeries:
    """Taylor coefficients E_n for n = -1 .. K of the eigenvalue series
    E(z) = 1 + sum_{n >= -1} E_n z^{n+2}."""

    partition: tuple
    coefficients: tuple  # index n + 1 -> ExactScalar

    def __getitem__(self, n):
        return self.coefficients[n + 1]

    @property
    def K(self):
        return len(self.coefficients) - 2


def _content_shifts(partition):
    """Pairs (a_i, b_i) = (lambda_i - i + 1/2, -i + 1/2) over the rows."""
    return [(Fraction(2 * (partition[i - 1] - i) + 1, 2), Fraction(1 - 2 * i, 2))
            for i in range(1, len(partition) + 1)]


def eigenvalue_series(partition, K):
    """E_n from the finite rewriting
    E(z) = e^{z u0} [1/s(eps z) + eps z sum_i (e^{z eps a_i} - e^{z eps b_i})]
    (the infinite geometric tail is absorbed into 1/s)."""
    if K < -1:
        raise ValueError("K must be >= -1")
    order = K + 2
    inner = _inv_s_eps_series(order)
    for a, b in _content_shifts(partition):
        delta = [ca - cb for ca, cb in zip(_exp_eps_series(a, order),
                                           _exp_eps_series(b, order))]
        # multiply by eps * z: shift by one power of z and one power of eps
        shifted = [ExactScalar.zero()] + [c.shift_eps(1) for c in delta[:order]]
        inner = [x + y for x, y in zip(inner, shifted)]
    series = series_mul(exp_u0_series(order), inner, order)
    assert series[0] == ExactScalar.one()
    return EigenvalueSeries(tuple(partition), tuple(series[1:]))


def vacuum_constant(k):
    """c_k(u0, hbar) = -(1/(k+2)!) sum_j C(k+2, j) (1 - 2^(1-j)) B_j eps^j u0^(k+2-j)."""
    if k < -1:
        raise ValueError("k must be >= -1")
    acc = ExactScalar.zero()
    for j in range(k + 3):
        c = Fraction(comb(k + 2, j)) * (1 - Fraction(2) ** (1 - j)) * bernoulli(j)
        if c:
            acc = acc + ExactScalar.monomial(-c / factorial(k + 2), j, k + 2 - j)
    return acc


def eigenvalue_closed_form(k, partition):
    """E_k = c_k + eps sum_i ([u0 + eps a_i]^{k+1} - [u0 + eps b_i]^{k+1}) / (k+1)!."""
    if k < -1:
        raise ValueError("k must be >= -1")
    acc = vacuum_constant(k)
    inv_fact = Fraction(1, factorial(k + 1))
    for a, b in _content_shifts(partition):
        for j in range(k + 2):
            c = comb(k + 1, j) * (a ** j - b ** j) * inv_fact
            if c:
                acc = acc + ExactScalar.monomial(c, j + 1, k + 1 - j)
    return acc


def eigenvalue_frobenius_form(k, partition):
    """Same eigenvalue from Frobenius coordinates:
    E_k = c_k + eps sum_i ([u0 + eps(alpha_i + 1/2)]^{k+1}
                           - [u0 - eps(beta_i + 1/2)]^{k+1}) / (k+1)!."""
    acc = vacuum_constant(k)
    coords = frobenius(tuple(partition))
    inv_fact = Fraction(1, factorial(k + 1))
    for alpha_i, beta_i in zip(coords.alpha, coords.beta):
        a = Fraction(2 * alpha_i + 1, 2)
        b = -Fraction(2 * beta_i + 1, 2)
        for j in range(k + 2):
            c = comb(k + 1, j) * (a ** j - b ** j) * inv_fact
            if c:
                acc = acc + ExactScalar.monomial(c, j + 1, k + 1 - j)
    return acc


def exponential_row_form(partition):
    """Multiset of (sign, exponent) for sum_i [e^{z(lambda_i - i + 1/2)} -
    e^{z(-i + 1/2)}], canonicalized."""
    counts = {}
    for a, b in _content_shifts(partition):
        add_into(counts, a, 1)
        add_into(counts, b, -1)
    return counts


def exponential_frobenius_form(partition):
    """Multiset of (sign, exponent) for sum_i [e^{z(alpha_i + 1/2)} -
    e^{-z(beta_i + 1/2)}]."""
    counts = {}
    coords = frobenius(tuple(partition))
    for alpha_i, beta_i in zip(coords.alpha, coords.beta):
        a = Fraction(2 * alpha_i + 1, 2)
        b = -Fraction(2 * beta_i + 1, 2)
        add_into(counts, a, 1)
        add_into(counts, b, -1)
    return counts


# ---------------------------------------------------------------------------
# verification sweeps


def verify_commutativity(N, W, operators=None):
    """Check [H_n, H_m] = 0 exactly on every monomial of weight <= W for
    -1 <= n < m <= N, with symbolic u0 and eps.

    Works weight by weight: images of the monomial basis of V_w under each
    H are computed once, then both composition orders are compared on every
    basis monomial (the operators preserve the grading, so this is the exact
    action on all monomials of weight <= W).
    """
    if operators is None:
        operators = hamiltonian_generating_coefficients(N, W)
    failures = []
    for w in range(W + 1):
        basis = weight_basis(w)
        images = [{m: op.apply(FockPolynomial.monomial(m)) for m in basis}
                  for op in operators]
        for n_idx in range(len(operators)):
            for m_idx in range(n_idx + 1, len(operators)):
                for mono in basis:
                    left = _apply_images(images[n_idx], images[m_idx][mono])
                    right = _apply_images(images[m_idx], images[n_idx][mono])
                    if left != right:
                        failures.append({
                            "n": n_idx - 1, "m": m_idx - 1,
                            "monomial": list(mono),
                            "difference": (left - right).render()})
    return {"pairs_checked": len(operators) * (len(operators) - 1) // 2,
            "weight_bound": W, "failures": failures}


def _apply_images(images, poly):
    acc = FockPolynomial.zero()
    for mono, c in poly.terms.items():
        acc = acc + images[mono] * c
    return acc


def verify_eigenvectors(K, W, operators=None):
    """Check H_k s_lambda(q/eps) = E_k(lambda) s_lambda(q/eps) exactly for
    all |lambda| <= W and k <= K, with E_k from the closed Bernoulli form."""
    from .schur import scaled_schur
    if operators is None:
        operators = hamiltonian_generating_coefficients(K, W)
    failures = []
    checked = 0
    for lam in partitions_upto(W):
        vec = scaled_schur(lam)
        for k in range(-1, K + 1):
            checked += 1
            expected = vec * eigenvalue_closed_form(k, lam)
            actual = operators[k + 1].apply(vec)
            if actual != expected:
                failures.append({"k": k, "partition": list(lam),
                                 "difference": (actual - expected).render()})
    return {"pairs_checked": checked, "weight_bound": W, "failures": failures}
