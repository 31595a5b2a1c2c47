"""Bosonic Fock space C[q1, q2, ...] with grading deg q_i = i, and normally
ordered operators sum c * q^alpha p^beta with p_k = hbar k d/dq_k (hbar = eps^2).

Monomials (multi-indices) are sparse tuples of (variable index, multiplicity)
pairs sorted by index; the canonical term order is (weight, alpha, beta) so
every rendering and dump is reproducible byte-for-byte.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, prod

from .partitions import partitions_of
from .scalars import ExactScalar, SparseSum, add_into

# ---------------------------------------------------------------------------
# sparse multi-indices

EMPTY = ()


def mono_from_partition(partition):
    """Partition (3,2,2) -> multi-index ((2,2),(3,1)): q_2^2 q_3."""
    counts = {}
    for p in partition:
        counts[p] = counts.get(p, 0) + 1
    return tuple(sorted(counts.items()))


def mono_weight(mono):
    return sum(k * m for k, m in mono)


def mono_degree(mono):
    """Number of variable factors counted with multiplicity."""
    return sum(m for _, m in mono)


def mono_mul(a, b):
    counts = dict(a)
    for k, m in b:
        counts[k] = counts.get(k, 0) + m
    return tuple(sorted(counts.items()))


def mono_sub(a, b):
    """a - b as multi-indices, or None if b is not contained in a."""
    counts = dict(a)
    for k, m in b:
        have = counts.get(k, 0)
        if have < m:
            return None
        if have == m:
            del counts[k]
        else:
            counts[k] = have - m
    return tuple(sorted(counts.items()))


def render_mono(mono, letter="q"):
    if not mono:
        return "1"
    return " ".join(f"{letter}{k}" + (f"^{m}" if m > 1 else "")
                    for k, m in mono)


# ---------------------------------------------------------------------------


class FockPolynomial(SparseSum):
    """Sparse polynomial in q1, q2, ... with ExactScalar coefficients."""

    __slots__ = ()

    @classmethod
    def one(cls):
        return cls.constant(ExactScalar.one())

    @classmethod
    def constant(cls, scalar):
        if isinstance(scalar, (int, Fraction)):
            scalar = ExactScalar.from_rational(scalar)
        if scalar.is_zero():
            return cls()
        return cls({EMPTY: scalar})

    @classmethod
    def variable(cls, k, power=1):
        return cls({((k, power),): ExactScalar.one()})

    @classmethod
    def monomial(cls, mono, coeff=None):
        coeff = ExactScalar.one() if coeff is None else coeff
        if isinstance(coeff, (int, Fraction)):
            coeff = ExactScalar.from_rational(coeff)
        if coeff.is_zero():
            return cls()
        return cls({tuple(mono): coeff})

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), ExactScalar.zero())

    def __mul__(self, other):
        """Ring product, or scaling by an ExactScalar or a rational."""
        if isinstance(other, FockPolynomial):
            return self.product(other, mono_mul)
        return self.scaled(other)

    __rmul__ = __mul__

    def map_variables(self, scalar_per_factor):
        """Multiply the coefficient of every monomial by s^degree; implements
        uniform substitutions q_k -> s * q_k (e.g. s = -1 or s = 1/eps)."""
        if isinstance(scalar_per_factor, (int, Fraction)):
            scalar_per_factor = ExactScalar.from_rational(scalar_per_factor)
        return self.remap(
            lambda m, c: (m, c * scalar_per_factor ** mono_degree(m)))

    def is_homogeneous(self, w=None):
        weights = {mono_weight(m) for m in self.terms}
        return len(weights) <= 1 and (w is None or weights <= {w})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (mono_weight(t[0]), t[0]))

    def render(self, letter="q"):
        if not self.terms:
            return "0"
        return " + ".join(f"({c.render()}) {render_mono(m, letter)}"
                          for m, c in self.sorted_terms())

    def __repr__(self):
        return f"FockPolynomial({self.render()})"


# ---------------------------------------------------------------------------


def _lowering_factor(rest, beta):
    """p^beta q^(rest + beta) = factor * q^rest at eps = 1."""
    have = dict(rest)
    factor = 1
    for k, b in beta:
        m = have.get(k, 0)
        factor *= k ** b * factorial(m + b) // factorial(m)
    return factor


class NormalOrderedOperator(SparseSum):
    """Normally ordered operator: sparse map (alpha, beta) -> ExactScalar.

    A term (alpha, beta, c) acts on f as c * q^alpha * prod_k (hbar k d/dq_k)^beta_k f.
    """

    __slots__ = ()

    @classmethod
    def identity(cls, coeff=None):
        coeff = ExactScalar.one() if coeff is None else coeff
        return cls.term(EMPTY, EMPTY, coeff)

    @classmethod
    def term(cls, alpha, beta, coeff=None):
        coeff = ExactScalar.one() if coeff is None else coeff
        if isinstance(coeff, (int, Fraction)):
            coeff = ExactScalar.from_rational(coeff)
        if coeff.is_zero():
            return cls()
        return cls({(tuple(alpha), tuple(beta)): coeff})

    def coefficient(self, alpha, beta):
        return self.terms.get((tuple(alpha), tuple(beta)), ExactScalar.zero())

    __mul__ = __rmul__ = SparseSum.scaled

    def transpose(self):
        """Swap creation and annihilation multi-indices in every term."""
        return self.remap(lambda key, c: (key[::-1], c))

    def restrict_weight(self, max_weight):
        return NormalOrderedOperator({
            (a, b): c for (a, b), c in self.terms.items()
            if mono_weight(a) <= max_weight and mono_weight(b) <= max_weight})

    # -- action -----------------------------------------------------------

    def apply(self, f):
        """Linear action on a FockPolynomial: annihilation part first."""
        result = {}
        for (alpha, beta), c in self.terms.items():
            for mono, cm in f.terms.items():
                rest = mono_sub(mono, beta)
                if rest is None:
                    continue
                coeff = c * cm * ExactScalar.monomial(
                    _lowering_factor(rest, beta),
                    eps_power=2 * mono_degree(beta))
                add_into(result, mono_mul(rest, alpha), coeff)
        return FockPolynomial(result)

    def compose(self, other, max_weight=None):
        """Normally ordered product self . other, by Wick's rule
        p_k^b q_k^a = sum_j j! C(a,j) C(b,j) (hbar k)^j q_k^(a-j) p_k^(b-j).

        For terms (a1, b1, c1) of self and (a2, b2, c2) of other, a
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
        right = [(a2, b2, mono_weight(b2), c2)
                 for (a2, b2), c2 in other.terms.items()]
        for (a1, b1), c1 in self.terms.items():
            b1d, w_b1 = dict(b1), mono_weight(b1)
            for a2, b2, w_b2, c2 in right:
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

    def commutator(self, other, max_weight=None):
        return self.compose(other, max_weight) - other.compose(self, max_weight)

    # -- rendering and serialization --------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: (mono_weight(t[0][0]), t[0][0], t[0][1]))

    def render(self):
        if not self.terms:
            return "0"
        out = []
        for (alpha, beta), c in self.sorted_terms():
            factors = []
            if alpha:
                factors.append(render_mono(alpha, "q"))
            if beta:
                factors.append(render_mono(beta, "p"))
            if not factors:
                factors.append("Id")
            out.append(f"({c.render()}) " + " ".join(factors))
        return " + ".join(out)

    def __repr__(self):
        return f"NormalOrderedOperator({self.render()})"

    def to_json(self):
        return [{"alpha": [list(km) for km in alpha],
                 "beta": [list(km) for km in beta], "coeff": c.to_json()}
                for (alpha, beta), c in self.sorted_terms()]


# ---------------------------------------------------------------------------


def naive_hamiltonian(n, max_weight):
    """Normally ordered multinomial expansion of (1/2pi) int u^(n+2)/(n+2)! dx
    with u = u0 + sum_k (q_k e^(ikx) + p_k e^(-ikx)).

    The x-integral keeps exactly the terms with equal creation and
    annihilation weight; a term (alpha, beta) with m = n+2-|alpha|-|beta|
    residual u0 factors carries u0^m / (m! prod alpha_k! beta_k!).
    """
    if n < -1:
        raise ValueError("n must be >= -1")
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    order = n + 2
    result = {}
    for w in range(max_weight + 1):
        for ap in partitions_of(w):
            if len(ap) > order:
                continue
            for bp in partitions_of(w):
                m = order - len(ap) - len(bp)
                if m < 0:
                    continue
                alpha = mono_from_partition(ap)
                beta = mono_from_partition(bp)
                denom = factorial(m)
                for _, mult in alpha:
                    denom *= factorial(mult)
                for _, mult in beta:
                    denom *= factorial(mult)
                result[(alpha, beta)] = ExactScalar.monomial(
                    Fraction(1, denom), u0_power=m)
    return NormalOrderedOperator(result)


def weight_basis(n):
    """Monomial basis of V_n: partitions of n in rev-lex order."""
    return [mono_from_partition(p) for p in partitions_of(n)]
