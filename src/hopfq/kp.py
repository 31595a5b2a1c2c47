"""Hirota bilinear machinery and exact KP verification.

The disk potential becomes a tau-function after substituting the t-variables.
To keep everything exact, each active exponential e^{t_k/d_k} is replaced by
a formal Laurent variable v_k, where d_k is the common denominator of the
rational exponents E_k/hbar over all partitions in range; the truncated tau
is then a weight-graded polynomial in p_1, p_2, ... whose coefficients are
Laurent polynomials in the v-variables.  Hirota operators, the generating
bilinear identity expanded in y, and the second-log-derivative PDE are all
checked identically in the v-variables.

The tau is built at rational u0 and nonzero rational eps, on `Fraction`
coefficients.  At u0 = 0 with at most t0 active, eps enters it only as
p_k -> p_k eps^{-(k+1)}, and every Hirota polynomial here is homogeneous
for that grading, so eps = 1 decides every eps.  The D-polynomials keep a
symbolic eps; their coefficients meet a tau through `as_fraction()`.  On
f = g, `hirota_apply` uses D^a f.f = 0 for odd |a| and takes each pair of
equal Leibniz terms once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, lcm, perm, prod

from .fock import (FockPolynomial, mono_degree, mono_from_partition,
                   mono_mul, mono_sub, mono_weight, render_mono)
from .partitions import partitions_of
from .scalars import ExactScalar, SparseSum, add_into
from .schur import centralizer_size, character, complete_homogeneous

# ---------------------------------------------------------------------------
# Laurent coefficients in the v-variables


class Laurent(SparseSum):
    """Laurent polynomial in v_0, v_1, ... over Fraction: a sparse map
    exponent tuple -> coefficient.  The tuples of one tau have one entry per
    active t-variable; the product reads a shorter tuple as padded with zero
    exponents.
    """

    __slots__ = ()

    def __mul__(self, other):
        """Ring product with another Laurent, or scaling by a rational."""
        if isinstance(other, Laurent):
            return self.product(other, _add_exponents)
        return self.scaled(other)

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            factors = [f"({c})"]
            factors += [f"v{i}^{p}" for i, p in enumerate(e) if p]
            parts.append(" * ".join(factors))
        return " + ".join(parts)


def _add_exponents(e1, e2):
    """The exponent tuple of a product of two v-monomials."""
    return tuple(map(sum, itertools.zip_longest(e1, e2, fillvalue=0)))


def vl_constant(value):
    return Laurent({(): Fraction(value)} if value else {})


# ---------------------------------------------------------------------------


class TruncatedTau:
    """Weight-truncated series in the p-variables with v-Laurent coefficients.

    `valid_weight` tracks up to which total weight the coefficients are
    complete; operations shrink it accordingly.
    """

    __slots__ = ("terms", "valid_weight", "eps")

    def __init__(self, terms, valid_weight, eps):
        self.terms = terms          # {p-mono: Laurent}
        self.valid_weight = valid_weight
        self.eps = eps              # Fraction

    def copy_meta(self, terms, valid_weight=None):
        return TruncatedTau(terms,
                            self.valid_weight if valid_weight is None
                            else valid_weight, self.eps)

    def truncate(self):
        """Drop monomials above the valid weight."""
        return self.copy_meta({m: c for m, c in self.terms.items()
                               if mono_weight(m) <= self.valid_weight})

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            add_into(terms, m, c)
        return self.copy_meta(terms,
                              min(self.valid_weight, other.valid_weight))

    def __neg__(self):
        return self.copy_meta({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        """Multiply by a rational or a Laurent."""
        if not scalar:
            return self.copy_meta({})
        return self.copy_meta({m: c * scalar for m, c in self.terms.items()})

    def __mul__(self, other):
        valid = min(self.valid_weight, other.valid_weight)
        terms = {}
        for m1, c1 in self.terms.items():
            w1 = mono_weight(m1)
            if w1 > valid:
                continue
            for m2, c2 in other.terms.items():
                if w1 + mono_weight(m2) <= valid:
                    add_into(terms, mono_mul(m1, m2), c1 * c2)
        return self.copy_meta(terms, valid)

    def derivative(self, mono):
        """The partial derivative prod_k (d/dp_k)^{a_k} for the multi-index
        mono = ((k, a_k), ...); the result is complete mono_weight(mono)
        lower."""
        terms = {}
        for m, c in self.terms.items():
            reduced = mono_sub(m, mono)
            if reduced is not None:
                powers = dict(m)
                # m -> reduced is injective, so no two terms meet here
                terms[reduced] = c * prod(perm(powers[k], a) for k, a in mono)
        return self.copy_meta(terms, self.valid_weight - mono_weight(mono))

    def is_zero_to_valid(self):
        return all(not c or mono_weight(m) > self.valid_weight
                   for m, c in self.terms.items())

    def max_residual_term(self):
        for m, c in sorted(self.terms.items(),
                           key=lambda t: (mono_weight(t[0]), t[0])):
            if c and mono_weight(m) <= self.valid_weight:
                return f"{render_mono(m, 'p')}: {c.render()}"
        return None


def tau_from_disk(pot, active_k, u0, eps):
    """Substitute the t-exponentials of the disk potential by v-variables,
    at rational u0 and nonzero rational eps.

    active_k lists which t-variables are kept (the rest are set to zero).
    The term of lambda contributes prefactor(lambda) chi^lambda(mu)
    eps^{-l(mu)} / z_mu to p^mu, with the prefactor read from the stored
    amplitude.
    """
    if u0 is None or eps is None or not eps:
        raise ValueError("the tau is built at rational u0 and nonzero "
                         "rational eps")
    u0, eps = Fraction(u0), Fraction(eps)
    active = sorted(active_k)
    if any(k > pot.K for k in active):
        raise ValueError("active index beyond the potential's K")
    exponents = {lam: [amp.exponents[k].substitute(eps=eps, u0=u0)
                       .as_fraction() for k in active]
                 for lam, amp in pot.amplitudes.items()}
    denominators = [lcm(*(row[i].denominator for row in exponents.values()))
                    for i in range(len(active))]
    terms = {}
    for lam, amp in pot.amplitudes.items():
        vexp = tuple(int(q * d) for q, d in zip(exponents[lam], denominators))
        prefactor = amp.prefactor.substitute(eps=eps, u0=u0).as_fraction()
        for mu in partitions_of(sum(lam)):
            chi = character(lam, mu)
            if chi:
                c = prefactor * chi / (centralizer_size(mu) * eps ** len(mu))
                add_into(terms, mono_from_partition(mu), Laurent({vexp: c}))
    return TruncatedTau(terms, pot.max_weight, eps)


# ---------------------------------------------------------------------------
# Hirota operators (represented as FockPolynomials in symbols D_1, D_2, ...)


def hirota_apply(P, f, g):
    """P(D) f.g with D^a f.g = sum_b prod C(a_k, b_k) (-1)^{|a-b|}
    (d^b f)(d^{a-b} g); valid to min validity minus the top D-weight.

    Each partial d^b f and d^b g is taken once per call, and each product
    only up to the valid weight of the result.  When f is g, D-monomials of
    odd degree are skipped (D^a f.f = 0 for odd |a|), and the equal terms of
    the splits b and a-b are taken once, for b <= a-b, with the coefficient
    doubled when b != a-b.
    """
    valid = min(f.valid_weight, g.valid_weight)
    if P.terms:
        valid -= max(mono_weight(m) for m in P.terms)
    diagonal = f is g
    partials = {}

    def partial(h, b):
        # when f is g the two keys coincide and the partial is shared
        key = (h is f, b)
        if key not in partials:
            partials[key] = h.derivative(b)
        return partials[key]

    terms = {}
    for dmono, coeff in P.terms.items():
        if diagonal and mono_degree(dmono) % 2:
            continue
        top = tuple(a for _, a in dmono)
        coeff = coeff.as_fraction()  # refuses a symbolic eps
        for choice in itertools.product(*(range(a + 1) for a in top)):
            fac = prod(map(comb, top, choice))
            if diagonal:
                complement = tuple(a - c for a, c in zip(top, choice))
                if choice > complement:
                    continue
                if choice < complement:
                    fac *= 2
            b = tuple((k, c) for (k, _), c in zip(dmono, choice) if c)
            rest = tuple((k, a - c) for (k, a), c in zip(dmono, choice)
                         if a > c)
            if mono_degree(rest) % 2:
                fac = -fac
            df = partial(f, b)
            product = df.copy_meta(df.terms, valid) * partial(g, rest)
            scalar = coeff * fac
            for m, c in product.terms.items():
                add_into(terms, m, c * scalar)
    return TruncatedTau(terms, valid, f.eps)


def _eps_scalar(eps):
    """eps as an ExactScalar: the symbol when eps is None, else its value."""
    return ExactScalar.eps() if eps is None else ExactScalar.from_rational(eps)


def printed_bilinear(which, eps=None):
    """The two displayed bilinear equations:
    1: 12 D2^2 - 12 D1 D3 + hbar D1^4;  2: 6 D2 D3 - 6 D1 D4 + hbar D1^3 D2."""
    h = _eps_scalar(eps) ** 2
    if which == 1:
        return (FockPolynomial.monomial(((2, 2),), 12)
                + FockPolynomial.monomial(((1, 1), (3, 1)), -12)
                + FockPolynomial.monomial(((1, 4),), h))
    if which == 2:
        return (FockPolynomial.monomial(((2, 1), (3, 1)), 6)
                + FockPolynomial.monomial(((1, 1), (4, 1)), -6)
                + FockPolynomial.monomial(((1, 3), (2, 1)), h))
    raise ValueError("which must be 1 or 2")


def _verdict(residual):
    """Whether the residual vanishes up to its valid weight, or None when it
    is complete to no weight, so that the check tested nothing."""
    if residual.valid_weight < 0:
        return None
    return residual.is_zero_to_valid()


def kp_bilinear_check(which, tau):
    """Exact vanishing of a printed bilinear equation on tau; None when tau
    is too short for the equation's D-weight."""
    return _verdict(hirota_apply(printed_bilinear(which, tau.eps), tau, tau))


# ---------------------------------------------------------------------------
# the generating identity, expanded in y


def _d_tilde_substitution(j, e):
    """h_j with q_k -> e * k * D_k for the ExactScalar e, in D-symbols."""
    return complete_homogeneous(j).remap(lambda mono, c: (
        mono, c * prod(k ** a for k, a in mono) * e ** mono_degree(mono)))


def generating_identity_coefficients(y_order, y_vars=4, eps=None):
    """y-expansion of sum_j h_j(-2y) h_{j+1}(eps D-tilde) e^{eps sum y_k D_k}:
    map from a y-exponent tuple (length y_vars, total degree <= y_order) to
    the Hirota polynomial multiplying it."""
    e = _eps_scalar(eps)
    out = {}
    max_y_weight = y_vars * y_order
    for j in range(max_y_weight + 1):
        hj = complete_homogeneous(j, num_vars=y_vars)
        hd = _d_tilde_substitution(j + 1, e)
        for ymono, c1 in hj.terms.items():
            ydeg1 = sum(a for _, a in ymono)
            if ydeg1 > y_order:
                continue
            scalar1 = c1 * Fraction(-2) ** ydeg1
            # exponential factor up to the remaining y-degree
            for extra in _y_tuples(y_vars, y_order - ydeg1):
                dmono = tuple((k, a) for k, a in enumerate(extra, start=1)
                              if a)
                fac = e ** sum(extra) * Fraction(
                    1, prod(factorial(a) for a in extra))
                total = tuple(a + dict(ymono).get(k, 0)
                              for k, a in enumerate(extra, start=1))
                add_into(out, total,
                         hd * FockPolynomial.monomial(dmono, fac * scalar1))
    return out


def _y_tuples(n, max_total):
    for total in range(max_total + 1):
        for cuts in itertools.combinations(range(total + n - 1), n - 1):
            prev = -1
            parts = []
            for c in cuts + (total + n - 1,):
                parts.append(c - prev - 1)
                prev = c
            yield tuple(parts)


def _drop_odd(P):
    """Remove odd-total-degree D-monomials (they annihilate any f.f)."""
    return P.remap(lambda m, c: None if mono_degree(m) % 2 else (m, c))


def kp_hierarchy_check(tau, y_order=2, y_vars=4):
    """Every y-coefficient of the generating identity (total degree <=
    y_order in y_1..y_{y_vars}) annihilates tau.tau up to its valid weight.
    A coefficient whose residual is complete to no weight counts as skipped,
    not checked.

    The pure y3 and y4 coefficients are additionally asserted (after
    dropping odd monomials) to be exact scalar multiples of the two printed
    bilinear equations; the report records the factors.
    """
    coeffs = generating_identity_coefficients(y_order, y_vars, tau.eps)
    report = {"checked": 0, "skipped": 0, "failures": [], "factors": {}}
    for ymono, P in sorted(coeffs.items()):
        residual = hirota_apply(P, tau, tau)
        verdict = _verdict(residual)
        report["checked" if verdict is not None else "skipped"] += 1
        if verdict is False:
            report["failures"].append((ymono, residual.max_residual_term()))
    # proportionality to the printed pair
    hbar = tau.eps ** 2
    expectations = {
        (0, 0, 1, 0): (printed_bilinear(1, tau.eps), hbar * Fraction(-1, 36)),
        (0, 0, 0, 1): (printed_bilinear(2, tau.eps), hbar * Fraction(-1, 12)),
    }
    for ymono, (target, factor) in expectations.items():
        if sum(ymono) > y_order or len(ymono) != y_vars:
            continue
        got = _drop_odd(coeffs.get(ymono, FockPolynomial.zero()))
        if got != target * factor:
            report["failures"].append((ymono, "proportionality mismatch"))
        else:
            report["factors"][ymono] = str(factor)
    return report


# ---------------------------------------------------------------------------
# the PDE for the second logarithmic derivative


def log_series(tau):
    """log(tau / c0) where c0 is the constant coefficient (required to be a
    single Laurent monomial).

    T = tau / c0 is split by p-weight, T_0 = 1, and the weight-w part of
    L = log T follows from the Euler relation w T_w = sum_j j L_j T_{w-j}:
    w L_w = w T_w - sum_{0<j<w} (j L_j) T_{w-j}.
    """
    c0 = tau.terms.get((), Laurent())
    if len(c0.terms) != 1:
        raise ValueError("constant term is not a single monomial")
    (vexp, coeff), = c0.terms.items()
    inv = Laurent({tuple(-x for x in vexp): 1 / coeff})
    W = tau.valid_weight
    pieces = [{} for _ in range(W + 1)]  # T_w
    for m, c in tau.terms.items():
        w = mono_weight(m)
        if 0 < w <= W:
            pieces[w][m] = c * inv
    euler = [None]  # w L_w
    log_terms = {}
    for w in range(1, W + 1):
        terms = {m: c * w for m, c in pieces[w].items()}
        for j in range(1, w):
            for m1, c1 in euler[j].items():
                for m2, c2 in pieces[w - j].items():
                    add_into(terms, mono_mul(m1, m2), -(c1 * c2))
        euler.append(terms)
        log_terms.update((m, c * Fraction(1, w)) for m, c in terms.items())
    return TruncatedTau(log_terms, W, tau.eps)


def kp_equation_check(tau):
    """Residual of u_xt = u_yy + (u u_x + (hbar/12) u_xxx)_x for
    u = eps^2 d^2/dp_1^2 log tau, with x = p_1, y = p_2, t = p_3; None when
    tau is too short (weight <= 5) for the residual to be complete anywhere."""
    hbar = tau.eps ** 2
    u = log_series(tau).derivative(((1, 2),)).scale(hbar)
    u_xt = u.derivative(((1, 1), (3, 1)))
    u_yy = u.derivative(((2, 2),))
    inner = u * u.derivative(((1, 1),)) + \
        u.derivative(((1, 3),)).scale(hbar * Fraction(1, 12))
    return _verdict(u_xt - u_yy - inner.derivative(((1, 1),)))
