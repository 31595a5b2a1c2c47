"""Hirota bilinear machinery and exact KP verification.

The disk potential becomes a tau-function after substituting the t-variables.
To keep everything exact, each active exponential e^{t_k/d_k} is replaced by
a formal Laurent variable v_k, where d_k is the common denominator of the
rational exponents E_k/hbar over all partitions in range.  The truncated tau
`TruncatedTau` is a `SparseSum` from p-monomials to `Laurent` polynomials in
the v-variables that also carries its eps and the weight up to which it is
complete.  Every v-exponent tuple of a tau has one slot per t-variable
t_0..t_K of its potential, zero for an inactive t_k, so the taus of one
potential multiply slot by slot; tuples of two lengths are refused, once per
Laurent product.

The tau is built at rational u0 and nonzero rational eps and returned on
`int` coefficients, scaled once by the lcm L of its denominators (see
`tau_from_disk`).  At u0 = 0 with at most t0 active, eps enters it only as
p_k -> p_k eps^{-(k+1)}, and every Hirota polynomial here is homogeneous
for that grading, so eps = 1 decides every eps.  The D-polynomials keep a
symbolic eps; their coefficients meet a tau through `as_fraction()`.

Every condition is one Hirota form P(D) tau.tau on the tau as built, checked
identically in the v-variables.  P is scaled to L_P P, L_P the lcm of its
coefficient denominators, so a check multiplies integers only; the KP
equation is put over one integer scale the same way (see
`kp_equation_check`).  A failure entry divides L_P back out: it reads as the
residual of the tau as built, L^2 times that of the `Fraction` tau.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, factorial, lcm, perm, prod
from operator import add
from types import MappingProxyType

from .fock import (FockPolynomial, mono_degree, mono_from_partition,
                   mono_mul, mono_sub, mono_weight, render_mono)
from .partitions import partitions_of
from .scalars import ExactScalar, SparseSum, _numerators, add_into
from .schur import centralizer_size, character_table, complete_homogeneous

# ---------------------------------------------------------------------------
# Laurent coefficients in the v-variables


class Laurent(SparseSum):
    """Laurent polynomial in v_0, v_1, ... over `int` (a tau as built) or
    `Fraction`: a sparse map exponent tuple -> coefficient.  Every exponent
    tuple of a tau has one slot per t-variable t_0..t_K of its potential; a
    product of two Laurents whose tuples differ in length is refused.
    """

    __slots__ = ()

    def __mul__(self, other):
        """Ring product with another Laurent, or scaling by a number."""
        if isinstance(other, Laurent):
            if self.terms and other.terms:
                e1, e2 = next(iter(self.terms)), next(iter(other.terms))
                if len(e1) != len(e2):
                    raise ValueError(f"v-exponent tuples {e1} and {e2} "
                                     "differ in length")
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
    return tuple(map(add, e1, e2))


# ---------------------------------------------------------------------------


class TruncatedTau(SparseSum):
    """Weight-truncated series in the p-variables: a `SparseSum` p-monomial
    -> Laurent with its eps (a Fraction) and `valid_weight`, the weight up
    to which it is complete.  A sum or `*` is complete to the smaller valid
    weight, a derivative to a lower one; `product` is not truncated."""

    __slots__ = ("valid_weight", "eps")

    def __init__(self, terms, valid_weight, eps):
        super().__init__(terms)
        self.valid_weight = valid_weight
        self.eps = eps

    def _like(self, terms):
        return TruncatedTau(terms, self.valid_weight, self.eps)

    def __eq__(self, other):
        return SparseSum.__eq__(self, other) is True and (
            (self.valid_weight, self.eps) == (other.valid_weight, other.eps))

    def __add__(self, other):
        total = SparseSum.__add__(self, other)
        total.valid_weight = min(self.valid_weight, other.valid_weight)
        return total

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
        return TruncatedTau(terms, valid, self.eps)

    def derivative(self, mono):
        """The partial derivative prod_k (d/dp_k)^{a_k} for the multi-index
        mono = ((k, a_k), ...); the result is complete mono_weight(mono)
        lower."""
        def term(m, c):
            reduced = mono_sub(m, mono)
            if reduced is not None:
                powers = dict(m)
                return reduced, c * prod(perm(powers[k], a) for k, a in mono)
        return TruncatedTau(self.remap(term).terms,
                            self.valid_weight - mono_weight(mono), self.eps)

    def is_zero_to_valid(self):
        return all(not c or mono_weight(m) > self.valid_weight
                   for m, c in self.terms.items())

    def max_residual_term(self, scale=1):
        """The lowest nonzero term within the valid weight, divided by the
        integer scale the series was computed at."""
        for m, c in sorted(self.terms.items(),
                           key=lambda t: (mono_weight(t[0]), t[0])):
            if c and mono_weight(m) <= self.valid_weight:
                c = c.scaled(Fraction(1, scale))
                return f"{render_mono(m, 'p')}: {c.render()}"
        return None


def tau_from_disk(pot, active_k, u0, eps):
    """Substitute the t-exponentials of the disk potential by v-variables,
    at rational u0 and nonzero rational eps, and return L tau on `int`
    coefficients, with L the lcm of the denominators of tau's coefficients.

    active_k lists which t-variables are kept (the rest are set to zero).
    The term of lambda contributes prefactor(lambda) chi^lambda(mu)
    eps^{-l(mu)} / z_mu to p^mu, with the prefactor read from the stored
    amplitude.

    A KP tau is defined only up to a nonzero constant, and no check changes
    under tau -> c tau for c != 0: a Hirota residual P(D) tau.tau scales by
    c^2, the proportionality factors do not read tau, and `_integer_log`
    takes log(tau / c0), which is the same for c tau.  So L tau is decided
    exactly as tau is, on integers only.
    """
    if u0 is None or eps is None or not eps:
        raise ValueError("the tau is built at rational u0 and nonzero "
                         "rational eps")
    u0, eps = Fraction(u0), Fraction(eps)
    if any(not 0 <= k <= pot.K for k in active_k):
        raise ValueError("active index outside the potential's 0..K")
    exponents = {lam: [_rational(amp.exponents[k], eps, u0)
                       if k in active_k else Fraction(0)
                       for k in range(pot.K + 1)]
                 for lam, amp in pot.amplitudes.items()}
    denominators = [lcm(*(row[k].denominator for row in exponents.values()))
                    for k in range(pot.K + 1)]
    terms = {}  # p^mu -> {v-exponent: coefficient}
    for lam, amp in pot.amplitudes.items():
        vexp = tuple(int(q * d) for q, d in zip(exponents[lam], denominators))
        prefactor = _rational(amp.prefactor, eps, u0)
        for mono, c in _schur_terms(lam, eps):
            add_into(terms.setdefault(mono, {}), vexp, prefactor * c)
    # L times each coefficient, in the order the terms are read back
    nums = iter(_numerators(q for c in terms.values() for q in c.values())[0])
    return TruncatedTau({m: Laurent({e: next(nums) for e in c})
                         for m, c in terms.items() if c},
                        pot.max_weight, eps)


@lru_cache(maxsize=None)
def _rational(scalar, eps, u0):
    """The ExactScalar at rational eps and u0, as a Fraction; the taus of
    one potential at one point share these values."""
    return scalar.substitute(eps=eps, u0=u0).as_fraction()


@lru_cache(maxsize=None)
def _schur_terms(lam, eps):
    """The terms (p^mu, chi^lambda(mu) eps^{-l(mu)} / z_mu) of
    s_lambda(p / eps) with a nonzero character."""
    index, rows = character_table(sum(lam))
    return [(mono_from_partition(mu),
             Fraction(chi, centralizer_size(mu)) / eps ** len(mu))
            for mu, chi in zip(partitions_of(sum(lam)), rows[index[lam]])
            if chi]


# ---------------------------------------------------------------------------
# Hirota operators (represented as FockPolynomials in symbols D_1, D_2, ...)


def _top_weight(P):
    """The largest weight of a D-monomial of P, which a residual loses."""
    return max((mono_weight(m) for m in P.terms), default=0)


def hirota_apply(P, tau):
    """P(D) tau.tau with D^a tau.tau = sum_b prod C(a_k, b_k) (-1)^{|a-b|}
    (d^b tau)(d^{a-b} tau); valid to tau's valid weight minus the top
    D-weight of P.

    D-monomials of odd degree are skipped (D^a tau.tau = 0 for odd |a|),
    and the equal terms of the splits b and a-b are taken once, for
    b <= a-b, with the coefficient doubled when b != a-b.  Each partial
    d^b tau is taken once per call, and each product only up to the valid
    weight of the result.  An integral coefficient of P is taken as an
    `int`, so an integer P on an integer tau multiplies integers only.
    """
    valid = tau.valid_weight - _top_weight(P)
    partial = cache(tau.derivative)
    residual = TruncatedTau({}, valid, tau.eps)
    for dmono, coeff in P.terms.items():
        if mono_degree(dmono) % 2:
            continue
        top = tuple(a for _, a in dmono)
        coeff = coeff.as_fraction()  # refuses a symbolic eps
        if coeff.denominator == 1:
            coeff = coeff.numerator
        for choice in itertools.product(*(range(a + 1) for a in top)):
            complement = tuple(a - c for a, c in zip(top, choice))
            if choice > complement:
                continue
            fac = prod(map(comb, top, choice))
            if choice < complement:
                fac *= 2
            b = tuple((k, c) for (k, _), c in zip(dmono, choice) if c)
            rest = tuple((k, a - c) for (k, a), c in zip(dmono, choice)
                         if a > c)
            if mono_degree(rest) % 2:
                fac = -fac
            df, dg = partial(b), partial(rest)
            if len(df.terms) <= len(dg.terms):  # scale the smaller partial
                df = df.scaled(coeff * fac)
            else:
                dg = dg.scaled(coeff * fac)
            residual = residual + TruncatedTau(df.terms, valid, tau.eps) * dg
    return residual


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


def _integer_residual(P, tau):
    """(P(D) tau.tau times L_P, L_P), with L_P the lcm of the denominators
    of P's coefficients: on integers when tau is on integers."""
    _, scale = _numerators(c.as_fraction() for c in P.terms.values())
    return hirota_apply(P.scaled(scale), tau), scale


def kp_bilinear_check(which, tau):
    """Exact vanishing of a printed bilinear equation on tau, decided on
    L_P times its residual; None when tau is too short for the equation's
    D-weight."""
    residual, _ = _integer_residual(printed_bilinear(which, tau.eps), tau)
    return _verdict(residual)


# ---------------------------------------------------------------------------
# the generating identity, expanded in y


def _d_tilde_substitution(j, e):
    """h_j with q_k -> e * k * D_k for the ExactScalar e, in D-symbols."""
    return complete_homogeneous(j).remap(lambda mono, c: (
        mono, c * prod(k ** a for k, a in mono) * e ** mono_degree(mono)))


@lru_cache(maxsize=None)
def generating_identity_coefficients(y_order, y_vars=4, eps=None):
    """y-expansion of sum_j h_j(-2y) h_{j+1}(eps D-tilde) e^{eps sum y_k D_k}:
    read-only map from a y-exponent tuple (length y_vars, total degree <=
    y_order) to the even part of the Hirota polynomial multiplying it.

    D^a f.f = 0 for odd |a|, so only the even part is a condition on a tau;
    a coefficient with no even part is omitted."""
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
            for extra in itertools.product(range(y_order - ydeg1 + 1),
                                           repeat=y_vars):
                if ydeg1 + sum(extra) > y_order:
                    continue
                dmono = tuple((k, a) for k, a in enumerate(extra, start=1)
                              if a)
                fac = e ** sum(extra) * Fraction(
                    1, prod(factorial(a) for a in extra))
                total = tuple(a + dict(ymono).get(k, 0)
                              for k, a in enumerate(extra, start=1))
                add_into(out, total,
                         hd * FockPolynomial.monomial(dmono, fac * scalar1))
    even = {y: P.remap(lambda m, c: None if mono_degree(m) % 2 else (m, c))
            for y, P in out.items()}
    return MappingProxyType({y: P for y, P in even.items() if P})


def kp_hierarchy_check(tau, y_order=2, y_vars=4):
    """Every y-coefficient of the generating identity (total degree <=
    y_order in y_1..y_{y_vars}) annihilates tau.tau up to its valid weight,
    decided on tau as given.  Only coefficients with an even part are
    formed (`generating_identity_coefficients`); one whose residual is
    complete to no weight counts as skipped, not checked.

    The pure y3 and y4 coefficients are additionally asserted to be exact
    scalar multiples of the two printed bilinear equations; the report
    records the factors.  Each is then a nonzero multiple of its printed
    equation, so its residual is a nonzero multiple of the printed one with
    the same valid weight: `printed` maps 1 and 2 to the printed
    equations' verdicts read off it.
    """
    coeffs = generating_identity_coefficients(y_order, y_vars, tau.eps)
    report = {"checked": 0, "skipped": 0, "failures": [], "factors": {},
              "printed": {}}
    verdicts = {}
    for ymono, P in sorted(coeffs.items()):
        residual, poly_scale = _integer_residual(P, tau)
        verdicts[ymono] = verdict = _verdict(residual)
        report["checked" if verdict is not None else "skipped"] += 1
        if verdict is False:
            report["failures"].append(
                (ymono, residual.max_residual_term(poly_scale)))
    # proportionality to the printed pair
    hbar = tau.eps ** 2
    expectations = {(0, 0, 1, 0): (1, hbar * Fraction(-1, 36)),
                    (0, 0, 0, 1): (2, hbar * Fraction(-1, 12))}
    for ymono, (which, factor) in expectations.items():
        if sum(ymono) > y_order or len(ymono) != y_vars:
            continue
        target = printed_bilinear(which, tau.eps)
        got = coeffs.get(ymono, FockPolynomial.zero())
        if got != target * factor:
            report["failures"].append((ymono, "proportionality mismatch"))
            continue
        report["factors"][ymono] = str(factor)
        report["printed"][which] = verdicts[ymono]
    return report


# ---------------------------------------------------------------------------
# the PDE for the second logarithmic derivative


def _integer_log(tau):
    """(S, S log(tau / c0)), where c0 = c v^e is the constant coefficient
    of tau (a single Laurent monomial) and S = lcm(1..W) c^W, W the valid
    weight; on int coefficients when tau is on int coefficients.

    tau' = v^{-e} tau is split by p-weight, tau'_0 = c.  With T = tau'/c
    and G_w the weight-w part of log T, the Euler relation
    w T_w = sum_{0<j<=w} j G_j T_{w-j} gives N_w = c^w w G_w in integers:
    N_w = w c^{w-1} tau'_w - sum_{0<j<w} N_j c^{w-j-1} tau'_{w-j}.  Then
    S G_w = (lcm(1..W) / w) c^{W-w} N_w is an integer for every w <= W.
    """
    c0 = tau.terms.get((), Laurent())
    if len(c0.terms) != 1:
        raise ValueError("constant term is not a single monomial")
    (vexp, c), = c0.terms.items()
    shift = Laurent({tuple(-x for x in vexp): 1})
    W = tau.valid_weight
    pieces = [tau.remap(lambda m, x: (m, x * shift) if mono_weight(m) == w
                         else None) for w in range(W + 1)]  # tau'_w
    numerators = [None]  # N_w
    for w in range(1, W + 1):
        n_w = pieces[w].scaled(w * c ** (w - 1))
        for j in range(1, w):
            n_w = n_w - (numerators[j] * pieces[w - j]).scaled(
                c ** (w - j - 1))
        numerators.append(n_w)
    lam = lcm(*range(1, W + 1))
    scale = lam * c ** W
    assert scale, "a zero scale would make every residual vanish"
    log = tau.scaled(0)
    for w in range(1, W + 1):
        log = log + numerators[w].scaled(lam // w * c ** (W - w))
    return scale, log


def kp_equation_check(tau):
    """Residual of u_xt = u_yy + (u u_x + (hbar/12) u_xxx)_x for
    u = eps^2 d^2/dp_1^2 log tau, with x = p_1, y = p_2, t = p_3; None when
    tau is too short (weight <= 5) for the residual to be complete anywhere.

    Decided on integers: with (S, l) = `_integer_log(tau)`, U = l_xx and
    hbar = a/b, u = hbar U / S, and the residual times 12 S^2 b / hbar is
    12 b S (U_xt - U_yy) - 12 a (U U_x)_x - a S U_xxxx, complete to the
    same weight and zero exactly when the residual is.  The residual is
    complete to weight W - 6 (U_xt and U_xxxx), so the product U U_x is
    taken only to weight W - 5.
    """
    hbar = tau.eps ** 2
    a, b = hbar.numerator, hbar.denominator
    scale, log = _integer_log(tau)
    U = log.derivative(((1, 2),))
    linear = U.derivative(((1, 1), (3, 1))) - U.derivative(((2, 2),))
    head = TruncatedTau(U.terms, U.valid_weight - 3, U.eps)
    residual = (linear.scaled(12 * b * scale)
                - (head * U.derivative(((1, 1),))).derivative(((1, 1),))
                .scaled(12 * a)
                - U.derivative(((1, 4),)).scaled(a * scale))
    return _verdict(residual)
