"""Disk potential, Fock-space pairing, degree slices, and Hurwitz counts.

The potential is a partition-indexed sum: each partition contributes
eps^{-|lambda|} dim(lambda)/|lambda|! times an exponential whose t_k-slot
carries the eigenvalue combination E_k/hbar, times the eps-scaled Schur
polynomial in the p-variables.  Amplitudes are stored unexpanded (prefactor
plus exponent vector); Taylor expansion in t is a separate view.  The same
table yields the degree-graded partition sum over stable-map degrees (by
squaring the dimension factor) and, specialized to a single t-variable, the
generating function of transposition-factorization counts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .fock import FockPolynomial
from .hamiltonians import (eigenvalue_closed_form,
                           hamiltonian_generating_coefficients,
                           vacuum_constant, verify_eigenvectors)
from .partitions import check_partition, dim, partitions_of, partitions_upto, size
from .scalars import ExactScalar, add_into
from .schur import scaled_schur, schur


class DiskAmplitude(NamedTuple):
    """One partition's contribution: prefactor eps^{-n} dim/n! and the
    exponent vector (E_0/hbar, ..., E_K/hbar)."""

    partition: tuple
    prefactor: ExactScalar
    exponents: tuple  # ExactScalar, indexed by k = 0..K

    @property
    def weight(self):
        return size(self.partition)

    def schur_factor(self):
        """The eps-scaled Schur polynomial in the p-variables."""
        return scaled_schur(self.partition)

    def polynomial_part(self):
        return self.schur_factor() * self.prefactor


class DiskPotential(NamedTuple):
    max_weight: int
    K: int
    amplitudes: dict  # partition -> DiskAmplitude


def disk_potential(W, K):
    """Amplitude table over all partitions of size <= W, with exponent
    vectors for t_0 .. t_K (u0 and eps symbolic)."""
    if W < 0 or K < 0:
        raise ValueError("bounds must be non-negative")
    amplitudes = {}
    for lam in partitions_upto(W):
        n = size(lam)
        prefactor = ExactScalar.monomial(Fraction(dim(lam), factorial(n)), -n)
        exponents = tuple(eigenvalue_closed_form(k, lam).shift_eps(-2)
                          for k in range(K + 1))
        amplitudes[lam] = DiskAmplitude(lam, prefactor, exponents)
    return DiskPotential(W, K, amplitudes)


def expand_in_t(pot, t_orders):
    """Taylor-expand the exponentials: map from a t-exponent tuple
    (m_0, ..., m_K) to the corresponding p-polynomial.

    t_orders gives the per-k order bound (list of K+1 integers).
    """
    if len(t_orders) != pot.K + 1:
        raise ValueError("need one order bound per t-variable")
    result = {}
    for amp in pot.amplitudes.values():
        base = amp.polynomial_part()
        for powers in itertools.product(*(range(b + 1) for b in t_orders)):
            coeff = ExactScalar.one()
            for k, m in enumerate(powers):
                if m:
                    coeff = coeff * amp.exponents[k] ** m * Fraction(1, factorial(m))
            add_into(result, powers, base * coeff)
    return result


def integer_hbar_check(W, K=2, t_orders=None):
    """Every coefficient of the t-expanded potential has only even eps
    powers, i.e. the series lives in integer powers of hbar (odd parts
    cancel between a partition and its transpose)."""
    pot = disk_potential(W, K)
    t_orders = t_orders if t_orders is not None else [1] * (K + 1)
    for poly in expand_in_t(pot, t_orders).values():
        for _, c in poly.terms.items():
            if any(e % 2 for e in c.eps_powers()):
                return False
    return True


# ---------------------------------------------------------------------------
# printed-expansion check


def _printed_display():
    """The degree <= 3, k <= 3, u0 = 0 expansion in explicit form: for each
    partition, the relative exponent vector (exponent minus the vacuum's) and
    the expanded p-polynomial with its numerical prefactor.

    The weight-2 bracket coefficient is 1/(4 hbar^2): the displayed 1/2 in
    front of the bracket combines with the 1/2 inside each Schur polynomial.
    """
    h = ExactScalar.hbar
    half = Fraction(1, 2)

    def poly(*terms):
        acc = FockPolynomial.zero()
        for mono, coeff in terms:
            acc = acc + FockPolynomial.monomial(mono, coeff)
        return acc

    return {
        (): ((ExactScalar.from_rational(Fraction(-1, 24)),
              ExactScalar.zero(),
              h(1) * Fraction(7, 5760),
              ExactScalar.zero()),
             poly(((), ExactScalar.one()))),
        (1,): ((ExactScalar.one(), ExactScalar.zero(),
                h(1) * Fraction(1, 24), ExactScalar.zero()),
               poly((((1, 1),), h(-1)))),
        (2,): ((ExactScalar.from_rational(2), h(half),
                h(1) * Fraction(7, 12), h(Fraction(3, 2)) * Fraction(5, 24)),
               poly((((1, 2),), h(-2) * Fraction(1, 4)),
                    (((2, 1),), h(Fraction(-3, 2)) * Fraction(1, 4)))),
        (1, 1): ((ExactScalar.from_rational(2), -h(half),
                  h(1) * Fraction(7, 12), -h(Fraction(3, 2)) * Fraction(5, 24)),
                 poly((((1, 2),), h(-2) * Fraction(1, 4)),
                      (((2, 1),), -h(Fraction(-3, 2)) * Fraction(1, 4)))),
        (3,): ((ExactScalar.from_rational(3), h(half) * 3,
                h(1) * Fraction(21, 8), h(Fraction(3, 2)) * Fraction(13, 8)),
               poly((((1, 3),), h(-3) * Fraction(1, 36)),
                    (((1, 1), (2, 1)), h(Fraction(-5, 2)) * Fraction(3, 36)),
                    (((3, 1),), h(-2) * Fraction(2, 36)))),
        (2, 1): ((ExactScalar.from_rational(3), ExactScalar.zero(),
                  h(1) * Fraction(9, 8), ExactScalar.zero()),
                 poly((((1, 3),), h(-3) * Fraction(4, 36)),
                      (((3, 1),), -h(-2) * Fraction(4, 36)))),
        (1, 1, 1): ((ExactScalar.from_rational(3), -h(half) * 3,
                     h(1) * Fraction(21, 8), -h(Fraction(3, 2)) * Fraction(13, 8)),
                    poly((((1, 3),), h(-3) * Fraction(1, 36)),
                         (((1, 1), (2, 1)), -h(Fraction(-5, 2)) * Fraction(3, 36)),
                         (((3, 1),), h(-2) * Fraction(2, 36)))),
    }


def verify_printed_expansion(report=None):
    """Compare the computed degree <= 3 potential at u0 = 0 with the frozen
    explicit display, partition by partition and monomial by monomial.

    Any mismatch is appended to `report` (a list) as (partition, detail).
    """
    pot = disk_potential(3, 3)
    vacuum = [vacuum_constant(k).shift_eps(-2).substitute(u0=0)
              for k in range(4)]
    expected = _printed_display()
    ok = True
    for lam, amp in pot.amplitudes.items():
        exp_exponents, exp_poly = expected[lam]
        got_poly = amp.polynomial_part()
        if got_poly != exp_poly:
            ok = False
            if report is not None:
                report.append((lam, "polynomial", got_poly.render("p"),
                               exp_poly.render("p")))
        for k in range(4):
            got = amp.exponents[k].substitute(u0=0)
            if lam:
                got = got - vacuum[k]  # the display factors out the vacuum
            if got != exp_exponents[k]:
                ok = False
                if report is not None:
                    report.append((lam, f"t_{k}", got.render(),
                                   exp_exponents[k].render()))
    return ok


# ---------------------------------------------------------------------------
# Schroedinger-equation check and the pairing


def schroedinger_check(k, W):
    """(a) The stored t_k-exponent of every amplitude times hbar is the
    eigenvalue E_k (holds by construction, asserted anyway); (b) the
    transposed operator -- coefficients (alpha, beta) swapped, acting on the
    p-variables -- has the same Schur eigenvectors with the same eigenvalues.

    (b) is the substantive check.  The generated H_k equals its transpose
    (asserted), so (b) is the eigenvector check of H_k itself, which
    `verify_eigenvectors` decides on H_{-1} .. H_k.
    """
    pot = disk_potential(W, k)
    operators = hamiltonian_generating_coefficients(k, W)
    op = operators[k + 1]
    if op != op.transpose():
        return False
    if any(amp.exponents[k].shift_eps(2) != eigenvalue_closed_form(k, lam)
           for lam, amp in pot.amplitudes.items()):
        return False
    return not verify_eigenvectors(k, W, operators)["failures"]


def fock_pairing(bra, ket):
    """<bra(p), ket(q)>: substitute p_n -> hbar n d/dq_n in the bra, apply to
    the ket, set q = 0.  Diagonal in monomials:
    <p^mu, q^mu> = prod_k (hbar k)^{mu_k} mu_k!."""
    acc = ExactScalar.zero()
    for mono, b in bra.terms.items():
        c = ket.terms.get(mono)
        if c is None:
            continue
        factor = Fraction(1)
        weight = 0
        for var, power in mono:
            factor *= Fraction(var) ** power * factorial(power)
            weight += var * power
        acc = acc + b * c * ExactScalar.monomial(factor, 2 * weight)
    return acc


# ---------------------------------------------------------------------------
# degree-graded partition sum over stable-map degrees


def p1_partition_function(D, K):
    """Degree-d slices for d <= D: lists of (partition, coefficient,
    exponent vector) with coefficient (dim/|lambda|!)^2 hbar^{-d}.

    Each coefficient is recomputed by pairing the disk amplitude against the
    plane wave e^{z q_1 / hbar} (coefficient of z^d) and the two routes are
    asserted equal.
    """
    pot = disk_potential(D, K)
    slices = {d: [] for d in range(D + 1)}
    for lam, amp in pot.amplitudes.items():
        d = size(lam)
        coeff = ExactScalar.monomial(
            Fraction(dim(lam), factorial(d)) ** 2, -2 * d)
        # pairing route: <prefactor s_lambda(p/eps), q_1^d / (d! hbar^d)>
        ket = FockPolynomial.monomial(((1, d),) if d else ())
        paired = fock_pairing(amp.polynomial_part(), ket) * \
            ExactScalar.monomial(Fraction(1, factorial(d)), -2 * d)
        if paired != coeff:
            raise AssertionError(
                f"pairing route disagrees at {lam}: "
                f"{paired.render()} vs {coeff.render()}")
        slices[d].append((lam, coeff, amp.exponents))
    return slices


# ---------------------------------------------------------------------------
# transposition-factorization counts


def hurwitz_series(W, M):
    """Coefficients of beta^m/m! in the potential specialized to u0 = 0,
    hbar = 1, t_1 = beta, all other t = 0: map (n, m) -> p-polynomial
    sum_{|lambda|=n} (dim/n!) E_1(lambda)^m s_lambda(p).

    The coefficient of the monomial p_mu is the number of m-tuples of
    transpositions in S_n with product of cycle type mu, divided by n!.
    """
    result = {}
    for n in range(W + 1):
        for m in range(M + 1):
            acc = FockPolynomial.zero()
            for lam in partitions_of(n):
                energy = eigenvalue_closed_form(1, lam).substitute(eps=1, u0=0)
                coeff = energy.as_fraction() ** m * Fraction(dim(lam), factorial(n))
                acc = acc + schur(lam) * coeff
            result[(n, m)] = acc
    return result


@lru_cache(maxsize=None)
def _transposition_transfer(n):
    """M[type][type']: for a fixed permutation of the first type, the number
    of transpositions whose product with it has the second type."""
    types = partitions_of(n)
    reps = {}
    for t in types:
        perm = []
        start = 0
        for part in t:
            perm.extend(list(range(start + 1, start + part)) + [start])
            start += part
        reps[t] = tuple(perm)

    def cycle_type(perm):
        seen = [False] * n
        parts = []
        for i in range(n):
            if not seen[i]:
                length = 0
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                parts.append(length)
        return tuple(sorted(parts, reverse=True))

    transfer = {}
    for t, perm in reps.items():
        row = {}
        for i in range(n):
            for j in range(i + 1, n):
                # right-multiply by the transposition (i j)
                product = list(perm)
                product[i], product[j] = product[j], product[i]
                new = cycle_type(tuple(product))
                row[new] = row.get(new, 0) + 1
        transfer[t] = row
    return transfer


def hurwitz_oracle(n, m, mu):
    """Number of m-tuples of transpositions in S_n whose product has cycle
    type mu, divided by n!.

    Exhaustive by construction: the tuple count is accumulated as an exact
    distribution over cycle types, one transposition factor at a time (the
    per-step transition counts enumerate every transposition against a class
    representative, which is equivalent to iterating over all tuples).
    """
    if n > 6 or m > 7:
        raise ValueError("oracle bounds exceeded (n <= 6, m <= 7)")
    if n < 1:
        raise ValueError("n must be positive")
    mu = check_partition(tuple(mu))
    if size(mu) != n:
        raise ValueError("mu must be a partition of n")
    counts = {tuple([1] * n): 1}
    transfer = _transposition_transfer(n)
    for _ in range(m):
        nxt = {}
        for t, c in counts.items():
            for t2, ways in transfer[t].items():
                nxt[t2] = nxt.get(t2, 0) + c * ways
        counts = nxt
    return Fraction(counts.get(mu, 0), factorial(n))


def hurwitz_oracle_direct(n, m, mu):
    """Same count by literal iteration over all transposition m-tuples; only
    viable for tiny parameters, used to cross-check the recursion."""
    if (n * (n - 1) // 2) ** m > 300000:
        raise ValueError("direct enumeration too large")
    mu = check_partition(tuple(mu))
    transpositions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    hits = 0
    for tup in itertools.product(transpositions, repeat=m):
        perm = list(range(n))
        for i, j in tup:
            perm[i], perm[j] = perm[j], perm[i]
        seen = [False] * n
        parts = []
        for s in range(n):
            if not seen[s]:
                length = 0
                j = s
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                parts.append(length)
        if tuple(sorted(parts, reverse=True)) == mu:
            hits += 1
    return Fraction(hits, factorial(n))


def hurwitz_match_report(W, M):
    """Compare every hurwitz_series coefficient against the oracle; returns
    a dict with counts and a list of mismatches."""
    if W < 1 or M < 0:
        raise ValueError("Hurwitz bounds must be n >= 1 and m >= 0")
    series = hurwitz_series(W, M)
    mismatches = []
    checked = 0
    for (n, m), poly in series.items():
        if n == 0:
            continue
        for mu in partitions_of(n):
            mono = tuple((k, sum(1 for x in mu if x == k))
                         for k in sorted(set(mu)))
            got = poly.coefficient(mono)
            want = hurwitz_oracle(n, m, mu)
            checked += 1
            if got != ExactScalar.from_rational(want):
                mismatches.append((n, m, mu, got.render(), want))
    return {"checked": checked, "mismatches": mismatches}
