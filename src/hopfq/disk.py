"""Disk potential, degree slices, and Hurwitz counts.

The potential is a partition-indexed sum: each partition contributes
eps^{-|lambda|} dim(lambda)/|lambda|! times an exponential whose t_k-slot
carries the eigenvalue combination E_k/hbar, times the eps-scaled Schur
polynomial in the p-variables.  Amplitudes are stored unexpanded (prefactor
plus exponent vector); no check here expands them in t.  The same
table yields the degree-graded partition sum over stable-map degrees (by
squaring the dimension factor) and, specialized to a single t-variable, the
generating function of transposition-factorization counts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import NamedTuple

from .fock import FockPolynomial
from .hamiltonians import (eigenvalue_series,
                           hamiltonian_generating_coefficients,
                           verify_eigenvectors)
from .partitions import dim, partitions_of, partitions_upto, size, transpose
from .scalars import ExactScalar
from .schur import centralizer_size, character, scaled_schur


class DiskAmplitude(NamedTuple):
    """One partition's contribution: prefactor eps^{-n} dim/n! and the
    exponent vector (E_0/hbar, ..., E_K/hbar)."""

    partition: tuple
    prefactor: ExactScalar
    exponents: tuple  # ExactScalar, indexed by k = 0..K

    def polynomial_part(self):
        """The prefactor times the eps-scaled Schur polynomial in the
        p-variables."""
        return scaled_schur(self.partition) * self.prefactor


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
        exponents = tuple(e.shift_eps(-2) for k, e in
                          eigenvalue_series(lam, K).items() if k >= 0)
        amplitudes[lam] = DiskAmplitude(lam, prefactor, exponents)
    return DiskPotential(W, K, amplitudes)


def _flip_eps(c):
    """The scalar c with eps -> -eps."""
    return c.remap(lambda key, v: (key, -v if key[0] % 2 else v))


def integer_hbar_check(pot):
    """The potential lives in integer powers of hbar to every t-order.

    Transposition pairs the amplitudes: amp(lambda') = amp(lambda) at
    eps -> -eps, in the polynomial part and in the exponents.  So
    eps -> -eps permutes the terms of the sum over lambda, and odd eps
    powers cancel in every t-coefficient.  Each pair is compared once, from
    lambda >= lambda' (eps -> -eps is an involution).

    At p^mu the polynomial part is P_lambda chi^lambda(mu) (P the prefactor)
    times the unit 1 / (z_mu eps^{l(mu)}), which the flip multiplies by
    (-1)^{l(mu)}.  So the pair matches exactly when (A) flip(P_lambda)
    (-1)^{l(mu)} chi^lambda(mu) = P_lambda' chi^lambda'(mu) for every mu of
    n = |lambda|.  The check decides (B) instead: flip(P_lambda) =
    (-1)^n P_lambda' once, then the omega involution chi^lambda'(mu) =
    (-1)^{n + l(mu)} chi^lambda(mu) (Macdonald I.7) on integers.  (B)
    implies (A) by substitution.  Once omega holds, (A) at mu = 1^n reads
    flip(P_lambda) (-1)^n dim(lambda) = P_lambda' dim(lambda); dim != 0 and
    Q[u0][eps^{+-1}] has no zero divisors, so (A) implies (B).  So (B) is
    never weaker than (A), and it needs no premise."""
    for lam, amp in pot.amplitudes.items():
        mate = transpose(lam)
        if lam < mate:
            continue
        twin = pot.amplitudes[mate]
        n = size(lam)
        if (_flip_eps(amp.prefactor) != twin.prefactor * (-1) ** n
                or any(character(mate, mu)
                       != (-1) ** (n + len(mu)) * character(lam, mu)
                       for mu in partitions_of(n))
                or tuple(map(_flip_eps, amp.exponents)) != twin.exponents):
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
    # the empty partition's exponents are the vacuum's, E_k(()) / hbar
    vacuum = [e.substitute(u0=0) for e in pot.amplitudes[()].exponents]
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
# Schroedinger-equation check


def schroedinger_check(pot):
    """For every k <= K of the potential, the transposed operator --
    coefficients (alpha, beta) swapped, acting on the p-variables -- has the
    Schur eigenvectors with eigenvalues E_k = hbar * (stored t_k exponent).

    Each generated H_k equals its transpose (asserted), so this is the
    eigenvector check of H_k itself: one `verify_eigenvectors` run on
    H_{-1} .. H_K, with E_{-1} = u0.  Its eigenvalue premises make the
    stored exponents the eigenvalues in full, not only at u0 = 0.
    """
    K, W = pot.K, pot.max_weight
    operators = hamiltonian_generating_coefficients(K, W)
    if any(op != op.transpose() for op in operators[1:]):
        return False
    u0 = ExactScalar.monomial(1, 0, 1)
    series = {lam: dict(enumerate([u0] + [e.shift_eps(2)
                                          for e in amp.exponents], start=-1))
              for lam, amp in pot.amplitudes.items()}
    return not verify_eigenvectors(K, W, operators, series)["failures"]


# ---------------------------------------------------------------------------
# degree-graded partition sum over stable-map degrees


def p1_partition_function(D, K):
    """Degree-d slices for d <= D: lists of (partition, coefficient,
    exponent vector) with coefficient (dim/|lambda|!)^2 hbar^{-d}.

    Each coefficient is recomputed by pairing the disk amplitude against the
    plane wave e^{z q_1 / hbar} (coefficient of z^d) and the two routes are
    asserted equal.  The pairing is diagonal and <p_1^d, q_1^d> = d! hbar^d,
    so it reads the p_1^d coefficient prefactor chi^lambda(1^d) / d!
    eps^{-d} (Murnaghan-Nakayama; the closed form takes the hook length).
    """
    pot = disk_potential(D, K)
    slices = {d: [] for d in range(D + 1)}
    for lam, amp in pot.amplitudes.items():
        d = size(lam)
        coeff = ExactScalar.monomial(
            Fraction(dim(lam), factorial(d)) ** 2, -2 * d)
        paired = amp.prefactor * ExactScalar.monomial(
            Fraction(character(lam, (1,) * d), factorial(d)), -d)
        if paired != coeff:
            raise AssertionError(
                f"pairing route disagrees at {lam}: "
                f"{paired.render()} vs {coeff.render()}")
        slices[d].append((lam, coeff, amp.exponents))
    return slices


# ---------------------------------------------------------------------------
# transposition-factorization counts


def _cycle_type(perm):
    """The cycle type of a permutation of 0 .. n-1, as a partition."""
    seen = [False] * len(perm)
    parts = []
    for i in range(len(perm)):
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


@lru_cache(maxsize=None)
def _transposition_transfer(n):
    """M[type][type']: for a fixed permutation of the first type, the number
    of transpositions whose product with it has the second type."""
    transfer = {}
    for t in partitions_of(n):
        perm = []  # a representative of the class t
        for part in t:
            start = len(perm)
            perm.extend(list(range(start + 1, start + part)) + [start])
        row = {}
        for i in range(n):
            for j in range(i + 1, n):
                # right-multiply by the transposition (i j)
                product = list(perm)
                product[i], product[j] = product[j], product[i]
                new = _cycle_type(product)
                row[new] = row.get(new, 0) + 1
        transfer[t] = row
    return transfer


def hurwitz_distributions(n, M):
    """[{mu: the number of m-tuples of transpositions in S_n whose product
    has cycle type mu, divided by n!} for m = 0 .. M].

    Exhaustive by construction: the tuple count is accumulated as an exact
    distribution over cycle types, one transposition factor at a time (the
    per-step transition counts enumerate every transposition against a class
    representative, which is equivalent to iterating over all tuples).
    Each step is taken once, from the distribution of the step before.
    """
    counts = [{tuple([1] * n): 1}]
    transfer = _transposition_transfer(n)
    for _ in range(M):
        nxt = {}
        for t, c in counts[-1].items():
            for t2, ways in transfer[t].items():
                nxt[t2] = nxt.get(t2, 0) + c * ways
        counts.append(nxt)
    return [{mu: Fraction(c, factorial(n)) for mu, c in dist.items()}
            for dist in counts]


def hurwitz_match_report(W, M):
    """Compare every count of `hurwitz_distributions`, n <= W and m <= M,
    one distribution per n read for every m and mu, with the
    coefficient of beta^m/m! p^mu in the potential at u0 = 0, hbar = 1,
    t_1 = beta, other t = 0: the Frobenius character sum (Okounkov-
    Pandharipande, Ann. Math. 163, 2006) sum_{|lambda|=n} dim(lambda)
    e_1(lambda)^m chi^lambda(mu) / (n! z_mu), e_1 = E_1 there, summed in
    integers over one denominator.  Returns counts and mismatches."""
    if W < 1 or M < 0:
        raise ValueError("Hurwitz bounds must be n >= 1 and m >= 0")
    mismatches = []
    checked = 0
    for n in range(1, W + 1):
        energies = {lam: eigenvalue_series(lam, 1)[1]
                    .substitute(eps=1, u0=0).as_fraction()
                    for lam in partitions_of(n)}
        # one denominator for the e_1 of degree n: 1, as E_1 sums contents
        den = lcm(*(e.denominator for e in energies.values()))
        distributions = hurwitz_distributions(n, M)
        for m in range(M + 1):
            terms = [(lam, dim(lam) * (e * den).numerator ** m)
                     for lam, e in energies.items()]
            for mu in partitions_of(n):
                got = Fraction(sum(w * character(lam, mu) for lam, w in terms),
                               den ** m * factorial(n) * centralizer_size(mu))
                want = distributions[m].get(mu, Fraction(0))
                checked += 1
                if got != want:
                    mismatches.append((n, m, mu, str(got), want))
    return {"checked": checked, "mismatches": mismatches}
