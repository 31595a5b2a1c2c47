"""Commuting quantum Hamiltonians of the quantized Hopf hierarchy.

The generating operator series is

    e^{z u0} / s(eps z) * sum_{(alpha, beta): wt(alpha) = wt(beta)}
        prod_k [z s(eps z k)]^{alpha_k + beta_k} / (alpha_k! beta_k!) q^alpha p^beta,

obtained by pushing s(i eps z d/dx) through the Fourier modes (s is even, so
it acts on e^{+-ikx} as the scalar s(eps z k)) and performing the x-integral
combinatorially.  H_n is the coefficient of z^(n+2).

The coefficient of q^alpha p^beta is e^{z u0} z^(l(alpha) + l(beta)) g(eps z)
/ (alpha! beta!), with g(t) = (1/s(t)) prod_k s(k t)^(alpha_k + beta_k) a
rational series depending only on the multiset of modes.  So each g is
built once over Q, and `scalars.lift` adds u0 and eps back.  The eigenvalues
E_k(lambda) on the scaled Schur basis have the same shape, e^{z u0} G(eps z);
they come with both that series and the Bernoulli-sum expression, which must
agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from operator import mul

from .fock import (EMPTY, FockPolynomial, NormalOrderedOperator, mono_degree,
                   mono_from_partition, mono_mul, mono_weight, weight_basis)
from .partitions import frobenius, partitions_of
from .scalars import (ExactScalar, UnivariateSeries, add_into, bernoulli,
                      eigenvalue_inner_series, inv_s_series, lift, s_series)
from .schur import centralizer_size, character


def _mode_series(modes, order, memo):
    """g(t) = (1/s(t)) prod_{k in modes} s(k t) over Q up to t^order, for a
    sorted tuple of modes (one factor s(k t) per occurrence of k).  memo
    maps each tuple of modes already done to its series; within one
    generation the order of a tuple is fixed by its length."""
    if modes not in memo:
        if modes:
            k = modes[-1]
            scaled = UnivariateSeries(
                [c * k ** j for j, c in enumerate(s_series(order).coeffs)])
            memo[modes] = scaled * _mode_series(modes[:-1], order + 1, memo)
        else:
            memo[modes] = inv_s_series(order)
    return memo[modes]


def hamiltonian_generating_coefficients(K, max_weight):
    """The operators H_n for n = -1 .. K, truncated to terms of creation
    weight <= max_weight.  Returned as a list indexed by n + 1."""
    if K < -1:
        raise ValueError("K must be >= -1")
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    order = K + 2
    ops = [{} for _ in range(K + 2)]  # ops[n + 1] accumulates H_n
    memo = {}  # g depends only on the multiset of modes of alpha and beta
    for w in range(max_weight + 1):
        for ap in partitions_of(w):
            for bp in partitions_of(w):
                length = len(ap) + len(bp)
                if length > order:
                    continue
                alpha = mono_from_partition(ap)
                beta = mono_from_partition(bp)
                g = _mode_series(tuple(sorted(ap + bp)), order - length, memo)
                scale = Fraction(1, prod(factorial(m) for _, m in alpha + beta))
                g = [c * scale for c in g.coeffs]  # g / (alpha! beta!)
                for n in range(-1, K + 1):
                    coeff = lift(g, length, n)
                    if coeff:
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


class EigenvalueSeries:
    """Taylor coefficients E_n for n = -1 .. K of the eigenvalue series
    E(z) = 1 + sum_{n >= -1} E_n z^{n+2}."""

    __slots__ = ("partition", "coefficients")

    def __init__(self, partition, coefficients):
        self.partition = partition
        self.coefficients = coefficients  # index n + 1 -> ExactScalar

    def __eq__(self, other):
        if not isinstance(other, EigenvalueSeries):
            return NotImplemented
        return (self.partition == other.partition
                and self.coefficients == other.coefficients)

    def __getitem__(self, n):
        return self.coefficients[n + 1]


def _content_shifts(partition):
    """Pairs (a_i, b_i) = (lambda_i - i + 1/2, -i + 1/2) over the rows."""
    return [(Fraction(2 * (partition[i - 1] - i) + 1, 2), Fraction(1 - 2 * i, 2))
            for i in range(1, len(partition) + 1)]


def eigenvalue_series(partition, K):
    """E_n = lift(G, 0, n) from the finite rewriting E(z) = e^{z u0} G(eps z),
    G(t) = 1/s(t) + t sum_i (e^{t a_i} - e^{t b_i})
    (the infinite geometric tail is absorbed into 1/s)."""
    if K < -1:
        raise ValueError("K must be >= -1")
    g = eigenvalue_inner_series(exponential_row_form(partition), K + 2)
    return EigenvalueSeries(tuple(partition),
                            tuple(lift(g, 0, n) for n in range(-1, K + 1)))


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


def _exponentials(shifts):
    """Multiset {exponent: sign} of sum (e^{z a} - e^{z b}) over `shifts`."""
    counts = {}
    for a, b in shifts:
        add_into(counts, a, 1)
        add_into(counts, b, -1)
    return counts


def exponential_row_form(partition):
    """Multiset of (sign, exponent) for sum_i [e^{z(lambda_i - i + 1/2)} -
    e^{z(-i + 1/2)}], canonicalized."""
    return _exponentials(_content_shifts(partition))


def exponential_frobenius_form(partition):
    """Multiset of (sign, exponent) for sum_i [e^{z(alpha_i + 1/2)} -
    e^{-z(beta_i + 1/2)}]."""
    return _exponentials(_frobenius_shifts(partition))


# ---------------------------------------------------------------------------
# verification sweeps: the generating series fixes how H_n depends on u0 and
# eps, so both sweeps assert that structure and then work at u0 = 0, eps = 1


def _term_failure(premise, n, key, coeff, expected=None):
    alpha, beta = key
    entry = {"premise": premise, "n": n,
             "alpha": [list(km) for km in alpha],
             "beta": [list(km) for km in beta],
             "coefficient": coeff.render()}
    if expected is not None:
        entry["expected"] = expected.render()
    return entry


def _u0_expansion(at_zero, n):
    """Coefficients (e, j) -> value of sum_j u0^j / j! X_{n-j}(0), where
    at_zero[i] is the u0-free part {e: value} of X_{i-2}."""
    terms = {}
    for j in range(n + 3):
        for e, v in at_zero[n + 2 - j].items():
            terms[(e, j)] = v if j < 2 else v / factorial(j)
    return terms


def _premise_failures(operators):
    """Entries for every term of `operators` (H_{-1}, H_0, ...) that breaks
    premise (a) or (b)."""
    failures = []
    empty = [{}] * (len(operators) + 1)
    at_zero = {(EMPTY, EMPTY): [{0: Fraction(1)}] + empty[1:]}
    for n, op in enumerate(operators, start=-1):
        for key, c in op.terms.items():
            alpha, beta = key
            length = mono_degree(alpha) + mono_degree(beta)
            if (mono_weight(alpha) != mono_weight(beta)
                    or any(e + u + length != n + 2 for e, u in c.terms)):
                failures.append(_term_failure("grading", n, key, c))
            parts = at_zero.setdefault(key, list(empty))
            parts[n + 2] = {e: v for (e, u), v in c.terms.items() if not u}
    for key, parts in sorted(at_zero.items()):
        for n, op in enumerate(operators, start=-1):
            c = op.terms.get(key, ExactScalar.zero())
            expected = _u0_expansion(parts, n)
            if c.terms != expected:
                failures.append(_term_failure("u0_expansion", n, key, c,
                                              ExactScalar(expected)))
    return failures


@lru_cache(maxsize=None)
def _lowering_factor(rest, beta):
    """p^beta q^(rest + beta) = factor * q^rest at eps = 1."""
    have = dict(rest)
    factor = 1
    for k, b in beta:
        m = have.get(k, 0)
        factor *= k ** b * factorial(m + b) // factorial(m)
    return factor


def _sparse_rows(operators, W):
    """(scales, bases, rows): bases[w] is the monomial basis of V_w, and
    rows[w][i] lists the sparse rows (columns, values) of L_i R_i on V_w,
    with R_i the matrix of operators[i] at u0 = 0, eps = 1 (column mu holds
    the image of q^mu) and L_i = scales[i] the lcm of R_i's denominators."""
    bases = [weight_basis(w) for w in range(W + 1)]
    index = [{m: r for r, m in enumerate(basis)} for basis in bases]
    # products[w][wt][i][j]: the index in V_w of q^rest q^gamma, for rest
    # the i-th monomial of V_(w - wt) and gamma the j-th of V_wt
    products = [[[[index[w][mono_mul(rest, gamma)] for gamma in bases[wt]]
                  for rest in bases[w - wt]] for wt in range(w + 1)]
                for w in range(W + 1)]
    scales = []
    mats = [[[{} for _ in basis] for _ in operators] for basis in bases]
    for i, op in enumerate(operators):
        values = []
        for (alpha, beta), c in op.terms.items():
            v = sum(val for (_, u), val in c.terms.items() if not u)
            wt = mono_weight(beta)
            # a term that changes the weight breaks (a) and is reported there
            if v and wt == mono_weight(alpha) and wt <= W:
                values.append((alpha, beta, wt, v))
        scales.append(lcm(*(v.denominator for *_, v in values)))
        for alpha, beta, wt, v in values:
            v = v.numerator * (scales[i] // v.denominator)
            a, b = index[wt][alpha], index[wt][beta]
            for w in range(wt, W + 1):
                mat = mats[w][i]
                for rest, places in zip(bases[w - wt], products[w][wt]):
                    row = mat[places[a]]
                    row[places[b]] = (row.get(places[b], 0)
                                      + v * _lowering_factor(rest, beta))
    rows = [[[(tuple(row), tuple(row.values())) for row in op_mat]
             for op_mat in mat] for mat in mats]
    return scales, bases, rows


def _schur_vectors(w):
    """(parts, chi, vecs) over the partitions of w: chi[a][b] is the
    character chi^lambda(mu) of lambda = parts[a] at mu = parts[b], and
    vecs[a] is w! s_lambda(q) on the basis of V_w, the integer vector
    chi^lambda(mu) w!/z_mu."""
    parts = partitions_of(w)
    chi = [[character(lam, mu) for mu in parts] for lam in parts]
    weights = [factorial(w) // centralizer_size(mu) for mu in parts]
    return parts, chi, [list(map(mul, row, weights)) for row in chi]


def _basis_failures(w, parts, chi, vecs):
    """Entries for every pair lambda <= nu of partitions of w that breaks
    sum_mu chi^lambda(mu) (w!/z_mu) chi^nu(mu) = w! delta; these
    orthogonality relations make the vectors w! s_lambda a basis of V_w."""
    failures = []
    for a, vec in enumerate(vecs):
        for b in range(a, len(vecs)):
            product = sum(map(mul, vec, chi[b]))
            expected = factorial(w) if a == b else 0
            if product != expected:
                failures.append({"premise": "basis", "weight": w,
                                 "partitions": [list(parts[a]),
                                                list(parts[b])],
                                 "product": product, "expected": expected})
    return failures


def _render_at_unit(basis, values, scale):
    """The vector `values` / `scale` on `basis` as a rendered polynomial."""
    return FockPolynomial({
        m: ExactScalar.from_rational(Fraction(x, scale))
        for m, x in zip(basis, values) if x}).render()


def _schur_sweep(operators, W, eigenvalues=None):
    """(failures, basis_dims, checked): test R_i v = e v as the integer
    vector x den - num y, e = num / den, for R_i the matrix of operators[i]
    at u0 = 0, eps = 1 and v = w! s_lambda(q), w <= W.  With `eigenvalues`
    None, e is read off the pivot (first nonzero entry) of v and premise (c)
    is asserted; else eigenvalues(lambda) gives (entries for lambda's broken
    eigenvalue premises, the eigenvalue of each R_i).  A failure gives
    R_i s - e s at u0 = 0, eps = 1 as "difference"."""
    scales, bases, rows = _sparse_rows(operators, W)
    failures = []
    checked = 0
    for w, basis in enumerate(bases):
        parts, chi, vecs = _schur_vectors(w)
        if eigenvalues is None:
            failures += _basis_failures(w, parts, chi, vecs)
        for lam, vec in zip(parts, vecs):
            if eigenvalues is not None:
                entries, values = eigenvalues(lam)
                failures += entries
            p = next((r for r, x in enumerate(vec) if x), 0)
            for i, op_rows in enumerate(rows[w]):
                checked += 1
                image = [sum(map(mul, vals, map(vec.__getitem__, cols)))
                         for cols, vals in op_rows]
                if eigenvalues is None:
                    num, den = image[p], vec[p]
                else:
                    e = values[i] * scales[i]
                    num, den = e.numerator, e.denominator
                diff = [x * den - num * y for x, y in zip(image, vec)]
                if any(diff):
                    where = ({"n": i - 1, "weight": w} if eigenvalues is None
                             else {"k": i - 1})
                    failures.append({**where, "partition": list(lam),
                                     "difference": _render_at_unit(
                                         basis, diff,
                                         scales[i] * den * factorial(w))})
    return failures, [len(basis) for basis in bases], checked


def verify_commutativity(N, W, operators=None):
    """Check [H_n, H_m] = 0 exactly on every monomial of weight <= W for
    -1 <= n < m <= N, with symbolic u0 and eps.

    Three premises are asserted on every run; a break is a failure entry
    with a "premise" key:
      (a) grading: every term c u0^a eps^b q^alpha p^beta of H_n has
          wt(alpha) = wt(beta) and a + b + l(alpha) + l(beta) = n + 2;
      (b) u0 expansion: H_n(u0) = sum_j u0^j / j! H_{n-j}(0), with
          H_{-2}(0) = Id;
      (c) basis: the integer vectors w! s_lambda(q) = chi^lambda(mu) w!/z_mu
          span V_w, w <= W, by the orthogonality of the character table.
    By (a), H_n(0) acts on V_w as eps^(n+2) D^-1 R_n D, with
    D = diag(eps^l(mu)) and R_n H_n's matrix at u0 = 0, eps = 1; by (b), the
    H_n(u0) commute exactly when the H_n(0) do; by (c), the R_n commute on
    V_w when every w! s_lambda is an eigenvector of every R_n, with the
    eigenvalue read off a pivot entry of the vector.
    """
    if N < 0:
        raise ValueError("commutativity needs N >= 0 (at least one pair)")
    if operators is None:
        operators = hamiltonian_generating_coefficients(N, W)
    premises = _premise_failures(operators)  # first: a lower peak RSS
    failures, basis_dims, _ = _schur_sweep(operators, W)
    return {"pairs_checked": len(operators) * (len(operators) - 1) // 2,
            "weight_bound": W, "failures": premises + failures,
            "operator_terms": sum(len(op.terms) for op in operators),
            "basis_dims": basis_dims}


def _eigenvalue_premise_failures(partition, values):
    """Entries for every E_k(lambda) in `values` (k = -1 ..) that is not
    homogeneous of degree k + 2 in (u0, eps) or breaks
    E_k = sum_j u0^j / j! E_{k-j}(0), E_{-2} = 1."""
    failures = []
    at_zero = [{0: Fraction(1)}]
    for k, value in enumerate(values, start=-1):
        at_zero.append({e: v for (e, u), v in value.terms.items() if not u})
        if any(e + u != k + 2 for e, u in value.terms):
            failures.append({"premise": "eigenvalue_grading", "k": k,
                             "partition": list(partition),
                             "eigenvalue": value.render()})
        expected = _u0_expansion(at_zero, k)
        if value.terms != expected:
            failures.append({"premise": "eigenvalue_u0_expansion", "k": k,
                             "partition": list(partition),
                             "eigenvalue": value.render(),
                             "expected": ExactScalar(expected).render()})
    return failures


def verify_eigenvectors(K, W, operators=None):
    """Check H_k s_lambda(q/eps) = E_k(lambda) s_lambda(q/eps) exactly for
    all |lambda| <= W and k <= K, with E_k from the closed Bernoulli form.

    Premises (a) grading and (b) u0 expansion are asserted on `operators`
    as in `verify_commutativity`, and their analogues on each E_k(lambda):
    it is homogeneous of degree k + 2 in (u0, eps), and
    E_k = sum_j u0^j / j! E_{k-j}(0) with E_{-2} = 1.  Under them the
    identity holds exactly when R_k s_lambda(q) = e_k(lambda) s_lambda(q),
    with R_k H_k's matrix at u0 = 0, eps = 1 and e_k(lambda) the eps^(k+2)
    coefficient of E_k(lambda).  The sweep is that of
    `verify_commutativity`, with e_k(lambda) in place of the pivot's ratio.
    """
    if K < 0:
        raise ValueError("the eigen check needs K >= 0: H_{-1} = u0 Id "
                         "fixes every vector")
    if operators is None:
        operators = hamiltonian_generating_coefficients(K, W)

    def eigenvalues(lam):
        values = [eigenvalue_closed_form(k, lam) for k in range(-1, K + 1)]
        return (_eigenvalue_premise_failures(lam, values),
                [value.terms.get((k + 2, 0), Fraction(0))
                 for k, value in enumerate(values, start=-1)])

    premises = _premise_failures(operators)
    failures, basis_dims, checked = _schur_sweep(operators[:K + 2], W,
                                                 eigenvalues)
    return {"pairs_checked": checked, "weight_bound": W,
            "failures": premises + failures,
            "operator_terms": sum(len(op.terms) for op in operators),
            "basis_dims": basis_dims}
