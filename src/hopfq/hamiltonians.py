"""Commuting quantum Hamiltonians of the quantized Hopf hierarchy.

The generating operator series is

    e^{z u0} / s(eps z) * sum_{(alpha, beta): wt(alpha) = wt(beta)}
        prod_k [z s(eps z k)]^{alpha_k + beta_k} / (alpha_k! beta_k!) q^alpha p^beta,

obtained by pushing s(i eps z d/dx) through the Fourier modes (s is even, so
it acts on e^{+-ikx} as the scalar s(eps z k)) and performing the x-integral
combinatorially.  H_n is the coefficient of z^(n+2).

The coefficient of q^alpha p^beta is e^{z u0} z^(l(alpha) + l(beta)) g(eps z)
/ (alpha! beta!), with g(t) = (1/s(t)) prod_k s(k t)^(alpha_k + beta_k) a
rational even series depending only on the multiset of modes.  So each g
is built once over Q, on its even powers, and `scalars.lift` adds u0 and eps
back once per multiset and alpha! beta!.  The eigenvalues
E_k(lambda) on the scaled Schur basis have the same shape, e^{z u0} G(eps z),
and `eigenvalue_series` lifts them all from one G; the Bernoulli-sum forms
are kept only as the independent oracles the tests compare it with.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, inf, lcm, prod
from operator import mul

from .fock import (EMPTY, FockPolynomial, NormalOrderedOperator, mono_degree,
                   mono_from_partition, mono_mul, mono_weight, weight_basis)
from .partitions import frobenius, partitions_of
from .scalars import (ExactScalar, add_into, bernoulli,
                      eigenvalue_inner_series, inv_s_series, lift, s_series)
from .schur import centralizer_size, character


def _mode_series(modes, top, s_even, memo):
    """The t^(2m) coefficients of g(t) = (1/s(t)) prod_{k in modes} s(k t)
    over Q up to t^(top - len(modes)), for a sorted tuple of modes: one
    factor s(k t), whose t^(2m) coefficient s_even[k][m] is k^(2m) s_2m, per
    occurrence of k.  g is even, so its odd coefficients are never formed.
    memo maps each tuple already done to its list, and () to 1/s(t)'s."""
    if modes not in memo:
        prev = _mode_series(modes[:-1], top, s_even, memo)
        factor = s_even[modes[-1]][:(top - len(modes)) // 2 + 1]
        memo[modes] = [sum(prev[j] * factor[m - j] for j in range(m + 1))
                       for m in range(len(factor))]
    return memo[modes]


def _operators(ns, max_weight):
    """H_n for each n in the range `ns`, truncated to terms of creation
    weight <= max_weight.  The coefficient of q^alpha p^beta depends only
    on the modes of (alpha, beta) as a multiset and on alpha! beta!, so it
    is lifted once per such key and shared by every pair that has it; no
    ExactScalar is mutated in place, so sharing is safe."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    top = ns[-1] + 2  # the highest power of z asked for
    s, inv = s_series(top), inv_s_series(top)
    if any(s[1::2]) or any(inv[1::2]):  # g is built on even powers only
        raise AssertionError("s(t) or 1/s(t) has a nonzero odd coefficient")
    s_even = [[c * k ** (2 * m) for m, c in enumerate(s[::2])]
              for k in range(max_weight + 1)]
    memo = {(): inv[::2]}
    ops = [{} for _ in ns]
    shared = {}  # (modes, alpha! beta!) -> (offset in ns, coefficients)
    for w in range(max_weight + 1):
        monos = []  # (partition, monomial, its factorial) over weight w
        for part in partitions_of(w):
            mono = mono_from_partition(part)
            monos.append((part, mono, prod(factorial(e) for _, e in mono)))
        for ap, alpha, a_fact in monos:
            for bp, beta, b_fact in monos:
                length = len(ap) + len(bp)
                if length > top:
                    continue
                key = tuple(sorted(ap + bp)), a_fact * b_fact
                if key not in shared:
                    g = [0] * (top - length + 1)
                    g[::2] = [c / key[1] for c in
                              _mode_series(key[0], top, s_even, memo)]
                    # z^length g(eps z) has no z^(n+2) below n = length - 2
                    first = max(length - 2 - ns.start, 0)
                    shared[key] = first, [lift(g, length, n)
                                          for n in ns[first:]]
                first, coeffs = shared[key]
                for terms, coeff in zip(ops[first:], coeffs):
                    if coeff:
                        terms[(alpha, beta)] = coeff
    return [NormalOrderedOperator(terms) for terms in ops]


def hamiltonian_generating_coefficients(K, max_weight):
    """The operators H_n for n = -1 .. K, truncated to terms of creation
    weight <= max_weight.  Returned as a list indexed by n + 1."""
    if K < -1:
        raise ValueError("K must be >= -1")
    return _operators(range(-1, K + 1), max_weight)


def hamiltonian(n, max_weight):
    """The single commuting Hamiltonian H_n; only its own coefficient of
    the generating series is lifted."""
    if n < -1:
        raise ValueError("n must be >= -1")
    return _operators(range(n, n + 1), max_weight)[0]


# ---------------------------------------------------------------------------
# eigenvalues


def _content_shifts(partition):
    """Pairs (a_i, b_i) = (lambda_i - i + 1/2, -i + 1/2) over the rows."""
    return [(Fraction(2 * (partition[i - 1] - i) + 1, 2), Fraction(1 - 2 * i, 2))
            for i in range(1, len(partition) + 1)]


def eigenvalue_series(partition, K):
    """{k: E_k} for k = -1 .. K, E(z) = 1 + sum_k E_k z^(k+2), with
    E_k = lift(G, 0, k) from the finite rewriting E(z) = e^{z u0} G(eps z),
    G(t) = 1/s(t) + t sum_i (e^{t a_i} - e^{t b_i})
    (the infinite geometric tail is absorbed into 1/s)."""
    if K < -1:
        raise ValueError("K must be >= -1")
    g = eigenvalue_inner_series(exponential_row_form(partition), K + 2)
    return {k: lift(g, 0, k) for k in range(-1, K + 1)}


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


def _lift_failures(chain, length, below):
    """(premise, n, extra) for each break in `chain` = [X_{-1}, X_0, ...],
    the z^(n+2) coefficients of a series e^{z u0} z^length g(eps z):
      "grading": a term u0^a eps^b of X_n has a + b + length != n + 2;
      "u0_expansion": d/du0 X_n != X_{n-1}, X_{-2} = `below`; extra holds
          the expected X_n(0) + int_0^u0 X_{n-1}.
    Over Q, d/du0 X_n = X_{n-1} for all n is X_n = sum_j u0^j/j! X_{n-j}(0),
    X_{-2}(0) = below: by induction on n, integrate X_{n-1}'s expansion."""
    failures = []
    for n, x in enumerate(chain, start=-1):
        if any(e + u + length != n + 2 for e, u in x.terms):
            failures.append(("grading", n, {}))
        expected = {key: v for key, v in x.terms.items() if not key[1]}
        for (e, u), v in below.terms.items():
            expected[(e, u + 1)] = v / (u + 1)
        if x.terms != expected:
            failures.append(("u0_expansion", n, {
                "expected": ExactScalar(expected).render()}))
        below = x
    return failures


def _premise_failures(operators):
    """Entries for every term of `operators` (H_{-1}, H_0, ...) that breaks
    premise (a) or (b): `_lift_failures` on each (alpha, beta) chain, with
    no grade fitting a term of wt(alpha) != wt(beta), the rest of (a)."""
    failures = []
    zero, one = ExactScalar.zero(), ExactScalar.one()
    keys = set().union(*(op.terms for op in operators), [(EMPTY, EMPTY)])
    for alpha, beta in sorted(keys):
        chain = [op.terms.get((alpha, beta), zero) for op in operators]
        length = (mono_degree(alpha) + mono_degree(beta)
                  if mono_weight(alpha) == mono_weight(beta) else inf)
        below = one if alpha == beta == EMPTY else zero
        failures += [{"premise": premise, "n": n,
                      "alpha": [list(km) for km in alpha],
                      "beta": [list(km) for km in beta],
                      "coefficient": chain[n + 1].render(), **extra}
                     for premise, n, extra in
                     _lift_failures(chain, length, below)]
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
      (b) u0 expansion: d/du0 H_n = H_{n-1}, with H_{-2} = Id, which over
          Q is H_n(u0) = sum_j u0^j / j! H_{n-j}(0) (see `_lift_failures`);
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


def verify_eigenvectors(K, W, operators=None, series=None):
    """Check H_k s_lambda(q/eps) = E_k(lambda) s_lambda(q/eps) exactly for
    all |lambda| <= W and k <= K, E_k from one eigenvalue_series per lambda,
    or from series[lambda] when a map `series` of them is given.

    Premises (a) grading and (b) u0 expansion are asserted on `operators`
    as in `verify_commutativity`, and their analogues on each E_k(lambda):
    it is homogeneous of degree k + 2 in (u0, eps), and
    d/du0 E_k = E_{k-1} with E_{-2} = 1.  Under them the
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
        values = eigenvalue_series(lam, K) if series is None else series[lam]
        chain = list(values.values())
        return ([{"premise": "eigenvalue_" + premise, "k": k,
                  "partition": list(lam), "eigenvalue": chain[k + 1].render(),
                  **extra} for premise, k, extra
                 in _lift_failures(chain, 0, ExactScalar.one())],
                [x.terms.get((k + 2, 0), 0) for k, x in values.items()])

    premises = _premise_failures(operators)
    failures, basis_dims, checked = _schur_sweep(operators[:K + 2], W,
                                                 eigenvalues)
    return {"pairs_checked": checked, "weight_bound": W,
            "failures": premises + failures,
            "operator_terms": sum(len(op.terms) for op in operators),
            "basis_dims": basis_dims}
