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
is built once, on its even powers, in integers over one common denominator,
and `scalars.lift` adds u0, eps and the denominator back once per multiset
and alpha! beta!.  The eigenvalues
E_k(lambda) on the scaled Schur basis have the same shape, e^{z u0} G(eps z),
and `eigenvalue_series` lifts them all from one G; the Bernoulli-sum forms
it is compared with are oracles in `tests/oracles.py`.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import factorial, gcd, inf, lcm, prod
from operator import itemgetter, lshift, mul

from .fock import (EMPTY, FockPolynomial, NormalOrderedOperator,
                   _lowering_factor, mono_degree, mono_from_partition,
                   mono_mul, mono_weight, weight_basis)
from .partitions import partitions_of
from .scalars import (ExactScalar, _numerators, add_into,
                      eigenvalue_inner_series, inv_s_series, lift, s_series)
from .schur import centralizer_size, character_table


def _mode_series(modes, top, s_even, memo):
    """The t^(2m) coefficients of g(t) = (1/s(t)) prod_{k in modes} s(k t)
    up to t^(top - len(modes)), for a sorted tuple of modes, as integers
    over 1/s(t)'s denominator times s(t)'s to the power len(modes): one
    factor s(k t), whose t^(2m) numerator s_even[k][m] is k^(2m) times
    s_2m's, per occurrence of k.  g is even, so its odd coefficients are
    never formed.  memo maps each tuple already done to its list, and () to
    1/s(t)'s."""
    if modes not in memo:
        prev = _mode_series(modes[:-1], top, s_even, memo)
        factor = s_even[modes[-1]][:(top - len(modes)) // 2 + 1]
        memo[modes] = [sum(map(mul, prev, factor[m::-1]))
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
    s_nums, s_den = _numerators(s[::2])
    inv_nums, inv_den = _numerators(inv[::2])
    s_even = [[c * k ** (2 * m) for m, c in enumerate(s_nums)]
              for k in range(max_weight + 1)]
    memo = {(): inv_nums}
    ops = [{} for _ in ns]
    shared = {}  # (modes, alpha! beta!) -> [(terms of H_n, coefficient)]
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
                    g[::2] = _mode_series(key[0], top, s_even, memo)
                    den = inv_den * s_den ** length * key[1]
                    # z^length g(eps z) has no z^(n+2) below n = length - 2
                    first = max(length - 2 - ns.start, 0)
                    shared[key] = [
                        (terms, coeff) for terms, coeff in zip(
                            ops[first:], (lift(g, length, n, den)
                                          for n in ns[first:]))
                        if coeff.terms]
                for terms, coeff in shared[key]:
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


# ---------------------------------------------------------------------------
# verification: the generating series fixes how H_n depends on u0 and eps,
# so both verifiers assert that structure, then sweep at u0 = 0, eps = 1


def _is_antiderivative(x, below):
    """Whether d/du0 x = below, by cross-multiplying the numerators and
    denominators of matching terms; no Fraction is formed."""
    terms = x.terms
    for (e, u), v in below.terms.items():
        y = terms.get((e, u + 1))
        if y is None or (y.numerator * v.denominator * (u + 1)
                         != v.numerator * y.denominator):
            return False
    return sum(1 for _, u in terms if u) == len(below.terms)


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
        if not (x.terms or below.terms):  # 0 links to 0
            continue
        d = n + 2 - length
        if any(e + u != d for e, u in x.terms):
            failures.append(("grading", n, {}))
        if not _is_antiderivative(x, below):
            expected = {key: v for key, v in x.terms.items() if not key[1]}
            for (e, u), v in below.terms.items():
                expected[(e, u + 1)] = v / (u + 1)
            failures.append(("u0_expansion", n, {
                "expected": ExactScalar(expected).render()}))
        below = x
    return failures


def _premise_failures(operators, W, count):
    """(entries, scales, by_weight) from one walk over the terms of
    `operators` (H_{-1}, H_0, ...).  entries: every term that breaks
    premise (a) or (b), from `_lift_failures` on each (alpha, beta) chain,
    with no grade fitting a term of wt(alpha) != wt(beta), the rest of (a).
    by_weight[wt][beta][alpha] lists (i, value) over the i < count with a
    nonzero value of operators[i] at u0 = 0, eps = 1 (the sum of its
    u0-free terms), for wt(alpha) = wt(beta) = wt <= W; L_i = scales[i]
    is the lcm of those values' denominators.  Pairs with the same modes
    and alpha! beta! share their coefficient objects, so a chain is read
    once per chain of objects, length and base case (identity or not), and
    only the broken pairs are sorted."""
    zero, one = ExactScalar.zero(), ExactScalar.one()
    identity = (EMPTY, EMPTY)
    chains = {identity: [zero] * len(operators)}
    for i, op in enumerate(operators):
        for pair, c in op.terms.items():
            chain = chains.get(pair)
            if chain is None:
                chain = chains[pair] = [zero] * len(operators)
            chain[i] = c
    shapes = {m: (mono_weight(m), mono_degree(m))
              for m in {m for pair in chains for m in pair}}
    memo, broken = {}, []
    by_weight = [defaultdict(dict) for _ in range(W + 1)]
    denominators = [set() for _ in range(count)]
    for pair, chain in chains.items():
        (wa, la), (wb, lb) = shapes[pair[0]], shapes[pair[1]]
        length = la + lb if wa == wb else inf
        below = one if pair == identity else zero
        # chains holds every object keyed, so no id is reused meanwhile
        key = (*map(id, chain), length, below is one)
        found = memo.get(key)
        if found is None:
            values = []
            for i, c in enumerate(chain[:count]):
                if not c.terms:  # no term of operators[i] at this pair
                    continue
                # generated coefficients have one u0-free term, no sum
                free = [v for (_, u), v in c.terms.items() if not u]
                v = free[0] if len(free) == 1 else sum(free)
                if v:
                    values.append((i, v))
            found = memo[key] = _lift_failures(chain, length, below), values
        failures, values = found
        if failures:
            broken.append((pair, chain, failures))
        # a term that changes the weight breaks (a) and is reported there
        if values and wa == wb <= W:
            by_weight[wa][pair[1]][pair[0]] = values
            for i, v in values:
                denominators[i].add(v.denominator)
    broken.sort(key=itemgetter(0))
    entries = [{"premise": premise, "n": n,
                "alpha": [list(km) for km in alpha],
                "beta": [list(km) for km in beta],
                "coefficient": chain[n + 1].render(), **extra}
               for (alpha, beta), chain, failures in broken
               for premise, n, extra in failures]
    return entries, [lcm(*dens) for dens in denominators], by_weight


def _sparse_rows(scales, by_weight):
    """(bases, rows): bases[w] is the monomial basis of V_w, and rows[w][i]
    lists the sparse rows (columns, values) of L_i R_i on V_w, with R_i the
    matrix of the values by_weight[wt][beta][alpha] of operator i (column
    mu holds the image of q^mu) and L_i = scales[i].  The lowering factor
    and the column of each (beta, rest) serve every alpha and operator that
    has that beta; one weight is built at a time."""
    bases = [weight_basis(w) for w in range(len(by_weight))]
    index = [{m: r for r, m in enumerate(basis)} for basis in bases]
    # per weight: (beta, its index, [(alpha's index, [(i, L_i value)])])
    terms = [[(beta, index[wt][beta], [
        (index[wt][alpha], [(i, v.numerator * (scales[i] // v.denominator))
                            for i, v in values])
        for alpha, values in alphas.items()])
        for beta, alphas in group.items()]
        for wt, group in enumerate(by_weight)]
    rows = []
    for w, basis in enumerate(bases):
        mat = [[defaultdict(int) for _ in basis] for _ in scales]
        for wt, betas in enumerate(terms[:w + 1]):
            rests = bases[w - wt]
            # the index in V_w of q^rest q^gamma, per rest, per gamma in V_wt
            products = [[index[w][mono_mul(rest, gamma)]
                         for gamma in bases[wt]] for rest in rests]
            for beta, b, alphas in betas:
                for rest, places in zip(rests, products):
                    factor = _lowering_factor(rest, beta)
                    col = places[b]
                    for a, values in alphas:
                        r = places[a]
                        for i, v in values:
                            mat[i][r][col] += v * factor
        rows.append([[(tuple(row), tuple(row.values())) for row in op_mat]
                     for op_mat in mat])
    return bases, rows


def _schur_vectors(w):
    """(parts, chi, vecs) over the partitions of w: chi[a][b] is the
    character chi^lambda(mu) of lambda = parts[a] at mu = parts[b], and
    vecs[a] is w! s_lambda(q) on the basis of V_w, the integer vector
    chi^lambda(mu) w!/z_mu."""
    parts = partitions_of(w)
    chi = character_table(w)[1]
    weights = [factorial(w) // centralizer_size(mu) for mu in parts]
    return parts, chi, [list(map(mul, row, weights)) for row in chi]


def _digit_bits(bound):
    """The width B for digits of magnitude <= bound: each is below 2^(B-2)."""
    return bound.bit_length() + 2


def _pack(digits, shifts):
    """sum_l digits[l] 2^shifts[l]: the digits Kronecker-packed in one int."""
    return sum(map(lshift, digits, shifts))


def _unpack(x, bits, count):
    """The `count` signed digits d_l of x = sum_l d_l 2^(bits l), lowest
    first, each |d_l| < 2^(bits-1): adding 2^(bits-1) to every digit makes
    them all lie in [0, 2^bits), so they are read off as plain bit fields."""
    half, mask = 1 << bits - 1, (1 << bits) - 1
    x += half * (((1 << bits * count) - 1) // mask)
    return [(x >> bits * l & mask) - half for l in range(count)]


def _dot(row, packed):
    """The sparse row (columns, values) times the vector `packed`."""
    cols, vals = row
    return sum(map(mul, vals, map(packed.__getitem__, cols)))


def _basis_failures(w, parts, chi, vecs, packed, shifts):
    """Entries for every pair lambda <= nu of partitions of w that breaks
    sum_mu chi^lambda(mu) (w!/z_mu) chi^nu(mu) = w! delta; these
    orthogonality relations make the vectors w! s_lambda a basis of V_w.
    sum_mu chi^lambda(mu) packed[mu] packs lambda's products with every nu
    (the products are symmetric in lambda, nu), so only a row that differs
    from w! 2^shifts[lambda] is taken apart."""
    failures = []
    for a, vec in enumerate(vecs):
        if sum(map(mul, chi[a], packed)) == factorial(w) << shifts[a]:
            continue
        for b in range(a, len(vecs)):
            product = sum(map(mul, vec, chi[b]))
            expected = factorial(w) if a == b else 0
            if product != expected:
                failures.append({"premise": "basis", "weight": w,
                                 "partitions": [list(parts[a]),
                                                list(parts[b])],
                                 "product": product, "expected": expected})
    return failures


def _matrix_failures(w, basis, parts, vecs, images, scale, ratios, where):
    """(lambda's index, entry) for each v = vecs[lambda] with A v != e v,
    from the images A v of A = scale R and e = num / den, (num, den) =
    ratios[lambda]: `where` with lambda and R s - (e / scale) s at u0 = 0,
    eps = 1 as "difference", s = v / w!."""
    for a, (vec, image, (num, den)) in enumerate(zip(vecs, images, ratios)):
        diff = [x * den - num * y for x, y in zip(image, vec)]
        if any(diff):
            whole = scale * den * factorial(w)
            yield a, {**where, "partition": list(parts[a]),
                      "difference": FockPolynomial({
                          m: ExactScalar.from_rational(Fraction(x, whole))
                          for m, x in zip(basis, diff) if x}).render()}


def _schur_sweep(scales, bases, rows, eigenvalues=None):
    """(failures, basis_dims): for every v = w! s_lambda(q) on bases[w] and
    every A = rows[w][i] = L_i R_i (R_i an operator's matrix at u0 = 0,
    eps = 1, L_i = scales[i]), read e = (A v)_p / v_p at v's pivot p, its
    last nonzero entry (dim lambda at q_1^w), and test A v = e v.  When
    eigenvalues(lambda) gives (entries for lambda's broken eigenvalue
    premises, e_i(lambda) per i), also test e = L_i e_i(lambda) by
    cross-multiplication; without it, premise (c) is asserted instead.  A
    failure gives R_i s - (e / L_i) s at u0 = 0, eps = 1 as "difference",
    with the e the check tested: the read one, or L_i e_i(lambda).

    The vectors of one weight are checked together, by Kronecker
    substitution.  The digits of A V, V_c = sum_lambda v_lambda[c]
    2^(B lambda), are the (A v_lambda)_j, at most S M for S the largest row
    sum of |A| on V_w and M the largest |v_lambda[c]|: the pivot row's dot
    product reads every ratio, and a failing (w, i) is unpacked into the
    images A v_lambda.  The basis check is packed on V too, with digits at
    most (max|chi|^2 + 1) w!, as sum_mu w!/z_mu = w!.  With lambda's ratios
    written num_lambda / den_lambda over one den_lambda for every operator,
      U_c = sum_lambda den_lambda v_lambda[c] 2^(C lambda),
      T_j = sum_lambda num_lambda v_lambda[j] 2^(C lambda),
    and (A U)_j - T_j = sum_lambda d_lambda 2^(C lambda), whose digits
    d_lambda = den_lambda (A v_lambda)_j - num_lambda v_lambda[j] are at
    most (|den_lambda| S + |num_lambda|) M; U is packed once per weight.  B
    and C are two bits wider than their bounds, and a sum of d_l 2^(C l)
    with every |d_l| < 2^(C-1) vanishes only when every d_l does, as its
    top nonzero term outweighs the rest.  So A U = T exactly when every
    A v_lambda = e_lambda v_lambda.  Every row with v_lambda[j] != 0 gives
    the same verdict, so the entries, in their order (per weight, per
    lambda: eigenvalue premises, then R_0, R_1, ...), are those of the
    vector-by-vector sweep."""
    failures = []
    for w, basis in enumerate(bases):
        parts, chi, vecs = _schur_vectors(w)
        count = len(parts)
        cols = list(zip(*vecs))  # cols[c][lambda] = vecs[lambda][c]
        size = max(max(map(abs, col)) for col in cols)
        width = max((sum(map(abs, vals)) for op_rows in rows[w]
                     for _, vals in op_rows), default=0)
        top = max(abs(x) for row in chi for x in row)
        bits = _digit_bits(max(width * size, (top * top + 1) * factorial(w)))
        shifts = range(0, bits * count, bits)
        packed = [_pack(col, shifts) for col in cols]
        if eigenvalues is None:
            failures += _basis_failures(w, parts, chi, vecs, packed, shifts)
        premises, values = (zip(*map(eigenvalues, parts)) if eigenvalues
                            else ([[]] * count, None))
        pivots = [max((r for r, x in enumerate(vec) if x), default=0)
                  for vec in vecs]
        reads = [{r: _unpack(_dot(op_rows[r], packed), bits, count)
                  for r in set(pivots)} for op_rows in rows[w]]
        # per lambda, its ratios over one denominator v_p / g, g the gcd of
        # v_p and every (A v)_p (1 when all are 0, as for v = 0)
        heads = [[read[r][a] for read in reads] for a, r in enumerate(pivots)]
        gcds = [gcd(v[r], *h) or 1 for v, r, h in zip(vecs, pivots, heads)]
        nums = [[x // g for x in h] for h, g in zip(heads, gcds)]
        dens = [v[r] // g for v, r, g in zip(vecs, pivots, gcds)]
        u_bits = _digit_bits(size * max(
            abs(den) * width + max(map(abs, row), default=0)
            for row, den in zip(nums, dens)))
        u_shifts = range(0, u_bits * count, u_bits)
        scaled = [_pack(map(mul, dens, col), u_shifts) for col in cols]
        broken = [[] for _ in parts]  # per lambda, for R_0, R_1, ...
        for i, (op_rows, row_nums) in enumerate(zip(rows[w], zip(*nums))):
            read = list(zip(row_nums, dens))
            tested = [(scales[i] * e[i].numerator, e[i].denominator)
                      for e in values] if eigenvalues else read
            targets = [_pack(map(mul, row_nums, col), u_shifts)
                       for col in cols]
            if (all(x * d == n * y for (x, y), (n, d) in zip(read, tested))
                    and [_dot(row, scaled) for row in op_rows] == targets):
                continue
            images = zip(*(_unpack(_dot(row, packed), bits, count)
                           for row in op_rows))
            where = {"k": i - 1} if eigenvalues else {"n": i - 1, "weight": w}
            for a, entry in _matrix_failures(w, basis, parts, vecs, images,
                                             scales[i], tested, where):
                broken[a].append(entry)
        for entries, more in zip(premises, broken):
            failures += entries + more
    return failures, [len(basis) for basis in bases]


def _verify(operators, W, count, eigenvalues=None):
    """Both verifiers' report: every operator's premise entries, then the
    Schur sweep of the first `count` to weight W, from one term walk."""
    premises, scales, by_weight = _premise_failures(operators, W, count)
    failures, basis_dims = _schur_sweep(
        scales, *_sparse_rows(scales, by_weight), eigenvalues)
    return {"pairs_checked": count * sum(basis_dims), "weight_bound": W,
            "failures": premises + failures,
            "operator_terms": sum(len(op.terms) for op in operators),
            "basis_dims": basis_dims}


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
    report = _verify(operators, W, len(operators))
    report["pairs_checked"] = len(operators) * (len(operators) - 1) // 2
    return report


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
    `verify_commutativity`, plus a comparison of each ratio it reads with
    e_k(lambda).
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

    return _verify(operators, W, min(K + 2, len(operators)), eigenvalues)
