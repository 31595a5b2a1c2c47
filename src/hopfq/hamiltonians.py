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
and `scalars.lift` adds u0, eps and the denominator back once per distinct
value: many multisets and alpha! beta! read the same g_0 .. g_d over the
same denominator.  The eigenvalues
E_k(lambda) on the scaled Schur basis have the same shape, e^{z u0} G(eps z),
and `eigenvalue_series` lifts them all from one G; the Bernoulli-sum forms
it is compared with are oracles in `tests/oracles.py`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import factorial, inf, lcm, prod
from operator import add, itemgetter, lshift, mul

from .fock import (EMPTY, FockPolynomial, NormalOrderedOperator,
                   mono_degree, mono_from_partition, mono_weight,
                   weight_basis)
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
    1/s(t)'s.  Past length top - 2 only g_0 is kept, so no prefix is
    needed."""
    if modes not in memo:
        if len(modes) >= top - 1:  # only g_0: the constant terms' product
            memo[modes] = [prod((s_even[k][0] for k in modes),
                                start=memo[()][0])]
        else:
            prev = _mode_series(modes[:-1], top, s_even, memo)
            factor = s_even[modes[-1]][:(top - len(modes)) // 2 + 1]
            memo[modes] = [sum(map(mul, prev, factor[m::-1]))
                           for m in range(len(factor))]
    return memo[modes]


def _code(mono, top):
    """sum_k m_k (top+1)^k for mono = q^m: while no multiplicity exceeds
    top, each is a digit, so the code of a product of monomials is the sum
    of their codes."""
    return sum(m * (top + 1) ** k for k, m in mono)


def _operators(ns, max_weight):
    """H_n for each n in the range `ns`, truncated to terms of creation
    weight <= max_weight.  The coefficient of q^alpha p^beta depends only
    on the modes of (alpha, beta) as a multiset and on alpha! beta!, so it
    is built once per such key and shared by every pair that has it.  Its
    z^(n+2) coefficient depends only on the numerators g_0 .. g_d it reads,
    d = n + 2 - length, and on the denominator, so each such value is lifted
    once and shared by every key that reads it; no ExactScalar is mutated
    in place, so sharing is safe."""
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
    dens = [inv_den * s_den ** length for length in range(top + 1)]
    memo = {(): inv_nums}
    ops = [{} for _ in ns]
    ends = [ops[len(ops) - c:] for c in range(len(ops) + 1)]  # the last c
    shared = {}  # (code of the modes, alpha! beta!) -> the last coefficients
    lifted = {}  # (denominator, g_0 .. g_d) -> the coefficient it lifts to
    for w in range(max_weight + 1):
        # (partition, monomial, its factorial, its `_code` in base top + 1),
        # shortest first: a pair has at most top modes, so the codes of two
        # add as multisets
        monos = sorted(((part, mono, prod(factorial(m) for _, m in mono),
                         _code(mono, top))
                        for part, mono in ((part, mono_from_partition(part))
                                           for part in partitions_of(w))),
                       key=lambda m: len(m[0]))
        # (alpha, beta) and (beta, alpha) share their key, so each
        # unordered pair is looked up once
        for a, (ap, alpha, a_fact, a_code) in enumerate(monos):
            for bp, beta, b_fact, b_code in monos[a:]:
                length = len(ap) + len(bp)
                if length > top:
                    break
                key = a_code + b_code, a_fact * b_fact
                coeffs = shared.get(key)
                if coeffs is None:
                    g = [0] * (top - length + 1)
                    g[::2] = _mode_series(tuple(sorted(ap + bp)), top,
                                          s_even, memo)
                    den = dens[length] * key[1]
                    # z^length g(eps z) has no z^(n+2) below n = length - 2;
                    # from there on g_0 != 0 makes every coefficient nonzero
                    coeffs = shared[key] = []
                    for n in ns[max(length - 2 - ns.start, 0):]:
                        reads = (den, *g[:n + 3 - length])
                        coeff = lifted.get(reads)
                        if coeff is None:
                            coeff = lifted[reads] = lift(g, length, n, den)
                        coeffs.append(coeff)
                pair, mirror = (alpha, beta), (beta, alpha)
                for terms, coeff in zip(ends[len(coeffs)], coeffs):
                    terms[pair] = terms[mirror] = coeff
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


def _lift_failures(chain, length, below, count=0):
    """(failures, values) for `chain` = [X_{-1}, X_0, ...], the z^(n+2)
    coefficients of a series e^{z u0} z^length g(eps z).  failures lists
    (premise, n, extra) for each break:
      "grading": a term u0^a eps^b of X_n has a + b + length != n + 2;
      "u0_expansion": d/du0 X_n != X_{n-1}, X_{-2} = `below`; extra holds
          the expected X_n(0) + int_0^u0 X_{n-1}.
    values lists (i, X_{i-1} at u0 = 0, eps = 1) for each i < count where
    it is nonzero: the sum of X's u0-free terms, which is its one term
    eps^(n+2-length) when X is graded.
    Over Q, d/du0 X_n = X_{n-1} for all n is X_n = sum_j u0^j/j! X_{n-j}(0),
    X_{-2}(0) = below: by induction on n, integrate X_{n-1}'s expansion.
    The derivative is compared term by term, by cross-multiplying
    numerators and denominators, with no Fraction formed."""
    failures, values = [], []
    low = below.terms
    d = 1 - length  # n + 2 - length at n = -1
    for i, x in enumerate(chain):
        terms = x.terms
        if terms or low:  # 0 links to 0
            graded = True
            for e, u in terms:
                if e + u != d:
                    graded = False
                    failures.append(("grading", i - 1, {}))
                    break
            # d/du0 x = below: each term of below is the derivative of a
            # term of x, and x has no other term with a u0
            free = ((d, 0) in terms if graded
                    else sum(1 for _, u in terms if not u))
            linked = len(terms) - free == len(low)
            if linked:
                for (e, u), v in low.items():
                    y = terms.get((e, u + 1))
                    if y is None or (y.numerator * v.denominator * (u + 1)
                                     != v.numerator * y.denominator):
                        linked = False
                        break
            if not linked:
                expected = {key: v for key, v in terms.items() if not key[1]}
                for (e, u), v in low.items():
                    expected[(e, u + 1)] = v / (u + 1)
                failures.append(("u0_expansion", i - 1, {
                    "expected": ExactScalar(expected).render()}))
            if i < count:
                v = (terms.get((d, 0)) if graded else
                     sum(v for (_, u), v in terms.items() if not u))
                if v:
                    values.append((i, v))
        low = terms
        d += 1
    return failures, values


def _premise_failures(operators, W, count):
    """(entries, scales, by_weight) from one walk over the terms of
    `operators` (H_{-1}, H_0, ...).  entries: every term that breaks
    premise (a) or (b), from `_lift_failures` on each (alpha, beta) chain,
    with no grade fitting a term of wt(alpha) != wt(beta), the rest of (a).
    by_weight[wt] maps the `_code` of beta to (beta, the codes of its
    alphas, their values) for wt(alpha) = wt(beta) = wt <= W, values
    listing (i, L_i v) over the i < count with a nonzero value v of
    operators[i] at u0 = 0, eps = 1; L_i = scales[i] is the lcm of the
    denominators of those v.
    The chains are lined up by merging the term maps, whose keys keep their
    hashes; a monomial's weight, degree and code are found by its id.
    Pairs with the same modes and alpha! beta! share their coefficient
    objects, so a chain is read, and its values scaled to integers, once
    per chain of objects and length (0 only for the identity, whose chain
    is based on Id), and only the broken pairs are sorted."""
    zero, one = ExactScalar.zero(), ExactScalar.one()
    terms = [op.terms for op in operators]
    pairs = {(EMPTY, EMPTY): zero}
    for t in terms:
        pairs.update(t)
    pairs = dict.fromkeys(pairs, zero)
    columns = [{**pairs, **t}.values() for t in terms]
    chains = zip(zip(*columns), zip(*(map(id, col) for col in columns)))
    shapes = {}  # id of a monomial -> (its weight, degree, code)
    for pair in pairs:
        for m in pair:
            if id(m) not in shapes:
                shapes[id(m)] = mono_weight(m), mono_degree(m), _code(m, W)
    memo, broken, swept = {}, [], {}
    by_weight = [{} for _ in range(W + 1)]
    for pair, (chain, ids) in zip(pairs, chains):
        alpha, beta = pair
        wa, la, a = shapes[id(alpha)]
        wb, lb, b = shapes[id(beta)]
        length = la + lb if wa == wb else inf
        key = ids, length  # the operators keep every keyed object alive
        found = memo.get(key)
        if found is None:
            found = memo[key] = _lift_failures(
                chain, length, zero if length else one, count)
        failures, values = found
        if failures:
            broken.append((pair, chain, failures))
        # a term that changes the weight breaks (a) and is reported there
        if values and wa == wb <= W:
            group = by_weight[wa].get(b)
            if group is None:
                group = by_weight[wa][b] = beta, [], []
            group[1].append(a)
            group[2].append(values)
            swept[id(values)] = values
    denominators = [set() for _ in range(count)]
    for values in swept.values():
        for i, v in values:
            denominators[i].add(v.denominator)
    scales = [lcm(*dens) for dens in denominators]
    for values in swept.values():  # in place: by_weight holds these lists
        values[:] = [(i, v.numerator * (scales[i] // v.denominator))
                     for i, v in values]
    broken.sort(key=itemgetter(0))
    entries = [{"premise": premise, "n": n,
                "alpha": [list(km) for km in alpha],
                "beta": [list(km) for km in beta],
                "coefficient": chain[n + 1].render(), **extra}
               for (alpha, beta), chain, failures in broken
               for premise, n, extra in failures]
    return entries, scales, by_weight


def _sparse_rows(scales, by_weight):
    """(bases, rows): bases[w] is the monomial basis of V_w, and rows[w][i]
    is None when operator i has no value on V_w, else the sparse rows
    (columns, values) of L_i R_i on V_w, with R_i the matrix of the values
    in by_weight (column mu holds the image of q^mu), already scaled by
    L_i = scales[i].  Monomials are found by `_code`, in base W + 1 as no
    multiplicity at weight <= W exceeds W, so q^rest q^gamma is found by
    the sum of the codes.  p^beta q^(rest + beta) = f q^rest at eps = 1,
    f = prod_k k^b (m + b)! / m! with m, b the multiplicities of k in rest
    and beta: the ratio z_(rest + beta) / z_rest of the centralizer sizes
    z = prod_k k^m m!.  f and the column of each (beta, rest) serve every
    alpha and operator that has that beta; one weight is built at a
    time."""
    W = len(by_weight) - 1
    bases = [weight_basis(w) for w in range(W + 1)]
    # (code, z) per monomial, z = prod_k k^m m! its centralizer size
    rests = [[(_code(m, W), centralizer_size(mu))
              for m, mu in zip(basis, partitions_of(w))]
             for w, basis in enumerate(bases)]
    # per weight, the operators with a value there
    ops = [{i for _, _, lists in group.values() for values in lists
            for i, _ in values} for group in by_weight]
    rows, active = [], set()
    for w, basis in enumerate(bases):
        index = {code: r for r, (code, _) in enumerate(rests[w])}
        zs = [z for _, z in rests[w]]
        active |= ops[w]
        mat = [[{} for _ in basis] if i in active else None
               for i in range(len(scales))]
        for wt, group in enumerate(by_weight[:w + 1]):
            for b, (beta, codes, lists) in group.items():
                for rest, z in rests[w - wt]:
                    col = index[rest + b]
                    f = zs[col] // z
                    for a, values in zip(codes, lists):
                        r = index[rest + a]
                        for i, v in values:
                            row = mat[i][r]
                            row[col] = row.get(col, 0) + v * f
        rows.append([op_mat and [(tuple(row), tuple(row.values()))
                                 for row in op_mat] for op_mat in mat])
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


def _pack(vectors, weights, bits):
    """[sum_l v[l] w[l] 2^(bits l) for v in vectors], w = weights: the
    products v[l] w[l] of each vector Kronecker-packed in one int.  The
    weights are shifted once, w[l] 2^(bits (l mod 32)), and each block of
    32 products is one dot product with them, shifted into place: every
    product is added into a sum of at most 32 digits, where one growing
    sum over all the digits made the time quadratic in their number; only
    the one join per block still grows."""
    shifted = list(map(lshift, weights, [bits * (l % 32)
                                         for l in range(len(weights))]))
    packed = [0] * len(vectors)
    for start in range(0, len(weights), 32):
        block = shifted[start:start + 32]
        packed = list(map(add, packed, map(lshift, [
            sum(map(mul, v[start:start + 32], block)) for v in vectors],
            repeat(bits * start))))
    return packed


def _unpack(x, bits, count):
    """The `count` signed digits d_l of x = sum_l d_l 2^(bits l), lowest
    first, each |d_l| < 2^(bits-1): adding 2^(bits-1) to every digit makes
    them all lie in [0, 2^bits), so they are read off as plain bit fields."""
    half, mask = 1 << bits - 1, (1 << bits) - 1
    x += half * (((1 << bits * count) - 1) // mask)
    return [(x >> bits * l & mask) - half for l in range(count)]


def _basis_failures(w, parts, chi, vecs, packed, heads, bits):
    """Entries for every pair lambda <= nu of partitions of w that breaks
    sum_mu chi^lambda(mu) (w!/z_mu) chi^nu(mu) = w! delta; these
    orthogonality relations make the vectors w! s_lambda a basis of V_w.
    sum_mu chi^lambda(mu) packed[mu] packs lambda's products with every nu,
    each times d_nu = heads[nu] (the products are symmetric in lambda, nu),
    so only a row that differs from w! d_lambda 2^(bits lambda) is taken
    apart."""
    failures = []
    for a, vec in enumerate(vecs):
        if (sum(map(mul, chi[a], packed))
                == factorial(w) * heads[a] << bits * a):
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
    every A = L_i R_i with rows rows[w][i] (R_i an operator's matrix at
    u0 = 0, eps = 1, L_i = scales[i]), read e = (A v)_p / v_p at v's pivot
    p, its last nonzero entry (dim lambda at q_1^w), and test A v = e v.
    When eigenvalues(lambda) gives (entries for lambda's broken eigenvalue
    premises, e_i(lambda) per i), also test e = L_i e_i(lambda) by
    cross-multiplication; without it, premise (c) is asserted instead.  A
    failure gives R_i s - (e / L_i) s at u0 = 0, eps = 1 as "difference",
    with the e the check tested: the read one, or L_i e_i(lambda).

    The vectors of one weight are checked together, by Kronecker
    substitution, on one packed vector per weight,
      U_c = sum_lambda d_lambda v_lambda[c] 2^(B lambda),
    d_lambda = v_lambda[p] (1 for v_lambda = 0).  The digits of (A U)_j
    are d_lambda (A v_lambda)_j, at most D S M, with D the largest
    |d_lambda|, S the largest row sum of |A| on V_w and M the largest
    |v_lambda[c]|; the pivot row p of lambda reads h_lambda =
    (A v_lambda)_p, and e_lambda = h_lambda / d_lambda.  Every eigenvalue
    of A is at most S, so |h_lambda| > |d_lambda| S makes v_lambda fail
    at once.  Otherwise, with
      T_j = sum_lambda h_lambda v_lambda[j] 2^(B lambda),
    (A U)_j - T_j has the digits d_lambda (A v_lambda)_j - h_lambda
    v_lambda[j], at most 2 D S M, and zero for every j exactly when
    A v_lambda = e_lambda v_lambda.  The basis check reads the same U:
    sum_c chi^nu(c) U_c has the digits d_lambda <chi^nu, v_lambda>, to be
    w! d_nu at lambda = nu and 0 elsewhere, which differ from them by at
    most D (max|chi|^2 + 1) w!, as sum_mu w!/z_mu = w!.  B is two bits
    wider than these bounds, and a sum of d_l 2^(B l) with every
    |d_l| < 2^(B-1) vanishes only when every d_l does, as its top nonzero
    term outweighs the rest.  So A U = T exactly when every A v_lambda =
    e_lambda v_lambda, and a failing (w, i) is unpacked into the images
    A v_lambda.  An operator with no rows on V_w has A v = 0 for every v
    and forms no product; only its tested eigenvalues are compared.  Every
    row with v_lambda[j] != 0 gives the same verdict, so the entries, in
    their order (per weight, per lambda: eigenvalue premises, then R_0,
    R_1, ...), are those of the vector-by-vector sweep."""
    failures = []
    for w, basis in enumerate(bases):
        parts, chi, vecs = _schur_vectors(w)
        count = len(parts)
        cols = list(zip(*vecs))  # cols[c][lambda] = vecs[lambda][c]
        pivots = [next((r for r in range(len(vec) - 1, -1, -1) if vec[r]), 0)
                  for vec in vecs]
        heads = [vec[r] or 1 for vec, r in zip(vecs, pivots)]
        size = max(map(max, map(map, repeat(abs), vecs)))
        width = max((max(map(sum, map(map, repeat(abs), map(itemgetter(1),
                                                            op_rows))))
                     for op_rows in rows[w] if op_rows), default=0)
        top = max(map(max, map(map, repeat(abs), chi)))
        bits = _digit_bits(max(map(abs, heads)) * max(
            2 * width * size, (top * top + 1) * factorial(w)))
        packed = _pack(cols, heads, bits)
        if eigenvalues is None:
            failures += _basis_failures(w, parts, chi, vecs, packed, heads,
                                        bits)
        premises, values = (zip(*map(eigenvalues, parts)) if eigenvalues
                            else ([[]] * count, None))
        broken = [[] for _ in parts]  # per lambda, for R_0, R_1, ...
        for i, op_rows in enumerate(rows[w]):
            if op_rows is None:  # A = 0: every v has eigenvalue 0
                if values is None:
                    continue
                products, nums = [0] * len(basis), [0] * count
            else:
                products = [sum(map(mul, v, map(packed.__getitem__, c)))
                            for c, v in op_rows]
                reads = {r: _unpack(products[r], bits, count)
                         for r in set(pivots)}
                nums = [reads[r][a] // d
                        for a, (r, d) in enumerate(zip(pivots, heads))]
            read = list(zip(nums, heads))
            tested = [(scales[i] * e[i].numerator, e[i].denominator)
                      for e in values] if values else read
            if (all(x * d == n * y for (x, y), (n, d) in zip(read, tested))
                    and (op_rows is None
                         or all(abs(x) <= abs(d) * width for x, d in read)
                         and products == _pack(cols, nums, bits))):
                continue
            digits = zip(*(_unpack(x, bits, count) for x in products))
            images = [[x // d for x in image]
                      for image, d in zip(digits, heads)]
            where = {"k": i - 1} if values else {"n": i - 1, "weight": w}
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
    eigenvalue read off a pivot entry of the vector.  `operators`, when
    given, must hold at least H_{-1} .. H_N; fewer raise ValueError.
    """
    if N < 0:
        raise ValueError("commutativity needs N >= 0 (at least one pair)")
    if operators is None:
        operators = hamiltonian_generating_coefficients(N, W)
    if len(operators) < N + 2:
        raise ValueError(f"N = {N} needs the {N + 2} operators H_-1 .. H_{N}, "
                         f"not {len(operators)}")
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
    e_k(lambda).  `operators`, when given, must hold at least H_{-1} ..
    H_K; fewer raise ValueError.
    """
    if K < 0:
        raise ValueError("the eigen check needs K >= 0: H_{-1} = u0 Id "
                         "fixes every vector")
    if operators is None:
        operators = hamiltonian_generating_coefficients(K, W)
    if len(operators) < K + 2:
        raise ValueError(f"K = {K} needs the {K + 2} operators H_-1 .. H_{K}, "
                         f"not {len(operators)}")

    def eigenvalues(lam):
        values = eigenvalue_series(lam, K) if series is None else series[lam]
        chain = list(values.values())
        return ([{"premise": "eigenvalue_" + premise, "k": k,
                  "partition": list(lam), "eigenvalue": chain[k + 1].render(),
                  **extra} for premise, k, extra
                 in _lift_failures(chain, 0, ExactScalar.one())[0]],
                [x.terms.get((k + 2, 0), 0) for k, x in values.items()])

    return _verify(operators, W, K + 2, eigenvalues)
