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
are kept only as the independent oracles the tests compare it with.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, inf, lcm, prod
from operator import itemgetter, lshift, mul

from .fock import (EMPTY, FockPolynomial, NormalOrderedOperator,
                   _lowering_factor, mono_degree, mono_from_partition,
                   mono_mul, mono_weight, weight_basis)
from .partitions import frobenius, partitions_of
from .scalars import (ExactScalar, add_into, bernoulli,
                      eigenvalue_inner_series, inv_s_series, lift, s_series)
from .schur import centralizer_size, character_table


def _numerators(coeffs):
    """(nums, den): the integer numerators of the rationals coeffs over
    their least common denominator den."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


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


def _premise_failures(operators):
    """Entries for every term of `operators` (H_{-1}, H_0, ...) that breaks
    premise (a) or (b): `_lift_failures` on each (alpha, beta) chain, with
    no grade fitting a term of wt(alpha) != wt(beta), the rest of (a).
    Pairs with the same modes and alpha! beta! share their coefficient
    objects, so the helper runs once per chain of objects, length and base
    case (identity or not), and only the broken pairs are sorted."""
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
    for pair, chain in chains.items():
        (wa, la), (wb, lb) = shapes[pair[0]], shapes[pair[1]]
        length = la + lb if wa == wb else inf
        below = one if pair == identity else zero
        # chains holds every object keyed, so no id is reused meanwhile
        key = (*map(id, chain), length, below is one)
        found = memo.get(key)
        if found is None:
            found = memo[key] = _lift_failures(chain, length, below)
        if found:
            broken.append((pair, chain, found))
    broken.sort(key=itemgetter(0))
    return [{"premise": premise, "n": n,
             "alpha": [list(km) for km in alpha],
             "beta": [list(km) for km in beta],
             "coefficient": chain[n + 1].render(), **extra}
            for (alpha, beta), chain, found in broken
            for premise, n, extra in found]


def _terms_by_weight(operators, bases, index):
    """(scales, by_weight): L_i = scales[i] is the lcm of the denominators
    of operators[i] at u0 = 0, eps = 1, and by_weight[wt] lists
    (beta, its index, [(alpha's index, [(i, L_i times the value)])]) over
    the terms with a nonzero value and wt(alpha) = wt(beta) = wt, for wt
    up to the last basis.  Each coefficient object's u0 = 0 value is read
    once, and the terms are grouped by beta."""
    weight = {m: w for w, basis in enumerate(bases) for m in basis}
    # id of a coefficient (held by its operator) -> its u0 = 0, eps = 1 value
    at_zero = {}
    groups = {}  # beta -> {alpha: [(i, value)]}
    denominators = [set() for _ in operators]
    for i, op in enumerate(operators):
        for (alpha, beta), c in op.terms.items():
            wt = weight.get(beta)
            # a term that changes the weight breaks (a) and is reported there
            if wt is None or weight.get(alpha) != wt:
                continue
            v = at_zero.get(id(c))
            if v is None:
                # generated coefficients have one u0-free term, no sum
                free = [val for (_, u), val in c.terms.items() if not u]
                v = at_zero[id(c)] = free[0] if len(free) == 1 else sum(free)
            if v:
                groups.setdefault(beta, {}).setdefault(alpha, []).append(
                    (i, v))
                denominators[i].add(v.denominator)
    scales = [lcm(*dens) for dens in denominators]
    by_weight = [[] for _ in bases]
    for beta, group in groups.items():
        wt = weight[beta]
        by_weight[wt].append((beta, index[wt][beta], [
            (index[wt][alpha], [(i, v.numerator * (scales[i] // v.denominator))
                                for i, v in vals])
            for alpha, vals in group.items()]))
    return scales, by_weight


def _sparse_rows(operators, W):
    """(scales, bases, rows): bases[w] is the monomial basis of V_w, and
    rows[w][i] lists the sparse rows (columns, values) of L_i R_i on V_w,
    with R_i the matrix of operators[i] at u0 = 0, eps = 1 (column mu holds
    the image of q^mu) and L_i = scales[i] the lcm of R_i's denominators.
    The lowering factor and the column of each (beta, rest) serve every
    alpha and operator that has that beta; one weight is built at a time."""
    bases = [weight_basis(w) for w in range(W + 1)]
    index = [{m: r for r, m in enumerate(basis)} for basis in bases]
    scales, by_weight = _terms_by_weight(operators, bases, index)
    rows = []
    for w, basis in enumerate(bases):
        mat = [[defaultdict(int) for _ in basis] for _ in operators]
        for wt, betas in enumerate(by_weight[:w + 1]):
            rests = bases[w - wt]
            # the index in V_w of q^rest q^gamma, per rest, per gamma in V_wt
            products = [[index[w][mono_mul(rest, gamma)]
                         for gamma in bases[wt]] for rest in rests]
            for beta, b, terms in betas:
                for rest, places in zip(rests, products):
                    factor = _lowering_factor(rest, beta)
                    col = places[b]
                    for a, vals in terms:
                        r = places[a]
                        for i, v in vals:
                            mat[i][r][col] += v * factor
        rows.append([[(tuple(row), tuple(row.values())) for row in op_mat]
                     for op_mat in mat])
    return scales, bases, rows


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
    """The digit width B of a packed check whose digits are at most `bound`
    in magnitude: every digit is then below 2^(B-2)."""
    return bound.bit_length() + 2


def _pack(digits, shifts):
    """sum_l digits[l] 2^shifts[l]: the digits Kronecker-packed into one
    integer."""
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


def _render_at_unit(basis, values, scale):
    """The vector `values` / `scale` on `basis` as a rendered polynomial."""
    return FockPolynomial({
        m: ExactScalar.from_rational(Fraction(x, scale))
        for m, x in zip(basis, values) if x}).render()


def _matrix_failures(w, basis, parts, vecs, images, scale, ratios, where):
    """(lambda's index, entry) for each v = vecs[lambda] with R v != e v,
    from the images R v and e = num / den, (num, den) = ratios[lambda]:
    `where` with lambda and R s - e s at u0 = 0, eps = 1 as "difference"."""
    for a, (vec, image, (num, den)) in enumerate(zip(vecs, images, ratios)):
        diff = [x * den - num * y for x, y in zip(image, vec)]
        if any(diff):
            yield a, {**where, "partition": list(parts[a]),
                      "difference": _render_at_unit(
                          basis, diff, scale * den * factorial(w))}


def _schur_sweep(operators, W, eigenvalues=None):
    """(failures, basis_dims, checked): test R_i v = e v as the integer
    vector x den - num y, e = num / den, for R_i the matrix of operators[i]
    at u0 = 0, eps = 1 and v = w! s_lambda(q), w <= W.  With `eigenvalues`
    None, e is read off an entry of v and premise (c) is asserted; else
    eigenvalues(lambda) gives (entries for lambda's broken eigenvalue
    premises, the eigenvalue of each R_i).  A failure gives R_i s - e s at
    u0 = 0, eps = 1 as "difference", with the e the check tested.

    The vectors of one weight are checked together, by Kronecker
    substitution.  With A = L_i R_i in integers, e_lambda = num_lambda /
    den_lambda over one den_lambda that every operator shares and
      U_c = sum_lambda den_lambda v_lambda[c] 2^(B lambda),
      T_j = sum_lambda num_lambda v_lambda[j] 2^(B lambda),
    (A U)_j - T_j = sum_lambda d_lambda 2^(B lambda) with the digits
    d_lambda = den_lambda (A v_lambda)_j - num_lambda v_lambda[j], so U is
    packed once per weight.  In commute mode num and den are the entries of
    A v_lambda and v_lambda at q_1^w (v_lambda is dim lambda != 0 there;
    the last nonzero entry in general); in eigen mode den_lambda is the lcm
    of the denominators of the L_i e_i(lambda).  For S the largest row sum
    of |A| on V_w and M the largest |v_lambda[c]|, every |d_lambda| is at
    most (den_lambda S + |num_lambda|) M, 2 S M^2 in commute mode.  B is
    two bits wider than the bound, so |d| < 2^(B-2), and a sum of
    d_l 2^(B l) with every |d_l| < 2^(B-1) vanishes only when every d_l
    does, as its top nonzero term outweighs the rest.  So A U = T exactly
    when A v_lambda = e_lambda v_lambda for every lambda.  The digits of
    A V, V_c = sum_lambda v_lambda[c] 2^(B lambda), are the (A v_lambda)_j,
    at most S M: one dot product of its q_1^w row gives every num_lambda,
    and a (w, i) that fails is unpacked into the images A v_lambda.  Every
    row with v_lambda[j] != 0 gives the same verdict, so the entries, in
    their order (per weight, per lambda: eigenvalue premises, then R_0,
    R_1, ...), are those of the vector-by-vector sweep.  The basis check is
    packed on V too; its digits are at most (max|chi|^2 + 1) w!, as
    sum_mu w!/z_mu = w!."""
    scales, bases, rows = _sparse_rows(operators, W)
    failures = []
    checked = 0
    for w, basis in enumerate(bases):
        parts, chi, vecs = _schur_vectors(w)
        count = len(parts)
        cols = list(zip(*vecs))  # cols[c][lambda] = vecs[lambda][c]
        size = max(max(map(abs, col)) for col in cols)
        width = max((sum(map(abs, vals)) for op_rows in rows[w]
                     for _, vals in op_rows), default=0)
        if eigenvalues is None:
            reads = [max((r for r, x in enumerate(vec) if x), default=0)
                     for vec in vecs]
            dens = [vec[r] for vec, r in zip(vecs, reads)]
            top = max(abs(x) for row in chi for x in row)
            bound = max(2 * width * size * size,
                        (top * top + 1) * factorial(w))
            premises = [[]] * count
        else:
            premises, values = zip(*map(eigenvalues, parts))
            nums, dens = zip(*(_numerators(list(map(mul, e, scales)))
                               for e in values))
            bound = size * max(den * width + max(map(abs, row))
                               for row, den in zip(nums, dens))
            nums = list(zip(*nums))  # nums[i][lambda]
        bits = _digit_bits(bound)
        shifts = range(0, bits * count, bits)
        packed = [_pack(col, shifts) for col in cols]
        scaled = [_pack(map(mul, dens, col), shifts) for col in cols]
        if eigenvalues is None:
            failures += _basis_failures(w, parts, chi, vecs, packed, shifts)
        broken = [[] for _ in parts]  # per lambda, for R_0, R_1, ...
        for i, op_rows in enumerate(rows[w]):
            checked += count
            if eigenvalues is None:
                read = {r: _unpack(_dot(op_rows[r], packed), bits, count)
                        for r in set(reads)}
                row_nums = [read[r][a] for a, r in enumerate(reads)]
            else:
                row_nums = nums[i]
            targets = [_pack(map(mul, row_nums, col), shifts) for col in cols]
            if [_dot(row, scaled) for row in op_rows] == targets:
                continue
            images = zip(*(_unpack(_dot(row, packed), bits, count)
                           for row in op_rows))
            where = ({"n": i - 1, "weight": w} if eigenvalues is None
                     else {"k": i - 1})
            for a, entry in _matrix_failures(
                    w, basis, parts, vecs, images, scales[i],
                    zip(row_nums, dens), where):
                broken[a].append(entry)
        for entries, more in zip(premises, broken):
            failures += entries + more
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
