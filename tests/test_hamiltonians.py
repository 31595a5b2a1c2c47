"""Quantum Hamiltonians, eigenvalues, and verification sweeps."""

import hashlib
import json
import random
from fractions import Fraction
from math import factorial, lcm, prod
from operator import mul

import pytest

from hopfq import hamiltonians, scalars
from hopfq.fock import (FockPolynomial, NormalOrderedOperator,
                        mono_from_partition, mono_mul, mono_weight,
                        naive_hamiltonian, weight_basis)
from hopfq.hamiltonians import (eigenvalue_series, exponential_row_form,
                                hamiltonian,
                                hamiltonian_generating_coefficients,
                                verify_commutativity, verify_eigenvectors)
from hopfq.partitions import partitions_of, partitions_upto
from hopfq.scalars import ExactScalar, inv_s_series, s_series
from hopfq.schur import scaled_schur, schur
import oracles
from oracles import (coefficient, commutator, eigenvalue_closed_form,
                     eigenvalue_frobenius_form, exponential_frobenius_form,
                     identity, restrict_weight, term, vacuum_constant)


def degree_operator(max_weight):
    """sum_k q_k p_k: multiplies weight-n monomials by hbar * n."""
    return NormalOrderedOperator({(((k, 1),), ((k, 1),)): ExactScalar.one()
                                  for k in range(1, max_weight + 1)})


def test_degree_operator():
    op = degree_operator(6)
    f = FockPolynomial.monomial(((1, 1), (2, 2)))
    assert op.apply(f) == f * ExactScalar.monomial(5, 2)


def test_bottom_hamiltonians():
    u0 = ExactScalar.monomial(1, 0, 1)
    assert hamiltonian(-1, 4) == identity(u0)
    h0 = hamiltonian(0, 4)
    correction = identity(
        ExactScalar.monomial(Fraction(1, 2), 0, 2)
        + ExactScalar.monomial(Fraction(-1, 24), 2))
    assert h0 == degree_operator(4) + correction


def test_explicit_correction_constants():
    for n, const in [(0, ExactScalar.monomial(Fraction(-1, 24), 2)),
                     (1, ExactScalar.monomial(Fraction(-1, 24), 2, 1))]:
        diff = hamiltonian(n, 6) - naive_hamiltonian(n, 6)
        assert diff == identity(const)


def test_h2_correction_structure():
    # H_2 - H_2^0 = (hbar/24)(sum_k (2k^2 - 1) q_k p_k - u0^2/2) + 7 hbar^2/5760
    W = 6
    diff = hamiltonian(2, W) - naive_hamiltonian(2, W)
    expected = identity(
        ExactScalar.monomial(Fraction(-1, 48), 2, 2)
        + ExactScalar.monomial(Fraction(7, 5760), 4))
    for k in range(1, W + 1):
        expected = expected + term(
            ((k, 1),), ((k, 1),),
            ExactScalar.monomial(Fraction(2 * k * k - 1, 24), 2))
    assert diff == expected


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


def test_cut_and_join_is_h1_at_u0_zero():
    W = 6
    cj = cut_and_join(W)
    h1 = hamiltonian(1, W)
    dropped = NormalOrderedOperator(
        {ab: c.substitute(u0=0) for ab, c in h1.sorted_terms()
         if not c.substitute(u0=0).is_zero()})
    assert dropped == cj
    # action example: on q1^2 it yields hbar^2 q2
    got = cj.apply(FockPolynomial.monomial(((1, 2),)))
    assert got == FockPolynomial.monomial(((2, 1),), ExactScalar.eps(4))


def test_naive_commutator_formula():
    W = 8
    comm = commutator(naive_hamiltonian(1, W), naive_hamiltonian(2, W),
                      max_weight=W)
    formula = NormalOrderedOperator.zero()
    for i in range(1, W):
        for j in range(1, W - i + 1):
            pair = ((i, 2),) if i == j else tuple(sorted([(i, 1), (j, 1)]))
            c = ExactScalar.monomial(Fraction(i * j * (i + j), 8), 4)
            formula = formula + term(((i + j, 1),), pair, c)
            formula = formula - term(pair, ((i + j, 1),), c)
    assert restrict_weight(comm, W) == restrict_weight(formula, W)


def test_commutativity_small_sweep():
    report = verify_commutativity(3, 6)
    assert report["failures"] == []
    assert report["pairs_checked"] == 10


def test_too_few_operators_are_refused():
    # H_-1 .. H_1 cannot decide K = 3 or N = 3: a sweep of them would check
    # k <= 1 only and report no failure for H_2 and H_3
    ops = hamiltonian_generating_coefficients(1, 4)
    with pytest.raises(ValueError, match="needs the 5 operators"):
        verify_eigenvectors(3, 4, ops)
    with pytest.raises(ValueError, match="needs the 5 operators"):
        verify_commutativity(3, 4, ops)
    assert verify_eigenvectors(1, 4, ops)["failures"] == []
    assert verify_commutativity(1, 4, ops)["pairs_checked"] == 3


def test_semiclassical_limit():
    # the lowest-eps part of each coefficient of H_n equals the naive operator's
    for n in range(-1, 4):
        quantum = hamiltonian(n, 6)
        naive = naive_hamiltonian(n, 6)
        for ab, c in naive.sorted_terms():
            qc = coefficient(quantum, *ab)
            for (e, u), v in c.terms.items():
                assert qc.terms.get((e, u)) == v, (n, ab)


def test_vacuum_constants():
    assert vacuum_constant(0).substitute(u0=0) == ExactScalar.monomial(
        Fraction(-1, 24), 2)
    assert vacuum_constant(1).substitute(u0=0).is_zero()
    assert vacuum_constant(2).substitute(u0=0) == ExactScalar.monomial(
        Fraction(7, 5760), 4)


def test_eigenvalue_series_matches_closed_forms():
    for lam in partitions_upto(6):
        series = eigenvalue_series(lam, 7)
        assert list(series) == list(range(-1, 8))
        for k in range(-1, 8):
            closed = eigenvalue_closed_form(k, lam)
            assert series[k] == closed, (lam, k)
            assert eigenvalue_frobenius_form(k, lam) == closed, (lam, k)


def test_eigenvalue_series_shares_one_inverse_series(monkeypatch):
    # every lambda reads the same memoised 1/s(t); none may alter it, so
    # each series equals the one built on a fresh 1/s(t)
    lams = list(partitions_upto(8))
    memoised = [eigenvalue_series(lam, K) for K in (1, 7, 16) for lam in lams]
    monkeypatch.setattr(scalars, "_inv_s_memo",
                        lambda order: tuple(inv_s_series(order)))
    assert [eigenvalue_series(lam, K)
            for K in (1, 7, 16) for lam in lams] == memoised


def test_eigenvalue_series_refuses_indices_out_of_range():
    series = eigenvalue_series((1,), 3)
    for k in (-2, 4):
        with pytest.raises(KeyError):
            series[k]


def test_eigenvalue_examples():
    # E_{-1} = u0, E_0 = u0^2/2 + hbar(|lambda| - 1/24)
    lam = (2, 1)
    assert eigenvalue_closed_form(-1, lam) == ExactScalar.monomial(1, 0, 1)
    e0 = eigenvalue_closed_form(0, lam)
    expected = ExactScalar.monomial(Fraction(1, 2), 0, 2) + \
        ExactScalar.monomial(Fraction(3) - Fraction(1, 24), 2)
    assert e0 == expected
    # E_1 at u0=0, hbar=1 is the content sum
    for lam in partitions_upto(6):
        content = sum(Fraction(li * (li - 2 * i + 1), 2)
                      for i, li in enumerate(lam, start=1))
        got = eigenvalue_closed_form(1, lam).substitute(eps=1, u0=0)
        assert got == ExactScalar.from_rational(content)


def test_exponential_forms_agree():
    for lam in partitions_upto(10):
        assert exponential_row_form(lam) == exponential_frobenius_form(lam)


def test_eigenvectors_small_sweep():
    report = verify_eigenvectors(3, 5)
    assert report["failures"] == []


def test_schur_eigenvector_single_case():
    op = hamiltonian(2, 4)
    vec = scaled_schur((2, 1))
    assert op.apply(vec) == vec * eigenvalue_closed_form(2, (2, 1))


# ---------------------------------------------------------------------------
# brute-force oracle for the generator: the generating series multiplied out
# pair by pair as z-series over ExactScalar, with u0 and eps symbolic


def _z_series_mul(a, b, order):
    out = [ExactScalar.zero()] * (order + 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b[:order + 1 - i]):
            out[i + j] += ca * cb
    return out


def symbolic_generating_coefficients(K, max_weight):
    """H_{-1} .. H_K as the z^(n+2) coefficients of
    e^{z u0} / s(eps z) * prod_k [z s(eps z k)]^(alpha_k + beta_k)
    / (alpha! beta!), every factor a z-series over ExactScalar."""
    order = K + 2
    s, inv_s = s_series(order), inv_s_series(order)
    vacuum = _z_series_mul(
        [ExactScalar.monomial(Fraction(1, factorial(j)), 0, j)
         for j in range(order + 1)],
        [ExactScalar.monomial(inv_s[j], j) for j in range(order + 1)], order)
    ops = [{} for _ in range(K + 2)]
    for w in range(max_weight + 1):
        for ap in partitions_of(w):
            for bp in partitions_of(w):
                if len(ap) + len(bp) > order:
                    continue  # z^(l(alpha) + l(beta)) is past z^(K+2)
                alpha, beta = mono_from_partition(ap), mono_from_partition(bp)
                series = vacuum
                for k in ap + bp:
                    z_s = [ExactScalar.zero()] + [
                        ExactScalar.monomial(s[j] * k ** j, j)
                        for j in range(order)]
                    series = _z_series_mul(series, z_s, order)
                denom = 1
                for _, m in alpha + beta:
                    denom *= factorial(m)
                for n in range(-1, K + 1):
                    coeff = series[n + 2] * Fraction(1, denom)
                    if coeff:
                        ops[n + 1][(alpha, beta)] = coeff
    return [NormalOrderedOperator(terms) for terms in ops]


def _one_at_a_time(K, max_weight):
    """H_{-1} .. H_K, each generated alone by `hamiltonian`."""
    return [hamiltonian(n, max_weight) for n in range(-1, K + 1)]


# K + 2 of both parities, and H_n generated alone against the same oracle
@pytest.mark.parametrize("K, W, generate", [
    (-1, 4, hamiltonian_generating_coefficients),
    (0, 6, hamiltonian_generating_coefficients),
    (5, 8, hamiltonian_generating_coefficients),
    (6, 6, hamiltonian_generating_coefficients),
    (5, 8, _one_at_a_time),
], ids=["K-1-W4", "K0-W6", "K5-W8", "K6-W6", "K5-W8-one-at-a-time"])
def test_generator_agrees_with_symbolic_oracle(K, W, generate):
    fast = generate(K, W)
    slow = symbolic_generating_coefficients(K, W)
    assert len(fast) == len(slow) == K + 2
    for n in range(-1, K + 1):
        assert fast[n + 1].terms == slow[n + 1].terms


# ---------------------------------------------------------------------------
# brute-force oracles: the symbolic sweeps, with u0 and eps kept symbolic and
# every operator applied monomial by monomial


def symbolic_commutativity(N, W, operators=None):
    """Check [H_n, H_m] = 0 exactly on every monomial of weight <= W for
    -1 <= n < m <= N, with symbolic u0 and eps.

    Works weight by weight: images of the monomial basis of V_w under each
    H are computed once, then both composition orders are compared on every
    basis monomial (the operators preserve the grading, so this is the exact
    action on all monomials of weight <= W).
    """
    if operators is None:
        operators = hamiltonian_generating_coefficients(N, W)
    failures = []
    for w in range(W + 1):
        basis = weight_basis(w)
        images = [{m: op.apply(FockPolynomial.monomial(m)) for m in basis}
                  for op in operators]
        for n_idx in range(len(operators)):
            for m_idx in range(n_idx + 1, len(operators)):
                for mono in basis:
                    left = _apply_images(images[n_idx], images[m_idx][mono])
                    right = _apply_images(images[m_idx], images[n_idx][mono])
                    if left != right:
                        failures.append({
                            "n": n_idx - 1, "m": m_idx - 1,
                            "monomial": list(mono),
                            "difference": (left - right).render()})
    return {"pairs_checked": len(operators) * (len(operators) - 1) // 2,
            "weight_bound": W, "failures": failures}


def _apply_images(images, poly):
    acc = FockPolynomial.zero()
    for mono, c in poly.terms.items():
        acc = acc + images[mono] * c
    return acc


def symbolic_eigenvectors(K, W, operators=None):
    """Check H_k s_lambda(q/eps) = E_k(lambda) s_lambda(q/eps) exactly for
    all |lambda| <= W and k <= K, with E_k from the closed Bernoulli form."""
    if operators is None:
        operators = hamiltonian_generating_coefficients(K, W)
    failures = []
    checked = 0
    for lam in partitions_upto(W):
        vec = scaled_schur(lam)
        for k in range(-1, K + 1):
            checked += 1
            expected = vec * oracles.eigenvalue_closed_form(k, lam)
            actual = operators[k + 1].apply(vec)
            if actual != expected:
                failures.append({"k": k, "partition": list(lam),
                                 "difference": (actual - expected).render()})
    return {"pairs_checked": checked, "weight_bound": W, "failures": failures}


# ---------------------------------------------------------------------------
# integer-matrix oracle: the matrices L_n R_n of the H_n at u0 = 0, eps = 1,
# built dense on every V_w, with both products formed for every pair


def lowering_factor(rest, beta):
    """p^beta q^(rest + beta) = factor * q^rest at eps = 1."""
    have = dict(rest)
    return prod(k ** b * factorial(have.get(k, 0) + b)
                // factorial(have.get(k, 0)) for k, b in beta)


def integer_matrices(operators, W):
    """mats[i][w]: the integer matrix L_i R_i of operators[i] on V_w (column
    mu holds the image of q^mu), L_i the lcm of R_i's denominators."""
    bases = [weight_basis(w) for w in range(W + 1)]
    index = [{m: i for i, m in enumerate(basis)} for basis in bases]
    out = []
    for op in operators:
        values = []
        for (alpha, beta), c in op.terms.items():
            v = sum(val for (_, u), val in c.terms.items() if not u)
            wt = mono_weight(beta)
            if v and wt == mono_weight(alpha) and wt <= W:
                values.append((alpha, beta, wt, v))
        scale = lcm(*(v.denominator for *_, v in values))
        mats = [[[0] * len(basis) for _ in basis] for basis in bases]
        for alpha, beta, wt, v in values:
            v = v.numerator * (scale // v.denominator)
            for w in range(wt, W + 1):
                mat, idx = mats[w], index[w]
                for rest in bases[w - wt]:
                    mat[idx[mono_mul(rest, alpha)]][idx[mono_mul(rest, beta)]] \
                        += v * lowering_factor(rest, beta)
        out.append(mats)
    return out


def _matmul(rows, cols):
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def pairwise_commutativity(W, operators):
    """(n, m, w) for every pair n < m whose matrices R_n, R_m do not commute
    on V_w, w <= W."""
    mats = integer_matrices(operators, W)
    failures = []
    for w in range(W + 1):
        for i, a in enumerate(mats):
            for j in range(i + 1, len(mats)):
                b = mats[j]
                cols_a, cols_b = list(zip(*a[w])), list(zip(*b[w]))
                if _matmul(a[w], cols_b) != _matmul(b[w], cols_a):
                    failures.append((i - 1, j - 1, w))
    return failures


def _kinds(report):
    """The set of failure kinds: a premise name, or "matrix"."""
    return {f.get("premise", "matrix") for f in report["failures"]}


def _perturbed(operators, n, coeff):
    """operators with coeff * q1 p1 added to H_n."""
    out = list(operators)
    out[n + 1] = out[n + 1] + term(((1, 1),), ((1, 1),), coeff)
    return out


# Perturbations of H_{-1} .. H_3: (n, coefficient of q1 p1 added to H_n,
# the failure kinds the structured engine must report).  The symbolic
# oracle must fail on every one of them.
PERTURBATIONS = {
    # eps^5 q1 p1 breaks grading (a) in H_3; -eps^3 q1 p1 cancels it at
    # eps = 1, so neither (b) nor the matrices can see it
    "grading": (3, ExactScalar.monomial(1, 5) - ExactScalar.monomial(1, 3),
                {"grading"}),
    # a graded u0^0 change to H_2: H_3's u0^1 part no longer equals H_2(0),
    # and H_2(0) no longer commutes with the others
    "u0_expansion_via_h2": (2, ExactScalar.monomial(1, 2),
                            {"u0_expansion", "matrix"}),
    # a graded u0^1 change to H_3: invisible at u0 = 0, so only (b) sees it
    "u0_expansion_top": (3, ExactScalar.monomial(1, 2, 1), {"u0_expansion"}),
    # a graded u0^0 change to the top operator: both premises hold, only
    # the matrix check catches it
    "matrix": (3, ExactScalar.monomial(1, 3), {"matrix"}),
}


def test_structured_engine_agrees_with_symbolic_oracle():
    ops = hamiltonian_generating_coefficients(3, 6)
    fast = verify_commutativity(3, 6, ops)
    slow = symbolic_commutativity(3, 6, ops)
    assert fast["failures"] == slow["failures"] == []
    assert fast["pairs_checked"] == slow["pairs_checked"] == 10
    assert fast["operator_terms"] == sum(len(op.terms) for op in ops)
    assert fast["basis_dims"] == [1, 1, 2, 3, 5, 7, 11]


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_commutativity_perturbations_fail_in_both_engines(name):
    n, coeff, kinds = PERTURBATIONS[name]
    ops = _perturbed(hamiltonian_generating_coefficients(3, 6), n, coeff)
    assert symbolic_commutativity(3, 6, ops)["failures"]
    assert _kinds(verify_commutativity(3, 6, ops)) == kinds


def test_weight_changing_term_fails_only_as_grading():
    # eps^3 q2 p1 added to the top operator H_3: graded in (u0, eps) and
    # free of u0, but wt(alpha) != wt(beta), the other half of (a)
    ops = hamiltonian_generating_coefficients(3, 6)
    ops[4] = ops[4] + term(((2, 1),), ((1, 1),), ExactScalar.monomial(1, 3))
    report = verify_commutativity(3, 6, ops)
    assert [(f["premise"], f["n"], f["alpha"], f["beta"])
            for f in report["failures"]] == [("grading", 3, [[2, 1]],
                                              [[1, 1]])]


def test_chain_base_case_is_checked():
    # H_{-1} + u0 Id: d/du0 H_{-1} = 2 Id, not H_{-2} = Id, and then
    # d/du0 H_0 = H_{-1} breaks on the identity term as well
    ops = hamiltonian_generating_coefficients(3, 6)
    ops[0] = ops[0] + identity(ExactScalar.monomial(1, 0, 1))
    report = verify_commutativity(3, 6, ops)
    assert [(f["premise"], f["n"], f["alpha"], f["beta"])
            for f in report["failures"]] == [("u0_expansion", n, [], [])
                                             for n in (-1, 0)]
    # E_{-1}((2, 1)) = 2 u0: d/du0 E_{-1} = 2, not E_{-2} = 1
    series = {lam: eigenvalue_series(lam, 3) for lam in partitions_upto(5)}
    series[(2, 1)][-1] = ExactScalar.monomial(2, 0, 1)
    report = verify_eigenvectors(3, 5, series=series)
    assert [(f["premise"], f["k"], f["partition"])
            for f in report["failures"]] == [
        ("eigenvalue_u0_expansion", k, [2, 1]) for k in (-1, 0)]


def test_eigenbasis_engine_agrees_with_pairwise_oracle():
    ops = hamiltonian_generating_coefficients(5, 8)
    for W in range(9):
        report = verify_commutativity(5, W, ops)
        assert report["failures"] == pairwise_commutativity(W, ops) == []
        assert report["pairs_checked"] == 21
    # the q1 p1 perturbations that reach the matrices: the operators stop
    # commuting on the same weights on which the Schur vectors stop being
    # eigenvectors
    for name in ("matrix", "u0_expansion_via_h2"):
        n, coeff, _ = PERTURBATIONS[name]
        ops = _perturbed(hamiltonian_generating_coefficients(5, 8), n, coeff)
        report = verify_commutativity(5, 8, ops)
        pairs = pairwise_commutativity(8, ops)
        assert pairs
        assert {w for *_, w in pairs} == {
            f["weight"] for f in report["failures"] if "premise" not in f}


def test_off_diagonal_perturbation_fails_only_as_matrix():
    # eps^2 q6 p3^2 added to the top operator H_3: graded (l = 3), free of
    # u0, so both premises hold; it acts only on V_6, off the diagonal
    ops = hamiltonian_generating_coefficients(3, 6)
    ops[4] = ops[4] + term(((6, 1),), ((3, 2),), ExactScalar.monomial(1, 2))
    assert symbolic_commutativity(3, 6, ops)["failures"]
    assert {w for *_, w in pairwise_commutativity(6, ops)} == {6}
    report = verify_commutativity(3, 6, ops)
    assert _kinds(report) == {"matrix"}
    assert {(f["n"], f["weight"]) for f in report["failures"]} == {(3, 6)}
    # the residual is R_3 s - e s at u0 = 0, eps = 1, e read off the last
    # monomial of s = s_lambda(q), the entry the packed check tests
    for f in report["failures"]:
        s = schur(tuple(f["partition"]))
        image = ops[4].apply(s).remap(
            lambda m, c: (m, c.substitute(eps=1, u0=0)))
        pivot = next(m for m in reversed(weight_basis(6))
                     if coefficient(s, m))
        e = (coefficient(image, pivot).as_fraction()
             / coefficient(s, pivot).as_fraction())
        diff = image - s * ExactScalar.from_rational(e)
        assert f["difference"] == diff.render()


def break_character_table(monkeypatch, how):
    """Point the sweep at a copy of the character table broken as named:
    "singular" replaces the row of (1, 1) by that of (2), and "wrong"
    changes chi^(2,1)(1^3) = 2 to 3."""
    table = hamiltonians.character_table

    def broken(n):
        index, rows = table(n)
        rows = [list(row) for row in rows]
        if how == "singular" and n == 2:
            rows[index[(1, 1)]] = rows[index[(2,)]]
        if how == "wrong" and n == 3:
            rows[index[(2, 1)]][index[(1, 1, 1)]] += 1
        return index, rows

    monkeypatch.setattr(hamiltonians, "character_table", broken)


def test_singular_character_table_fails_only_as_basis(monkeypatch):
    # the row of (1, 1) replaced by that of (2): both vectors of V_2 are
    # then s_(2), an eigenvector of every H_n, but they span a line
    break_character_table(monkeypatch, "singular")
    report = verify_commutativity(3, 6)
    assert _kinds(report) == {"basis"}
    assert [(f["weight"], f["partitions"], f["product"], f["expected"])
            for f in report["failures"]] == [(2, [[2], [1, 1]], 2, 0)]


def test_eigen_engine_agrees_with_symbolic_oracle():
    ops = hamiltonian_generating_coefficients(3, 5)
    fast = verify_eigenvectors(3, 5, ops)
    slow = symbolic_eigenvectors(3, 5, ops)
    assert fast["failures"] == slow["failures"] == []
    assert fast["pairs_checked"] == slow["pairs_checked"] == 5 * 19
    assert fast["basis_dims"] == [1, 1, 2, 3, 5, 7]


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_eigen_perturbations_fail_in_both_engines(name):
    n, coeff, kinds = PERTURBATIONS[name]
    ops = _perturbed(hamiltonian_generating_coefficients(3, 5), n, coeff)
    assert symbolic_eigenvectors(3, 5, ops)["failures"]
    assert _kinds(verify_eigenvectors(3, 5, ops)) == kinds


def test_eigenvalue_shift_fails_only_in_the_eigen_check():
    # eps^5 Id added to the top operator H_3: both premises hold, and every
    # s_lambda stays an eigenvector, of eigenvalue e_3(lambda) + 1
    ops = hamiltonian_generating_coefficients(3, 5)
    ops[4] = ops[4] + identity(ExactScalar.monomial(1, 5))
    assert verify_commutativity(3, 5, ops)["failures"] == []
    assert symbolic_eigenvectors(3, 5, ops)["failures"]
    report = verify_eigenvectors(3, 5, ops)
    assert _kinds(report) == {"matrix"}
    assert [(f["k"], f["partition"]) for f in report["failures"]] == [
        (3, list(lam)) for lam in partitions_upto(5)]
    assert report["failures"][-1]["difference"] == schur((1,) * 5).render()


def test_an_operator_with_no_rows_keeps_its_eigenvalue_compared():
    # H_-1 = u0 Id has no term at u0 = 0, so the sweep forms no product for
    # it, but still compares its tested eigenvalue: eps added to
    # E_-1((2, 1)) is graded and u0-free, breaks d/du0 E_0 = E_-1, and makes
    # s_(2,1) fail as an eigenvector of H_-1 at u0 = 0
    series = {lam: eigenvalue_series(lam, 1) for lam in partitions_upto(4)}
    series[(2, 1)][-1] = series[(2, 1)][-1] + ExactScalar.monomial(1, 1)
    report = verify_eigenvectors(1, 4, series=series)
    assert [(f.get("premise"), f["k"], f["partition"])
            for f in report["failures"]] == [
        ("eigenvalue_u0_expansion", 0, [2, 1]), (None, -1, [2, 1])]
    assert report["failures"][1]["difference"] == (
        schur((2, 1)) * ExactScalar.from_rational(-1)).render()


# A change to E_3((2, 1)) that keeps its eps^5 u0^0 coefficient, so the
# matrix check at u0 = 0, eps = 1 cannot see it; only the named premise can.
EIGENVALUE_PERTURBATIONS = {
    "eigenvalue_grading": ExactScalar.monomial(1, 6),
    "eigenvalue_u0_expansion": ExactScalar.monomial(1, 4, 1),
}


@pytest.mark.parametrize("name", sorted(EIGENVALUE_PERTURBATIONS))
def test_eigenvalue_perturbations_fail_in_both_engines(name, monkeypatch):
    # the sweep reads eigenvalue_series, the oracle the closed form
    closed = oracles.eigenvalue_closed_form
    series = hamiltonians.eigenvalue_series
    bump = EIGENVALUE_PERTURBATIONS[name]

    def perturbed_closed(k, lam):
        value = closed(k, lam)
        return value + bump if (k, tuple(lam)) == (3, (2, 1)) else value

    def perturbed_series(lam, K):
        values = series(lam, K)
        if tuple(lam) == (2, 1):
            values[3] = values[3] + bump
        return values

    monkeypatch.setattr(oracles, "eigenvalue_closed_form", perturbed_closed)
    monkeypatch.setattr(hamiltonians, "eigenvalue_series", perturbed_series)
    ops = hamiltonian_generating_coefficients(3, 5)
    assert symbolic_eigenvectors(3, 5, ops)["failures"]
    report = verify_eigenvectors(3, 5, ops)
    assert _kinds(report) == {name}
    assert [(f["k"], f["partition"]) for f in report["failures"]] == [(3, [2, 1])]


def test_wrong_character_fails_as_an_eigenvector(monkeypatch):
    # chi^(2,1)(1^3) = 2 changed to 3: the vector read off the table is then
    # 3! (s_(2,1) + q1^3 / 6), an eigenvector of H_{-1} and H_0 only
    break_character_table(monkeypatch, "wrong")
    ops = hamiltonian_generating_coefficients(3, 5)
    report = verify_eigenvectors(3, 5, ops)
    assert [(f.get("premise"), f["k"], f["partition"])
            for f in report["failures"]] == [(None, k, [2, 1])
                                             for k in (1, 2, 3)]
    vec = schur((2, 1)) + FockPolynomial.monomial(((1, 3),), Fraction(1, 6))
    for f in report["failures"]:
        k = f["k"]
        e_k = eigenvalue_closed_form(k, (2, 1)).substitute(eps=1, u0=0)
        diff = ops[k + 1].apply(vec) - vec * e_k
        assert f["difference"] == diff.remap(
            lambda m, c: (m, c.substitute(eps=1, u0=0))).render()


def test_commutativity_at_weight_12():
    report = verify_commutativity(5, 12)
    assert report["failures"] == []
    assert report["pairs_checked"] == 21
    assert report["weight_bound"] == 12
    assert report["basis_dims"][12] == 77


def test_commutativity_at_weight_14():
    report = verify_commutativity(5, 14)
    assert report["failures"] == []
    assert report["pairs_checked"] == 21
    assert report["weight_bound"] == 14
    assert report["basis_dims"][14] == 135


# ---------------------------------------------------------------------------
# the per-vector sweep: R_i v for each v = w! s_lambda(q) on its own, with
# R_i read off `NormalOrderedOperator.apply`, as the oracle of the
# Kronecker-packed sweep on the rows of the term walk


def unit_matrices(operators, W):
    """mats[i][w]: the matrix of operators[i] on V_w at u0 = 0, eps = 1, as
    rows of Fractions, column mu read off the image of q^mu under
    `NormalOrderedOperator.apply`; a term that changes the weight maps V_w
    to another weight, outside these rows."""
    bases = [weight_basis(w) for w in range(W + 1)]
    out = []
    for op in operators:
        mats = []
        for basis in bases:
            cols = []
            for mu in basis:
                image = op.apply(FockPolynomial.monomial(mu))
                cols.append([coefficient(image, m).substitute(eps=1, u0=0)
                             .as_fraction() for m in basis])
            mats.append(list(zip(*cols)))
        out.append(mats)
    return out


def _render_unit(basis, values):
    return FockPolynomial({m: ExactScalar.from_rational(x)
                           for m, x in zip(basis, values) if x}).render()


def per_vector_sweep(operators, W, eigenvalues=None):
    """(failures, basis_dims) of the Schur sweep of `operators`:
    each Schur vector multiplied out alone by each matrix of
    `unit_matrices`, in Fractions, and every orthogonality relation
    formed."""
    mats = unit_matrices(operators, W)
    failures = []
    for w in range(W + 1):
        basis = weight_basis(w)
        parts, chi, vecs = hamiltonians._schur_vectors(w)
        if eigenvalues is None:
            for a, vec in enumerate(vecs):
                for b in range(a, len(vecs)):
                    product = sum(map(mul, vec, chi[b]))
                    expected = factorial(w) if a == b else 0
                    if product != expected:
                        failures.append({
                            "premise": "basis", "weight": w,
                            "partitions": [list(parts[a]), list(parts[b])],
                            "product": product, "expected": expected})
        for lam, vec in zip(parts, vecs):
            if eigenvalues is not None:
                entries, values = eigenvalues(lam)
                failures += entries
            p = max((r for r, x in enumerate(vec) if x), default=0)
            for i, op_mats in enumerate(mats):
                image = [sum(map(mul, row, vec)) for row in op_mats[w]]
                if eigenvalues is None:  # the ratio at the pivot
                    e = image[p] / vec[p] if vec[p] else 0
                else:
                    e = values[i]
                diff = [(x - e * y) / factorial(w) for x, y in zip(image, vec)]
                if any(diff):
                    where = ({"n": i - 1, "weight": w} if eigenvalues is None
                             else {"k": i - 1})
                    failures.append({**where, "partition": list(lam),
                                     "difference": _render_unit(basis, diff)})
    return failures, [len(weight_basis(w)) for w in range(W + 1)]


def packed_sweep(operators, W, eigenvalues=None):
    """The packed sweep of every operator, on the rows of the term walk."""
    _, scales, by_weight = hamiltonians._premise_failures(
        operators, W, len(operators))
    return hamiltonians._schur_sweep(
        scales, *hamiltonians._sparse_rows(scales, by_weight), eigenvalues)


PACKED_SWEEP = hamiltonians._schur_sweep  # before any test wraps it


def sweeps_agree(monkeypatch, verify, K, W, operators=None):
    """verify(K, W, operators) with the sweep it makes checked against the
    per-vector sweep of the operators it sweeps; returns the report and
    the sweep's failures."""
    if operators is None:
        operators = hamiltonian_generating_coefficients(K, W)
    sweeps = []

    def both(scales, bases, rows, eigenvalues=None):
        packed = PACKED_SWEEP(scales, bases, rows, eigenvalues)
        assert len(bases) == W + 1
        assert packed == per_vector_sweep(operators[:len(rows[0])], W,
                                          eigenvalues)
        sweeps.append(packed)
        return packed

    monkeypatch.setattr(hamiltonians, "_schur_sweep", both)
    report = verify(K, W, operators)
    assert len(sweeps) == 1
    return report, sweeps[0][0]


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_packed_sweep_agrees_with_per_vector_sweep_on_perturbations(
        name, monkeypatch):
    n, coeff, kinds = PERTURBATIONS[name]
    ops = _perturbed(hamiltonian_generating_coefficients(3, 6), n, coeff)
    _, failures = sweeps_agree(monkeypatch, verify_commutativity, 3, 6, ops)
    assert bool(failures) == ("matrix" in kinds)
    _, failures = sweeps_agree(monkeypatch, verify_eigenvectors, 3, 5, ops)
    assert bool(failures) == ("matrix" in kinds)


@pytest.mark.parametrize("name", sorted(EIGENVALUE_PERTURBATIONS))
def test_packed_sweep_agrees_with_per_vector_sweep_on_eigenvalue_changes(
        name, monkeypatch):
    series = hamiltonians.eigenvalue_series
    bump = EIGENVALUE_PERTURBATIONS[name]

    def perturbed_series(lam, K):
        values = series(lam, K)
        if tuple(lam) == (2, 1):
            values[3] = values[3] + bump
        return values

    monkeypatch.setattr(hamiltonians, "eigenvalue_series", perturbed_series)
    for W in (5, 6):
        report, _ = sweeps_agree(monkeypatch, verify_eigenvectors, 3, W)
        assert _kinds(report) == {name}


def _off_diagonal(operators):
    """eps^2 q6 p3^2 added to the top operator H_3 (see
    `test_off_diagonal_perturbation_fails_only_as_matrix`)."""
    out = list(operators)
    out[4] = out[4] + term(((6, 1),), ((3, 2),), ExactScalar.monomial(1, 2))
    return out


def _eigenvalue_shift(operators):
    """eps^5 Id added to the top operator H_3."""
    out = list(operators)
    out[4] = out[4] + identity(ExactScalar.monomial(1, 5))
    return out


@pytest.mark.parametrize("change", [_off_diagonal, _eigenvalue_shift])
def test_packed_sweep_agrees_with_per_vector_sweep_on_matrix_changes(
        change, monkeypatch):
    ops = change(hamiltonian_generating_coefficients(3, 6))
    _, commute = sweeps_agree(monkeypatch, verify_commutativity, 3, 6, ops)
    _, eigen = sweeps_agree(monkeypatch, verify_eigenvectors, 3, 6, ops)
    assert eigen
    assert bool(commute) == (change is _off_diagonal)


@pytest.mark.parametrize("table", ["wrong", "singular"])
def test_packed_sweep_agrees_with_per_vector_sweep_on_broken_tables(
        table, monkeypatch):
    # the two broken character tables of the tests above: one entry of
    # (2, 1) changed, and the row of (1, 1) replaced by that of (2)
    break_character_table(monkeypatch, table)
    ops = hamiltonian_generating_coefficients(3, 6)
    _, commute = sweeps_agree(monkeypatch, verify_commutativity, 3, 6, ops)
    _, eigen = sweeps_agree(monkeypatch, verify_eigenvectors, 3, 6, ops)
    assert commute and eigen


def test_packed_sweep_agrees_with_per_vector_sweep_at_weight_8(monkeypatch):
    ops = hamiltonian_generating_coefficients(5, 8)
    report, failures = sweeps_agree(monkeypatch, verify_commutativity, 5, 8,
                                    ops)
    assert report["failures"] == failures == []
    report, failures = sweeps_agree(monkeypatch, verify_eigenvectors, 5, 8,
                                    ops)
    assert report["failures"] == failures == []
    assert report["pairs_checked"] == 7 * sum(report["basis_dims"])


def _random_operator(rng, W, density):
    """Random rational multiples of q^alpha p^beta, wt(alpha) = wt(beta)
    <= W: no Schur vector is an eigenvector of it."""
    terms = {}
    for w in range(W + 1):
        basis = weight_basis(w)
        for alpha in basis:
            for beta in basis:
                if rng.random() < density:
                    terms[(alpha, beta)] = ExactScalar.from_rational(
                        Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 4)))
    return NormalOrderedOperator(terms)


@pytest.mark.parametrize("seed", range(3))
def test_packed_sweep_agrees_with_per_vector_sweep_on_random_operators(seed):
    # random rows make every digit of the packed check nonzero, as large
    # as the rows allow, and every vector fail
    rng = random.Random(seed)
    W = 6
    ops = [_random_operator(rng, W, density) for density in (0.2, 0.5, 1)]
    commute = packed_sweep(ops, W)
    assert commute == per_vector_sweep(ops, W)
    assert len(commute[0]) > len(partitions_upto(W))
    ratios = {lam: [Fraction(rng.randint(-999, 999), rng.randint(1, 9))
                    for _ in ops] for lam in partitions_upto(W)}

    def eigenvalues(lam):
        return [], ratios[lam]

    eigen = packed_sweep(ops, W, eigenvalues)
    assert eigen == per_vector_sweep(ops, W, eigenvalues)
    assert len(eigen[0]) > len(partitions_upto(W))


def test_digit_bound_covers_every_digit(monkeypatch):
    # the one bound each weight's width is taken from, against the largest
    # digits formed on the packed vector U = sum_lambda d_lambda v_lambda
    # 2^(B lambda), d_lambda = v_lambda's pivot entry: d (A v)_j; then
    # d (A v)_j - h v_j, h = (A v)_p read off the pivot, for an operator
    # whose every |h| is at most |d| S (S the largest row sum of |A| over
    # the operators, which bounds every eigenvalue; a larger h is no
    # eigenvalue's, and its operator fails without this comparison); and
    # the basis digits
    # d_lambda (<chi^nu, v_lambda> - w! delta); the eigenvalues tested do
    # not enter it
    rng = random.Random(7)
    W = 6
    ops = [_random_operator(rng, W, density) for density in (0.3, 1)]
    ops.append(hamiltonian_generating_coefficients(1, W)[2])
    ratios = {lam: [Fraction(rng.randint(-999, 999), rng.randint(1, 9))
                    for _ in ops] for lam in partitions_upto(W)}
    digit_bits = hamiltonians._digit_bits
    runs = []
    for eigenvalues in (None, lambda lam: ([], ratios[lam])):
        bounds = []
        monkeypatch.setattr(hamiltonians, "_digit_bits",
                            lambda bound: bounds.append(bound)
                            or digit_bits(bound))
        packed_sweep(ops, W, eigenvalues)
        runs.append(bounds)
    assert runs[0] == runs[1]
    assert len(bounds) == W + 1
    mats = integer_matrices(ops, W)
    compared = 0
    for w in range(W + 1):
        _, chi, vecs = hamiltonians._schur_vectors(w)
        pivots = [max(j for j, x in enumerate(vec) if x) for vec in vecs]
        heads = [vec[p] for vec, p in zip(vecs, pivots)]
        width = max(sum(map(abs, row)) for mat in mats for row in mat[w])
        worst = 0
        for mat in mats:
            # images[lambda]: A v_lambda
            images = [[sum(map(mul, row, vec)) for row in mat[w]]
                      for vec in vecs]
            reads = [image[p] for image, p in zip(images, pivots)]
            worst = max(worst, *(abs(d * x) for image, d in zip(images, heads)
                                 for x in image))
            if all(abs(h) <= abs(d) * width for h, d in zip(reads, heads)):
                compared += 1
                worst = max(worst, *(abs(d * x - h * y) for image, vec, h, d
                                     in zip(images, vecs, reads, heads)
                                     for x, y in zip(image, vec)))
        for a, vec in enumerate(vecs):
            for b, row in enumerate(chi):
                product = sum(map(mul, vec, row))
                expected = factorial(w) if a == b else 0
                worst = max(worst, abs(heads[a] * (product - expected)))
        assert worst <= bounds[w]
    assert compared > W + 1  # the comparison's digits were bounded too


@pytest.mark.parametrize("bits", [2, 3, 8, 61, 64])
def test_signed_digits_round_trip(bits):
    top = (1 << bits - 1) - 1  # the largest digit magnitude allowed
    digits = [top, -top, 0, -1, 1, -top, top, top // 2, -(top // 3)]
    packed, = hamiltonians._pack([digits], [1] * len(digits), bits)
    assert hamiltonians._unpack(packed, bits, len(digits)) == digits
    assert packed == sum(d * 2 ** (bits * l) for l, d in enumerate(digits))


def test_pack_joins_its_blocks_of_32_digits():
    # 100 digits make four blocks, the last one short; each vector is
    # weighted digit by digit
    rng = random.Random(3)
    bits = 40
    top = (1 << bits - 2) - 1
    vectors = [[rng.randint(-top, top) for _ in range(100)] for _ in range(3)]
    weights = [rng.choice([-2, -1, 1, 2]) for _ in range(100)]
    packed = hamiltonians._pack(vectors, weights, bits)
    assert packed == [sum(x * w * 2 ** (bits * l)
                          for l, (x, w) in enumerate(zip(v, weights)))
                      for v in vectors]
    assert [hamiltonians._unpack(x, bits, 100) for x in packed] == [
        [x * w for x, w in zip(v, weights)] for v in vectors]


def test_too_narrow_digits_miss_a_failure(monkeypatch):
    # at the width of the bound the off-diagonal change fails on V_6 only;
    # at 2 bits the digits carry into each other, none of its entries is
    # reported, and the commuting operators seem not to commute
    ops = hamiltonian_generating_coefficients(3, 6)
    caught = verify_commutativity(3, 6, _off_diagonal(ops))["failures"]
    assert {(f["n"], f["weight"]) for f in caught} == {(3, 6)}
    assert verify_commutativity(3, 6, ops)["failures"] == []
    monkeypatch.setattr(hamiltonians, "_digit_bits", lambda bound: 2)
    narrow = verify_commutativity(3, 6, _off_diagonal(ops))["failures"]
    assert not [f for f in caught if f in narrow]
    assert verify_commutativity(3, 6, ops)["failures"]


# ---------------------------------------------------------------------------
# the premise memo: one `_lift_failures` run per chain of coefficient
# objects, length and base case


def _with_terms(operators, terms):
    """operators with {n: {(alpha, beta): coefficient}} set in H_n."""
    out = list(operators)
    for n, extra in terms.items():
        out[n + 1] = NormalOrderedOperator({**out[n + 1].terms, **extra})
    return out


def _premise_entries(report):
    return [(f["premise"], f["n"], f["alpha"], f["beta"])
            for f in report["failures"] if "premise" in f]


def test_premise_memo_keeps_the_length():
    # one object at two weight-7 pairs no other operator has: graded for
    # l(alpha) + l(beta) = 2, not for 3, and not u0 free of H_2
    c = ExactScalar.monomial(1, 3) + ExactScalar.monomial(1, 2, 1)
    short = (((7, 1),), ((7, 1),))
    long = (((1, 1), (6, 1)), ((7, 1),))
    ops = _with_terms(hamiltonian_generating_coefficients(3, 6),
                      {3: {short: c, long: c}})
    assert ops[4].terms[short] is ops[4].terms[long]
    assert _premise_entries(verify_commutativity(3, 6, ops)) == [
        ("grading", 3, [[1, 1], [6, 1]], [[7, 1]]),
        ("u0_expansion", 3, [[1, 1], [6, 1]], [[7, 1]]),
        ("u0_expansion", 3, [[7, 1]], [[7, 1]])]


def test_premise_memo_keeps_the_identity_apart():
    # q7 p7 given the identity's coefficient object in every H_n: its
    # chain is the identity's, but of length 2 and based on 0, not on Id
    ops = hamiltonian_generating_coefficients(3, 6)
    pair = (((7, 1),), ((7, 1),))
    ops = _with_terms(ops, {n: {pair: ops[n + 1].terms[((), ())]}
                            for n in range(-1, 4)})
    assert _premise_entries(verify_commutativity(3, 6, ops)) == [
        ("grading", -1, [[7, 1]], [[7, 1]]),
        ("u0_expansion", -1, [[7, 1]], [[7, 1]])] + [
        ("grading", n, [[7, 1]], [[7, 1]]) for n in range(4)]


# ---------------------------------------------------------------------------
# the failure entries of both verifiers, pinned: content, key order and entry
# order as the sweep rendered them before it read every eigenvalue off a pivot

FAILURE_ENTRIES_SHA256 = (
    "6c315e444599fe3c97e2e61495945dd35212546359c609d01d46c0cb87c14cac")


def _all_failure_entries(monkeypatch):
    """The failure lists of `verify_commutativity(3, 6)` and
    `verify_eigenvectors(3, 6)` on every operator perturbation above, on
    a q1 p1 coefficient of two u0-free terms (its value at u0 = 0 is their
    sum), on each eigenvalue perturbation and on each broken table."""
    generate = hamiltonian_generating_coefficients
    cases = [_perturbed(generate(3, 6), *PERTURBATIONS[name][:2])
             for name in sorted(PERTURBATIONS)]
    cases.append(_perturbed(generate(3, 6), 3, ExactScalar.monomial(1, 3)
                            + ExactScalar.monomial(2, 5)))
    cases += [_off_diagonal(generate(3, 6)), _eigenvalue_shift(generate(3, 6))]
    entries = []
    for ops in cases:
        entries.append(verify_commutativity(3, 6, ops)["failures"])
        entries.append(verify_eigenvectors(3, 6, ops)["failures"])
    for name in sorted(EIGENVALUE_PERTURBATIONS):
        series = {lam: eigenvalue_series(lam, 3) for lam in partitions_upto(6)}
        series[(2, 1)][3] = series[(2, 1)][3] + EIGENVALUE_PERTURBATIONS[name]
        entries.append(verify_eigenvectors(3, 6, series=series)["failures"])
    for table in ("wrong", "singular"):
        with monkeypatch.context() as patch:
            break_character_table(patch, table)
            entries.append(verify_commutativity(3, 6)["failures"])
            entries.append(verify_eigenvectors(3, 6)["failures"])
    return entries


def test_failure_entries_are_pinned(monkeypatch):
    entries = _all_failure_entries(monkeypatch)
    assert [len(failures) for failures in entries] == [
        1, 1, 28, 29, 1, 1, 29, 30, 29, 30, 9, 9, 0, 30, 1, 1, 6, 3, 1, 2]
    digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
    assert digest == FAILURE_ENTRIES_SHA256
