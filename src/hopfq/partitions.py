"""Partitions (Young tableaux): Frobenius coordinates, hooks, dimensions,
enumeration, and a brute-force standard-Young-tableaux oracle.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the empty partition.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import NamedTuple

SYT_BOUND = 12


def size(partition):
    return sum(partition)


def transpose(partition):
    """Conjugate partition: column lengths of the Young diagram."""
    if not partition:
        return ()
    return tuple(sum(1 for p in partition if p >= j)
                 for j in range(1, partition[0] + 1))


class Frobenius(NamedTuple):
    alpha: tuple
    beta: tuple


def frobenius(partition):
    """Frobenius coordinates alpha_i = lambda_i - i, beta_i = lambda'_i - i
    along the diagonal d = max{i : lambda_i >= i}."""
    conj = transpose(partition)
    d = sum(1 for i, p in enumerate(partition, start=1) if p >= i)
    alpha = tuple(partition[i - 1] - i for i in range(1, d + 1))
    beta = tuple(conj[i - 1] - i for i in range(1, d + 1))
    return Frobenius(alpha, beta)


def b_sign_exponent(partition):
    """sum_i beta_i over the Frobenius beta coordinates.

    (-1) to this exponent is the sign relating the fermionic creation-string
    state of a partition to its Schur polynomial image.
    """
    return sum(frobenius(partition).beta)


def hooks(partition):
    """Hook lengths h(i, j) over all cells."""
    conj = transpose(partition)
    return [partition[i] - j - 1 + conj[j] - i
            for i in range(len(partition)) for j in range(partition[i])]


@lru_cache(maxsize=None)
def dim(partition):
    """Dimension of the S_n irreducible via the hook length formula."""
    n = size(partition)
    prod = 1
    for h in hooks(partition):
        prod *= h
    d, rem = divmod(factorial(n), prod)
    assert rem == 0
    return d


def syt_count(partition, bound=SYT_BOUND):
    """Number of standard Young tableaux by backtracking enumeration.

    Independent of the hook formula; refuses partitions larger than `bound`.
    """
    n = size(partition)
    if n > bound:
        raise ValueError(f"|partition| = {n} exceeds the enumeration bound {bound}")
    if n == 0:
        return 1
    rows = len(partition)

    def extend(filled):
        # filled[i] = number of entries already placed in row i
        if sum(filled) == n:
            return 1
        total = 0
        for i in range(rows):
            if filled[i] < partition[i] and (i == 0 or filled[i - 1] > filled[i]):
                filled[i] += 1
                total += extend(filled)
                filled[i] -= 1
        return total

    return extend([0] * rows)


@lru_cache(maxsize=None)
def partitions_of(n):
    """All partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")

    def generate(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in generate(remaining - first, first):
                yield (first,) + rest

    return tuple(generate(n, n))


def partitions_upto(weight):
    """All partitions of size 0..weight, sizes ascending, rev-lex within."""
    return [p for n in range(weight + 1) for p in partitions_of(n)]


def render(partition):
    return "[" + ",".join(str(p) for p in partition) + "]"
