"""Partitions (Young tableaux): transposes, hooks, dimensions by the hook
formula, and enumeration.  Frobenius coordinates and a brute-force
standard-Young-tableaux count are test oracles, in `tests/oracles.py`.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the empty partition.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial


def size(partition):
    return sum(partition)


def transpose(partition):
    """Conjugate partition: column lengths of the Young diagram."""
    if not partition:
        return ()
    return tuple(sum(1 for p in partition if p >= j)
                 for j in range(1, partition[0] + 1))


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
