"""Exact coefficient arithmetic.

The symbolic coefficient ring is Q[u0][eps, eps^-1], with the quantization
parameter hbar represented as eps^2 throughout (half-integer hbar powers occur
in the disk amplitudes, so eps is the primitive variable).  `SparseSum` and
`add_into` hold the sum-of-terms rule shared by every coefficient map in the
package: scalars, Fock polynomials, operators, wedge vectors, v-Laurent
coefficients and the KP taus, which carry a valid weight and eps through
`SparseSum._like`; `SparseSum.remap`, `scaled` and `product` are its one
term-by-term map, scaling and ring product.  Also provides Bernoulli
numbers, the Taylor coefficients of s(t) = sinh(t/2)/(t/2) and 1/s(t), which
govern the quantum corrections, the eigenvalue series built on 1/s(t),
and `lift`, which attaches u0 and eps to a series in t = eps z.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul


def add_into(terms, key, value):
    """terms[key] += value, deleting the entry when the sum is zero.

    The one accumulation rule of every sparse sum in the package: a
    coefficient map never stores a zero.
    """
    old = terms.get(key)
    if old is not None:
        value = old + value
    if value:
        terms[key] = value
    elif old is not None:
        del terms[key]


def _numerators(values):
    """(nums, den): the rationals `values` as integer numerators over their
    least common denominator den, which is asserted nonzero."""
    values = list(values)
    den = lcm(*(q.denominator for q in values))
    assert den, "a zero scale would turn every value into 0"
    return [q.numerator * (den // q.denominator) for q in values], den


class SparseSum:
    """Finite sum of terms: a sparse map key -> coefficient with no zero
    coefficients.  Subclasses fix the key type and the coefficient ring and
    add their products; the additive group structure lives here.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms is trusted to be reduced (no zero coefficients)
        self.terms = terms or {}

    def _like(self, terms):
        """Self's kind over terms; a subclass passes on its other state."""
        return type(self)(terms)

    @classmethod
    def zero(cls):
        return cls()

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        terms = dict(self.terms)
        for key, value in other.terms.items():
            add_into(terms, key, value)
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def remap(self, fn):
        """The sum of fn(key, coefficient) over the terms, where fn returns a
        (key, coefficient) pair, or None to drop the term.  Terms that land
        on one key are summed through `add_into`."""
        terms = {}
        for key, value in self.terms.items():
            term = fn(key, value)
            if term is not None:
                add_into(terms, *term)
        return self._like(terms)

    def scaled(self, c):
        """Every coefficient times c; the coefficient rings have no zero
        divisors, so only c = 0 makes a term vanish."""
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def product(self, other, key_mul):
        """Ring product, the keys of two terms combined by key_mul."""
        terms = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                add_into(terms, key_mul(k1, k2), v1 * v2)
        return self._like(terms)


def _add_pairs(a, b):
    """The (eps power, u0 power) key of a product of two monomials."""
    return a[0] + b[0], a[1] + b[1]


class ExactScalar(SparseSum):
    """Element of Q[u0][eps, eps^-1], stored as a sparse map
    (eps power, u0 power) -> Fraction with no zero entries.

    eps powers may be negative; u0 powers are non-negative (the ring is never
    localized at u0).  Instances are immutable by convention.
    """

    __slots__ = ()

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, value):
        value = Fraction(value)
        if value == 0:
            return cls()
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, value, eps_power=0, u0_power=0):
        value = Fraction(value)
        if u0_power < 0:
            raise ValueError("u0 powers must be non-negative")
        if value == 0:
            return cls()
        return cls({(eps_power, u0_power): value})

    @classmethod
    def one(cls):
        return cls({(0, 0): Fraction(1)})

    @classmethod
    def eps(cls, power=1):
        return cls({(power, 0): Fraction(1)})

    @classmethod
    def hbar(cls, power=1):
        """hbar^power = eps^(2*power); power may be a half-integer Fraction."""
        p = Fraction(power) * 2
        if p.denominator != 1:
            raise ValueError("hbar power must be a multiple of 1/2")
        return cls.eps(int(p))

    # -- ring structure: int and Fraction operands coerce -----------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactScalar.from_rational(other)
        return SparseSum.__eq__(self, other)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactScalar.from_rational(other)
        return SparseSum.__add__(self, other)

    __radd__ = __add__

    def __rsub__(self, other):
        return ExactScalar.from_rational(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.product(other, _add_pairs)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        result = ExactScalar.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- views and specializations ---------------------------------------

    def shift_eps(self, power):
        """Multiply by eps^power (power may be negative)."""
        return self.remap(lambda key, v: ((key[0] + power, key[1]), v))

    def substitute(self, eps=None, u0=None):
        """Substitution homomorphism eps -> rational and/or u0 -> rational."""
        def point(key, v):
            e, u = key
            if eps is not None:
                if eps == 0 and e < 0:
                    raise ZeroDivisionError("negative eps power at eps=0")
                v = v * Fraction(eps) ** e
                e = 0
            if u0 is not None:
                v = v * Fraction(u0) ** u
                u = 0
            return (e, u), v
        return self.remap(point)

    def as_fraction(self):
        """Value as a rational; raises if eps or u0 survive."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {(0, 0)}:
            raise ValueError(f"not a pure rational: {self.render()}")
        return self.terms[(0, 0)]

    # -- rendering --------------------------------------------------------

    def render(self):
        """Canonical text form: sum of `c * u0^a * eps^b`, sorted by (b, a)."""
        if not self.terms:
            return "0"
        parts = []
        for (e, u), v in sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            factors = [str(v)]
            if u:
                factors.append(f"u0^{u}")
            if e:
                factors.append(f"eps^{e}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"ExactScalar({self.render()})"

    def to_json(self):
        """Array of [eps power, u0 power, numerator, denominator], sorted."""
        return [[e, u, v.numerator, v.denominator]
                for (e, u), v in sorted(self.terms.items())]


@lru_cache(maxsize=None)
def bernoulli(n):
    """Bernoulli number B_n in the convention B_1 = -1/2.

    Computed from sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return Fraction(1)
    total = sum(comb(n + 1, j) * bernoulli(j) for j in range(n))
    return -total / (n + 1)


def s_series(order):
    """Taylor coefficients of s(t) = sinh(t/2) / (t/2) up to the given order,
    as a list indexed by the power of t.

    s(t) = 1 + sum_{n>=1} t^(2n) / (2^(2n) (2n+1)!); odd coefficients vanish.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = []
    fact = 1
    for n in range(order + 1):
        if n:
            fact *= n + 1
        if n % 2 == 0:
            coeffs.append(Fraction(1, 2 ** n * fact))
        else:
            coeffs.append(Fraction(0))
    return coeffs


def inv_s_series(order):
    """Coefficients of 1/s(t): (2^(1-n) - 1) B_n / n! at t^n."""
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = []
    fact = 1
    for n in range(order + 1):
        if n:
            fact *= n
        coeffs.append((Fraction(2) ** (1 - n) - 1) * bernoulli(n) / fact)
    return coeffs


@lru_cache(maxsize=None)
def _inv_s_memo(order):
    """`inv_s_series(order)`, built once per order.  A tuple, because the
    cache hands the same object to every caller."""
    return tuple(inv_s_series(order))


def eigenvalue_inner_series(exponentials, order):
    """G(t) = 1/s(t) + t sum_e c_e e^{te} to the given order, for the
    exponential multiset {e: c}: every eigenvalue series is e^{z u0} G(eps z).

    With the exponents written h_e / d over their lcm d, t e^{te} adds
    c_e h_e^(n-1) / (d^(n-1) (n-1)!) at t^n, so each t^n gets one integer
    power sum over one denominator.
    """
    inner = list(_inv_s_memo(order))
    numerators, d = _numerators(map(Fraction, exponentials))
    powers = list(exponentials.values())  # c_e h_e^(n-1)
    den = 1  # d^(n-1) (n-1)!
    for n in range(1, order + 1):
        total = sum(powers)
        if total:
            inner[n] += Fraction(total, den)
        powers = list(map(mul, powers, numerators))
        den *= d * n
    return inner


def lift(g, length, n, den=1):
    """Coefficient of z^(n+2) in e^{z u0} z^length g(eps z) / den, for g the
    list of coefficients of a series over Q, or of integer numerators over
    the common denominator den:
    sum_i g_i eps^i u0^(d-i) / (den (d-i)!) with d = n + 2 - length.

    Every generated series of the package (the operators H_n, the
    eigenvalues E_k) has this shape, so this is the one place where u0 and
    eps enter it.  Raises IndexError if g is truncated below t^d.
    """
    d = n + 2 - length
    terms = {}
    for i in range(d + 1):
        if g[i]:
            terms[(i, d - i)] = Fraction(g[i], den * factorial(d - i))
    return ExactScalar(terms)
