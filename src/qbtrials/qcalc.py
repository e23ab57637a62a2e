"""q-calculus primitives, exact term sums and the classical composition counts.

All functions are total on their stated domains and exact when given
`fractions.Fraction` arguments; q = 1 is always the continuous extension
(the ordinary combinatorial value).

Every probability of length-n sequences sums, over classes of f failures,
terms theta**(n-f) * q**j * (theta; q)_f * K, K an integer polynomial in q.
`term_sum` adds such terms at rational theta and q, each K given as an
integer numerator over a power of b, q = a/b: read off the arrangement
tables at that q (or, for the oracle, the Horner numerator of one failure
count's sequence counts), so no formula evaluates a polynomial there.  The
oracle sums at a float theta or q too, at its exact binary value, and
rounds the sum once.
At rational theta = c/d and q = a/b every term of the n-th probability
has a denominator dividing d**n * b**B for some B, so the exact sum is one
integer numerator over that common denominator, and one `Fraction` is
built at the end.  `poly_value` evaluates a polynomial at q, by integer
Horner at Fraction q, for the single-kernel API.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[int, float, Fraction]

DEFAULT_TOLERANCE = 1e-10


def is_exact(th: Scalar, q: Scalar) -> bool:
    """Whether theta and q are both ints or Fractions: exact inputs."""
    return isinstance(th, (int, Fraction)) and isinstance(q, (int, Fraction))


def _one(*args: Scalar) -> Scalar:
    """The int 1, or 1.0 once an argument is a float: the empty product."""
    for x in args:
        if isinstance(x, float):
            return 1.0
    return 1


def _div(a: Scalar, b: Scalar) -> Scalar:
    """a / b, as an int when both are ints: every quotient taken here is the
    value of an integer polynomial at an int q, so b divides a."""
    return a // b if isinstance(a, int) and isinstance(b, int) else a / b


def q_number(z: int, q: Scalar) -> Scalar:
    """[z]_q = (1 - q**z) / (1 - q), continuously extended to z at q = 1."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    if q == 1:
        return z * _one(q)
    return _div(1 - q ** z, 1 - q)


def q_factorial(m: int, q: Scalar) -> Scalar:
    """Product of [j]_q for j = 1..m; 1 for m = 0."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = _one(q)
    for j in range(1, m + 1):
        out = out * q_number(j, q)
    return out


def q_binomial(n: int, m: int, q: Scalar) -> Scalar:
    """Gaussian binomial coefficient; 0 outside 0 <= m <= n.

    Evaluated as a product of q-number ratios, which stays stable through
    q = 1 (where it reduces to the ordinary binomial coefficient).  Each
    partial product is itself a Gaussian binomial, an integer polynomial,
    so at int q every division is exact.
    """
    if m < 0 or m > n:
        return 0 * _one(q)
    if q == 1:
        return math.comb(n, m) * _one(q)
    m = min(m, n - m)
    out = _one(q)
    for j in range(1, m + 1):
        out = _div(out * q_number(n - m + j, q), q_number(j, q))
    return out


def q_pochhammer(a: Scalar, q: Scalar, n: int) -> Scalar:
    """(a; q)_n = product over k = 0..n-1 of (1 - a*q**k)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = _one(a, q)
    for k in range(n):
        out = out * (1 - a * q ** k)
    return out


def horner_numerator(coeffs, a: int, b: int) -> int:
    """sum c_i a**i b**(deg-i) for coeffs c_0..c_deg: the numerator of the
    polynomial at q = a/b over b**deg."""
    num = coeffs[-1]
    bp = 1
    for c in reversed(coeffs[:-1]):
        bp *= b
        num = num * a + c * bp
    return num


def poly_value(coeffs, q: Scalar) -> Scalar:
    """The integer polynomial c_0 + c_1 q + ... at q: the coefficient sum at
    q = 1 (an int unless q is a float), exact at Fraction q by integer
    Horner and one Fraction, by float Horner otherwise."""
    if q == 1:
        total = sum(coeffs)
        return total if isinstance(q, (int, Fraction)) else float(total)
    if isinstance(q, Fraction):
        return Fraction(horner_numerator(coeffs, q.numerator, q.denominator),
                        q.denominator ** (len(coeffs) - 1))
    out: Scalar = 0
    for c in reversed(coeffs):
        out = out * q + c
    return out


# (point (c, d, a, b), its Pochhammer numerators N_0..N_m): one pair, replaced
# by a single assignment, so a reader always sees a key and numerators that
# belong together, and it holds one point's numerators
_numerator_memo: tuple = (None, ())


def _numerators(point: tuple, n: int) -> tuple:
    """N_0..N_m, m >= n, at point = (c, d, a, b): N_f = prod_{k<f}
    (d b**k - c a**k) is the numerator of (c/d; a/b)_f over d**f
    b**(f(f-1)/2).  Held for the last point asked for, extended as n grows."""
    global _numerator_memo
    key, nums = _numerator_memo
    if key == point and len(nums) > n:
        return nums
    grown = list(nums) if key == point else [1]
    c, d, a, b = point
    for k in range(len(grown) - 1, n):
        grown.append(grown[-1] * (d * b ** k - c * a ** k))
    nums = tuple(grown)
    _numerator_memo = point, nums
    return nums


def term_sum(th: Scalar, q: Scalar, n: int, terms) -> Scalar:
    """Sum of theta**(n-f) * q**j * (theta; q)_f * K over the (j, f, h, e)
    of `terms`, K = h / b**e, at one exact (theta, q): ints or Fractions.
    Each term is a class of length-n sequences with f <= n failures.

    At theta = c/d and q = a/b the term is the integer c**(n-f) a**j N_f h
    over d**n b**(j + f(f-1)/2 + e), where N_f = prod_{k<f} (d b**k - c a**k)
    is the Pochhammer numerator.  The numerators are held per point
    (`_numerators`), so the sums of one table, which ask for every n at one
    (theta, q), compute each N_f once.  The running numerator is rescaled
    when a term needs a larger power of b, and one Fraction is built at the
    end (an int when neither input is a Fraction).  The formula layer's
    float sums take their terms elsewhere, as one numpy product
    (`distributions._mass`); the oracle's pass a float's exact binary value
    here and round the sum once.

    A term whose h is zero is skipped.  With no other term the sum is the
    int 0; a term with a zero prefactor (theta = 1) makes a sum at Fraction
    inputs Fraction(0).
    """
    c, d, a, b = point = th.numerator, th.denominator, q.numerator, q.denominator
    pochhammer = _numerators(point, n)
    added = False
    total = b_exp = 0
    for j, f, h, e in terms:
        if not h:
            continue
        added = True
        num = c ** (n - f) * a ** j * pochhammer[f] * h
        e += j + f * (f - 1) // 2
        if e > b_exp:
            total *= b ** (e - b_exp)
            b_exp = e
        else:
            num *= b ** (b_exp - e)
        total += num
    if not added:
        return 0
    if isinstance(th, Fraction) or isinstance(q, Fraction):
        return Fraction(total, d ** n * b ** b_exp)
    return total


def _comb(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def count_S(a: int, b: int, c: int) -> int:
    """Compositions of c into a parts, each strictly between 0 and b."""
    if a == 0:
        return 1 if c == 0 else 0
    if a < 0 or c < a:
        return 0
    total = 0
    for j in range(a + 1):
        term = _comb(a, j) * _comb(c - j * (b - 1) - 1, a - 1)
        total += term if j % 2 == 0 else -term
    return total


def count_M(a: int, b: int) -> int:
    """Compositions of b into a positive parts."""
    if a == 0:
        return 1 if b == 0 else 0
    if a < 0 or b < a:
        return 0
    return _comb(b - 1, a - 1)


def count_R(a: int, b: int, c: int) -> int:
    """Compositions of c into a positive parts with at least one part >= b."""
    return count_M(a, c) - count_S(a, b, c)


def count_C(a: int, b: int, c: int) -> int:
    """Solutions of x1 + ... + xb = a with 0 <= xi <= c: each xi + 1 is a
    part of a + b strictly between 0 and c + 2."""
    return count_S(b, c + 2, a + b)
