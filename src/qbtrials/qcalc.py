"""q-calculus primitives and the classical composition-counting functions.

All functions are total on their stated domains and exact when given
`fractions.Fraction` arguments; q = 1 is always the continuous extension
(the ordinary combinatorial value).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[int, float, Fraction]

DEFAULT_TOLERANCE = 1e-10


def q_number(z: int, q: Scalar) -> Scalar:
    """[z]_q = (1 - q**z) / (1 - q), continuously extended to z at q = 1."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    if q == 1:
        return z if isinstance(q, (int, Fraction)) else float(z)
    return (1 - q ** z) / (1 - q)


def q_factorial(m: int, q: Scalar) -> Scalar:
    """Product of [j]_q for j = 1..m; 1 for m = 0."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    out: Scalar = 1
    for j in range(1, m + 1):
        out = out * q_number(j, q)
    return out


def q_binomial(n: int, m: int, q: Scalar) -> Scalar:
    """Gaussian binomial coefficient; 0 outside 0 <= m <= n.

    Evaluated as a product of q-number ratios, which stays stable through
    q = 1 (where it reduces to the ordinary binomial coefficient).
    """
    if m < 0 or m > n:
        return 0
    if q == 1:
        c = math.comb(n, m)
        return c if isinstance(q, (int, Fraction)) else float(c)
    m = min(m, n - m)
    out: Scalar = 1
    for j in range(1, m + 1):
        out = out * q_number(n - m + j, q) / q_number(j, q)
    return out


def q_pochhammer(a: Scalar, q: Scalar, n: int) -> Scalar:
    """(a; q)_n = product over k = 0..n-1 of (1 - a*q**k)."""
    return q_pochhammer_prefixes(a, q, n)[-1]


def q_pochhammer_prefixes(a: Scalar, q: Scalar, n: int) -> list[Scalar]:
    """[(a; q)_0, ..., (a; q)_n], each the one before it times (1 - a*q**k)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Scalar] = [1]
    for k in range(n):
        out.append(out[-1] * (1 - a * q ** k))
    return out


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
    if a <= 0:
        return 0
    total = 0
    for j in range(1, a + 1):
        term = _comb(a, j) * _comb(c - j * (b - 1) - 1, a - 1)
        total += -term if j % 2 == 0 else term
    return total


def count_C(a: int, b: int, c: int) -> int:
    """Solutions of x1 + ... + xb = a with 0 <= xi <= c."""
    if a == 0:
        return 1
    if a < 0 or b <= 0 or c < 0:
        return 0
    total = 0
    for j in range(b + 1):
        term = _comb(b, j) * _comb(a - (c + 1) * j + b - 1, b - 1)
        total += term if j % 2 == 0 else -term
    return total
