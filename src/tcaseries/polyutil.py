"""Dense univariate polynomials over Fraction: tuples of ascending coefficients.

The zero polynomial is the empty tuple; no trailing zeros are stored.
"""

from __future__ import annotations

import math
from fractions import Fraction

Poly = tuple[Fraction, ...]


def ptrim(coeffs) -> Poly:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pdeg(p: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return ptrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def pscale(a: Poly, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(out)


def pderiv(a: Poly) -> Poly:
    return ptrim([a[i] * i for i in range(1, len(a))])


def pcompose_neg(a: Poly) -> Poly:
    """p(t) -> p(-t)."""
    return tuple((-1) ** i * c for i, c in enumerate(a))


def falling(m: int, k: int) -> int:
    """Falling factorial (m)_k = m (m-1) ... (m-k+1)."""
    out = 1
    for i in range(k):
        out *= m - i
    return out


def binom(n: int, k: int) -> int:
    if k < 0 or k > n >= 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    raise ValueError("negative upper index")


def factorial(n: int) -> int:
    return math.factorial(n)
