"""Dense univariate polynomials over Fraction: tuples of ascending coefficients.

The zero polynomial is the empty tuple; no trailing zeros are stored. Also
the package's one exact linear-algebra kernel, ``nullspace``.
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


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of the matrix, by reduced row echelon."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for rix, pc in enumerate(pivots):
            vec[pc] = -mat[rix][fc]
        basis.append(vec)
    return basis
