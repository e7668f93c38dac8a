"""Exact guessing of linear ODEs with polynomial coefficients.

Given a truncated coefficient series, search for the lexicographically
minimal (order, degree) annihilating operator sum_i p_i(t) y^(i) over the
rationals, with enough surplus equations to make a miss trustworthy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polyutil import Poly, falling, ptrim
# perfbench/tracing.py wraps dfinite._nullspace by this name
from .polyutil import nullspace as _nullspace
from .seriesforms import OdeOperator

__all__ = [
    "CoeffSeries",
    "apply_ode",
    "guess_ode",
    "hadamard",
    "needed_length",
    "ode_to_text",
]

CoeffSeries = list[Fraction]


def needed_length(max_order: int, max_degree: int, margin: int = 10) -> int:
    """Coefficients required before a failed search may return None."""
    return (max_order + 1) * (max_degree + 1) + max_order + margin


def apply_ode(op: OdeOperator, coeffs: CoeffSeries) -> list[Fraction]:
    """Residual coefficients of sum_i p_i(t) y^(i) at t^m for every m where
    the truncation of y determines them (m = 0 .. len(coeffs)-1-order)."""
    r = op.order
    out = []
    for m in range(len(coeffs) - r):
        acc = Fraction(0)
        for i, p in enumerate(op.coeffs):
            for j, c in enumerate(p):
                if c and j <= m:
                    acc += c * coeffs[m - j + i] * falling(m - j + i, i)
        out.append(acc)
    return out


def _frobenius_lift(polys: list[Poly]) -> list[Poly]:
    """When the leading polynomial vanishes at the origin, multiply by the
    least power of t that makes every p_i divisible by t^i, so the operator
    is a polynomial in t*d/dt (Frobenius form at the singular point)."""
    def ord_t(p: Poly) -> int:
        return next(i for i, c in enumerate(p) if c)

    if polys[-1][0]:
        return polys
    k = max(0, max(i - ord_t(p) for i, p in enumerate(polys) if p))
    if k == 0:
        return polys
    return [(Fraction(0),) * k + tuple(p) if p else p for p in polys]


def _normalize(polys: list[Poly]) -> tuple[Poly, ...]:
    denom_lcm = 1
    for p in polys:
        for c in p:
            if c:
                denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    num_gcd = 0
    for p in polys:
        for c in p:
            if c:
                num_gcd = math.gcd(num_gcd, abs(c.numerator * (denom_lcm // c.denominator)))
    scale = Fraction(denom_lcm, num_gcd)
    lead = polys[-1]
    if lead[-1] * scale < 0:
        scale = -scale
    return tuple(tuple(c * scale for c in p) for p in polys)


def guess_ode(coeffs: CoeffSeries, max_order: int = 6, max_degree: int = 8,
              margin: int = 10) -> OdeOperator | None:
    """Search orders 1..max_order, degrees 0..max_degree in lexicographic
    order for an operator annihilating the series; None means no operator
    within the caps fits the data. Raises ValueError when the series is too
    short for a None to be meaningful.

    Output normalization: integer coefficients of content 1, positive leading
    coefficient of the leading polynomial; operators singular at the origin
    are returned in cleared Frobenius form (a polynomial in t*d/dt), which may
    raise the reported degree above that of the raw minimal solution."""
    if max_order < 1 or max_degree < 0:
        raise ValueError("need max_order >= 1 and max_degree >= 0")
    L = len(coeffs)
    need = needed_length(max_order, max_degree, margin)
    if L < need:
        raise ValueError(
            f"need at least {need} coefficients for caps "
            f"({max_order}, {max_degree}), got {L}")
    coeffs = [Fraction(c) for c in coeffs]
    for r in range(1, max_order + 1):
        rows_full = []
        for m in range(L - r):
            row = []
            for i in range(r + 1):
                for j in range(max_degree + 1):
                    if j <= m:
                        row.append(coeffs[m - j + i] * falling(m - j + i, i))
                    else:
                        row.append(Fraction(0))
            rows_full.append(row)
        width = max_degree + 1
        for d in range(max_degree + 1):
            cols = [i * width + j for i in range(r + 1) for j in range(d + 1)]
            rows = [[row[c] for c in cols] for row in rows_full]
            for vec in _nullspace(rows, len(cols)):
                polys = [ptrim(tuple(vec[i * (d + 1) + j] for j in range(d + 1)))
                         for i in range(r + 1)]
                if not polys[-1]:
                    continue
                op = OdeOperator(_normalize(_frobenius_lift(polys)))
                if any(apply_ode(op, coeffs)):
                    continue
                return op
    return None


def hadamard(a: CoeffSeries, b: CoeffSeries) -> CoeffSeries:
    return [Fraction(x) * Fraction(y) for x, y in zip(a, b)]


def _join_terms(pairs) -> str:
    """Signed sum of (coefficient, body) pairs; unit coefficients are dropped
    before a non-empty body, and an empty body stands for 1."""
    parts = []
    for c, body in pairs:
        mag = abs(c)
        if body and mag == 1:
            txt = body
        elif body:
            txt = f"{mag}*{body}"
        else:
            txt = str(mag)
        if not parts:
            parts.append(txt if c > 0 else f"-{txt}")
        else:
            parts.append(f" + {txt}" if c > 0 else f" - {txt}")
    return "".join(parts) if parts else "0"


def _t_power(j: int) -> str:
    return "" if j == 0 else "t" if j == 1 else f"t^{j}"


def _poly_times(p: Poly, name: str) -> tuple[Fraction, str]:
    """p(t)*name as one (coefficient, body) pair for _join_terms, with p in
    descending powers of t and bracketed when it has more than one term;
    name "" stands for 1."""
    support = [j for j in range(len(p) - 1, -1, -1) if p[j]]
    if len(support) > 1:
        text = _join_terms([(p[j], _t_power(j)) for j in support])
        return Fraction(1), "*".join(filter(None, (f"({text})", name)))
    j = support[0]
    return p[j], "*".join(filter(None, (_t_power(j), name)))


def _y_name(i: int) -> str:
    return "y" + "'" * i if i <= 3 else f"y^({i})"


def ode_to_text(op: OdeOperator) -> str:
    return _join_terms([_poly_times(op.coeffs[i], _y_name(i))
                        for i in range(op.order, -1, -1) if op.coeffs[i]])
