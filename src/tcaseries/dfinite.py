"""Exact guessing of linear ODEs with polynomial coefficients.

Given a truncated coefficient series, search for the lexicographically
minimal (order, degree) annihilating operator sum_i p_i(t) y^(i) over the
rationals, with enough surplus equations to make a miss trustworthy. One
reduction modulo a prime per order skips every (order, degree) pair it proves
to have a trivial rational nullspace; the prime only filters, and every
operator returned comes from a basis checked exactly over the rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import perm

from .polyutil import Poly, cleared, echelon, over_common_denominator, ptrim, residues, size
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
_MARGIN = 10  # equations beyond the unknowns of the largest system: a miss is trustworthy


def needed_length(max_order: int, max_degree: int) -> int:
    """Coefficients required before a failed search may return None."""
    max_order, max_degree = size(max_order, "max_order", 1), size(max_degree, "max_degree")
    return (max_order + 1) * (max_degree + 1) + max_order + _MARGIN


def apply_ode(op: OdeOperator, coeffs: CoeffSeries) -> list[Fraction]:
    """Residual coefficients of sum_i p_i(t) y^(i) at t^m for every m where
    the truncation of y determines them (m = 0 .. len(coeffs)-1-order),
    summed in integers over the common denominator of series and operator."""
    ly, ys = cleared(coeffs)
    lp, sums = _residual_sums(op, ys)
    return [Fraction(n, lp * ly) for n in sums]


def _residual_sums(op: OdeOperator, ys: list[int]) -> tuple[int, list[int]]:
    """(lp, lp times the residuals of the integer series ys), lp the common
    denominator of the operator's coefficients."""
    lp, ps = over_common_denominator(*(dict(enumerate(p)) for p in op.coeffs))
    return lp, [sum(c * ys[m - j + i] * perm(m - j + i, i)
                    for i, p in enumerate(ps) for j, c in p.items() if c and j <= m)
                for m in range(len(ys) - op.order)]


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
    L, ints = cleared([c for p in polys for c in p])
    scale = Fraction(L, math.gcd(*ints))
    if polys[-1][-1] < 0:
        scale = -scale
    return tuple(tuple(c * scale for c in p) for p in polys)


def _ode_rows(ds: list[list[int]], r: int, cols: list[tuple[int, int]]) -> list[list[int]]:
    """Linear system of sum c_ij t^j y^(i) = 0 from ds[i][n] = (n)_i y_n: one
    unknown c_ij per (i, j) of `cols` (i <= r), in that order, and one row,
    whatever the columns, per coefficient of t^m that the truncation determines."""
    return [[ds[i][m - j + i] if j <= m else 0 for i, j in cols]
            for m in range(len(ds[0]) - r)]


def guess_ode(coeffs: CoeffSeries, max_order: int = 6, max_degree: int = 8,
              certificate: dict | None = None) -> OdeOperator | None:
    """Search orders 1..max_order, degrees 0..max_degree in lexicographic
    order for an operator annihilating the series; None means no operator
    within the caps fits the data. Raises ValueError for caps below (1, 0)
    and when the series is too short for a None to be meaningful.

    Each order's system at max_degree, unknowns degree-major, is reduced once
    modulo a prime. When its first k columns are pivots, each (r, d) system
    with (r+1)(d+1) <= k, a column prefix, has full column rank there, which
    proves its rational nullspace trivial; each other pair is solved by a
    basis checked exactly over the rationals (polyutil.nullspace). A dict
    passed as `certificate` receives that prime under "prime" and the pairs it
    proved empty under "pairs"; the prime is None when every prime tried
    divides a denominator of the series, or divides every coefficient of a
    series that is not zero.

    Output normalization: integer coefficients of content 1, positive leading
    coefficient of the leading polynomial; operators singular at the origin
    are returned in cleared Frobenius form (a polynomial in t*d/dt), which may
    raise the reported degree above that of the raw minimal solution."""
    max_order, max_degree = size(max_order, "max_order", 1), size(max_degree, "max_degree")
    need = needed_length(max_order, max_degree)
    if len(coeffs) < need:
        raise ValueError(
            f"need at least {need} coefficients for caps "
            f"({max_order}, {max_degree}), got {len(coeffs)}")
    coeffs = [Fraction(c) for c in coeffs]
    # the prime divides no denominator, so the common denominator is a unit
    # modulo it: scaling the series scales every system's rows, and leaves
    # the nullspaces and the pivots modulo the prime unchanged
    L, ys = cleared(coeffs)
    p = (residues(L, ys) or (None,))[0]
    ds = [[perm(n, i) * y for n, y in enumerate(ys)] for i in range(max_order + 1)]
    certified = []
    if certificate is not None:
        certificate.update(prime=p, pairs=certified)
    for r in range(1, max_order + 1):
        # degree-major unknowns (j, i): each (r, d) system is a column prefix
        cols = [(i, j) for j in range(max_degree + 1) for i in range(r + 1)]
        k = len(echelon(_ode_rows(ds, r, cols), len(cols), p, prefix=True)[0]) if p else 0
        certified += [(r, d) for d in range(k // (r + 1))]
        for d in range(k // (r + 1), max_degree + 1):
            # order-major unknowns (i, j): a nullspace of dimension above 1
            # yields its basis, and so the operator, by the column order
            cols = [(i, j) for i in range(r + 1) for j in range(d + 1)]
            for vec in _nullspace(_ode_rows(ds, r, cols), len(cols)):
                polys = [ptrim(vec[i * (d + 1):(i + 1) * (d + 1)]) for i in range(r + 1)]
                if not polys[-1]:
                    continue
                op = OdeOperator(_normalize(_frobenius_lift(polys)))
                if any(_residual_sums(op, ys)[1]):
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
