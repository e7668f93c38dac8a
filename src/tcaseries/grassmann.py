"""K-theory of the Grassmannian over a point: Bott pushforwards, the Euler
pairing, the character maps theta_r / mu_r, and determinantal-ring formulas.

Conventions: Y = Gr_r(C^d) carries the rank-r tautological quotient bundle Q
and the rank d-r subbundle R (0 -> R -> O^d -> Q -> 0). K(Y) classes are
written in the spanning set [S_alpha(Q)] with integer coefficients; no basis
truncation is imposed, relations are resolved through pushforward pairings.

R pi_* S_lam(Q) = S_lam(C^d) with no higher cohomology for partitions lam with
at most r parts; general weights on Q and R go through the dotted-Weyl-action
algorithm (`bott_pushforward`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .partitions import (
    Partition,
    as_partition,
    canonical_key,
    dim_schur,
    enumerate_partitions,
    format_partition,
    parse_partition,
    partition_factorial,
    partitions_up_to,
)
from .polyutil import binom, factorial
from . import symfunc
from .symfunc import SCHUR, SymFunc
from .seriesforms import (
    EnhancedExpr,
    ExpPoly,
    SigmaExpr,
    TSeries,
    TTPoly,
    ex_sigma,
    tt_add_into,
)
from .torus import LaurentPoly, _delta, schur_coefficients, schur_lp

__all__ = [
    "GrClass",
    "LambdaGrClass",
    "bott_pushforward",
    "detring_formal_character",
    "euler_schur_q",
    "gessel_enhanced",
    "grclass_from_json",
    "grclass_to_json",
    "lambda_grclass_from_json",
    "lambda_grclass_to_json",
    "m_shifted_class",
    "mu_r",
    "pairing",
    "pushforward_module_character",
    "rank1_enhanced_closed",
    "theta_r",
]

Weight = tuple[int, ...]


@dataclass(frozen=True)
class GrClass:
    """Integer K(Gr_r(C^d)) class sum c_alpha [S_alpha(Q)]."""

    d: int
    r: int
    terms: dict[Partition, int] = field(default_factory=dict)

    def __post_init__(self):
        if not (0 <= self.r <= self.d):
            raise ValueError(f"need 0 <= r <= d, got r={self.r}, d={self.d}")
        clean: dict[Partition, int] = {}
        for alpha, c in self.terms.items():
            alpha = as_partition(alpha)
            if len(alpha) > self.r:
                raise ValueError(f"class key {alpha} has more than r={self.r} rows")
            c = int(c)
            if c:
                clean[alpha] = clean.get(alpha, 0) + c
        clean = {k: c for k, c in sorted(clean.items(), key=lambda kv: canonical_key(kv[0])) if c}
        object.__setattr__(self, "terms", clean)


@dataclass(frozen=True)
class LambdaGrClass:
    """Element of Lambda tensor K(Gr_r): partition mu -> GrClass, fixed (d, r)."""

    terms: dict[Partition, GrClass] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[Partition, GrClass] = {}
        shape = None
        for mu, g in self.terms.items():
            mu = as_partition(mu)
            if shape is None:
                shape = (g.d, g.r)
            elif (g.d, g.r) != shape:
                raise ValueError(f"mixed (d, r): {shape} vs {(g.d, g.r)}")
            if g.terms:
                clean[mu] = g
        object.__setattr__(self, "terms",
                           dict(sorted(clean.items(), key=lambda kv: canonical_key(kv[0]))))

    def shape(self) -> tuple[int, int]:
        if not self.terms:
            raise ValueError("empty class has no (d, r)")
        g = next(iter(self.terms.values()))
        return (g.d, g.r)


def _check_weight(w, length: int, name: str) -> Weight:
    w = tuple(int(x) for x in w)
    if len(w) > length:
        raise ValueError(f"{name} has length {len(w)} > {length}")
    if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
        raise ValueError(f"{name} {w} is not weakly decreasing")
    return w + (0,) * (length - len(w))


def bott_pushforward(d: int, r: int, a, b) -> tuple[int, Weight] | None:
    """Dotted-Weyl-action pushforward of S_a(Q) tensor S_b(R) to a point.

    Returns None when the shifted weight is singular (all cohomology zero),
    else (l, w): the only nonvanishing cohomology is H^l, equal to the
    GL_d-representation of highest weight w; the Euler characteristic
    contribution is (-1)^l dim S_w(C^d).
    """
    a = _check_weight(a, r, "a")
    b = _check_weight(b, d - r, "b")
    rho = tuple(d - 1 - i for i in range(d))
    v = tuple(x + y for x, y in zip(a + b, rho))
    if len(set(v)) < d:
        return None
    ell = sum(1 for i in range(d) for j in range(i + 1, d) if v[i] < v[j])
    w = tuple(x - y for x, y in zip(sorted(v, reverse=True), rho))
    return ell, w


def euler_schur_q(d: int, r: int, lam: Partition) -> int:
    """chi(Y, S_lam(Q)) for a partition lam with at most r rows."""
    res = bott_pushforward(d, r, lam, ())
    if res is None:
        return 0
    ell, w = res
    if not (ell == 0 and all(x >= 0 for x in w)):
        raise AssertionError(f"unexpected twist for {lam}")
    return dim_schur(w, d)


@functools.cache
def _lr_products(alpha: Partition, beta: Partition, r: int) -> tuple[tuple[Partition, int], ...]:
    """S_alpha(Q) tensor S_beta(Q) = sum of S_lam(Q), lam with at most r rows."""
    prod = symfunc.multiply(SymFunc(SCHUR, {alpha: Fraction(1)}),
                            SymFunc(SCHUR, {beta: Fraction(1)}))
    out = []
    for lam, c in prod.terms.items():
        if len(lam) <= r:
            if c.denominator != 1:
                raise AssertionError
            out.append((lam, int(c)))
    return tuple(out)


def pairing(poly_class: dict, f: GrClass) -> int:
    """<x, f> = chi(Y, x tensor f) for x an integer combination of [S_mu(Q)]."""
    total = 0
    for mu, cm in poly_class.items():
        mu = as_partition(mu)
        if cm == 0:
            continue
        for alpha, ca in f.terms.items():
            for lam, c_lr in _lr_products(mu, alpha, f.r):
                total += int(cm) * ca * c_lr * euler_schur_q(f.d, f.r, lam)
    return total


def _shift_down(f: LaurentPoly) -> LaurentPoly:
    """Substitute x_i -> x_i - 1 in a polynomial f."""
    terms: dict[Weight, Fraction] = {}
    for e, coeff in f.terms.items():
        for evec in itertools.product(*(range(a + 1) for a in e)):
            c = coeff
            for a, k in zip(e, evec):
                c *= binom(a, k) * (-1) ** (a - k)
            terms[evec] = terms.get(evec, 0) + c
    return LaurentPoly(f.d, terms)


@functools.cache
def _shifted_class(lam: Partition, r: int, kind: str) -> tuple[tuple[Partition, int], ...]:
    if kind == "monomial":
        orbit = set(itertools.permutations(lam + (0,) * (r - len(lam))))
        f = LaurentPoly(r, dict.fromkeys(orbit, 1))
    else:
        f = schur_lp(lam, r)
    out = []
    for mu, c in sorted(schur_coefficients(_shift_down(f)).items(),
                        key=lambda kv: canonical_key(kv[0])):
        if c.denominator != 1:
            raise AssertionError(f"non-integer class coefficient {c}")
        out.append((mu, int(c)))
    return tuple(out)


def m_shifted_class(lam, r: int, kind: str = "monomial") -> dict[Partition, int]:
    """The K-class of the shifted monomial M_lam^{(r)} (or shifted Schur
    S_lam^{(r)} with kind="schur") evaluated at [Q], expanded over [S_mu(Q)]:
    the Schur coefficients of m_lam(x_1 - 1, ..., x_r - 1) (or s_lam).
    """
    lam = as_partition(lam)
    if len(lam) > r:
        raise ValueError(f"partition {lam} has more than r={r} rows")
    if kind not in ("monomial", "schur"):
        raise ValueError(f"unknown kind {kind!r}")
    return dict(_shifted_class(lam, r, kind))


def theta_r(c: LambdaGrClass) -> SigmaExpr:
    """Formal-character map on Lambda tensor K(Gr_r): sigma-degree r output.

    theta_r(s_mu tensor [F]) = s_mu sum_lam sigma^lam sigma_0^{r-l(lam)}
    <M_lam^{(r)}([Q]), [F]>, over l(lam) <= r and |lam| <= r(d-r).
    """
    if not c.terms:
        return SigmaExpr({})
    d, r = c.shape()
    terms: dict[tuple[Partition, tuple[int, ...]], Fraction] = {}
    for mu_s, g in c.terms.items():
        for n in range(r * (d - r) + 1):
            for lam in enumerate_partitions(n, max_length=r):
                val = pairing(m_shifted_class(lam, r, "monomial"), g)
                if val:
                    key = (mu_s, lam + (0,) * (r - len(lam)))
                    terms[key] = terms.get(key, Fraction(0)) + val
    return SigmaExpr(terms)


def mu_r(c: LambdaGrClass) -> ExpPoly:
    """Hilbert-series map: ex_sigma(theta_r(c)), supported on e^{rt} alone."""
    if not c.terms:
        return ExpPoly({})
    _, r = c.shape()
    h = ex_sigma(theta_r(c))
    if not set(h.parts) <= {r}:
        raise AssertionError(f"mu_r output not concentrated on e^{{{r}t}}")
    return h


def pushforward_module_character(d: int, r: int, alpha, N: int) -> SymFunc:
    """Brute-force character of R pi_*(S_alpha(Q) tensor Sym(Q x V)) to degree N.

    Degree-n coefficient of s_nu is chi(S_alpha(Q) tensor S_nu(Q)), computed by
    Littlewood-Richardson products followed by Bott pushforwards.
    """
    alpha = as_partition(alpha)
    if len(alpha) > r:
        raise ValueError(f"alpha={alpha} has more than r={r} rows")
    terms: dict[Partition, Fraction] = {}
    for n in range(N + 1):
        for nu in enumerate_partitions(n, max_length=r):
            chi = sum(c_lr * euler_schur_q(d, r, lam)
                      for lam, c_lr in _lr_products(alpha, nu, r))
            if chi:
                terms[nu] = Fraction(chi)
    return SymFunc(SCHUR, terms, N)


def detring_formal_character(d: int, r: int) -> SigmaExpr:
    """Closed-form sigma expression sum_{lam in r x d} c_lam sigma^lam sigma_0^{r-l(lam)}.

    c_lam = weyl_inner(m_lam, g, r) with g = prod_i (1 + x_i)^{d-r}, which by
    dual Cauchy (Macdonald I.4) is sum_mu [m_lam in s_mu] s_{mu'}(1^{d-r}).
    g |Delta|^2 is symmetric, so the constant term over the orbit of lam
    collapses to c_lam = [x^lam] (g |Delta|^2) / |Stab(lam)|, where the
    stabilizer of lam (padded to r parts) in S_r has order lam! (r - l(lam))!.
    The coefficient is read as sum_f Delta[f] (g Delta)[lam + f] without
    forming |Delta|^2; g |Delta|^2 has degree r(d-r) and no exponent above
    d-1, so only those lam are visited.
    """
    if not (0 <= r <= d):
        raise ValueError(f"need 0 <= r <= d, got r={r}, d={d}")
    g = LaurentPoly(r, {e: math.prod(binom(d - r, k) for k in e)
                        for e in itertools.product(range(d - r + 1), repeat=r)})
    delta = _delta(r)
    g_delta = (g * delta).terms
    terms: dict[tuple[Partition, tuple[int, ...]], Fraction] = {}
    for lam in partitions_up_to(r * (d - r), max_length=r, max_part=d - 1):
        e = lam + (0,) * (r - len(lam))
        c = sum(cf * g_delta.get(tuple(a + b for a, b in zip(e, f)), 0)
                for f, cf in delta.terms.items())
        if c:
            terms[((), e)] = c / (partition_factorial(lam) * factorial(r - len(lam)))
    return SigmaExpr(terms)


def _a_series(i: int, d: int, N: int) -> TSeries:
    """a_i = sum over |lam| >= -i of binom(|lam|+i+d-1, |lam|+i) t^lam / lam!."""
    coeffs: dict[Partition, Fraction] = {}
    for n in range(max(0, -i), N + 1):
        for lam in enumerate_partitions(n):
            coeffs[lam] = Fraction(binom(n + i + d - 1, n + i), partition_factorial(lam))
    return TSeries(N, coeffs)


def gessel_enhanced(d: int, r: int, N: int) -> TSeries:
    """Enhanced Hilbert series of the rank-r determinantal quotient as the
    r x r determinant det(a_{j-i}), expanded by permutations.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    series = {k: _a_series(k, d, N) for k in range(-(r - 1), r)}
    total = TSeries(N, {})
    for perm in itertools.permutations(range(r)):
        sign = 1
        for x in range(r):
            for y in range(x + 1, r):
                if perm[x] > perm[y]:
                    sign = -sign
        prod = TSeries(N, {(): Fraction(1)})
        for i in range(r):
            prod = prod * series[perm[i] - i]
        total = total + prod.scale(sign)
    return total


def _bell_polynomials(jmax: int) -> list[dict[Partition, int]]:
    """F_j with exp(f(s))^{(j)} = exp(f(s)) F_j(f', f'', ...); keys are
    multisets of derivative orders, F_{j+1} = v_1 F_j + sum_k dF_j/dv_k v_{k+1}.
    """
    fs: list[dict[Partition, int]] = [{(): 1}]
    for _ in range(jmax):
        cur = fs[-1]
        nxt: dict[Partition, int] = {}
        for nu, c in cur.items():
            key = tuple(sorted(nu + (1,), reverse=True))
            nxt[key] = nxt.get(key, 0) + c
            seen = set()
            for k in nu:
                if k in seen:
                    continue
                seen.add(k)
                mult = nu.count(k)
                rest = list(nu)
                rest.remove(k)
                key = tuple(sorted(rest + [k + 1], reverse=True))
                nxt[key] = nxt.get(key, 0) + c * mult
        fs.append({k: v for k, v in nxt.items() if v})
    return fs


def rank1_enhanced_closed(d: int) -> EnhancedExpr:
    """Closed form of the rank-1 enhanced series: the (d-1)st s-derivative of
    (s^{d-1}/(d-1)!) exp(s t_1 + s^2 t_2 + ...) at s = 1, as a T-polynomial
    times exp(T_0). Substitutes v_k = f^{(k)}(1) = k! T_k into Bell polynomials.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    fs = _bell_polynomials(d - 1)
    poly: TTPoly = {}
    for j in range(d):
        i = d - 1 - j
        weighted = {((), nu): c * math.prod(factorial(k) for k in nu) for nu, c in fs[j].items()}
        tt_add_into(poly, weighted, Fraction(binom(d - 1, i), factorial(j)))
    return EnhancedExpr({1: poly})


# --- JSON wire formats -------------------------------------------------------


def grclass_to_json(g: GrClass) -> dict:
    return {"d": g.d, "r": g.r,
            "terms": {format_partition(a): c for a, c in g.terms.items()}}


def grclass_from_json(obj: dict) -> GrClass:
    return GrClass(obj["d"], obj["r"],
                   {parse_partition(k): int(v) for k, v in obj["terms"].items()})


def lambda_grclass_to_json(c: LambdaGrClass) -> dict:
    return {"terms": {format_partition(mu): grclass_to_json(g)
                      for mu, g in c.terms.items()}}


def lambda_grclass_from_json(obj: dict) -> LambdaGrClass:
    return LambdaGrClass({parse_partition(k): grclass_from_json(v)
                          for k, v in obj["terms"].items()})
