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
from .polyutil import Value, add_into, binom, factorial, integer, json_int, merge_terms
from .symfunc import SCHUR, SymFunc
from .seriesforms import (
    EnhancedExpr,
    ExpPoly,
    SigmaExpr,
    TSeries,
    TTPoly,
    ex_sigma,
)
from .torus import LaurentPoly, _delta, _mul_terms, schur_coefficients, schur_lp

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


class GrClass(Value):
    """Integer K(Gr_r(C^d)) class sum c_alpha [S_alpha(Q)]."""

    __slots__ = ("d", "r", "terms")

    def __init__(self, d: int, r: int, terms: dict[Partition, int] = {}):
        if not (0 <= r <= d):
            raise ValueError(f"need 0 <= r <= d, got r={r}, d={d}")
        Value.__init__(self, d, r, merge_terms(
            ((_class_key(alpha, r), integer(c)) for alpha, c in terms.items()), canonical_key))


def _class_key(alpha, r: int) -> Partition:
    alpha = as_partition(alpha)
    if len(alpha) > r:
        raise ValueError(f"class key {alpha} has more than r={r} rows")
    return alpha


class LambdaGrClass(Value):
    """Element of Lambda tensor K(Gr_r): partition mu -> GrClass, fixed (d, r)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Partition, GrClass] = {}):
        clean: dict[Partition, GrClass] = {}
        shape = None
        for mu, g in _unique_keys((as_partition(mu), g) for mu, g in terms.items()).items():
            if shape is None:
                shape = (g.d, g.r)
            elif (g.d, g.r) != shape:
                raise ValueError(f"mixed (d, r): {shape} vs {(g.d, g.r)}")
            if g.terms:
                clean[mu] = g
        Value.__init__(self, dict(sorted(clean.items(), key=lambda kv: canonical_key(kv[0]))))

    def shape(self) -> tuple[int, int]:
        if not self.terms:
            raise ValueError("empty class has no (d, r)")
        g = next(iter(self.terms.values()))
        return (g.d, g.r)


def _unique_keys(pairs) -> dict:
    """Dict of (partition, GrClass) pairs; classes cannot be merged, so a
    partition given twice (e.g. as [1] and [1,0]) is an error."""
    out: dict = {}
    for mu, g in pairs:
        if mu in out:
            raise ValueError(f"partition {mu} given twice")
        out[mu] = g
    return out


def _check_weight(w, length: int, name: str) -> Weight:
    w = tuple(map(integer, w))
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


def _integer_schur_terms(f: LaurentPoly) -> tuple[tuple[Partition, int], ...]:
    """Schur expansion of a K-class f over [S_mu(Q)], in canonical order."""
    terms = sorted(schur_coefficients(f).items(), key=lambda kv: canonical_key(kv[0]))
    if any(c.denominator != 1 for _, c in terms):
        raise AssertionError(f"non-integer class coefficient in {terms}")
    return tuple((mu, int(c)) for mu, c in terms)


@functools.cache
def _lr_products(alpha: Partition, beta: Partition, r: int) -> tuple[tuple[Partition, int], ...]:
    """S_alpha(Q) tensor S_beta(Q) = sum of S_lam(Q): s_alpha s_beta in r variables."""
    return _integer_schur_terms(schur_lp(alpha, r) * schur_lp(beta, r))


def pairing(poly_class: dict, f: GrClass) -> int:
    """<x, f> = chi(Y, x tensor f) for x an integer combination of [S_mu(Q)]."""
    x = [(as_partition(mu), integer(cm)) for mu, cm in poly_class.items()]
    return sum(cm * ca * c_lr * euler_schur_q(f.d, f.r, lam)
               for mu, cm in x if cm
               for alpha, ca in f.terms.items()
               for lam, c_lr in _lr_products(mu, alpha, f.r))


def _shift_down(f: LaurentPoly) -> LaurentPoly:
    """Substitute x_i -> x_i - 1 in a polynomial f."""
    return LaurentPoly(f.d, merge_terms(
        (evec, coeff * math.prod(binom(a, k) * (-1) ** (a - k) for a, k in zip(e, evec)))
        for e, coeff in f.terms.items()
        for evec in itertools.product(*(range(a + 1) for a in e))))


@functools.cache
def _shifted_class(lam: Partition, r: int, kind: str) -> tuple[tuple[Partition, int], ...]:
    if kind == "monomial":
        orbit = set(itertools.permutations(lam + (0,) * (r - len(lam))))
        f = LaurentPoly(r, dict.fromkeys(orbit, 1))
    else:
        f = schur_lp(lam, r)
    return _integer_schur_terms(_shift_down(f))


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
    return SigmaExpr({(mu_s, lam + (0,) * (r - len(lam))): pairing(m_shifted_class(lam, r), g)
                      for mu_s, g in c.terms.items()
                      for lam in partitions_up_to(r * (d - r), max_length=r)})


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
    g_delta = _mul_terms(g.terms, delta)
    terms: dict[tuple[Partition, tuple[int, ...]], Fraction] = {}
    for lam in partitions_up_to(r * (d - r), max_length=r, max_part=d - 1):
        e = lam + (0,) * (r - len(lam))
        c = sum(cf * g_delta.get(tuple(a + b for a, b in zip(e, f)), 0)
                for f, cf in delta.items())
        if c:
            terms[((), e)] = c / (partition_factorial(lam) * factorial(r - len(lam)))
    return SigmaExpr(terms)


def _determinant_weight(nu: Partition, r: int, c: dict[int, list[int]]) -> int:
    """D(nu): the sum of det[c_{j-i}(e_i)] over the distinct rearrangements e
    of nu padded to r parts. One Laplace expansion along rows 0..r-1 picks
    each row's part e_i as it goes; a state is the set of columns taken (a
    bit mask, whose entries above column j give the sign) and the parts left.
    """
    states = {(0, nu + (0,) * (r - len(nu))): 1}
    for i in range(r):
        states = merge_terms(
            ((taken | 1 << j, left[:k] + left[k + 1:]),
             (-1) ** (taken >> j).bit_count() * c[j - i][n] * v)
            for (taken, left), v in states.items()
            for k, n in enumerate(left) if k == 0 or left[k - 1] != n
            for j in range(r) if not taken >> j & 1)
    return states.get(((1 << r) - 1, ()), 0)


def _power_sum_to_monomial(r: int, N: int) -> dict[Partition, dict[Partition, int]]:
    """[m_nu] p_lam in r variables, for every lam with |lam| <= N, keyed by
    lam and then by nu. With k the last part of lam and lam- the rest,
    p_lam = p_{lam-} p_k gives [x^nu] p_lam = sum_j [x^{nu - k e_j}] p_{lam-}
    over the parts nu_j >= k (Macdonald I.6)."""
    rows: dict[Partition, dict[Partition, int]] = {(): {(): 1}}
    for n in range(1, N + 1):
        nus = enumerate_partitions(n, max_length=r)
        for lam in enumerate_partitions(n):
            k, prev = lam[-1], rows[lam[:-1]]
            rows[lam] = merge_terms((nu, prev.get(_take(nu, j, k), 0))
                                    for nu in nus for j, part in enumerate(nu) if part >= k)
    return rows


def _take(nu: Partition, j: int, k: int) -> Partition:
    """The partition nu - k e_j, for nu_j >= k."""
    rest = nu[:j] + nu[j + 1:]
    return tuple(sorted(rest + (nu[j] - k,), reverse=True)) if nu[j] > k else rest


def gessel_enhanced(d: int, r: int, N: int) -> TSeries:
    """Enhanced Hilbert series of the rank-r determinantal quotient as the
    r x r determinant det(a_{j-i}) of Gessel (JCTA 1990), computed without
    series products.

    Every entry is a_k = sum_n c_k(n) E_n with c_k(n) = binom(n+k+d-1, n+k)
    and E_n = sum_{|lam|=n} t^lam / lam!, so by multilinearity in the rows
    det(a_{j-i}) = sum_nu D(nu) E_nu over partitions nu with at most r parts,
    where D(nu) sums the integer determinants det[c_{j-i}(e_i)] over the
    rearrangements e of nu. [t^lam / lam!] E_nu counts the ways to place the
    parts of lam, told apart, in r boxes whose sums are nu_1, ..., nu_r,
    which is the power-sum-to-monomial transition [m_nu] p_lam in r variables
    (Macdonald, Symmetric Functions, I.6). So [t^lam] = sum_nu [m_nu] p_lam D(nu) / lam!,
    one Fraction per lam, integers before it. For r >= d the rank condition
    is vacuous and the series is the one at r = d.
    """
    if d < 1 or r < 1:
        raise ValueError(f"need d >= 1 and r >= 1, got d={d}, r={r}")
    if N < 0:
        raise ValueError("truncation must be >= 0")
    r = min(r, d)
    c = {k: [binom(n + k + d - 1, n + k) for n in range(N + 1)] for k in range(1 - r, r)}
    weights = {nu: _determinant_weight(nu, r, c) for nu in partitions_up_to(N, max_length=r)}
    return TSeries(N, {lam: Fraction(sum(m * weights[nu] for nu, m in row.items()),
                                     partition_factorial(lam))
                       for lam, row in _power_sum_to_monomial(r, N).items()})


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
        add_into(poly, weighted, Fraction(binom(d - 1, i), factorial(j)))
    return EnhancedExpr({1: poly})


# --- JSON wire formats -------------------------------------------------------


def grclass_to_json(g: GrClass) -> dict:
    return {"d": g.d, "r": g.r,
            "terms": {format_partition(a): c for a, c in g.terms.items()}}


def grclass_from_json(obj: dict) -> GrClass:
    return GrClass(json_int(obj["d"]), json_int(obj["r"]),
                   merge_terms((parse_partition(k), json_int(v)) for k, v in obj["terms"].items()))


def lambda_grclass_to_json(c: LambdaGrClass) -> dict:
    return {"terms": {format_partition(mu): grclass_to_json(g)
                      for mu, g in c.terms.items()}}


def lambda_grclass_from_json(obj: dict) -> LambdaGrClass:
    return LambdaGrClass(_unique_keys((parse_partition(k), grclass_from_json(v))
                                      for k, v in obj["terms"].items()))
