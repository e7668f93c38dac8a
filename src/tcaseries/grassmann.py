"""K-theory of the Grassmannian over a point: Bott pushforwards, the Euler
pairing, the character map theta_r, and determinantal-ring formulas.

Conventions: Y = Gr_r(C^d) carries the rank-r tautological quotient bundle Q
and the rank d-r subbundle R (0 -> R -> O^d -> Q -> 0). K(Y) classes are
written in the spanning set [S_alpha(Q)] with integer coefficients; no basis
truncation is imposed, relations are resolved through pushforward pairings.

R pi_* S_lam(Q) = S_lam(C^d) with no higher cohomology for partitions lam with
at most r parts; general weights on Q and R go through the dotted-Weyl-action
algorithm (`bott_pushforward`). theta_r, detring and Gessel's series each read
one determinant of linear forms, polyutil.linear_form_det.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .partitions import (
    Partition,
    _power_sum_to_monomial,
    as_partition,
    canonical_key,
    dim_schur,
    enumerate_partitions,
)
from .polyutil import Value, integer, linear_form_det, lowest_terms, merge_terms, size
from .symfunc import SCHUR, SymFunc
from .seriesforms import (
    EnhancedExpr,
    SigmaExpr,
    TSeries,
    _sigma_key_sort,
)
from .torus import LaurentPoly, schur_coefficients, schur_lp

__all__ = [
    "GrClass",
    "LambdaGrClass",
    "bott_pushforward",
    "detring_formal_character",
    "gessel_enhanced",
    "m_shifted_class",
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
        d, r = _shape(d, r)
        Value.__init__(self, d, r, merge_terms(
            ((_class_key(alpha, r), integer(c)) for alpha, c in terms.items()), canonical_key))


def _shape(d, r) -> tuple[int, int]:
    """(d, r) read as sizes, with 0 <= r <= d."""
    d, r = size(d, "d"), size(r, "r")
    if r > d:
        raise ValueError(f"need 0 <= r <= d, got r={r}, d={d}")
    return d, r


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
    d, r = _shape(d, r)
    a = _check_weight(a, r, "a")
    b = _check_weight(b, d - r, "b")
    rho = tuple(d - 1 - i for i in range(d))
    v = tuple(x + y for x, y in zip(a + b, rho))
    if len(set(v)) < d:
        return None
    ell = sum(1 for i in range(d) for j in range(i + 1, d) if v[i] < v[j])
    w = tuple(x - y for x, y in zip(sorted(v, reverse=True), rho))
    return ell, w


@functools.cache
def _euler_table(d: int, r: int, lam: Partition) -> int:
    """chi(Y, S_lam(Q)) by one Bott step per (d, r, lam), lam a partition with
    at most r rows; `pairing` and `pushforward_module_character` read it."""
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
    return sum(cm * ca * c_lr * _euler_table(f.d, f.r, lam)
               for mu, cm in x if cm
               for alpha, ca in f.terms.items()
               for lam, c_lr in _lr_products(mu, alpha, f.r))


def _shift_down(f: LaurentPoly) -> LaurentPoly:
    """Substitute x_i -> x_i - 1 in a polynomial f."""
    return LaurentPoly(f.d, merge_terms(
        (evec, coeff * math.prod(math.comb(a, k) * (-1) ** (a - k) for a, k in zip(e, evec)))
        for e, coeff in f.terms.items()
        for evec in itertools.product(*(range(a + 1) for a in e))))


def m_shifted_class(lam, r: int, kind: str = "monomial") -> dict[Partition, int]:
    """The K-class of the shifted monomial M_lam^{(r)} (or shifted Schur
    S_lam^{(r)} with kind="schur") evaluated at [Q], expanded over [S_mu(Q)]:
    the Schur coefficients of m_lam(x_1 - 1, ..., x_r - 1) (or s_lam).
    """
    lam, r = as_partition(lam), size(r, "r")
    if len(lam) > r:
        raise ValueError(f"partition {lam} has more than r={r} rows")
    if kind == "monomial":
        f = LaurentPoly(r, dict.fromkeys(itertools.permutations(lam + (0,) * (r - len(lam))), 1))
    elif kind == "schur":
        f = schur_lp(lam, r)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return dict(_integer_schur_terms(_shift_down(f)))


def _bott_differences(d: int, r: int, alpha: Partition, a: int, b: int) -> dict[int, int]:
    """{k: (Delta^k p_b)(alpha_a + r-1-a)}, Delta the forward difference and
    p_b(x) = x^{r-1-b} (x+1) (x+2) ... (x+d-r), of degree d-1-b."""
    x = (alpha[a] if a < len(alpha) else 0) + r - 1 - a
    p = [y ** (r - 1 - b) * math.prod(range(y + 1, y + d - r + 1)) for y in range(x, x + d - b)]
    return {k: sum((-1) ** (k - j) * math.comb(k, j) * p[j] for j in range(k + 1))
            for k in range(d - b)}


def theta_r(c: LambdaGrClass) -> SigmaExpr:
    """Formal-character map on Lambda tensor K(Gr_r): sigma-degree r output.

    theta_r(s_mu tensor [S_alpha(Q)]) = s_mu sum_lam sigma^lam sigma_0^{r-l(lam)}
    <M_lam^{(r)}([Q]), [S_alpha(Q)]> over l(lam) <= r, the pairing being chi of
    m_lam(x-1) s_alpha(x). By Bott and Weyl, chi(S_nu(Q)) = det[p_b(e_a)] / den at
    e = nu + (r-1, ..., 0), den = prod_{i <= r, i < j <= d} (j-i), p_b as in
    `_bott_differences`. Through the bialternant of s_alpha (Macdonald I.3),
    (x-1)^k becomes Delta^k: the pairing is [s^lam] det(sum_k s_k U_k) / den,
    U_k[a, b] = (Delta^k p_b)(alpha_a + r-1-a).
    """
    if not c.terms:
        return SigmaExpr({})
    d, r = c.shape()
    den = math.prod(j - i for i in range(1, r + 1) for j in range(i + 1, d + 1))
    terms = merge_terms((((mu, lam), ca * D) for mu, g in c.terms.items()
                         for alpha, ca in g.terms.items() for lam, D in linear_form_det(
                             r, functools.partial(_bott_differences, d, r, alpha)).items()),
                        _sigma_key_sort)
    for key, v in terms.items():
        if v % den:
            raise AssertionError(f"pairing {v}/{den} at {key} is not an integer")
    return SigmaExpr.trusted({key: Fraction(v, den) for key, v in terms.items()})


def pushforward_module_character(d: int, r: int, alpha, N: int) -> SymFunc:
    """Brute-force character of R pi_*(S_alpha(Q) tensor Sym(Q x V)) to degree N.

    Degree-n coefficient of s_nu is chi(S_alpha(Q) tensor S_nu(Q)), computed by
    Littlewood-Richardson products followed by Bott pushforwards, each read off
    the per-(d, r, lam) table `_euler_table`, shared across alpha and nu.
    """
    (d, r), alpha, N = _shape(d, r), as_partition(alpha), size(N, "truncation")
    if len(alpha) > r:
        raise ValueError(f"alpha={alpha} has more than r={r} rows")
    terms: dict[Partition, Fraction] = {}
    for n in range(N + 1):
        for nu in enumerate_partitions(n, max_length=r):
            chi = sum(c_lr * _euler_table(d, r, lam)
                      for lam, c_lr in _lr_products(alpha, nu, r))
            if chi:
                terms[nu] = Fraction(chi)
    return SymFunc.trusted(SCHUR, terms, N)


def detring_formal_character(d: int, r: int) -> SigmaExpr:
    """Closed-form sigma expression sum_{lam in r x d} c_lam sigma^lam sigma_0^{r-l(lam)}.

    c_lam = weyl_inner(m_lam, prod_i (1 + x_i)^{d-r}, r). Expanding both alternants
    of |Delta|^2 over the rearrangements of lam, multilinearity in the rows makes
    it the coefficient of s^lam in the Toeplitz determinant det(sum_k s_k binom(d-r, k+b-a)).
    """
    d, r = _shape(d, r)
    # the row binom(n, j), j = 0..n, by binom(n, j + 1) = binom(n, j) (n - j) / (j + 1)
    n = d - r
    row = list(itertools.accumulate(range(n), lambda c, j: c * (n - j) // (j + 1), initial=1))
    dets = linear_form_det(r, lambda a, b: {
        k: row[k + b - a] for k in range(max(0, a - b), n + a - b + 1)})
    return SigmaExpr.trusted({((), lam): Fraction(c) for lam, c in dets.items()})


def gessel_enhanced(d: int, r: int, N: int) -> TSeries:
    """Enhanced Hilbert series of the rank-r determinantal quotient as the
    r x r determinant det(a_{j-i}) of Gessel (JCTA 1990), without series products.

    Every entry is a_k = sum_n c_k(n) E_n with c_k(n) = binom(n+k+d-1, n+k) and
    E_n = sum_{|lam|=n} t^lam / lam!, so det(a_{j-i}) = sum_nu D(nu) E_nu with
    D(nu) read off one linear_form_det capped at weight N. [t^lam / lam!] E_nu
    counts the ways to place the parts of lam, told apart, in r boxes whose sums
    are nu: the power-sum-to-monomial transition [m_nu] p_lam in r variables
    (Macdonald I.6). So [t^lam] = sum_nu [m_nu] p_lam D(nu) / lam!: only D depends
    on d, the rest is `partitions._power_sum_to_monomial`, built once per (r, N).
    For r >= d the rank condition is vacuous: the series is the one at r = d.
    """
    d, r, N = size(d, "d"), size(r, "r"), size(N, "truncation")
    if 0 in (d, r):
        raise ValueError(f"need d >= 1 and r >= 1, got d={d}, r={r}")
    r = min(r, d)
    weights = {tuple(n for n in ks if n): D for ks, D in linear_form_det(r, lambda a, b: {
        n: math.comb(n + b - a + d - 1, d - 1) for n in range(max(0, a - b), N + 1)}, N).items()}
    # on integers over N!, which every lam! divides
    fN = math.factorial(N)
    return TSeries.trusted(N, *lowest_terms(fN, {
        lam: sum(m * weights.get(nu, 0) for nu, m in row) * (fN // fact)
        for lam, fact, row in _power_sum_to_monomial(r, N)}))


def _bell_polynomials(jmax: int) -> list[dict[Partition, int]]:
    """F_j with exp(f(s))^{(j)} = exp(f(s)) F_j(f', f'', ...); keys are
    multisets of derivative orders, F_{j+1} = v_1 F_j + sum_k dF_j/dv_k v_{k+1}
    (Comtet 3.3): a term for each part raised by one (m terms for a part of
    multiplicity m), and v_1 F_j as a part 0 appended and raised.
    """
    fs: list[dict[Partition, int]] = [{(): 1}]
    for _ in range(jmax):
        fs.append(merge_terms((tuple(sorted(nu[:i] + (k + 1,) + nu[i + 1:], reverse=True)), c)
                              for nu, c in fs[-1].items() for i, k in enumerate(nu + (0,))))
    return fs


def rank1_enhanced_closed(d: int) -> EnhancedExpr:
    """Closed form of the rank-1 enhanced series: the (d-1)st s-derivative of
    (s^{d-1}/(d-1)!) exp(s t_1 + s^2 t_2 + ...) at s = 1, as a T-polynomial
    times exp(T_0). Substitutes v_k = f^{(k)}(1) = k! T_k into Bell polynomials.
    """
    d = size(d, "d", 1)
    fs = _bell_polynomials(d - 1)
    return EnhancedExpr({1: merge_terms(
        (((), nu), Fraction(math.comb(d - 1, j) * c * math.prod(map(math.factorial, nu)),
                            math.factorial(j)))
        for j in range(d) for nu, c in fs[j].items())})
