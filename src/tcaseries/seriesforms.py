"""Series forms for tca module invariants and the maps between them.

The central objects:

* ``SigmaExpr``: an element of Lambda-tilde = Lambda tensor Z[sigma_0, sigma_1, ...],
  a finite sum of monomials s_mu * sigma^nu with Fraction coefficients. The
  sigma part is a multiset of nonnegative indices (zeros allowed, since
  sigma_0 is not 1).
* ``ExpPoly``: an exponential polynomial sum_r p_r(t) e^{rt}, the shape of
  every Hilbert series of a finitely generated module.
* ``TSeries``: a truncated series in variables t_1, t_2, ..., with monomials
  t^lam = prod t_i^{m_i(lam)} indexed by partitions and weighted degree |lam|.
* ``EnhancedExpr``: sum_k q_k(t, T) e^{k T_0} with q_k polynomial in the t_i
  and the tail sums T_i; the enhanced analogue of ExpPoly.
* ``CharPolyForm``: the character-polynomial reading of an EnhancedExpr,
  evaluating traces tr(c_lam | M_{|lam|}) by umbral substitution.

Specializations: ``sigma_expand`` (sigma -> Schur series, by the Pieri rule),
``ex_*`` (Hilbert series, sigma_k -> (t^k/k!) e^t), ``phi_*`` (enhanced
series, p_n -> n t_n, sigma_n -> exp(T_0) sum_{nu |- n} T^nu / nu!).
``sigma_expand`` and ``enhanced_expand`` work on integers over one common denominator;
``enhanced_expand`` multiplies t-monomials as multiset codes (polyutil.multiset_code),
one integer addition per product, and applies N! exp(k T_0) as a cached scatter table
into a list in canonical order (partitions.canonical_positions), with no key decoded.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from math import comb, factorial, perm

from .partitions import (
    Partition,
    _horizontal_strips_above,
    as_partition,
    canonical_key,
    canonical_positions,
    dim_specht,
    enumerate_partitions,
    format_partition,
    multiplicities,
    parse_bracket_list,
    parse_partition,
    partition_factorial,
    partitions_up_to,
)
from .polyutil import (
    LazyRows,
    Poly,
    Value,
    fraction_terms,
    fraction_text,
    integer,
    json_fraction,
    json_int,
    lowest_terms,
    merge_terms,
    multiset_code,
    multiset_mul,
    multiset_parts,
    nullspace,
    over_common_denominator,
    padd,
    pcompose_neg,
    pderiv,
    pscale,
    ptrim,
    scatter,
    size,
    truncated_at_least,
)
from . import symfunc
from .symfunc import POWERSUM, SCHUR, SymFunc

__all__ = [
    "CharPolyForm",
    "EnhancedExpr",
    "ExpPoly",
    "OdeOperator",
    "PoincareSeries",
    "SigmaExpr",
    "TSeries",
    "annihilator",
    "apply_diff_shadow",
    "char_poly_form",
    "character_at",
    "enhanced_expand",
    "ex_sigma",
    "ex_specialize",
    "exppoly_taylor",
    "fourier_dual_hilbert",
    "hilbert_from_poincare",
    "phi_enhanced",
    "phi_sigma",
    "poincare_series",
    "sigma_ddag_check",
    "sigma_expand",
    "sigma_recognize",
    "tca_enhanced_exp",
    "ts_egf",
    "ts_exp",
]

SigmaKey = tuple[Partition, tuple[int, ...]]  # (s-partition, sigma index multiset)
TTKey = tuple[Partition, Partition]  # (t exponent partition, T exponent partition)
TTPoly = dict[TTKey, Fraction]


def parse_indices(text: str) -> tuple[int, ...]:
    """Parse a sigma index multiset; its wire form keeps zeros: "[2,0]"."""
    nu = parse_bracket_list(text)
    if any(i < 0 for i in nu) or any(nu[j] < nu[j + 1] for j in range(len(nu) - 1)):
        raise ValueError(f"bad sigma index multiset {text!r}")
    return nu


def _sigma_key(mu, nu) -> SigmaKey:
    mu = as_partition(mu)
    nu = tuple(sorted(map(integer, nu), reverse=True))
    if any(i < 0 for i in nu):
        raise ValueError(f"negative sigma index in {nu}")
    return mu, nu


def _sigma_key_sort(key: SigmaKey):
    s_part, nu = key
    return (canonical_key(s_part), sum(nu), len(nu), tuple(-i for i in nu))


class SigmaExpr(Value):
    """Finite sum  c * s_mu * sigma_{nu_1} ... sigma_{nu_k}  in Lambda-tilde."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[SigmaKey, Fraction] = {}):
        Value.__init__(self, merge_terms(
            ((_sigma_key(mu, nu), Fraction(c)) for (mu, nu), c in terms.items()),
            _sigma_key_sort))


def _layers(parts, low: int, total, error: str) -> dict:
    """Canonical copy of a dict of layers: keys made ints (so "1" and "01" name
    one layer) that must be >= `low`, else ValueError(error); `total(*values)`
    is the canonical sum of the values of one layer; empty layers dropped;
    keys sorted."""
    groups: dict[int, list] = {}
    for k, v in parts.items():
        k = integer(k)
        if k < low:
            raise ValueError(error)
        groups.setdefault(k, []).append(v)
    layers = ((k, total(*vs)) for k, vs in sorted(groups.items()))
    return {k: v for k, v in layers if v}


def _psum(*ps) -> Poly:
    return functools.reduce(padd, map(ptrim, ps))


class ExpPoly(Value):
    """Exponential polynomial sum_r p_r(t) e^{rt}; parts maps r -> p_r."""

    __slots__ = ("parts",)

    def __init__(self, parts: dict[int, Poly] = {}):
        Value.__init__(self, _layers(parts, 0, _psum, "negative exponent in ExpPoly"))

    def is_zero(self) -> bool:
        return not self.parts


def exppoly_taylor(h: ExpPoly, N: int) -> list[Fraction]:
    """First N+1 Taylor coefficients of sum_r p_r(t) e^{rt}."""
    N = size(N, "truncation")
    out = [Fraction(0)] * (N + 1)
    for r, p in h.parts.items():
        for j, c in enumerate(p):
            for n in range(j, N + 1):
                out[n] += c * Fraction(r ** (n - j), factorial(n - j))
    return out


class TSeries(Value):
    """Series in t_1, t_2, ... truncated at weighted degree `truncation`, with
    coefficients nums[lam] / den in polyutil.lowest_terms, read through `coeffs`."""

    __slots__ = ("truncation", "den", "nums")
    _params = ("truncation", "coeffs")

    def __init__(self, truncation: int, coeffs: dict[Partition, Fraction] = {}):
        truncation = size(truncation, "truncation")
        den, (nums,) = over_common_denominator(symfunc.normalize_terms(coeffs, truncation))
        Value.__init__(self, truncation, den, nums)

    @property
    def coeffs(self) -> dict[Partition, Fraction]:
        return fraction_terms(self.den, self.nums)

    def __mul__(self, other: "TSeries") -> "TSeries":
        N = min(self.truncation, other.truncation)
        return TSeries.trusted(N, *lowest_terms(
            self.den * other.den, symfunc._p_mul_terms(self.nums, other.nums, N)))

    def is_zero(self) -> bool:
        return not self.nums


def ts_exp(s: TSeries, N: int) -> TSeries:
    """exp of a TSeries with no constant term, truncated at N <= its truncation."""
    N = size(N, "truncation")
    truncated_at_least(s.truncation, N)
    return TSeries.trusted(N, *lowest_terms(*symfunc.graded_exp(s.den, s.nums, N)))


def ts_egf(s: TSeries) -> list[Fraction]:
    """Specialize t_1 = t, t_i = 0 (i >= 2): the plain EGF coefficients."""
    return [Fraction(s.nums.get((1,) * n, 0), s.den) for n in range(s.truncation + 1)]


# --- TT polynomials: exact polynomials in t_i and T_i -----------------------


def _tt_key_sort(key: TTKey):
    return canonical_key(key[0]), canonical_key(key[1])


def tt_terms(*polys) -> TTPoly:
    """Canonical sum of TT polynomials: keys validated, coefficients made
    Fractions, equal keys merged, zeros dropped, keys in canonical order."""
    return merge_terms((((as_partition(t), as_partition(T)), Fraction(c))
                        for poly in polys for (t, T), c in poly.items()), _tt_key_sort)


class EnhancedExpr(Value):
    """Enhanced series form sum_k q_k(t, T) e^{k T_0}."""

    __slots__ = ("parts",)

    def __init__(self, parts: dict[int, TTPoly] = {}):
        Value.__init__(self, _layers(parts, 0, tt_terms, "negative exponent in EnhancedExpr"))


class OdeOperator(Value):
    """Linear ODE  sum_i p_i(t) y^{(i)} = 0; coeffs = (p_0, ..., p_R), p_R != 0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Poly, ...]):
        cs = tuple(ptrim(p) for p in coeffs)
        if not cs or not cs[-1]:
            raise ValueError("leading coefficient polynomial must be nonzero")
        Value.__init__(self, cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max(len(p) for p in self.coeffs) - 1


class PoincareSeries(Value):
    """P_M(t, q) = sum_n (-q)^n H_{Tor_n}(t), truncated in t."""

    __slots__ = ("d", "truncation", "parts")

    def __init__(self, d: int, truncation: int, parts: dict[int, Poly] = {}):
        Value.__init__(self, size(d, "d"), size(truncation, "truncation"),
                       _layers(parts, 0, _psum, "negative homological degree"))


class CharPolyForm(Value):
    """Character polynomial data: tr(c_lam | M) = sum_i i^{l(lam)} (down_i q_i)(m(lam)).

    `entries` holds the q_i (polynomials in t, T) for i >= 1; `threshold` is
    the weighted t-degree of the i = 0 layer (deg t_i = i; -1 when absent),
    below which |lam| the evaluation is not asserted to be the trace.
    """

    __slots__ = ("m", "entries", "threshold")

    def __init__(self, m: int, entries: dict[int, TTPoly] = {}, threshold: int = -1):
        m, entries = size(m, "m"), _layers(entries, 1, tt_terms, "entries are indexed by i >= 1")
        for i, poly in entries.items():
            for (_, Tpart) in poly:
                if sum(Tpart) > i * (m - i):
                    raise ValueError(
                        f"T-degree {sum(Tpart)} of entry {i} exceeds bound i(m-i) = {i * (m - i)}")
        Value.__init__(self, m, entries, size(threshold, "threshold", -1))


# --- specializations of Lambda and Lambda-tilde ------------------------------


def ex_specialize(f: SymFunc, N: int) -> list[Fraction]:
    """Hilbert specialization ex: s_lam -> dim(M_lam) t^{|lam|} / |lam|!.

    Returns EGF coefficients [t^0] .. [t^N].
    """
    N = size(N, "truncation")
    truncated_at_least(f.truncation, N)
    fs = symfunc.change_basis(f, SCHUR)
    out = [Fraction(0)] * (N + 1)
    for lam, c in fs.terms.items():
        n = sum(lam)
        if n <= N:
            out[n] += c * Fraction(dim_specht(lam), factorial(n))
    return out


def phi_enhanced(f: SymFunc, N: int) -> TSeries:
    """Enhanced specialization phi: p_n -> n t_n, so s_lam -> X_lam."""
    N = size(N, "truncation")
    truncated_at_least(f.truncation, N)
    fp = symfunc.change_basis(f, POWERSUM)
    return TSeries(N, {mu: c * math.prod(mu) for mu, c in fp.terms.items() if sum(mu) <= N})


@functools.cache
def _pieri_row(lam: Partition, k: int, N: int) -> tuple[tuple[Partition, int], ...]:
    """s_lam sigma_k through degree N as (mu, binom(n, k)) pairs, by the Pieri
    rule: s_lam h_n sums s_mu over the horizontal strips mu/lam of size n
    (Macdonald, Symmetric Functions, I (5.16)), for k <= n <= N - |lam|."""
    return tuple((mu, b) for n in range(k, N - sum(lam) + 1)
                 for b in [comb(n, k)] for mu in _horizontal_strips_above(lam, n))


def _sigma_mul(terms: dict[Partition, Fraction], k: int, N: int) -> dict[Partition, Fraction]:
    """Schur-keyed `terms` times sigma_k = sum_{n>=k} binom(n,k) h_n through
    degree N: one scaled merge of the cached rows `_pieri_row(lam, k, N)`."""
    return merge_terms((mu, c * b) for lam, c in terms.items() for mu, b in _pieri_row(lam, k, N))


@functools.cache
def _sigma_row(mu: Partition, nu: tuple[int, ...], N: int) -> tuple[tuple[Partition, int], ...]:
    """s_mu sigma^nu through degree N on integers as (lam, coefficient) pairs: the
    row of nu[:-1] times sigma_{nu[-1]}, by one `_sigma_mul`. Index multisets with a
    common prefix share its row, as the terms s^lam sigma_0^(r - l(lam)) of theta_r do."""
    if not nu:
        return ((mu, 1),) if sum(mu) <= N else ()
    return tuple(_sigma_mul(dict(_sigma_row(mu, nu[:-1], N)), nu[-1], N).items())


def sigma_expand(e: SigmaExpr, N: int) -> SymFunc:
    """Expand sigma_k -> sum_{n=k}^N binom(n,k) s_n and multiply out in the Schur
    basis through degree N: one scaled merge of the cached rows s_mu sigma^nu
    (`_sigma_row`), one per term, over a common denominator."""
    N = size(N, "truncation")
    L, (terms,) = over_common_denominator(e.terms)
    total = merge_terms(((lam, c * v) for (mu, nu), c in terms.items()
                         for lam, v in _sigma_row(mu, nu, N)), canonical_key)
    return SymFunc.trusted(SCHUR, {lam: Fraction(c, L) for lam, c in total.items()}, N)


def sigma_recognize(f: SymFunc, r_max: int, s_deg_max: int,
                    sigma_wt_max: int) -> SigmaExpr | None:
    """Recover a SigmaExpr whose expansion matches a truncated Schur series.

    Solves an exact linear system over all candidate monomials s_mu sigma^nu
    with |mu| <= s_deg_max, at most r_max sigma factors of total index weight
    <= sigma_wt_max. Returns None when no candidate combination fits ("not
    recognized" is a value, not an error). Requires truncation at least
    s_deg_max + sigma_wt_max + r_max + 5 so the system is overdetermined.
    Each candidate's column is its cached row `_sigma_row`, on integers.
    """
    r_max, s_deg_max = size(r_max, "r_max"), size(s_deg_max, "s_deg_max")
    sigma_wt_max = size(sigma_wt_max, "sigma_wt_max")
    if f.truncation is None:
        raise ValueError("input must carry a truncation")
    N = f.truncation
    if N < s_deg_max + sigma_wt_max + r_max + 5:
        raise ValueError(
            f"truncation {N} too small; need >= {s_deg_max + sigma_wt_max + r_max + 5}")
    fs = symfunc.change_basis(f, SCHUR)
    rows = partitions_up_to(N)
    row_index = {lam: i for i, lam in enumerate(rows)}
    sigmas = [nu + (0,) * j for nu in partitions_up_to(sigma_wt_max, max_length=r_max)
              for j in range(r_max - len(nu) + 1)]
    candidates = [(mu, nu) for mu in partitions_up_to(s_deg_max) for nu in sigmas]
    # [A | -b]: A x = b is solvable iff the last column is free, and that
    # column's basis vector is (x, 1) with the other free variables 0.
    matrix = [[0] * len(candidates) + [-fs.terms.get(lam, 0)] for lam in rows]
    for j, (mu, nu) in enumerate(candidates):
        for lam, c in _sigma_row(mu, nu, N):
            matrix[row_index[lam]][j] = c
    basis = nullspace(matrix, len(candidates) + 1)
    if not basis or basis[-1][-1] != 1:
        return None
    sol = basis[-1]
    expr = SigmaExpr({key: sol[j] for j, key in enumerate(candidates) if sol[j]})
    if sigma_expand(expr, N) != fs:
        return None
    return expr


def ex_sigma(e: SigmaExpr) -> ExpPoly:
    """Hilbert specialization on Lambda-tilde: sigma_k -> (t^k/k!) e^t."""
    parts: dict[int, list[Fraction]] = {}
    for (mu, nu), c in e.terms.items():
        r = len(nu)
        deg = sum(mu) + sum(nu)
        coeff = c * Fraction(dim_specht(mu), factorial(sum(mu)))
        for k in nu:
            coeff /= factorial(k)
        p = parts.setdefault(r, [])
        while len(p) <= deg:
            p.append(Fraction(0))
        p[deg] += coeff
    return ExpPoly({r: tuple(p) for r, p in parts.items()})


@functools.cache
def _xlam(lam: Partition) -> tuple[tuple[TTKey, Fraction], ...]:
    """X_lam = phi(s_lam) = sum_mu chi^lam(mu) t^mu / mu!  as a TTPoly, read
    off s_lam = sum_mu chi^lam(mu) p_mu / z_mu with z_mu = mu! prod(mu)."""
    return tuple(((mu, ()), v * math.prod(mu)) for mu, v in symfunc._s_to_p({lam: 1}).items())


@functools.cache
def _bell_sigma(nu: tuple[int, ...]) -> tuple[tuple[Partition, Fraction], ...]:
    """prod_{k in nu} phi(sigma_k) = exp(l(nu) T_0) times this T polynomial, with
    phi(sigma_k) = exp(T_0) * sum_{lam |- k} T^lam / lam!; cached per sigma index nu."""
    if not nu:
        return (((), Fraction(1)),)
    bell = {lam: Fraction(1, partition_factorial(lam)) for lam in enumerate_partitions(nu[-1])}
    return tuple(symfunc._p_mul_terms(dict(_bell_sigma(nu[:-1])), bell, None).items())


def phi_sigma(e: SigmaExpr) -> EnhancedExpr:
    """Enhanced specialization on Lambda-tilde."""
    layers: dict[int, list] = {}
    for (mu, nu), c in e.terms.items():
        layers.setdefault(len(nu), []).extend(
            ((t, T), c * ct * cT) for (t, _), ct in _xlam(mu) for T, cT in _bell_sigma(nu))
    return EnhancedExpr.trusted({k: poly for k, pairs in sorted(layers.items())
                                 if (poly := merge_terms(pairs, _tt_key_sort))})


def _substitute_tails(poly: TTPoly, ns: tuple[int, ...], trunc: int | None) -> dict[int, list]:
    """The t-polynomial of `poly` (int or Fraction coefficients) under T_j ->
    sum_{n in ns, n >= j} binom(n, j) t_n (ns increasing), t_n = 0 for n outside
    `ns`, dropping terms above `trunc` (None: none), as multiset_mul's output
    with t_{ns[i]} coded as part i. Each term is multiplied once by the expansion
    of its T-monomial, which `_tails` builds once per (T-part, ns, trunc)."""
    at = {n: i for i, n in enumerate(ns)}
    out: dict[int, list] = {}
    for (tpart, Tpart), c in poly.items():
        w = sum(tpart)
        if (trunc is None or w <= trunc) and all(n in at for n in tpart):
            code = multiset_code(tuple(at[n] for n in tpart))[1]
            multiset_mul(((w, code, c),), _tails(Tpart, ns, trunc), trunc, out)
    return out


@functools.cache
def _tails(Tpart: Partition, ns: tuple[int, ...],
           trunc: int | None) -> tuple[tuple[int, int, int], ...]:
    """prod_{j in Tpart} sum_{n in ns, n >= j} binom(n, j) t_n through weight `trunc`,
    on integers, as weight-sorted (weight, code, coefficient) triples, zeros dropped,
    t_{ns[i]} coded as part i; cached, so terms sharing a T-part share it."""
    cur = ((0, 0, 1),)
    for j in Tpart:
        tail = [(n, multiset_code((i,))[1], comb(n, j)) for i, n in enumerate(ns) if n >= j]
        cur = [(w, code, c) for code, (w, c) in multiset_mul(cur, tail, trunc, {}).items() if c]
    return tuple(sorted(cur))


def _exp_row(kt0: tuple, N: int, code: int) -> tuple[tuple[int, int], ...]:
    """The row of the t-monomial `code` (t_n as part n) in the scatter table of N! exp(k T_0):
    its products with kt0 through weight N, by one multiset_mul, at their positions."""
    parts, positions = canonical_positions(N)
    out = multiset_mul(((sum(parts[positions[code]]), code, 1),), kt0, N, {})
    return tuple((positions[x], c) for x, (_, c) in out.items())


@functools.cache
def _exp_rows(k: int, N: int) -> LazyRows:
    """The scatter table of N! exp(k T_0) by t-monomial code, each row built when first read,
    from the weight-sorted (weight, code, coefficient) triples of N! exp(k T_0) = sum_nu
    N! k^{l(nu)} t^nu / nu! through weight N: integers, as nu! divides l(nu)! and so N!."""
    parts, positions = canonical_positions(N)
    kt0 = tuple((sum(nu), code, factorial(N) * k ** len(nu) // partition_factorial(nu))
                for code, nu in zip(positions, parts) if k or not nu)
    return LazyRows(functools.partial(_exp_row, kt0, N))


def enhanced_expand(e: EnhancedExpr, N: int) -> TSeries:
    """Expand T_j and e^{k T_0} into the t variables, truncated at weight N, on
    integers over L N! (L the common denominator): the T-tails on multiset codes, then
    the scatter table _exp_rows(k, N) applied into one list in canonical order."""
    N = size(N, "truncation")
    L, polys = over_common_denominator(*e.parts.values())
    ns = tuple(range(N + 1))  # t_n coded as part n; OverflowError when N is past any memory
    parts, _ = canonical_positions(N)
    total = [0] * len(parts)
    for k, poly in zip(e.parts, polys):
        scatter(_exp_rows(k, N), ((code, c) for code, (_, c) in
                                  _substitute_tails(poly, ns, N).items()), total)
    return TSeries.trusted(N, *lowest_terms(L * factorial(N), dict(zip(parts, total))))


def fourier_dual_hilbert(h: ExpPoly, d: int) -> ExpPoly:
    """Fourier shadow on Hilbert series: p_r(t) -> p_{d-r}(-t)."""
    d = size(d, "d")
    parts: dict[int, Poly] = {}
    for r, p in h.parts.items():
        if r > d:
            raise ValueError(f"exponent {r} exceeds ambient dimension {d}")
        parts[d - r] = pcompose_neg(p)
    return ExpPoly(parts)


def sigma_ddag_check(N: int) -> bool:
    """Verify (sum_n sigma_n^ddag u^n)(sum_n sigma_n u^n) = 1 to bidegree (N, N),
    with sigma_a^ddag = sum_{i>=a} (-1)^i binom(i,a) s_{1^i}."""
    N = size(N, "truncation")
    for m in range(N + 1):
        acc = merge_terms(kv for a in range(m + 1) for kv in _sigma_mul(
            {(1,) * i: (-1) ** i * comb(i, a) for i in range(a, N + 1)}, m - a, N).items())
        expected: dict[Partition, Fraction] = {(): Fraction(1)} if m == 0 else {}
        if acc != expected:
            return False
    return True


def poincare_series(resolution, d: int, N: int) -> PoincareSeries:
    """P_M(t,q) = sum_n (-q)^n H_{Tor_n}(t) from a list of (n, SymFunc)."""
    parts: dict[int, Poly] = {}
    for n, torn in resolution:
        coeffs = ex_specialize(torn, N)
        p = pscale(tuple(coeffs), (-1) ** n)
        parts[n] = padd(parts.get(n, ()), p)
    return PoincareSeries(d, N, parts)


def hilbert_from_poincare(P: PoincareSeries) -> list[Fraction]:
    """Coefficients of P(t, 1) e^{dt} up to the t-truncation."""
    return exppoly_taylor(ExpPoly({P.d: _psum((), *P.parts.values())}), P.truncation)


def annihilator(h: ExpPoly) -> tuple[int, ...]:
    """Root multiset of the minimal operator prod_i (d/dt - d_i) killing h.

    Each exponent r present contributes r with multiplicity deg(p_r) + 1; the
    factorization is verified symbolically before returning.
    """
    roots: list[int] = []
    for r, p in h.parts.items():
        roots.extend([r] * len(p))
    roots.sort()
    cur = h
    for c in roots:
        cur = apply_diff_shadow(cur, c)
    if not cur.is_zero():
        raise AssertionError("annihilator failed to kill the series")
    return tuple(roots)


def apply_diff_shadow(h: ExpPoly, c) -> ExpPoly:
    """(d/dt - c) acting on an exponential polynomial."""
    c = Fraction(c)
    parts: dict[int, Poly] = {}
    for r, p in h.parts.items():
        parts[r] = padd(pderiv(p), pscale(p, r - c))
    return ExpPoly(parts)


def character_at(form: CharPolyForm, lam) -> int:
    """Evaluate tr(c_lam | M_{|lam|}) from a character polynomial form. The
    tails T_j run over the distinct parts n of lam alone (and vanish for
    lam = ()): any other t_n adds nothing, as m_n(lam) = 0 and the falling
    factorial (0)_e = 0, e >= 1. So the codes stay short whatever the parts."""
    lam = as_partition(lam)
    if sum(lam) <= form.threshold:
        raise ValueError(
            f"|lam| = {sum(lam)} not above validity threshold {form.threshold}")
    mult = multiplicities(lam)
    ns = tuple(sorted(mult))
    total = Fraction(0)
    for i, poly in form.entries.items():
        for code, (_, v) in _substitute_tails(poly, ns, None).items():
            alpha = multiset_parts(code)  # positions in ns
            w = math.prod(perm(mult[ns[pos]], e) for pos, e in multiplicities(alpha).items())
            total += v * w * Fraction(i ** len(lam), i ** len(alpha))
    if total.denominator != 1:
        raise AssertionError(f"non-integral trace {total} at {lam}")
    return int(total)


def char_poly_form(e: EnhancedExpr, m: int) -> CharPolyForm:
    """Read a CharPolyForm off an EnhancedExpr with bundle rank m."""
    p0 = e.parts.get(0, {})
    threshold = -1
    for (tpart, Tpart) in p0:
        if Tpart:
            raise ValueError("layer 0 must be a polynomial in the t_i only")
        threshold = max(threshold, sum(tpart))
    entries = {k: poly for k, poly in e.parts.items() if k >= 1}
    return CharPolyForm(m, entries, threshold)


def tca_enhanced_exp(hV: TSeries, d: int, N: int) -> TSeries:
    """Enhanced series of the tca Sym(V) for V concentrated in degree d >= 1.

    Equals exp(sum_{n>=1} phi(p_n ∘ ch V)/n); on a monomial c t^mu this weights
    the substitution t^mu -> t^{n mu} by n^{l(mu)-1}.
    """
    d, N = size(d, "d", 1), size(N, "truncation")
    if hV.is_zero():
        raise ValueError("hV must be nonzero")
    if any(sum(k) != d for k in hV.coeffs):
        raise ValueError(f"hV must be supported in weighted degree exactly {d}")
    s = merge_terms((tuple(n * p for p in mu), c * n ** (len(mu) - 1))
                    for mu, c in hV.coeffs.items() for n in range(1, N // d + 1))
    return ts_exp(TSeries(N, s), N)


# --- JSON wire formats -------------------------------------------------------


def sigma_to_json(e: SigmaExpr) -> dict:
    out: dict[str, dict[str, str]] = {}
    for (mu, nu), c in e.terms.items():
        out.setdefault(format_partition(mu), {})[format_partition(nu)] = str(c)
    return {"terms": out}


def sigma_from_json(obj: dict) -> SigmaExpr:
    return SigmaExpr(merge_terms(((parse_partition(mu_text), parse_indices(nu_text)),
                                  json_fraction(c))
                                 for mu_text, inner in obj["terms"].items()
                                 for nu_text, c in inner.items()))


def exppoly_to_json(h: ExpPoly) -> dict:
    return {str(r): [str(c) for c in p] for r, p in h.parts.items()}


def exppoly_from_json(obj: dict) -> ExpPoly:
    if not isinstance(obj, dict) or not all(isinstance(p, list) for p in obj.values()):
        raise ValueError("ExpPoly JSON must be an object mapping exponents to coefficient lists")
    return ExpPoly({r: tuple(json_fraction(c) for c in p) for r, p in obj.items()})


def tseries_to_json(s: TSeries) -> dict:
    return {
        "truncation": s.truncation,
        "coeffs": {format_partition(lam): fraction_text(c, s.den) for lam, c in s.nums.items()},
    }


def tseries_from_json(obj: dict) -> TSeries:
    return TSeries(json_int(obj["truncation"]),
                   merge_terms((parse_partition(k), json_fraction(v))
                               for k, v in obj["coeffs"].items()))


def _ttpoly_json(poly: TTPoly) -> list[dict]:
    return [{"t": format_partition(t), "T": format_partition(T), "coeff": str(c)}
            for (t, T), c in poly.items()]


def _ttpoly_from_json(items: list[dict]) -> TTPoly:
    return merge_terms(((parse_partition(d["t"]), parse_partition(d["T"])),
                        json_fraction(d["coeff"])) for d in items)


def enhanced_to_json(e: EnhancedExpr) -> dict:
    return {"parts": {str(k): _ttpoly_json(p) for k, p in e.parts.items()}}


def enhanced_from_json(obj: dict) -> EnhancedExpr:
    return EnhancedExpr({k: _ttpoly_from_json(v) for k, v in obj["parts"].items()})


def charpoly_to_json(f: CharPolyForm) -> dict:
    return {"m": f.m, "threshold": f.threshold,
            "entries": {str(i): _ttpoly_json(p) for i, p in f.entries.items()}}


def ode_to_json(op: OdeOperator) -> list[list[str]]:
    return [[str(c) for c in p] for p in op.coeffs]


def ode_from_json(obj) -> OdeOperator:
    return OdeOperator(tuple(tuple(json_fraction(c) for c in p) for p in obj))

