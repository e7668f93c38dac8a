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

Specializations: ``sigma_expand`` (sigma -> Schur series), ``ex_*`` (Hilbert
series, sigma_k -> (t^k/k!) e^t), ``phi_*`` (enhanced series, p_n -> n t_n,
sigma_n -> exp(T_0) sum_{nu |- n} T^nu / nu!).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .partitions import (
    Partition,
    as_partition,
    canonical_key,
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
    Poly,
    add_into,
    binom,
    factorial,
    falling,
    merge_terms,
    nullspace,
    padd,
    pcompose_neg,
    pderiv,
    pdeg,
    pmul,
    pscale,
    ptrim,
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
    "umbral_substitute",
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
    nu = tuple(sorted((int(i) for i in nu), reverse=True))
    if any(i < 0 for i in nu):
        raise ValueError(f"negative sigma index in {nu}")
    return mu, nu


def _sigma_key_sort(key: SigmaKey):
    s_part, nu = key
    return (canonical_key(s_part), sum(nu), len(nu), tuple(-i for i in nu))


@dataclass(frozen=True)
class SigmaExpr:
    """Finite sum  c * s_mu * sigma_{nu_1} ... sigma_{nu_k}  in Lambda-tilde."""

    terms: dict[SigmaKey, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", merge_terms(
            ((_sigma_key(mu, nu), Fraction(c)) for (mu, nu), c in self.terms.items()),
            _sigma_key_sort))

    def sigma_degree(self) -> int | None:
        """Common sigma-degree (count of sigma factors), None if mixed/empty."""
        degs = {len(nu) for (_, nu) in self.terms}
        return degs.pop() if len(degs) == 1 else None


def _layers(parts, low: int, total, error: str) -> dict:
    """Canonical copy of a dict of layers: keys made ints (so "1" and "01" name
    one layer) that must be >= `low`, else ValueError(error); `total(*values)`
    is the canonical sum of the values of one layer; empty layers dropped;
    keys sorted."""
    groups: dict[int, list] = {}
    for k, v in parts.items():
        k = int(k)
        if k < low:
            raise ValueError(error)
        groups.setdefault(k, []).append(v)
    layers = ((k, total(*vs)) for k, vs in sorted(groups.items()))
    return {k: v for k, v in layers if v}


def _psum(*ps) -> Poly:
    return functools.reduce(padd, map(ptrim, ps))


@dataclass(frozen=True)
class ExpPoly:
    """Exponential polynomial sum_r p_r(t) e^{rt}; parts maps r -> p_r."""

    parts: dict[int, Poly] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "parts",
                           _layers(self.parts, 0, _psum, "negative exponent in ExpPoly"))

    def is_zero(self) -> bool:
        return not self.parts


def exppoly_taylor(h: ExpPoly, N: int) -> list[Fraction]:
    """First N+1 Taylor coefficients of sum_r p_r(t) e^{rt}."""
    out = [Fraction(0)] * (N + 1)
    for r, p in h.parts.items():
        for j, c in enumerate(p):
            for n in range(j, N + 1):
                out[n] += c * Fraction(r ** (n - j), factorial(n - j))
    return out


@dataclass(frozen=True)
class TSeries:
    """Series in t_1, t_2, ... truncated at weighted degree `truncation`."""

    truncation: int
    coeffs: dict[Partition, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation must be >= 0")
        object.__setattr__(self, "coeffs", symfunc.normalize_terms(self.coeffs, self.truncation))

    def coeff(self, lam) -> Fraction:
        return self.coeffs.get(as_partition(lam), Fraction(0))

    def __add__(self, other: "TSeries") -> "TSeries":
        coeffs = dict(self.coeffs)
        add_into(coeffs, other.coeffs)
        return TSeries(min(self.truncation, other.truncation), coeffs)

    def __sub__(self, other: "TSeries") -> "TSeries":
        return self + other.scale(-1)

    def scale(self, c) -> "TSeries":
        c = Fraction(c)
        return TSeries(self.truncation, {k: v * c for k, v in self.coeffs.items()})

    def __mul__(self, other: "TSeries") -> "TSeries":
        N = min(self.truncation, other.truncation)
        return TSeries(N, symfunc._p_mul_terms(self.coeffs, other.coeffs, N))

    def is_zero(self) -> bool:
        return not self.coeffs


def ts_exp(s: TSeries, N: int) -> TSeries:
    """exp of a TSeries with no constant term, truncated at N."""
    return TSeries(N, symfunc.graded_exp(s.coeffs, N))


def ts_egf(s: TSeries) -> list[Fraction]:
    """Specialize t_1 = t, t_i = 0 (i >= 2): the plain EGF coefficients."""
    out = [Fraction(0)] * (s.truncation + 1)
    for lam, c in s.coeffs.items():
        if all(p == 1 for p in lam):
            out[len(lam)] += c
    return out


# --- TT polynomials: exact polynomials in t_i and T_i -----------------------


def _tt_key_sort(key: TTKey):
    return canonical_key(key[0]), canonical_key(key[1])


def tt_terms(*polys) -> TTPoly:
    """Canonical sum of TT polynomials: keys validated, coefficients made
    Fractions, equal keys merged, zeros dropped, keys in canonical order."""
    return merge_terms((((as_partition(t), as_partition(T)), Fraction(c))
                        for poly in polys for (t, T), c in poly.items()), _tt_key_sort)


@dataclass(frozen=True)
class EnhancedExpr:
    """Enhanced series form sum_k q_k(t, T) e^{k T_0}."""

    parts: dict[int, TTPoly] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "parts",
                           _layers(self.parts, 0, tt_terms, "negative exponent in EnhancedExpr"))


@dataclass(frozen=True)
class OdeOperator:
    """Linear ODE  sum_i p_i(t) y^{(i)} = 0; coeffs = (p_0, ..., p_R), p_R != 0."""

    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        cs = tuple(ptrim(p) for p in self.coeffs)
        if not cs or not cs[-1]:
            raise ValueError("leading coefficient polynomial must be nonzero")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max(pdeg(p) for p in self.coeffs)


@dataclass(frozen=True)
class PoincareSeries:
    """P_M(t, q) = sum_n (-q)^n H_{Tor_n}(t), truncated in t."""

    d: int
    truncation: int
    parts: dict[int, Poly] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "parts",
                           _layers(self.parts, 0, _psum, "negative homological degree"))


@dataclass(frozen=True)
class CharPolyForm:
    """Character polynomial data: tr(c_lam | M) = sum_i i^{l(lam)} (down_i q_i)(m(lam)).

    `entries` holds the q_i (polynomials in t, T) for i >= 1; `threshold` is
    the weighted t-degree of the i = 0 layer (deg t_i = i; -1 when absent),
    below which |lam| the evaluation is not asserted to be the trace.
    """

    m: int
    entries: dict[int, TTPoly] = field(default_factory=dict)
    threshold: int = -1

    def __post_init__(self):
        entries = _layers(self.entries, 1, tt_terms, "entries are indexed by i >= 1")
        for i, poly in entries.items():
            for (_, Tpart) in poly:
                if sum(Tpart) > i * (self.m - i):
                    raise ValueError(
                        f"T-degree {sum(Tpart)} of entry {i} exceeds bound i(m-i) = {i * (self.m - i)}")
        object.__setattr__(self, "entries", entries)


# --- specializations of Lambda and Lambda-tilde ------------------------------


def ex_specialize(f: SymFunc, N: int) -> list[Fraction]:
    """Hilbert specialization ex: s_lam -> dim(M_lam) t^{|lam|} / |lam|!.

    Returns EGF coefficients [t^0] .. [t^N].
    """
    if f.truncation is not None and f.truncation < N:
        raise ValueError(f"input truncated at {f.truncation} < {N}")
    fs = symfunc.change_basis(f, SCHUR)
    out = [Fraction(0)] * (N + 1)
    for lam, c in fs.terms.items():
        n = sum(lam)
        if n <= N:
            out[n] += c * Fraction(dim_specht(lam), factorial(n))
    return out


def phi_enhanced(f: SymFunc, N: int) -> TSeries:
    """Enhanced specialization phi: p_n -> n t_n, so s_lam -> X_lam."""
    if f.truncation is not None and f.truncation < N:
        raise ValueError(f"input truncated at {f.truncation} < {N}")
    fp = symfunc.change_basis(f, POWERSUM)
    return TSeries(N, {mu: c * math.prod(mu) for mu, c in fp.terms.items() if sum(mu) <= N})


@functools.cache
def _sigma_p_terms(k: int, N: int) -> tuple[tuple[Partition, Fraction], ...]:
    """sigma_k = sum_{n>=k} binom(n,k) s_n, truncated at N, in powersum terms."""
    return tuple(symfunc._s_to_p({(n,): binom(n, k) for n in range(k, N + 1)}).items())


def sigma_expand(e: SigmaExpr, N: int) -> SymFunc:
    """Expand sigma_k -> sum_{n=k}^N binom(n,k) s_n and multiply out in Lambda."""
    total: dict[Partition, Fraction] = {}
    for (mu_s, nu), c in e.terms.items():
        if sum(mu_s) > N:
            continue
        cur = symfunc._s_to_p({mu_s: 1})
        for k in nu:
            cur = symfunc._p_mul_terms(cur, dict(_sigma_p_terms(k, N)), N)
        add_into(total, cur, c)
    return symfunc.change_basis(SymFunc(POWERSUM, total, N), SCHUR)


def _sigma_multisets(max_count: int, max_weight: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], bound: int, weight_left: int):
        out.append(tuple(prefix))
        if len(prefix) == max_count:
            return
        for i in range(min(bound, weight_left), -1, -1):
            prefix.append(i)
            rec(prefix, i, weight_left - i)
            prefix.pop()

    rec([], max_weight, max_weight)
    return out


def sigma_recognize(f: SymFunc, r_max: int, s_deg_max: int,
                    sigma_wt_max: int) -> SigmaExpr | None:
    """Recover a SigmaExpr whose expansion matches a truncated Schur series.

    Solves an exact linear system over all candidate monomials s_mu sigma^nu
    with |mu| <= s_deg_max, at most r_max sigma factors of total index weight
    <= sigma_wt_max. Returns None when no candidate combination fits ("not
    recognized" is a value, not an error). Requires truncation at least
    s_deg_max + sigma_wt_max + r_max + 5 so the system is overdetermined.
    """
    if f.truncation is None:
        raise ValueError("input must carry a truncation")
    N = f.truncation
    if N < s_deg_max + sigma_wt_max + r_max + 5:
        raise ValueError(
            f"truncation {N} too small; need >= {s_deg_max + sigma_wt_max + r_max + 5}")
    fs = symfunc.change_basis(f, SCHUR)
    rows = partitions_up_to(N)
    row_index = {lam: i for i, lam in enumerate(rows)}
    candidates: list[SigmaKey] = []
    for mu in partitions_up_to(s_deg_max):
        for nu in _sigma_multisets(r_max, sigma_wt_max):
            candidates.append((mu, nu))
    # [A | -b]: A x = b is solvable iff the last column is free, and that
    # column's basis vector is (x, 1) with the other free variables 0.
    matrix = [[Fraction(0)] * len(candidates) + [-fs.terms.get(lam, Fraction(0))]
              for lam in rows]
    for j, key in enumerate(candidates):
        col = sigma_expand(SigmaExpr({key: Fraction(1)}), N)
        for lam, c in col.terms.items():
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
def _bell_sigma(k: int) -> tuple[tuple[Partition, Fraction], ...]:
    """phi(sigma_k) = exp(T_0) * sum_{nu |- k} T^nu / nu!; the T polynomial."""
    return tuple((nu, Fraction(1, partition_factorial(nu))) for nu in enumerate_partitions(k))


def phi_sigma(e: SigmaExpr) -> EnhancedExpr:
    """Enhanced specialization on Lambda-tilde."""
    parts: dict[int, TTPoly] = {}
    for (mu, nu), c in e.terms.items():
        tpoly: dict[Partition, Fraction] = {(): Fraction(1)}
        for k in nu:
            tpoly = symfunc._p_mul_terms(tpoly, dict(_bell_sigma(k)), None)
        poly = {(t, T): ct * cT for (t, _), ct in _xlam(mu) for T, cT in tpoly.items()}
        add_into(parts.setdefault(len(nu), {}), poly, c)
    return EnhancedExpr(parts)


def _t_tail_series(j: int, N: int) -> TSeries:
    """T_j = sum_{n >= j} binom(n, j) t_n, truncated at N (j >= 1)."""
    return TSeries(N, {(n,): Fraction(binom(n, j)) for n in range(max(j, 1), N + 1)})


def _exp_kt0(k: int, N: int) -> TSeries:
    """exp(k T_0) = sum_nu k^{l(nu)} t^nu / nu!, truncated at N."""
    coeffs: dict[Partition, Fraction] = {}
    for nu in partitions_up_to(N):
        coeffs[nu] = Fraction(k ** len(nu), partition_factorial(nu))
    return TSeries(N, coeffs)


def enhanced_expand(e: EnhancedExpr, N: int) -> TSeries:
    """Expand T_j and e^{k T_0} into the t variables, truncated at weight N."""
    total = TSeries(N, {})
    for k, poly in e.parts.items():
        layer = TSeries(N, {})
        for (tpart, Tpart), c in poly.items():
            if sum(tpart) > N:
                continue
            ts = TSeries(N, {tpart: c})
            for j in Tpart:
                ts = ts * _t_tail_series(j, N)
            layer = layer + ts
        total = total + layer * _exp_kt0(k, N)
    return total


def fourier_dual_hilbert(h: ExpPoly, d: int) -> ExpPoly:
    """Fourier shadow on Hilbert series: p_r(t) -> p_{d-r}(-t)."""
    parts: dict[int, Poly] = {}
    for r, p in h.parts.items():
        if r > d:
            raise ValueError(f"exponent {r} exceeds ambient dimension {d}")
        parts[d - r] = pcompose_neg(p)
    return ExpPoly(parts)


def _ddag_p_terms(terms: dict[Partition, Fraction]) -> dict[Partition, Fraction]:
    return {mu: (-1) ** len(mu) * c for mu, c in terms.items()}


def sigma_ddag_check(N: int) -> bool:
    """Verify (sum_n sigma_n^ddag u^n)(sum_n sigma_n u^n) = 1 to bidegree (N, N)."""
    sig = [dict(_sigma_p_terms(k, N)) for k in range(N + 1)]
    sig_dd = [_ddag_p_terms(s) for s in sig]
    for m in range(N + 1):
        acc: dict[Partition, Fraction] = {}
        for a in range(m + 1):
            add_into(acc, symfunc._p_mul_terms(sig_dd[a], sig[m - a], N))
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
    N = P.truncation
    tot: Poly = ()
    for p in P.parts.values():
        tot = padd(tot, p)
    expd = tuple(Fraction(P.d ** j, factorial(j)) for j in range(N + 1))
    prod = pmul(tot, expd)
    out = list(prod[: N + 1])
    out.extend([Fraction(0)] * (N + 1 - len(out)))
    return out


def annihilator(h: ExpPoly) -> tuple[int, ...]:
    """Root multiset of the minimal operator prod_i (d/dt - d_i) killing h.

    Each exponent r present contributes r with multiplicity deg(p_r) + 1; the
    factorization is verified symbolically before returning.
    """
    roots: list[int] = []
    for r, p in h.parts.items():
        roots.extend([r] * (pdeg(p) + 1))
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


def umbral_substitute(p, k: int) -> dict[Partition, Fraction]:
    """down_k: prod t_i^{d_i} -> prod k^{-d_i} (a_i)_{d_i}, expanded in the a_i.

    Input: a polynomial in the t_i only, either {partition: coeff} or a TTPoly
    with empty T parts. Output keys: partitions encoding prod a_i^{e_i}.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def t_part(key):
        if isinstance(key, tuple) and len(key) == 2 and key and isinstance(key[0], tuple):
            tpart, Tpart = key
            if Tpart:
                raise ValueError("input must be a polynomial in the t_i only")
            return tpart
        return key

    mono = merge_terms((as_partition(t_part(key)), Fraction(c)) for key, c in p.items())
    out: dict[Partition, Fraction] = {}
    for alpha, c in mono.items():
        cur: dict[Partition, Fraction] = {(): c}
        for var, d in multiplicities(alpha).items():
            ff: Poly = (Fraction(1),)  # (a_var)_d, ascending in a_var
            for step in range(d):
                ff = pmul(ff, (Fraction(-step), Fraction(1)))
            scale = Fraction(1, k ** d)
            cur = symfunc._p_mul_terms(
                cur, {(var,) * e: v * scale for e, v in enumerate(ff) if v}, None)
        add_into(out, cur)
    return merge_terms(out.items(), canonical_key)


def character_at(form: CharPolyForm, lam, t_cap: int | None = None) -> int:
    """Evaluate tr(c_lam | M_{|lam|}) from a character polynomial form."""
    lam = as_partition(lam)
    if sum(lam) <= form.threshold:
        raise ValueError(
            f"|lam| = {sum(lam)} not above validity threshold {form.threshold}")
    cap = t_cap if t_cap is not None else (lam[0] if lam else 1)
    if lam and lam[0] > cap:
        raise ValueError(f"largest part {lam[0]} exceeds t_cap {cap}")
    mult = multiplicities(lam)
    ell = len(lam)
    total = Fraction(0)
    for i, poly in form.entries.items():
        layer = Fraction(0)
        for (tpart, Tpart), c in poly.items():
            expanded: dict[Partition, Fraction] = {tpart: c}
            for j in Tpart:
                tail = {(n,): Fraction(binom(n, j)) for n in range(j, cap + 1)}
                expanded = symfunc._p_mul_terms(expanded, tail, None)
            for alpha, v in expanded.items():
                w = v
                degree = 0
                for var, e in multiplicities(alpha).items():
                    w *= falling(mult.get(var, 0), e)
                    degree += e
                    if w == 0:
                        break
                if w:
                    layer += w / Fraction(i ** degree)
        total += Fraction(i ** ell) * layer
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
    if hV.is_zero():
        raise ValueError("hV must be nonzero")
    if any(sum(k) != d for k in hV.coeffs) or d < 1:
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
    return SigmaExpr(merge_terms(((parse_partition(mu_text), parse_indices(nu_text)), Fraction(c))
                                 for mu_text, inner in obj["terms"].items()
                                 for nu_text, c in inner.items()))


def exppoly_to_json(h: ExpPoly) -> dict:
    return {str(r): [str(c) for c in p] for r, p in h.parts.items()}


def _json_fraction(c) -> Fraction:
    # a JSON float is a binary double, not the decimal written, and bool is an int subclass
    if isinstance(c, bool) or not isinstance(c, (str, int)):
        raise ValueError(f"coefficient {c!r} is not a string or an integer")
    return Fraction(c)


def exppoly_from_json(obj: dict) -> ExpPoly:
    if not isinstance(obj, dict) or not all(isinstance(p, list) for p in obj.values()):
        raise ValueError("ExpPoly JSON must be an object mapping exponents to coefficient lists")
    return ExpPoly({r: tuple(_json_fraction(c) for c in p) for r, p in obj.items()})


def tseries_to_json(s: TSeries) -> dict:
    return {
        "truncation": s.truncation,
        "coeffs": {format_partition(lam): str(c) for lam, c in s.coeffs.items()},
    }


def tseries_from_json(obj: dict) -> TSeries:
    return TSeries(obj["truncation"],
                   merge_terms((parse_partition(k), Fraction(v)) for k, v in obj["coeffs"].items()))


def _ttpoly_json(poly: TTPoly) -> list[dict]:
    return [{"t": format_partition(t), "T": format_partition(T), "coeff": str(c)}
            for (t, T), c in poly.items()]


def _ttpoly_from_json(items: list[dict]) -> TTPoly:
    return merge_terms(((parse_partition(d["t"]), parse_partition(d["T"])), Fraction(d["coeff"]))
                       for d in items)


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
    return OdeOperator(tuple(tuple(Fraction(c) for c in p) for p in obj))

