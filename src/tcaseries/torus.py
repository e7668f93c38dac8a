"""Exact Laurent-polynomial torus calculus.

Constant terms, Weyl integration against |Delta|^2, invariant-ring dimension
sequences for products of GL(k)/SL(k) factors, the kernel K(t, alpha), the
integral route to enhanced Hilbert series, and the lattice-point EGF.

All integration is exact constant-term extraction; there is no numerical
quadrature and no symbolic rational-function arithmetic. Per-degree characters
are ordinary Laurent polynomials supplied by the caller or built with
`sym_degree_characters`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .partitions import (
    Partition,
    as_partition,
    enumerate_partitions,
    kostka_number,
    partition_factorial,
    partitions_up_to,
)
from .polyutil import add_into, factorial, merge_terms
from .seriesforms import TSeries

__all__ = [
    "KernelSeries",
    "LaurentPoly",
    "bar",
    "constant_term",
    "delta_squared",
    "enhanced_from_equivariant",
    "hilbert_from_weight_presentation",
    "invariant_dimensions",
    "kernel_K",
    "lp_from_json",
    "lp_to_json",
    "power_sum_lp",
    "schur_lp",
    "sym_degree_characters",
    "weyl_inner",
]

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class LaurentPoly:
    """Exact Laurent polynomial in d torus variables."""

    d: int
    terms: dict[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("need d >= 0")
        terms = merge_terms((self._exponent(e), Fraction(c)) for e, c in self.terms.items())
        object.__setattr__(self, "terms", dict(sorted(terms.items())))

    def _exponent(self, e) -> Exponent:
        e = tuple(int(x) for x in e)
        if len(e) != self.d:
            raise ValueError(f"exponent {e} has length != {self.d}")
        return e

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.d != other.d:
            raise ValueError("variable count mismatch")
        terms = dict(self.terms)
        add_into(terms, other.terms)
        return LaurentPoly(self.d, terms)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.d != other.d:
            raise ValueError("variable count mismatch")
        return LaurentPoly(self.d, merge_terms(
            (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
            for ea, ca in self.terms.items() for eb, cb in other.terms.items()))

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        return LaurentPoly(self.d, {e: v * c for e, v in self.terms.items()})

    def power(self, n: int) -> "LaurentPoly":
        out = lp_one(self.d)
        for _ in range(n):
            out = out * self
        return out

    def value_at_one(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))


def lp_one(d: int) -> LaurentPoly:
    return LaurentPoly(d, {(0,) * d: Fraction(1)})


def constant_term(f: LaurentPoly) -> Fraction:
    return f.terms.get((0,) * f.d, Fraction(0))


def bar(f: LaurentPoly) -> LaurentPoly:
    """alpha_i -> alpha_i^{-1}: negate all exponent tuples."""
    return LaurentPoly(f.d, {tuple(-x for x in e): c for e, c in f.terms.items()})


@functools.cache
def _delta(d: int) -> LaurentPoly:
    out = lp_one(d)
    for i in range(d):
        for j in range(i + 1, d):
            ei = tuple(1 if k == i else 0 for k in range(d))
            ej = tuple(1 if k == j else 0 for k in range(d))
            out = out * (LaurentPoly(d, {ei: Fraction(1), ej: Fraction(-1)}))
    return out


@functools.cache
def delta_squared(d: int) -> LaurentPoly:
    """|Delta|^2 = Delta * bar(Delta) with Delta = prod_{i<j} (alpha_i - alpha_j)."""
    dl = _delta(d)
    return dl * bar(dl)


def _ct_dot(f: LaurentPoly, g: LaurentPoly) -> Fraction:
    """CT(f * g) without materializing the product."""
    if len(f.terms) > len(g.terms):
        f, g = g, f
    zero = Fraction(0)
    total = Fraction(0)
    for e, c in f.terms.items():
        total += c * g.terms.get(tuple(-x for x in e), zero)
    return total


def weyl_inner(f: LaurentPoly, g: LaurentPoly, d: int) -> Fraction:
    """(1/d!) CT(f * bar(g) * |Delta|^2): the GL(d) invariant inner product."""
    if f.d != d or g.d != d:
        raise ValueError(f"inputs must have {d} variables")
    return _ct_dot(f * bar(g), delta_squared(d)) / factorial(d)


def power_sum_lp(k: int, d: int) -> LaurentPoly:
    if k == 0:
        return LaurentPoly(d, {(0,) * d: Fraction(d)})
    return LaurentPoly(d, {tuple(k if j == i else 0 for j in range(d)): Fraction(1)
                           for i in range(d)})


@functools.cache
def _power_sum_of(lam: Partition, d: int) -> LaurentPoly:
    out = lp_one(d)
    for k in lam:
        out = out * power_sum_lp(k, d)
    return out


@functools.cache
def schur_lp(lam: Partition, d: int) -> LaurentPoly:
    """s_lam(alpha_1, ..., alpha_d) = sum_mu K_{lam,mu} m_mu(alpha), l(mu) <= d."""
    lam = as_partition(lam)
    terms: dict[Exponent, Fraction] = {}
    for mu in enumerate_partitions(sum(lam), max_length=d):
        k = kostka_number(lam, mu)
        if k:
            padded = mu + (0,) * (d - len(mu))
            for e in set(itertools.permutations(padded)):
                terms[e] = Fraction(k)
    return LaurentPoly(d, terms)


def schur_coefficients(f: LaurentPoly) -> dict[Partition, Fraction]:
    """Schur expansion of a symmetric polynomial f in f.d variables.

    f * a_delta is alternating, so it is sum_mu c_mu a_{mu+delta}, and
    [s_mu] f = [x^(mu+delta)] (f * a_delta) (Macdonald I.3); the exponents
    mu+delta are exactly the strictly decreasing ones.
    """
    d = f.d
    out: dict[Partition, Fraction] = {}
    for e, c in (f * _delta(d)).terms.items():
        if all(e[i] > e[i + 1] for i in range(d - 1)):
            out[as_partition(x - (d - 1 - i) for i, x in enumerate(e))] = c
    return out


def sym_degree_characters(chi: LaurentPoly, N: int) -> list[LaurentPoly]:
    """Characters of Sym^n(E) for n <= N from the character of E, by Newton's
    identity n h_n = sum_{k=1}^{n} p_k h_{n-k} with p_k = chi(alpha^k)."""
    d = chi.d
    pk = [None] + [LaurentPoly(d, {tuple(k * x for x in e): c
                                   for e, c in chi.terms.items()})
                   for k in range(1, N + 1)]
    hs = [lp_one(d)]
    for n in range(1, N + 1):
        acc = LaurentPoly(d, {})
        for k in range(1, n + 1):
            acc = acc + pk[k] * hs[n - k]
        hs.append(acc.scale(Fraction(1, n)))
    return hs


def _sl_reduce(f: LaurentPoly, blocks: list[tuple[str, int]]) -> LaurentPoly:
    """Substitute, in each SL(k) block, the last variable by the inverse
    product of the block's others; GL blocks keep all their variables."""
    keep: list[int] = []
    drop: list[tuple[int, list[int]]] = []  # (dropped index, indices it folds into)
    pos = 0
    for kind, k in blocks:
        idx = list(range(pos, pos + k))
        if kind == "sl":
            keep.extend(idx[:-1])
            drop.append((idx[-1], idx[:-1]))
        else:
            keep.extend(idx)
        pos += k

    def reduce(e: Exponent) -> Exponent:
        new = {i: e[i] for i in keep}
        for di, rest in drop:
            for i in rest:
                new[i] -= e[di]
        return tuple(new[i] for i in keep)

    return LaurentPoly(len(keep), merge_terms((reduce(e), c) for e, c in f.terms.items()))


def invariant_dimensions(group: list[tuple[str, int]], weights: LaurentPoly,
                         n_max: int) -> list[int]:
    """dim (E^{tensor n})^G for n = 0..n_max, G a product of GL(k)/SL(k) factors.

    `weights` is the character of E on the product of the ambient GL tori
    (dimension of E = value at all alpha_i = 1). SL factors are realized by
    eliminating the last torus coordinate of their block; |W| and |Delta|^2
    stay those of the ambient type-A data.
    """
    blocks = [(str(kind), int(k)) for kind, k in group]
    for kind, k in blocks:
        if kind not in ("gl", "sl"):
            raise ValueError(f"unknown factor kind {kind!r}")
        if k < 1:
            raise ValueError("factor rank must be >= 1")
    total = sum(k for _, k in blocks)
    if weights.d != total:
        raise ValueError(f"weights must have {total} variables")
    weyl_order = 1
    for _, k in blocks:
        weyl_order *= factorial(k)
    measure = lp_one(total)
    pos = 0
    for _, k in blocks:
        dsq = delta_squared(k)
        lifted = LaurentPoly(total, {
            (0,) * pos + e + (0,) * (total - pos - k): c for e, c in dsq.terms.items()})
        measure = measure * lifted
        pos += k
    chi = _sl_reduce(weights, blocks)
    measure = _sl_reduce(measure, blocks)
    dims: list[int] = []
    power = lp_one(chi.d)
    for n in range(n_max + 1):
        if n:
            power = power * chi
        val = _ct_dot(power, measure) / weyl_order
        if val.denominator != 1 or val < 0:
            raise AssertionError(f"non-integral invariant dimension {val} at n={n}")
        dims.append(int(val))
    return dims


@dataclass(frozen=True)
class KernelSeries:
    """K(t, alpha) = sum_lam p_lam(alpha) t^lam / lam!, truncated at t-weight N."""

    d: int
    truncation: int
    terms: dict[Exponent, TSeries] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[Exponent, TSeries] = {}
        for e, s in self.terms.items():
            e = tuple(int(x) for x in e)
            if len(e) != self.d:
                raise ValueError(f"exponent {e} has length != {self.d}")
            if any(abs(x) > self.truncation for x in e):
                raise ValueError(f"exponent {e} out of bound {self.truncation}")
            if s.truncation != self.truncation:
                s = TSeries(self.truncation, s.coeffs)
            clean[e] = clean[e] + s if e in clean else s
        object.__setattr__(self, "terms",
                           {e: s for e, s in sorted(clean.items()) if not s.is_zero()})

    def coefficient(self, e) -> TSeries:
        return self.terms.get(tuple(e), TSeries(self.truncation, {}))


def kernel_K(d: int, N: int) -> KernelSeries:
    terms: dict[Exponent, dict[Partition, Fraction]] = {}
    for lam in partitions_up_to(N):
        plam = _power_sum_of(lam, d)
        w = Fraction(1, partition_factorial(lam))
        for e, c in plam.terms.items():
            terms.setdefault(e, {})[lam] = c * w
    return KernelSeries(d, N, {e: TSeries(N, coeffs) for e, coeffs in terms.items()})


def enhanced_from_equivariant(hilb, d: int, N: int) -> TSeries:
    """Integral route to the enhanced Hilbert series: the coefficient of t^lam
    is weyl_inner(character of degree |lam|, p_lam) / lam!.

    `hilb` is a sequence of LaurentPoly degree-n characters of M(C^d) for
    n = 0..N (entries may be None for zero).
    """
    coeffs: dict[Partition, Fraction] = {}
    for lam in partitions_up_to(N):
        ch = hilb[sum(lam)] if sum(lam) < len(hilb) else None
        if ch is None:
            continue
        v = weyl_inner(ch, _power_sum_of(lam, d), d) / partition_factorial(lam)
        if v:
            coeffs[lam] = v
    return TSeries(N, coeffs)


def hilbert_from_weight_presentation(A, b, N: int) -> list[Fraction]:
    """EGF coefficients of sum_x t^{|xA+b|} / (xA+b)! over x in Z_{>=0}^n.

    A is an n x d matrix of non-negative integers with no zero row; b is a
    non-negative integer d-tuple; |y| = sum(y), y! = prod(y_i!).
    """
    rows = [tuple(int(v) for v in row) for row in A]
    b = tuple(int(v) for v in b)
    width = len(b)
    for row in rows:
        if len(row) != width:
            raise ValueError("matrix width must match len(b)")
        if any(v < 0 for v in row) or not any(row):
            raise ValueError(f"rows must be nonzero and non-negative, got {row}")
    if any(v < 0 for v in b):
        raise ValueError("b must be non-negative")
    out = [Fraction(0)] * (N + 1)

    def rec(i: int, y: tuple[int, ...]):
        tot = sum(y)
        if tot > N:
            return
        if i == len(rows):
            w = Fraction(1)
            for v in y:
                w /= factorial(v)
            out[tot] += w
            return
        cur = y
        while sum(cur) <= N:
            rec(i + 1, cur)
            cur = tuple(a + c for a, c in zip(cur, rows[i]))

    rec(0, b)
    return out


# --- JSON wire format --------------------------------------------------------


def lp_to_json(f: LaurentPoly) -> dict:
    return {"d": f.d,
            "terms": {",".join(str(x) for x in e): str(c) for e, c in f.terms.items()}}


def lp_from_json(obj: dict) -> LaurentPoly:
    return LaurentPoly(obj["d"], merge_terms(
        (tuple(int(tok) for tok in key.split(",")) if key else (), Fraction(c))
        for key, c in obj["terms"].items()))
