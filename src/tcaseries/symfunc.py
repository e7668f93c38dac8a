"""Symmetric functions with explicit basis tags and truncation metadata.

A SymFunc is a finite Fraction-linear combination of basis elements indexed
by partitions, in one of two bases: schur "s" or powersum "p".
``truncation=N`` means coefficients are only meaningful in degrees <= N
(None marks an exact, untruncated element). Operations propagate the minimum
truncation of their inputs and never silently extend precision.

Products are computed through the powersum basis, where multiplication is
concatenation of indexing partitions; the Littlewood-Richardson rule exists
only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .partitions import (
    Partition,
    as_partition,
    canonical_key,
    enumerate_partitions,
    format_partition,
    parse_partition,
    sym_character,
    transpose,
    z_of,
)
from .polyutil import add_into, merge_terms

SCHUR = "s"
POWERSUM = "p"
_BASES = (SCHUR, POWERSUM)

__all__ = [
    "POWERSUM",
    "SCHUR",
    "SymFunc",
    "add",
    "change_basis",
    "dagger",
    "ddag",
    "degree_slice",
    "max_degree",
    "multiply",
    "plethysm_power",
    "scale",
    "schur_derivative",
    "sym_algebra_character",
]


def normalize_terms(terms, truncation: int | None) -> dict[Partition, Fraction]:
    """Canonical copy of a partition-keyed dict: keys validated, coefficients
    made Fractions, terms above `truncation` (None: none) dropped, equal keys
    merged, zeros dropped, keys in canonical order."""
    limit = math.inf if truncation is None else truncation
    keys = map(as_partition, terms)
    return merge_terms(((lam, Fraction(c)) for lam, c in zip(keys, terms.values())
                        if sum(lam) <= limit), canonical_key)


@dataclass(frozen=True)
class SymFunc:
    basis: str
    terms: dict[Partition, Fraction] = field(default_factory=dict)
    truncation: int | None = None

    def __post_init__(self):
        if self.basis not in _BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        object.__setattr__(self, "terms", normalize_terms(self.terms, self.truncation))

    def coeff(self, lam) -> Fraction:
        return self.terms.get(as_partition(lam), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms


def _min_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def max_degree(f: SymFunc) -> int:
    return max((sum(lam) for lam in f.terms), default=0)


def degree_slice(f: SymFunc, n: int) -> dict[Partition, Fraction]:
    return {lam: c for lam, c in f.terms.items() if sum(lam) == n}


def add(f: SymFunc, g: SymFunc) -> SymFunc:
    if f.basis != g.basis:
        g = change_basis(g, f.basis)
    terms = dict(f.terms)
    add_into(terms, g.terms)
    return SymFunc(f.basis, terms, _min_trunc(f.truncation, g.truncation))


def scale(f: SymFunc, c) -> SymFunc:
    c = Fraction(c)
    return SymFunc(f.basis, {lam: v * c for lam, v in f.terms.items()}, f.truncation)


def change_basis(f: SymFunc, target: str) -> SymFunc:
    if target not in _BASES:
        raise ValueError(f"unknown basis {target!r}")
    if f.basis == target:
        return f
    terms = _s_to_p(f.terms) if target == POWERSUM else _p_to_s(f.terms)
    return SymFunc(target, terms, f.truncation)


def _s_to_p(terms) -> dict[Partition, Fraction]:
    return merge_terms((mu, c * Fraction(sym_character(lam, mu), z_of(mu)))
                       for lam, c in terms.items() for mu in enumerate_partitions(sum(lam)))


def _p_to_s(terms) -> dict[Partition, Fraction]:
    return merge_terms((lam, c * sym_character(lam, mu))
                       for mu, c in terms.items() for lam in enumerate_partitions(sum(mu)))


def _p_mul_terms(a: dict[Partition, Fraction], b: dict[Partition, Fraction],
                 trunc: int | None) -> dict[Partition, Fraction]:
    """Product of two partition-keyed dicts whose keys multiply by multiset
    union (power sums, t-monomials, T-monomials), dropping terms above `trunc`
    (None: keep all). The result has no zero coefficients."""
    out: dict[Partition, Fraction] = {}
    limit = math.inf if trunc is None else trunc
    b_items = [(lb, sum(lb), cb) for lb, cb in b.items()]
    for la, ca in a.items():
        room = limit - sum(la)
        for lb, wb, cb in b_items:
            if wb > room:
                continue
            key = tuple(sorted(la + lb, reverse=True))
            v = ca * cb
            cur = out.get(key)
            out[key] = v if cur is None else cur + v
    return {k: v for k, v in out.items() if v}


def graded_exp(b: dict[Partition, Fraction], N: int) -> dict[Partition, Fraction]:
    """exp(b) through degree N in the algebra of `_p_mul_terms`, for b with no
    degree-0 term.

    Uses Newton's identity n a_n = sum_{k=1}^n k b_k a_{n-k} on the homogeneous
    parts a_n of exp(b) and b_k of b (Macdonald, Symmetric Functions, I.2), so
    each pair of terms of b and exp(b) is multiplied once.
    """
    if () in b:
        raise ValueError("exp of a series with constant term")
    kb: dict[int, dict[Partition, Fraction]] = {}
    for mu, c in b.items():
        k = sum(mu)
        if k <= N:
            kb.setdefault(k, {})[mu] = k * c
    a: list[dict[Partition, Fraction]] = [{(): Fraction(1)}]
    for n in range(1, N + 1):
        acc: dict[Partition, Fraction] = {}
        for k, kb_k in kb.items():
            if k <= n:
                add_into(acc, _p_mul_terms(kb_k, a[n - k], None))
        a.append({mu: v / n for mu, v in acc.items()})
    return {mu: c for a_n in a for mu, c in a_n.items()}


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product in the ring of symmetric functions, via the powersum basis."""
    trunc = _min_trunc(f.truncation, g.truncation)
    fp = change_basis(f, POWERSUM)
    gp = change_basis(g, POWERSUM)
    prod = _p_mul_terms(fp.terms, gp.terms, trunc)
    return change_basis(SymFunc(POWERSUM, prod, trunc), f.basis)


def plethysm_power(k: int, f: SymFunc) -> SymFunc:
    """p_k ∘ f: substitute p_j -> p_{jk} on the powersum expansion."""
    if k < 1:
        raise ValueError("k must be >= 1")
    fp = change_basis(f, POWERSUM)
    terms = {tuple(k * part for part in mu): c for mu, c in fp.terms.items()}
    trunc = None if f.truncation is None else k * f.truncation
    return change_basis(SymFunc(POWERSUM, terms, trunc), f.basis)


def sym_algebra_character(f: SymFunc, N: int) -> SymFunc:
    """Character of Sym(V) truncated at degree N, for V with character f.

    Computes exp(sum_{k>=1} (p_k ∘ f)/k) in the powersum basis; f must have
    no degree-0 term. Returns a schur-basis SymFunc truncated at N.
    """
    fp = change_basis(f, POWERSUM)
    if () in fp.terms:
        raise ValueError("character has a degree-0 term")
    if fp.truncation is not None and fp.truncation < N:
        raise ValueError(f"input truncated at {fp.truncation} < {N}")
    log_terms = merge_terms((tuple(k * part for part in mu), c / k)
                            for mu, c in fp.terms.items() for k in range(1, N // sum(mu) + 1))
    return change_basis(SymFunc(POWERSUM, graded_exp(log_terms, N), N), SCHUR)


def dagger(f: SymFunc) -> SymFunc:
    """Transpose every indexing partition (schur basis)."""
    fs = change_basis(f, SCHUR)
    return SymFunc(SCHUR, {transpose(lam): c for lam, c in fs.terms.items()}, f.truncation)


def ddag(f: SymFunc) -> SymFunc:
    """s_lam -> (-1)^{|lam|} s_{lam'}: the involution behind sigma inversion."""
    fs = change_basis(f, SCHUR)
    terms = {transpose(lam): (-1) ** sum(lam) * c for lam, c in fs.terms.items()}
    return SymFunc(SCHUR, terms, f.truncation)


def schur_derivative(f: SymFunc) -> SymFunc:
    """d/dp_1: the shift functor's effect on characters (degree drops by 1)."""
    fp = change_basis(f, POWERSUM)
    # d/dp_1 (p_1^m p_nu) = m p_1^{m-1} p_nu; parts descend, so the 1s are last
    out = merge_terms((mu[:-1], mu.count(1) * c) for mu, c in fp.terms.items())
    trunc = None if f.truncation is None else max(f.truncation - 1, 0)
    return change_basis(SymFunc(POWERSUM, out, trunc), f.basis)


def to_json(f: SymFunc) -> dict:
    return {
        "basis": f.basis,
        "truncation": f.truncation,
        "terms": {format_partition(lam): str(c) for lam, c in f.terms.items()},
    }


def from_json(obj: dict) -> SymFunc:
    terms = merge_terms((parse_partition(k), Fraction(v)) for k, v in obj["terms"].items())
    return SymFunc(obj["basis"], terms, obj.get("truncation"))
