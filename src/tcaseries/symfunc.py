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
from fractions import Fraction

from .partitions import (
    Partition,
    as_partition,
    canonical_key,
    enumerate_partitions,
    format_partition,
    parse_partition,
    sym_character,
    z_of,
)
from .polyutil import (Value, fraction_terms, json_fraction, json_int, merge_terms,
                       multiset_code, multiset_mul, multiset_terms, newton_exp,
                       over_common_denominator, size, truncated_at_least)

SCHUR = "s"
POWERSUM = "p"
_BASES = (SCHUR, POWERSUM)

__all__ = [
    "POWERSUM",
    "SCHUR",
    "SymFunc",
    "add",
    "change_basis",
    "degree_slice",
    "multiply",
    "sym_algebra_character",
]


def normalize_terms(terms, truncation: int | None) -> dict[Partition, Fraction]:
    """Canonical copy of a partition-keyed dict: keys validated, coefficients
    made Fractions, terms above `truncation` (None: none) dropped, equal keys
    merged, zeros dropped, keys in canonical order."""
    limit = math.inf if truncation is None else truncation
    return merge_terms(((lam, Fraction(c))
                        for lam, c in zip(map(as_partition, terms), terms.values())
                        if sum(lam) <= limit), canonical_key)


class SymFunc(Value):
    __slots__ = ("basis", "terms", "truncation")

    def __init__(self, basis: str, terms: dict[Partition, Fraction] = {},
                 truncation: int | None = None):
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        if truncation is not None:
            truncation = size(truncation, "truncation")
        Value.__init__(self, basis, normalize_terms(terms, truncation), truncation)


def _min_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def degree_slice(f: SymFunc, n: int) -> dict[Partition, Fraction]:
    n = size(n, "n")
    return {lam: c for lam, c in f.terms.items() if sum(lam) == n}


def add(f: SymFunc, g: SymFunc) -> SymFunc:
    if f.basis != g.basis:
        g = change_basis(g, f.basis)
    terms = merge_terms([*f.terms.items(), *g.terms.items()])
    return SymFunc(f.basis, terms, _min_trunc(f.truncation, g.truncation))


def change_basis(f: SymFunc, target: str) -> SymFunc:
    if target not in _BASES:
        raise ValueError(f"unknown basis {target!r}")
    if f.basis == target:
        return f
    terms = _s_to_p(f.terms) if target == POWERSUM else _p_to_s(f.terms)
    return SymFunc.trusted(target, terms, f.truncation)


def _s_to_p(terms) -> dict[Partition, Fraction]:
    return merge_terms(((mu, c * Fraction(sym_character(lam, mu), z_of(mu)))
                        for lam, c in terms.items() for mu in enumerate_partitions(sum(lam))),
                       canonical_key)


def _p_to_s(terms) -> dict[Partition, Fraction]:
    """On integers over one common denominator: one Fraction per output coefficient."""
    L, (ints,) = over_common_denominator(terms)
    merged = merge_terms(((lam, c * sym_character(lam, mu)) for mu, c in ints.items()
                          for lam in enumerate_partitions(sum(mu))), canonical_key)
    return {lam: Fraction(c, L) for lam, c in merged.items()}


def _p_mul_terms(a: dict, b: dict, trunc: int | None = None) -> dict:
    """Product of two partition-keyed dicts whose keys multiply by multiset
    union (power sums, t-monomials, T-monomials), dropping terms above `trunc`
    (None: keep all), by polyutil.multiset_mul on multiset codes; int or Fraction
    coefficients. The result has no zero coefficients, and its keys are in
    canonical order."""
    return multiset_terms(multiset_mul([(*multiset_code(k), c) for k, c in a.items()],
                                       sorted((*multiset_code(k), c) for k, c in b.items()),
                                       trunc, {}))


def graded_exp(L: int, b: dict[Partition, int], N: int) -> tuple[int, dict[Partition, int]]:
    """exp(b / L) through degree N in the algebra of `_p_mul_terms`, for int-valued b
    with no degree-0 term, as (L^N N!, nums) with keys in canonical order: polyutil.
    newton_exp on b's parts, each pair of terms of b and exp(b / L) multiplied once."""
    if () in b:
        raise ValueError("exp of a series with constant term")
    lc: dict[int, dict[Partition, int]] = {}
    for mu, c in b.items():
        lc.setdefault(sum(mu), {})[mu] = sum(mu) * c
    parts = newton_exp(lc, L, N, _p_mul_terms, {(): 1})
    den = parts[-1][0]
    return den, {mu: a[mu] * (den // dn) for dn, a in parts for mu in sorted(a, key=canonical_key)}


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product in the ring of symmetric functions, via the powersum basis."""
    trunc = _min_trunc(f.truncation, g.truncation)
    fp = change_basis(f, POWERSUM)
    gp = change_basis(g, POWERSUM)
    prod = _p_mul_terms(fp.terms, gp.terms, trunc)
    return change_basis(SymFunc(POWERSUM, prod, trunc), f.basis)


def sym_algebra_character(f: SymFunc, N: int) -> SymFunc:
    """Character of Sym(V) truncated at degree N, for V with character f.

    Computes exp(sum_{k>=1} (p_k ∘ f)/k) in the powersum basis; f must have
    no degree-0 term. Returns a schur-basis SymFunc truncated at N.
    """
    N, fp = size(N, "truncation"), change_basis(f, POWERSUM)
    if () in fp.terms:
        raise ValueError("character has a degree-0 term")
    truncated_at_least(fp.truncation, N)
    log_terms = merge_terms((tuple(k * part for part in mu), c / k)
                            for mu, c in fp.terms.items() for k in range(1, N // sum(mu) + 1))
    L, (ints,) = over_common_denominator(log_terms)
    return change_basis(SymFunc(POWERSUM, fraction_terms(*graded_exp(L, ints, N)), N), SCHUR)


def to_json(f: SymFunc) -> dict:
    return {
        "basis": f.basis,
        "truncation": f.truncation,
        "terms": {format_partition(lam): str(c) for lam, c in f.terms.items()},
    }


def from_json(obj: dict) -> SymFunc:
    terms = merge_terms((parse_partition(k), json_fraction(v)) for k, v in obj["terms"].items())
    trunc = obj.get("truncation")
    return SymFunc(obj["basis"], terms, None if trunc is None else json_int(trunc))
