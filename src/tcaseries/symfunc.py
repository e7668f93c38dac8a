"""Symmetric functions with explicit basis tags and truncation metadata.

A SymFunc is a finite rational combination of basis elements indexed by partitions,
in one of two bases: schur "s" or powersum "p", on integers over one denominator.
``truncation=N`` means coefficients are only meaningful in degrees <= N
(None marks an exact, untruncated element). Operations propagate the minimum
truncation of their inputs and never silently extend precision.

Products are computed through the powersum basis, where multiplication is
concatenation of indexing partitions; the Littlewood-Richardson rule exists
only as a test oracle.
"""

from __future__ import annotations

import itertools
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
from .polyutil import (Value, fraction_terms, fraction_text, json_fraction, json_int,
                       lowest_terms, merge_terms, multiset_code, multiset_mul,
                       multiset_terms, over_common_denominator, size, truncated_at_least)

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


def normalize_terms(terms, truncation: int | None) -> tuple[int, dict[Partition, int]]:
    """Canonical (den, nums) of a partition-keyed dict: keys validated, coefficients
    read as Fractions, terms above `truncation` (None: none) dropped, equal keys
    merged, zeros dropped, keys in canonical order; nums[lam] / den in lowest terms."""
    limit = math.inf if truncation is None else truncation
    den, (nums,) = over_common_denominator(merge_terms(
        ((lam, Fraction(c)) for lam, c in zip(map(as_partition, terms), terms.values())
         if sum(lam) <= limit), canonical_key))
    return den, nums


class SymFunc(Value):
    """Coefficients nums[lam] / den in polyutil.lowest_terms, read through `terms`."""

    __slots__ = ("basis", "truncation", "den", "nums")
    _params = ("basis", "terms", "truncation")

    def __init__(self, basis: str, terms: dict[Partition, Fraction] = {},
                 truncation: int | None = None):
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        truncation = None if truncation is None else size(truncation, "truncation")
        Value.__init__(self, basis, truncation, *normalize_terms(terms, truncation))

    @property
    def terms(self) -> dict[Partition, Fraction]:
        return fraction_terms(self.den, self.nums)


def _min_trunc(a: int | None, b: int | None) -> int | None:
    return b if a is None else a if b is None else min(a, b)


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
    convert = _s_to_p if target == POWERSUM else _p_to_s
    return SymFunc.trusted(target, f.truncation, *convert(f.den, f.nums))


def _s_to_p(den: int, nums: dict) -> tuple[int, dict[Partition, int]]:
    """s_lam = sum_mu chi^lam(mu) p_mu / z_mu over den D!, D the largest |lam|: z_mu | |mu|!."""
    fD = math.factorial(max(map(sum, nums), default=0))
    return lowest_terms(den * fD, merge_terms(
        ((mu, c * sym_character(lam, mu) * (fD // z_of(mu)))
         for lam, c in nums.items() for mu in enumerate_partitions(sum(lam))), canonical_key))


def _p_to_s(den: int, nums: dict) -> tuple[int, dict[Partition, int]]:
    """p_mu = sum_lam chi^lam(mu) s_lam, over den."""
    return lowest_terms(den, merge_terms(
        ((lam, c * sym_character(lam, mu)) for mu, c in nums.items()
         for lam in enumerate_partitions(sum(mu))), canonical_key))


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
    with no degree-0 term, as (L^N N!, nums) with keys in canonical order, by Newton's
    identity n a_n = sum_k k b_k a_(n-k) (Macdonald I.2) division-free on G_n = L^n n! a_n:
    G_n = sum_k (n-1)!/(n-k)! L^(k-1) lc[k] G_(n-k), lc[k] the degree-k part of k b."""
    if () in b:
        raise ValueError("exp of a series with constant term")
    lc: dict[int, dict[Partition, int]] = {}
    for mu, c in b.items():
        lc.setdefault(sum(mu), {})[mu] = sum(mu) * c
    gs = [{(): 1}]
    for n in range(1, N + 1):
        gs.append(merge_terms(itertools.chain.from_iterable(
            _p_mul_terms({x: f * c for x, c in lk.items()}, gs[n - k]).items()
            for k, lk in lc.items() if k <= n for f in [math.perm(n - 1, k - 1) * L ** (k - 1)])))
    den = L ** N * math.factorial(N)
    return den, {mu: a[mu] * (den // (L ** n * math.factorial(n)))
                 for n, a in enumerate(gs) for mu in sorted(a, key=canonical_key)}


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product in the ring of symmetric functions, via the powersum basis."""
    trunc = _min_trunc(f.truncation, g.truncation)
    fp = change_basis(f, POWERSUM)
    gp = change_basis(g, POWERSUM)
    prod = _p_mul_terms(fp.nums, gp.nums, trunc)
    return change_basis(SymFunc.trusted(POWERSUM, trunc, *lowest_terms(fp.den * gp.den, prod)),
                        f.basis)


def sym_algebra_character(f: SymFunc, N: int) -> SymFunc:
    """Character of Sym(V) truncated at degree N, for V with character f.

    Computes exp(sum_{k>=1} (p_k ∘ f)/k) in the powersum basis, on integers over
    den lcm(1, ..., N); f must have no degree-0 term. Returns a schur-basis SymFunc
    truncated at N.
    """
    N, fp = size(N, "truncation"), change_basis(f, POWERSUM)
    if () in fp.nums:
        raise ValueError("character has a degree-0 term")
    truncated_at_least(fp.truncation, N)
    M = math.lcm(*range(1, N + 1))
    log_terms = merge_terms((tuple(k * part for part in mu), c * (M // k))
                            for mu, c in fp.nums.items() for k in range(1, N // sum(mu) + 1))
    return SymFunc.trusted(SCHUR, N, *_p_to_s(
        *graded_exp(*lowest_terms(fp.den * M, log_terms), N)))


def to_json(f: SymFunc) -> dict:
    return {"basis": f.basis, "truncation": f.truncation,
            "terms": {format_partition(lam): fraction_text(c, f.den) for lam, c in f.nums.items()}}


def from_json(obj: dict) -> SymFunc:
    terms = merge_terms((parse_partition(k), json_fraction(v)) for k, v in obj["terms"].items())
    trunc = obj.get("truncation")
    return SymFunc(obj["basis"], terms, None if trunc is None else json_int(trunc))
