"""Exact Laurent-polynomial torus calculus.

Constant terms, Weyl integration against |Delta|^2, invariant-ring dimension
sequences for products of GL(k)/SL(k) factors, the kernel K(t, alpha) and the
integral route to enhanced Hilbert series.

All integration is exact: CT(F * bar(g)) is the sparse dot product of F and g,
and the enhanced route forms ch_n * |Delta|^2 once per degree n. Invariant
dimensions need no integral: integer multiplicities on dominant weights by
the Brauer-Klimyk rule to half the degree, paired with their duals by Schur's
lemma; a character f (x) g, whose integer coefficient matrix over a first
block and the rest has rank 1, runs block by block (Goodman-Wallach, 4.2).
Schur coefficients are read off f * x^delta by the same straightening.
Per-degree characters come from the caller or from `sym_degree_characters`,
the Euler product prod_e (1 - x^e u)^(-m_e) of chi = sum_e m_e x^e taken one
monomial at a time; both run on integers over a common denominator.

Products, symmetric powers and Brauer-Klimyk tables key an exponent e by one signed
packed code, sum_i e_i 2^(w (d-1-i)) in balanced digits of w bits, w from a
bound on every exponent met: a product of monomials is one integer addition
(Monagan and Pearce, ISSAC 2007), and codes order as their exponents do.
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
    canonical_positions,
    enumerate_partitions,
    kostka_number,
)
from .polyutil import (Value, fraction_terms, integer, lowest_terms, merge_terms,
                       over_common_denominator, product_terms, scatter, size,
                       truncated_at_least)
from .seriesforms import TSeries

__all__ = [
    "KernelSeries",
    "LaurentPoly",
    "constant_term",
    "delta_squared",
    "enhanced_from_equivariant",
    "invariant_dimensions",
    "kernel_K",
    "power_sum_lp",
    "schur_lp",
    "sym_degree_characters",
    "weyl_inner",
]

Exponent = tuple[int, ...]


def _exponent(e, d: int) -> Exponent:
    """The exponent e as a tuple of d ints."""
    try:
        e = tuple(map(integer, e))
    except TypeError:
        raise ValueError(f"exponent {e!r} is not a sequence of integers") from None
    if len(e) != d:
        raise ValueError(f"exponent {e} has length != {d}")
    return e


class LaurentPoly(Value):
    """Exact Laurent polynomial in d torus variables, with coefficients nums[e] / den
    in polyutil.lowest_terms, exponents sorted, read through `terms`."""

    __slots__ = ("d", "den", "nums")
    _params = ("d", "terms")

    def __init__(self, d: int, terms: dict[Exponent, Fraction] = {}):
        d = size(d, "d")
        terms = merge_terms((_exponent(e, d), Fraction(c)) for e, c in terms.items())
        den, (nums,) = over_common_denominator(terms)
        Value.__init__(self, d, den, dict(sorted(nums.items())))

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        return fraction_terms(self.den, self.nums)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.d != other.d:
            raise ValueError("variable count mismatch")
        return LaurentPoly.trusted(self.d, *lowest_terms(self.den * other.den,
                                                        _mul_terms(self.nums, other.nums)))

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        return LaurentPoly.trusted(self.d, *lowest_terms(self.den * c.denominator, {
            e: v * c.numerator for e, v in self.nums.items()}))


def _width(bound: int) -> int:
    """Bits of a balanced digit that holds every entry of absolute value <= bound."""
    return bound.bit_length() + 1


def _bound(terms: dict) -> int:
    """The largest absolute value of an entry of an exponent of `terms`."""
    return max((abs(x) for e in terms for x in e), default=0)


def _code(e, w: int) -> int:
    code = 0
    for x in e:
        code = (code << w) + x
    return code


def _codes(terms: dict, w: int) -> dict[int, object]:
    return {_code(e, w): c for e, c in terms.items()}


def _decode(code: int, d: int, w: int) -> Exponent:
    """The exponent of d entries whose code of width w is `code`."""
    half, mask, out = 1 << (w - 1), (1 << w) - 1, [0] * d
    for i in range(d - 1, -1, -1):
        out[i] = x = ((code + half) & mask) - half
        code = (code - x) >> w
    return tuple(out)


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two exponent-keyed int term dicts on codes: sorted keys, no zeros."""
    d, w = len(next(iter(a), ())), _width(_bound(a) + _bound(b))
    out = product_terms(_codes(a, w), _codes(b, w))
    return {_decode(x, d, w): out[x] for x in sorted(out)}


def constant_term(f: LaurentPoly) -> Fraction:
    return Fraction(f.nums.get((0,) * f.d, 0), f.den)


@functools.cache
def _delta(d: int) -> dict[Exponent, int]:
    """prod_{i<j} (alpha_i - alpha_j) = sum_w sign(w) alpha^{w delta}, delta = (d-1, ..., 0)."""
    return {e: (-1) ** sum(a < b for a, b in itertools.combinations(e, 2))
            for e in itertools.permutations(range(d - 1, -1, -1))}


@functools.cache
def delta_squared(d: int) -> LaurentPoly:
    """|Delta|^2 = Delta * bar(Delta) with Delta = prod_{i<j} (alpha_i - alpha_j)."""
    d = size(d, "d")
    dl = _delta(d)
    return LaurentPoly.trusted(d, 1, _mul_terms(dl, {tuple(-x for x in e): c
                                                     for e, c in dl.items()}))


@functools.cache
def _delta_squared_codes(d: int, w: int) -> dict[int, int]:
    return _codes(delta_squared(d).nums, w)


def _weighted(f: LaurentPoly, d: int, bound: int) -> tuple[int, int, dict[int, int]]:
    """(L, w, W): W = L f |Delta|^2 on integers, L the common denominator of f,
    keyed by codes of width w that hold every exponent of W (|Delta|^2 has
    entries in [1-d, d-1]) and any up to `bound`, at which a caller reads W."""
    if f.d != d:
        raise ValueError(f"inputs must have {d} variables")
    w = _width(max(bound, _bound(f.nums) + max(d - 1, 0)))
    return f.den, w, product_terms(_codes(f.nums, w), _delta_squared_codes(d, w))


def weyl_inner(f: LaurentPoly, g: LaurentPoly, d: int) -> Fraction:
    """(1/d!) CT(f * bar(g) * |Delta|^2): the GL(d) invariant inner product."""
    d = size(d, "d")
    if g.d != d:
        raise ValueError(f"inputs must have {d} variables")
    L, w, W = _weighted(f, d, _bound(g.nums))
    # CT(W * bar(g)) = sum_e W[e] g[e], without forming the product
    return Fraction(sum(c * W.get(_code(e, w), 0) for e, c in g.nums.items()),
                    L * g.den * math.factorial(d))


def power_sum_lp(k: int, d: int) -> LaurentPoly:
    k, d = size(k, "k"), size(d, "d")
    return LaurentPoly(d, merge_terms((tuple(k if j == i else 0 for j in range(d)), 1)
                                      for i in range(d)))


@functools.cache
def schur_lp(lam: Partition, d: int) -> LaurentPoly:
    """s_lam(alpha_1, ..., alpha_d) = sum_mu K_{lam,mu} m_mu(alpha), l(mu) <= d."""
    lam, d = as_partition(lam), size(d, "d")
    return LaurentPoly(d, {e: k for mu in enumerate_partitions(sum(lam), max_length=d)
                           if (k := kostka_number(lam, mu))
                           for e in itertools.permutations(mu + (0,) * (d - len(mu)))})


def schur_coefficients(f: LaurentPoly) -> dict[Partition, Fraction]:
    """Schur expansion of a symmetric polynomial f in f.d variables.

    f * a_delta is alternating, so it is sum_mu c_mu a_{mu+delta}, and
    [s_mu] f = [x^(mu+delta)] (f * a_delta) (Macdonald I.3). For symmetric f
    that product is the antisymmetrization of f * x^delta, so each term c x^e
    of f adds sign(w) c at mu + delta = w(e + delta), one `_reflect` per term,
    on integers over f's common denominator L.
    """
    d, L = f.d, f.den
    delta = range(d - 1, -1, -1)
    coeffs = merge_terms((x, c * s) for e, c in f.nums.items() for x, s in
                         [_reflect(tuple(a + b for a, b in zip(e, delta)), [(0, d, False)])])
    return {as_partition(x - b for x, b in zip(e, delta)): Fraction(c, L)
            for e, c in sorted(coeffs.items())}


def sym_degree_characters(chi: LaurentPoly, N: int) -> list[LaurentPoly]:
    """Characters of Sym^n(E), n <= N, for chi = sum_e (a_e / L) x^e the character of E:
    H(u) = prod_e (1 - x^e u)^(-a_e / L) on G_n = L^n n! [u^n] H, integers on codes. The
    factor of e maps G_n to sum_j C(n, j) r_j x^(j e) G_(n-j), r_j = prod_(i<j) (a_e + i L),
    n from N down, one merge each; no entry exceeds N times chi's, code(j e) = j code(e)."""
    N, L = size(N, "truncation"), chi.den
    w = _width(N * _bound(chi.nums))
    gs: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(N)]
    for x, a in _codes(chi.nums, w).items():
        rising = list(itertools.accumulate(range(N), lambda r, i: r * (a + i * L), initial=1))
        for n in range(N, 0, -1):
            gs[n] = merge_terms(itertools.chain(gs[n].items(), (
                (y + j * x, f * c) for j in range(1, n + 1) if gs[n - j]
                for f in [math.comb(n, j) * rising[j]] if f for y, c in gs[n - j].items())))
    # decoded in code order, the keys are sorted
    return [LaurentPoly.trusted(chi.d, *lowest_terms(L ** n * math.factorial(n), {
        _decode(y, chi.d, w): a[y] for y in sorted(a)})) for n, a in enumerate(gs)]


def _reflect(v: Exponent, spans) -> tuple[Exponent, int]:
    """(w v, sign(w)) for the w that sorts each block of v decreasingly, each
    SL block shifted to end in 0; sign 0 when a block has a repeated entry.

    The one Weyl straightening of this module: it moves Brauer-Klimyk keys
    back to the dominant chamber, turns a key into its dual's, and reads
    Schur coefficients off f * x^delta."""
    out: list[int] = []
    sign = 1
    for lo, hi, sl in spans:
        block = v[lo:hi]
        if len(set(block)) < hi - lo:
            return v, 0
        sign *= (-1) ** sum(a < b for a, b in itertools.combinations(block, 2))
        block = sorted(block, reverse=True)
        out += [x - block[-1] for x in block] if sl else block
    return tuple(out), sign


def invariant_dimensions(group: list[tuple[str, int]], weights: LaurentPoly,
                         n_max: int) -> list[int]:
    """dim (E^{tensor n})^G for n = 0..n_max, G a product of GL(k)/SL(k) factors.

    `weights` is the character of E on the ambient GL tori, with integer
    multiplicities and invariant under permutations within each block.
    For E = E_1 (x) E_2 on G_1 x G_2, (E^{tensor n})^G = (E_1^{tensor n})^{G_1}
    (x) (E_2^{tensor n})^{G_2} (Goodman-Wallach, section 4.2), so the first
    block peels off, its dims multiplying the rest's, when chi's integer matrix
    M[a][b] (a the first block's exponent) has rank 1, tested exactly by
    _split_block. Each distinct (blocks, character) runs _brauer_klimyk once.
    """
    spans, pos, n_max = [], 0, size(n_max, "n_max")
    for kind, k in group:
        if kind not in ("gl", "sl"):
            raise ValueError(f"unknown factor kind {kind!r}")
        k = size(k, "factor rank", 1)
        spans.append((pos, pos + k, kind == "sl"))
        pos += k
    if weights.d != pos:
        raise ValueError(f"weights must have {pos} variables")
    nums, spans, parts = weights.nums, tuple(spans), []
    if any(nums.get(e[:i] + (e[i + 1], e[i]) + e[i + 2:]) != c for e, c in nums.items()
           for lo, hi, _ in spans for i in range(lo, hi - 1)):
        raise ValueError("weights must be invariant under permutations within each block")
    if weights.den != 1:  # some multiplicity is not an integer: `integer` refuses it
        list(map(integer, weights.terms.values()))
    while len(spans) > 1 and nums and (fg := _split_block(k := spans[0][1], nums)):
        parts.append((spans[:1], fg[0]))
        spans, nums = tuple((lo - k, hi - k, sl) for lo, hi, sl in spans[1:]), fg[1]
    run = functools.cache(_brauer_klimyk)
    dims = [math.prod(col) for col in zip(*(run(s, frozenset(f.items()), n_max)
                                            for s, f in parts + [(spans, nums)]))]
    for n in range(n_max + 1):
        if dims[n] < 0:
            raise ValueError(f"negative invariant dimension {dims[n]} at n={n}: "
                             "weights is a virtual character")
    return dims


def _split_block(k: int, nums: dict) -> tuple[dict, dict] | None:
    """(f, g) with f on the first k variables, g primitive and nums = f g: each row
    M[a] = {b: nums[a + b]} is f[a] g, key set included; None at rank > 1. An
    integral rational multiple q g of a primitive integer row g has q integral."""
    rows: dict = {}
    for e, c in nums.items():
        rows.setdefault(e[:k], {})[e[k:]] = c
    pivot = next(iter(rows.values()))
    content = math.gcd(*pivot.values())
    g = {b: c // content for b, c in pivot.items()}
    b0, c0 = next(iter(g.items()))
    f = {a: row.get(b0, 0) // c0 for a, row in rows.items()}
    exact = all(row == {b: f[a] * c for b, c in g.items()} for a, row in rows.items())
    return (f, g) if exact else None


def _brauer_klimyk(spans: tuple[tuple[int, int, bool], ...], terms: frozenset,
                   n_max: int) -> list[int]:
    """The joint kernel: the dimensions for n <= n_max of the invariants of the
    character with integer terms (e, c) on the blocks (lo, hi, sl), negative ones
    (of a virtual character) returned, not refused.

    Each irreducible V_lam of E^{tensor n} is counted under the key lam + rho and
    tensored with E by the Brauer-Klimyk rule V_lam (x) E = sum_mu sign(w)
    V_{w(lam+mu+rho)-rho} over the weights mu of E (Humphreys section 24,
    Fulton-Harris section 25), SL weights taken modulo (1, ..., 1).

    By Schur's lemma V_lam (x) V_nu has an invariant only for nu = lam*, and
    then exactly one, so dims[a + b] = sum_lam m_a[lam] m_b[lam*]: the rule runs
    to ceil(n_max / 2) only. The dual key of v is (k-1) - reversed(v) on each
    block, shifted to end in 0 on an SL block.

    On codes, a step merges the sums of keys and weights and straightens each
    distinct vector once per call; the dual key of each key, code(top) - v
    straightened, is read once per table. With K the largest k - 1 and M the
    largest weight entry, keys after j steps have entries of absolute value
    <= K + 2jM (an SL shift adds at most 2M), so 2(K + ceil(n_max / 2) M)
    bounds every vector met, sums and duals included.
    """
    pos, nums = sum(hi - lo for lo, hi, _ in spans), dict(terms)
    rho = tuple(hi - 1 - i for lo, hi, _ in spans for i in range(lo, hi))
    top = tuple(hi - lo - 1 for lo, hi, _ in spans for _ in range(lo, hi))
    steps = (n_max + 1) // 2
    w = _width(2 * (max(top, default=0) + steps * _bound(nums)))

    @functools.cache
    def reflect(x: int) -> tuple[int, int]:
        v, sign = _reflect(_decode(x, pos, w), spans)
        return _code(v, w), sign

    mus = _codes(nums, w)
    tables = [{_code(rho, w): 1}]
    for _ in range(steps):
        tables.append(merge_terms((x, sign * c) for v, c in product_terms(tables[-1], mus).items()
                                  for x, sign in [reflect(v)]))
    dual = _code(top, w)
    duals = [[(reflect(dual - v)[0], c) for v, c in t.items()] for t in tables[:n_max // 2 + 1]]
    return [sum(c * tables[n - n // 2].get(x, 0) for x, c in duals[n // 2])
            for n in range(n_max + 1)]


class KernelSeries(Value):
    """K(t, alpha) = sum_lam p_lam(alpha) t^lam / lam!, truncated at t-weight N."""

    __slots__ = ("d", "truncation", "terms")

    def __init__(self, d: int, truncation: int, terms: dict[Exponent, TSeries] = {}):
        d, truncation = size(d, "d"), size(truncation, "truncation")
        clean: dict[Exponent, list] = {}
        for e, s in terms.items():
            e = _exponent(e, d)
            if any(abs(x) > truncation for x in e):
                raise ValueError(f"exponent {e} out of bound {truncation}")
            truncated_at_least(s.truncation, truncation)
            clean.setdefault(e, []).extend(s.coeffs.items())
        series = ((e, TSeries(truncation, merge_terms(ps))) for e, ps in sorted(clean.items()))
        Value.__init__(self, d, truncation, {e: s for e, s in series if not s.is_zero()})

    def coefficient(self, e) -> TSeries:
        return self.terms.get(_exponent(e, self.d), TSeries(self.truncation, {}))


def kernel_K(d: int, N: int) -> KernelSeries:
    """[alpha^e] K = sum_lam [m_nu] p_lam t^lam / lam!, nu the partition of the entries of e:
    the column of nu in the scatter table partitions._power_sum_to_monomial, over N!."""
    d, N = size(d, "d"), size(N, "truncation")
    parts, fN = canonical_positions(N)[0], math.factorial(N)
    terms = {e: series for nu, column in _power_sum_to_monomial(d, N).items()
             for series in [TSeries.trusted(N, *lowest_terms(fN, {parts[i]: v for i, v in column}))]
             for e in set(itertools.permutations(nu + (0,) * (d - len(nu))))}
    # canonical by construction: entries of e at most |nu| <= N, columns in canonical order
    return KernelSeries.trusted(d, N, dict(sorted(terms.items())))


def enhanced_from_equivariant(hilb, d: int, N: int) -> TSeries:
    """Integral route to the enhanced Hilbert series: the coefficient of t^lam
    is weyl_inner(ch, p_lam) / lam! for ch the character of degree |lam|: W = L ch
    |Delta|^2, formed once per degree on integers and codes. p_lam has exponents
    >= 0 only, so W is read only at the codes of the permutations of each
    partition nu of |lam| in at most d parts, cached per (|lam|, d, w), and the
    scatter table partitions._power_sum_to_monomial applied to these sums, on
    integers over M d! N!, M the lcm of the denominators L.

    `hilb` is a sequence of LaurentPoly degree-n characters of M(C^d) for
    n = 0..N (entries may be None for zero).
    """
    d, N = size(d, "d"), size(N, "truncation")
    folded: list[tuple[int, dict[Partition, int]]] = []
    for n, ch in enumerate(hilb[:N + 1]):
        if ch is not None:
            L, w, W = _weighted(ch, d, N)
            folded.append((L, {nu: sum(W.get(x, 0) for x in codes)
                               for nu, codes in _orbit_codes(n, d, w)}))
    M, parts = math.lcm(*(L for L, _ in folded)), canonical_positions(N)[0]
    nums = scatter(_power_sum_to_monomial(d, N), ((nu, v * (M // L)) for L, fold in folded
                                                  for nu, v in fold.items()), [0] * len(parts))
    return TSeries.trusted(N, *lowest_terms(M * math.factorial(d) * math.factorial(N),
                                            dict(zip(parts, nums))))


@functools.cache
def _orbit_codes(n: int, d: int, w: int) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """(nu, codes of the permutations of nu padded to d entries) for each nu |- n, l(nu) <= d."""
    pads = ((nu, nu + (0,) * (d - len(nu))) for nu in enumerate_partitions(n, max_length=d))
    return tuple((nu, tuple({_code(e, w) for e in itertools.permutations(x)})) for nu, x in pads)
