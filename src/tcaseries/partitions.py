"""Integer partitions, symmetric group characters, and classical dimension counts.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ``()``. All arithmetic is exact (int / Fraction).

The canonical order on partitions of equal size is reverse lexicographic:
(n) first, (1,...,1) last. ``enumerate_partitions`` generates in that order.
``canonical_key`` (size, then reverse-lex) is cached, and so are the positions in
that order by multiset code (``canonical_positions``); ``as_partition`` runs where
a key enters, and kernels pass the canonical keys they build on unvalidated.
"""

from __future__ import annotations

import functools
import itertools
import math
from types import MappingProxyType

from .polyutil import integer, merge_terms, multiset_code, size

Partition = tuple[int, ...]

__all__ = [
    "Partition",
    "as_partition",
    "canonical_key",
    "canonical_positions",
    "dim_schur",
    "dim_specht",
    "enumerate_partitions",
    "format_partition",
    "kostka_and_inverse",
    "kostka_number",
    "multiplicities",
    "parse_bracket_list",
    "parse_partition",
    "partition_factorial",
    "partitions_in_box",
    "partitions_up_to",
    "sym_character",
    "transpose",
    "z_of",
]


def as_partition(parts) -> Partition:
    """Validate and normalize a part sequence: sorted check, zeros stripped;
    parts equal to integers, such as 2.0 and 2+0j, become ints."""
    # int parts skip the integrality check
    lam = tuple(p if type(p) is int else integer(p) for p in parts)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts not weakly decreasing in {parts!r}")
    # weakly decreasing: the last part is the least, and every zero trails
    if lam and lam[-1] < 0:
        raise ValueError(f"negative part in {parts!r}")
    return lam[:lam.index(0)] if lam and not lam[-1] else lam


def parse_bracket_list(text: str) -> tuple[int, ...]:
    """Parse the bracket-list wire form "[3,1,1]" of an integer tuple ("[]": ())."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"bad bracket-list literal {text!r}")
    body = s[1:-1].strip()
    return tuple(int(tok) for tok in body.split(",")) if body else ()


def parse_partition(text: str) -> Partition:
    """Parse the wire form "[3,1,1]" (empty partition: "[]")."""
    return as_partition(parse_bracket_list(text))


def format_partition(lam) -> str:
    """Bracket-list wire form of an integer tuple; zeros are kept: "[2,0]"."""
    return "[" + ",".join(str(p) for p in lam) + "]"


@functools.cache
def canonical_key(lam: Partition):
    """Cached sort key: size, then reverse lex ((n) before (n-1,1)); equal tuples share an entry."""
    return (sum(lam), tuple(-p for p in lam))


def enumerate_partitions(n: int, max_length: int | None = None,
                         max_part: int | None = None) -> list[Partition]:
    """All partitions of n in reverse lexicographic order; a negative bound
    admits no part."""
    n = size(n, "n")
    bound_len = n if max_length is None else min(max_length, n)
    bound_part = n if max_part is None else min(max_part, n)
    out: list[Partition] = []

    def rec(remaining: int, largest: int, prefix: list[int]):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) >= bound_len:
            return
        for p in range(min(largest, remaining), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, bound_part, [])
    return out


def partitions_up_to(n: int, max_length: int | None = None,
                     max_part: int | None = None) -> list[Partition]:
    """All partitions of size 0..n, canonically ordered."""
    return list(itertools.chain.from_iterable(enumerate_partitions(k, max_length, max_part)
                                              for k in range(size(n, "n") + 1)))


def partitions_in_box(rows: int, cols: int) -> list[Partition]:
    """All partitions fitting in a rows x cols box, canonically ordered."""
    rows, cols = size(rows, "rows"), size(cols, "cols")
    return partitions_up_to(rows * cols, max_length=rows, max_part=cols)


def transpose(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def multiplicities(lam: Partition) -> dict[int, int]:
    """Part multiplicities m_i(lam) as a dict {part: count}."""
    return merge_terms((p, 1) for p in lam)


def partition_factorial(lam: Partition) -> int:
    """lam! = prod_i m_i(lam)!. The parts are sorted, so equal parts form one
    run, and the j-th part of a run contributes the factor j."""
    out = run = 1
    for prev, part in zip(lam, lam[1:]):
        run = run + 1 if part == prev else 1
        out *= run
    return out


def z_of(lam: Partition) -> int:
    """Centralizer order z_lam = lam! * prod_i i^{m_i(lam)} = lam! * prod(lam)."""
    return partition_factorial(lam) * math.prod(lam)


@functools.cache
def canonical_positions(N: int) -> tuple[tuple[Partition, ...], MappingProxyType]:
    """(the partitions of size <= N in canonical order, read-only {multiset code:
    position}): a scatter table's output list holds the coefficient of parts[i] at i."""
    parts = tuple(partitions_up_to(N))
    return parts, MappingProxyType({multiset_code(lam)[1]: i for i, lam in enumerate(parts)})


@functools.cache
def sym_character(lam: Partition, mu: Partition) -> int:
    """Irreducible S_n character value chi^lam(c_mu) by Murnaghan-Nakayama.

    Border strips are removed through beta-numbers: subtracting the strip
    length from one first-column hook length, with the sign counting how far
    the result drops when re-sorted.
    """
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _mn(lam, mu)


@functools.cache
def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    k = mu[0]
    rest = mu[1:]
    length = len(lam)
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        crossed = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        # the parts of new_beta are weakly decreasing: zeros trail
        new_lam = tuple(p for p in (c - (length - 1 - j) for j, c in enumerate(new_beta)) if p)
        total += (-1) ** crossed * _mn(new_lam, rest)
    return total


def dim_specht(lam: Partition) -> int:
    """Dimension of the Specht module (hook length formula)."""
    n = sum(lam)
    tr = transpose(lam)
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= row - j + tr[j] - i - 1
    num = math.factorial(n)
    if num % denom:
        raise AssertionError(f"hook product {denom} does not divide {n}! for {lam}")
    return num // denom


def dim_schur(weight, d: int) -> int:
    """Dimension of the GL(d) irreducible with highest weight `weight`.

    Accepts a partition (padded with zeros) or a full length-d weakly
    decreasing integer vector, possibly with negative entries.
    """
    w, d = tuple(weight), size(d, "d")
    if len(w) > d:
        if all(x >= 0 for x in w):
            return 0
        raise ValueError(f"weight {w} longer than d={d}")
    w = w + (0,) * (d - len(w))
    if any(w[i] < w[i + 1] for i in range(d - 1)):
        raise ValueError(f"weight {w} not weakly decreasing")
    num = den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= w[i] - w[j] + j - i
            den *= j - i
    if num % den:
        raise AssertionError(f"Weyl dimension {num}/{den} of {w} is not an integer")
    return num // den


def _horizontal_strips_below(lam: Partition, k: int) -> list[Partition]:
    """Partitions eta <= lam with lam/eta a horizontal strip of size k."""
    rows = len(lam)
    out: list[Partition] = []

    def rec(i: int, remaining: int, prefix: list[int]):
        if i == rows:
            if remaining == 0:
                out.append(tuple(p for p in prefix if p))
            return
        lo = lam[i + 1] if i + 1 < rows else 0
        hi = lam[i]
        for eta_i in range(max(lo, hi - remaining), hi + 1):
            prefix.append(eta_i)
            rec(i + 1, remaining - (hi - eta_i), prefix)
            prefix.pop()

    rec(0, k, [])
    return out


@functools.cache
def _horizontal_strips_above(lam: Partition, k: int) -> tuple[Partition, ...]:
    """Partitions mu >= lam with mu/lam a horizontal strip of size k: turning
    an (l(lam)+1) x (lam_1+k) box half way round maps them to the strips below
    the complement of lam."""
    rows, cols = len(lam) + 1, (lam[0] if lam else 0) + k
    comp = tuple(cols - p for p in reversed(lam + (0,)))
    return tuple(tuple(cols - p for p in reversed(eta + (0,) * (rows - len(eta))) if p < cols)
                 for eta in _horizontal_strips_below(comp, k))


@functools.cache
def kostka_number(lam: Partition, mu: Partition) -> int:
    """Kostka number K_{lam,mu}: SSYT of shape lam and content mu.

    Recursion: cells holding the largest entry form a horizontal strip.
    """
    if sum(lam) != sum(mu):
        return 0
    if not mu:
        return 1
    k = mu[-1]
    rest = mu[:-1]
    return sum(kostka_number(eta, rest) for eta in _horizontal_strips_below(lam, k))


@functools.cache
def _power_sum_to_monomial(r: int, N: int) -> MappingProxyType:
    """Read-only scatter table (polyutil.scatter) of [m_nu] p_lam in r variables: per nu,
    l(nu) <= r, |nu| <= N, the (canonical position of lam, N! / lam! [m_nu] p_lam) pairs,
    integers; Gessel's series reads it at rank r, the integral route and kernel K at
    r = d. With k the last part of lam and lam- the rest, p_lam = p_{lam-} p_k gives
    [x^nu] p_lam = sum_j [x^{nu - k e_j}] p_{lam-} over parts nu_j >= k (Macdonald I.6)."""
    rows: dict[Partition, dict[Partition, int]] = {(): {(): 1}}
    for same in (list(g) for _, g in itertools.groupby(canonical_positions(N)[0][1:], sum)):
        nus = [nu for nu in same if len(nu) <= r]
        for lam in same:
            k, prev = lam[-1], rows[lam[:-1]]
            rows[lam] = merge_terms((nu, prev.get(_take(nu, j, k), 0))
                                    for nu in nus for j, part in enumerate(nu) if part >= k)
    # lam and nu come in canonical order from canonical_positions(N), so the index
    # of lam in rows is its position
    fN, columns = math.factorial(N), {}
    for i, (lam, row) in enumerate(rows.items()):
        for nu, c in row.items():
            columns.setdefault(nu, []).append((i, fN // partition_factorial(lam) * c))
    return MappingProxyType({nu: tuple(col) for nu, col in columns.items()})


def _take(nu: Partition, j: int, k: int) -> Partition:
    """The partition nu - k e_j, for nu_j >= k."""
    rest = nu[:j] + nu[j + 1:]
    return tuple(sorted(rest + (nu[j] - k,), reverse=True)) if nu[j] > k else rest


# no route uses it: kept for perfbench/tracing.py (wraps it by name) and test oracles
@functools.cache
def kostka_and_inverse(n: int):
    """(order, K, K^{-1}) for partitions of n in canonical (reverse-lex) order.

    K is unitriangular in this order; the inverse is computed by integer
    back-substitution and is asserted to be integral.
    """
    order = enumerate_partitions(n)
    size = len(order)
    K = [[kostka_number(order[i], order[j]) for j in range(size)] for i in range(size)]
    for i in range(size):
        if K[i][i] != 1:
            raise AssertionError(f"Kostka matrix diagonal at {order[i]} is {K[i][i]}, not 1")
        for j in range(i):
            if K[i][j] != 0:
                raise AssertionError("Kostka matrix not triangular in canonical order")
    inv = [[0] * size for _ in range(size)]
    for j in range(size):
        inv[j][j] = 1
        for i in range(j - 1, -1, -1):
            s = sum(K[i][t] * inv[t][j] for t in range(i + 1, j + 1))
            inv[i][j] = -s
    return order, K, inv
