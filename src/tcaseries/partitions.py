"""Integer partitions, symmetric group characters, and classical dimension counts.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ``()``. All arithmetic is exact (int / Fraction).

The canonical order on partitions of equal size is reverse lexicographic:
(n) first, (1,...,1) last. ``enumerate_partitions`` generates in that order
and ``canonical_key`` sorts mixed-size collections by (size, reverse-lex).
"""

from __future__ import annotations

import functools

from .polyutil import factorial, merge_terms

Partition = tuple[int, ...]

__all__ = [
    "Partition",
    "as_partition",
    "canonical_key",
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
    """Validate and normalize a part sequence: sorted check, zeros stripped."""
    lam = tuple(int(p) for p in parts if p != 0)
    if any(p < 0 for p in lam):
        raise ValueError(f"negative part in {parts!r}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts not weakly decreasing in {parts!r}")
    return lam


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


def canonical_key(lam: Partition):
    """Sort key: by size, then reverse lexicographic ((n) before (n-1,1))."""
    return (sum(lam), tuple(-p for p in lam))


def enumerate_partitions(n: int, max_length: int | None = None,
                         max_part: int | None = None) -> list[Partition]:
    """All partitions of n in reverse lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    bound_len = n if max_length is None else min(max_length, n)
    bound_part = n if max_part is None else min(max_part, n)
    out: list[Partition] = []

    def rec(remaining: int, largest: int, prefix: list[int]):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == bound_len:
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
    out: list[Partition] = []
    for k in range(n + 1):
        out.extend(enumerate_partitions(k, max_length, max_part))
    return out


def partitions_in_box(rows: int, cols: int) -> list[Partition]:
    """All partitions fitting in a rows x cols box, canonically ordered."""
    return [lam for k in range(rows * cols + 1)
            for lam in enumerate_partitions(k, max_length=rows, max_part=cols)]


def transpose(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def multiplicities(lam: Partition) -> dict[int, int]:
    """Part multiplicities m_i(lam) as a dict {part: count}."""
    return merge_terms((p, 1) for p in lam)


def partition_factorial(lam: Partition) -> int:
    """lam! = prod_i m_i(lam)!."""
    out = 1
    for m in multiplicities(lam).values():
        out *= factorial(m)
    return out


def z_of(lam: Partition) -> int:
    """Centralizer order z_lam = lam! * prod_i i^{m_i(lam)}."""
    out = partition_factorial(lam)
    for part, m in multiplicities(lam).items():
        out *= part ** m
    return out


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
        new_lam = tuple(new_beta[j] - (length - 1 - j) for j in range(length))
        total += (-1) ** crossed * _mn(as_partition(new_lam), rest)
    return total


def dim_specht(lam: Partition) -> int:
    """Dimension of the Specht module (hook length formula)."""
    n = sum(lam)
    tr = transpose(lam)
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= row - j + tr[j] - i - 1
    num = factorial(n)
    if num % denom:
        raise AssertionError
    return num // denom


def dim_schur(weight, d: int) -> int:
    """Dimension of the GL(d) irreducible with highest weight `weight`.

    Accepts a partition (padded with zeros) or a full length-d weakly
    decreasing integer vector, possibly with negative entries.
    """
    w = tuple(weight)
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
        raise AssertionError
    return num // den


def _horizontal_strips_below(lam: Partition, k: int) -> list[Partition]:
    """Partitions eta <= lam with lam/eta a horizontal strip of size k."""
    rows = len(lam)
    out: list[Partition] = []

    def rec(i: int, remaining: int, prefix: list[int]):
        if i == rows:
            if remaining == 0:
                out.append(as_partition(prefix))
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
            raise AssertionError
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
