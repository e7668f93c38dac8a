"""Dense univariate polynomials over Fraction: tuples of ascending coefficients,
with sums, scalings, derivatives and p(t) -> p(-t).

The zero polynomial is the empty tuple; no trailing zeros are stored. Also
the package's one elimination kernel, ``echelon``: pivot columns and reduced
row echelon form over the rationals, or modulo a prime, one row at a time with
``insert_row``. ``nullspace`` lifts a basis off it modulo a prime and checks it
exactly over the rationals (``annihilates``), as guess_ode does with the vector
of ``lifted_kernel_vector``; modulo a prime, full column rank proves a nullspace
trivial (``residues`` picks the prime of guess_ode's rank filter). Also its one merge kernel
for sparse term dicts, ``merge_terms`` (kernels run it on integers:
``over_common_denominator``, ``cleared``; ``lowest_terms`` keeps them), its one
integrality check, ``integer``, its one size check, ``size``, through which every
public entry reads each dimension, rank, truncation, count and degree cap it takes,
its one precondition on an input's truncation, ``truncated_at_least``, and the
number checks of JSON readers, ``json_fraction`` and ``json_int``. And ``Value``, the immutable
base of value classes, with its one trusted constructor; and ``multiset_mul``,
its one product of multisets, on ``multiset_code``s, read back in canonical order
by ``multiset_terms`` (a union of multisets is one integer addition: Monagan and
Pearce, CASC 2007), on which its one determinant, ``linear_form_det``, runs.
And its one accumulator of a fixed linear map, ``scatter``, which applies a
scatter table (per input key, the positions and coefficients it adds into) into
a list in canonical order (partitions.canonical_positions), so no sort or
decode follows; ``LazyRows`` builds a table's rows when they are first read.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

Poly = tuple[Fraction, ...]


class Value:
    """Immutable value with the fields named in a subclass's __slots__.

    The subclass's __init__ validates its arguments and passes the canonical
    field values, in __slots__ order, to Value.__init__; it copies what it is
    given, so a {} default argument is never shared. Values are equal only
    within one class, hash over their fields (TypeError for a dict field),
    refuse assignment, copy and pickle through `trusted`, and print as a call of
    the constructor with the arguments named in `_params` (default: the fields)."""

    __slots__ = ()
    _params: tuple[str, ...] = ()

    def __init__(self, *values, _set=object.__setattr__):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    @classmethod
    def trusted(cls, *values):
        """An instance from field values already canonical, without the subclass's
        __init__: for kernels whose output is canonical by construction."""
        self = object.__new__(cls)
        Value.__init__(self, *values)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self).trusted, self._fields()

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._params or self.__slots__)
        return f"{type(self).__name__}({args})"


def ptrim(coeffs) -> Poly:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return ptrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def pscale(a: Poly, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def pderiv(a: Poly) -> Poly:
    return ptrim([a[i] * i for i in range(1, len(a))])


def pcompose_neg(a: Poly) -> Poly:
    """p(t) -> p(-t)."""
    return tuple((-1) ** i * c for i, c in enumerate(a))


def integer(v) -> int:
    """v as an int when its value is an integer (a numeral such as "01", or a
    complex number such as 2+0j, too); refused with a ValueError, not
    truncated, when it is not."""
    if isinstance(v, complex) and v.imag:
        raise ValueError(f"{v!r} is not an integer")
    n = int(v.real if isinstance(v, complex) else v)
    if n != v and not isinstance(v, str):
        raise ValueError(f"{v!r} is not an integer")
    return n


def size(v, name: str, low: int = 0) -> int:
    """The size v (a dimension, rank, truncation, count or degree cap) as an int,
    read through `integer`, so 2.0 and "2" are 2; refused below `low`, as a bool or as None."""
    if isinstance(v, bool):
        raise ValueError(f"{name} must be an integer, not {v!r}")
    try:
        n = v if type(v) is int else integer(v)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {v!r}") from None
    if n < low:
        raise ValueError(f"{name} must be >= {low}")
    return n


def truncated_at_least(truncation: int | None, N: int) -> None:
    """Refuse an input truncated at `truncation` (None: exact) below the N asked of it."""
    if truncation is not None and truncation < N:
        raise ValueError(f"input truncated at {truncation} < {N}")


def json_fraction(c) -> Fraction:
    """A coefficient read from JSON: a string such as "-1/2" or an integer."""
    # a JSON float is a binary double, not the decimal written, and bool is an int subclass
    if isinstance(c, bool) or not isinstance(c, (str, int)):
        raise ValueError(f"coefficient {c!r} is not a string or an integer")
    return Fraction(c)


def json_int(v) -> int:
    """An integer field read from JSON: an integer, or a string naming one."""
    if isinstance(v, bool) or not isinstance(v, (str, int)) or Fraction(v).denominator != 1:
        raise ValueError(f"{v!r} is not an integer")
    return int(Fraction(v))


def merge_terms(pairs, order=None) -> dict:
    """Dict of (key, coefficient) pairs with the coefficients of equal keys
    summed and zero terms dropped; keys in first-seen order, or sorted by the
    key function `order`."""
    out: dict = {}
    get = out.get
    for k, c in pairs:
        if c:
            cur = get(k)
            out[k] = c if cur is None else cur + c
    if order is None:
        return out if all(out.values()) else {k: c for k, c in out.items() if c}
    return dict(sorted(((k, c) for k, c in out.items() if c), key=lambda kv: order(kv[0])))


def product_terms(a: dict, b: dict) -> dict:
    """The product of two term dicts whose keys multiply by adding, such as
    packed exponent codes: {x + y: sum of a[x] b[y]}, zero terms dropped."""
    out: dict = {}
    get = out.get
    for x, c in a.items():
        for y, v in b.items():
            cur = get(k := x + y)
            out[k] = c * v if cur is None else cur + c * v
    return {k: c for k, c in out.items() if c}


def over_common_denominator(*dicts) -> tuple[int, list[dict]]:
    """(L, [L * t for t in dicts]) with int values, L the lcm of the denominators
    of their Fraction values: a linear kernel runs on the ints and divides by L once."""
    L = math.lcm(*(c.denominator for t in dicts for c in t.values()))
    return L, [{k: c.numerator * (L // c.denominator) for k, c in t.items()} for t in dicts]


def lowest_terms(den: int, nums: dict) -> tuple[int, dict]:
    """The rationals nums[k] / den (den > 0) in lowest terms over one denominator:
    zero numerators dropped, gcd(den, *nums) == 1, keys in the order given."""
    nums = nums if all(nums.values()) else {k: c for k, c in nums.items() if c}
    g = math.gcd(den, *nums.values())
    return den // g, nums if g == 1 else {k: c // g for k, c in nums.items()}


def fraction_terms(den: int, nums: dict) -> dict:
    """{k: nums[k] / den} as Fractions: one per coefficient, made when it is read."""
    return {k: Fraction(c, den) for k, c in nums.items()}


def fraction_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without making the Fraction."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def cleared(values) -> tuple[int, list[int]]:
    """(L, [L * v for v in values]) with int entries, L the lcm of the
    denominators of the rationals `values` (ints or Fractions)."""
    L = math.lcm(*(v.denominator for v in values))
    return L, [v.numerator * (L // v.denominator) for v in values]


# A code holds the multiplicity of part p in bits [16 p, 16 p + 16). Codes of
# fewer than 2^15 parts have digits below 2^15, so a sum of two cannot carry.
# The caches are bounded: a code is as long as its largest part.
_DIGIT = 16


@functools.lru_cache(maxsize=1 << 12)
def multiset_code(parts: tuple[int, ...]) -> tuple[int, int]:
    """(weight, code) of a multiset of nonnegative integers, part 0 at digit 0;
    refused at 2^15 parts or more, where a sum of two codes could carry."""
    if len(parts) >= 1 << (_DIGIT - 1):
        raise ValueError(f"a multiset of {len(parts)} parts is too large to code")
    return sum(parts), sum(1 << _DIGIT * p for p in parts)


@functools.lru_cache(maxsize=1 << 12)
def multiset_parts(code: int, width: int = _DIGIT) -> tuple[int, ...]:
    """The weakly decreasing tuple of parts of a multiset code of `width`-bit
    digits, read one distinct part at a time from the lowest set bit."""
    parts: list[int] = []
    while code:
        p = ((code & -code).bit_length() - 1) // width
        parts += [p] * (m := code >> width * p & (1 << width) - 1)
        code -= m << width * p
    return tuple(reversed(parts))


def multiset_terms(out: dict, width: int = _DIGIT) -> dict:
    """The nonzero terms of multiset_mul's output on `width`-bit digits, keyed by
    parts in canonical order: weight, then code decreasing."""
    return {multiset_parts(-neg, width): c
            for _, neg, c in sorted((w, -code, c) for code, (w, c) in out.items() if c)}


def scatter(table, pairs, out: list) -> list:
    """out[i] += c * v for each (key, c) of `pairs`, c nonzero, and (i, v) of table[key]: a
    linear map stored as a scatter table, per key the (position, coefficient) pairs it adds."""
    for key, c in pairs:
        if c:
            for i, v in table[key]:
                out[i] += c * v
    return out


class LazyRows(dict):
    """A scatter table that builds and keeps the row build(key) of a key when first read."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        row = self[key] = self.build(key)
        return row


def multiset_mul(a, b, limit: int | None, out: dict) -> dict:
    """out += a * b for iterables of (weight, code, coefficient) triples, b
    sorted by weight, dropping products of weight above `limit` (None: none);
    `out` maps a code to [weight, coefficient] and keeps zeros."""
    limit = math.inf if limit is None else limit
    for wa, ka, ca in a:
        room = limit - wa
        for wb, kb, cb in b:
            if wb > room:
                break
            if (cur := out.get(key := ka + kb)) is None:
                out[key] = [wa + wb, ca * cb]
            else:
                cur[1] += ca * cb
    return out


def linear_form_det(r: int, entry, N: int | None = None) -> dict[tuple[int, ...], int]:
    """det(sum_k s_k M_k) for r x r integer matrices M_k, entry(a, b) = {k: M_k[a][b]}:
    the coefficient of s_{k_1} ... s_{k_r}, keyed by the weakly decreasing tuple
    (k_1, ..., k_r) in canonical order, where k_1 + ... + k_r <= N (None: all). Laplace
    expansion down the rows: a mask of columns taken (bits above b: the sign of taking
    b) holds a multiset_mul output in r.bit_length()-bit digits (at most r parts);
    taking b multiplies it by entry(a, b) sorted by k, so products above N break off."""
    width, states = r.bit_length(), {0: {0: [0, 1]}}
    for a in range(r):
        forms = [sorted((k, 1 << width * k, c) for k, c in entry(a, b).items()) for b in range(r)]
        forms = [(f, [(k, kc, -c) for k, kc, c in f]) for f in forms]
        states, prev = {}, states
        for taken, out in prev.items():
            terms = [(w, code, c) for code, (w, c) in out.items() if c]
            for b in (b for b in range(r) if not taken >> b & 1):
                multiset_mul(terms, forms[b][(taken >> b).bit_count() & 1], N,
                             states.setdefault(taken | 1 << b, {}))
    return multiset_terms(states[(1 << r) - 1], width)


def echelon(rows: list[list], ncols: int, p: int | None = None) -> tuple[list[int], list[list]]:
    """Pivot columns and reduced row echelon form of the matrix, pivoting on
    its first ncols columns: over the rationals for Fraction entries, or
    modulo the prime p, when one is given, for integer entries. A column is
    a pivot exactly when it is independent of the columns before it, so the
    pivots of a column prefix are a prefix of the pivots."""
    mat = [row[:] if p is None else [a % p for a in row] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        # entries left of col are zero in the pivot row, so only tails change
        tail = mat[rank][col:]
        inv = 1 / tail[0] if p is None else pow(tail[0], -1, p)
        tail = mat[rank][col:] = [v * inv if p is None else v * inv % p for v in tail]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != rank:
                row[col:] = ([a - f * b for a, b in zip(row[col:], tail)] if p is None
                             else [(a - f * b) % p for a, b in zip(row[col:], tail)])
        pivots.append(col)
    return pivots, mat


def insert_row(pivots: dict[int, list[int]], row: list[int], p: int) -> int | None:
    """echelon modulo p one row at a time: the row of residues, reduced by the pivot
    rows (pivots[c]: the row from column c on, led by 1), becomes the pivot row of its
    first nonzero column, which is returned; None when it reduces to zero."""
    for col in range(len(row)):
        if a := row[col]:
            if (tail := pivots.get(col)) is None:
                inv = pow(a, -1, p)
                pivots[col] = [x * inv % p for x in row[col:]]
                return col
            row[col:] = [(x - a * y) % p for x, y in zip(row[col:], tail)]
    return None


def lifted_kernel_vector(pivots: dict[int, list[int]], c: int, p: int) -> list:
    """Entries 0..c, lifted as _rational_lift does (None: no lift), of the v with v[c] = 1,
    zeros beyond, that insert_row's pivot rows of every column before c kill modulo p."""
    res = [0] * c + [1]
    for pc in range(c - 1, -1, -1):
        res[pc] = -sum(a * b for a, b in zip(pivots[pc][1:], res[pc + 1:])) % p
    return [_rational_lift(x, p) for x in res]


# Primes of the rank filter, tried in turn: 2^61-1 first, then larger
# Mersenne primes for a matrix with a denominator divisible by it, or with
# every entry divisible by it. nullspace goes on to larger ones, whose
# reconstruction bound sqrt(p/2) admits larger numerators and denominators.
RANK_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1)
LIFT_PRIMES = (*RANK_PRIMES, 2**521 - 1, 2**1279 - 1)


def nullspace(rows: list[list], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of the rational matrix: one vector per
    free column of the reduced row echelon form. Modulo each prime of
    LIFT_PRIMES in turn, the rows cleared to integers have full column rank,
    so the nullspace is trivial, or give a basis by rational reconstruction,
    returned only when every vector kills every integer row exactly. After
    the last prime, exact elimination answers."""
    # Rank modulo p is at most the rational rank. Checked lifted vectors are
    # independent kernel vectors, one per free column modulo p, each supported
    # on the pivots before its own free column: so the rational pivots are
    # those modulo p, and the basis is the one exact elimination reads off.
    ints = [cleared(row[:ncols])[1] for row in rows]
    for p in (*LIFT_PRIMES, None):
        pivots, mat = echelon(ints if p else [[Fraction(c) for c in row] for row in ints], ncols, p)
        basis = []
        for fc in (c for c in range(ncols) if c not in pivots):
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for rix, pc in enumerate(pivots):
                vec[pc] = -mat[rix][fc] if p is None else _rational_lift(-mat[rix][fc], p)
            if p and not annihilates(ints, vec):
                break
            basis.append(vec)
        else:
            return basis


def _rational_lift(a: int, p: int) -> Fraction | None:
    """Wang's rational reconstruction: the n/d with |n|, d <= sqrt(p/2) and
    n = a d modulo p, unique when it exists; None when it does not."""
    bound = math.isqrt(p // 2)
    r0, r1, s0, s1 = p, a % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return Fraction(r1, s1) if abs(s1) <= bound and math.gcd(r1, s1) == 1 else None


def annihilates(ints, vec: list) -> bool:
    """Whether the lifted vector (None: an entry that did not lift), cleared to
    integers, kills every integer row of `ints`, read up to the first it does not."""
    if any(v is None for v in vec):
        return False
    support = [(j, v) for j, v in enumerate(cleared(vec)[1]) if v]
    return not any(sum(row[j] * v for j, v in support) for row in ints)


def residues(L: int, ints: list[int]) -> tuple[int, list[int]] | None:
    """The first prime of RANK_PRIMES that divides no denominator of the
    rationals ints[i] / L, as `cleared` gives them, and leaves some residue
    nonzero, with their residues modulo it; None when there is none. Values that
    are all zero keep the first prime: modulo any prime their residues all vanish."""
    for p in RANK_PRIMES:
        if L % p:
            inv = pow(L, -1, p)
            mods = [x * inv % p for x in ints]
            if any(mods) or not any(ints):
                return p, mods
    return None
