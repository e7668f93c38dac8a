"""Independent brute-force oracles used to freeze expected test values.

Nothing here shares algorithms with the package: Kostka numbers are counted
by explicit tableau backtracking (vs. the horizontal-strip recursion),
partition counts come from the pentagonal-number recurrence, Schur expansions
from monomial enumeration, products from Littlewood-Richardson tableaux, and
invariant dimensions from constant terms of chi^n |Delta|^2
(``invariant_dimensions_ct``, vs. the Brauer-Klimyk rule on dominant
weights), products of multisets from sorted concatenations (``p_mul_sorting``,
vs. sums of multiset codes), and determinants of linear forms from the Leibniz
sum (``linear_form_det_leibniz``, vs. one Laplace expansion). Seven oracles
call the package: ``sigma_expand_powersum`` uses its
power-sum routines, which the Pieri kernel of ``sigma_expand`` does not use,
``enhanced_from_equivariant_per_partition`` runs one ``weyl_inner`` per
partition, where the package weights each degree by |Delta|^2 once,
``guess_ode_per_pair`` certifies (``rank_modulo``) and solves each (order,
degree) system of ``guess_ode`` on its own by exact elimination
(``exact_nullspace``), and
re-checks in Fractions (``apply_ode_fractions``), where the package reduces
each order once modulo a prime, lifts nullspaces from residues and sums
residuals in integers,
``gessel_enhanced_permutations`` expands the Gessel determinant by
permutations into series products, where the package forms one integer
determinant per partition and the power-sum-to-monomial table,
``enhanced_expand_series`` multiplies T-tails and e^{k T_0} as truncated
series, where the package runs on integer tables (both multiply with
``p_mul_sorting``), ``theta_r_pairings``
runs one Euler pairing per partition, through the shifted class,
Littlewood-Richardson products and Bott pushforwards, and
``detring_delta_squared`` reads the determinantal-ring character off
g |Delta|^2, where the package reads both off one determinant of linear
forms. ``sym_powers_binomial``
reads Sym^n off generalized binomial series, against the Newton recurrence
of ``sym_degree_characters``; it only builds LaurentPoly values.
``hilbert_from_weight_presentation`` sums a lattice-point EGF one point at a
time, and ``mu_r`` is the Hilbert-series map ex_sigma(theta_r(c)); no package
route calls either, so they live here with their tests.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


@functools.cache
def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


def ssyt_fillings(shape, content) -> int:
    """Count SSYT of given shape and content by cell-by-cell backtracking."""
    shape = tuple(shape)
    content = tuple(content)
    if sum(shape) != sum(content):
        return 0
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    remaining = list(content)
    grid: dict[tuple[int, int], int] = {}

    def rec(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, len(remaining) + 1):
            if remaining[v - 1] > 0:
                remaining[v - 1] -= 1
                grid[(i, j)] = v
                total += rec(idx + 1)
                del grid[(i, j)]
                remaining[v - 1] += 1
        return total

    return rec(0)


def ssyt_bounded(shape, d: int) -> int:
    """Count SSYT of given shape with entries in 1..d (= dim of GL(d) irrep)."""
    shape = tuple(shape)
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    grid: dict[tuple[int, int], int] = {}

    def rec(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, d + 1):
            grid[(i, j)] = v
            total += rec(idx + 1)
            del grid[(i, j)]
        return total

    return rec(0)


def lr_coefficient(lam, mu, nu) -> int:
    """c^{nu}_{lam,mu}: LR skew tableaux of shape nu/lam, content mu.

    Fillings are row-weak, column-strict, and the reverse reading word must
    be a lattice word.
    """
    lam = tuple(lam)
    mu = tuple(mu)
    nu = tuple(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    rows = len(nu)
    inner = lam + (0,) * (rows - len(lam))
    if len(lam) > rows or any(inner[i] > nu[i] for i in range(rows)):
        return 0
    cells = [(i, j) for i in range(rows) for j in range(inner[i], nu[i])]
    # reading order: right-to-left within each row, top to bottom
    cells.sort(key=lambda c: (c[0], -c[1]))
    grid: dict[tuple[int, int], int] = {}
    counts = [0] * (len(mu) + 1)

    def rec(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        total = 0
        for v in range(1, len(mu) + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue  # lattice word violated
            right = grid.get((i, j + 1))
            if right is not None and v > right:
                continue  # rows weakly increase; row is filled right-to-left
            if i > 0 and inner[i - 1] <= j < nu[i - 1]:
                above = grid[(i - 1, j)]
                if v <= above:
                    continue  # columns strictly increase
            grid[(i, j)] = v
            counts[v] += 1
            total += rec(idx + 1)
            counts[v] -= 1
            del grid[(i, j)]
        return total

    return rec(0)


def schur_monomials(lam, nvars: int) -> dict[tuple[int, ...], int]:
    """Monomial expansion of s_lam(x_1..x_nvars) via SSYT enumeration."""
    lam = tuple(lam)
    out: dict[tuple[int, ...], int] = {}
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    grid: dict[tuple[int, int], int] = {}

    def rec(idx: int):
        if idx == len(cells):
            expo = [0] * nvars
            for v in grid.values():
                expo[v - 1] += 1
            key = tuple(expo)
            out[key] = out.get(key, 0) + 1
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        for v in range(lo, nvars + 1):
            grid[(i, j)] = v
            rec(idx + 1)
            del grid[(i, j)]

    rec(0)
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def invariant_dimensions_ct(group, weights: dict, n_max: int) -> list[int]:
    """dim (E^{tensor n})^G by Weyl integration, CT(chi^n prod_k |Delta_k|^2) / |W|,
    for G a product of GL(k)/SL(k) blocks and `weights` the character chi of E
    as a dict of exponent tuples over the ambient GL tori. Each block brings
    |Delta_k|^2 = prod_{i<j} (2 - a_i/a_j - a_j/a_i); an SL(k) block then
    substitutes its last variable by the inverse product of its others, while
    |W| stays prod_k k!."""
    total = sum(k for _, k in group)
    zero = (0,) * total
    measure = {zero: 1}
    weyl_order = 1
    sl_spans = []
    pos = 0
    for kind, k in group:
        for i in range(pos, pos + k):
            for j in range(i + 1, pos + k):
                e = tuple(1 if v == i else -1 if v == j else 0 for v in range(total))
                measure = poly_mul(measure, {zero: 2, e: -1, tuple(-x for x in e): -1})
        weyl_order *= math.factorial(k)
        if kind == "sl":
            sl_spans.append((pos, pos + k))
        pos += k
    dropped = {hi - 1 for _, hi in sl_spans}

    def reduce(poly: dict) -> dict:
        out: dict[tuple[int, ...], int] = {}
        for e, c in poly.items():
            e = list(e)
            for lo, hi in sl_spans:
                for i in range(lo, hi - 1):
                    e[i] -= e[hi - 1]
            key = tuple(x for i, x in enumerate(e) if i not in dropped)
            out[key] = out.get(key, 0) + c
        return {k: c for k, c in out.items() if c}

    chi, measure = reduce(weights), reduce(measure)
    power = reduce({zero: 1})
    dims = []
    for n in range(n_max + 1):
        if n:
            power = poly_mul(power, chi)
        ct = sum(c * measure.get(tuple(-x for x in e), 0) for e, c in power.items())
        if ct % weyl_order:
            raise ArithmeticError(f"constant term {ct} at n={n} is not a multiple of |W|")
        if ct < 0:
            raise ValueError(f"negative invariant dimension {ct // weyl_order} at n={n}")
        dims.append(ct // weyl_order)
    return dims


def decompose_schur(poly: dict, nvars: int) -> dict[tuple[int, ...], int]:
    """Write a symmetric polynomial (monomial dict) as sum of s_lam, by
    repeatedly subtracting the Schur polynomial of the lex-leading exponent."""
    work = {k: c for k, c in poly.items() if c}
    out: dict[tuple[int, ...], int] = {}
    while work:
        lead = max(work)
        lam = tuple(p for p in lead if p)
        if tuple(sorted(lead, reverse=True)) != lead:
            raise ValueError(f"not symmetric at {lead}")
        c = work[lead]
        out[lam] = c
        for k, s in schur_monomials(lam, nvars).items():
            nc = work.get(k, 0) - c * s
            if nc:
                work[k] = nc
            else:
                work.pop(k, None)
    return out


def sigma_expand_powersum(e, N: int):
    """sigma_expand by the power-sum route, the independent check of its Pieri
    kernel: each sigma_k = sum_{n>=k} binom(n,k) s_n goes to power sums by
    Murnaghan-Nakayama, products concatenate power-sum partitions, and the sum
    goes back to Schur functions."""
    from tcaseries.symfunc import SymFunc, add, change_basis, multiply
    total = SymFunc("p", {}, N)
    for (mu, nu), c in e.terms.items():
        cur = change_basis(SymFunc("s", {mu: c}, N), "p")
        for k in nu:
            cur = multiply(cur, SymFunc("s", {(n,): _binom(n, k) for n in range(k, N + 1)}))
        total = add(total, cur)
    return change_basis(total, "s")


def enhanced_from_equivariant_per_partition(hilb, d: int, N: int):
    """enhanced_from_equivariant by one full Weyl integral per partition:
    [t^lam] = weyl_inner(ch, p_lam, d) / lam! with ch = hilb[|lam|] (None or
    missing: zero) and p_lam a product of power_sum_lp factors."""
    from tcaseries.partitions import partition_factorial, partitions_up_to
    from tcaseries.seriesforms import TSeries
    from tcaseries.torus import LaurentPoly, power_sum_lp, weyl_inner
    coeffs = {}
    for lam in partitions_up_to(N):
        ch = hilb[sum(lam)] if sum(lam) < len(hilb) else None
        if ch is not None:
            p_lam = LaurentPoly(d, {(0,) * d: 1})
            for k in lam:
                p_lam = p_lam * power_sum_lp(k, d)
            coeffs[lam] = weyl_inner(ch, p_lam, d) / partition_factorial(lam)
    return TSeries(N, coeffs)


def p_mul_sorting(a: dict, b: dict, trunc: int | None = None) -> dict:
    """Product of two dicts keyed by weakly decreasing tuples that multiply by
    multiset union, each key of the product sorted from the concatenation,
    terms of weight above `trunc` (None: none) and zero terms dropped; where
    the package adds multiset codes."""
    out: dict = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            if trunc is None or sum(la) + sum(lb) <= trunc:
                key = tuple(sorted(la + lb, reverse=True))
                out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def linear_form_det_leibniz(r: int, entry, N: int | None = None) -> dict:
    """polyutil.linear_form_det by the Leibniz sum over the r! permutations, each
    product of entries expanded over every choice of one k per row; where the
    package runs one Laplace expansion over bit masks of the columns taken."""
    import itertools
    out: dict = {}
    for perm in itertools.permutations(range(r)):
        sign = (-1) ** sum(x > y for x, y in itertools.combinations(perm, 2))
        for choice in itertools.product(*(entry(a, perm[a]).items() for a in range(r))):
            ks = tuple(sorted((k for k, _ in choice), reverse=True))
            if N is None or sum(ks) <= N:
                out[ks] = out.get(ks, 0) + sign * math.prod(c for _, c in choice)
    return {ks: v for ks, v in out.items() if v}


def enhanced_expand_series(e, N: int):
    """enhanced_expand by series products on sorted tuple keys (p_mul_sorting):
    each T_j = sum_{n>=j} binom(n, j) t_n (t_0 absent) is truncated at N, and
    e^{k T_0} is the power series sum_m (k T_0)^m / m!, every monomial
    c t^tau T^nu of layer k multiplied out term by term; where the package
    runs integer tables on multiset codes."""
    from tcaseries.seriesforms import TSeries

    def tail(j):
        return {(n,): _binom(n, j) for n in range(max(j, 1), N + 1)}

    def exp_kt0(k):
        out = power = {(): Fraction(1)}
        for m in range(1, N + 1):
            power = p_mul_sorting(power, {key: Fraction(k, m) * c for key, c in tail(0).items()}, N)
            out = _plus(out, power)
        return out

    total: dict = {}
    for k, poly in e.parts.items():
        layer: dict = {}
        for (t, T), c in poly.items():
            term = p_mul_sorting({(): c}, {t: 1}, N)
            for j in T:
                term = p_mul_sorting(term, tail(j), N)
            layer = _plus(layer, term)
        total = _plus(total, p_mul_sorting(layer, exp_kt0(k), N))
    return TSeries(N, total)


def _plus(a: dict, b: dict) -> dict:
    """a + b for term dicts, zero terms dropped."""
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def sym_powers_binomial(chi, N: int):
    """Characters of Sym^n(E), n <= N, for the virtual character
    chi = sum_mu m_mu x^mu (a LaurentPoly; m_mu any rationals), read off
    prod_mu (1 - x^mu u)^{-m_mu} = prod_mu sum_j binom(m_mu + j - 1, j) x^{j mu} u^j
    with the generalized binomial m (m+1) ... (m+j-1) / j!, where the package
    runs Newton's identity on integers."""
    from tcaseries.torus import LaurentPoly
    d = chi.d
    series = [{(0,) * d: Fraction(1)}] + [{} for _ in range(N)]
    for mu, m in chi.terms.items():
        binoms = [Fraction(1)]
        for j in range(N):
            binoms.append(binoms[-1] * (m + j) / (j + 1))
        new = [{} for _ in range(N + 1)]
        for n, part in enumerate(series):
            for j in range(N + 1 - n):
                for e, c in part.items():
                    key = tuple(a + j * b for a, b in zip(e, mu))
                    new[n + j][key] = new[n + j].get(key, 0) + c * binoms[j]
        series = new
    return [LaurentPoly(d, part) for part in series]


def exact_nullspace(rows, ncols: int):
    """Basis of the right nullspace by exact elimination over the rationals:
    one vector per free column of the reduced row echelon form."""
    from tcaseries.polyutil import echelon
    pivots, mat = echelon([[Fraction(c) for c in row] for row in rows], ncols)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for rix, pc in enumerate(pivots):
            vec[pc] = -mat[rix][fc]
        basis.append(vec)
    return basis


def rank_modulo(rows, ncols: int):
    """(p, rank of the rational matrix modulo p), p the prime that
    polyutil.residues picks for its entries; None when it picks none. Rank
    ncols there proves the rational nullspace trivial."""
    from tcaseries.polyutil import cleared, echelon, residues
    red = residues(*cleared([c for row in rows for c in row]))
    if red is None:
        return None
    p, flat = red
    cells = iter(flat)
    return p, len(echelon([[next(cells) for _ in row] for row in rows], ncols, p)[0])


def apply_ode_fractions(op, coeffs):
    """dfinite.apply_ode summed term by term in Fractions."""
    out = []
    for m in range(len(coeffs) - op.order):
        acc = Fraction(0)
        for i, p in enumerate(op.coeffs):
            for j, c in enumerate(p):
                if c and j <= m:
                    acc += c * coeffs[m - j + i] * math.perm(m - j + i, i)
        out.append(acc)
    return out


def guess_ode_per_pair(coeffs, max_order: int, max_degree: int):
    """guess_ode one (order, degree) pair at a time, unknowns in the order
    (i, j): each pair's system gets its own rank certificate modulo a prime
    and, when that fails, its own nullspace by exact elimination. Returns the
    operator (or None), the prime and the certified pairs."""
    from tcaseries.dfinite import _frobenius_lift, _normalize, needed_length
    from tcaseries.polyutil import cleared, ptrim, residues
    from tcaseries.seriesforms import OdeOperator
    if len(coeffs) < needed_length(max_order, max_degree):
        raise ValueError("series too short")
    coeffs = [Fraction(c) for c in coeffs]
    prime = (residues(*cleared(coeffs)) or (None,))[0]
    certified = []
    for r in range(1, max_order + 1):
        for d in range(max_degree + 1):
            ncols = (r + 1) * (d + 1)
            rows = [[coeffs[m - j + i] * math.perm(m - j + i, i) if j <= m else Fraction(0)
                     for i in range(r + 1) for j in range(d + 1)]
                    for m in range(len(coeffs) - r)]
            if (rank_modulo(rows, ncols) or (None, None))[1] == ncols:
                certified.append((r, d))
                continue
            for vec in exact_nullspace(rows, ncols):
                polys = [ptrim(vec[i * (d + 1):(i + 1) * (d + 1)]) for i in range(r + 1)]
                if polys[-1]:
                    op = OdeOperator(_normalize(_frobenius_lift(polys)))
                    if not any(apply_ode_fractions(op, coeffs)):
                        return op, prime, certified
    return None, prime, certified


def gessel_enhanced_permutations(d: int, r: int, N: int):
    """The r x r determinant det(a_{j-i}) of grassmann.gessel_enhanced,
    expanded by permutations with r series products (p_mul_sorting) per
    permutation."""
    import itertools
    from tcaseries.partitions import enumerate_partitions, partition_factorial
    from tcaseries.seriesforms import TSeries

    def a_series(i):
        """a_i = sum over |lam| >= -i of binom(|lam|+i+d-1, |lam|+i) t^lam / lam!."""
        return {lam: Fraction(math.comb(n + i + d - 1, n + i), partition_factorial(lam))
                for n in range(max(0, -i), N + 1) for lam in enumerate_partitions(n)}

    if d < 1 or r < 1:
        raise ValueError(f"need d >= 1 and r >= 1, got d={d}, r={r}")
    series = {k: a_series(k) for k in range(-(r - 1), r)}
    total = {}
    for perm in itertools.permutations(range(r)):
        prod = {(): Fraction(1)}
        for i in range(r):
            prod = p_mul_sorting(prod, series[perm[i] - i], N)
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        total = _plus(total, {key: (-1) ** inversions * c for key, c in prod.items()})
    return TSeries(N, total)


def theta_r_pairings(c):
    """theta_r by one pairing per partition: s_mu sigma^lam sigma_0^{r-l(lam)}
    <M_lam^{(r)}([Q]), [F]> over l(lam) <= r and |lam| <= r(d-r), each pairing
    through the Schur expansion of the shifted monomial class, Littlewood-Richardson
    products and Bott pushforwards."""
    from tcaseries.grassmann import pairing
    from tcaseries.seriesforms import SigmaExpr
    if not c.terms:
        return SigmaExpr({})
    d, r = c.shape()
    return SigmaExpr({(mu, lam + (0,) * (r - len(lam))): pairing(m_lam, g)
                      for mu, g in c.terms.items()
                      for lam, m_lam in _shifted_monomial_classes(r, r * (d - r)).items()})


@functools.cache
def _shifted_monomial_classes(r: int, n: int) -> dict:
    """m_shifted_class(lam, r) for every lam with l(lam) <= r and |lam| <= n."""
    from tcaseries.grassmann import m_shifted_class
    from tcaseries.partitions import partitions_up_to
    return {lam: m_shifted_class(lam, r) for lam in partitions_up_to(n, max_length=r)}


def detring_delta_squared(d: int, r: int):
    """detring_formal_character by Weyl integration against |Delta|^2.

    c_lam = weyl_inner(m_lam, g, r) with g = prod_i (1 + x_i)^{d-r}, which by
    dual Cauchy (Macdonald I.4) is sum_mu [m_lam in s_mu] s_{mu'}(1^{d-r}).
    g |Delta|^2 is symmetric, so the constant term over the orbit of lam
    collapses to c_lam = [x^lam] (g |Delta|^2) / |Stab(lam)|, where the
    stabilizer of lam (padded to r parts) in S_r has order lam! (r - l(lam))!.
    The coefficient is read as sum_f Delta[f] (g Delta)[lam + f] without
    forming |Delta|^2; g |Delta|^2 has degree r(d-r) and no exponent above
    d-1, so only those lam are visited.
    """
    import itertools
    from tcaseries.partitions import partition_factorial, partitions_up_to
    from tcaseries.seriesforms import SigmaExpr
    from tcaseries.torus import _delta
    g = {e: math.prod(math.comb(d - r, k) for k in e)
         for e in itertools.product(range(d - r + 1), repeat=r)}
    delta = _delta(r)
    g_delta = poly_mul(g, delta)
    terms = {}
    for lam in partitions_up_to(r * (d - r), max_length=r, max_part=d - 1):
        e = lam + (0,) * (r - len(lam))
        c = sum(cf * g_delta.get(tuple(a + b for a, b in zip(e, f)), 0)
                for f, cf in delta.items())
        if c:
            terms[((), e)] = Fraction(c, partition_factorial(lam) * math.factorial(r - len(lam)))
    return SigmaExpr(terms)


def exp_power_sum_log(N: int) -> dict[tuple[int, ...], Fraction]:
    """exp(sum_k p_k / k) = sum_mu p_mu / z_mu through degree N, with
    z_mu = prod_k k^{m_k} m_k! counted from the parts directly."""
    out = {}

    def rec(prefix, bound, left):
        z = 1
        for k in set(prefix):
            m = prefix.count(k)
            z *= k ** m
            for i in range(2, m + 1):
                z *= i
        out[tuple(prefix)] = Fraction(1, z)
        for k in range(min(bound, left), 0, -1):
            rec(prefix + [k], k, left - k)

    rec([], N, N)
    return out


def mu_r(c):
    """The Hilbert-series map ex_sigma(theta_r(c)) on a LambdaGrClass,
    supported on e^{rt} alone."""
    from tcaseries.grassmann import theta_r
    from tcaseries.seriesforms import ExpPoly, ex_sigma
    if not c.terms:
        return ExpPoly({})
    _, r = c.shape()
    h = ex_sigma(theta_r(c))
    if not set(h.parts) <= {r}:
        raise AssertionError(f"mu_r output not concentrated on e^{{{r}t}}")
    return h


def hilbert_from_weight_presentation(A, b, N: int) -> list[Fraction]:
    """EGF coefficients of sum_x t^{|xA+b|} / (xA+b)! over x in Z_{>=0}^n, one
    lattice point at a time.

    A is an n x d matrix of non-negative integers with no zero row; b is a
    non-negative integer d-tuple; |y| = sum(y), y! = prod(y_i!).
    """
    rows = [tuple(row) for row in A]
    b = tuple(b)
    for row in rows:
        if len(row) != len(b):
            raise ValueError("matrix width must match len(b)")
        if any(v < 0 for v in row) or not any(row):
            raise ValueError(f"rows must be nonzero and non-negative, got {row}")
    if any(v < 0 for v in b):
        raise ValueError("b must be non-negative")
    out = [Fraction(0)] * (N + 1)

    def rec(i: int, y: tuple[int, ...]):
        if sum(y) > N:
            return
        if i == len(rows):
            out[sum(y)] += Fraction(1, math.prod(map(math.factorial, y)))
            return
        cur = y
        while sum(cur) <= N:
            rec(i + 1, cur)
            cur = tuple(a + c for a, c in zip(cur, rows[i]))

    rec(0, b)
    return out


@functools.cache
def catalan(k: int) -> int:
    if k == 0:
        return 1
    num = catalan(k - 1) * 2 * (2 * k - 1)
    if num % (k + 1):
        raise ArithmeticError(f"Catalan recurrence left a remainder at k = {k}")
    return num // (k + 1)


@functools.cache
def bell(n: int) -> int:
    if n == 0:
        return 1
    total = 0
    for k in range(n):
        total += _binom(n - 1, k) * bell(k)
    return total


def _binom(n: int, k: int) -> int:
    return math.comb(n, k)


def catalan_egf(length: int) -> list[Fraction]:
    """EGF coefficients of sum_k C_k t^{2k}/(2k)!."""
    out = [Fraction(0)] * length
    for n in range(length):
        if n % 2 == 0:
            out[n] = Fraction(catalan(n // 2), math.factorial(n))
    return out


def bell_egf(length: int) -> list[Fraction]:
    return [Fraction(bell(n), math.factorial(n)) for n in range(length)]


def catalan_sq_ogf(length: int) -> list[Fraction]:
    out = [Fraction(0)] * length
    for n in range(length):
        if n % 2 == 0:
            out[n] = Fraction(catalan(n // 2) ** 2)
    return out
