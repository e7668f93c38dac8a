"""Acceptance suite: one test per shipped guarantee.

Every check cross-validates a formula route against an independent oracle
(combinatorial brute force, a classical identity, or frozen reference data)
using exact rational arithmetic, so every comparison below is equality with
tolerance zero.  Run ``pytest -v tests/test_acceptance.py`` to get a
per-guarantee pass/fail report.
"""

import itertools
import random
from fractions import Fraction
from math import comb, factorial

from tcaseries.partitions import (
    dim_schur,
    enumerate_partitions,
    partition_factorial,
    partitions_in_box,
    partitions_up_to,
    sym_character,
    transpose,
)
from tcaseries.symfunc import SCHUR, SymFunc, degree_slice, sym_algebra_character
from tcaseries.seriesforms import (
    EnhancedExpr,
    ExpPoly,
    OdeOperator,
    SigmaExpr,
    TSeries,
    char_poly_form,
    character_at,
    enhanced_expand,
    exppoly_taylor,
    fourier_dual_hilbert,
    hilbert_from_poincare,
    phi_enhanced,
    phi_sigma,
    poincare_series,
    sigma_ddag_check,
    sigma_expand,
    tca_enhanced_exp,
    ts_egf,
)
from tcaseries.grassmann import (
    GrClass,
    LambdaGrClass,
    detring_formal_character,
    gessel_enhanced,
    m_shifted_class,
    pairing,
    pushforward_module_character,
    rank1_enhanced_closed,
    theta_r,
)
from tcaseries.torus import (
    LaurentPoly,
    enhanced_from_equivariant,
    invariant_dimensions,
    kernel_K,
    power_sum_lp,
    sym_degree_characters,
)
from tcaseries.dfinite import apply_ode, guess_ode, needed_length

from oracles import bell_egf, catalan, catalan_sq_ogf

F = Fraction


def test_criterion_01_rank_one_character_three_routes():
    # Theta_{A/a_1} = sum_n binom(d-1, n) sigma_n, d = 1..5, three routes at N = 8.
    N = 8
    for d in range(1, 6):
        closed = SigmaExpr({((), (n,)): F(comb(d - 1, n)) for n in range(d)})
        assert detring_formal_character(d, 1) == closed
        brute = pushforward_module_character(d, 1, (), N)
        assert sigma_expand(closed, N) == brute
        # independent combinatorial route: the degree-n multiplicity space of
        # the rank-<=1 quotient is Sym^n of the d-dimensional fiber
        segre = SymFunc(
            SCHUR,
            {(n,) if n else (): F(comb(d + n - 1, n)) for n in range(N + 1)},
            N,
        )
        assert brute == segre


def test_criterion_02_theta_matches_pushforward():
    # sigma_expand(theta_r(1 (x) S_alpha(Q)), 7) against the Bott brute force.
    N = 7
    for d, r in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        for alpha in partitions_up_to(2, max_length=r):
            cls = LambdaGrClass({(): GrClass(d, r, {alpha: 1})})
            got = sigma_expand(theta_r(cls), N)
            assert got == pushforward_module_character(d, r, alpha, N)


def test_criterion_03_shifted_schur_pairing_and_support():
    # <S_lam^{(r)}([Q]), [O]> = dim S_{lam'}(C^{d-r}) on the grid, and the
    # monomial classes pair to zero against every basis twist once
    # |lam| > r(d - r).
    grid = [(3, 1), (4, 2), (5, 2)]
    for d, r in grid:
        unit = GrClass(d, r, {(): 1})
        for lam in partitions_in_box(r, 4):
            got = pairing(m_shifted_class(lam, r, "schur"), unit)
            assert got == dim_schur(transpose(lam), d - r)
    for d, r in grid:
        cap = r * (d - r)
        twists = partitions_up_to(2, max_length=r)
        for n in range(cap + 1, cap + 4):
            for lam in enumerate_partitions(n, max_length=r):
                mlam = m_shifted_class(lam, r, "monomial")
                for alpha in twists:
                    assert pairing(mlam, GrClass(d, r, {alpha: 1})) == 0


def test_criterion_04_rank_one_enhanced_closed_forms():
    # The closed-form T-polynomials for d = 1..5, frozen from an independent
    # hand expansion of the Bell-polynomial layers, canonically normalized.
    tables = {
        1: {((), ()): F(1)},
        2: {((), ()): F(1), ((), (1,)): F(1)},
        3: {
            ((), ()): F(1),
            ((), (1,)): F(2),
            ((), (2,)): F(1),
            ((), (1, 1)): F(1, 2),
        },
        4: {
            ((), ()): F(1),
            ((), (1,)): F(3),
            ((), (2,)): F(3),
            ((), (1, 1)): F(3, 2),
            ((), (3,)): F(1),
            ((), (2, 1)): F(1),
            ((), (1, 1, 1)): F(1, 6),
        },
        5: {
            ((), ()): F(1),
            ((), (1,)): F(4),
            ((), (2,)): F(6),
            ((), (1, 1)): F(3),
            ((), (3,)): F(4),
            ((), (2, 1)): F(4),
            ((), (1, 1, 1)): F(2, 3),
            ((), (4,)): F(1),
            ((), (2, 2)): F(1, 2),
            ((), (3, 1)): F(1),
            ((), (2, 1, 1)): F(1, 2),
            ((), (1, 1, 1, 1)): F(1, 24),
        },
    }
    for d, want in tables.items():
        assert rank1_enhanced_closed(d) == EnhancedExpr({1: want})


def test_criterion_05_gessel_determinant_vs_brute():
    # det(a_{j-i}) against the pushforward character sent through phi, weight 6.
    N = 6
    for d, r in [(3, 2), (4, 2)]:
        brute = phi_enhanced(pushforward_module_character(d, r, (), N), N)
        assert gessel_enhanced(d, r, N) == brute


def test_criterion_06_exponential_formula_vs_plethysm():
    # Enhanced series of Sym(V) by the exponential weighting formula versus
    # the plethysm oracle, weight 6, for the three degree-2 generators.
    N = 6
    cases = [
        ({(2,): F(1)}, {(2,): F(1), (1, 1): F(1, 2)}),
        ({(1, 1): F(1)}, {(2,): F(-1), (1, 1): F(1, 2)}),
        ({(2,): F(1), (1, 1): F(1)}, {(1, 1): F(1)}),
    ]
    for chv_terms, hv_terms in cases:
        chV = SymFunc(SCHUR, chv_terms)
        oracle = phi_enhanced(sym_algebra_character(chV, N), N)
        assert tca_enhanced_exp(TSeries(N, hv_terms), 2, N) == oracle
    # the symmetric-square case specializes to exp(t^2/2): 10 EGF coefficients
    egf = ts_egf(tca_enhanced_exp(TSeries(9, {(2,): F(1), (1, 1): F(1, 2)}), 2, 9))
    expect = [F(0)] * 10
    for k in range(5):
        expect[2 * k] = F(1, 2**k * factorial(k))
    assert egf == expect


CATALAN_OP = OdeOperator(((F(0), F(0), F(-4)), (F(0), F(3)), (F(0), F(0), F(1))))


def test_criterion_07_catalan_invariants_and_ode():
    # dim ((C^2)^{(x) n})^{SL_2} interleaves the Catalan numbers; the EGF of the
    # same pipeline is annihilated by exactly t^2 y'' + 3t y' - 4t^2 y.
    std = LaurentPoly(2, {(1, 0): F(1), (0, 1): F(1)})
    length = needed_length(6, 8)
    dims = invariant_dimensions([("sl", 2)], std, length - 1)
    want = [catalan(n // 2) if n % 2 == 0 else 0 for n in range(13)]
    assert dims[:13] == want
    egf = [F(dims[n], factorial(n)) for n in range(length)]
    op = guess_ode(egf)
    assert op == CATALAN_OP
    assert all(v == 0 for v in apply_ode(op, egf))


def test_criterion_08_catalan_square_invariants_and_ode():
    # dim ((C^2 (x) C^2)^{(x) n})^{SL_2 x SL_2} = C_{n/2}^2; an annihilator within
    # order 4, degree 8 is guessed from 80 coefficients of the matching OGF and
    # verified on 40 held-out ones.
    w = LaurentPoly(4, {
        (1, 0, 1, 0): F(1),
        (1, 0, 0, 1): F(1),
        (0, 1, 1, 0): F(1),
        (0, 1, 0, 1): F(1),
    })
    dims = invariant_dimensions([("sl", 2), ("sl", 2)], w, 8)
    assert dims == [1, 0, 1, 0, 4, 0, 25, 0, 196]
    assert dims == [catalan(n // 2) ** 2 if n % 2 == 0 else 0 for n in range(9)]
    series = catalan_sq_ogf(120)
    op = guess_ode(series[:80], max_order=4, max_degree=8)
    assert op is not None
    assert all(v == 0 for v in apply_ode(op, series))


def test_criterion_09_bell_negative_control():
    # 60 EGF coefficients of exp(exp(t) - 1) admit no annihilator within (5, 5).
    coeffs = bell_egf(60)
    assert guess_ode(coeffs, max_order=5, max_degree=5) is None


def test_criterion_10_dual_series_and_fourier_shadow():
    # (sum sigma_n^ddag u^n)(sum sigma_n u^n) = 1 to bidegree (10, 10); the
    # Fourier shadow p_r -> p_{d-r}(-t) is an involution and agrees with the
    # coefficientwise expansion of e^{dt} H(-t).
    assert sigma_ddag_check(10)
    rng = random.Random(108)
    N = 12
    for d in range(1, 5):
        parts = {}
        for r in range(d + 1):
            deg = rng.randrange(0, 4)
            coeffs = [F(rng.randrange(-3, 4)) for _ in range(deg)]
            coeffs.append(F(rng.randrange(1, 4)))
            parts[r] = tuple(coeffs)
        h = ExpPoly(parts)
        dual = fourier_dual_hilbert(h, d)
        assert fourier_dual_hilbert(dual, d) == h
        for r, p in parts.items():
            flipped = tuple(c * (-1) ** i for i, c in enumerate(p))
            assert dual.parts[d - r] == flipped
        taylor = exppoly_taylor(h, N)
        dual_taylor = exppoly_taylor(dual, N)
        for n in range(N + 1):
            conv = sum(
                F(d ** (n - k), factorial(n - k)) * (-1) ** k * taylor[k]
                for k in range(n + 1)
            )
            assert dual_taylor[n] == conv


def test_criterion_11_koszul_poincare_inverse():
    # P_C(t, 1) e^{dt} = 1 to degree 12: the Koszul resolution of the residue
    # field, decomposed by the Cauchy identity, inverts the Hilbert series.
    N = 12
    for d in range(1, 4):
        resolution = []
        for n in range(N + 1):
            terms: dict = {}
            for lam in enumerate_partitions(n, max_length=d):
                key = transpose(lam)
                terms[key] = terms.get(key, F(0)) + F(dim_schur(lam, d))
            resolution.append((n, SymFunc(SCHUR, terms, N)))
        P = poincare_series(resolution, d, N)
        assert hilbert_from_poincare(P) == [F(1)] + [F(0)] * N


def test_criterion_12_character_polynomial_traces():
    # character_at on the rank-one quotient with d = 2 equals the brute-force
    # symmetric group traces for every partition of sizes 6..9, and every
    # produced entry respects the degree bound deg(p_i) <= i(m - i).
    for m in range(2, 6):
        form = char_poly_form(rank1_enhanced_closed(m), m)
        assert form.entries
        for i, poly in form.entries.items():
            for (tpart, Tpart) in poly:
                assert sum(Tpart) <= i * (m - i)
    form = char_poly_form(rank1_enhanced_closed(2), 2)
    assert form.threshold == -1
    char = sigma_expand(detring_formal_character(2, 1), 9)
    for n in range(6, 10):
        slice_n = degree_slice(char, n)
        for lam in enumerate_partitions(n):
            brute = sum(c * sym_character(mu, lam) for mu, c in slice_n.items())
            got = character_at(form, lam)
            assert got == brute
            assert got == n + 1


def test_criterion_13_equivariant_integral_route_and_kernel():
    # The Weyl-integral enhanced series of the free tca on m generators equals
    # the sigma route at d = 2, N = 5; the kernel coefficients factor as
    # products of single-row exponential blocks through bidegree (4, 5).
    d, N = 2, 5
    for m in (1, 2):
        chi = power_sum_lp(1, d).scale(m)
        hilb = sym_degree_characters(chi, N)
        integral = enhanced_from_equivariant(hilb, d, N)
        sigma_route = enhanced_expand(phi_sigma(SigmaExpr({((), (0,) * m): F(1)})), N)
        assert integral == sigma_route
    ker = kernel_K(d, N)
    blocks = [
        TSeries(N, {mu: F(1, partition_factorial(mu)) for mu in enumerate_partitions(k)})
        for k in range(5)
    ]
    seen = set()
    for x in itertools.product(range(5), repeat=d):
        if sum(x) > 4:
            continue
        seen.add(x)
        assert ker.coefficient(x) == blocks[x[0]] * blocks[x[1]]
    for e in ker.terms:
        if sum(e) <= 4:
            assert e in seen
