"""Tests for series forms and the specialization maps between them."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tcaseries.partitions import (
    as_partition,
    dim_schur,
    enumerate_partitions,
    partitions_up_to,
    sym_character,
)
from tcaseries.grassmann import GrClass, bott_pushforward, gessel_enhanced
from tcaseries import dfinite, grassmann, partitions, polyutil, seriesforms, symfunc, torus
from tcaseries.polyutil import RANK_PRIMES, echelon, nullspace
from tcaseries.symfunc import SCHUR, SymFunc, add, multiply, sym_algebra_character
from tcaseries.symfunc import from_json as symfunc_from_json
from tcaseries.seriesforms import (
    CharPolyForm,
    EnhancedExpr,
    ExpPoly,
    OdeOperator,
    PoincareSeries,
    SigmaExpr,
    TSeries,
    annihilator,
    apply_diff_shadow,
    char_poly_form,
    character_at,
    enhanced_expand,
    enhanced_from_json,
    enhanced_to_json,
    ex_sigma,
    ex_specialize,
    exppoly_from_json,
    exppoly_taylor,
    exppoly_to_json,
    fourier_dual_hilbert,
    hilbert_from_poincare,
    ode_from_json,
    ode_to_json,
    phi_enhanced,
    phi_sigma,
    poincare_series,
    sigma_ddag_check,
    sigma_expand,
    sigma_from_json,
    sigma_recognize,
    sigma_to_json,
    tca_enhanced_exp,
    ts_egf,
    ts_exp,
    tseries_from_json,
    tseries_to_json,
)
from tcaseries.torus import (
    KernelSeries,
    LaurentPoly,
    invariant_dimensions,
)

from oracles import enhanced_expand_series, exp_power_sum_log, sigma_expand_powersum

F = Fraction
HALF = F(1, 2)


def sexpr(*items) -> SigmaExpr:
    """Build a SigmaExpr from (s_partition, sigma_indices, coeff) triples."""
    terms = {}
    for mu, nu, c in items:
        terms[(tuple(mu), tuple(nu))] = terms.get((tuple(mu), tuple(nu)), F(0)) + F(c)
    return SigmaExpr(terms)


# --- TSeries basics ----------------------------------------------------------


def test_tseries_mul_and_truncation():
    a = TSeries(4, {(1,): F(1)})
    b = TSeries(4, {(2,): F(1), (1, 1): HALF})
    p = a * b
    assert p.coeffs == {(2, 1): F(1), (1, 1, 1): HALF}
    assert (a * TSeries(1, {(1,): F(1)})).coeffs == {}  # weight 2 > truncation 1


def test_ts_exp_of_t1():
    e = ts_exp(TSeries(6, {(1,): F(1)}), 6)
    for n in range(7):
        assert e.coeffs[(1,) * n] == F(1, [1, 1, 2, 6, 24, 120, 720][n])
    assert all(all(p == 1 for p in lam) for lam in e.coeffs)
    # exp(sum_k t_k/k) = sum_{|mu| <= 10} t^mu / z_mu
    e = ts_exp(TSeries(10, {(k,): F(1, k) for k in range(1, 11)}), 10)
    assert e.coeffs == exp_power_sum_log(10)


def test_ts_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        ts_exp(TSeries(3, {(): F(1)}), 3)
    # a series truncated at 2 does not determine exp through degree 5
    with pytest.raises(ValueError, match="truncated at 2 < 5"):
        ts_exp(TSeries(2, {(1,): F(1)}), 5)


# an input truncated below the truncation asked of it does not determine the output
UNDER_TRUNCATED_CASES = {
    "ts_exp": lambda: ts_exp(TSeries(2, {(1,): 1}), 5),
    "ex_specialize": lambda: ex_specialize(SymFunc(SCHUR, {(1,): 1}, 2), 5),
    "phi_enhanced": lambda: phi_enhanced(SymFunc(SCHUR, {(1,): 1}, 2), 5),
    "sym_algebra_character": lambda: sym_algebra_character(SymFunc(SCHUR, {(1,): 1}, 2), 5),
    "KernelSeries": lambda: KernelSeries(1, 5, {(1,): TSeries(2, {(1,): 1})}),
}


@pytest.mark.parametrize("case", sorted(UNDER_TRUNCATED_CASES))
def test_under_truncated_input_refused(case):
    with pytest.raises(ValueError, match=r"^input truncated at 2 < 5$"):
        UNDER_TRUNCATED_CASES[case]()


@st.composite
def small_tseries(draw):
    n_terms = draw(st.integers(0, 3))
    coeffs = {}
    parts = [(1,), (2,), (1, 1), (3,), (2, 1)]
    for _ in range(n_terms):
        lam = draw(st.sampled_from(parts))
        coeffs[lam] = F(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return TSeries(5, coeffs)


@settings(max_examples=25, deadline=None)
@given(small_tseries(), small_tseries())
def test_ts_exp_is_homomorphism(a, b):
    total = {lam: a.coeffs.get(lam, 0) + b.coeffs.get(lam, 0) for lam in {*a.coeffs, *b.coeffs}}
    assert ts_exp(a, 5) * ts_exp(b, 5) == ts_exp(TSeries(5, total), 5)


# --- ex and phi on Lambda ----------------------------------------------------


def test_ex_specialize_standard():
    f = SymFunc(SCHUR, {(n,): F(1) for n in range(7)}, 6)
    assert ex_specialize(f, 6) == [F(1, [1, 1, 2, 6, 24, 120, 720][n]) for n in range(7)]


def test_ex_specialize_single_schur():
    f = SymFunc(SCHUR, {(2, 1): F(1)})
    assert ex_specialize(f, 4) == [F(0), F(0), F(0), F(1, 3), F(0)]  # dim M_{21} = 2


def test_ex_specialize_truncation_guard():
    f = SymFunc(SCHUR, {(1,): F(1)}, 3)
    with pytest.raises(ValueError):
        ex_specialize(f, 5)


def test_phi_enhanced_values():
    x2 = phi_enhanced(SymFunc(SCHUR, {(2,): F(1)}), 4)
    assert x2.coeffs == {(2,): F(1), (1, 1): HALF}
    x11 = phi_enhanced(SymFunc(SCHUR, {(1, 1): F(1)}), 4)
    assert x11.coeffs == {(2,): F(-1), (1, 1): HALF}
    p3 = phi_enhanced(SymFunc("p", {(3,): F(1)}), 4)
    assert p3.coeffs == {(3,): F(3)}


# --- sigma expressions -------------------------------------------------------


def test_sigma_expand_sigma1():
    f = sigma_expand(sexpr(((), (1,), 1)), 3)
    assert f.terms == {(1,): F(1), (2,): F(2), (3,): F(3)}
    assert f.truncation == 3


def test_sigma_expand_sigma0_is_sum_of_rows():
    f = sigma_expand(sexpr(((), (0,), 1)), 4)
    assert f.terms == {(n,) if n else (): F(1) for n in range(5)}


def test_sigma_expand_product_matches_symfunc_multiply():
    prod = sigma_expand(sexpr(((), (1, 0), 1)), 5)
    a = sigma_expand(sexpr(((), (0,), 1)), 5)
    b = sigma_expand(sexpr(((), (1,), 1)), 5)
    assert prod == multiply(a, b)


def test_sigma_expand_reads_cached_pieri_rows(monkeypatch):
    # s_mu sigma^nu through degree N is one cached row per (mu, nu, N), built
    # from the row of each prefix of nu and cached Pieri rows: a second
    # expansion at the same N builds no row of either kind and calls no comb
    e = sexpr(((1,), (2, 1), HALF), ((), (1, 1, 0), 1))
    seriesforms._sigma_row.cache_clear()
    seriesforms._pieri_row.cache_clear()
    first = sigma_expand(e, 8)
    built = seriesforms._sigma_row.cache_info().misses, seriesforms._pieri_row.cache_info().misses
    # one row per prefix: (1,) with (), (2,), (2, 1); () with (), (1,), (1, 1), (1, 1, 0)
    assert built[0] == 7
    monkeypatch.setattr(seriesforms, "comb", lambda *args: pytest.fail("comb called"))
    assert sigma_expand(e, 8) == first
    assert (seriesforms._sigma_row.cache_info().misses,
            seriesforms._pieri_row.cache_info().misses) == built
    monkeypatch.undo()
    seriesforms._sigma_row.cache_clear()
    seriesforms._pieri_row.cache_clear()
    assert first == sigma_expand(e, 8) == sigma_expand_powersum(e, 8)


@st.composite
def small_sigma_exprs(draw):
    """s-part of size <= 3, at most 3 sigma factors, indices <= 3."""
    mu = st.integers(0, 3).flatmap(lambda n: st.sampled_from(enumerate_partitions(n)))
    nu = st.lists(st.integers(0, 3), max_size=3).map(tuple)
    c = st.builds(F, st.integers(-3, 3), st.integers(1, 2))
    return SigmaExpr(draw(st.dictionaries(st.tuples(mu, nu), c, min_size=1, max_size=3)))


@settings(max_examples=40, deadline=None)
@given(small_sigma_exprs(), st.integers(0, 10))
def test_sigma_expand_matches_powersum_route(e, N):
    assert sigma_expand(e, N) == sigma_expand_powersum(e, N)


def test_sigma_expr_canonicalization():
    e = SigmaExpr({((1,), (0, 2)): F(1), ((1,), (2, 0)): F(2)})
    assert e.terms == {((1,), (2, 0)): F(3)}


def test_sigma_recognize_roundtrip():
    e = sexpr(((), (2,), 1), ((), (1,), 2), ((), (0,), 1))
    f = sigma_expand(e, 8)
    got = sigma_recognize(f, r_max=1, s_deg_max=0, sigma_wt_max=2)
    assert got == e


def test_sigma_recognize_mixed_term():
    e = sexpr(((1,), (1,), 1), ((), (2,), -3))
    f = sigma_expand(e, 9)
    got = sigma_recognize(f, r_max=1, s_deg_max=1, sigma_wt_max=2)
    assert got == e


def test_sigma_recognize_rejects_non_sigma_series():
    # coefficients 2^n are not polynomial in n, so no sigma expression fits
    f = SymFunc(SCHUR, {(n,): F(2 ** n) for n in range(9)}, 8)
    assert sigma_recognize(f, r_max=1, s_deg_max=0, sigma_wt_max=2) is None


def test_sigma_recognize_rejects_by_rank_mod_p(monkeypatch):
    # [A | -b] has full column rank modulo the first prime: nullspace proves
    # it trivial by one modular elimination, with no exact elimination
    primes = []

    def modular_only(rows, ncols, p=None):
        assert p is not None, "exact elimination of a certified system"
        primes.append(p)
        return echelon(rows, ncols, p)
    monkeypatch.setattr(polyutil, "echelon", modular_only)
    f = SymFunc(SCHUR, {(n,): F(2 ** n) for n in range(9)}, 8)
    assert sigma_recognize(f, r_max=1, s_deg_max=0, sigma_wt_max=2) is None
    assert primes == [RANK_PRIMES[0]]


def test_sigma_recognize_truncation_guard():
    f = SymFunc(SCHUR, {(1,): F(1)}, 4)
    with pytest.raises(ValueError):
        sigma_recognize(f, r_max=1, s_deg_max=1, sigma_wt_max=2)


@st.composite
def small_matrix(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.builds(F, st.integers(-2, 2), st.integers(1, 2))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


def _apply(A, x):
    return [sum(a * v for a, v in zip(row, x)) for row in A]


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_nullspace_basis_and_augmented_solve(A, x0):
    n = len(A[0])
    basis = nullspace(A, n)
    # each vector's own free column is its last non-zero entry
    free = [max(j for j, v in enumerate(vec) if v) for vec in basis]
    assert free == sorted(set(free)) and len(free) >= n - len(A)
    for vec in basis:
        assert _apply(A, vec) == [0] * len(A)
        assert [vec[fc] for fc in free] == [int(vec is other) for other in basis]
    # sigma_recognize's solve: A x = b is read off the nullspace of [A | -b]
    b = _apply(A, x0[:n])
    aug = nullspace([row + [-bi] for row, bi in zip(A, b)], n + 1)
    assert aug[-1][-1] == 1
    assert _apply(A, aug[-1][:n]) == b


@pytest.mark.parametrize("N", range(9))
def test_sigma_ddag_inverse_series(N):
    assert sigma_ddag_check(N)


def test_schur_row_column_inverse_series():
    # (sum_n s_n u^n) (sum_n (-1)^n s_{1^n} u^n) = 1, checked to degree 8
    N = 8
    total = {}
    for m in range(N + 1):
        acc = SymFunc(SCHUR, {}, N)
        for a in range(m + 1):
            fa = SymFunc(SCHUR, {(a,) if a else (): F(1)}, N)
            fb = SymFunc(SCHUR, {(1,) * (m - a): F(-1) ** (m - a)}, N)
            acc = add(acc, multiply(fa, fb))
        total[m] = acc.terms
    assert total[0] == {(): F(1)}
    assert all(total[m] == {} for m in range(1, N + 1))


# --- ex_sigma / phi_sigma and the commuting squares --------------------------


def test_ex_sigma_rank_one_example():
    h = ex_sigma(sexpr(((), (2,), 1), ((), (1,), 2), ((), (0,), 1)))
    assert h.parts == {1: (F(1), F(2), HALF)}


def test_ex_sigma_degrees_and_layers():
    h = ex_sigma(sexpr(((1,), (1,), 1), ((), (1, 1), 1)))
    assert h.parts == {1: (F(0), F(0), F(1)), 2: (F(0), F(0), F(1))}


def test_phi_sigma_sigma2():
    e = phi_sigma(sexpr(((), (2,), 1)))
    assert e.parts == {1: {((), (2,)): F(1), ((), (1, 1)): HALF}}


def test_phi_sigma_s1_sigma0():
    e = phi_sigma(sexpr(((1,), (0,), 1)))
    assert e.parts == {1: {((1,), ()): F(1)}}


SQUARE_CASES = [
    sexpr(((), (0,), 1)),
    sexpr(((), (1,), 1)),
    sexpr(((), (2,), 1)),
    sexpr(((1,), (1,), 1)),
    sexpr(((), (1, 1), 1)),
    sexpr(((2, 1), (2,), 1), ((1,), (1, 0), -2)),
]


@pytest.mark.parametrize("e", SQUARE_CASES)
def test_hilbert_square_commutes(e):
    N = 6
    assert exppoly_taylor(ex_sigma(e), N) == ex_specialize(sigma_expand(e, N), N)


@pytest.mark.parametrize("e", SQUARE_CASES)
def test_enhanced_square_commutes(e):
    N = 6
    assert enhanced_expand(phi_sigma(e), N) == phi_enhanced(sigma_expand(e, N), N)


def test_enhanced_expand_pure_exponential():
    from tcaseries.partitions import partition_factorial
    e = EnhancedExpr({3: {((), ()): F(1)}})
    s = enhanced_expand(e, 4)
    for lam in partitions_up_to(4):
        assert s.coeffs[lam] == F(3 ** len(lam)) / partition_factorial(lam)
    assert ts_egf(s) == [F(3 ** n, [1, 1, 2, 6, 24][n]) for n in range(5)]


def _partitions(top):
    return st.lists(st.integers(1, top), max_size=3).map(lambda p: tuple(sorted(p, reverse=True)))


@st.composite
def enhanced_exprs(draw, N=None):
    """(e, N): N <= 7 unless given, layers k = 0..3, coefficients of denominator
    up to 6, t-parts of weight up to 3(N + 2), so some lie above N, and T_j with j <= N + 1."""
    N = draw(st.integers(0, 7)) if N is None else N
    term = st.tuples(_partitions(N + 2), _partitions(N + 1))
    c = st.builds(F, st.integers(-5, 5), st.integers(1, 6))
    layer = st.dictionaries(term, c, min_size=1, max_size=3)
    return EnhancedExpr(draw(st.dictionaries(st.integers(0, 3), layer, max_size=3))), N


@settings(max_examples=80, deadline=None)
@given(enhanced_exprs())
def test_enhanced_expand_matches_series_products(case):
    e, N = case
    assert enhanced_expand(e, N) == enhanced_expand_series(e, N)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9).flatmap(lambda N: st.lists(enhanced_exprs(N=N), min_size=2, max_size=2)))
def test_enhanced_expand_on_warm_scatter_tables_matches_series_products(cases):
    # two expressions of one truncation: the second reads the rows of N! exp(k T_0)
    # that the first built, and the rows it adds
    for e, N in cases:
        assert enhanced_expand(e, N) == enhanced_expand_series(e, N)


def test_exp_table_builds_only_the_rows_it_applies():
    # t_1 T_2 through weight 6 is sum_{n=2..5} binom(n, 2) t_n t_1: four rows of
    # N! exp(2 T_0), one per t-monomial, each built by one multiset_mul
    seriesforms._exp_rows.cache_clear()
    e = EnhancedExpr({2: {((1,), (2,)): F(1)}})
    assert enhanced_expand(e, 6) == enhanced_expand_series(e, 6)
    assert seriesforms._exp_rows.cache_info().currsize == 1
    rows = seriesforms._exp_rows(2, 6)
    assert set(rows) == {polyutil.multiset_code((n, 1))[1] for n in range(2, 6)}
    # the row of t_n t_1 holds t_n t_1 t^nu for every nu with |nu| <= 5 - n
    parts, _ = partitions.canonical_positions(6)
    for n in range(2, 6):
        row = rows[polyutil.multiset_code((n, 1))[1]]
        assert sorted(parts[i] for i, _ in row) == sorted(
            tuple(sorted((n, 1) + nu, reverse=True)) for nu in partitions_up_to(5 - n))


def test_terms_sharing_a_t_part_expand_it_once():
    # the T-monomial's expansion is cached per (T-part, top, trunc), not per term
    seriesforms._tails.cache_clear()
    e = EnhancedExpr({0: {((), (2, 1)): F(1), ((1,), (2, 1)): HALF, ((2, 1), (2, 1)): F(3)},
                      2: {((1, 1), (2, 1)): F(-1, 3)}})
    got = enhanced_expand(e, 7)
    assert seriesforms._tails.cache_info()[:2] == (3, 1)  # (hits, misses)
    assert got == enhanced_expand_series(e, 7)


def test_tails_carry_the_weight_of_each_code():
    # multiset_mul carries each product's weight, which the truncation break
    # relies on, so no code is decoded to learn it
    for Tpart in ((2, 1), (1, 1, 0), (3,)):
        triples = seriesforms._tails(Tpart, tuple(range(8)), 7)
        assert list(triples) == sorted(triples)
        assert all(w == sum(polyutil.multiset_parts(code)) <= 7 for w, code, _ in triples)


def test_enhanced_expand_forms_no_partition_keyed_product(monkeypatch):
    # enhanced_expand multiplies multiset codes from end to end: neither the
    # partition-keyed adapter symfunc._p_mul_terms nor TSeries.__mul__ runs
    e = EnhancedExpr({0: {((1,), (2, 1)): HALF, ((), ()): F(2)}, 3: {((2,), (1, 1)): F(-1, 3)}})
    seriesforms._tails.cache_clear()
    seriesforms._exp_rows.cache_clear()
    calls = []
    for owner, name in ((symfunc, "_p_mul_terms"), (TSeries, "__mul__")):
        def counted(*args, _product=getattr(owner, name), _name=name):
            calls.append(_name)
            return _product(*args)
        monkeypatch.setattr(owner, name, counted)
    got = enhanced_expand(e, 8)
    assert calls == []
    monkeypatch.undo()
    assert got == enhanced_expand_series(e, 8)


def test_expansions_refuse_negative_truncation(monkeypatch):
    # refused at entry with the message of TSeries, before any kernel runs
    def kernel(*args):
        raise AssertionError("a kernel ran at negative truncation")

    for name in ("over_common_denominator", "_substitute_tails", "_sigma_mul", "_exp_rows",
                 "canonical_positions"):
        monkeypatch.setattr(seriesforms, name, kernel)
    e = EnhancedExpr({0: {((), ()): F(1)}, 1: {((1,), (2,)): HALF}})
    for route, arg in ((enhanced_expand, e), (sigma_expand, sexpr(((1,), (1,), HALF)))):
        with pytest.raises(ValueError, match="truncation must be >= 0"):
            route(arg, -1)
    monkeypatch.undo()
    assert enhanced_expand(e, 0) == TSeries(0, {(): F(1)})
    assert sigma_expand(sexpr(((), (0,), HALF)), 0) == SymFunc(SCHUR, {(): HALF}, 0)


# Every public entry that takes a size (a dimension, rank, truncation, count
# or degree cap) reads it through polyutil.size: a size below its least value
# is refused by name, rather than answering [] or deferring the error to a
# later call; an integral 2.0 or "2" gives the result for 2; 2.5 is refused.
# Each entry maps to (the size's name, a call taking that size).
_P1 = torus.power_sum_lp(1, 2)
_S1 = SymFunc(SCHUR, {(1,): 1})
_SIGMA_9 = sigma_expand(SigmaExpr({((1,), (0,)): 1}), 9)
_H = ExpPoly({1: (Fraction(1),)})
_G = grassmann
_NEGATIVE_SIZE_ENTRIES = {
    "TSeries": ("truncation", lambda n: TSeries(n, {(1,): 1})),
    "SymFunc": ("truncation", lambda n: SymFunc(SCHUR, {(1,): 1}, n)),
    "sigma_expand": ("truncation", lambda n: sigma_expand(SigmaExpr({((1,), (0,)): 1}), n)),
    "enhanced_expand": ("truncation", lambda n: enhanced_expand(
        EnhancedExpr({1: {((1,), (1,)): 1}}), n)),
    "gessel_enhanced": ("truncation", lambda n: gessel_enhanced(2, 1, n)),
    "gessel_enhanced d": ("d", lambda n: gessel_enhanced(n, 1, 3)),
    "gessel_enhanced r": ("r", lambda n: gessel_enhanced(3, n, 3)),
    "phi_enhanced": ("truncation", lambda n: phi_enhanced(_S1, n)),
    "sym_degree_characters": ("truncation", lambda n: torus.sym_degree_characters(_P1, n)),
    "fourier_dual_hilbert": ("d", lambda n: fourier_dual_hilbert(_H, n)),
    "kernel_K": ("truncation", lambda n: torus.kernel_K(2, n)),
    "kernel_K d": ("d", lambda n: torus.kernel_K(n, 2)),
    "enhanced_from_equivariant": ("truncation", lambda n: torus.enhanced_from_equivariant(
        torus.sym_degree_characters(_P1, 3), 2, n)),
    "enhanced_from_equivariant d": ("d", lambda n: torus.enhanced_from_equivariant(
        torus.sym_degree_characters(_P1, 3), n, 3)),
    "PoincareSeries": ("truncation", lambda n: PoincareSeries(2, n, {0: (Fraction(1),)})),
    "PoincareSeries d": ("d", lambda n: PoincareSeries(n, 2, {0: (Fraction(1),)})),
    "ex_specialize": ("truncation", lambda n: ex_specialize(_S1, n)),
    "exppoly_taylor": ("truncation", lambda n: exppoly_taylor(_H, n)),
    "ts_exp": ("truncation", lambda n: ts_exp(TSeries(3, {(1,): 1}), n)),
    "sigma_ddag_check": ("truncation", sigma_ddag_check),
    "CharPolyForm": ("m", lambda n: CharPolyForm(n, {1: {((1,), (1,)): 1}})),
    "char_poly_form": ("m", lambda n: char_poly_form(EnhancedExpr({1: {((1,), ()): 1}}), n)),
    "tca_enhanced_exp": ("truncation", lambda n: tca_enhanced_exp(
        TSeries(2, {(1,): 1}), 1, n)),
    "tca_enhanced_exp d": ("d", lambda n: tca_enhanced_exp(TSeries(3, {(2,): 1}), n, 3)),
    "poincare_series": ("truncation", lambda n: poincare_series([(0, _S1)], 1, n)),
    "poincare_series d": ("d", lambda n: poincare_series([(0, _S1)], n, 2)),
    "sigma_recognize r_max": ("r_max", lambda n: sigma_recognize(_SIGMA_9, n, 1, 1)),
    "sigma_recognize s_deg_max": ("s_deg_max", lambda n: sigma_recognize(_SIGMA_9, 1, n, 1)),
    "sigma_recognize sigma_wt_max": ("sigma_wt_max", lambda n: sigma_recognize(
        _SIGMA_9, 1, 1, n)),
    "enumerate_partitions": ("n", partitions.enumerate_partitions),
    "partitions_up_to": ("n", partitions.partitions_up_to),
    "partitions_in_box rows": ("rows", lambda n: partitions.partitions_in_box(n, 2)),
    "partitions_in_box cols": ("cols", lambda n: partitions.partitions_in_box(2, n)),
    "dim_schur": ("d", lambda n: dim_schur((1,), n)),
    "kostka_and_inverse": ("n", partitions.kostka_and_inverse),
    "degree_slice": ("n", lambda n: symfunc.degree_slice(
        SymFunc(SCHUR, {(2,): 1, (1,): 1}), n)),
    "sym_algebra_character": ("truncation", lambda n: sym_algebra_character(_S1, n)),
    "LaurentPoly": ("d", lambda n: torus.LaurentPoly(n, {(1, 0): 1})),
    "delta_squared": ("d", torus.delta_squared),
    "weyl_inner": ("d", lambda n: torus.weyl_inner(_P1, _P1, n)),
    "power_sum_lp k": ("k", lambda n: torus.power_sum_lp(n, 2)),
    "power_sum_lp d": ("d", lambda n: torus.power_sum_lp(1, n)),
    "schur_lp": ("d", lambda n: torus.schur_lp((1,), n)),
    "invariant_dimensions": ("n_max", lambda n: torus.invariant_dimensions(
        [("sl", 2)], _P1, n)),
    "invariant_dimensions rank": ("factor rank", lambda n: torus.invariant_dimensions(
        [("gl", n)], _P1, 4)),
    "KernelSeries": ("truncation", lambda n: torus.KernelSeries(1, n)),
    "KernelSeries d": ("d", lambda n: torus.KernelSeries(n, 1)),
    "GrClass d": ("d", lambda n: GrClass(n, 1, {(1,): 1})),
    "GrClass r": ("r", lambda n: GrClass(3, n, {(1,): 1})),
    "bott_pushforward d": ("d", lambda n: bott_pushforward(n, 1, (1,), ())),
    "bott_pushforward r": ("r", lambda n: bott_pushforward(3, n, (1,), ())),
    "m_shifted_class": ("r", lambda n: _G.m_shifted_class((1,), n)),
    "pushforward_module_character": ("truncation", lambda n: (
        _G.pushforward_module_character(3, 1, (), n))),
    "pushforward_module_character d": ("d", lambda n: (
        _G.pushforward_module_character(n, 1, (), 2))),
    "pushforward_module_character r": ("r", lambda n: (
        _G.pushforward_module_character(3, n, (), 2))),
    "detring_formal_character d": ("d", lambda n: _G.detring_formal_character(n, 1)),
    "detring_formal_character r": ("r", lambda n: _G.detring_formal_character(3, n)),
    "rank1_enhanced_closed": ("d", _G.rank1_enhanced_closed),
    "needed_length max_order": ("max_order", lambda n: dfinite.needed_length(n, 2)),
    "needed_length max_degree": ("max_degree", lambda n: dfinite.needed_length(2, n)),
    "guess_ode max_order": ("max_order", lambda n: dfinite.guess_ode([1] * 40, n, 2)),
    "guess_ode max_degree": ("max_degree", lambda n: dfinite.guess_ode([1] * 40, 2, n)),
}


@pytest.mark.parametrize("name", list(_NEGATIVE_SIZE_ENTRIES))
def test_negative_sizes_are_refused_at_every_entry(name):
    size, call = _NEGATIVE_SIZE_ENTRIES[name]
    with pytest.raises(ValueError, match=f"^{size} must be >= [01]$"):
        call(-1)


@pytest.mark.parametrize("name", list(_NEGATIVE_SIZE_ENTRIES))
def test_integral_sizes_give_the_result_for_the_int(name):
    _, call = _NEGATIVE_SIZE_ENTRIES[name]
    want = call(2)
    for given in (2.0, "2"):
        got = call(given)
        assert got == want and repr(got) == repr(want), given


@pytest.mark.parametrize("name", list(_NEGATIVE_SIZE_ENTRIES))
def test_non_integral_sizes_are_refused(name):
    with pytest.raises(ValueError, match="is not an integer"):
        _NEGATIVE_SIZE_ENTRIES[name][1](2.5)


# --- Hilbert series shapes ---------------------------------------------------


def test_fourier_dual_hilbert():
    h = ExpPoly({2: (F(1), F(1))})  # (1 + t) e^{2t}
    dual = fourier_dual_hilbert(h, 3)
    assert dual.parts == {1: (F(1), F(-1))}
    assert fourier_dual_hilbert(dual, 3) == h  # involution (even-degree parts here)
    with pytest.raises(ValueError):
        fourier_dual_hilbert(h, 1)


def test_annihilator_and_shadow():
    h = ExpPoly({0: (F(1),), 2: (F(0), F(1))})  # 1 + t e^{2t}
    assert annihilator(h) == (0, 2, 2)
    killed = h
    for c in (0, 2, 2):
        killed = apply_diff_shadow(killed, c)
    assert killed.is_zero()


def test_apply_diff_shadow_basic():
    h = ExpPoly({1: (F(0), F(1))})  # t e^t
    out = apply_diff_shadow(h, 0)  # d/dt: (1 + t) e^t
    assert out.parts == {1: (F(1), F(1))}


def test_exppoly_taylor():
    h = ExpPoly({0: (F(1),), 1: (F(0), F(1))})  # 1 + t e^t
    # coefficients of 1 + sum t^{n}/ (n-1)!
    assert exppoly_taylor(h, 4) == [F(1), F(1), F(1), HALF, F(1, 6)]


def test_poincare_koszul_rank_one():
    # A = Sym(C^1 x V): Tor_n = wedge^n(C^1 x V) has character s_{1^n}, so
    # P(t, 1) e^{t} telescopes to 1.
    N = 8
    resolution = [(n, SymFunc(SCHUR, {(1,) * n: F(1)})) for n in range(N + 1)]
    P = poincare_series(resolution, 1, N)
    assert P.parts[0] == (F(1),)
    assert P.parts[3] == (F(0), F(0), F(0), F(-1, 6))
    hb = hilbert_from_poincare(P)
    assert hb == [F(1)] + [F(0)] * N


# --- umbral evaluation and character polynomials -----------------------------


def brute_trace(ch_terms: dict, mu) -> int:
    """tr(c_mu) from a Schur expansion of the degree-|mu| character."""
    n = sum(mu)
    tot = F(0)
    for lam, c in ch_terms.items():
        if sum(lam) == n:
            tot += c * sym_character(lam, mu)
    assert tot.denominator == 1
    return int(tot)


def test_character_at_tensor_powers():
    # the algebra with Theta = sigma_0^d has degree-n piece (C^d)^{tensor n};
    # traces are d^{l(mu)}, and the Schur-Weyl sum over partitions agrees
    for d in (2, 3):
        form = char_poly_form(phi_sigma(sexpr(((), (0,) * d, 1))), d)
        for n in range(7):
            for mu in enumerate_partitions(n):
                want = d ** len(mu)
                assert character_at(form, mu) == want
                schur_weyl = sum(
                    dim_schur(lam, d) * sym_character(lam, mu)
                    for lam in enumerate_partitions(n))
                assert schur_weyl == want


@pytest.mark.parametrize("d", [2, 3, 4])
def test_character_at_matches_schur_route(d):
    # binomial sigma expression: q_1 carries tail sums up to T_{d-1}
    from math import comb
    e = sexpr(*((() , (k,), comb(d - 1, k)) for k in range(d)))
    form = char_poly_form(phi_sigma(e), d)
    assert form.threshold == -1
    ch = sigma_expand(e, 6)
    for n in range(7):
        for mu in enumerate_partitions(n):
            assert character_at(form, mu) == brute_trace(ch.terms, mu)


def test_character_at_linear_form_value():
    # (1 + T_1) e^{T_0}: trace at any mu is 1 + |mu|
    e = sexpr(((), (0,), 1), ((), (1,), 1))
    form = char_poly_form(phi_sigma(e), 2)
    for mu in [(1,), (2,), (2, 1), (3, 3, 1), (5,)]:
        assert character_at(form, mu) == sum(mu) + 1


def test_character_at_large_parts_stays_fast():
    # the tails run over the distinct parts of lam alone, coded by position,
    # so neither the work nor the codes grow with the parts themselves
    mu = (10 ** 5, 10 ** 5 - 1, 7, 7)
    start = time.perf_counter()
    linear = char_poly_form(phi_sigma(sexpr(((), (0,), 1), ((), (1,), 1))), 2)
    assert character_at(linear, (10 ** 5,)) == 10 ** 5 + 1
    assert character_at(linear, mu) == sum(mu) + 1
    # T_1^2 e^{2 T_0}: 2^{l(mu) - 2} (|mu|^2 - sum mu_i^2), as at small mu
    square = char_poly_form(phi_sigma(sexpr(((), (1, 1), 1))), 3)
    for nu in ((2, 1), (3, 1, 1), (4, 2, 2, 1)):
        assert character_at(square, nu) == 2 ** len(nu) * (sum(nu) ** 2 - sum(x * x for x in nu)) // 4
    assert character_at(square, mu) == 2 ** len(mu) * (sum(mu) ** 2 - sum(x * x for x in mu)) // 4
    assert time.perf_counter() - start < 2


def test_char_poly_form_threshold_and_bounds():
    with pytest.raises(ValueError):
        CharPolyForm(2, {1: {((), (1, 1)): F(1)}})  # T-degree 2 > 1*(2-1)
    with pytest.raises(ValueError):
        CharPolyForm(2, {1: {((1, 2), ()): F(1)}})  # t key not a partition
    form = CharPolyForm(3, {1: {((), ()): F(1)}}, threshold=2)
    with pytest.raises(ValueError):
        character_at(form, (1, 1))  # |lam| = 2 not above threshold
    assert character_at(form, (2, 1)) == 1
    # the threshold is a size read through polyutil.size, from -1 (no i = 0 layer)
    assert CharPolyForm(3, {}, "2") == CharPolyForm(3, {}, 2.0) == CharPolyForm(3, {}, 2)
    assert CharPolyForm(3).threshold == -1
    with pytest.raises(ValueError, match="^threshold must be >= -1$"):
        CharPolyForm(3, {}, -2)


# --- tca exponentials --------------------------------------------------------


def test_tca_enhanced_exp_degree_one():
    got = tca_enhanced_exp(TSeries(8, {(1,): F(1)}), 1, 8)
    want = phi_enhanced(SymFunc(SCHUR, {(n,): F(1) for n in range(9)}, 8), 8)
    assert got == want


@pytest.mark.parametrize("gen", ["sym2", "wedge2", "tensor2"])
def test_tca_enhanced_exp_matches_plethysm_route(gen):
    N = 6
    if gen == "sym2":
        chv = SymFunc(SCHUR, {(2,): F(1)})
    elif gen == "wedge2":
        chv = SymFunc(SCHUR, {(1, 1): F(1)})
    else:
        one = SymFunc(SCHUR, {(1,): F(1)})
        chv = multiply(one, one)
    hv = phi_enhanced(chv, N)
    got = tca_enhanced_exp(hv, 2, N)
    want = phi_enhanced(sym_algebra_character(chv, N), N)
    assert got == want


def test_tca_enhanced_exp_perfect_matchings():
    # EGF of Sym(wedge^2): exp(t^2/2); n! times [t^n] counts perfect matchings
    N = 10
    hv = phi_enhanced(SymFunc(SCHUR, {(1, 1): F(1)}), N)
    egf = ts_egf(tca_enhanced_exp(hv, 2, N))
    fact = 1
    double = [1, 0, 1, 0, 3, 0, 15, 0, 105, 0, 945]
    for n in range(N + 1):
        fact = fact * n if n else 1
        assert egf[n] * fact == double[n]


def test_tca_enhanced_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        tca_enhanced_exp(TSeries(6, {}), 2, 6)
    with pytest.raises(ValueError):
        tca_enhanced_exp(TSeries(6, {(1,): F(1), (2,): F(1)}), 2, 6)


# --- JSON wire forms ---------------------------------------------------------


def test_sigma_json_roundtrip():
    e = sexpr(((2, 1), (2, 0), 1), ((), (1,), -HALF))
    obj = sigma_to_json(e)
    assert obj == {"terms": {"[]": {"[1]": "-1/2"}, "[2,1]": {"[2,0]": "1"}}}
    assert sigma_from_json(obj) == e


def test_exppoly_json_roundtrip():
    h = ExpPoly({0: (F(1),), 2: (F(0), F(-1, 3))})
    obj = exppoly_to_json(h)
    assert obj == {"0": ["1"], "2": ["0", "-1/3"]}
    assert exppoly_from_json(obj) == h


def test_tseries_json_roundtrip():
    s = TSeries(3, {(2, 1): HALF, (1,): F(-2)})
    obj = tseries_to_json(s)
    assert obj == {"truncation": 3, "coeffs": {"[1]": "-2", "[2,1]": "1/2"}}
    assert tseries_from_json(obj) == s


def test_enhanced_json_roundtrip():
    e = phi_sigma(sexpr(((1,), (2,), 1)))
    obj = enhanced_to_json(e)
    assert set(obj["parts"]) == {"1"}
    assert enhanced_from_json(obj) == e


def test_ode_json_roundtrip():
    op = OdeOperator(((F(-4), F(0), F(0)), (F(0), F(3)), (F(0), F(0), F(1))))
    assert ode_from_json(ode_to_json(op)) == op
    assert op.order == 2 and op.degree == 2


# --- sparse term dicts: one merge rule for every constructor and reader -------

_ONE_TWICE = {"[1]": "1", "[1,0]": "1"}  # one partition in two spellings

MERGE_CASES = {
    "SymFunc": lambda: SymFunc(SCHUR, {(1,): 1, (1, 0): 1}).terms,
    "TSeries": lambda: TSeries(3, {(1,): 1, (1, 0): 1}).coeffs,
    "SigmaExpr": lambda: SigmaExpr({((1,), ()): 1, ((1, 0), ()): 1}).terms,
    "EnhancedExpr": lambda: EnhancedExpr({1: {((1,), ()): 1, ((1, 0), ()): 1}}).parts[1],
    "CharPolyForm": lambda: CharPolyForm(2, {1: {((1,), ()): 1, ((1, 0), ()): 1}}).entries[1],
    "GrClass": lambda: GrClass(3, 1, {(1,): 1, (1, 0): 1}).terms,
    "symfunc.from_json": lambda: symfunc_from_json(
        {"basis": "s", "truncation": None, "terms": _ONE_TWICE}).terms,
    "sigma_from_json": lambda: sigma_from_json(
        {"terms": {"[1]": {"[0]": "1"}, "[1,0]": {"[0]": "1"}}}).terms,
    "tseries_from_json": lambda: tseries_from_json({"truncation": 3, "coeffs": _ONE_TWICE}).coeffs,
    "enhanced_from_json": lambda: enhanced_from_json({"parts": {"1": [
        {"t": t, "T": "[]", "coeff": "1"} for t in _ONE_TWICE]}}).parts[1],
}


@pytest.mark.parametrize("case", sorted(MERGE_CASES))
def test_equal_keys_merge(case):
    assert list(MERGE_CASES[case]().values()) == [2]


# "1" and "01" (or (1,) and ("01",)) name one layer: its values add up
_TT_ONE = {((1,), ()): 1}

LAYER_MERGE_CASES = {
    "ExpPoly": (lambda: ExpPoly({1: (1,), "01": (2,)}).parts, {1: (3,)}),
    "PoincareSeries": (lambda: PoincareSeries(2, 3, {1: (1,), "01": (2,)}).parts, {1: (3,)}),
    "EnhancedExpr": (lambda: EnhancedExpr({1: _TT_ONE, "01": _TT_ONE}).parts,
                     {1: {((1,), ()): 2}}),
    "CharPolyForm": (lambda: CharPolyForm(2, {1: _TT_ONE, "01": _TT_ONE}).entries,
                     {1: {((1,), ()): 2}}),
    "KernelSeries": (lambda: KernelSeries(1, 2, {(1,): TSeries(2, {(1,): 1}),
                                                 ("01",): TSeries(2, {(1,): 1})}).terms,
                     {(1,): TSeries(2, {(1,): 2})}),
    "exppoly_from_json": (lambda: exppoly_from_json({"1": ["1"], "01": ["2"]}).parts, {1: (3,)}),
    "enhanced_from_json": (lambda: enhanced_from_json({"parts": {
        k: [{"t": "[1]", "T": "[]", "coeff": "1"}] for k in ("1", "01")}}).parts,
        {1: {((1,), ()): 2}}),
}


@pytest.mark.parametrize("case", sorted(LAYER_MERGE_CASES))
def test_equal_layer_keys_add(case):
    build, want = LAYER_MERGE_CASES[case]
    assert build() == want


def test_cancelling_layers_are_dropped():
    assert ExpPoly({1: (1,), "01": (-1,), 2: (1,)}).parts == {2: (1,)}
    assert EnhancedExpr({1: {((1,), ()): 1}, "01": {((1,), ()): -1}}).parts == {}


def test_kernel_output_validates_no_key(monkeypatch):
    # kernels build their keys canonical and pass them on unvalidated; the
    # validator runs where a value enters, as in the inputs built here
    e = EnhancedExpr({0: {((1,), (2,)): HALF}, 2: {((2, 1), (1, 1)): F(-3)}})
    sigma = sexpr(((2,), (1, 0), HALF), ((1, 1), (3,), F(2)), ((), (2, 2), F(-1)))
    calls = []
    for module in (partitions, symfunc, seriesforms, grassmann, torus):
        monkeypatch.setattr(module, "as_partition",
                            lambda parts, _check=as_partition: calls.append(parts) or _check(parts))
    gessel_enhanced(5, 2, 9), enhanced_expand(e, 8), sigma_expand(sigma, 9), phi_sigma(sigma)
    assert calls == []


# keys are validated before zero terms are dropped
BAD_KEY_CASES = {
    "SymFunc": lambda: SymFunc(SCHUR, {(1, 2): 0}),
    "TSeries": lambda: TSeries(3, {(1, 2): 0}),
    "SigmaExpr": lambda: SigmaExpr({((1, 2), ()): 0}),
    "EnhancedExpr": lambda: EnhancedExpr({1: {((), (1, 2)): 0}}),
    "CharPolyForm": lambda: CharPolyForm(2, {1: {((1, 2), ()): 0}}),
    "GrClass": lambda: GrClass(3, 1, {(1, 1): 0}),
    "LaurentPoly": lambda: LaurentPoly(2, {(1,): 0}),
}


@pytest.mark.parametrize("case", sorted(BAD_KEY_CASES))
def test_zero_term_key_still_validated(case):
    with pytest.raises(ValueError):
        BAD_KEY_CASES[case]()


# int() would truncate each of these to a valid key or truncation
NON_INTEGER_CASES = {
    "as_partition": lambda: as_partition((1.5,)),
    "SigmaExpr": lambda: SigmaExpr({((), (0.5,)): 1}),
    "LaurentPoly": lambda: LaurentPoly(1, {(1.5,): 1}),
    "KernelSeries": lambda: KernelSeries(1, 2, {(0.5,): TSeries(2, {(1,): 1})}),
    "SymFunc truncation": lambda: SymFunc(SCHUR, {(1,): 1}, 2.5),
    "TSeries truncation": lambda: TSeries(2.5, {(1,): 1}),
    "invariant_dimensions rank": lambda: invariant_dimensions([("gl", 1.5)], LaurentPoly(1), 2),
    "bott_pushforward weight": lambda: bott_pushforward(3, 1, (1.5,), ()),
    "ExpPoly layer": lambda: ExpPoly({1.5: (1,)}),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_CASES))
def test_non_integers_refused_not_truncated(case):
    with pytest.raises(ValueError):
        NON_INTEGER_CASES[case]()


# a JSON float is the binary double nearest the decimal written (0.1 reads as
# 3602879701896397/36028797018963968) and bool is an int subclass: coefficients
# and integer fields refuse both, and integer fields refuse fractions; a
# truncation also refuses negatives
BAD_NUMBER_CASES = {
    "symfunc coefficient float": lambda: symfunc_from_json(
        {"basis": "s", "truncation": 2, "terms": {"[1]": 0.1}}),
    "symfunc truncation float": lambda: symfunc_from_json(
        {"basis": "s", "truncation": 2.5, "terms": {"[1]": "1"}}),
    "symfunc truncation integral float": lambda: symfunc_from_json(
        {"basis": "s", "truncation": 1.0, "terms": {"[1]": "1"}}),
    "symfunc truncation bool": lambda: symfunc_from_json(
        {"basis": "s", "truncation": True, "terms": {"[1]": "1"}}),
    "symfunc truncation fraction": lambda: symfunc_from_json(
        {"basis": "s", "truncation": "3/2", "terms": {"[1]": "1"}}),
    "symfunc truncation negative": lambda: symfunc_from_json(
        {"basis": "s", "truncation": -3, "terms": {"[1]": "1"}}),
    "sigma coefficient float": lambda: sigma_from_json({"terms": {"[]": {"[0]": 0.5}}}),
    "tseries coefficient float": lambda: tseries_from_json(
        {"truncation": 2, "coeffs": {"[1]": 0.1}}),
    "tseries truncation integral float": lambda: tseries_from_json(
        {"truncation": 2.0, "coeffs": {}}),
    "tseries truncation bool": lambda: tseries_from_json({"truncation": True, "coeffs": {}}),
    "tseries truncation fraction": lambda: tseries_from_json({"truncation": "5/2", "coeffs": {}}),
    "enhanced coefficient float": lambda: enhanced_from_json(
        {"parts": {"1": [{"t": "[1]", "T": "[]", "coeff": 0.1}]}}),
    "ode coefficient float": lambda: ode_from_json([["1", 0.5]]),
    "charpoly threshold text": lambda: CharPolyForm(2, {}, "x"),
    "charpoly threshold float": lambda: CharPolyForm(2, {}, 2.5),
    "charpoly threshold below -1": lambda: CharPolyForm(2, {}, -7),
    # bool is an int subclass, and no size
    "charpoly threshold bool": lambda: CharPolyForm(2, {}, True),
    "size bool": lambda: polyutil.size(True, "d"),
    # neither a number nor a numeral: a ValueError, not the TypeError of int()
    "size None": lambda: polyutil.size(None, "d"),
    "needed_length None": lambda: dfinite.needed_length(None, 2),
    "guess_ode list order": lambda: dfinite.guess_ode([1] * 40, [2], 2),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBER_CASES))
def test_json_readers_refuse_inexact_numbers(case):
    with pytest.raises(ValueError):
        BAD_NUMBER_CASES[case]()
