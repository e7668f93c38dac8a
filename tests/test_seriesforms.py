"""Tests for series forms and the specialization maps between them."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tcaseries.partitions import (
    dim_schur,
    enumerate_partitions,
    partitions_up_to,
    sym_character,
)
from tcaseries.grassmann import GrClass, grclass_from_json
from tcaseries.polyutil import nullspace
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
    umbral_substitute,
)
from tcaseries.torus import KernelSeries, LaurentPoly, lp_from_json

from oracles import exp_power_sum_log

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
        assert e.coeff((1,) * n) == F(1, [1, 1, 2, 6, 24, 120, 720][n])
    assert all(all(p == 1 for p in lam) for lam in e.coeffs)
    # exp(sum_k t_k/k) = sum_{|mu| <= 10} t^mu / z_mu
    e = ts_exp(TSeries(10, {(k,): F(1, k) for k in range(1, 11)}), 10)
    assert e.coeffs == exp_power_sum_log(10)


def test_ts_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        ts_exp(TSeries(3, {(): F(1)}), 3)


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
    assert ts_exp(a, 5) * ts_exp(b, 5) == ts_exp(a + b, 5)


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


def test_sigma_expr_canonicalization():
    e = SigmaExpr({((1,), (0, 2)): F(1), ((1,), (2, 0)): F(2)})
    assert e.terms == {((1,), (2, 0)): F(3)}
    assert e.sigma_degree() == 2


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


def test_sigma_ddag_inverse_series():
    assert sigma_ddag_check(6)


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
        assert s.coeff(lam) == F(3 ** len(lam)) / partition_factorial(lam)
    assert ts_egf(s) == [F(3 ** n, [1, 1, 2, 6, 24][n]) for n in range(5)]


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


def test_umbral_substitute_t1_squared():
    out = umbral_substitute({(1, 1): F(1)}, 1)
    assert out == {(1, 1): F(1), (1,): F(-1)}  # a_1 (a_1 - 1)


def test_umbral_substitute_scaling():
    assert umbral_substitute({(2,): F(1)}, 2) == {(2,): HALF}
    assert umbral_substitute({(2, 1): F(1)}, 1) == {(2, 1): F(1)}
    assert umbral_substitute({(): F(5)}, 3) == {(): F(5)}


def test_umbral_substitute_rejects_tail_sums():
    with pytest.raises(ValueError):
        umbral_substitute({((), (1,)): F(1)}, 1)


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
                assert character_at(form, mu, t_cap=max(n, 1)) == want
                schur_weyl = sum(
                    dim_schur(lam, d) * sym_character(lam, mu)
                    for lam in enumerate_partitions(n))
                assert schur_weyl == want


@pytest.mark.parametrize("d", [2, 3, 4])
def test_character_at_matches_schur_route(d):
    # binomial sigma expression: q_1 carries tail sums up to T_{d-1}
    from tcaseries.polyutil import binom
    e = sexpr(*((() , (k,), binom(d - 1, k)) for k in range(d)))
    form = char_poly_form(phi_sigma(e), d)
    assert form.threshold == -1
    ch = sigma_expand(e, 6)
    for n in range(7):
        for mu in enumerate_partitions(n):
            assert character_at(form, mu, t_cap=max(n, 1)) == brute_trace(ch.terms, mu)


def test_character_at_linear_form_value():
    # (1 + T_1) e^{T_0}: trace at any mu is 1 + |mu|
    e = sexpr(((), (0,), 1), ((), (1,), 1))
    form = char_poly_form(phi_sigma(e), 2)
    for mu in [(1,), (2,), (2, 1), (3, 3, 1), (5,)]:
        assert character_at(form, mu) == sum(mu) + 1


def test_char_poly_form_threshold_and_bounds():
    with pytest.raises(ValueError):
        CharPolyForm(2, {1: {((), (1, 1)): F(1)}})  # T-degree 2 > 1*(2-1)
    with pytest.raises(ValueError):
        CharPolyForm(2, {1: {((1, 2), ()): F(1)}})  # t key not a partition
    form = CharPolyForm(3, {1: {((), ()): F(1)}}, threshold=2)
    with pytest.raises(ValueError):
        character_at(form, (1, 1))  # |lam| = 2 not above threshold
    assert character_at(form, (2, 1)) == 1
    with pytest.raises(ValueError):
        character_at(form, (4, 1), t_cap=3)  # largest part exceeds cap


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
    "grclass_from_json": lambda: grclass_from_json(
        {"d": 3, "r": 1, "terms": {"[1]": 1, "[1,0]": 1}}).terms,
    "lp_from_json": lambda: lp_from_json({"d": 2, "terms": {"1,0": "1", "1, 0": "1"}}).terms,
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
