"""Tests for Grassmannian K-theory: Bott, pairings, theta/mu, determinantal rings."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tcaseries import grassmann, partitions, seriesforms, symfunc
from tcaseries.partitions import (
    canonical_key,
    dim_schur,
    enumerate_partitions,
    multiplicities,
    partitions_in_box,
    partitions_up_to,
    transpose,
)
from tcaseries.polyutil import linear_form_det
from tcaseries.symfunc import SCHUR, SymFunc, sym_algebra_character
from tcaseries.seriesforms import (
    EnhancedExpr,
    enhanced_expand,
    phi_sigma,
    sigma_expand,
)
from tcaseries.grassmann import (
    GrClass,
    LambdaGrClass,
    _lr_products,
    bott_pushforward,
    detring_formal_character,
    gessel_enhanced,
    m_shifted_class,
    pairing,
    pushforward_module_character,
    rank1_enhanced_closed,
    theta_r,
)

from oracles import (
    detring_delta_squared,
    gessel_enhanced_permutations,
    linear_form_det_leibniz,
    lr_coefficient,
    mu_r,
    theta_r_pairings,
)

F = Fraction


def unit_class(d, r):
    return LambdaGrClass({(): GrClass(d, r, {(): 1})})


# --- Bott pushforward --------------------------------------------------------


def test_bott_partition_weights_have_no_higher_cohomology():
    for d, r in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        for lam in partitions_up_to(4, max_length=r):
            res = bott_pushforward(d, r, lam, ())
            assert res is not None
            ell, w = res
            assert ell == 0
            assert w == lam + (0,) * (d - len(lam))


def test_bott_singular_weight_is_zero():
    assert bott_pushforward(2, 1, (0,), (1,)) is None


def test_bott_projective_line_twist():
    # S_(2)(R) on Gr_1(C^2) is O(-2); chi = -1
    res = bott_pushforward(2, 1, (0,), (2,))
    assert res == (1, (1, 1))
    ell, w = res
    assert (-1) ** ell * dim_schur(w, 2) == -1


def test_bott_rejects_non_decreasing():
    with pytest.raises(ValueError):
        bott_pushforward(3, 2, (1, 2), ())
    with pytest.raises(ValueError):
        bott_pushforward(3, 2, (1,), (0, 1))


def test_bott_serre_duality_spot_check():
    # chi(O(-n)) on P^1 = 1 - n: weight b = (n) gives S_(n)(R) = O(-n)
    for n in range(6):
        res = bott_pushforward(2, 1, (0,), (n,))
        got = 0 if res is None else (-1) ** res[0] * dim_schur(res[1], 2)
        assert got == 1 - n


def test_euler_table_matches_borel_weil_and_bott():
    # S_lam(Q) has no higher cohomology and H^0 = S_lam(C^d) (Borel-Weil):
    # each table entry is dim_schur, and a Bott step of length 0
    for d in range(1, 7):
        for r in range(1, d + 1):
            for lam in partitions_up_to(6, max_length=r):
                assert grassmann._euler_table(d, r, lam) == dim_schur(lam, d), (d, r, lam)
                assert bott_pushforward(d, r, lam, ()) == (0, lam + (0,) * (d - len(lam)))


# --- pairing -----------------------------------------------------------------


@pytest.mark.parametrize("d,r", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2)])
def test_pairing_structure_sheaf(d, r):
    assert pairing({(): 1}, GrClass(d, r, {(): 1})) == 1


def test_pairing_symmetric_powers_rank_one():
    for d in (2, 3, 4):
        for n in range(5):
            key = (n,) if n else ()
            assert pairing({key: 1}, GrClass(d, 1, {(): 1})) == math.comb(d + n - 1, n)


def test_lr_products_match_lr_tableaux():
    # the Schur coefficients of s_alpha s_beta in r variables are the LR
    # numbers c^lam_{alpha,beta} with l(lam) <= r, in canonical order; the
    # product is empty exactly when alpha or beta has more than r rows
    for r in range(4):
        for alpha in partitions_up_to(4):
            for beta in partitions_up_to(4):
                n = sum(alpha) + sum(beta)
                want = [(lam, c) for lam in enumerate_partitions(n, max_length=r)
                        if (c := lr_coefficient(alpha, beta, lam))]
                want.sort(key=lambda kv: canonical_key(kv[0]))
                assert _lr_products(alpha, beta, r) == tuple(want), (alpha, beta, r)
                assert (want == []) == (len(alpha) > r or len(beta) > r)


def test_pairing_tautological_square():
    assert pairing({(1,): 1}, GrClass(4, 2, {(1,): 1})) == 16


PAIRING_GRID = [(3, 1), (4, 2), (5, 2)]


@pytest.mark.parametrize("d,r", PAIRING_GRID)
def test_shifted_schur_pairing_lemma(d, r):
    # <S_lam^{(r)}([Q]), [O]> = dim S_{lam-dagger}(C^{d-r}) for all lam_1 <= 4
    unit = GrClass(d, r, {(): 1})
    for lam in partitions_in_box(r, 4):
        got = pairing(m_shifted_class(lam, r, "schur"), unit)
        assert got == dim_schur(transpose(lam), d - r)


@pytest.mark.parametrize("d,r", [(3, 1), (4, 2)])
def test_support_vanishing(d, r):
    cap = r * (d - r)
    basis = [alpha for alpha in partitions_up_to(2, max_length=r)]
    for n in range(cap + 1, cap + 4):
        for lam in enumerate_partitions(n, max_length=r):
            mlam = m_shifted_class(lam, r, "monomial")
            for alpha in basis:
                assert pairing(mlam, GrClass(d, r, {alpha: 1})) == 0


# --- shifted classes ---------------------------------------------------------


def test_m_shifted_class_examples():
    assert m_shifted_class((), 2) == {(): 1}
    assert m_shifted_class((1,), 1) == {(): -1, (1,): 1}
    with pytest.raises(ValueError):
        m_shifted_class((1, 1, 1), 2)


def test_shifted_schur_row_coefficients():
    # S_(n)^{(r)} = sum_i (-1)^{n-i} binom(n+r-1, i+r-1) s_i^{(r)}
    for r in (1, 2, 3):
        for n in range(5):
            got = m_shifted_class((n,) if n else (), r, "schur")
            want = {}
            for i in range(n + 1):
                c = (-1) ** (n - i) * math.comb(n + r - 1, i + r - 1)
                if c:
                    want[(i,) if i else ()] = c
            assert got == want


def test_shifted_monomial_vs_schur_consistency():
    # s_lam(x-1) = sum_mu K_{lam,mu} m_mu(x-1), so classes must agree
    from tcaseries.partitions import kostka_and_inverse
    r = 2
    for n in range(5):
        order, K, _ = kostka_and_inverse(n)
        for i, lam in enumerate(order):
            if len(lam) > r:
                continue
            combo: dict = {}
            for j, mu in enumerate(order):
                if K[i][j] and len(mu) <= r:
                    for key, c in m_shifted_class(mu, r, "monomial").items():
                        combo[key] = combo.get(key, 0) + K[i][j] * c
            combo = {k: v for k, v in combo.items() if v}
            assert combo == m_shifted_class(lam, r, "schur")


# --- theta and mu ------------------------------------------------------------


def test_theta_rank_zero_is_unit():
    out = theta_r(LambdaGrClass({(): GrClass(3, 0, {(): 1})}))
    assert out.terms == {((), ()): F(1)}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_theta_structure_sheaf_rank_one(d):
    out = theta_r(unit_class(d, 1))
    want = {((), (n,)): F(math.comb(d - 1, n)) for n in range(d)}
    assert out.terms == want


def test_theta_full_rank_is_sigma0_power():
    out = theta_r(unit_class(2, 2))
    assert out.terms == {((), (0, 0)): F(1)}
    expanded = sigma_expand(out, 8)
    oracle = sym_algebra_character(SymFunc(SCHUR, {(1,): F(2)}), 8)
    assert expanded == oracle


def test_theta_homogeneity():
    c = LambdaGrClass({(2,): GrClass(3, 2, {(1,): 2, (): -1})})
    out = theta_r(c)
    assert out.terms  # nonempty
    assert {len(nu) for _, nu in out.terms} == {2}


def test_theta_vs_pushforward_small():
    d, r, N = 2, 1, 6
    c = LambdaGrClass({(): GrClass(d, r, {(1,): 1})})
    assert sigma_expand(theta_r(c), N) == pushforward_module_character(d, r, (1,), N)


@st.composite
def lambda_grclasses(draw):
    """Multi-term classes sum_mu s_mu [F_mu] with negative coefficients; d <= 6,
    0 <= r <= d."""
    d = draw(st.integers(1, 6))
    r = draw(st.integers(0, d))
    alphas = st.sampled_from(partitions_up_to(3, max_length=r))
    mus = draw(st.lists(st.sampled_from(partitions_up_to(2)), min_size=1, max_size=2,
                        unique=True))
    return LambdaGrClass({mu: GrClass(d, r, draw(st.dictionaries(
        alphas, st.integers(-3, 3).filter(bool), min_size=1, max_size=3))) for mu in mus})


@settings(max_examples=60, deadline=None)
@given(lambda_grclasses())
def test_theta_matches_pairing_route(c):
    assert theta_r(c) == theta_r_pairings(c)


def test_theta_makes_no_pairing(monkeypatch):
    calls = []
    for name in ("_lr_products", "pairing", "m_shifted_class"):
        def counted(*args, _f=getattr(grassmann, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(grassmann, name, counted)
    c = LambdaGrClass({(): GrClass(5, 2, {(2, 1): 1, (): -2}), (1,): GrClass(5, 2, {(1,): 3})})
    got = theta_r(c)
    assert calls == []
    assert got == theta_r_pairings(c) and calls  # the counters see the pairing route


def test_mu_r_examples():
    assert mu_r(unit_class(3, 1)).parts == {1: (F(1), F(2), F(1, 2))}
    assert mu_r(unit_class(3, 3)).parts == {3: (F(1),)}
    assert mu_r(LambdaGrClass({(): GrClass(3, 0, {(): 1})})).parts == {0: (F(1),)}


# --- pushforward module characters -------------------------------------------


def test_pushforward_structure_sheaf_coefficients():
    f = pushforward_module_character(3, 2, (), 5)
    for nu, c in f.terms.items():
        assert c == dim_schur(nu, 3)
    assert f.terms[(2, 1)] == 8


def test_pushforward_full_rank_is_polynomial_tca():
    d = 2
    f = pushforward_module_character(d, d, (), 6)
    oracle = sym_algebra_character(SymFunc(SCHUR, {(1,): F(d)}), 6)
    assert f == oracle


def test_pushforward_twisted_example():
    f = pushforward_module_character(2, 1, (1,), 6)
    assert f.terms[(1,)] == 3  # chi(Q tensor Q) on P^1, d=2
    for n in range(7):
        key = (n,) if n else ()
        assert f.terms[key] == math.comb(2 + n, n + 1)  # dim Sym^{n+1}(C^2) ... = n+2


def test_pushforward_shares_the_euler_table(monkeypatch):
    # one Bott step per (d, r, lam): a second alpha steps only for the lam
    # the first did not reach
    grassmann._euler_table.cache_clear()
    stepped = []

    def counted(d, r, a, b, _bott=grassmann.bott_pushforward):
        stepped.append(a)
        return _bott(d, r, a, b)

    monkeypatch.setattr(grassmann, "bott_pushforward", counted)
    first = pushforward_module_character(4, 2, (1,), 10)
    seen = set(stepped)
    assert len(stepped) == len(seen)
    del stepped[:]
    second = pushforward_module_character(4, 2, (2,), 10)
    assert stepped and len(stepped) == len(set(stepped)) and not seen & set(stepped)
    monkeypatch.undo()
    grassmann._euler_table.cache_clear()
    assert first == pushforward_module_character(4, 2, (1,), 10)
    assert second == pushforward_module_character(4, 2, (2,), 10)


def test_sizes_reach_the_euler_table_as_ints():
    # 4.0 == 4 and both hash alike: a size that entered unconverted would
    # answer by cache order, refused cold and served warm
    grassmann._euler_table.cache_clear()
    cold = pushforward_module_character(4.0, 2.0, (1,), 4)
    assert cold == pushforward_module_character(4, 2, (1,), 4)
    g = GrClass(3.0, 1.0, {(1,): 1})
    assert (type(g.d), type(g.r)) == (int, int) and pairing({(): 1}, g) == 3


def test_pushforward_rejects_long_alpha():
    with pytest.raises(ValueError):
        pushforward_module_character(3, 1, (1, 1), 4)


# --- determinantal rings -----------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_detring_rank_one_binomials(d):
    out = detring_formal_character(d, 1)
    assert out.terms == {((), (n,)): F(math.comb(d - 1, n)) for n in range(d)}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_detring_full_rank(d):
    out = detring_formal_character(d, d)
    assert out.terms == {((), (0,) * d): F(1)}


def test_detring_matches_kostka_inverse_sum():
    # c_lam = sum_mu Kinv[lam][mu] s_{mu'}(1^{d-r}) over l(mu) <= r
    from tcaseries.partitions import kostka_and_inverse
    for d in range(1, 13):
        for r in range(0, d + 1):
            if r * d > 12:
                continue
            want = {}
            for lam in partitions_in_box(r, d):
                order, _, Kinv = kostka_and_inverse(sum(lam))
                i = order.index(lam)
                c = sum(Kinv[i][j] * dim_schur(transpose(mu), d - r)
                        for j, mu in enumerate(order) if len(mu) <= r)
                if c:
                    want[((), lam + (0,) * (r - len(lam)))] = F(c)
            assert detring_formal_character(d, r).terms == want, (d, r)


def test_detring_builds_its_binomial_row_without_math_comb(monkeypatch):
    # the entries binom(d - r, j) come from one row built by the recurrence,
    # not from a math.comb call per entry and k
    comb, calls = math.comb, []
    monkeypatch.setattr(math, "comb", lambda n, k: calls.append((n, k)) or comb(n, k))
    out = detring_formal_character(40, 1)
    assert calls == []
    assert out.terms == {((), (n,)): F(comb(39, n)) for n in range(40)}


def test_detring_rank_zero():
    assert detring_formal_character(3, 0).terms == {((), ()): F(1)}


@pytest.mark.parametrize("d,r", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3),
                                 (5, 0), (5, 5), (6, 3), (10, 5)])
def test_detring_matches_theta_route(d, r):
    # (10, 5) takes about 0.2 s; the pairing route took minutes there
    assert detring_formal_character(d, r) == theta_r(unit_class(d, r))


def test_detring_matches_delta_squared_route():
    for d in range(8):
        for r in range(d + 1):
            assert detring_formal_character(d, r) == detring_delta_squared(d, r), (d, r)


def test_detring_matches_pushforward_character():
    N = 6
    got = sigma_expand(detring_formal_character(3, 2), N)
    assert got == pushforward_module_character(3, 2, (), N)


def test_detring_rank_one_schur_expansion():
    # expansion coefficients binom(d+n-1, d-1) on s_n
    for d in (2, 3):
        f = sigma_expand(detring_formal_character(d, 1), 7)
        for n in range(8):
            key = (n,) if n else ()
            assert f.terms[key] == math.comb(d + n - 1, d - 1)


# --- the determinant kernel ----------------------------------------------------


def _leibniz(m):
    r = len(m)
    return sum((-1) ** sum(x > y for x, y in itertools.combinations(perm, 2))
               * math.prod(m[a][perm[a]] for a in range(r))
               for perm in itertools.permutations(range(r)))


def test_linear_form_det_of_constant_entries_is_the_determinant():
    rng = random.Random(17)
    for _ in range(200):
        r = rng.randint(0, 4)
        m = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
        det = _leibniz(m)
        want = {(0,) * r: det} if det else {}
        assert linear_form_det(r, lambda a, b: {0: m[a][b]}) == want, m


def test_linear_form_det_keys_and_cap():
    # det((s_0 + s_1) I_2) = s_0^2 + 2 s_0 s_1 + s_1^2; N = 1 drops s_1^2
    def entry(a, b):
        return {0: 1, 1: 1} if a == b else {}
    assert linear_form_det(2, entry) == {(0, 0): 1, (1, 0): 2, (1, 1): 1}
    assert linear_form_det(2, entry, 1) == {(0, 0): 1, (1, 0): 2}
    assert linear_form_det(2, entry, 0) == {(0, 0): 1}
    # det [[s_2, s_1], [s_1, s_0]] = s_2 s_0 - s_1^2, keys weakly decreasing
    toeplitz = {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    assert linear_form_det(2, lambda a, b: {toeplitz[a, b]: 1}) == {(2, 0): 1, (1, 1): -1}
    assert linear_form_det(2, lambda a, b: {toeplitz[a, b]: 1}, 1) == {}
    assert linear_form_det(0, entry, 0) == {(): 1}


@st.composite
def _linear_forms(draw):
    """(r, entry, N): r <= 4, entries of up to three forms s_k, k in 0..12 in any
    insertion order, with coefficients -3..3 (zero included), and a cap N of None
    or 0..8, so that k above N reaches the weight cut."""
    r = draw(st.integers(0, 4))
    forms = draw(st.lists(st.dictionaries(st.integers(0, 12), st.integers(-3, 3), max_size=3),
                          min_size=r * r, max_size=r * r))
    return r, lambda a, b: forms[a * r + b], draw(st.none() | st.integers(0, 8))


@settings(max_examples=150, deadline=None)
@given(_linear_forms())
def test_linear_form_det_matches_leibniz_sum(case):
    r, entry, N = case
    got = linear_form_det(r, entry, N)
    assert got == linear_form_det_leibniz(r, entry, N)
    assert all(got.values())
    assert list(got) == sorted(got, key=canonical_key)


def test_linear_form_det_large_k_stays_fast():
    # a state's code has digits of r.bit_length() bits, so large k cost short work:
    # r = 1 with k up to 20000 (as detring at d = 20000), and sparse k near 2 * 10^5
    start = time.perf_counter()
    assert linear_form_det(1, lambda a, b: {k: k + 1 for k in range(20000)}) == {
        (k,): k + 1 for k in range(20000)}
    big = 10 ** 5
    forms = {(0, 0): {0: 1, big: 2}, (0, 1): {big + 1: -1, 3: 1},
             (1, 0): {7: 1, big: 1}, (1, 1): {0: 2, 2 * big: 1}}
    got = linear_form_det(2, lambda a, b: forms[a, b])
    assert got == linear_form_det_leibniz(2, lambda a, b: forms[a, b], None)
    assert got[2 * big, big] == 2 and got[big + 1, 7] == 1
    assert time.perf_counter() - start < 2


# --- Gessel determinant and rank-1 closed form --------------------------------


def test_gessel_rank_one_coefficients():
    from tcaseries.partitions import partition_factorial
    d, N = 3, 5
    s = gessel_enhanced(d, 1, N)
    for lam in partitions_up_to(N):
        n = sum(lam)
        assert s.coeffs[lam] == F(math.comb(n + d - 1, n), partition_factorial(lam))


def test_gessel_full_rank_d2():
    N = 6
    got = gessel_enhanced(2, 2, N)
    want = enhanced_expand(phi_sigma(detring_formal_character(2, 2)), N)
    assert got == want


@pytest.mark.parametrize("d,r", [(2, 1), (3, 2)])
def test_gessel_matches_sigma_route(d, r):
    N = 6
    got = gessel_enhanced(d, r, N)
    want = enhanced_expand(phi_sigma(detring_formal_character(d, r)), N)
    assert got == want


def test_gessel_requires_positive_rank():
    with pytest.raises(ValueError):
        gessel_enhanced(3, 0, 4)
    with pytest.raises(ValueError, match="truncation"):
        gessel_enhanced(3, 2, -1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 8))
def test_gessel_matches_permutation_expansion(d, r, N):
    assert gessel_enhanced(d, r, N) == gessel_enhanced_permutations(d, r, N)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 8), st.lists(st.integers(1, 5), min_size=2, max_size=3))
def test_gessel_on_a_warm_scatter_table_matches_permutation_expansion(r, N, ds):
    # every d at one (r, N) reads the one scatter table [m_nu] p_lam of that shape
    for d in ds:
        assert gessel_enhanced(d, r, N) == gessel_enhanced_permutations(d, r, N)


def test_gessel_rank_above_d_is_rank_d():
    # a rank <= r condition on maps out of C^d is vacuous once r >= d
    for d in (1, 2, 3):
        for r in (d + 1, d + 2):
            assert gessel_enhanced(d, r, 5) == gessel_enhanced_permutations(d, r, 5)
    assert gessel_enhanced(2, 12, 4) == gessel_enhanced(2, 2, 4)


def test_gessel_forms_no_series_product(monkeypatch):
    calls = []
    for owner, name in ((symfunc, "_p_mul_terms"), (seriesforms.TSeries, "__mul__")):
        def counted(*args, _product=getattr(owner, name), _name=name):
            calls.append(_name)
            return _product(*args)
        monkeypatch.setattr(owner, name, counted)
    gessel_enhanced(4, 3, 10)
    assert calls == []


def test_gessel_tables_built_once_per_rank_and_truncation():
    # the scatter table does not depend on d: one build per new (r, N)
    table = partitions._power_sum_to_monomial
    table.cache_clear()
    for d in (4, 2, 6, 3, 5):
        assert gessel_enhanced(d, 2, 7) == gessel_enhanced_permutations(d, 2, 7)
    assert table.cache_info().misses == 1
    for d, r, N, misses in ((3, 3, 7, 2), (2, 2, 6, 3), (9, 2, 7, 3), (1, 4, 7, 4), (3, 3, 7, 4)):
        gessel_enhanced(d, r, N)
        assert table.cache_info().misses == misses


def test_gessel_table_is_read_only():
    def walk(value):
        yield value
        if isinstance(value, tuple):
            for v in value:
                yield from walk(v)

    table = partitions._power_sum_to_monomial(2, 4)
    with pytest.raises(TypeError):
        table[(5,)] = ()
    assert all(type(v) in (tuple, int) for col in table.values() for v in walk(col))
    parts, _ = partitions.canonical_positions(4)
    # column nu: {lam: 4! / lam! [m_nu] p_lam}
    cols = {nu: {parts[i]: v for i, v in col} for nu, col in table.items()}
    # p_1^2 = m_2 + 2 m_11, and lam! = 2
    assert cols[(2,)][(1, 1)] == 12 * 1 and cols[(1, 1)][(1, 1)] == 12 * 2
    # p_2 p_1^2 = m_4 + 2 m_31 + 2 m_22 in two variables, and lam! = 2
    assert {nu: col[(2, 1, 1)] for nu, col in cols.items() if (2, 1, 1) in col} == \
        {(4,): 12 * 1, (3, 1): 12 * 2, (2, 2): 12 * 2}
    assert cols[()] == {(): 24} and set(cols) == set(partitions_up_to(4, max_length=2))
    assert all(list(col) == sorted(col, key=parts.index) for col in cols.values())


def test_bell_polynomials_match_closed_form():
    # [v_lam] F_j = j! / prod_i (m_i! (i!)^{m_i}) over the partitions lam of j (Comtet 3.3)
    fs = grassmann._bell_polynomials(10)
    assert len(fs) == 11
    for j, f in enumerate(fs):
        assert f == {lam: math.factorial(j) // math.prod(
            math.factorial(m) * math.factorial(i) ** m for i, m in multiplicities(lam).items())
            for lam in enumerate_partitions(j)}, j


def test_rank1_closed_form_small_d():
    assert rank1_enhanced_closed(1) == EnhancedExpr({1: {((), ()): F(1)}})
    assert rank1_enhanced_closed(2) == EnhancedExpr(
        {1: {((), ()): F(1), ((), (1,)): F(1)}})
    assert rank1_enhanced_closed(3) == EnhancedExpr(
        {1: {((), ()): F(1), ((), (1,)): F(2), ((), (2,)): F(1), ((), (1, 1)): F(1, 2)}})


def test_rank1_closed_form_d5_table_row():
    # (1/24)(24T4 + 12T2^2 + T1^4 + 24T3T1 + 12T1^2T2)
    #   + (2/3)(6T3 + T1^3 + 6T1T2) + 3(2T2 + T1^2) + 4T1 + 1, times exp(T_0)
    want = {
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
    }
    assert rank1_enhanced_closed(5) == EnhancedExpr({1: want})


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_rank1_closed_form_matches_routes(d):
    N = 5
    closed = enhanced_expand(rank1_enhanced_closed(d), N)
    assert closed == gessel_enhanced(d, 1, N)
    assert closed == enhanced_expand(phi_sigma(detring_formal_character(d, 1)), N)


# --- value validation --------------------------------------------------------


def test_grclass_validation():
    with pytest.raises(ValueError):
        GrClass(2, 3, {})
    with pytest.raises(ValueError):
        GrClass(3, 1, {(1, 1): 1})
    with pytest.raises(ValueError):
        LambdaGrClass({(): GrClass(2, 1, {(): 1}), (1,): GrClass(3, 1, {(): 1})})


def test_non_integral_coefficients_are_refused():
    # truncation would make half of [Q] the zero class and pair 2.9 [Q] as 2 [Q]
    with pytest.raises(ValueError):
        GrClass(3, 1, {(1,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        pairing({(1,): 2.9}, GrClass(3, 1, {(): 1}))
    assert GrClass(3, 1, {(1,): Fraction(4, 2)}).terms == {(1,): 2}
    assert pairing({(1,): 3.0}, GrClass(3, 1, {(): 1})) == 9


def test_lambda_grclass_rejects_one_partition_twice():
    # classes are values, not coefficients: two keys naming [1] cannot be merged
    g, h = GrClass(3, 1, {(): 1}), GrClass(3, 1, {(1,): 1})
    with pytest.raises(ValueError):
        LambdaGrClass({(1,): g, (1, 0): h})
