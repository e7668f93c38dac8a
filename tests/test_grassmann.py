"""Tests for Grassmannian K-theory: Bott, pairings, theta/mu, determinantal rings."""

from fractions import Fraction

import pytest

from tcaseries.partitions import (
    dim_schur,
    enumerate_partitions,
    partitions_in_box,
    partitions_up_to,
    transpose,
)
from tcaseries.polyutil import binom
from tcaseries.symfunc import SCHUR, SymFunc, scale, sym_algebra_character
from tcaseries.seriesforms import (
    EnhancedExpr,
    enhanced_expand,
    phi_enhanced,
    phi_sigma,
    sigma_expand,
)
from tcaseries.grassmann import (
    GrClass,
    LambdaGrClass,
    bott_pushforward,
    detring_formal_character,
    gessel_enhanced,
    grclass_from_json,
    grclass_to_json,
    lambda_grclass_from_json,
    lambda_grclass_to_json,
    m_shifted_class,
    mu_r,
    pairing,
    pushforward_module_character,
    rank1_enhanced_closed,
    theta_r,
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


# --- pairing -----------------------------------------------------------------


@pytest.mark.parametrize("d,r", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2)])
def test_pairing_structure_sheaf(d, r):
    assert pairing({(): 1}, GrClass(d, r, {(): 1})) == 1


def test_pairing_symmetric_powers_rank_one():
    for d in (2, 3, 4):
        for n in range(5):
            key = (n,) if n else ()
            assert pairing({key: 1}, GrClass(d, 1, {(): 1})) == binom(d + n - 1, n)


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
                c = (-1) ** (n - i) * binom(n + r - 1, i + r - 1)
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
    want = {((), (n,)): F(binom(d - 1, n)) for n in range(d)}
    assert out.terms == want


def test_theta_full_rank_is_sigma0_power():
    out = theta_r(unit_class(2, 2))
    assert out.terms == {((), (0, 0)): F(1)}
    expanded = sigma_expand(out, 8)
    oracle = sym_algebra_character(scale(SymFunc(SCHUR, {(1,): F(1)}), 2), 8)
    assert expanded == oracle


def test_theta_homogeneity():
    c = LambdaGrClass({(2,): GrClass(3, 2, {(1,): 2, (): -1})})
    out = theta_r(c)
    assert out.terms  # nonempty
    assert out.sigma_degree() == 2


def test_theta_vs_pushforward_small():
    d, r, N = 2, 1, 6
    c = LambdaGrClass({(): GrClass(d, r, {(1,): 1})})
    assert sigma_expand(theta_r(c), N) == pushforward_module_character(d, r, (1,), N)


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
    oracle = sym_algebra_character(scale(SymFunc(SCHUR, {(1,): F(1)}), d), 6)
    assert f == oracle


def test_pushforward_twisted_example():
    f = pushforward_module_character(2, 1, (1,), 6)
    assert f.terms[(1,)] == 3  # chi(Q tensor Q) on P^1, d=2
    for n in range(7):
        key = (n,) if n else ()
        assert f.terms[key] == binom(2 + n, n + 1)  # dim Sym^{n+1}(C^2) ... = n+2


def test_pushforward_rejects_long_alpha():
    with pytest.raises(ValueError):
        pushforward_module_character(3, 1, (1, 1), 4)


# --- determinantal rings -----------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_detring_rank_one_binomials(d):
    out = detring_formal_character(d, 1)
    assert out.terms == {((), (n,)): F(binom(d - 1, n)) for n in range(d)}


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


def test_detring_rank_zero():
    assert detring_formal_character(3, 0).terms == {((), ()): F(1)}


@pytest.mark.parametrize("d,r", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
def test_detring_matches_theta_route(d, r):
    assert detring_formal_character(d, r) == theta_r(unit_class(d, r))


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
            assert f.terms[key] == binom(d + n - 1, d - 1)


# --- Gessel determinant and rank-1 closed form --------------------------------


def test_gessel_rank_one_coefficients():
    from tcaseries.partitions import partition_factorial
    d, N = 3, 5
    s = gessel_enhanced(d, 1, N)
    for lam in partitions_up_to(N):
        n = sum(lam)
        assert s.coeff(lam) == F(binom(n + d - 1, n), partition_factorial(lam))


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


# --- JSON --------------------------------------------------------------------


def test_grclass_json_roundtrip():
    g = GrClass(4, 2, {(1,): 1, (): -1})
    obj = grclass_to_json(g)
    assert obj == {"d": 4, "r": 2, "terms": {"[]": -1, "[1]": 1}}
    assert grclass_from_json(obj) == g


def test_lambda_grclass_json_roundtrip():
    c = LambdaGrClass({(2,): GrClass(3, 1, {(1,): 2}), (): GrClass(3, 1, {(): 1})})
    assert lambda_grclass_from_json(lambda_grclass_to_json(c)) == c


def test_grclass_validation():
    with pytest.raises(ValueError):
        GrClass(2, 3, {})
    with pytest.raises(ValueError):
        GrClass(3, 1, {(1, 1): 1})
    with pytest.raises(ValueError):
        LambdaGrClass({(): GrClass(2, 1, {(): 1}), (1,): GrClass(3, 1, {(): 1})})
