"""ODE guessing: exact recovery, honest misses, and text rendering."""

import random
from fractions import Fraction

import pytest

from tcaseries import dfinite
from tcaseries.dfinite import (
    apply_ode,
    guess_ode,
    hadamard,
    needed_length,
    ode_to_text,
)
from tcaseries.polyutil import RANK_PRIMES, certify_full_rank, factorial, nullspace
from tcaseries.seriesforms import OdeOperator

F = Fraction


def catalan_numbers(n):
    cat = [1]
    for _ in range(n - 1):
        cat.append(cat[-1] * (4 * len(cat) - 2) // (len(cat) + 1))
    return cat


def catalan_egf(n):
    # EGF of the invariant dimensions 1, 0, 1, 0, 2, ...: sum t^{2k}/(k!(k+1)!)
    out = [F(0)] * n
    for k in range((n + 1) // 2):
        out[2 * k] = F(1, factorial(k) * factorial(k + 1))
    return out


def bell_egf(n):
    # e^{e^t - 1}: B_{m+1} = sum_k binom(m, k) B_k
    from tcaseries.polyutil import binom
    bell = [1]
    for m in range(n - 1):
        bell.append(sum(binom(m, k) * bell[k] for k in range(m + 1)))
    return [F(b, factorial(i)) for i, b in enumerate(bell)]


CATALAN_OP = OdeOperator((
    (F(0), F(0), F(-4)),
    (F(0), F(3)),
    (F(0), F(0), F(1)),
))


def test_catalan_egf_operator_recovered():
    op = guess_ode(catalan_egf(100))
    assert op == CATALAN_OP
    assert op.order == 2
    assert op.degree == 2


def test_catalan_ogf_dfinite_within_small_caps():
    # Hadamard with n! turns the EGF into sum C_k t^{2k}; both forms must be
    # recognized as D-finite within order 3, degree 4
    egf = catalan_egf(60)
    ogf = hadamard(egf, [F(factorial(n)) for n in range(60)])
    assert [int(c) for c in ogf[:8]] == [1, 0, 1, 0, 2, 0, 5, 0]
    assert guess_ode(egf, max_order=3, max_degree=4) is not None
    assert guess_ode(ogf, max_order=3, max_degree=4) is not None


def test_catalan_found_at_tight_caps():
    coeffs = catalan_egf(needed_length(3, 3))
    assert guess_ode(coeffs, max_order=3, max_degree=3) == CATALAN_OP


def test_catalan_operator_annihilates_long_prefix():
    residual = apply_ode(CATALAN_OP, catalan_egf(200))
    assert len(residual) == 198
    assert not any(residual)


def test_wrong_operator_leaves_residual():
    op = OdeOperator(((F(1),), (F(1),)))  # y' + y
    assert any(apply_ode(op, catalan_egf(30)))


def test_exponential_series_first_order():
    coeffs = [F(1, factorial(n)) for n in range(40)]
    op = guess_ode(coeffs, max_order=1, max_degree=1)
    assert op == OdeOperator(((F(-1),), (F(1),)))
    assert ode_to_text(op) == "y' - y"


def test_geometric_series_normalized_sign():
    coeffs = [F(1)] * 40
    op = guess_ode(coeffs, max_order=1, max_degree=1)
    # (1 - t) y' - y = 0, normalized to positive leading coefficient
    assert op == OdeOperator(((F(1),), (F(-1), F(1))))
    assert ode_to_text(op) == "(t - 1)*y' + y"


def test_bell_egf_not_dfinite_within_caps():
    assert guess_ode(bell_egf(60), max_order=5, max_degree=5) is None


def test_short_series_raises_instead_of_none():
    with pytest.raises(ValueError):
        guess_ode(bell_egf(50), max_order=5, max_degree=5)
    with pytest.raises(ValueError):
        guess_ode(catalan_egf(20), max_order=3, max_degree=3)


def test_needed_length_formula():
    assert needed_length(3, 3) == 4 * 4 + 3 + 10
    assert needed_length(5, 5) == 51


def test_lex_minimality_prefers_low_order():
    # geometric series also satisfies higher-order operators; the search
    # must return the order-1 one even with generous caps
    coeffs = [F(1)] * 60
    op = guess_ode(coeffs, max_order=3, max_degree=3)
    assert op.order == 1


def test_hadamard_product():
    cat = [F(c) for c in catalan_numbers(6)]
    assert hadamard(cat, cat) == [F(1), F(1), F(4), F(25), F(196), F(1764)]
    assert hadamard([F(1), F(2)], [F(3)]) == [F(3)]
    f = catalan_egf(12)
    assert hadamard(f, [F(1)] * 12) == f


def test_order_zero_operator_is_identity():
    op = OdeOperator(((F(1),),))
    f = catalan_egf(9)
    assert apply_ode(op, f) == f


def test_ode_text_rendering():
    assert ode_to_text(CATALAN_OP) == "t^2*y'' + 3*t*y' - 4*t^2*y"
    op = OdeOperator(((F(2),), (F(1), F(1)), (F(0), F(0), F(0), F(1)), (F(-1),), (F(1),)))
    assert ode_to_text(op) == "y^(4) - y''' + t^3*y'' + (t + 1)*y' + 2*y"
    assert ode_to_text(OdeOperator(((F(0),), (F(-2), F(0), F(5))))) == \
        "(5*t^2 - 2)*y'"


def test_frobenius_lift_at_singular_origin():
    # the raw minimal annihilator is t*y'' + 3*y' - 4*t*y; the returned form
    # is its t-multiple, a polynomial in t*d/dt
    raw = OdeOperator(((F(0), F(-4)), (F(3),), (F(0), F(1))))
    assert not any(apply_ode(raw, catalan_egf(50)))
    found = guess_ode(catalan_egf(50), max_order=3, max_degree=3)
    assert found == CATALAN_OP
    for i, p in enumerate(found.coeffs):
        assert all(c == 0 for c in p[:i])


def test_apply_ode_respects_truncation_window():
    # residuals only for indices the truncation determines
    assert len(apply_ode(CATALAN_OP, catalan_egf(10))) == 8


P = 2**61 - 1
EXP_OP = OdeOperator(((F(-1),), (F(1),)))  # y' - y


def _counting_nullspace(monkeypatch):
    shapes = []

    def counted(rows, ncols):
        shapes.append((len(rows), ncols))
        return nullspace(rows, ncols)
    monkeypatch.setattr(dfinite, "_nullspace", counted)
    return shapes


def test_rank_filter_does_not_certify_singular_residues(monkeypatch):
    # both matrices have full rank over Q but not modulo P
    assert RANK_PRIMES[0] == P
    assert certify_full_rank([[F(P)]], 1) is None
    singular_mod_p = [[F(1), F(2)], [F(3), F(6 + P)]]  # determinant P
    assert certify_full_rank(singular_mod_p, 2) is None
    assert nullspace(singular_mod_p, 2) == []
    # a series whose every coefficient is a multiple of P still goes to
    # exact elimination, for the hit and for the miss
    shapes = _counting_nullspace(monkeypatch)
    cert = {}
    assert guess_ode([F(P, factorial(n)) for n in range(needed_length(1, 0))],
                     max_order=1, max_degree=0, certificate=cert) == EXP_OP
    assert shapes == [(12, 2)] and cert == {"prime": P, "pairs": []}
    shapes.clear()
    assert guess_ode([P * c for c in bell_egf(needed_length(2, 2))],
                     max_order=2, max_degree=2, certificate=cert) is None
    assert len(shapes) == 6 and cert == {"prime": P, "pairs": []}


def test_rank_filter_switches_primes_on_denominators():
    assert certify_full_rank([[F(1, P)]], 1) == RANK_PRIMES[1]
    assert certify_full_rank([[F(1)], [F(1, RANK_PRIMES[0] * RANK_PRIMES[1])]], 1) == RANK_PRIMES[2]
    every = RANK_PRIMES[0] * RANK_PRIMES[1] * RANK_PRIMES[2]
    assert certify_full_rank([[F(1, every)]], 1) is None
    cert = {}
    assert guess_ode([c / P for c in bell_egf(needed_length(2, 2))],
                     max_order=2, max_degree=2, certificate=cert) is None
    assert cert["prime"] == RANK_PRIMES[1] and len(cert["pairs"]) == 6
    assert guess_ode([c / every for c in bell_egf(needed_length(2, 2))],
                     max_order=2, max_degree=2, certificate=cert) is None
    assert cert == {"prime": None, "pairs": []}


def test_rank_filter_certifies_only_trivial_nullspaces():
    rng = random.Random(20171)
    certified = deficient = 0
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 5)
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(ncols)]
                for _ in range(nrows)]
        if rng.random() < 0.5:  # force a dependent column
            k = rng.randrange(ncols)
            c = F(rng.randint(-2, 2), rng.randint(1, 3))
            for row in rows:
                row[k] = c * row[(k + 1) % ncols] if ncols > 1 else F(0)
        prime = certify_full_rank(rows, ncols)
        trivial = nullspace(rows, ncols) == []
        # certified implies trivial; on this sample the converse holds too
        assert (prime is not None) == trivial and prime in (None, P)
        certified += trivial
        deficient += not trivial
    assert certified > 20 and deficient > 50


def test_bell_miss_certified_without_exact_elimination(monkeypatch):
    def refuse(rows, ncols):
        raise AssertionError("exact elimination on a certified pair")
    monkeypatch.setattr(dfinite, "_nullspace", refuse)
    cert = {}
    assert guess_ode(bell_egf(60), max_order=5, max_degree=5, certificate=cert) is None
    assert cert == {"prime": P, "pairs": [(r, d) for r in range(1, 6) for d in range(6)]}


def test_catalan_reaches_exact_elimination_at_first_deficient_pair(monkeypatch):
    shapes = _counting_nullspace(monkeypatch)
    cert = {}
    coeffs = catalan_egf(needed_length(3, 3))
    assert guess_ode(coeffs, max_order=3, max_degree=3, certificate=cert) == CATALAN_OP
    assert cert["pairs"] == [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0)]
    assert shapes == [(len(coeffs) - 2, 3 * 2)]  # pair (2, 1) only
