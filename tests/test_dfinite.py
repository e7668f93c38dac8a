"""ODE guessing: exact recovery, honest misses, and text rendering."""

import random
from fractions import Fraction
from math import comb, factorial, perm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import apply_ode_fractions, exact_nullspace, guess_ode_per_pair, rank_modulo
from tcaseries import dfinite, polyutil
from tcaseries.dfinite import (
    apply_ode,
    guess_ode,
    hadamard,
    needed_length,
    ode_to_text,
)
from tcaseries.cli import builtin_series
from tcaseries.polyutil import (RANK_PRIMES, cleared, echelon, insert_row,
                                lifted_kernel_vector, nullspace)
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
    bell = [1]
    for m in range(n - 1):
        bell.append(sum(comb(m, k) * bell[k] for k in range(m + 1)))
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


@pytest.mark.parametrize("caps", [(-1000, -1000), (0, 3), (2, -1)])
def test_needed_length_refuses_caps_out_of_range(caps):
    # the CLI sizes its series by needed_length before guess_ode runs; the
    # message names the first cap out of range
    message = "max_order must be >= 1" if caps[0] < 1 else "max_degree must be >= 0"
    with pytest.raises(ValueError, match=message):
        needed_length(*caps)
    with pytest.raises(ValueError, match=message):
        guess_ode([F(1)] * 40, *caps)


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


def test_guess_ode_checks_candidates_on_integers(monkeypatch):
    # each candidate's residuals are tested as the integer sums apply_ode
    # forms, without one Fraction per residual
    def refuse(op, coeffs):
        raise AssertionError("guess_ode reached apply_ode")
    monkeypatch.setattr(dfinite, "apply_ode", refuse)
    assert guess_ode(catalan_egf(50), max_order=3, max_degree=3) == CATALAN_OP
    assert guess_ode([F(1, factorial(n)) for n in range(40)], 1, 1) == EXP_OP
    assert guess_ode(bell_egf(needed_length(2, 2)), max_order=2, max_degree=2) is None


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
    # full rank over Q but not modulo P
    assert RANK_PRIMES[0] == P
    singular_mod_p = [[F(1), F(2)], [F(3), F(6 + P)]]  # determinant P
    assert rank_modulo(singular_mod_p, 2) == (P, 1)
    assert nullspace(singular_mod_p, 2) == []
    # entries that all vanish modulo P move the filter to the next prime;
    # a zero matrix keeps the first and certifies nothing
    assert rank_modulo([[F(P)]], 1) == (RANK_PRIMES[1], 1)
    assert rank_modulo([[F(0)]], 1) == (P, 0)
    # a series whose every coefficient is a multiple of P: the hit is read off
    # the elimination modulo the next prime, and the miss is certified there
    shapes = _counting_nullspace(monkeypatch)
    cert = {}
    assert guess_ode([F(P, factorial(n)) for n in range(needed_length(1, 0))],
                     max_order=1, max_degree=0, certificate=cert) == EXP_OP
    assert shapes == [] and cert == {"prime": RANK_PRIMES[1], "pairs": []}
    shapes.clear()
    assert guess_ode([P * c for c in bell_egf(needed_length(2, 2))],
                     max_order=2, max_degree=2, certificate=cert) is None
    assert shapes == [] and cert == {
        "prime": RANK_PRIMES[1], "pairs": [(r, d) for r in (1, 2) for d in range(3)]}


def test_rank_filter_switches_primes_on_denominators():
    assert rank_modulo([[F(1, P)]], 1) == (RANK_PRIMES[1], 1)
    assert rank_modulo([[F(1)], [F(1, RANK_PRIMES[0] * RANK_PRIMES[1])]], 1) == (RANK_PRIMES[2], 1)
    every = RANK_PRIMES[0] * RANK_PRIMES[1] * RANK_PRIMES[2]
    assert rank_modulo([[F(1, every)]], 1) is None
    # mixed denominators: one inverse of their lcm gives each value's residue
    mixed = [F(1, 2), F(-2, 3), F(5, 12), 7, F(0), F(-9, 10)]
    assert polyutil.residues(*cleared(mixed)) == (
        P, [v.numerator * pow(v.denominator, -1, P) % P for v in map(F, mixed)])
    assert polyutil.residues(*cleared(mixed + [F(1, 6 * P)]))[0] == RANK_PRIMES[1]
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
        prime, rank = rank_modulo(rows, ncols)
        prime = prime if rank == ncols else None
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


def test_catalan_reads_its_operator_off_the_first_deficient_pair(monkeypatch):
    # the kernel vector of pair (2, 1), read off the elimination modulo P and
    # checked exactly, is the operator: no exact elimination runs
    shapes = _counting_nullspace(monkeypatch)
    cert = {}
    coeffs = catalan_egf(needed_length(3, 3))
    assert guess_ode(coeffs, max_order=3, max_degree=3, certificate=cert) == CATALAN_OP
    assert cert["pairs"] == [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0)]
    assert shapes == []


def test_bell_reduces_each_order_once_modulo_p(monkeypatch):
    # one lazy elimination modulo P per order, not one per (order, degree)
    # pair: its rows enter only until every column is a pivot
    eliminations = {}

    def counted(pivots, row, p):
        assert p == P
        eliminations.setdefault(id(pivots), [pivots, len(row), 0])[2] += 1
        return insert_row(pivots, row, p)
    monkeypatch.setattr(dfinite, "insert_row", counted)
    assert guess_ode(bell_egf(60), max_order=5, max_degree=5) is None
    assert [ncols for _, ncols, _ in eliminations.values()] == [(r + 1) * 6 for r in range(1, 6)]
    for r, (pivots, ncols, rows) in enumerate(eliminations.values(), 1):
        assert sorted(pivots) == list(range(ncols)) and rows < 60 - r


def test_bell_builds_one_derivative_table(monkeypatch):
    # (n)_i y_n once per n and i <= max_order, not once per cell of every system
    calls = []

    def counted(m, k):
        calls.append((m, k))
        return perm(m, k)
    monkeypatch.setattr(dfinite, "perm", counted)
    coeffs = bell_egf(60)
    assert guess_ode(coeffs, max_order=5, max_degree=5) is None
    assert len(calls) == 6 * len(coeffs)


def _hypergeometric(draw, length):
    """a_0 = c0 and a_(n+1) = c (n + a) / (n + b) a_n: D-finite of low order."""
    a, b = draw(st.integers(-3, 3)), draw(st.integers(1, 4))
    c = F(draw(st.sampled_from([1, -1, 2, 3])), draw(st.integers(1, 3)))
    out = [F(draw(st.integers(1, 3)))]
    for n in range(length - 1):
        out.append(out[-1] * c * (n + a) / (n + b))
    return out


@st.composite
def _guess_cases(draw):
    R, D = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    length = needed_length(R, D) + draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["random", "hypergeometric", "sum", "polynomial",
                                 "sparse", "even"]))
    if kind == "random":  # a miss
        coeffs = [F(draw(st.integers(-9, 9)), draw(st.integers(1, 5))) for _ in range(length)]
    elif kind == "hypergeometric":
        coeffs = _hypergeometric(draw, length)
    elif kind == "sum":
        coeffs = [x + y for x, y in zip(_hypergeometric(draw, length),
                                        _hypergeometric(draw, length))]
    elif kind == "polynomial":  # nullspaces of dimension above 1
        top = draw(st.integers(0, 9))
        coeffs = [F(draw(st.integers(-3, 3))) if n <= top else F(0) for n in range(length)]
    elif kind == "sparse":
        coeffs = [F(draw(st.sampled_from([0, 0, 0, 0, 1, -1, 2]))) for _ in range(length)]
    else:  # f(t^2)
        half = _hypergeometric(draw, length)
        coeffs = [half[n // 2] if n % 2 == 0 else F(0) for n in range(length)]
    scale = draw(st.sampled_from(["none", "multiple", "denominator", "one denominator"]))
    if scale == "multiple":  # every residue modulo 2^61-1 vanishes
        coeffs = [c * P for c in coeffs]
    elif scale == "denominator":  # 2^61-1 divides every denominator
        coeffs = [c / P for c in coeffs]
    elif scale == "one denominator":
        n = draw(st.integers(0, length - 1))
        coeffs[n] += F(1, P)
    return coeffs, R, D


# a polynomial series whose (3, 2) nullspace has dimension above 1: degree-major
# unknowns in the exact system pick another basis vector, so another operator
@example(([F(c, P) for c in (-3, 3, -2, 3, 2, 0, 2)] + [F(0)] * 18, 3, 2))
@settings(max_examples=300, deadline=None)
@given(_guess_cases())
def test_one_elimination_per_order_matches_per_pair_route(case):
    coeffs, R, D = case
    cert = {}
    op = guess_ode(coeffs, max_order=R, max_degree=D, certificate=cert)
    assert (op, cert["prime"], cert["pairs"]) == guess_ode_per_pair(coeffs, R, D)


def test_polynomial_series_match_per_pair_route():
    # nullspaces of dimension above 1 are common here, and the operator read
    # off one depends on the order of the unknowns in the exact system
    rng = random.Random(5)
    for _ in range(400):
        R, D = rng.randint(1, 3), rng.randint(0, 3)
        top = rng.randint(0, 9)
        coeffs = [F(rng.randint(-3, 3)) if n <= top else F(0)
                  for n in range(needed_length(R, D) + rng.randint(0, 2))]
        cert = {}
        op = guess_ode(coeffs, max_order=R, max_degree=D, certificate=cert)
        assert (op, cert["prime"], cert["pairs"]) == guess_ode_per_pair(coeffs, R, D)


# the invariants-ode points of the session benchmark, and the CLI's default caps
@pytest.mark.parametrize("series, R, D", [
    *[("catalan-egf", R, D) for R, D in ((2, 2), (2, 3), (3, 2), (3, 3))],
    ("catalan-sq-ogf", 3, 4), ("catalan-sq-ogf", 3, 5),
    ("catalan-egf", 6, 8), ("catalan-sq-ogf", 6, 8)])
def test_invariant_series_read_their_operator_off_one_elimination(monkeypatch, series, R, D):
    coeffs = builtin_series(series, needed_length(R, D))
    shapes = _counting_nullspace(monkeypatch)
    cert = {}
    op = guess_ode(coeffs, max_order=R, max_degree=D, certificate=cert)
    assert shapes == [] and op is not None
    assert (op, cert["prime"], cert["pairs"]) == guess_ode_per_pair(coeffs, R, D)


@pytest.mark.parametrize("coeffs, R, D", [
    # a (3, 2) nullspace of dimension above 1 modulo P
    ([F(c, P) for c in (-3, 3, -2, 3, 2, 0, 2)] + [F(0)] * 18, 3, 2),
    # exp(a t): y' - a y, with a beyond the lift bound 2^30 of P, lifts modulo 2^89-1
    ([F((2**31 + 1) ** n, factorial(n)) for n in range(needed_length(1, 1))], 1, 1),
])
def test_guess_ode_falls_back_to_nullspace(monkeypatch, coeffs, R, D):
    shapes = _counting_nullspace(monkeypatch)
    cert = {}
    op = guess_ode(coeffs, max_order=R, max_degree=D, certificate=cert)
    assert shapes and op is not None
    assert (op, cert["prime"], cert["pairs"]) == guess_ode_per_pair(coeffs, R, D)


def test_echelon_pivots_of_a_column_prefix_are_a_prefix():
    rng = random.Random(61)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        ints = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)]
        for p in (None, 3, P):
            rows = [[F(a) for a in row] for row in ints] if p is None else ints
            pivots, mat = echelon(rows, ncols, p)
            for k in range(ncols + 1):
                head, _ = echelon([row[:k] for row in rows], k, p)
                assert head == [c for c in pivots if c < k]
            # reduced: each pivot column is a unit vector
            for rix, pc in enumerate(pivots):
                assert [row[pc] for row in mat] == [int(i == rix) for i in range(nrows)]


def test_insert_row_finds_the_pivots_of_echelon_row_by_row():
    rng = random.Random(63)
    lifted = 0
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)]
        for p in (3, P):
            pivots = {}
            for n, row in enumerate(rows, 1):
                before = set(pivots)
                col = insert_row(pivots, [a % p for a in row], p)
                assert set(pivots) - before == ({col} if col is not None else set())
                assert sorted(pivots) == echelon(rows[:n], ncols, p)[0]
            # the kernel vector of the first column that is not a pivot kills
            # every row modulo p, when each of its entries lifts
            c = next((c for c in range(ncols) if c not in pivots), None)
            if c is None:
                continue
            vec = lifted_kernel_vector(pivots, c, p)
            if all(v is not None for v in vec):
                res = [v.numerator * pow(v.denominator, -1, p) % p for v in vec]
                assert res[c] == 1
                assert all(sum(a * b for a, b in zip(row, res)) % p == 0 for row in rows)
                lifted += 1
    assert lifted > 50


def _counting_echelon(monkeypatch):
    """The primes of every elimination nullspace runs; None for exact."""
    primes = []

    def counted(rows, ncols, p=None, _original=polyutil.echelon):
        primes.append(p)
        return _original(rows, ncols, p)
    monkeypatch.setattr(polyutil, "echelon", counted)
    return primes


@st.composite
def _deficient_matrices(draw):
    """A rational matrix with a column that depends on the others, entries of
    up to `bits` bits, and the primes nullspace is to try: its own, or one
    small prime, under which most lifts fail and exact elimination answers."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    bits = draw(st.sampled_from([2, 40, 100, 300, 1000]))
    entry = st.builds(F, st.integers(-2**bits, 2**bits), st.integers(1, 2**bits))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    k = draw(st.integers(0, ncols - 1))
    weights = [draw(entry) if j != k else F(0) for j in range(ncols)]
    for row in rows:
        row[k] = sum(w * a for w, a in zip(weights, row))
    return rows, ncols, draw(st.sampled_from([polyutil.LIFT_PRIMES, (5,)]))


# a minor of determinant P: the lift modulo P fails its check, the next prime answers
@example(([[F(1), F(2), F(0)], [F(3), F(6 + P), F(0)]], 3, polyutil.LIFT_PRIMES))
@example(([[F(1), F(2), F(3)], [F(2), F(4), F(7)]], 3, (5,)))  # -2 does not lift modulo 5
@settings(max_examples=150, deadline=None)
@given(_deficient_matrices())
def test_nullspace_matches_exact_elimination(case):
    rows, ncols, primes = case
    with mock.patch.object(polyutil, "LIFT_PRIMES", primes):
        got = nullspace(rows, ncols)
    assert got == exact_nullspace(rows, ncols) and got
    assert all(type(v) is F for vec in got for v in vec)


def test_nullspace_escalates_through_the_primes(monkeypatch):
    cases = [[[F(1), F(2)], [F(3), F(6 + P)]], [[F(1), F(2), F(0)], [F(3), F(6 + P), F(0)]]]
    # kernel entries of about 40, 100, 200, 600 and 2000 bits: each prime's
    # reconstruction bound sqrt(p/2) admits only the smaller ones
    cases += [[[F(1), F(-2**bits - 1, 3)]] for bits in (40, 100, 200, 600, 2000)]
    want = [exact_nullspace(rows, len(rows[0])) for rows in cases]
    # full rank over Q, determinant P: the lift modulo P fails its check
    assert want[:2] == [[], [[0, 0, 1]]]
    primes = _counting_echelon(monkeypatch)
    tried = []
    for rows in cases:
        primes.clear()
        assert nullspace(rows, len(rows[0])) == want[len(tried)]
        tried.append(len(primes))
    assert tried == [2, 2, 2, 4, 4, 5, 6]
    assert primes == [*polyutil.LIFT_PRIMES, None]


def test_nullspace_falls_back_to_exact_elimination(monkeypatch):
    cases = [[[F(1), F(1), F(3)], [F(2), F(2), F(7)]], [[F(1), F(2), F(3)], [F(2), F(4), F(7)]]]
    want = [exact_nullspace(rows, 3) for rows in cases]
    assert want == [[[-1, 1, 0]], [[-2, 1, 0]]]
    primes = _counting_echelon(monkeypatch)
    monkeypatch.setattr(polyutil, "LIFT_PRIMES", (5,))
    # -1 lifts modulo 5 (|n|, d <= sqrt(5/2)); -2 does not
    for rows, exact, tried in zip(cases, want, [[5], [5, None]]):
        primes.clear()
        assert nullspace(rows, 3) == exact and primes == tried


def test_wrong_reconstruction_is_caught(monkeypatch):
    rows = [[F(1), F(2), F(-1), F(1, 2)], [F(0), F(3), F(1), F(5)], [F(1), F(5), F(0), F(11, 2)]]
    want = exact_nullspace(rows, 4)
    assert len(want) == 2
    lift = polyutil._rational_lift
    primes = _counting_echelon(monkeypatch)
    wrong = [
        # wrong only modulo the first prime: the next one answers
        (lambda a, p: lift(a, p) + (p == P), [P, RANK_PRIMES[1]]),
        # wrong modulo every prime, or no rational found: exact elimination answers
        (lambda a, p: lift(a, p) + 1, [*polyutil.LIFT_PRIMES, None]),
        (lambda a, p: None, [*polyutil.LIFT_PRIMES, None]),
    ]
    for bad_lift, tried in wrong:
        primes.clear()
        monkeypatch.setattr(polyutil, "_rational_lift", bad_lift)
        assert nullspace(rows, 4) == want and primes == tried


@st.composite
def _operators_and_series(draw):
    fraction = st.builds(F, st.integers(-20, 20), st.sampled_from([1, 1, 2, 3, 7, 12, P]))
    order = draw(st.integers(0, 3))
    polys = [[draw(fraction) for _ in range(draw(st.integers(0, 4)))] for _ in range(order)]
    lead = [draw(fraction) for _ in range(draw(st.integers(0, 3)))] + [draw(fraction.filter(bool))]
    series = draw(st.lists(fraction | st.integers(-5, 5), max_size=12))
    return OdeOperator((*polys, lead)), series


@settings(max_examples=200, deadline=None)
@given(_operators_and_series())
def test_apply_ode_matches_fraction_sums(case):
    op, series = case
    got = apply_ode(op, series)
    assert got == apply_ode_fractions(op, series)
    assert all(type(v) is F for v in got)


def test_guess_ode_hit_does_fraction_arithmetic_per_output_coefficient(monkeypatch):
    # the systems, their nullspaces and the residual check run on integers;
    # the Fraction sums and products left are O(coefficients of the operator)
    coeffs = catalan_egf(needed_length(4, 6))
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        def counted(*args, _original=getattr(F, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(F, name, counted)
    op = guess_ode(coeffs, max_order=4, max_degree=6)
    monkeypatch.undo()
    assert op == CATALAN_OP
    assert len(calls) <= sum(len(p) for p in op.coeffs) + 3
