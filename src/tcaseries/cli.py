"""Command-line front end.

Every pipeline is exposed as a subcommand with JSON (default) or text output.
Each subcommand is declared once, in `_COMMANDS`, and only the format asked
for is rendered. Output is deterministic: identical invocations produce
byte-identical bytes.

Exit codes: 0 success; 1 oracle-suite mismatch; 2 bad flags; 3 precondition
violation (bad mathematical input, insufficient truncation); 4 not-found /
not-recognized verdicts; 5 internal error (a failed runtime invariant).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import comb, factorial

from .dfinite import _join_terms, _poly_times, guess_ode, needed_length, ode_to_text
from .grassmann import (
    GrClass,
    LambdaGrClass,
    detring_formal_character,
    gessel_enhanced,
    pushforward_module_character,
    rank1_enhanced_closed,
    theta_r,
)
from .partitions import format_partition, parse_partition
from .seriesforms import (
    EnhancedExpr,
    ExpPoly,
    SigmaExpr,
    TSeries,
    annihilator,
    char_poly_form,
    character_at,
    charpoly_to_json,
    enhanced_expand,
    enhanced_to_json,
    ex_sigma,
    exppoly_from_json,
    exppoly_to_json,
    fourier_dual_hilbert,
    ode_to_json,
    phi_sigma,
    sigma_expand,
    sigma_to_json,
    tca_enhanced_exp,
    tseries_to_json,
)
from .symfunc import SCHUR, SymFunc, sym_algebra_character
from .symfunc import to_json as symfunc_to_json
from .torus import (
    LaurentPoly,
    enhanced_from_equivariant,
    invariant_dimensions,
    power_sum_lp,
    sym_degree_characters,
)

__all__ = ["main", "builtin_series"]


class UsageError(Exception):
    """Bad flag combination detected after argparse (exit code 2)."""


def _non_negative_int(text: str, low: int = 0) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _non_negative_int(text, 1)


# --- built-in series (generated, never literal tables) ------------------------


def builtin_series(name: str, length: int) -> list[Fraction]:
    out = [Fraction(0)] * length
    if name == "catalan-egf":
        # EGF of SL(2) invariant dimensions 1,0,1,0,2,...: C_k t^{2k}/(2k)!
        c = 1
        for k in range((length + 1) // 2):
            out[2 * k] = Fraction(c, factorial(2 * k))
            c = c * (4 * k + 2) // (k + 2)
    elif name == "bell-egf":
        # e^{e^t - 1}: B_{m+1} = sum_k binom(m, k) B_k
        bell = [1]
        for m in range(length - 1):
            bell.append(sum(comb(m, k) * bell[k] for k in range(m + 1)))
        out = [Fraction(b, factorial(i)) for i, b in enumerate(bell[:length])]
    elif name == "catalan-sq-ogf":
        # OGF of SL(2)xSL(2) invariant dimensions: C_k^2 t^{2k}
        c = 1
        for k in range((length + 1) // 2):
            out[2 * k] = Fraction(c * c)
            c = c * (4 * k + 2) // (k + 2)
    else:
        raise UsageError(f"unknown series {name!r}")
    return out


# --- text renderers ------------------------------------------------------------


def sigma_text(e: SigmaExpr) -> str:
    pairs = []
    for (mu, nu), c in reversed(list(e.terms.items())):
        factors = ([f"s{format_partition(mu)}"] if mu else [])
        factors += [f"sigma_{i}" for i in nu]
        pairs.append((c, "*".join(factors)))
    return _join_terms(pairs)


def symfunc_text(f: SymFunc) -> str:
    trunc = "exact" if f.truncation is None else f"degree <= {f.truncation}"
    body = _join_terms([(c, f"{f.basis}{format_partition(lam)}" if lam else "")
                        for lam, c in f.terms.items()])
    return f"[{trunc}] {body}"


def tseries_text(s: TSeries) -> str:
    body = _join_terms([(c, f"t{format_partition(lam)}" if lam else "")
                        for lam, c in s.coeffs.items()])
    return f"[t-weight <= {s.truncation}] {body}"


def exppoly_text(h: ExpPoly) -> str:
    pairs = []
    for r in sorted(h.parts, reverse=True):
        name = "" if r == 0 else "exp(t)" if r == 1 else f"exp({r}*t)"
        pairs.append(_poly_times(h.parts[r], name))
    return _join_terms(pairs)


def _ttpoly_text(poly) -> str:
    pairs = []
    for (t, T), c in poly.items():
        factors = ([f"t{format_partition(t)}"] if t else [])
        factors += ([f"T{format_partition(T)}"] if T else [])
        pairs.append((c, "*".join(factors)))
    return _join_terms(pairs)


def enhanced_text(e: EnhancedExpr) -> str:
    parts = []
    for r, poly in e.parts.items():
        body = _ttpoly_text(poly)
        parts.append(f"({body})" if r == 0 else f"({body})*exp({r}*T[0])")
    return " + ".join(parts) if parts else "0"


# --- subcommand handlers --------------------------------------------------------
#
# Each handler returns (build, render, code): zero-argument callables that
# build the JSON object and the text, and the exit code. `main` builds only
# the format asked for.


def _result(obj, value, to_json, to_text):
    """`value` as obj's result, in either format on demand."""
    return lambda: {**obj, "result": to_json(value)}, lambda: to_text(value), 0


def _schur_form(obj, e: SigmaExpr, truncate):
    """`--form s`: the Schur series of e truncated at `truncate`."""
    if truncate is None:
        raise UsageError("--form s requires --truncate")
    f = sigma_expand(e, truncate)
    obj["truncation"] = truncate
    return _result(obj, f, symfunc_to_json, symfunc_text)


def _enhanced_form(obj, e: EnhancedExpr, truncate):
    """An enhanced series, with its expansion in the t_i when `truncate` is set."""
    if truncate is None:
        return _result(obj, e, lambda e: {"series": enhanced_to_json(e)}, enhanced_text)
    ts = enhanced_expand(e, truncate)
    # "truncation" follows "result" in this object's wire form
    return (lambda: {**obj, "result": {"series": enhanced_to_json(e),
                                       "expansion": tseries_to_json(ts)}, "truncation": truncate},
            lambda: enhanced_text(e) + "\n" + tseries_text(ts), 0)


def _cmd_detring(args):
    e = detring_formal_character(args.d, args.r)
    obj = {"command": "detring", "d": args.d, "r": args.r, "form": args.form}
    if args.form == "sigma":
        return _result(obj, e, sigma_to_json, sigma_text)
    if args.form == "s":
        return _schur_form(obj, e, args.truncate)
    if args.form == "enhanced":
        return _enhanced_form(obj, phi_sigma(e), args.truncate)
    return _result(obj, ex_sigma(e), exppoly_to_json, exppoly_text)  # form == "hilbert"


def _cmd_theta(args):
    c = LambdaGrClass({args.mu: GrClass(args.d, args.r, {args.alpha: 1})})
    e = theta_r(c)
    obj = {"command": "theta", "d": args.d, "r": args.r,
           "mu": format_partition(args.mu), "alpha": format_partition(args.alpha),
           "form": args.form}
    if args.form == "s":
        return _schur_form(obj, e, args.truncate)
    return _result(obj, e, sigma_to_json, sigma_text)


def _cmd_hilbert(args):
    h = ex_sigma(detring_formal_character(args.d, args.r))
    roots = annihilator(h)
    return (lambda: {"command": "hilbert", "d": args.d, "r": args.r,
                     "result": {"hilbert": exppoly_to_json(h), "annihilator": list(roots)}},
            lambda: exppoly_text(h) + f"\nannihilator roots: {list(roots)}", 0)


def _cmd_enhanced(args):
    if args.r == 1:
        e = rank1_enhanced_closed(args.d)
        if e != phi_sigma(detring_formal_character(args.d, 1)):
            raise AssertionError(f"rank-1 closed form disagrees with phi_sigma at d={args.d}")
    else:
        e = phi_sigma(detring_formal_character(args.d, args.r))
    return _enhanced_form({"command": "enhanced", "d": args.d, "r": args.r}, e, args.truncate)


def _cmd_gessel(args):
    s = gessel_enhanced(args.d, args.r, args.truncate)
    obj = {"command": "gessel", "d": args.d, "r": args.r, "truncation": args.truncate}
    return _result(obj, s, tseries_to_json, tseries_text)


_HILBSCHUR_REPS = {
    "sym2": ({(2,): Fraction(1), (1, 1): Fraction(1, 2)}, 2),
    "wedge2": ({(2,): Fraction(-1), (1, 1): Fraction(1, 2)}, 2),
    "tensor2": ({(1, 1): Fraction(1)}, 2),
    "tensor3": ({(1, 1, 1): Fraction(1)}, 3),
}


def _cmd_hilbschur(args):
    coeffs, deg = _HILBSCHUR_REPS[args.rep]
    s = tca_enhanced_exp(TSeries(deg, coeffs), deg, args.truncate)
    obj = {"command": "hilbschur", "rep": args.rep, "truncation": args.truncate}
    return _result(obj, s, tseries_to_json, tseries_text)


def _cmd_invariants(args):
    if args.group == "sl2":
        if args.rep not in (None, "standard"):
            raise UsageError("group sl2 supports --rep standard")
        factors = [("sl", 2)]
        chi = power_sum_lp(1, 2)
    elif args.group == "sl2xsl2":
        if args.rep != "tensor":
            raise UsageError("group sl2xsl2 supports --rep tensor")
        factors = [("sl", 2), ("sl", 2)]
        chi = LaurentPoly(4, {(1, 0, 1, 0): Fraction(1), (1, 0, 0, 1): Fraction(1),
                              (0, 1, 1, 0): Fraction(1), (0, 1, 0, 1): Fraction(1)})
    else:  # trivial
        if args.dim is None:
            raise UsageError("group trivial requires --dim")
        if args.rep is not None:
            raise UsageError("--rep does not apply to --group trivial")
        factors = []
        chi = LaurentPoly(0, {(): Fraction(args.dim)})
    dims = invariant_dimensions(factors, chi, args.nmax)
    obj = {"command": "invariants", "group": args.group, "rep": args.rep or "standard",
           "nmax": args.nmax, "result": {"dims": dims}}
    return lambda: obj, lambda: " ".join(str(n) for n in dims), 0


def _cmd_dfinite(args):
    length = args.nmax if args.nmax is not None else \
        needed_length(args.max_order, args.max_degree)
    coeffs = builtin_series(args.series, length)
    cert: dict = {}
    op = guess_ode(coeffs, max_order=args.max_order, max_degree=args.max_degree,
                   certificate=cert)
    obj = {"command": "dfinite", "series": args.series,
           "max_order": args.max_order, "max_degree": args.max_degree,
           "coefficients_used": length}
    if op is not None:
        return _result(obj, op, lambda op: {
            "found": True, "order": op.order, "degree": op.degree,
            "operator": ode_to_json(op), "text": ode_to_text(op)}, ode_to_text)
    note = ("no annihilating operator within the search bounds; "
            "this is not a proof that the series is not D-finite")
    certified = len(cert["pairs"]) == args.max_order * (args.max_degree + 1)
    obj["result"] = {"found": False, "note": note, "certified": certified,
                     "prime": None if cert["prime"] is None else str(cert["prime"]),
                     "certified_pairs": [list(pair) for pair in cert["pairs"]]}
    return lambda: obj, lambda: f"not found: {note}; " + (
        f"every (order, degree) pair certified by full rank mod {cert['prime']}"
        if certified else "not every (order, degree) pair certified mod a prime"), 4


def _cmd_fourier(args):
    if (args.hilb is None) == (args.r is None):
        raise UsageError("provide exactly one of --hilb or --r")
    if args.hilb is not None:
        try:
            h = exppoly_from_json(json.loads(args.hilb))
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            raise UsageError(f"bad --hilb payload: {exc}") from exc
    else:
        h = ex_sigma(detring_formal_character(args.d, args.r))
    out = fourier_dual_hilbert(h, args.d)
    r = {} if args.r is None else {"r": args.r}
    return (lambda: {"command": "fourier", "d": args.d, "result": exppoly_to_json(out), **r},
            lambda: exppoly_text(out), 0)


def _charpoly_text(form) -> str:
    return f"m={form.m} threshold={form.threshold}\n" + "\n".join(
        f"[{i}] {_ttpoly_text(p)}" for i, p in form.entries.items())


def _cmd_charpoly(args):
    form = char_poly_form(rank1_enhanced_closed(args.d), args.d)
    obj = {"command": "charpoly", "d": args.d}
    if args.at is None:
        return _result(obj, form, charpoly_to_json, _charpoly_text)
    value = character_at(form, args.at)
    obj["at"] = format_partition(args.at)
    obj["result"] = {"value": value}
    return lambda: obj, lambda: f"trace at {obj['at']} = {value}", 0


# --- oracle suites --------------------------------------------------------------


def _suite_theta_vs_pushforward():
    cases = []
    for d, r in ((2, 1), (3, 1), (3, 2)):
        for alpha in ((), (1,), (2,), (1, 1)):
            if len(alpha) > r:
                continue
            lhs = sigma_expand(theta_r(
                LambdaGrClass({(): GrClass(d, r, {alpha: 1})})), 6)
            rhs = pushforward_module_character(d, r, alpha, 6)
            cases.append((f"d={d} r={r} alpha={format_partition(alpha)}",
                          lhs == rhs, f"{lhs.terms} != {rhs.terms}"))
    return cases


def _suite_detring_bruteforce():
    cases = []
    for d, r in ((2, 1), (3, 1), (3, 2), (2, 2), (3, 3)):
        lhs = sigma_expand(detring_formal_character(d, r), 6)
        if r == d:
            rhs = sym_algebra_character(SymFunc(SCHUR, {(1,): Fraction(d)}, 6), 6)
        else:
            rhs = pushforward_module_character(d, r, (), 6)
        cases.append((f"d={d} r={r}", lhs == rhs, f"{lhs.terms} != {rhs.terms}"))
    return cases


def _suite_gessel_vs_sigma():
    cases = []
    for d, r in ((2, 1), (3, 2), (2, 2), (4, 3)):
        lhs = gessel_enhanced(d, r, 6)
        rhs = enhanced_expand(phi_sigma(detring_formal_character(d, r)), 6)
        cases.append((f"d={d} r={r}", lhs == rhs,
                      f"{lhs.coeffs} != {rhs.coeffs}"))
    return cases


def _suite_enh1_integral():
    cases = []
    for m in (1, 2):
        chi = power_sum_lp(1, 2).scale(m)
        hilb = sym_degree_characters(chi, 5)
        lhs = enhanced_from_equivariant(hilb, 2, 5)
        rhs = enhanced_expand(phi_sigma(SigmaExpr({((), (0,) * m): Fraction(1)})), 5)
        cases.append((f"m={m}", lhs == rhs, f"{lhs.coeffs} != {rhs.coeffs}"))
    return cases


_SUITES = {
    "theta-vs-pushforward": _suite_theta_vs_pushforward,
    "detring-bruteforce": _suite_detring_bruteforce,
    "gessel-vs-sigma": _suite_gessel_vs_sigma,
    "enh1-integral": _suite_enh1_integral,
    "empty": lambda: [],
}


def _cmd_oracle_check(args):
    rows = [{"name": name, "ok": ok} if ok else {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in _SUITES[args.suite]()]
    failed = sum(not row["ok"] for row in rows)
    passed = len(rows) - failed
    obj = {"command": "oracle-check", "suite": args.suite,
           "result": {"cases": rows, "passed": passed, "failed": failed}}
    return lambda: obj, lambda: "\n".join(
        [f"ok {row['name']}" if row["ok"] else f"FAIL {row['name']}: {row['detail']}"
         for row in rows] + [f"passed {passed} failed {failed}"]), 1 if failed else 0


# --- the subcommand table -------------------------------------------------------

_D = ("--d", dict(type=int, required=True))
_R = ("--r", dict(type=int, required=True))
_TRUNCATE = ("--truncate", dict(type=_non_negative_int))
_NEEDS_TRUNCATE = ("--truncate", dict(type=_non_negative_int, required=True))

# name -> (help, handler, flags in usage order as (flag, argparse kwargs));
# every subcommand also takes --json (default) or --text
_COMMANDS = {
    "detring": ("formal character of a determinantal ring", _cmd_detring, [
        _D, _R, ("--form", dict(choices=("sigma", "s", "enhanced", "hilbert"), default="sigma")),
        _TRUNCATE]),
    "theta": ("theta_r of a Grassmannian class", _cmd_theta, [
        _D, _R, ("--alpha", dict(type=parse_partition, default=())),
        ("--mu", dict(type=parse_partition, default=())),
        ("--form", dict(choices=("sigma", "s"), default="sigma")), _TRUNCATE]),
    "hilbert": ("Hilbert series of a determinantal ring", _cmd_hilbert, [_D, _R]),
    "enhanced": ("enhanced Hilbert series of a determinantal ring", _cmd_enhanced,
                 [_D, _R, _TRUNCATE]),
    "gessel": ("enhanced series via the Gessel determinant", _cmd_gessel,
               [_D, _R, _NEEDS_TRUNCATE]),
    "hilbschur": ("enhanced series of Sym of a small object", _cmd_hilbschur, [
        ("--rep", dict(choices=tuple(_HILBSCHUR_REPS), required=True)), _NEEDS_TRUNCATE]),
    "invariants": ("dimension sequence of tensor-power invariants", _cmd_invariants, [
        ("--group", dict(choices=("sl2", "sl2xsl2", "trivial"), required=True)),
        ("--rep", dict(choices=("standard", "tensor"))),
        ("--nmax", dict(type=_non_negative_int, required=True)),
        ("--dim", dict(type=_non_negative_int))]),
    "dfinite": ("guess an annihilating ODE for a built-in series", _cmd_dfinite, [
        ("--series", dict(choices=("catalan-egf", "bell-egf", "catalan-sq-ogf"), required=True)),
        ("--max-order", dict(type=_positive_int, default=6)),
        ("--max-degree", dict(type=_non_negative_int, default=8)),
        ("--nmax", dict(type=_non_negative_int, help="number of coefficients to generate"))]),
    "fourier": ("Fourier-dual Hilbert series", _cmd_fourier, [
        _D, ("--r", dict(type=int)), ("--hilb", dict(help="ExpPoly JSON payload"))]),
    "charpoly": ("character polynomial form of a rank-1 determinantal ring", _cmd_charpoly, [
        _D, ("--at", dict(type=parse_partition))]),
    "oracle-check": ("run a cross-route oracle suite", _cmd_oracle_check, [
        ("--suite", dict(choices=tuple(_SUITES), required=True))]),
}
_HANDLERS = {name: handler for name, (_, handler, _) in _COMMANDS.items()}


def _build_parser(first: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `first` alone under the same usage line."""
    only = [first] if first in _COMMANDS else None
    parser = argparse.ArgumentParser(
        prog="tcaseries",
        description="Exact characters, Hilbert series, and invariants of "
                    "modules over twisted commutative algebras.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=only and "{" + ",".join(_COMMANDS) + "}")
    for name in only or _COMMANDS:
        help_text, _, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="output", action="store_const",
                         const="json", help="JSON output (default)")
        fmt.add_argument("--text", dest="output", action="store_const",
                         const="text", help="human-readable output")
        p.set_defaults(output="json")
    return parser


def main(argv=None) -> int:
    # exact integers are read and printed in full, however many digits they have
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # a named subcommand needs only its own parser; -h and a bad command, all
        parser = _build_parser(next(iter(sys.argv[1:] if argv is None else argv), None))
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        try:
            # a flag that the chosen form or group would ignore is refused
            if getattr(args, "form", None) in ("sigma", "hilbert") and args.truncate is not None:
                raise UsageError(f"--truncate does not apply to --form {args.form}")
            if getattr(args, "dim", None) is not None and args.group != "trivial":
                raise UsageError(f"--dim does not apply to --group {args.group}")
            build, render, code = _HANDLERS[args.command](args)
            payload = render() if args.output == "text" else json.dumps(build(), indent=2)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, OverflowError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except AssertionError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return 5
        sys.stdout.write(payload + "\n")
        return code
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
