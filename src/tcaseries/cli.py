"""Command-line front end.

Every pipeline is exposed as a subcommand with JSON (default) or text output.
Output is deterministic: identical invocations produce byte-identical bytes.

Exit codes: 0 success; 1 oracle-suite mismatch; 2 bad flags; 3 precondition
violation (bad mathematical input, insufficient truncation); 4 not-found /
not-recognized verdicts; 5 internal error (a failed runtime invariant).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

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
from .polyutil import binom, factorial
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


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


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
            bell.append(sum(binom(m, k) * bell[k] for k in range(m + 1)))
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


def _schur_form(obj, e: SigmaExpr, truncate):
    """`--form s`: the Schur series of e truncated at `truncate`."""
    if truncate is None:
        raise UsageError("--form s requires --truncate")
    f = sigma_expand(e, truncate)
    obj["truncation"] = truncate
    obj["result"] = symfunc_to_json(f)
    return obj, symfunc_text(f), 0


def _enhanced_form(obj, e: EnhancedExpr, truncate):
    """An enhanced series, with its expansion in the t_i when `truncate` is set."""
    obj["result"] = {"series": enhanced_to_json(e)}
    text = enhanced_text(e)
    if truncate is not None:
        ts = enhanced_expand(e, truncate)
        obj["truncation"] = truncate
        obj["result"]["expansion"] = tseries_to_json(ts)
        text += "\n" + tseries_text(ts)
    return obj, text, 0


def _cmd_detring(args):
    e = detring_formal_character(args.d, args.r)
    obj = {"command": "detring", "d": args.d, "r": args.r, "form": args.form}
    if args.form == "sigma":
        obj["result"] = sigma_to_json(e)
        return obj, sigma_text(e), 0
    if args.form == "s":
        return _schur_form(obj, e, args.truncate)
    if args.form == "enhanced":
        return _enhanced_form(obj, phi_sigma(e), args.truncate)
    h = ex_sigma(e)  # form == "hilbert"
    obj["result"] = exppoly_to_json(h)
    return obj, exppoly_text(h), 0


def _cmd_theta(args):
    c = LambdaGrClass({args.mu: GrClass(args.d, args.r, {args.alpha: 1})})
    e = theta_r(c)
    obj = {"command": "theta", "d": args.d, "r": args.r,
           "mu": format_partition(args.mu), "alpha": format_partition(args.alpha),
           "form": args.form}
    if args.form == "s":
        return _schur_form(obj, e, args.truncate)
    obj["result"] = sigma_to_json(e)
    return obj, sigma_text(e), 0


def _cmd_hilbert(args):
    h = ex_sigma(detring_formal_character(args.d, args.r))
    roots = annihilator(h)
    obj = {"command": "hilbert", "d": args.d, "r": args.r,
           "result": {"hilbert": exppoly_to_json(h),
                      "annihilator": list(roots)}}
    text = exppoly_text(h) + f"\nannihilator roots: {list(roots)}"
    return obj, text, 0


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
    obj = {"command": "gessel", "d": args.d, "r": args.r,
           "truncation": args.truncate, "result": tseries_to_json(s)}
    return obj, tseries_text(s), 0


_HILBSCHUR_REPS = {
    "sym2": ({(2,): Fraction(1), (1, 1): Fraction(1, 2)}, 2),
    "wedge2": ({(2,): Fraction(-1), (1, 1): Fraction(1, 2)}, 2),
    "tensor2": ({(1, 1): Fraction(1)}, 2),
    "tensor3": ({(1, 1, 1): Fraction(1)}, 3),
}


def _cmd_hilbschur(args):
    coeffs, deg = _HILBSCHUR_REPS[args.rep]
    s = tca_enhanced_exp(TSeries(deg, coeffs), deg, args.truncate)
    obj = {"command": "hilbschur", "rep": args.rep, "truncation": args.truncate,
           "result": tseries_to_json(s)}
    return obj, tseries_text(s), 0


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
    return obj, " ".join(str(n) for n in dims), 0


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
    note = ("no annihilating operator within the search bounds; "
            "this is not a proof that the series is not D-finite")
    if op is None:
        certified = len(cert["pairs"]) == args.max_order * (args.max_degree + 1)
        obj["result"] = {"found": False, "note": note, "certified": certified,
                         "prime": None if cert["prime"] is None else str(cert["prime"]),
                         "certified_pairs": [list(pair) for pair in cert["pairs"]]}
        clause = (f"every (order, degree) pair certified by full rank mod {cert['prime']}"
                  if certified else "not every (order, degree) pair certified mod a prime")
        return obj, f"not found: {note}; {clause}", 4
    obj["result"] = {"found": True, "order": op.order, "degree": op.degree,
                     "operator": ode_to_json(op), "text": ode_to_text(op)}
    return obj, ode_to_text(op), 0


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
    obj = {"command": "fourier", "d": args.d,
           "result": exppoly_to_json(out)}
    if args.r is not None:
        obj["r"] = args.r
    return obj, exppoly_text(out), 0


def _cmd_charpoly(args):
    form = char_poly_form(rank1_enhanced_closed(args.d), args.d)
    obj = {"command": "charpoly", "d": args.d}
    if args.at is not None:
        value = character_at(form, args.at)
        obj["at"] = format_partition(args.at)
        obj["result"] = {"value": value}
        return obj, f"trace at {format_partition(args.at)} = {value}", 0
    obj["result"] = charpoly_to_json(form)
    text = f"m={form.m} threshold={form.threshold}\n" + "\n".join(
        f"[{i}] {_ttpoly_text(p)}" for i, p in form.entries.items())
    return obj, text, 0


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
    cases = _SUITES[args.suite]()
    rows = []
    lines = []
    failed = 0
    for name, ok, detail in cases:
        row = {"name": name, "ok": ok}
        if ok:
            lines.append(f"ok {name}")
        else:
            failed += 1
            row["detail"] = detail
            lines.append(f"FAIL {name}: {detail}")
        rows.append(row)
    passed = len(cases) - failed
    lines.append(f"passed {passed} failed {failed}")
    obj = {"command": "oracle-check", "suite": args.suite,
           "result": {"cases": rows, "passed": passed, "failed": failed}}
    return obj, "\n".join(lines), 1 if failed else 0


_HANDLERS = {
    "detring": _cmd_detring,
    "theta": _cmd_theta,
    "hilbert": _cmd_hilbert,
    "enhanced": _cmd_enhanced,
    "gessel": _cmd_gessel,
    "hilbschur": _cmd_hilbschur,
    "invariants": _cmd_invariants,
    "dfinite": _cmd_dfinite,
    "fourier": _cmd_fourier,
    "charpoly": _cmd_charpoly,
    "oracle-check": _cmd_oracle_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcaseries",
        description="Exact characters, Hilbert series, and invariants of "
                    "modules over twisted commutative algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="output", action="store_const",
                         const="json", help="JSON output (default)")
        fmt.add_argument("--text", dest="output", action="store_const",
                         const="text", help="human-readable output")
        p.set_defaults(output="json")

    p = sub.add_parser("detring", help="formal character of a determinantal ring")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--form", choices=("sigma", "s", "enhanced", "hilbert"),
                   default="sigma")
    p.add_argument("--truncate", type=_non_negative_int)
    common(p)

    p = sub.add_parser("theta", help="theta_r of a Grassmannian class")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", type=parse_partition, default=())
    p.add_argument("--mu", type=parse_partition, default=())
    p.add_argument("--form", choices=("sigma", "s"), default="sigma")
    p.add_argument("--truncate", type=_non_negative_int)
    common(p)

    p = sub.add_parser("hilbert", help="Hilbert series of a determinantal ring")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    common(p)

    p = sub.add_parser("enhanced", help="enhanced Hilbert series of a "
                                        "determinantal ring")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--truncate", type=_non_negative_int)
    common(p)

    p = sub.add_parser("gessel", help="enhanced series via the Gessel determinant")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--truncate", type=_non_negative_int, required=True)
    common(p)

    p = sub.add_parser("hilbschur", help="enhanced series of Sym of a small object")
    p.add_argument("--rep", choices=tuple(_HILBSCHUR_REPS), required=True)
    p.add_argument("--truncate", type=_non_negative_int, required=True)
    common(p)

    p = sub.add_parser("invariants", help="dimension sequence of tensor-power "
                                          "invariants")
    p.add_argument("--group", choices=("sl2", "sl2xsl2", "trivial"), required=True)
    p.add_argument("--rep", choices=("standard", "tensor"))
    p.add_argument("--nmax", type=_non_negative_int, required=True)
    p.add_argument("--dim", type=_non_negative_int)
    common(p)

    p = sub.add_parser("dfinite", help="guess an annihilating ODE for a "
                                       "built-in series")
    p.add_argument("--series", choices=("catalan-egf", "bell-egf",
                                        "catalan-sq-ogf"), required=True)
    p.add_argument("--max-order", type=int, default=6)
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--nmax", type=_non_negative_int, help="number of coefficients to generate")
    common(p)

    p = sub.add_parser("fourier", help="Fourier-dual Hilbert series")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--hilb", help="ExpPoly JSON payload")
    common(p)

    p = sub.add_parser("charpoly", help="character polynomial form of a rank-1 "
                                        "determinantal ring")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--at", type=parse_partition)
    common(p)

    p = sub.add_parser("oracle-check", help="run a cross-route oracle suite")
    p.add_argument("--suite", choices=tuple(_SUITES), required=True)
    common(p)

    return parser


def main(argv=None) -> int:
    # exact integers are read and printed in full, however many digits they have
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        parser = _build_parser()
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
            obj, text, code = _HANDLERS[args.command](args)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, OverflowError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except AssertionError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return 5
        payload = text if args.output == "text" else json.dumps(obj, indent=2)
        sys.stdout.write(payload + "\n")
        return code
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
