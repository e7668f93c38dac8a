"""Library session: one long-lived process making library calls back to back.

    python3 perfbench/session_worker.py REQUESTS RESULT (--seconds S | --count N) [--trace]

REQUESTS is a JSON list from workloads.generate("session-oracles", ...). The
worker prints "ready" once imports and input parsing are done, then runs the
requests in order (cycling through the list if it runs out) until S seconds
have passed or N requests are done; ``--count 0`` only starts up. Each
request computes both sides of a cross-route check, and only that is timed,
between two host speed probes (hostspeed.py). The comparison, and any further
check, happens after the clock stops. RESULT
receives one record per request and, with --trace, the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tcaseries.dfinite import apply_ode, guess_ode, needed_length  # noqa: E402
from tcaseries.grassmann import (  # noqa: E402
    GrClass,
    LambdaGrClass,
    detring_formal_character,
    gessel_enhanced,
    pushforward_module_character,
    theta_r,
)
from tcaseries.seriesforms import (  # noqa: E402
    SigmaExpr,
    enhanced_expand,
    phi_sigma,
    sigma_expand,
    tseries_to_json,
)
from tcaseries.symfunc import to_json as symfunc_to_json  # noqa: E402
from tcaseries.torus import (  # noqa: E402
    LaurentPoly,
    enhanced_from_equivariant,
    invariant_dimensions,
    power_sum_lp,
    sym_degree_characters,
)

import hostspeed  # noqa: E402
from checker import expected_invariants, expected_series, output_size  # noqa: E402
from tracing import Tracer, clock  # noqa: E402

_TENSOR_CHARACTER = {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): 1}


def compute(kind: str, p: dict):
    """Both sides of one cross-route check, as the library computes them."""
    if kind == "theta-push":
        cls = LambdaGrClass({(): GrClass(p["d"], p["r"], {tuple(p["alpha"]): 1})})
        lhs = sigma_expand(theta_r(cls), p["n"])
        rhs = pushforward_module_character(p["d"], p["r"], tuple(p["alpha"]), p["n"])
        return lhs, rhs
    if kind == "gessel-sigma":
        lhs = gessel_enhanced(p["d"], p["r"], p["n"])
        rhs = enhanced_expand(phi_sigma(detring_formal_character(p["d"], p["r"])), p["n"])
        return lhs, rhs
    if kind == "enh-integral":
        m, n = p["m"], p["n"]
        hilb = sym_degree_characters(power_sum_lp(1, 2).scale(m), n)
        lhs = enhanced_from_equivariant(hilb, 2, n)
        rhs = enhanced_expand(phi_sigma(SigmaExpr({((), (0,) * m): Fraction(1)})), n)
        return lhs, rhs
    if kind == "invariants-ode":
        length = needed_length(p["order"], p["degree"])
        if p["group"] == "sl2":
            dims = invariant_dimensions([("sl", 2)], power_sum_lp(1, 2), length - 1)
            coeffs = [Fraction(v, math.factorial(n)) for n, v in enumerate(dims)]
        else:
            dims = invariant_dimensions([("sl", 2), ("sl", 2)],
                                        LaurentPoly(4, _TENSOR_CHARACTER), length - 1)
            coeffs = [Fraction(v) for v in dims]
        return dims, guess_ode(coeffs, max_order=p["order"], max_degree=p["degree"])
    raise ValueError(f"unknown request kind {kind!r}")


def verify(kind: str, p: dict, lhs, rhs) -> tuple[bool, object]:
    """(passed, JSON form of the answer) for one request."""
    if kind == "invariants-ode":
        dims, op = lhs, rhs
        group = {"group": p["group"], "nmax": len(dims) - 1}
        ok = dims == expected_invariants(group) and op is not None
        if ok:
            series = "catalan-egf" if p["group"] == "sl2" else "catalan-sq-ogf"
            ok = not any(apply_ode(op, expected_series(series, len(dims) + 20)))
        return ok, dims
    answer = symfunc_to_json(lhs) if kind == "theta-push" else tseries_to_json(lhs)
    return lhs == rhs, answer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("requests")
    ap.add_argument("result")
    stop = ap.add_mutually_exclusive_group(required=True)
    stop.add_argument("--seconds", type=float)
    stop.add_argument("--count", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    with open(args.requests) as fh:
        requests = json.load(fh)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(sys.modules[__name__])
    print("ready", flush=True)
    start = clock()
    records = []
    i = 0
    while True:
        if args.count is not None and i >= args.count:
            break
        if args.seconds is not None and clock() - start >= args.seconds:
            break
        req = requests[i % len(requests)]
        before = hostspeed.probe()
        if tracer is not None:
            tracer.request = i
            root = tracer.open("session.request")
        c0 = time.process_time()
        t0 = clock()
        lhs, rhs = compute(req["kind"], req["params"])
        t1 = clock()
        c1 = time.process_time()
        if tracer is not None:
            tracer.close(root)
        speed = hostspeed.factor(before, hostspeed.probe())
        ok, answer = verify(req["kind"], req["params"], lhs, rhs)
        terms, bits = output_size(answer)
        records.append({"id": req["id"], "seq": i, "start": t0, "latency": t1 - t0,
                        "cpu": c1 - c0, "speed": speed, "ok": ok, "terms": terms,
                        "bits": bits})
        i += 1
    out = {"records": records}
    if tracer is not None:
        out["trace"] = tracer.dump()
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
