"""tcaseries benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Workloads (see workloads.py for the request mix):

* cli-characters: one fresh ``tcaseries`` process per request; characters,
  Hilbert and enhanced series. Kostka data, Murnaghan-Nakayama characters and
  power-sum products do the work.
* cli-solvers: one fresh process per request; ``dfinite`` and ``invariants``.
  Exact elimination and Laurent products do the work.
* session-oracles: one long-lived library process computing both sides of the
  cross-route checks back to back, with repeated parameter points, so the
  library's caches are warm.

Load is a closed loop with one client: the next request starts when the
previous one has ended. Requests run until S seconds have passed; the one in
flight then completes. Times are reported at a reference host speed
(hostspeed.py). Every response is checked by an independent route after the
clock has stopped (checker.py). The requests that reproduce known CLI defects
are sent once each after the timed region and reported on their own; they are
not part of attempted or failed.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it runs
the library under the tracer (tracing.py) for half the time, then the same
requests untraced, and reports per-module metrics, including the tracing
overhead. A human-readable report goes to stdout, the full run record to
perfbench/out/, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

``--workload all`` runs every workload both ways and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import hostspeed
from tracing import clock, self_times
from workloads import (
    CLI_WORKLOADS,
    TAIL_PERCENTILE,
    WORKLOADS,
    defect_probes,
    generate,
    repeat_frac,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CLI_ENTRY = HERE / "cli_entry.py"
SESSION_WORKER = HERE / "session_worker.py"

SETUP_REPEATS = 9
REQUEST_TIMEOUT = 150.0  # seconds; a request still running then is killed

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_per_request_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "partitions.kostka_and_inverse.self_s": "s/request",
    "partitions.kostka_and_inverse.misses": "count/request",
    "partitions.kostka_number.calls": "count/request",
    "partitions.as_partition.calls": "count/request",
    "partitions.sym_character.calls": "count/request",
    "partitions.sym_character.hit_ratio": "ratio",
    "partitions.mn.calls": "count/request",
    "symfunc.change_basis.self_s": "s/request",
    "symfunc.p_mul.self_s": "s/request",
    "symfunc.p_mul.pairs": "count/request",
    "symfunc.sym_algebra_character.self_s": "s/request",
    "seriesforms.sigma_expand.self_s": "s/request",
    "seriesforms.sigma_expand.terms_out": "count/request",
    "seriesforms.TSeries.mul.self_s": "s/request",
    "seriesforms.TSeries.mul.pairs": "count/request",
    "seriesforms.enhanced_expand.self_s": "s/request",
    "seriesforms.phi_sigma.self_s": "s/request",
    "seriesforms.ex_sigma.self_s": "s/request",
    "grassmann.detring_formal_character.self_s": "s/request",
    "grassmann.gessel_enhanced.self_s": "s/request",
    "grassmann.theta_r.self_s": "s/request",
    "grassmann.pairing.calls": "count/request",
    "grassmann.pushforward_module_character.self_s": "s/request",
    "grassmann._lr_products.hit_ratio": "ratio",
    "dfinite.nullspace.self_s": "s/request",
    "dfinite.nullspace.calls": "count/request",
    "dfinite.nullspace.cells": "count/request",
    "dfinite.found_per_nullspace": "ratio",
    "dfinite.guess_ode.self_s": "s/request",
    "torus.LaurentPoly.mul.self_s": "s/request",
    "torus.LaurentPoly.mul.pairs": "count/request",
    "torus.invariant_dimensions.self_s": "s/request",
    "torus.weyl_inner.self_s": "s/request",
    "cli.self_s": "s/request",
    "session.request.self_s": "s/request",
    "other.self_s": "s/request",
    "process.startup_s": "s/request",
    "process.exit_s": "s/request",
    "trace.wall_s": "s/request",
    "trace.overhead_frac": "ratio",
    "output.terms": "count/request",
    "output.max_coeff_bits": "bit",
    "inputs.repeat_frac": "ratio",
}

# metric "<span>.self_s" for every span name listed above; other spans' self
# time is summed into other.self_s
_LISTED_SPANS = {name[: -len(".self_s")] for name in PER_LAYER
                 if name.endswith(".self_s") and name != "other.self_s"}


class BenchError(Exception):
    """The benchmark cannot run here; it exits 2 without a result."""


# --- processes -------------------------------------------------------------------


def _wait(p: subprocess.Popen, timeout: float):
    """Read stdout to its end and reap the process.

    Returns (stdout, exit code, rusage, time its first line arrived). The
    process is killed if it runs past the timeout."""
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        first = p.stdout.readline()
        first_at = clock()
        out = first + p.stdout.read()
        _, status, rusage = os.wait4(p.pid, 0)
    except BaseException:
        p.kill()
        p.wait()
        raise
    finally:
        timer.cancel()
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return out, p.returncode, rusage, first_at


def _spawn(cmd: list[str], stderr, env=None) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, *cmd], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr)


def run_cli_request(argv: list[str], trace_file: Path | None = None) -> dict:
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE", None)
    if trace_file is not None:
        env["PERFBENCH_TRACE"] = str(trace_file)
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = clock()
        p = _spawn([str(CLI_ENTRY), *argv], err, env)
        out, code, ru, _ = _wait(p, REQUEST_TIMEOUT)
        t1 = clock()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {"start": t0, "end": t1, "latency": t1 - t0, "code": code,
            "cpu": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024,
            "stdout": out.decode(errors="replace"), "stderr": stderr}


def run_session(requests_file: Path, stop: list[str], trace: bool, timeout: float) -> dict:
    """One session worker process: its records (and trace), the time from
    spawning it to its "ready" line, and its peak RSS."""
    result_file = OUT / f"session-{os.getpid()}.json"
    cmd = [str(SESSION_WORKER), str(requests_file), str(result_file), *stop]
    if trace:
        cmd.append("--trace")
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = clock()
        p = _spawn(cmd, err)
        out, code, ru, ready_at = _wait(p, timeout)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if code != 0 or not out.startswith(b"ready\n"):
        raise BenchError(f"session worker exited {code}:\n{stderr[-2000:]}")
    with open(result_file) as fh:
        result = json.load(fh)
    result_file.unlink()
    result.update(setup=ready_at - t0, rss_mb=ru.ru_maxrss / 1024)
    return result


def write_requests(requests: list[dict]) -> Path:
    path = OUT / f"requests-{os.getpid()}.json"
    with open(path, "w") as fh:
        json.dump(requests, fh)
    return path


# --- set-up ----------------------------------------------------------------------


def measure_setup(workload: str, seed: int, tiny: bool) -> list[float]:
    """Generate the inputs and bring the program up to its first request,
    SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = hostspeed.probe()
        t0 = clock()
        requests = generate(workload, seed, tiny)
        if workload in CLI_WORKLOADS:
            p = _spawn([str(CLI_ENTRY), "--probe"], subprocess.DEVNULL)
            out, code, _, ready_at = _wait(p, REQUEST_TIMEOUT)
            if code != 0 or out != b"ready\n":
                raise BenchError(f"CLI probe exited {code}")
            times.append((ready_at - t0) * hostspeed.factor(before, hostspeed.probe()))
        else:
            requests_file = write_requests(requests)
            t_inputs = clock() - t0
            probe = run_session(requests_file, ["--count", "0"], False, REQUEST_TIMEOUT)
            times.append((t_inputs + probe["setup"]) * hostspeed.factor(before, hostspeed.probe()))
    return times


# --- measured passes -------------------------------------------------------------


def cli_pass(requests: list[dict], seconds=None, count=None, trace=False) -> list[dict]:
    """Closed loop over the round, repeated, until `seconds` have passed or
    `count` requests are done."""
    records = []
    start = clock()
    while True:
        i = len(records)
        if count is not None and i >= count:
            break
        if seconds is not None and clock() - start >= seconds:
            break
        req = requests[i % len(requests)]
        trace_file = OUT / f"trace-{os.getpid()}.json" if trace else None
        before = hostspeed.probe()
        rec = run_cli_request(req["argv"], trace_file)
        rec.update(id=req["id"], speed=hostspeed.factor(before, hostspeed.probe()))
        if trace_file is not None:
            if not trace_file.exists():
                raise BenchError(f"no trace written for {' '.join(req['argv'])}")
            with open(trace_file) as fh:
                rec["trace"] = json.load(fh)
            trace_file.unlink()
        records.append(rec)
    return records


def session_pass(requests: list[dict], seconds=None, count=None, trace=False) -> dict:
    requests_file = write_requests(requests)
    if seconds is not None:
        stop, timeout = ["--seconds", repr(seconds)], seconds + REQUEST_TIMEOUT
    else:
        stop, timeout = ["--count", str(count)], 2 * REQUEST_TIMEOUT
    result = run_session(requests_file, stop, trace, timeout)
    requests_file.unlink()
    return result


# --- checking ----------------------------------------------------------------------


def check_cli(requests: list[dict], records: list[dict]) -> None:
    """Verify every CLI response; annotate each record with the outcome."""
    from checker import Checker, known_defect, output_size

    checker = Checker()
    memo: dict = {}
    for rec in records:
        req = requests[rec["id"]]
        key = (rec["id"], rec["code"], rec["stdout"], "Traceback" in rec["stderr"])
        if key not in memo:
            ok, detail = checker.check(req, rec["code"], rec["stdout"], rec["stderr"])
            size = (0, 0)
            if ok and req["kind"] != "malformed":
                size = output_size(json.loads(rec["stdout"])["result"])
            memo[key] = ok, detail, size
        ok, detail, (rec["terms"], rec["bits"]) = memo[key]
        rec.update(ok=ok, detail=detail, defect=None if ok else known_defect(req))


# --- metrics -----------------------------------------------------------------------


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    idx = max(0, math.ceil(len(ordered) * p / 100) - 1)
    return ordered[idx], len(ordered) - idx - 1


def end_to_end(workload: str, requests: list[dict], records: list[dict],
               setup: list[float], rss_mb: float) -> tuple[dict, dict]:
    """(metrics, details).

    Times are at the reference host speed (hostspeed.py). Throughput and CPU
    are those of the workload's mix: each slot contributes its share of the
    request list times the median over its requests in the run. Medians keep
    one slow request, or where the deadline cut the last round, from moving
    the figure. A failed request counts as missing any latency limit: it
    enters the percentiles at REQUEST_TIMEOUT."""
    n = len(records)
    passed = sum(r["ok"] for r in records)
    share: dict[str, float] = {}
    for req in requests:
        share[req["slot"]] = share.get(req["slot"], 0) + 1 / len(requests)
    by_slot: dict[str, list[dict]] = {}
    for r in records:
        by_slot.setdefault(requests[r["id"]]["slot"], []).append(r)
    weight = sum(share[slot] for slot in by_slot)
    done = busy = cpu = 0.0
    for slot, recs in by_slot.items():
        w = share[slot] / weight
        done += w * sum(r["ok"] for r in recs) / len(recs)
        busy += w * statistics.median(r["latency"] * r["speed"] for r in recs)
        cpu += w * statistics.median(r["cpu"] * r["speed"] for r in recs)
    lat = [r["latency"] * r["speed"] if r["ok"] else REQUEST_TIMEOUT for r in records]
    tail_p = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(lat, tail_p)
    metrics = {
        "setup_s": statistics.median(setup),
        "requests_per_s": done / busy,
        "latency_p50_s": percentile(lat, 50)[0],
        "latency_tail_s": tail,
        "cpu_per_request_s": cpu,
        "peak_rss_mb": rss_mb,
    }
    details = {"tail_percentile": tail_p, "tail_beyond": beyond, "samples": n,
               "failed_frac": (n - passed) / n, "setup_samples": setup,
               "slots_measured": len(by_slot), "slots": len(share)}
    return metrics, details


def _trace_request(rec: dict) -> tuple[list, float, float, float]:
    """(spans, wall, startup, exit) of one traced CLI request."""
    spans = rec["trace"]["spans"]
    root = next(s for s in spans if s[1] is None)
    return spans, root[4] - rec["start"], root[3] - rec["start"], rec["end"] - root[4]


def per_layer(workload: str, requests: list[dict], traced: list[dict],
              untraced: list[dict], dumps: list[dict]) -> tuple[dict, dict]:
    """Per-module metrics of a traced pass, per request. `dumps` holds the
    tracer dump of every traced process."""
    n = len(traced)
    self_total: dict[str, float] = {}
    wall = startup = exit_ = 0.0
    residual = 0.0
    if workload in CLI_WORKLOADS:
        groups = [_trace_request(rec) for rec in traced]
    else:
        by_request: dict[int, list] = {}
        for s in dumps[0]["spans"]:
            by_request.setdefault(s[5], []).append(s)
        groups = []
        for spans in by_request.values():
            root = next(s for s in spans if s[2] == "session.request")
            groups.append((spans, root[4] - root[3], 0.0, 0.0))
    for spans, w, st, ex in groups:
        times = self_times(spans)
        names = {s[0]: s[2] for s in spans}
        for sid, t in times.items():
            self_total[names[sid]] = self_total.get(names[sid], 0.0) + t
        wall += w
        startup += st
        exit_ += ex
        residual = max(residual, abs(w - st - sum(times.values())))
    counts: dict[str, float] = {}
    for dump in dumps:
        for key, v in (*dump["counts"].items(), *dump["caches"].items()):
            counts[key] = counts.get(key, 0) + v

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in PER_LAYER:
        base, field = name.rsplit(".", 1)
        if field == "self_s":
            m[name] = self_total.get(base, 0.0) / n
        elif field == "hit_ratio":
            hits, misses = counts.get(base + ".hits", 0), counts.get(base + ".misses", 0)
            m[name] = ratio(hits, hits + misses)
        else:
            m[name] = counts.get(name, 0) / n
    m["other.self_s"] = sum(t for k, t in self_total.items() if k not in _LISTED_SPANS) / n
    m["dfinite.found_per_nullspace"] = ratio(counts.get("dfinite.nullspace.found", 0),
                                             counts.get("dfinite.nullspace.calls", 0))
    m["process.startup_s"] = startup / n
    m["process.exit_s"] = exit_ / n
    m["trace.wall_s"] = wall / n
    m["trace.overhead_frac"] = (sum(r["latency"] * r["speed"] for r in traced)
                                / sum(r["latency"] * r["speed"] for r in untraced) - 1)
    m["output.terms"] = sum(r["terms"] for r in traced) / n
    m["output.max_coeff_bits"] = max(r["bits"] for r in traced)
    m["inputs.repeat_frac"] = repeat_frac(requests)
    return {name: m[name] for name in PER_LAYER}, {"trace_sum_residual_max_s": residual,
                                                    "self_s_by_span": self_total}


# --- one run -------------------------------------------------------------------------


def metadata() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src_lines = sum(len(f.read_text().splitlines()) for f in (ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit or "unknown", "src_lines": src_lines}


def run_one(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    requests = generate(workload, seed, tiny)
    setup = measure_setup(workload, seed, tiny)
    dumps: list[dict] = []
    if workload in CLI_WORKLOADS:
        if trace:
            traced = cli_pass(requests, seconds=seconds / 2, trace=True)
            dumps = [rec["trace"] for rec in traced]
            records = cli_pass(requests, count=len(traced))
        else:
            records = cli_pass(requests, seconds=seconds)
        rss = max(r["rss_mb"] for r in records)
    else:
        if trace:
            traced_run = session_pass(requests, seconds=seconds / 2, trace=True)
            traced = traced_run["records"]
            dumps = [traced_run["trace"]]
            untraced_run = session_pass(requests, count=len(traced))
        else:
            untraced_run = session_pass(requests, seconds=seconds)
        records = untraced_run["records"]
        rss = untraced_run["rss_mb"]
    measured = records + (traced if trace else [])
    probes = defect_probes(workload)
    probe_records = []
    for req in probes:
        rec = run_cli_request(req["argv"])
        rec.update(id=req["id"])
        probe_records.append(rec)
    t_check = clock()
    if workload in CLI_WORKLOADS:
        check_cli(requests, measured)
        check_cli(probes, probe_records)
    check_s = clock() - t_check
    for rec in measured:
        rec.setdefault("defect", None)
        rec.setdefault("detail", "" if rec["ok"] else "sides of the cross-route check differ")
    e2e, e2e_details = end_to_end(workload, requests, records, setup, rss)
    layer, layer_details = per_layer(workload, requests, traced, records, dumps) \
        if trace else ({}, {})
    failures = [{"id": r["id"], "argv": _describe(requests, r["id"]), "detail": r["detail"],
                 "known_defect": r["defect"]} for r in measured if not r["ok"]]
    defects = [{"argv": _describe(probes, r["id"]), "ok": r["ok"], "detail": r["detail"],
                "known_defect": r["defect"]} for r in probe_records]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "metadata": metadata(), "requests": requests,
        "records": [{k: v for k, v in r.items() if k not in ("stdout", "stderr", "trace")}
                    for r in measured],
        "end_to_end": e2e, "end_to_end_details": e2e_details,
        "per_layer": layer, "per_layer_details": layer_details,
        "attempted": len(measured), "failed": len(failures), "failures": failures,
        "defect_probes": defects, "check_s": check_s,
        "correct": not failures and all(d["ok"] or d["known_defect"] for d in defects),
    }


def _describe(requests: list[dict], rid: int) -> str:
    req = requests[rid]
    return " ".join(req["argv"]) if "argv" in req else f"{req['kind']} {req['params']}"


# --- reporting -----------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def report(run: dict) -> None:
    meta = run["metadata"]
    print(f"perfbench {run['workload']} seed={run['seed']} seconds={run['seconds']} "
          f"trace={run['trace']}")
    print(f"  python {meta['python']}, nproc {meta['nproc']}, commit {meta['commit']}, "
          f"src lines {meta['src_lines']}")
    d = run["end_to_end_details"]
    print(f"  {run['attempted']} requests attempted, {run['failed']} failed "
          f"(failed_frac {_fmt(d['failed_frac'])} in the untraced pass)")
    grouped: dict = {}
    for f in run["failures"]:
        key = (f["argv"], f["detail"], f["known_defect"])
        grouped[key] = grouped.get(key, 0) + 1
    for (argv, detail, defect), times in grouped.items():
        tag = f"known defect: {defect}" if defect else "UNEXPECTED"
        print(f"    failed {times}x [{tag}] {argv}: {detail}")
    if run["defect_probes"]:
        print("  known-defect requests, sent once each after the timed region:")
    for probe in run["defect_probes"]:
        if probe["ok"]:
            tag = "now handled"
        elif probe["known_defect"]:
            tag = f"known defect: {probe['known_defect']}"
        else:
            tag = "UNEXPECTED"
        print(f"    [{tag}] {probe['argv']}" + ("" if probe["ok"] else f": {probe['detail']}"))
    print(f"  checking took {run['check_s']:.1f} s, outside the timed region")
    print("  end-to-end" + (" (untraced replay)" if run["trace"] else ""))
    for name, v in run["end_to_end"].items():
        extra = ""
        if name == "latency_tail_s":
            extra = (f"  (p{d['tail_percentile']} of {d['samples']} samples, "
                     f"{d['tail_beyond']} beyond"
                     + (", fewer than 10: run longer)" if d["tail_beyond"] < 10 else ")"))
        elif name == "setup_s":
            extra = f"  (median of {len(d['setup_samples'])})"
        print(f"    {name:<44} {_fmt(v):>12} {END_TO_END[name]}{extra}")
    print(f"    {'failed_frac':<44} {_fmt(d['failed_frac']):>12} ratio")
    if run["trace"]:
        print("  per-module (traced pass)")
        for name, v in run["per_layer"].items():
            print(f"    {name:<44} {_fmt(v):>12} {PER_LAYER[name]}")
        print(f"    trace sum check: max |wall - startup - self times| = "
              f"{run['per_layer_details']['trace_sum_residual_max_s']:.3g} s")


def result_line(run: dict) -> dict:
    table, units = (run["per_layer"], PER_LAYER) if run["trace"] else (run["end_to_end"], END_TO_END)
    return {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in table.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tcaseries benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs (used by the benchmark's own tests)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tcaseries" / "cli.py").is_file():
        print(f"perfbench: no tcaseries sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    if hasattr(os, "sched_setaffinity"):
        # one client: this process and every child it starts share one CPU,
        # so the speed probes run where the request runs
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.workload != "all":
            run = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
            _save(run)
            report(run)
            print(json.dumps(result_line(run)))
            return 0
        summary = {}
        for workload in WORKLOADS:
            for trace in (False, True):
                run = run_one(workload, args.seed, args.seconds, trace, args.tiny)
                _save(run)
                report(run)
                summary[f"{workload}/trace{int(trace)}"] = result_line(run)
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def _save(run: dict) -> None:
    path = OUT / f"{run['workload']}-seed{run['seed']}-trace{run['trace']}.json"
    with open(path, "w") as fh:
        json.dump(run, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
