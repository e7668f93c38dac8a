"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from checker import Checker  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN_DEFECTS,
    WORKLOADS,
    cli_argv,
    defect_probes,
    generate,
    repeat_frac,
)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        record = json.loads((BENCH / "out" / f"{workload}-seed3-trace1.json").read_text())
        # per request, startup plus the self times of its spans is its traced wall time
        assert record["per_layer_details"]["trace_sum_residual_max_s"] < 1e-9


def test_generator_is_seeded_and_stratified():
    a = generate("cli-characters", 7)
    assert a == generate("cli-characters", 7)
    b = generate("cli-characters", 8)
    assert [r["slot"] for r in a] == [r["slot"] for r in b]
    assert a != b
    session = generate("session-oracles", 7)
    assert 0 < repeat_frac(session) < 1
    assert all("--threads" not in r["argv"] and "--stats" not in r["argv"]
               for w in ("cli-characters", "cli-solvers") for r in generate(w, 7))


def test_known_defects_are_probed_not_timed():
    probed = [tuple(r["argv"]) for w in WORKLOADS for r in defect_probes(w)]
    assert sorted(probed) == sorted(KNOWN_DEFECTS)
    for w in WORKLOADS:
        for tiny in (False, True):
            timed = {tuple(r.get("argv", ())) for r in generate(w, 7, tiny)}
            assert not timed & set(KNOWN_DEFECTS)


def test_benchmark_json_matches_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _response(argv, result, command=None):
    return json.dumps({"command": command or argv[0], "result": result})


def test_checker_accepts_a_correct_answer_and_flags_a_corrupted_coefficient():
    from tcaseries.grassmann import gessel_enhanced
    from tcaseries.seriesforms import tseries_to_json

    params = {"d": 3, "r": 2, "truncate": 5}
    req = {"kind": "gessel", "params": params, "argv": cli_argv("gessel", params)}
    good = tseries_to_json(gessel_enhanced(3, 2, 5))
    checker = Checker()
    assert checker.check(req, 0, _response(req["argv"], good), "") == (True, "")
    bad = json.loads(json.dumps(good))
    key = next(k for k, v in bad["coeffs"].items() if k != "[]")
    bad["coeffs"][key] = str(int(bad["coeffs"][key].split("/")[0]) + 1)
    ok, detail = checker.check(req, 0, _response(req["argv"], bad), "")
    assert not ok and "Gessel" in detail


def test_checker_ignores_added_fields():
    params = {"group": "sl2", "nmax": 6}
    req = {"kind": "invariants", "params": params, "argv": cli_argv("invariants", params)}
    body = json.dumps({"command": "invariants", "certified": True,
                       "result": {"dims": [1, 0, 1, 0, 2, 0, 5], "extra": "x"}})
    assert Checker().check(req, 0, body, "") == (True, "")
    wrong = body.replace("5]", "6]")
    assert Checker().check(req, 0, wrong, "")[0] is False


def test_checker_flags_unexpected_exit_codes():
    params = {"series": "bell-egf", "order": 2, "degree": 2}
    req = {"kind": "dfinite", "params": params, "argv": cli_argv("dfinite", params)}
    miss = json.dumps({"command": "dfinite", "coefficients_used": 21,
                       "result": {"found": False, "note": "n"}})
    assert Checker().check(req, 4, miss, "") == (True, "")
    ok, detail = Checker().check(req, 0, miss, "")
    assert not ok and "exit 0, expected 4" in detail
    malformed = {"kind": "malformed", "params": {"argv": ["fourier", "--d", "2", "--hilb", "[1]"]},
                 "argv": ["fourier", "--d", "2", "--hilb", "[1]"]}
    assert Checker().check(malformed, 2, "", "usage error") == (True, "")
    assert Checker().check(malformed, 0, "{}", "")[0] is False
    assert Checker().check(malformed, 1, "", "Traceback (most recent call last):")[0] is False


def test_self_time_of_a_synthetic_nested_trace():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has overlapping children d [5, 7] and e [6, 8] (union [5, 8]).
    spans = [
        [0, None, "root", 0.0, 10.0, 1],
        [1, 0, "a", 1.0, 4.0, 1],
        [2, 1, "c", 2.0, 3.0, 1],
        [3, 0, "b", 5.0, 9.0, 1],
        [4, 3, "d", 5.0, 7.0, 1],
        [5, 3, "e", 6.0, 8.0, 1],
    ]
    times = self_times(spans)
    assert times == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 2.0}


def test_exits_without_result_when_sources_are_missing(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-solvers",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
