"""CLI: golden-file regressions, exit codes, and output determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tcaseries import cli
from tcaseries.seriesforms import ExpPoly

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


GOLDEN_CASES = [
    ("detring_d3_r1_sigma.json", ["detring", "--d", "3", "--r", "1", "--form", "sigma"]),
    ("detring_d3_r1_sigma.txt", ["detring", "--d", "3", "--r", "1", "--form", "sigma", "--text"]),
    ("detring_d2_r1_s_n6.json", ["detring", "--d", "2", "--r", "1", "--form", "s", "--truncate", "6"]),
    ("detring_d2_r2_hilbert.json", ["detring", "--d", "2", "--r", "2", "--form", "hilbert"]),
    ("theta_d3_r1_alpha2.json", ["theta", "--d", "3", "--r", "1", "--alpha", "[2]"]),
    ("theta_d2_r1_mu1_s_n5.json", ["theta", "--d", "2", "--r", "1", "--mu", "[1]", "--form", "s", "--truncate", "5"]),
    ("hilbert_d3_r1.json", ["hilbert", "--d", "3", "--r", "1"]),
    ("hilbert_d3_r1.txt", ["hilbert", "--d", "3", "--r", "1", "--text"]),
    ("enhanced_d2_r1_n4.json", ["enhanced", "--d", "2", "--r", "1", "--truncate", "4"]),
    ("gessel_d2_r1_n4.json", ["gessel", "--d", "2", "--r", "1", "--truncate", "4"]),
    ("hilbschur_sym2_n6.json", ["hilbschur", "--rep", "sym2", "--truncate", "6"]),
    ("invariants_sl2_nmax6.json", ["invariants", "--group", "sl2", "--rep", "standard", "--nmax", "6"]),
    ("invariants_trivial_dim3_nmax4.txt", ["invariants", "--group", "trivial", "--dim", "3", "--nmax", "4", "--text"]),
    ("dfinite_catalan_o3_d3.json", ["dfinite", "--series", "catalan-egf", "--max-order", "3", "--max-degree", "3"]),
    ("dfinite_catalan_o3_d3.txt", ["dfinite", "--series", "catalan-egf", "--max-order", "3", "--max-degree", "3", "--text"]),
    ("fourier_d3_r1.json", ["fourier", "--d", "3", "--r", "1"]),
    ("charpoly_d2_at31.json", ["charpoly", "--d", "2", "--at", "[3,1]"]),
    ("charpoly_d3_form.json", ["charpoly", "--d", "3"]),
    ("oracle_empty.json", ["oracle-check", "--suite", "empty"]),
]


@pytest.mark.parametrize("fname,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(fname, argv):
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / fname).read_text()
    code2, out2, _ = run_cli(argv)
    assert code2 == 0 and out2 == out  # byte-identical reruns


def test_spec_example_detring_sigma():
    code, out, _ = run_cli(["detring", "--d", "3", "--r", "1", "--form", "sigma"])
    assert code == 0
    obj = json.loads(out)
    assert obj["result"] == {"terms": {"[]": {"[0]": "1", "[1]": "2", "[2]": "1"}}}
    code, out, _ = run_cli(["detring", "--d", "3", "--r", "1", "--form", "sigma", "--text"])
    assert out == "sigma_2 + 2*sigma_1 + sigma_0\n"


def test_spec_example_invariants():
    code, out, _ = run_cli(["invariants", "--group", "sl2", "--rep", "standard",
                            "--nmax", "6"])
    assert code == 0
    assert json.loads(out)["result"]["dims"] == [1, 0, 1, 0, 2, 0, 5]


def test_spec_example_dfinite_bessel():
    code, out, _ = run_cli(["dfinite", "--series", "catalan-egf",
                            "--max-order", "3", "--max-degree", "3"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["found"] is True
    assert res["text"] == "t^2*y'' + 3*t*y' - 4*t^2*y"
    assert res["operator"] == [["0", "0", "-4"], ["0", "3"], ["0", "0", "1"]]


def test_result_json_roundtrips():
    from tcaseries.grassmann import detring_formal_character
    from tcaseries.seriesforms import sigma_from_json
    _, out, _ = run_cli(["detring", "--d", "4", "--r", "2"])
    obj = json.loads(out)
    assert sigma_from_json(obj["result"]) == detring_formal_character(4, 2)


def test_enhanced_expansion_matches_gessel():
    _, out_e, _ = run_cli(["enhanced", "--d", "2", "--r", "1", "--truncate", "4"])
    _, out_g, _ = run_cli(["gessel", "--d", "2", "--r", "1", "--truncate", "4"])
    exp = json.loads(out_e)["result"]["expansion"]
    assert exp == json.loads(out_g)["result"]


def test_fourier_hilb_payload():
    for coeffs in (["0", "1"], [0, 1]):  # strings or JSON integers
        payload = json.dumps({"0": coeffs})
        code, out, _ = run_cli(["fourier", "--d", "2", "--hilb", payload])
        assert code == 0
        assert json.loads(out)["result"] == {"2": ["0", "-1"]}


def test_fourier_hilb_equal_layer_keys_add():
    # "1" and "01" both name the e^t layer
    code, out, _ = run_cli(["fourier", "--d", "2", "--hilb", '{"1": ["1"], "01": ["2"]}', "--text"])
    assert code == 0
    assert out.strip() == "3*exp(t)"


def test_exppoly_text_layers():
    F = Fraction
    cases = [
        ({0: (F(-2),), 1: (F(0), F(1)), 2: (F(1), F(-1))}, "(-t + 1)*exp(2*t) + t*exp(t) - 2"),
        ({0: (F(1), F(0), F(-1, 2))}, "(-1/2*t^2 + 1)"),
        ({0: (F(0), F(-1)), 3: (F(-1),)}, "-exp(3*t) - t"),
        ({}, "0"),
    ]
    for parts, want in cases:
        assert cli.exppoly_text(ExpPoly(parts)) == want


def test_oracle_suites_pass():
    for suite in ("theta-vs-pushforward", "detring-bruteforce",
                  "gessel-vs-sigma", "enh1-integral", "empty"):
        code, out, _ = run_cli(["oracle-check", "--suite", suite])
        obj = json.loads(out)
        assert code == 0 and obj["result"]["failed"] == 0, suite


def test_oracle_suite_failure_exit_code(monkeypatch):
    monkeypatch.setitem(cli._SUITES, "empty",
                        lambda: [("rigged", False, "expected 1 got 2")])
    code, out, _ = run_cli(["oracle-check", "--suite", "empty", "--text"])
    assert code == 1
    assert "FAIL rigged: expected 1 got 2" in out
    assert "passed 0 failed 1" in out


EXIT_CODE_CASES = [
    (["detring", "--d", "2"], 2),                                  # missing flag
    (["detring", "--d", "2", "--r", "1", "--form", "s"], 2),       # missing truncate
    (["detring", "--d", "2", "--r", "5"], 3),                      # r > d
    (["theta", "--d", "2", "--r", "1", "--alpha", "[1,1]"], 3),    # len(alpha) > r
    (["gessel", "--d", "2", "--r", "0", "--truncate", "4"], 3),    # r < 1
    (["oracle-check", "--suite", "nope"], 2),                      # unknown suite
    (["nosuchcommand"], 2),
    (["detring", "--d", "2", "--r", "1", "--threads", "0"], 2),    # unknown flag
    (["detring", "--d", "2", "--r", "1", "--json", "--text"], 2),
    (["invariants", "--group", "trivial", "--nmax", "3"], 2),      # missing --dim
    (["invariants", "--group", "sl2xsl2", "--rep", "standard", "--nmax", "2"], 2),
    (["fourier", "--d", "2"], 2),                                  # neither input
    (["fourier", "--d", "2", "--r", "1", "--hilb", "{}"], 2),      # both inputs
    (["fourier", "--d", "2", "--hilb", "not json"], 2),
    (["fourier", "--d", "2", "--hilb", "[1]"], 2),                 # not an object
    (["fourier", "--d", "2", "--hilb", "[\"1\"]"], 2),
    (["fourier", "--d", "2", "--hilb", "{\"1\": \"12\"}"], 2),     # layer not a list
    (["fourier", "--d", "2", "--hilb", "{\"3\": [\"1\"]}"], 3),    # layer > d
    (["fourier", "--d", "2", "--hilb", "{\"1\": [\"1/0\"]}"], 2),  # zero denominator
    (["fourier", "--d", "2", "--hilb", "{\"1\": [Infinity]}"], 2),  # not a rational
    (["fourier", "--d", "2", "--hilb", "{\"1\": [0.1]}"], 2),       # float: binary, not 1/10
    (["fourier", "--d", "2", "--hilb", "{\"1\": [true]}"], 2),      # bool, not a number
    (["dfinite", "--series", "bell-egf", "--max-order", "5",
      "--max-degree", "5", "--nmax", "40"], 3),                    # too short
    (["dfinite", "--series", "bell-egf", "--max-order", "5",
      "--max-degree", "5", "--nmax", "60"], 4),                    # honest miss
    (["charpoly", "--d", "2", "--at", "[9,9]", "--tcap", "3"], 3),  # part > cap
    (["detring", "--d", "3", "--r", "1", "--form", "s", "--truncate", "-2"], 2),
    (["theta", "--d", "3", "--r", "1", "--form", "s", "--truncate", "-1"], 2),
    (["invariants", "--group", "sl2", "--nmax", "-3"], 2),
    (["invariants", "--group", "trivial", "--dim", "-2", "--nmax", "3"], 2),
]


@pytest.mark.parametrize("argv,expected", EXIT_CODE_CASES,
                         ids=[" ".join(c[0]) for c in EXIT_CODE_CASES])
def test_exit_codes(argv, expected):
    code, _, _ = run_cli(argv)
    assert code == expected


_DR = st.integers(-1, 4).map(str)
_SIZE = st.integers(0, 4).map(str)
_PART = st.sampled_from(["[]", "[1]", "[2,1]", "[1,1]", "[3]", "[1,2]", "[0]", "[-1]", "[x]", "2"])
_HILB_ITEM = st.sampled_from(['"1"', '"-1/2"', '"1/0"', "null", '"inf"', "Infinity", "2", "[1]"])
_HILB = st.one_of(
    st.sampled_from(["{}", "[1]", "not json"]),
    st.dictionaries(st.sampled_from(["0", "1", "2", "5", "-1", "x"]),
                    st.lists(_HILB_ITEM, max_size=3), max_size=2).map(
        lambda d: "{" + ", ".join(f'"{k}": [{", ".join(v)}]' for k, v in d.items()) + "}"))
# Each subcommand's flags and the values drawn for them; dfinite stays at
# small caps and oracle-check at cheap suites so that each call is quick.
_FLAGS = {
    "detring": {"--d": _DR, "--r": _DR, "--truncate": _SIZE,
                "--form": st.sampled_from(["sigma", "s", "enhanced", "hilbert"])},
    "theta": {"--d": _DR, "--r": _DR, "--alpha": _PART, "--mu": _PART,
              "--form": st.sampled_from(["sigma", "s"]), "--truncate": _SIZE},
    "hilbert": {"--d": _DR, "--r": _DR},
    "enhanced": {"--d": _DR, "--r": _DR, "--truncate": _SIZE},
    "gessel": {"--d": _DR, "--r": _DR, "--truncate": _SIZE},
    "hilbschur": {"--rep": st.sampled_from(["sym2", "wedge2", "tensor2", "tensor3", "nope"]),
                  "--truncate": _SIZE},
    "invariants": {"--group": st.sampled_from(["sl2", "sl2xsl2", "trivial", "nope"]),
                   "--rep": st.sampled_from(["standard", "tensor"]),
                   "--nmax": _SIZE, "--dim": _SIZE},
    "dfinite": {"--series": st.sampled_from(["catalan-egf", "bell-egf", "catalan-sq-ogf"]),
                "--max-order": st.integers(-1, 2).map(str),
                "--max-degree": st.integers(-1, 2).map(str), "--nmax": _SIZE},
    "fourier": {"--d": _DR, "--r": _DR, "--hilb": _HILB},
    "charpoly": {"--d": _DR, "--at": _PART, "--tcap": _SIZE},
    "oracle-check": {"--suite": st.sampled_from(["empty", "nope"])},
}


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        if draw(st.integers(0, 4)):  # each flag present four times in five
            argv += [flag, draw(values)]
    return argv + draw(st.sampled_from([[], ["--text"], ["--json"]]))


@settings(max_examples=150, deadline=None)
@given(_cli_argv())
@example(["fourier", "--d", "2", "--hilb", '{"1": ["1/0"]}'])
@example(["fourier", "--d", "2", "--hilb", '{"1": [Infinity]}'])
def test_random_argv_exit_code_contract(argv):
    code, _, err = run_cli(argv)
    assert code in (0, 2, 3, 4, 5), (argv, code, err)
    assert "Traceback" not in err


def test_golden_under_optimize():
    script = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "from tcaseries import cli\n"
        "outs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with redirect_stdout(buf):\n"
        "        cli.main(argv)\n"
        "    outs.append(buf.getvalue())\n"
        "print(json.dumps({'optimize': sys.flags.optimize, 'outs': outs}))\n"
    )
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, json.dumps([argv for _, argv in GOLDEN_CASES])],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    res = json.loads(proc.stdout)
    assert res["optimize"] == 1
    for (fname, _), out in zip(GOLDEN_CASES, res["outs"]):
        assert out == (GOLDEN / fname).read_text(), fname


def test_acceptance_under_optimize():
    # pytest rewrites the asserts of test modules, so they still check under -O;
    # the library's own runtime checks must not rely on assert
    root = Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        capture_output=True, text=True, cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stdout[-2000:]


def test_internal_error_exit_code(monkeypatch):
    def broken(args):
        raise AssertionError("invariant violated")
    monkeypatch.setitem(cli._HANDLERS, "detring", broken)
    code, out, err = run_cli(["detring", "--d", "2", "--r", "1"])
    assert code == 5 and out == ""
    assert err == "internal error: invariant violated\n"
    assert "Traceback" not in err


def test_not_found_report_disclaims_proof():
    code, out, _ = run_cli(["dfinite", "--series", "bell-egf", "--max-order", "5",
                            "--max-degree", "5", "--nmax", "60"])
    assert code == 4
    res = json.loads(out)["result"]
    assert res["found"] is False
    assert "not a proof" in res["note"]


def test_builtin_series_values():
    from fractions import Fraction as F
    cat = cli.builtin_series("catalan-egf", 7)
    assert cat == [F(1), F(0), F(1, 2), F(0), F(1, 12), F(0), F(1, 144)]
    sq = cli.builtin_series("catalan-sq-ogf", 7)
    assert sq == [F(1), F(0), F(1), F(0), F(4), F(0), F(25)]
    bell = cli.builtin_series("bell-egf", 6)
    assert [bell[n] * cli.factorial(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]


def test_every_subcommand_has_golden_coverage():
    covered = {argv[0] for _, argv in GOLDEN_CASES}
    assert covered == set(cli._HANDLERS)
