"""Seeded, stratified request generators for the three workloads.

A workload is a fixed sequence of slots, one round. Each slot has a list of
variants of about the same cost; the seed deals them to the slot's places. The
slot sequence and its counts never change with the seed, so the total work of
a round barely does, and a run cut at its deadline always stops at about the
same place in the sequence. A slot name may occur several times in a round.

A request is a dict: ``id``, ``slot``, ``kind``, ``params`` and, for the CLI
workloads, the ``argv`` passed to ``tcaseries``.
"""

from __future__ import annotations

import json
import random

CLI_WORKLOADS = ("cli-characters", "cli-solvers")
WORKLOADS = CLI_WORKLOADS + ("session-oracles",)

# Highest percentile reported as latency_tail_s. It is fixed per workload, not
# chosen per run, so that a faster commit (more samples) is compared at the
# same percentile. Each is chosen so that a run at the defining commit has at
# least ten samples beyond it.
TAIL_PERCENTILE = {"cli-characters": 75, "cli-solvers": 75, "session-oracles": 90}


def _fmt(lam) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


# --- cli-characters ----------------------------------------------------------

# Requests known to break the exit-code contract at the defining commit
# (traceback with exit 1, or exit 0 on a meaningless size). They are not in the
# timed rounds, where their share of a run would depend on where the deadline
# cuts the round. Each run sends every one of them once, after the timed
# region, checks it and lists it in the report (see defect_probes).
KNOWN_DEFECTS = {
    ("fourier", "--d", "2", "--hilb", "[1]"): "AttributeError traceback, exit 1",
    ("fourier", "--d", "3", "--hilb", "[\"1\"]"): "AttributeError traceback, exit 1",
    ("detring", "--d", "3", "--r", "1", "--form", "s", "--truncate", "-2"):
        "negative truncation accepted, exit 0",
    ("invariants", "--group", "trivial", "--dim", "-2", "--nmax", "3"):
        "AssertionError traceback, exit 1",
    ("invariants", "--group", "sl2", "--nmax", "-3"): "negative nmax accepted, exit 0",
}


def _malformed(*argv):
    return ("malformed", {"argv": list(argv)})


def _characters_slots(tiny: bool):
    if tiny:
        return [
            ("kostka", [("detring", {"d": 3, "r": 2, "form": f}) for f in ("sigma", "hilbert")]),
            ("schur", [("detring", {"d": 3, "r": 1, "form": "s", "truncate": 6})]),
            ("theta-s", [("theta", {"d": 3, "r": 1, "alpha": a, "mu": (), "form": "s",
                                    "truncate": 5}) for a in ((), (1,))]),
            ("theta", [("theta", {"d": 3, "r": 2, "alpha": (1,), "mu": (1,), "form": "sigma"})]),
            ("hilbert", [("hilbert", {"d": 3, "r": 1}), ("fourier", {"d": 3, "r": 1})]),
            ("enhanced", [("enhanced", {"d": 3, "r": 2, "truncate": 5})]),
            ("detring-enh", [("detring", {"d": 2, "r": 1, "form": "enhanced", "truncate": 4})]),
            ("gessel", [("gessel", {"d": 3, "r": 2, "truncate": 5})]),
            ("hilbschur", [("hilbschur", {"rep": r, "truncate": 6}) for r in ("sym2", "tensor3")]),
            ("charpoly", [("charpoly", {"d": 3, "at": (2, 1, 1)})]),
            ("malformed", [_malformed("detring", "--d", "2", "--r", "3")]),
        ]
    small_dr = [(3, 1), (4, 1), (5, 1), (3, 2), (4, 2)]
    light_hilbert = ([("hilbert", {"d": d, "r": r}) for d, r in small_dr]
                     + [("fourier", {"d": d, "r": r}) for d, r in small_dr])
    light_theta = [("theta", {"d": d, "r": r, "alpha": a, "mu": mu, "form": "sigma"})
                   for d, r in ((3, 1), (4, 1), (3, 2), (4, 2))
                   for a in ((), (1,), (2,), (1, 1)) if len(a) <= r
                   for mu in ((), (1,), (2,))]
    light_enhanced = [("enhanced", {"d": d, "r": r, "truncate": n})
                      for d, r in ((3, 1), (4, 1), (3, 2), (4, 2)) for n in (8, 10, 12)]
    light_gessel = [("gessel", {"d": d, "r": r, "truncate": n})
                    for d, r in ((3, 1), (4, 1), (3, 2), (2, 2)) for n in (8, 10)]
    light_hilbschur = [("hilbschur", {"rep": rep, "truncate": n})
                       for rep in ("sym2", "wedge2", "tensor2", "tensor3")
                       for n in (8, 10, 12)]
    light_charpoly = [("charpoly", {"d": d, "at": lam})
                      for d, lam in ((2, (2, 1)), (2, (3, 1)), (3, (2, 1, 1)), (3, (3, 2)),
                                     (4, (3, 2, 1)), (4, (2, 2, 1)), (5, (3, 2, 2, 1)),
                                     (6, (4, 3, 3, 2, 1)))]
    light_detring = [("detring", {"d": d, "r": r, "form": f})
                     for d, r in ((3, 1), (4, 1), (3, 2), (4, 2)) for f in ("sigma", "hilbert")]
    handled = [
        _malformed("detring", "--d", "2", "--r", "3"),
        _malformed("detring", "--d", "3", "--r", "1", "--form", "s"),
        _malformed("theta", "--d", "3", "--r", "1", "--alpha", "[1,2]"),
        _malformed("gessel", "--d", "3", "--r", "0", "--truncate", "4"),
        _malformed("hilbschur", "--rep", "sym2", "--truncate", "-1"),
        _malformed("enhanced", "--d", "3", "--r", "5"),
        _malformed("charpoly", "--d", "3", "--at", "[x]"),
    ]
    # Heavy slots: the Kostka matrix and its inverse for every size up to r*d.
    h16 = ([("detring", {"d": 4, "r": 4, "form": f}) for f in ("sigma", "hilbert", "enhanced")]
           + [(cmd, {"d": 4, "r": 4}) for cmd in ("hilbert", "fourier")])
    h15 = ([("detring", {"d": 5, "r": 3, "form": f}) for f in ("sigma", "hilbert")]
           + [("hilbert", {"d": 5, "r": 3}), ("fourier", {"d": 5, "r": 3})])
    # Schur-basis expansions at truncation 12-14: change_basis and p_mul.
    # theta-s costs about a third more than the other mid-size slots and
    # counts with the heavy ones.
    s14 = [("detring", {"d": d, "r": 1, "form": "s", "truncate": 14}) for d in (3, 5)]
    theta_s = [("theta", {"d": 4, "r": 2, "alpha": a, "mu": (), "form": "s", "truncate": 12})
               for a in ((), (1, 1))]
    detring_s = [("detring", {"d": 3, "r": 3, "form": "s", "truncate": 12})]
    kostka_mid = ([("detring", {"d": d, "r": r, "form": "sigma"}) for d, r in ((6, 2), (4, 3))]
                  + [("hilbert", {"d": d, "r": r}) for d, r in ((6, 2), (4, 3))])
    tseries_mid = [("enhanced", {"d": 4, "r": 3, "truncate": 12}),
                   ("detring", {"d": 4, "r": 3, "form": "enhanced", "truncate": 12})]
    # A round is 29 light requests (start-up dominated, about 70 %; two of them
    # malformed), 8 mid-size ones of equal cost (about 20 %) and 4 heavy ones,
    # interleaved. So p50 falls inside the light block and p75 in the second
    # of the mid-size block, never on a boundary between blocks.
    return [
        ("light-hilbert", light_hilbert), ("tseries-mid", tseries_mid),
        ("light-theta", light_theta), ("light-hilbschur", light_hilbschur),
        ("kostka-mid", kostka_mid), ("light-enhanced", light_enhanced),
        ("light-charpoly", light_charpoly), ("detring-s", detring_s),
        ("light-gessel", light_gessel), ("light-detring", light_detring), ("h16", h16),
        ("light-hilbert", light_hilbert), ("light-theta", light_theta),
        ("tseries-mid", tseries_mid), ("light-hilbschur", light_hilbschur),
        ("light-enhanced", light_enhanced), ("s14", s14), ("light-charpoly", light_charpoly),
        ("light-gessel", light_gessel), ("kostka-mid", kostka_mid),
        ("light-detring", light_detring), ("light-hilbert", light_hilbert),
        ("malformed", handled), ("light-theta", light_theta),
        ("light-hilbschur", light_hilbschur), ("tseries-mid", tseries_mid),
        ("light-enhanced", light_enhanced), ("light-charpoly", light_charpoly), ("h15", h15),
        ("light-gessel", light_gessel), ("light-detring", light_detring),
        ("detring-s", detring_s), ("light-hilbert", light_hilbert),
        ("light-theta", light_theta), ("theta-s", theta_s),
        ("light-hilbschur", light_hilbschur), ("light-enhanced", light_enhanced),
        ("kostka-mid", kostka_mid), ("light-charpoly", light_charpoly),
        ("light-gessel", light_gessel), ("malformed", handled),
    ]


# --- cli-solvers ---------------------------------------------------------------


def _solvers_slots(tiny: bool):
    if tiny:
        return [
            ("dfinite-hit", [("dfinite", {"series": "catalan-egf", "order": 2, "degree": 2})]),
            ("dfinite-miss", [("dfinite", {"series": "bell-egf", "order": 2, "degree": 2})]),
            ("sl2", [("invariants", {"group": "sl2", "nmax": 10})]),
            ("sl2xsl2", [("invariants", {"group": "sl2xsl2", "nmax": 8})]),
            ("trivial", [("invariants", {"group": "trivial", "dim": 3, "nmax": 6})]),
            ("malformed", [_malformed("invariants", "--group", "trivial", "--nmax", "3")]),
        ]
    egf_hit = [("dfinite", {"series": "catalan-egf", "order": o, "degree": g})
               for o, g in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3))]
    sq_hit = [("dfinite", {"series": "catalan-sq-ogf", "order": 3, "degree": g})
              for g in (4, 5)]
    miss55 = [("dfinite", {"series": "bell-egf", "order": 5, "degree": 5})]
    miss45 = [("dfinite", {"series": "bell-egf", "order": o, "degree": g})
              for o, g in ((4, 5), (5, 4))]
    miss44 = [("dfinite", {"series": "bell-egf", "order": o, "degree": g})
              for o, g in ((4, 4), (3, 5))]
    miss33 = [("dfinite", {"series": "bell-egf", "order": o, "degree": g})
              for o, g in ((3, 3), (2, 4), (4, 2))]
    sl2 = [("invariants", {"group": "sl2", "nmax": n}) for n in range(40, 81, 8)]
    sl2xsl2_small = [("invariants", {"group": "sl2xsl2", "nmax": n}) for n in (20, 24)]
    sl2xsl2_large = [("invariants", {"group": "sl2xsl2", "nmax": n}) for n in (42, 43)]
    trivial = [("invariants", {"group": "trivial", "dim": dim, "nmax": n})
               for dim in (1, 2, 3, 5) for n in (10, 20)]
    handled = [
        _malformed("invariants", "--group", "trivial", "--nmax", "3"),
        _malformed("invariants", "--group", "sl2", "--rep", "tensor", "--nmax", "4"),
        _malformed("dfinite", "--series", "catalan-egf", "--nmax", "5"),
        _malformed("dfinite", "--series", "fibonacci"),
    ]
    # 18 light requests (about 70 %; two of them malformed), 4 mid-size and 4
    # heavy. p75 falls in the second of the mid-size block.
    return [
        ("bell-55", miss55), ("sl2", sl2), ("egf-hit", egf_hit), ("trivial", trivial),
        ("sq-hit", sq_hit), ("sl2xsl2-small", sl2xsl2_small), ("sl2", sl2),
        ("sl2xsl2-large", sl2xsl2_large), ("egf-hit", egf_hit), ("malformed", handled),
        ("bell-33", miss33), ("trivial", trivial), ("sl2", sl2), ("bell-44", miss44),
        ("egf-hit", egf_hit), ("sl2xsl2-small", sl2xsl2_small), ("sq-hit", sq_hit),
        ("sl2", sl2), ("malformed", handled), ("bell-45", miss45), ("egf-hit", egf_hit),
        ("trivial", trivial), ("bell-33", miss33), ("sl2", sl2),
        ("sl2xsl2-small", sl2xsl2_small), ("egf-hit", egf_hit),
    ]


# --- session-oracles -----------------------------------------------------------


def _session_slots(tiny: bool):
    if tiny:
        return [
            ("theta-push", [("theta-push", {"d": 3, "r": 1, "alpha": (1,), "n": 5})]),
            ("gessel-sigma", [("gessel-sigma", {"d": 3, "r": 2, "n": 5})]),
            ("enh-integral", [("enh-integral", {"m": 1, "n": 5})]),
            ("invariants-ode", [("invariants-ode", {"group": "sl2", "order": 2,
                                                    "degree": 2})]),
        ]
    theta_push = [("theta-push", {"d": d, "r": r, "alpha": a, "n": n})
                  for d, r, n in ((4, 2, 10), (5, 2, 9))
                  for a in ((), (1,), (2,), (1, 1), (2, 1))]
    theta_push_small = [("theta-push", {"d": d, "r": 1, "alpha": a, "n": 12})
                        for d in (3, 4, 5) for a in ((), (1,), (2,))]
    gessel_sigma = [("gessel-sigma", {"d": d, "r": r, "n": n})
                    for d, r in ((4, 2), (3, 2), (5, 2)) for n in (9, 10)]
    gessel_sigma_big = [("gessel-sigma", {"d": 4, "r": 3, "n": n}) for n in (9, 10)]
    # sigma_0^m against the GL(2) integral: the identity needs m <= 2
    enh_integral = [("enh-integral", {"m": m, "n": n}) for m in (1, 2) for n in (8, 9, 10)]
    inv_ode = ([("invariants-ode", {"group": "sl2", "order": o, "degree": g})
                for o, g in ((2, 2), (2, 3), (3, 2), (3, 3))]
               + [("invariants-ode", {"group": "sl2xsl2", "order": 3, "degree": g})
                  for g in (4, 5)])
    return [
        ("theta-push", theta_push), ("gessel-sigma", gessel_sigma),
        ("enh-integral", enh_integral), ("theta-push-r1", theta_push_small),
        ("invariants-ode", inv_ode), ("theta-push", theta_push),
        ("gessel-sigma-r3", gessel_sigma_big), ("enh-integral", enh_integral),
        ("theta-push-r1", theta_push_small), ("gessel-sigma", gessel_sigma),
    ]


# Rounds of the session stream. Later rounds re-draw points from the same
# slots, so parameter points repeat and the library's caches are warm.
SESSION_ROUNDS = 24

_SLOTS = {"cli-characters": _characters_slots, "cli-solvers": _solvers_slots,
          "session-oracles": _session_slots}


def cli_argv(kind: str, p: dict) -> list[str]:
    if kind == "malformed":
        return list(p["argv"])
    if kind in ("detring", "hilbert", "fourier", "enhanced", "gessel", "theta"):
        argv = [kind, "--d", str(p["d"]), "--r", str(p["r"])]
        if kind == "theta":
            argv += ["--alpha", _fmt(p["alpha"]), "--mu", _fmt(p["mu"])]
        if "form" in p:
            argv += ["--form", p["form"]]
        if "truncate" in p:
            argv += ["--truncate", str(p["truncate"])]
        return argv
    if kind == "hilbschur":
        return [kind, "--rep", p["rep"], "--truncate", str(p["truncate"])]
    if kind == "charpoly":
        return [kind, "--d", str(p["d"]), "--at", _fmt(p["at"])]
    if kind == "dfinite":
        return [kind, "--series", p["series"], "--max-order", str(p["order"]),
                "--max-degree", str(p["degree"])]
    if kind == "invariants":
        argv = [kind, "--group", p["group"]]
        if p["group"] == "sl2xsl2":
            argv += ["--rep", "tensor"]
        if p["group"] == "trivial":
            argv += ["--dim", str(p["dim"])]
        return argv + ["--nmax", str(p["nmax"])]
    raise ValueError(f"unknown request kind {kind!r}")


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The request list of one round (CLI workloads) or of the whole stream
    (session-oracles). The same seed gives the same list."""
    if workload not in _SLOTS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    slots = _SLOTS[workload](tiny)
    rounds = 1 if workload in CLI_WORKLOADS else (2 if tiny else SESSION_ROUNDS)
    out = []
    decks: dict[str, list] = {}
    for _ in range(rounds):
        for slot, variants in slots:
            # deal each slot's variants from a shuffled deck, so every variant
            # is drawn about equally often whatever the seed
            deck = decks.setdefault(slot, [])
            if not deck:
                deck.extend(variants)
                rng.shuffle(deck)
            kind, params = deck.pop()
            req = {"id": len(out), "slot": slot, "kind": kind, "params": params}
            if workload in CLI_WORKLOADS:
                req["argv"] = cli_argv(kind, params)
            out.append(req)
    return out


def defect_probes(workload: str) -> list[dict]:
    """The known-defect requests of a CLI workload, one each; the same for
    every seed."""
    if workload not in CLI_WORKLOADS:
        return []
    solvers = workload == "cli-solvers"
    out = []
    for argv in KNOWN_DEFECTS:
        if (argv[0] == "invariants") == solvers:
            kind, params = _malformed(*argv)
            out.append({"id": len(out), "slot": "defect", "kind": kind, "params": params,
                        "argv": cli_argv(kind, params)})
    return out


def repeat_frac(requests: list[dict]) -> float:
    """Share of requests whose inputs equal those of an earlier request."""
    keys = {json.dumps([r["kind"], r["params"]], sort_keys=True) for r in requests}
    return 1 - len(keys) / len(requests)
