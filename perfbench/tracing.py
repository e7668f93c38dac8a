"""In-memory tracer for the traced benchmark run.

The tracer replaces library functions by wrappers from the outside; nothing
in ``src/`` knows about it. Because the package binds functions with
``from .module import name``, a wrapper must replace every module attribute
that holds the original function, not only the one in the defining module.

Two kinds of wrapper exist:

* a span records (id, parent, name, start, end) and optional size counts;
* a counter only counts calls. It is used for functions called ~10^5 times
  per request, where a span per call would swamp the measurement.

Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes on Linux


def _pairs(a, b) -> int:
    return len(a) * len(b)


# (module, qualified name, metric name, kind, size counters)
# kind "span" records a span; "count" only counts calls. Each size counter
# maps (args, result) to a count added to "<metric>.<counter name>". Every
# library function the CLI handlers call gets a span, so that the self time
# of the root "cli" span is argument parsing, rendering and JSON only.
TARGETS = [
    ("partitions", "kostka_and_inverse", "partitions.kostka_and_inverse", "span", None),
    ("partitions", "kostka_number", "partitions.kostka_number", "count", None),
    ("partitions", "as_partition", "partitions.as_partition", "count", None),
    ("partitions", "sym_character", "partitions.sym_character", "count", None),
    ("partitions", "_mn", "partitions.mn", "count", None),
    ("symfunc", "change_basis", "symfunc.change_basis", "span", None),
    ("symfunc", "_p_mul_terms", "symfunc.p_mul", "span",
     {"pairs": lambda args, out: _pairs(args[0], args[1])}),
    ("symfunc", "sym_algebra_character", "symfunc.sym_algebra_character", "span", None),
    ("seriesforms", "sigma_expand", "seriesforms.sigma_expand", "span",
     {"terms_out": lambda args, out: len(out.terms)}),
    ("seriesforms", "TSeries.__mul__", "seriesforms.TSeries.mul", "span",
     {"pairs": lambda args, out: _pairs(args[0].coeffs, args[1].coeffs)}),
    ("seriesforms", "enhanced_expand", "seriesforms.enhanced_expand", "span", None),
    ("seriesforms", "phi_sigma", "seriesforms.phi_sigma", "span", None),
    ("seriesforms", "ex_sigma", "seriesforms.ex_sigma", "span", None),
    ("seriesforms", "annihilator", "seriesforms.annihilator", "span", None),
    ("seriesforms", "fourier_dual_hilbert", "seriesforms.fourier_dual_hilbert", "span", None),
    ("seriesforms", "tca_enhanced_exp", "seriesforms.tca_enhanced_exp", "span", None),
    ("seriesforms", "char_poly_form", "seriesforms.char_poly_form", "span", None),
    ("seriesforms", "character_at", "seriesforms.character_at", "span", None),
    ("grassmann", "detring_formal_character", "grassmann.detring_formal_character", "span", None),
    ("grassmann", "gessel_enhanced", "grassmann.gessel_enhanced", "span", None),
    ("grassmann", "theta_r", "grassmann.theta_r", "span", None),
    ("grassmann", "pairing", "grassmann.pairing", "count", None),
    ("grassmann", "pushforward_module_character",
     "grassmann.pushforward_module_character", "span", None),
    ("grassmann", "rank1_enhanced_closed", "grassmann.rank1_enhanced_closed", "span", None),
    ("dfinite", "_nullspace", "dfinite.nullspace", "span",
     {"cells": lambda args, out: len(args[0]) * args[1],
      "found": lambda args, out: len(out)}),
    ("dfinite", "guess_ode", "dfinite.guess_ode", "span", None),
    ("torus", "LaurentPoly.__mul__", "torus.LaurentPoly.mul", "span",
     {"pairs": lambda args, out: _pairs(args[0].terms, args[1].terms)}),
    ("torus", "invariant_dimensions", "torus.invariant_dimensions", "span", None),
    ("torus", "weyl_inner", "torus.weyl_inner", "span", None),
    ("torus", "enhanced_from_equivariant", "torus.enhanced_from_equivariant", "span", None),
    ("torus", "sym_degree_characters", "torus.sym_degree_characters", "span", None),
    ("cli", "builtin_series", "cli.builtin_series", "span", None),
]

# functools caches whose hit and miss counts are read at the end
CACHES = [
    ("partitions", "kostka_and_inverse", "partitions.kostka_and_inverse"),
    ("partitions", "sym_character", "partitions.sym_character"),
    ("grassmann", "_lr_products", "grassmann._lr_products"),
]


class Tracer:
    """Spans and counters of one process, tagged with the current request id."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, request]
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.request = None
        self.caches: dict[str, object] = {}

    # --- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, name, clock(), None, self.request])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = clock()
        self.stack.pop()

    def span_wrapper(self, fn, name: str, sizes):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            for counter, measure in (sizes or {}).items():
                self.counts[f"{name}.{counter}"] += measure(args, out)
            return out
        return wrapper

    def count_wrapper(self, fn, name: str):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- installation -------------------------------------------------------

    def install(self, *callers) -> None:
        """Wrap every target in every loaded tcaseries module that binds it,
        and in the given caller modules, which bind library functions too."""
        modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                   if name.startswith("tcaseries") and mod is not None}
        for mod_name, qual, name, kind, sizes in TARGETS:
            mod = modules.get(mod_name)
            if mod is None:  # e.g. the library session never imports the CLI
                continue
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                fn = getattr(cls, attr)
                setattr(cls, attr, self.span_wrapper(fn, name, sizes))
                continue
            fn = getattr(mod, qual)
            wrapped = (self.span_wrapper(fn, name, sizes) if kind == "span"
                       else self.count_wrapper(fn, name))
            for other in (*modules.values(), *callers):
                for attr, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, attr, wrapped)
        for mod_name, attr, name in CACHES:
            # the original is still reachable through the wrapper's __wrapped__
            fn = getattr(modules[mod_name], attr)
            while not hasattr(fn, "cache_info"):
                fn = fn.__wrapped__
            self.caches[name] = fn

    def cache_counts(self) -> dict[str, int]:
        out = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            out[name + ".hits"] = info.hits
            out[name + ".misses"] = info.misses
        return out

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "caches": self.cache_counts()}


# --- analysis ----------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)
    out = {}
    for s in spans:
        start, end = s[3], s[4]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s[0], []), key=lambda c: c[3]):
            lo, hi = max(c[3], start), min(c[4], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[0]] = (end - start) - covered
    return out
