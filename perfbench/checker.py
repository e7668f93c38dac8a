"""Output checker for the CLI workloads.

Each response is parsed as JSON, never compared as bytes, so fields added
later do not count as failures. Each answer is then verified by a route that
does not share the code path that produced it:

* Schur-basis answers against ``pushforward_module_character`` (Bott
  pushforwards of Littlewood-Richardson products), or against the symmetric
  algebra when r = d;
* sigma-basis answers by expanding them to the Schur basis first;
* Hilbert series (and their Fourier duals, undone here) by their Taylor
  coefficients against the Hilbert specialization of that character;
* enhanced series against the Gessel determinant, and Gessel answers
  against ``enhanced_expand(phi_sigma(...))``;
* ``hilbschur`` against the enhanced specialization of ``sym_algebra_character``;
* ``charpoly --at`` against the character of the brute-force Schur expansion;
* ``dfinite`` operators re-applied to a longer prefix generated here;
* ``invariants`` against Catalan numbers and powers of the dimension;
* malformed requests must exit 2 or 3 without a traceback.

Oracle values are cached per checker, so a request repeated in a run is
checked against the same oracle value without recomputing it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from tcaseries.dfinite import apply_ode
from tcaseries.grassmann import (
    detring_formal_character,
    gessel_enhanced,
    pushforward_module_character,
)
from tcaseries.partitions import sym_character
from tcaseries.seriesforms import (
    enhanced_expand,
    enhanced_from_json,
    ex_specialize,
    exppoly_from_json,
    exppoly_taylor,
    ode_from_json,
    phi_enhanced,
    phi_sigma,
    sigma_expand,
    sigma_from_json,
    tseries_from_json,
)
from tcaseries.symfunc import POWERSUM, SCHUR, SymFunc, multiply, sym_algebra_character
from tcaseries.symfunc import from_json as symfunc_from_json

from workloads import KNOWN_DEFECTS

CHECK_DEGREE = 6  # truncation at which sigma and enhanced forms are compared
HILBERT_TERMS = 8  # Taylor coefficients compared for Hilbert series

_HILBSCHUR_CHARACTERS = {
    "sym2": (SCHUR, (2,)), "wedge2": (SCHUR, (1, 1)),
    "tensor2": (POWERSUM, (1, 1)), "tensor3": (POWERSUM, (1, 1, 1)),
}


class CheckFailure(Exception):
    pass


def _expect(cond: bool, detail: str) -> None:
    if not cond:
        raise CheckFailure(detail)


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def expected_series(name: str, length: int) -> list[Fraction]:
    """Coefficients of the built-in dfinite series, generated independently."""
    out = []
    for n in range(length):
        if name == "catalan-egf":
            out.append(Fraction(catalan(n // 2), math.factorial(n)) if n % 2 == 0
                       else Fraction(0))
        elif name == "catalan-sq-ogf":
            out.append(Fraction(catalan(n // 2) ** 2) if n % 2 == 0 else Fraction(0))
        else:
            raise ValueError(f"no closed form for {name!r}")
    return out


def expected_invariants(p: dict) -> list[int]:
    n_max = p["nmax"]
    if p["group"] == "trivial":
        return [p["dim"] ** n for n in range(n_max + 1)]
    power = 1 if p["group"] == "sl2" else 2
    return [catalan(n // 2) ** power if n % 2 == 0 else 0 for n in range(n_max + 1)]


def numeric_leaves(obj):
    """Every coefficient in a JSON result: numbers and numeric strings."""
    if isinstance(obj, dict):
        for v in obj.values():
            yield from numeric_leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from numeric_leaves(v)
    elif isinstance(obj, bool):
        return
    elif isinstance(obj, int):
        yield Fraction(obj)
    elif isinstance(obj, str):
        try:
            yield Fraction(obj)
        except ValueError:
            return


def output_size(result) -> tuple[int, int]:
    """(number of coefficients, largest numerator or denominator bit length)."""
    terms = bits = 0
    for c in numeric_leaves(result):
        terms += 1
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return terms, bits


class Checker:
    def __init__(self):
        self._memo: dict = {}

    def _cached(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    # --- oracles ---------------------------------------------------------------

    def schur_character(self, d: int, r: int, alpha, n: int) -> SymFunc:
        """Character of the rank <= r determinantal module, by brute force."""
        def compute():
            if r == d and not alpha:
                return sym_algebra_character(SymFunc(SCHUR, {(1,): Fraction(d)}, n), n)
            return pushforward_module_character(d, r, alpha, n)
        return self._cached(("schur", d, r, tuple(alpha), n), compute)

    def hilbert_egf(self, d: int, r: int) -> list[Fraction]:
        return self._cached(("egf", d, r), lambda: ex_specialize(
            self.schur_character(d, r, (), HILBERT_TERMS), HILBERT_TERMS))

    def gessel(self, d: int, r: int, n: int):
        return self._cached(("gessel", d, r, n), lambda: gessel_enhanced(d, r, n))

    def sigma_route(self, d: int, r: int, n: int):
        return self._cached(("sigma", d, r, n), lambda: enhanced_expand(
            phi_sigma(detring_formal_character(d, r)), n))

    # --- checks per request kind ----------------------------------------------

    def _sigma(self, result, d, r, alpha=(), mu=()):
        got = sigma_expand(sigma_from_json(result), CHECK_DEGREE)
        _expect(got == self._times_schur(mu, self.schur_character(d, r, alpha, CHECK_DEGREE)),
                "sigma form disagrees with the pushforward character")

    @staticmethod
    def _times_schur(mu, f: SymFunc) -> SymFunc:
        return f if not mu else multiply(SymFunc(SCHUR, {tuple(mu): Fraction(1)}), f)

    def _hilbert(self, payload, d, r):
        got = exppoly_taylor(exppoly_from_json(payload), HILBERT_TERMS)
        _expect(got == self.hilbert_egf(d, r),
                "Hilbert series disagrees with the specialized character")

    def _enhanced(self, result, d, r, n):
        if n is not None:
            got = tseries_from_json(result["expansion"])
            _expect(got == self.gessel(d, r, n), "enhanced expansion != Gessel determinant")
        got = enhanced_expand(enhanced_from_json(result["series"]), CHECK_DEGREE)
        _expect(got == self.gessel(d, r, CHECK_DEGREE), "enhanced series != Gessel determinant")

    def check_answer(self, kind: str, p: dict, obj: dict) -> None:
        result = obj["result"]
        if kind == "detring":
            form = p["form"]
            if form == "sigma":
                self._sigma(result, p["d"], p["r"])
            elif form == "s":
                got = symfunc_from_json(result)
                want = self.schur_character(p["d"], p["r"], (), p["truncate"])
                _expect(got == want, "Schur expansion != pushforward character")
            elif form == "hilbert":
                self._hilbert(result, p["d"], p["r"])
            else:
                self._enhanced(result, p["d"], p["r"], p.get("truncate"))
        elif kind == "hilbert":
            self._hilbert(result["hilbert"], p["d"], p["r"])
            roots = sorted(r for r, poly in result["hilbert"].items()
                           for _ in range(len(poly)))
            _expect(result["annihilator"] == [int(x) for x in roots],
                    "annihilator roots do not match the exponents")
        elif kind == "fourier":
            dual = {str(p["d"] - int(r)): [str((-1) ** i * Fraction(c)) for i, c in enumerate(poly)]
                    for r, poly in result.items()}
            self._hilbert(dual, p["d"], p["r"])
        elif kind == "theta":
            if p["form"] == "sigma":
                self._sigma(result, p["d"], p["r"], p["alpha"], p["mu"])
            else:
                want = self._times_schur(p["mu"], self.schur_character(
                    p["d"], p["r"], p["alpha"], p["truncate"]))
                _expect(symfunc_from_json(result) == want,
                        "theta Schur expansion != pushforward character")
        elif kind == "enhanced":
            self._enhanced(result, p["d"], p["r"], p["truncate"])
        elif kind == "gessel":
            _expect(tseries_from_json(result) == self.sigma_route(p["d"], p["r"], p["truncate"]),
                    "Gessel determinant != enhanced_expand(phi_sigma(detring))")
        elif kind == "hilbschur":
            basis, lam = _HILBSCHUR_CHARACTERS[p["rep"]]
            n = p["truncate"]
            want = self._cached(("hilbschur", p["rep"], n), lambda: phi_enhanced(
                sym_algebra_character(SymFunc(basis, {lam: Fraction(1)}), n), n))
            _expect(tseries_from_json(result) == want, "hilbschur != phi(Sym character)")
        elif kind == "charpoly":
            lam = tuple(p["at"])
            n = sum(lam)
            f = self.schur_character(p["d"], 1, (), n)
            want = sum(c * sym_character(nu, lam) for nu, c in f.terms.items() if sum(nu) == n)
            _expect(result["value"] == want, f"trace {result['value']} != {want}")
        elif kind == "dfinite":
            if p["series"] == "bell-egf":
                _expect(result["found"] is False, "operator reported for the Bell series")
                return
            _expect(result["found"] is True, "no operator found")
            op = ode_from_json(result["operator"])
            _expect(any(op.coeffs[-1]), "leading coefficient is zero")
            prefix = expected_series(p["series"], obj["coefficients_used"] + 20)
            _expect(not any(apply_ode(op, prefix)), "operator does not annihilate the series")
        elif kind == "invariants":
            _expect(result["dims"] == expected_invariants(p), "invariant dimensions wrong")
        else:
            raise ValueError(f"unknown request kind {kind!r}")

    def check(self, req: dict, code: int, stdout: str, stderr: str) -> tuple[bool, str]:
        """(passed, detail) for one CLI response."""
        kind, p = req["kind"], req["params"]
        try:
            _expect("Traceback" not in stderr, "traceback on stderr")
            if kind == "malformed":
                _expect(code in (2, 3), f"exit {code}, expected 2 or 3")
                return True, ""
            expected = 4 if kind == "dfinite" and p["series"] == "bell-egf" else 0
            _expect(code == expected, f"exit {code}, expected {expected}")
            obj = json.loads(stdout)
            _expect(obj.get("command") == req["argv"][0], "wrong command in response")
            self.check_answer(kind, p, obj)
        except CheckFailure as exc:
            return False, str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            return False, f"unreadable response: {type(exc).__name__}: {exc}"
        return True, ""


def known_defect(req: dict) -> str | None:
    """The documented defect a failing request reproduces, if any."""
    if req["kind"] != "malformed":
        return None
    return KNOWN_DEFECTS.get(tuple(req["params"]["argv"]))
