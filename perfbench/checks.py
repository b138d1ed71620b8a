"""Checks of one CLI report against its request's reference.

``check`` returns ``None`` when the report is right and a one-line reason
otherwise. A report is wrong if the exit code is not the one its verdict
implies, if a value is off its reference by more than the tolerance (or the
reported bound, for sampled estimates), or if an invariant that any correct
program meets does not hold.
"""
from __future__ import annotations

import json

EXIT_FOR_VERDICT = {"YES": 0, "NO": 1, "PROMISE_VIOLATED": 2}

VALUE_TOL = 1e-8
INVARIANT_TOL = 1e-9


def _close(got, want, tol: float = VALUE_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _verdict(result: dict, ref: dict, code: int) -> str | None:
    if result.get("verdict") != ref["verdict"]:
        return f"verdict {result.get('verdict')} != {ref['verdict']}"
    if code != EXIT_FOR_VERDICT[ref["verdict"]]:
        return f"exit {code} for verdict {ref['verdict']}"
    return None


def _ham(result, ref, code):
    if not _close(result["lambda_min"], ref["lambda_min"]):
        return f"lambda_min {result['lambda_min']!r} != {ref['lambda_min']!r}"
    if result["dim"] != ref["dim"]:
        return f"dim {result['dim']} != {ref['dim']}"
    return _verdict(result, ref, code)


def _qmak(result, ref, code):
    trace, prob, k = result["trace"], result["accept_probability"], result["k"]
    if not _close(trace, ref["trace"]):
        return f"trace {trace!r} != {ref['trace']!r}"
    if not -INVARIANT_TOL <= prob <= 1 + INVARIANT_TOL:
        return f"acceptance probability {prob!r} outside [0, 1]"
    if abs(trace - 2**k * prob) > INVARIANT_TOL * 2**k:
        return f"trace {trace!r} != 2^{k} x {prob!r}"
    return _verdict(result, ref, code)


def _slice(result, ref, code):
    best = result["max_acceptance"]
    if not _close(best, ref["max_acceptance"]):
        return f"max_acceptance {best!r} != {ref['max_acceptance']!r}"
    if not -INVARIANT_TOL <= best <= 1 + INVARIANT_TOL:
        return f"max_acceptance {best!r} outside [0, 1]"
    # basis witnesses are weight-k states, so they cannot beat the best one
    if best > ref["lambda_max"] + INVARIANT_TOL:
        return f"max_acceptance {best!r} above the weight-k optimum"
    table = result.get("table")
    if "table" in ref:
        if table is None or set(table) != set(ref["table"]):
            return "table keys differ from the weight-k strings"
        for bits, want in ref["table"].items():
            if not _close(table[bits], want):
                return f"table[{bits}] {table[bits]!r} != {want!r}"
        if max(table.values()) != best:
            return "max_acceptance is not the table maximum"
    return _verdict(result, ref, code)


def _weft(result, ref, code):
    for key in ("weft", "depth", "size"):
        if result[key] != ref[key]:
            return f"{key} {result[key]} != {ref[key]}"
    return None


def _within_bound(got: complex, want: complex, bound: float, what: str):
    if not abs(got - want) <= bound:
        return f"{what} {got!r} off {want!r} by more than its bound {bound!r}"
    return None


def _amp(result, ref, code):
    return _within_bound(_complex(result["value"]), _complex(ref["amplitude"]),
                         result["bound"], "amplitude")


def _gap_estimate(result, ref, code):
    return _within_bound(result["value"], ref["gap"], result["bound"], "gap")


def _gap_exact(result, ref, code):
    return None if result["gap"] == ref["gap"] else \
        f"gap {result['gap']} != {ref['gap']}"


def _jones_exact(result, ref, code):
    got, want = _complex(result["jones"]), _complex(ref["jones"])
    if not _close(got, want):
        return f"jones {got!r} != path-model value {want!r}"
    return None


def _jones(result, ref, code):
    return _within_bound(_complex(result["jones"]), _complex(ref["jones"]),
                         result["bound"], "jones")


_CHECKS = {
    "ham-decide": _ham,
    "qmak-decide": _qmak,
    "wqcs-decide": _slice,
    "hwqcs-decide": _slice,
    "weft": _weft,
    "amp-estimate": _amp,
    "gapp-estimate": _gap_estimate,
    "gapp-exact": _gap_exact,
    "jones-exact": _jones_exact,
    "jones": _jones,
}

# Commands whose only success exit code is 0.
_ALWAYS_ZERO = {"weft", "amp-estimate", "gapp-estimate", "gapp-exact", "jones",
                "jones-exact"}


def check(command: str, code, stdout: str, ref: dict) -> str | None:
    """None if the report is right, else why it is not."""
    if code is None:
        return "request raised"
    if command in _ALWAYS_ZERO and code != 0:
        return f"exit {code}"
    try:
        result = json.loads(stdout)["result"]
        return _CHECKS[command](result, ref, code)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
