"""Artifact checker: decides whether one CLI command passed.

A command fails on a nonzero exit, on output that is not strict JSON
(RFC 8259 has no NaN or Infinity), on an artifact that does not echo its
request, and on any residual over the tolerance `tests/test_acceptance.py`
states for that quantity.  Exact quantities (spectrum rows, moments) are
recomputed here from the defining formulas, independently of the library.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

# tolerances of tests/test_acceptance.py, by criterion
IDENTITY_REL = 1e-12  # 1, 3: operator identities, relative to max |F(n)|
EXPONENTIAL = 1e-10  # 4: series = nilpotent exponential (normalized coefficients)
EIGEN = 1e-10  # 5: lowering-eigenstate residual
GRASSMANN = 1e-12  # 6: nilpotent-variable eigenstate residual
NORM = 1e-10  # 8: series norm = hypergeometric closed form
IDENTITY_DEV = 1e-8  # 9: reassembled identity (and the solver's moment gate)
RHO_REL, SIGMA_REL = 0.05, 0.10  # 10: growth order / type against the closed form
SCHWARZ = 1e-10  # Cauchy-Schwarz excess, as in tests/test_bargmann.py
UNIT_NORM = 1e-12  # normalized states, as in tests/test_cli.py


class CheckFailed(Exception):
    """The artifact is wrong; the message says how."""


def _reject_constant(name: str):
    raise CheckFailed(f"non-strict JSON constant {name}")


def parse_strict(text: str) -> dict:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None


def options(argv: list[str]) -> tuple[str, dict[str, str]]:
    """Subcommand and its options; a bare flag maps to ''."""
    opts: dict[str, str] = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = ""
            i += 1
    return argv[0], opts


def _kappas(opts: dict[str, str]) -> list[Fraction]:
    if "ell" in opts:
        return [Fraction(1, int(e)) for e in opts["ell"].split(",")]
    return [Fraction(k) for k in opts["kappa"].split(",")]


def _structure(kappas, n: int) -> Fraction:
    value = Fraction(n)
    for kappa in kappas:
        value *= 1 + kappa * (n - 1)
    return value


def _finite_d(kappas) -> int | None:
    return int(1 - 1 / kappas[0]) if kappas[0] < 0 else None


def _complex(text: str) -> complex:
    return complex(text.replace("i", "j"))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _at_most(payload: dict, key: str, bound: float) -> None:
    value = payload[key]
    _require(value is not None and value <= bound, f"{key} = {value!r} exceeds {bound:g}")


def _f_scale(kappas, top: int) -> float:
    return max(1.0, max(abs(float(_structure(kappas, n))) for n in range(top + 1)))


def _coeffs(payload: dict) -> np.ndarray:
    return np.array([complex(c["re"], c["im"]) for c in payload["coeffs"]])


def _check_spectrum(p, kappas, opts):
    rows = p["rows"]
    _require(len(rows) == int(opts["nmax"]) + 1, "row count")
    for row in rows:
        f = _structure(kappas, row["n"])
        g = _structure(kappas, row["n"] + 1) - f
        _require(row["F"] == str(f) and row["G"] == str(g), f"F/G wrong at n = {row['n']}")
        _require(row["F_float"] == float(f) and row["G_float"] == float(g), "float rows")


def _check_rep(p, kappas, opts):
    d = _finite_d(kappas)
    window = d if d is not None else int(opts["window"])
    _require(p["window"] == window, "window")
    _require(p["hermiticity_exact"] is True, "raising is not the conjugate transpose")
    tol = IDENTITY_REL * _f_scale(kappas, window)
    _at_most(p, "max_abs_dev_product_identity", tol)
    _at_most(p, "max_abs_dev_commutator", tol)
    if d is not None:
        _require(p["nilpotency_max_abs"] == 0.0, "nilpotency is not exact")
        _require(p["top_level_annihilation_max_abs"] == 0.0, "top level is not annihilated")


def _check_truncate(p, kappas, opts):
    s = int(opts["s"])
    _require(p["window"] == int(opts["window"]) and p["truncation_order"] == s, "echo")
    _at_most(p, "max_abs_dev_truncated_commutator", IDENTITY_REL * _f_scale(kappas, s + 1))


def _check_state(p, kappas, opts, kind):
    _require(p["kind"] == kind, "kind")
    _require(complex(p["z"]["re"], p["z"]["im"]) == _complex(opts["z"]), "z echo")
    normalized = "normalize" in opts
    _require(p["normalized"] is normalized, "normalize echo")
    coeffs = _coeffs(p)
    _require(len(coeffs) == p["n_terms"], "n_terms does not match the coefficient count")
    d = _finite_d(kappas)
    _require(p["exact"] is (d is not None), "exact flag")
    if d is not None:
        _require(len(coeffs) == d, "finite state length")
    else:
        _require(p["tail_bound"] <= p["tail_tol"], "tail bound above its tolerance")
    norm = p["norm"]
    _require(abs(norm - float(np.linalg.norm(coeffs))) <= UNIT_NORM * norm, "norm field")
    if normalized:
        _require(abs(norm - 1.0) <= UNIT_NORM, "normalized state is not unit")
    return norm


def _check_perelomov(p, kappas, opts):
    norm = _check_state(p, kappas, opts, "perelomov")
    if _finite_d(kappas) is None:
        _require(p["exponential_residual"] is None, "exponential residual on an infinite ladder")
    else:
        _at_most(p, "exponential_residual", EXPONENTIAL * norm)


def _check_bg(p, kappas, opts):
    norm = _check_state(p, kappas, opts, "barut-girardello")
    _at_most(p, "eigen_residual", EIGEN)
    reciprocal = all(k == 0 or k.numerator == 1 for k in kappas)
    _require((p["norm_hypergeometric"] is not None) == reciprocal, "norm_hypergeometric presence")
    if reciprocal and "normalize" not in opts:
        closed = p["norm_hypergeometric"]
        _require(abs(norm - closed) <= NORM * max(1.0, closed), "norm differs from 0F_q")


def _check_grassmann(p, kappas, opts):
    d = _finite_d(kappas)
    dim = d if d is not None else int(opts["dim"])
    _require(p["dim"] == dim and len(p["levels"]) == dim, "dim")
    _require(all(len(level) == dim for level in p["levels"]), "level width")
    _at_most(p, "eigen_residual", GRASSMANN)


def _moments(kappas, kind: str, count: int) -> list[Fraction]:
    out, fact, fn = [], Fraction(1), 1
    for n in range(count):
        if n:
            fact *= _structure(kappas, n)
            fn *= n
        out.append(fact if kind == "barut-girardello" else Fraction(fn * fn) / fact)
    return out


def _check_measure(p, kappas, opts):
    d = _finite_d(kappas)
    levels = d if d is not None else int(opts["levels"])
    _require(p["kind"] == opts["kind"] and p["levels"] == levels, "echo")
    _require(p["moments"] == [str(m) for m in _moments(kappas, opts["kind"], levels)], "moments")
    _require(p["n_matched"] == levels, "n_matched")
    nodes, weights = p["nodes"], p["weights"]
    _require(len(nodes) == len(weights) == (levels + 1) // 2, "node count")
    _require(min(nodes) > 0 and min(weights) > 0, "nonpositive node or weight")
    _at_most(p, "moment_match_max_rel_err", IDENTITY_DEV)
    _at_most(p, "identity_deviation", IDENTITY_DEV)


def _check_growth(p, kappas, opts):
    _require(p["n_max"] == int(opts["nmax"]), "n_max")
    _at_most(p, "rho_rel_err", RHO_REL)
    _at_most(p, "sigma_rel_err", SIGMA_REL)


def _check_schwarz(p, kappas, opts):
    _require(p["grid_points"] == int(opts["grid-points"]), "grid_points")
    _require(p["f_length"] >= 1, "f_length")
    _at_most(p, "max_excess", SCHWARZ)


_CHECKS = {
    "spectrum": _check_spectrum,
    "rep-check": _check_rep,
    "truncate": _check_truncate,
    "cs-perelomov": _check_perelomov,
    "cs-bg": _check_bg,
    "cs-grassmann": _check_grassmann,
    "measure": _check_measure,
    "bargmann-growth": _check_growth,
    "schwarz": _check_schwarz,
}


def check(argv: list[str], code: int, stdout: str, stderr: str = "") -> str | None:
    """None when the command passed, else the reason it failed."""
    command, opts = options(argv)
    if code != 0:
        first = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {code}: {first[0][:160]}"
    try:
        payload = parse_strict(stdout)
        kappas = _kappas(opts)
        _require(payload["command"] == command, "command echo")
        _require(payload["kappas"] == [str(k) for k in kappas], "kappas echo")
        _require(payload["dimension"] == _finite_d(kappas), "dimension")
        _CHECKS[command](payload, kappas, opts)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed artifact: {exc!r}"
    return None
