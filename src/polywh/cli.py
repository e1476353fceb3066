"""Deterministic command-line front end.

Every computation in the library is reachable through a subcommand, with
JSON output by default (CSV for tabular results).  Identical
configurations produce byte-identical artifacts: no timestamps, fixed key
order, floats emitted through repr.  Payloads carry coefficient vectors as
complex ndarrays; `json_text` writes each straight into the artifact as
nested lists of ``{"re", "im"}`` objects.  The argument parser is built
once per process.

Exit codes: 0 success, 1 domain errors (the violated condition is named
on stderr), 2 I/O and usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .algebra import (
    AlgebraParams,
    build_rep,
    build_truncated_rep,
    classify,
    identity_deviations,
    reciprocal_ells,
    structure_function,
)
from .bargmann import EntireSeries, closed_form_growth, estimate_growth, schwarz_check
from .coherent import (
    CoherentState,
    CutoffMeta,
    StateKind,
    bg_normalization,
    bg_state,
    check_bg_eigen,
    perelomov_state,
    perelomov_via_exponential,
)
from .errors import DomainError
from .grassmann import bg_grassmann_state, check_bg_grassmann_eigen
from .measure import moments_for, solve_measure, verify_identity

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

TAIL_TOL_ENV = "POLYWH_TAIL_TOL"


# ---------------------------------------------------------------- parsing

def parse_rational(text: str) -> Fraction:
    t = text.strip()
    if "." in t or "e" in t.lower():
        raise argparse.ArgumentTypeError(
            f"rational parameters must be exact ('p/q' or integer), got {text!r}"
        )
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse rational {text!r}: {exc}") from None


def parse_kappas(text: str) -> list[Fraction]:
    return [parse_rational(tok) for tok in text.split(",") if tok.strip()]


def parse_ells(text: str) -> list[int]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            value = int(tok)
        except ValueError:
            raise argparse.ArgumentTypeError(f"ell values must be integers, got {tok!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"ell values must be positive, got {value}")
        out.append(value)
    return out


def parse_complex(text: str) -> complex:
    t = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from None


def parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"cannot parse boolean {text!r}")


# config keys accepted in the flat key=value file; flags always win
_CONFIG_CONVERTERS = {
    "kappa": parse_kappas,
    "ell": parse_ells,
    "phi": float,
    "z": parse_complex,
    "w": parse_complex,
    "window": int,
    "nmax": int,
    "levels": int,
    "dim": int,
    "s": int,
    "kind": str,
    "normalize": parse_bool,
    "tail_tol": float,
    "grid_radius": float,
    "grid_points": int,
    "format": str,
    "output": str,
}


def load_config(path: str) -> dict:
    cfg = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def apply_config(args: argparse.Namespace, cfg: dict) -> None:
    for key, text in cfg.items():
        if key not in _CONFIG_CONVERTERS:
            raise ValueError(f"unknown config key {key!r}")
        if not hasattr(args, key):
            continue  # key not used by this command
        if getattr(args, key) is None:
            setattr(args, key, _CONFIG_CONVERTERS[key](text))


def resolve_params(args: argparse.Namespace) -> AlgebraParams:
    kappas = getattr(args, "kappa", None)
    ells = getattr(args, "ell", None)
    if kappas and ells:
        raise ValueError("pass either --kappa or --ell, not both")
    if ells:
        kappas = [Fraction(1, ell) for ell in ells]
    if not kappas:
        raise ValueError("algebra parameters are required (--kappa or --ell)")
    phi = args.phi if getattr(args, "phi", None) is not None else 0.0
    return AlgebraParams(kappas, phi)


def default_tail_tol(args: argparse.Namespace) -> float:
    if getattr(args, "tail_tol", None) is not None:
        return args.tail_tol
    env = os.environ.get(TAIL_TOL_ENV)
    return float(env) if env else 1e-14


# ------------------------------------------------------------- formatting

def cnum(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def params_payload(params: AlgebraParams) -> dict:
    dim = classify(params)
    return {
        "kappas": [str(k) for k in params.kappas],
        "phi": params.phi,
        "dimension": dim.d,
    }


def state_payload(command: str, state: CoherentState) -> dict:
    payload = {"command": command, "kind": state.kind.value}
    payload.update(params_payload(state.params))
    payload.update(
        {
            "z": cnum(state.z),
            "normalized": state.normalized,
            "exact": state.cutoff_meta.exact,
            "n_terms": state.cutoff_meta.n_terms,
            "tail_bound": state.cutoff_meta.tail_bound,
            "tail_tol": state.cutoff_meta.tail_tol,
            "norm": state.norm(),
            "coeffs": state.coeffs,
        }
    )
    return payload


def state_from_payload(payload: dict) -> CoherentState:
    """Rebuild the state object a cs-* JSON artifact was produced from."""
    params = AlgebraParams([Fraction(k) for k in payload["kappas"]], payload["phi"])
    coeffs = np.array([complex(c["re"], c["im"]) for c in payload["coeffs"]])
    meta = CutoffMeta(
        exact=payload["exact"],
        n_terms=payload["n_terms"],
        tail_bound=payload["tail_bound"],
        tail_tol=payload["tail_tol"],
    )
    z = complex(payload["z"]["re"], payload["z"]["im"])
    return CoherentState(StateKind(payload["kind"]), params, z, coeffs, payload["normalized"], meta)


# --------------------------------------------------------------- commands

def cmd_spectrum(args):
    params = resolve_params(args)
    nmax = args.nmax if args.nmax is not None else 10
    f = [structure_function(params, n) for n in range(nmax + 2)]
    rows = []
    for n in range(nmax + 1):
        fval, gval = f[n], f[n + 1] - f[n]
        rows.append(
            {"n": n, "F": str(fval), "G": str(gval), "F_float": float(fval), "G_float": float(gval)}
        )
    payload = {"command": "spectrum"}
    payload.update(params_payload(params))
    payload["rows"] = rows
    table = (
        ["n", "F", "G", "F_float", "G_float"],
        [[r["n"], r["F"], r["G"], repr(r["F_float"]), repr(r["G_float"])] for r in rows],
    )
    return payload, table


def cmd_rep_check(args):
    params = resolve_params(args)
    rep = build_rep(params, args.window)
    dev = identity_deviations(rep)
    payload = {"command": "rep-check"}
    payload.update(params_payload(params))
    payload.update(
        {
            "window": rep.dim_window,
            "hermiticity_exact": bool(np.array_equal(rep.raising, rep.lowering.conj().T)),
            "max_abs_dev_product_identity": dev.product,
            "max_abs_dev_commutator": dev.commutator,
            "nilpotency_max_abs": dev.nilpotency,
            "top_level_annihilation_max_abs": (  # raising applied to |d-1>
                None if dev.nilpotency is None else float(np.max(np.abs(rep.raising[:, -1])))
            ),
        }
    )
    return payload, None


def cmd_truncate(args):
    params = resolve_params(args)
    if args.window is None or args.s is None:
        raise ValueError("truncate needs --window and --s")
    rep = build_truncated_rep(params, args.window, args.s)
    payload = {"command": "truncate"}
    payload.update(params_payload(params))
    payload.update(
        {
            "window": rep.dim_window,
            "truncation_order": rep.truncation_order,
            "max_abs_dev_truncated_commutator": identity_deviations(rep).commutator,
        }
    )
    return payload, None


def cmd_cs_perelomov(args):
    params = resolve_params(args)
    z = args.z if args.z is not None else 0j
    normalize = bool(args.normalize)
    state = perelomov_state(params, z, normalize=normalize, tail_tol=default_tail_tol(args))
    payload = state_payload("cs-perelomov", state)
    if classify(params).is_finite:
        rep = build_rep(params)
        other = perelomov_via_exponential(params, z, rep, normalize=normalize)
        payload["exponential_residual"] = float(np.max(np.abs(state.coeffs - other.coeffs)))
    else:
        payload["exponential_residual"] = None
    return payload, None


def cmd_cs_bg(args):
    params = resolve_params(args)
    z = args.z if args.z is not None else 0j
    state = bg_state(
        params, z, normalize=bool(args.normalize), tail_tol=default_tail_tol(args)
    )
    payload = state_payload("cs-bg", state)
    rep = build_rep(params, window=len(state.coeffs) + 1)
    payload["eigen_residual"] = check_bg_eigen(state, rep)
    try:
        payload["norm_hypergeometric"] = bg_normalization(params, z)
    except DomainError:
        payload["norm_hypergeometric"] = None  # kappas not of the 1/ell form
    return payload, None


def cmd_cs_grassmann(args):
    params = resolve_params(args)
    state = bg_grassmann_state(params, dim=args.dim)
    rep = build_rep(params, window=state.dim)
    payload = {"command": "cs-grassmann"}
    payload.update(params_payload(params))
    payload.update(
        {
            "dim": state.dim,
            "eigen_residual": check_bg_grassmann_eigen(state, rep),
            "levels": np.array([elem.comps for elem in state.coeffs]),
        }
    )
    return payload, None


def cmd_measure(args):
    params = resolve_params(args)
    kind = StateKind(args.kind if args.kind is not None else "perelomov")
    moments = moments_for(params, kind, count=args.levels)
    measure = solve_measure(moments)
    payload = {"command": "measure", "kind": kind.value}
    payload.update(params_payload(params))
    payload.update(
        {
            "levels": len(moments.values),
            "moments": [str(v) for v in moments.values],
            "moments_float": [_float_or_none(v) for v in moments.values],
            "nodes": [float(t) for t in measure.nodes],
            "weights": [float(w) for w in measure.weights],
            "n_matched": measure.n_matched,
            "moment_match_max_rel_err": measure.max_rel_err,
            "identity_deviation": verify_identity(params, kind, measure),
        }
    )
    table = (
        ["node", "weight"],
        [[repr(float(t)), repr(float(w))] for t, w in zip(measure.nodes, measure.weights)],
    )
    return payload, table


def _float_or_none(value):
    """float(value), or None past the double range."""
    try:
        return float(value)
    except OverflowError:
        return None


def cmd_bargmann_growth(args):
    params = resolve_params(args)
    n_max = args.nmax if args.nmax is not None else 5000
    series = EntireSeries.bg_kernel(params, n_max)
    est = estimate_growth(series)
    payload = {"command": "bargmann-growth"}
    payload.update(params_payload(params))
    payload.update(
        {
            "n_max": n_max,
            "rho_hat": est.rho_hat,
            "sigma_hat": est.sigma_hat,
            "rho_raw": est.rho_raw,
            "sigma_raw": est.sigma_raw,
            "fit_window": list(est.fit_window),
            "fit_residual": est.residual,
        }
    )
    try:
        rho_c, sigma_c = closed_form_growth(params)
        payload["rho_closed"] = rho_c
        payload["sigma_closed"] = sigma_c
        payload["rho_rel_err"] = abs(est.rho_hat - rho_c) / rho_c
        payload["sigma_rel_err"] = abs(est.sigma_hat - sigma_c) / sigma_c
    except DomainError:
        payload["rho_closed"] = None
        payload["sigma_closed"] = None
        payload["rho_rel_err"] = None
        payload["sigma_rel_err"] = None
    return payload, None


def cmd_schwarz(args):
    params = resolve_params(args)
    reciprocal_ells(params)
    w = args.w if args.w is not None else 0.5 + 0j
    radius = args.grid_radius if args.grid_radius is not None else 2.0
    points = args.grid_points if args.grid_points is not None else 9
    f_state = bg_state(params, w, normalize=True, tail_tol=default_tail_tol(args))
    axis = np.linspace(-radius, radius, points)
    grid = [complex(x, y) for x in axis for y in axis]
    excess = schwarz_check(params, f_state.coeffs, grid)
    payload = {"command": "schwarz"}
    payload.update(params_payload(params))
    payload.update(
        {
            "w": cnum(complex(w)),
            "grid_radius": float(radius),
            "grid_points": int(points),
            "f_length": len(f_state.coeffs),
            "max_excess": float(excess),
        }
    )
    return payload, None


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "rep-check": cmd_rep_check,
    "truncate": cmd_truncate,
    "cs-perelomov": cmd_cs_perelomov,
    "cs-bg": cmd_cs_bg,
    "cs-grassmann": cmd_cs_grassmann,
    "measure": cmd_measure,
    "bargmann-growth": cmd_bargmann_growth,
    "schwarz": cmd_schwarz,
}


# ------------------------------------------------------------------ wiring

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kappa", type=parse_kappas, default=None,
                        help="comma-separated exact rationals, e.g. '-1/3' or '1/2,2'")
    common.add_argument("--ell", type=parse_ells, default=None,
                        help="comma-separated positive integers; sets kappa_i = 1/ell_i")
    common.add_argument("--phi", type=float, default=None, help="phase parameter (default 0)")
    common.add_argument("--config", default=None,
                        help="flat key=value file supplying defaults; flags override")
    common.add_argument("--output", default=None, help="write the artifact here (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (csv only for tabular commands)")

    parser = argparse.ArgumentParser(
        prog="polywh",
        description="polynomial ladder algebras, their coherent states, and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="tabulate F(n) and G(n)")
    p.add_argument("--nmax", type=int, default=None)

    p = sub.add_parser("rep-check", parents=[common], help="operator identity deviations")
    p.add_argument("--window", type=int, default=None)

    p = sub.add_parser("truncate", parents=[common], help="level-truncated commutator identity")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--s", type=int, default=None, help="truncation order")

    p = sub.add_parser("cs-perelomov", parents=[common], help="exponential-type coherent state")
    p.add_argument("--z", type=parse_complex, default=None)
    p.add_argument("--normalize", action="store_true", default=None)
    p.add_argument("--tail-tol", dest="tail_tol", type=float, default=None)

    p = sub.add_parser("cs-bg", parents=[common], help="lowering-eigenstate coherent state")
    p.add_argument("--z", type=parse_complex, default=None)
    p.add_argument("--normalize", action="store_true", default=None)
    p.add_argument("--tail-tol", dest="tail_tol", type=float, default=None)

    p = sub.add_parser("cs-grassmann", parents=[common], help="nilpotent-variable eigenstate")
    p.add_argument("--dim", type=int, default=None,
                   help="nilpotency order (required for infinite-ladder parameters)")

    p = sub.add_parser("measure", parents=[common], help="solve the radial moment problem")
    p.add_argument("--kind", choices=("perelomov", "barut-girardello"), default=None)
    p.add_argument("--levels", type=int, default=None, help="moment count (infinite ladder)")

    p = sub.add_parser("bargmann-growth", parents=[common], help="order/type of the kernel series")
    p.add_argument("--nmax", type=int, default=None, help="number of coefficients (default 5000)")

    p = sub.add_parser("schwarz", parents=[common], help="kernel bound check on a z-grid")
    p.add_argument("--w", type=parse_complex, default=None,
                   help="build f from the normalized eigenstate at w (default 0.5)")
    p.add_argument("--grid-radius", dest="grid_radius", type=float, default=None)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    p.add_argument("--tail-tol", dest="tail_tol", type=float, default=None)

    return parser


def _complex_array_text(a: np.ndarray, level: int) -> str:
    """The ``json.dumps(indent=2)`` text of a complex array as nested lists
    of {"re", "im"} objects, for an array opening at indent ``level``."""
    inner = "\n" + "  " * (level + 1)
    if a.ndim > 1:
        items = [_complex_array_text(row, level + 1) for row in a]
    else:
        key = inner + "  "
        item = "{" + key + '"re": %r,' + key + '"im": %r' + inner + "}"
        items = [item % pair for pair in zip(a.real.tolist(), a.imag.tolist())]
    if not items:
        return "[]"
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * level + "]"


def json_text(payload: dict) -> str:
    """Strict JSON (no NaN or Infinity) of a payload, indented by 2.

    The top-level complex ndarrays are written by `_complex_array_text`,
    byte for byte as json.dumps writes the same lists of dicts, and a
    non-finite entry raises the same ValueError."""
    arrays = {key: value for key, value in payload.items() if isinstance(value, np.ndarray)}
    for a in arrays.values():
        parts = np.stack((a.real, a.imag), axis=-1).ravel()
        bad = np.flatnonzero(~np.isfinite(parts))
        if bad.size:
            raise ValueError(
                f"Out of range float values are not JSON compliant: {float(parts[bad[0]])!r}"
            )
    marks = {key: f"<array:{key}>" for key in arrays}
    text = json.dumps({**payload, **marks}, indent=2, allow_nan=False)
    for key, a in arrays.items():
        text = text.replace(json.dumps(marks[key]), _complex_array_text(a, 1), 1)
    return text + "\n"


def emit(args: argparse.Namespace, payload: dict, table) -> None:
    fmt = args.format if args.format is not None else "json"
    if fmt == "csv":
        if table is None:
            raise ValueError(f"command {payload['command']!r} has no CSV representation")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table[0])
        writer.writerows(table[1])
        text = buf.getvalue()
    else:
        text = json_text(payload)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


# flags that take a value; their value may start with '-' (e.g. --kappa -1/3),
# which bare argparse would misread as an option, so the pair is joined with '='
_VALUE_FLAGS = {
    "--kappa", "--ell", "--phi", "--z", "--w", "--config", "--output", "--format",
    "--nmax", "--window", "--levels", "--dim", "--s", "--kind",
    "--tail-tol", "--grid-radius", "--grid-points",
}


def _join_flag_values(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


_PARSER = build_parser()  # argparse keeps no state between parse_args calls


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _PARSER.parse_args(_join_flag_values(list(argv)))
    if args.config:
        try:
            cfg = load_config(args.config)
            apply_config(args, cfg)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        except (ValueError, argparse.ArgumentTypeError) as exc:
            print(f"error: bad config: {exc}", file=sys.stderr)
            return EXIT_IO
    try:
        payload, table = _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        emit(args, payload, table)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
