"""Deterministic command-line front end.

One subcommand per computation, JSON by default (CSV for tables), byte
for byte the same for the same configuration.  `build_parser` alone names,
converts, validates and defaults each option; a ``--config`` file's lines
are read as ``--key=value`` flags ahead of the command line's, which win.
A well-formed command line, a subcommand and its ``--flag=value`` and bare
flags, is read straight off that subcommand's actions; ``_PARSER.parse_args``
reads any other, so every usage error and help text is the one it prints.
`json_text` is one ``json.dumps`` of the payload with each ndarray's text
spliced in, written from orjson dumps of its floats, 1,024 at a time: a
complex one as {"re", "im"} objects, a real one as numbers, a 2-D one as a
list of rows, each number in orjson's shortest form (1e-7 for 1e-07).
numpy, orjson and the numeric modules are imported inside the code that
runs them, so ``--help``, usage errors and `spectrum` import neither numpy
nor orjson, and library functions are read from their home modules at
call time, so a wrapper set there is the one a command calls.

Exit codes: 0 success, 1 domain errors (the violated condition is named
on stderr), 2 I/O and usage errors.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction

from .algebra import (
    AlgebraParams,
    build_rep,
    build_truncated_rep,
    classify,
    identity_deviations,
    reciprocal_ells,
    structure_function,
)
from .defaults import DEFAULT_TAIL_TOL
from .errors import DomainError

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


def parse_kappas(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(tok) for tok in text.split(",") if tok.strip())


def parse_ells(text: str) -> tuple[int, ...]:
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
    return tuple(out)


def parse_complex(text: str) -> complex:
    """Python's complex syntax with a trailing imaginary unit i, before any
    closing parenthesis, read as j: 1-2i and (1+2i) parse, and so does inf."""
    t = text.strip().replace(" ", "")
    body = t.rstrip(")")
    if body.endswith("i"):
        t = f"{body[:-1]}j{t[len(body):]}"
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
    raise ValueError(f"cannot parse boolean {text!r}")


def parse_count(text: str, minimum: int = 0) -> int:
    """An integer of at least ``minimum``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def parse_half_width(text: str) -> float:
    """A float R such that R and the span 2R of the grid [-R, R] are finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    if not math.isfinite(2.0 * value):
        raise argparse.ArgumentTypeError(
            f"half-width {value!r}: the span 2R of the grid [-R, R] passes the double range")
    return value


def load_config(path: str, command: str) -> list[str]:
    """The lines of a flat key=value file as flags of `command`: key
    ``tail_tol`` becomes ``--tail-tol=value``, ``normalize=<bool>`` becomes
    ``--normalize`` or nothing.  Keys that only other commands take are
    skipped; a key no command takes is a ValueError."""
    takes = {cmd: vars(_parse([cmd])).keys() - {"command", "config"} for cmd in _COMMANDS}
    known = set().union(*takes.values())
    flags = []
    with open(path) as file:
        text = file.read()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        if key not in takes[command]:
            continue
        flag = "--" + key.replace("_", "-")
        if key != "normalize":
            flags.append(f"{flag}={value}")
        elif parse_bool(value):
            flags.append(flag)
    return flags


def resolve_params(args: argparse.Namespace) -> AlgebraParams:
    """The algebra of --kappa, or of --ell as kappa_i = 1/ell_i."""
    kappas = [Fraction(1, ell) for ell in args.ell] if args.ell else args.kappa
    return AlgebraParams(kappas, args.phi)


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
    import numpy as np

    from .coherent import CoherentState, CutoffMeta, StateKind

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
    f = [structure_function(params, n) for n in range(args.nmax + 2)]
    rows = []
    try:
        for n in range(args.nmax + 1):
            fval, gval = f[n], f[n + 1] - f[n]
            rows.append(
                {"n": n, "F": str(fval), "G": str(gval),
                 "F_float": float(fval), "G_float": float(gval)}
            )
    except OverflowError:
        raise DomainError(
            f"F({n}) or G({n}) passes the double range at kappa = "
            f"{','.join(map(str, params.kappas))}, so its float column cannot be written"
        ) from None
    payload = {"command": "spectrum"}
    payload.update(params_payload(params))
    payload["rows"] = rows
    return payload, lambda: (
        ["n", "F", "G", "F_float", "G_float"],
        [[r["n"], r["F"], r["G"], repr(r["F_float"]), repr(r["G_float"])] for r in rows],
    )


def cmd_rep_check(args):
    params = resolve_params(args)
    rep = build_rep(params, args.window)
    dev = identity_deviations(rep)
    payload = {"command": "rep-check"}
    payload.update(params_payload(params))
    payload.update(
        {
            "window": rep.dim_window,
            "hermiticity_exact": True,  # raising is defined as the band's conjugate transpose
            "max_abs_dev_product_identity": dev.product,
            "max_abs_dev_commutator": dev.commutator,
            "nilpotency_max_abs": dev.nilpotency,
            "top_level_annihilation_max_abs": dev.nilpotency,  # raising |d-1>: no band entry d-1
        }
    )
    return payload, None


def cmd_truncate(args):
    params = resolve_params(args)
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
    import numpy as np

    from .coherent import perelomov_state, perelomov_via_exponential

    params = resolve_params(args)
    state = perelomov_state(
        params, args.z, normalize=args.normalize, tail_tol=args.tail_tol
    )
    payload = state_payload("cs-perelomov", state)
    if classify(params).is_finite:
        rep = build_rep(params)
        other = perelomov_via_exponential(params, args.z, rep, normalize=args.normalize)
        payload["exponential_residual"] = float(np.max(np.abs(state.coeffs - other.coeffs)))
    else:
        payload["exponential_residual"] = None
    return payload, None


def cmd_cs_bg(args):
    from .coherent import bg_normalization, bg_state, check_bg_eigen

    params = resolve_params(args)
    state = bg_state(params, args.z, normalize=args.normalize, tail_tol=args.tail_tol)
    payload = state_payload("cs-bg", state)
    rep = build_rep(params, window=len(state.coeffs) + 1)
    payload["eigen_residual"] = check_bg_eigen(state, rep)
    try:
        reciprocal_ells(params)
    except DomainError:
        payload["norm_hypergeometric"] = None  # kappas not of the 1/ell form
    else:  # an |N| past the double range is the DomainError that names it
        payload["norm_hypergeometric"] = bg_normalization(params, args.z)
    return payload, None


def cmd_cs_grassmann(args):
    import numpy as np

    from .grassmann import bg_grassmann_state, check_bg_grassmann_eigen

    params = resolve_params(args)
    state = bg_grassmann_state(params, dim=args.dim)
    rep = build_rep(params, window=state.dim)
    payload = {"command": "cs-grassmann"}
    payload.update(params_payload(params))
    payload.update(
        {
            "dim": state.dim,
            "eigen_residual": check_bg_grassmann_eigen(state, rep),
            "levels": np.diag(state.kernel),
        }
    )
    return payload, None


def cmd_measure(args):
    from .coherent import StateKind
    from .measure import moments_for, solve_measure, verify_identity

    params = resolve_params(args)
    kind = StateKind(args.kind)
    moments = moments_for(params, kind, count=args.levels)
    digits = sys.get_int_max_str_digits()  # each moment is written as a string; 0: no limit
    for n, value in enumerate(moments.values if digits else ()):
        largest = max(value.numerator, value.denominator)
        if largest.bit_length() > 3 * digits and largest >= 10**digits:  # 10**d > 2**(3d)
            raise DomainError(
                f"moment m_{n} has more than {digits} digits, the interpreter's limit for "
                "integer string conversion (sys.get_int_max_str_digits())"
            )
    measure = solve_measure(moments)
    deviation = verify_identity(params, kind, measure)
    payload = {"command": "measure", "kind": kind.value}
    payload.update(params_payload(params))
    payload.update(
        {
            "levels": len(moments.values),
            "moments": [str(v) for v in moments.values],
            "moments_float": [_float_or_none(v) for v in moments.values],
            "nodes": measure.nodes,
            "weights": measure.weights,
            "n_matched": measure.n_matched,
            "moment_match_max_rel_err": measure.max_rel_err,
            "identity_deviation": deviation,
        }
    )
    return payload, lambda: (
        ["node", "weight"],
        [[repr(float(t)), repr(float(w))] for t, w in zip(measure.nodes, measure.weights)],
    )


def _float_or_none(value: Fraction):
    """float(value), or None past the double range: the correctly rounded
    quotient that float(Fraction) also takes, without its generic method."""
    try:
        return value.numerator / value.denominator
    except OverflowError:
        return None


def cmd_bargmann_growth(args):
    from .bargmann import closed_form_growth, kernel_growth

    params = resolve_params(args)
    est = kernel_growth(params, args.nmax)
    payload = {"command": "bargmann-growth"}
    payload.update(params_payload(params))
    payload.update(
        {
            "n_max": args.nmax,
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
    import numpy as np

    from .bargmann import schwarz_check
    from .coherent import bg_state

    params = resolve_params(args)
    reciprocal_ells(params)
    f_state = bg_state(params, args.w, normalize=True, tail_tol=args.tail_tol)
    axis = np.linspace(-args.grid_radius, args.grid_radius, args.grid_points)
    grid = np.empty((len(axis), len(axis)), dtype=complex)  # complex(axis[i], axis[j])
    grid.real = axis[:, None]
    grid.imag = axis
    excess = schwarz_check(params, f_state.coeffs, grid.ravel())  # the P*P points, flat
    if excess == -math.inf:
        raise DomainError(
            "|N(z)| passes the double range at every grid point, so no excess is finite"
        )
    payload = {"command": "schwarz"}
    payload.update(params_payload(params))
    payload.update(
        {
            "w": cnum(args.w),
            "grid_radius": args.grid_radius,
            "grid_points": args.grid_points,
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
    algebra = common.add_mutually_exclusive_group()  # one of them is required: see _complete
    algebra.add_argument("--kappa", type=parse_kappas, default=None,
                         help="comma-separated exact rationals, e.g. '-1/3' or '1/2,2'")
    algebra.add_argument("--ell", type=parse_ells, default=None,
                         help="comma-separated positive integers; sets kappa_i = 1/ell_i")
    common.add_argument("--phi", type=float, default=0.0,
                        help="phase parameter (default %(default)s)")
    common.add_argument("--config", default=None,
                        help="flat key=value file; each line is read as the flag --key=value, "
                             "and flags on the command line win")
    common.add_argument("--output", default=None, help="write the artifact here (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (csv only for tabular commands; default %(default)s)")
    tail_tol = dict(type=float, default=None,
                    help=f"relative l2 tail bound of the series (default ${TAIL_TOL_ENV}, "
                         f"else {DEFAULT_TAIL_TOL})")
    positive = lambda text: parse_count(text, 1)  # noqa: E731

    parser = argparse.ArgumentParser(
        prog="polywh",
        description="polynomial ladder algebras, their coherent states, and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="tabulate F(n) and G(n)")
    p.add_argument("--nmax", type=parse_count, default=10, help="last level (default %(default)s)")

    p = sub.add_parser("rep-check", parents=[common], help="operator identity deviations")
    p.add_argument("--window", type=positive, default=None)

    p = sub.add_parser("truncate", parents=[common], help="level-truncated commutator identity")
    p.add_argument("--window", type=positive, default=None, help="required")
    p.add_argument("--s", type=positive, default=None, help="truncation order (required)")

    for command, what in (("cs-perelomov", "exponential-type coherent state"),
                          ("cs-bg", "lowering-eigenstate coherent state")):
        p = sub.add_parser(command, parents=[common], help=what)
        p.add_argument("--z", type=parse_complex, default=0j, help="state label (default 0)")
        p.add_argument("--normalize", action="store_true")
        p.add_argument("--tail-tol", **tail_tol)

    p = sub.add_parser("cs-grassmann", parents=[common], help="nilpotent-variable eigenstate")
    p.add_argument("--dim", type=positive, default=None,
                   help="nilpotency order (required for infinite-ladder parameters)")

    p = sub.add_parser("measure", parents=[common], help="solve the radial moment problem")
    p.add_argument("--kind", choices=("perelomov", "barut-girardello"), default="perelomov",
                   help="state family (default %(default)s)")
    p.add_argument("--levels", type=positive, default=None, help="moment count (infinite ladder)")

    p = sub.add_parser("bargmann-growth", parents=[common], help="order/type of the kernel series")
    p.add_argument("--nmax", type=parse_count, default=5000,
                   help="number of coefficients (default %(default)s)")

    p = sub.add_parser("schwarz", parents=[common], help="kernel bound check on a z-grid")
    p.add_argument("--w", type=parse_complex, default=0.5 + 0j,
                   help="build f from the normalized eigenstate at w (default 0.5)")
    p.add_argument("--grid-radius", type=parse_half_width, default=2.0,
                   help="half-width of the square z-grid (default %(default)s)")
    p.add_argument("--grid-points", type=positive, default=9,
                   help="points per axis (default %(default)s)")
    p.add_argument("--tail-tol", **tail_tol)

    return parser


def _is_ndarray(value) -> bool:
    """Whether value is a numpy array; none exists before numpy is imported,
    and this asks without importing it."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(value, numpy.ndarray)


def _write_array(value, out: list) -> None:
    """Append the text of an ndarray with at least one dimension and one
    entry, written as a value of the payload's top level: a complex one as
    lists of {"re", "im"} objects, a real one as lists of its float64
    values, a 2-D one as a list of its rows.

    The floats, a complex entry the pair (re, im), are written in chunks of
    about `_CHUNK_FLOATS` (whole periods of `_array_layout`'s separators),
    each from one orjson dump, in orjson's shortest form (Ryu): the digits
    of float.__repr__, but 1e-7, 0.000025 and 1e16 where it writes 1e-07,
    2.5e-05 and 1e+16.  orjson writes NaN as null, so the finite check
    comes first and names the first non-finite float, as json.dumps does."""
    import numpy as np
    import orjson

    is_complex = value.dtype.kind == "c"
    floats = np.ascontiguousarray(value, dtype=np.complex128 if is_complex else np.float64)
    if is_complex:
        floats = floats.view(np.float64).reshape(*value.shape, 2)
    flat = floats.ravel()
    head, separators, tail = _array_layout(floats.shape[1:], is_complex)
    period = len(separators)
    step = max(1, _CHUNK_FLOATS // period) * period  # so each chunk ends on separators[-1]
    out.append(head)
    for start in range(0, flat.size, step):
        chunk = flat[start:start + step]
        if not np.isfinite(chunk).all():
            bad = float(chunk[~np.isfinite(chunk)][0])
            raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
        numbers = orjson.dumps(chunk, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
        if period == 1:  # a real 1-D array
            out.append(separators[0].join(numbers))
        else:  # the numbers, and between two the separator after the first
            slots = [None] * (2 * len(numbers) - 1)
            slots[::2] = numbers
            slots[1::2] = (separators * (len(numbers) // period))[:-1]
            out.append("".join(slots))
        out.append(separators[-1])
    out[-1] = tail  # in place of the separator after the last number


# floats per chunk: each chunk's dump, text and arrays stay far below
# glibc's 128 KiB mmap threshold, so they reuse heap memory instead of
# mapping and faulting in fresh pages for every array
_CHUNK_FLOATS = 1024


@functools.lru_cache
def _array_layout(inner: tuple, is_complex: bool) -> tuple:
    """(head, separators, tail) of `_write_array`'s text of a float64 array
    of shape (r, *inner) opening at indent 1, the innermost list an
    {"re", "im"} object if ``is_complex``: float i is followed by
    separators[i % len(separators)], and the last float by the tail."""
    depth = len(inner) + 1
    # the list at depth k (1 outermost) holds its entries at indent 1 + k
    pad = ["\n" + "  " * (1 + k) for k in range(depth + 1)]
    brackets = ["[]"] * depth + ["{}" if is_complex else "[]"]  # by depth, from 1
    first = '"re": ' if is_complex else ""

    def opens(k):  # open depths k to depth, up to the first number
        return "".join(pad[j - 1] + brackets[j][0] for j in range(k, depth + 1)) + pad[-1] + first

    def closes(k):  # close depths depth to k
        return "".join(pad[j - 1] + brackets[j][1] for j in range(depth, k - 1, -1))

    period = math.prod(inner)
    separators = ["," + pad[-1] + ('"im": ' if is_complex else "")] * period
    for k in range(depth - 1, 0, -1):  # an entry of the depth-k list ends every step floats
        step = math.prod(inner[k - 1:])
        separators[step - 1::step] = [closes(k + 1) + "," + opens(k + 1)] * (period // step)
    return "[" + opens(2), tuple(separators), closes(1)


def json_text(payload: dict) -> str:
    """Strict JSON of a payload, indented by 2, and a newline: one
    ``json.dumps(payload, indent=2, allow_nan=False)``, raising its
    ValueError or TypeError, with each ndarray of one dimension or more and
    one entry or more written by `_write_array` into the hole the dump left
    for it (any other ndarray is its ``tolist()``).  Two conditions make the
    holes sound: every ndarray is a value of the payload's top level, and no
    payload string is a NUL, the hole's text (else a ValueError)."""
    arrays, holes = [], {}
    for key, value in payload.items():
        if _is_ndarray(value):
            if value.ndim and value.size:
                arrays.append(value)
                value = "\0"
            else:
                value = value.tolist()
        holes[key] = value
    text = json.dumps(holes, indent=2, allow_nan=False)
    head, *gaps = text.split('"\\u0000"') if arrays else [text]
    out = [head]
    for array, gap in zip(arrays, gaps, strict=True):
        _write_array(array, out)
        out.append(gap)
    out.append("\n")
    return "".join(out)


def emit(args: argparse.Namespace, payload: dict, table) -> None:
    """Write the payload as JSON, or under --format csv the (header, rows)
    that ``table()`` builds; a command without a table has no CSV."""
    if args.format == "csv":
        if table is None:
            raise ValueError(f"command {payload['command']!r} has no CSV representation")
        import csv

        header, rows = table()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json_text(payload)
    if args.output:
        with open(args.output, "w") as file:
            file.write(text)
    else:
        sys.stdout.write(text)


_PARSER = build_parser()  # argparse keeps no state between parse_args calls
_SUBPARSERS = next(
    action for action in _PARSER._actions if isinstance(action, argparse._SubParsersAction)
).choices

# every flag of every subcommand that takes a value, read from the parser
_TAKES_VALUE = frozenset(
    flag
    for subparser in _SUBPARSERS.values()
    for option in subparser._actions if option.nargs != 0
    for flag in option.option_strings
)


def _join_flag_values(argv):
    """A value that starts with '-' (--kappa -1/3, --z -1-2i, --output -run.json)
    reads to argparse as an option, so each value flag is joined to the
    token after it with '='."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok in _TAKES_VALUE and (value := next(tokens, None)) is not None:
            tok = f"{tok}={value}"
        out.append(tok)
    return out


def _complete(args: argparse.Namespace) -> None:
    """What a config line may supply, checked once config and command line
    are both read: a value for every flag given (argparse reads ``--flag --``
    and ``--flag=--`` as the list of no values), a nonempty --output and
    --config, one of --kappa and --ell, truncate's --window and --s, and a
    --tail-tol, else $POLYWH_TAIL_TOL, else coherent.DEFAULT_TAIL_TOL.  A
    failure is the subcommand's usage error (SystemExit 2)."""
    parser = _SUBPARSERS[args.command]
    for action in parser._actions:  # no type returns a list; only --output and --config take ""
        if getattr(args, action.dest, None) in ([], ""):
            parser.error(f"argument {action.option_strings[0]}: expected one argument")
    if not (args.kappa or args.ell):
        parser.error("one of the arguments --kappa --ell is required")
    required = ("--window", "--s") if args.command == "truncate" else ()
    missing = [flag for flag in required if getattr(args, flag[2:]) is None]
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")
    if "tail_tol" in args and args.tail_tol is None:
        env = os.environ.get(TAIL_TOL_ENV)
        try:
            args.tail_tol = float(env) if env else DEFAULT_TAIL_TOL
        except ValueError:
            parser.error(f"environment variable {TAIL_TOL_ENV}: invalid float value: {env!r}")


def _read(argv: list) -> argparse.Namespace | None:
    """The namespace ``_PARSER.parse_args(argv)`` gives, read off the
    actions of argv's subcommand, where each token after the command is
    ``--flag=value`` for a flag that takes a value (the value converted by
    its type and within its choices) or a bare flag that takes none (its
    const): a flag given twice keeps its last value, as in argparse, and an
    action not named takes its default.  None for anything else: no
    subcommand, an unknown or abbreviated flag, -h or --help (the one
    action without a default), a positional or ``--``, a value missing or
    one given to a flag that takes none, a value its type or choices
    refuse, or two flags of one exclusive group (--kappa and --ell)."""
    parser = _SUBPARSERS.get(argv[0]) if argv else None
    if parser is None:
        return None
    values = {}
    for token in argv[1:]:
        flag, eq, text = token.partition("=")
        action = parser._option_string_actions.get(flag)
        if (action is None or action.default is argparse.SUPPRESS  # help has no default
                or bool(eq) == (action.nargs == 0)):  # a value missing, or one not taken
            return None
        value = action.const
        if eq:
            if text == "--":  # argparse drops it and reads no value
                return None
            try:
                value = action.type(text) if action.type else text
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        values[action.dest] = value
    for group in parser._mutually_exclusive_groups:
        if sum(action.dest in values for action in group._group_actions) > 1:
            return None
    args = argparse.Namespace(command=argv[0])
    for action in parser._actions:
        if action.default is not argparse.SUPPRESS:
            setattr(args, action.dest, values.get(action.dest, action.default))
    return args


def _parse(argv: list) -> argparse.Namespace:
    """What ``_PARSER.parse_args(argv)`` gives: a well-formed command line
    read off its subcommand's actions (`_read`), any other by
    ``_PARSER.parse_args``, so that the usage, error or help it prints is
    argparse's own."""
    args = _read(argv)
    return _PARSER.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_flag_values(list(argv))
    args = _parse(argv)
    if args.config:
        try:
            flags = load_config(args.config, args.command)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            print(f"error: bad config: {exc}", file=sys.stderr)
            return EXIT_IO
        # the same parser reads the config flags, and later flags win
        args = _parse([args.command, *flags, *argv[1:]])
    _complete(args)
    try:
        payload, table = _COMMANDS[args.command](args)
    except (ValueError, TypeError, MemoryError) as exc:  # DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        emit(args, payload, table)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
