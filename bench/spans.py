"""Per-layer tracing from outside the library.

`Tracer.installed()` replaces the public functions of each polywh module
with timing wrappers, in every polywh namespace that bound the name (so
`polywh.cli.build_rep` and `polywh.measure.hankel_minors` are wrapped as
well as the definitions), and puts the originals back on exit.  Each
wrapped call records a span (command id, span id, parent span id, name,
start, end); the harness opens one root span named "cli" around every
`polywh.cli.main` call.  `structure_function` is counted, not timed: at a
few microseconds per call a span would cost more than the call.

A span's self time is its duration minus the durations of its direct
children, so a command's self times sum to its root span.
"""

from __future__ import annotations

import contextlib
import importlib
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass

from polywh.errors import DomainError

LAYERS = ("algebra", "coherent", "grassmann", "measure", "bargmann", "cli")

_MODULES = ("polywh", "polywh.algebra", "polywh.coherent", "polywh.grassmann",
            "polywh.measure", "polywh.bargmann", "polywh.cli")

# (defining module, function) -> span name
WRAPPED = {
    ("polywh.algebra", "build_rep"): "algebra.build_rep",
    ("polywh.coherent", "bg_state"): "coherent.series",
    ("polywh.coherent", "perelomov_state"): "coherent.series",
    ("polywh.coherent", "check_bg_eigen"): "coherent.check",
    ("polywh.coherent", "perelomov_via_exponential"): "coherent.check",
    ("polywh.coherent", "bg_normalization"): "coherent.norm",
    ("polywh.grassmann", "bg_grassmann_state"): "grassmann.state",
    ("polywh.grassmann", "check_bg_grassmann_eigen"): "grassmann.check",
    ("polywh.measure", "moments_for"): "measure.moments",
    ("polywh.measure", "hankel_minors"): "measure.hankel",
    ("polywh.measure", "solve_measure"): "measure.solve",
    ("polywh.measure", "verify_identity"): "measure.verify",
    ("polywh.bargmann", "estimate_growth"): "bargmann.fit",
    ("polywh.bargmann", "schwarz_check"): "bargmann.schwarz",
}
KERNEL = "bargmann.kernel"  # the classmethod EntireSeries.bg_kernel
ROOT = "cli"

SPAN_NAMES = tuple(dict.fromkeys([*WRAPPED.values(), KERNEL, ROOT]))


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _build_rep_bytes(result, args):
    return {"bytes": result.lowering.nbytes + result.raising.nbytes + result.number.nbytes}


# span name -> counts taken from (result, args) of each call
_COUNTS = {
    "algebra.build_rep": _build_rep_bytes,
    "coherent.series": lambda result, args: {"terms": result.cutoff_meta.n_terms},
    "measure.moments": lambda result, args: {"max_bits": max(map(_bits, result.values))},
    KERNEL: lambda result, args: {"terms": len(result)},
    "bargmann.schwarz": lambda result, args: {"points": len(args[2])},
}


@dataclass(frozen=True)
class Span:
    command: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans and counts in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.runtime_warnings = 0
        self._stack: list[int] = []
        self._command = -1
        self._next_id = 0
        self._seen_errors: list[BaseException] = []

    # -------------------------------------------------------------- spans

    def _open(self) -> tuple[int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(self._command, span_id, parent, name, start, end))

    def _domain_error(self, exc: BaseException, layer: str) -> None:
        # charged to the innermost layer it escaped from
        if not any(exc is seen for seen in self._seen_errors):
            self._seen_errors.append(exc)
            self.errors[layer] += 1

    def _wrap(self, fn, name):
        extract = _COUNTS.get(name)
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except DomainError as exc:
                self._domain_error(exc, layer)
                raise
            finally:
                self._close(span_id, parent, name, start)
            if extract is not None:
                for key, value in extract(result, args).items():
                    full = f"{name}.{key}"
                    if key == "max_bits":  # a maximum, not a total
                        self.counts[full] = max(self.counts[full], value)
                    else:
                        self.counts[full] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _cli_command(self, fn):
        def command(args):
            try:
                return fn(args)
            except DomainError as exc:
                self._domain_error(exc, "cli")
                raise

        return command

    # ------------------------------------------------------ installation

    @contextlib.contextmanager
    def installed(self):
        """Wrap the library's public names; restore them on exit."""
        modules = [importlib.import_module(name) for name in _MODULES]
        algebra = importlib.import_module("polywh.algebra")
        bargmann = importlib.import_module("polywh.bargmann")
        cli = importlib.import_module("polywh.cli")
        replacements = {}
        for (home, attr), name in WRAPPED.items():
            original = getattr(importlib.import_module(home), attr)
            replacements[attr] = (original, self._wrap(original, name))
        original = algebra.structure_function
        replacements["structure_function"] = (
            original, self._count(original, "algebra.structure_function.calls"))

        restore = []
        for module in modules:
            for attr, (original, wrapper) in replacements.items():
                if getattr(module, attr, None) is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        kernel = bargmann.EntireSeries.__dict__["bg_kernel"]
        bargmann.EntireSeries.bg_kernel = classmethod(self._wrap(kernel.__func__, KERNEL))
        # a DomainError raised by the CLI's own code (parameter validation)
        # passes through no wrapped function; main() catches it, so it is
        # counted on the way out of the subcommand
        commands = dict(cli._COMMANDS)
        cli._COMMANDS.update({k: self._cli_command(fn) for k, fn in commands.items()})
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    yield self
                finally:
                    self.runtime_warnings += sum(
                        issubclass(w.category, RuntimeWarning) for w in caught)
        finally:
            cli._COMMANDS.update(commands)
            bargmann.EntireSeries.bg_kernel = kernel
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def call(self, command: int, main, argv):
        """Run main(argv) under a root span for command id `command`."""
        self._command = command
        self._seen_errors.clear()
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            return main(argv)
        finally:
            self._close(span_id, parent, ROOT, start)

    # ----------------------------------------------------------- summary

    def self_times(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        own = {s.span_id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        own = self.self_times()
        out = {name: 0.0 for name in SPAN_NAMES}
        for s in self.spans:
            out[s.name] += own[s.span_id]
        return out
