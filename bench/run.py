"""Benchmark: seeded CLI command streams through polywh.cli.main, in-process.

    python3 bench/run.py --workload states --seed 1 --seconds 25 --trace 0

One client in one process runs a closed loop: it sends the next command
only after the previous one has returned and its artifact has been checked
(`verify.py`).  Stdout and stderr are captured in memory; BLAS is pinned to
one thread.  The program is imported from `src/` of the checkout this file
sits in, and nothing else: without that tree the benchmark exits nonzero.

--seconds sizes the run: it runs a fixed number of whole cycles of the
stream, as many as take --seconds at the reference speed (CYCLE_SECONDS),
so that every run of a seed does the same work and reports percentiles over
the same number of commands.  A program so slow that the cycles take more
than STOP_AFTER times --seconds at that speed is stopped there, after a
whole cycle.

--trace 0 measures the end-to-end metrics over those cycles.  The times of
commands are scaled to a reference speed (see REFERENCE_CALIBRATION_S); the
times as measured are printed in the provenance line.  setup_s is the
median wall time of SETUP_RUNS cold starts.  latency_tail_ms is the highest
percentile, in tenths, with TAIL_BEYOND commands beyond it.  --trace 1
gives the per-layer metrics: the first half of them run once untraced and
once under the tracer (`spans.py`); counts repeat exactly for a seed, and
the throughput difference between the two passes is the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts commands that failed a
check; `correct` is false only when a command crashed (an exception
escaped `main`), which no check can classify.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # before numpy loads
    os.environ.update(dict.fromkeys(BLAS_VARS, BLAS_THREADS))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import streams  # noqa: E402
import verify  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# per workload: seconds one cycle takes at the reference speed
CYCLE_SECONDS = {"states": 0.67, "moments": 1.0, "growth": 1.2}
STOP_AFTER = 1.5
TAIL_BEYOND = 10  # samples beyond the tail percentile
SETUP_RUNS = 25
# Command times are scaled to a reference speed: on a machine whose cores are
# shared, the same work takes up to twice as long at some moments as at
# others, and the CPU time of the process grows with it, so neither wall nor
# CPU time repeats.  A fixed loop timed between commands measures the current
# speed; the loop takes REFERENCE_CALIBRATION_S at the reference speed.  The
# times as measured go to the provenance line.  setup_s is wall time: cold
# starts, mostly imports, vary less than the loop does.
CALIBRATION_TERMS = 300
REFERENCE_CALIBRATION_S = 0.0035
SETUP_ARGV = ["spectrum", "--kappa", "1/2", "--nmax", "1"]
WARMUP = [
    ["spectrum", "--kappa", "1/3", "--nmax", "3"],
    ["rep-check", "--kappa", "-1/3"],
    ["truncate", "--kappa", "1/2", "--window", "6", "--s", "3"],
    ["cs-perelomov", "--kappa", "-1/3", "--z", "0.4-0.1i"],
    ["cs-bg", "--kappa", "1/2", "--z", "1+0.5i", "--normalize"],
    ["cs-grassmann", "--kappa", "-1/3"],
    ["measure", "--kappa", "0", "--kind", "barut-girardello", "--levels", "8"],
    ["bargmann-growth", "--ell", "2", "--nmax", "500"],
    ["schwarz", "--ell", "2", "--grid-points", "3"],
]


def import_program():
    """polywh.cli.main from this checkout's src/; exits nonzero without it."""
    if not (SRC / "polywh" / "__init__.py").is_file():
        sys.exit(f"error: no polywh package under {SRC}")
    sys.path.insert(0, str(SRC))
    import polywh
    from polywh.cli import main

    if not Path(polywh.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: polywh was imported from {polywh.__file__}, not {SRC}")
    return main


def fix_mmap_threshold() -> bool:
    """Pin glibc's mmap threshold at its 128 KiB default.

    glibc raises the threshold after each large free, after which big arrays
    come from a heap it seldom gives back, so peak RSS would depend on the
    order of allocations.  Pinned, large arrays are unmapped when freed and
    peak RSS follows the program's live memory.  False where this is not glibc.
    """
    try:
        return ctypes.CDLL(None).mallopt(-3, 128 * 1024) == 1  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        return False


def calibration_seconds() -> float:
    """Time of a fixed exact-rational loop: how fast this machine runs code
    like the library's right now.  The collector is off around the loop, so
    the heap the program leaves behind does not time it."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for n in range(1, CALIBRATION_TERMS):
            total += Fraction(n, n + 7) * (1 + Fraction(1, 3) * (n - 1))
        return time.perf_counter() - start
    finally:
        gc.enable()


@dataclass
class Outcome:
    argv: list[str]
    seconds: float  # as measured
    scaled: float  # at the reference speed
    failure: str | None
    crashed: bool
    artifact_bytes: int


def execute(call, argv) -> tuple[int | None, str, str, float, bool]:
    """Run one command with stdout/stderr in memory; time only the call."""
    out, err = io.StringIO(), io.StringIO()
    crashed = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = call(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 -- a crash is a result to report
            code, crashed = None, True
            err.write(f"crash: {exc!r}\n")
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds, crashed


@dataclass
class Pass:
    """Outcomes of one pass over the stream.

    The calibration loop runs before the first command and right after each
    command; a command's time is scaled by REFERENCE_CALIBRATION_S over the
    mean of the calibrations on either side of it.
    """

    outcomes: list[Outcome] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    cycles: int = 0

    def run_cycle(self, cycle, call) -> None:
        if not self.calibrations:
            self.calibrations.append(calibration_seconds())
        for argv in cycle:
            code, out, err, seconds, crashed = execute(call, argv)
            after = calibration_seconds()
            scale = REFERENCE_CALIBRATION_S / ((self.calibrations[-1] + after) / 2)
            self.calibrations.append(after)
            failure = "crash" if crashed else verify.check(argv, code, out, err)
            self.outcomes.append(
                Outcome(argv, seconds, seconds * scale, failure, crashed, len(out)))
        self.cycles += 1

    def run_cycles(self, count, workload, seed, call, seconds) -> None:
        """The first `count` cycles of the stream, or fewer if the program
        spends more than STOP_AFTER times `seconds` in them at the reference
        speed (so a slow moment of the machine does not cut a run short)."""
        for cycle in itertools.islice(streams.cycles(workload, seed), count):
            if sum(o.scaled for o in self.outcomes) >= STOP_AFTER * seconds:
                break
            self.run_cycle(cycle, call)

    @property
    def failed(self) -> int:
        return sum(o.failure is not None for o in self.outcomes)

    def throughput(self, scaled: bool = True) -> float:
        """Passed commands per second spent inside the program."""
        busy = sum(o.scaled if scaled else o.seconds for o in self.outcomes)
        return (len(self.outcomes) - self.failed) / busy


def percentile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the `pct` percentile: the order statistics
    weighted by the Beta(p(n+1), (1-p)(n+1)) mass over their ranks.

    Command times here spread over three decades, so the nearest-rank value
    is the time of one command and carries all of that command's noise; the
    weighted average over neighbouring ranks does not.
    """
    ordered = sorted(values)
    n = len(ordered)
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 16  # midpoint rule inside each rank interval
    log_pdf = [
        (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
        for t in ((j + 0.5) / (n * steps) for j in range(n * steps))
    ]
    top = max(log_pdf)
    mass = [sum(math.exp(v - top) for v in log_pdf[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(m * x for m, x in zip(mass, ordered)) / sum(mass)


def tail_percentile(samples: int) -> float:
    """The highest percentile, in tenths, with TAIL_BEYOND samples beyond it."""
    return max(50.0, (1000 * (samples - TAIL_BEYOND) // samples) / 10)


def setup_seconds() -> list[float]:
    """Wall times of fresh interpreters running a trivial command."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time a start with bytecode caches
    cmd = [sys.executable, "-m", "polywh", *SETUP_ARGV]
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if done.returncode != 0 or verify.check(SETUP_ARGV, 0, done.stdout) is not None:
            sys.exit(f"error: cold start failed: {done.stderr.strip()}")
        if i:  # the first start may write the bytecode caches
            times.append(elapsed)
    return times


def provenance(workload: str, seed: int, run: Pass) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    argvs = [o.argv for o in run.outcomes]
    seen, repeats = set(), 0
    for argv in argvs:
        key = streams.kappa_key(argv)
        repeats += key in seen
        seen.add(key)
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cycles": run.cycles,
        "commands": len(argvs),
        "argv_sha256": streams.argv_digest(argvs),
        "kappa_repeat_share": repeats / len(argvs),
    }


def cycle_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


UNITS = {"throughput_cmds_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}


def timings(throughput: float, latencies_ms: list[float], pct: float) -> dict[str, float]:
    return {
        "throughput_cmds_per_s": throughput,
        "latency_p50_ms": percentile(latencies_ms, 50.0),
        "latency_tail_ms": percentile(latencies_ms, pct),
    }


def run_untraced(main, workload, seed, seconds) -> dict:
    setup = setup_seconds()
    for argv in WARMUP:
        execute(main, argv)
    run = Pass()
    planned = cycle_count(workload, seconds)
    start = time.perf_counter()
    run.run_cycles(planned, workload, seed, main, seconds)
    wall = time.perf_counter() - start
    attempted = len(run.outcomes)
    pct = tail_percentile(attempted)
    measured = timings(run.throughput(scaled=False), [o.seconds * 1e3 for o in run.outcomes], pct)
    scaled = timings(run.throughput(), [o.scaled * 1e3 for o in run.outcomes], pct)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        **{name: (value, UNITS[name]) for name, value in scaled.items()},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "passed_share": ((attempted - run.failed) / attempted, "share"),
    }
    tail_ms = scaled["latency_tail_ms"]
    info = provenance(workload, seed, run)
    info.update({
        "tail_percentile": pct,
        "latency_samples": attempted,
        "samples_beyond_tail": sum(o.scaled * 1e3 > tail_ms for o in run.outcomes),
        "failed_share": run.failed / attempted,
        "setup_runs_s": setup,
        "measured": measured,
        "calibration_s": {"median": statistics.median(run.calibrations),
                          "min": min(run.calibrations), "max": max(run.calibrations),
                          "reference": REFERENCE_CALIBRATION_S},
        "cycles_planned": planned,
        "wall_s": wall,
    })
    return _result(run, metrics, info)


def run_traced(main, workload, seed, seconds) -> dict:
    import spans  # needs polywh on the path

    for argv in WARMUP:
        execute(main, argv)
    count = max(1, cycle_count(workload, seconds) // 2)
    plain = Pass()
    plain.run_cycles(count, workload, seed, main, seconds / 2)
    tracer = spans.Tracer()
    traced = Pass()
    ids = itertools.count()
    with tracer.installed():
        traced.run_cycles(count, workload, seed,
                          lambda argv: tracer.call(next(ids), main, argv), seconds / 2)
    seconds = tracer.layer_seconds()
    counts = tracer.counts
    cli_bytes = sum(o.artifact_bytes for o in traced.outcomes)
    metrics = {
        "algebra.structure_function.calls": (counts["algebra.structure_function.calls"], "count"),
        "algebra.build_rep.s": (seconds["algebra.build_rep"], "s"),
        "algebra.build_rep.bytes": (counts["algebra.build_rep.bytes"], "bytes"),
        "coherent.series.s": (seconds["coherent.series"], "s"),
        "coherent.series.terms": (counts["coherent.series.terms"], "count"),
        "coherent.check.s": (seconds["coherent.check"], "s"),
        "coherent.norm.s": (seconds["coherent.norm"], "s"),
        "grassmann.state.s": (seconds["grassmann.state"], "s"),
        "grassmann.check.s": (seconds["grassmann.check"], "s"),
        "measure.moments.s": (seconds["measure.moments"], "s"),
        "measure.moments.max_bits": (counts["measure.moments.max_bits"], "bits"),
        "measure.hankel.s": (seconds["measure.hankel"], "s"),
        "measure.solve.s": (seconds["measure.solve"], "s"),
        "measure.verify.s": (seconds["measure.verify"], "s"),
        "bargmann.kernel.s": (seconds["bargmann.kernel"], "s"),
        "bargmann.kernel.terms": (counts["bargmann.kernel.terms"], "count"),
        "bargmann.fit.s": (seconds["bargmann.fit"], "s"),
        "bargmann.schwarz.s": (seconds["bargmann.schwarz"], "s"),
        "bargmann.schwarz.points": (counts["bargmann.schwarz.points"], "count"),
        "cli.self.s": (seconds["cli"], "s"),
        "cli.artifact.bytes": (cli_bytes, "bytes"),
        "cli.runtime_warnings": (tracer.runtime_warnings, "count"),
    }
    for layer in spans.LAYERS:
        metrics[f"{layer}.errors"] = (tracer.errors[layer], "count")
    overhead = 1.0 - traced.throughput() / plain.throughput()
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    info = provenance(workload, seed, traced)
    info.update({
        "throughput_untraced": plain.throughput(),
        "throughput_traced": traced.throughput(),
        "spans": len(tracer.spans),
    })
    return _result(traced, metrics, info)


def _result(run: Pass, metrics: dict, info: dict) -> dict:
    failures: dict[str, int] = {}
    for o in run.outcomes:
        if o.failure is not None:
            key = f"{o.argv[0]}: {o.failure[:72]}"
            failures[key] = failures.get(key, 0) + 1
    info["failures"] = failures
    return {
        "info": info,
        "summary": {
            "correct": not any(o.crashed for o in run.outcomes),
            "attempted": len(run.outcomes),
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    mmap_threshold_fixed = fix_mmap_threshold()
    program = import_program()
    if args.trace:
        result = run_traced(program, args.workload, args.seed, args.seconds)
    else:
        result = run_untraced(program, args.workload, args.seed, args.seconds)
    result["info"]["mmap_threshold_fixed"] = mmap_threshold_fixed
    for name, metric in result["summary"]["metrics"].items():
        print(f"{args.workload:8s} {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"provenance": result["info"]}))
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
