"""Paired per-command timing of two checkouts over the benchmark streams.

    python3 tools/paired_timing.py --parent ../parent --change . --workload moments \\
        --seeds 1-5

Starts one worker process per checkout for each seed, each running
`polywh.cli.main` imported from that checkout's `src/`, and sends both the
same commands of a `bench/streams.py` stream one at a time, the way
`bench/run.py` runs them (in-process, stdout and stderr in memory, BLAS
pinned to one thread, glibc's mmap threshold pinned).  Each seed runs the
first CYCLES cycles of its stream; each command runs REPEATS times in each
worker, the two interleaved and the one that goes first alternating from
command to command, and the minimum time is kept: on a machine whose cores are
shared, unpaired runs of the same code spread far more than a paired
difference.  Per seed it prints the throughput ratio change/parent
(commands per second of the summed minima) and beside it the same ratio
of each command's first run alone: runs 2 and 3 of a command find whatever
per-process cache run 1 filled (a kept kernel table, say), so the minimum
credits a cache with repeats that `bench/run.py`, which runs each command
of the stream once, does not make; the first run sees only the caches the
stream's earlier commands filled, as the benchmark does.  It then prints
the p50 of the minima of each side and their tail at the percentile
`bench/run.py` takes for as many commands (`run.tail_percentile`: p93.3
for the 150 moments commands of a seed), the minor page faults per
command of each side (the mean over every run of `getrusage`'s ru_minflt
delta around the command, rounded), the peak RSS of each side's worker
(`getrusage`'s ru_maxrss in MB, as `bench/run.py` reports it; a fresh
worker pair per seed keeps it that seed's) and how many commands exited
differently; the last line is one JSON object with the same numbers.  The
streams and the command runner are read from `bench/` next to this file;
nothing there is written.  Each checkout's `src/` is byte-compiled first
(`compileall`, which writes only its `__pycache__`), so that neither
worker compiles a module on start, as one with a stale cache would under
PYTHONDONTWRITEBYTECODE, and pays for it in its peak RSS.  Last on each
seed's line come the time ratios change/parent of the summed minima of
each subcommand of the stream (below 1: the change is faster there).
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "tools"))  # seed_range, also where loaded by path

import run  # noqa: E402
import streams  # noqa: E402
from seed_range import parse_seeds  # noqa: E402

CYCLES = 25  # per seed
REPEATS = 3  # runs of each command per side


def serve(src: Path) -> int:
    """Worker: time each argv read from stdin (a JSON line) and answer with
    one JSON line [exit code, seconds, minor page faults, peak RSS in MB so
    far].  The allocator is set up as `bench/run.py` sets it before it
    imports the program."""
    run.fix_mmap_threshold()
    sys.path.insert(0, str(src))
    import polywh
    from polywh.cli import main

    if not Path(polywh.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: polywh was imported from {polywh.__file__}, not {src}")
    for argv in run.WARMUP:
        run.execute(main, argv)
    for line in sys.stdin:
        argv = json.loads(line)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        code, _, _, seconds, _ = run.execute(main, argv)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print(json.dumps([code, seconds, usage.ru_minflt - faults, usage.ru_maxrss / 1024]),
              flush=True)
    return 0


class Worker:
    """One checkout's worker process."""

    def __init__(self, root: Path):
        env = dict(os.environ, **dict.fromkeys(run.BLAS_VARS, run.BLAS_THREADS))
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(Path(root) / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def time(self, argv) -> tuple[int | None, float, int, float]:
        self.process.stdin.write(json.dumps(argv) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.process.wait()}")
        code, seconds, faults, peak_rss_mb = json.loads(line)
        return code, seconds, faults, peak_rss_mb

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=60)


def compare(parent: Worker, change: Worker, workload: str, seed: int) -> dict:
    """Minimum and first-run times of every command of the first CYCLES
    cycles on both sides, summed up as throughput ratios, percentiles of the
    minima, page faults per command, peak RSS, exit mismatches and the time
    ratio of each subcommand's summed minima.  The tail is taken at the
    benchmark's own percentile for the command count."""
    best = {parent: [], change: []}
    by_subcommand = {}  # subcommand: {side: summed minimum seconds}
    first = {parent: 0.0, change: 0.0}
    faults = {parent: 0, change: 0}
    peak_rss = {parent: 0.0, change: 0.0}
    mismatches = 0
    commands = itertools.chain(*itertools.islice(streams.cycles(workload, seed), CYCLES))
    for i, argv in enumerate(commands):
        order = (parent, change) if i % 2 == 0 else (change, parent)
        times = {side: math.inf for side in order}
        codes = {}
        for repeat, side in itertools.product(range(REPEATS), order):
            codes[side], seconds, minflt, peak_rss[side] = side.time(argv)
            if not repeat:
                first[side] += seconds
            times[side] = min(times[side], seconds)
            faults[side] += minflt
        mismatches += codes[parent] != codes[change]
        summed = by_subcommand.setdefault(argv[0], {parent: 0.0, change: 0.0})
        for side in order:
            best[side].append(times[side])
            summed[side] += times[side]
    ms = {side: [1e3 * t for t in kept] for side, kept in best.items()}
    runs = REPEATS * len(ms[parent])
    tail = run.tail_percentile(len(ms[parent]))
    return {
        "seed": seed,
        "commands": len(ms[parent]),
        "exit_mismatches": mismatches,
        "throughput_ratio": sum(best[parent]) / sum(best[change]),
        "first_run_throughput_ratio": first[parent] / first[change],
        "p50_ms": {"parent": run.percentile(ms[parent], 50.0),
                   "change": run.percentile(ms[change], 50.0)},
        "tail_percentile": tail,
        "tail_ms": {"parent": run.percentile(ms[parent], tail),
                    "change": run.percentile(ms[change], tail)},
        "minor_faults_per_command": {"parent": round(faults[parent] / runs),
                                     "change": round(faults[change] / runs)},
        "peak_rss_mb": {"parent": peak_rss[parent], "change": peak_rss[change]},
        "subcommand_time_ratio": {name: summed[change] / summed[parent]
                                  for name, summed in sorted(by_subcommand.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--parent", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", choices=streams.WORKLOADS, default="moments")
    parser.add_argument("--seeds", type=parse_seeds, default=range(1, 2), help="e.g. 1-5")
    args = parser.parse_args(argv)
    if args.worker:
        return serve(args.worker)
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    for root in (args.parent, args.change):
        if not compileall.compile_dir(Path(root) / "src", quiet=1):
            sys.exit(f"error: cannot byte-compile {Path(root) / 'src'}")
    results = []
    for seed in args.seeds:
        parent, change = Worker(args.parent), Worker(args.change)
        try:
            results.append(compare(parent, change, args.workload, seed))
        finally:
            parent.close()
            change.close()
    for r in results:
        print(f"{args.workload} seed {r['seed']}: {r['commands']} commands, "
              f"throughput ratio {r['throughput_ratio']:.3f} "
              f"(first run {r['first_run_throughput_ratio']:.3f}), "
              f"p50 {r['p50_ms']['parent']:.3f} -> {r['p50_ms']['change']:.3f} ms, "
              f"p{r['tail_percentile']:g} {r['tail_ms']['parent']:.3f} -> "
              f"{r['tail_ms']['change']:.3f} ms, "
              f"minor faults/command {r['minor_faults_per_command']['parent']} -> "
              f"{r['minor_faults_per_command']['change']}, "
              f"peak RSS {r['peak_rss_mb']['parent']:.2f} -> {r['peak_rss_mb']['change']:.2f} MB, "
              f"exit mismatches {r['exit_mismatches']}, time change/parent by subcommand "
              + ", ".join(f"{name} {ratio:.3f}"
                          for name, ratio in r["subcommand_time_ratio"].items()))
    print(json.dumps({"workload": args.workload, "cycles": CYCLES, "repeats": REPEATS, "seeds": results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
