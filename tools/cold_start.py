"""Paired cold-start timing of `python -m polywh` in two checkouts.

    python3 tools/cold_start.py --parent ../parent --change . --pairs 10

Times `python -m polywh <argv>` from a fresh interpreter for `--help` and
for each command of `bench/run.py`'s WARMUP (one per subcommand), with
PYTHONPATH set to the checkout's `src/` and BLAS pinned to one thread as
the benchmark pins it.  Each pair runs the command once per checkout, the
one that goes first alternating from pair to pair, so that a drift of the
machine falls on both sides alike; the wall time of the whole process is
kept.  Each checkout's `src/` is byte-compiled first (`compileall`, which
writes only its `__pycache__`), so that no timed start compiles a module.
One more start per side and command, untimed, runs under
``-X importtime`` to tell whether it imported numpy and `dataclasses`.

For each command it prints each side's median and quartiles
(`statistics.quantiles`) in ms, whether numpy and `dataclasses` were
imported and the exit codes, then the ratio change/parent of the medians
and in how many pairs the change started faster; the last line is one
JSON object with the same numbers.  Nothing in a checkout but its
`__pycache__` is written.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

COMMANDS = [["--help"], *run.WARMUP]
SIDES = ("parent", "change")


def environment(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"),
               **dict.fromkeys(run.BLAS_VARS, run.BLAS_THREADS))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def start(root: Path, argv, *flags) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time and result of one fresh `python *flags -m polywh *argv`."""
    cmd = [sys.executable, *flags, "-m", "polywh", *argv]
    begin = time.perf_counter()
    done = subprocess.run(cmd, cwd=root, env=environment(root), capture_output=True,
                          text=True, timeout=120)
    return time.perf_counter() - begin, done


def imports(root: Path, argv) -> set[str]:
    """The names of the modules that one `-X importtime` start imports."""
    _, done = start(root, argv, "-X", "importtime")
    return {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}


def summary(seconds: list[float]) -> dict:
    ms = [1e3 * s for s in seconds]
    q1, _, q3 = statistics.quantiles(ms, n=4)
    return {"median_ms": statistics.median(ms), "q1_ms": q1, "q3_ms": q3}


def compare(roots: dict, argv, pairs: int) -> dict:
    """Both sides' cold starts of `argv`, `pairs` times, alternating order."""
    times = {side: [] for side in SIDES}
    codes = {side: set() for side in SIDES}  # one each, unless a start fails
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            seconds, done = start(roots[side], argv)
            times[side].append(seconds)
            codes[side].add(done.returncode)
    result = {"argv": list(argv)}
    for side in SIDES:
        modules = imports(roots[side], argv)
        result[side] = {**summary(times[side]), "numpy": "numpy" in modules,
                        "dataclasses": "dataclasses" in modules,
                        "exit_codes": sorted(codes[side])}
    result["ratio"] = result["change"]["median_ms"] / result["parent"]["median_ms"]
    result["change_faster"] = sum(c < p for c, p in zip(times["change"], times["parent"]))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the checkout to compare against")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    parser.add_argument("--pairs", type=int, default=10,
                        help="timed starts per side and command, at least 2 (default %(default)s)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    roots = {"parent": args.parent, "change": args.change}
    for root in roots.values():
        if not compileall.compile_dir(Path(root) / "src", quiet=1):
            sys.exit(f"error: cannot byte-compile {Path(root) / 'src'}")
    results = [compare(roots, command, args.pairs) for command in COMMANDS]
    for r in results:
        sides = ", ".join(
            f"{side} {r[side]['median_ms']:.1f} [{r[side]['q1_ms']:.1f}, {r[side]['q3_ms']:.1f}] ms"
            f" (numpy {'yes' if r[side]['numpy'] else 'no'}, "
            f"dataclasses {'yes' if r[side]['dataclasses'] else 'no'}, "
            f"exit {','.join(map(str, r[side]['exit_codes']))})"
            for side in SIDES)
        print(f"{' '.join(r['argv'])}: {sides}, ratio {r['ratio']:.3f}, "
              f"change faster in {r['change_faster']}/{args.pairs} pairs")
    print(json.dumps({"pairs": args.pairs, "python": sys.version.split()[0],
                      "commands": results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
