"""Run every workload of BENCHMARK.json and print its metrics in one table.

    python3 bench/report.py                 # one run per workload, seed 1
    python3 bench/report.py --seeds 10      # ten seeds: median, quartiles, spread
    python3 bench/report.py --trace 1       # the per-layer metrics instead

Each run is a separate `bench/run.py` process, as the benchmark is meant to
be run.  With several seeds the spread of a metric is the distance between
its first and third quartiles as a share of its median; it is printed
beside the metric's bound and, for a time, beside the spread of the time
as measured (before scaling to the reference speed).  failed_share (the
complement of passed_share) is printed for every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    return result


def spread(values: list[float]) -> float:
    """Distance between the first and third quartiles over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1, help="runs per workload, seeds 1..N")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    seeds = range(1, args.seeds + 1)
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace) for seed in seeds]
        print(f"\n== {workload}: seeds {seeds.start}..{seeds.stop - 1}, "
              f"correct={all(r['correct'] for r in runs)}")
        failed = [r["failed"] / r["attempted"] for r in runs]
        print(f"  {'failed_share':36s} {'share':6s} median {statistics.median(failed):.6g}"
              f"  attempted {statistics.median(r['attempted'] for r in runs):g}")
        if not args.trace:
            pct = {r["provenance"]["tail_percentile"] for r in runs}
            print(f"  latency_tail_ms is p{'/'.join(f'{p:g}' for p in sorted(pct))}, samples "
                  + " ".join(str(r["provenance"]["latency_samples"]) for r in runs))
            print("  loop wall seconds " + " ".join(
                f"{r['provenance']['wall_s']:.1f}" for r in runs) + ", calibration ms " + " ".join(
                f"{1e3 * r['provenance']['calibration_s']['median']:.2f}" for r in runs))
        for metric in declared:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            line = f"  {name:36s} {metric['unit']:6s} median {med:<12.6g}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f" q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread(values):7.2%}"
                if "bound" in metric:
                    line += f" bound {metric['bound']:.0%}"
                if name in runs[0]["provenance"].get("measured", {}):
                    measured = [r["provenance"]["measured"][name] for r in runs]
                    line += (f" | as measured: median {statistics.median(measured):<10.6g}"
                             f" spread {spread(measured):7.2%}")
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
