"""Median and quartiles of the benchmark's end-to-end metrics, per checkout.

    python3 tools/bench_snapshot.py --checkout parent=../parent --checkout change=. \\
        --seeds 1-5 --out BENCH_1.json

Runs `bench/run.py --workload W --seed S --seconds T --trace 0` of each
checkout as its own process, T the run_seconds of BENCHMARK.json, for every
workload there and every seed; the checkouts take turns at each (workload,
seed), so that a drift of the machine falls on all of them alike, and which
of them runs first alternates from one seed to the next.  From the JSON
summary on the last line of each run it writes, per checkout, workload and
metric, the median and the first and third quartiles over the seeds
(`statistics.quantiles`, as `bench/report.py` takes them) and the per-seed
values; from the provenance line, the commit, Python, numpy and nproc of the
runs.  The output is one JSON object keyed by checkout label.  With two
checkouts or more, its key "verdicts" holds the second (the change) judged
against the first (the parent), per workload and end-to-end metric of
BENCHMARK.json, on the per-seed pairs (`verdicts`): a gain is claimable
where the change wins at least 9 in 10 pairs (ties count for neither) and
its median beats the parent's by more than the parent's quartile spread;
a metric is within its bound where the change's median is worse than the
parent's by at most that fraction of the parent's.  Each
checkout's `src/` is byte-compiled before its first run (`compileall`, which
writes only its `__pycache__`), as `tools/paired_timing.py` does, so that no
run compiles a module on start, as one with a stale cache would under
PYTHONDONTWRITEBYTECODE, and pays for it in its peak RSS; nothing else in a
checkout is written.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))  # seed_range, also where loaded by path

from seed_range import parse_seeds  # noqa: E402

PROVENANCE = ("git_commit", "python", "numpy", "nproc")


def parse_checkout(text: str) -> tuple[str, Path]:
    """'label=path'."""
    label, sep, path = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected label=path, got {text!r}")
    return label, Path(path)


def read_run(stdout: str) -> dict:
    """The summary (last line) of a `bench/run.py` run, with its provenance
    (the line before) under "provenance"."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return read_run(done.stdout)


def summarize(runs: list[dict]) -> dict:
    """Per metric of one workload's runs (one per seed): unit, median,
    quartiles and the values in seed order; plus the seeds, the provenance
    and whether every run was correct."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        metrics[name] = {"unit": first["unit"], "median": statistics.median(values),
                         "q1": q1, "q3": q3, "values": values}
    provenance = {key: runs[0]["provenance"].get(key) for key in PROVENANCE}
    return {
        "seeds": [run["provenance"]["seed"] for run in runs],
        "correct": all(run["correct"] for run in runs),
        "provenance": provenance,
        "metrics": metrics,
    }


def verdicts(parent: dict, change: dict, end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric (BENCHMARK.json's entries, with
    their `better` and `bound`) that both summaries hold: the pairs of
    per-seed values, the change's wins and the ties, the parent's quartile
    spread q3 - q1, the median gap (positive where the change is better),
    whether a gain is claimable and whether the change is within the bound."""
    out = {}
    for workload, summary in parent["workloads"].items():
        before_metrics, after_metrics = summary["metrics"], change["workloads"][workload]["metrics"]
        out[workload] = {}
        for entry in end_to_end:
            name = entry["name"]
            if name not in before_metrics or name not in after_metrics:
                continue
            p, c = before_metrics[name], after_metrics[name]
            sign = 1.0 if entry["better"] == "higher" else -1.0
            pairs = list(zip(p["values"], c["values"]))
            wins = sum(sign * (after - before) > 0 for before, after in pairs)
            spread = p["q3"] - p["q1"]
            gap = sign * (c["median"] - p["median"])
            worse_by = -gap / abs(p["median"]) if p["median"] else (0.0 if gap >= 0 else math.inf)
            out[workload][name] = {
                "better": entry["better"], "pairs": len(pairs), "wins": wins,
                "ties": sum(before == after for before, after in pairs),
                "parent_spread": spread, "median_gap": gap,
                "claimable": wins >= 0.9 * len(pairs) and gap > spread,
                "bound": entry["bound"], "within_bound": worse_by <= entry["bound"],
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=parse_checkout, action="append", required=True,
                        help="label=path of a checkout, e.g. change=.; repeat for several")
    parser.add_argument("--seeds", type=parse_seeds, default=range(1, 6), help="e.g. 1-5")
    parser.add_argument("--out", type=Path, help="write here instead of stdout")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    labels = [label for label, _ in args.checkout]
    if len(set(labels)) != len(labels) or "verdicts" in labels:
        parser.error("checkout labels must be distinct and not 'verdicts'")
    for _, checkout in args.checkout:
        if not compileall.compile_dir(checkout / "src", quiet=1):
            raise SystemExit(f"error: cannot byte-compile {checkout / 'src'}")
    runs = {label: {w: [] for w in workloads} for label in labels}
    for workload in workloads:
        for i, seed in enumerate(args.seeds):
            for label, checkout in args.checkout[:: -1 if i % 2 else 1]:
                runs[label][workload].append(run_once(checkout, workload, seed, seconds))
                print(f"{label} {workload} seed {seed} done", file=sys.stderr)
    snapshot = {
        label: {
            "command": f"bench/run.py --seconds {seconds:g} --trace 0",
            "workloads": {w: summarize(by_workload[w]) for w in workloads},
        }
        for label, by_workload in runs.items()
    }
    if len(labels) > 1:
        snapshot["verdicts"] = {"parent": labels[0], "change": labels[1], "workloads": verdicts(
            snapshot[labels[0]], snapshot[labels[1]], spec["end_to_end"])}
    text = json.dumps(snapshot, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
