import argparse
import importlib.util
import json
import subprocess
import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_snapshot.py"
_spec = importlib.util.spec_from_file_location("bench_snapshot", TOOL)
bench_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_snapshot)


def _run_output(seed, throughput, tail, correct=True):
    """The last three stdout lines of a `bench/run.py --trace 0` run, as it prints them."""
    provenance = {"workload": "moments", "seed": seed, "git_commit": "abc123",
                  "python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "cycles": 25}
    summary = {"correct": correct, "attempted": 150, "failed": 0, "metrics": {
        "throughput_cmds_per_s": {"value": throughput, "unit": "1/s"},
        "latency_tail_ms": {"value": tail, "unit": "ms"},
    }}
    return "\n".join([
        f"moments  latency_tail_ms {tail:>16.6g} ms",
        json.dumps({"provenance": provenance}),
        json.dumps(summary),
    ]) + "\n"


def test_runs_are_summarized_by_median_and_quartiles():
    tails = [4.0, 3.0, 5.0, 3.5, 6.0]
    runs = [bench_snapshot.read_run(_run_output(seed, 400.0 + 10 * seed, tail))
            for seed, tail in enumerate(tails, start=1)]
    summary = bench_snapshot.summarize(runs)
    assert summary["seeds"] == [1, 2, 3, 4, 5] and summary["correct"] is True
    assert summary["provenance"] == {"git_commit": "abc123", "python": "3.11.7",
                                     "numpy": "2.4.6", "nproc": 2}
    tail = summary["metrics"]["latency_tail_ms"]
    assert tail["unit"] == "ms" and tail["values"] == tails
    # sorted 3.0 3.5 4.0 5.0 6.0: exclusive quartiles at positions 1.5, 3 and 4.5
    assert (tail["q1"], tail["median"], tail["q3"]) == (3.25, 4.0, 5.5)
    throughput = summary["metrics"]["throughput_cmds_per_s"]
    assert (throughput["q1"], throughput["median"], throughput["q3"]) == (415.0, 430.0, 445.0)


def test_one_seed_is_its_own_median_and_quartiles_and_a_crash_is_kept():
    summary = bench_snapshot.summarize([bench_snapshot.read_run(_run_output(3, 500.0, 2.5,
                                                                            correct=False))])
    tail = summary["metrics"]["latency_tail_ms"]
    assert (tail["q1"], tail["median"], tail["q3"]) == (2.5, 2.5, 2.5)
    assert summary["correct"] is False


def test_arguments():
    assert list(bench_snapshot.parse_seeds("1-5")) == [1, 2, 3, 4, 5]
    assert list(bench_snapshot.parse_seeds("2")) == [2]
    for text in ("3-1", "", "1-", "-2", "x"):
        with pytest.raises(argparse.ArgumentTypeError, match="a range such as 1-3"):
            bench_snapshot.parse_seeds(text)
    # a reversed range ran no seed and died in summarize
    with pytest.raises(SystemExit) as usage:
        bench_snapshot.main(["--checkout", "change=.", "--seeds", "3-1"])
    assert usage.value.code == 2
    assert bench_snapshot.parse_checkout("parent=../p") == ("parent", Path("../p"))
    with pytest.raises(Exception, match="label=path"):
        bench_snapshot.parse_checkout("../p")


def test_every_run_takes_the_benchmarks_own_length(monkeypatch, tmp_path):
    spec = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    asked = []

    def run_once(checkout, workload, seed, seconds):
        asked.append((workload, seed, seconds))
        return bench_snapshot.read_run(_run_output(seed, 400.0, 4.0))

    monkeypatch.setattr(bench_snapshot, "run_once", run_once)
    out = tmp_path / "snapshot.json"
    assert bench_snapshot.main(["--checkout", "change=.", "--seeds", "2", "--out", str(out)]) == 0
    workloads = [w["name"] for w in spec["workloads"]]
    assert asked == [(w, 2, spec["run_seconds"]) for w in workloads]
    snapshot = json.loads(out.read_text())["change"]
    assert snapshot["command"] == f"bench/run.py --seconds {spec['run_seconds']:g} --trace 0"
    assert list(snapshot["workloads"]) == workloads


def test_each_checkout_is_byte_compiled_once_before_its_runs(monkeypatch, tmp_path):
    events = []

    def compile_dir(path, quiet=0):
        events.append(("compile", Path(path)))
        return True

    def run(cmd, cwd, **kwargs):
        events.append(("run", Path(cwd)))
        seed = int(cmd[cmd.index("--seed") + 1])
        return subprocess.CompletedProcess(cmd, 0, _run_output(seed, 400.0, 4.0), "")

    compileall = types.SimpleNamespace(compile_dir=compile_dir)
    monkeypatch.setattr(bench_snapshot, "compileall", compileall)
    monkeypatch.setattr(bench_snapshot.subprocess, "run", run)
    parent, change = tmp_path / "parent", tmp_path / "change"
    argv = ["--checkout", f"parent={parent}", "--checkout", f"change={change}", "--seeds", "1-2",
            "--out", str(tmp_path / "snapshot.json")]
    assert bench_snapshot.main(argv) == 0
    compiled = [path for kind, path in events if kind == "compile"]
    assert compiled == [parent / "src", change / "src"]
    workloads = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())["workloads"]
    for checkout in (parent, change):
        runs = [i for i, event in enumerate(events) if event == ("run", checkout)]
        assert len(runs) == 2 * len(workloads)
        assert events.index(("compile", checkout / "src")) < runs[0]
