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


def _summary(**values):
    """A `summarize` result of one workload, "growth", from per-seed values."""
    runs = [{"correct": True, "provenance": {"seed": seed}, "metrics": {
        name: {"value": series[seed - 1], "unit": "u"} for name, series in values.items()}}
        for seed in range(1, len(next(iter(values.values()))) + 1)]
    return {"workloads": {"growth": bench_snapshot.summarize(runs)}}


_END_TO_END = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
               {"name": "throughput_cmds_per_s", "better": "higher", "bound": 0.25},
               {"name": "setup_s", "better": "lower", "bound": 0.25}]


def test_verdicts_count_pairs_and_compare_the_gap_with_the_spread():
    parent = _summary(peak_rss_mb=[38.6, 39.0, 38.6, 39.0, 38.6, 38.7, 38.8, 38.9, 38.6, 38.7],
                      throughput_cmds_per_s=[1000.0, 1100.0, 900.0, 1000.0, 1050.0] * 2,
                      setup_s=[0.10, 0.12, 0.10, 0.11, 0.09] * 2)
    change = _summary(peak_rss_mb=[37.3, 37.2, 37.2, 37.2, 37.3, 37.2, 37.2, 37.3, 37.2, 38.7],
                      throughput_cmds_per_s=[1010.0, 1090.0, 905.0, 1000.0, 1060.0] * 2,
                      setup_s=[0.15, 0.16, 0.14, 0.15, 0.15] * 2)
    verdict = bench_snapshot.verdicts(parent, change, _END_TO_END)["growth"]
    rss = verdict["peak_rss_mb"]
    # nine wins and one tie in ten pairs; the gap of 1.5 MB beats the 0.325 MB spread
    assert (rss["pairs"], rss["wins"], rss["ties"]) == (10, 9, 1)
    assert rss["median_gap"] == pytest.approx(38.7 - 37.2)
    assert rss["parent_spread"] == pytest.approx(38.925 - 38.6)
    assert rss["claimable"] is True and rss["within_bound"] is True
    # six wins of ten, and a median gap of 10/s inside a spread of 87.5/s
    throughput = verdict["throughput_cmds_per_s"]
    assert (throughput["wins"], throughput["ties"], throughput["median_gap"]) == (6, 2, 10.0)
    assert throughput["parent_spread"] == 1062.5 - 975.0
    assert throughput["claimable"] is False and throughput["within_bound"] is True
    # 0.10 -> 0.15 s is 50% worse, past the 25% bound
    setup = verdict["setup_s"]
    assert setup["wins"] == 0 and setup["median_gap"] == pytest.approx(-0.05)
    assert setup["claimable"] is False and setup["within_bound"] is False


def test_a_metric_that_only_ties_is_not_claimable_and_one_absent_is_skipped():
    parent = _summary(peak_rss_mb=[38.0] * 10)
    verdict = bench_snapshot.verdicts(parent, _summary(peak_rss_mb=[38.0] * 10), _END_TO_END)
    assert list(verdict["growth"]) == ["peak_rss_mb"]
    rss = verdict["growth"]["peak_rss_mb"]
    assert (rss["wins"], rss["ties"], rss["median_gap"], rss["parent_spread"]) == (0, 10, 0.0, 0.0)
    assert rss["claimable"] is False and rss["within_bound"] is True


def test_checkouts_alternate_which_runs_first_and_the_change_is_judged(monkeypatch, tmp_path):
    order = []

    def run_once(checkout, workload, seed, seconds):
        order.append((workload, seed, checkout.name))
        throughput = 500.0 if checkout.name == "change" else 400.0 + seed
        return bench_snapshot.read_run(_run_output(seed, throughput, 4.0))

    monkeypatch.setattr(bench_snapshot, "run_once", run_once)
    monkeypatch.setattr(bench_snapshot, "compileall",
                        types.SimpleNamespace(compile_dir=lambda path, quiet=0: True))
    out = tmp_path / "snapshot.json"
    argv = ["--checkout", f"parent={tmp_path / 'parent'}", "--checkout",
            f"change={tmp_path / 'change'}", "--seeds", "1-4", "--out", str(out)]
    assert bench_snapshot.main(argv) == 0
    first = [name for i, (_, _, name) in enumerate(order) if i % 2 == 0]
    workloads = [w["name"] for w in json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
                 ["workloads"]]
    assert first == ["parent", "change", "parent", "change"] * len(workloads)
    snapshot = json.loads(out.read_text())
    assert (snapshot["verdicts"]["parent"], snapshot["verdicts"]["change"]) == ("parent", "change")
    throughput = snapshot["verdicts"]["workloads"][workloads[0]]["throughput_cmds_per_s"]
    assert (throughput["pairs"], throughput["wins"], throughput["claimable"]) == (4, 4, True)
    alone = tmp_path / "alone.json"
    argv = ["--checkout", f"change={tmp_path / 'change'}", "--seeds", "1", "--out", str(alone)]
    assert bench_snapshot.main(argv) == 0
    assert "verdicts" not in json.loads(alone.read_text())
    with pytest.raises(SystemExit) as usage:
        bench_snapshot.main(["--checkout", "a=.", "--checkout", "a=..", "--seeds", "1"])
    assert usage.value.code == 2
