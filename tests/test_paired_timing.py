import json
import math
import os
import shutil
import subprocess
import sys
import time
from importlib.util import cache_from_source
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "paired_timing.py"
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402


def paired(parent, change, env=None):
    """The one seed of a growth seed 1 run of the tool, and its first line."""
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
         "--workload", "growth", "--seeds", "1"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert done.returncode == 0, done.stderr
    (seed,) = json.loads(done.stdout.splitlines()[-1])["seeds"]
    return seed, done.stdout.splitlines()[0]


def test_one_growth_seed_against_the_same_checkout_twice():
    seed, line = paired(ROOT, ROOT)
    assert seed["commands"] > 0 and seed["exit_mismatches"] == 0
    for ratio in ("throughput_ratio", "first_run_throughput_ratio"):
        assert math.isfinite(seed[ratio]) and seed[ratio] > 0
    assert seed["tail_percentile"] == run.tail_percentile(seed["commands"]) == 92.0
    assert all(math.isfinite(v) for v in (*seed["p50_ms"].values(), *seed["tail_ms"].values()))
    assert seed["tail_ms"]["parent"] >= seed["p50_ms"]["parent"]
    faults = seed["minor_faults_per_command"].values()
    assert all(isinstance(v, int) and v >= 0 for v in faults)
    peak_rss = seed["peak_rss_mb"].values()
    assert all(isinstance(v, float) and 0 < v < math.inf for v in peak_rss)
    assert "peak RSS" in line and " p92 " in line and "p93" not in line
    assert f"throughput ratio {seed['throughput_ratio']:.3f} " in line
    assert f"(first run {seed['first_run_throughput_ratio']:.3f})" in line
    ratios = seed["subcommand_time_ratio"]
    assert list(ratios) == ["bargmann-growth", "schwarz"]  # the growth stream's, sorted
    assert all(math.isfinite(r) and r > 0 for r in ratios.values())
    assert line.endswith("time change/parent by subcommand "
                         + ", ".join(f"{name} {r:.3f}" for name, r in ratios.items()))


def test_a_stale_bytecode_cache_does_not_bias_the_peak_rss(tmp_path):
    # two copies of src/ with fresh caches, one source then touched: without
    # a compile before the run, that side's worker compiles the module on
    # every start under PYTHONDONTWRITEBYTECODE, which raises its peak RSS
    roots = [tmp_path / "parent", tmp_path / "change"]
    for root in roots:
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")], check=True)
    touched = roots[1] / "src" / "polywh" / "coherent.py"
    later = time.time() + 60
    os.utime(touched, (later, later))
    seed, _ = paired(*roots, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert seed["exit_mismatches"] == 0
    header = Path(cache_from_source(touched)).read_bytes()[8:12]  # the source's mtime
    assert int.from_bytes(header, "little") == int(later)
    assert abs(seed["peak_rss_mb"]["change"] - seed["peak_rss_mb"]["parent"]) < 0.4


def test_a_reversed_seed_range_is_a_usage_error():
    # it compared no seed, printed "seeds": [] and exited 0
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(ROOT), "--change", str(ROOT),
         "--seeds", "3-1"],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert "argument --seeds: expected a seed or a range such as 1-3, got '3-1'" in done.stderr
