import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_growth_seed_against_the_same_checkout_twice():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_timing.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--workload", "growth", "--seeds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    (seed,) = json.loads(done.stdout.splitlines()[-1])["seeds"]
    assert seed["commands"] > 0 and seed["exit_mismatches"] == 0
    assert math.isfinite(seed["throughput_ratio"]) and seed["throughput_ratio"] > 0
    assert all(math.isfinite(v) for v in (*seed["p50_ms"].values(), *seed["p93_ms"].values()))
    faults = seed["minor_faults_per_command"].values()
    assert all(isinstance(v, int) and v >= 0 for v in faults)
    peak_rss = seed["peak_rss_mb"].values()
    assert all(isinstance(v, float) and 0 < v < math.inf for v in peak_rss)
    assert "peak RSS" in done.stdout.splitlines()[0]
