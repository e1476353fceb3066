import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cold_start.py"
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402


def test_two_pairs_of_this_checkout_against_itself():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(ROOT), "--change", str(ROOT), "--pairs", "2"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["pairs"] == 2 and len(lines) == 1 + len(result["commands"])
    assert [c["argv"] for c in result["commands"]] == [["--help"], *run.WARMUP]
    for command in result["commands"]:
        for side in ("parent", "change"):
            times = command[side]
            assert 0 < times["q1_ms"] <= times["median_ms"] <= times["q3_ms"] < math.inf
            assert times["exit_codes"] == [0]
            numpy_free = command["argv"][0] in ("--help", "spectrum")
            assert times["numpy"] is not numpy_free
            if numpy_free:
                assert times["dataclasses"] is False
        assert 0 < command["ratio"] < math.inf and 0 <= command["change_faster"] <= 2
    assert lines[0].startswith("--help: parent ")
    assert "(numpy no, dataclasses no, exit 0)" in lines[0]
    assert lines[0].endswith("/2 pairs")
