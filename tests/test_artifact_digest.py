import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
_spec = importlib.util.spec_from_file_location("artifact_digest", TOOL)
artifact_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digest)


@pytest.mark.parametrize("workload", ["states", "moments", "growth"])
def test_one_cycle_digests_the_same_twice(workload):
    first = artifact_digest.digest(workload, 1, cycles=1)
    count, codes, _ = first
    assert count == sum(codes.values()) > 0
    assert None not in codes  # no command crashed
    assert artifact_digest.digest(workload, 1, cycles=1) == first


def test_seed_ranges():
    assert list(artifact_digest.parse_seeds("1-3")) == [1, 2, 3]
    assert list(artifact_digest.parse_seeds("4")) == [4]
