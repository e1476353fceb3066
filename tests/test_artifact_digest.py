import importlib.util
import shlex
import warnings
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
_spec = importlib.util.spec_from_file_location("artifact_digest", TOOL)
artifact_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digest)


@pytest.mark.parametrize("workload", ["states", "moments", "growth"])
def test_one_cycle_digests_the_same_twice(workload):
    first = artifact_digest.digest(workload, 1, cycles=1)
    count, codes, _, fault = first
    assert count == sum(codes.values()) > 0
    assert None not in codes and fault is None  # no command crashed or warned
    assert artifact_digest.digest(workload, 1, cycles=1) == first


def test_seed_ranges():
    assert list(artifact_digest.parse_seeds("1-3")) == [1, 2, 3]
    assert list(artifact_digest.parse_seeds("4")) == [4]


def test_a_crash_fails_the_run_and_names_the_first_crashing_command(monkeypatch, capsys):
    calls = []

    def crashes_on_calls_3_and_5(argv):
        calls.append(argv)
        if len(calls) in (3, 5):
            raise RuntimeError(f"boom {len(calls)}")
        return 0

    monkeypatch.setattr(artifact_digest, "CLI_MAIN", crashes_on_calls_3_and_5)
    assert artifact_digest.main(["--seeds", "1", "--cycles", "1"]) == 1
    out, err = capsys.readouterr()
    assert "exits 0:" in out and " None:2," in out
    assert err == (f"error: a command raised out of polywh.cli.main: {shlex.join(calls[2])}: "
                   "crash: RuntimeError('boom 3')\n")


def test_a_runtime_warning_fails_the_run_and_names_the_first_warning_command(monkeypatch,
                                                                              capsys):
    calls = []

    def warns_on_calls_2_and_4(argv):
        calls.append(argv)
        if len(calls) in (2, 4):
            warnings.warn(f"overflow {len(calls)}", RuntimeWarning)
        if len(calls) == 1:
            warnings.warn("not a fault", UserWarning)
        return 0

    monkeypatch.setattr(artifact_digest, "CLI_MAIN", warns_on_calls_2_and_4)
    assert artifact_digest.main(["--seeds", "1", "--cycles", "1"]) == 1
    out, err = capsys.readouterr()
    assert "exits 0:" in out and "None" not in out
    assert err == (f"error: a command emitted a RuntimeWarning: {shlex.join(calls[1])}: "
                   "overflow 2\n")
