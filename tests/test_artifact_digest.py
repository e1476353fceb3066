import argparse
import contextlib
import importlib.util
import io
import json
import math
import shlex
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifact_digest.py"
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


def test_seed_ranges(capsys):
    assert list(artifact_digest.parse_seeds("1-3")) == [1, 2, 3]
    assert list(artifact_digest.parse_seeds("4")) == [4]
    for text in ("3-1", "", "1-", "-2", "x"):
        with pytest.raises(argparse.ArgumentTypeError, match="a range such as 1-3"):
            artifact_digest.parse_seeds(text)
    # a reversed range digested no stream, and two checkouts compared equal
    with pytest.raises(SystemExit) as usage:
        artifact_digest.main(["--seeds", "3-1", "--cycles", "1"])
    assert usage.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --seeds: expected a seed or a range such as 1-3" in err


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


def test_a_checkout_against_itself_differs_nowhere(capsys):
    assert artifact_digest.main(["--seeds", "1", "--cycles", "1", "--against", str(ROOT)]) == 0
    out = capsys.readouterr().out
    for workload in ("states", "moments", "growth"):
        assert (f"  against {ROOT}: 0 commands differ in exit code or stderr; "
                "artifact fields that differ (commands): none") in out
    assert "exit code or stderr differ:" not in out


def test_a_changed_field_exit_code_or_stderr_is_named(monkeypatch):
    # the first command gains a field, the second exits 3, the third writes to stderr
    real, calls, rho_hat = artifact_digest.CLI_MAIN, [], []

    def changed(argv):
        calls.append(argv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = real(argv)
        payload = json.loads(out.getvalue())
        if len(calls) == 1:
            rho_hat.append(payload["rho_hat"])
            payload["rho_hat"] += 1.0
        print(json.dumps(payload, indent=2))
        if len(calls) == 3:
            print("a note", file=sys.stderr)
        return 3 if len(calls) == 2 else code

    monkeypatch.setattr(artifact_digest, "CLI_MAIN", changed)
    differ, fields, moves = artifact_digest.compare(ROOT, "growth", 1, cycles=1)
    assert differ == [shlex.join(calls[1]), shlex.join(calls[2])]
    assert fields == {"rho_hat": 1}
    assert moves == {"rho_hat": 1.0 / max(abs(rho_hat[0]), abs(rho_hat[0] + 1.0))}


@pytest.mark.parametrize("mine, theirs, move", [
    (2.0, 2.0, 0.0),
    (2.0, 2.5, 0.2),
    (-4, 2, 1.5),
    ([1.0, 8.0, 0.0], [1.0, 10.0, 0.0], 0.2),
    ([], [], 0.0),
    ([{"re": 3.0, "im": 4.0}], [{"re": 3.0, "im": 5.0}], 1.0 / math.sqrt(34.0)),
    ([[1.0], [4.0]], [[1.0], [5.0]], 0.2),
    ([1.0, 2.0], [1.0], None),
    ([1.0, "x"], [1.0, "y"], None),
    (1.0, None, None),
    (True, False, None),
    ({"re": 1.0, "im": None}, {"re": 1.0, "im": 2.0}, None),
    ({"re": 1.0, "im": 2.0, "x": 0}, {"re": 1.0, "im": 2.0, "x": 1}, None),
    ("a", "b", None),
])
def test_relative_move_of_numbers_arrays_and_complex_entries(mine, theirs, move):
    assert artifact_digest.relative_move(mine, theirs) == pytest.approx(move, rel=1e-15)
    assert artifact_digest.relative_move(theirs, mine) == pytest.approx(move, rel=1e-15)


def test_a_moved_numeric_field_prints_its_largest_relative_move(monkeypatch, capsys):
    # norm_hypergeometric moves by 1e-13 relative in one cs-bg command,
    # and kind changes in another: only the numeric field gets a figure
    real, calls = artifact_digest.CLI_MAIN, []

    def changed(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = real(argv)
        text = out.getvalue()
        payload = json.loads(text) if text.startswith("{") else None
        if payload and isinstance(payload.get("norm_hypergeometric"), float):
            calls.append(argv)
            if len(calls) == 1:
                payload["norm_hypergeometric"] *= 1.0 + 1e-13
            elif len(calls) == 2:
                payload["kind"] = "other"
            text = json.dumps(payload)
        sys.stdout.write(text)
        return code

    monkeypatch.setattr(artifact_digest, "CLI_MAIN", changed)
    differ, fields, moves = artifact_digest.compare(ROOT, "states", 1, cycles=1)
    assert len(calls) >= 2 and differ == []
    assert fields == {"kind": 1, "norm_hypergeometric": 1}
    assert moves["kind"] is None
    assert moves["norm_hypergeometric"] == pytest.approx(1e-13, rel=1e-3)
