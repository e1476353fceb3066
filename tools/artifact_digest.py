"""Digest of every artifact the benchmark command streams produce.

    python3 tools/artifact_digest.py --seeds 1-3 --cycles 6 [--against ROOT]

Runs the first --cycles cycles of each workload's stream (`bench/streams.py`)
through `polywh.cli.main` in-process, the way `bench/run.py` does, and
prints one line per workload and seed: the command count, the exit-code
counts and one sha256 over every (argv, exit code, stdout, stderr).  Equal
digests on two checkouts mean byte-identical exit codes, artifacts and
messages.  A command that raises out of `main` counts as exit code None.
The first command that raises, or that emits a RuntimeWarning (shown on its
stderr as before), is named on stderr and the tool exits 1.  The program is
imported from `src/` of the checkout this file sits in; nothing under
`bench/` is written.

With --against ROOT the same commands also run in a subprocess on the
program, streams and runner of the checkout at ROOT, and under each digest
line the tool names every command whose exit code or stderr differs
between the two and counts, per top-level field of the JSON artifacts, the
commands whose field differs (as parsed JSON: present on one side only, or
unequal).  Where every such difference of a field is one of numbers (two
numbers, or two arrays of as many numbers or {re, im} objects), it also
prints the field's largest relative move over those commands, |a - b| /
max(|a|, |b|) taken entry by entry, so that a change can bound how far a
field moved.  A difference is reported, not a fault: it leaves the exit
code as it is.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if __name__ == "__main__":  # before numpy loads, as in bench/run.py
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS"), "1"))
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "tools"))  # seed_range, also where loaded by path

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import shlex  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402

import run  # noqa: E402
import streams  # noqa: E402
from seed_range import parse_seeds  # noqa: E402

CLI_MAIN = run.import_program()

# run by --against in a subprocess: one JSON line [argv, exit code, stdout,
# stderr] per command, from the bench/ and src/ of the checkout at argv[1]
_WORKER = """
import itertools, json, sys, warnings
root, workload, seed, cycles = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path.insert(0, root + "/bench")
import run, streams
main = run.import_program()
warnings.simplefilter("always")
for argv in itertools.chain(*itertools.islice(streams.cycles(workload, seed), cycles)):
    code, out, err, _, _ = run.execute(main, argv)
    print(json.dumps([argv, code, out, err]), flush=True)
"""


def outcomes(workload: str, seed: int, cycles: int):
    """(argv, exit code, stdout, stderr, RuntimeWarning messages) of each
    command of the first `cycles` cycles of one stream, run in-process."""
    # every warning is shown, so stderr does not depend on what ran before
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        show, runtime = warnings.showwarning, []

        def show_and_note(message, category, *args, **kwargs):
            if issubclass(category, RuntimeWarning):
                runtime.append(message)
            show(message, category, *args, **kwargs)

        warnings.showwarning = show_and_note
        for argv in itertools.chain(*itertools.islice(streams.cycles(workload, seed), cycles)):
            runtime.clear()
            code, out, err, _, _ = run.execute(CLI_MAIN, argv)
            yield argv, code, out, err, list(runtime)


def digest(workload: str, seed: int,
           cycles: int) -> tuple[int, dict[int | None, int], str, str | None]:
    """(command count, exit-code counts, sha256, first fault) of the first
    `cycles` cycles of one stream; the first fault names the first command
    that raised or emitted a RuntimeWarning, with the exception or the
    warning, else it is None."""
    h = hashlib.sha256()
    codes: collections.Counter = collections.Counter()
    fault = None
    for argv, code, out, err, runtime in outcomes(workload, seed, cycles):
        codes[code] += 1
        if fault is None and code is None:
            fault = (f"a command raised out of polywh.cli.main: {shlex.join(argv)}: "
                     f"{err.splitlines()[-1]}")
        elif fault is None and runtime:
            fault = f"a command emitted a RuntimeWarning: {shlex.join(argv)}: {runtime[0]}"
        h.update(json.dumps([argv, code, out, err]).encode())
        h.update(b"\n")
    return sum(codes.values()), dict(sorted(codes.items(), key=str)), h.hexdigest(), fault


def _fields(out: str) -> dict:
    """The top-level fields of a JSON-object artifact; any other stdout is
    one field, "(stdout)"."""
    try:
        payload = json.loads(out)
    except ValueError:
        payload = None
    return payload if isinstance(payload, dict) else {"(stdout)": out} if out else {}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def relative_move(mine, theirs) -> float | None:
    """The largest |a - b| / max(|a|, |b|) (0 where a == b) between two
    parsed JSON values that hold numbers: two numbers, two {re, im} objects
    of numbers, or two arrays of as many such values; None for any other
    pair."""
    if isinstance(mine, list) and isinstance(theirs, list):
        moves = [relative_move(a, b) for a, b in zip(mine, theirs)]
        return None if len(mine) != len(theirs) or None in moves else max(moves, default=0.0)
    if all(isinstance(v, dict) and v.keys() == {"re", "im"} and all(map(_number, v.values()))
           for v in (mine, theirs)):
        mine, theirs = complex(mine["re"], mine["im"]), complex(theirs["re"], theirs["im"])
    elif not (_number(mine) and _number(theirs)):
        return None
    return 0.0 if mine == theirs else abs(mine - theirs) / max(abs(mine), abs(theirs))


def compare(root: Path, workload: str, seed: int,
            cycles: int) -> tuple[list[str], dict[str, int], dict[str, float | None]]:
    """(the commands whose exit code or stderr differ, {field: count of
    the commands whose artifact field differs}, {field: its largest
    `relative_move` over those commands, None where one of them is not a
    move of numbers}) between this checkout and the one at root, over the
    first `cycles` cycles of one stream.  Streams that differ between the
    two checkouts are a RuntimeError."""
    worker = [sys.executable, "-c", _WORKER, str(root), workload, str(seed), str(cycles)]
    differ, fields, moves = [], collections.Counter(), {}
    with subprocess.Popen(worker, stdout=subprocess.PIPE, text=True) as theirs:
        for ours, line in itertools.zip_longest(outcomes(workload, seed, cycles), theirs.stdout):
            their = None if line is None else json.loads(line)
            if ours is None or their is None or their[0] != ours[0]:
                theirs.kill()
                raise RuntimeError(f"the {workload} stream of seed {seed} differs at {root}")
            argv, code, out, err, _ = ours
            _, their_code, their_out, their_err = their
            if (code, err) != (their_code, their_err):
                differ.append(shlex.join(argv))
            mine, other = _fields(out), _fields(their_out)
            for key in mine.keys() | other.keys():
                if key not in mine or key not in other or mine[key] != other[key]:
                    fields[key] += 1
                    move, largest = relative_move(mine.get(key), other.get(key)), moves.get(key, 0)
                    moves[key] = None if None in (move, largest) else max(move, largest)
    if theirs.returncode:
        raise RuntimeError(f"the worker at {root} exited with code {theirs.returncode}")
    return differ, dict(sorted(fields.items())), moves


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=range(1, 2), help="e.g. 1-3")
    parser.add_argument("--cycles", type=int, default=6, help="cycles per workload and seed")
    parser.add_argument("--against", type=Path, metavar="ROOT",
                        help="a checkout whose commands and artifact fields to compare with")
    args = parser.parse_args(argv)
    first_fault = None
    for workload in streams.WORKLOADS:
        for seed in args.seeds:
            count, codes, hexdigest, fault = digest(workload, seed, args.cycles)
            exits = " ".join(f"{code}:{n}" for code, n in codes.items())
            print(f"{workload} seed {seed}: {count} commands, exits {exits}, sha256 {hexdigest}")
            if args.against is not None:
                differ, fields, moves = compare(args.against, workload, seed, args.cycles)
                for command in differ:
                    print(f"  exit code or stderr differ: {command}")
                counts = ", ".join(
                    f"{key} {n}" + ("" if moves[key] is None
                                    else f" (largest relative move {moves[key]:.3g})")
                    for key, n in fields.items()) or "none"
                print(f"  against {args.against}: {len(differ)} commands differ in exit code "
                      f"or stderr; artifact fields that differ (commands): {counts}")
            first_fault = first_fault or fault
    if first_fault:
        print(f"error: {first_fault}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
