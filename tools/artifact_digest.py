"""Digest of every artifact the benchmark command streams produce.

    python3 tools/artifact_digest.py --seeds 1-3 --cycles 6

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

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import shlex  # noqa: E402
import warnings  # noqa: E402

import run  # noqa: E402
import streams  # noqa: E402

CLI_MAIN = run.import_program()


def digest(workload: str, seed: int,
           cycles: int) -> tuple[int, dict[int | None, int], str, str | None]:
    """(command count, exit-code counts, sha256, first fault) of the first
    `cycles` cycles of one stream; the first fault names the first command
    that raised or emitted a RuntimeWarning, with the exception or the
    warning, else it is None."""
    h = hashlib.sha256()
    codes: collections.Counter = collections.Counter()
    fault = None
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
            codes[code] += 1
            if fault is None and code is None:
                fault = (f"a command raised out of polywh.cli.main: {shlex.join(argv)}: "
                         f"{err.splitlines()[-1]}")
            elif fault is None and runtime:
                fault = f"a command emitted a RuntimeWarning: {shlex.join(argv)}: {runtime[0]}"
            h.update(json.dumps([argv, code, out, err]).encode())
            h.update(b"\n")
    return sum(codes.values()), dict(sorted(codes.items(), key=str)), h.hexdigest(), fault


def parse_seeds(text: str) -> range:
    """'1-3' or '2'."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=range(1, 2), help="e.g. 1-3")
    parser.add_argument("--cycles", type=int, default=6, help="cycles per workload and seed")
    args = parser.parse_args(argv)
    first_fault = None
    for workload in streams.WORKLOADS:
        for seed in args.seeds:
            count, codes, hexdigest, fault = digest(workload, seed, args.cycles)
            exits = " ".join(f"{code}:{n}" for code, n in codes.items())
            print(f"{workload} seed {seed}: {count} commands, exits {exits}, sha256 {hexdigest}")
            first_fault = first_fault or fault
    if first_fault:
        print(f"error: {first_fault}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
