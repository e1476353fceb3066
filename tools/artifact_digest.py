"""Digest of every artifact the benchmark command streams produce.

    python3 tools/artifact_digest.py --seeds 1-3 --cycles 6

Runs the first --cycles cycles of each workload's stream (`bench/streams.py`)
through `polywh.cli.main` in-process, the way `bench/run.py` does, and
prints one line per workload and seed: the command count, the exit-code
counts and one sha256 over every (argv, exit code, stdout, stderr).  Equal
digests on two checkouts mean byte-identical exit codes, artifacts and
messages.  A command that raises out of `main` counts as exit code None;
the first such command is named on stderr and the tool exits 1.  The program is imported from `src/` of the checkout this file
sits in; nothing under `bench/` is written.
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
    """(command count, exit-code counts, sha256, first crash) of the first
    `cycles` cycles of one stream; the first crash is the command line and
    the exception of the first command that raised, else None."""
    h = hashlib.sha256()
    codes: collections.Counter = collections.Counter()
    crash = None
    # every warning is shown, so stderr does not depend on what ran before
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        for argv in itertools.chain(*itertools.islice(streams.cycles(workload, seed), cycles)):
            code, out, err, _, _ = run.execute(CLI_MAIN, argv)
            codes[code] += 1
            if code is None and crash is None:
                crash = f"{shlex.join(argv)}: {err.splitlines()[-1]}"
            h.update(json.dumps([argv, code, out, err]).encode())
            h.update(b"\n")
    return sum(codes.values()), dict(sorted(codes.items(), key=str)), h.hexdigest(), crash


def parse_seeds(text: str) -> range:
    """'1-3' or '2'."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=range(1, 2), help="e.g. 1-3")
    parser.add_argument("--cycles", type=int, default=6, help="cycles per workload and seed")
    args = parser.parse_args(argv)
    first_crash = None
    for workload in streams.WORKLOADS:
        for seed in args.seeds:
            count, codes, hexdigest, crash = digest(workload, seed, args.cycles)
            exits = " ".join(f"{code}:{n}" for code, n in codes.items())
            print(f"{workload} seed {seed}: {count} commands, exits {exits}, sha256 {hexdigest}")
            first_crash = first_crash or crash
    if first_crash:
        print(f"error: a command raised out of polywh.cli.main: {first_crash}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
