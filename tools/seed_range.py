"""The --seeds argument shared by the benchmark tools in this directory."""

from __future__ import annotations

import argparse


def parse_seeds(text: str) -> range:
    """'1-3' or '2' as the range of seeds it names.  Anything else, an empty
    or reversed range such as '3-1' included, is an `ArgumentTypeError`:
    argparse reports it as a usage error and exits 2, where an empty range
    would run no seed and exit 0."""
    lo, sep, hi = text.partition("-")
    try:
        seeds = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        seeds = range(0)
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected a seed or a range such as 1-3, got {text!r}")
    return seeds
