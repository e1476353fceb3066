"""Defaults that the command-line parser names in its help text.

A module of the standard library alone: `cli.build_parser` reads it at
import, and building the parser loads no numpy.  `coherent` takes its
default tail tolerance from here.
"""

DEFAULT_TAIL_TOL = 1e-14
