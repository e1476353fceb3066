"""Defaults shared by `coherent` and the command-line parser, in a module
of the standard library alone, so that building the parser loads no numpy.
"""

DEFAULT_TAIL_TOL = 1e-14
