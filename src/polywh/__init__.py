"""Polynomial ladder algebras, their coherent states, and diagnostics.

``import polywh`` loads no submodule: each name of ``__all__`` is imported
from its home module on first access (PEP 562).  Most of the package needs
numpy, while the command line's help, usage errors and `spectrum` do not,
and ``python -m polywh`` imports this package first: an eager import here
would load numpy for every command.
"""

from importlib import import_module as _import_module

_HOMES = {
    "algebra": ("AlgebraParams", "RepDimension", "LadderRep", "structure_function",
                "commutator_gap", "classify", "generalized_factorial", "build_rep",
                "build_truncated_rep", "reciprocal_ells"),
    "errors": ("DomainError",),
    "coherent": ("StateKind", "CutoffMeta", "CoherentState", "perelomov_state",
                 "perelomov_via_exponential", "bg_state", "check_bg_eigen", "time_evolve",
                 "overlap", "hyper_0f", "bg_normalization"),
    "grassmann": ("GrassmannElement", "GrassmannState", "bg_grassmann_state",
                  "check_bg_grassmann_eigen", "complex_z_bg_residual"),
    "measure": ("MomentSequence", "DiscreteMeasure", "moments_for", "solve_measure",
                "verify_identity", "hankel_minors"),
    "bargmann": ("EntireSeries", "GrowthEstimate", "bargmann_eval", "schwarz_check",
                 "estimate_growth", "closed_form_growth"),
}
_SUBMODULES = (*_HOMES, "cli", "defaults")
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = [name for names in _HOMES.values() for name in names]


def __getattr__(name: str):
    """A name of ``__all__`` from its home module, or a submodule, imported
    on first access and then bound here."""
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
