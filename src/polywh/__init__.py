"""Polynomial ladder algebras, their coherent states, and diagnostics.

The structure function F(n) = n * prod_i (1 + kappa_i (n-1)) drives
everything: ladder operators and their truncations (`algebra`), the two
coherent-state families and their existence domains (`coherent`), the
nilpotent-variable eigenstates of the finite case (`grassmann`), discrete
measures resolving the identity (`measure`), and order/type growth of the
attached entire functions (`bargmann`).  `cli` exposes it all with
deterministic JSON/CSV output.
"""

from .algebra import (
    AlgebraParams,
    LadderRep,
    RepDimension,
    build_rep,
    build_truncated_rep,
    classify,
    commutator_gap,
    generalized_factorial,
    reciprocal_ells,
    structure_function,
)
from .bargmann import (
    EntireSeries,
    GrowthEstimate,
    bargmann_eval,
    closed_form_growth,
    estimate_growth,
    schwarz_check,
)
from .coherent import (
    CoherentState,
    CutoffMeta,
    StateKind,
    bg_normalization,
    bg_state,
    check_bg_eigen,
    hyper_0f,
    overlap,
    perelomov_state,
    perelomov_via_exponential,
    time_evolve,
)
from .errors import DomainError
from .grassmann import (
    GrassmannElement,
    GrassmannState,
    bg_grassmann_state,
    check_bg_grassmann_eigen,
    complex_z_bg_residual,
)
from .measure import (
    DiscreteMeasure,
    MomentSequence,
    hankel_minors,
    moments_for,
    solve_measure,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraParams",
    "RepDimension",
    "LadderRep",
    "DomainError",
    "structure_function",
    "commutator_gap",
    "classify",
    "generalized_factorial",
    "build_rep",
    "build_truncated_rep",
    "reciprocal_ells",
    "StateKind",
    "CutoffMeta",
    "CoherentState",
    "perelomov_state",
    "perelomov_via_exponential",
    "bg_state",
    "check_bg_eigen",
    "time_evolve",
    "overlap",
    "hyper_0f",
    "bg_normalization",
    "GrassmannElement",
    "GrassmannState",
    "bg_grassmann_state",
    "check_bg_grassmann_eigen",
    "complex_z_bg_residual",
    "MomentSequence",
    "DiscreteMeasure",
    "moments_for",
    "solve_measure",
    "verify_identity",
    "hankel_minors",
    "EntireSeries",
    "GrowthEstimate",
    "bargmann_eval",
    "schwarz_check",
    "estimate_growth",
    "closed_form_growth",
]
