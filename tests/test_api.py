import enum
import inspect

import polywh
from polywh import DomainError, StateKind

# the public API: each exported function's and dataclass's signature, the
# dataclasses' fields and defaults included
SIGNATURES = {
    "AlgebraParams": "(kappas: 'tuple[Fraction, ...]', phi: 'float' = 0.0) -> None",
    "RepDimension": "(d: 'int | None') -> None",
    "LadderRep": (
        "(params: 'AlgebraParams', dim_window: 'int', band: 'np.ndarray', "
        "truncation_order: 'int | None' = None) -> None"),
    "structure_function": "(params: 'AlgebraParams', n: 'int') -> 'Fraction'",
    "commutator_gap": "(params: 'AlgebraParams', n: 'int') -> 'Fraction'",
    "classify": "(params: 'AlgebraParams') -> 'RepDimension'",
    "generalized_factorial": "(params: 'AlgebraParams', n: 'int') -> 'Fraction'",
    "build_rep": "(params: 'AlgebraParams', window: 'int | None' = None) -> 'LadderRep'",
    "build_truncated_rep": "(params: 'AlgebraParams', window: 'int', s: 'int') -> 'LadderRep'",
    "reciprocal_ells": "(params: 'AlgebraParams') -> 'tuple[int, ...]'",
    "CutoffMeta": (
        "(exact: 'bool', n_terms: 'int', tail_bound: 'float' = 0.0, "
        "tail_tol: 'float' = 0.0) -> None"),
    "CoherentState": (
        "(kind: 'StateKind', params: 'AlgebraParams', z: 'complex', coeffs: 'np.ndarray', "
        "normalized: 'bool', cutoff_meta: 'CutoffMeta') -> None"),
    "perelomov_state": (
        "(params: 'AlgebraParams', z, *, normalize: 'bool' = False, tail_tol: 'float' = 1e-14, "
        "max_terms: 'int' = 200000) -> 'CoherentState'"),
    "perelomov_via_exponential": (
        "(params: 'AlgebraParams', z, rep: 'LadderRep', *, "
        "normalize: 'bool' = False) -> 'CoherentState'"),
    "bg_state": (
        "(params: 'AlgebraParams', z, *, normalize: 'bool' = False, tail_tol: 'float' = 1e-14, "
        "max_terms: 'int' = 200000) -> 'CoherentState'"),
    "check_bg_eigen": "(state: 'CoherentState', rep: 'LadderRep') -> 'float'",
    "time_evolve": "(state: 'CoherentState', t: 'float') -> 'CoherentState'",
    "overlap": (
        "(s1: 'CoherentState', s2: 'CoherentState', *, unchecked: 'bool' = False) -> 'complex'"),
    "bg_normalization": "(params: 'AlgebraParams', z)",
    "GrassmannElement": "(dim: 'int', comps: 'tuple[complex, ...]') -> None",
    "GrassmannState": "(params: 'AlgebraParams', kernel: 'np.ndarray') -> None",
    "bg_grassmann_state": (
        "(params: 'AlgebraParams', dim: 'int | None' = None) -> 'GrassmannState'"),
    "check_bg_grassmann_eigen": "(state: 'GrassmannState', rep: 'LadderRep') -> 'float'",
    "complex_z_bg_residual": "(params: 'AlgebraParams', z) -> 'float'",
    "MomentSequence": (
        "(values: 'tuple[Fraction, ...]', provenance: 'StateKind', "
        "angular_scale: 'str' = 'angular average taken analytically, weight 1/(2*pi)', "
        "law_shapes: 'tuple[Fraction, ...] | None' = None, "
        "next_value: 'Fraction | None' = None) -> None"),
    "DiscreteMeasure": (
        "(nodes: 'np.ndarray', weights: 'np.ndarray', n_matched: 'int', "
        "max_rel_err: 'float') -> None"),
    "moments_for": (
        "(params: 'AlgebraParams', kind, count: 'int | None' = None) -> 'MomentSequence'"),
    "solve_measure": "(moments: 'MomentSequence') -> 'DiscreteMeasure'",
    "verify_identity": "(params: 'AlgebraParams', kind, measure: 'DiscreteMeasure') -> 'float'",
    "hankel_minors": "(values) -> 'HankelMinors'",
    "EntireSeries": (
        "(log_moduli: 'np.ndarray', meta: 'str' = '', polynomial: 'bool' = False) -> None"),
    "GrowthEstimate": (
        "(rho_hat: 'float', sigma_hat: 'float', fit_window: 'tuple[int, int]', residual: 'float', "
        "rho_raw: 'float', sigma_raw: 'float', gamma_hat: 'float | None') -> None"),
    "bargmann_eval": "(params: 'AlgebraParams', f_coeffs, z) -> 'complex | np.ndarray'",
    "schwarz_check": "(params: 'AlgebraParams', f_coeffs, z_grid) -> 'float'",
    "estimate_growth": "(series: 'EntireSeries') -> 'GrowthEstimate'",
    "closed_form_growth": "(params: 'AlgebraParams') -> 'tuple[float, float]'",
}


def test_every_exported_name_keeps_its_signature():
    assert set(SIGNATURES) | {"DomainError", "StateKind"} == set(polywh.__all__)
    found = {name: str(inspect.signature(getattr(polywh, name))) for name in SIGNATURES}
    assert found == SIGNATURES
    assert [(kind.name, kind.value) for kind in StateKind] == [
        ("PERELOMOV", "perelomov"), ("BARUT_GIRARDELLO", "barut-girardello")]
    assert issubclass(StateKind, str) and issubclass(StateKind, enum.Enum)
    assert DomainError.__mro__[1:] == (ValueError, Exception, BaseException, object)


def test_every_exported_function_has_a_docstring():
    functions = [name for name in polywh.__all__ if inspect.isfunction(getattr(polywh, name))]
    assert len(functions) == 25  # hyper_0f left the API; bg_normalization sums 0F_q
    assert [name for name in functions if not (getattr(polywh, name).__doc__ or "").strip()] == []
