"""Overcompleteness exhibited through a finite moment-problem solve.

Writing the identity-resolution condition in the number basis and doing
the angular average analytically (the phases between bra and ket cancel
level by level, so off-diagonal terms integrate to zero exactly), the
radial measure in t = |z|^2 must reproduce the moments

    perelomov           m_n = (n!)^2 / F(n)!
    barut-girardello    m_n = F(n)!

for every populated level n.  A discrete positive measure with those
moments is produced by the classical chain

    moments -> three-term recurrence (Chebyshev algorithm)
            -> Jacobi matrix -> Gauss nodes and weights,

run in exact rational arithmetic all the way to the final symmetric
eigensolve.  Raw-moment recurrences are notoriously ill-conditioned in
floating point; exact arithmetic sidesteps that entirely, and makes the
Hankel positivity checks decisive rather than heuristic.

With an odd number of supplied moments the last diagonal recurrence
coefficient is not pinned down; it is completed just above the exact
Schur-complement positivity threshold, which keeps every node strictly
positive while still matching all supplied moments.  (For the
disk-constrained perelomov family on an infinite ladder, prefer an even
moment count so no synthetic node can leave the existence disk.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraParams, _freeze, classify, structure_function
from .coherent import StateKind, bg_state, perelomov_state
from .errors import DomainError

__all__ = [
    "MomentSequence",
    "DiscreteMeasure",
    "moments_for",
    "solve_measure",
    "verify_identity",
    "hankel_minors",
]


@dataclass(frozen=True)
class MomentSequence:
    """Exact radial moments, tagged with the family they came from."""

    values: tuple[Fraction, ...]
    provenance: StateKind
    angular_scale: str = "angular average taken analytically, weight 1/(2*pi)"


@dataclass(frozen=True)
class DiscreteMeasure:
    """Positive nodes/weights in the t = |z|^2 variable.

    ``n_matched`` records how many leading moments the rule reproduces
    (all of the supplied ones), ``max_rel_err`` how closely."""

    nodes: np.ndarray
    weights: np.ndarray
    n_matched: int
    max_rel_err: float


def moments_for(params: AlgebraParams, kind, count: int | None = None) -> MomentSequence:
    """Exact moment sequence for the identity-resolution condition.

    Finite ladder: the count is fixed to d.  Infinite ladder: the caller
    chooses how many levels to cover.  Combinations for which the states
    themselves do not exist are rejected.
    """
    kind = StateKind(kind)
    dim = classify(params)
    if kind is StateKind.BARUT_GIRARDELLO:
        if dim.is_finite:
            raise DomainError(
                "no complex-z lowering eigenstates exist on a finite ladder, so there is "
                "no radial measure to solve for; the finite construction is nilpotent-valued"
            )
        if count is None:
            raise ValueError("infinite ladder needs an explicit moment count")
    else:
        if dim.is_finite:
            if count is None:
                count = dim.d
            elif count != dim.d:
                raise ValueError(f"finite case is determined by its d = {dim.d} levels")
        else:
            if params.r >= 2:
                raise DomainError(
                    "perelomov-type states do not exist on an infinite ladder with r >= 2"
                )
            if count is None:
                raise ValueError("infinite ladder needs an explicit moment count")
    factorials = [Fraction(1)]  # F(n)!, as one running product
    for n in range(1, count):
        factorials.append(factorials[-1] * structure_function(params, n))
    values = tuple(factorials[:count])
    if kind is StateKind.PERELOMOV:
        values = tuple(Fraction(math.factorial(n)) ** 2 / v for n, v in enumerate(values))
    if any(v <= 0 for v in values):
        raise DomainError("moment sequence has a nonpositive entry")
    return MomentSequence(values, kind)


def _fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction-preserving Gaussian elimination."""
    n = len(rows)
    a = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def hankel_minors(values) -> tuple[list[Fraction], list[Fraction]]:
    """Leading principal minors of H = [m_{i+j}] and of the shifted
    H' = [m_{i+j+1}], every size the supplied moments allow."""
    values = list(values)
    count = len(values)
    plain = [
        _fraction_det([[values[i + j] for j in range(k)] for i in range(k)])
        for k in range(1, (count + 1) // 2 + 1)
    ]
    shifted = [
        _fraction_det([[values[i + j + 1] for j in range(k)] for i in range(k)])
        for k in range(1, count // 2 + 1)
    ]
    return plain, shifted


def _moment_recurrence(values: list[Fraction], k: int):
    """Chebyshev moment-to-recurrence table in exact rationals.

    Returns (alphas, betas) of the monic three-term recurrence.  With
    2k moments all k alphas are determined; with 2k-1 the last alpha is
    missing (it would need one more moment) and the caller completes it.
    """
    count = len(values)
    alphas = [values[1] / values[0]] if count >= 2 else []
    betas = [values[0]]
    sigma_old = list(values)  # row j-1,  sigma_{j-1, l}
    sigma_older = [Fraction(0)] * count  # row j-2
    for j in range(1, k):
        row = [Fraction(0)] * count
        for l in range(j, count - j):
            row[l] = sigma_old[l + 1] - alphas[j - 1] * sigma_old[l] - betas[j - 1] * sigma_older[l]
        if sigma_old[j - 1] <= 0 or row[j] <= 0:
            raise DomainError(
                f"moment sequence is not positive-definite at recurrence stage {j}"
            )
        betas.append(row[j] / sigma_old[j - 1])
        if j + 1 <= count - 1 - j:
            alphas.append(row[j + 1] / row[j] - sigma_old[j] / sigma_old[j - 1])
        sigma_older, sigma_old = sigma_old, row
    return alphas, betas


def solve_measure(moments: MomentSequence) -> DiscreteMeasure:
    """Gaussian quadrature whose moments are the supplied sequence.

    Uses ceil(M/2) nodes for M supplied moments.  Positivity of the plain
    and shifted Hankel minors is checked exactly first; a failure names
    the offending minor.
    """
    values = list(moments.values)
    count = len(values)
    if count < 1:
        raise ValueError("need at least one moment")
    plain, shifted = hankel_minors(values)
    for idx, det in enumerate(plain, start=1):
        if det <= 0:
            raise DomainError(
                f"moment sequence is not positive-definite: Hankel minor H_{idx} = {det}"
            )
    for idx, det in enumerate(shifted, start=1):
        if det <= 0:
            raise DomainError(
                f"moments admit no measure on (0, inf): shifted Hankel minor H'_{idx} = {det}"
            )

    k = (count + 1) // 2
    alphas, betas = _moment_recurrence(values, k)
    if len(alphas) < k:
        # The last diagonal entry of the Jacobi matrix is unconstrained by
        # the supplied moments.  det(J_m) = alpha_{m-1} det(J_{m-1}) -
        # beta_{m-1} det(J_{m-2}) is rational, so the exact positivity
        # threshold tau (Schur complement of the leading block) is
        # available; anything above it keeps every node strictly positive.
        if k == 1:
            alphas.append(Fraction(1))
        else:
            dets = [Fraction(1), alphas[0]]
            for j in range(2, k):
                dets.append(alphas[j - 1] * dets[j - 1] - betas[j - 1] * dets[j - 2])
            tau = betas[k - 1] * dets[k - 2] / dets[k - 1]
            alphas.append(2 * tau + 1)

    alpha_f = np.array([float(a) for a in alphas])
    beta_f = np.array([float(b) for b in betas])
    if not (np.all(np.isfinite(alpha_f)) and np.all(np.isfinite(beta_f))):
        spread = max(abs(b) for b in betas) / min(abs(b) for b in betas if b != 0)
        raise DomainError(
            "recurrence coefficients overflow double precision; "
            f"beta spread (condition estimate) = {float(spread):g}"
        )
    jacobi = np.diag(alpha_f)
    if k > 1:
        off = np.sqrt(beta_f[1:])
        jacobi += np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = beta_f[0] * vecs[0, :] ** 2
    if np.any(nodes <= 0) or np.any(weights <= 0):
        raise DomainError(
            "numerically unstable recurrence: solved rule has a nonpositive node or weight "
            f"(min node {nodes.min():g}, min weight {weights.min():g})"
        )
    worst = 0.0
    for n, m_n in enumerate(values):
        target = float(m_n)
        if not math.isfinite(target):
            break
        approx = float(np.sum(weights * nodes**n))
        worst = max(worst, abs(approx - target) / target)
    if worst > 1e-8:
        raise DomainError(
            "numerically unstable recurrence: the solved rule reproduces the supplied "
            f"moments only to relative error {worst:g}"
        )
    return DiscreteMeasure(_freeze(nodes), _freeze(weights), count, worst)


def verify_identity(params: AlgebraParams, kind, measure: DiscreteMeasure) -> float:
    """Max deviation of the reassembled identity diagonal from 1.

    Assembles sum_j w_j |c_n(sqrt(t_j))|^2 for every level n below the
    matched moment range, building the states through the actual coherent
    state constructors (independent of the moment formulas).  Off-diagonal
    terms vanish in the analytic angular average and the moduli are phase
    independent, so the result does not depend on phi.
    """
    kind = StateKind(kind)
    levels = measure.n_matched
    dim = classify(params)
    if dim.is_finite and levels > dim.d:
        raise ValueError(
            f"measure matched {levels} moments but the ladder has only d = {dim.d} levels"
        )
    diag = np.zeros(levels)
    for t, w in zip(measure.nodes, measure.weights):
        zj = math.sqrt(float(t))
        if kind is StateKind.PERELOMOV:
            state = perelomov_state(params, zj)
        else:
            state = bg_state(params, zj)
        amp2 = np.abs(state.coeffs[:levels]) ** 2
        if len(amp2) < levels:
            amp2 = np.pad(amp2, (0, levels - len(amp2)))
        diag += float(w) * amp2
    return float(np.max(np.abs(diag - 1.0)))
