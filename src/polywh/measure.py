"""Overcompleteness exhibited through a finite moment-problem solve.

Writing the identity-resolution condition in the number basis and doing
the angular average analytically (the phases between bra and ket cancel
level by level, so off-diagonal terms integrate to zero exactly), the
radial measure in t = |z|^2 must reproduce the moments

    perelomov           m_n = (n!)^2 / F(n)!
    barut-girardello    m_n = F(n)!

for every populated level n.  A discrete positive measure with those
moments is produced by the classical chain

    moments -> Chebyshev table (exact)  -> Hankel minors H_k, H'_k
            -> recurrence alpha_j, beta_j read off the minors (exact)
            -> Jacobi matrix -> Gauss nodes and weights (float).

One exact pass of the Chebyshev algorithm, O(M^2) operations for M
moments, gives both positivity certificates: the plain and shifted Hankel
minors, which decide exactly whether a measure on (0, inf) exists.  The
pass runs on Python integers, not Fractions: each row of the table is a
list of integers over one common denominator, and after each update one
gcd takes the content out of the row, which keeps its integers as small
as the reduced fractions would be (a gcd on every Fraction operation was
most of the cost).  Plain fraction-free elimination (Bareiss 1968), with
one exact division per update and no content gcd, loses here: its
unreduced integers grow with every row and come out slower than Fractions
on the kappa = p/q families.  The recurrence coefficients follow from the
minors in O(M) operations: two reduced quotients per level, the rest
integer products.  Raw-moment recurrences are notoriously ill-conditioned
in floating point; exact arithmetic sidesteps that and makes the checks
decisive rather than heuristic.  The float endgame takes the nodes from
``eigvalsh`` of the Jacobi matrix, polishes them by Newton steps on the
orthogonal polynomial, and takes the weights as Christoffel numbers from
the orthonormal three-term recurrence, which keeps the small tail weights
accurate to a few ulp where eigenvector weights lose them (Gautschi,
Orthogonal Polynomials: Computation and Approximation, OUP 2004, sections
2.1 and 3.1).  A Christoffel sum past the double range means a weight
under the normal range of a double (the finite ladder d = 100 has one);
that is a `DomainError` naming the node, with no overflow warning.  The
rule is accepted only if it reproduces every supplied moment to 1e-8.

With an odd number of supplied moments the last diagonal recurrence
coefficient is not pinned down; it is completed just above the exact
Schur-complement positivity threshold, which keeps every node strictly
positive while still matching all supplied moments.  For the
disk-constrained perelomov family on an infinite ladder that completed
node can leave the existence disk t < 1/kappa_1; `verify_identity` then
refuses the rule naming the node (and the `measure` command names the odd
count), so prefer an even moment count there.

The rule is checked against the states themselves by reassembling the
identity diagonal sum_j w_j |c_n(sqrt(t_j))|^2.  One coherent-state
constructor call, at the largest node, decides that the state of every
node exists (|c_n(z)| grows with |z|); its failure is raised again with
the check, the node and |z| in front.  The leading moduli of all nodes
then come from the constructors' own series routine run once over a
column of all the nodes (`coherent._series_moduli`), bit-equal to the
coefficients each node's own state would give, and are summed node by
node in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraParams, _freeze, classify, structure_function
from .coherent import StateKind, _outside_disk, _series_moduli, bg_state, perelomov_state
from .errors import DomainError

NEWTON_STEPS = 3  # on eigvalsh nodes, which are already close

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


@dataclass(frozen=True, eq=False)
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


def hankel_minors(values) -> tuple[list[Fraction], list[Fraction]]:
    """Leading principal minors of H = [m_{i+j}] and of the shifted
    H' = [m_{i+j+1}], every size the supplied moments allow.

    One pass of the Chebyshev algorithm gives them in O(M^2) exact
    operations: sigma_{j,l} = <pi_j, t^l> for the monic orthogonal
    polynomials pi_j, so det H_{j+1} = det H_j * sigma_{j,j}, and
    det H'_k = det H_k * D_k with D_k = det J_k = (-1)^k pi_k(0).  From
    D_{j+1} = alpha_j D_j - beta_j D_{j-1} and beta_j = sigma_{j,j} /
    sigma_{j-1,j-1} that is det H'_{j+1} = sigma_{j,j} (alpha_j det H'_j -
    sigma_{j,j} det H'_{j-1}).  The table divides by sigma_{j,j}, so it
    stops at an exact zero minor: the lists then end with that zero (a
    prefix of the full ones).

    The table holds no Fraction.  Row j is a list of integers N_j[i] =
    den_j sigma_{j,j+i} over one positive integer den_j, and alpha_j =
    N_j[1]/N_j[0] - N_{j-1}[1]/N_{j-1}[0].  Cleared of fractions, the update
    sigma_{j+1,l} = sigma_{j,l+1} - alpha_j sigma_{j,l} - beta_j sigma_{j-1,l}
    reads

        N_{j+1}[i] = a N_j[i+2] - b N_j[i+1] - N_j[0]^2 N_{j-1}[i+2]

    over den_j a, with a = N_j[0] N_{j-1}[0] and b = N_j[1] N_{j-1}[0] -
    N_{j-1}[1] N_j[0] (den_{j-1} cancels).  One gcd then takes the content
    out of the new row and its denominator; it is what keeps the integers
    as small as the reduced fractions.  Only the two minors per row are
    built as Fractions.
    """
    values = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    row = [v.numerator * (den // v.denominator) for v in values]  # N_0
    prev = [1] + [0] * (len(row) + 1)  # N_{-1}: pi_{-1} = 0, with a unit pivot
    plain, shifted = [], []
    det, minor, minor_prev = Fraction(1), Fraction(1), Fraction(0)  # H_j, H'_j, H'_{j-1}
    for _ in range((len(values) + 1) // 2):
        sigma = row[0]  # den * sigma_{j,j}
        det = Fraction(det.numerator * sigma, det.denominator * den)
        plain.append(det)
        if not sigma or len(row) < 2:
            break
        pivot = sigma * prev[0]
        slope = row[1] * prev[0] - prev[1] * sigma  # alpha_j = slope / pivot
        (a, b), (c, e) = minor.as_integer_ratio(), minor_prev.as_integer_ratio()
        minor, minor_prev = Fraction(
            sigma * (slope * den * a * e - pivot * sigma * c * b), den * den * pivot * b * e
        ), minor
        shifted.append(minor)
        square = sigma * sigma
        step = zip(row[2:], row[1:], prev[2:])
        row, prev = [pivot * n2 - slope * n1 - square * n0 for n2, n1, n0 in step], row
        den *= pivot
        content = math.gcd(den, *row)
        if pivot < 0:
            content = -content
        if content != 1:
            row = [n // content for n in row]
            den //= content
    return plain, shifted


def _gauss_rule(alphas: np.ndarray, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule of a Jacobi matrix.

    The eigenvalues are polished by Newton steps on the degree-k
    orthogonal polynomial, and the weights are the Christoffel numbers
    1/sum_{n<k} p_n(t)^2 of the orthonormal polynomials p_n, all evaluated
    by the three-term recurrence (Gautschi 2004, sections 2.1 and 3.1).
    Weights from the eigenvectors (Golub-Welsch) lose the relative accuracy
    of the small weights far out in the tail.  A node whose Christoffel sum
    passes the double range has a weight under the normal range of a double:
    that is a `DomainError` naming the node (its eigenvalue, unpolished).
    """
    off = np.sqrt(betas)
    nodes = np.linalg.eigvalsh(np.diag(alphas) + np.diag(off[1:], 1) + np.diag(off[1:], -1))
    polished = nodes
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
        for _ in range(NEWTON_STEPS):
            value, slope, _ = _orthonormal_values(alphas, off, polished)
            polished = polished - value / slope
        *_, squares = _orthonormal_values(alphas, off, polished)
    lost = np.flatnonzero(~np.isfinite(squares))
    if lost.size:
        raise DomainError(
            f"the Christoffel sum at measure node t = {nodes[lost[0]]:.6g} passes the double "
            f"range: its weight is below {1.0 / np.finfo(float).max:.3g}, under the normal range"
        )
    return polished, 1.0 / squares


def _orthonormal_values(alphas, off, t):
    """sqrt(beta_k) p_k(t), its derivative in t, and sum_{n<k} p_n(t)^2.

    The p_n are orthonormal for the mass beta_0 = off[0]^2:
    sqrt(beta_{n+1}) p_{n+1} = (t - alpha_n) p_n - sqrt(beta_n) p_{n-1}."""
    p_prev, p = np.zeros_like(t), np.full_like(t, 1.0 / off[0])
    dp_prev, dp = np.zeros_like(t), np.zeros_like(t)
    squares = p * p
    for n, alpha in enumerate(alphas):
        p_next = (t - alpha) * p - off[n] * p_prev
        dp_next = p + (t - alpha) * dp - off[n] * dp_prev
        if n + 1 < len(alphas):
            p_prev, p = p, p_next / off[n + 1]
            dp_prev, dp = dp, dp_next / off[n + 1]
            squares += p * p
    return p_next, dp_next, squares


def _moment_match(values, nodes: np.ndarray, weights: np.ndarray) -> float:
    """Largest relative error of sum_j w_j t_j^n against the exact m_n.

    Both sides are divided by s^n, s the largest node, so that no power of
    a node leaves the double range however large the moments grow."""
    scale = float(nodes.max())
    approx = ((nodes / scale) ** np.arange(len(values))[:, None]) @ weights
    worst = 0.0
    scale_num, scale_den = scale.as_integer_ratio()
    power_num = power_den = 1  # s^n = power_num / power_den
    for m_n, a_n in zip(values, approx.tolist()):  # floats: an overflow is inf, silently
        num, den = m_n.as_integer_ratio()
        try:
            target = (num * power_den) / (den * power_num)  # m_n / s^n, correctly rounded
        except OverflowError:
            return math.inf
        if target == 0.0:
            return math.inf
        worst = max(worst, abs(a_n - target) / target)
        power_num *= scale_num
        power_den *= scale_den
    return worst


def _recurrence(plain, shifted, count: int):
    """alpha_j and beta_j, j < ceil(count/2), read off the positive minors,
    each as one unreduced integer ratio (num, den) with den > 0.

    With sigma_j = H_{j+1} / H_j and D_j = H'_j / H_j (D_{-1} = 0, D_0 = 1),
    beta_j = sigma_j / sigma_{j-1} (sigma_{-1} = 1) and alpha_j = (D_{j+1} +
    beta_j D_{j-1}) / D_j.  The minors grow quadratically with j, but sigma_j
    and D_j do not: one reduced quotient each brings them down to the size
    of a moment, and the rest is integer products of those.

    With an odd count the last diagonal entry of the Jacobi matrix is
    unconstrained by the supplied moments.  det(J_k) = alpha_{k-1} D_{k-1} -
    beta_{k-1} D_{k-2} is linear in it, so the exact positivity threshold
    tau = beta_{k-1} D_{k-2} / D_{k-1} (Schur complement of the leading
    block) is available; anything above it keeps every node strictly
    positive, and alpha_{k-1} is completed to 2 tau + 1.
    """
    k = (count + 1) // 2
    sigmas = [(det / det_prev).as_integer_ratio() for det, det_prev in zip(plain, [1, *plain])]
    dets = [(0, 1), (1, 1), *((s / h).as_integer_ratio() for s, h in zip(shifted, plain))]
    dets += [(0, 1)] * (k + 2 - len(dets))  # odd count: D_k = 0 turns alpha_{k-1} into tau
    alphas, betas = [], []
    for (s0, t0), (s1, t1), (p, q), (p0, q0), (p1, q1) in zip(
        [(1, 1), *sigmas], sigmas, dets, dets[1:], dets[2:]
    ):
        num, den = s1 * t0, t1 * s0
        betas.append((num, den))
        alphas.append(((p1 * den * q + num * p * q1) * q0, q1 * den * q * p0))
    if len(shifted) < k:
        num, den = alphas[-1]
        alphas[-1] = (2 * num + den, den)
    return alphas, betas


def solve_measure(moments: MomentSequence) -> DiscreteMeasure:
    """Gaussian quadrature whose moments are the supplied sequence.

    Uses ceil(M/2) nodes for M supplied moments.  Positivity of the plain
    and shifted Hankel minors is checked exactly first; a failure names
    the offending minor.  The recurrence coefficients are then read off the
    minors in integer arithmetic (`_recurrence`); the true division of each
    integer ratio rounds it exactly as float(Fraction) would.
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

    alphas, betas = _recurrence(plain, shifted, count)
    try:
        alpha_f = np.array([num / den for num, den in alphas])
        beta_f = np.array([num / den for num, den in betas])
    except OverflowError:
        spread = max(Fraction(*beta) for beta in betas) / min(Fraction(*beta) for beta in betas)
        bits = spread.numerator.bit_length() - spread.denominator.bit_length()
        raise DomainError(
            "recurrence coefficients overflow double precision; "
            f"beta spread (condition estimate) ~ 2^{bits}"
        ) from None
    nodes, weights = _gauss_rule(alpha_f, beta_f)
    if np.any(nodes <= 0) or np.any(weights <= 0):
        raise DomainError(
            "numerically unstable recurrence: solved rule has a nonpositive node or weight "
            f"(min node {nodes.min():g}, min weight {weights.min():g})"
        )
    worst = _moment_match(values, nodes, weights)
    if worst > 1e-8:
        raise DomainError(
            "numerically unstable recurrence: the solved rule reproduces the supplied "
            f"moments only to relative error {worst:g}"
        )
    return DiscreteMeasure(_freeze(nodes), _freeze(weights), count, worst)


def verify_identity(params: AlgebraParams, kind, measure: DiscreteMeasure) -> float:
    """Max deviation of the reassembled identity diagonal from 1.

    Assembles sum_j w_j |c_n(sqrt(t_j))|^2 for every level n below the
    matched moment range, from the coherent-state series (independent of
    the moment formulas).  Off-diagonal terms vanish in the analytic
    angular average and the moduli are phase independent, so the result
    does not depend on phi.

    One constructor call, at the largest node, decides whether every
    state of the rule exists: |c_n(z)| = |z|^n |c_n(1)| grows with |z|, so
    the existence disk, an overflow or the term cap is met there first; its
    `DomainError` is raised again with the check, the node t and |z| in
    front.  The moduli of all nodes then come from the rows of the
    constructor's own series routine over the leading levels
    (`coherent._series_moduli`), bit-equal to each node's own state, and are
    summed in node order.
    """
    kind = StateKind(kind)
    levels = measure.n_matched
    dim = classify(params)
    if dim.is_finite and levels > dim.d:
        raise ValueError(
            f"measure matched {levels} moments but the ladder has only d = {dim.d} levels"
        )
    nodes = np.asarray(measure.nodes, dtype=float)
    t_max = float(nodes.max())
    if kind is StateKind.PERELOMOV:
        if _outside_disk(params, math.sqrt(t_max)):
            raise DomainError(
                f"measure node t = {t_max:.6g} lies outside the existence disk "
                f"t < 1/kappa_1 = {1.0 / float(params.kappas[0]):.6g} of the perelomov states"
            )
    build = perelomov_state if kind is StateKind.PERELOMOV else bg_state
    try:
        build(params, math.sqrt(t_max))
    except DomainError as exc:
        raise DomainError(
            f"identity check at measure node t = {t_max:.6g} (|z| = {math.sqrt(t_max):.6g}): {exc}"
        ) from exc
    moduli = _series_moduli(kind, params, np.sqrt(nodes), levels)
    weighted = np.asarray(measure.weights, dtype=float)[:, None] * moduli
    diag = np.cumsum(weighted, axis=0)[-1]  # node by node, in order: a matmul would reorder it
    return float(np.max(np.abs(diag - 1.0)))
