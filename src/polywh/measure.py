"""Overcompleteness exhibited through a finite moment-problem solve.

In the number basis the angular average of the identity resolution is
taken analytically (off-diagonal terms integrate to zero), so the radial
measure in t = |z|^2 must reproduce

    perelomov           m_n = (n!)^2 / F(n)!
    barut-girardello    m_n = F(n)!

for every populated level n, each one reduced `Fraction` read off the
running integer product of `algebra`.  `solve_measure` returns the Gauss
rule of the sequence, ceil(M/2) nodes for M moments, from the recurrence
coefficients alpha_j, beta_j of its Jacobi matrix.  They come from one of
three sources (Gautschi, Orthogonal Polynomials, OUP 2004, chapters 1-2):

- Classical laws, recognised from the values (`_classical_recurrence`):
  the r = 1 perelomov moments n! / prod_{j<n} (1 + j kappa), and
  barut-girardello at kappa = 0, whose Jacobi entries are closed forms in
  kappa = p/q, equal to the chain's ratios.
- The barut-girardello product law (`_law_recurrence`): for kappa_i > 0,
  F(n)! = n! prod_i kappa_i^n (1/kappa_i)_n are the moments of T = X_0
  prod_i kappa_i X_i with independent X_0 ~ Gamma(1), X_i ~ Gamma(1/kappa_i)
  (Springer & Thompson, SIAM J. Appl. Math. 18, 1970), so the measure
  exists by construction.  The Gauss rules of the factors kappa_i X_i,
  each solved on its standardized variable, are multiplied together and
  reduced by the discretized Stieltjes procedure (Gautschi 2004, section
  2.2).  It serves every sequence from `moments_for` with at least
  LAW_MIN_COUNT moments, at any shape.  Below that count the chain serves:
  it is cheaper there, except for a tiny kappa_i, whose moments'
  denominators grow by about log2(1/kappa_i) bits a level.
- The exact chain (`hankel_minors`): one integer pass of the Chebyshev
  algorithm, O(M^2), whose pivots certify that every plain and shifted
  Hankel minor is positive (`_certified`), and whose rows give the
  recurrence as integer ratios.  Only where a pivot or its outward-rounded
  float bound cannot decide are the minors built, to name the first
  nonpositive one.

An odd count leaves alpha_{k-1} free.  The laws pin it (the disk rule and
the product law take their own; a barut-girardello chain runs on one more
exact moment, the ``next_value`` m_M of `moments_for`); kappa = 0, the
finite ladders and any hand-built sequence complete it to 2 tau + 1 above
the Schur-complement threshold tau, which keeps every node positive.

The float endgame (`_gauss_rule`) takes the eigvalsh nodes through one
pass of the orthonormal recurrence in np.longdouble, which gives a Newton
step and the Christoffel sums sum p_n^2, moved along that step by their
slope; their inverses are the weights, accurate to a few ulp far into the
tail where eigenvector weights are lost.  A sum past the double range is a
`DomainError` naming its node.  The rule must reproduce every supplied
moment to 1e-8, and `verify_identity` reassembles the identity diagonal
from the coherent states themselves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import AlgebraParams, _freeze, _scaled_factorials, classify
from .coherent import (
    DEFAULT_TAIL_TOL,
    MAX_SERIES_TERMS,
    StateKind,
    _cut_bound,
    _fits,
    _outside_disk,
    _perelomov_law,
    _series_moduli,
    bg_state,
    perelomov_state,
)
from .errors import DomainError

# below this many barut-girardello moments the exact chain is cheaper: the
# measured crossover is about 24-30 levels for r = 1 and 34 for r = 3
LAW_MIN_COUNT = 30
FACTOR_RULES = 256  # Gauss rules of the Gamma factors kept, keyed by (kappa, node count)

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
    """Exact radial moments, tagged with the family they came from.

    ``law_shapes`` are the Gamma shapes 1/kappa_i (kappa_i > 0) of the
    barut-girardello product law the moments belong to, and
    ``next_value`` is the exact moment m_M after the M values, as
    `moments_for` sets them; None where no law is known.  Neither enters
    ``==``."""

    values: tuple[Fraction, ...]
    provenance: StateKind
    angular_scale: str = "angular average taken analytically, weight 1/(2*pi)"
    law_shapes: tuple[Fraction, ...] | None = field(default=None, compare=False)
    next_value: Fraction | None = field(default=None, compare=False)


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
    themselves do not exist are rejected.  A barut-girardello sequence (an
    infinite ladder) records the shapes 1/kappa_i of its product law in
    ``law_shapes`` (kappa_i = 0 contributes a factor 1 and no shape) and
    the next moment m_M = F(M)! in ``next_value``.
    """
    kind = StateKind(kind)
    dim = classify(params)
    if dim.is_finite:
        if kind is StateKind.BARUT_GIRARDELLO:
            raise DomainError(
                "no complex-z lowering eigenstates exist on a finite ladder, so there is "
                "no radial measure to solve for; the finite construction is nilpotent-valued"
            )
        if count is None:
            count = dim.d
        elif count != dim.d:
            raise ValueError(f"finite case is determined by its d = {dim.d} levels")
    elif kind is StateKind.PERELOMOV and params.r >= 2:
        raise DomainError("perelomov-type states do not exist on an infinite ladder with r >= 2")
    elif count is None:
        raise ValueError("infinite ladder needs an explicit moment count")
    perelomov = kind is StateKind.PERELOMOV
    # (F(n)! Q^n, Q^n), for barut-girardello (no finite ladder) one past the count
    scaled = _scaled_factorials(params, count if perelomov else count + 1)
    if perelomov:
        values = tuple(
            Fraction(math.factorial(n) ** 2 * power, product)
            for n, (product, power) in enumerate(scaled)
        )
    else:
        *values, next_value = (Fraction(product, power) for product, power in scaled)
        values = tuple(values)
    if any(v.numerator <= 0 for v in values):
        raise DomainError("moment sequence has a nonpositive entry")
    if perelomov:
        return MomentSequence(values, kind)
    shapes = tuple(1 / kappa for kappa in params.kappas if kappa > 0)
    return MomentSequence(values, kind, law_shapes=shapes, next_value=next_value)


@dataclass(frozen=True)
class HankelMinors:
    """The result of `hankel_minors`: the pass's pivots ``sigmas`` (den_j
    sigma_{j,j}, each with the sign of H_{j+1} / H_j) over ``dens``, and the
    Jacobi entries ``alphas`` and ``betas`` as unreduced integer ratios
    (num, den), den > 0 where every minor is positive: num / den rounds as
    float(Fraction) does.  The ``plain`` and ``shifted`` minors, reduced
    Fractions, are built from the pivots on their first read
    (`_exact_minors`) and kept."""

    sigmas: tuple[int, ...]
    dens: tuple[int, ...]
    alphas: tuple[tuple[int, int], ...]
    betas: tuple[tuple[int, int], ...]
    shifted_count: int  # the alphas with a shifted minor: not a completed alpha_{k-1}

    @functools.cached_property
    def _minors(self):
        return _exact_minors(self.sigmas, self.dens, self.alphas[: self.shifted_count])

    @property
    def plain(self) -> list[Fraction]:
        return self._minors[0]

    @property
    def shifted(self) -> list[Fraction]:
        return self._minors[1]


def _exact_minors(sigmas, dens, slopes):
    """The plain and shifted minors of `hankel_minors` as reduced Fractions,
    from the pivots sigmas[j] = den_j sigma_{j,j} over dens[j] and the
    alpha ratios (slope_j, pivot_j) of the steps that have a shifted minor:
    H_{j+1} = H_j sigma_{j,j} and det H'_{j+1} = sigma_{j,j} (alpha_j det
    H'_j - sigma_{j,j} det H'_{j-1})."""
    plain, shifted = [], []
    det, minor, minor_prev = Fraction(1), Fraction(1), Fraction(0)  # H_j, H'_j, H'_{j-1}
    for j, (sigma, den) in enumerate(zip(sigmas, dens)):
        det = Fraction(det.numerator * sigma, det.denominator * den)
        plain.append(det)
        if j < len(slopes):
            slope, pivot = slopes[j]
            (a, b), (c, e) = minor.as_integer_ratio(), minor_prev.as_integer_ratio()
            minor, minor_prev = Fraction(
                sigma * (slope * den * a * e - pivot * sigma * c * b), den * den * pivot * b * e
            ), minor
            shifted.append(minor)
    return plain, shifted


def hankel_minors(values) -> HankelMinors:
    """Leading principal minors of H = [m_{i+j}] and of the shifted
    H' = [m_{i+j+1}], every size the supplied moments allow, with the
    recurrence coefficients of the Jacobi matrix (`HankelMinors`).

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
    as small as the reduced fractions (fraction-free elimination without
    it, Bareiss 1968, lets them grow and is slower than `Fraction` here).
    The same integers give the recurrence: alpha_j = b / a and beta_j =
    N_j[0] den_{j-1} / (den_j N_{j-1}[0]).  The pass keeps the pivots
    N_j[0] and den_j, and builds the minors from them only when they are
    read (`_exact_minors`):
    `solve_measure` decides their signs from the pivots and the recurrence
    alone, and reads them only where that cannot decide.

    An odd count leaves the last alpha_{k-1} free: det J_k = alpha_{k-1}
    D_{k-1} - beta_{k-1} D_{k-2} is positive above tau = beta_{k-1} D_{k-2} /
    D_{k-1} (Schur complement of the leading block), and alpha_{k-1} is
    completed to 2 tau + 1.  For it the pass carries, on odd counts only,
    the pair (x, y) = lambda (pi_j(0), pi_{j-1}(0)) for some lambda != 0 as
    integers cleared of their gcd: from pi_{j+1}(0) = -alpha_j pi_j(0) -
    beta_j pi_{j-1}(0), times den_j a, each step is (x, y) <- (-b den_j x -
    N_j[0]^2 den_{j-1} y, den_j a x), and tau = -beta_{k-1} y / x.
    """
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    row = [v.numerator * (den // v.denominator) for v in values]  # N_0
    prev, den_prev = [1] + [0] * (len(row) + 1), 1  # N_{-1}: pi_{-1} = 0, with a unit pivot
    sigmas, dens, alphas, betas = [], [], [], []
    odd, x, y = len(values) % 2, 1, 0  # (pi_0(0), pi_{-1}(0))
    for _ in range((len(values) + 1) // 2):
        sigma = row[0]  # den * sigma_{j,j}
        sigmas.append(sigma)
        dens.append(den)
        betas.append((sigma * den_prev, den * prev[0]))
        if not sigma:
            break
        if len(row) < 2:  # odd count: alpha_{k-1} = 2 tau + 1, tau = -beta_{k-1} y / x
            num, den_beta = betas[-1]
            if x < 0:
                x, y = -x, -y
            alphas.append((den_beta * x - 2 * num * y, den_beta * x))
            break
        pivot = sigma * prev[0]
        slope = row[1] * prev[0] - prev[1] * sigma  # alpha_j = slope / pivot
        alphas.append((slope, pivot))
        square = sigma * sigma
        if odd:
            x *= den
            x, y = -slope * x - square * (den_prev * y), pivot * x
            common = math.gcd(x, y)
            x, y = x // common, y // common
        step = zip(row[2:], row[1:], prev[2:])
        row, prev = [pivot * n2 - slope * n1 - square * n0 for n2, n1, n0 in step], row
        den, den_prev = den * pivot, den
        content = math.gcd(den, *row)
        if pivot < 0:
            content = -content
        if content != 1:
            row = [n // content for n in row]
            den //= content
    shifted_count = min(len(alphas), len(values) // 2)  # not the completed alpha_{k-1}
    return HankelMinors(tuple(sigmas), tuple(dens), tuple(alphas), tuple(betas), shifted_count)


def _classical_recurrence(values):
    """The Jacobi entries of `hankel_minors` as integer ratios (alphas, betas),
    read off the closed form of the module docstring where the moments are
    those of a classical law, else None.

    The law is recognised from the moments alone: m_0 = m_1 = 1, kappa =
    2/m_2 - 1 = p/q, and m_{n+1} (q + np) = (n + 1) q m_n for every n,
    checked as cross-multiplied integers.  It exists for 0 <= p < q and for
    p = -1 with at most q + 1 moments; with fewer than three moments or any
    other kappa the answer is None.  alpha_0 = beta_0 = 1.  An odd count on
    the disk (0 < p < q) keeps the law's own alpha_{k-1}, the one the chain
    gives on count + 1 moments: the rule is the k-node Gauss rule of the
    law, every node inside its support (0, 1/kappa).  At p = 0 and p = -1
    an odd count completes the last alpha_{k-1} to 2 tau + 1 as the chain
    does: with det J_j = j! q^j / prod_{m=j-1}^{2j-2} (q + mp), tau = beta_j
    det J_{j-1} / det J_j at j = k - 1 is j q (q + (j-2)p) / ((q + 2(j-1)p)
    (q + (2j-1)p)).  Every denominator is positive where the law exists.
    """
    count = len(values)
    if count < 3:
        return None
    exact = (v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values)
    ratios = [v.as_integer_ratio() for v in exact]
    m2, d2 = ratios[2]
    if ratios[0] != (1, 1) or ratios[1] != (1, 1) or m2 <= 0:
        return None
    common = math.gcd(2 * d2 - m2, m2)
    p, q = (2 * d2 - m2) // common, m2 // common
    if not (0 <= p < q or (p == -1 and count <= q + 1)):
        return None
    for n in range(2, count - 1):
        (num, den), (num_next, den_next) = ratios[n], ratios[n + 1]
        if num_next * (q + n * p) * den != (n + 1) * q * num * den_next:
            return None
    alphas, betas = [(1, 1)], [(1, 1)]
    for n in range(1, (count + 1) // 2):
        below, above = q + 2 * (n - 1) * p, q + 2 * n * p
        alphas.append((q * (q * (2 * n + 1) + 2 * p * (n * n - n - 1)), below * above))
        root = n * q * (q + (n - 2) * p)
        betas.append((root * root, below * below * (q + (2 * n - 1) * p) * (q + (2 * n - 3) * p)))
    if count % 2 and p <= 0:
        j = len(alphas) - 1
        tau, den = j * q * (q + (j - 2) * p), (q + 2 * (j - 1) * p) * (q + (2 * j - 1) * p)
        alphas[-1] = (2 * tau + den, den)
    return alphas, betas


def _gauss_rule(alphas: np.ndarray, betas: np.ndarray,
                of: str = "measure node t") -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule of a Jacobi matrix.

    One pass of the orthonormal recurrence (Gautschi 2004, sections 2.1
    and 3.1; `_orthonormal_values`) at the eigvalsh eigenvalues gives a
    Newton step to the returned nodes and the Christoffel sums sum_{n<k}
    p_n(t)^2, whose inverses are the weights; each sum is moved along the
    step by its slope 2 sum p_n p'_n.  The pass runs in np.longdouble (a
    64-bit significand on x86-64), because in doubles a node far below
    alpha_n loses its bits under the ulp of alpha_n in every shift t -
    alpha_n (`b823da9`).  Eigenvector weights (Golub-Welsch) lose the small
    weights of the tail.  A sum past the double range, a weight under the
    normal range, is a `DomainError` naming the node as ``of`` = its
    eigenvalue, ``of`` saying whose rule and which variable it is."""
    jacobi = np.zeros((len(alphas), len(alphas)))  # eigvalsh reads its lower triangle alone
    jacobi.flat[:: len(alphas) + 1] = alphas
    jacobi.flat[len(alphas) :: len(alphas) + 1] = np.sqrt(betas[1:])
    nodes = np.linalg.eigvalsh(jacobi)
    wide = np.longdouble
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the double range is refused
        (value, slope), (squares, cross) = _orthonormal_values(
            alphas.astype(wide), list(np.sqrt(betas.astype(wide))), nodes.astype(wide))
        step = value / slope
        moved = squares - 2.0 * cross * step
    lost = np.flatnonzero(~(moved <= np.finfo(float).max))
    if lost.size:
        raise DomainError(
            f"the Christoffel sum at {of} = {nodes[lost[0]]:.6g} passes the double "
            f"range: its weight is below {1.0 / np.finfo(float).max:.3g}, under the normal range"
        )
    return (nodes - step).astype(float), (1.0 / moved).astype(float)


def _orthonormal_values(alphas, off, t):
    """(sqrt(beta_k) p_k(t), its derivative in t) and (sum_{n<k} p_n(t)^2,
    sum_{n<k} p_n(t) p'_n(t)), each pair as the two rows of one array of
    t's dtype.

    sqrt(beta_{n+1}) p_{n+1} = (t - alpha_n) p_n - sqrt(beta_n) p_{n-1},
    orthonormal for the mass beta_0 = off[0]^2; the derivative row adds p_n
    to (t - alpha_n) p'_n before the second term.  The shifts t - alpha_n
    are taken at once, and both sums at the end, in order of n, over the
    kept pairs (p_n, p'_n)."""
    pairs = np.zeros((len(alphas) + 1, 2, len(t)), dtype=t.dtype)  # pairs[n + 1] = (p_n, p'_n)
    pairs[1, 0] = 1.0 / off[0]
    for n, shift in enumerate(t - alphas[:, None]):
        rows = pairs[n + 1]
        new = shift * rows
        new[1] += rows[0]
        new -= off[n] * pairs[n]
        if n + 1 < len(alphas):
            np.divide(new, off[n + 1], out=pairs[n + 2])
    return new, np.add.reduce(pairs[1:, :1] * pairs[1:])


@functools.lru_cache(maxsize=FACTOR_RULES)
def _gamma_rule(kappa: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The size-node Gauss rule of kappa X, X ~ Gamma(1/kappa), read-only:
    `_gauss_rule` on U = (kappa X - 1) / sqrt(kappa), whose Jacobi matrix
    alpha_j = 2 j sqrt(kappa), beta_j = j + j (j - 1) kappa, beta_0 = 1 (the
    Laguerre matrix shifted and scaled) stays O(1) however large the shape,
    at the nodes 1 + sqrt(kappa) u: all 1 at kappa = 0."""
    j = np.arange(size, dtype=float)
    root = math.sqrt(kappa)
    betas = j * ((j - 1.0) * kappa + 1.0)
    betas[0] = 1.0
    nodes, weights = _gauss_rule(2.0 * root * j, betas, of=f"the product law's kappa = "
                                 f"{kappa:.6g} factor, node u = (kappa X - 1) / sqrt(kappa)")
    return _freeze(1.0 + root * nodes), _freeze(weights)


def _stieltjes(nodes: np.ndarray, roots: np.ndarray, size: int):
    """The first ``size`` alpha_j and beta_j of the discrete measure with
    weights roots^2 at ``nodes``, by the orthonormal Stieltjes procedure
    (Gautschi 2004, section 2.2.3) on the vectors sqrt(w) p_j(t), each of
    unit length, so that no entry leaves the double range.  Four buffers
    of the nodes' length hold every vector of the pass."""
    alphas, betas = np.empty(size), np.empty(size)
    betas[0] = roots @ roots
    off = math.sqrt(betas[0])
    prev, vec = np.zeros_like(nodes), roots / off
    moved, term = np.empty_like(nodes), np.empty_like(nodes)
    for j in range(size):
        np.multiply(nodes, vec, out=moved)
        alphas[j] = moved @ vec
        if j + 1 == size:
            break
        moved -= np.multiply(alphas[j], vec, out=term)
        moved -= np.multiply(off, prev, out=term)
        betas[j + 1] = moved @ moved
        off = math.sqrt(betas[j + 1])
        prev, vec = vec, np.divide(moved, off, out=prev)
    return alphas, betas


def _law_recurrence(shapes, count: int) -> tuple[np.ndarray, np.ndarray]:
    """alpha_j and beta_j, j < k = ceil(count / 2), of the barut-girardello
    product law T = X_0 prod_i X_i / a_i, X_0 ~ Gamma(1), X_i ~ Gamma(a_i)
    for the ``shapes`` a_i (module docstring), in floats.

    The (k+1)-node Gauss rule of each factor X_i / a_i (`_gamma_rule`) is
    exact to degree 2k + 1, so the outer product of the running rule with
    the next factor's has the moments of their product that far.
    `_stieltjes` reads k + 1 coefficients off it, and `_gauss_rule` brings
    it back to k + 1 nodes, for every product but the last; the last gives
    the k coefficients, the law's own alpha_{k-1} on an odd count.  A
    coefficient that is not finite or not positive (a product weight lost
    to underflow, a coefficient past the double range) is a `DomainError`
    naming the factor and the coefficient, as is a kappa_i whose factor
    rule passes the double range."""
    size = (count + 1) // 2 + 1
    nodes, weights = _gamma_rule(1.0, size)
    for i, shape in enumerate(shapes, start=1):
        last = i == len(shapes)
        bits = shape.denominator.bit_length() - shape.numerator.bit_length()  # log2 kappa_i, +-1
        if bits + 2 * size.bit_length() > 1020:  # 4 size^2 kappa_i bounds its rule's entries
            raise DomainError(f"the product law's factor {i} of {len(shapes)} has kappa ~ "
                              f"2^{bits}: its {size}-node Gauss rule passes the double range")
        # kappa_i rounded to a double: 0.0 under the double range, where the factor is 1
        factor, factor_weights = _gamma_rule(shape.denominator / shape.numerator, size)
        with np.errstate(all="ignore"):  # a non-finite coefficient is refused below
            product = np.multiply.outer(nodes, factor).ravel()
            roots = np.multiply.outer(np.sqrt(weights), np.sqrt(factor_weights)).ravel()
            alphas, betas = _stieltjes(product, roots, size - 1 if last else size)
        bad = np.flatnonzero(~(np.isfinite(alphas) & np.isfinite(betas) & (betas > 0)))
        if bad.size:
            raise DomainError(
                f"the product law loses its recurrence at factor {i} of {len(shapes)} "
                f"(Gamma({shape})), coefficient j = {bad[0]}: a product weight underflowed "
                "or a coefficient passed the double range"
            )
        if last:
            return alphas, betas
        nodes, weights = _gauss_rule(alphas, betas,
                                     of=f"the product law's partial product (factors 0-{i}) node t")


def _moment_match(values, nodes: np.ndarray, weights: np.ndarray) -> float:
    """Largest relative error of sum_j w_j t_j^n against the exact m_n.

    Both sides are divided by s^n, s the largest node, so that no power of
    a node leaves the double range however large the moments grow."""
    scale = float(nodes.max())
    approx = ((nodes / scale) ** np.arange(len(values))[:, None]) @ weights
    worst = 0.0
    scale_num, scale_den = scale.as_integer_ratio()
    bits, power_num = scale_den.bit_length() - 1, 1  # s^n = power_num / 2**(bits n)
    for n, (m_n, a_n) in enumerate(zip(values, approx.tolist())):  # an overflow is inf, silently
        num, den = m_n.as_integer_ratio()
        try:
            target = (num << bits * n) / (den * power_num)  # m_n / s^n, correctly rounded
        except OverflowError:
            return math.inf
        if target == 0.0:
            return math.inf
        worst = max(worst, abs(a_n - target) / target)
        power_num *= scale_num
    return worst


def _certified(sigmas, alphas, betas, shifted: int) -> bool:
    """Whether every plain and shifted minor of a `hankel_minors` pass is
    positive, decided without building one; False where this cannot decide.

    H_{j+1} = H_j sigma_{j,j} and den_j > 0, so every plain minor is
    positive exactly when every pivot in ``sigmas`` is.  Then det H'_j =
    det H_j D_j for the ``shifted`` shifted minors, and D_j > 0 for each of
    them exactly when every pivot r_j = D_j / D_{j-1} of the LDL^T
    factorisation of the Jacobi matrix is positive: r_1 = alpha_0, r_{j+1} =
    alpha_j - beta_j / r_j.  ``alphas`` and ``betas`` are the floats num /
    den of the pass's ratios, or None where one of them passed the double
    range.  A true integer division is correctly rounded, so one ulp down
    from an alpha and one up from a beta bound them, and each later
    operation steps one ulp outward again: every r_j is at least its bound,
    and a positive bound certifies it (a filtered predicate: Shewchuk,
    Discrete Comput. Geom. 18, 1997).
    """
    if alphas is None or any(sigma <= 0 for sigma in sigmas):
        return False
    low = None  # the lower bound on r_j
    for alpha, beta in zip(alphas[:shifted], betas):
        bound = math.nextafter(alpha, -math.inf)
        if low is not None:
            over = math.nextafter(math.nextafter(beta, math.inf) / low, math.inf)
            bound = math.nextafter(bound - over, -math.inf)
        if not bound > 0.0:
            return False
        low = bound
    return True


def solve_measure(moments: MomentSequence) -> DiscreteMeasure:
    """Gaussian quadrature whose moments are the supplied sequence.

    Uses ceil(M/2) nodes for M supplied moments.  Moments of a classical
    law (`_classical_recurrence`) give their recurrence coefficients in
    closed form, and the law is their positivity certificate; so is the
    barut-girardello product law (`_law_recurrence`) of a sequence that
    carries its ``law_shapes``, from LAW_MIN_COUNT moments on, at any shape.
    Below that count such a sequence of odd length takes the chain on one
    more exact moment, its ``next_value`` m_M.  Any
    other sequence goes through the exact Chebyshev pass
    (`_exact_recurrence`).  Every rule must have positive
    nodes and weights and reproduce every supplied moment to 1e-8.
    """
    values = list(moments.values)
    count = len(values)
    if count < 1:
        raise ValueError("need at least one moment")
    recurrence = _classical_recurrence(values)
    if recurrence is None and moments.law_shapes and count >= LAW_MIN_COUNT:
        alpha_f, beta_f = _law_recurrence(moments.law_shapes, count)
    elif recurrence is None and moments.next_value is not None and count % 2:
        alpha_f, beta_f = _exact_recurrence([*values, moments.next_value])
    else:
        alpha_f, beta_f = _exact_recurrence(values, recurrence)
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


def _exact_recurrence(values, recurrence=None) -> tuple[np.ndarray, np.ndarray]:
    """alpha and beta as float arrays, from the integer ratios of a
    classical ``recurrence`` or, where none is given, of the exact chain
    on ``values`` (`hankel_minors`).  A true division rounds each ratio as
    float(Fraction) would.

    The chain's pivots and recurrence must certify that every plain and
    shifted Hankel minor is positive (`_certified`).  Where they cannot,
    the exact minors decide, a failure naming the first nonpositive one
    (plain first)."""
    minors = hankel_minors(values) if recurrence is None else None
    alphas, betas = recurrence or (minors.alphas, minors.betas)
    try:
        alpha_f = [num / den for num, den in alphas]
        beta_f = [num / den for num, den in betas]
    except (OverflowError, ZeroDivisionError):  # ZeroDivisionError: a zero shifted minor
        alpha_f = beta_f = None
    if minors is not None and not _certified(minors.sigmas, alpha_f, beta_f, len(values) // 2):
        for idx, det in enumerate(minors.plain, start=1):
            if det.numerator <= 0:
                raise DomainError(
                    f"moment sequence is not positive-definite: Hankel minor H_{idx} = {det}"
                )
        for idx, det in enumerate(minors.shifted, start=1):
            if det.numerator <= 0:
                raise DomainError(
                    f"moments admit no measure on (0, inf): shifted Hankel minor H'_{idx} = {det}"
                )
    if alpha_f is None:
        spread = max(Fraction(*beta) for beta in betas) / min(Fraction(*beta) for beta in betas)
        bits = spread.numerator.bit_length() - spread.denominator.bit_length()
        raise DomainError(
            "recurrence coefficients overflow double precision; "
            f"beta spread (condition estimate) ~ 2^{bits}"
        )
    return np.array(alpha_f), np.array(beta_f)


def verify_identity(params: AlgebraParams, kind, measure: DiscreteMeasure) -> float:
    """Max deviation of the reassembled identity diagonal from 1.

    Assembles sum_j w_j |c_n(sqrt(t_j))|^2 for every level n below the
    matched moment range, from the coherent-state series (independent of
    the moment formulas).  Off-diagonal terms vanish in the analytic
    angular average and the moduli are phase independent, so the result
    does not depend on phi.

    The state at the largest node decides whether every state of the rule
    exists: |c_n(z)| = |z|^n |c_n(1)| grows with |z|, so the existence
    disk, an overflow or the term cap is met there first.  The disk is
    checked first.  Where the perelomov closed form (`coherent._perelomov_law`)
    certifies that the series there meets its cut within the term cap with
    every coefficient in range, the state is not built; otherwise it is,
    and its `DomainError` is raised again with the check, the node t and
    |z| in front.  The moduli of all nodes come from the rows of the
    constructor's own series routine (`coherent._series_moduli`), bit-equal
    to each node's own state, summed in node order.
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
    radius = math.sqrt(t_max)
    if kind is StateKind.PERELOMOV and _outside_disk(params, radius):
        raise DomainError(
            f"measure node t = {t_max:.6g} lies outside the existence disk "
            f"t < 1/kappa_1 = {1.0 / float(params.kappas[0]):.6g} of the perelomov states"
        )
    law = _perelomov_law(kind, params, radius)  # S_n >= |c_0|^2 = 1 before every cut
    certified = law is not None and _fits(law, MAX_SERIES_TERMS) and _cut_bound(
        law, 1, MAX_SERIES_TERMS + 1, 2.0 * math.log(DEFAULT_TAIL_TOL)) is not None
    if not certified:
        build = perelomov_state if kind is StateKind.PERELOMOV else bg_state
        try:
            build(params, radius)
        except DomainError as exc:
            raise DomainError(
                f"identity check at measure node t = {t_max:.6g} (|z| = {radius:.6g}): {exc}"
            ) from exc
    moduli = _series_moduli(kind, params, np.sqrt(nodes), levels)
    weighted = np.asarray(measure.weights, dtype=float)[:, None] * moduli
    diag = np.cumsum(weighted, axis=0)[-1]  # node by node, in order: a matmul would reorder it
    return float(np.max(np.abs(diag - 1.0)))
