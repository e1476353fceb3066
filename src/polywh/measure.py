"""The radial measure of the resolution of the identity, as a Gauss rule.

After the angular average the identity resolution is a moment problem in
t = |z|^2: perelomov m_n = (n!)^2 / F(n)!, barut-girardello m_n = F(n)!.
The recurrences follow Gautschi, Orthogonal Polynomials, OUP 2004; their
derivations are quoted in CHANGES.md, entry "Contract docstrings".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import AlgebraParams, _freeze, _scaled_factorials, classify
from .coherent import StateKind, _require_family, _require_state, _series_moduli
from .errors import DomainError

# below this many barut-girardello moments the exact chain is cheaper (the
# measured crossover is in CHANGES.md, at `c509080`)
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
    barut-girardello product law of the moments and ``next_value`` the exact
    moment m_M after the M values; None where no law is known.  Neither
    enters ``==``."""

    values: tuple[Fraction, ...]
    provenance: StateKind
    angular_scale: str = "angular average taken analytically, weight 1/(2*pi)"
    law_shapes: tuple[Fraction, ...] | None = field(default=None, compare=False)
    next_value: Fraction | None = field(default=None, compare=False)


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Positive nodes and weights in t = |z|^2 that reproduce the first
    ``n_matched`` moments to relative error ``max_rel_err``."""

    nodes: np.ndarray
    weights: np.ndarray
    n_matched: int
    max_rel_err: float


def moments_for(params: AlgebraParams, kind, count: int | None = None) -> MomentSequence:
    """The exact moment sequence of the identity resolution of ``kind``.

    A finite ladder has d moments (a ``count`` other than d is a ValueError);
    an infinite ladder needs ``count``.  Where the states do not exist
    (barut-girardello on a finite ladder, perelomov on an infinite one with
    r >= 2) it is the `DomainError` of `coherent._require_family`, as the
    constructors raise it.  A barut-girardello sequence carries its
    ``law_shapes`` (kappa_i = 0 adds none) and ``next_value`` m_M = F(M)!.
    """
    kind = StateKind(kind)
    dim = _require_family(kind, params)
    if dim.is_finite:
        if count is None:
            count = dim.d
        elif count != dim.d:
            raise ValueError(f"finite case is determined by its d = {dim.d} levels")
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
    """The result of `hankel_minors`: the pivots ``sigmas`` (den_j
    sigma_{j,j}, each with the sign of H_{j+1} / H_j) over ``dens``, and the
    Jacobi entries ``alphas`` and ``betas`` as unreduced integer ratios
    (num, den), den > 0 where every minor is positive.  The ``plain`` and
    ``shifted`` minors, reduced Fractions, are built on first read."""

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
    from its pivots (sigmas over dens) and the alpha ratios (slope_j, pivot_j)
    of the steps that have a shifted minor (recurrences: `516c72b`)."""
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
    H' = [m_{i+j+1}], every size the moments allow, with the Jacobi
    recurrence coefficients (`HankelMinors`).

    One pass of the Chebyshev algorithm (Gautschi 2004, section 2.1) in
    integer rows, one content gcd per row (`bf505c8`), O(M^2).  It stops at
    an exact zero minor: the lists then end with that zero.  On an odd count
    the last alpha_{k-1} is free and is completed to 2 tau + 1 above the
    Schur-complement threshold tau, which keeps every node positive.  The
    rows, pivots and completion are derived in CHANGES.md ("Contract
    docstrings").
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
    """The Jacobi entries of `hankel_minors` as integer ratios (alphas,
    betas) where the values are the moments n! q^n / prod_{j<n} (q + j p) of a
    classical law, kappa = p/q with 0 <= p < q, or p = -1 with at most q + 1
    values; else None, as for fewer than three values.  An odd count on the
    disk (0 < p < q) keeps the law's own alpha_{k-1}; at p = 0 and p = -1 it
    is completed as the chain completes it.  The closed forms are derived in
    CHANGES.md ("Contract docstrings")."""
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
    """Nodes and weights of the Gauss rule of a Jacobi matrix: its eigvalsh
    nodes moved by one Newton step of the orthonormal recurrence
    (`_orthonormal_values`; Gautschi 2004, sections 2.1 and 3.1), and the
    inverse Christoffel sums, moved along that step, as weights (eigenvector
    weights lose the tail).  The pass runs in np.longdouble, as in doubles a
    node far below alpha_n loses its bits in t - alpha_n (`b823da9`): the
    3e-14 bound of the tests holds where np.finfo(np.longdouble).nmant >= 63
    (x86-64), and elsewhere the pass runs in doubles.  A weight under the
    normal range is a `DomainError` naming its node as ``of`` = eigenvalue."""
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
    """(sqrt(beta_k) p_k(t), its t-derivative) and (sum_{n<k} p_n(t)^2,
    sum_{n<k} p_n(t) p'_n(t)), each pair the rows of one array of t's dtype,
    for sqrt(beta_{n+1}) p_{n+1} = (t - alpha_n) p_n - sqrt(beta_n) p_{n-1},
    off[n] = sqrt(beta_n), orthonormal for the mass beta_0."""
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
    `_gauss_rule` on U = (kappa X - 1) / sqrt(kappa), whose Jacobi entries
    alpha_j = 2 j sqrt(kappa), beta_j = j + j (j - 1) kappa stay O(1) at any
    shape.  All nodes are 1 at kappa = 0."""
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
    (Gautschi 2004, section 2.2.3), whose unit vectors keep every entry in
    the double range."""
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
    """alpha_j and beta_j, j < ceil(count / 2), in floats, of the
    barut-girardello product law T = X_0 prod_i X_i / a_i, X_0 ~ Gamma(1),
    X_i ~ Gamma(a_i) for the ``shapes`` a_i (Springer & Thompson, SIAM J.
    Appl. Math. 18, 1970): the factor rules (`_gamma_rule`) multiplied and
    reduced by `_stieltjes` (`c509080`).  A factor whose rule passes the
    double range, or a coefficient that is not finite and positive, is a
    `DomainError` naming the factor."""
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
    """Largest relative error of sum_j w_j t_j^n against the exact m_n,
    both sides divided by s^n, s the largest node, so that no power leaves
    the double range; inf where a scaled moment does."""
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
    positive, from its pivots ``sigmas`` and the floats ``alphas`` and
    ``betas`` of its ratios (None where one passed the double range), over
    the first ``shifted`` alphas; False where this cannot decide.  The test
    is an outward-rounded LDL^T factorisation of the Jacobi matrix, a
    filtered predicate (Shewchuk 1997; `516c72b`; derived in CHANGES.md,
    "Contract docstrings")."""
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
    """The Gauss rule of ceil(M/2) nodes whose moments are the M supplied.

    The recurrence is a classical law's closed form (`_classical_recurrence`),
    else the barut-girardello product law of a sequence with ``law_shapes``
    and at least LAW_MIN_COUNT moments (`_law_recurrence`), else the exact
    chain (`_exact_recurrence`), on ``next_value`` too where the count is odd.
    Fewer than one moment is a ValueError.  A rule with a nonpositive node or
    weight, or that misses a moment by more than 1e-8, is a `DomainError`.
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
    """alpha and beta as float arrays from the integer ratios of a classical
    ``recurrence`` or, where none is given, of the exact chain on ``values``
    (`hankel_minors`), each rounded as float(Fraction).  A chain whose minors
    `_certified` cannot certify has them built: the first nonpositive one
    (plain first) is a `DomainError`, as is a ratio past the double range."""
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
    """Max deviation from 1 of the identity diagonal sum_j w_j |c_n(sqrt(t_j))|^2,
    n < ``measure.n_matched``, from the coherent-state series at the nodes
    (`coherent._series_moduli`), summed in node order.  |c_n| does not depend
    on phi, so the series is taken on the phase-free ladder (phi = 0) and
    the result is the same at every phi.  |c_n(z)| grows with |z|, so the
    states of the rule exist where the one at the largest node does: a state
    there that `coherent._require_state` refuses, outside the perelomov disk
    too, is a `DomainError` naming the node t and |z|.  More levels than a
    finite ladder has is a ValueError.
    """
    kind = StateKind(kind)
    ladder = params.with_phi(0.0)
    levels = measure.n_matched
    dim = classify(params)
    if dim.is_finite and levels > dim.d:
        raise ValueError(
            f"measure matched {levels} moments but the ladder has only d = {dim.d} levels"
        )
    nodes = np.asarray(measure.nodes, dtype=float)
    t_max = float(nodes.max())
    radius = math.sqrt(t_max)
    try:
        _require_state(kind, ladder, radius)
    except DomainError as exc:
        raise DomainError(
            f"identity check at measure node t = {t_max:.6g} (|z| = {radius:.6g}): {exc}"
        ) from exc
    moduli = _series_moduli(kind, ladder, np.sqrt(nodes), levels)
    weighted = np.asarray(measure.weights, dtype=float)[:, None] * moduli
    diag = np.cumsum(weighted, axis=0)[-1]  # node by node, in order: a matmul would reorder it
    return float(np.max(np.abs(diag - 1.0)))
