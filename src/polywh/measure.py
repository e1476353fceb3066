"""Overcompleteness exhibited through a finite moment-problem solve.

Writing the identity-resolution condition in the number basis and doing
the angular average analytically (the phases between bra and ket cancel
level by level, so off-diagonal terms integrate to zero exactly), the
radial measure in t = |z|^2 must reproduce the moments

    perelomov           m_n = (n!)^2 / F(n)!
    barut-girardello    m_n = F(n)!

for every populated level n.  Both are read off one running integer
product: F(n)! = P_n / Q^n with P_n = prod_{k<=n} F(k) Q, the integer ladder
polynomial of `algebra`, so each moment is one reduced `Fraction`.

On the r = 1 ladders the perelomov moments n! / prod_{j<n} (1 + j kappa)
are those of a classical law (Gautschi 2004, sections 1.5 and 2.1): T =
B/kappa with B ~ Beta(1, 1/kappa - 1) for 0 < kappa < 1, Exp(1) at kappa =
0 (also the barut-girardello law there), and the beta-prime law prop.
(1 + t/s)^-(s+2) for kappa = -1/s, whose moments stop below d = s + 1.
`solve_measure` recognises such a sequence from its values alone, in O(M)
integer products (`_classical_recurrence`), and reads its Jacobi matrix
off a closed form in kappa = p/q: alpha_n = q (q (2n+1) + 2p (n^2-n-1)) /
((q + 2(n-1)p) (q + 2np)) and beta_n = (n q (q + (n-2)p))^2 / ((q +
2(n-1)p)^2 (q + (2n-1)p) (q + (2n-3)p)), Laguerre (2n + 1, n^2) at kappa =
0.  Positivity needs no certificate there: the moments of a law with
infinite support have every plain and shifted Hankel minor positive.  Each
entry equals the ratio the chain below gives and rounds to the same double,
so the rule is the same to the bit; an odd count on the disk (0 < kappa <
1) is the one exception, below.  Every other sequence (barut-girardello
at kappa > 0, r >= 2, kappa >= 1, which is refused at H_2, and any other
`MomentSequence`) goes through the chain.  A discrete positive measure
with the supplied moments is produced there by

    moments -> Chebyshev table (exact)  -> signs of the Hankel minors H_k, H'_k
            -> recurrence alpha_j, beta_j read off the same rows (exact)
            -> Jacobi matrix -> Gauss nodes and weights (float).

One exact pass of the Chebyshev algorithm, O(M^2) operations for M
moments, decides exactly whether a measure on (0, inf) exists: it does
when every plain and shifted Hankel minor is positive.  The pass does not
build the minors.  A plain minor H_{j+1} = H_j sigma_{j,j} is positive
exactly when its pivot is, and a shifted one H'_j = H_j D_j when the
pivots r_j = D_j / D_{j-1} of the LDL^T factorisation of the Jacobi matrix
are: r_1 = alpha_0, r_{j+1} = alpha_j - beta_j / r_j.  `solve_measure`
bounds each r_j from below in floats rounded outward, from the pass's
exact alpha_j and beta_j (a filtered predicate, Shewchuk 1997); a positive
bound certifies the minor.  Only where a pivot or a bound is not positive
are the minors built as reduced Fractions (`HankelMinors`, on first read);
they then decide, and a failure names the first nonpositive one.  The
pass runs on Python integers, not Fractions: each row of the table is a
list of integers over one common denominator, and after each update one
gcd takes the content out of the row, which keeps its integers as small
as the reduced fractions would be (a gcd on every Fraction operation was
most of the cost).  Plain fraction-free elimination (Bareiss 1968), with
one exact division per update and no content gcd, loses here: its
unreduced integers grow with every row and come out slower than Fractions
on the kappa = p/q families.  The Chebyshev algorithm yields the
recurrence coefficients directly (Gautschi 2004, section 2.1): each is an
unreduced ratio of integers the pass already holds, so no minor is divided
back into them.  Raw-moment recurrences are notoriously ill-conditioned
in floating point; exact arithmetic sidesteps that and makes the checks
decisive rather than heuristic.  The float endgame takes the nodes from
``eigvalsh`` of the Jacobi matrix, polishes them by Newton steps on the
orthogonal polynomial (each pass carries the polynomial and its
derivative as the two rows of one array), and takes the weights as
Christoffel numbers from one last pass of the orthonormal three-term
recurrence, which keeps the small tail weights accurate to a few ulp
where eigenvector weights lose them (Gautschi,
Orthogonal Polynomials: Computation and Approximation, OUP 2004, sections
2.1 and 3.1).  A Christoffel sum past the double range means a weight
under the normal range of a double (the finite ladder d = 100 has one);
that is a `DomainError` naming the node, with no overflow warning.  The
rule is accepted only if it reproduces every supplied moment to 1e-8.

With an odd number of supplied moments the last diagonal recurrence
coefficient is not pinned down by them.  On the perelomov disk (r = 1, 0 <
kappa < 1) the law pins it: the rule takes the law's own alpha_{k-1}, the
one the chain gives on one more moment, so it is the k-node Gauss rule of
the law, with every node inside its support (0, 1/kappa) and so inside the
existence disk of the states.  Everywhere else (kappa = 0, the finite
ladders, and the chain) it is completed just above the exact
Schur-complement positivity threshold, which keeps every node strictly
positive while still matching all supplied moments.

The rule is checked against the states themselves by reassembling the
identity diagonal sum_j w_j |c_n(sqrt(t_j))|^2.  The state at the largest
node decides that the state of every node exists (|c_n(z)| grows with
|z|).  On the perelomov disk (r = 1, kappa > 0) the closed form of |c_n|^2
certifies in O(log n) that the series there meets its tail cut with every
coefficient in range (`coherent._always_cut`); only where it cannot is
that state built, as it is for every other ladder, and its failure is
raised again with the check, the node and |z| in front.  The leading
moduli of all nodes then come from the constructors' own series routine
run once over a column of all the nodes (`coherent._series_moduli`),
bit-equal to the coefficients each node's own state would give, and are
summed node by node in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraParams, _freeze, _scaled_factorials, classify
from .coherent import (
    DEFAULT_TAIL_TOL,
    MAX_SERIES_TERMS,
    StateKind,
    _always_cut,
    _outside_disk,
    _series_moduli,
    bg_state,
    perelomov_state,
)
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
    scaled = _scaled_factorials(params, count)  # (F(n)! Q^n, Q^n)
    if kind is StateKind.PERELOMOV:
        values = tuple(
            Fraction(math.factorial(n) ** 2 * power, product)
            for n, (product, power) in enumerate(scaled)
        )
    else:
        values = tuple(Fraction(product, power) for product, power in scaled)
    if any(v.numerator <= 0 for v in values):
        raise DomainError("moment sequence has a nonpositive entry")
    return MomentSequence(values, kind)


class HankelMinors:
    """The result of `hankel_minors`.  It reads as the pair ``(plain,
    shifted)`` of Fraction lists: iteration, indexing, ``len`` and ``==``
    (against a tuple or another result) behave as a tuple's.  The pair is
    built from the pass's integers on its first read (`_exact_minors`) and
    kept.  ``alphas`` and ``betas`` are the Jacobi entries alpha_j and
    beta_j of the same pass as unreduced integer ratios (num, den), den > 0
    where every minor is positive: num / den rounds as float(Fraction) does.
    ``sigmas`` are the pivots den_j sigma_{j,j}, one per plain minor, each
    with the sign of H_{j+1} / H_j.  Copy and pickle keep all of it."""

    def __init__(self, sigmas, dens, alphas, betas, shifted_count):
        self.sigmas, self._dens = tuple(sigmas), tuple(dens)
        self.alphas, self.betas = tuple(alphas), tuple(betas)
        self._shifted_count, self._pair = shifted_count, None

    def _minors(self):
        if self._pair is None:
            self._pair = _exact_minors(self.sigmas, self._dens, self.alphas[: self._shifted_count])
        return self._pair

    def __iter__(self):
        return iter(self._minors())

    def __len__(self):
        return 2

    def __getitem__(self, index):
        return self._minors()[index]

    def __eq__(self, other):
        if isinstance(other, HankelMinors):
            other = other._minors()
        return self._minors() == other if isinstance(other, tuple) else NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"HankelMinors{self._minors()!r}"


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
    as small as the reduced fractions.  The same integers give the
    recurrence: alpha_j = b / a and beta_j = N_j[0] den_{j-1} / (den_j
    N_{j-1}[0]).  The pass keeps the pivots N_j[0] and den_j, and builds the
    minors from them only when they are read (`_exact_minors`):
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
    return HankelMinors(sigmas, dens, alphas, betas, shifted_count)


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


def _gauss_rule(alphas: np.ndarray, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule of a Jacobi matrix.

    The eigenvalues are polished by Newton steps on the degree-k
    orthogonal polynomial, and the weights are the Christoffel numbers
    1/sum_{n<k} p_n(t)^2 of the orthonormal polynomials p_n, all evaluated
    by the three-term recurrence (Gautschi 2004, sections 2.1 and 3.1).
    Each Newton pass carries p_n and its derivative as the two rows of one
    array (`_orthonormal_values`); only the last pass, at the polished
    nodes, carries p_n alone and sums the squares (`_christoffel_sums`);
    each pass takes its shifts t - alpha_n at once and reads ``off`` as a
    list.  Weights from the eigenvectors (Golub-Welsch) lose the relative
    accuracy of the small weights far out in the tail.  A node whose
    Christoffel sum passes the double range has a weight under the normal
    range of a double: that is a `DomainError` naming the node (its
    eigenvalue, unpolished).
    """
    off = np.sqrt(betas)
    nodes = np.linalg.eigvalsh(np.diag(alphas) + np.diag(off[1:], 1) + np.diag(off[1:], -1))
    polished, off = nodes, off.tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
        for _ in range(NEWTON_STEPS):
            value, slope = _orthonormal_values(alphas, off, polished)
            polished = polished - value / slope
        squares = _christoffel_sums(alphas, off, polished)
    lost = np.flatnonzero(~np.isfinite(squares))
    if lost.size:
        raise DomainError(
            f"the Christoffel sum at measure node t = {nodes[lost[0]]:.6g} passes the double "
            f"range: its weight is below {1.0 / np.finfo(float).max:.3g}, under the normal range"
        )
    return polished, 1.0 / squares


def _orthonormal_values(alphas, off, t):
    """sqrt(beta_k) p_k(t) and its derivative in t, as the two rows of one array.

    The p_n are orthonormal for the mass beta_0 = off[0]^2:
    sqrt(beta_{n+1}) p_{n+1} = (t - alpha_n) p_n - sqrt(beta_n) p_{n-1}, and
    the derivative row adds p_n to (t - alpha_n) p'_n before the second
    term, as p_n + (t - alpha_n) p'_n - sqrt(beta_n) p'_{n-1} is evaluated."""
    rows = np.zeros((2, len(t)))  # p_n, p'_n
    rows[0] = 1.0 / off[0]
    prev = np.zeros_like(rows)
    for n, shift in enumerate(t - alphas[:, None]):
        new = shift * rows
        new[1] += rows[0]
        new -= off[n] * prev
        if n + 1 < len(alphas):
            prev, rows = rows, new / off[n + 1]
    return new


def _christoffel_sums(alphas, off, t):
    """sum_{n<k} p_n(t)^2, the p_n of `_orthonormal_values`."""
    p_prev, p = np.zeros_like(t), np.full_like(t, 1.0 / off[0])
    squares = p * p
    for n, shift in enumerate(t - alphas[:-1, None]):
        p_prev, p = p, (shift * p - off[n] * p_prev) / off[n + 1]
        squares += p * p
    return squares


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
    closed form, and the law is their positivity certificate.  Any other
    sequence goes through the exact Chebyshev pass (`hankel_minors`), whose
    pivots and recurrence certify that every plain and shifted Hankel minor
    is positive (`_certified`).  Where they cannot, the exact minors decide,
    a failure naming the first nonpositive one (plain first).  Either way
    the coefficients are integer ratios whose true division rounds each
    exactly as float(Fraction) would.
    """
    values = list(moments.values)
    count = len(values)
    if count < 1:
        raise ValueError("need at least one moment")
    minors = None
    recurrence = _classical_recurrence(values)
    if recurrence is None:
        minors = hankel_minors(values)
        recurrence = minors.alphas, minors.betas
    alphas, betas = recurrence
    try:
        alpha_f = [num / den for num, den in alphas]
        beta_f = [num / den for num, den in betas]
    except (OverflowError, ZeroDivisionError):  # ZeroDivisionError: a zero shifted minor
        alpha_f = beta_f = None
    if minors is not None and not _certified(minors.sigmas, alpha_f, beta_f, count // 2):
        plain, shifted = minors
        for idx, det in enumerate(plain, start=1):
            if det.numerator <= 0:
                raise DomainError(
                    f"moment sequence is not positive-definite: Hankel minor H_{idx} = {det}"
                )
        for idx, det in enumerate(shifted, start=1):
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
    alpha_f, beta_f = np.array(alpha_f), np.array(beta_f)
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

    The state at the largest node decides whether every state of the rule
    exists: |c_n(z)| = |z|^n |c_n(1)| grows with |z|, so the existence
    disk, an overflow or the term cap is met there first.  The disk is
    checked first.  On an r = 1 ladder with kappa > 0 the perelomov closed
    form then certifies, where it can, that the constructor would succeed
    there at the default tolerance and term cap (`coherent._always_cut`),
    and the state is not built.  Otherwise one constructor call at that
    node decides, and its `DomainError` is raised again with the check,
    the node t and |z| in front.  The moduli of all nodes then come from
    the rows of the constructor's own series routine over the leading
    levels (`coherent._series_moduli`), bit-equal to each node's own
    state, and are summed in node order.
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
    if kind is StateKind.BARUT_GIRARDELLO or not _always_cut(
        params, radius, DEFAULT_TAIL_TOL, MAX_SERIES_TERMS
    ):
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
