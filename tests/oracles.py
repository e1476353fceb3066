"""Independent reference computations and randomized-parameter helpers.

Everything here is written from the defining formulas, separately from
the library code paths it cross-checks.
"""

import json
import math
from fractions import Fraction

import numpy as np

from polywh import AlgebraParams, DomainError, classify
from polywh.algebra import ladder_table
from polywh.grassmann import GrassmannElement


def brute_structure(kappas, n) -> Fraction:
    """Plain product form of the structure polynomial."""
    value = Fraction(n)
    for kappa in kappas:
        value = value * (Fraction(1) + Fraction(kappa) * (n - 1))
    return value


def brute_factorial(kappas, n) -> Fraction:
    total = Fraction(1)
    for k in range(1, n + 1):
        total *= brute_structure(kappas, k)
    return total


def bg_kernel_log_moduli(kappas, n_max) -> np.ndarray:
    """log 1/sqrt(F(n)!), summed term by term over the exact F(n)."""
    logs = [0.0]
    acc = 0.0
    for n in range(1, n_max + 1):
        acc += math.log(float(brute_structure(kappas, n)))
        logs.append(-0.5 * acc)
    return np.array(logs)


def truncate_series(step, ratio_sup, tail_tol, max_terms):
    """Term-by-term series cutoff: c_0 = 1, c_n = c_{n-1} * step(n), stopped
    once the geometric bound puts the l2 tail below tail_tol of the norm."""
    coeffs = [1.0 + 0.0j]
    norm2 = 1.0
    n = 0
    while True:
        c_next = coeffs[-1] * step(n + 1)
        q = ratio_sup(n + 1)
        if q < 1.0:
            tail2 = abs(c_next) ** 2 / (1.0 - q * q)
            if tail2 <= tail_tol * tail_tol * norm2:
                return np.array(coeffs, dtype=complex), math.sqrt(tail2 / norm2)
        n += 1
        if n >= max_terms:
            raise DomainError(f"no tail tolerance {tail_tol:g} within {max_terms} terms")
        coeffs.append(c_next)
        norm2 += abs(c_next) ** 2


def series_reference(params: AlgebraParams, kind: str, z, tail_tol=1e-14, max_terms=200_000):
    """(coeffs, tail bound) of an infinite-ladder perelomov or
    barut-girardello series, one exact F(n) per step."""
    z = complex(z)

    def fval(n):
        return float(brute_structure(params.kappas, n))

    def gap(n):
        return float(brute_structure(params.kappas, n + 1) - brute_structure(params.kappas, n))

    if kind == "perelomov":
        k1 = float(params.kappas[0])

        def step(n):
            return z * math.sqrt(fval(n)) / n * np.exp(-1j * gap(n - 1) * params.phi)

        def ratio_sup(j):
            return abs(z) * math.sqrt(max((1.0 + k1 * j) / (j + 1.0), k1))
    else:

        def step(n):
            return z / math.sqrt(fval(n)) * np.exp(-1j * gap(n - 1) * params.phi)

        def ratio_sup(j):
            return abs(z) / math.sqrt(fval(j + 1))

    return truncate_series(step, ratio_sup, tail_tol, max_terms)


def dense_lowering(params: AlgebraParams, m: int) -> np.ndarray:
    """The m x m lowering matrix, <n|lowering|n+1> = sqrt(F(n+1)) e^{i G(n) phi},
    from the exact F and G rounded to double."""
    f = np.array([float(brute_structure(params.kappas, n)) for n in range(1, m)])
    g = np.array([float(brute_structure(params.kappas, n + 1) - brute_structure(params.kappas, n))
                  for n in range(m - 1)])
    return np.diag(np.sqrt(f) * np.exp(1j * g * params.phi), 1)


def identity_deviations_dense(rep):
    """(product, commutator, nilpotency) deviations of a representation by
    dense matrix products and powers, each corner term written out: the
    reference for `algebra.identity_deviations`.  Nilpotency is None unless
    the ladder is finite, the product deviation None for a truncated rep."""
    m = rep.dim_window
    table = ladder_table(rep.params, m)
    comm = rep.lowering @ rep.raising - rep.raising @ rep.lowering
    expected = np.zeros((m, m), dtype=complex)
    s = rep.truncation_order
    if s is not None:
        expected[:s, :s] = np.diag(table.g[:s])
        expected[s - 1, s - 1] -= table.f[s]
        return None, float(np.max(np.abs(comm - expected))), None
    prod_dev = float(np.max(np.abs(rep.raising @ rep.lowering - np.diag(table.f))))
    expected[: m - 1, : m - 1] = np.diag(table.g[: m - 1])
    expected[m - 1, m - 1] = -table.f[m - 1]  # exact when finite, a cutoff artifact otherwise
    comm_dev = float(np.max(np.abs(comm - expected)))
    dim = classify(rep.params)
    nil = None
    if dim.is_finite:
        nil = max(
            float(np.max(np.abs(np.linalg.matrix_power(rep.lowering, dim.d)))),
            float(np.max(np.abs(np.linalg.matrix_power(rep.raising, dim.d)))),
        )
    return prod_dev, comm_dev, nil


def bg_eigen_residual_dense(state, lowering: np.ndarray) -> float:
    """Relative residual of lowering @ c = z c by a dense matvec; a truncated
    series leaves out its last row, which reads the first dropped term."""
    length = len(state.coeffs)
    c = np.zeros(len(lowering), dtype=complex)
    c[:length] = state.coeffs
    rows = slice(0, length if state.cutoff_meta.exact else length - 1)
    resid = (lowering @ c - state.z * c)[rows]
    return float(np.linalg.norm(resid) / np.linalg.norm(state.coeffs))


def nilpotent_exponential_dense(raising: np.ndarray, z) -> np.ndarray:
    """exp(z * raising)|0> as the finite sum of dense matvec terms."""
    v = np.zeros(len(raising), dtype=complex)
    v[0] = 1.0
    term = v.copy()
    for k in range(1, len(raising)):
        term = (raising @ term) * (z / k)
        v = v + term
    return v


def grassmann_eigen_residual_dense(state, lowering: np.ndarray) -> float:
    """Largest component of (lowering acting on the state) - theta * (state),
    one algebra element at a time."""
    theta = GrassmannElement.theta(state.dim)
    worst = 0.0
    for n in range(state.dim):
        if n < state.dim - 1:
            lhs = complex(lowering[n, n + 1]) * state.coeffs[n + 1]
        else:
            lhs = GrassmannElement.zero(state.dim)
        worst = max(worst, (lhs - theta * state.coeffs[n]).max_abs())
    return worst


def complex_z_residual_dense(params: AlgebraParams, z) -> float:
    """Relative residual of lowering @ c = z c for c_n = z^n e^{-i F(n) phi} /
    sqrt(F(n)!) on a finite ladder, by a dense matvec."""
    z = complex(z)
    d = int(1 - 1 / Fraction(params.kappas[0]))
    c = np.array([
        z**n * np.exp(-1j * float(brute_structure(params.kappas, n)) * params.phi)
        / math.sqrt(float(brute_factorial(params.kappas, n)))
        for n in range(d)
    ])
    resid = dense_lowering(params, d) @ c - z * c
    return float(np.linalg.norm(resid) / np.linalg.norm(c))


def coeff_list(coeffs) -> list[dict]:
    """A complex vector as the artifact writes it: one {"re", "im"} dict per entry."""
    return [{"re": float(complex(c).real), "im": float(complex(c).imag)} for c in coeffs]


def json_text_by_dicts(payload: dict) -> str:
    """Artifact text with every 1-D or 2-D complex ndarray turned into
    (lists of) `coeff_list` dicts and the whole dumped by json.dumps."""

    def plain(value):
        if not isinstance(value, np.ndarray):
            return value
        return [coeff_list(row) for row in value] if value.ndim == 2 else coeff_list(value)

    return json.dumps({k: plain(v) for k, v in payload.items()}, indent=2, allow_nan=False) + "\n"


def dense_poly_mul_trunc(a_comps, b_comps, dim):
    """Full polynomial product, then drop degrees >= dim."""
    full = np.convolve(np.asarray(a_comps, complex), np.asarray(b_comps, complex))
    return tuple(full[:dim]) + (0j,) * max(0, dim - len(full))


def glauber_overlap(z1: complex, z2: complex) -> complex:
    """Closed-form overlap of normalized oscillator coherent states."""
    return np.exp(np.conj(z1) * z2 - abs(z1) ** 2 / 2 - abs(z2) ** 2 / 2)


def inverse_square_factorial_sum(x: float, terms: int = 60) -> float:
    """sum_k x^k / (k!)^2, brute force."""
    total = 0.0
    term = 1.0
    for k in range(terms):
        if k > 0:
            term *= x / (k * k)
        total += term
    return total


def hyper_0f_unscaled(ells, x, rel_tol=1e-16):
    """0F_q(ells; x) as one plain float loop, inf once a partial sum overflows."""
    term = total = 1.0
    k = 0
    while abs(term) > rel_tol * abs(total):
        term *= x / ((k + 1) * math.prod(ell + k for ell in ells))
        total += term
        k += 1
    return total


def gauss_rule_from_moments_direct(moments, k):
    """Classical alternative route to a k-node rule from 2k moments:
    orthogonal-polynomial coefficients from the Hankel linear system,
    nodes as its roots, weights from a Vandermonde solve."""
    m = [float(v) for v in moments]
    assert len(m) >= 2 * k
    hankel = np.array([[m[i + j] for j in range(k)] for i in range(k)])
    rhs = -np.array([m[k + i] for i in range(k)])
    coeffs = np.linalg.solve(hankel, rhs)
    poly = np.concatenate([[1.0], coeffs[::-1]])
    nodes = np.sort(np.roots(poly).real)
    vander = np.vander(nodes, k, increasing=True).T
    weights = np.linalg.solve(vander, np.array(m[:k]))
    return nodes, weights


def fraction_det(rows) -> Fraction:
    """Exact determinant by fraction-preserving Gaussian elimination."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
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


def hankel_minors_by_elimination(values):
    """Every leading minor of H = [m_{i+j}] and H' = [m_{i+j+1}], each
    by its own elimination (O(M^4) in all)."""
    values = list(values)
    count = len(values)
    plain = [
        fraction_det([[values[i + j] for j in range(k)] for i in range(k)])
        for k in range(1, (count + 1) // 2 + 1)
    ]
    shifted = [
        fraction_det([[values[i + j + 1] for j in range(k)] for i in range(k)])
        for k in range(1, count // 2 + 1)
    ]
    return plain, shifted


def hankel_minors_by_fractions(values) -> tuple[list[Fraction], list[Fraction]]:
    """Leading minors of H = [m_{i+j}] and H' = [m_{i+j+1}] by the Chebyshev
    algorithm with every table entry a `Fraction`: the reference for the
    integer rows of `measure.hankel_minors`, which must return equal lists.

    One pass of the Chebyshev algorithm gives them in O(M^2) exact
    operations: sigma_{j,l} = <pi_j, t^l> for the monic orthogonal
    polynomials pi_j, so det H_{j+1} = det H_j * sigma_{j,j}, and
    det H'_k = det H_k * D_k with D_k = det J_k = (-1)^k pi_k(0) from
    D_k = alpha_{k-1} D_{k-1} - beta_{k-1} D_{k-2}.  The table divides by
    sigma_{j,j}, so it stops at an exact zero minor: the lists then end
    with that zero (a prefix of the full ones).
    """
    values = [Fraction(v) for v in values]
    plain, shifted = [], []
    row, prev = values, [Fraction(0)] * (len(values) + 2)  # sigma_{j,j+i}, sigma_{j-1,j-1+i}
    det, d, d_prev = Fraction(1), Fraction(1), Fraction(0)  # det H_j, D_j, D_{j-1}
    alpha = beta = ratio = Fraction(0)
    for j in range((len(values) + 1) // 2):
        if j:
            step = zip(row[2:], row[1:], prev[2:])
            row, prev = [a - alpha * b - beta * c for a, b, c in step], row
        sigma = row[0]
        det *= sigma
        plain.append(det)
        if sigma == 0:
            break
        beta = sigma / prev[0] if j else sigma
        if len(row) < 2:
            break
        next_ratio = row[1] / sigma  # sigma_{j,j+1} / sigma_{j,j}
        alpha, ratio = next_ratio - ratio, next_ratio
        d, d_prev = alpha * d - beta * d_prev, d
        shifted.append(det * d)
    return plain, shifted


def recurrence_by_fractions(plain, shifted, count):
    """(alphas, betas) of the Jacobi matrix read off positive minors in
    `Fraction`s, the odd-count last alpha completed to 2 tau + 1: the
    reference for `measure._recurrence`."""
    k = (count + 1) // 2
    sigmas = [h / h_prev for h, h_prev in zip(plain, [Fraction(1), *plain])]  # H_{j+1} / H_j
    betas = [s / s_prev for s, s_prev in zip(sigmas, [Fraction(1), *sigmas])]
    dets = [Fraction(0), Fraction(1), *(s / h for s, h in zip(shifted, plain))]  # D_{-1}, D_0, ...
    alphas = [(dets[j + 2] + betas[j] * dets[j]) / dets[j + 1] for j in range(len(shifted))]
    if len(alphas) < k:
        tau = betas[k - 1] * dets[k - 1] / dets[k]
        alphas.append(2 * tau + 1)
    return alphas, betas


def moment_match_by_fractions(values, nodes, weights):
    """`measure._moment_match` with each target m_n / s^n a `Fraction`."""
    scale = float(nodes.max())
    approx = ((nodes / scale) ** np.arange(len(values))[:, None]) @ weights
    worst, power, exact_scale = 0.0, Fraction(1), Fraction(scale)
    for m_n, a_n in zip(values, approx.tolist()):  # floats: an overflow is inf, silently
        try:
            target = float(m_n / power)
        except OverflowError:
            return math.inf
        if target == 0.0:
            return math.inf
        worst = max(worst, abs(a_n - target) / target)
        power *= exact_scale
    return worst


_EXTRA_KAPPAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2))
_INFINITE_KAPPAS = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)


def random_finite_params(rng, d_max=12, r_max=3, phi_scale=1.0) -> AlgebraParams:
    d = int(rng.integers(2, d_max + 1))
    r = int(rng.integers(1, r_max + 1))
    kappas = [Fraction(-1, d - 1)]
    for _ in range(r - 1):
        kappas.append(_EXTRA_KAPPAS[rng.integers(0, len(_EXTRA_KAPPAS))])
    return AlgebraParams(kappas, float(rng.uniform(-phi_scale, phi_scale)))


def random_infinite_params(rng, r_max=3, phi_scale=1.0) -> AlgebraParams:
    r = int(rng.integers(1, r_max + 1))
    kappas = [_INFINITE_KAPPAS[rng.integers(0, len(_INFINITE_KAPPAS))] for _ in range(r)]
    return AlgebraParams(kappas, float(rng.uniform(-phi_scale, phi_scale)))


def random_z(rng, radius=2.0) -> complex:
    angle = rng.uniform(0, 2 * np.pi)
    return complex(rng.uniform(0, radius) * np.exp(1j * angle))
