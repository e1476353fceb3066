"""Independent reference computations and randomized-parameter helpers.

Everything here is written from the defining formulas, separately from
the library code paths it cross-checks.
"""

import math
from fractions import Fraction

import numpy as np

from polywh import AlgebraParams, DomainError


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
