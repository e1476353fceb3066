"""Growth of the analytic functions attached to lowering eigenstates.

A square-summable vector (f_n) is represented by the entire function

    f_phi(z) = sum_n f_n z^n e^{-i F(n) phi} / sqrt(F(n)!),

bounded by the eigenstate normalization |N(z)| (Cauchy-Schwarz against
the kernel).  The kernel coefficients 1/sqrt(F(n)!) decay fast enough to
make these functions of finite order, and order/type are read off the
coefficient decay:

    order rho from  log(1/|c_n|) ~ (1/rho) n log n + beta n,
    type  sigma = e^{-beta rho - 1} / rho,

which for the reciprocal-integer family kappa_i = 1/ell_i has the closed
form rho = 2/(1+q), sigma = ((1+q)/2) (ell_1 ... ell_q)^{1/(1+q)} with q
the number of nonzero kappas.

Coefficient sequences are stored as log-moduli throughout: generalized
factorials overflow double precision near n = 170, while their logs
accumulate harmlessly to any index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraParams,
    _freeze,
    classify,
    ladder_table,
    reciprocal_ells,
)
from .coherent import _bg_normalization_scaled
from .errors import DomainError

__all__ = [
    "EntireSeries",
    "GrowthEstimate",
    "bargmann_eval",
    "schwarz_check",
    "estimate_growth",
    "closed_form_growth",
]

MIN_COEFFS = 200


@dataclass(frozen=True)
class EntireSeries:
    """Coefficient moduli |c_n| of an entire series, kept as log |c_n|."""

    log_moduli: np.ndarray
    meta: str = ""
    polynomial: bool = False

    @classmethod
    def from_moduli(cls, moduli, meta: str = "", polynomial: bool = False) -> "EntireSeries":
        m = np.asarray(moduli, dtype=float)
        if m.size == 0 or m[0] <= 0:
            raise ValueError("c_0 must be present and nonzero")
        if not polynomial and np.any(m <= 0):
            raise ValueError("zero coefficients are only allowed when flagged polynomial")
        with np.errstate(divide="ignore"):
            logs = np.log(m)
        return cls(_freeze(logs), meta, polynomial)

    @classmethod
    def from_log_moduli(cls, log_moduli, meta: str = "") -> "EntireSeries":
        logs = np.asarray(log_moduli, dtype=float).copy()
        if logs.size == 0:
            raise ValueError("c_0 must be present")
        return cls(_freeze(logs), meta)

    @classmethod
    def bg_kernel(cls, params: AlgebraParams, n_max: int) -> "EntireSeries":
        """The eigenstate kernel 1/sqrt(F(n)!), accumulated in log space."""
        if classify(params).is_finite:
            raise DomainError("the kernel series needs an infinite ladder")
        logs = -0.5 * ladder_table(params, n_max + 1).log_factorial
        return cls(_freeze(logs), meta=f"bg kernel, r = {params.r}")

    def __len__(self) -> int:
        return len(self.log_moduli)

    @property
    def moduli(self) -> np.ndarray:
        return np.exp(self.log_moduli)


@dataclass(frozen=True)
class GrowthEstimate:
    """Fitted order/type, the window used, and the fit residual.

    ``rho_raw``/``sigma_raw`` are the textbook n -> infinity limit
    expressions evaluated at the last index; they converge only at a
    O(1/log n) rate and are reported for comparison."""

    rho_hat: float
    sigma_hat: float
    fit_window: tuple[int, int]
    residual: float
    rho_raw: float
    sigma_raw: float


def bargmann_eval(params: AlgebraParams, f_coeffs, z) -> complex | np.ndarray:
    """sum_n f_n z^n e^{-i F(n) phi} / sqrt(F(n)!) for a finite vector f, at z or a z-array."""
    reciprocal_ells(params)  # the transform is set up for the reciprocal-integer family
    f = np.asarray(f_coeffs, dtype=complex)
    kernel = ladder_table(params, len(f)).kernel(params.phi)
    values = np.polyval((f * kernel)[::-1], np.asarray(z, dtype=complex))  # Horner
    return complex(values) if values.ndim == 0 else values


def schwarz_check(params: AlgebraParams, f_coeffs, z_grid) -> float:
    """max over the grid of |f_phi(z)| - |N(z)| for a normalized f.

    Cauchy-Schwarz against the kernel makes this nonpositive; numerically
    it never exceeds zero by more than rounding (<= 1e-10).  A point where
    |N| passes the double range has excess -inf: the bound holds there."""
    f = np.asarray(f_coeffs, dtype=complex)
    nrm2 = float(np.sum(np.abs(f) ** 2))
    if abs(nrm2 - 1.0) > 1e-12:
        raise ValueError(f"f must be normalized: sum |f_n|^2 = {nrm2!r}")
    z_grid = np.asarray(z_grid, dtype=complex)
    if not z_grid.size:
        return -math.inf
    mantissa, exponent = _bg_normalization_scaled(params, z_grid)
    with np.errstate(over="ignore"):  # |N| past the double range: inf, and the bound holds there
        bound = np.ldexp(mantissa, exponent)
    excess = np.abs(bargmann_eval(params, f, z_grid)) - bound
    return float(np.max(excess))


def estimate_growth(series: EntireSeries) -> GrowthEstimate:
    """Least-squares order/type from the tail of log(1/|c_n|).

    For a function of order rho and type sigma the coefficients follow
    |c_n| ~ (e rho sigma / n)^{n/rho}, i.e.

        log(1/|c_n|) = (1/rho) n log n + beta n   with   sigma = e^{-beta rho - 1}/rho,

    fitted over the top half of the index range with an intercept so that
    constant rescalings of the coefficients change neither estimate.
    """
    y_all = -series.log_moduli
    if series.polynomial or not np.all(np.isfinite(y_all)):
        raise DomainError("polynomial (terminating) coefficient sequences have no growth order")
    n_max = len(y_all) - 1
    if n_max + 1 < MIN_COEFFS:
        raise DomainError(f"need at least {MIN_COEFFS} coefficients, got {n_max + 1}")
    lo = max(1, n_max // 2)
    n = np.arange(lo, n_max + 1, dtype=float)
    y = y_all[lo:]
    design = np.column_stack([n * np.log(n), n, np.ones_like(n)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope, beta, _ = coef
    if slope <= 1e-3:
        raise DomainError(
            "coefficient decay is not of finite-positive-order entire type "
            "(geometric or slower); the order fit is degenerate"
        )
    rho = 1.0 / slope
    sigma = math.exp(-beta * rho - 1.0) / rho
    residual = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    y_last = y_all[n_max]
    rho_raw = n_max * math.log(n_max) / y_last
    sigma_raw = n_max * math.exp(-rho * y_last / n_max) / (math.e * rho)
    return GrowthEstimate(
        float(rho), float(sigma), (lo, n_max), residual, float(rho_raw), float(sigma_raw)
    )


def closed_form_growth(params: AlgebraParams) -> tuple[float, float]:
    """(rho, sigma) of the eigenstate kernel for kappa_i = 1/ell_i:
    rho = 2/(1+q) and sigma = ((1+q)/2) (ell_1 ... ell_q)^{1/(1+q)},
    with q the number of nonzero kappas."""
    ells = reciprocal_ells(params)
    q = len(ells)
    rho = 2.0 / (1 + q)
    sigma = (1 + q) / 2.0 * float(math.prod(ells)) ** (1.0 / (1 + q))
    return rho, sigma
