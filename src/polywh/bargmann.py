"""Growth of the entire functions attached to lowering eigenstates.

A vector (f_n) is the function f_phi(z) = sum_n f_n z^n e^{-i F(n) phi} /
sqrt(F(n)!), bounded by the normalization |N(z)| (Cauchy-Schwarz against
the kernel).  Coefficient sequences are kept as log-moduli: F(n)! passes
the double range near n = 170, its log never.  Order and type are fitted
at SAMPLE indices of the top half of a series (`_fit`); the kernel's come
from the closed form of log F(n)! that the series share, the
barut-girardello term law at |z| = 1 (`coherent._term_law`), at those
indices alone (`kernel_growth`), so growth builds and keeps no kernel
table.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    AlgebraParams,
    _freeze,
    _table_rows,
    classify,
    ladder_table,
    reciprocal_ells,
)
from .coherent import StateKind, _bg_normalization_scaled, _term_law
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
SAMPLE = 32  # fit indices, evenly spaced over the top half n_max // 2 .. n_max
GAMMA_TOL = 1e-3  # the largest rounding bound at which gamma_hat is reported


@dataclass(frozen=True, eq=False)
class EntireSeries:
    """Coefficient moduli |c_n| of an entire series, kept as log |c_n|."""

    log_moduli: np.ndarray
    meta: str = ""
    polynomial: bool = False

    @classmethod
    def from_moduli(cls, moduli, meta: str = "", polynomial: bool = False) -> "EntireSeries":
        """A NaN or negative modulus, a missing or zero c_0, or another zero
        without ``polynomial`` is a ValueError."""
        m = np.asarray(moduli, dtype=float)
        _refuse(~(m >= 0), m, "|c_n|")
        if m.size == 0 or m[0] <= 0:
            raise ValueError("c_0 must be present and nonzero")
        if not polynomial and np.any(m <= 0):
            raise ValueError("zero coefficients are only allowed when flagged polynomial")
        with np.errstate(divide="ignore"):
            logs = np.log(m)
        return cls(_freeze(logs), meta, polynomial)

    @classmethod
    def from_log_moduli(cls, log_moduli, meta: str = "") -> "EntireSeries":
        """A NaN log-modulus or a missing c_0 is a ValueError."""
        logs = np.asarray(log_moduli, dtype=float).copy()
        _refuse(np.isnan(logs), logs, "log |c_n|")
        if logs.size == 0:
            raise ValueError("c_0 must be present")
        return cls(_freeze(logs), meta)

    @classmethod
    def bg_kernel(cls, params: AlgebraParams, n_max: int) -> "EntireSeries":
        """The eigenstate kernel 1/sqrt(F(n)!), n <= n_max, as -1/2 cumsum(log
        F(1..n)), summed in place over the F rows of `_table_rows`, whose
        buffer is frozen with it.  A non-integer n_max is a TypeError and a
        negative one a ValueError; a finite ladder, or F(n) Q or a row count
        past what float64 or numpy can hold, is a `DomainError`."""
        _check_kernel(params, n_max)
        logs = _table_rows(params, n_max + 1)[0]
        logs[0] = 0.0  # log F(0)! = 0
        np.log(logs[1:], out=logs[1:])
        np.cumsum(logs, out=logs)
        logs *= -0.5
        _freeze(logs.base)
        return cls(_freeze(logs), meta=f"bg kernel, r = {params.r}")

    def __len__(self) -> int:
        return len(self.log_moduli)

    @property
    def moduli(self) -> np.ndarray:
        return np.exp(self.log_moduli)


def _refuse(bad: np.ndarray, values: np.ndarray, name: str, error=ValueError, why="") -> None:
    """An ``error`` naming the first entry of ``values`` where ``bad`` holds."""
    if bad.any():
        n = int(np.argmax(bad))
        raise error(f"{name} at n = {n} is {float(values[n])!r}{why}")


def _check_kernel(params: AlgebraParams, n_max) -> None:
    """A TypeError for an n_max that is not an integer, a ValueError for a
    negative one, and a `DomainError` for a finite ladder."""
    if not isinstance(n_max, numbers.Integral):
        raise TypeError(f"n_max must be an integer, got n_max = {n_max!r}")
    if n_max < 0:
        raise ValueError(f"n_max must be at least 0, got n_max = {n_max}")
    if classify(params).is_finite:
        raise DomainError("the kernel series needs an infinite ladder")


@dataclass(frozen=True)
class GrowthEstimate:
    """Fitted order/type, the window used, the RMS residual of the fit at
    its SAMPLE indices, and the fitted log n coefficient ``gamma_hat``
    (1/4 + 1/2 sum_i (1/kappa_i - 1/2) for the kernel, over kappa_i > 0),
    None where its rounding bound passes GAMMA_TOL (`_fit`).

    ``rho_raw``/``sigma_raw`` are the textbook n -> infinity limit
    expressions evaluated at the last index; they converge only at a
    O(1/log n) rate and are reported for comparison."""

    rho_hat: float
    sigma_hat: float
    fit_window: tuple[int, int]
    residual: float
    rho_raw: float
    sigma_raw: float
    gamma_hat: float | None


def bargmann_eval(params: AlgebraParams, f_coeffs, z) -> complex | np.ndarray:
    """sum_n f_n z^n e^{-i F(n) phi} / sqrt(F(n)!) for a finite vector f, at z or a z-array.

    Kappas not of the form 1/ell, a NaN z, or a value or phase past the
    double range, are a `DomainError`."""
    reciprocal_ells(params)  # the transform is set up for the reciprocal-integer family
    z = np.asarray(z, dtype=complex)
    if np.isnan(z).any():
        raise DomainError("z must not be NaN")
    f = np.asarray(f_coeffs, dtype=complex)
    kernel = ladder_table(params, len(f)).kernel(params.phi)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: refused below
        values = np.polyval((f * kernel)[::-1], z)  # Horner
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DomainError(
            f"Bargmann transform overflows double precision at z = {complex(z.flat[bad[0]]):g}"
        )
    return complex(values) if values.ndim == 0 else values


def schwarz_check(params: AlgebraParams, f_coeffs, z_grid) -> float:
    """max over the grid of |f_phi(z)| - |N(z)| for a normalized f (else a
    ValueError), nonpositive by Cauchy-Schwarz up to rounding; -inf on an
    empty grid, and at a point where |N| passes the double range.  A NaN
    point is a `DomainError`, as in `bargmann_eval`."""
    f = np.asarray(f_coeffs, dtype=complex)
    nrm2 = float(np.sum(np.abs(f) ** 2))
    if abs(nrm2 - 1.0) > 1e-12:
        raise ValueError(f"f must be normalized: sum |f_n|^2 = {nrm2!r}")
    z_grid = np.asarray(z_grid, dtype=complex)
    if not z_grid.size:
        return -math.inf
    mantissa, exponent = _bg_normalization_scaled(reciprocal_ells(params), z_grid)
    with np.errstate(over="ignore"):  # |N| past the double range: inf, and the bound holds there
        bound = np.ldexp(mantissa, exponent)
    excess = np.abs(bargmann_eval(params, f, z_grid)) - bound
    return float(np.max(excess))


def estimate_growth(series: EntireSeries) -> GrowthEstimate:
    """Order, type and log n coefficient of the series from `_fit` on its
    log-moduli at the SAMPLE indices of the top half of its indices.  A
    polynomial, a log-modulus that is not finite (named by its first index),
    fewer than MIN_COEFFS coefficients, a slope under 1e-3 or an estimate
    past the double range is a `DomainError`."""
    logs = series.log_moduli
    if series.polynomial:
        raise DomainError("polynomial (terminating) coefficient sequences have no growth order")
    _refuse(~np.isfinite(logs), logs, "log |c_n|", DomainError, ": no growth order to fit")
    n = _sample(len(logs) - 1)
    return _fit(n, np.negative(logs[n]))


def kernel_growth(params: AlgebraParams, n_max: int) -> GrowthEstimate:
    """`estimate_growth` of `EntireSeries.bg_kernel(params, n_max)`, from the
    kernel at its SAMPLE fit indices alone, in closed form: -log of the
    kernel is 1/2 log F(n)! = -1/2 log|c_n|^2 of the barut-girardello series
    at |z| = 1, read off its term law (`coherent._term_law`), which is None
    there only where a kappa_i or 1/kappa_i leaves the double range.  Time
    and memory do not depend on n_max.  A non-integer n_max is a TypeError
    and a negative one a ValueError; a finite ladder, a kappa_i or 1/kappa_i
    past the double range, an n_max past 2**53 (where the indices stop
    being exact doubles) and the refusals of `estimate_growth` are
    `DomainError`s."""
    _check_kernel(params, n_max)
    law = _term_law(StateKind.BARUT_GIRARDELLO, params, 1.0)
    if law is None:
        raise DomainError(f"kappa = {','.join(map(str, params.kappas))}: a kappa_i or "
                          "1/kappa_i passes the double range")
    if n_max > 2**53:
        raise DomainError(f"n_max = {n_max} passes 2**53, where the indices are not exact doubles")
    n, terms = _sample(n_max), law[0]
    return _fit(n, np.array([-0.5 * terms(i)[0] for i in n]))


def _sample(n_max: int) -> list[int]:
    """The SAMPLE fit indices, evenly spaced from n_max // 2 to n_max, both
    included; fewer than MIN_COEFFS coefficients is a `DomainError`."""
    if n_max + 1 < MIN_COEFFS:
        raise DomainError(f"need at least {MIN_COEFFS} coefficients, got {n_max + 1}")
    return [n_max // 2 + k * (n_max - n_max // 2) // (SAMPLE - 1) for k in range(SAMPLE)]


def _fit(n: list[int], y: np.ndarray) -> GrowthEstimate:
    """Least-squares fit of y(n) = -log |c_n| at the indices n, the last
    n_max, by the kernel's Stirling expansion (DLMF 5.11.1) through 1/n^2:
    y = (1/rho) n log n + beta n + gamma log n + const + delta/n + eps/n^2,
    with sigma = e^{-beta rho - 1} / rho, which the intercept keeps fixed
    under a rescaling of the c_n.  Without the 1/n^2 term sigma errs 2.6e-7
    at n_max = 2,022 (ell = 6, 5).  The columns are taken in t = n / n_max,
    on [1/2, 1] at any n_max: 1, t - 3/4, t log t, log t, 1/t and 1/t^2 span
    the six above, and the coefficients c_1 of t - 3/4 and c_2 of t log t
    give rho = n_max / c_2 and sigma = c_2 e^{-c_1/c_2 - 1}.  The fit is
    linear in y and is made on y over max |y|, so that no square passes the
    double range.  It is a QR of the columns with y appended, by modified
    Gram-Schmidt, whose least-squares solution is backward stable (Bjorck
    1967), and back substitution: more accurate than LAPACK's `lstsq` here,
    which would add about 0.5 MB of peak RSS to every process that runs it
    once.  The log t coefficient gamma is the most ill-conditioned: a
    rounding of eps max |y| in every y moves it by at most
    |e_3^T R^-1 Q^T|_1 eps max |y| <= sqrt(m) |e_3^T R^-1|_2 eps max |y|,
    with Q (orthonormal) and R the QR's own and m the sample size, and
    gamma_hat is None where that absolute bound passes GAMMA_TOL (from
    n_max near 10^6 on; the two norms differ by 14% on this sample).  A
    slope 1/rho under 1e-3 or a t log t coefficient under 1e-9 of max |y|
    (which the fit cannot tell from its rounding), or a value past the
    double range (named), is a `DomainError`."""
    n_max, y_last = n[-1], y[-1]
    t = np.array(n, dtype=float) / n_max
    scale = float(np.max(np.abs(y))) or 1.0
    q = np.array([np.ones_like(t), t - 0.75, t * np.log(t), np.log(t), 1 / t, t**-2, y / scale])
    r = np.zeros((7, 7))
    for j in range(7):
        r[j, j] = math.sqrt(q[j] @ q[j])
        q[j] /= r[j, j] or 1.0
        r[j, j + 1:] = q[j + 1:] @ q[j]
        q[j + 1:] -= r[j, j + 1:, None] * q[j]
    coef = np.append(np.zeros(6), -1.0)  # -1 for y: rows 0 to 5 of r @ coef vanish
    for j in range(5, -1, -1):
        coef[j] = -(r[j, j + 1:] @ coef[j + 1:]) / r[j, j]
    # row 3 of R^-1, zero before column 3: R^T u = e_3 by forward substitution
    (r33, r34, r35), (_, r44, r45), (_, _, r55) = r[3:6, 3:6].tolist()
    u3 = 1.0 / r33
    u4 = -u3 * r34 / r44
    u5 = -(u3 * r35 + u4 * r45) / r55
    gamma_err = math.sqrt(len(n)) * math.hypot(u3, u4, u5) * sys.float_info.epsilon * scale
    with np.errstate(all="ignore"):  # a value past the double range: refused below
        c1, c2, gamma = coef[1:4] * scale
        if not (c2 / n_max > 1e-3 and coef[2] > 1e-9):  # below 1e-9 of max |y|: rounding
            raise DomainError("coefficient decay is not of finite-positive-order entire type "
                              "(geometric or slower); the order fit is degenerate")
        values = {"rho_hat": n_max / c2, "sigma_hat": c2 * np.exp(-c1 / c2 - 1.0),
                  "residual": scale * r[6, 6] / math.sqrt(len(n)),
                  "gamma_hat": gamma if gamma_err <= GAMMA_TOL else None,
                  "rho_raw": n_max * math.log(n_max) / y_last,
                  "sigma_raw": c2 * np.exp(-y_last / c2 - 1.0)}
    for name, value in values.items():
        if value is not None and not np.isfinite(value):
            raise DomainError(f"the growth estimate passes the double range: {name} = {value:.17g}")
    return GrowthEstimate(fit_window=(n[0], n_max),
                          **{k: v if v is None else float(v) for k, v in values.items()})


def closed_form_growth(params: AlgebraParams) -> tuple[float, float]:
    """(rho, sigma) of the eigenstate kernel on an infinite ladder (every
    kappa_i >= 0): rho = 2/(1+q) and sigma = ((1+q)/2) P^{1/(1+q)} with
    P = 1/(kappa_1 ... kappa_q) over the q nonzero kappas, taken exactly (for
    kappa_i = 1/ell_i, P = ell_1 ... ell_q).  A finite ladder is a
    `DomainError`, and so is a P past the normal double range, above or below."""
    if classify(params).is_finite:
        raise DomainError("the kernel series needs an infinite ladder")
    nonzero = [kappa for kappa in params.kappas if kappa]
    q = len(nonzero)
    product = 1 / math.prod(nonzero, start=Fraction(1))  # compared exactly; subnormal rounds sigma
    if not sys.float_info.min <= product <= sys.float_info.max:
        raise DomainError(f"kappa = {','.join(map(str, params.kappas))}: 1/(kappa_1 ... "
                          "kappa_q) passes the double range")
    return 2.0 / (1 + q), (1 + q) / 2.0 * float(product) ** (1.0 / (1 + q))
