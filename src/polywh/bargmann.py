"""Growth of the entire functions attached to lowering eigenstates.

A vector (f_n) is the function f_phi(z) = sum_n f_n z^n e^{-i F(n) phi} /
sqrt(F(n)!), bounded by the normalization |N(z)| (Cauchy-Schwarz against
the kernel).  Coefficient sequences are kept as log-moduli: F(n)! passes
the double range near n = 170, its log never.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    AlgebraParams,
    _freeze,
    _ladder_rows,
    _table_rows,
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
KERNEL_LADDERS = 8  # -1/2 log F(n)! tables kept by `EntireSeries.bg_kernel`, one per ladder
KERNEL_ROWS = 1 << 16  # longest table kept (512 KiB); a longer kernel is built and not kept

# kappas -> read-only -1/2 log F(n)!, n < len; least recently used first
_KERNELS: dict[tuple[Fraction, ...], np.ndarray] = {}
_NO_TABLE = _freeze(np.zeros(0))


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
        F(1..n)): a read-only prefix of the ladder's kept table (`_kernel_table`).
        A finite ladder is a `DomainError`; a negative n_max + 1 is the
        ValueError of `_table_rows`."""
        if classify(params).is_finite:
            raise DomainError("the kernel series needs an infinite ladder")
        return cls(_kernel_table(params, n_max + 1), meta=f"bg kernel, r = {params.r}")

    def __len__(self) -> int:
        return len(self.log_moduli)

    @property
    def moduli(self) -> np.ndarray:
        return np.exp(self.log_moduli)


def _refuse(bad: np.ndarray, values: np.ndarray, name: str) -> None:
    """A ValueError naming the first entry of ``values`` where ``bad`` holds."""
    if bad.any():
        n = int(np.argmax(bad))
        raise ValueError(f"{name} at n = {n} is {float(values[n])!r}")


def _kernel_table(params: AlgebraParams, size: int) -> np.ndarray:
    """-1/2 log F(n)!, n < size, read-only: a prefix of the table kept for
    params.kappas, extended first where it is shorter.  The table moves to
    the most recently used end of `_KERNELS`, which keeps KERNEL_LADDERS.  A
    size outside 0..KERNEL_ROWS is built from n = 0 and not kept, so it
    leaves `_KERNELS` as it was and is refused as the cold build refuses."""
    if not 0 <= size <= KERNEL_ROWS:
        return _kernel(params, size)
    table = _KERNELS.get(params.kappas, _NO_TABLE)
    if size > len(table):
        table = _kernel(params, size, table)
    _KERNELS.pop(params.kappas, None)
    _KERNELS[params.kappas] = table
    if len(_KERNELS) > KERNEL_LADDERS:
        del _KERNELS[next(iter(_KERNELS))]
    return table[:size]


def _kernel(params: AlgebraParams, size: int, table: np.ndarray = _NO_TABLE) -> np.ndarray:
    """-1/2 log F(n)!, n < size, read-only: ``table`` up to its last index
    lo, then a sequential cumsum of log F(n) over the rows lo < n < size
    (`_ladder_rows`, bit-equal to the table's) in place over their F buffer,
    started from log F(lo)! = -2 table[lo] (exact), so bit for bit the
    kernel built from n = 0; those rows refuse only where F(n) Q, n < size,
    passes the double range, as the rows from 0 do.  From a table of at most
    one entry the rows are `_table_rows`' from n = 0, with its refusals, and
    the buffer under them is frozen too, so that no prefix can be made
    writable again."""
    lo = max(len(table) - 1, 0)
    logs = (_ladder_rows(params, lo, size) if lo else _table_rows(params, size))[0]
    logs[:1] = -2.0 * table[lo] if lo else 0.0  # log F(0)! = 0
    np.log(logs[1:], out=logs[1:])
    np.cumsum(logs, out=logs)
    logs *= -0.5
    if lo:
        return _freeze(np.concatenate((table[:lo], logs)))
    _freeze(logs.base)
    return _freeze(logs)


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
    """sum_n f_n z^n e^{-i F(n) phi} / sqrt(F(n)!) for a finite vector f, at z or a z-array.

    Kappas not of the form 1/ell, or a value or phase past the double range,
    are a `DomainError`."""
    reciprocal_ells(params)  # the transform is set up for the reciprocal-integer family
    f = np.asarray(f_coeffs, dtype=complex)
    kernel = ladder_table(params, len(f)).kernel(params.phi)
    z = np.asarray(z, dtype=complex)
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
    empty grid, and at a point where |N| passes the double range."""
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
    """Least-squares fit of log(1/|c_n|) = (1/rho) n log n + beta n + const
    over the top half of the indices, sigma = e^{-beta rho - 1} / rho: the
    intercept keeps both fixed under a rescaling of the c_n.  The fit is
    projections on the orthogonal columns 1 and n - mid, n log n stripped
    twice (classical Gram-Schmidt twice: Bjorck 1996, sec. 2.4; Giraud,
    Langou & Rozloznik 2005).  A polynomial, a log-modulus that is not
    finite (named by its first index), fewer than MIN_COEFFS coefficients or
    a slope under 1e-3 is a `DomainError`."""
    logs = series.log_moduli
    if series.polynomial:
        raise DomainError("polynomial (terminating) coefficient sequences have no growth order")
    finite = np.isfinite(logs)
    if not finite.all():
        n = int(np.argmin(finite))
        raise DomainError(f"log |c_n| at n = {n} is {float(logs[n])!r}: no growth order to fit")
    n_max = len(logs) - 1
    if n_max + 1 < MIN_COEFFS:
        raise DomainError(f"need at least {MIN_COEFFS} coefficients, got {n_max + 1}")
    lo = max(1, n_max // 2)
    m = n_max + 1 - lo
    u = np.arange(lo, n_max + 1, dtype=float)
    h = np.log(u)
    h *= u  # n log n
    u -= 0.5 * (lo + n_max)  # exact half-integers: sum(u) = 0, <u, u> = m (m^2 - 1) / 12
    y, tmp = np.negative(logs[lo:]), np.empty_like(u)

    def strip(v):  # v minus its projections on 1 and u, in place; returns the u coefficient
        c0, c1 = v.sum() / m, float(np.dot(u, v)) / (m * (m * m - 1) / 12)
        v -= c0
        v -= np.multiply(u, c1, out=tmp)
        return c1

    h_u = strip(h) + strip(h)
    y_u = strip(y)
    slope = float(np.dot(h, y)) / float(np.dot(h, h))
    if slope <= 1e-3:
        raise DomainError(
            "coefficient decay is not of finite-positive-order entire type "
            "(geometric or slower); the order fit is degenerate"
        )
    rho = 1.0 / slope
    sigma = math.exp(-(y_u - slope * h_u) * rho - 1.0) / rho  # beta: y's u coefficient less h's
    y -= np.multiply(h, slope, out=tmp)
    residual = math.sqrt(float(np.dot(y, y)) / m)
    y_last = -logs[-1]
    rho_raw = n_max * math.log(n_max) / y_last
    sigma_raw = n_max * math.exp(-rho * y_last / n_max) / (math.e * rho)
    return GrowthEstimate(
        float(rho), float(sigma), (lo, n_max), residual, float(rho_raw), float(sigma_raw)
    )


def closed_form_growth(params: AlgebraParams) -> tuple[float, float]:
    """(rho, sigma) of the eigenstate kernel on an infinite ladder (every
    kappa_i >= 0): rho = 2/(1+q) and sigma = ((1+q)/2) P^{1/(1+q)} with
    P = 1/(kappa_1 ... kappa_q) over the q nonzero kappas, taken exactly (for
    kappa_i = 1/ell_i, P = ell_1 ... ell_q).  A finite ladder is a
    `DomainError`, and so is a P past the double range."""
    if classify(params).is_finite:
        raise DomainError("the kernel series needs an infinite ladder")
    nonzero = [kappa for kappa in params.kappas if kappa]
    q = len(nonzero)
    try:
        product = float(1 / math.prod(nonzero, start=Fraction(1)))
    except OverflowError:
        raise DomainError(
            f"kappa = {','.join(map(str, params.kappas))}: 1/(kappa_1 ... kappa_q) passes "
            "the double range"
        ) from None
    return 2.0 / (1 + q), (1 + q) / 2.0 * product ** (1.0 / (1 + q))
