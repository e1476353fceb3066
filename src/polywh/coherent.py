"""Coherent states over the number basis of a polynomial ladder algebra.

    perelomov           c_n = sqrt(F(n)!) / n! * z^n * e^{-i F(n) phi}
    barut-girardello    c_n = z^n / sqrt(F(n)!)   * e^{-i F(n) phi}

with c_0 = 1 unless normalized.  A state outside its existence domain, or
one whose coefficients do not fit in a double, is a `DomainError`, never a
number; this module alone decides whether a series state exists (`_state`).
One function holds the closed form of both families' terms on the infinite
ladder, one formula with the package's only closed form of log F(n)!
(`_term_law`); a state takes it once (`_state`), for its existence
verdict (`_law_verdict`) and its series' second block (`_series`, by
`_law_cut`), and the growth kernel (`bargmann.kernel_growth`) reads it.  The
hypergeometric normalization (`bg_normalization`) is summed in float64
alone, an int or a Fraction z at its double.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraParams,
    LadderRep,
    _freeze,
    _l2_norm,
    _ladder_rows,
    _phases,
    classify,
    ladder_table,
    reciprocal_ells,
    structure_function,
)
from .defaults import DEFAULT_TAIL_TOL
from .errors import DomainError

__all__ = [
    "StateKind",
    "CutoffMeta",
    "CoherentState",
    "perelomov_state",
    "perelomov_via_exponential",
    "bg_state",
    "check_bg_eigen",
    "time_evolve",
    "overlap",
    "bg_normalization",
]

MAX_SERIES_TERMS = 200_000
RESCALE_BITS = 512  # power of two taken out of a series norm about to overflow (`_series`)


class StateKind(str, enum.Enum):
    PERELOMOV = "perelomov"
    BARUT_GIRARDELLO = "barut-girardello"


@dataclass(frozen=True)
class CutoffMeta:
    """Whether the coefficient vector is exact (finite ladder) or a series
    truncation, and in the latter case the achieved relative l2 tail bound."""

    exact: bool
    n_terms: int
    tail_bound: float = 0.0
    tail_tol: float = 0.0


@dataclass(frozen=True, eq=False)
class CoherentState:
    kind: StateKind
    params: AlgebraParams
    z: complex
    coeffs: np.ndarray
    normalized: bool
    cutoff_meta: CutoffMeta

    @property
    def phi(self) -> float:
        return self.params.phi

    def __len__(self) -> int:
        return len(self.coeffs)

    def norm(self) -> float:
        """The l2 norm; past the double range a `DomainError`."""
        norm, exponent = _scaled_norm(self.coeffs)
        what = f"{self.kind.value} state norm at z = {self.z}"
        return _ldexp(norm, exponent, what)


def _series(kind, params, zs, stop: int, tail_tol: float | None, xs, law=None):
    """c_0 = 1, c_n = c_{n-1} step(n) (`_steps`), n < stop, one row per z of
    zs, as (coefficient rows, tail bound per row, exponent per row); xs is
    the perelomov x (`_perelomov_x`) at each |z|, or None.  A finite ladder
    (no tail_tol) is one block; else the blocks double, each from the last
    one's carry, until every row meets its tail cut (`_tail_cut`; bound inf
    where uncut), zero past it: block lo..hi - 1 ends at hi = min(max(2 lo,
    64), stop), save that for one z whose ``law()`` gives a term law
    (`_term_law`) the block from 64 ends at the law's cut (`_law_cut`)
    taken in, 2 steps on at least.  Numpy's cumprod and cumsum run left to
    right, so where a block ends changes no coefficient and no cut, but for a
    complex block of one step (`_series_moduli`) and for the rows already
    cut: such a row is carried as 0 * step, -0.0 where the step's real part
    is negative, and one longer block would write +0.0, so several rows
    keep the doubling.  Row i's |c_n|^2 and running norm are scaled by the
    exact 2**-exponents[i] (Blue 1978, ACM TOMS 4).  A
    coefficient past the double range is a `DomainError`.  Where phi = 0 and
    every z is real and >= 0 the blocks are float64, the real parts of the
    complex ones.  The perelomov x screens the cut's candidates, which
    changes neither the cut nor its bound (`e3017a5`).
    """
    zs = np.asarray(zs, dtype=complex)
    if params.phi == 0.0 and not zs.imag.any() and not np.signbit(zs.real).any():
        zs = zs.real  # every phase is 1: float64 rows, bit-equal to the complex ones (`_steps`)
    rows, cut_rows, lo, scale = len(zs), tail_tol is not None, 1, 1.0  # 2**(-exponents/2)
    radii = np.hypot(zs.real, zs.imag)  # bit-equal to abs(complex(z))
    blocks, norm2 = [np.ones((rows, 1), dtype=zs.dtype)], np.ones((rows, 1))
    exponents, lengths, bounds = np.zeros(rows, dtype=int), [stop] * rows, [math.inf] * rows
    with np.errstate(over="ignore", invalid="ignore"):  # refused, rescaled or no x below
        if cut_rows:
            tol2 = tail_tol * tail_tol
            room = tol2 if xs is None else np.where(
                (0.0 < xs) & (xs < 1.0), tol2 * (1.0 - xs) * (1.0 + 1e-12), tol2).reshape(-1, 1)
        while lo < stop and math.inf in bounds:
            hi = min(max(2 * lo, 64), stop) if cut_rows else stop
            if lo == 64 and law and hi < stop and (found := law()):  # one z, uncut so far
                hi = min(max(_law_cut(found, tail_tol, stop) + 1, lo + 2), stop)
            steps = _steps(kind, params, zs[:, None], lo, hi)
            block = np.cumprod(np.concatenate((blocks[-1][:, -1:], steps), axis=1), axis=1)
            block = block[:, 1:]
            while True:  # norms[:, i]: the squared norm before block[:, i]
                abs2 = np.abs(block * scale) ** 2  # a power of two: exact, and no square overflows
                norms = np.cumsum(np.concatenate((norm2, abs2), axis=1), axis=1)
                if math.isfinite(norms[:, -1].max()):
                    break
                if not np.isfinite(block).all():
                    i, n = np.argwhere(~np.isfinite(block))[0]
                    raise DomainError(
                        f"{kind.value} state at z = {complex(zs[i])} overflows double precision: "
                        f"coefficient c_{lo + n} passes the double range"
                    )
                over = np.isinf(norms[:, -1])
                exponents[over] += RESCALE_BITS
                norm2[over] = np.ldexp(norm2[over], -RESCALE_BITS)
                scale = np.ldexp(1.0, -exponents // 2)[:, None]
            if cut_rows:  # the candidates: a row can be cut only at one of them
                under = abs2 <= norms[:, :-1] * room
                for i in under.any(axis=1).nonzero()[0]:
                    if bounds[i] == math.inf:
                        sup = _ratio_sup(kind, params, float(radii[i]))
                        cut = _tail_cut(under[i].nonzero()[0], abs2[i], norms[i], lo, sup, tol2)
                        if cut is not None:
                            block[i, cut[0] :] = 0.0
                            lengths[i], bounds[i] = lo + cut[0], cut[1]
            blocks.append(block if math.inf in bounds else block[:, : max(lengths) - lo])
            norm2, lo = norms[:, -1:].copy(), hi
            del steps, block, abs2, norms  # not held while the next block is built
    return np.concatenate(blocks, axis=1), bounds, exponents


def _tail_cut(under, abs2, norms, lo, ratio_sup, tol2):
    """The series' one tail rule: (i, achieved relative tail bound) for the
    first i of ``under`` at which the terms from c_{lo+i} on may be dropped,
    else None.  abs2[i] = |c_{lo+i}|^2, norms[i] is the squared norm before
    it, and ratio_sup(j) (`_ratio_sup`) bounds every later |c_{m+1}/c_m|:
    once it is under 1, tail^2 <= |c_{lo+i}|^2 / (1 - q^2)."""
    for i in under:
        q = ratio_sup(lo + int(i))
        if q < 1.0:
            tail2 = float(abs2[i]) / (1.0 - q * q)
            if tail2 <= tol2 * norms[i]:
                return int(i), math.sqrt(tail2 / norms[i])
    return None


def _ratio_sup(kind, params, radius):
    """j -> a bound on |c_{m+1}/c_m| over every m >= j, at |z| = radius, for
    the series of an infinite ladder (r = 1 for perelomov)."""
    if kind is StateKind.PERELOMOV:
        # |c_{m+1}/c_m| = |z| sqrt((1 + k1 m)/(m + 1)) is monotone toward
        # sqrt(k1), so the sup over m >= j is attained at m = j or in the limit
        k1 = float(params.kappas[0])
        return lambda j: radius * math.sqrt(max((1.0 + k1 * j) / (j + 1.0), k1))
    # F is nondecreasing on the infinite ladder, so the first ratio dominates
    def sup(j):
        f = structure_function(params, j + 1)
        try:
            return radius / math.sqrt(f.numerator / f.denominator)  # float(f), correctly rounded
        except OverflowError:
            raise DomainError(
                f"kappa = {','.join(map(str, params.kappas))}: F({j + 1}) passes the double range"
            ) from None

    return sup


def _perelomov_x(kind, params, radius):
    """x = kappa |z|^2 = q^2 of the perelomov series of an r = 1 ladder with
    kappa > 0 at |z| = radius (a float or an array), q the limit of
    `_ratio_sup`; None for any other series.  The state exists where x < 1
    (q < 1 exactly where fl(q q) < 1); the closed form needs 0 < x < 1: else
    c_1 = 0 in float, or x rounds to the rim or past it.  A kappa past the
    double range is a `DomainError`."""
    if kind is not StateKind.PERELOMOV or params.r != 1:
        return None
    try:
        kappa = float(params.kappas[0])
    except OverflowError:
        raise DomainError(f"kappa = {params.kappas[0]} passes the double range") from None
    if not kappa > 0.0:  # a kappa under the double range too
        return None
    q = radius * math.sqrt(kappa)
    return q * q


def _term_law(kind, params, radius, x):
    """The closed form of the terms of an infinite-ladder series at |z| =
    radius, x its perelomov x (`_perelomov_x`) or None, as (terms, log_sup2,
    peak), or None where no law applies.  One formula holds for both
    families, with s = +1 for perelomov, s = -1 for barut-girardello and a_i
    = 1/kappa_i over the kappa_i > 0:

        log|c_n|^2 = n log|z|^2 - log n! + s sum_i R(a_i, n),

    as |c_n|^2 = |z|^2n F(n)! / n!^2 or |z|^2n / F(n)!, and F(n)! = n!
    prod_i kappa_i^n (a_i)_n (Perelomov 1986: x^n (a)_n / n!, x = kappa
    |z|^2).  R(a, n) = log((a)_n / a^n), (a)_n the rising factorial, is
    lgamma(a + n) - lgamma(a) - n log a for a < 32, else the difference of
    Stirling's series (DLMF 5.11.1), (a + n - 1/2) log1p(n/a) - n + w(a +
    n) - w(a), which keeps out the lgamma difference's cancellation where a
    >> n; w(x) = lgamma(x) - (x - 1/2) log x + x - log(2 pi)/2 is taken to
    three terms of its asymptotic series in 1/x, within 2e-14 for x >= 32.
    terms(n) = (log|c_n|^2, the sum of the moduli of its addends, for a
    rounding margin); log_sup2(n) = log|z|^2 - log1p(n) + s sum_i
    log1p(kappa_i n) = log q^2, q = `_ratio_sup` at n, in float, floored at
    log x on the perelomov disk; peak the first n with log_sup2(n) <= 0, the
    index of the largest term.  log_sup2 is convex and falling where it is
    positive, so each Newton step on it lands at or below the peak; they
    start from (a x - 1)/(1 - x) on the disk, the peak up to rounding, and
    else one step from the power law F(n + 1) ~ (n + 1)^(r+1) prod kappa_i.
    The law holds for perelomov where its x has 0 < x < 1 or at kappa = 0,
    and for barut-girardello at |z| > 0.  None also where a kappa_i or a_i
    leaves the double range, or the search for the peak passes 2**53: the
    series alone decides there."""
    if x is None and kind is StateKind.PERELOMOV and params.kappas != (0,) or not radius > 0.0:
        return None
    if x is not None and not 0.0 < x < 1.0:
        return None
    sign = 1.0 if kind is StateKind.PERELOMOV else -1.0
    floor = -math.inf if x is None else math.log(x)
    log_z2 = 2.0 * math.log(radius)

    def w(r):  # w(x) at r = 1/x
        return r * (1 / 12 - r * r * (1 / 360 - r * r / 1260))

    def terms(n):
        drift, low = n * log_z2, math.lgamma(n + 1.0)
        value, size = drift - low, abs(drift) + low
        for a, base, log_a in shapes:
            if a < 32.0:
                top, power = math.lgamma(a + n), n * log_a
                value += sign * (top - base - power)
                size += abs(top) + abs(base) + abs(power)
            else:  # Stirling's series: no lgamma difference to cancel
                head = (a + n - 0.5) * math.log1p(n / a)
                value += sign * (head - n + w(1 / (a + n)) - base)
                size += head + n
        return value, size

    def log_sup2(n):
        value = log_z2 - math.log1p(n)
        for kappa in kappas:
            value += sign * math.log1p(kappa * n)
        return value if value > floor else floor

    def newton(n):  # a Newton step on log_sup2(n) = 0
        slope = 1.0 / (n + 1.0)
        for kappa in kappas:
            slope -= sign * kappa / (1.0 + kappa * n)
        return n + log_sup2(n) / slope

    try:  # the kappa_i, and each a_i with lgamma(a_i) (w(a_i) from 32 on) and log a_i
        kappas = [kappa.numerator / kappa.denominator for kappa in params.kappas if kappa]
        shapes = [(a, math.lgamma(a) if a < 32.0 else w(1 / a), math.log(a)) for a in
                  (kappa.denominator / kappa.numerator for kappa in params.kappas if kappa)]
        if x is None:  # F(n + 1) ~ (n + 1)^(r+1) / prod a_i = |z|^2, then a step down
            guess = math.exp((log_z2 + sum(s[2] for s in shapes)) / (len(shapes) + 1)) - 1.0
            peak = math.ceil(max(newton(max(guess, 0.0)), 0.0))
        else:
            peak = max(math.ceil((shapes[0][0] * x - 1.0) / (1.0 - x)), 0)
        while log_sup2(peak) > 0.0:
            if peak > 2**53:
                return None
            peak = max(math.ceil(newton(peak)), peak + 1)
    except (OverflowError, ZeroDivisionError):  # past the double range, or a flat slope
        return None
    return terms, log_sup2, peak


def _law_cut(law, tol, stop):
    """The first n past the law's peak (`_term_law`) at which `_tail_cut`
    would pass on the law with the largest term for the norm, g(n) = log
    |c_n|^2 - log(1 - q^2) - 2 log tol - log|c_peak|^2 <= 0, else stop
    where that n is past it.  The largest term is a lower bound on the
    norm, so n falls at or past the float series' cut, up to the law's
    rounding, a few eps of the moduli of its addends at every shape (no
    lgamma difference cancels, `_term_law`).  g falls past the peak; the
    search keeps lo < n <= hi, g(lo) > 0 >= g(hi), and takes Newton steps
    with the slope log q^2, from where a Gaussian of the peak's curvature
    puts the cut (one past the peak at least: a tol >= 1 puts it at or
    before the peak), or bisects where a step leaves the bracket."""
    terms, log_sup2, peak = law
    top = terms(peak)[0] + 2.0 * math.log(tol)
    curvature = log_sup2(peak) - log_sup2(peak + 1)
    width = math.sqrt(max(-4.0 * math.log(tol), 0.0) / curvature) if curvature > 0.0 else 0.0
    n = peak + max(math.ceil(width), 1)
    lo, hi = peak, math.inf
    while hi - lo > 1 and lo < stop:
        n = min(n, stop)
        slope = log_sup2(n)
        gap = terms(n)[0] - math.log1p(-math.exp(slope)) - top if slope < 0.0 else math.inf
        if gap > 0.0:  # n doubles where q >= 1
            lo = n
            n += math.ceil(min(gap / -slope, stop)) if gap < math.inf else n
        else:
            hi = n
            n -= max(math.floor(min(gap / slope, n)), 1)
        if not lo < n < hi:  # only past a step down: hi is finite
            n = (lo + hi) // 2
    return min(hi, stop)


def _law_verdict(params, radius, x, law, max_terms, tol):
    """Whether the perelomov series at |z| = radius is cut at tail tolerance
    tol within max_terms terms, read off its closed form ``law()``
    (`_term_law`) where its x (`_perelomov_x`) has 0 < x < 1: unimodal with
    its peak at index ``peak``, within margin(n) in log of the float series,
    the law's own rounding included (4 eps times the moduli of its
    addends).  True where
    the law meets the cut with every |c_n|^2, n <= max_terms, a double;
    False where it fits so but misses the cut's necessary bound tol^2 S_inf
    (1 - x) at n = 1 and at max_terms, and so everywhere between; None
    where there is no law (another series, x outside (0, 1), a or the peak
    index past the double range) or it cannot decide.  The cut is certain
    where `_tail_cut` passes at n = max_terms on the law, margin included,
    with q = `_ratio_sup` at max_terms < 1 and S >= |c_0|^2 = 1: |c_n|^2 /
    (1 - q^2) only falls with n past the peak, so the series is cut by
    then."""
    law = None if x is None else law()
    if law is None:
        return None
    terms, _, peak = law
    a, eps = 1.0 / float(params.kappas[0]), sys.float_info.epsilon
    near_rim = 8.0 * (a + 1.0) * eps / (1.0 - x)

    def term(n):  # log|c_n|^2 and its margin
        value, size = terms(n)
        return value, 1e-6 + 1e-12 * n + near_rim + 4.0 * eps * size

    top = min(peak, max_terms)
    highest = max(value + margin for value, margin in
                  map(term, {max(top - 1, 0), top, min(top + 1, max_terms)}))
    if not highest < 2.0 * (math.log(sys.float_info.max) - 1.0):
        return None
    log_room = 2.0 * math.log(tol) + (1.0 - a) * math.log1p(-x)
    if all(value > log_room + margin for value, margin in map(term, (max_terms, 1))):
        return False
    if max_terms < max(peak, 1):
        return None
    q = _ratio_sup(StateKind.PERELOMOV, params, radius)(max_terms)
    value, margin = term(max_terms)
    if q >= 1.0 or value - math.log1p(-q * q) + margin > 2.0 * math.log(tol):
        return None
    return True


def _series_moduli(kind, params, zs, levels: int) -> np.ndarray:
    """|c_n(z)|^2, n < levels, at every z of zs: the rows of `_series` at the
    default tail tolerance, zero-padded, bit-equal for real z >= 0 to
    ``np.abs(ctor(params, z).coeffs[:levels]) ** 2`` (for a complex z the
    last bit may differ).  A finite ladder needs levels <= d.  A last block
    of one step takes one more where the ladder goes on, as numpy rounds a
    complex cumprod of one step unlike a longer one."""
    dim = classify(params)
    tail_tol = None if dim.is_finite else DEFAULT_TAIL_TOL
    last = levels - 1  # where the last block starts if it is one step long
    one_step = last == 1 or (tail_tol is not None and last >= 64 and not last & (last - 1))
    stop = levels + (one_step and levels != dim.d)
    xs = _perelomov_x(kind, params, np.abs(zs))
    coeffs, _, exponents = _series(kind, params, zs, stop, tail_tol, xs)
    coeffs, moduli = coeffs[:, :levels], np.zeros((len(zs), levels))
    moduli[:, : coeffs.shape[1]] = np.abs(coeffs * np.ldexp(1.0, -exponents // 2)[:, None]) ** 2
    if exponents.any():  # a modulus past the double range is a DomainError
        moduli = _ldexp(moduli, exponents[:, None], "squared coefficient modulus")
    return moduli


def _steps(kind, params, z, lo, hi):
    """c_n / c_{n-1} for lo <= n < hi: z e^{-i G(n-1) phi} times sqrt(F(n)) / n
    (perelomov) or 1 / sqrt(F(n)) (barut-girardello), from the ladder rows
    lo-1 .. hi-1 alone.  A float64 z (phi = 0, every z real and >= 0) gives
    the real parts of the complex steps bit for bit: numpy divides complex
    numbers by multiplying with the reciprocal, and so does this."""
    f, g = _ladder_rows(params, lo - 1, hi)
    roots = np.sqrt(f[1:])
    if z.dtype == float:
        if kind is StateKind.PERELOMOV:
            return z * roots * (1.0 / np.arange(lo, hi))
        return z * (1.0 / roots)
    steps = z * roots / np.arange(lo, hi) if kind is StateKind.PERELOMOV else z / roots
    steps *= _phases(g[:-1], params.phi, lo - 1)
    return steps


def _scaled_norm(v) -> tuple[float, int]:
    """The l2 norm of v as (mantissa, exponent): `_l2_norm(v)` and 0 where
    that is finite, else the norm of v * 2**-exponent, the power of two that
    brings every real and imaginary part under 1 (Blue 1978).  A non-finite
    entry gives a non-finite mantissa."""
    norm = _l2_norm(v)
    if math.isfinite(norm):
        return norm, 0
    exponent = math.frexp(float(np.max(np.maximum(np.abs(v.real), np.abs(v.imag)))))[1]
    return _l2_norm(v * 2.0**-exponent), exponent


def _finish(kind, params, z, coeffs, normalize, meta) -> CoherentState:
    norm, exponent = _scaled_norm(coeffs)
    if not math.isfinite(norm):
        raise DomainError(f"{kind.value} state at z = {z} overflows double precision")
    if normalize:
        coeffs = coeffs * 2.0**-exponent / norm
    return CoherentState(kind, params, z, _freeze(coeffs), bool(normalize), meta)


def _require_family(kind, params):
    """classify(params) where the ladder has states of ``kind`` at complex
    z: barut-girardello states need an infinite ladder, perelomov states on
    an infinite ladder need r = 1.  Else a `DomainError`."""
    dim = classify(params)
    if kind is StateKind.BARUT_GIRARDELLO and dim.is_finite:
        raise DomainError(
            "no lowering-operator eigenstate exists for complex z on a finite ladder "
            f"(d = {dim.d}); use bg_grassmann_state for the nilpotent-variable construction"
        )
    if kind is StateKind.PERELOMOV and not dim.is_finite and params.r >= 2:
        raise DomainError(
            "perelomov-type states on an infinite ladder exist only for r = 1 "
            f"(the series cannot be normalized for r >= 2); got r = {params.r}"
        )
    return dim


def _state(kind, params, z, normalize, tail_tol, max_terms) -> CoherentState:
    """The state at z from `_series`: the d coefficients of a finite ladder,
    else the series to its tail cut, of at most max_terms terms.  Every
    refusal of a state that does not exist is made here, before any term is
    built: of its inputs (`_checked_inputs`), of its family
    (`_require_family`), outside the perelomov disk (`_perelomov_x`) and by
    the closed form's verdict (`_law_verdict`).  Its x and, where first
    asked, its term law (`_term_law`) are each taken once, for the verdict
    and the series both."""
    z = _checked_inputs(z, tail_tol, max_terms)
    dim = _require_family(kind, params)
    radius = abs(z)
    x = _perelomov_x(kind, params, radius)
    if x is not None and x >= 1.0:
        raise DomainError(
            "z lies outside the existence disk: need |z| < 1/sqrt(kappa_1) = "
            f"{1.0 / math.sqrt(float(params.kappas[0])):.6g}, got |z| = {radius:.6g}"
        )
    stop, tol = (dim.d, None) if dim.is_finite else (max_terms + 1, tail_tol)
    law = functools.cache(lambda: _term_law(kind, params, radius, x))  # built where first asked
    bound = math.inf
    if tol is None or _law_verdict(params, radius, x, law, max_terms, tol) is not False:
        (coeffs,), (bound,), _ = _series(kind, params, [z], stop, tol, x, law)
    if tol is not None and bound == math.inf:
        raise DomainError(f"series did not reach tail tolerance {tol:g} within {max_terms} terms")
    coeffs = coeffs.astype(complex, copy=False)  # imaginary +0.0
    meta = CutoffMeta(True, dim.d) if tol is None else CutoffMeta(False, len(coeffs), bound, tol)
    return _finish(kind, params, z, coeffs, normalize, meta)


def _require_state(kind, params, radius: float) -> None:
    """Return where the state at z = radius exists at the default tail
    tolerance and term cap: where `_law_verdict` certifies it, else where
    its constructor builds it.  Else the constructor's `DomainError`."""
    x = _perelomov_x(kind, params, radius)
    law = lambda: _term_law(kind, params, radius, x)  # noqa: E731
    if not _law_verdict(params, radius, x, law, MAX_SERIES_TERMS, DEFAULT_TAIL_TOL):
        (perelomov_state if kind is StateKind.PERELOMOV else bg_state)(params, radius)


def _checked_inputs(z, tail_tol: float, max_terms: int) -> complex:
    """complex(z), refusing a non-finite z, a tail_tol outside [2**-511, inf)
    (below it tail_tol^2 leaves the normal range, and the tail test compares
    squares rounded to 0) or a max_terms that is not an integer, or is
    negative."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"z must be finite, got z = {z}")
    floor = math.sqrt(sys.float_info.min)  # 2**-511
    if not floor <= tail_tol < math.inf:
        raise DomainError(f"tail_tol must be finite and positive, at least 2**-511 = {floor:.6g}, "
                          f"got tail_tol = {tail_tol!r}")
    if not isinstance(max_terms, numbers.Integral):
        raise TypeError(f"max_terms must be an integer, got max_terms = {max_terms!r}")
    if max_terms < 0:
        raise DomainError(f"max_terms must be at least 0, got max_terms = {max_terms}")
    return z


def perelomov_state(
    params: AlgebraParams,
    z,
    *,
    normalize: bool = False,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_terms: int = MAX_SERIES_TERMS,
) -> CoherentState:
    """State with coefficients sqrt(F(n)!)/n! * z^n * e^{-i F(n) phi}.

    Finite ladder: the d coefficients, any r, any z.  Infinite ladder: only
    r = 1 and |z| < 1/sqrt(kappa_1), else a `DomainError`; the series is cut
    at ``tail_tol`` within ``max_terms`` terms, else a `DomainError`.
    """
    return _state(StateKind.PERELOMOV, params, z, normalize, tail_tol, max_terms)


def perelomov_via_exponential(
    params: AlgebraParams, z, rep: LadderRep, *, normalize: bool = False
) -> CoherentState:
    """exp(z * raising)|0> as the exact nilpotent polynomial: its term
    (z raising)^k / k! |0> is nonzero at level k alone, so v_k = raising_k
    v_{k-1} z / k, one level per step up the band of ``rep``:
    `perelomov_state` without its series.  An infinite ladder is a
    `DomainError`; a ``rep`` other than the untruncated one of ``params`` is
    a ValueError."""
    z = complex(z)
    dim = classify(params)
    if not dim.is_finite:
        raise DomainError(
            "the nilpotent-exponential route needs a finite ladder; use the series form instead"
        )
    if rep.params != params:
        raise ValueError("representation was built for different parameters")
    if rep.truncation_order is not None:
        raise ValueError("need the untruncated representation")
    if rep.dim_window != dim.d:
        raise ValueError(f"representation window {rep.dim_window} != d = {dim.d}")
    raising = rep.band.conj().tolist()  # <n+1|raising|n>
    v = [1.0 + 0j]
    for k in range(1, dim.d):
        v.append(raising[k - 1] * v[-1] * (z / k))
    meta = CutoffMeta(exact=True, n_terms=dim.d)
    return _finish(StateKind.PERELOMOV, params, z, np.array(v), normalize, meta)


def bg_state(
    params: AlgebraParams,
    z,
    *,
    normalize: bool = False,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_terms: int = MAX_SERIES_TERMS,
) -> CoherentState:
    """Lowering-operator eigenstate, coefficients z^n e^{-i F(n) phi} / sqrt(F(n)!).

    Exists on the infinite ladder for any r and z; the series is cut at
    ``tail_tol`` within ``max_terms`` terms, else a `DomainError`.  A finite
    ladder is a `DomainError` (see `grassmann.bg_grassmann_state`).
    """
    return _state(StateKind.BARUT_GIRARDELLO, params, z, normalize, tail_tol, max_terms)


def check_bg_eigen(state: CoherentState, rep: LadderRep) -> float:
    """Relative l2 residual of lowering @ c = z c over every row of an exact
    state, and over all but the last populated row of a series (it reads the
    first dropped coefficient).  A ``rep`` of other params, or of a window
    other than an exact state's length or under a series' length + 1, is a
    ValueError."""
    if rep.params != state.params:
        raise ValueError("state and representation parameters differ")
    c = state.coeffs
    length = len(c)
    exact = state.cutoff_meta.exact
    if exact and rep.dim_window != length:
        raise ValueError(f"window {rep.dim_window} does not match the exact state length {length}")
    if not exact and rep.dim_window < length + 1:
        raise ValueError(
            f"window too small: need >= {length + 1} rows to apply the lowering "
            f"matrix past the cutoff, got {rep.dim_window}"
        )
    norm, exponent = _scaled_norm(c)
    c = c * 2.0**-exponent  # exact, and the residual is linear in c
    # row n of lowering @ c - z c is band[n] c[n+1] - z c[n]
    resid = rep.band[: length - 1] * c[1:] - state.z * c[:-1]
    if exact:
        resid = np.append(resid, -state.z * c[-1])  # lowering kills the top level
    return _l2_norm(resid) / norm


def time_evolve(state: CoherentState, t: float) -> CoherentState:
    """c_n -> e^{-i F(n) t} c_n under the structure-function Hamiltonian:
    the same-kind state at phase phi + t, with its cutoff metadata.  A phase
    past the double range is a `DomainError` naming t."""
    t = float(t)
    coeffs = state.coeffs * _phases(ladder_table(state.params, len(state.coeffs)).f, t, name="t")
    return CoherentState(
        state.kind,
        state.params.with_phi(state.phi + t),
        state.z,
        _freeze(coeffs),
        state.normalized,
        state.cutoff_meta,
    )


def overlap(s1: CoherentState, s2: CoherentState, *, unchecked: bool = False) -> complex:
    """<s1|s2> = sum conj(c_n) c'_n over the common coefficient window.
    Different kinds or kappas are a ValueError, and so are different phases
    unless ``unchecked=True``: such an overlap verifies no property."""
    if s1.kind != s2.kind:
        raise ValueError("overlap requires matching state kinds")
    if s1.params.kappas != s2.params.kappas:
        raise ValueError("overlap requires matching algebra parameters")
    if not unchecked and s1.params.phi != s2.params.phi:
        raise ValueError("phases differ; pass unchecked=True to compute the overlap anyway")
    length = min(len(s1.coeffs), len(s2.coeffs))
    return complex(np.vdot(s1.coeffs[:length], s2.coeffs[:length]))


def _doubles(value, name: str):
    """value as a Python complex where it has no dimension, else as a
    complex128 array: an int or a Fraction is taken at its double.  A NaN
    part, or a value past the double range, is a `DomainError` naming
    ``name``."""
    try:
        value = np.asarray(value, dtype=complex) if np.ndim(value) else complex(value)
    except OverflowError:
        raise DomainError(f"{name} must lie within the double range, "
                          f"|{name}| <= {sys.float_info.max:.6g}") from None
    if np.isnan(value).any() if isinstance(value, np.ndarray) else value != value:
        raise DomainError(f"{name} must not be NaN")
    return value


def _hyper_0f_scaled(ells, x, rel_tol: float = 1e-16, max_terms: int = 100_000):
    """0F_q at x, a float64 scalar or array, as (mantissa, exponent), the
    value mantissa * 2**exponent, which need not fit a double; x = +inf sums
    to inf.  The one place that tells a scalar from an array: a scalar is
    summed as a Python float, an array in place, each entry stopping at its
    own term, bit-equal to its scalar sum.  Every other x whose plain sum
    overflows is summed by `_peak_sum`, which alone judges such a sum."""
    if not np.ndim(x):
        x, term, total, k = float(x), 1.0, 1.0, 0
        while abs(term) > rel_tol * abs(total):
            term *= x / ((k + 1) * math.prod(ell + k for ell in ells))
            total += term
            k += 1
            if k >= max_terms and math.isfinite(total):  # an overflow is _peak_sum's to judge
                raise DomainError("hypergeometric series did not converge")
        if math.isfinite(total) or x == math.inf:
            return total, 0
        return tuple(a.item() for a in _peak_sum(ells, np.array([x]), rel_tol, max_terms))
    term, total, exponent = np.ones(x.shape), np.ones(x.shape), np.zeros(x.shape, dtype=int)
    k, going = 0, np.ones(x.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # as the float sum: inf, no warning
        # an entry once stopped stays stopped: its term goes on multiplying, unadded
        while (going := going & (np.abs(term) > rel_tol * np.abs(total))).any():
            term *= x / ((k + 1) * math.prod(ell + k for ell in ells))
            np.add(total, term, out=total, where=going)
            k += 1
            if k >= max_terms:
                raise DomainError("hypergeometric series did not converge")
    over = np.isinf(total) & (x != math.inf)
    if over.any():
        total[over], exponent[over] = _peak_sum(ells, x[over], rel_tol, max_terms)
    return total, exponent


def _peak_sum(ells, x, rel_tol: float, max_terms: int):
    """0F_q at each entry of the 1-D x, every ell > 0, as (mantissa,
    exponent) arrays, summed from its largest term t_p: t_{k+1} = t_k x /
    d_k, d_k = (k + 1) prod(ell + k), and p is the first k with x < d_k, at
    most x^(1/(q+1)) + 1 as d_k >= (k + 1) k^q.  t_p is the running product
    of the p ratios below it, np.frexp taking out a power of two after
    every 1,000 mantissas (each >= 1/2, so no product leaves the range), and
    every other term is taken as its ratio to t_p, <= 1.  The sum stops at
    the first k > p whose term is <= rel_tol times the sum so far, by k =
    2p + 1100 at the latest: past 2p + 1 each ratio is under 1/2, so by
    then the term's ratio to t_p has underflowed to 0.  A first ratio past
    the double range, and a stop at or past max_terms (p >= max_terms among
    them, decided at once), are the plain sum's errors; each x is summed
    once, in array order, so the first failing entry's error is raised."""
    ells, values = np.asarray(ells, dtype=float), {}
    for xi in dict.fromkeys(x.tolist()):
        if math.isinf(xi / math.prod(ells.tolist())):  # a Python float: no warning
            raise DomainError(f"hypergeometric series term ratio overflows at x = {xi:g}")
        k = np.arange(min(2 * int(xi ** (1 / (len(ells) + 1))) + 1110, max_terms + 1), dtype=float)
        with np.errstate(over="ignore"):  # inf past the double range: a term ratio of 0
            d = (k + 1.0) * np.prod(ells[:, None] + k, axis=0)
        p = int(np.searchsorted(d, xi, side="right"))
        if p >= max_terms:
            raise DomainError("hypergeometric series did not converge")
        above = np.cumprod(xi / d[p : min(2 * p + 1100, max_terms - 1)])  # t_{p+1}/t_p, ...
        sums = np.cumprod(d[:p][::-1] / xi)[::-1].sum() + 1.0 + np.cumsum(above)
        stop = np.flatnonzero(above <= rel_tol * sums)
        if not stop.size:  # at k = max_terms or later
            raise DomainError("hypergeometric series did not converge")
        ratios, shifts = np.frexp(xi / d[:p])
        mantissa, exponent = 1.0, int(shifts.sum())
        for chunk in np.split(ratios, range(1000, p, 1000)):
            mantissa, shift = np.frexp(mantissa * chunk.prod())
            exponent += int(shift)
        values[xi] = sums[stop[0]] * mantissa, exponent
    mantissa, exponent = np.array([values[xi] for xi in x.tolist()]).T
    return mantissa, exponent.astype(int)


def _ldexp(mantissa, exponent, what: str):
    """mantissa * 2**exponent at a scalar or at every entry of an array, a
    0-d input as a Python float.  Past the double range it is a `DomainError`
    naming ``what`` and the largest entry's size in bits."""
    scalar = isinstance(mantissa, float) and isinstance(exponent, int)
    if scalar and not exponent and math.isfinite(mantissa):  # inf, nan: as any array
        return float(mantissa)
    with np.errstate(over="ignore"):
        value = np.ldexp(mantissa, exponent)
    if np.isinf(value).any():
        with np.errstate(divide="ignore"):  # a zero mantissa elsewhere in the array
            bits = np.max(np.log2(np.abs(mantissa)) + exponent)
        raise DomainError(f"{what} overflows double precision: it is about 2^{bits:.1f}")
    return value if np.ndim(value) else float(value)


def bg_normalization(params: AlgebraParams, z):
    """|N(z)| with |N|^2 = 0F_q(ells; prod(ells) |z|^2), at z or a z-array:
    the l2 norm of the unnormalized barut-girardello state at z, taken at
    its double (`_doubles`).  Kappas not of the form 1/ell (zeros drop out),
    a NaN z or one past the double range, or an |N| past it (|N|^2 may pass
    it) are a `DomainError`."""
    ells = reciprocal_ells(params)
    z = _doubles(z, "z")
    return _ldexp(*_bg_normalization_scaled(ells, z), "normalization |N(z)|")


def _bg_normalization_scaled(ells, z):
    """|N(z)| for the 1/ell kappas of ``ells`` at z or at every point of a
    z-array (complex128) as (mantissa, exponent), the value mantissa *
    2**exponent; inf where prod(ells) |z|^2 passes the double range."""
    with np.errstate(over="ignore"):  # x = inf, which sums to inf
        x = math.prod(ells) * np.hypot(z.real, z.imag) ** 2  # hypot: bit-equal to abs(complex)
    mantissa, exponent = _hyper_0f_scaled(ells, x)
    return np.sqrt(np.ldexp(mantissa, exponent & 1)), exponent >> 1

