"""Coherent states over the number basis of a polynomial ladder algebra.

Two families, both stored as plain coefficient vectors with c_0 = 1
unless normalization is requested:

    perelomov           c_n = sqrt(F(n)!) / n! * z^n * e^{-i F(n) phi}
    barut-girardello    c_n = z^n / sqrt(F(n)!)   * e^{-i F(n) phi}

The phase ``phi`` is read from the parameter pack.  Existence domains are
enforced as typed errors, never as numeric garbage:

* perelomov on an infinite ladder exists only for r = 1 and |z| strictly
  inside the disk of radius 1/sqrt(kappa_1) (all of C when kappa_1 = 0);
* perelomov on a finite ladder exists for any r and any z, and equals the
  nilpotent exponential exp(z * raising)|0>;
* barut-girardello states (lowering-operator eigenstates) exist on the
  infinite ladder for any r and any z, and not at all for complex z on a
  finite ladder -- see `grassmann` for the nilpotent-variable version.

Infinite series are cut off once a geometric ratio bound puts the
remaining l2 tail below ``tail_tol`` of the accumulated norm; the bound
actually achieved is recorded on the state.  One routine, `_series`,
builds every state vector; a state exists wherever its coefficients fit in
a double, even where |c_n|^2 and its squared norm do not.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraParams,
    LadderRep,
    _freeze,
    classify,
    ladder_table,
    reciprocal_ells,
    structure_function,
)
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
    "hyper_0f",
    "bg_normalization",
    "perelomov_log_partial_norms",
]

DEFAULT_TAIL_TOL = 1e-14
MAX_SERIES_TERMS = 200_000
RESCALE_BITS = 512  # power of two taken out of a sum about to overflow


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
        return _ldexp(norm, exponent, what) if exponent else norm


def _series(kind, params, zs, stop: int, tail_tol: float | None):
    """c_0 = 1, c_n = c_{n-1} step(n) (`_steps`), n < stop, one row for each
    z of zs, as (column blocks of the rows, tail bound per row, exponent per
    row).  A finite ladder (no tail_tol) is one block; else the blocks
    double, each a cumprod from the last one's carry, until every row meets
    its tail cut (`_tail_cut`; bound inf where uncut), zero past it.  Row
    i's |c_n|^2 and running squared norm are scaled by the exact
    2**-exponents[i], raised by RESCALE_BITS before the sum overflows and 0
    wherever it does not (Blue 1978, ACM TOMS 4).  A coefficient past the
    double range is a `DomainError` raised in the block where it is.
    """
    zs = np.asarray(zs, dtype=complex)
    rows, cut_rows, lo, scale = len(zs), tail_tol is not None, 1, 1.0  # 2**(-exponents/2)
    blocks, norm2 = [np.ones((rows, 1), dtype=complex)], np.ones((rows, 1))
    exponents, lengths, bounds = np.zeros(rows, dtype=int), [stop] * rows, [math.inf] * rows
    with np.errstate(over="ignore", invalid="ignore"):  # refused or rescaled below
        while lo < stop and math.inf in bounds:
            hi = min(max(2 * lo, 64), stop) if cut_rows else stop
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
            if cut_rows:  # a row can be cut only where a term alone is under the tolerance
                tol2 = tail_tol * tail_tol
                under = abs2 <= tol2 * norms[:, :-1]
                for i in under.any(axis=1).nonzero()[0]:
                    if bounds[i] == math.inf:
                        sup = _ratio_sup(kind, params, abs(complex(zs[i])))
                        cut = _tail_cut(under[i].nonzero()[0], abs2[i], norms[i], lo, sup, tol2)
                        if cut is not None:
                            block[i, cut[0] :] = 0.0
                            lengths[i], bounds[i] = lo + cut[0], cut[1]
            blocks.append(block if math.inf in bounds else block[:, : max(lengths) - lo])
            norm2, lo = norms[:, -1:].copy(), hi
            del steps, block, abs2, norms  # not held while the next block is built
    return blocks, bounds, exponents


def _tail_cut(under, abs2, norms, lo, ratio_sup, tol2):
    """The series' one tail rule: (i, achieved relative tail bound) for the
    first i of ``under`` (where |c_{lo+i}|^2 alone is under the tolerance) at
    which the terms from c_{lo+i} on may be dropped, or None.

    abs2[i] = |c_{lo+i}|^2 and norms[i] is the squared norm before it.
    ratio_sup(j) bounds |c_{m+1}/c_m| for every m >= j (`_ratio_sup`); once
    it drops under 1 the tail is dominated by a geometric series, giving
    tail^2 <= |c_{lo+i}|^2 / (1 - q^2).
    """
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
    return lambda j: radius / math.sqrt(float(structure_function(params, j + 1)))


def _series_moduli(kind, params, zs, levels: int) -> np.ndarray:
    """|c_n(z)|^2, n < levels, at every z of zs: the rows of `_series` at the
    default tail tolerance, zero-padded, so for real z >= 0 bit-equal to
    ``np.abs(ctor(params, z).coeffs[:levels]) ** 2`` (for a complex z numpy
    may fuse a multiply-add of the broadcast steps, and the last bit can
    differ).  A finite ladder needs levels <= d."""
    tail_tol = None if classify(params).is_finite else DEFAULT_TAIL_TOL
    blocks, _, exponents = _series(kind, params, zs, levels, tail_tol)
    coeffs, moduli = np.concatenate(blocks, axis=1), np.zeros((len(zs), levels))
    moduli[:, : coeffs.shape[1]] = np.abs(coeffs * np.ldexp(1.0, -exponents // 2)[:, None]) ** 2
    if exponents.any():  # a modulus past the double range is a DomainError
        moduli = _ldexp(moduli, exponents[:, None], "squared coefficient modulus")
    return moduli


def _steps(kind, params, z, lo, hi):
    """c_n / c_{n-1} for lo <= n < hi: z e^{-i G(n-1) phi} times sqrt(F(n)) / n
    (perelomov) or 1 / sqrt(F(n)) (barut-girardello)."""
    table = ladder_table(params, hi)
    roots = np.sqrt(table.f[lo:])
    steps = z * roots / np.arange(lo, hi) if kind is StateKind.PERELOMOV else z / roots
    phase = 1j * (table.g[lo - 1 : hi - 1] * -params.phi)
    steps *= np.exp(phase, out=phase)
    return steps


def _scaled_norm(v) -> tuple[float, int]:
    """The l2 norm of v as (mantissa, exponent): ``np.linalg.norm(v)`` and 0
    wherever that is finite, else the norm of v * 2**-exponent, the power
    of two that brings every real and imaginary part under 1 (exact; Blue
    1978).  A non-finite entry gives a non-finite mantissa."""
    with np.errstate(over="ignore"):  # a sum of squares past the double range: rescaled
        norm = float(np.linalg.norm(v))
        if math.isfinite(norm):
            return norm, 0
        exponent = math.frexp(float(np.max(np.maximum(np.abs(v.real), np.abs(v.imag)))))[1]
        return float(np.linalg.norm(v * 2.0**-exponent)), exponent


def _finish(kind, params, z, coeffs, normalize, meta) -> CoherentState:
    norm, exponent = _scaled_norm(coeffs)
    if not math.isfinite(norm):
        raise DomainError(f"{kind.value} state at z = {z} overflows double precision")
    if normalize:
        coeffs = coeffs * 2.0**-exponent / norm
    return CoherentState(kind, params, z, _freeze(coeffs), bool(normalize), meta)


def _state(kind, params, dim, z, normalize, tail_tol, max_terms) -> CoherentState:
    """The state at z from `_series`: the d coefficients of a finite ladder,
    else the series to its tail cut, of at most max_terms terms."""
    stop, tol = (dim.d, None) if dim.is_finite else (max_terms + 1, tail_tol)
    blocks, (bound,), _ = _series(kind, params, [z], stop, tol)
    if tol is not None and bound == math.inf:
        raise DomainError(f"series did not reach tail tolerance {tol:g} within {max_terms} terms")
    coeffs = np.concatenate(blocks, axis=1)[0]
    meta = CutoffMeta(True, dim.d) if tol is None else CutoffMeta(False, len(coeffs), bound, tol)
    return _finish(kind, params, z, coeffs, normalize, meta)


def _checked_inputs(z, tail_tol: float) -> complex:
    """complex(z), refusing a non-finite z or a tail_tol outside (0, inf)."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"z must be finite, got z = {z}")
    if not 0.0 < tail_tol < math.inf:
        raise DomainError(f"tail_tol must be finite and positive, got tail_tol = {tail_tol!r}")
    return z


def _outside_disk(params: AlgebraParams, radius: float) -> bool:
    """Whether |z| = radius misses the open disk |z| < 1/sqrt(kappa_1) in
    which the perelomov states of an r = 1 infinite ladder with kappa_1 > 0
    exist; no other ladder has such a disk."""
    if classify(params).is_finite or params.r != 1:
        return False
    k1 = float(params.kappas[0])
    return k1 > 0.0 and radius * math.sqrt(k1) >= 1.0


def perelomov_state(
    params: AlgebraParams,
    z,
    *,
    normalize: bool = False,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_terms: int = MAX_SERIES_TERMS,
) -> CoherentState:
    """State with coefficients sqrt(F(n)!)/n! * z^n * e^{-i F(n) phi}.

    Finite ladder: exact vector of d coefficients, any r, any z.
    Infinite ladder: requires r = 1 and |z| < 1/sqrt(kappa_1) (open disk);
    the series is truncated at the requested tail tolerance.
    """
    z = _checked_inputs(z, tail_tol)
    dim = classify(params)
    if not dim.is_finite and params.r >= 2:
        raise DomainError(
            "perelomov-type states on an infinite ladder exist only for r = 1 "
            f"(the series cannot be normalized for r >= 2); got r = {params.r}"
        )
    if not dim.is_finite and _outside_disk(params, abs(z)):
        raise DomainError(
            "z lies outside the existence disk: need |z| < 1/sqrt(kappa_1) = "
            f"{1.0 / math.sqrt(float(params.kappas[0])):.6g}, got |z| = {abs(z):.6g}"
        )
    return _state(StateKind.PERELOMOV, params, dim, z, normalize, tail_tol, max_terms)


def perelomov_via_exponential(
    params: AlgebraParams, z, rep: LadderRep, *, normalize: bool = False
) -> CoherentState:
    """exp(z * raising)|0> summed as the exact nilpotent polynomial.

    Independent of the series construction: on a finite ladder the raising
    operator is nilpotent, so the exponential is a finite sum of d vector
    terms, each the last one raised by the band of ``rep``.  Agrees with
    `perelomov_state` entrywise.
    """
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
    raising = rep.band.conj()  # <n+1|raising|n>
    v = np.zeros(dim.d, dtype=complex)
    v[0] = 1.0
    term = v.copy()
    for k in range(1, dim.d):
        term = np.concatenate(([0j], raising * term[:-1])) * (z / k)
        v = v + term
    meta = CutoffMeta(exact=True, n_terms=dim.d)
    return _finish(StateKind.PERELOMOV, params, z, v, normalize, meta)


def bg_state(
    params: AlgebraParams,
    z,
    *,
    normalize: bool = False,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_terms: int = MAX_SERIES_TERMS,
) -> CoherentState:
    """Lowering-operator eigenstate, coefficients z^n e^{-i F(n) phi} / sqrt(F(n)!).

    Exists on the infinite ladder for any r and any complex z.  On a
    finite ladder the eigenvalue equation has no complex solution, so the
    request is rejected; `grassmann.bg_grassmann_state` provides the
    nilpotent-variable construction there.
    """
    z = _checked_inputs(z, tail_tol)
    dim = classify(params)
    if dim.is_finite:
        raise DomainError(
            "no lowering-operator eigenstate exists for complex z on a finite ladder "
            f"(d = {dim.d}); use bg_grassmann_state for the nilpotent-variable construction"
        )
    return _state(StateKind.BARUT_GIRARDELLO, params, dim, z, normalize, tail_tol, max_terms)


def check_bg_eigen(state: CoherentState, rep: LadderRep) -> float:
    """Relative l2 residual of lowering @ c = z c.

    For truncated series the last populated row is excluded (it reads the
    first dropped coefficient, a pure cutoff artifact); exact finite
    vectors are checked on every row.  Eigenstates built at tail tolerance
    1e-14 come out below 1e-10; anything that is not a lowering
    eigenstate (e.g. a perelomov state on a deformed ladder) gives an
    O(1) residual.
    """
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
    return float(np.linalg.norm(resid) / norm)


def time_evolve(state: CoherentState, t: float) -> CoherentState:
    """Propagate with the structure-function Hamiltonian: c_n -> e^{-i F(n) t} c_n.

    Temporal stability: the result coincides with the same-kind state
    rebuilt at phase phi + t (moduli are untouched, so the cutoff metadata
    carries over unchanged).
    """
    t = float(t)
    coeffs = state.coeffs * np.exp(-1j * ladder_table(state.params, len(state.coeffs)).f * t)
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

    Requires matching kind and kappas.  Equal phases are required as well
    unless ``unchecked=True``: cross-phase overlaps are well-defined
    numbers but carry no verified property.
    """
    if s1.kind != s2.kind:
        raise ValueError("overlap requires matching state kinds")
    if s1.params.kappas != s2.params.kappas:
        raise ValueError("overlap requires matching algebra parameters")
    if not unchecked and s1.params.phi != s2.params.phi:
        raise ValueError("phases differ; pass unchecked=True to compute the overlap anyway")
    length = min(len(s1.coeffs), len(s2.coeffs))
    return complex(np.vdot(s1.coeffs[:length], s2.coeffs[:length]))


def _has_nan(x) -> bool:
    """Whether x, a scalar or an array of any dtype, holds a NaN.

    NaN is the one value unequal to itself; unlike np.isnan this also
    reads object scalars such as a Fraction or an int past the double range."""
    a = np.asarray(x)
    return bool((a != a).any())


def hyper_0f(ells, x, *, rel_tol: float = 1e-16, max_terms: int = 100_000):
    """Generalized hypergeometric series 0F_q(ell_1, ..., ell_q; x), at x or an x-array.

    Summed term by term, t_{k+1} = t_k * x / ((k+1) prod_i (ell_i + k)),
    until the relative term drops below ``rel_tol``; a scalar x gives a
    float, an array an array.  A value past the double range is a
    `DomainError`.  So is a sum lost to cancellation at x < 0: its rounding
    error is bounded by eps * S, S = 0F_q(ells; |x|) the sum of the term
    moduli, and the sum is refused where that bound passes 1e-8 of the value
    or S passes the double range.  S is summed first: it bounds the partial
    sums too, so with S in range the signed sum cannot overflow.
    """
    if _has_nan(x):
        raise DomainError("x must not be NaN")
    negative = np.asarray(x) < 0
    if not negative.any():
        return _ldexp(*_hyper_0f_scaled(ells, x, rel_tol, max_terms), "hypergeometric sum")
    x_negative = np.asarray(x, dtype=float)[negative]
    moduli, exponent = _hyper_0f_scaled(ells, -x_negative, rel_tol, max_terms)
    if exponent.any():
        i, detail = np.flatnonzero(exponent)[0], "past the double range"
    else:
        value = _ldexp(*_hyper_0f_scaled(ells, x, rel_tol, max_terms), "hypergeometric sum")
        signed = np.asarray(value)[negative]
        lost = np.flatnonzero(np.finfo(float).eps * moduli > 1e-8 * np.abs(signed))
        if not lost.size:
            return value
        i = lost[0]
        detail = f"to {moduli[i]:.3g} against a value of {signed[i]:.3g}"
    raise DomainError(
        f"hypergeometric sum at x = {x_negative[i]:g} is lost to cancellation: "
        f"its term moduli sum {detail}"
    )


def _rescaled_sum(
    ells, x: float, rel_tol: float = 1e-16, max_terms: int = 100_000
) -> tuple[float, int]:
    """The term-by-term float sum as (mantissa, exponent), the value
    mantissa * 2**exponent.  Before a step that would overflow, the term and
    the total are divided by 2**RESCALE_BITS (exactly) and the exponent grows
    by as much; wherever the plain float sum stays finite the exponent is 0
    and the mantissa is that sum."""
    term = total = 1.0
    exponent = k = 0
    while abs(term) > rel_tol * abs(total):
        factor = x / ((k + 1) * math.prod(ell + k for ell in ells))
        step = term * factor
        summed = total + step
        if math.isinf(summed):
            if math.isinf(factor):
                raise DomainError(f"hypergeometric series term ratio overflows at x = {x:g}")
            term, total = math.ldexp(term, -RESCALE_BITS), math.ldexp(total, -RESCALE_BITS)
            exponent += RESCALE_BITS
            continue
        term, total = step, summed
        k += 1
        if k >= max_terms:
            raise DomainError("hypergeometric series did not converge")
    return total, exponent


def _hyper_0f_scaled(ells, x, rel_tol: float = 1e-16, max_terms: int = 100_000):
    """0F_q at x, a scalar or an array, as (mantissa, exponent), the value
    mantissa * 2**exponent, which need not fit a double.

    The one place that tells a scalar from an array.  A scalar is summed by
    `_rescaled_sum` as the Python number it holds: a Fraction exactly as
    given, a numpy float as a float, which overflows without a warning.  An
    array runs the plain float sum at every entry at once, and an entry it
    overflows is summed again by `_rescaled_sum`."""
    if not np.ndim(x):
        return _rescaled_sum(ells, np.asarray(x).item(), rel_tol, max_terms)
    x = np.asarray(x, dtype=float)
    total, exponent = _hyper_0f_array(ells, x, rel_tol, max_terms), np.zeros(x.shape, dtype=int)
    for i in np.flatnonzero(np.isinf(total)):
        total.flat[i], exponent.flat[i] = _rescaled_sum(ells, float(x.flat[i]), rel_tol, max_terms)
    return total, exponent


def _hyper_0f_array(ells, x: np.ndarray, rel_tol: float, max_terms: int) -> np.ndarray:
    """The plain float sum at every entry of x at once, inf where it
    overflows.  Each entry stops at its own term, so it equals the scalar
    sum bit for bit; a plain float loop stays faster for one x."""
    out = np.ones(x.shape)
    live = np.arange(x.size)  # flat indices still summing
    xs, term, total = x.ravel(), np.ones(x.size), np.ones(x.size)
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):  # as the float sum: inf, no warning
        while True:
            going = np.abs(term) > rel_tol * np.abs(total)
            if not going.all():
                out.flat[live[~going]] = total[~going]
                live, xs, term, total = live[going], xs[going], term[going], total[going]
            if not live.size:
                return out
            term *= xs / ((k + 1) * math.prod(ell + k for ell in ells))
            total += term
            k += 1
            if k >= max_terms:
                raise DomainError("hypergeometric series did not converge")


def _ldexp(mantissa, exponent, what: str):
    """mantissa * 2**exponent at a scalar or at every entry of an array; a
    0-d input gives a Python float.  Past the double range it is a
    `DomainError` naming ``what`` and the largest entry's size in bits."""
    with np.errstate(over="ignore"):
        value = np.ldexp(mantissa, exponent)
    if np.isinf(value).any():
        with np.errstate(divide="ignore"):  # a zero mantissa elsewhere in the array
            bits = np.max(np.log2(np.abs(mantissa)) + exponent)
        raise DomainError(f"{what} overflows double precision: it is about 2^{bits:.1f}")
    return value if np.ndim(value) else float(value)


def bg_normalization(params: AlgebraParams, z):
    """|N(z)| with |N|^2 = 0F_q(ells; prod(ells) |z|^2), at z or a z-array.

    Valid for kappas of the reciprocal-integer form 1/ell (zero kappas
    drop out).  Agrees with the l2 norm of the unnormalized
    lowering-eigenstate coefficient vector at the same z.  |N|^2 may pass
    the double range where |N| does not: the root is taken of the scaled
    sum, sqrt(m 2^e) = sqrt(m) 2^(e/2), and only an |N| past the double
    range is a `DomainError`.
    """
    ells = reciprocal_ells(params)
    if _has_nan(z):
        raise DomainError("z must not be NaN")
    return _ldexp(*_bg_normalization_scaled(ells, z), "normalization |N(z)|")


def _bg_normalization_scaled(ells, z):
    """|N(z)| for the 1/ell kappas of ``ells`` (`reciprocal_ells`) at z or
    at every point of a z-array as (mantissa, exponent), the value
    mantissa * 2**exponent, which need not fit a double."""
    z = np.asarray(z, dtype=complex)
    x = math.prod(ells) * np.hypot(z.real, z.imag) ** 2  # hypot: bit-equal to abs(complex)
    mantissa, exponent = _hyper_0f_scaled(ells, x)  # exponent: a multiple of RESCALE_BITS, even
    return np.sqrt(mantissa), exponent // 2


def perelomov_log_partial_norms(params: AlgebraParams, z, n_terms: int) -> np.ndarray:
    """log of the partial sums of sum_n |c_n|^2 for the perelomov series.

    Bypasses the existence gate so that the divergence for r >= 2 on an
    infinite ladder can be exhibited numerically; works in log space
    because the terms overflow double precision almost immediately.
    """
    if classify(params).is_finite:
        raise DomainError("the divergence diagnostic applies to the infinite ladder")
    z = complex(z)
    f = ladder_table(params, n_terms).f
    with np.errstate(divide="ignore"):  # z = 0: log |c_n|^2 = -inf past c_0
        log_ratios = np.log(abs(z) ** 2 * f[1:] / np.arange(1, n_terms) ** 2)
    return np.logaddexp.accumulate(np.concatenate(([0.0], np.cumsum(log_ratios))))
