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
actually achieved is recorded on the state.
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
RESCALE_BITS = 512  # power of two taken out of a hypergeometric sum about to overflow


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
        return float(np.linalg.norm(self.coeffs))


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in _finish's DomainError
def _truncate_series(kind, params, z, tail_tol, max_terms):
    """Accumulate c_0 = 1, c_n = c_{n-1} * step(n) (`_steps`) until
    `_tail_cut` allows the rest to be dropped, in blocks of doubling
    length, each accumulated from the previous carry in the order of a
    term-by-term loop."""
    tol2 = tail_tol * tail_tol
    ratio_sup = _ratio_sup(kind, params, abs(z))
    coeffs = np.ones(1, dtype=complex)
    norm2 = 1.0
    while True:
        lo = len(coeffs)
        hi = min(max(2 * lo, 64), max_terms + 1)
        block = np.cumprod(np.concatenate((coeffs[-1:], _steps(kind, params, z, lo, hi))))[1:]
        abs2 = np.abs(block) ** 2
        norms = np.cumsum(np.concatenate(([norm2], abs2)))  # norms[i]: before block[i]
        cut = _tail_cut(abs2, norms, lo, ratio_sup, tol2)
        if cut is not None:
            i, bound = cut
            return np.concatenate((coeffs, block[:i])), bound
        if hi > max_terms:
            raise DomainError(
                f"series did not reach tail tolerance {tail_tol:g} within {max_terms} terms"
            )
        coeffs = np.concatenate((coeffs, block))
        norm2 = norms[-1]
        del block, abs2, norms  # not held while the next block is built


def _tail_cut(abs2, norms, lo, ratio_sup, tol2):
    """The series' one tail rule: (i, achieved relative tail bound) for the
    first i at which the terms from c_{lo+i} on may be dropped, or None.

    abs2[i] = |c_{lo+i}|^2 and norms[i] is the squared norm before it.
    ratio_sup(j) bounds |c_{m+1}/c_m| for every m >= j (`_ratio_sup`); once
    it drops under 1 the tail is dominated by a geometric series, giving
    tail^2 <= |c_{lo+i}|^2 / (1 - q^2).  As tail^2 >= |c_{lo+i}|^2, the
    bound is evaluated only where the term alone is under the tolerance.
    """
    for i in np.flatnonzero(abs2 <= tol2 * norms[: len(abs2)]):
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
        k1 = float(params.kappas[0])

        def ratio_sup(j):
            # |c_{m+1}/c_m| = |z| sqrt((1 + k1 m)/(m + 1)) is monotone toward
            # sqrt(k1), so the sup over m >= j is attained at m = j or in the limit
            return radius * math.sqrt(max((1.0 + k1 * j) / (j + 1.0), k1))

        return ratio_sup

    def ratio_sup(j):
        # F is nondecreasing on the infinite ladder, so the first ratio dominates
        return radius / math.sqrt(float(structure_function(params, j + 1)))

    return ratio_sup


def _series_moduli(kind, params, zs, levels: int) -> np.ndarray:
    """|c_n(z)|^2 for n < levels at every z of zs, one row per z, as the
    constructor at the default tail tolerance gives them: zero from its
    tail cut (`_tail_cut`) on.

    One ladder table, one broadcast `_steps` and one cumprod and one cumsum
    along the rows.  Both accumulate term by term, as the constructor's
    doubling blocks do from their carry, so for real z >= 0 each row is
    bit-equal to ``np.abs(ctor(params, z).coeffs[:levels]) ** 2``,
    zero-padded.  (A real z makes every step a real number times its phase,
    one rounding per component however numpy lays out the product; for a
    complex z numpy may fuse the broadcast product's multiply-add where it
    does not in the constructor's, and the last bit can differ.)  The
    caller has made sure the states exist, so nothing overflows (the state
    at the largest z has been built), and a finite ladder has levels <= d;
    no check is made here.
    """
    zs = np.asarray(zs, dtype=complex)
    steps = _steps(kind, params, zs[:, None], 1, levels)
    moduli = np.abs(np.cumprod(np.concatenate((np.ones((len(zs), 1)), steps), axis=1), axis=1)) ** 2
    if classify(params).is_finite:
        return moduli  # the exact vector: no tail cut
    norms = np.cumsum(moduli, axis=1)  # norms[:, n]: through c_n
    tol2 = DEFAULT_TAIL_TOL * DEFAULT_TAIL_TOL
    # a row can be cut only where a term is under the tolerance: most rows never are
    for j in np.flatnonzero((moduli[:, 1:] <= tol2 * norms[:, :-1]).any(axis=1)):
        ratio_sup = _ratio_sup(kind, params, abs(complex(zs[j])))
        cut = _tail_cut(moduli[j, 1:], norms[j], 1, ratio_sup, tol2)
        if cut is not None:
            moduli[j, cut[0] + 1 :] = 0.0
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


def _finish(kind, params, z, coeffs, normalize, meta) -> CoherentState:
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(coeffs)  # inf or nan if it overflows or any coefficient is
    if not math.isfinite(norm):
        raise DomainError(
            f"{kind.value} state at z = {z} overflows double precision: its "
            f"coefficients or their norm are not finite ({meta.n_terms} terms)"
        )
    if normalize:
        coeffs = coeffs / norm
    return CoherentState(kind, params, z, _freeze(coeffs), bool(normalize), meta)


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
    if dim.is_finite:
        with np.errstate(over="ignore", invalid="ignore"):  # refused by _finish
            coeffs = np.cumprod(np.r_[1.0, _steps(StateKind.PERELOMOV, params, z, 1, dim.d)])
        meta = CutoffMeta(exact=True, n_terms=dim.d)
        return _finish(StateKind.PERELOMOV, params, z, coeffs, normalize, meta)

    if params.r >= 2:
        raise DomainError(
            "perelomov-type states on an infinite ladder exist only for r = 1 "
            f"(the series cannot be normalized for r >= 2); got r = {params.r}"
        )
    if _outside_disk(params, abs(z)):
        raise DomainError(
            "z lies outside the existence disk: need |z| < 1/sqrt(kappa_1) = "
            f"{1.0 / math.sqrt(float(params.kappas[0])):.6g}, got |z| = {abs(z):.6g}"
        )

    coeffs, bound = _truncate_series(StateKind.PERELOMOV, params, z, tail_tol, max_terms)
    meta = CutoffMeta(exact=False, n_terms=len(coeffs), tail_bound=bound, tail_tol=tail_tol)
    return _finish(StateKind.PERELOMOV, params, z, coeffs, normalize, meta)


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

    kind = StateKind.BARUT_GIRARDELLO
    coeffs, bound = _truncate_series(kind, params, z, tail_tol, max_terms)
    meta = CutoffMeta(exact=False, n_terms=len(coeffs), tail_bound=bound, tail_tol=tail_tol)
    return _finish(kind, params, z, coeffs, normalize, meta)


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
    # row n of lowering @ c - z c is band[n] c[n+1] - z c[n]
    resid = rep.band[: length - 1] * c[1:] - state.z * c[:-1]
    if exact:
        resid = np.append(resid, -state.z * c[-1])  # lowering kills the top level
    return float(np.linalg.norm(resid) / np.linalg.norm(c))


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
