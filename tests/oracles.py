"""Independent reference computations and randomized-parameter helpers.

Everything here is written from the defining formulas, separately from
the library code paths it cross-checks.
"""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np

from polywh import (
    AlgebraParams,
    DomainError,
    GrowthEstimate,
    StateKind,
    bg_state,
    classify,
    perelomov_state,
)
from polywh.algebra import ladder_table
from polywh.coherent import RESCALE_BITS, _ratio_sup, _steps, _tail_cut
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


def moments_by_fractions(kappas, kind, count) -> tuple[Fraction, ...]:
    """m_n = F(n)! (barut-girardello) or (n!)^2 / F(n)! (perelomov), n < count,
    one brute Fraction factorial per level: the reference for the integer
    running product of `measure.moments_for`."""
    factorials = [brute_factorial(kappas, n) for n in range(count)]
    if kind == "perelomov":
        return tuple(Fraction(math.factorial(n)) ** 2 / v for n, v in enumerate(factorials))
    return tuple(factorials)


def bg_kernel_log_moduli(kappas, n_max) -> np.ndarray:
    """log 1/sqrt(F(n)!), summed term by term over the exact F(n)."""
    logs = [0.0]
    acc = 0.0
    for n in range(1, n_max + 1):
        acc += math.log(float(brute_structure(kappas, n)))
        logs.append(-0.5 * acc)
    return np.array(logs)


def ladder_rows_two_temporaries(params: AlgebraParams, lo: int, hi: int):
    """`algebra._ladder_rows` with two fresh temporaries per kappa and G
    divided into a new array: the form the one-buffer rows must equal."""
    n_minus_1 = np.arange(lo - 1.0, hi)
    scaled = n_minus_1 + 1.0
    for kappa in params.kappas:
        scaled *= kappa.denominator + kappa.numerator * n_minus_1
    if lo == 0:
        scaled[0] = 0.0
    scale = float(math.prod(kappa.denominator for kappa in params.kappas))
    g = np.diff(scaled) / scale
    scaled /= scale
    return scaled[:-1], g


def log_factorial_by_concatenate(f: np.ndarray) -> np.ndarray:
    """log F(n)! as [0] followed by cumsum(log F(1..)), concatenated and cut
    to len(f): times -1/2, the reference for `EntireSeries.bg_kernel`'s one
    buffer."""
    return np.concatenate(([0.0], np.cumsum(np.log(f[1:]))))[: len(f)]


def growth_sample(n_max) -> list[int]:
    """The 32 fit indices of a series with coefficients n <= n_max: evenly
    spaced over n_max // 2 .. n_max, both ends included, rounded down."""
    lo = n_max // 2
    return [lo + k * (n_max - lo) // 31 for k in range(32)]


def log_rising(a: float, n: list[int]) -> np.ndarray:
    """log((a)_n / a^n) = sum over k < n of log(1 + k/a) at each n, (a)_n the
    rising factorial: lgamma(a + n) - lgamma(a) - n log a for a < 32, else
    the difference of Stirling's series (DLMF 5.11.1), (a + n - 1/2)
    log1p(n/a) - n + w(a + n) - w(a), which keeps out the lgamma
    difference's cancellation where a >> n.  Here w(x) = lgamma(x) - (x -
    1/2) log x + x - log(2 pi)/2 is taken to three terms of its asymptotic
    series in r = 1/x, within 2e-14 for x >= 32.  The growth kernel's
    reference: 1/2 log F(n)! is 1/2 the sum of this over a = 1 and the
    1/kappa_i."""
    k = np.array(n, dtype=float)
    if a < 32:
        return np.array([math.lgamma(a + i) for i in n]) - math.lgamma(a) - k * math.log(a)
    w = [r * (1 / 12 - r * r * (1 / 360 - r * r / 1260)) for r in (1 / (a + k), 1 / a)]
    return (a + k - 0.5) * np.log1p(k / a) - k + w[0] - w[1]


def growth_by_column_stack(series) -> GrowthEstimate:
    """`bargmann.estimate_growth` from its defining model, a `column_stack`
    design in n itself at the `growth_sample` indices, columns 1, n,
    n log n, log n, 1/n and 1/n^2 each over its largest entry, and a
    residual built from temporaries."""
    y_all = -series.log_moduli
    n_max = len(y_all) - 1
    index = growth_sample(n_max)
    n, y = np.array(index, dtype=float), y_all[index]
    columns = [np.ones_like(n), n, n * np.log(n), np.log(n), 1 / n, 1 / n**2]
    norms = np.array([np.max(np.abs(column)) for column in columns])
    design = np.column_stack(columns) / norms
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    _, beta, slope, gamma, _, _ = coef / norms
    rho = 1.0 / slope
    sigma = math.exp(-beta * rho - 1.0) / rho
    y_last = y_all[n_max]
    rho_raw = n_max * math.log(n_max) / y_last
    sigma_raw = n_max * math.exp(-rho * y_last / n_max) / (math.e * rho)
    return GrowthEstimate(float(rho), float(sigma), (index[0], n_max), residual,
                          float(rho_raw), float(sigma_raw), float(gamma))


def growth_fit_to_40_digits(series):
    """(rho, sigma, gamma, residual) of the exact least-squares fit of the
    series' float log-moduli at the `growth_sample` indices by the model of
    `growth_by_column_stack`, from the normal equations in mpmath at 40
    digits."""
    with mpmath.workdps(40):
        y_all = series.log_moduli
        index = growth_sample(len(y_all) - 1)
        rows = mpmath.matrix([[1, n, n * mpmath.log(n), mpmath.log(n), mpmath.mpf(1) / n,
                               mpmath.mpf(1) / n**2] for n in map(mpmath.mpf, index)])
        y = mpmath.matrix([-mpmath.mpf(y_all[n]) for n in index])
        coef = mpmath.lu_solve(rows.T * rows, rows.T * y)
        rho = 1 / coef[2]
        misfit = rows * coef - y
        residual = mpmath.sqrt(mpmath.fsum(e**2 for e in misfit) / len(index))
        return rho, mpmath.exp(-coef[1] * rho - 1) / rho, coef[3], residual


def schwarz_grid_by_list(radius: float, points: int) -> list[complex]:
    """The square z-grid of the schwarz command as a list of Python
    complexes, x outer and y inner."""
    axis = np.linspace(-radius, radius, points)
    return [complex(x, y) for x in axis for y in axis]


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


def series_unfiltered(kind, params, zs, stop, tail_tol):
    """`coherent._series` with the tail scan it had before its candidate
    prefilter: every term with |c_n|^2 <= tol^2 S_n goes to `_tail_cut`, so
    the cut is found by the scan itself, not by a bound on where it can be."""
    zs = np.asarray(zs, dtype=complex)
    rows, cut_rows, lo, scale = len(zs), tail_tol is not None, 1, 1.0
    blocks, norm2 = [np.ones((rows, 1), dtype=complex)], np.ones((rows, 1))
    exponents, lengths, bounds = np.zeros(rows, dtype=int), [stop] * rows, [math.inf] * rows
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < stop and math.inf in bounds:
            hi = min(max(2 * lo, 64), stop) if cut_rows else stop
            steps = _steps(kind, params, zs[:, None], lo, hi)
            block = np.cumprod(np.concatenate((blocks[-1][:, -1:], steps), axis=1), axis=1)
            block = block[:, 1:]
            while True:
                abs2 = np.abs(block * scale) ** 2
                norms = np.cumsum(np.concatenate((norm2, abs2), axis=1), axis=1)
                if math.isfinite(norms[:, -1].max()):
                    break
                if not np.isfinite(block).all():
                    i, n = np.argwhere(~np.isfinite(block))[0]
                    raise DomainError(
                        f"{kind.value} state at z = {complex(zs[i])} overflows double precision: "
                        f"coefficient c_{lo + n} passes the double range")
                over = np.isinf(norms[:, -1])
                exponents[over] += RESCALE_BITS
                norm2[over] = np.ldexp(norm2[over], -RESCALE_BITS)
                scale = np.ldexp(1.0, -exponents // 2)[:, None]
            if cut_rows:
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
    return blocks, bounds, exponents


def perelomov_series_by_doubling(params: AlgebraParams, z, tail_tol=1e-14, max_terms=200_000):
    """(coefficients, tail bound) of the perelomov series of an infinite
    ladder from `series_unfiltered`, whose blocks double up to the term cap
    whatever the cut, with the refusal of `coherent._state` where no block
    meets the cut: the reference for a series that predicts its cut or its
    refusal."""
    blocks, (bound,), _ = series_unfiltered(
        StateKind.PERELOMOV, params, [z], max_terms + 1, tail_tol)
    if bound == math.inf:
        raise DomainError(
            f"series did not reach tail tolerance {tail_tol:g} within {max_terms} terms")
    return np.concatenate(blocks, axis=1)[0], bound


def log_term_modulus(kind, kappas, radius: float, n: int, dps: int = 30) -> float:
    """log|c_n|^2 of an infinite-ladder series at |z| = radius from mpmath's
    loggamma at ``dps`` digits more than the digit count of the largest
    shape 1/kappa_i, the kappas exact: log F(n)! = log n! + sum over kappa_i
    > 0 of n log kappa_i + log Gamma(n + 1/kappa_i) - log Gamma(1/kappa_i),
    a difference that cancels those digits, and |c_n|^2 = |z|^2n F(n)! /
    n!^2 (perelomov) or |z|^2n / F(n)! (barut-girardello)."""
    shapes = [1 / kappa for kappa in map(Fraction, kappas) if kappa]
    dps += max((len(str(shape.numerator // shape.denominator)) for shape in shapes), default=0)
    with mpmath.workdps(dps):
        log_factorial = mpmath.loggamma(n + 1)
        for kappa in map(Fraction, kappas):
            if kappa:
                shape = mpmath.mpf(kappa.denominator) / kappa.numerator
                log_factorial += (n * mpmath.log(mpmath.mpf(kappa.numerator) / kappa.denominator)
                                  + mpmath.loggamma(n + shape) - mpmath.loggamma(shape))
        power = 2 * n * mpmath.log(mpmath.mpf(radius))
        if StateKind(kind) is StateKind.PERELOMOV:
            return float(power + log_factorial - 2 * mpmath.loggamma(n + 1))
        return float(power - log_factorial)


def verify_identity_by_states(params: AlgebraParams, kind, measure) -> float:
    """Max deviation of sum_j w_j |c_n(sqrt(t_j))|^2 from 1 over the matched
    levels, one full coherent state per node, summed in node order."""
    kind = StateKind(kind)
    levels = measure.n_matched
    diag = np.zeros(levels)
    for t, w in zip(measure.nodes, measure.weights):
        zj = math.sqrt(float(t))
        if kind is StateKind.PERELOMOV:
            state = perelomov_state(params, zj)
        else:
            state = bg_state(params, zj)
        amp2 = np.abs(state.coeffs[:levels]) ** 2
        diag += float(w) * np.pad(amp2, (0, levels - len(amp2)))
    return float(np.max(np.abs(diag - 1.0)))


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


def nilpotent_exponential_by_vectors(raising_band: np.ndarray, z) -> np.ndarray:
    """exp(z * raising)|0> as the finite sum of its d vector terms, each
    the last one raised by the band (<n+1|raising|n>) and scaled by z / k:
    O(d) work per term, though term k is nonzero at level k alone."""
    v = np.zeros(len(raising_band) + 1, dtype=complex)
    v[0] = 1.0
    term = v.copy()
    for k in range(1, len(v)):
        term = np.concatenate(([0j], raising_band * term[:-1])) * (z / k)
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
    """The artifact's values in json.dumps's text: every 1-D or 2-D complex
    ndarray turned into (lists of) `coeff_list` dicts, every real or 0-d one
    into its `tolist()` (json.dumps refuses the complex of a 0-d complex
    one), and the whole dumped by json.dumps.  The CLI writes the numbers of
    a nonempty array in orjson's form, so its text parses to these values;
    outside arrays it is this text byte for byte."""

    def plain(value):
        if not isinstance(value, np.ndarray):
            return value
        if not np.iscomplexobj(value) or not value.ndim:
            return value.tolist()
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


def rescaled_sum(ells, x: float, rel_tol=1e-16, max_terms=100_000) -> tuple[float, int]:
    """0F_q(ells; x) summed term by term from k = 0 as (mantissa, exponent),
    the value mantissa * 2**exponent: the term and the total are divided by
    2**RESCALE_BITS before a step that would overflow, so the exponent is 0
    wherever the plain sum is finite.  A term ratio past the double range,
    and a sum still going at max_terms terms, are the library's errors."""
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


def hyper_0f_by_rescaling(ells, x, rel_tol=1e-16, max_terms=100_000):
    """0F_q at a float64 scalar or 1-D array x as (mantissa, exponent), the
    way the library summed it before it summed from the peak term: an array
    as one masked float loop (each entry stopping at its own term), then
    every entry whose plain sum overflows by `rescaled_sum`, in array order;
    x = +inf sums to inf."""
    if not np.ndim(x):
        return (math.inf, 0) if x == math.inf else rescaled_sum(ells, float(x), rel_tol, max_terms)
    term, total, exponent = np.ones(x.shape), np.ones(x.shape), np.zeros(x.shape, dtype=int)
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while (going := np.abs(term) > rel_tol * np.abs(total)).any():
            term *= x / ((k + 1) * math.prod(ell + k for ell in ells))
            np.add(total, term, out=total, where=going)
            k += 1
            if k >= max_terms:
                raise DomainError("hypergeometric series did not converge")
    for i in np.flatnonzero(np.isinf(total) & (x != math.inf)):
        total[i], exponent[i] = rescaled_sum(ells, float(x[i]), rel_tol, max_terms)
    return total, exponent


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


def orthonormal_values_three_arrays(alphas, off, t):
    """sqrt(beta_k) p_k(t), its derivative in t, sum_{n<k} p_n(t)^2 and
    sum_{n<k} p_n(t) p'_n(t), each carried as its own array of t's dtype
    through one recurrence: the reference for the two-row pass of
    `measure._gauss_rule`."""
    p_prev, p = np.zeros_like(t), np.full_like(t, 1.0 / off[0])
    dp_prev, dp = np.zeros_like(t), np.zeros_like(t)
    squares, cross = p * p, p * dp
    for n, alpha in enumerate(alphas):
        p_next = (t - alpha) * p - off[n] * p_prev
        dp_next = p + (t - alpha) * dp - off[n] * dp_prev
        if n + 1 < len(alphas):
            p_prev, p = p, p_next / off[n + 1]
            dp_prev, dp = dp, dp_next / off[n + 1]
            squares += p * p
            cross += p * dp
    return p_next, dp_next, squares, cross


def _eigvalsh_nodes(alphas, betas):
    off = np.sqrt(betas)
    return off, np.linalg.eigvalsh(np.diag(alphas) + np.diag(off[1:], 1) + np.diag(off[1:], -1))


def gauss_rule_three_arrays(alphas, betas):
    """(nodes, Christoffel sums) of a Jacobi matrix, the one pass of
    `measure._gauss_rule` by `orthonormal_values_three_arrays`, in
    np.longdouble: at the eigvalsh nodes, a Newton step gives the nodes,
    and the sums are moved along that step by their slope, 2 sum p_n p'_n;
    both are returned unrounded."""
    _, nodes = _eigvalsh_nodes(alphas, betas)
    wide = np.longdouble
    alphas, off, nodes = alphas.astype(wide), np.sqrt(betas.astype(wide)), nodes.astype(wide)
    with np.errstate(over="ignore", invalid="ignore"):
        value, slope, squares, cross = orthonormal_values_three_arrays(alphas, off, nodes)
        step = value / slope
        return nodes - step, squares - 2.0 * cross * step


def gauss_rule_four_passes(alphas, betas):
    """(nodes, weights) of a Jacobi matrix as the endgame before the
    two-pass and one-pass ones computed them: three Newton passes from the
    eigvalsh nodes, then the Christoffel sums at the polished nodes."""
    off, polished = _eigvalsh_nodes(alphas, betas)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            value, slope, *_ = orthonormal_values_three_arrays(alphas, off, polished)
            polished = polished - value / slope
        _, _, squares, _ = orthonormal_values_three_arrays(alphas, off, polished)
    return polished, 1.0 / squares


def gauss_rule_by_mpmath(alphas, betas, dps=50):
    """(nodes, weights) of a float Jacobi matrix at ``dps`` digits, every
    entry taken exactly: the eigenvalues by `mpmath.eigsy`, the weights
    as 1/sum_{n<k} p_n(t)^2 of the orthonormal recurrence at each."""
    import mpmath

    k = len(alphas)
    with mpmath.workdps(dps):
        a = [mpmath.mpf(float(x)) for x in alphas]
        off = [mpmath.sqrt(mpmath.mpf(float(x))) for x in betas]
        jacobi = mpmath.zeros(k, k)
        for i in range(k):
            jacobi[i, i] = a[i]
            if i:
                jacobi[i, i - 1] = jacobi[i - 1, i] = off[i]
        nodes = sorted(mpmath.eigsy(jacobi, eigvals_only=True))
        weights = []
        for t in nodes:
            p_prev, p = mpmath.mpf(0), 1 / off[0]
            squares = p * p
            for n in range(k - 1):
                p_prev, p = p, ((t - a[n]) * p - off[n] * p_prev) / off[n + 1]
                squares += p * p
            weights.append(1 / squares)
        return np.array([float(t) for t in nodes]), np.array([float(w) for w in weights])


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
    reference for the ``alphas`` and ``betas`` of `measure.hankel_minors`."""
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
