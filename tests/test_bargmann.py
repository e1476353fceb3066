import itertools
import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywh import (
    AlgebraParams,
    DomainError,
    EntireSeries,
    bargmann_eval,
    bg_normalization,
    bg_state,
    closed_form_growth,
    estimate_growth,
    overlap,
    schwarz_check,
)

from polywh import bargmann
from polywh.algebra import ladder_table
from polywh.bargmann import kernel_growth

from oracles import (
    bg_kernel_log_moduli,
    growth_by_column_stack,
    growth_fit_to_40_digits,
    growth_sample,
    log_factorial_by_concatenate,
    log_rising,
)


def factorial_series(n_max, power=1.0, scale=1.0):
    """log |c_n| for c_n = scale / (n!)^power, safe for any n_max."""
    logs = [math.log(scale) - power * math.lgamma(n + 1) for n in range(n_max + 1)]
    return EntireSeries.from_log_moduli(logs, meta="1/n!^p")


# -------------------------------------------------------------- evaluation

def test_eval_basis_vector_is_constant():
    params = AlgebraParams(["1/2", "1/3"], 0.7)
    assert bargmann_eval(params, [1.0], 2.3 - 1j) == pytest.approx(1.0)


def test_eval_single_level_oscillator():
    params = AlgebraParams([0], 0.4)
    z = 1.7 + 0.3j
    value = bargmann_eval(params, [0.0, 1.0], z)
    assert value == pytest.approx(z * np.exp(-0.4j), abs=1e-14)


def test_eval_matches_overlap_kernel():
    # with phi = 0, evaluating the eigenstate coefficients of w at z gives
    # the reproducing kernel, i.e. the overlap <state(conj(w)) | state(z)>
    params = AlgebraParams(["1/2"], 0.0)
    w, z = 0.6 + 0.3j, 1.1 - 0.2j
    f = bg_state(params, w).coeffs
    lhs = bargmann_eval(params, f, z)
    rhs = overlap(bg_state(params, np.conj(w)), bg_state(params, z))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_eval_rejects_non_reciprocal_kappas():
    with pytest.raises(DomainError):
        bargmann_eval(AlgebraParams(["2/3"]), [1.0], 1.0)


def test_eval_past_the_double_range_is_a_domain_error():
    # 400 levels at |z| = 1e4: Horner overflows where a plain evaluation gives nan
    params, f = AlgebraParams(["1/2"]), np.full(400, 1 / 20)
    with pytest.raises(DomainError, match="overflows double precision at z = 10000"):
        bargmann_eval(params, f, 1e4)
    with pytest.raises(DomainError, match="at z = 0\\+10000j"):
        bargmann_eval(params, f, np.array([[1.0, 1e4j]]))
    assert np.isfinite(bargmann_eval(params, f, np.array([1.0, 30.0]))).all()


# ------------------------------------------------------------ schwarz bound

def test_schwarz_basis_vector():
    params = AlgebraParams(["1/2"], 0.2)
    grid = [0.0, 0.5, 1.5 + 1j, -2.0, 3j]
    excess = schwarz_check(params, [1.0], grid)
    assert excess <= 1e-10  # |f| = 1 <= |N| always (the series starts at 1)


def test_schwarz_saturation_at_the_defining_point():
    params = AlgebraParams([1], 0.0)
    w = 0.8 + 0.5j
    f = bg_state(params, w, normalize=True).coeffs
    grid = [0.3, 1.0 - 1.0j, np.conj(w)]
    excess = schwarz_check(params, f, grid)
    assert excess <= 1e-10
    assert excess > -1e-8  # equality is attained at z = conj(w)


def test_schwarz_random_vectors():
    rng = np.random.default_rng(3)
    params = AlgebraParams(["1/2", "1/3"], 0.5)
    axis = np.linspace(-3, 3, 5)
    grid = [complex(x, y) for x in axis for y in axis]
    for _ in range(5):
        f = rng.normal(size=12) + 1j * rng.normal(size=12)
        f /= np.linalg.norm(f)
        assert schwarz_check(params, f, grid) <= 1e-10


def test_schwarz_grid_equals_the_pointwise_excess():
    params = AlgebraParams(["1/2", "1/3"], 0.5)
    f = np.arange(1, 9) * (1 - 0.5j)
    f /= np.linalg.norm(f)
    grid = [complex(x, y) for x in np.linspace(-4, 4, 9) for y in np.linspace(-4, 4, 9)]
    pointwise = max(abs(bargmann_eval(params, f, z)) - bg_normalization(params, z) for z in grid)
    assert schwarz_check(params, f, grid) == pointwise
    assert schwarz_check(params, f, []) == -math.inf


def test_schwarz_holds_where_the_normalization_passes_the_double_range():
    # kappa = 0: |N(z)| = e^{|z|^2/2}, past the double range at the corners
    # |z|^2 = 1800 of a radius-30 grid while |f_phi(z)| stays finite there
    params = AlgebraParams([0])
    f = bg_state(params, 0.5, normalize=True).coeffs
    axis = np.linspace(-30, 30, 9)
    grid = [complex(x, y) for x in axis for y in axis]
    inner = [z for z in grid if abs(z) ** 2 / 2 < 709]  # |N| = e^{|z|^2/2} fits a double
    pointwise = max(abs(bargmann_eval(params, f, z)) - bg_normalization(params, z) for z in inner)
    assert schwarz_check(params, f, grid) == pointwise
    assert schwarz_check(params, f, [30 + 30j]) == -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # |z|^2 itself passes the double range: |N| = inf, and the bound holds
        assert schwarz_check(params, [1.0], [0.0, 1e200, 1e200j]) == 0.0
        with pytest.raises(DomainError, match=r"normalization \|N\(z\)\| overflows double"):
            bg_normalization(params, 1e200)


def test_schwarz_requires_normalization():
    with pytest.raises(ValueError):
        schwarz_check(AlgebraParams([1]), [1.0, 1.0], [0.5])


# ------------------------------------------------------------- growth: fits

def test_exponential_series_order_and_type():
    est = estimate_growth(factorial_series(2000))
    assert est.rho_hat == pytest.approx(1.0, rel=0.02)
    assert est.sigma_hat == pytest.approx(1.0, rel=0.05)
    assert est.fit_window[0] >= 1000


def test_raw_limits_are_reported_but_cruder():
    est = estimate_growth(factorial_series(2000))
    assert est.rho_raw == pytest.approx(1.0, rel=0.2)
    assert abs(est.rho_hat - 1.0) < abs(est.rho_raw - 1.0)


def test_scale_covariance():
    base = factorial_series(1500)
    scaled = EntireSeries.from_log_moduli(base.log_moduli + math.log(37.0))
    a, b = estimate_growth(base), estimate_growth(scaled)
    assert a.rho_hat == pytest.approx(b.rho_hat, rel=1e-6)
    assert a.sigma_hat == pytest.approx(b.sigma_hat, rel=1e-6)


def test_geometric_input_rejected():
    logs = [n * math.log(0.5) for n in range(500)]
    with pytest.raises(DomainError):
        estimate_growth(EntireSeries.from_log_moduli(logs))


def test_polynomial_input_rejected():
    series = EntireSeries.from_moduli([1.0, 2.0, 1.0, 0.0, 0.0], polynomial=True)
    with pytest.raises(DomainError):
        estimate_growth(series)
    with pytest.raises(ValueError):
        EntireSeries.from_moduli([1.0, 0.0, 1.0])


def test_a_log_modulus_that_is_not_finite_is_named_by_its_index():
    logs = [-math.lgamma(n + 1) for n in range(400)]
    for n, value in [(7, math.inf), (0, -math.inf), (399, math.nan)]:
        bad = np.array(logs)
        bad[n] = value
        with pytest.raises(DomainError, match=rf"^log \|c_n\| at n = {n} is {value!r}: no growth"):
            estimate_growth(EntireSeries(bad))  # a NaN passes only the raw constructor
    assert estimate_growth(EntireSeries.from_log_moduli(logs)).rho_hat == pytest.approx(1, rel=0.05)


def test_a_nan_modulus_is_refused_as_a_bad_c_0_is():
    for moduli, n, value in [([math.nan, 1.0], 0, "nan"), ([1.0, 2.0, math.nan], 2, "nan"),
                             ([1.0, -2.0, 0.0], 1, "-2.0")]:
        for polynomial in (False, True):
            with pytest.raises(ValueError, match=rf"^\|c_n\| at n = {n} is {value}$"):
                EntireSeries.from_moduli(moduli, polynomial=polynomial)
    for logs, n in [([math.nan, 0.0], 0), ([0.0, -1.0, math.nan, math.nan], 2)]:
        with pytest.raises(ValueError, match=rf"^log \|c_n\| at n = {n} is nan$"):
            EntireSeries.from_log_moduli(logs)
    with pytest.raises(ValueError, match="c_0 must be present"):
        EntireSeries.from_moduli([0.0, 1.0], polynomial=True)
    series = EntireSeries.from_log_moduli([0.0, -math.inf, math.inf])  # a zero and an infinite |c_n|
    assert series.log_moduli.tolist() == [0.0, -math.inf, math.inf]


def test_too_few_coefficients_rejected():
    with pytest.raises(DomainError):
        estimate_growth(factorial_series(100))


def test_kernel_estimate_matches_closed_form_quickly():
    params = AlgebraParams([1])
    est = estimate_growth(EntireSeries.bg_kernel(params, 2000))
    rho, sigma = closed_form_growth(params)
    assert (rho, sigma) == (1.0, 1.0)
    assert est.rho_hat == pytest.approx(rho, rel=0.05)
    assert est.sigma_hat == pytest.approx(sigma, rel=0.10)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_kernel_matches_term_by_term_sum(r):
    # (7/2)(5/3)(9/4) n^4 passes 2**53 near n = 2300, so r = 3 runs past the exact range
    kappas = [Fraction(7, 2), Fraction(5, 3), Fraction(9, 4)][:r]
    series = EntireSeries.bg_kernel(AlgebraParams(kappas), 5000)
    ref = bg_kernel_log_moduli(kappas, 5000)
    np.testing.assert_allclose(series.log_moduli, ref, rtol=1e-15, atol=0)


_ELL_TUPLES = [ells for r in (1, 2, 3) for ells in itertools.product(range(1, 7), repeat=r)]


def assert_fit_near_the_column_stack_fit(series, label=None):
    """The sampled fit against the column-stack oracle: the same window and
    raw order, rho_hat within 1e-9 and sigma_hat within 1e-8 relative and
    gamma_hat within 1e-4 (the two fits differ by a sixth of these or less
    over these grids), and residuals within 1e-14 of |log c_{n_max}| (at
    most 5e-16 of it over these grids)."""
    est, ref = estimate_growth(series), growth_by_column_stack(series)
    assert (est.fit_window, est.rho_raw) == (ref.fit_window, ref.rho_raw), label
    assert est.rho_hat == pytest.approx(ref.rho_hat, rel=1e-9, abs=0), label
    assert est.sigma_hat == pytest.approx(ref.sigma_hat, rel=1e-8, abs=0), label
    assert est.sigma_raw == pytest.approx(ref.sigma_raw, rel=1e-8, abs=0), label
    assert est.gamma_hat == pytest.approx(ref.gamma_hat, rel=1e-4, abs=1e-4), label
    assert abs(est.residual - ref.residual) <= 1e-14 * abs(series.log_moduli[-1]), label


@pytest.mark.parametrize("n_max", [200, 2_000, 12_345, 50_000])
def test_kernel_fit_equals_the_column_stack_fit(n_max):
    for ells in _ELL_TUPLES:
        params = AlgebraParams([Fraction(1, ell) for ell in ells])
        series = EntireSeries.bg_kernel(params, n_max)
        f = ladder_table(params, n_max + 1).f
        assert np.array_equal(series.log_moduli, -0.5 * log_factorial_by_concatenate(f))
        assert_fit_near_the_column_stack_fit(series, ells)


@pytest.mark.parametrize("n_max", [200, 2_000, 12_345])
def test_fit_of_any_series_equals_the_column_stack_fit(n_max):
    for power, scale in [(1.0, 1.0), (0.5, 3e-7), (2.0, 41.0)]:
        assert_fit_near_the_column_stack_fit(factorial_series(n_max, power, scale))


def test_fit_meets_the_exact_fit_of_its_sample_to_40_digits():
    # both float fits of the same sampled floats against the exact one: the
    # library's Gram-Schmidt on t-scaled columns and the oracle's lstsq on
    # n-scaled ones round to about 3e-11 and 1e-10 in rho, 3e-10 and 1e-9
    # in sigma
    rng = np.random.default_rng(23)
    worst = {"t columns": [0.0] * 3, "column stack": [0.0] * 3}
    for _ in range(12):
        ells = rng.integers(1, 10, size=rng.integers(1, 4))
        n_max = int(rng.integers(200, 60_000))
        series = EntireSeries.bg_kernel(AlgebraParams([Fraction(1, int(e)) for e in ells]), n_max)
        exact = growth_fit_to_40_digits(series)
        for name, est in [("t columns", estimate_growth(series)),
                          ("column stack", growth_by_column_stack(series))]:
            got = (est.rho_hat, est.sigma_hat, est.gamma_hat)
            errors = [float(abs(mpmath.mpf(g) / e - 1)) for g, e in zip(got, exact)]
            worst[name] = [max(w, err) for w, err in zip(worst[name], errors)]
            assert abs(est.residual - exact[3]) <= 1e-14 * abs(series.log_moduli[-1])
    bounds = {"t columns": (2e-10, 2e-9, 2e-5), "column stack": (1e-9, 1e-8, 1e-4)}
    for name, errors in worst.items():
        assert all(e < bound for e, bound in zip(errors, bounds[name])), (name, worst)


def test_a_fit_past_the_double_range_is_named():
    # y = -log |c_n| whose squares pass the double range: the fit is made on
    # y / max |y|, and what it gives is finite or a DomainError naming why
    n = np.arange(300.0)
    logs = -n * np.log(np.maximum(n, 1.0))
    last_huge = logs.copy()
    last_huge[-1] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^the growth estimate passes the double range: "
                                              r"sigma_hat = nan$"):
            estimate_growth(EntireSeries.from_log_moduli(last_huge))
        with pytest.raises(DomainError, match="the order fit is degenerate"):
            estimate_growth(EntireSeries.from_log_moduli(np.full(300, -1e308)))
        scaled = estimate_growth(EntireSeries.from_log_moduli(logs * 1e200))
    reference = estimate_growth(EntireSeries.from_log_moduli(logs))
    assert scaled.rho_hat == pytest.approx(reference.rho_hat * 1e-200, rel=1e-9)
    assert scaled.sigma_hat == pytest.approx(reference.sigma_hat * 1e200, rel=1e-8)
    assert scaled.residual < 1e-13 * 1e200 * abs(logs[-1])


def test_kernel_needs_infinite_ladder():
    with pytest.raises(DomainError):
        EntireSeries.bg_kernel(AlgebraParams(["-1/3"]), 500)


_HUGE_TABLES = [10**15, 2**63 - 1, 10**400]  # MemoryError, a wrapped length, ValueError


def test_kernel_refusals_name_their_cause():
    params, finite = AlgebraParams(["1/2", "1/3"]), AlgebraParams(["-1/3", "1/2"])
    wide = AlgebraParams([10**97] * 3)  # F(n) Q passes the double range at n = 20,6xx
    for build in (EntireSeries.bg_kernel, kernel_growth):
        for n_max in (500.5, 500.0, "500", Fraction(500)):
            with pytest.raises(TypeError, match=rf"^n_max must be an integer, got n_max = "
                                                rf"{re.escape(repr(n_max))}$"):
                build(params, n_max)
        for n_max in (-1, -2, -10**400):
            with pytest.raises(ValueError, match=rf"^n_max must be at least 0, got n_max = {n_max}$"):
                build(params, n_max)
        with pytest.raises(DomainError, match="^the kernel series needs an infinite ladder$"):
            build(finite, 10)
    for n_max in _HUGE_TABLES:
        message = rf"^{n_max + 1} ladder rows \(from n = 0\) are more than numpy can allocate$"
        with pytest.raises(DomainError, match=message):
            EntireSeries.bg_kernel(params, n_max)
    with pytest.raises(DomainError, match=r"values F\(n\) Q, n < 30001, pass the double range"):
        EntireSeries.bg_kernel(wide, 30_000)
    kernel = EntireSeries.bg_kernel(params, 0).log_moduli
    assert kernel.tolist() == [0.0] and not kernel.flags.writeable


# ------------------------------------------------------- growth from samples

_GROWTH_KAPPA = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=1, max_value=12).map(lambda ell: Fraction(1, ell)),
    st.fractions(min_value=Fraction(1, 12), max_value=9, max_denominator=12),
)


@settings(max_examples=150, deadline=None)
@given(kappas=st.lists(_GROWTH_KAPPA, min_size=1, max_size=3),
       n_max=st.integers(min_value=5_000, max_value=50_000))
def test_kernel_growth_meets_the_closed_forms(kappas, n_max):
    # gamma = 1/4 + 1/2 sum (1/kappa_i - 1/2) over kappa_i > 0 is the log n
    # coefficient of Stirling's expansion; over these draws rho_hat errs at
    # most about 1e-10, sigma_hat 1e-9 and gamma_hat 1e-5 (its rounding
    # grows with n_max: about 2.4e-4 at n_max = 10^6)
    params = AlgebraParams(kappas)
    est = kernel_growth(params, n_max)
    rho, sigma = closed_form_growth(params)
    gamma = 0.25 + 0.5 * sum(1 / kappa - 0.5 for kappa in kappas if kappa)
    assert est.rho_hat == pytest.approx(rho, rel=1e-7, abs=0)
    assert est.sigma_hat == pytest.approx(sigma, rel=1e-7, abs=0)
    assert abs(est.gamma_hat - float(gamma)) <= 1e-4
    assert est.fit_window == (n_max // 2, n_max)


@pytest.mark.parametrize("ells, n_max", [
    ((8, 7, 4), 10**9), ((2,), 10**9),  # gamma_hat read 8.923 and 0.900, against 9 and 1
    ((8, 7, 4), 2**53), ((2,), 2**53),  # and -525,374 and -3.09e6
])
def test_gamma_hat_past_its_rounding_bound_is_none(ells, n_max):
    # the fit's own bound on gamma's rounding reads 1.2-2.3 at 10^9 and
    # 2.0e7-3.8e7 at 2**53; rho_hat and sigma_hat keep their digits there
    params = AlgebraParams([Fraction(1, ell) for ell in ells])
    est = kernel_growth(params, n_max)
    assert est.gamma_hat is None
    rho, sigma = closed_form_growth(params)
    assert est.rho_hat == pytest.approx(rho, rel=1e-8, abs=0)
    assert est.sigma_hat == pytest.approx(sigma, rel=1e-8, abs=0)


def _kernel_sample(params, n_max):
    """The indices and values `kernel_growth` hands to its fit."""
    fit, samples = bargmann._fit, []
    try:
        bargmann._fit = lambda n, y: samples.append((n, y))
        kernel_growth(params, n_max)
    finally:
        bargmann._fit = fit
    return samples[0]


@settings(max_examples=60, deadline=None)
@given(kappas=st.lists(_GROWTH_KAPPA, min_size=1, max_size=3),
       n_max=st.integers(min_value=bargmann.MIN_COEFFS - 1, max_value=60_000))
def test_the_lgamma_sample_meets_the_cold_kernel(kappas, n_max):
    params = AlgebraParams(kappas)
    n, y = _kernel_sample(params, n_max)
    assert n == growth_sample(n_max)
    cold = -EntireSeries.bg_kernel(params, n_max).log_moduli[n]
    np.testing.assert_allclose(y, cold, rtol=1e-8, atol=0)
    assert kernel_growth(params, n_max).rho_hat == pytest.approx(
        estimate_growth(EntireSeries.bg_kernel(params, n_max)).rho_hat, rel=1e-8)


_LARGE_SHAPE = st.one_of(  # 1/kappa >= 32: Stirling's series
    st.integers(min_value=32, max_value=10**6).map(lambda ell: Fraction(1, ell)),
    st.integers(min_value=2, max_value=300).map(lambda k: Fraction(1, 10**k)),
)


@settings(max_examples=80, deadline=None)
@given(kappas=st.lists(st.one_of(_GROWTH_KAPPA, _LARGE_SHAPE), min_size=1, max_size=3),
       n_max=st.integers(min_value=bargmann.MIN_COEFFS - 1, max_value=60_000))
def test_the_sample_is_half_the_sum_of_the_rising_factorials(kappas, n_max):
    # 1/2 log F(n)! = 1/2 (log n! + sum_i log((a_i)_n / a_i^n)), a_i = 1/kappa_i,
    # from the term law: bit for bit the reference's where every a_i < 32,
    # else within 1e-13 relative (math.log1p against np.log1p)
    params = AlgebraParams(kappas)
    n, y = _kernel_sample(params, n_max)
    shapes = [1.0] + [float(1 / kappa) for kappa in kappas if kappa]
    ref = 0.5 * sum(log_rising(a, n) for a in shapes)
    if max(shapes) < 32:
        assert y.tobytes() == ref.tobytes()
    else:
        np.testing.assert_allclose(y, ref, rtol=1e-13, atol=0)


def test_kernel_growth_refusals_name_their_cause():
    params = AlgebraParams(["1/2", "1/3"])
    for kappas, shown in [([10**400], f"{10**400}"), ([Fraction(1, 10**400)], f"1/{10**400}"),
                          (["1/2", 10**309], f"1/2,{10**309}")]:
        with pytest.raises(DomainError, match=rf"^kappa = {shown}: a kappa_i or 1/kappa_i passes"):
            kernel_growth(AlgebraParams(kappas), 5000)
    with pytest.raises(DomainError, match=r"^n_max = 9007199254740993 passes 2\*\*53"):
        kernel_growth(params, 2**53 + 1)
    with pytest.raises(DomainError, match="^need at least 200 coefficients, got 199$"):
        kernel_growth(params, 198)
    assert kernel_growth(params, 199).fit_window == (99, 199)


@pytest.mark.parametrize("kappas, n_max, sigma_tol", [
    # F(n) Q passes the double range: no cold kernel; sigma = 3.6e-73 is
    # c_2 e^(-c_1/c_2 - 1) at c_1/c_2 = 177, which scales c_1/c_2's rounding
    ([10**97] * 3, 30_000, 1e-6),
    (["1/2", "1/3"], 10**15, 1e-7),  # more rows than numpy can allocate
    (["1/2", "1/3"], 2**53, 1e-7),
    ([Fraction(1, 10**300)], 5000, 1e-7),  # a = 10^300: lgamma's difference would cancel to 0
])
def test_kernel_growth_needs_no_table(kappas, n_max, sigma_tol):
    # commands the cold kernel refuses or rounds away, which the sample answers
    params = AlgebraParams(kappas)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = kernel_growth(params, n_max)
    if kappas[0] == Fraction(1, 10**300):  # n << 1/kappa: the oscillator's growth, as the
        cold = estimate_growth(EntireSeries.bg_kernel(params, n_max))  # cumsum reads it
        assert (est.rho_hat, est.sigma_hat) == (pytest.approx(cold.rho_hat, rel=1e-8),
                                                pytest.approx(cold.sigma_hat, rel=1e-7))
        assert est.rho_hat == pytest.approx(2.0, rel=1e-9)
        return
    rho, sigma = closed_form_growth(params)
    assert est.rho_hat == pytest.approx(rho, rel=1e-7, abs=0)
    assert est.sigma_hat == pytest.approx(sigma, rel=sigma_tol, abs=0)


def test_bargmann_keeps_no_module_level_state():
    # no module-level container, and every global the same object after a
    # round of growth, kernel and transform calls
    containers = [name for name, value in vars(bargmann).items()
                  if not name.startswith("__") and isinstance(value, (dict, list, set, np.ndarray))]
    assert containers == []
    before = dict(vars(bargmann))
    for kappas in (["1/2"], ["0", "2/3"], ["1/3", "1/4", "1/5"]):
        params = AlgebraParams(kappas)
        kernel_growth(params, 5000)
        estimate_growth(EntireSeries.bg_kernel(params, 3000))
    bargmann_eval(AlgebraParams(["1/2"]), [1.0, 0.5], 0.3)
    after = vars(bargmann)
    assert after.keys() == before.keys()
    assert [name for name, value in before.items() if after[name] is not value] == []


# ----------------------------------------------------------- closed forms

def test_closed_form_substitutions():
    assert closed_form_growth(AlgebraParams([1])) == (1.0, 1.0)
    rho, sigma = closed_form_growth(AlgebraParams([1, 1]))
    assert (rho, sigma) == (pytest.approx(2 / 3), pytest.approx(1.5))
    assert closed_form_growth(AlgebraParams(["1/4"])) == (1.0, pytest.approx(2.0))
    assert closed_form_growth(AlgebraParams(["2/3"])) == (1.0, pytest.approx(math.sqrt(1.5)))
    assert closed_form_growth(AlgebraParams(["0", "3/5"])) == (1.0, pytest.approx(math.sqrt(5 / 3)))


def test_closed_form_oscillator_limit():
    # all kappas zero: the kernel is 1/sqrt(n!), a classical order-2 type-1/2 series
    assert closed_form_growth(AlgebraParams([0])) == (2.0, 0.5)


def test_closed_form_refuses_a_finite_ladder():
    with pytest.raises(DomainError, match="^the kernel series needs an infinite ladder$"):
        closed_form_growth(AlgebraParams(["-1/3", "2/5"]))
    for kappa in (Fraction(1, 10**200), 10**200):  # P = 10^400; 10^-400 would round sigma to 0
        with pytest.raises(DomainError, match=r"1/\(kappa_1 ... kappa_q\) passes the double range"):
            closed_form_growth(AlgebraParams([kappa, kappa]))


@pytest.mark.parametrize("kappas, rho_tol, sigma_tol", [
    (["2/3"], 5e-5, 5e-4),
    (["2/3", "1/5", "9/7"], 1e-4, 1e-3),
    (["0", "3/5"], 5e-5, 5e-4),
])
def test_closed_form_meets_the_fit_at_p_over_q(kappas, rho_tol, sigma_tol):
    # kappa not of the 1/ell form: the order and type still follow from the
    # product of the nonzero kappas, as the fit at 50,000 coefficients reads them
    params = AlgebraParams(kappas)
    rho, sigma = closed_form_growth(params)
    est = estimate_growth(EntireSeries.bg_kernel(params, 50_000))
    assert abs(est.rho_hat - rho) / rho <= rho_tol
    assert abs(est.sigma_hat - sigma) / sigma <= sigma_tol


def test_order_decreases_with_r():
    rhos = [closed_form_growth(AlgebraParams([Fraction(1, 2)] * r))[0] for r in (1, 2, 3)]
    assert rhos[0] > rhos[1] > rhos[2]
    fitted = [
        estimate_growth(EntireSeries.bg_kernel(AlgebraParams([Fraction(1, 2)] * r), 2000)).rho_hat
        for r in (1, 2, 3)
    ]
    assert fitted[0] > fitted[1] > fitted[2]
