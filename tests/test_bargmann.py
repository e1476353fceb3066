import itertools
import math
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

from oracles import bg_kernel_log_moduli, growth_by_column_stack, log_factorial_by_concatenate


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
    """The projection fit against the lstsq oracle: the same window and raw
    limits, rho_hat and sigma_hat within 1e-12 relative (the largest gap over
    these grids is 1.2e-13), the residual within lstsq's own error (7e-9)."""
    est, ref = estimate_growth(series), growth_by_column_stack(series)
    assert (est.fit_window, est.rho_raw) == (ref.fit_window, ref.rho_raw), label
    assert est.rho_hat == pytest.approx(ref.rho_hat, rel=1e-12, abs=0), label
    assert est.sigma_hat == pytest.approx(ref.sigma_hat, rel=1e-12, abs=0), label
    assert est.sigma_raw == pytest.approx(ref.sigma_raw, rel=1e-12, abs=0), label
    assert est.residual == pytest.approx(ref.residual, rel=1e-7, abs=0), label


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


def _growth_to_40_digits(series):
    """(rho, sigma, residual) of the exact least-squares fit of the series'
    float log-moduli, from the normal equations in 40-digit arithmetic."""
    y_all = series.log_moduli
    n_max = len(y_all) - 1
    rows = [(mpmath.mpf(n) * mpmath.log(n), mpmath.mpf(n), mpmath.mpf(1), -mpmath.mpf(y_all[n]))
            for n in range(max(1, n_max // 2), n_max + 1)]
    gram = mpmath.matrix([[mpmath.fsum(row[i] * row[j] for row in rows) for j in range(3)]
                          for i in range(3)])
    slope, beta, const = mpmath.lu_solve(gram, [mpmath.fsum(row[i] * row[3] for row in rows)
                                                for i in range(3)])
    rho = 1 / slope
    residual2 = mpmath.fsum((slope * a + beta * b + const - y) ** 2 for a, b, _, y in rows)
    return rho, mpmath.exp(-beta * rho - 1) / rho, mpmath.sqrt(residual2 / len(rows))


def test_fit_is_no_less_accurate_than_lstsq_to_40_digits():
    rng = np.random.default_rng(23)
    worst = {"projections": [0.0] * 3, "lstsq": [0.0] * 3}
    with mpmath.workdps(40):
        for _ in range(12):
            ells = rng.integers(1, 10, size=rng.integers(1, 4))
            n_max = int(rng.integers(200, 4_000))
            series = EntireSeries.bg_kernel(AlgebraParams([Fraction(1, int(e)) for e in ells]),
                                            n_max)
            exact = _growth_to_40_digits(series)
            for name, est in [("projections", estimate_growth(series)),
                              ("lstsq", growth_by_column_stack(series))]:
                got = (est.rho_hat, est.sigma_hat, est.residual)
                errors = [float(abs(mpmath.mpf(g) / e - 1)) for g, e in zip(got, exact)]
                worst[name] = [max(w, err) for w, err in zip(worst[name], errors)]
    assert all(p <= q for p, q in zip(worst["projections"], worst["lstsq"])), worst
    rho_err, sigma_err, _ = worst["projections"]
    assert rho_err < 1e-14 and sigma_err < 1e-13, worst


def test_kernel_needs_infinite_ladder():
    with pytest.raises(DomainError):
        EntireSeries.bg_kernel(AlgebraParams(["-1/3"]), 500)


# ------------------------------------------------------- kept kernel tables

_TABLE_KAPPA = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=9, max_denominator=12),
    st.integers(min_value=1, max_value=12).map(lambda ell: Fraction(1, ell)),
)


@settings(max_examples=80, deadline=None)
@given(
    ladders=st.lists(st.lists(_TABLE_KAPPA, min_size=1, max_size=3).map(tuple),
                     min_size=1, max_size=bargmann.KERNEL_LADDERS + 3, unique=True),
    calls=st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=-1, max_value=3000)),
                   min_size=1, max_size=12),
    order=st.sampled_from(["drawn", "rising", "falling", "repeated"]),
)
def test_kernel_tables_are_the_cold_kernel_bit_for_bit(ladders, calls, order):
    # sizes rising (extensions), falling (prefixes), repeated and -1 on up to
    # three more ladders than the table keeps, each asked once first so that
    # a pool past KERNEL_LADDERS evicts, from a cleared table
    calls = [(ladders[i % len(ladders)], n_max) for i, n_max in calls]
    calls = [(kappas, calls[-1][1]) for kappas in ladders] + calls
    if order in ("rising", "falling"):
        calls.sort(key=lambda call: call[1], reverse=order == "falling")
    elif order == "repeated":
        calls = [call for call in calls for _ in range(2)]
    bargmann._KERNELS.clear()
    used = []
    for kappas, n_max in calls:
        params = AlgebraParams(kappas)
        logs = EntireSeries.bg_kernel(params, n_max).log_moduli
        expected = -0.5 * log_factorial_by_concatenate(ladder_table(params, n_max + 1).f)
        assert logs.tobytes() == expected.tobytes(), (kappas, n_max)
        assert not logs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            logs[:] = 0.0
        with pytest.raises(ValueError, match="WRITEABLE"):
            logs.setflags(write=True)
        used = [k for k in used if k != params.kappas] + [params.kappas]
        assert list(bargmann._KERNELS) == used[-bargmann.KERNEL_LADDERS:]


def test_a_kernel_longer_than_kernel_rows_is_not_kept():
    small, params = AlgebraParams(["1/2"]), AlgebraParams(["1/2", "1/3"])
    bargmann._KERNELS.clear()
    EntireSeries.bg_kernel(params, 100)
    EntireSeries.bg_kernel(small, 100)
    held = list(bargmann._KERNELS.items())
    for n_max in (bargmann.KERNEL_ROWS, 2 * bargmann.KERNEL_ROWS):
        logs = EntireSeries.bg_kernel(params, n_max).log_moduli
        expected = -0.5 * log_factorial_by_concatenate(ladder_table(params, n_max + 1).f)
        assert logs.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="WRITEABLE"):
            logs.setflags(write=True)
        assert list(bargmann._KERNELS.items()) == held  # same order, same arrays
    longest = EntireSeries.bg_kernel(params, bargmann.KERNEL_ROWS - 1).log_moduli
    assert len(bargmann._KERNELS[params.kappas]) == len(longest) == bargmann.KERNEL_ROWS


_HUGE_TABLES = [10**15, 2**63 - 1, 10**400]  # MemoryError, a wrapped length, ValueError


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_kernel_refusals_do_not_depend_on_the_kept_table(warm):
    params, finite = AlgebraParams(["1/2", "1/3"]), AlgebraParams(["-1/3", "1/2"])
    wide = AlgebraParams([10**97] * 3)  # F(n) Q passes the double range at n = 20,6xx
    bargmann._KERNELS.clear()
    if warm:
        EntireSeries.bg_kernel(params, 3000)
        EntireSeries.bg_kernel(wide, 20_000)
    held = {kappas: len(table) for kappas, table in bargmann._KERNELS.items()}
    for n_max in (-2, -3, -10**400):
        with pytest.raises(ValueError, match=rf"^no ladder table of size {n_max + 1} for the inf"):
            EntireSeries.bg_kernel(params, n_max)
    for n_max in _HUGE_TABLES:
        message = rf"^{n_max + 1} ladder rows \(from n = 0\) are more than numpy can allocate$"
        with pytest.raises(DomainError, match=message):
            EntireSeries.bg_kernel(params, n_max)
    with pytest.raises(DomainError, match=r"values F\(n\) Q, n < 30001, pass the double range"):
        EntireSeries.bg_kernel(wide, 30_000)
    with pytest.raises(DomainError, match="^the kernel series needs an infinite ladder$"):
        EntireSeries.bg_kernel(finite, 10)
    assert {kappas: len(table) for kappas, table in bargmann._KERNELS.items()} == held
    empty = EntireSeries.bg_kernel(params, -1).log_moduli
    assert empty.shape == (0,) and not empty.flags.writeable


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
    with pytest.raises(DomainError, match=r"1/\(kappa_1 ... kappa_q\) passes the double range"):
        closed_form_growth(AlgebraParams([Fraction(1, 10**200), Fraction(1, 10**200)]))


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
