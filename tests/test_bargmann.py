import math
from fractions import Fraction

import numpy as np
import pytest

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

from oracles import bg_kernel_log_moduli


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


def test_kernel_needs_infinite_ladder():
    with pytest.raises(DomainError):
        EntireSeries.bg_kernel(AlgebraParams(["-1/3"]), 500)


# ----------------------------------------------------------- closed forms

def test_closed_form_substitutions():
    assert closed_form_growth(AlgebraParams([1])) == (1.0, 1.0)
    rho, sigma = closed_form_growth(AlgebraParams([1, 1]))
    assert (rho, sigma) == (pytest.approx(2 / 3), pytest.approx(1.5))
    assert closed_form_growth(AlgebraParams(["1/4"])) == (1.0, pytest.approx(2.0))


def test_closed_form_oscillator_limit():
    # all kappas zero: the kernel is 1/sqrt(n!), a classical order-2 type-1/2 series
    assert closed_form_growth(AlgebraParams([0])) == (2.0, 0.5)


def test_closed_form_rejects_non_reciprocal():
    with pytest.raises(DomainError):
        closed_form_growth(AlgebraParams(["3/5"]))


def test_order_decreases_with_r():
    rhos = [closed_form_growth(AlgebraParams([Fraction(1, 2)] * r))[0] for r in (1, 2, 3)]
    assert rhos[0] > rhos[1] > rhos[2]
    fitted = [
        estimate_growth(EntireSeries.bg_kernel(AlgebraParams([Fraction(1, 2)] * r), 2000)).rho_hat
        for r in (1, 2, 3)
    ]
    assert fitted[0] > fitted[1] > fitted[2]
