import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywh import (
    AlgebraParams,
    DomainError,
    GrassmannElement,
    bg_grassmann_state,
    bg_state,
    build_rep,
    check_bg_grassmann_eigen,
    complex_z_bg_residual,
)

from oracles import (
    complex_z_residual_dense,
    dense_lowering,
    dense_poly_mul_trunc,
    grassmann_eigen_residual_dense,
    random_finite_params,
    random_infinite_params,
    random_z,
)


def elem(dim, *comps):
    return GrassmannElement(dim, tuple(comps) + (0j,) * (dim - len(comps)))


# ----------------------------------------------------------------- algebra

def test_theta_squared_vanishes_at_dim2():
    th = GrassmannElement.theta(2)
    assert th * th == GrassmannElement.zero(2)


def test_product_example_dim3():
    one_plus = elem(3, 1, 1)
    one_minus = elem(3, 1, -1)
    assert one_plus * one_minus == elem(3, 1, 0, -1)  # 1 - theta^2


def test_multiplicative_identity():
    g = elem(4, 2, 0.5j, -1, 3)
    assert g * GrassmannElement.one(4) == g
    assert GrassmannElement.one(4) * g == g


def test_scalar_operations():
    g = elem(3, 1, 2)
    assert 2 * g == elem(3, 2, 4)
    assert g * (1 + 1j) == elem(3, 1 + 1j, 2 + 2j)
    assert g - g == GrassmannElement.zero(3)
    assert -g == elem(3, -1, -2)


def test_nilpotency_all_dims():
    for dim in range(2, 13):
        th = GrassmannElement.theta(dim)
        assert th**dim == GrassmannElement.zero(dim)
        assert (th ** (dim - 1)).max_abs() == 1.0


def test_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        elem(2, 1) + elem(3, 1)
    with pytest.raises(ValueError):
        elem(2, 1) * elem(3, 1)


complex_numbers = st.complex_numbers(
    min_magnitude=0, max_magnitude=5, allow_nan=False, allow_infinity=False
)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_ring_laws_against_dense_oracle(dim, data):
    comps = st.lists(complex_numbers, min_size=dim, max_size=dim)
    a = GrassmannElement(dim, tuple(data.draw(comps)))
    b = GrassmannElement(dim, tuple(data.draw(comps)))
    c = GrassmannElement(dim, tuple(data.draw(comps)))
    prod = a * b
    oracle = dense_poly_mul_trunc(a.comps, b.comps, dim)
    assert np.allclose(prod.comps, oracle, atol=1e-9)
    assert ((a * b) * c - a * (b * c)).max_abs() < 1e-6
    assert (a * (b + c) - (a * b + a * c)).max_abs() < 1e-6
    assert (a * b - b * a).max_abs() < 1e-9  # the one-variable algebra is commutative


# ------------------------------------------------------------------- states

def test_state_dim2_matches_closed_form_exactly():
    phi = 0.83
    state = bg_grassmann_state(AlgebraParams([-1], phi))
    assert state.coeffs[0] == GrassmannElement.one(2)
    expected = GrassmannElement(2, (0j, complex(np.exp(-1j * phi))))
    assert state.coeffs[1] == expected


def test_state_d3_coefficients():
    # kappa = -1/2: F(1) = F(2) = 1, so the level-2 coefficient is exactly theta^2
    state = bg_grassmann_state(AlgebraParams(["-1/2"], 0.0))
    assert state.coeffs[2] == elem(3, 0, 0, 1)


def test_state_coefficients_match_bg_formula():
    # theta-degree-n component equals the complex-eigenstate coefficient formula
    params = AlgebraParams(["1/3"], 0.45)
    dim = 9
    state = bg_grassmann_state(params, dim=dim)
    amps = [state.coeffs[n].comps[n] for n in range(dim)]
    bg = bg_state(params, 1.0)
    assert np.max(np.abs(np.array(amps) - bg.coeffs[:dim])) < 1e-13


def test_bg_grassmann_requires_order_for_infinite():
    with pytest.raises(DomainError):
        bg_grassmann_state(AlgebraParams(["1/2"]))


def test_bg_grassmann_dim_fixed_on_finite_ladder():
    with pytest.raises(ValueError):
        bg_grassmann_state(AlgebraParams(["-1/3"]), dim=5)


# -------------------------------------------------------------- eigenvalue

def test_eigen_d2_hand_expansion():
    # lowering maps theta e^{-i phi}|1> to theta|0>, and theta * state is
    # theta|0> + theta^2 (...)|1> = theta|0>: both sides agree exactly
    params = AlgebraParams([-1], 0.37)
    state = bg_grassmann_state(params)
    rep = build_rep(params)
    assert check_bg_grassmann_eigen(state, rep) == 0.0


def test_eigen_d4():
    params = AlgebraParams(["-1/3"], 1.21)
    residual = check_bg_grassmann_eigen(bg_grassmann_state(params), build_rep(params))
    assert residual <= 1e-12


def test_eigen_random_finite_params():
    rng = np.random.default_rng(11)
    for _ in range(25):
        params = random_finite_params(rng)
        state = bg_grassmann_state(params)
        assert check_bg_grassmann_eigen(state, build_rep(params)) <= 1e-12


def test_eigen_truncated_infinite_algebra():
    params = AlgebraParams(["1/2"], -0.6)
    state = bg_grassmann_state(params, dim=6)
    rep = build_rep(params, window=6)
    assert check_bg_grassmann_eigen(state, rep) <= 1e-12


def test_eigen_residual_matches_dense_lowering():
    rng = np.random.default_rng(13)
    cases = [(random_finite_params(rng, d_max=40), None) for _ in range(30)]
    cases += [(random_infinite_params(rng), int(rng.integers(1, 30))) for _ in range(30)]
    for params, dim in cases:
        state = bg_grassmann_state(params, dim)
        rep = build_rep(params, window=state.dim)
        dense = grassmann_eigen_residual_dense(state, dense_lowering(params, state.dim))
        assert abs(check_bg_grassmann_eigen(state, rep) - dense) <= 1e-15


def test_complex_z_residual_matches_dense_lowering():
    rng = np.random.default_rng(14)
    for _ in range(60):
        params = random_finite_params(rng)
        z = random_z(rng)
        dense = complex_z_residual_dense(params, z)
        assert complex_z_bg_residual(params, z) == pytest.approx(dense, rel=1e-15, abs=1e-15)


def test_eigen_dim_mismatch():
    params = AlgebraParams(["-1/3"])
    state = bg_grassmann_state(params)
    rep = build_rep(AlgebraParams(["1/2"]), window=4)
    with pytest.raises(ValueError):
        check_bg_grassmann_eigen(state, rep)


def test_complex_z_has_no_finite_eigenstate():
    for d in range(2, 13):
        params = AlgebraParams([Fraction(-1, d - 1)], 0.1)
        assert complex_z_bg_residual(params, 1.0) > 1e-3
        assert complex_z_bg_residual(params, np.exp(0.7j)) > 1e-3
    assert complex_z_bg_residual(AlgebraParams([-1]), 0.0) == 0.0  # trivial solution


def test_degeneration_to_oscillator_coefficients():
    # with the formal variable replaced by z, the coefficient formula matches
    # the infinite-ladder eigenstate of the plain oscillator
    params = AlgebraParams([0], 0.0)
    dim = 20
    state = bg_grassmann_state(params, dim=dim)
    z = 0.9
    values = [state.coeffs[n].comps[n] * z**n for n in range(dim)]
    glauber = [z**n / math.sqrt(math.factorial(n)) for n in range(dim)]
    assert np.max(np.abs(np.array(values) - glauber)) < 1e-12
