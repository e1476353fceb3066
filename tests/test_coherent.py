import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from polywh import (
    AlgebraParams,
    DomainError,
    bg_normalization,
    bg_state,
    build_rep,
    check_bg_eigen,
    hyper_0f,
    overlap,
    perelomov_state,
    perelomov_via_exponential,
    time_evolve,
)
from polywh.coherent import perelomov_log_partial_norms

from oracles import (
    bg_eigen_residual_dense,
    dense_lowering,
    glauber_overlap,
    hyper_0f_unscaled,
    inverse_square_factorial_sum,
    nilpotent_exponential_dense,
    random_finite_params,
    random_infinite_params,
    random_z,
    series_reference,
)

OSC = AlgebraParams([0])


# -------------------------------------------------------------- perelomov

def test_perelomov_at_origin_is_ground_state():
    state = perelomov_state(AlgebraParams(["-1/3"], 0.4), 0)
    assert state.coeffs[0] == 1.0
    assert np.all(state.coeffs[1:] == 0)
    state_inf = perelomov_state(AlgebraParams(["1/2"]), 0)
    assert np.array_equal(state_inf.coeffs, [1.0 + 0j])


def test_perelomov_d3_coefficient_ratio():
    # d = 3: F(1) = 1, F(2) = 1, so c_2/c_0 = sqrt(F(1)F(2))/2! * z^2 = z^2/2
    z = 0.7 - 0.4j
    state = perelomov_state(AlgebraParams(["-1/2"]), z)
    assert state.coeffs[2] / state.coeffs[0] == pytest.approx(z**2 / 2, abs=1e-14)


def test_perelomov_disk_gate():
    params = AlgebraParams(["1/4"])  # radius 1/sqrt(kappa) = 2
    perelomov_state(params, 1.99)
    with pytest.raises(DomainError):
        perelomov_state(params, 2.0)  # boundary is rejected (open disk)
    with pytest.raises(DomainError):
        perelomov_state(params, 2.0j)
    with pytest.raises(DomainError):
        perelomov_state(AlgebraParams(["1/4", "1/3"]), 0.1)  # r >= 2


def test_perelomov_oscillator_is_glauber():
    z = 0.8 + 0.1j
    state = perelomov_state(OSC, z)
    for n in range(len(state.coeffs)):
        assert state.coeffs[n] == pytest.approx(z**n / math.sqrt(math.factorial(n)), abs=1e-13)


def test_perelomov_series_diverges_for_r2():
    # the gate enforces nonexistence; the diagnostic exhibits it numerically
    params = AlgebraParams(["1/2", "1/2"])
    logs = perelomov_log_partial_norms(params, 0.5, 400)
    assert logs[-1] > 100  # partial norms blow past e^100
    assert np.all(np.diff(logs[1:]) >= 0)


@pytest.mark.parametrize(
    "kind, kappas, phi, z",
    [
        ("barut-girardello", [0], 0.0, 3 - 1j),
        ("barut-girardello", ["1/2"], 0.3, 1 + 0.5j),
        ("barut-girardello", ["1/3", "2"], -0.8, 9 + 4j),
        ("barut-girardello", [0], 1.1, 25.0),
        ("perelomov", [0], 0.5, 3 - 2j),
        ("perelomov", ["1/2"], 0.2, 1.4),
        ("perelomov", ["1/4"], -1.3, 1.99j),
    ],
)
def test_block_series_matches_term_by_term_cutoff(kind, kappas, phi, z):
    params = AlgebraParams(kappas, phi)
    build = perelomov_state if kind == "perelomov" else bg_state
    state = build(params, z)
    ref, bound = series_reference(params, kind, z)
    assert state.cutoff_meta.n_terms == len(ref)
    assert state.cutoff_meta.tail_bound == pytest.approx(bound, rel=1e-12)
    assert np.max(np.abs(state.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert build(params, z, max_terms=len(ref)).cutoff_meta.n_terms == len(ref)
    with pytest.raises(DomainError):
        build(params, z, max_terms=len(ref) - 1)


def test_via_exponential_d2():
    z = 1.3 - 0.2j
    params = AlgebraParams([-1])
    state = perelomov_via_exponential(params, z, build_rep(params))
    assert np.allclose(state.coeffs, [1.0, z], atol=1e-15)


def test_via_exponential_origin():
    params = AlgebraParams(["-1/5"], 0.9)
    state = perelomov_via_exponential(params, 0, build_rep(params))
    assert state.coeffs[0] == 1.0
    assert np.all(state.coeffs[1:] == 0)


def test_via_exponential_matches_series_and_expm():
    params = AlgebraParams(["-1/3"], 0.3)
    z = 0.5 + 0.2j
    rep = build_rep(params)
    series = perelomov_state(params, z)
    nilpotent = perelomov_via_exponential(params, z, rep)
    assert np.max(np.abs(series.coeffs - nilpotent.coeffs)) < 1e-10
    e0 = np.zeros(4)
    e0[0] = 1.0
    expm_vec = scipy.linalg.expm(z * rep.raising) @ e0
    assert np.max(np.abs(series.coeffs - expm_vec)) < 1e-10


def test_via_exponential_rejects_infinite():
    params = AlgebraParams(["1/2"])
    rep = build_rep(params, window=6)
    with pytest.raises(DomainError):
        perelomov_via_exponential(params, 0.1, rep)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=12),
    extra=st.fractions(min_value=0, max_value=2, max_denominator=6),
    z_re=st.floats(min_value=-2, max_value=2),
    z_im=st.floats(min_value=-2, max_value=2),
    phi=st.floats(min_value=-1.5, max_value=1.5),
)
def test_equivalence_of_constructions_property(d, extra, z_re, z_im, phi):
    params = AlgebraParams([Fraction(-1, d - 1), extra], phi)
    z = complex(z_re, z_im)
    a = perelomov_state(params, z, normalize=True)
    b = perelomov_via_exponential(params, z, build_rep(params), normalize=True)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10


def test_via_exponential_matches_dense_raising():
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = random_finite_params(rng)
        z = random_z(rng, radius=3.0)
        banded = perelomov_via_exponential(params, z, build_rep(params)).coeffs
        dense = nilpotent_exponential_dense(dense_lowering(params, len(banded)).conj().T, z)
        assert np.all(np.abs(banded - dense) <= 1e-15 * np.abs(dense))


# -------------------------------------------------------- barut-girardello

def test_bg_at_origin():
    state = bg_state(AlgebraParams(["1/2", "1/3"]), 0)
    assert np.array_equal(state.coeffs, [1.0 + 0j])


def test_bg_oscillator_is_glauber():
    z = 1.1 - 0.6j
    state = bg_state(OSC, z)
    for n in range(len(state.coeffs)):
        assert state.coeffs[n] == pytest.approx(z**n / math.sqrt(math.factorial(n)), abs=1e-13)


def test_bg_ell2_coefficient():
    # F(1) = 1, F(2) = 3 at kappa = 1/2, so c_2 = z^2 / sqrt(3)
    z = 0.9 + 0.2j
    state = bg_state(AlgebraParams(["1/2"]), z)
    assert state.coeffs[2] == pytest.approx(z**2 / math.sqrt(3), abs=1e-14)


def test_bg_rejected_on_finite_ladder():
    with pytest.raises(DomainError):
        bg_state(AlgebraParams(["-1/3"]), 0.5)


def test_bg_eigen_residuals():
    origin = bg_state(AlgebraParams(["1/2"]), 0)
    rep0 = build_rep(AlgebraParams(["1/2"]), window=len(origin) + 1)
    assert check_bg_eigen(origin, rep0) == 0.0

    state = bg_state(OSC, 1 + 1j)
    rep = build_rep(OSC, window=len(state) + 1)
    assert check_bg_eigen(state, rep) <= 1e-10


def test_perelomov_is_not_a_lowering_eigenstate():
    params = AlgebraParams(["1/2"])
    state = perelomov_state(params, 0.9)
    rep = build_rep(params, window=len(state) + 1)
    assert check_bg_eigen(state, rep) > 0.1


def test_check_bg_eigen_window_too_small():
    params = AlgebraParams(["1/2"])
    state = bg_state(params, 1.0)
    rep = build_rep(params, window=len(state))
    with pytest.raises(ValueError):
        check_bg_eigen(state, rep)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bg_eigen_property(data):
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10_000)))
    params = random_infinite_params(rng)
    z = random_z(rng, radius=3.0)
    state = bg_state(params, z)
    rep = build_rep(params, window=len(state) + 1)
    assert check_bg_eigen(state, rep) <= 1e-10


def test_bg_eigen_matches_dense_lowering():
    rng = np.random.default_rng(12)
    for _ in range(60):
        params = random_infinite_params(rng)
        state = bg_state(params, random_z(rng, radius=3.0), normalize=bool(rng.integers(2)))
        for window in (len(state) + 1, len(state) + 3):
            dense = bg_eigen_residual_dense(state, dense_lowering(params, window))
            banded = check_bg_eigen(state, build_rep(params, window))
            assert banded == pytest.approx(dense, rel=1e-15, abs=1e-15)
    for _ in range(40):  # exact states, every row checked; O(1) residuals
        params = random_finite_params(rng)
        state = perelomov_state(params, random_z(rng))
        dense = bg_eigen_residual_dense(state, dense_lowering(params, len(state)))
        banded = check_bg_eigen(state, build_rep(params))
        assert banded == pytest.approx(dense, rel=1e-15, abs=1e-15)


@pytest.mark.parametrize(
    "build, params, z",
    [
        (bg_state, AlgebraParams([0]), 30),
        (bg_state, AlgebraParams([0], 0.4), -20 + 25j),
        (perelomov_state, AlgebraParams([Fraction(-1, 299)]), 1e3),
    ],
)
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflow is silent
def test_overflowing_state_is_a_domain_error(build, params, z, normalize):
    with pytest.raises(DomainError, match="overflows double precision") as exc:
        build(params, z, normalize=normalize)
    assert str(complex(z)) in str(exc.value)
    kind = "perelomov" if build is perelomov_state else "barut-girardello"
    assert str(exc.value).startswith(kind)


def test_largest_kappa0_state_below_the_overflow_is_finite():
    state = bg_state(AlgebraParams([0]), 26, normalize=True)
    assert np.isfinite(state.coeffs).all()
    assert abs(overlap(state, state) - 1) <= 1e-12


# --------------------------------------------------------------- evolution

def test_time_evolve_zero_is_identity():
    state = bg_state(AlgebraParams(["1/3"], 0.2), 0.7 + 0.1j)
    evolved = time_evolve(state, 0.0)
    assert np.array_equal(evolved.coeffs, state.coeffs)
    assert evolved.phi == state.phi


def test_time_evolve_matches_rebuild():
    params = AlgebraParams(["-1/4"], 0.2)
    z = 0.6 - 0.3j
    evolved = time_evolve(perelomov_state(params, z), 0.5)
    rebuilt = perelomov_state(params.with_phi(0.7), z)
    assert np.max(np.abs(evolved.coeffs - rebuilt.coeffs)) < 1e-12
    assert evolved.phi == pytest.approx(0.7)


def test_time_evolve_integer_spectrum_period():
    state = bg_state(OSC, 1.2, normalize=True)
    evolved = time_evolve(state, 2 * math.pi)
    assert np.max(np.abs(evolved.coeffs - state.coeffs)) < 1e-12


def test_temporal_stability_random_cases():
    rng = np.random.default_rng(7)
    for _ in range(30):
        if rng.uniform() < 0.5:
            params = random_finite_params(rng, d_max=8)
            state = perelomov_state(params, random_z(rng, 1.5))
            rebuild = perelomov_state
        else:
            params = random_infinite_params(rng)
            state = bg_state(params, random_z(rng, 2.0))
            rebuild = bg_state
        t = float(rng.uniform(-1.5, 1.5))
        evolved = time_evolve(state, t)
        other = rebuild(params.with_phi(params.phi + t), state.z)
        scale = np.maximum(1.0, np.abs(other.coeffs))
        assert np.max(np.abs(evolved.coeffs - other.coeffs) / scale) < 1e-12


# ----------------------------------------------------------------- overlap

def test_overlap_normalized_self():
    state = bg_state(AlgebraParams(["1/2"], 0.3), 1.5 + 0.5j, normalize=True)
    assert overlap(state, state) == pytest.approx(1.0, abs=1e-10)


def test_overlap_with_origin_gives_inverse_norm():
    params = AlgebraParams([1])
    z2 = 1.2 - 0.4j
    s1 = bg_state(params, 0, normalize=True)
    s2 = bg_state(params, z2, normalize=True)
    assert overlap(s1, s2) == pytest.approx(1.0 / bg_normalization(params, z2), abs=1e-10)


def test_overlap_glauber_closed_form():
    z1, z2 = 0.9 + 0.4j, -0.5 + 1.1j
    s1 = bg_state(OSC, z1, normalize=True)
    s2 = bg_state(OSC, z2, normalize=True)
    assert overlap(s1, s2) == pytest.approx(glauber_overlap(z1, z2), abs=1e-8)


def test_overlap_mismatch_errors():
    a = bg_state(AlgebraParams(["1/2"]), 1.0)
    b = bg_state(AlgebraParams(["1/3"]), 1.0)
    with pytest.raises(ValueError):
        overlap(a, b)
    c = perelomov_state(AlgebraParams(["1/2"]), 0.5)
    with pytest.raises(ValueError):
        overlap(a, c)
    d = bg_state(AlgebraParams(["1/2"], 0.4), 1.0)
    with pytest.raises(ValueError):
        overlap(a, d)
    overlap(a, d, unchecked=True)  # cross-phase value is computable on request


def test_states_are_nonorthogonal():
    s1 = bg_state(AlgebraParams(["1/2"]), 0.7, normalize=True)
    s2 = bg_state(AlgebraParams(["1/2"]), 1.4, normalize=True)
    val = overlap(s1, s2)
    assert abs(val) > 0.1
    assert abs(val) < 1.0


# ------------------------------------------------------------ normalization

def test_bg_normalization_at_origin():
    assert bg_normalization(AlgebraParams(["1/2", "1/3"]), 0) == 1.0


def test_bg_normalization_bessel_oracle():
    params = AlgebraParams([1])  # ell = 1: F(n)! = (n!)^2
    value = bg_normalization(params, 1.0) ** 2
    assert value == pytest.approx(inverse_square_factorial_sum(1.0), abs=1e-12)
    assert value == pytest.approx(float(mpmath.besseli(0, 2)), abs=1e-12)
    assert value == pytest.approx(2.2795853023360673, abs=1e-8)


def test_bg_normalization_oscillator_limit():
    z = 1.3
    assert bg_normalization(OSC, z) == pytest.approx(math.exp(abs(z) ** 2 / 2), rel=1e-12)


def test_bg_normalization_matches_state_norm():
    for kappas, z in [
        (["1/2"], 1 + 0.5j),
        (["1/3", "1/5"], 2.5),
        ([1, 1, 1], 3.0),
        (["1/2", "0"], 1.7 - 0.8j),
    ]:
        params = AlgebraParams(kappas, 0.2)
        state = bg_state(params, z)
        assert abs(state.norm() - bg_normalization(params, z)) < 1e-10


def test_bg_normalization_rejects_non_reciprocal():
    with pytest.raises(DomainError):
        bg_normalization(AlgebraParams(["2/3"]), 1.0)


def test_bg_normalization_on_an_array_equals_the_scalar_values():
    grid = np.linspace(-6, 6, 13)
    z = (grid[:, None] + 1j * grid[None, :]).T
    for kappas in (["0"], ["1/2"], ["1/3", "1/5"], [1, 1, 1]):
        params = AlgebraParams(kappas)
        values = bg_normalization(params, z)
        assert values.shape == z.shape
        assert values.tolist() == [[bg_normalization(params, v) for v in row] for row in z]
    assert bg_normalization(OSC, np.array([])).shape == (0,)


def test_hyper_0f_on_an_array_stops_each_entry_at_its_own_term():
    xs = [-40.0, 0.0, 1e-3, 2.5, 300.0]
    assert hyper_0f((2, 3), np.array(xs)).tolist() == [hyper_0f((2, 3), x) for x in xs]
    with pytest.raises(DomainError):
        hyper_0f((1,), np.array([0.5, 1e6]), max_terms=50)


def test_bg_normalization_past_the_double_range_of_its_square():
    # |N|^2 = e^900 overflows; |N| = e^450 does not
    assert bg_normalization(OSC, 30) == pytest.approx(math.exp(450), rel=1e-13)
    params = AlgebraParams(["1/2", "1/3"])
    for z in (2000.0, 1600 + 1200j):  # |N|^2 = 0F_2(;2,3;6|z|^2) = e^841.0
        x = 6 * abs(z) ** 2
        with mpmath.workdps(30):
            ref = float(mpmath.sqrt(mpmath.hyper([], [2, 3], x)))
        assert bg_normalization(params, z) == pytest.approx(ref, rel=1e-13)
    zs = np.array([[30.0, 1.0], [0.0, 26.0]])
    scalars = [[bg_normalization(OSC, z) for z in row] for row in zs]
    assert bg_normalization(OSC, zs).tolist() == scalars
    with pytest.raises(DomainError, match=r"normalization \|N\(z\)\| overflows double precision"):
        bg_normalization(OSC, 40)  # |N| = e^800
    with pytest.raises(DomainError, match="overflows double precision"):
        bg_normalization(OSC, np.array([1.0, 40.0]))
    with pytest.raises(DomainError, match="hypergeometric sum overflows double precision"):
        hyper_0f((), 900.0)


@settings(max_examples=200, deadline=None)
@given(
    ells=st.lists(st.integers(min_value=1, max_value=9), max_size=3),
    x=st.floats(min_value=0, max_value=2000),
)
def test_hyper_0f_is_the_plain_float_sum_wherever_that_is_finite(ells, x):
    plain = hyper_0f_unscaled(ells, x)
    if math.isfinite(plain):
        assert hyper_0f(ells, x) == plain
        assert hyper_0f(ells, np.array([x])).tolist() == [plain]
        params = AlgebraParams([Fraction(1, ell) for ell in ells] or [0])
        z = math.sqrt(x / math.prod(ells))
        exact_x = math.prod(ells) * abs(complex(z)) ** 2
        assert bg_normalization(params, z) == math.sqrt(hyper_0f_unscaled(ells, exact_x))


def test_hyper_0f_against_mpmath():
    for ells, x in [((2,), 1.7), ((1, 3), 4.0), ((2, 2, 5), 9.0)]:
        ours = hyper_0f(ells, x)
        ref = float(mpmath.hyper([], list(ells), x))
        assert ours == pytest.approx(ref, rel=1e-13)


# ------------------------------------------------------------- degenerations

def test_oscillator_degeneration_large_ell():
    params = AlgebraParams([Fraction(1, 10**6)])
    z = 0.9 + 0.3j
    glauber = np.array([z**n / math.sqrt(math.factorial(n)) for n in range(11)])
    pere = perelomov_state(params, z)
    bg = bg_state(params, z)
    assert np.max(np.abs(pere.coeffs[:11] - glauber)) < 1e-4
    assert np.max(np.abs(bg.coeffs[:11] - glauber)) < 1e-4


def test_continuity_in_z_and_phi():
    params = AlgebraParams(["1/2"], 0.3)
    z = 0.8 + 0.2j
    base = bg_state(params, z)
    slopes = []
    for delta in (1e-6, 1e-7):
        shifted = bg_state(params, z + delta)
        length = min(len(base), len(shifted))
        slopes.append(np.linalg.norm(shifted.coeffs[:length] - base.coeffs[:length]) / delta)
    # difference quotients agree across scales -> locally Lipschitz in z
    assert slopes[0] == pytest.approx(slopes[1], rel=1e-3)
    d_phi = 1e-6
    shifted = bg_state(params.with_phi(0.3 + d_phi), z)
    lip_phi = np.linalg.norm(shifted.coeffs - base.coeffs) / d_phi
    assert np.isfinite(lip_phi)
    print(f"\nempirical Lipschitz constants: L_z = {slopes[0]:.4f}, L_phi = {lip_phi:.4f}")


# ------------------------------------------------------------ existence gate

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_existence_gate_property(data):
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10_000)))
    if rng.uniform() < 0.5:
        params = random_finite_params(rng)
        perelomov_state(params, random_z(rng, 3.0))  # always exists
    else:
        params = random_infinite_params(rng)
        k1 = float(params.kappas[0])
        radius = math.inf if k1 == 0 else 1 / math.sqrt(k1)
        z = random_z(rng, min(radius * 0.95, 3.0))
        if params.r >= 2:
            with pytest.raises(DomainError):
                perelomov_state(params, z)
        else:
            perelomov_state(params, z)
            if radius < math.inf:
                with pytest.raises(DomainError):
                    perelomov_state(params, radius * float(rng.uniform(1.0, 2.0)))


def test_tail_bound_is_recorded_and_respected():
    state = bg_state(AlgebraParams(["1/2"]), 2.0, tail_tol=1e-14)
    meta = state.cutoff_meta
    assert not meta.exact
    assert 0 < meta.tail_bound <= 1e-14
    longer = bg_state(AlgebraParams(["1/2"]), 2.0, tail_tol=1e-20)
    assert len(longer) > len(state)
    assert np.max(np.abs(longer.coeffs[: len(state)] - state.coeffs)) == 0.0
