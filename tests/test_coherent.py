import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polywh import (
    AlgebraParams,
    DomainError,
    EntireSeries,
    StateKind,
    bg_grassmann_state,
    bg_normalization,
    bg_state,
    build_rep,
    check_bg_eigen,
    classify,
    hyper_0f,
    moments_for,
    overlap,
    perelomov_state,
    perelomov_via_exponential,
    solve_measure,
    time_evolve,
)
from polywh.algebra import ladder_table
from polywh.coherent import _series_moduli, perelomov_log_partial_norms

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


@st.composite
def _moduli_cases(draw):
    """(kind, params, zs, levels) over both families: finite ladders
    (perelomov, d <= 150), kappa = 0, kappa = p/q in [0.05, 0.7] with z
    up to 0.99 of the perelomov rim, and 1/ell tuples with r <= 3 (bg).
    The z are real and nonnegative, as the identity check's sqrt(t)."""
    phi = draw(st.floats(min_value=-2.0, max_value=2.0))
    shape = draw(st.sampled_from(["finite", "zero", "ratio", "ell"]))
    if shape == "finite":
        d = draw(st.integers(min_value=2, max_value=150))
        kind, kappas, radius = "perelomov", [Fraction(-1, d - 1)], 6.0
    else:
        kind = draw(st.sampled_from(["perelomov", "barut-girardello"]))
        r = 1 if kind == "perelomov" or shape != "ell" else draw(st.integers(1, 3))
        kappa = {
            "zero": st.just(Fraction(0)),
            "ratio": st.fractions(min_value="1/20", max_value="7/10", max_denominator=40),
            "ell": st.builds(Fraction, st.just(1), st.integers(min_value=1, max_value=9)),
        }[shape]
        kappas = draw(st.lists(kappa, min_size=r, max_size=r))
        rim = 1.0 / math.sqrt(kappas[0]) if kind == "perelomov" and kappas[0] else math.inf
        radius = min(0.99 * rim, 6.0 if kind == "perelomov" else 12.0)
    params = AlgebraParams(kappas, phi)
    top = classify(params).d if classify(params).is_finite else 150
    levels = draw(st.integers(min_value=1, max_value=top))
    moduli = st.one_of(st.floats(min_value=0.0, max_value=radius), st.sampled_from([1e-3, 0.1]))
    zs = draw(st.lists(moduli, min_size=1, max_size=5))
    return StateKind(kind), params, zs, levels


@settings(max_examples=150, deadline=None)
@example(case=(StateKind.BARUT_GIRARDELLO, AlgebraParams([0], 0.7), [0.05, 3.0, 12.0], 150))
@example(case=(StateKind.PERELOMOV, AlgebraParams(["1/2"], -0.4), [0.01, 1.4], 100))
@example(case=(StateKind.BARUT_GIRARDELLO, AlgebraParams(["1/3"]), [0.5], 1))
@given(case=_moduli_cases())
def test_batched_moduli_are_the_constructors_bit_for_bit(case):
    kind, params, zs, levels = case
    build = perelomov_state if kind is StateKind.PERELOMOV else bg_state
    rows = _series_moduli(kind, params, zs, levels)
    assert rows.shape == (len(zs), levels)
    for row, z in zip(rows, zs):
        amp2 = np.abs(build(params, z).coeffs[:levels]) ** 2
        assert np.array_equal(row, np.pad(amp2, (0, levels - len(amp2))))


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
        (bg_state, AlgebraParams([0]), 40),
        (bg_state, AlgebraParams([0], 0.4), -30 + 30j),
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


@pytest.mark.parametrize("z", [30, 35, 37])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kappa0_state_exists_where_its_coefficients_fit(z):
    # |c_n|^2 and the squared norm e^{|z|^2} pass the double range; c_n and
    # the norm e^{|z|^2 / 2} do not
    params = AlgebraParams([0])
    closed = bg_normalization(params, z)
    raw = bg_state(params, z)
    unit = bg_state(params, z, normalize=True)
    for state in (raw, unit):
        assert np.isfinite(state.coeffs).all()
        assert check_bg_eigen(state, build_rep(params, len(state) + 1)) <= 1e-10
    assert raw.norm() == pytest.approx(closed, rel=1e-10)
    assert unit.norm() == pytest.approx(1.0, abs=1e-12)
    assert abs(overlap(unit, unit) - 1) <= 1e-12
    assert np.max(np.abs(unit.coeffs * closed - raw.coeffs)) <= 1e-10 * np.max(np.abs(raw.coeffs))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_coefficient_overflow_is_named_before_the_term_cap():
    with pytest.raises(DomainError, match="overflows double precision: coefficient c_911 passes"):
        bg_state(AlgebraParams([0]), 40, max_terms=2000)


def _states_pool_kappas():
    """The kappa shapes of the states benchmark stream: kappa = 0, 1/ell and
    p/2 (r = 1), pairs (1/ell, p/3), and finite ladders -1/(d-1), alone or
    with a 1/ell."""
    ell = st.integers(min_value=1, max_value=9).map(lambda n: Fraction(1, n))
    half = st.integers(min_value=1, max_value=3).map(lambda p: Fraction(p, 2))
    third = st.integers(min_value=1, max_value=3).map(lambda p: Fraction(p, 3))
    d = st.integers(min_value=4, max_value=200)
    return st.one_of(
        st.just([Fraction(0)]),
        st.one_of(ell, half).map(lambda k: [k]),
        st.tuples(ell, third).map(list),
        st.tuples(d, st.one_of(st.none(), ell)).map(
            lambda pair: [Fraction(-1, pair[0] - 1)] + ([pair[1]] if pair[1] else [])),
    )


@settings(max_examples=120, deadline=None)
@example(kappas=[Fraction(0)], modulus=37.6, angle=0.3, phi=0.0, normalize=True)
@example(kappas=[Fraction(0)], modulus=60.0, angle=-2.0, phi=1.0, normalize=False)
@given(
    kappas=_states_pool_kappas(),
    modulus=st.floats(min_value=0.0, max_value=60.0),
    angle=st.floats(min_value=-math.pi, max_value=math.pi),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
    normalize=st.booleans(),
)
def test_a_state_is_finite_or_a_named_domain_error(kappas, modulus, angle, phi, normalize):
    params = AlgebraParams(kappas, phi)
    z = complex(modulus * math.cos(angle), modulus * math.sin(angle))
    # the constructors that exist somewhere on this ladder: no bg state on a
    # finite ladder, no perelomov series for r >= 2
    if classify(params).is_finite:
        builds = [perelomov_state]
    else:
        builds = [bg_state] + [perelomov_state] * (params.r == 1)
    for build in builds:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                state = build(params, z, normalize=normalize)
            except DomainError as exc:
                assert re.search(
                    "overflows double precision|outside the existence disk|did not reach tail",
                    str(exc),
                ), exc
                continue
        assert np.isfinite(state.coeffs).all()
        if normalize:
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


def test_hyper_0f_refuses_a_sum_lost_to_cancellation():
    # e^-40 = 4.2e-18, but the alternating float sum ends at 0.31
    with pytest.raises(DomainError, match="x = -40 is lost to cancellation"):
        hyper_0f((), -40.0)
    with pytest.raises(DomainError, match="x = -40 is lost to cancellation"):
        hyper_0f((), np.array([[1.0], [-40.0]]))
    for x in (-2000.0, np.array([3.0, -2000.0])):  # before the partial sums overflow
        with pytest.raises(DomainError, match="term moduli sum past the double range"):
            hyper_0f((), x)
    with mpmath.workdps(30):
        ref = float(mpmath.hyper([], [2, 3], -40))
    assert abs(hyper_0f((2, 3), -40.0) - ref) <= 5e-15  # moduli sum 29.2: nothing lost


@settings(max_examples=100, deadline=None)
@given(
    ells=st.lists(st.integers(min_value=1, max_value=9), max_size=3),
    x=st.floats(min_value=-400, max_value=-1e-3),
)
def test_hyper_0f_at_negative_x_keeps_its_digits_or_refuses(ells, x):
    with mpmath.workdps(40):
        ref = mpmath.hyper([], ells, x)
        moduli = float(mpmath.hyper([], ells, -x))
    try:
        value = hyper_0f(ells, x)
    except DomainError:
        assert np.finfo(float).eps * moduli > 0.9e-8 * abs(ref)  # refused only near the gate
        return
    assert abs(value - ref) <= 1e-7 * abs(ref)


def test_hyper_0f_against_mpmath():
    for ells, x in [((2,), 1.7), ((1, 3), 4.0), ((2, 2, 5), 9.0)]:
        ours = hyper_0f(ells, x)
        ref = float(mpmath.hyper([], list(ells), x))
        assert ours == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("call", [
    lambda x: hyper_0f((2, 3), x),
    lambda x: hyper_0f((2, 3), -x),
    lambda x: bg_normalization(AlgebraParams(["1/2", "1/3"]), x),
    lambda x: bg_normalization(OSC, 20 * x),  # |N|^2 = e^900 past the double range
])
def test_a_scalar_gives_a_float_and_a_0d_array_the_same_value(call):
    value = call(1.5)
    assert type(value) is float
    assert call(np.array(1.5)) == value
    assert call(np.float64(1.5)) == value


@pytest.mark.parametrize("call, x, message", [
    (lambda x: bg_normalization(OSC, x), 40.0,
     "normalization |N(z)| overflows double precision: it is about 2^1154.2"),
    (lambda x: hyper_0f((), x), 900.0,
     "hypergeometric sum overflows double precision: it is about 2^1298.4"),
    (lambda x: hyper_0f((), x), -40.0,
     "hypergeometric sum at x = -40 is lost to cancellation: "
     "its term moduli sum to 2.35e+17 against a value of 0.312"),
    (lambda x: hyper_0f((), x), -2000.0,
     "hypergeometric sum at x = -2000 is lost to cancellation: "
     "its term moduli sum past the double range"),
])
def test_a_scalar_and_a_one_entry_array_fail_with_one_message(call, x, message):
    for arg in (x, np.array(x), np.array([x])):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a 0-d x overflows without a warning
            with pytest.raises(DomainError) as err:
                call(arg)
        assert str(err.value) == message


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


_HALF = AlgebraParams(["1/2"])
_NAN, _INF = float("nan"), float("inf")

# each call with the argument its DomainError must name
_NON_FINITE = [
    (lambda: bg_state(_HALF, _NAN), "z"),
    (lambda: bg_state(_HALF, complex(1.0, _INF)), "z"),
    (lambda: perelomov_state(_HALF, _NAN), "z"),
    (lambda: perelomov_state(AlgebraParams(["-1/3"]), _INF), "z"),
    (lambda: bg_state(_HALF, 1.0, tail_tol=-1), "tail_tol"),
    (lambda: bg_state(_HALF, 1.0, tail_tol=0.0), "tail_tol"),
    (lambda: perelomov_state(_HALF, 0.5, tail_tol=_NAN), "tail_tol"),
    (lambda: perelomov_state(_HALF, 0.5, tail_tol=_INF), "tail_tol"),
    (lambda: AlgebraParams(["-1/3"], phi=_INF), "phi"),
    (lambda: AlgebraParams(["1/2"], phi=_NAN), "phi"),
    (lambda: OSC.with_phi(-_INF), "phi"),
    (lambda: bg_normalization(_HALF, _NAN), "z"),
    (lambda: bg_normalization(_HALF, np.array([0.5, complex(0.0, _NAN)])), "z"),
    (lambda: hyper_0f((2,), _NAN), "x"),
    (lambda: hyper_0f((2,), np.array([1.0, _NAN])), "x"),
]


@pytest.mark.parametrize("call, name", _NON_FINITE)
def test_non_finite_input_is_refused_by_name(call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=f"^{name} must "):
            call()


def test_nan_guards_pass_exact_scalars():
    # a Fraction is an object scalar, which np.isnan cannot read
    assert hyper_0f((2,), Fraction(1, 2)) == hyper_0f((2,), 0.5)
    assert hyper_0f((2,), Fraction(-1, 2)) == hyper_0f((2,), -0.5)
    assert bg_normalization(_HALF, Fraction(1, 2)) == bg_normalization(_HALF, 0.5)


# every value type that holds an ndarray, built twice from the same inputs
_ARRAY_HOLDERS = [
    lambda: bg_state(_HALF, 0.5 + 0.25j),
    lambda: ladder_table(_HALF, 8),
    lambda: build_rep(AlgebraParams(["-1/4"], 0.3)),
    lambda: bg_grassmann_state(AlgebraParams(["-1/4"], 0.3)),
    lambda: solve_measure(moments_for(OSC, StateKind.BARUT_GIRARDELLO, count=8)),
    lambda: EntireSeries.bg_kernel(_HALF, 100),
]


@pytest.mark.parametrize("make", _ARRAY_HOLDERS)
def test_array_holding_values_compare_by_identity(make):
    x, rebuilt = make(), make()
    assert x == x and hash(x) == hash(x)
    assert x != rebuilt
