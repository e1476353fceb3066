import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywh import (
    AlgebraParams,
    DomainError,
    build_rep,
    build_truncated_rep,
    classify,
    commutator_gap,
    generalized_factorial,
    reciprocal_ells,
    structure_function,
)
from polywh.algebra import identity_deviations, ladder_table

from oracles import brute_factorial, brute_structure, dense_lowering, identity_deviations_dense


# ------------------------------------------------------------ construction

def test_empty_kappas_rejected():
    with pytest.raises(DomainError):
        AlgebraParams([])


def test_float_kappa_rejected():
    with pytest.raises(TypeError):
        AlgebraParams([0.5])


def test_negative_kappa_in_later_slot_rejected():
    with pytest.raises(DomainError):
        AlgebraParams([Fraction(1, 2), Fraction(-1, 3)])


def test_noninteger_dimension_rejected():
    with pytest.raises(DomainError):
        AlgebraParams(["-2/5"])


def test_classify_examples():
    assert not classify(AlgebraParams(["1/3", "2"])).is_finite
    assert classify(AlgebraParams(["-1/3"])).d == 4
    assert classify(AlgebraParams([-1])).d == 2
    assert str(classify(AlgebraParams([0]))) == "infinite"


# -------------------------------------------------------- scalar functions

def test_structure_function_oscillator():
    params = AlgebraParams([0])
    assert structure_function(params, 3) == 3


def test_structure_function_ell2():
    # kappa = 1/2, n = 3: 3 * (1 + 2/2) = 6
    assert structure_function(AlgebraParams(["1/2"]), 3) == 6


def test_structure_function_finite_d4():
    # n (d-n)/(d-1) at d = 4, n = 2
    assert structure_function(AlgebraParams(["-1/3"]), 2) == Fraction(4, 3)


def test_commutator_gap_examples():
    osc = AlgebraParams([0])
    for n in range(10):
        assert commutator_gap(osc, n) == 1
    assert commutator_gap(AlgebraParams(["1/2"]), 2) == 3  # F(3) - F(2) = 6 - 3
    assert commutator_gap(AlgebraParams(["-1/3"]), 3) == -1  # F(4) - F(3) = 0 - 1


def test_generalized_factorial_examples():
    assert generalized_factorial(AlgebraParams(["1/2"]), 0) == 1
    assert generalized_factorial(AlgebraParams([0]), 4) == 24
    assert generalized_factorial(AlgebraParams(["1/2"]), 2) == 3  # F(1) F(2) = 1 * 3


def test_generalized_factorial_out_of_range():
    params = AlgebraParams(["-1/3"])  # d = 4
    generalized_factorial(params, 3)
    with pytest.raises(DomainError):
        generalized_factorial(params, 4)


@settings(max_examples=40, deadline=None)
@given(
    kappas=st.lists(
        st.fractions(min_value=0, max_value=2, max_denominator=8), min_size=1, max_size=3
    ),
    n=st.integers(min_value=0, max_value=50),
)
def test_scalars_match_brute_oracle(kappas, n):
    params = AlgebraParams(kappas)
    assert structure_function(params, n) == brute_structure(kappas, n)
    assert commutator_gap(params, n) == brute_structure(kappas, n + 1) - brute_structure(kappas, n)
    assert generalized_factorial(params, n) == brute_factorial(kappas, n)


def test_scalars_match_brute_oracle_finite():
    for d in range(2, 13):
        kappas = [Fraction(-1, d - 1), Fraction(1, 2)]
        params = AlgebraParams(kappas)
        for n in range(d):
            assert structure_function(params, n) == brute_structure(kappas, n)
            assert generalized_factorial(params, n) == brute_factorial(kappas, n)


_KAPPA = st.fractions(min_value=0, max_value=9, max_denominator=40)


@settings(max_examples=60, deadline=None)
@given(
    first=st.one_of(_KAPPA, st.integers(min_value=1, max_value=39).map(lambda k: Fraction(-1, k))),
    rest=st.lists(_KAPPA, max_size=2),
    far=st.integers(min_value=0, max_value=200_000),
)
def test_ladder_table_is_the_exact_values_rounded(first, rest, far):
    # bit for bit (hex tells -0.0 from 0.0) wherever F(n+1) prod q_i < 2**53
    params = AlgebraParams([first, *rest])
    dim = classify(params)
    size = min(far, dim.d - 1) + 1 if dim.is_finite else far + 1
    table = ladder_table(params, size)
    scale = math.prod(k.denominator for k in params.kappas)
    for n in sorted({*range(min(size, 40)), size - 1}):
        if abs(structure_function(params, n + 1)) * scale >= 2**53:
            continue
        assert table.f[n].hex() == float(structure_function(params, n)).hex()
        assert table.g[n].hex() == float(commutator_gap(params, n)).hex()
    if dim.is_finite:
        with pytest.raises(ValueError):
            ladder_table(params, dim.d + 1)


# --------------------------------------------------------- representations

def test_build_rep_oscillator_superdiagonal():
    rep = build_rep(AlgebraParams([0]), window=3)
    assert rep.lowering[0, 1] == pytest.approx(1.0)
    assert rep.lowering[1, 2] == pytest.approx(math.sqrt(2))
    assert np.count_nonzero(rep.lowering) == 2


def test_build_rep_fermion_case():
    rep = build_rep(AlgebraParams([-1]))
    assert np.array_equal(rep.lowering, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.all(rep.lowering @ rep.lowering == 0)
    assert np.all(rep.raising @ rep.raising == 0)


def test_build_rep_product_identity_d4():
    params = AlgebraParams(["-1/3"], 0.7)
    rep = build_rep(params)
    diag = np.diag(rep.raising @ rep.lowering)
    expected = [float(brute_structure(params.kappas, n)) for n in range(4)]
    assert np.max(np.abs(diag - expected)) < 1e-12


def test_build_rep_number_and_hermiticity():
    params = AlgebraParams(["1/3", "1/2"], -0.4)
    rep = build_rep(params, window=9)
    assert np.array_equal(rep.number, np.diag(np.arange(9.0)))
    assert np.array_equal(rep.raising, rep.lowering.conj().T)


@pytest.mark.parametrize(
    "kappas, phi, window",
    [
        (["-1/3"], 0.7, None),
        (["-1/30", "1/2", "2"], -2.1, None),
        (["-1"], 0.4, None),
        (["0"], 0.0, 1),
        (["1/2"], 1.3, 40),
        (["1/3", "3/2"], -0.6, 25),
    ],
)
def test_band_is_the_dense_superdiagonal(kappas, phi, window):
    params = AlgebraParams(kappas, phi)
    rep = build_rep(params, window)
    m = rep.dim_window
    dense = dense_lowering(params, m)
    assert rep.band.shape == (m - 1,)
    assert not rep.band.flags.writeable
    assert np.array_equal(rep.band, np.diag(dense, 1))
    assert np.array_equal(rep.lowering, dense)
    assert np.array_equal(rep.raising, dense.conj().T)
    assert np.array_equal(rep.number, np.diag(np.arange(m, dtype=float)))
    assert rep.lowering is rep.lowering  # built once, on first access
    assert not rep.lowering.flags.writeable


def test_truncated_band_is_the_dense_superdiagonal():
    params = AlgebraParams(["1/2", "1/5"], 0.9)
    for s in (1, 4, 11):
        rep = build_truncated_rep(params, 12, s)
        dense = dense_lowering(params, 12)
        dense[:, s:] = 0.0
        assert np.array_equal(rep.band, np.diag(dense, 1))
        assert np.array_equal(rep.lowering, dense)
        assert np.array_equal(rep.raising, dense.conj().T)


def test_build_rep_window_errors():
    with pytest.raises(ValueError):
        build_rep(AlgebraParams(["-1/3"]), window=5)
    with pytest.raises(ValueError):
        build_rep(AlgebraParams([0]))


def test_commutator_identity_finite_exact_on_full_matrix():
    params = AlgebraParams(["-1/4", "1/2"], 0.3)
    d = classify(params).d
    rep = build_rep(params)
    comm = rep.lowering @ rep.raising - rep.raising @ rep.lowering
    for n in range(d - 1):
        assert abs(comm[n, n] - float(commutator_gap(params, n))) < 1e-12
    assert abs(comm[d - 1, d - 1] + float(structure_function(params, d - 1))) < 1e-12
    off = comm - np.diag(np.diag(comm))
    assert np.max(np.abs(off)) < 1e-12


def test_phase_invariance_of_moduli():
    base = build_rep(AlgebraParams(["1/2", "1/3"], 0.0), window=8)
    for phi in (0.3, -1.7, 2.9):
        rep = build_rep(AlgebraParams(["1/2", "1/3"], phi), window=8)
        assert np.max(np.abs(np.abs(rep.lowering) - np.abs(base.lowering))) < 1e-14


def test_nilpotency_range_of_dims():
    for d in range(2, 13):
        rep = build_rep(AlgebraParams([Fraction(-1, d - 1)], 0.2))
        assert np.all(np.linalg.matrix_power(rep.lowering, d) == 0)
        assert np.all(np.linalg.matrix_power(rep.raising, d) == 0)
        assert np.any(np.linalg.matrix_power(rep.raising, d - 1) != 0)


_PHI = st.floats(min_value=-math.pi, max_value=math.pi)


@st.composite
def _reps(draw):
    """Finite ladders up to d = 200 (at most one extra kappa, so the dense
    powers stay inside the double range), infinite windows up to 200, and
    truncations 1 <= s < window."""
    kind = draw(st.sampled_from(["finite", "infinite", "truncated"]))
    if kind == "finite":
        d = draw(st.integers(min_value=2, max_value=200))
        kappas = [Fraction(-1, d - 1), *draw(st.lists(_KAPPA, max_size=1))]
        return build_rep(AlgebraParams(kappas, draw(_PHI)))
    params = AlgebraParams(draw(st.lists(_KAPPA, min_size=1, max_size=3)), draw(_PHI))
    if kind == "infinite":
        return build_rep(params, draw(st.integers(min_value=1, max_value=200)))
    window = draw(st.integers(min_value=2, max_value=200))
    return build_truncated_rep(params, window, draw(st.integers(min_value=1, max_value=window - 1)))


@settings(max_examples=150, deadline=None)
@given(rep=_reps())
def test_identity_deviations_match_the_dense_products(rep):
    dev = identity_deviations(rep)
    product, commutator, nilpotency = identity_deviations_dense(rep)
    f_max = max(1.0, float(np.max(np.abs(ladder_table(rep.params, rep.dim_window).f))))
    assert abs(dev.commutator - commutator) <= 2e-15 * f_max
    if product is not None:  # the dense route takes no product identity of a truncation
        assert abs(dev.product - product) <= 2e-15 * f_max
    assert dev.nilpotency == nilpotency


def test_band_nilpotency_is_exact_past_the_double_range():
    # the dense powers of this d = 200 ladder overflow and turn into NaN
    rep = build_rep(AlgebraParams(["-1/199", "1", "1"], 0.3))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(np.linalg.matrix_power(rep.lowering, 200)).any()
    assert identity_deviations(rep).nilpotency == 0.0


# ------------------------------------------------------------- truncations

def test_truncated_commutator_oscillator():
    # direct matrix computation for F(n) = n, window 6, s = 3
    rep = build_truncated_rep(AlgebraParams([0]), window=6, s=3)
    comm = rep.lowering @ rep.raising - rep.raising @ rep.lowering
    assert np.max(np.abs(comm - np.diag([1, 1, -2, 0, 0, 0]))) < 1e-12


def test_truncated_removes_upper_transitions():
    rep = build_truncated_rep(AlgebraParams(["1/2"]), window=5, s=2)
    e1 = np.zeros(5, dtype=complex)
    e1[1] = 1.0
    assert np.all(rep.raising @ e1 == 0)  # the 1 -> 2 transition is gone
    e0 = np.zeros(5, dtype=complex)
    e0[0] = 1.0
    assert np.linalg.norm(rep.raising @ e0) > 0.9


def test_truncated_rep_matches_manual_construction():
    params = AlgebraParams(["1/3"], 0.6)
    window, s = 8, 4
    manual = build_rep(params, window).lowering.copy()
    for n in range(s, window):
        manual[n - 1, n] = 0.0
    rep = build_truncated_rep(params, window, s)
    assert np.array_equal(rep.lowering, manual)
    assert rep.truncation_order == s


def test_truncate_errors():
    with pytest.raises(ValueError):
        build_truncated_rep(AlgebraParams([0]), window=4, s=4)
    with pytest.raises(DomainError):
        build_truncated_rep(AlgebraParams(["-1/3"]), window=4, s=2)


# ------------------------------------------------------------ reciprocals

def test_reciprocal_ells():
    assert reciprocal_ells(AlgebraParams(["1/2", "0", "1/5"])) == (2, 5)
    assert reciprocal_ells(AlgebraParams([1])) == (1,)
    with pytest.raises(DomainError):
        reciprocal_ells(AlgebraParams(["2/3"]))
    with pytest.raises(DomainError):
        reciprocal_ells(AlgebraParams(["-1/3"]))
