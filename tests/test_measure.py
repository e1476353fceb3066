import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from polywh import (
    AlgebraParams,
    DomainError,
    MomentSequence,
    StateKind,
    hankel_minors,
    moments_for,
    solve_measure,
    verify_identity,
)

from oracles import gauss_rule_from_moments_direct

OSC = AlgebraParams([0])


# ----------------------------------------------------------------- moments

def test_oscillator_bg_moments_are_factorials():
    # the weight e^{-t} dt has integral moments n!
    mom = moments_for(OSC, "barut-girardello", count=10)
    assert [int(v) for v in mom.values] == [math.factorial(n) for n in range(10)]
    assert mom.provenance is StateKind.BARUT_GIRARDELLO


def test_d2_perelomov_moments():
    mom = moments_for(AlgebraParams([-1]), "perelomov")
    assert mom.values == (Fraction(1), Fraction(1))


def test_first_moment_is_always_one():
    for params, kind, count in [
        (AlgebraParams(["-1/4"]), "perelomov", None),
        (AlgebraParams(["1/2", "1/3"]), "barut-girardello", 5),
        (AlgebraParams(["1/2"]), "perelomov", 6),
    ]:
        assert moments_for(params, kind, count=count).values[0] == 1


def test_moments_error_cases():
    with pytest.raises(DomainError):
        moments_for(AlgebraParams(["-1/3"]), "barut-girardello")  # finite + complex z
    with pytest.raises(ValueError):
        moments_for(OSC, "barut-girardello")  # missing count
    with pytest.raises(DomainError):
        moments_for(AlgebraParams(["1/2", "1/3"]), "perelomov", count=6)  # r >= 2
    with pytest.raises(ValueError):
        moments_for(AlgebraParams(["-1/3"]), "perelomov", count=3)  # d = 4 fixed


# ------------------------------------------------------------------ solves

def test_factorial_moments_give_gauss_laguerre():
    mom = moments_for(OSC, "barut-girardello", count=6)
    measure = solve_measure(mom)
    nodes, weights = np.polynomial.laguerre.laggauss(3)
    assert np.max(np.abs(measure.nodes - nodes)) < 1e-8
    assert np.max(np.abs(measure.weights - weights)) < 1e-8
    for n in range(6):
        approx = float(np.sum(measure.weights * measure.nodes**n))
        assert approx == pytest.approx(math.factorial(n), rel=1e-8)


def test_single_moment_rule():
    measure = solve_measure(MomentSequence((Fraction(1),), StateKind.BARUT_GIRARDELLO))
    assert measure.nodes.shape == (1,)
    assert measure.weights[0] == pytest.approx(1.0)


def test_d4_perelomov_rule_cross_checked():
    params = AlgebraParams(["-1/3"])
    mom = moments_for(params, "perelomov")
    measure = solve_measure(mom)
    nodes, weights = gauss_rule_from_moments_direct(mom.values, 2)
    assert np.max(np.abs(measure.nodes - nodes)) < 1e-8
    assert np.max(np.abs(measure.weights - weights)) < 1e-8
    for n, m_n in enumerate(mom.values):
        approx = float(np.sum(measure.weights * measure.nodes**n))
        assert approx == pytest.approx(float(m_n), rel=1e-8)


def test_odd_moment_count_matches_all_supplied_moments():
    params = AlgebraParams(["-1/2"])  # d = 3
    mom = moments_for(params, "perelomov")
    measure = solve_measure(mom)
    assert measure.n_matched == 3
    assert np.all(measure.nodes > 0)
    assert np.all(measure.weights > 0)
    for n, m_n in enumerate(mom.values):
        approx = float(np.sum(measure.weights * measure.nodes**n))
        assert approx == pytest.approx(float(m_n), rel=1e-10)


def test_non_positive_definite_moments_rejected():
    bad = MomentSequence((Fraction(1), Fraction(2), Fraction(1)), StateKind.BARUT_GIRARDELLO)
    with pytest.raises(DomainError, match="H_2"):
        solve_measure(bad)
    degenerate = MomentSequence(
        (Fraction(1), Fraction(1), Fraction(1), Fraction(1)), StateKind.BARUT_GIRARDELLO
    )
    with pytest.raises(DomainError):
        solve_measure(degenerate)


def test_hankel_minors_positive_for_valid_sequences():
    mom = moments_for(OSC, "barut-girardello", count=12)
    plain, shifted = hankel_minors(mom.values)
    assert all(det > 0 for det in plain)
    assert all(det > 0 for det in shifted)


# ---------------------------------------------------------------- identity

def test_identity_oscillator_eight_levels():
    mom = moments_for(OSC, "barut-girardello", count=16)
    measure = solve_measure(mom)
    assert verify_identity(OSC, "barut-girardello", measure) <= 1e-8


def test_identity_d2_perelomov():
    params = AlgebraParams([-1])
    measure = solve_measure(moments_for(params, "perelomov"))
    assert verify_identity(params, "perelomov", measure) <= 1e-10


def test_identity_infinite_perelomov_r1():
    params = AlgebraParams(["1/2"])
    measure = solve_measure(moments_for(params, "perelomov", count=8))
    assert verify_identity(params, "perelomov", measure) <= 1e-8


def test_identity_is_phase_independent():
    params = AlgebraParams(["-1/4"], 0.0)
    measure = solve_measure(moments_for(params, "perelomov"))
    dev0 = verify_identity(params, "perelomov", measure)
    dev1 = verify_identity(params.with_phi(1.3), "perelomov", measure)
    assert dev0 == pytest.approx(dev1, abs=1e-14)


def test_perturbed_weights_are_detected():
    params = AlgebraParams(["-1/4"])
    measure = solve_measure(moments_for(params, "perelomov"))
    clean = verify_identity(params, "perelomov", measure)
    assert clean <= 1e-10
    broken = dataclasses.replace(measure, weights=measure.weights + 1e-3)
    assert verify_identity(params, "perelomov", broken) >= 1e-4


def test_identity_range_mismatch():
    params = AlgebraParams([-1])  # d = 2
    measure = solve_measure(moments_for(params, "perelomov"))
    oversized = dataclasses.replace(measure, n_matched=5)
    with pytest.raises(ValueError):
        verify_identity(params, "perelomov", oversized)
