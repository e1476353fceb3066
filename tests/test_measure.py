import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_laguerre

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

from oracles import gauss_rule_from_moments_direct, hankel_minors_by_elimination

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


_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _moment_sequences(draw):
    """Moments of a random positive measure on (0, inf), or arbitrary
    small rationals (indefinite, often with a zero minor)."""
    count = draw(st.integers(min_value=1, max_value=10))
    if draw(st.booleans()):
        return [draw(_RATIONAL) for _ in range(count)]
    atoms = draw(st.lists(st.tuples(
        st.fractions(min_value=Fraction(1, 4), max_value=20, max_denominator=4),
        st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
    ), min_size=1, max_size=6))
    return [sum(w * t**n for t, w in atoms) for n in range(count)]


@settings(max_examples=150, deadline=None)
@given(values=_moment_sequences())
def test_hankel_minors_match_elimination(values):
    plain, shifted = hankel_minors(values)
    ref_plain, ref_shifted = hankel_minors_by_elimination(values)
    if 0 in plain:
        # the Chebyshev table cannot pass a zero minor: both lists stop there
        assert plain.index(0) == len(plain) - 1
        assert plain == ref_plain[: len(plain)]
        assert shifted == ref_shifted[: len(shifted)]
    else:
        assert (plain, shifted) == (ref_plain, ref_shifted)


def test_hankel_minors_stop_at_an_exact_zero():
    assert hankel_minors([1, 1, 1, 1]) == ([1, 0], [1])
    assert hankel_minors_by_elimination([1, 1, 1, 1]) == ([1, 0], [1, 0])


def test_shifted_minor_failures_name_the_minor():
    def moments(*values):
        return MomentSequence(tuple(map(Fraction, values)), StateKind.BARUT_GIRARDELLO)

    with pytest.raises(DomainError, match=r"shifted Hankel minor H'_1 = -1$"):
        solve_measure(moments(1, -1, 2, -1))  # H_1 = H_2 = 1
    # unit masses at t = -1 and t = 3: H_1, H_2, H'_1 > 0 but H'_2 = 2*26 - 10^2
    with pytest.raises(DomainError, match=r"shifted Hankel minor H'_2 = -48$"):
        solve_measure(moments(2, 2, 10, 26))


# ---------------------------------------------------------- float endgame

@pytest.mark.parametrize(
    "kappas, kind, count",
    [
        (["0"], "barut-girardello", 60),
        (["0"], "barut-girardello", 64),
        (["0"], "barut-girardello", 100),
        (["-1/31"], "perelomov", None),
        (["7/25"], "barut-girardello", 51),
        (["1/8", "1/7", "1/4"], "barut-girardello", 51),
        ([1, 1, 1], "barut-girardello", 64),  # m_63 = (63!)^4 and t^63 overflow doubles
    ],
)
def test_gauss_endgame_meets_the_moment_gate(kappas, kind, count):
    # each of these failed the 1e-8 gate with eigenvector weights, or overflowed
    params = AlgebraParams(kappas)
    mom = moments_for(params, kind, count=count)
    measure = solve_measure(mom)
    assert measure.n_matched == len(mom.values)
    assert measure.max_rel_err <= 1e-8
    assert verify_identity(params, kind, measure) <= 1e-8


def test_32_node_rule_is_gauss_laguerre():
    measure = solve_measure(moments_for(OSC, "barut-girardello", count=64))
    nodes, weights = roots_laguerre(32)
    assert np.max(np.abs(measure.nodes - nodes) / nodes) <= 1e-9
    assert np.max(np.abs(measure.weights - weights) / weights) <= 1e-9


def test_tail_weights_keep_their_relative_accuracy():
    # 40-digit Gauss-Laguerre: w = t / ((n+1) L_{n+1}(t))^2 at the roots of L_n.
    # The smallest weight is ~1e-47; eigenvector weights lose it entirely,
    # unpolished nodes leave ~1e-13 in it.
    n = 32
    measure = solve_measure(moments_for(OSC, "barut-girardello", count=2 * n))
    with mpmath.workdps(40):
        roots = [mpmath.findroot(lambda t: mpmath.laguerre(n, 0, t), t0) for t0 in measure.nodes]
        weights = [t / ((n + 1) * mpmath.laguerre(n + 1, 0, t)) ** 2 for t in roots]
        nodes = np.array([float(t) for t in roots])
        weights = np.array([float(w) for w in weights])
    assert np.max(np.abs(measure.nodes - nodes) / nodes) <= 5e-14
    assert np.max(np.abs(measure.weights - weights) / weights) <= 5e-14


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
