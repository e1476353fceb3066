import dataclasses
import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_laguerre

from polywh import (
    AlgebraParams,
    DiscreteMeasure,
    DomainError,
    MomentSequence,
    StateKind,
    hankel_minors,
    moments_for,
    solve_measure,
    verify_identity,
)

from polywh.measure import _moment_match, _recurrence

from oracles import (
    gauss_rule_from_moments_direct,
    hankel_minors_by_elimination,
    hankel_minors_by_fractions,
    moment_match_by_fractions,
    recurrence_by_fractions,
    verify_identity_by_states,
)

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


_WIDE_RATIONAL = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12),
)


@st.composite
def _rational_sequences(draw):
    """Rationals with large, mixed denominators and either sign, or the
    moments of a few signed atoms, whose minors past the atom count are
    exactly 0."""
    count = draw(st.integers(min_value=1, max_value=24))
    if draw(st.booleans()):
        return draw(st.lists(_WIDE_RATIONAL, min_size=count, max_size=count))
    atoms = draw(st.lists(st.tuples(_WIDE_RATIONAL, _WIDE_RATIONAL), min_size=1, max_size=5))
    return [sum(w * t**n for t, w in atoms) for n in range(count)]


@st.composite
def _family_moments(draw):
    """moments_for over the measure families: kappa = p/q (q <= 29), 1/ell
    tuples with r <= 3, kappa = 0 and finite ladders, up to 64 levels."""
    ratio = st.builds(
        Fraction, st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=29)
    )
    ell = st.builds(Fraction, st.just(1), st.integers(min_value=1, max_value=9))
    shape = draw(st.sampled_from(["ratio", "ell", "zero", "finite"]))
    if shape == "finite":
        d = draw(st.integers(min_value=2, max_value=64))
        extra = draw(st.lists(ratio, max_size=2))
        return moments_for(AlgebraParams([Fraction(-1, d - 1), *extra]), "perelomov")
    kind = draw(st.sampled_from(["perelomov", "barut-girardello"]))
    r = 1 if kind == "perelomov" else draw(st.integers(min_value=1, max_value=3))
    kappa = {"ratio": ratio, "ell": ell, "zero": st.just(Fraction(0))}[shape]
    kappas = draw(st.lists(kappa, min_size=r, max_size=r))
    count = draw(st.integers(min_value=1, max_value=64))
    return moments_for(AlgebraParams(kappas), kind, count=count)


@settings(max_examples=200, deadline=None)
@given(values=_rational_sequences())
def test_hankel_minors_match_the_fraction_table_on_wide_rationals(values):
    plain, shifted = hankel_minors(values)
    assert (plain, shifted) == hankel_minors_by_fractions(values)
    assert 0 not in plain[:-1]  # a zero minor ends the lists


@settings(max_examples=100, deadline=None)
@given(moments=_family_moments())
def test_hankel_minors_match_the_fraction_table_on_the_families(moments):
    assert hankel_minors(moments.values) == hankel_minors_by_fractions(moments.values)


@settings(max_examples=100, deadline=None)
@given(moments=_family_moments(), data=st.data())
def test_recurrence_and_moment_targets_match_fractions(moments, data):
    values = moments.values
    plain, shifted = hankel_minors(values)
    if all(det > 0 for det in plain + shifted):
        alphas, betas = _recurrence(plain, shifted, len(values))
        ref_alphas, ref_betas = recurrence_by_fractions(plain, shifted, len(values))
        assert [Fraction(*a) for a in alphas] == ref_alphas
        assert [Fraction(*b) for b in betas] == ref_betas
        assert [n / d for n, d in alphas + betas] == [float(x) for x in ref_alphas + ref_betas]
    k = (len(values) + 1) // 2
    positive = st.floats(min_value=1e-3, max_value=1e3)
    nodes = np.array(data.draw(st.lists(positive, min_size=k, max_size=k)))
    weights = np.array(data.draw(st.lists(positive, min_size=k, max_size=k)))
    worst = _moment_match(values, nodes, weights)
    assert worst == moment_match_by_fractions(values, nodes, weights)


@settings(max_examples=100, deadline=None)
@given(values=_rational_sequences())
def test_minor_failures_name_the_first_nonpositive_minor(values):
    plain, shifted = hankel_minors_by_fractions(values)
    named = [(f"Hankel minor H_{i}", det) for i, det in enumerate(plain, start=1)]
    named += [(f"shifted Hankel minor H'_{i}", det) for i, det in enumerate(shifted, start=1)]
    failures = [f"{name} = {det}" for name, det in named if det <= 0]
    if failures:
        moments = MomentSequence(tuple(map(Fraction, values)), StateKind.BARUT_GIRARDELLO)
        with pytest.raises(DomainError, match=re.escape(failures[0]) + "$"):
            solve_measure(moments)


def test_overflowing_recurrence_is_a_domain_error():
    # H_1 = 1, H_2 = 10^800, alpha_0 = 10^400: past the double range
    moments = MomentSequence((Fraction(1), Fraction(10**400), Fraction(2 * 10**800)),
                             StateKind.BARUT_GIRARDELLO)
    with pytest.raises(DomainError, match=r"overflow double precision; beta spread .* 2\^2657$"):
        solve_measure(moments)


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
    deviation = verify_identity(params, kind, measure)
    assert deviation <= 1e-8
    assert deviation == verify_identity_by_states(params, kind, measure)


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


@pytest.mark.parametrize(
    "kappas, kind, count",
    [
        (["0"], "barut-girardello", 16),
        ([-1], "perelomov", None),
        (["1/2"], "perelomov", 8),
        (["1/4"], "perelomov", 9),
        (["-1/4"], "perelomov", None),
        (["-1/49"], "perelomov", None),
        (["0"], "barut-girardello", 100),  # levels past the first 64-term block
        (["1/3", "1/2"], "barut-girardello", 101),
    ],
)
def test_identity_equals_the_one_state_per_node_sum(kappas, kind, count):
    for phi in (0.0, 1.3):
        params = AlgebraParams(kappas, phi)
        measure = solve_measure(moments_for(params, kind, count=count))
        assert verify_identity(params, kind, measure) == verify_identity_by_states(
            params, kind, measure)


@pytest.mark.parametrize(
    "kappas, kind, nodes, message",
    [
        # kappa = 0: c_n at |z|^2 = 2000 passes the double range
        (["0"], "barut-girardello", [1.0, 2000.0], "overflows double precision"),
        (["1/2"], "perelomov", [1.0, 2.5], "outside the existence disk"),
    ],
)
def test_a_largest_node_without_a_state_fails_as_the_oracle_does(kappas, kind, nodes, message):
    params = AlgebraParams(kappas)
    measure = DiscreteMeasure(np.array(nodes), np.array([0.5, 0.5]), 4, 0.0)
    with pytest.raises(DomainError, match=message):
        verify_identity(params, kind, measure)
    with pytest.raises(DomainError, match=message):
        verify_identity_by_states(params, kind, measure)


def test_the_identity_check_names_the_largest_node_when_several_states_fail():
    # kappa = 0: the states at t = 1700 and t = 2000 both overflow.  The
    # per-node loop stops at the first in node order; the one-constructor
    # check builds only the largest node's state and names that one.
    params = AlgebraParams(["0"])
    measure = DiscreteMeasure(np.array([1.0, 1700.0, 2000.0]), np.full(3, 1 / 3), 4, 0.0)
    with pytest.raises(DomainError, match="overflows double precision") as batched:
        verify_identity(params, "barut-girardello", measure)
    with pytest.raises(DomainError, match="overflows double precision") as per_node:
        verify_identity_by_states(params, "barut-girardello", measure)
    assert f"z = {complex(math.sqrt(2000.0))} " in str(batched.value)
    assert f"z = {complex(math.sqrt(1700.0))} " in str(per_node.value)


def test_the_identity_check_names_its_node_and_keeps_the_cause():
    # kappa = 0 states exist while their coefficients fit, though |c_n|^2
    # does not: t = 1000 passes, t = 2000 fails with the node in front
    params = AlgebraParams(["0"])
    fits = DiscreteMeasure(np.array([1.0, 1000.0]), np.array([0.5, 0.5]), 4, 0.0)
    assert verify_identity(params, "barut-girardello", fits) == verify_identity_by_states(
        params, "barut-girardello", fits)
    overflows = DiscreteMeasure(np.array([1.0, 2000.0]), np.array([0.5, 0.5]), 4, 0.0)
    with pytest.raises(DomainError) as exc:
        verify_identity(params, "barut-girardello", overflows)
    assert str(exc.value) == (
        f"identity check at measure node t = 2000 (|z| = 44.7214): barut-girardello state at "
        f"z = {complex(math.sqrt(2000.0))} overflows double precision: coefficient c_690 "
        "passes the double range")


def test_identity_range_mismatch():
    params = AlgebraParams([-1])  # d = 2
    measure = solve_measure(moments_for(params, "perelomov"))
    oversized = dataclasses.replace(measure, n_matched=5)
    with pytest.raises(ValueError):
        verify_identity(params, "perelomov", oversized)


@pytest.mark.parametrize("d", [80, 90])
def test_finite_ladder_rules_up_to_d90_solve_without_a_warning(d):
    params = AlgebraParams([Fraction(-1, d - 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        measure = solve_measure(moments_for(params, "perelomov"))
        assert verify_identity(params, "perelomov", measure) <= 1e-8
    assert np.all(measure.weights > 0)
