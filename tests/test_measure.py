import copy
import dataclasses
import math
import pickle
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import roots_genlaguerre, roots_laguerre

from polywh import (
    AlgebraParams,
    DiscreteMeasure,
    DomainError,
    MomentSequence,
    StateKind,
    hankel_minors,
    moments_for,
    solve_measure,
    structure_function,
    verify_identity,
)

import polywh.measure
from polywh.measure import (
    LAW_MIN_COUNT,
    _classical_recurrence,
    _gamma_rule,
    _gauss_rule,
    _law_recurrence,
    _moment_match,
    _orthonormal_values,
)

from oracles import (
    gauss_rule_by_mpmath,
    gauss_rule_four_passes,
    gauss_rule_from_moments_direct,
    gauss_rule_three_arrays,
    hankel_minors_by_elimination,
    hankel_minors_by_fractions,
    moment_match_by_fractions,
    moments_by_fractions,
    orthonormal_values_three_arrays,
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


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from(["ratio", "ell", "finite"]),
    kind=st.sampled_from(["perelomov", "barut-girardello"]),
    data=st.data(),
)
def test_moments_are_the_per_level_fraction_factorials(shape, kind, data):
    ratio = st.builds(
        Fraction, st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=29)
    )
    if shape == "finite":  # any r: the extra kappas keep the ladder at d levels
        d = data.draw(st.integers(min_value=2, max_value=40))
        kappas = [Fraction(-1, d - 1), *data.draw(st.lists(ratio, max_size=2))]
        kind, count = "perelomov", d
    else:
        r = 1 if kind == "perelomov" else data.draw(st.integers(min_value=1, max_value=3))
        if shape == "ell":
            ratio = st.builds(Fraction, st.just(1), st.integers(min_value=1, max_value=9))
        kappas = data.draw(st.lists(ratio, min_size=r, max_size=r))
        count = data.draw(st.integers(min_value=0, max_value=64))
    moments = moments_for(AlgebraParams(kappas), kind, count=count)
    assert moments.values == moments_by_fractions(kappas, kind, count)


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
    minors = hankel_minors(mom.values)
    plain, shifted = minors.plain, minors.shifted
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
    minors = hankel_minors(values)
    plain, shifted = minors.plain, minors.shifted
    ref_plain, ref_shifted = hankel_minors_by_elimination(values)
    if 0 in plain:
        # the Chebyshev table cannot pass a zero minor: both lists stop there
        assert plain.index(0) == len(plain) - 1
        assert plain == ref_plain[: len(plain)]
        assert shifted == ref_shifted[: len(shifted)]
    else:
        assert (plain, shifted) == (ref_plain, ref_shifted)


def test_hankel_minors_stop_at_an_exact_zero():
    minors = hankel_minors([1, 1, 1, 1])
    assert (minors.plain, minors.shifted) == ([1, 0], [1])
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
    minors = hankel_minors(values)
    plain, shifted = minors.plain, minors.shifted
    assert (plain, shifted) == hankel_minors_by_fractions(values)
    assert 0 not in plain[:-1]  # a zero minor ends the lists


@settings(max_examples=100, deadline=None)
@given(moments=_family_moments())
def test_hankel_minors_match_the_fraction_table_on_the_families(moments):
    minors = hankel_minors(moments.values)
    assert (minors.plain, minors.shifted) == hankel_minors_by_fractions(moments.values)


@settings(max_examples=100, deadline=None)
@given(moments=_family_moments(), data=st.data())
def test_recurrence_and_moment_targets_match_fractions(moments, data):
    values = moments.values
    minors = hankel_minors(values)
    plain, shifted = minors.plain, minors.shifted
    if all(det > 0 for det in plain + shifted):
        alphas, betas = minors.alphas, minors.betas
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


@pytest.mark.parametrize("values", [  # odd counts complete alpha_{k-1} to 2 tau + 1
    [1],
    [1, 1, 2],
    [1, 1, 2, 6, 24],
    [Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(3, 2), 7],
    [1, 1, 2, 6, 24, 120],
])
def test_the_recurrence_is_read_off_the_chebyshev_rows(values):
    minors = hankel_minors(values)
    ref_alphas, ref_betas = recurrence_by_fractions(minors.plain, minors.shifted, len(values))
    assert [Fraction(*a) for a in minors.alphas] == ref_alphas
    assert [Fraction(*b) for b in minors.betas] == ref_betas
    assert [n / d for n, d in minors.alphas + minors.betas] == [
        float(x) for x in ref_alphas + ref_betas]
    assert all(d > 0 for _, d in minors.alphas + minors.betas)
    for again in (copy.deepcopy(minors), pickle.loads(pickle.dumps(minors))):
        assert again == minors and (again.alphas, again.betas) == (minors.alphas, minors.betas)


def test_the_recurrence_stops_with_the_pass_at_an_exact_zero():
    # H_2 = 0: the pass ends on beta_1 = 0 and completes no alpha past it
    minors = hankel_minors([1, 1, 1, 1])
    assert (minors.plain, minors.shifted) == ([1, 0], [1])
    assert [Fraction(*a) for a in minors.alphas] == [1]
    assert [Fraction(*b) for b in minors.betas] == [1, 0]
    ref_alphas, ref_betas = recurrence_by_fractions(minors.plain, minors.shifted, 4)
    assert ref_alphas[:1] == [1] and ref_betas == [1, 0]


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


@st.composite
def _decision_sequences(draw):
    """1 to 20 rationals: small ones of either sign (zero minors are common),
    the moments of a few atoms on (0, inf) (positive minors up to the atom
    count, zero past it) or of signed atoms (negative minors), or the
    moments of a family (`_family_moments`)."""
    shape = draw(st.sampled_from(["small", "positive", "signed", "family"]))
    if shape == "family":
        return list(draw(_family_moments()).values)
    count = draw(st.integers(min_value=1, max_value=20))
    if shape == "small":
        return [draw(_RATIONAL) for _ in range(count)]
    where = (st.fractions(min_value=Fraction(1, 100), max_value=50, max_denominator=100)
             if shape == "positive" else _RATIONAL)
    atoms = draw(st.lists(st.tuples(where, st.fractions(min_value=Fraction(1, 9), max_value=9,
                                                        max_denominator=9)),
                          min_size=1, max_size=10))
    return [sum(w * t**n for t, w in atoms) for n in range(count)]


def _first_nonpositive(values):
    """The refusal of the first nonpositive exact minor, plain first, or None."""
    plain, shifted = hankel_minors_by_fractions(values)
    for idx, det in enumerate(plain, start=1):
        if det <= 0:
            return f"moment sequence is not positive-definite: Hankel minor H_{idx} = {det}"
    for idx, det in enumerate(shifted, start=1):
        if det <= 0:
            return f"moments admit no measure on (0, inf): shifted Hankel minor H'_{idx} = {det}"
    return None


@settings(max_examples=300, deadline=None)
@given(values=_decision_sequences())
def test_the_pass_decides_positivity_and_the_recurrence_as_the_fractions_do(values):
    refusal = _first_nonpositive(values)
    minors = hankel_minors(values)
    try:
        alphas = [n / d for n, d in minors.alphas]
        betas = [n / d for n, d in minors.betas]
    except (OverflowError, ZeroDivisionError):
        alphas = betas = None
    if polywh.measure._certified(minors.sigmas, alphas, betas, len(values) // 2):
        assert refusal is None
    moments = MomentSequence(tuple(map(Fraction, values)), StateKind.BARUT_GIRARDELLO)
    if refusal is not None:
        with pytest.raises(DomainError, match=re.escape(refusal) + "$"):
            solve_measure(moments)
    else:
        try:
            solve_measure(moments)
        except DomainError as exc:  # the float endgame may still refuse the rule
            assert "Hankel minor" not in str(exc)
    plain, shifted = hankel_minors_by_fractions(values)
    if 0 not in plain + shifted:  # the Fraction recurrence divides by every minor
        ref_alphas, ref_betas = recurrence_by_fractions(plain, shifted, len(values))
        assert [Fraction(*a) for a in minors.alphas] == ref_alphas  # the odd completion too
        assert [Fraction(*b) for b in minors.betas] == ref_betas
        if alphas is not None:
            assert alphas + betas == [float(x) for x in ref_alphas + ref_betas]


def _count_exact_minors(monkeypatch):
    calls = []
    build = polywh.measure._exact_minors

    def spy(*args):
        calls.append(len(args[0]))
        return build(*args)

    monkeypatch.setattr(polywh.measure, "_exact_minors", spy)
    return calls


def test_a_family_measure_builds_no_exact_minor(monkeypatch):
    moments = moments_for(AlgebraParams(["3/7"]), "barut-girardello", count=40)
    calls = _count_exact_minors(monkeypatch)
    measure = solve_measure(moments)
    assert calls == []
    assert measure.n_matched == 40
    minors = hankel_minors(moments.values)
    assert (minors.plain, minors.shifted) == hankel_minors_by_fractions(moments.values)  # built now
    assert calls == [20]


@pytest.mark.parametrize("values, refusal", [
    ((1, 2, 1), "moment sequence is not positive-definite: Hankel minor H_2 = -3"),
    ((1, 1, 1, 1), "moment sequence is not positive-definite: Hankel minor H_2 = 0"),
    ((1, -1, 2, -1), "moments admit no measure on (0, inf): shifted Hankel minor H'_1 = -1"),
    ((2, 2, 10, 26), "moments admit no measure on (0, inf): shifted Hankel minor H'_2 = -48"),
])
def test_an_invalid_sequence_is_named_by_its_exact_minors(monkeypatch, values, refusal):
    calls = _count_exact_minors(monkeypatch)
    moments = MomentSequence(tuple(map(Fraction, values)), StateKind.BARUT_GIRARDELLO)
    with pytest.raises(DomainError, match=re.escape(refusal) + "$"):
        solve_measure(moments)
    assert len(calls) == 1


def test_a_bound_that_cannot_decide_falls_back_to_the_exact_minors(monkeypatch):
    # unit masses at t = 1e-16 and t = 1: r_2 = D_2 / D_1 ~ 2e-16 is lost in
    # alpha_1 - beta_1 / r_1 in float, so the bound is not positive, though
    # every minor is
    values = [Fraction(1, 10**16) ** n + 1 for n in range(4)]
    assert _first_nonpositive(values) is None
    minors = hankel_minors(values)
    alphas = [n / d for n, d in minors.alphas]
    betas = [n / d for n, d in minors.betas]
    assert not polywh.measure._certified(minors.sigmas, alphas, betas, 2)
    calls = _count_exact_minors(monkeypatch)
    measure = solve_measure(MomentSequence(tuple(values), StateKind.BARUT_GIRARDELLO))
    assert calls == [2]
    assert measure.nodes.min() > 0


def test_the_minors_are_built_once_on_first_read(monkeypatch):
    calls = _count_exact_minors(monkeypatch)
    minors = hankel_minors([1, 1, 2, 6, 24])
    assert calls == []
    assert (minors.plain, minors.shifted) == ([1, 1, 4], [1, 2])
    assert minors.shifted == [1, 2] and calls == [3]


# ------------------------------------------------------ classical laws

@st.composite
def _law_moments(draw):
    """Perelomov moments that have a classical law: r = 1 with kappa = p/q
    in [0, 1), q <= 29, at 3 to 64 levels, or kappa = -1/s, s <= 60, at its
    d = s + 1 levels."""
    if draw(st.booleans()):
        q = draw(st.integers(min_value=1, max_value=29))
        kappa = Fraction(draw(st.integers(min_value=0, max_value=q - 1)), q)
        count = draw(st.integers(min_value=3, max_value=64))
        return moments_for(AlgebraParams([kappa]), "perelomov", count=count)
    s = draw(st.integers(min_value=2, max_value=60))
    return moments_for(AlgebraParams([Fraction(-1, s)]), "perelomov")


@settings(max_examples=150, deadline=None)
@given(moments=_law_moments())
def test_the_closed_form_recurrence_is_the_chains(moments):
    # an odd count on the disk (0 < kappa < 1) keeps the law's alpha_{k-1}:
    # the chain's on count + 1 moments, where it is fixed by the moments
    alphas, betas = _classical_recurrence(moments.values)
    values, kappa = moments.values, 2 / moments.values[2] - 1
    if len(values) % 2 and 0 < kappa < 1:
        values = moments_for(AlgebraParams([kappa]), "perelomov", count=len(values) + 1).values
    minors = hankel_minors(values)
    assert [Fraction(*a) for a in alphas] == [Fraction(*a) for a in minors.alphas]
    assert [Fraction(*b) for b in betas] == [Fraction(*b) for b in minors.betas]
    assert [n / d for n, d in alphas + betas] == [n / d for n, d in minors.alphas + minors.betas]
    assert all(d > 0 for _, d in alphas + betas)


def _count_chain_passes(monkeypatch):
    calls = []
    chain = polywh.measure.hankel_minors

    def spy(values):
        calls.append(len(values))
        return chain(values)

    monkeypatch.setattr(polywh.measure, "hankel_minors", spy)
    return calls


@pytest.mark.parametrize("perturb, message", [
    (lambda nodes, weights: (-nodes, weights), "solved rule has a nonpositive node or weight"),
    (lambda nodes, weights: (nodes * (1.0 + 1e-6), weights),
     "the solved rule reproduces the supplied moments only to relative error"),
])
def test_a_rule_off_its_moments_is_refused(monkeypatch, perturb, message):
    # no input is known to reach either refusal: the rule is perturbed
    # after `_gauss_rule`
    gauss_rule = polywh.measure._gauss_rule
    monkeypatch.setattr(polywh.measure, "_gauss_rule",
                        lambda alpha, beta: perturb(*gauss_rule(alpha, beta)))
    moments = moments_for(AlgebraParams([0]), StateKind.BARUT_GIRARDELLO, count=8)
    with pytest.raises(DomainError, match=f"^numerically unstable recurrence: {message} "):
        solve_measure(moments)


@pytest.mark.parametrize("kappas, kind, count", [
    (["0"], "barut-girardello", 16),  # Exp(1): the barut-girardello law at kappa = 0 too
    (["0"], "perelomov", 9),
    (["1/2"], "perelomov", 21),  # odd on the disk: the law's 11-node rule, the chain's on 22
    (["13/19"], "perelomov", 64),
    (["-1/30"], "perelomov", None),
    (["-1/31"], "perelomov", None),
])
def test_the_classical_laws_skip_the_chain_and_give_its_rule(monkeypatch, kappas, kind, count):
    moments = moments_for(AlgebraParams(kappas), kind, count=count)
    hand_built = MomentSequence(tuple(moments.values), StateKind.BARUT_GIRARDELLO)
    calls = _count_chain_passes(monkeypatch)
    by_law = [solve_measure(moments), solve_measure(hand_built)]
    assert calls == []
    monkeypatch.setattr(polywh.measure, "_classical_recurrence", lambda values: None)
    chained = moments
    if kind == "perelomov" and 0 < Fraction(kappas[0]) < 1 and count % 2:
        chained = moments_for(AlgebraParams(kappas), kind, count=count + 1)
    by_chain = solve_measure(chained)
    assert calls == [len(chained.values)]
    for measure in by_law:
        assert measure.nodes.tobytes() == by_chain.nodes.tobytes()
        assert measure.weights.tobytes() == by_chain.weights.tobytes()
        assert measure.n_matched == len(moments.values)
        assert measure.max_rel_err == _moment_match(moments.values, by_chain.nodes,
                                                    by_chain.weights)
        if chained is moments:
            assert measure.max_rel_err == by_chain.max_rel_err


@pytest.mark.parametrize("kappas, kind, count, refusal", [
    (["1/2"], "barut-girardello", 9, None),
    (["1/2", "1/3"], "barut-girardello", 12, None),
    (["1"], "perelomov", 8, "H_2 = 0$"),
    (["2"], "perelomov", 8, "H_2 = -1/3$"),
])
def test_the_chain_still_runs_where_no_law_is_recognised(monkeypatch, kappas, kind, count,
                                                          refusal):
    moments = moments_for(AlgebraParams(kappas), kind, count=count)
    assert _classical_recurrence(moments.values) is None
    calls = _count_chain_passes(monkeypatch)
    if refusal is None:
        solve_measure(moments)
    else:
        with pytest.raises(DomainError, match=refusal):
            solve_measure(moments)
    # an odd barut-girardello count takes the product law's next exact moment
    assert calls == [10 if (kind, count) == ("barut-girardello", 9) else count]


@pytest.mark.parametrize("index", range(12))
def test_one_perturbed_moment_is_not_a_law(monkeypatch, index):
    values = list(moments_for(AlgebraParams(["1/3"]), "perelomov", count=12).values)
    assert _classical_recurrence(values) is not None
    values[index] += Fraction(1, 10**9)
    assert _classical_recurrence(values) is None
    calls = _count_chain_passes(monkeypatch)
    solve_measure(MomentSequence(tuple(values), StateKind.PERELOMOV))
    assert calls == [12]


def test_a_finite_law_takes_no_moment_past_its_ladder():
    values = moments_for(AlgebraParams(["-1/5"]), "perelomov").values  # d = 6
    assert _classical_recurrence(values) is not None
    # the law's moments stop below d: m_6 (1 - 5/5) = 0 is never 6 m_5, so no
    # seventh value passes the recurrence
    assert _classical_recurrence((*values, 720 * values[5])) is None


# ------------------------------------------------------------- product law

def test_moments_for_records_the_product_laws_shapes_and_next_moment():
    params = AlgebraParams(["1/2", "0", "3/7"])
    moments = moments_for(params, "barut-girardello", count=6)
    assert moments.law_shapes == (2, Fraction(7, 3))  # kappa = 0 is a factor 1
    assert moments.next_value == moments_for(params, "barut-girardello", count=7).values[6]
    assert moments.next_value == moments.values[5] * structure_function(params, 6)
    assert moments == MomentSequence(moments.values, StateKind.BARUT_GIRARDELLO)
    assert moments_for(OSC, "barut-girardello", count=6).law_shapes == ()
    perelomov = moments_for(AlgebraParams(["1/2"]), "perelomov", count=6)
    assert perelomov.law_shapes is None and perelomov.next_value is None


@st.composite
def _law_kappas(draw):
    """r <= 3 kappas, each 1/ell (ell <= 9), p/q (p <= 9, 2 <= q <= 29),
    10^-e (e <= 20) or 10^e (e <= 30)."""
    ell = st.integers(min_value=1, max_value=9).map(lambda e: Fraction(1, e))
    ratio = st.builds(Fraction, st.integers(min_value=1, max_value=9),
                      st.integers(min_value=2, max_value=29))
    tiny = st.integers(min_value=1, max_value=20).map(lambda e: Fraction(1, 10**e))
    huge = st.integers(min_value=1, max_value=30).map(lambda e: Fraction(10**e))
    return draw(st.lists(st.one_of(ell, ratio, tiny, huge), min_size=1, max_size=3))


def _chain_count_cap(kappas):
    # the chain's integers grow by about |log2 kappa_i| bits a level for each
    # kappa_i: the wide ones get fewer moments, so the property stays quick
    bits = sum(abs(k.numerator.bit_length() - k.denominator.bit_length()) for k in kappas)
    return 128 if bits < 16 else max(24, 48 - bits // 12)


def _assert_the_law_is_the_chain(kappas, count):
    # an odd count takes the law's own alpha_{k-1}: the chain's on count + 1
    moments = moments_for(AlgebraParams(kappas), "barut-girardello", count=count + count % 2)
    minors = hankel_minors(moments.values)
    alphas, betas = _law_recurrence(moments.law_shapes, count)
    for law, chain in ((alphas, minors.alphas), (betas, minors.betas)):
        exact = np.array([num / den for num, den in chain])
        assert np.max(np.abs(law - exact) / exact) <= 1e-13


@settings(max_examples=16, deadline=None)
@given(kappas=_law_kappas(), data=st.data())
def test_the_product_law_is_the_chains_recurrence(kappas, data):
    count = data.draw(st.integers(min_value=6, max_value=_chain_count_cap(kappas)), label="count")
    _assert_the_law_is_the_chain(kappas, count)


@pytest.mark.parametrize("kappa", [Fraction(10**6), Fraction(10**30), Fraction(1, 10**6),
                                   Fraction(1, 10**24), Fraction(1, 10**30)])
def test_the_product_law_keeps_extreme_shapes(kappa):
    # the unscaled Laguerre matrix, alpha_j = 2j + a, missed 1e-13 at kappa =
    # 1e-24 and 1e-30: each shift t - alpha_n cancels about log2 sqrt(a) bits
    _assert_the_law_is_the_chain([kappa], 40)


@pytest.mark.parametrize("kappas", [["1/2"], ["3/7", "1/5"], ["1/8", "1/7", "1/4"]])
def test_the_product_law_replaces_the_chain_from_its_threshold(monkeypatch, kappas):
    params = AlgebraParams(kappas)
    calls = _count_chain_passes(monkeypatch)
    for count in (LAW_MIN_COUNT, LAW_MIN_COUNT + 1, 64):
        moments = moments_for(params, "barut-girardello", count=count)
        measure = solve_measure(moments)
        assert calls == [] and measure.n_matched == count and measure.max_rel_err <= 1e-13
    # a hand-built sequence carries no shapes: the chain gives the same rule
    hand_built = MomentSequence(moments.values, StateKind.BARUT_GIRARDELLO)
    chained = solve_measure(hand_built)
    assert calls == [64]
    assert np.max(np.abs(chained.nodes - measure.nodes) / measure.nodes) <= 1e-13
    assert np.max(np.abs(chained.weights - measure.weights) / measure.weights) <= 1e-13


@pytest.mark.parametrize("count", [7, LAW_MIN_COUNT - 1, LAW_MIN_COUNT + 1, 33])
def test_an_odd_count_is_the_gauss_rule_of_the_law_on_both_sides_of_the_threshold(count):
    params = AlgebraParams(["1/3", "2/5"])
    odd = solve_measure(moments_for(params, "barut-girardello", count=count))
    even = solve_measure(moments_for(params, "barut-girardello", count=count + 1))
    assert odd.n_matched == count and len(odd.nodes) == len(even.nodes)
    assert np.max(np.abs(odd.nodes - even.nodes) / even.nodes) <= 1e-13
    assert np.max(np.abs(odd.weights - even.weights) / even.weights) <= 1e-13


def test_the_factor_rules_are_cached_read_only_gauss_rules():
    size = 12
    for shape in (Fraction(1), Fraction(7, 3), Fraction(1, 3)):
        kappa = float(1 / shape)
        nodes, weights = _gamma_rule(kappa, size)
        assert _gamma_rule(kappa, size)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        # the factor is X / a, X ~ Gamma(a): the Gauss-Laguerre nodes over a
        ref_nodes, ref_weights = roots_genlaguerre(size, float(shape) - 1)
        ref_nodes = ref_nodes / float(shape)
        ref_weights = ref_weights / math.gamma(float(shape))  # Gamma(a) has unit mass
        assert np.max(np.abs(nodes - ref_nodes) / ref_nodes) <= 1e-13
        assert np.max(np.abs(weights - ref_weights) / ref_weights) <= 1e-12
    assert _gamma_rule.cache_info().maxsize == polywh.measure.FACTOR_RULES


def test_an_underflowing_product_is_a_named_domain_error(monkeypatch):
    # every factor weight scaled by 1e-200: each product weight underflows
    rule = polywh.measure._gamma_rule
    monkeypatch.setattr(polywh.measure, "_gamma_rule",
                        lambda kappa, size: (rule(kappa, size)[0], rule(kappa, size)[1] * 1e-200))
    moments = moments_for(AlgebraParams(["1/2"]), "barut-girardello", count=LAW_MIN_COUNT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^the product law loses its recurrence at "
                           r"factor 1 of 1 \(Gamma\(2\)\), coefficient j = 0: "):
            solve_measure(moments)


def test_a_factor_rule_past_the_double_range_is_named_as_the_factors(monkeypatch):
    # 201 Laguerre nodes: the weights of Gamma(1)'s own rule fall under the
    # normal range before the measure's rule is reached; the node is named on
    # the scale the rule is solved on, u = X - 1 (X = 726.111)
    calls = _count_chain_passes(monkeypatch)
    moments = moments_for(AlgebraParams(["1/2"]), "barut-girardello", count=400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^the Christoffel sum at the product law's "
                           r"kappa = 1 factor, node u = \(kappa X - 1\) / sqrt\(kappa\) = "
                           r"725\.111 passes the double range: "):
            solve_measure(moments)
    assert calls == []


@pytest.mark.parametrize("kappa", [Fraction(1, 10**7), Fraction(1, 10**40),
                                   Fraction(1, 10**400)])
def test_every_shape_takes_the_law_without_the_chain(monkeypatch, kappa):
    # the factor rules are solved on the standardized variable, so no shape is
    # past the law's reach, and the exact chain (seconds at 1/10^400) never runs
    calls = _count_chain_passes(monkeypatch)
    for count in (LAW_MIN_COUNT, LAW_MIN_COUNT + 1):
        moments = moments_for(AlgebraParams(["1/2", kappa]), "barut-girardello", count=count)
        measure = solve_measure(moments)
        assert measure.n_matched == count and measure.max_rel_err <= 1e-13
        if kappa == Fraction(1, 10**400):  # under the double range: the factor is exactly 1
            rule = solve_measure(moments_for(AlgebraParams(["1/2", "0"]), "barut-girardello",
                                             count=count))
            assert np.max(np.abs(measure.nodes - rule.nodes) / rule.nodes) <= 1e-13
            assert np.max(np.abs(measure.weights - rule.weights) / rule.weights) <= 1e-13
    assert calls == []


@pytest.mark.parametrize("kappas, refusal", [
    ([10**400], r"factor 1 of 1 has kappa ~ 2\^1328: "),  # past the double range
    (["1/2", 10**306], r"factor 2 of 2 has kappa ~ 2\^1016: "),  # beta_15 passes it
], ids=["kappa-past-the-range", "beta-past-the-range"])
def test_a_kappa_whose_factor_rule_passes_the_double_range_is_named(kappas, refusal):
    moments = moments_for(AlgebraParams(kappas), "barut-girardello", count=LAW_MIN_COUNT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"^the product law's {refusal}its 16-node Gauss "
                           "rule passes the double range$"):
            solve_measure(moments)


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


@st.composite
def _stream_recurrences(draw):
    """Float recurrence coefficients of the moments-stream families, as
    `solve_measure` rounds them: kappa = p/q with q <= 29, 1/ell tuples,
    kappa = 0 and finite ladders to d = 90, at 6 to 64 levels."""
    shape = draw(st.sampled_from(["ratio", "ell", "zero", "finite"]))
    q = draw(st.integers(min_value=2, max_value=29))
    count = draw(st.integers(min_value=6, max_value=64))
    if shape == "finite":
        d = draw(st.integers(min_value=3, max_value=90))
        kappas, kind, count = [Fraction(-1, d - 1)], "perelomov", None
    elif draw(st.booleans()):  # perelomov: r = 1, kappa < 1 inside the disk, even counts
        kappas = {
            "ratio": [Fraction(draw(st.integers(min_value=1, max_value=(7 * q) // 10)), q)],
            "ell": [Fraction(1, draw(st.integers(min_value=2, max_value=9)))],
            "zero": [Fraction(0)],
        }[shape]
        kind, count = "perelomov", count + count % 2
    else:
        ell = st.integers(min_value=1, max_value=9).map(lambda e: Fraction(1, e))
        kappas = {
            "ratio": [Fraction(draw(st.integers(min_value=1, max_value=9)), q)],
            "ell": draw(st.lists(ell, min_size=1, max_size=3)),
            "zero": [Fraction(0)],
        }[shape]
        kind = "barut-girardello"
    return _recurrence_of(kappas, kind, count)


def _recurrence_of(kappas, kind, count):
    minors = hankel_minors(moments_for(AlgebraParams(kappas), kind, count=count).values)
    alphas, betas = minors.alphas, minors.betas
    return np.array([n / d for n, d in alphas]), np.array([n / d for n, d in betas])


@settings(max_examples=150, deadline=None)
@given(recurrence=_stream_recurrences())
def test_gauss_rule_is_the_three_array_recurrence_bit_for_bit(recurrence):
    alphas, betas = recurrence
    off = np.sqrt(betas)
    t = np.linalg.eigvalsh(np.diag(alphas) + np.diag(off[1:], 1) + np.diag(off[1:], -1))
    with np.errstate(over="ignore", invalid="ignore"):
        value, slope, squares, cross = orthonormal_values_three_arrays(alphas, off, t)
        (value_s, slope_s), (squares_s, cross_s) = _orthonormal_values(alphas, off, t)
    assert np.array_equal(value_s, value) and np.array_equal(slope_s, slope)
    assert np.array_equal(squares_s, squares) and np.array_equal(cross_s, cross)
    nodes, squares = gauss_rule_three_arrays(*recurrence)
    if not (squares <= np.finfo(float).max).all():  # none here: d = 100 is the first with one
        with pytest.raises(DomainError, match="Christoffel sum"):
            _gauss_rule(*recurrence)
        return
    polished, weights = _gauss_rule(*recurrence)
    assert np.array_equal(polished, nodes.astype(float))
    assert np.array_equal(weights, (1.0 / squares).astype(float))


@settings(max_examples=12, deadline=None)
@given(recurrence=_stream_recurrences())
@example(recurrence=_recurrence_of([Fraction(1, 17)], "perelomov", 62))
@example(recurrence=_recurrence_of([Fraction(1, 5)], "perelomov", 58))
@example(recurrence=_recurrence_of([Fraction(4, 17)], "perelomov", 62))
@example(recurrence=_recurrence_of([Fraction(9, 20)], "perelomov", 60))
def test_the_endgame_meets_a_50_digit_rule(recurrence):
    # against the eigenvalues and Christoffel weights of the same float
    # matrix at 50 digits.  The first example is where the two-pass endgame
    # in doubles erred 3.02e-14 on its smallest node; the other three are
    # where the four-pass endgame of the oracles errs 3.02e-14, 3.00e-14 and
    # 3.81e-14 on its nodes.  The one pass in np.longdouble gives the
    # 50-digit rule's doubles at all four
    nodes, weights = gauss_rule_by_mpmath(*recurrence)
    rule = _gauss_rule(*recurrence)
    assert np.max(np.abs(rule[0] - nodes) / nodes) <= 3e-14
    assert np.max(np.abs(rule[1] - weights) / weights) <= 3e-14


def test_the_weights_are_moved_along_the_last_newton_step():
    # the sample where the four-pass sums, at fully polished nodes, erred most
    recurrence = _recurrence_of([Fraction(1, 3)], "perelomov", 58)
    nodes, weights = gauss_rule_by_mpmath(*recurrence)
    _, four_pass_weights = gauss_rule_four_passes(*recurrence)
    assert np.max(np.abs(four_pass_weights - weights) / weights) > 3e-14
    assert np.max(np.abs(_gauss_rule(*recurrence)[1] - weights) / weights) <= 1e-14


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
    for phi in (1.3, 3.0, 1e308):
        assert verify_identity(params.with_phi(phi), "perelomov", measure) == dev0


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
    # at every phi: the moduli are those of the phase-free ladder's states
    ladder = AlgebraParams(kappas)
    measure = solve_measure(moments_for(ladder, kind, count=count))
    expected = verify_identity_by_states(ladder, kind, measure)
    for phi in (0.0, 1.3):
        assert verify_identity(ladder.with_phi(phi), kind, measure) == expected


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


def _count_constructor_calls(monkeypatch, name):
    calls = []
    build = getattr(polywh.coherent, name)

    def spy(params, z, **options):
        calls.append(z)
        return build(params, z, **options)

    monkeypatch.setattr(polywh.coherent, name, spy)
    return calls


@pytest.mark.parametrize("kappas, kind, count, built", [
    (["3/7"], "perelomov", 40, 0),  # the closed form certifies the largest node's state
    (["1/2"], "perelomov", 21, 0),
    (["1/2"], "barut-girardello", 9, 1),  # no closed form: that state is built
])
def test_the_largest_node_state_is_built_only_where_no_closed_form_decides(
    monkeypatch, kappas, kind, count, built
):
    params = AlgebraParams(kappas)
    measure = solve_measure(moments_for(params, kind, count=count))
    expected = verify_identity_by_states(params, kind, measure)
    calls = _count_constructor_calls(
        monkeypatch, "perelomov_state" if kind == "perelomov" else "bg_state")
    assert verify_identity(params, kind, measure) == expected
    assert calls == [math.sqrt(measure.nodes.max())] * built


def test_an_uncertified_largest_node_falls_back_to_its_state(monkeypatch):
    # the largest of 75 nodes sits 5e-4 inside the rim t < 2: no cut is
    # certain within the term cap, and the constructor refuses the state
    params = AlgebraParams(["1/2"])
    measure = solve_measure(moments_for(params, "perelomov", count=150))
    calls = _count_constructor_calls(monkeypatch, "perelomov_state")
    with pytest.raises(DomainError) as exc:
        verify_identity(params, "perelomov", measure)
    assert calls == [math.sqrt(measure.nodes.max())]
    assert str(exc.value) == (
        "identity check at measure node t = 1.99949 (|z| = 1.41403): "
        "series did not reach tail tolerance 1e-14 within 200000 terms")


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
