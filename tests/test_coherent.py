import ast
import contextlib
import itertools
import math
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polywh
from polywh import (
    AlgebraParams,
    DomainError,
    EntireSeries,
    LadderRep,
    StateKind,
    bargmann_eval,
    bg_grassmann_state,
    bg_normalization,
    bg_state,
    build_rep,
    check_bg_eigen,
    classify,
    moments_for,
    overlap,
    perelomov_state,
    perelomov_via_exponential,
    schwarz_check,
    solve_measure,
    structure_function,
    time_evolve,
)
from polywh.algebra import ladder_table
from polywh import coherent
from polywh.coherent import (
    MAX_SERIES_TERMS,
    _ldexp,
    _series,
    _series_moduli,
)

from oracles import (
    bg_eigen_residual_dense,
    dense_lowering,
    glauber_overlap,
    hyper_0f_by_rescaling,
    hyper_0f_unscaled,
    inverse_square_factorial_sum,
    log_term_modulus,
    nilpotent_exponential_by_vectors,
    nilpotent_exponential_dense,
    perelomov_log_partial_norms,
    perelomov_series_by_doubling,
    random_finite_params,
    random_infinite_params,
    random_z,
    series_reference,
    series_unfiltered,
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
@example(case=(StateKind.PERELOMOV, AlgebraParams(["1/14"], 0.25), [1.8125], 65))  # a 1-step block
@given(case=_moduli_cases())
def test_batched_moduli_are_the_constructors_bit_for_bit(case):
    kind, params, zs, levels = case
    build = perelomov_state if kind is StateKind.PERELOMOV else bg_state
    rows = _series_moduli(kind, params, zs, levels)
    assert rows.shape == (len(zs), levels)
    for row, z in zip(rows, zs):
        amp2 = np.abs(build(params, z).coeffs[:levels]) ** 2
        assert np.array_equal(row, np.pad(amp2, (0, levels - len(amp2))))


def test_batched_moduli_past_the_double_range_of_the_row_norm():
    # kappa = 0: at t = 712 the row's squared norm e^712 passes the double
    # range, so the row carries an exponent (`_ldexp`), yet every |c_n|^2
    # fits; at t = 715 the largest, about e^715 / sqrt(2 pi 715), does not
    kind = StateKind.BARUT_GIRARDELLO
    amp2 = np.abs(bg_state(OSC, math.sqrt(712)).coeffs) ** 2
    assert len(amp2) == 1028
    assert np.array_equal(_series_moduli(kind, OSC, [math.sqrt(712)], 1028)[0], amp2)
    with pytest.raises(DomainError, match=r"^squared coefficient modulus overflows double "
                                          r"precision: it is about 2\^1025\.5$"):
        _series_moduli(kind, OSC, [math.sqrt(715)], 1028)


def _law(kind, params, radius):
    """The term law at |z| = radius, taken with its x as a state takes it."""
    return coherent._term_law(kind, params, radius, coherent._perelomov_x(kind, params, radius))


def _series_as_a_state_calls_it(kind, params, zs, stop, tail_tol):
    """`_series` with the x of each z and, for one z, its term law."""
    radii = np.abs(np.asarray(zs, dtype=complex))
    law = (lambda: _law(kind, params, float(radii[0]))) if len(zs) == 1 else None
    xs = coherent._perelomov_x(kind, params, radii)
    return _series(kind, params, zs, stop, tail_tol, xs, law)


@st.composite
def _series_cases(draw):
    """(kind, params, zs, stop, tail_tol) for `_series`: perelomov at kappa
    in [0.05, 2] with |z| sqrt(kappa) up to 1 - 1e-4, kappa = 0 for both
    kinds, finite ladders (no tail) and the bg kappas of the benchmark
    streams (1/ell tuples with r <= 3, p/q), 1 to 3 complex z per call,
    all of them real and >= 0 at phi = 0 in a third of the cases."""
    real = draw(st.integers(0, 2)) == 0
    phi = 0.0 if real else draw(st.floats(min_value=-2.0, max_value=2.0))
    shape = draw(st.sampled_from(["disk", "zero", "finite", "bg"]))
    kind, stop, tol = StateKind.PERELOMOV, MAX_SERIES_TERMS + 1, 1e-14
    if shape == "disk":
        kappas = [draw(st.fractions(min_value="1/20", max_value=2, max_denominator=40))]
        near = st.sampled_from([0.99, 0.999, 0.9993, 0.9999])
        ratios = st.lists(st.one_of(st.floats(min_value=0.0, max_value=1 - 1e-4), near),
                          min_size=1, max_size=3)
        moduli = [q / math.sqrt(kappas[0]) for q in draw(ratios)]
    else:
        if shape == "finite":
            d = draw(st.integers(min_value=2, max_value=300))
            kappas, stop, tol, radius = [Fraction(-1, d - 1)], d, None, 6.0
        elif shape == "zero":
            kind = draw(st.sampled_from(list(StateKind)))
            kappas, radius = [Fraction(0)], 30.0
        else:
            kind = StateKind.BARUT_GIRARDELLO
            ell = st.builds(Fraction, st.just(1), st.integers(min_value=1, max_value=9))
            ratio = st.fractions(min_value="1/29", max_value=3, max_denominator=29)
            kappas = draw(st.lists(st.one_of(ell, ratio), min_size=1, max_size=3))
            radius = 30.0
        moduli = draw(st.lists(st.floats(min_value=0.0, max_value=radius), min_size=1, max_size=3))
    angle = st.just(0.0) if real else st.floats(min_value=-math.pi, max_value=math.pi)
    angles = draw(st.lists(angle, min_size=len(moduli), max_size=len(moduli)))
    zs = [r * complex(math.cos(a), math.sin(a)) for r, a in zip(moduli, angles)]
    return kind, AlgebraParams(kappas, phi), zs, stop, tol


@settings(max_examples=80, deadline=None)
@example(case=(StateKind.PERELOMOV, AlgebraParams(["14/25"]),
               [0.9993 / math.sqrt(0.56), 0.5j], MAX_SERIES_TERMS + 1, 1e-14))
# two rows, one cut long before the other: its later blocks carry 0 * step,
# -0.0 where the step's real part is negative; one long block would write +0.0
@example(case=(StateKind.PERELOMOV, AlgebraParams([0]),
               [-1.6645873461885696 + 3.637189707302727j, 7], MAX_SERIES_TERMS + 1, 1e-14))
# one z by the rims: the second block ends at the law's cut (_law_cut)
@example(case=(StateKind.PERELOMOV, AlgebraParams(["1/6"]), [math.sqrt(0.99 * 6)],
               MAX_SERIES_TERMS + 1, 1e-14))
@example(case=(StateKind.BARUT_GIRARDELLO, AlgebraParams([0], 0.3), [30.0j],
               MAX_SERIES_TERMS + 1, 1e-14))  # its squared norm past the double range
@example(case=(StateKind.PERELOMOV, AlgebraParams(["14/25"]),
               [0.9993 / math.sqrt(0.56), 0.0, 1.0], MAX_SERIES_TERMS + 1, 1e-14))
# a tail_tol >= 1, uncut by n = 64: the law's cut search starts past the peak
@example(case=(StateKind.PERELOMOV, AlgebraParams(["1/6"]), [2.4], MAX_SERIES_TERMS + 1, 2.0))
@example(case=(StateKind.BARUT_GIRARDELLO, AlgebraParams([0]), [10.0], MAX_SERIES_TERMS + 1, 2.0))
@given(case=_series_cases())
def test_the_tail_prefilter_leaves_every_series_as_the_full_scan(case):
    # the oracle takes the complex steps, so a float64 series (phi = 0, every
    # z real and >= 0) is checked against the complex one bit for bit
    coeffs, bounds, exponents = _series_as_a_state_calls_it(*case)
    ref_blocks, ref_bounds, ref_exponents = series_unfiltered(*case)
    ref = np.concatenate(ref_blocks, axis=1)
    if coeffs.dtype == float:
        assert not np.signbit(ref.imag).any()
    assert coeffs.shape == ref.shape and coeffs.astype(complex).tobytes() == ref.tobytes()
    assert bounds == ref_bounds
    assert np.array_equal(exponents, ref_exponents)


def test_the_tail_scan_starts_near_the_cut(monkeypatch):
    # near the rim the terms fall under the tolerance ~4700 terms before the
    # geometric bound can pass; the prefilter hands _tail_cut none of those
    first = []
    tail_cut = coherent._tail_cut

    def spy(under, abs2, norms, lo, ratio_sup, tol2):
        first.append(lo + int(under[0]))
        return tail_cut(under, abs2, norms, lo, ratio_sup, tol2)

    monkeypatch.setattr(coherent, "_tail_cut", spy)
    kappa = Fraction(14, 25)
    state = perelomov_state(AlgebraParams([kappa]), 0.9993 / math.sqrt(kappa))
    assert len(state) == 48_464
    assert 0 <= len(state) - first[0] <= 16


# kappa = 1/10^k, k <= 16: at a = 1/kappa, lgamma(a + n) - lgamma(a) loses digits
_DECADES = st.integers(min_value=0, max_value=16).map(lambda k: Fraction(1, 10**k))
_TINY_KAPPA = Fraction(1, 10**16)  # |z| = 2: 43 terms; without the cancellation, 41 certified


@settings(max_examples=150, deadline=None)
@example(kappa=Fraction(14, 25), rho=0.9993, angle=0.0, phi=0.0, max_terms=5000)
@example(kappa=Fraction(1, 2), rho=1 - 1e-4, angle=1.0, phi=0.3, max_terms=5000)
@example(kappa=_TINY_KAPPA, rho=2e-8, angle=0.0, phi=0.0, max_terms=50)
@given(
    kappa=st.one_of(st.builds(Fraction, st.integers(min_value=1, max_value=58),
                              st.integers(min_value=1, max_value=29)), _DECADES),
    rho=st.one_of(st.floats(min_value=0.0, max_value=1 - 1e-4), st.floats(0.0, 1e-6),
                  st.sampled_from([0.99, 0.999, 0.9993, 1 - 1e-4])),
    angle=st.sampled_from([0.0, 1.0, -2.5]),
    phi=st.sampled_from([0.0, 0.3]),
    max_terms=st.integers(min_value=50, max_value=5000),
)
def test_the_state_and_its_refusal_are_the_doubling_series(kappa, rho, angle, phi, max_terms):
    # kappa = p/q in (0, 2], q <= 29, or 1/10^k, and |z| sqrt(kappa) = rho up to 1 - 1e-4,
    # or under 1e-6: a short series at a large shape 1/kappa
    params = AlgebraParams([kappa], phi)
    z = rho / math.sqrt(kappa) * complex(math.cos(angle), math.sin(angle))
    try:
        coeffs, bound = perelomov_series_by_doubling(params, z, max_terms=max_terms)
    except DomainError as exc:
        with pytest.raises(DomainError, match=re.escape(str(exc)) + "$"):
            perelomov_state(params, z, max_terms=max_terms)
        return
    state = perelomov_state(params, z, max_terms=max_terms)
    assert state.coeffs.tobytes() == coeffs.tobytes()
    assert state.cutoff_meta.n_terms == len(coeffs)
    assert state.cutoff_meta.tail_bound == bound


def _certified(params, radius, tail_tol, max_terms):
    """Whether the closed form certifies the perelomov state at |z| = radius."""
    return _verdict(params, radius, max_terms, tail_tol) is True


def _verdict(params, radius, max_terms, tail_tol):
    """`_law_verdict` on the perelomov series at |z| = radius."""
    x = coherent._perelomov_x(StateKind.PERELOMOV, params, radius)
    law = lambda: _law(StateKind.PERELOMOV, params, radius)  # noqa: E731
    return coherent._law_verdict(params, radius, x, law, max_terms, tail_tol)


@settings(max_examples=300, deadline=None)
@example(kappa=Fraction(1, 2), rho=0.9993, phi=0.0, tail_tol=1e-14, max_terms=MAX_SERIES_TERMS)
@example(kappa=Fraction(14, 25), rho=1 - 1e-6, phi=0.7, tail_tol=1e-6, max_terms=5000)
@example(kappa=Fraction(3, 7), rho=0.5, phi=0.0, tail_tol=1e-10, max_terms=1)
@example(kappa=_TINY_KAPPA, rho=2e-8, phi=0.0, tail_tol=1e-14, max_terms=41)
@given(
    kappa=st.one_of(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda q: st.builds(Fraction, st.integers(min_value=1, max_value=2 * q - 1),
                                st.just(q))),
        _DECADES,
    ),
    rho=st.one_of(st.floats(min_value=0.0, max_value=6.0).map(lambda u: 1.0 - 10.0**-u),
                  st.floats(min_value=0.0, max_value=1e-6)),
    phi=st.one_of(st.just(0.0), st.floats(min_value=-math.pi, max_value=math.pi)),
    tail_tol=st.sampled_from([1e-14, 1e-10, 1e-6]),
    max_terms=st.one_of(st.integers(min_value=1, max_value=6000),
                        st.sampled_from([50, 500, 5000, MAX_SERIES_TERMS])),
)
def test_a_certain_cut_is_a_state(kappa, rho, phi, tail_tol, max_terms):
    # kappa = p/q in (0, 2), q <= 40, or 1/10^k, k <= 16, and |z| sqrt(kappa)
    # = rho, up to 1 - 1e-6, or under 1e-6: a short series at a large shape
    params = AlgebraParams([kappa], phi)
    radius = rho / math.sqrt(kappa)
    certified = _certified(params, radius, tail_tol, max_terms)
    try:
        state = perelomov_state(params, radius * complex(math.cos(phi), math.sin(phi)),
                                tail_tol=tail_tol, max_terms=max_terms)
    except DomainError:
        assert not certified
    else:
        assert state.cutoff_meta.n_terms <= max_terms
        assert state.cutoff_meta.tail_bound <= tail_tol


@pytest.mark.parametrize("exponent", [306, 310, 400])
def test_a_shape_past_the_double_range_has_no_closed_form(exponent):
    # 1/kappa or float(kappa) itself leaves the double range: no law there;
    # at 1/kappa = 10^306 the law (Stirling's series) holds, but its margin
    # near the rim, 8 (a + 1) eps / (1 - x), leaves no verdict
    params = AlgebraParams([Fraction(1, 10**exponent)])
    assert (_law(StateKind.PERELOMOV, params, 1.0) is None) == (exponent > 306)
    verdict = _verdict(params, 1.0, MAX_SERIES_TERMS, 1e-14)
    assert verdict is None
    if exponent == 306:  # its ladder rows still fit in doubles: the series decides
        coeffs, bound = perelomov_series_by_doubling(params, 1.0)
        state = perelomov_state(params, 1.0)
        assert state.coeffs.tobytes() == coeffs.tobytes()
        assert state.cutoff_meta.tail_bound == bound


def test_the_peak_search_gives_up_past_2_53():
    # kappa = 1/10^153 by the rim: the peak lies near 10^168, where a
    # Newton step no longer moves n in float, so each step took n + 1
    params = AlgebraParams([Fraction(1, 10**153)])
    radius = 0.9999999999999971 / math.sqrt(params.kappas[0])
    assert _law(StateKind.PERELOMOV, params, radius) is None


def test_only_the_closed_form_reads_lgamma():
    # one closed form of log F(n)! for the package: the term law of both
    # families, which the growth kernel reads too; no second copy may rebuild it
    readers = {
        (path.name, getattr(top, "name", None))
        for path in sorted(Path(polywh.__file__).parent.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if (isinstance(node, ast.Attribute) and node.attr == "lgamma")
        or (isinstance(node, ast.Name) and node.id == "lgamma")
        or (isinstance(node, ast.alias) and node.name.endswith("lgamma"))
    }
    assert readers == {("coherent.py", "_term_law")}


def _functions(path):
    return {node.name: node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)}


def _names(node):
    """Every name read, written, imported or defined under node."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            for n in ast.walk(node)}


def test_only_the_verdict_reads_the_closed_form():
    # the verdict decides whether a state exists: the two existence questions
    # ask it; the series never does.  A state takes its x and its term law
    # (_term_law) once and hands them to the verdict and to the series, which
    # sizes its second block by the law and screens its candidates by x; the
    # law has no other reader than the two questions and the growth kernel
    package = sorted(Path(polywh.__file__).parent.glob("*.py"))

    def callers(name):
        return {(path.name, caller) for path in package
                for caller, function in _functions(path).items()
                if caller != name and name in _names(function)}

    assert callers("_law_verdict") == {("coherent.py", "_state"), ("coherent.py", "_require_state")}
    assert callers("_term_law") == {("coherent.py", "_state"), ("coherent.py", "_require_state"),
                                    ("bargmann.py", "kernel_growth")}
    assert callers("_perelomov_x") == {
        ("coherent.py", "_state"), ("coherent.py", "_require_state"), ("coherent.py", "_series_moduli")}
    functions = _functions(Path(coherent.__file__))
    assert not _names(functions["_series"]) & {"_perelomov_x", "_law_verdict", "_term_law"}
    assert not _names(functions["_law_verdict"]) & {"_perelomov_x", "_term_law"}
    gone = {"_cut_bound", "PREDICTED_FROM", "CUT_SLACK", "_perelomov_law"}
    assert not {name for path in package for name in _names(ast.parse(path.read_text()))} & gone


@pytest.mark.parametrize("build, kappa, z, laws", [
    (perelomov_state, "14/25", 1.3353, 1),  # the verdict and the series (uncut at n = 64)
    (bg_state, "1/2", 30.0, 1),  # the series alone, uncut at n = 64
    (bg_state, "1/2", 0.5, 0),  # cut in its first block: no law is built
])
def test_a_state_takes_its_x_and_its_term_law_once(monkeypatch, build, kappa, z, laws):
    calls = []

    def counted(name):
        real = getattr(coherent, name)

        def spy(*args):
            calls.append(name)
            return real(*args)

        return spy

    for name in ("_perelomov_x", "_term_law"):
        monkeypatch.setattr(coherent, name, counted(name))
    state = build(AlgebraParams([kappa]), z)
    assert (len(state) > 64) == bool(laws)
    assert sorted(calls) == ["_perelomov_x"] + ["_term_law"] * laws


def test_only_coherent_decides_whether_a_series_exists():
    # the closed-form verdict has one owner; measure asks it through _require_state
    owned = {"MAX_SERIES_TERMS", "_law_verdict"}
    constructors = {"perelomov_state", "bg_state"}
    names = {
        (path.name, name)
        for path in sorted(Path(polywh.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        for name in [getattr(node, "id", None) or getattr(node, "attr", None)
                     or getattr(node, "name", None)]
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias, ast.FunctionDef))
    }
    assert {(module, name) for module, name in names if name in owned} <= {
        ("coherent.py", name) for name in owned}
    assert not {name for module, name in names if module == "measure.py"} & constructors
    assert "_outside_disk" not in {name for _, name in names}
    # measure asks coherent, by these names alone, and raises no refusal of its own
    measure = ast.parse((Path(polywh.__file__).parent / "measure.py").read_text())
    asked = {alias.name for node in ast.walk(measure) if isinstance(node, ast.ImportFrom)
             and node.module == "coherent" for alias in node.names}
    assert asked <= {"StateKind", "_require_family", "_require_state", "_series_moduli"}
    assert "coherent" not in {name for module, name in names if module == "measure.py"}
    refusals = ("existence disk", "exist only for r = 1", "eigenstate exists", "did not reach tail")
    raisers = {
        (path.name, function.name)
        for path in sorted(Path(polywh.__file__).parent.glob("*.py"))
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Raise)
        for text in ast.walk(node)
        if isinstance(text, ast.Constant) and isinstance(text.value, str)
        and any(refusal in text.value for refusal in refusals)
    }
    assert raisers == {("coherent.py", "_require_family"), ("coherent.py", "_state")}


@pytest.mark.parametrize("kappas, kind, count", [
    (["-1/3"], StateKind.BARUT_GIRARDELLO, None),  # a finite ladder
    (["1/2", "1/3"], StateKind.PERELOMOV, 6),  # r = 2 on an infinite ladder
])
def test_moments_and_the_constructor_refuse_a_family_with_one_message(kappas, kind, count):
    params = AlgebraParams(kappas)
    build = perelomov_state if kind is StateKind.PERELOMOV else bg_state
    with pytest.raises(DomainError) as state:
        build(params, 0.1)
    with pytest.raises(DomainError) as moments:
        moments_for(params, kind, count)
    assert str(moments.value) == str(state.value)


def _count_steps(monkeypatch):
    spans = []
    steps = coherent._steps

    def spy(kind, params, z, lo, hi):
        spans.append(hi - lo)
        return steps(kind, params, z, lo, hi)

    monkeypatch.setattr(coherent, "_steps", spy)
    return spans


@pytest.mark.parametrize("kappa, modulus, max_terms", [
    ("1/2", 1.414, MAX_SERIES_TERMS),  # |z| sqrt(kappa) = 0.99985
    ("1/2", 0.99 / math.sqrt(0.5), 500),
    ("1", 1 - 10**-4.5, MAX_SERIES_TERMS),  # the states stream's cap command
])
def test_a_certain_cap_builds_no_term(monkeypatch, kappa, modulus, max_terms):
    spans = _count_steps(monkeypatch)
    params = AlgebraParams([kappa], 0.4)
    message = f"series did not reach tail tolerance 1e-14 within {max_terms} terms$"
    with pytest.raises(DomainError, match=message):
        perelomov_state(params, modulus * 1j, max_terms=max_terms)
    assert spans == []
    with pytest.raises(DomainError, match=message):  # as the doubling series says
        perelomov_series_by_doubling(params, modulus * 1j, max_terms=max_terms)


@pytest.mark.parametrize("build, kappa, z, kept, estimate", [
    (perelomov_state, "14/25", 1.3353, 45_053, 50_017),  # doubling: 11 blocks, 65,535 steps
    (perelomov_state, "1/6", 1.0907270269460956 - 2.1817288806391186j, 9_696, 10_517),  # 9 blocks
    # kappa = 1/10^30: the shape 10^30 goes through Stirling's series; an
    # lgamma difference cancelled there, and the blocks were [63, 199937]
    # and [63, 349, 413]
    (bg_state, Fraction(1, 10**30), 10.0, 230, 234),
    (perelomov_state, Fraction(1, 10**30), 20.0, 642, 650),
], ids=["14/25", "1/6", "bg 1/10^30", "perelomov 1/10^30"])
def test_the_second_block_ends_at_the_law_cut(monkeypatch, build, kappa, z, kept, estimate):
    # one z uncut by n = 64: block 64..hi - 1 ends at hi = estimate + 1, the
    # law's cut estimate (_law_cut) taken in, where the series is cut
    spans = _count_steps(monkeypatch)
    state = build(AlgebraParams([kappa]), z)
    assert len(state) == kept
    assert spans == [63, estimate + 1 - 64]


_SHAPES = st.one_of(st.fractions(min_value="1/29", max_value=2, max_denominator=29),
                    st.builds(Fraction, st.just(1), st.integers(min_value=1, max_value=9)))
# kappa = 1/10^k: a shape 1/kappa of up to 301 digits, where an lgamma difference cancels
_SMALL = st.integers(min_value=2, max_value=300).map(lambda k: Fraction(1, 10**k))


@st.composite
def _law_cases(draw):
    """(kind, params, z) of an infinite-ladder series with a term law:
    perelomov at kappa = p/q <= 2 or 1/ell with |z| sqrt(kappa) up to
    1 - 1e-4, at kappa = 0 with |z| <= 12, or at kappa = 1/10^k with |z| <=
    min(40, 1/sqrt(kappa)) (1 - 1e-4); barut-girardello with r <= 3 such
    kappas or 0 and |z| <= 40."""
    kind = draw(st.sampled_from(list(StateKind)))
    if kind is StateKind.PERELOMOV:
        kappa = draw(st.one_of(_SHAPES, st.just(Fraction(0)), _SMALL))
        near = st.sampled_from([0.99, 0.999, 1 - 1e-4])
        rho = draw(st.one_of(st.floats(min_value=1e-3, max_value=1 - 1e-4), near))
        if kappa >= Fraction(1, 29):
            modulus = rho / math.sqrt(kappa)
        else:
            modulus = rho * (min(40.0, 1 / math.sqrt(kappa)) if kappa else 12.0)
        kappas = [kappa]
    else:
        kappas = draw(st.lists(st.one_of(_SHAPES, st.just(Fraction(0)), _SMALL),
                               min_size=1, max_size=3))
        modulus = draw(st.floats(min_value=1e-3, max_value=40.0))
    angle = draw(st.sampled_from([0.0, 1.0, -2.5]))
    phi = draw(st.sampled_from([0.0, 0.3]))
    return kind, AlgebraParams(kappas, phi), modulus * complex(math.cos(angle), math.sin(angle))


@settings(max_examples=150, deadline=None)
@example(case=(StateKind.PERELOMOV, AlgebraParams(["1/6"]), 2.4391855927594954), n=10**5)
@example(case=(StateKind.BARUT_GIRARDELLO, AlgebraParams(["1/3", "2", 0]), 40.0), n=10**5)
@example(case=(StateKind.BARUT_GIRARDELLO, AlgebraParams([Fraction(1, 10**300)]), 10.0), n=10**5)
@example(case=(StateKind.PERELOMOV, AlgebraParams([Fraction(1, 10**30)]), 20.0), n=587)
@given(case=_law_cases(), n=st.one_of(st.integers(min_value=0, max_value=200),
                                      st.integers(min_value=0, max_value=10**5)))
def test_the_term_law_is_mpmath_loggamma(case, n):
    # log|c_n|^2 within a few roundings of each lgamma, of the value and of
    # n log|z|^2; the peak is the first n with |c_{n+1}/c_n| <= 1, up to a
    # ratio within 1e-12 of 1, the ratio exact in Fractions
    kind, params, z = case
    radius = abs(z)
    terms, log_sup2, peak = _law(kind, params, radius)
    value, size = terms(n)
    exact = log_term_modulus(kind, params.kappas, radius, n)
    eps = sys.float_info.epsilon
    assert abs(value - exact) <= 8 * eps * (size + abs(exact) + n * (1 + abs(math.log(radius**2))))
    # and within 1e-13 of the size of log n! and n log|z|^2, at any shape
    scale = abs(exact) + math.lgamma(n + 1) + n * abs(math.log(radius**2))
    assert abs(value - exact) <= 1e-13 * scale
    square = Fraction(radius) ** 2

    def ratio(m):  # |c_{m+1} / c_m|^2
        f = structure_function(params, m + 1)
        return square * f / (m + 1) ** 2 if kind is StateKind.PERELOMOV else square / f

    assert ratio(peak) <= 1 + Fraction(1, 10**12)
    assert peak == 0 or ratio(peak - 1) > 1 - Fraction(1, 10**12)


@contextlib.contextmanager
def _step_calls():
    """The spans hi - lo of every `_steps` call made inside the block."""
    spans, steps = [], coherent._steps

    def spy(kind, params, z, lo, hi):
        spans.append(hi - lo)
        return steps(kind, params, z, lo, hi)

    coherent._steps = spy
    try:
        yield spans
    finally:
        coherent._steps = steps


@settings(max_examples=120, deadline=None)
@example(case=(StateKind.PERELOMOV, AlgebraParams(["14/25"]), 0.9999 / math.sqrt(0.56)))
@example(case=(StateKind.BARUT_GIRARDELLO, AlgebraParams([0], 0.3), 30.0j))
@example(case=(StateKind.BARUT_GIRARDELLO, AlgebraParams([0]), 40.0))  # c_n overflows
@example(case=(StateKind.BARUT_GIRARDELLO, AlgebraParams([Fraction(1, 10**70)]), 30.0))
@given(case=_law_cases())
def test_a_state_takes_at_most_three_blocks_and_is_the_doubling_series(case):
    # the law's cut (_law_cut) ends the second block at or past the cut, at
    # any shape, kappa = 1/10^k included, so a third block is never needed
    # on these draws but allowed; the state, its cut and its bound, or its
    # refusal, are the doubling series'
    kind, params, z = case
    build = perelomov_state if kind is StateKind.PERELOMOV else bg_state
    try:
        blocks, (bound,), _ = series_unfiltered(kind, params, [z], MAX_SERIES_TERMS + 1, 1e-14)
        if bound == math.inf:
            raise DomainError(
                f"series did not reach tail tolerance 1e-14 within {MAX_SERIES_TERMS} terms")
    except DomainError as exc:
        with pytest.raises(DomainError, match=re.escape(str(exc)) + "$"), _step_calls():
            build(params, z)
        return
    with _step_calls() as spans:
        state = build(params, z)
    assert len(spans) <= 3
    law = _law(kind, params, abs(z))
    assert coherent._law_cut(law, 1e-14, MAX_SERIES_TERMS + 1) + 1 >= len(state)
    assert state.coeffs.tobytes() == np.concatenate(blocks, axis=1)[0].tobytes()
    assert state.cutoff_meta.tail_bound == bound


def test_the_law_cut_is_the_first_n_its_rule_passes():
    # g(n) = log|c_n|^2 - log(1 - q^2) - 2 log tol - log|c_peak|^2 on the law
    # itself: g(cut) <= 0 < g(cut - 1), and the cut is capped at stop; a
    # tol >= 1 (a tail_tol may be) too
    for (kind, kappas, radius), tol in itertools.product(
            [(StateKind.PERELOMOV, ["1/6"], 2.4391855927594954),
             (StateKind.PERELOMOV, ["1/6"], 2.4),
             (StateKind.PERELOMOV, ["3/2"], 0.8),
             (StateKind.PERELOMOV, [0], 8.0),
             (StateKind.BARUT_GIRARDELLO, [0], 10.0),
             (StateKind.BARUT_GIRARDELLO, [0], 30.0),
             (StateKind.BARUT_GIRARDELLO, ["1/2", "2/3"], 30.0)],
            [1e-14, 1.0, 2.0]):
        law = _law(kind, AlgebraParams(kappas), radius)
        terms, log_sup2, peak = law
        top = terms(peak)[0] + 2 * math.log(tol)

        def g(n):
            return terms(n)[0] - math.log1p(-math.exp(log_sup2(n))) - top

        cut = coherent._law_cut(law, tol, MAX_SERIES_TERMS + 1)
        assert peak < cut and g(cut) <= 0 and (cut - 1 == peak or g(cut - 1) > 0)
        assert coherent._law_cut(law, tol, cut - 1) == cut - 1


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


@settings(max_examples=150, deadline=None)
@example(d=300, extra=Fraction(2), modulus=1000.0, angle=0.5, phi=0.3)  # overflows
@given(
    d=st.integers(min_value=2, max_value=200),
    extra=st.one_of(st.none(), st.fractions(min_value=0, max_value=2, max_denominator=8)),
    modulus=st.floats(min_value=0.05, max_value=4.0),
    angle=st.floats(min_value=-math.pi, max_value=math.pi),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_the_exponential_is_its_level_recurrence(d, extra, modulus, angle, phi):
    # both compute v_k = (raising_k v_{k-1}) (z / k) with one z / k, so each
    # is within (1 + sqrt(5) eps/2)^(2k) - 1 of the exact v_k, relatively:
    # two complex products per level, each within sqrt(5) eps/2 (Brent,
    # Percival and Zimmermann 2007); they differ by at most 2 sqrt(5) k eps
    # |v_k| < 4.5 k eps |v_k| while every level up to k stays above
    # 2**-970, where a subnormal part of a product errs under 2**-105 of it
    params = AlgebraParams([Fraction(-1, d - 1)] + ([extra] if extra is not None else []), phi)
    z = modulus * complex(math.cos(angle), math.sin(angle))
    rep = build_rep(params)
    with np.errstate(all="ignore"):
        ref = nilpotent_exponential_by_vectors(rep.band.conj(), z)
    if not np.isfinite(ref).all():
        with pytest.raises(DomainError, match="overflows double precision"):
            perelomov_via_exponential(params, z, rep)
        return
    v = perelomov_via_exponential(params, z, rep).coeffs
    eps, moduli = np.finfo(float).eps, np.abs(ref)
    k = np.flatnonzero(np.minimum.accumulate(moduli) >= 2.0**-970)
    assert np.all(np.abs(v - ref)[k] <= 4.5 * k * eps * moduli[k])


def test_the_exponential_refuses_a_rep_it_cannot_read():
    # the builders make no such rep: a hand-built one reaches each refusal
    params = AlgebraParams(["-1/4"], 0.3)  # d = 5
    band = build_rep(params).band
    for rep, message in [
        (build_rep(AlgebraParams(["-1/4"])), "representation was built for different parameters"),
        (LadderRep(params, 5, band, 2), "need the untruncated representation"),
        (LadderRep(params, 4, band[:3]), "representation window 4 != d = 5"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            perelomov_via_exponential(params, 0.5, rep)


def test_the_exponential_makes_no_numpy_call_per_level(monkeypatch):
    # O(1) work per level: as many numpy calls at d = 200 as at d = 20
    calls = []

    class Counting:
        def __getattr__(self, name):
            value = getattr(np, name)
            if not callable(value) or isinstance(value, type):
                return value

            def counted(*args, **kwargs):
                calls.append(name)
                return value(*args, **kwargs)

            return counted

    monkeypatch.setattr(coherent, "np", Counting())
    counts = []
    for d in (20, 200):
        params = AlgebraParams([Fraction(-1, d - 1)], 0.3)
        rep = build_rep(params)
        calls.clear()
        perelomov_via_exponential(params, 0.4 + 0.3j, rep)
        counts.append(len(calls))
    assert counts[0] == counts[1] < 10


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


def test_check_bg_eigen_refuses_a_rep_of_other_params_or_an_exact_states_other_window():
    params = AlgebraParams(["-1/4"])
    state = perelomov_state(params, 0.5)  # exact: its d = 5 coefficients
    with pytest.raises(ValueError, match="^state and representation parameters differ$"):
        check_bg_eigen(state, build_rep(AlgebraParams(["-1/3"])))
    band = build_rep(params).band  # no builder makes a finite ladder's rep of another window
    with pytest.raises(ValueError, match="^window 4 does not match the exact state length 5$"):
        check_bg_eigen(state, LadderRep(params, 4, band[:3]))


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


@pytest.mark.parametrize("t", [1e308, math.inf, math.nan])
def test_time_evolve_past_the_double_range_names_t(t):
    state = bg_state(AlgebraParams(["1/2"]), 2.0)
    message = "^" + re.escape(f"t = {t!r}: the phase at level n = ")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=message):
            time_evolve(state, t)


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


def _sum(ells, x, rel_tol=1e-16, max_terms=100_000):
    """0F_q(ells; x) at x >= 0 off its scaled sum (`coherent._hyper_0f_scaled`):
    a float at a scalar x, an array at an array; past the double range a
    `DomainError`."""
    return _ldexp(*coherent._hyper_0f_scaled(ells, x, rel_tol, max_terms), "hypergeometric sum")


def _log2_sum(ells, x):
    """log2 of 0F_q(ells; x) off its scaled sum, a float past the double
    range too; a scalar x gives a Python float and int."""
    mantissa, exponent = coherent._hyper_0f_scaled(ells, x)
    assert type(mantissa) is float and type(exponent) is int
    return math.log2(mantissa) + exponent


def test_hyper_0f_on_an_array_stops_each_entry_at_its_own_term():
    xs = [0.0, 1e-3, 2.5, 300.0]
    assert _sum((2, 3), np.array(xs)).tolist() == [_sum((2, 3), x) for x in xs]
    for ells, radius in (((6, 6, 6), 4.0), ((), 18.0)):  # the x of 41 x 41 schwarz grids
        axis = np.linspace(-radius, radius, 41)
        x = math.prod(ells) * np.abs(axis[:, None] + 1j * axis) ** 2
        values = _sum(ells, x)
        assert values.shape == x.shape
        assert values.tolist() == [[_sum(ells, v) for v in row] for row in x]
    assert _sum((2, 3), np.zeros((2, 1))).tolist() == [[1.0], [1.0]]
    with pytest.raises(DomainError):
        _sum((1,), np.array([0.5, 1e6]), max_terms=50)


@settings(max_examples=200, deadline=None)
@given(
    ells=st.lists(st.one_of(st.integers(min_value=1, max_value=9),
                            st.floats(min_value=0.05, max_value=9)), max_size=3),
    xs=st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=4),
    rel_tol=st.one_of(st.floats(min_value=0, max_value=1, exclude_max=True),
                      st.sampled_from([0.0, 0.3])),
)
# at a large rel_tol the first entry stops before its peak; its term, still
# multiplied, passed rel_tol times the sum again and the entry went on adding
@example(ells=[], xs=[117.04113489885552, 227.7935404], rel_tol=0.3)
def test_every_array_entry_is_its_scalar_sum_at_any_rel_tol(ells, xs, rel_tol):
    # (mantissa, exponent) per entry, past the double range too
    scalars = []
    for x in xs:
        try:
            scalars.append(coherent._hyper_0f_scaled(ells, x, rel_tol))
        except DomainError:
            with pytest.raises(DomainError):
                coherent._hyper_0f_scaled(ells, np.array(xs), rel_tol)
            return
    mantissas, exponents = coherent._hyper_0f_scaled(ells, np.array(xs), rel_tol)
    assert list(zip(mantissas.tolist(), exponents.tolist())) == scalars


def _scaled_outcome(sum_, ells, x, max_terms):
    """sum_(ells, x) as (mantissas, exponents) lists, or its DomainError's text."""
    try:
        mantissa, exponent = sum_(ells, x, 1e-16, max_terms)
    except DomainError as exc:
        return str(exc)
    return np.ravel(mantissa).tolist(), np.ravel(exponent).tolist()


@settings(max_examples=200, deadline=None)
@given(
    ells=st.lists(st.one_of(st.integers(min_value=1, max_value=9),
                            st.floats(min_value=0.05, max_value=9)), max_size=3),
    xs=st.lists(st.one_of(st.floats(min_value=0, max_value=1e12), st.floats(min_value=0),
                          st.sampled_from([0.0, math.inf])), min_size=1, max_size=4),
    max_terms=st.integers(min_value=1, max_value=300),
)
@example(ells=[], xs=[900.0, 1e6, 5e3], max_terms=100_000)
@example(ells=[2, 3], xs=[2.4e7, 3.0], max_terms=100_000)
@example(ells=[1, 1, 1], xs=[1.2e9, 1.4e9, 2.0], max_terms=250)
def test_a_sum_refused_at_once_is_the_one_the_loop_refuses(ells, xs, max_terms):
    # for the array and for each scalar, the outcome of the reference loop
    # (`hyper_0f_by_rescaling`: from k = 0, rescaled by 2**-512 where it
    # would overflow): the same error, the same value where its exponent is
    # 0, and within 2e-13 relative past the double range
    for x in (np.array(xs), *map(np.float64, xs)):
        got, ref = (_scaled_outcome(sum_, ells, x, max_terms)
                    for sum_ in (coherent._hyper_0f_scaled, hyper_0f_by_rescaling))
        assert type(got) is type(ref) and (isinstance(ref, tuple) or got == ref), (x, got, ref)
        if isinstance(ref, tuple):
            for mantissa, exponent, ref_mantissa, ref_exponent in zip(*got, *ref):
                if ref_exponent == 0:
                    assert (mantissa, exponent) == (ref_mantissa, 0), x
                else:
                    assert abs(math.ldexp(mantissa / ref_mantissa, exponent - ref_exponent)
                               - 1.0) <= 2e-13, x


@contextlib.contextmanager
def _line_budget(limit: int):
    """Fail the test once more than ``limit`` lines of `polywh.coherent` run
    (its generator expressions included): a work bound that a sum of 0F_q
    refused at once meets and a loop over max_terms terms does not."""
    lines, outer = 0, sys.gettrace()

    def trace(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != coherent.__file__:
            return None
        if event == "line":
            lines += 1
            if lines > limit:
                raise AssertionError(f"more than {limit} lines of polywh.coherent ran")
        return trace

    sys.settrace(trace)
    try:
        yield
    finally:
        sys.settrace(outer)


def _outcome(call, arg):
    """call(arg), or the text of its DomainError, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(arg)
        except DomainError as exc:
            return f"DomainError: {exc}"


def _forms(x: Fraction) -> list:
    """x as a Fraction, a numpy float, a 0-d float and object array, and an
    int and a numpy int where it is one."""
    forms = [x, np.float64(x), np.array(float(x)), np.array(x, dtype=object)]
    if x.denominator == 1:
        forms += [int(x)] + ([np.int64(int(x))] if abs(x) < 2**63 else [])
    return forms


@pytest.mark.parametrize("x", [
    Fraction(22, 3), Fraction(-22, 3), Fraction(50, 3), Fraction(7), Fraction(-40),
    Fraction(900), Fraction(10**9), Fraction(2 * 10**200), Fraction(1, 3) * 10**300,
])
def test_an_exact_or_numpy_argument_is_taken_at_its_double(x):
    # a Fraction argument of the 0F_q sum was summed with exact term ratios
    # (at (2,), 22/3 read 13.185575632916724, its double 13.18557563291672),
    # and an int or a Fraction that cannot converge for its max_terms terms
    for params in (_HALF, OSC, AlgebraParams(["1/2", "1/3"])):
        expected = _outcome(lambda z: bg_normalization(params, z), complex(x))
        for form in [*_forms(x), np.complex128(x), np.array(complex(x))]:
            got = _outcome(lambda z: bg_normalization(params, z), form)
            assert type(got) is type(expected) and got == expected, (form, got, expected)


def test_an_exact_x_that_cannot_converge_is_refused_before_any_loop():
    # summed exactly, x = 10**9 took 0.1 s and 10**300 / 3 2.6 s to say so; a
    # loop over the 100,000 terms of max_terms would pass the line budget
    with _line_budget(2_000):
        for params, z in [(OSC, 31_623), (_HALF, Fraction(10**150, 3)), (_HALF, 10**100),
                          (_HALF, np.array([1, 10**100], dtype=object))]:
            with pytest.raises(DomainError, match="^hypergeometric series did not converge$"):
                bg_normalization(params, z)  # at x = prod(ells) |z|^2


def test_a_sum_that_cannot_converge_is_refused_before_its_loop():
    # x = 2e200 at ells (2,): the terms still grow at the 100,000th, and pass
    # the double range long before it, where a loop from k = 0 would go on
    with _line_budget(2_000):
        for x in (2e200, np.array([1.0, 2e200, math.inf])):
            with pytest.raises(DomainError, match="^hypergeometric series did not converge$"):
                coherent._hyper_0f_scaled((2,), x)


def test_each_entry_summed_again_is_refused_at_its_own_x():
    # at ells (0.5,) the first term ratio at x = 1.7e308 overflows, and
    # 2e200 cannot converge: each entry whose plain sum overflows is judged
    # at its own x, in array order, and at once
    with _line_budget(2_000):
        for xs, message in (([2e200, 1.7e308], "series did not converge"),
                            ([1.7e308, 2e200], "series term ratio overflows at x = 1.7e\\+308")):
            with pytest.raises(DomainError, match=f"^hypergeometric {message}$"):
                coherent._hyper_0f_scaled((0.5,), np.array(xs))
        for x, message in ((2e200, "did not converge"), (1.7e308, "term ratio overflows")):
            with pytest.raises(DomainError, match=message):
                coherent._hyper_0f_scaled((0.5,), x)


@pytest.mark.parametrize("max_terms, error, message", [
    (2.5, TypeError, "max_terms must be an integer, got max_terms = 2.5"),
    (-1, DomainError, "max_terms must be at least 0, got max_terms = -1"),
])
def test_bg_state_refuses_a_max_terms_by_name(max_terms, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        bg_state(OSC, 1.0, max_terms=max_terms)


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


def test_ldexp_returns_a_finite_scalar_at_exponent_zero_and_refuses_infinity():
    for mantissa in (2.5, np.float64(2.5), 5e-324, -0.0):
        value = _ldexp(mantissa, 0, "x")
        assert type(value) is float and value == mantissa
        assert math.copysign(1.0, value) == math.copysign(1.0, mantissa)
    assert _ldexp(np.float64(1.5), 3, "x") == 12.0
    for mantissa in (math.inf, -math.inf, np.float64(math.inf)):
        with pytest.raises(DomainError, match="^x overflows double precision: it is about 2"):
            _ldexp(mantissa, 0, "x")


@settings(max_examples=200, deadline=None)
@given(
    ells=st.lists(st.integers(min_value=1, max_value=9), max_size=3),
    x=st.floats(min_value=0, max_value=2000),
)
def test_hyper_0f_is_the_plain_float_sum_wherever_that_is_finite(ells, x):
    plain = hyper_0f_unscaled(ells, x)
    if math.isfinite(plain):
        assert coherent._hyper_0f_scaled(ells, x) == (plain, 0)
        mantissa, exponent = coherent._hyper_0f_scaled(ells, np.array([x]))
        assert (mantissa.tolist(), exponent.tolist()) == ([plain], [0])
        params = AlgebraParams([Fraction(1, ell) for ell in ells] or [0])
        z = math.sqrt(x / math.prod(ells))
        exact_x = math.prod(ells) * abs(complex(z)) ** 2
        assert bg_normalization(params, z) == math.sqrt(hyper_0f_unscaled(ells, exact_x))


def test_hyper_0f_against_mpmath():
    for ells, x in [((2,), 1.7), ((1, 3), 4.0), ((2, 2, 5), 9.0)]:
        ours = _sum(ells, x)
        ref = float(mpmath.hyper([], list(ells), x))
        assert ours == pytest.approx(ref, rel=1e-13)
    for ells, x in [((), 900.0), ((2, 3), 2.4e7), ((1, 1, 1), 1.4e9)]:  # past the double range
        with mpmath.workdps(30):
            ref = float(mpmath.log(mpmath.hyper([], list(ells), x), 2))
        assert _log2_sum(ells, x) == pytest.approx(ref, abs=1e-13 / math.log(2))


@pytest.mark.parametrize("call", [
    lambda x: _sum((2, 3), x),
    lambda x: _log2_sum((), 600 * x),  # e^900: summed from its peak term
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
    (lambda x: _sum((), x), 900.0,
     "hypergeometric sum overflows double precision: it is about 2^1298.4"),
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
    # perelomov died in math.lgamma(0), barut-girardello said "within -1 terms"
    (lambda: perelomov_state(_HALF, 0.5, max_terms=-1), "max_terms"),
    (lambda: bg_state(_HALF, 0.5, max_terms=-1), "max_terms"),
    (lambda: AlgebraParams(["-1/3"], phi=_INF), "phi"),
    (lambda: AlgebraParams(["1/2"], phi=_NAN), "phi"),
    (lambda: OSC.with_phi(-_INF), "phi"),
    (lambda: bg_normalization(_HALF, _NAN), "z"),
    (lambda: bg_normalization(_HALF, complex(_NAN, 1.0)), "z"),
    (lambda: bg_normalization(_HALF, complex(0.0, _NAN)), "z"),
    (lambda: bg_normalization(_HALF, np.float64(_NAN)), "z"),
    (lambda: bg_normalization(_HALF, np.complex128(0.0, _NAN)), "z"),
    (lambda: bg_normalization(_HALF, np.array([0.5, complex(0.0, _NAN)])), "z"),
    # both said the transform "overflows double precision at z = nan+0j"
    (lambda: bargmann_eval(_HALF, [1.0], complex(_NAN)), "z"),
    (lambda: schwarz_check(_HALF, [1.0], np.array([0.5, _NAN])), "z"),
    # each raised a bare OverflowError from its conversion to a complex
    (lambda: bg_normalization(_HALF, 10**400), "z"),
    (lambda: bg_normalization(_HALF, Fraction(10**400)), "z"),
]


@pytest.mark.parametrize("call, name", _NON_FINITE)
def test_non_finite_input_is_refused_by_name(call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=f"^{name} must "):
            call()


@pytest.mark.parametrize("build, kappa, z", [(perelomov_state, "1/2", 1.2), (bg_state, "0", 1.0)])
def test_a_tail_tol_whose_square_underflows_is_refused(build, kappa, z):
    # under 2**-511 tol^2 leaves the normal range: barut-girardello certified
    # a relative tail of 2.4e-163 (mpmath) as 0.0, perelomov took log(0)
    params, floor = AlgebraParams([kappa]), 2.0**-511
    for tail_tol in (1e-170, math.nextafter(floor, 0.0)):
        with pytest.raises(DomainError, match=r"^tail_tol must .* at least 2\*\*-511 = 1.49167e-154,"):
            build(params, z, tail_tol=tail_tol)
    assert 0.0 < build(params, z, tail_tol=floor).cutoff_meta.tail_bound <= floor


@pytest.mark.parametrize("build", [perelomov_state, bg_state])
def test_a_max_terms_that_is_not_an_integer_is_refused_by_name(build):
    with pytest.raises(TypeError, match=r"^max_terms must be an integer, got max_terms = 2.5$"):
        build(_HALF, 0.5, max_terms=2.5)


def test_nan_guards_pass_exact_scalars():
    # a Fraction is an object scalar, which np.isnan cannot read
    assert bg_normalization(_HALF, Fraction(1, 2)) == bg_normalization(_HALF, 0.5)
    assert bg_normalization(_HALF, Fraction(-1, 2)) == bg_normalization(_HALF, -0.5)


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
