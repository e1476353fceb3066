import ast
import copy
import math
import pickle
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polywh
from polywh import (
    AlgebraParams,
    DomainError,
    EntireSeries,
    build_rep,
    build_truncated_rep,
    classify,
    commutator_gap,
    generalized_factorial,
    reciprocal_ells,
    structure_function,
)
from polywh.algebra import (
    IdentityDeviations,
    RepDimension,
    _ladder_rows,
    _phases,
    identity_deviations,
    ladder_table,
)

from oracles import (
    brute_factorial,
    brute_structure,
    dense_lowering,
    identity_deviations_dense,
    ladder_rows_two_temporaries,
    log_factorial_by_concatenate,
)


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


# ----------------------------------------------------------------- records

def _value_records():
    """(record, an equal record built apart from it, a record unequal to it
    in one field) for each value record."""
    return [
        (AlgebraParams(["1/2", 3], 0.25), AlgebraParams([Fraction(1, 2), "3"], 0.25),
         AlgebraParams(["1/2", 3], 0.5)),
        (RepDimension(4), RepDimension(4), RepDimension(None)),
        (IdentityDeviations(1e-16, 0.0, None),
         IdentityDeviations(product=1e-16, commutator=0.0, nilpotency=None),
         IdentityDeviations(1e-16, 0.0, 0.0)),
    ]


def test_value_records_are_equal_and_hashed_by_their_fields():
    for record, twin, other in _value_records():
        assert record == twin and not record != twin and record is not twin
        assert hash(record) == hash(twin)
        assert record != other and len({record, twin, other}) == 2
        fields = tuple(vars(record).values())
        assert record != fields and record.__eq__(fields) is NotImplemented
    assert RepDimension(None) != IdentityDeviations(None, None, None)
    assert AlgebraParams([0]) == AlgebraParams([Fraction(0)], 0)


def test_ladder_records_are_equal_only_to_themselves():
    params = AlgebraParams(["1/2"])
    rep, table = build_rep(params, 3), ladder_table(params, 3)
    assert rep == rep and rep != build_rep(params, 3) and hash(rep) == hash(rep)
    assert table == table and table != ladder_table(params, 3)


def test_records_are_frozen():
    params = AlgebraParams(["1/2"])
    records = [record for group in _value_records() for record in group]
    records += [build_rep(params, 3), ladder_table(params, 3)]
    for record in records:
        for name in (*vars(record), "other"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field {name!r}$"):
                setattr(record, name, 1)
            with pytest.raises(AttributeError, match=f"^cannot delete field {name!r}$"):
                delattr(record, name)
    assert params.phi == 0.0 and not hasattr(params, "other")


def test_value_records_keep_their_repr():
    assert repr(AlgebraParams(["1/2"])) == "AlgebraParams(kappas=(Fraction(1, 2),), phi=0.0)"
    assert repr(RepDimension(None)) == "RepDimension(d=None)"
    assert repr(RepDimension(4)) == "RepDimension(d=4)"
    assert (repr(IdentityDeviations(0.5, 0.0, None))
            == "IdentityDeviations(product=0.5, commutator=0.0, nilpotency=None)")
    rep = build_rep(AlgebraParams([-1]))
    assert repr(rep) == (
        "LadderRep(params=AlgebraParams(kappas=(Fraction(-1, 1),), phi=0.0), dim_window=2, "
        "band=array([1.+0.j]), truncation_order=None)")


def test_with_phi_reruns_the_checks():
    params = AlgebraParams(["-1/3", "2"], 0.5)
    moved = params.with_phi(1)
    assert moved == AlgebraParams(params.kappas, 1.0) and type(moved.phi) is float
    assert params.phi == 0.5 and moved is not params
    for phi in (math.inf, math.nan):
        with pytest.raises(DomainError, match="phi must be finite"):
            params.with_phi(phi)
    with pytest.raises(ValueError):
        params.with_phi("x")


def test_records_survive_copy_and_pickle():
    params = AlgebraParams(["1/2"], 0.3)
    for record in [group[0] for group in _value_records()]:
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and hash(clone) == hash(record)
            with pytest.raises(AttributeError):
                clone.other = 1
    rep = build_truncated_rep(params, 4, 2)
    for clone in (copy.copy(rep), copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
        assert (clone.params, clone.dim_window, clone.truncation_order) == (params, 4, 2)
        assert clone.band.tolist() == rep.band.tolist()
        assert clone.lowering.tolist() == rep.lowering.tolist()


def test_ladder_rep_views_build_once():
    rep = build_rep(AlgebraParams(["-1/3"], 0.7))
    lowering, raising, number = rep.lowering, rep.raising, rep.number
    assert rep.lowering is lowering and rep.raising is raising and rep.number is number
    assert lowering.shape == raising.shape == number.shape == (4, 4)
    assert np.array_equal(raising, lowering.conj().T)
    assert np.array_equal(np.diag(lowering, 1), rep.band)
    assert np.array_equal(number, np.diag(np.arange(4.0)))
    assert not (lowering.flags.writeable or raising.flags.writeable or number.flags.writeable)


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


_WIDE = st.builds(
    Fraction, st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**6)
)
_FINITE_WIDE = st.integers(min_value=1, max_value=10**6).map(lambda k: Fraction(-1, k))


@settings(max_examples=200, deadline=None)
@given(
    first=st.one_of(_WIDE, _FINITE_WIDE),
    rest=st.lists(_WIDE, max_size=2),
    n=st.integers(min_value=0, max_value=10**6),
)
def test_exact_scalars_match_brute_oracle_past_two_to_the_53(first, rest, n):
    # numerators and denominators to 1e6 and n to 1e6: F(n) prod q_i passes 2**53
    kappas = [first, *rest]
    params = AlgebraParams(kappas)
    assert structure_function(params, n) == brute_structure(kappas, n)
    assert commutator_gap(params, n) == brute_structure(kappas, n + 1) - brute_structure(kappas, n)
    dim = classify(params)
    small = min(n % 40, dim.d - 1) if dim.is_finite else n % 40
    assert generalized_factorial(params, small) == brute_factorial(kappas, small)


@settings(max_examples=100, deadline=None)
@given(
    first=st.one_of(_KAPPA, st.integers(min_value=1, max_value=600).map(lambda k: Fraction(-1, k))),
    rest=st.lists(_KAPPA, max_size=2),
    data=st.data(),
)
def test_ladder_rows_are_the_table_rows_bit_for_bit(first, rest, data):
    params = AlgebraParams([first, *rest])
    dim = classify(params)
    hi = data.draw(st.integers(min_value=1, max_value=dim.d if dim.is_finite else 600))
    lo = data.draw(st.integers(min_value=0, max_value=hi - 1))
    f, g = _ladder_rows(params, lo, hi)
    table = ladder_table(params, hi)
    assert f.tobytes() == table.f[lo:].tobytes()  # bytes: -0.0 is not 0.0
    assert g.tobytes() == table.g[lo:].tobytes()


_ROW_PARAMS = [
    ["1/3"], ["1/2", "1/5"], ["1", "1/4", "1/6"], ["7/2", "5/3", "9/4"], ["0"], ["3/7", "0"],
    ["-1"], ["-1/4"], ["-1/99", "2/3"], ["-1/600", "1/2", "5/3"],
]


@pytest.mark.parametrize("kappas", _ROW_PARAMS, ids=lambda k: ",".join(k))
def test_ladder_rows_equal_the_two_temporaries_form(kappas):
    params = AlgebraParams(kappas)
    dim = classify(params)
    top = dim.d if dim.is_finite else 50_001
    for lo, hi in [(0, 1), (0, 2), (0, top), (1, top), (top // 2, top), (top - 1, top)]:
        f, g = _ladder_rows(params, lo, hi)
        f_ref, g_ref = ladder_rows_two_temporaries(params, lo, hi)
        assert f.tobytes() == f_ref.tobytes()  # bytes: F(0) is +0.0 on a finite ladder too
        assert g.tobytes() == g_ref.tobytes()
    if dim.is_finite:
        assert _ladder_rows(params, 0, 1)[0].tobytes() == np.float64(0.0).tobytes()


_KERNEL_SIZES = (0, 1, 2, 200, 12_345, 50_001)


@pytest.mark.parametrize("kappas", _ROW_PARAMS, ids=lambda k: ",".join(k))
def test_log_factorial_equals_the_concatenated_cumsum(kappas):
    # the kernel's -1/2 log F(n)!, summed in place over the rows' F buffer
    assert_kernels_equal_the_concatenated_cumsum(AlgebraParams(kappas), _KERNEL_SIZES)


@pytest.mark.parametrize("order", ["falling", "shuffled"])
@pytest.mark.parametrize("kappas", _ROW_PARAMS, ids=lambda k: ",".join(k))
def test_log_factorial_equals_the_concatenated_cumsum_in_any_order(kappas, order):
    # each call builds its kernel from n = 0: no earlier size changes it
    sizes = sorted(_KERNEL_SIZES, reverse=True)
    if order == "shuffled":
        sizes = [12_345, 1, 50_001, 0, 200, 2]
    assert_kernels_equal_the_concatenated_cumsum(AlgebraParams(kappas), sizes)


def assert_kernels_equal_the_concatenated_cumsum(params, sizes):
    """bg_kernel for each size in turn equals the cold reference bit for
    bit, read-only; size 0 (n_max = -1) is refused by name, and a finite
    ladder first."""
    if classify(params).is_finite:
        with pytest.raises(DomainError, match="infinite ladder"):
            EntireSeries.bg_kernel(params, 1)
        return
    for size in sizes:
        if not size:
            with pytest.raises(ValueError, match="^n_max must be at least 0, got n_max = -1$"):
                EntireSeries.bg_kernel(params, -1)
            continue
        logs = EntireSeries.bg_kernel(params, size - 1).log_moduli
        expected = -0.5 * log_factorial_by_concatenate(ladder_table(params, size).f)
        assert logs.tobytes() == expected.tobytes(), size
        assert not logs.flags.writeable and not logs.base.flags.writeable, size


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
    with pytest.raises(ValueError, match="^window must be a positive integer$"):
        build_rep(AlgebraParams([0]), window=0)


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
    # the facts rep-check writes as constants: hermiticity_exact, top_level_annihilation_max_abs
    assert np.array_equal(rep.raising, rep.lowering.conj().T)
    if classify(rep.params).is_finite:
        assert not rep.raising[:, -1].any()


def test_band_nilpotency_is_exact_past_the_double_range():
    # the dense powers of this d = 200 ladder overflow and turn into NaN
    rep = build_rep(AlgebraParams(["-1/199", "1", "1"], 0.3))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(np.linalg.matrix_power(rep.lowering, 200)).any()
    assert identity_deviations(rep).nilpotency == 0.0


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(x=st.lists(_FINITE, max_size=8), phi=st.one_of(_FINITE, st.sampled_from(
    [math.inf, -math.inf, math.nan, 1e308, -1.7976931348623157e308, 1.0000000000000002])),
    first=st.integers(min_value=0, max_value=5))
def test_phases_are_the_plain_exponential_or_name_the_level(x, phi, first):
    x = np.array(x, dtype=float)
    with np.errstate(all="ignore"):
        angles = x * -phi
        expected = np.exp(1j * angles)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if np.isfinite(angles).all():
            assert _phases(x, phi, first).tobytes() == expected.tobytes()
        else:
            level = first + int(np.flatnonzero(~np.isfinite(angles))[0])
            with pytest.raises(DomainError, match=f"the phase at level n = {level} passes"):
                _phases(x, phi, first)


def test_no_module_but_algebra_reads_the_dense_views():
    # the dense m x m views are O(m^2): every other module applies the band
    names = {"lowering", "raising", "number"}
    readers = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(Path(polywh.__file__).parent.glob("*.py"))
        if path.name != "algebra.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in names
    ]
    assert readers == []


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
