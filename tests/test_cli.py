import argparse
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import polywh
import polywh.cli as cli
from polywh import AlgebraParams, StateKind, bg_state, moments_for
from polywh.cli import json_text, main, state_from_payload
from polywh.coherent import _bg_normalization_scaled, _ratio_sup
from polywh.errors import DomainError

from oracles import json_text_by_dicts, schwarz_grid_by_list


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of main, a usage error's SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_shows_ladder_closure(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--kappa", "-1/3", "--nmax", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 4
    row4 = payload["rows"][4]
    assert row4["F"] == "0"
    assert row4["F_float"] == 0.0
    assert payload["rows"][3]["F"] == "1"


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--kappa", "1/2", "--nmax", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,F,G,F_float,G_float"
    assert lines[1].startswith("0,0,1,")
    assert len(lines) == 4


def test_cs_bg_payload_and_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "cs-bg", "--kappa", "1/2", "--z", "1+0.5i", "--phi", "0.3", "--normalize"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["norm"] == pytest.approx(1.0, abs=1e-12)
    assert payload["eigen_residual"] <= 1e-10
    assert payload["norm_hypergeometric"] is not None
    state = state_from_payload(payload)
    rebuilt = bg_state(AlgebraParams(["1/2"], 0.3), 1 + 0.5j, normalize=True)
    assert np.max(np.abs(state.coeffs - rebuilt.coeffs)) == 0.0
    assert state.kind.value == "barut-girardello"
    assert state.params.phi == 0.3


def test_cs_perelomov_reports_exponential_residual(capsys):
    code, out, _ = run_cli(capsys, "cs-perelomov", "--kappa", "-1/4", "--z", "0.4-0.1i")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["exponential_residual"] <= 1e-10


def test_determinism_byte_identical(capsys):
    args = ("measure", "--kappa", "0", "--kind", "barut-girardello", "--levels", "8")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_domain_error_exit_code_and_message(capsys):
    code, out, err = run_cli(capsys, "cs-perelomov", "--kappa", "1/4", "--z", "2.5")
    assert code == 1
    assert out == ""
    assert "disk" in err and "1/sqrt(kappa_1)" in err
    code, _, err = run_cli(capsys, "cs-perelomov", "--kappa", "1/2,1/3", "--z", "0.1")
    assert code == 1
    assert "r = 1" in err or "r >= 2" in err


def test_measure_odd_count_on_the_disk_is_the_law_rule(capsys):
    # 21 perelomov moments at kappa = 1/2 take the law's own last recurrence
    # coefficient: the 11-node Gauss rule of the 22-level artifact, every
    # node inside the disk t < 1/kappa_1 = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = [run_cli(capsys, "measure", "--kappa", "1/2", "--kind", "perelomov",
                        "--levels", str(levels)) for levels in (21, 22)]
    assert [(code, err) for code, _, err in runs] == [(0, ""), (0, "")]
    odd, even = (json.loads(out) for _, out, _ in runs)
    assert (odd["levels"], odd["n_matched"], even["n_matched"]) == (21, 21, 22)
    assert odd["moments"] == even["moments"][:21]
    assert [t.hex() for t in odd["nodes"]] == [t.hex() for t in even["nodes"]]
    assert [w.hex() for w in odd["weights"]] == [w.hex() for w in even["weights"]]
    assert len(odd["nodes"]) == 11 and 0 < min(odd["nodes"]) and max(odd["nodes"]) < 2
    assert odd["moment_match_max_rel_err"] <= 1e-8
    assert odd["identity_deviation"] <= 1e-8


def test_io_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "spectrum", "--kappa", "0", "--output", str(tmp_path / "no" / "dir" / "x.json")
    )
    assert code == 2
    assert "cannot write" in err


def test_non_finite_artifact_is_refused(capsys):
    # the kappa = 0 eigenstate coefficients overflow past |z| ~ 37.6: a domain
    # error before any artifact is built (json_text refuses NaN and Infinity
    # as well)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the overflow is silent
        code, out, err = run_cli(capsys, "cs-bg", "--kappa", "0", "--z", "40")
    assert code == 1
    assert out == ""
    assert "barut-girardello state at z = (40+0j) overflows double precision" in err


@pytest.mark.parametrize("normalize", [[], ["--normalize"]])
def test_a_kappa0_state_whose_squared_norm_overflows_is_written(capsys, normalize):
    # |N|^2 = e^1225 passes the double range, the coefficients and |N| do not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "cs-bg", "--kappa", "0", "--z", "35", *normalize)
    assert code == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["n_terms"] > 1225
    assert payload["eigen_residual"] <= 1e-10
    assert payload["norm_hypergeometric"] == pytest.approx(math.exp(612.5), rel=1e-10)
    expected = 1.0 if normalize else payload["norm_hypergeometric"]
    assert payload["norm"] == pytest.approx(expected, rel=1e-10)


def test_a_normalization_past_the_double_range_is_named(capsys):
    # the state exists (its coefficients fit), but |N| = e^710.6 does not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "cs-bg", "--kappa", "0", "--z", "37.7", "--normalize")
    assert (code, out) == (1, "")
    assert err.startswith("error: normalization |N(z)| overflows double precision: it is about 2^")


@pytest.mark.parametrize("argv, message", [
    (("schwarz", "--kappa", "0", "--w", "0.5", "--grid-radius", "30", "--grid-points", "2"),
     "|N(z)| passes the double range at every grid point, so no excess is finite"),
    (("schwarz", "--kappa", "0", "--w", "0.5", "--grid-radius", "30", "--grid-points", "1"),
     "|N(z)| passes the double range at every grid point, so no excess is finite"),
    (("schwarz", "--kappa", "0", "--w", "0", "--grid-radius", "1e200", "--grid-points", "3"),
     None),  # |N| = inf off the centre, where the excess is 1 - 1
    (("schwarz", "--kappa", "0", "--w", "0.5", "--grid-radius", "1e200", "--grid-points", "3"),
     "Bargmann transform overflows double precision at z = -1e+200-1e+200j"),
    (("cs-bg", "--kappa", "0", "--z", "1e308"),
     "barut-girardello state at z = (1e+308+0j) overflows double precision: coefficient c_2"),
    (("cs-perelomov", "--kappa", "0", "--z", "1e200"),
     "perelomov state at z = (1e+200+0j) overflows double precision: coefficient c_2"),
    (("schwarz", "--ell", "2", "--w", "1e6"),
     "barut-girardello state at z = (1000000+0j) overflows double precision: coefficient c_66"),
    (("schwarz", "--ell", "2", "--grid-radius", "1e100"),
     "hypergeometric series did not converge"),  # its terms still grow at max_terms
    *(((*argv.split(), "--phi", "1e308"), f"phi = 1e+308: the phase at level n = {level} passes")
      for argv, level in [("rep-check --kappa 1/2 --window 5", 1),
                          ("truncate --kappa 1/2 --window 5 --s 2", 1),
                          ("cs-grassmann --kappa 0 --dim 4", 2),  # F(n) phi, F(2) = 2
                          ("cs-perelomov --kappa 1/2 --z 1", 1),
                          ("cs-bg --kappa 1/2 --z 1", 1),
                          ("schwarz --ell 2", 1)]),
])
def test_out_of_range_inputs_end_in_a_result_or_a_named_error_without_a_warning(
    capsys, argv, message
):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv)
    if message is None:
        assert code == 0, err
        assert json.loads(out, parse_constant=_reject_constant)["max_excess"] == 0.0
    else:
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")


def test_measure_writes_the_same_identity_deviation_at_every_phi(capsys):
    # |c_n| does not depend on phi: the identity check runs on the phase-free
    # ladder, so a phase past the double range is no reason to refuse it
    for argv in (["--kappa", "1/3", "--levels", "12"], ["--kappa", "1/2", "--levels", "4"]):
        deviations = set()
        for phi in ("0", "3", "1e308"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "measure", "--kind", "perelomov", *argv,
                                         "--phi", phi)
            assert code == 0, err
            deviations.add(json.loads(out, parse_constant=_reject_constant)["identity_deviation"])
        assert len(deviations) == 1, (argv, deviations)


def test_kappas_without_a_1_over_ell_form_write_a_null_normalization(capsys):
    code, out, err = run_cli(capsys, "cs-bg", "--kappa", "2/3", "--z", "1+0.5i")
    assert code == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["norm_hypergeometric"] is None
    assert payload["eigen_residual"] <= 1e-10


def test_an_identity_check_past_the_term_cap_names_its_node(capsys):
    # the largest of 75 Gauss nodes sits 5e-4 inside the rim t < 2
    code, out, err = run_cli(capsys, "measure", "--kappa", "1/2", "--kind", "perelomov",
                             "--levels", "150")
    assert (code, out) == (1, "")
    assert err == ("error: identity check at measure node t = 1.99949 (|z| = 1.41403): "
                   "series did not reach tail tolerance 1e-14 within 200000 terms\n")


_HUGE = 10**400
_SWEEP_FLAGS = {
    "spectrum": [], "rep-check": ["--window", "6"], "truncate": ["--window", "6", "--s", "3"],
    "cs-perelomov": ["--z", "0.5"], "cs-bg": ["--z", "0.5"], "cs-grassmann": ["--dim", "4"],
    "measure": ["--levels", "8"], "bargmann-growth": ["--nmax", "400"], "schwarz": [],
}
_NAMED = {  # what each exit 1 names; None: exit 0
    f"{_HUGE}": dict.fromkeys(_SWEEP_FLAGS, f"kappa = {_HUGE}")
    | {"spectrum": f"G(1) passes the double range at kappa = {_HUGE}",
       "measure": "not positive-definite: Hankel minor H_2 = -"},
    f"1/{_HUGE}": dict.fromkeys(_SWEEP_FLAGS, f"kappa = 1/{_HUGE}") | {"spectrum": None},
    f"-1/{_HUGE}": dict.fromkeys(_SWEEP_FLAGS, f"d = {_HUGE + 1}")
    | {"spectrum": None, "truncate": "infinite-dimensional parameters only",
       "cs-perelomov": f"{_HUGE + 1} ladder rows (from n = 0) are more than numpy can allocate",
       "bargmann-growth": "needs an infinite ladder", "schwarz": f"kappa = -1/{_HUGE}"},
}


@pytest.mark.parametrize("kappa", list(_NAMED))
def test_a_kappa_past_the_double_range_is_named_by_every_command(capsys, kappa):
    # numerator or denominator past the double range: every subcommand exits 0,
    # or exits 1 naming the condition; none raises out of main or warns
    for command, flags in _SWEEP_FLAGS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--kappa", kappa, *flags)
        named = _NAMED[kappa][command]
        if named is None:
            assert (code, err) == (0, ""), command
        else:
            assert (code, out) == (1, ""), command
            assert err.startswith("error: ") and named in err and err.count("\n") == 1, command


_WIDE = 10**200
_PRODUCT_SWEEP = {**_SWEEP_FLAGS, "measure --kind barut-girardello": _SWEEP_FLAGS["measure"]
                  + ["--kind", "barut-girardello"]}
_R2 = "r >= 2"  # perelomov states: refused by r before any ladder row is read
_PRODUCT_NAMED = {  # what each exit 1 names; None: exit 0
    f"{_WIDE},{_WIDE}": dict.fromkeys(_PRODUCT_SWEEP, f"kappa = {_WIDE},{_WIDE}")
    | {"cs-perelomov": _R2, "measure": _R2, "schwarz": f"kappa = {_WIDE} is not of the",
       "spectrum": f"G(1) passes the double range at kappa = {_WIDE},{_WIDE}",
       "measure --kind barut-girardello": "recurrence coefficients overflow double precision",
       "bargmann-growth": None},
    f"1/{_WIDE},1/{_WIDE}": dict.fromkeys(_PRODUCT_SWEEP, f"kappa = 1/{_WIDE},1/{_WIDE}")
    | {"cs-perelomov": _R2, "measure": _R2, "spectrum": None, "bargmann-growth": None},
}


@pytest.mark.parametrize("kappa", list(_PRODUCT_NAMED), ids=["10^200,10^200", "1/10^200,1/10^200"])
def test_kappas_whose_ladder_polynomial_passes_the_double_range_are_named(capsys, kappa):
    # each kappa fits a double, but F(n) Q, the integer ladder polynomial the
    # float rows are built from, does not (at 1/10^200 F(n) itself does);
    # bargmann-growth reads no rows, and its closed forms are null there
    # (P = 10^-400 and 10^400 pass the double range)
    for command, flags in _PRODUCT_SWEEP.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command.split()[0], "--kappa", kappa, *flags)
        named = _PRODUCT_NAMED[kappa][command]
        if named is None:
            assert (code, err) == (0, ""), command
        else:
            assert (code, out) == (1, ""), command
            assert err.startswith("error: ") and named in err and err.count("\n") == 1, command


def test_a_ratio_bound_past_the_double_range_names_kappa():
    params = AlgebraParams([_WIDE, _WIDE])
    sup = _ratio_sup(StateKind.BARUT_GIRARDELLO, params, 1.0)
    with pytest.raises(DomainError, match=rf"^kappa = {_WIDE},{_WIDE}: F\(2\) passes"):
        sup(1)


def test_a_finite_ladder_numpy_cannot_allocate_names_its_rows(capsys):
    # d = 10^15 + 1: 8 PB of float64 rows is past any 64-bit address space, so
    # numpy's allocation fails at once (MemoryError), as 10^400 + 1 rows fail
    # its size check (ValueError) in the sweep above
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "cs-perelomov", "--kappa", f"-1/{10**15}", "--z", "0.5")
    assert (code, out) == (1, "")
    assert err == f"error: {10**15 + 1} ladder rows (from n = 0) are more than numpy can allocate\n"


def test_moments_past_the_string_digit_limit_are_refused_before_the_solve(capsys, monkeypatch):
    # kappa = 1/10^150: m_30 = F(30)! has a denominator of over 4300 digits,
    # which the artifact could not print; the solve took seconds to get there
    monkeypatch.setattr(polywh.measure, "solve_measure", lambda moments: pytest.fail("solved"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "measure", "--kappa", f"1/{10**150}", "--kind",
                                 "barut-girardello", "--levels", "40")
    assert (code, out) == (1, "")
    assert err == (f"error: moment m_30 has more than {sys.get_int_max_str_digits()} digits, "
                   "the interpreter's limit for integer string conversion "
                   "(sys.get_int_max_str_digits())\n")


def test_a_weight_under_the_normal_range_is_named_without_a_warning(capsys):
    # d = 100: the Christoffel sum at the largest node passes the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "measure", "--kappa", "-1/99", "--kind", "perelomov")
    assert (code, out) == (1, "")
    assert err == ("error: the Christoffel sum at measure node t = 174566 passes the double "
                   "range: its weight is below 5.56e-309, under the normal range\n")


@pytest.mark.parametrize("kappa, levels, node", [
    ("1/2", "256", "65200.2"),
    ("1/2,1/3,1/5", "160", "4.78094e+07"),
])
def test_a_large_count_is_refused_without_the_exact_chain(capsys, monkeypatch, kappa, levels,
                                                          node):
    # the product law's rule is refused at its weight under the normal range;
    # the exact Chebyshev pass that took seconds to reach that rule never runs
    calls = []
    monkeypatch.setattr(polywh.measure, "hankel_minors", lambda values: calls.append(values))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "measure", "--kappa", kappa, "--kind",
                                 "barut-girardello", "--levels", levels)
    assert (code, out, calls) == (1, "", [])
    assert err == (f"error: the Christoffel sum at measure node t = {node} passes the double "
                   "range: its weight is below 5.56e-309, under the normal range\n")


def test_a_tiny_kappa_takes_the_law_without_the_exact_chain(capsys, monkeypatch):
    # shape 10^20: the exact chain took seconds here, and never runs now
    monkeypatch.setattr(polywh.measure, "hankel_minors",
                        lambda values: pytest.fail("the exact chain ran"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "measure", "--kappa", f"1/{10**20}", "--kind",
                                 "barut-girardello", "--levels", "64")
    assert code == 0, err
    payload = json.loads(out)
    assert len(payload["nodes"]) == 32
    assert payload["moment_match_max_rel_err"] <= 1e-13
    assert payload["identity_deviation"] <= 1e-8


def test_csv_unsupported_for_state_dump(capsys):
    code, _, err = run_cli(capsys, "cs-bg", "--kappa", "1/2", "--z", "1", "--format", "csv")
    assert code == 2
    assert "CSV" in err


def test_decimal_kappa_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--kappa", "0.333"])
    assert exc.value.code == 2


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa=-1/3\nphi=0.5\nnmax=9\n")
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg), "--nmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["kappas"] == ["-1/3"]
    assert payload["phi"] == 0.5
    assert len(payload["rows"]) == 4  # flag overrides the config nmax


def test_bad_config_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=1\n")
    code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg), "--kappa", "0")
    assert code == 2
    assert "bogus" in err


def test_ell_flag(capsys):
    code, out, _ = run_cli(capsys, "bargmann-growth", "--ell", "1,1", "--nmax", "500")
    assert code == 0
    payload = json.loads(out)
    assert payload["rho_closed"] == pytest.approx(2 / 3)
    assert payload["sigma_closed"] == pytest.approx(1.5)
    assert payload["kappas"] == ["1", "1"]


def test_growth_writes_the_closed_form_off_the_1_over_ell_family(capsys):
    code, out, _ = run_cli(capsys, "bargmann-growth", "--kappa", "2/3", "--nmax", "5000")
    assert code == 0
    payload = json.loads(out)
    assert (payload["rho_closed"], payload["sigma_closed"]) == (1.0, pytest.approx(math.sqrt(1.5)))
    assert payload["rho_rel_err"] < 1e-3 and payload["sigma_rel_err"] < 1e-2


def test_output_file_and_measure_csv(capsys, tmp_path):
    target = tmp_path / "measure.csv"
    code, out, _ = run_cli(
        capsys, "measure", "--kappa", "-1/3", "--format", "csv", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "node,weight"
    assert len(lines) == 3


def test_truncate_and_grassmann_commands(capsys):
    code, out, _ = run_cli(capsys, "truncate", "--kappa", "1/2", "--window", "7", "--s", "3")
    assert code == 0
    assert json.loads(out)["max_abs_dev_truncated_commutator"] < 1e-12
    code, out, _ = run_cli(capsys, "cs-grassmann", "--kappa", "-1/2", "--phi", "0.4")
    assert code == 0
    payload = json.loads(out)
    assert payload["eigen_residual"] <= 1e-12
    assert payload["levels"][1][1]["re"] == pytest.approx(math.cos(0.4))
    assert payload["levels"][1][1]["im"] == pytest.approx(-math.sin(0.4))


def test_schwarz_command(capsys):
    code, out, _ = run_cli(
        capsys, "schwarz", "--ell", "2", "--w", "0.5", "--grid-points", "5"
    )
    assert code == 0
    assert json.loads(out)["max_excess"] <= 1e-10


def test_schwarz_past_the_double_range_of_its_bound(capsys, monkeypatch):
    # |N|^2 = e^{|z|^2} passes the double range on most of this grid (x up to
    # 80,000 at its corners); summed again from k = 0 with rescaling, this
    # command took 47.9 s in-process
    monkeypatch.delenv("POLYWH_TAIL_TOL", raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "schwarz", "--kappa", "0", "--grid-radius", "200",
                             "--grid-points", "41", "--w", "0.5")
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    assert json.loads(out)["max_excess"] == -0.11750309741540466
    corners = np.array([200 + 200j, -200 + 200j, 200 - 200j, -200 - 200j])
    mantissa, exponent = _bg_normalization_scaled((), corners)
    half_x = np.hypot(corners.real, corners.imag) ** 2 / 2  # log |N| = x / 2 at kappa = 0
    log_n = np.log(mantissa) + exponent * math.log(2.0)
    assert (np.abs(log_n - half_x) <= 1e-13 * half_x).all(), log_n - half_x
    assert elapsed < 15.0


@pytest.mark.parametrize("points", [1, 9, 41])
@pytest.mark.parametrize("radius", ["2.0", "1.37"])
def test_schwarz_grid_equals_the_list_built_grid(capsys, monkeypatch, points, radius):
    grids, check = [], polywh.bargmann.schwarz_check

    def recorded(params, f, z_grid):
        grids.append(z_grid)
        return check(params, f, z_grid)

    monkeypatch.setattr(polywh.bargmann, "schwarz_check", recorded)
    monkeypatch.delenv("POLYWH_TAIL_TOL", raising=False)
    code, out, err = run_cli(capsys, "schwarz", "--ell", "2,3", "--w", "0.7-0.2i",
                             "--grid-radius", radius, "--grid-points", str(points))
    assert code == 0, err
    expected = schwarz_grid_by_list(float(radius), points)
    (grid,) = grids
    assert grid.shape == (points * points,)
    assert grid.tobytes() == np.array(expected).tobytes()  # bytes: -0.0 is not 0.0
    params = AlgebraParams([Fraction(1, 2), Fraction(1, 3)])
    f = bg_state(params, 0.7 - 0.2j, normalize=True).coeffs
    assert json.loads(out)["max_excess"] == check(params, f, expected)


def test_tail_tol_env_default(capsys, monkeypatch):
    monkeypatch.setenv("POLYWH_TAIL_TOL", "1e-6")
    _, out, _ = run_cli(capsys, "cs-bg", "--kappa", "1/2", "--z", "2")
    loose = json.loads(out)
    assert loose["tail_tol"] == 1e-6
    monkeypatch.delenv("POLYWH_TAIL_TOL")
    _, out, _ = run_cli(capsys, "cs-bg", "--kappa", "1/2", "--z", "2")
    tight = json.loads(out)
    assert tight["tail_tol"] == 1e-14
    assert tight["n_terms"] > loose["n_terms"]


# one in-range command per states subcommand, each at the large end of its range
_IN_RANGE = [
    ("spectrum", "--kappa", "-1/3,1/2", "--nmax", "200"),
    ("rep-check", "--kappa", "-1/199,1/3", "--phi", "0.7"),
    ("rep-check", "--kappa", "1/2", "--window", "200", "--phi", "-1.3"),
    ("truncate", "--kappa", "1/2,2/3", "--window", "120", "--s", "77"),
    ("cs-perelomov", "--kappa", "-1/199,1/5", "--z", "5-0.3i", "--phi", "2.1"),
    ("cs-perelomov", "--kappa", "1/4", "--z", "1.99i", "--normalize"),
    ("cs-bg", "--kappa", "0", "--z", "-12+16i", "--phi", "0.3"),
    ("cs-bg", "--kappa", "0", "--z", "20", "--normalize"),
    ("cs-grassmann", "--kappa", "-1/199,1/2", "--phi", "1.1"),
    ("cs-grassmann", "--kappa", "0", "--dim", "60", "--phi", "1.1"),
]


def test_measure_at_64_levels_raises_no_runtime_warning(capsys):
    """The measure solve at 64 levels, and one in-range command of every
    states subcommand, under RuntimeWarning-as-error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(
            capsys, "measure", "--kappa", "0", "--kind", "barut-girardello", "--levels", "64"
        )
        runs = [(argv, run_cli(capsys, *argv)) for argv in _IN_RANGE]
    assert code == 0, err
    payload = json.loads(out)
    assert len(payload["nodes"]) == 32
    assert payload["moment_match_max_rel_err"] <= 1e-8
    assert payload["identity_deviation"] <= 1e-8
    for argv, (code, out, err) in runs:
        assert code == 0, (argv, err)
        assert json.loads(out)["command"] == argv[0]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_measure_moments_past_the_double_range_are_null(capsys):
    code, out, err = run_cli(
        capsys, "measure", "--ell", "1,1,1", "--kind", "barut-girardello", "--levels", "64"
    )
    assert code == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    exact = moments_for(AlgebraParams([Fraction(1)] * 3), StateKind.BARUT_GIRARDELLO, count=64)
    floats = payload["moments_float"]
    assert len(floats) == 64
    assert floats[0] == 1.0 and floats[-1] is None
    for value, moment in zip(floats, exact.values):
        assert value == (float(moment) if moment < 2**1024 else None)
    assert payload["moment_match_max_rel_err"] <= 1e-8


# ----------------------------------------------------------- artifact writer

_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
    # where orjson's form and float.__repr__'s part: 1e-4 and 1e16 change form,
    # repr pads e-6 to e-9 and signs positive exponents
    1e-5, math.nextafter(1e-5, 0.0), math.nextafter(1e-5, 1.0), 9.999999999999999e-05, 1e-4,
    1e-6, 1e-9, 1e-10, 9999999999999998.0, 1e16, 1e22, -2.5e-05,
]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)
_SHAPES = st.one_of(st.just(()), st.integers(0, 12),
                    st.tuples(st.integers(0, 4), st.integers(0, 4)))
_ARRAYS = st.one_of(
    hnp.arrays(complex, _SHAPES, elements=_COMPLEX),
    hnp.arrays(np.float64, _SHAPES, elements=_FLOATS),
)


def _payload(array):
    key = "levels" if array.ndim == 2 else "coeffs" if np.iscomplexobj(array) else "nodes"
    return {"command": "cs-test", "z": {"re": 0.5, "im": -0.0}, key: array, "after": None}


def _is_complex_scalar(array):
    """A 0-d complex array, whose tolist() json.dumps refuses with a TypeError."""
    return array.ndim == 0 and np.iscomplexobj(array)


def _parses_as_dict_dump(text, payload):
    """Whether text parses to the values of `json_text_by_dicts(payload)`:
    each side parsed and dumped again, so that -0.0 and 0.0 differ, and a
    number written without its point or exponent would parse as an int."""
    return json.dumps(json.loads(text)) == json.dumps(json.loads(json_text_by_dicts(payload)))


@settings(max_examples=300, deadline=None)
@given(array=_ARRAYS)
@example(array=np.array([0.5 + 1j, -2.25 - 0.125j, 3e-4, 1e15 - 0.1j]))  # repr's forms
@example(array=np.array([[1e16 - 3j, 0.5], [-2.5e22, 7e300j]]))  # 1e16, not 1e+16
@example(array=np.array([-0.0, 1.5, 123456.789, 1e-3]))  # a real array, repr's forms
@example(array=np.array([1e16, -2.5e-7, 2.5e-05, 1e-300]))  # a real array, each form
@example(array=np.array(-2.5e-05))  # a 0-d real array: its float
@example(array=np.array(1e16 + 0j))  # a 0-d complex array: json.dumps's TypeError
def test_json_text_equals_the_dict_dump(array):
    # equal in value (`_parses_as_dict_dump`): a real array has the values of
    # its tolist(), a complex one of its dicts
    if _is_complex_scalar(array):
        for write in (json_text, json_text_by_dicts):
            with pytest.raises(TypeError, match="^Object of type complex is not JSON serial"):
                write(_payload(array))
    else:
        assert _parses_as_dict_dump(json_text(_payload(array)), _payload(array))


def test_an_empty_or_0_d_array_is_its_tolist():
    # no command writes one; each is json.dumps's text of its tolist(), and a
    # 0-d complex one is json.dumps's TypeError
    payload = {"rows": np.zeros((2, 0)), "none": np.zeros(0, complex), "x": np.array(-2.5e-05)}
    assert json_text(payload) == json.dumps(
        {"rows": [[], []], "none": [], "x": -2.5e-05}, indent=2) + "\n"
    with pytest.raises(TypeError, match="^Object of type complex is not JSON serializable$"):
        json_text({"z": np.array(1j)})


def test_a_nul_string_beside_an_array_is_refused():
    # the dump leaves each array the hole "\u0000", so a NUL string (key or
    # value) would take one; without an array the text is json.dumps's
    array = np.array([0.5, 1e16])
    for payload in ({"a": "\0", "nodes": array}, {"\0": 1, "nodes": array}):
        with pytest.raises(ValueError):
            json_text(payload)
    assert json_text({"a": "\0"}) == '{\n  "a": "\\u0000"\n}\n'


# the decades of |x| in which orjson's text of x takes one form: as it is
# (below 1e-9), e-7 for e-07, 0.000025 for 2.5e-05, as it is, e16 for e+16
_FORM_EXPONENTS = [(-330.0, -9.0), (-9.0, -5.0), (-5.0, -4.0), (-4.0, 16.0), (16.0, 308.2)]


@st.composite
def _long_arrays(draw):
    """A real or complex array of up to 2,000 entries or 6 x 300 whose
    floats take the forms in random order: each log-uniform in its form's
    decades (below 1e-324 it is 0), of either sign, about 1 in 20 an edge
    float."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 2000)),
                           st.tuples(st.integers(1, 6), st.integers(1, 300))))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = math.prod(shape) * (2 if is_complex else 1)
    low, high = np.array(_FORM_EXPONENTS).T
    form = rng.integers(0, len(_FORM_EXPONENTS), count)
    floats = 10.0 ** rng.uniform(low[form], high[form]) * rng.choice([-1.0, 1.0], count)
    edges = rng.random(count) < 0.05
    floats[edges] = rng.choice(_EDGE_FLOATS, edges.sum())
    return (floats.view(complex) if is_complex else floats).reshape(shape)


@settings(max_examples=40, deadline=None)
@given(array=_long_arrays())
def test_json_text_writes_long_arrays_of_every_form_as_the_dict_dump(array):
    assert _parses_as_dict_dump(json_text(_payload(array)), _payload(array))


def test_json_text_writes_every_power_of_ten_and_its_neighbours_as_the_dict_dump():
    # orjson's form bounds are powers of ten: each power from 1e-330 (0) to
    # 1e308 and the doubles on either side, of either sign
    powers = [float(f"1e{k}") for k in range(-330, 309)]
    values = [x for p in powers for x in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]
    real = np.array(values + [-x for x in values])
    for array in (real, real.view(complex), real.view(complex).reshape(3, -1)):
        assert _parses_as_dict_dump(json_text(_payload(array)), _payload(array))


@pytest.mark.parametrize("normalize", [[], ["--normalize"]])
def test_a_long_perelomov_edge_state_is_written_as_the_dict_dump(capsys, normalize):
    # kappa = 1/2 at rho = 1 - 10**-2.5 of the disk: over 10,000 coefficients,
    # with hundreds or thousands in each form but the largest
    argv = ["cs-perelomov", "--kappa", "1/2", "--z", repr((1 - 10**-2.5) / math.sqrt(0.5)),
            *normalize]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    args = cli._parse(argv)
    cli._complete(args)
    payload, _ = cli.cmd_cs_perelomov(args)
    assert len(payload["coeffs"]) >= 5000
    moduli = np.abs(payload["coeffs"].view(np.float64))
    assert (np.bincount(np.searchsorted([1e-9, 1e-5, 1e-4], moduli, "right")) > 500).all()
    assert _parses_as_dict_dump(out, payload)  # not ==: a failing diff of 800 KB takes minutes


def test_json_text_writes_every_float64_as_the_dict_dump():
    # 20,000 random bit patterns and every power of two (both signs), the
    # non-finite ones dropped, as a complex array of (re, im) pairs
    bits = np.random.default_rng(20260).integers(0, 2**64, 20000, dtype=np.uint64)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([bits.view(np.float64), powers, -powers])
    values = values[np.isfinite(values)]
    array = values[: values.size // 2 * 2].view(complex)
    assert _parses_as_dict_dump(json_text(_payload(array)), _payload(array))
    assert _parses_as_dict_dump(json_text(_payload(values)), _payload(values))


@settings(max_examples=100, deadline=None)
@given(array=_ARRAYS.filter(lambda a: a.size > 0 and not _is_complex_scalar(a)), data=st.data())
def test_json_text_refuses_non_finite_entries(array, data):
    array = array.copy()
    index = data.draw(st.integers(0, array.size - 1))
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    part = data.draw(st.sampled_from(["real", "imag"] if np.iscomplexobj(array) else ["real"]))
    getattr(array.reshape(-1), part)[index] = bad
    assert not np.isfinite(array).all()
    with pytest.raises(ValueError) as expected:
        json_text_by_dicts(_payload(array))
    with pytest.raises(ValueError) as refused:
        json_text(_payload(array))
    assert str(refused.value) == str(expected.value)


def test_json_text_names_the_first_non_finite_float_of_a_long_array():
    # the writer refuses a chunk at a time; the error names the first in
    # document order, as json.dumps does, wherever the chunks part
    array = np.linspace(-1.0, 1.0, 6000).view(complex)
    array[[1900, 2500]] = [complex(0.5, -math.inf), math.nan]
    with pytest.raises(ValueError) as expected:
        json_text_by_dicts(_payload(array))
    with pytest.raises(ValueError) as refused:
        json_text(_payload(array))
    assert str(refused.value) == str(expected.value) == (
        "Out of range float values are not JSON compliant: -inf")


_STREAMS_FILE = Path(__file__).resolve().parents[1] / "bench" / "streams.py"
_streams_spec = importlib.util.spec_from_file_location("streams", _STREAMS_FILE)
streams = importlib.util.module_from_spec(_streams_spec)
_streams_spec.loader.exec_module(streams)


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_the_benchmark_artifacts_parse_as_the_dict_dump(capsys, workload):
    # the first cycle of seed 1: each artifact has its payload's values, and
    # one that holds no array is json.dumps's text byte for byte
    written = arrayless = 0
    for argv in next(streams.cycles(workload, 1)):
        code, out, err = run_cli(capsys, *argv)
        if code != 0:
            continue
        args = cli._parse(cli._join_flag_values(argv))
        cli._complete(args)
        payload, _ = cli._COMMANDS[args.command](args)
        assert _parses_as_dict_dump(out, payload), argv
        if not any(isinstance(value, np.ndarray) for value in payload.values()):
            assert out == json.dumps(payload, indent=2, allow_nan=False) + "\n", argv
            arrayless += 1
        written += 1
    assert written >= 5 and (arrayless > 0) == (workload != "moments")


_TEXTS = st.one_of(st.text(), st.sampled_from(['"quoted" \\ back/slash', "\n\t\r\b\f\x00\x1f",
                                               "caf\u00e9 \u2713 \U0001d11e \ud800"]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([2**200, -(3**150)]), _TEXTS,
    _FLOATS, st.sampled_from([-0.0, 1e16, 1e-5, 5e-324]),
)
_FLAT_LISTS = st.one_of(  # lists of only floats (and None), or of only strings
    st.lists(_FLOATS), st.lists(_TEXTS), st.lists(st.one_of(_FLOATS, st.none())),
)


def _trees(leaves):
    return st.recursive(
        st.one_of(leaves, _FLAT_LISTS),
        lambda children: st.one_of(st.lists(children, max_size=4),
                                   st.dictionaries(_TEXTS, children, max_size=4)),
        max_leaves=12,
    )


@settings(max_examples=300, deadline=None)
@given(tree=st.dictionaries(_TEXTS, _trees(_SCALARS), max_size=5),
       arrays=st.lists(_ARRAYS.filter(lambda a: not _is_complex_scalar(a)), max_size=2))
def test_json_text_is_the_indented_dump(tree, arrays):
    assert json_text(tree) == json.dumps(tree, indent=2, allow_nan=False) + "\n"
    payload = {**tree, **{f"array {i}": array for i, array in enumerate(arrays)}}
    rest = {key: value for key, value in payload.items() if not isinstance(value, np.ndarray)}
    if any(a.ndim and a.size for a in arrays) and '"\\u0000"' in json.dumps(rest):
        with pytest.raises(ValueError):  # a NUL string would take an array's hole
            json_text(payload)
    else:
        assert _parses_as_dict_dump(json_text(payload), payload)


_BAD = st.sampled_from([math.nan, math.inf, -math.inf, 1j, {1}, np.int64(3), b"bytes", object()])


@settings(max_examples=300, deadline=None)
@given(tree=st.dictionaries(_TEXTS, _trees(st.one_of(_SCALARS, _BAD)), max_size=5))
def test_json_text_raises_the_dumps_error(tree):
    try:
        expected = json.dumps(tree, indent=2, allow_nan=False) + "\n"
    except (ValueError, TypeError) as exc:
        with pytest.raises(type(exc)) as raised:
            json_text(tree)
        assert str(raised.value) == str(exc)
    else:
        assert json_text(tree) == expected


def _imports(*args, **kwargs):
    """(exit code, stdout, the names of the modules imported) of
    ``python -X importtime *args`` in a fresh interpreter."""
    src = str(Path(polywh.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("POLYWH_TAIL_TOL", None)
    done = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=env, timeout=120, **kwargs)
    modules = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
               if line.startswith("import time:")}
    return done.returncode, done.stdout, modules


@pytest.mark.parametrize("argv, code", [
    (["-c", "import polywh"], 0),
    (["-m", "polywh", "--help"], 0),
    (["-m", "polywh", "spectrum", "--help"], 0),
    (["-m", "polywh", "spectrum", "--nmax", "3"], 2),
    (["-m", "polywh", "cs-bg", "--kappa", "1/2", "--z", "x"], 2),
    (["-m", "polywh", "spectrum", "--kappa", "1/2", "--config", "run.cfg"], 2),
    (["-m", "polywh", "spectrum", "--kappa", "1/2", "--config", "missing.cfg"], 2),
    (["-m", "polywh", "spectrum", "--kappa", "1/2", "--nmax", "3"], 0),
    (["-m", "polywh", "spectrum", "--kappa", "1/2", "--nmax", "3", "--format", "csv"], 0),
], ids=lambda value: " ".join(value[1:]) if isinstance(value, list) else str(value))
def test_help_usage_errors_and_spectrum_never_import_numpy(capsys, tmp_path, argv, code):
    (tmp_path / "run.cfg").write_text("bogus=1\n")
    exit_code, out, modules = _imports(*argv, cwd=tmp_path)
    assert exit_code == code
    assert "polywh" in modules
    assert not modules & {"numpy", "orjson", "dataclasses", "inspect"}
    if code == 0 and "--nmax" in argv:  # the artifact main writes in-process
        assert (0, out) == run_cli(capsys, *argv[2:])[:2]


def test_cs_bg_imports_only_the_modules_it_runs():
    code, out, modules = _imports("-m", "polywh", "cs-bg", "--kappa", "1/2", "--z", "1")
    assert code == 0 and json.loads(out)["command"] == "cs-bg"
    assert {"numpy", "orjson", "polywh.algebra", "polywh.coherent"} <= modules
    assert not modules & {"polywh.measure", "polywh.bargmann", "polywh.grassmann"}


def test_every_exported_name_resolves_on_first_access():
    script = """
import json, sys
import polywh
before = sorted(m for m in sys.modules if m.startswith("polywh."))
submodule = polywh.grassmann.__name__
names = {}
exec("from polywh import *", names)
found = {name: getattr(polywh, name) for name in polywh.__all__}
home = all(getattr(sys.modules[obj.__module__], name) is obj for name, obj in found.items())
bound = all(names[name] is obj for name, obj in found.items())
try:
    polywh.no_such_name
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([before, submodule, sorted(set(polywh.__all__) - set(dir(polywh))), home,
                  bound, "polywh.cli" in sys.modules, polywh.cli.__name__, missing]))
"""
    code, out, _ = _imports("-c", script)
    assert code == 0
    before, submodule, undir, home, bound, had_cli, cli, missing = json.loads(out)
    assert (before, submodule, undir, home, bound) == ([], "polywh.grassmann", [], True, True)
    assert (had_cli, cli) == (False, "polywh.cli")
    assert missing == "module 'polywh' has no attribute 'no_such_name'"
    assert len(polywh.__all__) == len(set(polywh.__all__)) == 38  # hyper_0f left the API


def test_repeated_main_calls_share_no_options(capsys, monkeypatch):
    monkeypatch.delenv("POLYWH_TAIL_TOL", raising=False)
    first = ["cs-bg", "--kappa", "1/2", "--z", "1+0.5i", "--phi", "0.3", "--normalize",
             "--tail-tol", "1e-8"]
    usage = ["cs-bg", "--kappa", "1/2", "--bogus"]
    plain = ["cs-bg", "--kappa", "1/2", "--z", "1+0.5i"]
    outputs = [run_cli(capsys, *first)[:2]]
    with pytest.raises(SystemExit) as exc:
        main(usage)
    assert exc.value.code == 2
    capsys.readouterr()
    outputs.append(run_cli(capsys, *plain)[:2])
    outputs.append(run_cli(capsys, *first)[:2])
    expected = _imports("-m", "polywh", *first)[:2]
    assert outputs == [expected, _imports("-m", "polywh", *plain)[:2], expected]
    normalized, unnormalized = (json.loads(out) for _, out in outputs[:2])
    assert normalized["normalized"] and not unnormalized["normalized"]
    assert (normalized["tail_tol"], unnormalized["tail_tol"]) == (1e-8, 1e-14)


# ------------------------------------------------------------ options, config

def _subcommand_actions():
    """{subcommand: its argparse actions but --help}, read from the parser."""
    subs = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    return {cmd: [a for a in p._actions if a.dest != "help"] for cmd, p in subs.choices.items()}


_COMMON = ["--kappa", "--ell", "--phi", "--config", "--output", "--format"]
_OWN_OPTIONS = {
    "spectrum": ["--nmax"],
    "rep-check": ["--window"],
    "truncate": ["--window", "--s"],
    "cs-perelomov": ["--z", "--normalize", "--tail-tol"],
    "cs-bg": ["--z", "--normalize", "--tail-tol"],
    "cs-grassmann": ["--dim"],
    "measure": ["--kind", "--levels"],
    "bargmann-growth": ["--nmax"],
    "schwarz": ["--w", "--grid-radius", "--grid-points", "--tail-tol"],
}


def test_each_subcommand_keeps_its_options():
    found = {cmd: {(opt, a.dest) for a in actions for opt in a.option_strings}
             for cmd, actions in _subcommand_actions().items()}
    assert found == {cmd: {(opt, opt[2:].replace("-", "_")) for opt in _COMMON + own}
                     for cmd, own in _OWN_OPTIONS.items()}


@pytest.mark.parametrize("value", ["-1/3", "-run.json"])
def test_every_value_option_takes_a_value_starting_with_minus(value, capsys):
    for cmd, actions in _subcommand_actions().items():
        for action in actions:
            if action.nargs == 0:  # --normalize
                continue
            argv = [cmd, action.option_strings[0], value]
            try:
                args = cli._PARSER.parse_args(cli._join_flag_values(argv))
            except SystemExit:  # a type error of the value itself is fine
                err = capsys.readouterr().err
                assert "expected one argument" not in err, argv
                assert value in err, argv
            else:
                assert getattr(args, action.dest) != action.default, argv


# the dispatch: a well-formed command line is read off its subcommand's
# actions, any other by the top-level parser
_DISPATCH = [
    ([], 2),
    (["-h"], 0),
    (["--help"], 0),
    (["bogus", "--kappa", "1/2"], 2),
    (["spectrum", "-h"], 0),
    (["cs-bg", "--kappa", "1/2", "--help"], 0),
    (["spectrum", "--kappa", "1/2", "extra"], 2),
    (["spectrum", "--kappa", "1/2", "spectrum"], 2),
    (["spectrum", "--kappa", "1/2", "--bogus"], 2),
    (["spectrum", "--kappa", "1/2", "--bogus=3"], 2),
    (["spectrum", "-x", "--kappa", "1/2"], 2),
    (["spectrum", "--kappa", "1/2", "--nm", "3"], 0),
    (["cs-bg", "--kappa", "1/2", "--nor"], 0),
    (["spectrum", "--he"], 0),
    (["spectrum", "--kappa"], 2),
    (["measure", "--kappa", "0", "--kind", "foo"], 2),
    (["spectrum", "--kappa", "0", "--ell", "2"], 2),
    (["spectrum", "--kappa", "1/2", "--", "--nmax", "3"], 2),
    (["spectrum", "--kappa", "1/2", "--"], 2),
    (["--", "spectrum", "--kappa", "1/2"], 2),
    (["spectrum", "--nmax", "3"], 2),
    (["spectrum", "--kappa", "1/2", "--config", "missing.cfg"], 2),
    (["spectrum", "--config", "good.cfg", "--nmax", "2"], 0),
    (["spectrum", "--kappa", "1/2", "--config", "bad.cfg"], 2),
    (["spectrum", "--kappa", "1/2", "--config", "unknown.cfg"], 2),
    (["cs-bg", "--kappa", "1/2", "--normalize=1"], 2),
    (["spectrum", "--kappa="], 2),
    (["spectrum", "--kappa", "1/2", "--format=xml"], 2),
    (["spectrum", "--ell", "2", "--config", "good.cfg"], 2),  # the config's kappa
    (["spectrum", "--kappa", "1/2", "--output=--"], 2),  # argparse reads no value (_complete)
]


@pytest.mark.parametrize("argv, code", _DISPATCH, ids=lambda v: (
    (" ".join(v) or "no argv") if isinstance(v, list) else str(v)))
def test_main_prints_what_the_top_level_parser_prints(capsys, monkeypatch, tmp_path, argv, code):
    # the same main with every command line read by cli._PARSER.parse_args
    # alone: equal exit code, stdout and stderr, usage and help texts included
    monkeypatch.delenv("POLYWH_TAIL_TOL", raising=False)
    monkeypatch.chdir(tmp_path)
    for name, text in (("good", "kappa=1/2\nnmax=5\n"), ("bad", "nmax=abc\n"),
                       ("unknown", "bogus=1\n")):
        (tmp_path / f"{name}.cfg").write_text(text)
    dispatched = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", cli._PARSER.parse_args)
    assert run_cli(capsys, *argv) == dispatched
    assert dispatched[0] == code


_VALUES = {  # valid values of each option, by dest
    "kappa": ["1/2", "-1/3", "0", "1/2,2"], "ell": ["2", "3,2"], "phi": ["0.3", "-0.25"],
    "config": ["run.cfg"], "output": ["out.json", "-run.json"], "format": ["json", "csv"],
    "nmax": ["0", "7"], "window": ["1", "6"], "s": ["2"], "z": ["0.5", "-1-2i"],
    "w": ["1+0.5i"], "tail_tol": ["1e-8"], "dim": ["3"], "levels": ["8"],
    "kind": ["perelomov", "barut-girardello"], "grid_radius": ["2.5", "-1"], "grid_points": ["5"],
}


@st.composite
def _valid_argv(draw):
    """A subcommand and some of its options, each given once or twice, as
    two tokens or as --flag=value, at most one of --kappa and --ell."""
    command = draw(st.sampled_from(sorted(_subcommand_actions())))
    argv, algebra = [command], set()
    for action in draw(st.lists(st.sampled_from(_subcommand_actions()[command]), max_size=6)):
        if action.dest in ("kappa", "ell"):
            algebra.add(action.dest)
            if len(algebra) > 1:
                continue
        flag = action.option_strings[0]
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            if action.nargs == 0:
                argv.append(flag)
            else:
                value = draw(st.sampled_from(_VALUES[action.dest]))
                argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_valid_argv())
def test_the_reader_reads_what_the_top_level_parser_reads(argv):
    argv = cli._join_flag_values(argv)
    assert vars(cli._parse(argv)) == vars(cli._PARSER.parse_args(argv))


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_every_benchmark_command_line_is_read_off_its_subcommands_actions(monkeypatch, workload):
    # the first cycle of seed 1: no command line reaches argparse's parse
    lines = [cli._join_flag_values(argv) for argv in next(streams.cycles(workload, 1))]
    parsed = [vars(cli._PARSER.parse_args(argv)) for argv in lines]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse read a command line")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert [vars(cli._parse(argv)) for argv in lines] == parsed


def _config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("line, flag", [("format=xml", "--format"), ("kind=foo", "--kind"),
                                        ("nmax=abc", "--nmax"), ("levels=1.5", "--levels")])
def test_bad_config_value_is_the_parsers_usage_error(capsys, tmp_path, line, flag):
    command = "spectrum" if line.startswith("nmax") else "measure"
    code, out, err = run_cli(
        capsys, command, "--kappa", "0", "--config", _config(tmp_path, line + "\n"))
    assert code == 2
    assert out == ""
    assert f"argument {flag}: invalid" in err


def test_config_values_may_start_with_minus(capsys, tmp_path):
    path = _config(tmp_path, "kappa=-1/3\nz=-1-2i\nphi=-0.25\n")
    code, out, err = run_cli(capsys, "cs-perelomov", "--config", path)
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["kappas"], payload["z"], payload["phi"]) == (
        ["-1/3"], {"re": -1.0, "im": -2.0}, -0.25)


def test_config_normalize_loses_to_the_flag_and_skips_other_commands_keys(capsys, tmp_path):
    path = _config(tmp_path, "kappa=1/2\nz=0.5\nnormalize=false\nnmax=7\nkind=perelomov\n")
    _, plain, _ = run_cli(capsys, "cs-bg", "--config", path)
    _, flagged, _ = run_cli(capsys, "cs-bg", "--config", path, "--normalize")
    assert not json.loads(plain)["normalized"]
    assert json.loads(flagged)["normalized"]
    assert flagged == run_cli(capsys, "cs-bg", "--kappa", "1/2", "--z", "0.5", "--normalize")[1]
    path = _config(tmp_path, "normalize=on\nkappa=1/2\n")
    assert json.loads(run_cli(capsys, "cs-perelomov", "--config", path)[1])["normalized"]


@pytest.mark.parametrize("argv, code, message", [
    (["schwarz", "--ell", "2", "--grid-points", "0"], 2, "argument --grid-points: must be at least 1"),
    (["spectrum", "--kappa", "0", "--nmax", "-1"], 2, "argument --nmax: must be at least 0"),
    (["spectrum", "--kappa", "0", "--nmax", "x"], 2, "argument --nmax: invalid int value: 'x'"),
    (["cs-grassmann", "--kappa", "-1/2", "--phi", "inf"], 1, "phi must be finite"),
    (["cs-bg", "--kappa", "1/2", "--z", "nan"], 1, "z must be finite"),
    (["cs-bg", "--kappa", "1/2", "--tail-tol", "-1"], 1, "tail_tol must be finite and positive"),
    (["cs-bg", "--kappa", "0", "--z", "1", "--tail-tol", "1e-170"], 1, "tail_tol must be finite"
     " and positive, at least 2**-511 = 1.49167e-154, got tail_tol = 1e-170"),
])
def test_bad_numbers_are_refused_by_name(capsys, argv, code, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_cli(capsys, *argv)
    assert result[:2] == (code, "")
    assert message in result[2]


@pytest.mark.parametrize("argv, tail_tol_env, named", [
    (["spectrum", "--kappa", "0", "--ell", "2"], None, "argument --ell: not allowed with argument --kappa"),
    (["spectrum", "--nmax", "3"], None, "one of the arguments --kappa --ell is required"),
    (["cs-bg", "--ell", ""], None, "one of the arguments --kappa --ell is required"),
    (["truncate", "--kappa", "1/2"], None, "the following arguments are required: --window, --s"),
    (["truncate", "--kappa", "1/2", "--window", "5"], None, "arguments are required: --s"),
    (["bargmann-growth", "--ell", "2", "--nmax", "-5"], None, "argument --nmax: must be at least 0"),
    (["rep-check", "--kappa", "1/2", "--window", "0"], None, "argument --window: must be at least 1"),
    (["truncate", "--kappa", "1/2", "--window", "6", "--s", "0"], None, "argument --s: must be at least 1"),
    (["cs-grassmann", "--kappa", "1/2", "--dim", "0"], None, "argument --dim: must be at least 1"),
    (["measure", "--kappa", "0", "--levels", "0"], None, "argument --levels: must be at least 1"),
    (["schwarz", "--ell", "2", "--grid-radius", "nan"], None, "argument --grid-radius: must be finite"),
    (["schwarz", "--ell", "2", "--grid-radius", "-inf"], None, "argument --grid-radius: must be finite"),
    (["cs-bg", "--kappa", "1/2"], "abc", "POLYWH_TAIL_TOL: invalid float value: 'abc'"),
    (["schwarz", "--ell", "2"], "1e-8x", "POLYWH_TAIL_TOL: invalid float value: '1e-8x'"),
])
def test_usage_errors_exit_2_and_name_the_flag(capsys, monkeypatch, argv, tail_tol_env, named):
    if tail_tol_env is None:
        monkeypatch.delenv("POLYWH_TAIL_TOL", raising=False)
    else:
        monkeypatch.setenv("POLYWH_TAIL_TOL", tail_tol_env)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_cli(capsys, *argv)
    assert result[:2] == (2, "")
    assert named in result[2]


_BASE = {"truncate": {"--kappa": "1/2", "--window": "4", "--s": "2"}}  # else --kappa 1/2


@pytest.mark.parametrize("form", ["--F --", "--F=--", "--F="])
def test_a_flag_without_a_value_is_a_usage_error(capsys, monkeypatch, tmp_path, form):
    # argparse reads --F -- and --F=-- as the list of no values: --output
    # and --format were dropped, --z, --nmax and --kind died on the list
    monkeypatch.chdir(tmp_path)
    for command, actions in _subcommand_actions().items():
        for action in actions:
            flag = action.option_strings[0]
            if action.nargs == 0 or form == "--F=" and flag not in ("--output", "--config"):
                continue
            base = dict(_BASE.get(command, {"--kappa": "1/2"}))
            base.pop("--kappa" if flag == "--ell" else flag, None)  # --ell excludes --kappa
            argv = [command, *itertools.chain(*base.items()), *form.replace("--F", flag).split()]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert f"error: argument {flag}: expected one argument" in err, argv
    assert list(tmp_path.iterdir()) == []


_DISK = "z lies outside the existence disk: need |z| < 1/sqrt(kappa_1) = 1.41421, got |z| = 1.41421"
_R1 = ("perelomov-type states on an infinite ladder exist only for r = 1 (the series cannot be "
       "normalized for r >= 2); got r = 2")
_NO_BG = "no lowering-operator eigenstate exists for complex z on a finite ladder (d = {})"


@pytest.mark.parametrize("argv, code, named", [
    ("schwarz --ell 2 --grid-radius 1e308 --grid-points 3", 2,
     "argument --grid-radius: half-width 1e+308: the span 2R of the grid [-R, R] passes"),
    ("schwarz --ell 2 --grid-radius 8.9e307 --grid-points 3", 1,
     "error: Bargmann transform overflows double precision at z = -8.9e+307-8.9e+307j\n"),
    ("cs-perelomov --kappa 1/2 --z inf", 1, "error: z must be finite, got z = (inf+0j)\n"),
    ("cs-bg --kappa 1/2 --z -inf", 1, "error: z must be finite, got z = (-inf+0j)\n"),
    ("cs-bg --kappa 1/2 --z 1+infi", 1, "error: z must be finite, got z = (1+infj)\n"),
    ("schwarz --ell 2 --w -infi", 1, "error: z must be finite, got z = -infj\n"),
    ("cs-bg --kappa -1/3 --z 1", 1, _NO_BG.format(4)),
    ("cs-perelomov --kappa 1/2,1/3 --z 0.1", 1, _R1),
    ("cs-perelomov --kappa 1/2 --z 1.4142135623730951", 1, _DISK),
    ("measure --kappa -1/9 --kind barut-girardello", 1, _NO_BG.format(10)),
    ("measure --kappa 1/2,1/3 --levels 6", 1, _R1),
])
def test_the_exit_code_contract_holds_with_warnings_as_errors(capsys, argv, code, named):
    # 0 or 1 from main, or a usage error's exit 2; nothing raises out of it,
    # and no refusal names a NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli(capsys, *argv.split())
    assert result[:2] == (code, "")
    assert named in result[2] and "nan" not in result[2]


def test_an_artifact_is_the_same_on_one_and_two_blas_threads():
    # 10,046 coefficients: np.linalg.norm's dot, which OpenBLAS splits across
    # threads from 10,001 entries on, summed this norm to another last bit on
    # two threads, and with it every normalized coefficient
    argv = ["cs-perelomov", "--kappa", "1/5", "--z", "0.19346390978783098+2.2188966654245887i",
            "--phi", "-0.615712", "--normalize"]
    src = str(Path(polywh.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env.pop("POLYWH_TAIL_TOL", None)
        done = subprocess.run([sys.executable, "-m", "polywh", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        outputs.append(done.stdout)
    assert '"n_terms": 10046' in outputs[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    "schwarz --ell 2 --grid-points 1000000",  # a 14.6 TiB grid
    "cs-grassmann --kappa 0 --dim 100000",  # a 149 GiB levels matrix
])
def test_an_allocation_numpy_refuses_is_an_error_line(argv):
    # under a 4 GiB address-space limit numpy refuses the array at once
    limited = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
               "from polywh.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(polywh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", limited, *argv.split()], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: Unable to allocate ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("text, value", [
    ("1-2i", 1 - 2j), ("i", 1j), ("2.5i", 2.5j), ("0.4-0.1i", 0.4 - 0.1j), ("(1+2i)", 1 + 2j),
    ("inf", complex(math.inf, 0.0)), ("-inf", complex(-math.inf, 0.0)),
    ("1+infi", complex(1.0, math.inf)), ("nan", complex(math.nan, 0.0)),
])
def test_a_trailing_i_is_the_imaginary_unit(text, value):
    assert repr(cli.parse_complex(text)) == repr(value)  # repr: nan and -0.0 too


def test_config_lines_meet_the_requirements_and_flags_still_win(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("POLYWH_TAIL_TOL", "abc")  # read only where no --tail-tol is given
    path = _config(tmp_path, "kappa=1/2\nwindow=6\ns=2\ntail_tol=1e-8\n")
    code, out, err = run_cli(capsys, "truncate", "--config", path, "--s", "3")
    assert code == 0, err
    assert out == run_cli(capsys, "truncate", "--kappa", "1/2", "--window", "6", "--s", "3")[1]
    code, out, err = run_cli(capsys, "cs-bg", "--config", path, "--z", "0.5")
    assert code == 0, err
    assert json.loads(out)["tail_tol"] == 1e-8
