import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import polywh
import polywh.cli as cli
from polywh import AlgebraParams, StateKind, bg_state, moments_for
from polywh.cli import json_text, main, state_from_payload

from oracles import json_text_by_dicts


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


def test_measure_node_outside_the_disk_is_named(capsys):
    # 21 perelomov moments at kappa = 1/2: the odd-count completion puts the
    # last Gauss node at t = 2.21561, past the disk t < 1/kappa_1 = 2
    code, out, err = run_cli(capsys, "measure", "--kappa", "1/2", "--kind", "perelomov",
                             "--levels", "21")
    assert (code, out) == (1, "")
    assert err == ("error: measure node t = 2.21561 lies outside the existence disk "
                   "t < 1/kappa_1 = 2 of the perelomov states (the moment count 21 is odd: "
                   "the last recurrence coefficient is a completion, not fixed by the "
                   "moments, and it can put the largest node at or past the rim; prefer "
                   "an even count)\n")
    assert "|z|" not in err


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


def test_an_identity_check_past_the_term_cap_names_its_node(capsys):
    # the largest of 75 Gauss nodes sits 5e-4 inside the rim t < 2
    code, out, err = run_cli(capsys, "measure", "--kappa", "1/2", "--kind", "perelomov",
                             "--levels", "150")
    assert (code, out) == (1, "")
    assert err == ("error: identity check at measure node t = 1.99949 (|z| = 1.41403): "
                   "series did not reach tail tolerance 1e-14 within 200000 terms\n")


def test_a_weight_under_the_normal_range_is_named_without_a_warning(capsys):
    # d = 100: the Christoffel sum at the largest node passes the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "measure", "--kappa", "-1/99", "--kind", "perelomov")
    assert (code, out) == (1, "")
    assert err == ("error: the Christoffel sum at measure node t = 174566 passes the double "
                   "range: its weight is below 5.56e-309, under the normal range\n")


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

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)
_ARRAYS = st.one_of(
    hnp.arrays(complex, st.integers(0, 12), elements=_COMPLEX),
    hnp.arrays(complex, st.tuples(st.integers(0, 4), st.integers(0, 4)), elements=_COMPLEX),
)


def _payload(array):
    key = "coeffs" if array.ndim == 1 else "levels"
    return {"command": "cs-test", "z": {"re": 0.5, "im": -0.0}, key: array, "after": None}


@settings(max_examples=200, deadline=None)
@given(array=_ARRAYS)
def test_json_text_equals_the_dict_dump(array):
    assert json_text(_payload(array)) == json_text_by_dicts(_payload(array))


@settings(max_examples=100, deadline=None)
@given(array=_ARRAYS.filter(lambda a: a.size > 0), data=st.data())
def test_json_text_refuses_non_finite_entries(array, data):
    array = array.copy()
    index = data.draw(st.integers(0, array.size - 1))
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    part = data.draw(st.sampled_from(["real", "imag"]))
    getattr(array.reshape(-1), part)[index] = bad
    assert not np.isfinite(array).all()
    with pytest.raises(ValueError) as expected:
        json_text_by_dicts(_payload(array))
    with pytest.raises(ValueError) as refused:
        json_text(_payload(array))
    assert str(refused.value) == str(expected.value)


def _first_call(argv):
    """stdout and exit code of `argv` in a fresh interpreter."""
    src = str(Path(polywh.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("POLYWH_TAIL_TOL", None)
    done = subprocess.run(
        [sys.executable, "-m", "polywh", *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout


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
    expected = _first_call(first)
    assert outputs == [expected, _first_call(plain), expected]
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


def test_config_lines_meet_the_requirements_and_flags_still_win(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("POLYWH_TAIL_TOL", "abc")  # read only where no --tail-tol is given
    path = _config(tmp_path, "kappa=1/2\nwindow=6\ns=2\ntail_tol=1e-8\n")
    code, out, err = run_cli(capsys, "truncate", "--config", path, "--s", "3")
    assert code == 0, err
    assert out == run_cli(capsys, "truncate", "--kappa", "1/2", "--window", "6", "--s", "3")[1]
    code, out, err = run_cli(capsys, "cs-bg", "--config", path, "--z", "0.5")
    assert code == 0, err
    assert json.loads(out)["tail_tol"] == 1e-8
