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
from polywh import AlgebraParams, StateKind, bg_state, moments_for
from polywh.cli import json_text, main, state_from_payload

from oracles import json_text_by_dicts


def run_cli(capsys, *argv):
    code = main(list(argv))
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


def test_io_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "spectrum", "--kappa", "0", "--output", str(tmp_path / "no" / "dir" / "x.json")
    )
    assert code == 2
    assert "cannot write" in err


def test_non_finite_artifact_is_refused(capsys):
    # the kappa = 0 eigenstate norm overflows past |z| ~ 27: a domain error
    # before any artifact is built (json_text refuses NaN and Infinity as well)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the overflow is silent
        code, out, err = run_cli(capsys, "cs-bg", "--kappa", "0", "--z", "30")
    assert code == 1
    assert out == ""
    assert "barut-girardello state at z = (30+0j) overflows double precision" in err


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
