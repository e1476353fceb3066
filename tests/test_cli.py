import json
import math
import warnings

import numpy as np
import pytest

from polywh import AlgebraParams, bg_state
from polywh.cli import main, state_from_payload


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
    # the kappa = 0 eigenstate norm overflows past |z| ~ 27
    code, out, err = run_cli(capsys, "cs-bg", "--kappa", "0", "--z", "30")
    assert code == 2
    assert out == ""
    assert "JSON" in err


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


def test_measure_at_64_levels_raises_no_runtime_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(
            capsys, "measure", "--kappa", "0", "--kind", "barut-girardello", "--levels", "64"
        )
    assert code == 0, err
    payload = json.loads(out)
    assert len(payload["nodes"]) == 32
    assert payload["moment_match_max_rel_err"] <= 1e-8
    assert payload["identity_deviation"] <= 1e-8
