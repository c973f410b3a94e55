"""CLI behavior: wrapper purity, exit codes, CSV schema, config validation."""

import csv
import io
import math

import numpy as np
import pytest

from svrisk import (
    HsvrProblem,
    QuadratureSpec,
    delta_star,
    generate_dataset,
    hsvr_risk,
    scale_mixture,
    standard_gaussian,
)
from svrisk import cli
from svrisk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDeltaStarCommand:
    def test_zero_eps(self, capsys):
        code, out, _ = run_cli(capsys, "delta-star", "--eps", "0", "--sigma", "1")
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0, abs=1e-6)

    def test_nan_input_usage_error(self, capsys):
        for argv in (("--eps", "nan"), ("--eps", "1", "--sigma", "nan")):
            code, out, _ = run_cli(capsys, "delta-star", *argv)
            assert code == 1, argv
            assert out == ""

    def test_scale_invariant_outputs_identical(self, capsys):
        _, out_a, _ = run_cli(capsys, "delta-star", "--eps", "0.1", "--sigma", "0.1")
        _, out_b, _ = run_cli(capsys, "delta-star", "--eps", "0.2", "--sigma", "0.2")
        assert out_a == out_b

    def test_wrapper_identity(self, capsys):
        code, out, _ = run_cli(capsys, "delta-star", "--eps", "1", "--sigma", "1",
                               "--noise", "gaussian")
        assert code == 0
        lib = delta_star(1.0, 1.0, standard_gaussian())
        assert float(out.strip()) == pytest.approx(lib, rel=1e-8)


class TestRiskCommand:
    def test_hsvr_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "risk", "hsvr", "--delta", "1",
                               "--sigma", "0.5", "--beta", "1", "--eps", "0.4")
        assert code == 0
        risk = float(out.splitlines()[0].split()[1])
        assert risk == pytest.approx(0.43336, rel=5e-3)
        lib = hsvr_risk(HsvrProblem(1.0, 0.5, 1.0, 0.4, standard_gaussian()))
        assert risk == pytest.approx(lib.risk, rel=1e-9)

    def test_infeasible_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "risk", "hsvr", "--delta", "10",
                               "--sigma", "1", "--beta", "1", "--eps", "0.1")
        assert code == 2
        assert "infeasible" in out

    def test_ssvr_null_limit(self, capsys):
        code, out, _ = run_cli(capsys, "risk", "ssvr", "--delta", "1e-4",
                               "--sigma", "1", "--beta", "1", "--eps", "0.6",
                               "--cost", "2.4")
        assert code == 0
        risk = float(out.splitlines()[0].split()[1])
        assert risk == pytest.approx(1.0, rel=1e-2)

    def test_non_finite_input_usage_error(self, capsys):
        for argv in (("hsvr", "--delta", "nan", "--eps", "1"),
                     ("ssvr", "--delta", "nan", "--eps", "1", "--cost", "1"),
                     ("hsvr", "--delta", "1", "--eps", "inf")):
            code, out, err = run_cli(capsys, "risk", *argv)
            assert code == 1, argv
            assert out == ""
            assert "must be finite" in err

    def test_missing_flag_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "risk", "hsvr", "--delta", "1")
        assert code == 1
        assert "eps" in err


class TestTuneCommand:
    def test_hsvr_tuning_output(self, capsys):
        code, out, _ = run_cli(capsys, "tune", "hsvr", "--delta", "0.5",
                               "--sigma", "1", "--beta", "1")
        assert code == 0
        lines = dict(l.split() for l in out.splitlines())
        assert float(lines["risk_opt"]) < 1.0  # beats the null estimator
        assert float(lines["eps_opt"]) > 0.0


class TestSolveCommand:
    def test_hard_solve(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "hsvr", "--delta", "0.5",
                               "--eps", "0.2", "--sigma", "0.3", "--p", "40",
                               "--seed", "3")
        assert code == 0
        assert "status converged" in out

    def test_ridge_solve(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "ridge", "--delta", "2.0",
                               "--sigma", "0.5", "--p", "50", "--seed", "1")
        assert code == 0
        assert "risk" in out


class TestEstimateCommand:
    def _write_csv(self, tmp_path, p, delta, sigma, seed=0):
        data = generate_dataset(p, delta, 1.0, sigma, standard_gaussian(), seed=seed)
        path = tmp_path / "data.csv"
        header = "y," + ",".join(f"x{i+1}" for i in range(p))
        table = np.column_stack([data.responses, data.features.T])
        np.savetxt(path, table, delimiter=",", header=header, comments="")
        return path

    def test_noiseless(self, capsys, tmp_path):
        path = self._write_csv(tmp_path, p=30, delta=2.0, sigma=0.0)
        code, out, _ = run_cli(capsys, "estimate", str(path))
        assert code == 0
        sigma2 = float(out.splitlines()[0].split()[1])
        assert sigma2 <= 1e-10

    def test_estimates_match_truth(self, capsys, tmp_path):
        path = self._write_csv(tmp_path, p=150, delta=3.0, sigma=1.0, seed=5)
        code, out, _ = run_cli(capsys, "estimate", str(path))
        assert code == 0
        sigma2 = float(out.splitlines()[0].split()[1])
        beta2 = float(out.splitlines()[1].split()[1])
        assert sigma2 == pytest.approx(1.0, rel=0.25)
        assert beta2 == pytest.approx(1.0, rel=0.25)

    def test_underdetermined_exit_2(self, capsys, tmp_path):
        path = self._write_csv(tmp_path, p=30, delta=0.5, sigma=1.0)
        code, out, _ = run_cli(capsys, "estimate", str(path))
        assert code == 2


class TestSweepCommand:
    ARGS = ("sweep", "null", "--swept", "delta", "--grid", "0.5 1.0",
            "--sigma", "1", "--beta", "1", "--eps", "0.5",
            "--p", "10", "--trials", "2")

    def test_csv_schema_and_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, *self.ARGS, "--output", str(out_path))
        assert code == 0
        text = out_path.read_text()
        body = [l for l in text.splitlines() if not l.startswith("#")]
        rows = list(csv.reader(io.StringIO("\n".join(body))))
        assert rows[0] == ["swept_value", "theory_risk", "theory_cosine",
                           "mean_risk", "stderr_risk", "mean_cosine",
                           "feasibility_rate", "trials_used"]
        assert len(rows) == 3
        assert float(rows[1][3]) == pytest.approx(1.0)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *self.ARGS, "--output", str(a))
        run_cli(capsys, *self.ARGS, "--output", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestFigureCommand:
    def test_figure_1_columns(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run_cli(capsys, "figure", "1", "--grid", "0.2 0.5",
                             "--output", str(out_path))
        assert code == 0
        body = [l for l in out_path.read_text().splitlines()
                if not l.startswith("#")]
        header = body[0].split(",")
        assert header[0] == "eps"
        assert header[1:] == ["delta_star_sigma0.1", "delta_star_sigma0.2",
                              "delta_star_sigma0.5", "delta_star_sigma1.0"]
        assert len(body) == 3

    def test_unknown_id_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "figure", "9z")
        assert code == 1
        assert "unknown figure id" in err

    def test_figure_4_theory_columns(self, capsys, tmp_path):
        out_path = tmp_path / "fig4.csv"
        code, _, _ = run_cli(capsys, "figure", "4", "--grid", "0.5",
                             "--output", str(out_path))
        assert code == 0
        body = [l for l in out_path.read_text().splitlines()
                if not l.startswith("#")]
        assert body[0] == "delta,risk_eps1.0,risk_eps1.2,risk_eps1.5,risk_opt"


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[problem]\neps = 0.5\nsigma = 1.0\n")
        code, out, _ = run_cli(capsys, "delta-star", "--config", str(cfg))
        assert code == 0
        want = delta_star(0.5, 1.0, standard_gaussian())
        assert float(out.strip()) == pytest.approx(want, rel=1e-8)
        code, out, _ = run_cli(capsys, "delta-star", "--config", str(cfg),
                               "--eps", "0")
        assert float(out.strip()) == pytest.approx(1.0, abs=1e-6)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        # [quadrature] takes abs_tol only; the sweep's estimator, swept
        # variable and theory switch are flags only
        for text in ("[problem]\nepsilon = 0.5\n",
                     "[quadrature]\ngauss_nodes_g = 64\n",
                     "[quadrature]\nmixture_nodes = 20\n",
                     "[sweep]\nestimator = hsvr\n",
                     "[sweep]\nswept = delta\n",
                     "[sweep]\ntheory = false\n"):
            cfg.write_text(text)
            code, _, err = run_cli(capsys, "delta-star", "--config", str(cfg),
                                   "--eps", "1")
            assert code == 1
            assert "unknown config key" in err
        cfg.write_text("[output]\npath = wanted.csv\n")
        code, _, err = run_cli(capsys, "delta-star", "--config", str(cfg), "--eps", "1")
        assert code == 1
        assert "unknown config section [output]" in err

    def test_abs_tol_reaches_the_solver(self, capsys, tmp_path, monkeypatch):
        seen = []

        def recording_delta_star(eps, sigma, noise, quad):
            seen.append(quad)
            return delta_star(eps, sigma, noise, quad)

        monkeypatch.setattr(cli, "delta_star", recording_delta_star)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[quadrature]\nabs_tol = 1e-12\n")
        code, out, _ = run_cli(capsys, "delta-star", "--config", str(cfg),
                               "--eps", "0.8", "--noise", "mixture", "--dof", "3")
        assert code == 0
        assert seen == [QuadratureSpec(abs_tol=1e-12)]
        want = delta_star(0.8, 1.0, scale_mixture(3.0), QuadratureSpec(abs_tol=1e-12))
        assert out.strip() == f"{want:.9g}"

    def test_missing_config_rejected(self, capsys):
        code, _, err = run_cli(capsys, "delta-star", "--eps", "1",
                               "--config", "/nonexistent.ini")
        assert code == 1


class TestFormatting:
    def test_nine_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "delta-star", "--eps", "1", "--sigma", "1")
        digits = out.strip().replace(".", "").lstrip("0")
        assert len(digits) == 9
