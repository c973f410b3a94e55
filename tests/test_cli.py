"""CLI behavior: wrapper purity, exit codes, CSV schema, argument files."""

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svrisk import (
    HsvrProblem,
    delta_star,
    generate_dataset,
    hsvr_risk,
    standard_gaussian,
)
from svrisk import SolverConfig, asymptotics, montecarlo
from svrisk.cli import fmt, main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
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

    def test_takes_no_beta(self, capsys):
        code, out, err = run_cli(capsys, "delta-star", "--eps", "1", "--beta", "2")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --beta 2" in err

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

    def test_large_signal_to_noise_certified_or_exit_2(self, capsys, monkeypatch):
        argv = ("risk", "hsvr", "--delta", "2", "--sigma", "1e-4", "--eps", "0.6")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert float(out.splitlines()[0].split()[1]) == pytest.approx(0.2890624, rel=1e-6)
        monkeypatch.setattr(asymptotics, "_HSVR_MAX_ITER", 1)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "did not converge" in err


class TestTuneCommand:
    def test_hsvr_tuning_output(self, capsys):
        code, out, _ = run_cli(capsys, "tune", "hsvr", "--delta", "0.5",
                               "--sigma", "1", "--beta", "1")
        assert code == 0
        lines = dict(l.split() for l in out.splitlines())
        assert float(lines["risk_opt"]) < 1.0  # beats the null estimator
        assert float(lines["eps_opt"]) > 0.0


    def test_non_finite_delta_usage_error(self, capsys):
        for estimator in ("hsvr", "ssvr"):
            for bad in ("inf", "nan", "0"):
                code, out, err = run_cli(capsys, "tune", estimator, "--delta", bad)
                assert code == 1
                assert out == ""
                assert "delta must be finite" in err


class TestSolveCommand:
    def test_hard_solve(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "hsvr", "--delta", "0.5",
                               "--eps", "0.2", "--sigma", "0.3", "--p", "40",
                               "--seed", "3")
        assert code == 0
        assert "status converged" in out

    def test_non_finite_input_usage_error(self, capsys):
        for argv in (("hsvr", "--eps", "nan"),
                     ("ssvr", "--eps", "0.5", "--cost", "nan")):
            code, out, err = run_cli(capsys, "solve", *argv, "--delta", "0.5",
                                     "--p", "10")
            assert code == 1, argv
            assert out == ""
            assert "must be finite" in err

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

    def test_malformed_table_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [f"{i},{i % 3},{i * i % 5}" for i in range(8)]
        for text, message in (
                ("y,x1\n" + "\n".join(rows) + "\n", "header names 2"),
                ("y,x1\n1,2\nnan,3\n4,5\n5,1\n", "non-finite"),
                ("y,x1\n", "no data rows")):
            path.write_text(text)
            code, out, err = run_cli(capsys, "estimate", str(path))
            assert code == 1, text
            assert out == ""
            assert message in err

    def test_takes_no_problem_flags(self, capsys, tmp_path):
        path = self._write_csv(tmp_path, p=5, delta=3.0, sigma=1.0)
        code, out, err = run_cli(capsys, "estimate", str(path), "--sigma", "2")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --sigma 2" in err


class TestSweepCommand:
    ARGS = ("sweep", "null", "--swept", "delta", "--grid", "0.5 1.0",
            "--sigma", "1", "--beta", "1", "--p", "10", "--trials", "2")

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

    def test_byte_identical_reruns(self, capsys, tmp_path, monkeypatch):
        # the same command line in two directories: the "# command" line
        # records the output path as given
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            run_cli(capsys, *self.ARGS, "--output", "out.csv")
        a, b = tmp_path / "a" / "out.csv", tmp_path / "b" / "out.csv"
        assert a.read_bytes() == b.read_bytes()

    def test_unconverged_fits_flagged_in_metadata(self, capsys, monkeypatch):
        _, out, _ = run_cli(capsys, *self.ARGS)
        assert "unconverged" not in out
        real = montecarlo.solve_soft_svr

        def stopped(data, eps, cost):
            return real(data, eps, cost, SolverConfig(max_iters=5))

        monkeypatch.setattr(montecarlo, "solve_soft_svr", stopped)
        code, out, _ = run_cli(capsys, "sweep", "ssvr", "--swept", "cost",
                               "--grid", "1 2", "--delta", "2", "--eps", "0.5",
                               "--p", "10", "--trials", "2", "--no-theory")
        assert code == 0
        assert "# unconverged=4\n" in out
        code, out, _ = run_cli(capsys, "figure", "5b", "--grid", "1",
                               "--p", "10", "--trials", "3", "--output", "-")
        assert code == 0
        assert "# unconverged=3\n" in out

    def test_worst_gap_flagged_only_above_tol(self, capsys, monkeypatch):
        argv = ("sweep", "ssvr", "--swept", "cost", "--grid", "1 2", "--delta", "2",
                "--eps", "0.5", "--p", "10", "--trials", "2", "--no-theory")
        _, out, _ = run_cli(capsys, *argv)
        assert "worst_gap" not in out
        real = montecarlo.solve_soft_svr

        def loose(data, eps, cost):
            return real(data, eps, cost, SolverConfig(tol=1e-3))

        monkeypatch.setattr(montecarlo, "solve_soft_svr", loose)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("# worst_gap=")]
        assert len(line) == 1 and 1e-8 < float(line[0].split("=")[1]) <= 1e-3


class TestFigureCommand:
    @pytest.mark.parametrize("fid, grid, points", [
        ("2", "0.5", [("hsvr", {"delta": 0.5, "sigma": 1.0, "beta": b, "eps": 1.0})
                      for b in (0.5, 1.0, 2.0)]),
        ("3b", "0.2 0.5", [("hsvr", {"delta": 1.4, "sigma": s, "beta": 1.0, "eps": e})
                           for e in (0.2, 0.5) for s in (0.5, 0.2)]),
        ("5b", "0.5 2 10", [("ssvr", {"delta": 2.0, "sigma": 1.0, "beta": 1.0,
                                      "eps": 0.6, "cost": c}) for c in (0.5, 2.0, 10.0)]),
    ])
    def test_empirical_columns_equal_one_point_sweeps(self, capsys, fid, grid, points):
        # the figure walks its points in path order on shared designs; each
        # (emp_risk, emp_stderr) pair, in column order, is the one-point
        # sweep's over delta with the figure's seeds
        code, out, _ = run_cli(capsys, "figure", fid, "--grid", grid, "--p", "40",
                               "--trials", "3", "-o", "-")
        assert code == 0
        rows = list(csv.reader(l for l in out.splitlines() if not l.startswith("#")))
        header, body = rows[0], rows[1:]
        got = [(row[i], row[i + 1]) for row in body
               for i, name in enumerate(header) if name.startswith("emp_risk")]
        want = []
        for estimator, params in points:
            fixed = {k: v for k, v in params.items() if k != "delta"}
            spec = montecarlo.SweepSpec(estimator, "delta", (params["delta"],), fixed,
                                        p=40, trials=3, theory=False)
            r = montecarlo.run_sweep(spec)[0]
            want.append((fmt(r.mean_risk), fmt(r.stderr_risk)))
        assert got == want  # no cell differs at these settings

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

    def test_takes_no_problem_flags(self, capsys):
        # the presets fix their noise and parameters
        code, out, err = run_cli(capsys, "figure", "2", "--noise", "mixture",
                                 "--dof", "3", "--grid", "0.5", "--p", "20",
                                 "--trials", "1", "--output", "-")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    def test_config_problem_section_rejected(self, capsys, tmp_path):
        # the presets fix their noise and parameters, so an argument file
        # naming one exits 1; one naming a table flag is read
        args = tmp_path / "fig.args"
        argv = ("figure", "2", "--grid", "0.5", "--p", "20", "--trials", "1",
                f"@{args}", "--output", "-")
        args.write_text("--noise mixture --dof 3\n--sigma 7 --beta 9\n")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --noise mixture --dof 3 --sigma 7 --beta 9" in err
        args.write_text('--grid "0.3 0.6"  # after the flag, so it wins\n--base-seed 3\n')
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "base_seed=3" in out
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert [float(r.split(",")[0]) for r in rows] == [0.3, 0.6]

    def test_command_line_recorded_from_parsed_argv(self, capsys):
        # main([...]) called in-process records its own argv, not the
        # interpreter's
        argv = ("figure", "2", "--grid", "0.5", "--p", "20", "--trials", "1",
                "--output", "-")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1] == "# command " + " ".join(argv)

    def test_figure_4_theory_columns(self, capsys, tmp_path):
        out_path = tmp_path / "fig4.csv"
        code, _, _ = run_cli(capsys, "figure", "4", "--grid", "0.5",
                             "--output", str(out_path))
        assert code == 0
        body = [l for l in out_path.read_text().splitlines()
                if not l.startswith("#")]
        assert body[0] == "delta,risk_eps1.0,risk_eps1.2,risk_eps1.5,risk_opt"


class TestRepeatedMain:
    def test_one_process_prints_what_fresh_processes_print(self, capsys, tmp_path,
                                                             monkeypatch):
        # the parser is built once per process; every call must still parse
        # from scratch, @FILE and errors included
        (tmp_path / "sweep.args").write_text(
            'sweep null --swept delta --grid "0.5 1"\n--p 10 --trials 2 -o -\n')
        commands = [
            ("delta-star", "--eps", "0.5"),
            ("risk", "hsvr", "--delta", "1.5", "--eps", "1"),
            ("@sweep.args",),
            ("figure", "1", "--grid", "0.5", "-o", "-"),
            ("solve", "hsvr", "--delta", "0.5", "--eps", "0.2", "--lam", "1"),
            ("risk", "hsvr", "--delta", "1"),
            ("sweep", "null", "--swept", "delta", "--grid", "0.5", "--bogus"),
            ("delta-star", "--eps", "0.5", "--sigma", "2"),
        ]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH", "")])}
        monkeypatch.chdir(tmp_path)
        codes = set()
        for argv in commands:
            fresh = subprocess.run([sys.executable, "-m", "svrisk.cli", *argv],
                                   capture_output=True, text=True, env=env,
                                   cwd=tmp_path)
            got = run_cli(capsys, *argv)
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.add(got[0])
        assert codes == {0, 1}


class TestConfigFile:
    """An argument file (@FILE) supplies flags, split as a shell splits."""

    def test_flags_override_config(self, capsys, tmp_path):
        args = tmp_path / "run.args"
        args.write_text("# delta-star at eps = 0.5\n--eps 0.5\n\n--sigma 1.0\n")
        code, out, _ = run_cli(capsys, "delta-star", f"@{args}")
        assert code == 0
        want = delta_star(0.5, 1.0, standard_gaussian())
        assert float(out.strip()) == pytest.approx(want, rel=1e-8)
        code, out, _ = run_cli(capsys, "delta-star", f"@{args}", "--eps", "0")
        assert float(out.strip()) == pytest.approx(1.0, abs=1e-6)
        # a flag before the file is overridden by it
        code, out, _ = run_cli(capsys, "delta-star", "--eps", "0", f"@{args}")
        assert float(out.strip()) == pytest.approx(want, rel=1e-8)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        args = tmp_path / "run.args"
        # the sweep's estimator and swept variable are positional or
        # required flags; there is no theory or output-path setting to
        # name, and an INI file is not an argument file
        for text, bad in (("--epsilon 0.5", "--epsilon 0.5"),
                          ("--estimator hsvr", "--estimator hsvr"),
                          ("--theory false", "--theory false"),
                          ("--path wanted.csv", "--path wanted.csv"),
                          ("[problem]\neps = 0.5\n", "[problem] eps = 0.5")):
            args.write_text(text)
            code, out, err = run_cli(capsys, "delta-star", "--eps", "1", f"@{args}")
            assert code == 1, text
            assert out == ""
            assert f"unrecognized arguments: {bad}" in err

    def test_quadrature_section_rejected(self, capsys, tmp_path):
        # the mixture rule's accuracy is fixed, so no subcommand takes one
        args = tmp_path / "run.args"
        args.write_text("--abs-tol 1e-12\n")
        for command in (("delta-star", "--eps", "0.8", "--noise", "mixture", "--dof", "3"),
                        ("risk", "hsvr", "--delta", "0.5", "--eps", "1"),
                        ("tune", "hsvr", "--delta", "0.5"),
                        ("sweep", "null", "--swept", "delta", "--grid", "0.5",
                         "--p", "10", "--trials", "1", "--output", "-"),
                        ("figure", "1", "--grid", "0.5", "--output", "-")):
            code, out, err = run_cli(capsys, *command, f"@{args}")
            assert code == 1
            assert out == ""
            assert "unrecognized arguments: --abs-tol 1e-12" in err

    def test_keys_a_subcommand_ignores_rejected(self, capsys, tmp_path):
        args = tmp_path / "run.args"
        for command, text, message in (
                (("tune", "hsvr", "--delta", "2"), "--eps 0.5",
                 "unrecognized arguments: --eps 0.5"),
                (("delta-star", "--eps", "1"), "--delta 2",
                 "unrecognized arguments: --delta 2"),
                (("risk", "hsvr", "--delta", "0.5", "--eps", "1"), "--trials 3",
                 "unrecognized arguments: --trials 3"),
                (("solve", "hsvr", "--delta", "0.5", "--eps", "1", "--p", "10"),
                 "--base-seed 20", "unrecognized arguments: --base-seed 20"),
                (("risk", "hsvr", "--delta", "0.5", "--eps", "1"), "--cost 7",
                 "svrisk risk hsvr reads no --cost")):
            args.write_text(text)
            code, out, err = run_cli(capsys, *command, f"@{args}")
            assert code == 1, command
            assert out == ""
            assert message in err

    def test_missing_config_rejected(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "delta-star", "--eps", "1",
                                 f"@{tmp_path / 'missing.args'}")
        assert code == 1
        assert out == ""
        assert "missing.args" in err


class TestIgnoredFlagsRejected:
    """A flag that would change nothing exits 1 instead of reaching a
    '# command' line."""

    SWEEP = ("sweep", "hsvr", "--swept", "delta", "--grid", "0.5", "--p", "20",
             "--trials", "1", "--output", "-")

    def test_dof_without_mixture(self, capsys):
        for argv in (("delta-star", "--eps", "1", "--dof", "3"),
                     ("tune", "hsvr", "--delta", "2", "--dof", "3"),
                     (*self.SWEEP, "--eps", "1", "--dof", "3")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert out == ""
            assert "--dof applies only to --noise mixture" in err

    def test_flags_the_estimator_does_not_read(self, capsys):
        for argv, flag in ((("risk", "hsvr", "--delta", "1", "--eps", "1",
                             "--cost", "7"), "--cost"),
                           (("solve", "hsvr", "--delta", "0.5", "--eps", "1",
                             "--lam", "3", "--p", "10"), "--lam"),
                           (("solve", "ridge", "--delta", "2", "--eps", "1",
                             "--p", "10"), "--eps"),
                           (("solve", "ridge", "--delta", "2", "--cost", "5",
                             "--p", "10"), "--cost"),
                           ((*self.SWEEP, "--eps", "1", "--cost", "9"), "--cost"),
                           (("sweep", "null", "--swept", "delta", "--grid", "0.5",
                             "--eps", "1", "--output", "-"), "--eps")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert out == ""
            assert f"reads no {flag}" in err

    def test_swept_parameter_not_a_flag(self, capsys):
        code, out, err = run_cli(capsys, *self.SWEEP, "--eps", "1", "--delta", "3")
        assert code == 1
        assert out == ""
        assert "--delta is swept" in err
        code, out, err = run_cli(capsys, "sweep", "hsvr", "--swept", "cost",
                                 "--grid", "1 2", "--delta", "1", "--eps", "1",
                                 "--output", "-")
        assert code == 1
        assert out == ""
        assert "svrisk sweep hsvr reads no cost" in err

    def test_incomplete_sweep_exit_1(self, capsys):
        for argv, missing in ((self.SWEEP, "eps"),
                              (("sweep", "ssvr", *self.SWEEP[2:], "--eps", "1"), "cost"),
                              (("sweep", "hsvr", "--swept", "eps", "--grid", "0.5",
                                "--output", "-"), "delta")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert out == ""
            assert missing in err

    def test_theory_figures_take_no_table_flags(self, capsys):
        # figures 1, 4 and 6 draw no data: a sample size, trial count or
        # seed would change no cell, so none reaches the metadata line
        for fid in ("1", "4", "6"):
            for flag in ("--p", "--trials", "--base-seed"):
                code, out, err = run_cli(capsys, "figure", fid, "--grid", "1", flag, "3",
                                         "--output", "-")
                assert code == 1, (fid, flag)
                assert out == ""
                assert f"svrisk figure {fid} reads no {flag}" in err
        code, out, _ = run_cli(capsys, "figure", "1", "--grid", "0.5", "--output", "-")
        assert code == 0
        assert out.splitlines()[2] == "# figure=1"

    def test_empty_figure_grid(self, capsys):
        code, out, err = run_cli(capsys, "figure", "1", "--grid", "", "--output", "-")
        assert code == 1
        assert out == ""
        assert "bad grid" in err


class TestFormatting:
    def test_nine_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "delta-star", "--eps", "1", "--sigma", "1")
        digits = out.strip().replace(".", "").lstrip("0")
        assert len(digits) == 9
