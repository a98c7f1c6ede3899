import importlib.util
import json
from pathlib import Path

import pytest

from gibbs_qaoa import cli, harness
from gibbs_qaoa.harness import SweepConfig
from gibbs_qaoa.ising import toy_instance
from gibbs_qaoa.powell import PowellOptions

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyInstance:
    def test_toy_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-instance", "--toy")
        assert code == 0
        assert "E0 = -4" in out
        assert "ground states (6):" in out
        assert "PASS" in out

    def test_toy_check_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "toy_ground_states", lambda: (0, 1))
        code, out, _ = run_cli(capsys, "verify-instance", "--toy")
        assert code == 2
        assert "FAIL" in out

    def test_file_instance_report(self, capsys, tmp_path):
        path = tmp_path / "ferro.txt"
        path.write_text("n 2\nj 1 2 1.0\n")
        code, out, _ = run_cli(capsys, "verify-instance", "--instance", str(path))
        assert code == 0
        assert "E0 = -1" in out
        assert "ground states (2):" in out

    def test_long_listings_are_cut(self, capsys, tmp_path):
        # 16 free spins: 65536 ground states in 32768 flip pairs, eight of each listed
        path = tmp_path / "free16.txt"
        path.write_text("n 16\n")
        code, out, _ = run_cli(capsys, "verify-instance", "--instance", str(path))
        lines = out.splitlines()
        assert code == 0 and len(lines) < 30
        assert "ground states (65536):" in lines and "flip orbits: 32768" in lines
        assert "  ... and 65528 more" in lines and "  ... and 32760 more" in lines
        # the toy's six states and three pairs are all listed
        assert len(run_cli(capsys, "verify-instance", "--toy")[1].splitlines()) == 14


class TestGibbs:
    def test_toy_summary(self, capsys):
        code, out, _ = run_cli(capsys, "gibbs", "--toy", "-T", "1")
        assert code == 0
        assert "Z = 391.894" in out
        assert "P_GS = 0.83591216711" in out
        assert "P_1 = 0.278637389037" in out

    def test_bad_temperature_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gibbs", "--toy", "-T", "-1")
        assert code == 1
        assert "error" in err


class TestOracle:
    def test_toy_default_temperatures(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--toy")
        assert code == 0
        assert out.count("PASS") == 3

    def test_single_temperature(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--toy", "-T", "1")
        assert code == 0
        assert "kernel residual" in out and "PASS" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "KERNEL_TOL_TOY", 0.0)
        code, out, _ = run_cli(capsys, "oracle", "--toy", "-T", "1")
        assert code == 2
        assert "FAIL" in out


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "verify-instance", "--bogus")
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_sbo_requires_temperature(self, capsys):
        code, _, err = run_cli(capsys, "run", "--toy", "--method", "sbo", "-p", "1")
        assert code == 1
        assert "requires -T" in err

    @pytest.mark.parametrize("command", ["gibbs", "oracle"])
    def test_nan_temperature(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--toy", "-T", "nan")
        assert code == 1
        assert err.startswith("error:")
        assert "nan" not in out

    @pytest.mark.parametrize("argv, value", [
        ("run --max-evaluations 0", "0"),
        ("run --max-evaluations -5", "-5"),
        ("run --budget-s -1", "-1.0"),
        ("run --budget-s nan", "nan"),
        ("sweep --workers 0", "0"),
        ("sweep --workers -3", "-3"),
    ], ids=lambda arg: arg.replace(" ", "_"))
    def test_bad_number_is_usage_error(self, capsys, argv, value):
        command, *flags = argv.split()
        grid = (["--method", "qaoa", "-p", "1"] if command == "run" else
                ["--methods", "qaoa", "--schemes", "full", "--depths", "1"])
        code, out, err = run_cli(capsys, command, "--toy", *grid, *flags)
        assert code == 1
        assert err.startswith("error:") and value in err
        assert "p_gs" not in out and "completed" not in out

    @pytest.mark.parametrize("command", [
        "verify-instance", "gibbs -T 1", "oracle", "run --method sbo -T 1 -p 1",
    ], ids=lambda arg: arg.split()[0])
    def test_instance_whose_energies_overflow(self, capsys, tmp_path, command):
        path = tmp_path / "big.txt"
        path.write_text("n 3\nj 1 2 1e308\nj 2 3 1e308\nj 1 3 1e308\n")
        name, *flags = command.split()
        code, out, err = run_cli(capsys, name, "--instance", str(path), *flags)
        assert code == 1
        assert err.startswith("error:") and "too large" in err
        assert out == ""

    def test_unreadable_instance(self, capsys):
        code, _, err = run_cli(capsys, "gibbs", "--instance", "/does/not/exist", "-T", "1")
        assert code == 1


class TestRun:
    def test_single_point_with_json(self, capsys, tmp_path):
        out_json = tmp_path / "point.json"
        code, out, _ = run_cli(
            capsys, "run", "--toy", "--method", "qaoa", "--scheme", "full",
            "-p", "1", "--max-evaluations", "500",
            "--json", str(out_json),
        )
        assert code == 0
        assert "p_gs = " in out
        data = json.loads(out_json.read_text())
        assert data[0]["method"] == "qaoa" and data[0]["p"] == 1


class TestSweep:
    def test_flags_and_outputs(self, capsys, tmp_path):
        csv_path = tmp_path / "t.csv"
        fig_dir = tmp_path / "figs"
        code, out, _ = run_cli(
            capsys, "sweep", "--toy", "--methods", "qaoa", "sbo",
            "--schemes", "full", "linearized", "--depths", "1", "2",
            "--temperatures", "1.0", "--max-evaluations", "2000", "--workers", "1",
            "--out-csv", str(csv_path), "--fig-dir", str(fig_dir),
        )
        assert code == 0
        assert "completed 8 of 8 points" in out
        assert csv_path.exists()
        assert (fig_dir / "fig2d.dat").exists()
        assert (fig_dir / "fig3a.svg").exists()

    @pytest.mark.parametrize("grid", [
        ["--methods", "sbo", "--temperatures", "1.0"],  # no qaoa panels
        ["--methods", "qaoa", "sbo", "--temperatures", "0.5"],  # no sbo panels at T = 1
    ])
    def test_partial_grid_skips_the_figure_it_cannot_fill(self, capsys, tmp_path, grid):
        fig_dir = tmp_path / "figs"
        code, out, err = run_cli(
            capsys, "sweep", "--toy", *grid, "--depths", "1", "--max-evaluations", "200",
            "--workers", "1", "--fig-dir", str(fig_dir),
        )
        assert code == 0
        assert "skipped fig2: " in err
        assert not list(fig_dir.glob("fig2*"))  # no panel of a skipped figure
        assert (fig_dir / "fig3a.dat").exists()

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.args"
        cfg.write_text(
            "# tiny sweep\n"
            "--toy\n"
            "--methods qaoa  # one method\n"
            "--schemes full\n"
            "--depths 1\n"
            "--max-evaluations 500\n"
        )
        out_json = tmp_path / "r.json"
        code, out, _ = run_cli(
            capsys, "sweep", f"@{cfg}", "--out-json", str(out_json),
        )
        assert code == 0
        data = json.loads(out_json.read_text())
        assert len(data) == 1
        assert data[0]["method"] == "qaoa"

    @pytest.mark.parametrize("key", ["max_evals", "depthz", "initial_step", "dt", "restarts",
                                     "seed", "ftol", "xtol", "max_iterations"])
    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path, key):
        # typos, and settings that the optimizer no longer takes
        cfg = tmp_path / "sweep.args"
        cfg.write_text(f"--toy\n--max-evaluations 4\n--{key} 10\n")
        code, out, err = run_cli(capsys, "sweep", f"@{cfg}")
        assert code == 1
        assert f"unrecognized arguments: --{key} 10" in err
        assert "completed" not in out

    def test_explicit_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "sweep.args"
        cfg.write_text("--toy\n--max-evaluations 4\n--depths 3\n")
        sweep = sweep_config(f"@{cfg}", "--max-evaluations", "200000")
        assert sweep.optimizer.max_evaluations == 200_000  # the flag's default, still explicit
        assert sweep.depths == (3,)  # from the file
        assert sweep.point_budget_s is None  # the default: no wall-clock net

    def test_config_file_beats_an_earlier_flag(self, tmp_path):
        cfg = tmp_path / "sweep.args"
        cfg.write_text("--toy\n--depths 3\n")
        sweep = sweep_config("--depths", "1", "2", "--max-evaluations", "7", f"@{cfg}")
        assert sweep.depths == (3,)  # the file stands where it is given
        assert sweep.optimizer.max_evaluations == 7  # not in the file

    def test_toy_in_file_with_instance_flag_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.args"
        cfg.write_text("--toy\n")
        instance = tmp_path / "ferro.txt"
        instance.write_text("n 2\nj 1 2 1.0\n")
        code, out, err = run_cli(capsys, "sweep", f"@{cfg}", "--instance", str(instance))
        assert code == 1
        assert "not allowed with" in err
        assert "completed" not in out

    def test_missing_config_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sweep", f"@{tmp_path / 'missing.args'}")
        assert code == 1
        assert err.startswith("usage:") and "missing.args" in err
        assert "completed" not in out

    def test_run_reads_an_argument_file(self, tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text("--toy --method sbo  # one point\n-p 2 -T 0.5\n")
        args = cli.build_parser().parse_args(["run", f"@{cfg}", "-p", "3"])
        assert (args.toy, args.method, args.depth, args.temperature) == (True, "sbo", 3, 0.5)

    def test_run_flags_keep_defaults(self):
        args = cli.build_parser().parse_args(["run", "--toy", "--method", "qaoa", "-p", "1"])
        assert cli._optimizer_settings(args) == {"optimizer": PowellOptions(),
                                                 "point_budget_s": None}

    def test_no_instance_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--methods", "qaoa")
        assert code == 1
        assert "--toy" in err


def sweep_config(*argv):
    return cli._sweep_config(cli.build_parser().parse_args(["sweep", *argv]))


class TestConfigFile:
    def test_example_config_values(self):
        cfg = sweep_config(f"@{SCRIPTS / 'sweep_example.cfg'}")
        assert cfg == SweepConfig(
            instance=toy_instance(),
            methods=("qaoa", "sbo"),
            schemes=("full", "linearized"),
            depths=(1, 2, 3, 5, 7, 10),
            temperatures=(0.5, 1.0, 2.0),
            optimizer=PowellOptions(max_evaluations=50000),
            point_budget_s=120.0,
            workers=None,
        )

    @pytest.mark.parametrize("line, flag", [("depths a", "--depths"),
                                            ("methods qoaa", "--methods")])
    def test_bad_value_names_its_flag(self, capsys, tmp_path, line, flag):
        # file values get the same type and choice checks as the flags
        cfg = tmp_path / "sweep.args"
        cfg.write_text(f"--toy\n--{line}\n")
        code, out, err = run_cli(capsys, "sweep", f"@{cfg}")
        assert code == 1
        assert f"argument {flag}" in err
        assert "completed" not in out


class TestReproduceFigures:
    @pytest.mark.parametrize("script_args, sweep_args", [
        (["--quick"], ["--depths", "1", "3", "10", "32", "100"]),
        (["--budget-s", "30", "--workers", "2"], ["--budget-s", "30", "--workers", "2"]),
        # flags the script does not own go to the sweep unchanged
        (["--max-evaluations", "5", "--temperatures", "1"],
         ["--max-evaluations", "5", "--temperatures", "1"]),
    ])
    def test_runs_the_cli_sweep(self, monkeypatch, tmp_path, script_args, sweep_args):
        spec = importlib.util.spec_from_file_location(
            "reproduce_figures", SCRIPTS / "reproduce_figures.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        seen = []
        monkeypatch.setattr(harness, "run_sweep", lambda cfg: seen.append(cfg) or ([], []))
        monkeypatch.setattr(harness, "emit_fig_data", lambda *args, **kwargs: [])
        out = tmp_path / "results"
        assert script.main(["--out", str(out), *script_args]) == 0
        assert out.is_dir()
        assert seen == [sweep_config("--toy", *sweep_args)]
