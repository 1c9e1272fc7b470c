import importlib.util
import json
from pathlib import Path

import pytest

from codedpc import icmodel, optimizer
from codedpc.cli import (
    MAX_SNR_POINTS, POLICY_COLUMNS, SWEEP_COLUMNS, UsageError, _snr_grid, build_parser, main,
    read_config,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out, columns):
    """The rows of the CSV text ``out`` as dicts keyed by ``columns``.

    The header must equal ``columns``, and every line must have exactly as
    many fields as the header: ``zip`` alone would drop a surplus field.
    """
    lines = [line.split(",") for line in out.strip().splitlines()]
    assert lines[0] == list(columns)
    assert [len(line) for line in lines] == [len(columns)] * len(lines)
    return [dict(zip(columns, line)) for line in lines[1:]]


def test_console_script_resolves():
    # the installed `codedpc` command calls the function that
    # [project.scripts] names; a rename would break it silently
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"codedpc": "codedpc.cli:main"}
    module, _, attr = scripts["codedpc"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_cached_parser_holds_no_state_between_calls(capsys):
    # main parses with one parser per process; no call may leave a trace in it
    assert build_parser() is build_parser()
    sweep = ("sweep", "--regime", "lir", "--snr-start", "3", "--snr-stop", "5")
    code, first, err = run_cli(capsys, *sweep)
    assert code == 0 and err == ""
    assert run_cli(capsys, "policies")[0] == 0
    assert run_cli(capsys, "sweep", "--snr-step", "0")[0] == 1
    assert run_cli(capsys, "sweep", "--snr-step", "fast")[0] == 1
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "simulate", "--target", "fpc", "--sim-n", "16", "--sim-blocks", "3")[0] == 0
    assert run_cli(capsys, *sweep) == (0, first, "")


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "regime = lir\n"
            "payoff = linear   # inline comment\n"
            "snr_start = 5\n"
            "sim_seed = 9\n"
        )
        values = read_config(str(path))
        assert values == {
            "regime": "lir",
            "payoff": "linear",
            "snr_start": 5.0,
            "sim_seed": 9,
        }

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("regime = lir\nbogus = 3\n")
        with pytest.raises(UsageError, match=r"run\.cfg:2.*bogus"):
            read_config(str(path))

    def test_solver_step_budget_is_unknown_key(self, tmp_path, capsys):
        # the solver's step budgets are fixed; neither key nor flag exists
        path = tmp_path / "run.cfg"
        path.write_text("max_inner_iter = 5\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1 and out == ""
        assert "unknown key 'max_inner_iter'" in err
        for flag in ("--max-inner-iter", "--outer-steps"):
            assert run_cli(capsys, "sweep", flag, "5")[0] == 1

    def test_bad_value_reports_field(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("snr_start = fast\n")
        with pytest.raises(UsageError, match="snr_start"):
            read_config(str(path))

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--config", "/nonexistent.cfg")
        assert code == 1
        assert "cannot read config" in err

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"regime = hir\xff\n")
        code, _, err = run_cli(capsys, "policies", "--config", str(path))
        assert code == 1
        assert "cannot read config" in err

    def test_flags_override_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("snr = 4\n")
        code, out, _ = run_cli(
            capsys, "policies", "--config", str(path), "--snr", "10"
        )
        assert code == 0
        # P_max = 10 at 10 dB shows up as an action level
        assert ",10," in out or out.rstrip().endswith(",10")


@pytest.mark.parametrize("command", ["sweep", "policies", "simulate"])
def test_bad_payoff_form_is_usage_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--payoff", "cubic")
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert "payoff_form must be 'log' or 'linear'" in err


class TestSweep:
    def test_single_point_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--regime", "hir", "--payoff", "log",
            "--snr-start", "10", "--snr-stop", "10",
        )
        assert code == 0
        (row,) = csv_rows(out, SWEEP_COLUMNS)
        fpc, spc = float(row["fpc"]), float(row["spc"])
        ocpc, cb = float(row["ocpc"]), float(row["costless"])
        assert fpc <= spc + 1e-6 <= ocpc + 2e-6 <= cb + 3e-6
        assert row["status"] == "ok"
        assert float(row["gain_ocpc_vs_fpc_pct"]) == pytest.approx(
            100.0 * (ocpc / fpc - 1.0), abs=1e-9
        )

    def test_uncertified_point_reports_best_feasible_payoff(self, capsys, monkeypatch):
        # one multiplier step cannot certify; the row still carries the best
        # feasible payoff found, which beats SPC and stays below the bound
        monkeypatch.setattr(optimizer, "_OUTER_STEPS", 1)
        code, out, _ = run_cli(capsys, "sweep", "--snr-start", "10", "--snr-stop", "10")
        assert code == 0
        (row,) = csv_rows(out, SWEEP_COLUMNS)
        assert row["status"] == "no_certificate"
        spc, ocpc, cb = (float(row[k]) for k in ("spc", "ocpc", "costless"))
        assert spc < ocpc < cb

    def test_sweep_builds_grid_invariants_once(self, capsys, monkeypatch):
        # fpc and spc are read off the grid's one prior and each point's own
        # payoff table: one FPC policy per grid, one SPC policy per point
        calls = {"build_state_prior": 0, "build_payoff_table": 0, "partner_full_power": 0}
        for name in calls:
            build = getattr(icmodel, name)

            def counted(*args, name=name, build=build):
                calls[name] += 1
                return build(*args)

            monkeypatch.setattr(icmodel, name, counted)
        code, _, _ = run_cli(capsys, "sweep", "--snr-start", "3", "--snr-stop", "5")
        assert code == 0
        assert calls == {"build_state_prior": 1, "build_payoff_table": 3, "partner_full_power": 1 + 3}

    def test_deterministic_output(self, capsys):
        args = ("sweep", "--regime", "lir", "--snr-start", "3", "--snr-stop", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_single_state_linear_ocpc_equals_costless(self, capsys):
        # collapsing the state leaves nothing to coordinate about
        code, out, _ = run_cli(
            capsys,
            "sweep", "--payoff", "linear",
            "--p11", "1", "--p12", "1", "--p21", "1", "--p22", "1",
            "--snr-start", "10", "--snr-stop", "10",
        )
        assert code == 0
        (row,) = csv_rows(out, SWEEP_COLUMNS)
        assert float(row["ocpc"]) == pytest.approx(float(row["costless"]), abs=1e-9)

    @pytest.mark.parametrize("payoff", ["log", "linear"])
    def test_zero_baseline_payoff_prints_nan_gains(self, capsys, payoff):
        # with gmin 0 the always-weak states pay nothing: FPC and SPC are 0,
        # and dividing by them used to raise ZeroDivisionError
        code, out, _ = run_cli(
            capsys,
            "sweep", "--gmin", "0", "--p11", "1", "--p22", "1", "--payoff", payoff,
            "--snr-start", "10", "--snr-stop", "10",
        )
        assert code == 0
        (row,) = csv_rows(out, SWEEP_COLUMNS)
        assert float(row["fpc"]) == float(row["spc"]) == 0.0
        for column in SWEEP_COLUMNS[5:9]:
            assert row[column] == "nan"

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--snr-start", "10", "--snr-stop", "10",
            "--output", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith(SWEEP_COLUMNS[0])

    def test_failed_run_leaves_no_output_file(self, tmp_path, capsys):
        # no point has 5 bits of slack, so the solve fails without a result
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys,
            "sweep", "--snr-start", "10", "--snr-stop", "10", "--min-slack", "5",
            "--output", str(out_path),
        )
        assert code == 2
        assert "no feasible point" in err
        assert out == ""
        assert not out_path.exists()

    def test_bad_regime_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--regime", "mid")
        assert code == 1
        assert "regime" in err

    def test_bad_flag_value_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--snr-start", "fast")
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--tol-payoff", "nan"), ("--tol-payoff", "0")],
    )
    def test_bad_solver_option_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "sweep", "--snr-start", "10", "--snr-stop", "10", flag, value
        )
        assert code == 1
        assert out == ""
        assert flag[2:].replace("-", "_") in err

    def test_min_slack_reaches_solver(self, tmp_path, capsys):
        grid = ("sweep", "--snr-start", "10", "--snr-stop", "10")
        outs = {}
        for slack in ("0", "0.3"):
            code, outs[slack], _ = run_cli(capsys, *grid, "--min-slack", slack)
            assert code == 0
        rows = {
            slack: csv_rows(out, SWEEP_COLUMNS)[0] for slack, out in outs.items()
        }
        assert rows["0.3"]["status"] == "ok"
        assert float(rows["0.3"]["ocpc"]) < float(rows["0"]["ocpc"])
        # the config key reaches the solver as well
        path = tmp_path / "run.cfg"
        path.write_text("min_slack = 0.3\n")
        code, out, _ = run_cli(capsys, *grid, "--config", str(path))
        assert code == 0
        assert out == outs["0.3"]

    @pytest.mark.parametrize("slack", ["nan", "inf", "-0.1"])
    def test_bad_min_slack_is_usage_error(self, capsys, slack):
        code, out, err = run_cli(
            capsys, "sweep", "--snr-start", "10", "--snr-stop", "10", "--min-slack", slack
        )
        assert code == 1
        assert out == ""
        assert "min_slack" in err

    @pytest.mark.parametrize("step", ["1e-9", "1e-310"])
    def test_oversized_grid_is_usage_error(self, capsys, step):
        # 0 to 40 dB in steps of 1e-9 is 4e10 points; the grid is rejected
        # before its list is built (a step of 1e-310 overflows the count)
        code, out, err = run_cli(capsys, "sweep", "--snr-step", step)
        assert code == 1
        assert out == ""
        assert "more than 100000" in err

    def test_largest_grid_is_accepted(self):
        settings = {"snr_start": 0.0, "snr_stop": 99_999.0, "snr_step": 1.0}
        assert len(_snr_grid(settings)) == MAX_SNR_POINTS
        settings["snr_stop"] = 100_000.0
        with pytest.raises(UsageError, match="more than"):
            _snr_grid(settings)


@pytest.mark.parametrize(
    "argv",
    [
        ("policies", "--snr", "nan"),
        ("simulate", "--target", "fpc", "--snr", "inf"),
        ("sweep", "--snr-start", "nan"),
        ("sweep", "--snr-step", "nan"),
        ("sweep", "--snr-stop", "inf"),
    ],
    ids=" ".join,
)
def test_nonfinite_snr_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ("regime lir\n", ("policies",), "run.cfg:1: expected key = value"),
        ("", ("simulate", "--target", "best"), "target must be solver, spc or fpc"),
        ("", ("sweep", "--snr-step", "0"), "snr_step must be positive"),
        ("", ("sweep", "--snr-step", "-1"), "snr_step must be positive"),
        ("", ("sweep", "--snr-start", "10", "--snr-stop", "5"), "empty SNR grid"),
    ],
    ids=["no '='", "bad target", "zero step", "negative step", "start above stop"],
)
def test_rejected_settings_are_usage_errors(tmp_path, capsys, config, argv, message):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    code, out, err = run_cli(capsys, *argv, "--config", str(path))
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("policies", "--gmax", "inf"),
        ("policies", "--gmin", "-1"),
        ("policies", "--snr", "4000"),
        ("sweep", "--snr-start", "4000", "--snr-stop", "4000"),
    ],
    ids=" ".join,
)
def test_unusable_channel_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


class TestPolicies:
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "policies.csv"
        code, out, err = run_cli(capsys, "policies", "--output", str(out_path))
        assert code == 1
        assert "cannot write" in err
        assert out == ""

    def test_sixteen_states(self, capsys):
        code, out, _ = run_cli(capsys, "policies", "--regime", "hir", "--snr", "10")
        assert code == 0
        assert len(csv_rows(out, POLICY_COLUMNS)) == 16

    def test_both_off_never_optimal(self, capsys):
        _, out, _ = run_cli(capsys, "policies", "--regime", "lir", "--snr", "10")
        for row in csv_rows(out, POLICY_COLUMNS):
            assert not (float(row["best_x1"]) == 0.0 and float(row["best_x2"]) == 0.0)

    def test_interference_dominated_state_single_transmitter(self, capsys):
        # all gains high at high SNR with the log payoff: exactly one side
        # transmits; the lowest-index tie-break reports x1 off
        _, out, _ = run_cli(capsys, "policies", "--regime", "hir", "--snr", "30")
        row = csv_rows(out, POLICY_COLUMNS)[15]
        best_x1, best_x2 = float(row["best_x1"]), float(row["best_x2"])
        assert (best_x1 == 0.0) != (best_x2 == 0.0)
        assert best_x1 == 0.0

    def test_spc_column_ignores_state_probability(self, capsys):
        # the best response to full power does not depend on how likely the
        # state is: with p11 = 0 the eight g11 = g_min states have
        # probability 0 and must still report it
        def spc_column(*flags):
            _, out, _ = run_cli(capsys, "policies", "--snr", "10", *flags)
            return [(float(r["prob"]), r["spc_x1"]) for r in csv_rows(out, POLICY_COLUMNS)]

        zero = spc_column("--p11", "0")
        assert [p for p, _ in zero[:8]] == [0.0] * 8
        assert zero[0][1] == "10"
        assert [x for _, x in zero] == [x for _, x in spc_column()]


class TestSimulate:
    def test_fpc_target_no_decoder_errors(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--target", "fpc", "--regime", "hir", "--snr", "10",
            "--sim-n", "100", "--sim-blocks", "10", "--sim-seed", "3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["decoder_errors"] == 0
        assert report["info_coordination_bits"] == 0.0

    def test_seeded_json_identical(self, capsys):
        args = (
            "simulate", "--target", "spc", "--regime", "lir", "--snr", "8",
            "--sim-n", "80", "--sim-blocks", "8", "--sim-seed", "21",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_infeasible_rate_exit_2_names_informations(self, capsys):
        # a rate beyond what the binary observation supports is rejected,
        # quoting both information terms
        code, _, err = run_cli(
            capsys,
            "simulate", "--target", "solver", "--regime", "hir", "--snr", "10",
            "--min-slack", "0.05", "--sim-n", "50", "--sim-blocks", "5",
            "--sim-rate", "2.0",
        )
        assert code == 2
        assert "interval" in err and "bits" in err

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_nonfinite_rate_exit_2(self, capsys, rate):
        code, _, err = run_cli(
            capsys, "simulate", "--target", "fpc", "--sim-rate", rate
        )
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize("slack", ["nan", "inf", "-0.1"])
    def test_bad_min_slack_is_usage_error(self, capsys, slack):
        code, _, err = run_cli(
            capsys, "simulate", "--target", "solver", "--min-slack", slack
        )
        assert code == 1
        assert "min_slack" in err

    def test_codebook_cap_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--target", "spc", "--regime", "hir", "--snr", "10",
            "--sim-n", "50", "--sim-blocks", "5", "--sim-rate", "0.5",
        )
        assert code == 2
        assert "cap" in err

    def test_solver_target_report_fields(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--target", "solver", "--regime", "hir", "--snr", "10",
            "--min-slack", "0.05", "--sim-n", "40", "--sim-blocks", "8",
            "--sim-rate", "0.4", "--sim-epsilon", "0.6",
        )
        assert code == 0
        report = json.loads(out)
        assert report["target_slack"] >= 0.05 - 1e-6
        assert report["rate"] == pytest.approx(0.4)
        assert len(report["result"]["blocks"]) == 8
        assert report["codebook_size"] >= 2


def test_benchmark_tracer_bindings_resolve():
    """Every (owner, attribute) that ``perfbench``'s tracer wraps exists.

    The tracer replaces functions at each module attribute the workloads
    call them through, ``cli.compose`` and
    ``coding.conditional_mutual_information`` among them, although no code
    in those modules needs them.  Deleting such a binding fails here, not
    only in a traced benchmark run, where the span would go missing.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("bench_trace", path)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    targets = bench_trace._targets()
    assert len(targets) >= 20
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
