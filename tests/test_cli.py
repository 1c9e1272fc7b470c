import json

import pytest

from codedpc import icmodel, optimizer
from codedpc.cli import (
    MAX_SNR_POINTS, SWEEP_COLUMNS, UsageError, _snr_grid, main, read_config,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestSweep:
    def test_single_point_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--regime", "hir", "--payoff", "log",
            "--snr-start", "10", "--snr-stop", "10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 2
        row = dict(zip(SWEEP_COLUMNS, lines[1].split(",")))
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
        row = dict(zip(SWEEP_COLUMNS, out.strip().splitlines()[1].split(",")))
        assert row["status"] == "no_certificate"
        spc, ocpc, cb = (float(row[k]) for k in ("spc", "ocpc", "costless"))
        assert spc < ocpc < cb

    def test_each_point_builds_its_model_once(self, capsys, monkeypatch):
        # fpc and spc are read off the point's own prior and payoff table
        calls = {"build_state_prior": 0, "build_payoff_table": 0}
        for name in calls:
            build = getattr(icmodel, name)

            def counted(cfg, name=name, build=build):
                calls[name] += 1
                return build(cfg)

            monkeypatch.setattr(icmodel, name, counted)
        code, _, _ = run_cli(capsys, "sweep", "--snr-start", "3", "--snr-stop", "5")
        assert code == 0
        assert calls == {"build_state_prior": 3, "build_payoff_table": 3}

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
        row = dict(zip(SWEEP_COLUMNS, out.strip().splitlines()[1].split(",")))
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
        row = dict(zip(SWEEP_COLUMNS, out.strip().splitlines()[1].split(",")))
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
            slack: dict(zip(SWEEP_COLUMNS, out.strip().splitlines()[1].split(",")))
            for slack, out in outs.items()
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
    "argv",
    [
        ("policies", "--sigma2", "nan"),
        ("policies", "--sigma2", "inf"),
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
        lines = out.strip().splitlines()
        assert len(lines) == 17
        header = lines[0].split(",")
        assert header[0] == "state" and "spc_x1" in header

    def test_both_off_never_optimal(self, capsys):
        _, out, _ = run_cli(capsys, "policies", "--regime", "lir", "--snr", "10")
        for line in out.strip().splitlines()[1:]:
            parts = line.split(",")
            assert not (float(parts[6]) == 0.0 and float(parts[7]) == 0.0)

    def test_interference_dominated_state_single_transmitter(self, capsys):
        # all gains high at high SNR with the log payoff: exactly one side
        # transmits; the lowest-index tie-break reports x1 off
        _, out, _ = run_cli(capsys, "policies", "--regime", "hir", "--snr", "30")
        rows = out.strip().splitlines()[1:]
        parts = rows[15].split(",")
        best_x1, best_x2 = float(parts[6]), float(parts[7])
        assert (best_x1 == 0.0) != (best_x2 == 0.0)
        assert best_x1 == 0.0

    def test_spc_column_ignores_state_probability(self, capsys):
        # the best response to full power does not depend on how likely the
        # state is: with p11 = 0 the eight g11 = g_min states have
        # probability 0 and must still report it
        def spc_column(*flags):
            _, out, _ = run_cli(capsys, "policies", "--snr", "10", *flags)
            rows = [line.split(",") for line in out.strip().splitlines()[1:]]
            return [(float(r[5]), r[9]) for r in rows]

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
