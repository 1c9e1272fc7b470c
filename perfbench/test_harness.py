"""Self-test of the benchmark harness on tiny workloads (a few seconds).

    python -m pytest perfbench -q

Checks that every metric is emitted with its unit, that BENCHMARK.json
names the metrics the harness emits, and that corrupted outputs raise
``error_frac``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_package()

import bench_clock  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from codedpc.probability import JointDistribution  # noqa: E402

#: The workload's own metrics, reported next to the end-to-end ones.
WORKLOAD_METRICS = {
    "ic-sweep": {"error_frac", "certified_frac", "ocpc_gain_pct_mean"},
    "noisy-random": {"error_frac", "certified_frac", "solve_ms_p50", "solve_ms_p90"},
    "coding-binary": {"error_frac", "tv_median", "decode_error_frac"},
    "coding-ic": {"error_frac", "tv_median", "decode_error_frac"},
}


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)


def tiny(name, trace=False, corrupt=None):
    return run.run_workload(name, seed=3, seconds=0.2, trace=trace, tiny=True,
                            corrupt=corrupt)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    line, report = tiny(name, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], report["failures"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in line["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    own = report["workload_metrics"]
    assert WORKLOAD_METRICS[name] <= set(own)
    assert all(m["unit"] for m in own.values())
    assert report["machine"]["blas_threads"] == "1"


def test_benchmark_json_names_the_emitted_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def _assert_caught(line, report):
    assert not line["correct"]
    assert line["failed"] >= 1
    assert report["workload_metrics"]["error_frac"]["value"] > 0


def test_no_certificate_row_raises_error_frac():
    def corrupt(label, output):
        code, text = output
        return code, text.replace(",ok\n", ",no_certificate\n", 1)

    line, report = tiny("ic-sweep", corrupt=corrupt)
    _assert_caught(line, report)
    assert any("no_certificate" in f for f in report["failures"])


def test_ocpc_outside_its_sandwich_raises_error_frac():
    def corrupt(label, output):
        code, text = output
        header, first, *rest = text.splitlines()
        cells = first.split(",")
        cells[3] = "-1"  # ocpc below both reference policies
        return code, "\n".join([header, ",".join(cells), *rest]) + "\n"

    line, report = tiny("ic-sweep", corrupt=corrupt)
    _assert_caught(line, report)


def test_qbar_with_negative_slack_raises_error_frac():
    def corrupt(label, output):
        certified, result = output
        n0, n1, n2 = result.qbar.pmf.shape
        mass = result.qbar.pmf.sum(axis=(1, 2))
        leaky = np.zeros((n0, n1, n2))
        # x2 copies the state and x1 is constant: I(X0;X2) > 0 = I(X1;Y|X0,X2)
        leaky[np.arange(n0), 0, np.arange(n0) % n2] = mass
        qbar = JointDistribution(leaky, ("x0", "x1", "x2"))
        return True, dataclasses.replace(result, qbar=qbar)

    line, report = tiny("noisy-random", corrupt=corrupt)
    _assert_caught(line, report)
    assert any("recomputed slack" in f for f in report["failures"])


def test_payoff_off_its_tv_bound_raises_error_frac():
    def corrupt(label, output):
        return {**output, "average_payoff": output["average_payoff"] + 1.0}

    line, report = tiny("coding-binary", corrupt=corrupt)
    _assert_caught(line, report)


def test_failed_simulate_raises_error_frac():
    line, report = tiny("coding-ic", corrupt=lambda label, output: (2, ""))
    _assert_caught(line, report)


def test_span_with_zero_calls_fails(monkeypatch):
    monkeypatch.setattr(
        bench_workloads.ICSweep, "spans", bench_workloads.ICSweep.spans + ("coding.run",)
    )
    line, report = tiny("ic-sweep", trace=True)
    assert not line["correct"]
    assert "span 'coding.run' recorded zero calls" in report["failures"]


def test_seed_orders_one_fixed_corpus():
    a = bench_workloads.NoisyRandom(2, tiny=True)
    b = bench_workloads.NoisyRandom(3, tiny=True)
    assert sorted(u.label for u in a.units) == sorted(u.label for u in b.units)
    assert [u.label for u in a.units] != [u.label for u in b.units]


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "cli.main", "parent": None},
        {"name": "optimizer.solve", "parent": 0},
        {"name": "icmodel.spc_distribution", "parent": 0},
        {"name": "icmodel.build_state_prior", "parent": 2},
    ]
    own = bench_trace.self_times(spans, [10.0, 6.0, 3.0, 1.0])
    assert own == [1.0, 6.0, 2.0, 1.0]


def test_reference_seconds_scale_by_measured_speed():
    clock = bench_clock.RefClock()
    clock.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    clock.costs = {"compute": [2 * bench_clock.REFERENCE["compute"]] * 5}  # half speed
    clock.spent = [0.01] * 5
    assert clock.seconds(0.5, 2.5, "compute") == pytest.approx((2.0 - 0.02) * 0.5)


def test_run_without_package_source_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ic-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
