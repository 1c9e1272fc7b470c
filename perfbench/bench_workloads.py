"""The four benchmark workloads: inputs from a seed, units of work, checks.

A workload is a list of units (one CLI call, one ``solve``, one coding
run).  The harness times each unit, passes its output to ``check``, which
returns the number of operations the unit performed, the failed ones, and
the facts the workload's own metrics are computed from, and compares the
``fingerprint`` of every repeated unit with its first run.

Why each workload is here is recorded in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

from codedpc import cli, coding, constraint, icmodel, optimizer, probability

TOL_PAYOFF = optimizer.SolverOptions().tol_payoff


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a nonempty sample, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _capture_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``codedpc.cli.main`` in-process; return its exit code and stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _cli_fingerprint(output: tuple[int, str]) -> str:
    return f"{output[0]}\n{output[1]}"


@dataclass(frozen=True)
class Unit:
    label: str
    call: Callable[[], object]


@dataclass(frozen=True)
class Checked:
    """What ``check`` learned from one unit's output."""

    ops: int
    failures: list[str]
    facts: dict


# --------------------------------------------------------------------------
# ic-sweep: the paper's headline figure through the CLI.
# --------------------------------------------------------------------------


class ICSweep:
    name = "ic-sweep"
    profile = "compute"
    min_repeats = 0
    spans = ("cli.main", "optimizer.solve", "icmodel.build_state_prior",
             "icmodel.build_payoff_table")

    def __init__(self, seed: int, tiny: bool = False):
        # The sweep has no random inputs; the seed only orders the calls.
        grid = ["--snr-start", "0", "--snr-stop", "40"]
        combos = [(r, f) for r in ("lir", "hir") for f in ("log", "linear")]
        if tiny:
            grid = ["--snr-start", "10", "--snr-stop", "11"]
            combos = combos[:2]
        self.points_per_call = 41 if not tiny else 2
        units = [
            Unit(f"{r}-{f}", self._caller(["sweep", "--regime", r, "--payoff", f, *grid]))
            for r, f in combos
        ]
        self.units = shuffled(units, seed)

    @staticmethod
    def _caller(argv):
        return lambda: _capture_cli(argv)

    def fingerprint(self, output) -> str:
        return _cli_fingerprint(output)

    def check(self, label: str, output) -> Checked:
        code, text = output
        rows = list(csv.DictReader(io.StringIO(text)))
        if code != 0 or len(rows) != self.points_per_call:
            return Checked(self.points_per_call, [f"exit code {code}, {len(rows)} rows"], {})
        failures = []
        certified = 0
        gains = []
        for row in rows:
            fpc, spc, ocpc, costless = (
                float(row[k]) for k in ("fpc", "spc", "ocpc", "costless")
            )
            if row["status"] == "ok":
                certified += 1
            else:
                failures.append(f"snr {row['snr_db']}: status {row['status']}")
            if not max(fpc, spc) - TOL_PAYOFF <= ocpc <= costless + TOL_PAYOFF:
                failures.append(
                    f"snr {row['snr_db']}: ocpc {ocpc} outside "
                    f"[max(fpc, spc), costless] = [{max(fpc, spc)}, {costless}]"
                )
            gains.append(float(row["gain_ocpc_vs_spc_pct"]))
        return Checked(len(rows), failures, {"certified": certified, "gains": gains})

    def summarize(self, checked: list[Checked], unit_times: list[float]) -> tuple[dict, dict]:
        solves = sum(c.ops for c in checked)
        certified = sum(c.facts.get("certified", 0) for c in checked)
        gains = [g for c in checked for g in c.facts.get("gains", [])]
        metrics = {
            "certified_frac": (certified / solves, "fraction"),
            "ocpc_gain_pct_mean": (statistics.fmean(gains) if gains else 0.0, "%"),
        }
        return metrics, {"solves": solves, "certified": certified}


# --------------------------------------------------------------------------
# noisy-random: random alphabets and noisy observation channels.
# --------------------------------------------------------------------------


def shuffled(units: list, seed: int) -> list:
    """The units in the order ``default_rng(seed)`` permutes them to."""
    order = np.random.default_rng(seed).permutation(len(units))
    return [units[i] for i in order]


def random_instances(seed: int, count: int):
    """``count`` random problems drawn from ``default_rng(seed)``.

    Each draws (|X0|, |X1|, |X2|, |Y|) uniformly from [2, 4], a Dirichlet(1)
    prior, Dirichlet(0.5) channel rows and standard Gaussian payoffs, in
    that order.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n0, n1, n2, ny = (int(v) for v in rng.integers(2, 5, size=4))
        prior = probability.StatePrior(rng.dirichlet(np.ones(n0)))
        channel = probability.ObservationChannel(
            rng.dirichlet(0.5 * np.ones(ny), size=n1)
        )
        payoff = optimizer.PayoffTable(rng.normal(size=(n0, n1, n2)))
        out.append((prior, channel, payoff))
    return out


#: ``default_rng`` seed of the noisy-channel corpus; its first 60 instances
#: are the corpus the solver's certification failures were found on.
CORPUS_SEED = 1


class NoisyRandom:
    name = "noisy-random"
    profile = "compute"
    min_repeats = 0
    spans = ("optimizer.solve",)

    def __init__(self, seed: int, tiny: bool = False):
        # The corpus is fixed and the seed only orders it: fresh draws per
        # seed made the run's total time spread by 38% between seeds, and
        # relabelled alphabets by 36% (see README.md).
        self.instances = random_instances(CORPUS_SEED, 5 if tiny else 100)
        units = [
            Unit(f"instance-{i}", self._caller(inst))
            for i, inst in enumerate(self.instances)
        ]
        self._by_label = {u.label: inst for u, inst in zip(units, self.instances)}
        self.units = shuffled(units, seed)

    @staticmethod
    def _caller(instance):
        def call():
            try:
                return True, optimizer.solve(*instance)
            except optimizer.ConvergenceError as exc:
                if exc.result is None:
                    raise
                return False, exc.result

        return call

    def fingerprint(self, output) -> str:
        certified, r = output
        return (f"{certified} {r.payoff.hex()} {r.dual_bound.hex()} "
                f"{r.slack.hex()} {r.iterations}")

    def check(self, label: str, output) -> Checked:
        certified, r = output
        failures = []
        if certified:
            if r.dual_bound - r.payoff > TOL_PAYOFF:
                failures.append(f"dual gap {r.dual_bound - r.payoff} > {TOL_PAYOFF}")
            _, channel, _ = self._by_label[label]
            slack = -constraint.info_constraint_gap(probability.compose(r.qbar, channel))
            if slack < -constraint.FEASIBILITY_TOL:
                failures.append(f"recomputed slack {slack} < -{constraint.FEASIBILITY_TOL}")
        facts = {
            "certified": certified,
            "iterations": r.iterations,
            "inactive": certified and r.iterations == 0,
        }
        return Checked(1, failures, facts)

    def summarize(self, checked, unit_times):
        solves = len(checked)
        certified = sum(bool(c.facts.get("certified")) for c in checked)
        ms = [1e3 * t for t in unit_times]
        metrics = {
            "certified_frac": (certified / solves, "fraction"),
            "solve_ms_p50": (statistics.median(ms), "ms"),
            "solve_ms_p90": (percentile(ms, 0.9), "ms"),
        }
        counts = {
            "solves": solves,
            "certified": certified,
            "inner_iters": sum(c.facts.get("iterations", 0) for c in checked),
            "inactive_constraint": sum(bool(c.facts.get("inactive")) for c in checked),
        }
        return metrics, counts


# --------------------------------------------------------------------------
# Coding workloads: shared checks on a simulator report.
# --------------------------------------------------------------------------


def _coding_check(result: dict, target_payoff: float, w_max: float) -> tuple[list[str], dict]:
    failures = []
    tv = result["tv_to_target"]
    deviation = abs(result["average_payoff"] - target_payoff)
    if deviation > 2.0 * tv * w_max + 1e-12:
        failures.append(f"payoff deviation {deviation} > 2 * TV {tv} * max|w| {w_max}")
    coded = [b for b in result["blocks"] if not b["payoff_only"]]
    facts = {
        "tv": tv,
        "encoder_failures": result["encoder_failures"],
        "decoder_errors": result["decoder_errors"],
        "coded_blocks": len(coded),
    }
    return failures, facts


def _coding_summary(checked):
    coded = sum(c.facts.get("coded_blocks", 0) for c in checked)
    tvs = [c.facts["tv"] for c in checked if "tv" in c.facts]
    decoder = sum(c.facts.get("decoder_errors", 0) for c in checked)
    metrics = {
        "tv_median": (statistics.median(tvs) if tvs else 1.0, "TV"),
        "decode_error_frac": (decoder / coded if coded else 1.0, "fraction"),
    }
    counts = {
        "runs": len(checked),
        "coded_blocks": coded,
        "encoder_failures": sum(c.facts.get("encoder_failures", 0) for c in checked),
        "decoder_errors": decoder,
        "tv": tvs,
    }
    return metrics, counts


def binary_target():
    """The binary instance of acceptance criterion 7 and its weakly
    coordinated target: x1 uniform and independent, P(x2 = x0) = 0.55."""
    prior = probability.StatePrior(np.array([0.5, 0.5]))
    channel = probability.ObservationChannel.identity(2)
    w = np.zeros((2, 2, 2))
    w[0, 0, 0] = 1.0
    w[1, 1, 1] = 1.0
    cond = np.zeros((2, 2, 2))
    for x0 in range(2):
        for x2 in range(2):
            cond[x0, :, x2] = 0.5 * (0.55 if x2 == x0 else 0.45)
    target = probability.JointDistribution(0.5 * cond, ("x0", "x1", "x2"))
    return prior, channel, optimizer.PayoffTable(w), target


class CodingBinary:
    name = "coding-binary"
    profile = "memory"
    # a seed must reproduce its report byte for byte, so one run repeats
    min_repeats = 1
    spans = ("coding.CodingConfig", "coding.run", "probability.compose",
             "probability.conditional_mutual_information")

    def __init__(self, seed: int, tiny: bool = False):
        prior, channel, payoff, target = binary_target()
        n, blocks, runs = (100, 5, 2) if tiny else (400, 40, 10)
        self.configs = [
            coding.CodingConfig(
                target=target, channel=channel, prior=prior, payoff=payoff,
                block_length=n, num_blocks=blocks, rate=0.025, epsilon=0.5,
                seed=seed + k,
            )
            for k in range(runs)
        ]
        self.target_payoff = optimizer.expected_payoff(target, payoff)
        self.w_max = float(np.abs(payoff.values).max())
        self.codebook_size = self.configs[0].codebook_size
        self.units = [
            Unit(f"seed-{cfg.seed}", self._caller(cfg)) for cfg in self.configs
        ]

    @staticmethod
    def _caller(cfg):
        return lambda: coding.run(cfg).to_dict()

    def fingerprint(self, output) -> str:
        return json.dumps(output, sort_keys=True)

    def check(self, label: str, output) -> Checked:
        failures, facts = _coding_check(output, self.target_payoff, self.w_max)
        return Checked(1, failures, facts)

    def summarize(self, checked, unit_times):
        metrics, counts = _coding_summary(checked)
        counts["codebook_size"] = self.codebook_size
        return metrics, counts


class CodingIC:
    name = "coding-ic"
    profile = "memory"
    min_repeats = 1
    spans = ("cli.main", "optimizer.solve", "icmodel.build_state_prior",
             "icmodel.build_payoff_table", "coding.CodingConfig", "coding.run",
             "constraint.info_constraint_gap", "probability.compose",
             "probability.conditional_mutual_information")

    def __init__(self, seed: int, tiny: bool = False):
        n, blocks = ("20", "4") if tiny else ("40", "40")
        argv = [
            "simulate", "--target", "solver", "--min-slack", "0.1", "--snr", "10",
            "--sim-n", n, "--sim-blocks", blocks, "--sim-seed", str(seed),
        ]
        # Build the configuration the CLI will build, so a bad input fails
        # here and the codebook size is known before the timed run.
        ic = icmodel.ICConfig.for_regime("hir", 10.0, payoff_form="log")
        prior = icmodel.build_state_prior(ic)
        channel = icmodel.identity_observation_channel()
        payoff = icmodel.build_payoff_table(ic)
        target = optimizer.solve(prior, channel, payoff, min_slack=0.1).qbar
        self.config = coding.CodingConfig(
            target=target, channel=channel, prior=prior, payoff=payoff,
            block_length=int(n), num_blocks=int(blocks), seed=seed,
        )
        self.w_max = float(np.abs(payoff.values).max())
        self.units = [Unit("simulate", lambda: _capture_cli(argv))]

    def fingerprint(self, output) -> str:
        return _cli_fingerprint(output)

    def check(self, label: str, output) -> Checked:
        code, text = output
        if code != 0:
            return Checked(1, [f"exit code {code}"], {})
        report = json.loads(text)
        failures, facts = _coding_check(
            report["result"], report["target_payoff"], self.w_max
        )
        if report["codebook_size"] != self.config.codebook_size:
            failures.append(
                f"codebook size {report['codebook_size']} != {self.config.codebook_size}"
            )
        facts["target_payoff"] = report["target_payoff"]
        facts["average_payoff"] = report["result"]["average_payoff"]
        return Checked(1, failures, facts)

    def summarize(self, checked, unit_times):
        metrics, counts = _coding_summary(checked)
        counts["codebook_size"] = self.config.codebook_size
        if checked and "average_payoff" in checked[0].facts:
            counts["average_payoff"] = checked[0].facts["average_payoff"]
            counts["target_payoff"] = checked[0].facts["target_payoff"]
        return metrics, counts


WORKLOADS = {w.name: w for w in (ICSweep, NoisyRandom, CodingBinary, CodingIC)}
