"""Experiment runner: policy sweeps, per-state action tables, coding runs.

Subcommands
    sweep      CSV of the four policies and their relative gains per SNR point
    policies   CSV of per-state optimal and semi-coordinated actions
    simulate   JSON report of one block-coding simulation

Configuration comes from an optional flat key=value file plus command-line
flags (flags win).  Exit codes: 0 success, 1 usage error, 2 solver or
simulation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import icmodel
from .coding import CodingConfig, CodingConfigError, run as run_coding
from .constraint import info_constraint_gap
from .optimizer import (
    ConvergenceError,
    SolverOptions,
    best_actions,
    costless_bound,
    expected_payoff,
    solve,
)
# Unused here, kept because perfbench's Tracer.install looks up cli.compose with getattr.
from .probability import compose  # noqa: F401

USAGE_ERROR = 1
RUN_ERROR = 2
#: Largest SNR grid ``sweep`` accepts; each point is one certified solve.
MAX_SNR_POINTS = 100_000

SWEEP_COLUMNS = (
    "snr_db",
    "fpc",
    "spc",
    "ocpc",
    "costless",
    "gain_ocpc_vs_fpc_pct",
    "gain_costless_vs_fpc_pct",
    "gain_ocpc_vs_spc_pct",
    "gain_costless_vs_spc_pct",
    "status",
)
POLICY_COLUMNS = (
    "state", "g11", "g12", "g21", "g22", "prob",
    "best_x1", "best_x2", "best_payoff", "spc_x1",
)

# key -> (parser, default).  Flags use the same names with '-' for '_'.
CONFIG_SCHEMA: dict[str, tuple] = {
    "regime": (str, "hir"),
    "payoff": (str, "log"),
    "snr_start": (float, 0.0),
    "snr_stop": (float, 40.0),
    "snr_step": (float, 1.0),
    "snr": (float, 10.0),
    "gmin": (float, 0.1),
    "gmax": (float, 1.9),
    "p11": (float, None),
    "p12": (float, None),
    "p21": (float, None),
    "p22": (float, None),
    "tol_payoff": (float, 1e-5),
    "min_slack": (float, 0.0),
    "target": (str, "solver"),
    "sim_n": (int, 200),
    "sim_blocks": (int, 50),
    "sim_rate": (float, None),
    "sim_epsilon": (float, 0.2),
    "sim_seed": (int, 0),
}


class UsageError(Exception):
    pass


def read_config(path: str) -> dict:
    """Parse a flat key=value file; '#' starts a comment."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in CONFIG_SCHEMA:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        parser = CONFIG_SCHEMA[key][0]
        try:
            values[key] = parser(text)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {text!r}") from exc
    return values


def _settings(args: argparse.Namespace) -> dict:
    merged = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if getattr(args, "config", None):
        merged.update(read_config(args.config))
    for key in CONFIG_SCHEMA:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if merged["regime"] not in icmodel.REGIME_PROBS:
        raise UsageError(f"regime must be one of {sorted(icmodel.REGIME_PROBS)}, got {merged['regime']!r}")
    if merged["target"] not in ("solver", "spc", "fpc"):
        raise UsageError(f"target must be solver, spc or fpc, got {merged['target']!r}")
    return merged


def _ic_config(settings: dict, snr_db: float) -> icmodel.ICConfig:
    probs = list(icmodel.REGIME_PROBS[settings["regime"]])
    for i, key in enumerate(("p11", "p12", "p21", "p22")):
        if settings[key] is not None:
            probs[i] = settings[key]
    try:
        return icmodel.ICConfig(
            snr_db=snr_db,
            p_gmin=tuple(probs),
            g_min=settings["gmin"],
            g_max=settings["gmax"],
            payoff_form=settings["payoff"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _model(settings: dict, snr_db: float):
    """The model at ``snr_db``: its config, state prior, perfect-monitoring
    channel and payoff table."""
    cfg = _ic_config(settings, snr_db)
    prior = icmodel.build_state_prior(cfg)
    channel = icmodel.identity_observation_channel()
    return cfg, prior, channel, icmodel.build_payoff_table(cfg)


def _solve_target(prior, channel, payoff, settings: dict):
    """``solve`` with the settings' ``min_slack`` and ``tol_payoff``.

    The alphabets come from icmodel and match, so a ``ValueError`` can only
    mean a bad option or ``min_slack``: a usage error.
    """
    try:
        opts = SolverOptions(tol_payoff=settings["tol_payoff"])
        return solve(prior, channel, payoff, min_slack=settings["min_slack"], options=opts)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _gain_pct(payoff: float, baseline: float) -> float:
    """Percent gain of ``payoff`` over ``baseline``; NaN when the baseline is 0."""
    return 100.0 * (payoff / baseline - 1.0) if baseline else math.nan


def _snr_grid(settings: dict) -> list[float]:
    for key in ("snr_start", "snr_stop", "snr_step"):
        if not math.isfinite(settings[key]):
            raise UsageError(f"{key} must be finite, got {settings[key]!r}")
    start, stop, step = settings["snr_start"], settings["snr_stop"], settings["snr_step"]
    if step <= 0:
        raise UsageError(f"snr_step must be positive, got {step!r}")
    count = np.floor((stop - start) / step + 1e-9) + 1
    if count > MAX_SNR_POINTS:
        raise UsageError(f"SNR grid has {count:.4g} points, more than {MAX_SNR_POINTS}")
    if count < 1:
        raise UsageError(f"empty SNR grid: start {start}, stop {stop}, step {step}")
    return [start + k * step for k in range(int(count))]


def _table(columns: tuple, rows: list[tuple]) -> str:
    """CSV text: the header ``columns``, then one line per row, whose strings
    pass through and whose numbers are written with 12 significant digits."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format(float(v), ".12g") for v in row))
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> str:
    settings = _settings(args)
    grid = _snr_grid(settings)
    # The prior reads only the gain probabilities, so it, the channel and the
    # FPC policy hold over the grid; each point checks its own config.
    prior = icmodel.build_state_prior(_ic_config(settings, grid[0]))
    channel = icmodel.identity_observation_channel()
    fpc_policy = icmodel.partner_full_power(prior, 1)
    rows = []
    for snr_db in grid:
        payoff = icmodel.build_payoff_table(_ic_config(settings, snr_db))
        fpc = expected_payoff(fpc_policy, payoff)
        spc_x1 = icmodel.spc_best_x1(payoff)
        spc = expected_payoff(icmodel.partner_full_power(prior, spc_x1), payoff)
        bound = costless_bound(prior, payoff)
        status = "ok"
        try:
            ocpc = _solve_target(prior, channel, payoff, settings).payoff
        except ConvergenceError as exc:
            status = "no_certificate"
            if exc.result is None:
                raise
            ocpc = exc.result.payoff
        # in SWEEP_COLUMNS order: ocpc and costless over fpc, then over spc
        gains = [_gain_pct(value, base) for base in (fpc, spc) for value in (ocpc, bound)]
        rows.append((snr_db, fpc, spc, ocpc, bound, *gains, status))
    return _table(SWEEP_COLUMNS, rows)


def cmd_policies(args: argparse.Namespace) -> str:
    settings = _settings(args)
    cfg, prior, _, payoff = _model(settings, settings["snr"])
    pairs = best_actions(payoff)
    spc_x1 = icmodel.spc_best_x1(payoff)
    levels = cfg.power_levels
    rows = []
    for s, gains in enumerate(icmodel.gain_states(cfg)):
        b1, b2 = pairs[s]
        best = (levels[b1], levels[b2], payoff.values[s, b1, b2])
        rows.append((s, *gains, prior.probs[s], *best, levels[spc_x1[s]]))
    return _table(POLICY_COLUMNS, rows)


def cmd_simulate(args: argparse.Namespace) -> str:
    settings = _settings(args)
    _, prior, channel, payoff = _model(settings, settings["snr"])
    if settings["target"] == "fpc":
        target = icmodel.partner_full_power(prior, 1)
    elif settings["target"] == "spc":
        target = icmodel.partner_full_power(prior, icmodel.spc_best_x1(payoff))
    else:
        target = _solve_target(prior, channel, payoff, settings).qbar
    sim_cfg = CodingConfig(
        target=target,
        channel=channel,
        prior=prior,
        payoff=payoff,
        block_length=settings["sim_n"],
        num_blocks=settings["sim_blocks"],
        rate=settings["sim_rate"],
        epsilon=settings["sim_epsilon"],
        seed=settings["sim_seed"],
    )
    result = run_coding(sim_cfg)
    gap = info_constraint_gap(sim_cfg.reference)
    report = {
        "settings": {
            "regime": settings["regime"],
            "payoff": settings["payoff"],
            "snr_db": settings["snr"],
            "target": settings["target"],
            "block_length": settings["sim_n"],
            "num_blocks": settings["sim_blocks"],
            "epsilon": settings["sim_epsilon"],
            "seed": settings["sim_seed"],
        },
        "rate": sim_cfg.resolved_rate,
        "codebook_size": sim_cfg.codebook_size,
        "info_coordination_bits": sim_cfg.info_coordination,
        "info_channel_bits": sim_cfg.info_channel,
        "target_payoff": expected_payoff(target, payoff),
        "target_slack": -gap,
        "result": result.to_dict(),
    }
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@functools.cache  # one parser per process, built on first use, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedpc",
        description="Coded power control experiments on the two-pair interference channel.",
    )
    # every subcommand takes the same options, added once
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value configuration file")
    shared.add_argument("--output", help="write to this file instead of stdout")
    for key, (kind, _) in CONFIG_SCHEMA.items():
        shared.add_argument(f"--{key.replace('_', '-')}", type=kind, dest=key, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "sweep the four policies over an SNR grid (CSV)"),
        ("policies", "per-state optimal actions at one SNR (CSV)"),
        ("simulate", "one block-coding simulation (JSON)"),
    ):
        sub.add_parser(name, help=help_text, parents=[shared])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with its own code; normalize usage failures to 1
        return 0 if exc.code in (0, None) else USAGE_ERROR
    handler = {"sweep": cmd_sweep, "policies": cmd_policies, "simulate": cmd_simulate}[
        args.command
    ]
    try:
        text = handler(args)
        if args.output:
            # opened only after the run, so a failed run leaves no file behind
            try:
                with open(args.output, "w", encoding="utf-8", newline="") as out:
                    out.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write {args.output!r}: {exc}") from exc
        else:
            sys.stdout.write(text)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ConvergenceError, CodingConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUN_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
