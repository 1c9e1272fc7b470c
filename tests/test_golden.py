"""Golden outputs and README commands, run through ``codedpc.cli.main``.

The CLI files under ``tests/golden`` were written before the solver
refactor that trimmed ``optimizer.py``, and the ``policies_*.csv`` files
before the CLI's two CSV writers became one; any change to a certified
payoff, a sweep or policy row or a seeded simulation report shows up here as
a byte difference.
Regenerate a file only when a change of output is intended, with the argv
listed in ``GOLDEN_RUNS`` and ``--output tests/golden/<name>``.

The ``sim_*.json`` files are ``coding.run(cfg).to_dict()`` reports, written
by ``sim_report`` before the simulator's per-block loop was rewritten.  Their
configurations (``SIM_RUNS``) reach paths the CLI simulation does not: long
binary blocks, a noisy observation channel, epsilon >= 1, a ternary action
with a zero-probability cell, encoder failures with every state present, and
a codebook larger than one decoder chunk.

``sim_corpus.sha256`` is the hash that ``tests/sim_corpus.py`` prints over
its 27 reports; it was written before the simulator's draws became raw
words compared with integer thresholds.

Every ``codedpc ...`` line in the README's fenced blocks must also exit 0.
Runs are shared: a README command whose resolved settings equal a golden
run's is not run a second time.
"""

from __future__ import annotations

import hashlib
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from codedpc import (
    CodingConfig,
    JointDistribution,
    ObservationChannel,
    PayoffTable,
    StatePrior,
    run,
)
from codedpc import coding
from codedpc.cli import _settings, build_parser, main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
README = HERE.parent / "README.md"

GOLDEN_RUNS = {
    "sweep_hir_log.csv": ("sweep", "--regime", "hir", "--payoff", "log"),
    "sweep_lir_linear.csv": ("sweep", "--regime", "lir", "--payoff", "linear"),
    "policies_hir_log_10db.csv": ("policies", "--regime", "hir", "--snr", "10"),
    "policies_lir_linear_30db.csv": (
        "policies", "--regime", "lir", "--payoff", "linear", "--snr", "30",
    ),
    "simulate_solver_snr10_n40_b40.json": (
        "simulate", "--target", "solver", "--min-slack", "0.1", "--snr", "10",
        "--sim-n", "40", "--sim-blocks", "40",
    ),
}



def _binary_config(n, seed, blocks, rate, eps, channel=None) -> CodingConfig:
    """The binary instance of acceptance criterion 7: x1 uniform and
    independent, P(x2 = x0) = 0.55, payoff 1 on (0, 0, 0) and (1, 1, 1)."""
    cond = np.zeros((2, 2, 2))
    for x0 in range(2):
        for x2 in range(2):
            cond[x0, :, x2] = 0.5 * (0.55 if x2 == x0 else 0.45)
    w = np.zeros((2, 2, 2))
    w[0, 0, 0] = w[1, 1, 1] = 1.0
    return CodingConfig(
        target=JointDistribution(0.5 * cond, ("x0", "x1", "x2")),
        channel=channel or ObservationChannel.identity(2),
        prior=StatePrior(np.array([0.5, 0.5])),
        payoff=PayoffTable(w),
        block_length=n, num_blocks=blocks, rate=rate, epsilon=eps, seed=seed,
    )


def _ternary_config(n, seed, blocks, rate, eps, channel=None) -> CodingConfig:
    """|X1| = 3, and x1 = 2 never occurs with (x0, x2) = (0, 0)."""
    arr = np.zeros((2, 3, 2))
    arr[0, :, 0] = [0.12, 0.18, 0.0]
    arr[0, :, 1] = [0.05, 0.1, 0.05]
    arr[1, :, 0] = [0.08, 0.08, 0.04]
    arr[1, :, 1] = [0.1, 0.1, 0.1]
    return CodingConfig(
        target=JointDistribution(arr, ("x0", "x1", "x2")),
        channel=channel or ObservationChannel.identity(3),
        prior=StatePrior(arr.sum(axis=(1, 2))),
        payoff=PayoffTable(np.arange(12, dtype=float).reshape(2, 3, 2) % 5),
        block_length=n, num_blocks=blocks, rate=rate, epsilon=eps, seed=seed,
    )


_BSC = ObservationChannel(np.array([[0.75, 0.25], [0.25, 0.75]]))

SIM_RUNS = {
    "sim_binary_n400_seed0.json": lambda: _binary_config(400, 0, 40, 0.025, 0.5),
    "sim_binary_n400_seed1.json": lambda: _binary_config(400, 1, 40, 0.025, 0.5),
    "sim_binary_bsc_n300.json": lambda: _binary_config(300, 3, 20, 0.03, 0.5, _BSC),
    "sim_binary_eps15_n16.json": lambda: _binary_config(16, 4, 30, 0.4, 1.5),
    "sim_binary_encoder_fail_n40.json": lambda: _binary_config(40, 7, 30, 0.1, 0.3),
    "sim_ternary_zero_cell_n120.json": lambda: _ternary_config(120, 5, 20, 0.08, 0.8),
    "sim_binary_chunks_n100.json": lambda: _binary_config(100, 6, 8, 0.14, 0.5),
}


def sim_report(cfg: CodingConfig) -> bytes:
    """The seeded report of one simulation, as the golden files hold it."""
    return (json.dumps(run(cfg).to_dict(), sort_keys=True, indent=2) + "\n").encode()


def readme_commands() -> list[list[str]]:
    """argv (without the program name) of each ``codedpc`` line in a fenced
    block of the README, with backslash continuations joined and ``#``
    comments dropped."""
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("codedpc "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def _without_output(argv) -> list[str]:
    argv = list(argv)
    if "--output" in argv:
        i = argv.index("--output")
        del argv[i : i + 2]
    return argv


@pytest.fixture(scope="module")
def run_once(tmp_path_factory):
    """Run a CLI argv with ``--output`` redirected to a temporary file.

    Returns the exit code and the output bytes.  Results are cached by the
    subcommand and its resolved settings, so equivalent argvs run once.
    """
    out_dir = tmp_path_factory.mktemp("cli")
    cache = {}

    def run(argv):
        argv = _without_output(argv)
        args = build_parser().parse_args(argv)
        key = (args.command, tuple(sorted(_settings(args).items())))
        if key not in cache:
            path = out_dir / f"run{len(cache)}.out"
            code = main([*argv, "--output", str(path)])
            cache[key] = (code, path.read_bytes() if path.exists() else b"")
        return cache[key]

    return run


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_matches_golden_file(run_once, name):
    code, produced = run_once(GOLDEN_RUNS[name])
    assert code == 0
    assert produced == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(SIM_RUNS))
def test_simulation_matches_golden_file(name):
    assert sim_report(SIM_RUNS[name]()) == (GOLDEN / name).read_bytes()


def test_sim_corpus_matches_golden_hash():
    # imported here: sim_corpus imports this module
    from sim_corpus import corpus_text

    digest = hashlib.sha256(corpus_text().encode()).hexdigest()
    assert digest == (GOLDEN / "sim_corpus.sha256").read_text().strip()


def test_chunk_golden_spans_several_chunks():
    cfg = SIM_RUNS["sim_binary_chunks_n100.json"]()
    assert cfg.codebook_size * cfg.block_length * 8 > 4 * coding._CHUNK_BYTES


def test_readme_lists_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == {"sweep", "policies", "simulate"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_zero(run_once, argv):
    code, produced = run_once(argv)
    assert code == 0
    assert produced
