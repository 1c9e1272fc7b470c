"""Golden outputs and README commands, run through ``codedpc.cli.main``.

The files under ``tests/golden`` were written by the CLI before the solver
refactor that trimmed ``optimizer.py``; any change to a certified payoff, a
sweep row or a seeded simulation report shows up here as a byte difference.
Regenerate a file only when a change of output is intended, with the argv
listed in ``GOLDEN_RUNS`` and ``--output tests/golden/<name>``.

Every ``codedpc ...`` line in the README's fenced blocks must also exit 0.
Runs are shared: a README command whose resolved settings equal a golden
run's is not run a second time.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from codedpc.cli import _settings, build_parser, main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
README = HERE.parent / "README.md"

GOLDEN_RUNS = {
    "sweep_hir_log.csv": ("sweep", "--regime", "hir", "--payoff", "log"),
    "sweep_lir_linear.csv": ("sweep", "--regime", "lir", "--payoff", "linear"),
    "simulate_solver_snr10_n40_b40.json": (
        "simulate", "--target", "solver", "--min-slack", "0.1", "--snr", "10",
        "--sim-n", "40", "--sim-blocks", "40",
    ),
}


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


def test_readme_lists_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == {"sweep", "policies", "simulate"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_zero(run_once, argv):
    code, produced = run_once(argv)
    assert code == 0
    assert produced
