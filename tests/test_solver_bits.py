"""Bit-level goldens of ``solve`` on the interference model and noisy problems.

``golden/solver_bits.json`` and ``golden/solver_exits.json`` record, for
every solve below, the certified flag, the payoff, dual bound, slack and
multiplier as ``float.hex()``, the inner-iteration count and a sha256 of the
returned qbar bytes.  A change to the solver's arithmetic that moves any
answer by one ulp shows up here.  Regenerate both files only when such a
change is intended:

    PYTHONPATH=src python tests/test_solver_bits.py

``solver_bits.json`` holds the interference model (HIR/LIR, log/linear
payoff, perfect monitoring) at 0, 10, 20, 30 and 40 dB, one
``min_slack=0.1`` point, and the first 15 problems of the ``default_rng(1)``
noisy-channel corpus.

``solver_exits.json`` drives each way out of the solver at least once:

* the outer budget, raising ``ConvergenceError`` with a result (binary
  instance, ``tol_payoff=1e-13``, 2 outer steps, 40 inner iterations);
* the inner budget, reached both between steps and inside backtracking
  (``max_inner_iter`` 50 and 200 on noisy problem 0);
* the relaxed constraint of ``stages=4`` (HIR, log payoff, 10 dB);
* ``min_slack=0.05`` on noisy problem 1;
* an equal-row (blind) channel, whose inner ascents also stop on the step
  floor;
* a noisy problem whose constraint is inactive (problem 18), which returns
  the per-state argmax;
* the multiplier cap, raising ``ConvergenceError`` with the best feasible
  candidate (binary instance, a flip-0.45 channel, ``min_slack`` just below
  the channel's capacity, 10 inner iterations).

The one exit neither file reaches is ``ConvergenceError`` without a result
(no feasible point at all); ``test_optimizer.py`` covers it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from codedpc import (
    ConvergenceError,
    ObservationChannel,
    PayoffTable,
    SolverOptions,
    StatePrior,
    solve,
)
from codedpc import icmodel

GOLDEN = Path(__file__).parent / "golden" / "solver_bits.json"
EXITS_GOLDEN = Path(__file__).parent / "golden" / "solver_exits.json"
IC_SNRS_DB = (0.0, 10.0, 20.0, 30.0, 40.0)
NOISY_SEED = 1
NOISY_COUNT = 15


def ic_problem(regime: str, form: str, snr_db: float):
    cfg = icmodel.ICConfig(
        snr_db=snr_db, p_gmin=icmodel.REGIME_PROBS[regime], payoff_form=form
    )
    return (
        icmodel.build_state_prior(cfg),
        icmodel.identity_observation_channel(),
        icmodel.build_payoff_table(cfg),
    )


def noisy_problems(seed: int, count: int):
    """Random problems: per problem (|X0|, |X1|, |X2|, |Y|) uniform on [2, 4],
    a Dirichlet(1) prior, Dirichlet(0.5) channel rows and standard Gaussian
    payoffs, drawn from one ``default_rng(seed)`` in that order."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n0, n1, n2, ny = (int(v) for v in rng.integers(2, 5, size=4))
        prior = StatePrior(rng.dirichlet(np.ones(n0)))
        channel = ObservationChannel(rng.dirichlet(0.5 * np.ones(ny), size=n1))
        yield prior, channel, PayoffTable(rng.normal(size=(n0, n1, n2)))


def binary_problem(channel=None):
    """Binary state and actions, uniform prior, payoff 1 when x1 = x2 = x0."""
    w = np.zeros((2, 2, 2))
    w[0, 0, 0] = w[1, 1, 1] = 1.0
    channel = channel if channel is not None else ObservationChannel.identity(2)
    return StatePrior(np.array([0.5, 0.5])), channel, PayoffTable(w)


def cases():
    for regime in ("hir", "lir"):
        for form in ("log", "linear"):
            for snr in IC_SNRS_DB:
                yield f"ic-{regime}-{form}-{snr:g}dB", ic_problem(regime, form, snr), {}
    yield "ic-hir-log-10dB-min-slack-0.1", ic_problem("hir", "log", 10.0), {"min_slack": 0.1}
    for i, problem in enumerate(noisy_problems(NOISY_SEED, NOISY_COUNT)):
        yield f"noisy-{NOISY_SEED}-{i}", problem, {}


def exit_cases():
    noisy = list(noisy_problems(NOISY_SEED, 19))
    yield "binary-outer-budget", binary_problem(), {
        "options": SolverOptions(tol_payoff=1e-13, outer_steps=2, max_inner_iter=40)
    }
    for budget in (50, 200):
        yield f"noisy-1-0-inner-budget-{budget}", noisy[0], {
            "options": SolverOptions(max_inner_iter=budget)
        }
    yield "ic-hir-log-10dB-stages-4", ic_problem("hir", "log", 10.0), {"stages": 4}
    yield "noisy-1-1-min-slack-0.05", noisy[1], {"min_slack": 0.05}
    blind = ObservationChannel(np.full((2, 2), 0.5))
    yield "binary-blind-channel", binary_problem(blind), {}
    yield "noisy-1-18-inactive", noisy[18], {}
    flip = ObservationChannel(np.array([[0.55, 0.45], [0.45, 0.55]]))
    yield "binary-flip-0.45-multiplier-cap", binary_problem(flip), {
        "min_slack": 0.0065,
        "options": SolverOptions(max_inner_iter=10),
    }


def bits(problem, kwargs) -> dict:
    try:
        certified, result = True, solve(*problem, **kwargs)
    except ConvergenceError as exc:
        certified, result = False, exc.result
    return {
        "certified": certified,
        "payoff": result.payoff.hex(),
        "dual_bound": result.dual_bound.hex(),
        "slack": result.slack.hex(),
        "multiplier": result.multiplier.hex(),
        "iterations": result.iterations,
        "qbar_sha256": hashlib.sha256(result.qbar.pmf.tobytes()).hexdigest(),
    }


def solver_bits(case_list) -> dict:
    return {label: bits(problem, kwargs) for label, problem, kwargs in case_list}


def assert_matches(golden: Path, case_list) -> None:
    expected = json.loads(golden.read_text())
    actual = solver_bits(case_list)
    assert list(actual) == list(expected)
    for label, record in expected.items():
        assert actual[label] == record, label


def test_solver_bits_match_golden():
    assert_matches(GOLDEN, cases())


def test_solver_exits_match_golden():
    assert_matches(EXITS_GOLDEN, exit_cases())


if __name__ == "__main__":
    for golden, case_list in ((GOLDEN, cases()), (EXITS_GOLDEN, exit_cases())):
        golden.write_text(json.dumps(solver_bits(case_list), indent=1) + "\n")
