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
  instance, ``tol_payoff=1e-13``, 2 outer steps, 40 inner steps);
* the inner budget on noisy problem 0: at 3 inner steps the cells reach it
  and the x2 step reaches what they leave (uncertified, and the bracket
  collapses), at 10 only the x2 step does (certified);
* the relaxed constraint of ``stages=4`` (HIR, log payoff, 10 dB);
* ``min_slack=0.05`` on noisy problem 1;
* an equal-row (blind) channel, whose cells are solved by one Newton step;
* a noisy problem whose constraint is inactive (problem 18), which returns
  the per-state argmax;
* the multiplier cap, raising ``ConvergenceError`` with the best feasible
  candidate (binary instance, a flip-0.45 channel, payoff scaled by 1e12,
  so that every multiplier up to the cap leaves the maximizer infeasible).

The two budget exits lower the solver's fixed budgets, ``_OUTER_STEPS`` and
``_MAX_INNER_STEPS`` in ``codedpc.optimizer``, through ``step_budgets``.

The collapsed multiplier bracket is reached by the 3-step inner budget.
The one exit neither file reaches is ``ConvergenceError`` without a result
(no feasible point at all); ``test_optimizer.py`` covers it.

``golden/solver_intervals.json`` keeps, per point, only the certified flag,
the payoff and the dual bound, as the current solver writes them
(``python tests/solver_corpus.py --write-intervals``);
``test_recorded_intervals_are_the_current_solvers`` checks that.  A new
algorithm cannot keep the bits, so it must instead meet the four
conditions of ``interval_violations`` at every point; only then are the
bit goldens rewritten, the intervals among them, so that they hold the new
solver for the next change.  ``test_solver_meets_recorded_intervals`` checks
the points of ``solver_bits.json``, and
``test_solver_corpus_meets_recorded_intervals`` and ``solver_corpus.py
--check`` all 382 corpus solves.
"""

from __future__ import annotations

import contextlib
import functools
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
from codedpc import icmodel, optimizer

GOLDEN = Path(__file__).parent / "golden" / "solver_bits.json"
EXITS_GOLDEN = Path(__file__).parent / "golden" / "solver_exits.json"
INTERVALS = Path(__file__).parent / "golden" / "solver_intervals.json"
CORPUS_SHA256 = Path(__file__).parent / "golden" / "solver_corpus.sha256"
# Slack for the cross-bounds: a dual bound may sit this far below the other
# solver's payoff and still count as a bound on it.
CROSS_TOL = 1e-9
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


@contextlib.contextmanager
def step_budgets(**budgets):
    """Solve with the named step budgets of ``codedpc.optimizer`` replaced,
    e.g. ``step_budgets(_OUTER_STEPS=2)``."""
    saved = {name: getattr(optimizer, name) for name in budgets}
    for name, value in budgets.items():
        setattr(optimizer, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(optimizer, name, value)


def exit_cases():
    """Labelled problems and ``solve`` keywords; a ``budgets`` entry holds
    ``step_budgets`` arguments instead."""
    noisy = list(noisy_problems(NOISY_SEED, 19))
    yield "binary-outer-budget", binary_problem(), {
        "options": SolverOptions(tol_payoff=1e-13),
        "budgets": {"_MAX_INNER_STEPS": 40, "_OUTER_STEPS": 2},
    }
    for budget in (3, 10):
        yield f"noisy-1-0-inner-budget-{budget}", noisy[0], {
            "budgets": {"_MAX_INNER_STEPS": budget}
        }
    yield "ic-hir-log-10dB-stages-4", ic_problem("hir", "log", 10.0), {"stages": 4}
    yield "noisy-1-1-min-slack-0.05", noisy[1], {"min_slack": 0.05}
    blind = ObservationChannel(np.full((2, 2), 0.5))
    yield "binary-blind-channel", binary_problem(blind), {}
    yield "noisy-1-18-inactive", noisy[18], {}
    prior, flip, payoff = binary_problem(
        ObservationChannel(np.array([[0.55, 0.45], [0.45, 0.55]]))
    )
    yield "binary-flip-0.45-multiplier-cap", (prior, flip, PayoffTable(1e12 * payoff.values)), {}


def bits(problem, kwargs) -> dict:
    kwargs = dict(kwargs)
    try:
        with step_budgets(**kwargs.pop("budgets", {})):
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


@functools.cache
def golden_point_bits() -> dict:
    return solver_bits(cases())


@functools.cache
def exit_point_bits() -> dict:
    return solver_bits(exit_cases())


def tol_payoff(kwargs) -> float:
    return kwargs.get("options", SolverOptions()).tol_payoff


def interval_violations(old: dict, new: dict, tol: float) -> list[str]:
    """The conditions of a changed solver's record ``new`` against the
    recorded ``old`` one (both ``bits`` records) that fail: it certifies
    wherever the old one did, its payoff is at most ``tol`` below the old
    one, and each dual bound bounds the other solver's payoff."""
    old_pay, old_dual, new_pay, new_dual = (
        float.fromhex(r[k]) for r in (old, new) for k in ("payoff", "dual_bound")
    )
    checks = {
        "certifies where the old solver did": new["certified"] or not old["certified"],
        f"new payoff {new_pay!r} >= old {old_pay!r} - tol": new_pay >= old_pay - tol,
        f"new dual bound {new_dual!r} >= old payoff {old_pay!r}":
            new_dual >= old_pay - CROSS_TOL,
        f"old dual bound {old_dual!r} >= new payoff {new_pay!r}":
            old_dual >= new_pay - CROSS_TOL,
    }
    return [name for name, ok in checks.items() if not ok]


def assert_matches(golden: Path, actual: dict) -> None:
    expected = json.loads(golden.read_text())
    assert list(actual) == list(expected)
    for label, record in expected.items():
        assert actual[label] == record, label


def test_solver_bits_match_golden():
    assert_matches(GOLDEN, golden_point_bits())


def test_solver_meets_recorded_intervals():
    recorded = json.loads(INTERVALS.read_text())["golden_points"]
    actual = golden_point_bits()
    assert list(actual) == list(recorded)
    for label, _, kwargs in cases():
        assert not interval_violations(recorded[label], actual[label], tol_payoff(kwargs)), label


def test_solver_corpus_meets_recorded_intervals():
    # imported here: solver_corpus imports this module
    from solver_corpus import violations

    assert violations() == []


def test_recorded_intervals_are_the_current_solvers():
    # imported here: solver_corpus imports this module
    from solver_corpus import intervals

    assert INTERVALS.read_text() == json.dumps(intervals(), indent=1) + "\n"


def test_solver_exits_match_golden():
    assert_matches(EXITS_GOLDEN, exit_point_bits())


def test_certified_payoff_is_at_most_its_dual_bound():
    # A point up to FEASIBILITY_TOL outside the constraint can pay more than
    # the optimum, and than the bound; the blind channel's did, by 5.3e-6 at
    # multiplier 2**14.  A certified result may exceed its bound by rounding
    # only.
    from solver_corpus import corpus_bits

    for label, record in {**corpus_bits(), **exit_point_bits()}.items():
        pay, bound = (float.fromhex(record[k]) for k in ("payoff", "dual_bound"))
        assert not record["certified"] or pay <= bound + 1e-12 * max(1.0, abs(bound)), label


def test_sweep_takes_fewer_inner_solves_than_a_creeping_search():
    # The 164 sweep points took 951 inner solves under a false-position step
    # kept a quarter of the bracket off either end; Illinois weights take 756.
    from solver_corpus import solve_counts, sweep

    counts = solve_counts(sweep())
    assert counts["certified"] == counts["solves"] == 164
    assert counts["inner_solves"] < 951


def test_solver_corpus_matches_golden_hash():
    # imported here: solver_corpus imports this module
    from solver_corpus import corpus_text

    digest = hashlib.sha256(corpus_text().encode()).hexdigest()
    assert digest == CORPUS_SHA256.read_text().strip()


if __name__ == "__main__":
    for golden, case_list in ((GOLDEN, cases()), (EXITS_GOLDEN, exit_cases())):
        golden.write_text(json.dumps(solver_bits(case_list), indent=1) + "\n")
