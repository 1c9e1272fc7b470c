"""Bit-level golden of ``solve`` on the interference model and noisy problems.

``golden/solver_bits.json`` records, for every solve below, the certified
flag, the payoff, dual bound, slack and multiplier as ``float.hex()``, the
inner-iteration count and a sha256 of the returned qbar bytes.  A change to
the solver's arithmetic that moves any certified answer by one ulp shows up
here.  Regenerate the file only when such a change is intended:

    PYTHONPATH=src python tests/test_solver_bits.py

The solves are the interference model (HIR/LIR, log/linear payoff, perfect
monitoring) at 0, 10, 20, 30 and 40 dB, one ``min_slack=0.1`` point, and the
first 15 problems of the ``default_rng(1)`` noisy-channel corpus.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from codedpc import ConvergenceError, ObservationChannel, PayoffTable, StatePrior, solve
from codedpc import icmodel

GOLDEN = Path(__file__).parent / "golden" / "solver_bits.json"
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


def cases():
    for regime in ("hir", "lir"):
        for form in ("log", "linear"):
            for snr in IC_SNRS_DB:
                yield f"ic-{regime}-{form}-{snr:g}dB", ic_problem(regime, form, snr), {}
    yield "ic-hir-log-10dB-min-slack-0.1", ic_problem("hir", "log", 10.0), {"min_slack": 0.1}
    for i, problem in enumerate(noisy_problems(NOISY_SEED, NOISY_COUNT)):
        yield f"noisy-{NOISY_SEED}-{i}", problem, {}


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


def solver_bits() -> dict:
    return {label: bits(problem, kwargs) for label, problem, kwargs in cases()}


def test_solver_bits_match_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = solver_bits()
    assert list(actual) == list(expected)
    for label, record in expected.items():
        assert actual[label] == record, label


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(solver_bits(), indent=1) + "\n")
