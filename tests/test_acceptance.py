"""Acceptance gates for the whole package, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the same condition, so the suite doubles as a readable report:

  1. convexity of the constraint functional on 1000 random triples;
  2. policy ordering FPC <= SPC <= OCPC <= costless on the default sweep;
  3. solver optimum vs an independent grid-search oracle (tiny instance);
  4. headline relative gains of costless coordination over SPC (HIR);
  5. strictly positive OCPC-over-FPC gain at realistic SNR;
  6. block-constant-state relaxation matches the exact S-stage optimum;
     monotone; near-costless limit;
  7. coding-simulator convergence and the payoff deviation bound;
  8. information identities and the two constraint computation paths.
"""

import time

import numpy as np
import pytest

from codedpc import (
    JointDistribution,
    ObservationChannel,
    PayoffTable,
    SolverOptions,
    StatePrior,
    compose,
    conditional_mutual_information,
    costless_bound,
    expected_payoff,
    info_constraint_gap,
    run,
    solve,
)
from codedpc.coding import CodingConfig
from codedpc.icmodel import (
    ICConfig,
    build_payoff_table,
    build_state_prior,
    fpc_distribution,
    identity_observation_channel,
    spc_distribution,
)
from oracles import bsc_block_state_oracle, info_constraint_gap_entropy_path

SNR_GRID = list(range(0, 41))


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def tiny_instance():
    prior = StatePrior(np.array([0.5, 0.5]))
    channel = ObservationChannel.identity(2)
    w = np.zeros((2, 2, 2))
    w[0, 0, 0] = 1.0
    w[1, 1, 1] = 1.0
    return prior, channel, PayoffTable(w)


@pytest.fixture(scope="module")
def default_sweep():
    """Policy payoffs over the default grid, both regimes and payoff forms."""
    channel = identity_observation_channel()
    data = {}
    start = time.perf_counter()
    for regime in ("lir", "hir"):
        for form in ("log", "linear"):
            rows = []
            for snr in SNR_GRID:
                cfg = ICConfig.for_regime(regime, snr, payoff_form=form)
                prior = build_state_prior(cfg)
                payoff = build_payoff_table(cfg)
                rows.append(
                    {
                        "snr": snr,
                        "fpc": expected_payoff(fpc_distribution(cfg), payoff),
                        "spc": expected_payoff(spc_distribution(cfg), payoff),
                        "ocpc": solve(prior, channel, payoff).payoff,
                        "costless": costless_bound(prior, payoff),
                    }
                )
            data[(regime, form)] = rows
    data["elapsed"] = time.perf_counter() - start
    return data


def test_criterion_1_convexity_of_constraint_functional():
    # 1000 random (q1, q2, lambda) triples sharing a state marginal and an
    # observation channel; the functional must be convex along each segment
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = -np.inf
    for _ in range(1000):
        rho = rng.dirichlet(np.ones(3))
        gamma = ObservationChannel(rng.dirichlet(np.ones(2), size=2))
        qs = []
        for _ in range(2):
            cond = rng.dirichlet(np.ones(4), size=3).reshape(3, 2, 2)
            qs.append(
                compose(JointDistribution(rho[:, None, None] * cond, ("x0", "x1", "x2")), gamma)
            )
        lam = rng.uniform()
        mix = JointDistribution(lam * qs[0].pmf + (1 - lam) * qs[1].pmf, qs[0].axes)
        violation = info_constraint_gap(mix) - (
            lam * info_constraint_gap(qs[0]) + (1 - lam) * info_constraint_gap(qs[1])
        )
        worst = max(worst, violation)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    assert report(
        1, ok, f"worst convexity violation {worst:.2e} (tol 1e-9), {elapsed:.1f}s (< 10s)"
    )


def test_criterion_2_policy_sandwich_on_default_sweep(default_sweep):
    worst = -np.inf
    for key in (("lir", "log"), ("lir", "linear"), ("hir", "log"), ("hir", "linear")):
        for row in default_sweep[key]:
            worst = max(
                worst,
                row["fpc"] - row["spc"],
                row["spc"] - row["ocpc"],
                row["ocpc"] - row["costless"],
            )
    elapsed = default_sweep["elapsed"]
    ok = worst <= 1e-6 and elapsed < 300.0
    assert report(
        2,
        ok,
        f"worst ordering violation {worst:.2e} (tol 1e-6) over {4 * len(SNR_GRID)} "
        f"points, sweep {elapsed:.0f}s (< 300s)",
    )


def grid_search_oracle(step=100):
    """Dense grid search over the tiny instance, 1/step resolution.

    The instance is invariant under jointly relabeling (x0, x1, x2) ->
    (1-x0, 1-x1, 1-x2); the constraint functional is convex (gate 1) and the
    payoff linear, so averaging any feasible point with its relabeled image
    preserves both payoff and feasibility and a symmetric optimum exists.
    The scan therefore enumerates one conditional slice p(x1, x2 | x0=0) on
    the integer grid and mirrors it onto x0=1; the full product grid at this
    resolution (~3e10 points) is out of reach.  Feasibility and payoff are
    computed from scratch here, independent of the solver's internals.
    """
    vals = np.arange(step + 1)
    i, j, k = np.meshgrid(vals, vals, vals, indexing="ij")
    keep = i + j + k <= step
    t, u, v = i[keep], j[keep], k[keep]
    s = step - t - u - v
    # slice cells p(x1, x2 | x0=0) = [[t, v], [u, s]] / step
    a = np.stack([t, v, u, s], axis=1) / step
    b = a[:, ::-1]  # mirrored slice for x0 = 1
    qbar = 0.5 * np.stack([a.reshape(-1, 2, 2), b.reshape(-1, 2, 2)], axis=1)

    def plogp(x):
        out = np.zeros_like(x)
        nz = x > 0
        out[nz] = x[nz] * np.log2(x[nz])
        return out

    m02 = qbar.sum(axis=2)
    i_coord = (
        plogp(m02).sum(axis=(1, 2))
        - plogp(m02.sum(axis=2)).sum(axis=1)
        - plogp(m02.sum(axis=1)).sum(axis=1)
    )
    # perfect observation of x1: the channel term is H(X1 | X0, X2)
    h_x1 = -(plogp(qbar).sum(axis=(1, 2, 3)) - plogp(m02).sum(axis=(1, 2)))
    payoff = qbar[:, 0, 0, 0] + qbar[:, 1, 1, 1]
    feasible = i_coord - h_x1 <= 0.0
    return float(payoff[feasible].max())


def test_criterion_3_solver_matches_grid_oracle():
    prior, channel, payoff = tiny_instance()
    solved = solve(prior, channel, payoff).payoff
    oracle = grid_search_oracle(step=100)
    diff = abs(solved - oracle)
    ok = diff <= 2e-2
    assert report(
        3, ok, f"solver {solved:.6f} vs 0.01-grid oracle {oracle:.6f}, |diff| {diff:.4f} (tol 2e-2)"
    )


def test_criterion_4_headline_gains_over_spc(default_sweep):
    def max_gain(rows):
        return max(100.0 * (r["costless"] / r["spc"] - 1.0) for r in rows)

    gain_log = max_gain(default_sweep[("hir", "log")])
    gain_linear = max_gain(default_sweep[("hir", "linear")])
    ok = gain_log >= 20.0 and gain_linear >= 35.0
    assert report(
        4,
        ok,
        f"HIR max costless-over-SPC gain: {gain_log:.1f}% log (>= 20%), "
        f"{gain_linear:.1f}% linear (>= 35%)",
    )


def test_criterion_5_positive_gain_at_realistic_snr(default_sweep):
    worst = np.inf
    for key in (("lir", "log"), ("lir", "linear"), ("hir", "log"), ("hir", "linear")):
        for row in default_sweep[key]:
            if row["snr"] >= 5:
                worst = min(worst, 100.0 * (row["ocpc"] / row["fpc"] - 1.0))
    ok = worst > 0.0
    assert report(
        5, ok, f"min OCPC-over-FPC gain at SNR >= 5 dB: {worst:.3f}% (must be > 0)"
    )


def test_criterion_6_block_state_relaxation():
    prior, channel, payoff = tiny_instance()
    bound = costless_bound(prior, payoff)
    tol = SolverOptions().tol_payoff
    stages = (1, 2, 4, 16, 64, 256)
    started = time.perf_counter()
    exact = True
    deviations, shortfalls = [], []
    for s in stages:
        result = solve(prior, channel, payoff, stages=s)
        opt = bsc_block_state_oracle(s, 0.0)
        deviations.append(result.payoff - opt)
        shortfalls.append(bound - result.payoff)
        exact = exact and (
            result.converged
            and abs(result.payoff - opt) <= tol
            and result.dual_bound >= opt - 1e-9
        )
    elapsed = time.perf_counter() - started
    monotone = all(b < a for a, b in zip(shortfalls, shortfalls[1:]))
    near_costless = shortfalls[-1] <= 1e-3
    ok = exact and monotone and near_costless and elapsed < 5.0
    assert report(
        6,
        ok,
        f"payoff - OPT(S) for S={stages}: {['%+.1e' % d for d in deviations]} "
        f"(tol {tol:.0e}, dual bound >= OPT) {exact}; costless - payoff strictly "
        f"decreasing: {monotone}; |costless - payoff(256 stages)| = "
        f"{shortfalls[-1]:.2e} (<= 1e-3), {elapsed:.1f}s (< 5s)",
    )


def test_criterion_7_coding_simulator_convergence():
    # weakly coordinated target on the tiny instance: x1 uniform
    # independent, P(x2 = x0) = 0.55, slack ~ 0.99 bits (>= 0.1).
    # Campaign parameters frozen from a pilot run: rate 0.025, epsilon 0.5,
    # 40 blocks; pilot medians were TV ~ 0.031 (n=100) and ~ 0.007 (n=400).
    prior, channel, payoff = tiny_instance()
    cond = np.zeros((2, 2, 2))
    for x0 in range(2):
        for x2 in range(2):
            cond[x0, :, x2] = 0.5 * (0.55 if x2 == x0 else 0.45)
    target = JointDistribution(0.5 * cond, ("x0", "x1", "x2"))
    slack = -info_constraint_gap(compose(target, channel))
    assert slack >= 0.1

    started = time.perf_counter()
    target_payoff = expected_payoff(target, payoff)
    w_max = float(np.abs(payoff.values).max())
    medians = {}
    bound_ok = True
    for n in (100, 400):
        tvs = []
        for seed in range(20):
            cfg = CodingConfig(
                target=target, channel=channel, prior=prior, payoff=payoff,
                block_length=n, num_blocks=40, rate=0.025, epsilon=0.5, seed=seed,
            )
            result = run(cfg)
            tvs.append(result.tv_to_target)
            deviation = abs(result.average_payoff - target_payoff)
            if deviation > 2.0 * result.tv_to_target * w_max + 1e-12:
                bound_ok = False
        medians[n] = float(np.median(tvs))
    elapsed = time.perf_counter() - started
    ok = medians[400] < medians[100] and bound_ok and elapsed < 600.0
    assert report(
        7,
        ok,
        f"median TV: {medians[100]:.4f} (n=100) -> {medians[400]:.4f} (n=400), "
        f"payoff bound holds in all 40 runs: {bound_ok}, {elapsed:.0f}s (< 600s)",
    )


def test_criterion_8_information_identity_suite():
    rng = np.random.default_rng(77)
    worst_chain = 0.0
    worst_cmi = 0.0
    worst_paths = 0.0
    for _ in range(1000):
        q = JointDistribution(rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2))
        # chain rule: I(X0; X1, X2) = I(X0; X1) + I(X0; X2 | X1)
        chain = abs(
            conditional_mutual_information(q, "x0", ("x1", "x2"))
            - conditional_mutual_information(q, "x0", "x1")
            - conditional_mutual_information(q, "x0", "x2", ("x1",))
        )
        cmi = conditional_mutual_information(q, "x1", "y", ("x0", "x2"))
        paths = abs(info_constraint_gap(q) - info_constraint_gap_entropy_path(q))
        worst_chain = max(worst_chain, chain)
        worst_cmi = min(worst_cmi, cmi) if worst_cmi < 0 else min(0.0, cmi)
        worst_paths = max(worst_paths, paths)
    ok = worst_chain <= 1e-9 and worst_cmi >= -1e-9 and worst_paths <= 1e-9
    assert report(
        8,
        ok,
        f"chain rule err {worst_chain:.2e}, min CMI {worst_cmi:.2e}, "
        f"path disagreement {worst_paths:.2e} (all tol 1e-9)",
    )
