"""Information-constrained maximization of an expected payoff.

Solves

    maximize    E[w]  over qbar on X0 x X1 x X2
    subject to  I(X0; X2) / stages - I(X1; Y | X0, X2) <= -min_slack,
                sum_{x1, x2} qbar(x0, x1, x2) = prior(x0) for every x0,

where the four-variable distribution behind the informations is
qbar(x0, x1, x2) * channel(y | x1).  Optimizing over qbar with fixed
per-state mass makes the channel-consistency relations hold by construction
and keeps every iterate on the probability simplex.

Algorithm: Lagrangian dual bisection on the constraint multiplier.  For a
fixed multiplier the inner problem is concave (the gap functional is convex)
and is solved by entropic mirror ascent restricted to each state's mass
slice, with backtracking on the objective.  The outer bisection drives the
gap to zero from the feasible side; when the constraint is inactive the
per-state payoff argmax is returned directly.  The returned point is the
best feasible one among the inner iterates, always feasible candidates
(uniform; constant partner with best response) and blends across the
constraint boundary; the dual bound is the least Lagrangian value plus
Frank-Wolfe gap over the multipliers tried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraint import FEASIBILITY_TOL, _check_stages
from .probability import (
    AlphabetError,
    JointDistribution,
    ObservationChannel,
    StatePrior,
    _is_integer,
)

_LN2 = float(np.log(2.0))
# Mirror-ascent iterates are floored here and renormalized, so every log in
# the gradient stays finite.
_FLOOR = 1e-14
_MAX_MULTIPLIER = 2.0**40
# An inner step that gains at most _INNER_TOL * (1 + |value|) counts as a
# stall; _PATIENCE stalls in a row end the inner ascent.
_INNER_TOL = 1e-11
_PATIENCE = 6


class ConvergenceError(RuntimeError):
    """Solver failed to certify optimality; ``result`` holds the best iterate."""

    def __init__(self, message: str, result: "OptimizationResult | None" = None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True, eq=False)
class PayoffTable:
    """Stage payoff w(x0, x1, x2) on the state/action product alphabet."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 3:
            raise AlphabetError(f"payoff table must be 3-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("payoff table contains non-finite values")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape


@dataclass(frozen=True)
class SolverOptions:
    """Certified payoff tolerance; mirror-ascent iterations per inner solve;
    bisection steps on the multiplier."""

    tol_payoff: float = 1e-5
    max_inner_iter: int = 50_000
    outer_steps: int = 60

    def __post_init__(self):
        tol = self.tol_payoff
        # bool is an int subclass: True used to run as a tolerance of 1.0
        if isinstance(tol, bool) or not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol_payoff must be finite and positive, got {tol!r}")
        for name in ("max_inner_iter", "outer_steps"):
            value = getattr(self, name)
            if not _is_integer(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Feasible near-optimal point plus solver diagnostics.

    ``slack`` is minus the constraint gap at ``qbar`` (nonnegative up to the
    feasibility tolerance), ``multiplier`` the dual variable of the
    information constraint, and ``dual_bound`` a certified upper bound on
    the optimal payoff, so dual_bound - payoff bounds the suboptimality.
    """

    qbar: JointDistribution
    payoff: float
    slack: float
    multiplier: float
    dual_bound: float
    iterations: int
    converged: bool


def expected_payoff(dist: JointDistribution, payoff: PayoffTable) -> float:
    """E[w] under a distribution over (x0, x1, x2)."""
    if dist.axes != ("x0", "x1", "x2"):
        raise AlphabetError(
            f"expected_payoff needs axes ('x0', 'x1', 'x2'), got {dist.axes}"
        )
    if dist.pmf.shape != payoff.shape:
        raise AlphabetError(
            f"distribution shape {dist.pmf.shape} does not match payoff "
            f"shape {payoff.shape}"
        )
    return float((dist.pmf * payoff.values).sum())


def best_actions(payoff: PayoffTable) -> list[tuple[int, int]]:
    """Per-state payoff-maximizing action pair, lowest flat index on ties."""
    n0, n1, n2 = payoff.shape
    flat = payoff.values.reshape(n0, n1 * n2)
    idx = flat.argmax(axis=1)
    return [(int(i // n2), int(i % n2)) for i in idx]


def costless_bound(prior: StatePrior, payoff: PayoffTable) -> float:
    """Upper bound on the optimum: per-state maximum payoff averaged by the prior.

    Attained when the informed side can reveal the coming state for free.
    """
    if prior.n_states != payoff.shape[0]:
        raise AlphabetError(
            f"prior has {prior.n_states} states but payoff has {payoff.shape[0]}"
        )
    per_state = payoff.values.reshape(payoff.shape[0], -1).max(axis=1)
    return float(prior.probs @ per_state)


# ---------------------------------------------------------------------------
# Array-level internals.  qbar arrays are (n0, n1, n2) with per-state masses
# fixed to the prior; gamma is the channel matrix (n1, ny).
# ---------------------------------------------------------------------------


def _log_pos(a: np.ndarray) -> np.ndarray:
    """Elementwise ln a where a > 0, and 0 elsewhere."""
    return np.log(np.where(a > 0.0, a, 1.0))


class _InfoKernel:
    """(1/stages) I(X0;X2) - I(X1;Y|X0,X2) in bits and its gradient, for one
    channel and stage count; the channel's row terms are computed once.

    An exact identity channel (perfect monitoring) takes a path with no sum
    over y: there I(X1;Y|X0,X2) = H(X1|X0,X2), q(x0, x2, y) is qbar with its
    last two axes swapped and every channel row has zero entropy.  Both paths
    give the same bits.
    """

    def __init__(self, gamma: np.ndarray, inv_stages: float):
        self.gamma = gamma
        self.inv_stages = inv_stages
        self.perfect = np.array_equal(gamma, np.eye(gamma.shape[0]))
        self.row_plogp = (gamma * _log_pos(gamma)).sum(axis=1)

    def gap(self, qbar: np.ndarray):
        """The gap at qbar, and the terms ``gap_grad`` reuses: q(x0, x2),
        q(x0, x2, y), the logs of q(x0, x2), q(x0) and q(x2), and the log."""
        return self._gap(qbar, _log_pos)

    def _gap(self, qbar: np.ndarray, log):
        """``gap`` with one ``log`` pass over one buffer of q(x0, x2), q(x0),
        q(x2) and q(x0, x2, y); ``np.log`` needs all of them positive.  Each
        entropy sum is over a slice shaped and ordered like its own array."""
        n0, n1, n2 = qbar.shape
        n02 = n0 * n2
        e0, e2 = n02 + n0, n02 + n0 + n2
        k = n1 if self.perfect else self.gamma.shape[1]
        buf = np.empty(e2 + n02 * k)
        m02, s = buf[:n02].reshape(n0, n2), buf[e2:].reshape(n0, n2, k)
        np.add.reduce(qbar, axis=1, out=m02)
        np.add.reduce(m02, axis=1, out=buf[n02:e0])
        np.add.reduce(m02, axis=0, out=buf[e0:e2])
        if self.perfect:
            np.copyto(s, qbar.transpose(0, 2, 1))
        else:
            np.einsum("abc,by->acy", qbar, self.gamma, out=s)
        logs = log(buf)
        plogp = buf * logs
        plogp02 = float(plogp[:n02].sum())
        i_coord = plogp02 - float(plogp[n02:e0].sum()) - float(plogp[e0:e2].sum())
        i_channel = -(float(plogp[e2:].sum()) - plogp02)
        if not self.perfect:
            i_channel += float(qbar.sum(axis=(0, 2)) @ self.row_plogp)
        gap = (self.inv_stages * i_coord - i_channel) / _LN2
        return gap, (m02, s, logs[:n02].reshape(n0, n2), logs[n02:e0], logs[e0:e2], log)

    def gap_grad(self, terms) -> np.ndarray:
        """Gradient of the gap w.r.t. qbar from the terms ``gap`` returned;
        requires strictly positive qbar, where every log above is ln."""
        m02, s, log02, log0, log2, log = terms
        coord = self.inv_stages * (log02 - log0[:, None] - log2[None, :])[:, None, :]
        # p_y(a, c, y) = 0 forces gamma(., y) = 0, whose coefficient below is
        # zero, so the log substituted there never contributes.  A state whose
        # mass underflows leaves q(x0, x2) = 0 and s = 0 with it: the smallest
        # subnormal as divisor turns that 0 / 0 into the 0 the guarded log
        # maps to 0, and leaves every positive q(x0, x2) as it is.
        if log is not np.log:
            m02 = np.maximum(m02, 5e-324)
        log_p = log(s / m02[:, :, None])
        if self.perfect:
            return (coord + log_p.transpose(0, 2, 1)) / _LN2
        cross = np.einsum("by,acy->abc", self.gamma, log_p)
        return (coord - (self.row_plogp[None, :, None] - cross)) / _LN2


def _objective(qbar, kernel, log, w, lam, offset):
    """Lagrangian value, constraint gap and the kernel terms behind them."""
    pay = float((qbar * w).sum())
    gap, terms = kernel._gap(qbar, log)
    return pay - lam * (gap + offset), gap, terms


def _fw_gap(grad: np.ndarray, p: np.ndarray, rho: np.ndarray) -> float:
    """Linearized ascent gap over the sliced simplex.

    The feasible set is a product of scaled simplices, so the best linear
    improvement is reached at a per-slice vertex; by concavity of the
    objective this gap upper-bounds the remaining suboptimality, giving the
    certified bound max G <= G(p) + _fw_gap.
    """
    return float((rho * grad.max(axis=(1, 2))).sum() - (grad * p).sum())


def _inner_maximize(start, rho, kernel, log, w, lam, offset, max_iter, fw_target):
    """Entropic mirror ascent of E[w] - lam * (gap + offset) on the slices.

    Stops once the linearized gap certifies the inner maximum within
    ``fw_target``, on the iteration budget, on stalled progress, or on the
    step floor.  Returns the iterate, its objective value, constraint gap,
    certified inner gap, and the iteration count.
    """
    p = start
    value, gap, terms = _objective(p, kernel, log, w, lam, offset)
    step = 1.0
    iters = 0
    stall = 0
    while True:
        grad = w - lam * kernel.gap_grad(terms)
        fw = max(_fw_gap(grad, p, rho), 0.0)
        if fw <= fw_target or iters >= max_iter or stall >= _PATIENCE:
            return p, value, gap, fw, iters
        shift = grad.max(axis=(1, 2), keepdims=True)
        while True:
            iters += 1
            cand = p * np.exp(step * (grad - shift))
            cand = np.maximum(cand, _FLOOR)
            cand *= (rho / cand.sum(axis=(1, 2)))[:, None, None]
            cand_value, cand_gap, cand_terms = _objective(cand, kernel, log, w, lam, offset)
            if cand_value >= value:
                break
            step *= 0.5
            if step < 1e-14 or iters >= max_iter:
                return p, value, gap, fw, iters
        stall = stall + 1 if cand_value - value <= _INNER_TOL * (1.0 + abs(cand_value)) else 0
        p, value, gap, terms = cand, cand_value, cand_gap, cand_terms
        step = min(step * 1.3, 1e8)


def _per_state_argmax(rho: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Point mass on the best action pair in every state (first index on ties)."""
    n0, n1, n2 = w.shape
    q = np.zeros_like(w)
    idx = w.reshape(n0, n1 * n2).argmax(axis=1)
    q.reshape(n0, n1 * n2)[np.arange(n0), idx] = rho
    return q


def _constant_partner_candidates(rho: np.ndarray, w: np.ndarray):
    """For each fixed x2, the per-state best response in x1 (always feasible
    when the gap functional is, since a constant X2 carries no state
    information)."""
    n0, n1, n2 = w.shape
    for c in range(n2):
        q = np.zeros_like(w)
        best = w[:, :, c].argmax(axis=1)
        q[np.arange(n0), best, c] = rho
        yield q


def solve(
    prior: StatePrior,
    channel: ObservationChannel,
    payoff: PayoffTable,
    *,
    stages: int = 1,
    min_slack: float = 0.0,
    options: SolverOptions | None = None,
) -> OptimizationResult:
    """Maximize the expected payoff subject to the information constraint.

    ``stages`` relaxes the coordination term by 1/stages (block-constant
    states); ``min_slack`` demands gap <= -min_slack instead of gap <= 0,
    which is useful for producing targets with room to spare.

    Returns an ``OptimizationResult`` whose payoff is within
    ``options.tol_payoff`` of the optimum, certified by the dual bound.
    Raises ``ConvergenceError`` (carrying the best feasible iterate) if the
    certificate cannot be established within the iteration budget.
    """
    opts = options or SolverOptions()
    _check_stages(stages)
    if isinstance(min_slack, bool) or not (math.isfinite(min_slack) and min_slack >= 0.0):
        raise ValueError(f"min_slack must be finite and nonnegative, got {min_slack!r}")
    w_full = payoff.values
    n0, n1, n2 = w_full.shape
    if prior.n_states != n0:
        raise AlphabetError(
            f"prior has {prior.n_states} states but payoff has {n0}"
        )
    if channel.n_inputs != n1:
        raise AlphabetError(
            f"channel has {channel.n_inputs} input rows but |X1| = {n1}"
        )
    kernel = _InfoKernel(channel.matrix, 1.0 / stages)
    offset = float(min_slack)

    # Work on the states with positive mass; zero-probability slices stay
    # identically zero and contribute nothing to payoff or informations.
    active = prior.probs > 0.0
    rho = prior.probs[active]
    w = w_full[active]
    # The floor keeps every mirror-ascent iterate above about
    # min(rho, _FLOOR) / (n1 * n2).  While that is a normal float, no entry the
    # kernel logs on the perfect path is zero, so the ascent skips the guard.
    positive = kernel.perfect and rho.min() / (n1 * n2) >= np.finfo(float).tiny
    log = np.log if positive else _log_pos

    def finish(q_active, gap, multiplier, dual_bound, iterations):
        pay = float((q_active * w).sum())
        converged = dual_bound - pay <= opts.tol_payoff
        full = np.zeros((n0, n1, n2))
        full[active] = q_active
        result = OptimizationResult(
            qbar=JointDistribution(full, ("x0", "x1", "x2")),
            payoff=pay,
            slack=float(-gap),
            multiplier=float(multiplier),
            dual_bound=float(dual_bound),
            iterations=int(iterations),
            converged=bool(converged),
        )
        if not converged:
            raise ConvergenceError(
                f"no certificate after {opts.outer_steps} bisection steps: "
                f"dual bound {dual_bound!r} vs payoff {pay!r}",
                result=result,
            )
        return result

    best_pay = -np.inf
    best_q = best_gap = None
    # Best iterate seen on the wrong side of the constraint, kept for
    # cross-boundary blending: a convex combination of a feasible and an
    # infeasible near-optimal point stays feasible (the gap functional is
    # convex) while its payoff interpolates linearly.
    outside_q = None
    outside_excess = np.inf
    interior = rho[:, None, None] * np.full((1, n1, n2), 1.0 / (n1 * n2))

    def consider(q_active: np.ndarray, gap: float | None = None) -> float:
        """Offer a point to the pool; returns its excess gap + min_slack."""
        nonlocal best_pay, best_q, best_gap, outside_q, outside_excess
        if gap is None:
            gap = kernel.gap(q_active)[0]
        excess = gap + offset
        if excess <= FEASIBILITY_TOL:
            pay = float((q_active * w).sum())
            if pay > best_pay:
                best_pay, best_q, best_gap = pay, q_active, gap
        elif excess < outside_excess:
            outside_q, outside_excess = q_active, excess
        return excess

    def consider_blend() -> None:
        if best_q is None or outside_q is None:
            return
        inside_excess = best_gap + offset
        if inside_excess >= 0.0:
            return
        t = -inside_excess / (outside_excess - inside_excess)
        for _ in range(8):
            mix = (1.0 - t) * best_q + t * outside_q
            if consider(mix) <= FEASIBILITY_TOL:
                return
            t *= 0.5

    consider(interior)
    for cand in _constant_partner_candidates(rho, w):
        consider(cand)

    # Constraint inactive at multiplier zero: the unconstrained argmax wins.
    vertex = _per_state_argmax(rho, w)
    dual_bound = float((vertex * w).sum())
    vertex_gap = kernel.gap(vertex)[0]
    if vertex_gap + offset <= FEASIBILITY_TOL:
        return finish(vertex, vertex_gap, 0.0, dual_bound, 0)

    fw_target = 0.25 * opts.tol_payoff
    total_iters = 0
    warm = interior

    def feasible_at(lam: float) -> bool:
        """Inner solve at ``lam`` from the last iterate: tighten the dual
        bound, offer the iterate to the pool, report whether it is feasible."""
        nonlocal total_iters, dual_bound, warm
        q, value, gap, certified, it = _inner_maximize(
            warm, rho, kernel, log, w, lam, offset, opts.max_inner_iter, fw_target
        )
        total_iters += it
        dual_bound = min(dual_bound, value + certified)
        warm = q
        return consider(q, gap) <= FEASIBILITY_TOL

    lam_hi = 1.0
    while not feasible_at(lam_hi):
        if lam_hi >= _MAX_MULTIPLIER:
            # No multiplier makes the inner maximizer feasible (degenerate
            # channel); certify against the best feasible candidate if possible.
            if best_q is None:
                raise ConvergenceError(
                    "no feasible point found: the requested slack exceeds what "
                    "the observation channel supports"
                )
            return finish(best_q, best_gap, lam_hi, dual_bound, total_iters)
        lam_hi *= 2.0

    lam_lo = 0.0 if lam_hi == 1.0 else lam_hi / 2.0
    for _ in range(opts.outer_steps):
        consider_blend()
        if dual_bound - best_pay <= opts.tol_payoff:
            break
        lam_mid = 0.5 * (lam_lo + lam_hi)
        if feasible_at(lam_mid):
            lam_hi = lam_mid
        else:
            lam_lo = lam_mid
    return finish(best_q, best_gap, lam_hi, dual_bound, total_iters)
