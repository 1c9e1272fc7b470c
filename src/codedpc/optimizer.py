"""Information-constrained maximization of an expected payoff.

Solves

    maximize    E[w]  over qbar on X0 x X1 x X2
    subject to  I(X0; X2) / stages - I(X1; Y | X0, X2) <= -min_slack,
                sum_{x1, x2} qbar(x0, x1, x2) = prior(x0) for every x0,

where the four-variable distribution behind the informations is
qbar(x0, x1, x2) * channel(y | x1).  Optimizing over qbar with fixed
per-state mass makes the channel-consistency relations hold by construction
and keeps every iterate on the probability simplex.

Algorithm: a safeguarded root search on the constraint multiplier of the
Lagrangian dual.  For a fixed multiplier the inner problem separates: each
(x0, x2) cell's x1 distribution solves a capacity-with-cost problem (a
softmax on an exact identity channel, Blahut-Arimoto and Newton steps on a
noisy one), and the x2 distribution a log-optimal portfolio problem, solved
by Newton steps on its support with Cover's multiplicative update as the
fallback.  The dual bound there is Cover's bound plus the most a cell's
bound exceeds its value.  The maximizer's excess gap is decreasing in the
multiplier, so the search starts at the payoff the per-state argmax gains
per bit of its excess, doubles to a feasible multiplier and then takes
Illinois false-position steps on a bracket (an end kept twice in a row has
its excess's weight halved); when the constraint is inactive the argmax is
returned directly.  The returned point is the best exactly feasible one
(gap plus min_slack at most 0) among the inner maximizers, always feasible
candidates (uniform; constant partner with best response) and blends across
the constraint boundary; ``FEASIBILITY_TOL`` only decides which end of the
bracket a maximizer takes.  The dual bound is the least one over the
multipliers tried.  Each point but a blend is q(x0, x2) times cells of known
channel information, so its gap is read in closed form; a blend's comes
from the information kernel.  The step budgets of the inner solves and of the
multiplier search are fixed; the only option is the certified tolerance.
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
    _is_real,
    _require_agreement,
)

_LN2 = float(np.log(2.0))
_MAX_MULTIPLIER = 2.0**40
# Inner steps per multiplier (a noisy channel's cell steps, then x2 steps
# with what the cells left) and steps of the multiplier search.  No solve of
# tests/solver_corpus.py reaches either.
_MAX_INNER_STEPS = 50_000
_OUTER_STEPS = 60
# Cover's iterates r are floored here: a state's best partner action keeps
# r >= _R_FLOOR, so its normalizer z >= _R_FLOOR and rho / z stays finite.
# Noisy cells are floored here too, so an input an earlier step dropped can
# grow back.
_R_FLOOR = 1e-300
# Once max grad is within this factor of 1, the rounding in grad's sums is as
# large as what the x2 step has left to gain, and the step stops; the noisy
# cells stop once up - low is within _FLAT - 1 of their largest score.
_FLAT = 1.0 + 2.0**-46


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
    """``tol_payoff``: the largest gap between the dual bound and the payoff
    that certifies a result.  The step budgets are fixed, not options."""

    tol_payoff: float = 1e-5

    def __post_init__(self):
        tol = self.tol_payoff
        # bool is an int subclass: True used to run as a tolerance of 1.0
        if not (_is_real(tol) and math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol_payoff must be finite and positive, got {tol!r}")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Feasible near-optimal point plus solver diagnostics.

    ``slack`` is minus the constraint gap at ``qbar``, at least ``min_slack``,
    ``multiplier`` the dual variable of the information constraint, and
    ``dual_bound`` a certified upper bound on the optimal payoff, so
    dual_bound - payoff bounds the suboptimality.
    ``iterations`` sums the inner steps over the multipliers tried: cell
    steps (none on the identity channel) and x2 steps.

    The returned point is exactly feasible: its gap plus ``min_slack``, as
    the solver computes the gap, is at most 0.  ``FEASIBILITY_TOL`` only
    classifies the ends of the multiplier bracket.  A gap recomputed another
    way, e.g. by ``info_constraint_gap``, can differ from the solver's by
    rounding.
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
    _require_agreement(dist.pmf, payoff)
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
    _require_agreement(None, payoff, prior=prior)
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
    """(1/stages) I(X0;X2) - I(X1;Y|X0,X2) in bits for one channel and stage
    count; the channel's row terms are computed once.

    An exact identity channel (perfect monitoring) takes a gap path with no
    sum over y: there I(X1;Y|X0,X2) = H(X1|X0,X2), q(x0, x2, y) is qbar with
    its last two axes swapped and every channel row has zero entropy.  Both
    paths give the same bits.  ``perfect`` also selects ``solve``'s
    closed-form cells.  ``solve`` reads every other point's gap from its own
    quantities and calls ``gap`` only for blends.
    """

    def __init__(self, gamma: np.ndarray, inv_stages: float):
        self.gamma = gamma
        self.inv_stages = inv_stages
        self.perfect = np.array_equal(gamma, np.eye(gamma.shape[0]))
        self.row_plogp = (gamma * _log_pos(gamma)).sum(axis=1)

    def gap(self, qbar: np.ndarray) -> float:
        """The gap at qbar.

        One guarded log pass covers one buffer of q(x0, x2), q(x0), q(x2) and
        q(x0, x2, y); each entropy sum is over a slice shaped and ordered like
        its own array."""
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
        plogp = buf * _log_pos(buf)
        plogp02 = float(plogp[:n02].sum())
        i_coord = plogp02 - float(plogp[n02:e0].sum()) - float(plogp[e0:e2].sum())
        i_channel = -(float(plogp[e2:].sum()) - plogp02)
        if not self.perfect:
            i_channel += float(qbar.sum(axis=(0, 2)) @ self.row_plogp)
        return (self.inv_stages * i_coord - i_channel) / _LN2


def _newton_direction(k, rhs, on, reg):
    """The Newton direction d of a concave function on the simplex, whose
    Hessian is -k and whose gradient is rhs up to a constant: k d + nu = rhs
    and sum d = 0 on the support ``on``, d = 0 off it, with ``reg`` added to
    k's diagonal on the support.  Batched over any leading axes."""
    n = k.shape[-1]
    kkt = np.zeros(k.shape[:-2] + (n + 1, n + 1))
    np.copyto(kkt[..., :n, :n], k, where=on[..., :, None] & on[..., None, :])
    # the first n diagonal entries, every (n + 2)-th of the flattened matrix
    kkt.reshape(kkt.shape[:-2] + (-1,))[..., : n * (n + 2) : n + 2] += np.where(on, reg, 1.0)
    kkt[..., :n, n] = kkt[..., n, :n] = on
    b = np.zeros(kkt.shape[:-1] + (1,))
    np.copyto(b[..., :n, 0], rhs, where=on)
    return np.linalg.solve(kkt, b)[..., :n, 0]


def _newton_step(p, k, rhs, reg):
    """p + t d, normalized, for the Newton direction d (``_newton_direction``)
    on the support: the inputs with p > 1e-10 or a gradient ``rhs`` at least
    its p-mean, the inputs that could gain weight.  t is the largest step
    <= 1 that keeps every coordinate of p at or above 1e-10 nonnegative; the
    ones below do not shorten the step, they clip to ``_R_FLOOR``.  An input
    below 1e-10 that d would take below 0 leaves the support, and d is
    solved once more without it: kept, it can overshoot every step past the
    optimum."""
    on = (p > 1e-10) | (rhs >= (p * rhs).sum(axis=-1, keepdims=True))
    d = _newton_direction(k, rhs, on, reg)
    drop = (d < 0.0) & (p <= 1e-10)
    if drop.any():
        d = _newton_direction(k, rhs, on & ~drop, reg)
    t = np.where(p >= 1e-10, p / np.maximum(-d, p), 1.0).min(axis=-1, keepdims=True)
    cand = t * d
    cand += p
    np.maximum(cand, _R_FLOOR, out=cand)
    cand /= cand.sum(axis=-1, keepdims=True)
    return cand


def _cell_step(p, kernel, w, lam, max_iter, target):
    """Each (x0, x2) cell's x1 distribution at the multiplier lam.

    Cell (a, c) maximizes sum_b p(b) w(a, b, c) + lam * I(p; channel), a
    capacity-with-cost problem.  On the identity channel its maximum is
    lam * log2 sum_b 2^(w(a, b, c) / lam), at the softmax p ~ 2^(w / lam).
    On a noisy channel all cells are solved as (cells, n1) arrays from the
    warm start ``p``.  With s(b) = w(b) + lam * D(channel_b || p channel),
    the value at p is low = sum_b p(b) s(b), and up = max_b s(b) bounds the
    maximum (Blahut) at every p.  Each step takes per cell a Newton step
    (``_newton_step``), and a cell keeps it alone where it at least halves
    the cell's gap up - low, or where that gap was already within
    ``target``.  In a step where any cell falls short, the step also forms
    the Blahut-Arimoto candidate p * 2^(power * (s - up) / lam) for every
    cell, and each cell that fell short moves to whichever of the two has
    the larger low, to Blahut-Arimoto on ties; its exponent grows by 1.3
    while the Blahut-Arimoto candidate does not lower the previous low and
    halves, down to 1, when it does.  low need not rise at every step:
    the certificate rests on up alone.  It stops when up - low is within
    ``target`` (or rounding, ``_FLAT``) in every cell, or after ``max_iter``.

    Returns the cells as an (n0, n1, n2) array, their channel informations
    I(cell; channel) in bits, ``low`` and ``up``, each as an (n0, n2) array,
    the step count and the next warm start.  The information is the softmax's
    entropy on the identity channel and sum_b p(b) D(channel_b || p channel)
    on a noisy one, not (low - E[w]) / lam, which cancels at large payoffs.
    """
    n0, n1, n2 = w.shape
    if kernel.perfect:
        # log-sum-exp shift: every power of two below has exponent <= 0
        top_w = w.max(axis=1, keepdims=True)
        exponent = (w - top_w) / lam
        cell = np.exp2(exponent)
        mass = cell.sum(axis=1, keepdims=True)
        cell /= mass
        log_mass = np.log2(mass)
        cap = (top_w + lam * log_mass)[:, 0, :]
        entropy = (log_mass - (cell * exponent).sum(axis=1, keepdims=True))[:, 0, :]
        return cell, entropy, cap, cap, 0, p
    gamma = kernel.gamma
    w = w.transpose(0, 2, 1).reshape(-1, n1)
    row = kernel.row_plogp / _LN2

    def score(p):
        out = p @ gamma
        s = w + lam * (row - np.log2(np.maximum(out, 5e-324)) @ gamma.T)
        return s, (p * s).sum(axis=-1), s.max(axis=-1), out

    def newton(p, diff, out):
        # The cell's Hessian is -lam / ln 2 times K = channel diag(1 / out)
        # channel^T, singular where channel rows coincide: its diagonal is
        # raised by one part in 1e12, and the inputs off the support are fixed.
        k = (gamma / np.maximum(out, 1e-300)[:, None, :]) @ gamma.T
        return _newton_step(p, k, diff * (_LN2 / lam), 1e-12 * k.diagonal(axis1=1, axis2=2))

    s, low, up, out = score(p)
    power = np.ones(len(p))
    iters = 0
    while (gap := up - low).max() > max(target, (_FLAT - 1.0) * np.abs(s).max()) and iters < max_iter:
        iters += 1
        diff = s - up[:, None]
        new_s, new_low, new_up, new_out = score(new := newton(p, diff, out))
        # Inside Newton's quadratic region the gap shrinks far more than
        # twofold per step.  A step that does not halve it shows the cell is
        # outside that region (its support changes, a floored input comes
        # back, or rounding dominates), and there Blahut-Arimoto's
        # multiplicative step, safe at any p, is worth forming as well.
        short = (new_up - new_low > 0.5 * gap) & (gap > target)
        if short.any():
            ba = np.maximum(p * np.exp2(power[:, None] * diff / lam), _R_FLOOR)
            ba /= ba.sum(axis=1, keepdims=True)
            ba_s, ba_low, ba_up, ba_out = score(ba)
            grow = np.where(ba_low >= low, np.minimum(power * 1.3, 1e8), np.maximum(0.5 * power, 1.0))
            power = np.where(short, grow, power)
            take = short & ~(new_low > ba_low)  # ties go to Blahut-Arimoto
            rows = take[:, None]
            new, new_s, new_out = (np.where(rows, *v) for v in ((ba, new), (ba_s, new_s), (ba_out, new_out)))
            new_low, new_up = np.where(take, ba_low, new_low), np.where(take, ba_up, new_up)
        p, s, low, up, out = new, new_s, new_low, new_up, new_out
    cell = p.reshape(n0, n2, n1).transpose(0, 2, 1)
    info = (p * (row - np.log2(np.maximum(out, 5e-324)) @ gamma.T)).sum(axis=-1)
    return cell, info.reshape(n0, n2), low.reshape(n0, n2), up.reshape(n0, n2), iters, p


def _x2_step(r, rho, kernel, cap, cell, info, lam, offset, max_iter, cover_target):
    """Maximize over the x2 distribution with the cells fixed.

    With cell values ``cap`` and mu = lam * inv_stages, what remains of the
    Lagrangian is the log-optimal portfolio problem

        max_r F(r),  F(r) = sum_a rho(a) * mu * log2 sum_c r(c) 2^(cap(a, c) / mu),

    over r on the X2 simplex (I(X0; X2) = min_r E_a D(q(.|a) || r)).  With
    grad(c) = dF/dr(c) * ln 2 / mu, Cover's bound max F <= F(r) + mu * log2
    max_c grad(c) holds at every r; minus lam * offset it bounds the
    Lagrangian's maximum over r.  From the warm start ``r``, each step takes
    a Newton step on the support, like the noisy cells', if it raises F.
    Otherwise it takes Cover's multiplicative update r * grad, which never
    lowers F.  That update alone stalls where F is flat: once mu is large,
    and near the multiplier where the maximizer crosses the constraint
    boundary.  It stops when Cover's bound is within ``cover_target``, after
    ``max_iter`` steps, or at ``_FLAT``.

    Returns the primal point q(x0, x2) = rho * r * tilt / z times ``cell``,
    its constraint gap, the bound, the step count and r for the next warm
    start.  The gap is I(X0; X2) / stages minus the cells' informations
    ``info`` weighted by q(x0, x2); as q(x2) = r * grad, q(x2 | x0) / q(x2)
    is tilt / (z * grad), and entries with q(x0, x2) = 0 count 0.
    """
    mu = lam * kernel.inv_stages
    top_cap = cap.max(axis=1)
    tilt = np.exp2((cap - top_cap[:, None]) / mu)

    def newton(r, z, grad, top):
        # The Hessian of sum_a rho(a) ln z(a) is minus K = sum_a rho(a) u_a
        # u_a^T with u_a = tilt(a, .) / z(a), and grad = sum_a rho(a) u_a, so
        # K's largest diagonal entry is at least 1 / |X2|^2 (some r(c) grad(c)
        # is at least 1 / |X2|, as sum_c r(c) grad(c) = 1).  K is finite while
        # every z >= 1e-150; below that Cover's update alone revives r.  As in
        # the cells, the actions off the support (r <= 1e-10 and grad below
        # its mean, 1) stay fixed, and the support's diagonal is raised, here
        # by 1e-12 of K's largest entry, so equal tilt columns stay solvable.
        if z.min() < 1e-150:
            return r
        u = tilt / z[:, None]
        k = (u.T * rho) @ u
        return _newton_step(r, k, grad - top, 1e-12 * k.max())

    z = tilt @ r
    value = float(rho @ np.log2(z))
    grad = (rho / z) @ tilt
    iters = 0
    while True:
        top = grad.max()
        cover = mu * math.log2(top)
        if cover <= cover_target or iters >= max_iter or top <= _FLAT:
            break
        iters += 1
        cand = newton(r, z, grad, top)
        cand_z = tilt @ cand
        cand_value = float(rho @ np.log2(cand_z))
        if not cand_value > value:
            # Cover's update; an action no state can use has grad 0: its
            # weight drops to the floor
            cand = np.maximum(r * (grad / top), _R_FLOOR)
            cand /= cand.sum()
            cand_z = tilt @ cand
            cand_value = float(rho @ np.log2(cand_z))
        r, z, value = cand, cand_z, cand_value
        grad = (rho / z) @ tilt
    bound = float(rho @ top_cap) + mu * value + max(cover, 0.0) - lam * offset
    q02 = (rho / z)[:, None] * (r * tilt)
    i_coord = float((q02 * (_log_pos(tilt / z[:, None]) - _log_pos(grad))).sum()) / _LN2
    gap = kernel.inv_stages * i_coord - float((q02 * info).sum())
    return q02[:, None, :] * cell, gap, bound, iters, r


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
    ``options.tol_payoff`` of the optimum, certified by the dual bound.  The
    multiplier search starts at the chord slope (argmax payoff - best
    candidate payoff) / argmax excess, doubles the multiplier until the
    inner maximizer is feasible, then narrows the bracket between the last
    infeasible multiplier (or 0) and the feasible one by Illinois false
    position, and at every step blends the maximizers at its two ends onto
    the constraint boundary.  It returns the best exactly feasible point
    seen (gap plus ``min_slack`` at most 0); ``FEASIBILITY_TOL`` only decides
    which end of the bracket a maximizer takes.
    Raises ``ConvergenceError`` (carrying the best feasible iterate) if the
    certificate cannot be established within the step budgets or below the
    multiplier cap; its message names the exit taken.  It carries no result
    when no exactly feasible point was found.
    """
    opts = options or SolverOptions()
    _check_stages(stages)
    if not (_is_real(min_slack) and math.isfinite(min_slack) and min_slack >= 0.0):
        raise ValueError(f"min_slack must be finite and nonnegative, got {min_slack!r}")
    w_full = payoff.values
    n0, n1, n2 = w_full.shape
    _require_agreement(None, payoff, channel, prior)
    kernel = _InfoKernel(channel.matrix, 1.0 / stages)
    offset = float(min_slack)

    # Work on the states with positive mass; zero-probability slices stay
    # identically zero and contribute nothing to payoff or informations.
    active = prior.probs > 0.0
    rho = prior.probs[active]
    w = w_full[active]

    def finish(q_active, gap, multiplier, dual_bound, iterations, stop):
        pay = float((q_active * w).sum())
        converged = dual_bound - pay <= opts.tol_payoff
        full = np.zeros((n0, n1, n2))
        full[active] = q_active
        result = OptimizationResult(
            qbar=JointDistribution(full, ("x0", "x1", "x2")),
            payoff=pay,
            slack=-gap + 0.0,
            multiplier=float(multiplier),
            dual_bound=float(dual_bound),
            iterations=int(iterations),
            converged=bool(converged),
        )
        if not converged:
            raise ConvergenceError(
                f"no certificate {stop}: "
                f"dual bound {dual_bound!r} vs payoff {pay!r}",
                result=result,
            )
        return result

    best_pay, best_q, best_gap = -np.inf, None, math.inf
    # Best iterate seen on the wrong side of the constraint, kept for
    # cross-boundary blending: a convex combination of a feasible and an
    # infeasible near-optimal point stays feasible (the gap functional is
    # convex) while its payoff interpolates linearly.
    outside_q = None
    outside_excess = np.inf
    interior = rho[:, None, None] * np.full((1, n1, n2), 1.0 / (n1 * n2))

    def consider(q_active: np.ndarray, gap: float) -> float:
        """Offer a point and its gap to the pool; returns its excess gap +
        min_slack."""
        nonlocal best_pay, best_q, best_gap, outside_q, outside_excess
        excess = gap + offset
        if excess <= 0.0:
            pay = float((q_active * w).sum())
            if pay > best_pay:
                best_pay, best_q, best_gap = pay, q_active, gap
        elif excess < outside_excess:
            outside_q, outside_excess = q_active, excess
        return excess

    def finish_best(multiplier, stop):
        """Finish at the pool's best point; raise if the pool is empty."""
        if best_q is None:
            raise ConvergenceError("no feasible point found: the requested slack exceeds "
                                   "what the observation channel supports")
        return finish(best_q, best_gap, multiplier, dual_bound, total_iters, stop)

    def blend(inside, inside_excess, outside, outside_excess) -> None:
        """Offer the mix of an inside and an outside point that the linear
        interpolation of their excesses puts on the boundary.  The gap is
        convex, so the mix is feasible up to rounding; a mix that rounds
        outside is offered as an outside point.  The inside point pays at most
        ``best_pay``, so the mix is skipped when it pays no more than that.
        A mix of two product points is not one, so the kernel gives its gap."""
        if outside is None or inside_excess >= 0.0:
            return
        t = -inside_excess / (outside_excess - inside_excess)
        if (1.0 - t) * float((inside * w).sum()) + t * float((outside * w).sum()) > best_pay:
            mix = (1.0 - t) * inside + t * outside
            consider(mix, kernel.gap(mix))

    # Every other point is q(x0, x2) times cells of known information, and
    # its gap is read in closed form.  The uniform point's X2 says nothing
    # about X0, and its cells are the uniform input: gap -I(uniform; Y).
    mean_row = kernel.gamma.mean(axis=0)
    consider(interior, float(mean_row @ _log_pos(mean_row) - kernel.row_plogp.mean()) / _LN2)
    # For each fixed x2, the per-state best response in x1: a constant X2
    # carries no state information, and x1 is a function of x0, so the gap
    # is exactly 0.
    states = np.arange(len(rho))
    for c in range(n2):
        cand = np.zeros_like(w)
        cand[states, w[:, :, c].argmax(axis=1), c] = rho
        consider(cand, 0.0)

    # Constraint inactive at multiplier zero: the per-state best pairs win.
    # x1 and x2 are functions of x0, so the gap is H(X2) / stages.
    x1, x2 = np.divmod(w.reshape(len(rho), -1).argmax(axis=1), n2)
    vertex = np.zeros_like(w)
    vertex[states, x1, x2] = rho
    dual_bound = float((vertex * w).sum())
    q2 = np.bincount(x2, weights=rho, minlength=n2)
    vertex_gap = -kernel.inv_stages * float(q2 @ _log_pos(q2)) / _LN2
    if vertex_gap + offset <= 0.0:
        return finish(vertex, vertex_gap, 0.0, dual_bound, 0, "at multiplier 0")

    target = 0.25 * opts.tol_payoff
    total_iters = 0
    # The last inner solve's warm starts: r on the X2 simplex and, on a
    # noisy channel, each (x0, x2) cell's x1 distribution.
    warm_r = np.full(n2, 1.0 / n2)
    warm_cells = np.full((len(rho) * n2, n1), 1.0 / n1)

    def maximize_at(lam: float):
        """Inner solve at ``lam`` from the last one: tighten the dual bound,
        offer the maximizer to the pool, return it and its excess gap."""
        nonlocal total_iters, dual_bound, warm_r, warm_cells
        cell, info, low, up, cell_iters, warm_cells = _cell_step(
            warm_cells, kernel, w, lam, _MAX_INNER_STEPS, target
        )
        q, gap, bound, x2_iters, warm_r = _x2_step(
            warm_r, rho, kernel, low, cell, info, lam, offset,
            _MAX_INNER_STEPS - cell_iters, target,
        )
        total_iters += cell_iters + x2_iters
        # the cells' bounds exceed their values by at most max(up - low),
        # and the x2 problem's maximum moves by no more than its cells' do
        dual_bound = min(dual_bound, bound + float((up - low).max()))
        return q, consider(q, gap)

    # The bracket [lam_lo, lam_hi] holds an infeasible maximizer at its left
    # end (at lam_lo = 0, the per-state argmax) and a feasible one at its
    # right; each end is (maximizer, excess).  The search starts at the
    # chord slope (argmax payoff - best candidate's payoff) / argmax excess,
    # the payoff the argmax gains per bit of excess: the optimal payoff is
    # concave in the excess allowed, so the optimal multiplier, its slope at
    # 0, is at least its mean slope up to the argmax's excess, which this
    # chord bounds from above with the candidate in place of the optimum.
    # No candidate, or a slope that is not finite and positive, starts at 1.
    # Doubling goes on from there up to the cap.
    lam_lo, lo = 0.0, (vertex, vertex_gap + offset)
    lam_hi = (dual_bound - best_pay) / lo[1]
    lam_hi = min(lam_hi, _MAX_MULTIPLIER) if 0.0 < lam_hi < math.inf else 1.0
    hi = maximize_at(lam_hi)
    while hi[1] > FEASIBILITY_TOL:
        if lam_hi >= _MAX_MULTIPLIER:
            # No multiplier makes the inner maximizer feasible (degenerate
            # channel); certify against the best feasible candidate if possible.
            return finish_best(lam_hi, f"at the multiplier cap 2**{math.log2(_MAX_MULTIPLIER):g}")
        lam_lo, lo = lam_hi, hi
        lam_hi = min(2.0 * lam_hi, _MAX_MULTIPLIER)
        hi = maximize_at(lam_hi)

    stop = f"after {_OUTER_STEPS} multiplier steps"
    # False position: the excess is decreasing in the multiplier (minus the
    # slope of the convex dual), so where the line through the ends' weighted
    # excesses crosses zero is a guess at the optimal multiplier.  Illinois
    # weights (Dowell & Jarratt, BIT 11, 1971): an end replaced gets weight 1
    # and one kept twice in a row has it halved, so the next point lands past
    # the root instead of creeping up on it from one side.  1/2 is the factor
    # of that analysis (order 3**(1/3) per inner solve), exact in binary.  A
    # feasible end above 0 (by FEASIBILITY_TOL at most) counts as 0.
    weight, last = [1.0, 1.0], None  # lo's and hi's
    for step in range(_OUTER_STEPS):
        blend(best_q, best_gap + offset, outside_q, outside_excess)
        # The maximizers at the bracket's ends straddle the boundary; their
        # mix on it is near optimal once the bracket is narrow, also where
        # the maximizer jumps across the boundary and no multiplier in the
        # bracket gives a feasible point near the optimum.
        blend(*hi, *lo)
        if dual_bound - best_pay <= opts.tol_payoff:
            break
        e_lo, e_hi = weight[0] * lo[1], weight[1] * min(hi[1], 0.0)
        lam = lam_lo + (lam_hi - lam_lo) * (e_lo / (e_lo - e_hi))
        if lam in (lam_lo, lam_hi):
            stop = f"at a collapsed multiplier bracket after {step} steps"
            break
        end = maximize_at(lam)
        feasible = end[1] <= FEASIBILITY_TOL
        if feasible:
            lam_hi, hi = lam, end
        else:
            lam_lo, lo = lam, end
        if feasible == last:
            weight[not feasible] *= 0.5
        weight[feasible], last = 1.0, feasible
    return finish_best(lam_hi, stop)
