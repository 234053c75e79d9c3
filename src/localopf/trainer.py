"""Stochastic primal-dual training of the feedback policies.

The trainer minimizes the batch Lagrangian of the chance-constrained policy
optimization: each minibatch's equilibria are solved as one batch of rows
(on the linear plant for the analytic gradients, on the nonlinear plant with
a finite-difference voltage Jacobian in gradient-free mode), policy
parameters descend via Adam, auxiliary offsets optionally descend, and the
voltage-limit multipliers ascend with projection onto the nonnegative
orthant.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .controller import ControllerConfig, _nonlinear_plant, check_stability, solve_equilibria_batch
from .feeder import FeederGraph, LinearVoltageModel
from .powerflow import solve_nonlinear  # noqa: F401  bound here for perfbench/test_perfbench.py
from .policy import (
    PolicyParams,
    backward_all,
    compute_k_max,
    enforce_conditions,
    forward_all,
    init_policy,
    output,
    set_input_scale,
)
from .scenario import (
    BoxLimits,
    CostModel,
    Scenario,
    convexity_constants,
    cost_value,
)

ACTIVITY_TOL = 1e-12  # projection considered inactive when |proj(g) - g| <= this
ADAM_BLOCK = 32768  # elements per Adam block: a cache-sized scratch instead of a theta-sized one


class StabilityError(ValueError):
    """The policy fails the uniqueness or step-size conditions before training."""


def hinge_surrogate(lam, g):
    """Convex surrogate max(lam + g, 0) majorizing lam * indicator(g >= 0)."""
    return np.maximum(lam + g, 0.0)


def indicator(x):
    """1 if x >= 0 else 0 (the boundary counts as a violation)."""
    return (np.asarray(x) >= 0.0).astype(float)


@dataclass(frozen=True)
class TrainerConfig:
    """Every training setting, checked on construction."""

    mode: str = "gradient"  # or "gradient_free"
    alpha: float = 0.48
    beta: float = 0.1  # chance level, in (0, 1)
    lambda_mode: str = "fixed"  # or "learned": the offsets lambda descend too
    lambda_value: float = 5e-4
    sigma_phi: float = 1e-3
    sigma_lambda: float | None = None  # defaults to sigma_phi
    sigma_mu: float = 100.0
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0
    eq_tol: float = 1e-9
    eq_max_iters: int = 2000
    v_lo: float = 0.95**2
    v_hi: float = 1.05**2
    arch: tuple[int, int] = (3, 64)
    k_max_margin: float = 0.95
    zo_step: float = 1e-3
    # Positive dual warm start: with mu = 0 the first minibatches are pure
    # cost descent, which drives the policy outputs positive and permanently
    # deactivates channels (projection-active equilibria have zero gradient).
    mu_init: float = 1.0

    def __post_init__(self):
        if self.mode not in ("gradient", "gradient_free"):
            raise ValueError(f"unknown mode '{self.mode}'")
        if self.lambda_mode not in ("fixed", "learned"):
            raise ValueError(f"unknown lambda_mode '{self.lambda_mode}'")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")


@dataclass
class AdamState:
    """First/second moment accumulators laid out like the policy's ``theta``."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, policy: PolicyParams) -> "AdamState":
        return cls(m=np.zeros_like(policy.theta), v=np.zeros_like(policy.theta))


@dataclass
class TrainerState:
    """What training changes; every setting is read from the :class:`TrainerConfig`."""

    policy: PolicyParams
    mu_lo: np.ndarray  # (N,) multipliers of the voltage chance constraints
    mu_hi: np.ndarray
    lambda_lo: np.ndarray  # (N,) surrogate offsets; they move only in learned mode
    lambda_hi: np.ndarray
    epoch: int = 0
    adam_state: AdamState | None = None


@dataclass(frozen=True)
class Batch:
    """Converged equilibria of one minibatch, stacked row-wise.

    Every row shares ``cost`` and ``box``; ``skipped`` counts the samples
    left out because their equilibrium solve did not converge.  ``offset``
    and ``tape`` come from the solve's one ``forward_all`` pass, so the
    gradient reuses them; like ``x`` they hold only the converged rows.
    """

    p_u: np.ndarray  # (S, N)
    q_u: np.ndarray  # (S, N)
    x: np.ndarray  # (S, 2N) equilibrium setpoints
    v: np.ndarray  # (S, N) equilibrium squared voltages
    offset: np.ndarray  # (S, 2N) MLP term of the policy output
    tape: dict  # forward_all tape of ``offset``, channel-major
    cost: CostModel
    box: BoxLimits
    skipped: int = 0

    @cached_property
    def mean_cost(self) -> float:
        """Generation cost averaged over the rows, computed on first read."""
        n = self.v.shape[1]
        return float(np.mean(cost_value(self.cost, self.x[:, :n], self.x[:, n:])))


def lagrangian(batch: Batch, state: TrainerState, cfg: TrainerConfig) -> float:
    """Empirical Lagrangian: batch-mean cost plus dual-weighted surrogates (band, beta: ``cfg``)."""
    v = batch.v
    hinge_lo = hinge_surrogate(state.lambda_lo, cfg.v_lo - v).mean(axis=0)
    hinge_hi = hinge_surrogate(state.lambda_hi, v - cfg.v_hi).mean(axis=0)
    val = batch.mean_cost
    val += float(state.mu_lo @ (hinge_lo - cfg.beta * state.lambda_lo))
    val += float(state.mu_hi @ (hinge_hi - cfg.beta * state.lambda_hi))
    return val


def grad_policy(
    batch: Batch,
    state: TrainerState,
    model: LinearVoltageModel,
    cfg: TrainerConfig,
    voltage_jacobian: np.ndarray | None = None,
    out: np.ndarray | None = None,
):
    """Batch policy gradient via the chain rule through the equilibrium map.

    The dual-weighted indicator terms couple every node's voltage to node i's
    injection through the sensitivity rows of R and X (or the supplied
    finite-difference Jacobian in gradient-free mode); the equilibrium
    derivative factor is -1/(2w) where the pre-projection point is interior
    and 0 where the box projection is active.  That factor is the zero-gain
    equilibrium derivative dx/du = -1/(2w), exact only when every gain k is
    zero (hence ``test_grad_policy_matches_finite_difference`` zeroes the
    gains).  The exact implicit derivative, -(2wI + G[A; A])^-1 with G the
    diagonal gain matrix, was tried and gave a larger tracking gap, so it
    is not used.  The voltage band and the step size alpha come from
    ``cfg``.  Reuses ``batch.offset`` and ``batch.tape``; returns a vector
    laid out like ``state.policy.theta``, written into ``out`` when given.
    """
    upstream = _policy_upstream(batch, state, model, cfg, voltage_jacobian)
    return backward_all(state.policy, batch.tape, upstream, batch.v, out=out)


def _policy_upstream(batch, state, model, cfg, voltage_jacobian):
    """(S, C) derivative of the batch Lagrangian in each channel's output (see grad_policy)."""
    x, v = batch.x, batch.v
    S = len(v)
    ind_lo = indicator(state.lambda_lo + cfg.v_lo - v)  # (S, N)
    ind_hi = indicator(state.lambda_hi + v - cfg.v_hi)
    w_dual = -state.mu_lo * ind_lo + state.mu_hi * ind_hi
    if voltage_jacobian is None:
        bracket_pq = np.concatenate([w_dual @ model.R, w_dual @ model.X], axis=1)
    else:
        bracket_pq = w_dual @ voltage_jacobian  # (S, 2N)
    weight = batch.cost.weight
    grad_f = 2.0 * weight * (x - batch.cost.floor)
    bracket = bracket_pq + grad_f

    g = x - cfg.alpha * (grad_f + output(state.policy.gain, batch.offset, v))
    interior = np.abs(np.clip(g, batch.box.lo, batch.box.hi) - g) <= ACTIVITY_TOL

    upstream = bracket * interior * (-1.0 / (2.0 * weight)) / S  # (S, 2N)
    return upstream[:, state.policy.columns]


def grad_lambda(batch: Batch, state: TrainerState, cfg: TrainerConfig):
    """Gradients of the Lagrangian in the offsets lambda; ``cfg`` must be in learned mode."""
    if cfg.lambda_mode != "learned":
        raise ValueError("grad_lambda requires lambda_mode='learned'")
    v = batch.v
    g_lo = state.mu_lo * (indicator(state.lambda_lo + cfg.v_lo - v).mean(axis=0) - cfg.beta)
    g_hi = state.mu_hi * (indicator(state.lambda_hi + v - cfg.v_hi).mean(axis=0) - cfg.beta)
    return g_lo, g_hi


def dual_update(state: TrainerState, batch: Batch, cfg: TrainerConfig) -> TrainerState:
    """Projected dual ascent (step ``cfg.sigma_mu``) on the surrogate constraint violations."""
    v = batch.v
    asc_lo = (hinge_surrogate(state.lambda_lo, cfg.v_lo - v).mean(axis=0)
              - cfg.beta * state.lambda_lo)
    asc_hi = (hinge_surrogate(state.lambda_hi, v - cfg.v_hi).mean(axis=0)
              - cfg.beta * state.lambda_hi)
    return replace(
        state,
        mu_lo=np.maximum(state.mu_lo + cfg.sigma_mu * asc_lo, 0.0),
        mu_hi=np.maximum(state.mu_hi + cfg.sigma_mu * asc_hi, 0.0),
    )


def zo_voltage_jacobian(
    graph: FeederGraph,
    p_u: np.ndarray,
    q_u: np.ndarray,
    x_dag: np.ndarray,
    zo_step: float = 1e-3,
    v0: float = 1.0,
    plant=None,
) -> np.ndarray:
    """2n-point central-difference estimate of dv/dx around ``x_dag``.

    The injections ``p_u``, ``q_u`` (N,) stay fixed.  ``plant`` maps
    (rows, 2N) setpoints to (rows, N) squared voltages and is called once,
    on the 4N probe rows ``[x + hE; x - hE]``; the default is the
    controller's nonlinear plant with slack voltage ``v0``, which raises a
    ControllerError unless the power flow converged.
    """
    if zo_step <= 0.0:
        raise ValueError("zo_step must be positive")
    n = graph.n
    if plant is None:
        rows = (4 * n, n)
        p_rows, q_rows = np.broadcast_to(p_u, rows), np.broadcast_to(q_u, rows)

        def plant(x):
            return _nonlinear_plant(x, p_rows, q_rows, v0, graph).v

    probes = zo_step * np.eye(2 * n)
    v = plant(np.concatenate([x_dag + probes, x_dag - probes]))
    return ((v[:2 * n] - v[2 * n:]) / (2.0 * zo_step)).T


# ---------------------------------------------------------------------------
# Training loop.

def adam_update(policy: PolicyParams, grad: np.ndarray, adam: AdamState, lr: float,
                beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """In-place adaptive-moment descent step on ``policy.theta``; overwrites ``grad``.

    Walks only the runs of consecutive channel rows (``theta``'s (C, P)
    reshape) where the gradient, ``m`` or ``v`` has a nonzero entry.  Every
    other row is left as it is, which is exact: with g = m = v = 0 the step
    keeps m and v at zero and moves theta by 0 / (0 + eps) = 0.  Each run is
    updated in ``ADAM_BLOCK``-element blocks with one block-sized scratch,
    so every operand of a block stays in cache; each element sees the same
    operations as a whole-vector update.
    """
    adam.t += 1
    bc1 = 1.0 - beta1**adam.t
    bc2 = 1.0 - beta2**adam.t
    theta = policy.theta
    rows = (policy.n_channels, policy.row_size)
    busy = np.zeros(rows[0] + 2, dtype=np.int8)  # padded with an idle row at each end
    for a in (grad, adam.m, adam.v):
        # an OR of the bit patterns is zero only where every entry is +0.0
        busy[1:-1] |= np.bitwise_or.reduce(a.view(np.int64).reshape(rows), axis=1) != 0
    runs = (np.flatnonzero(np.diff(busy)) * rows[1]).reshape(-1, 2)  # start, stop in theta
    if not len(runs):
        return
    scratch = np.empty(min(ADAM_BLOCK, theta.size))  # temporaries cost more than the math
    for first, stop in runs:
        for start in range(first, stop, ADAM_BLOCK):
            blk = slice(start, min(start + ADAM_BLOCK, stop))
            g, m, v = grad[blk], adam.m[blk], adam.v[blk]
            tmp = scratch[:g.size]
            np.multiply(g, 1.0 - beta2, out=tmp)
            v *= beta2
            v += np.multiply(tmp, g, out=tmp)  # (1 - b2) * g * g
            m *= beta1
            m += np.multiply(g, 1.0 - beta1, out=g)
            np.add(np.sqrt(np.divide(v, bc2, out=tmp), out=tmp), eps, out=tmp)
            np.multiply(np.divide(m, bc1, out=g), lr, out=g)
            theta[blk] -= np.divide(g, tmp, out=g)  # lr * (m/bc1) / (sqrt(v/bc2) + eps)


def controllable_nodes(box: BoxLimits) -> tuple[int, ...]:
    """Nodes with a non-degenerate capability box."""
    free = (box.p_hi > box.p_lo) | (box.q_hi > box.q_lo)
    return tuple(int(i) + 1 for i in np.nonzero(free)[0])


def train(
    scenarios,
    cfg: TrainerConfig,
    graph: FeederGraph,
    model: LinearVoltageModel,
    policy: PolicyParams | None = None,
):
    """Primal-dual training over the pooled slots of ``scenarios``.

    Every scenario must share the first one's cost and box.  Returns (final
    TrainerState, per-epoch log list).  Each log row also carries
    ``skipped``, the samples whose equilibrium did not converge, and
    ``live_channels``, the mean count per minibatch of channels whose
    gradient is not exactly zero (a nonzero upstream entry).  Deterministic
    for a fixed config and seed.
    """
    scenarios = [scenarios] if isinstance(scenarios, Scenario) else list(scenarios)
    if not sum(len(scn) for scn in scenarios):
        raise ValueError("empty training set")
    cost, box = scenarios[0].cost, scenarios[0].box
    for scn in scenarios[1:]:
        for mine, ref in ((scn.cost, cost), (scn.box, box)):
            if not all(np.array_equal(getattr(mine, f.name), getattr(ref, f.name))
                       for f in fields(ref)):
                raise ValueError(f"scenario seed {scn.seed}: its {type(ref).__name__} differs from "
                                 "the first scenario's; training shares one cost and one box")
    p_u = np.concatenate([scn.p_u for scn in scenarios])
    q_u = np.concatenate([scn.q_u for scn in scenarios])
    n = graph.n
    m, xi = convexity_constants(cost)
    k_max = compute_k_max(cfg.alpha, m, xi, model.a_norm, cfg.k_max_margin)
    if policy is None:
        policy = init_policy(graph, controllable_nodes(box), cfg.arch, k_max, cfg.seed)
        set_input_scale(policy, p_u, q_u)
    report = check_stability(m, xi, model.a_norm, policy, cfg.alpha)
    if not report.all_ok:
        raise StabilityError(f"stability check failed before training: {report}")

    state = TrainerState(
        policy=policy,
        mu_lo=np.full(n, float(cfg.mu_init)),
        mu_hi=np.full(n, float(cfg.mu_init)),
        lambda_lo=np.full(n, cfg.lambda_value),
        lambda_hi=np.full(n, cfg.lambda_value),
        adam_state=AdamState.zeros_like(policy),
    )
    sigma_lambda = cfg.sigma_phi if cfg.sigma_lambda is None else cfg.sigma_lambda
    rng = np.random.default_rng(cfg.seed)
    ctrl_cfg = ControllerConfig(
        alpha=cfg.alpha,
        plant="nonlinear" if cfg.mode == "gradient_free" else "linear",
        eq_tol=cfg.eq_tol,
        eq_max_iters=cfg.eq_max_iters,
    )
    x_warm = box.midpoint
    grad = np.empty_like(policy.theta)  # every minibatch's gradient, overwritten by Adam
    log = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(p_u))
        ep_lag = []
        ep_cost = []
        ep_viol_lo = []
        ep_viol_hi = []
        ep_live = []
        skipped = 0
        for start in range(0, len(p_u), cfg.batch_size):
            chunk = perm[start:start + cfg.batch_size]
            batch, x_warm = _solve_batch(p_u[chunk], q_u[chunk], cost, box, state.policy, model,
                                         graph, ctrl_cfg, x_warm)
            skipped += batch.skipped
            jac = None
            if cfg.mode == "gradient_free":
                # probe around the first converged row under its own injections
                jac = zo_voltage_jacobian(graph, batch.p_u[0], batch.q_u[0], batch.x[0],
                                          cfg.zo_step, model.v0)
            ep_lag.append(lagrangian(batch, state, cfg))
            ep_cost.append(batch.mean_cost)
            ep_viol_lo.append(np.mean(batch.v < cfg.v_lo))
            ep_viol_hi.append(np.mean(batch.v > cfg.v_hi))
            upstream = _policy_upstream(batch, state, model, cfg, jac)
            ep_live.append(np.count_nonzero(np.any(upstream, axis=0)))
            backward_all(state.policy, batch.tape, upstream, batch.v, out=grad)
            adam_update(state.policy, grad, state.adam_state, cfg.sigma_phi)
            enforce_conditions(state.policy, k_max)
            if cfg.lambda_mode == "learned":
                g_lo, g_hi = grad_lambda(batch, state, cfg)
                state.lambda_lo = state.lambda_lo - sigma_lambda * g_lo
                state.lambda_hi = state.lambda_hi - sigma_lambda * g_hi
            state = dual_update(state, batch, cfg)
        state.epoch = epoch + 1
        log.append({
            "epoch": epoch + 1,
            "lagrangian": float(np.mean(ep_lag)),
            "mean_cost": float(np.mean(ep_cost)),
            "viol_rate_lo": float(np.mean(ep_viol_lo)),
            "viol_rate_hi": float(np.mean(ep_viol_hi)),
            "mu_norm": float(np.linalg.norm(np.concatenate([state.mu_lo, state.mu_hi]))),
            "skipped": skipped,
            "live_channels": float(np.mean(ep_live)),
        })
    return state, log


def _solve_batch(p_u, q_u, cost, box, policy, model, graph, ctrl_cfg, x_warm):
    """Equilibria for one minibatch on ``ctrl_cfg.plant``, and the warm start for the next one.

    ``p_u``, ``q_u`` are the minibatch's (S, N) rows.  Every row starts from
    ``x_warm`` and all rows are solved as one batch; the next minibatch
    starts from the last row.  When every row converged the batch holds the
    solve's arrays themselves; otherwise it holds copies of the converged
    rows.
    """
    offset, tape = forward_all(policy, p_u, q_u, with_tape=True)
    x, v, conv, _ = solve_equilibria_batch(
        p_u, q_u, offset, cost, box, policy, model, graph, ctrl_cfg,
        np.tile(x_warm, (len(p_u), 1)),
    )
    if not np.any(conv):
        raise ValueError(
            f"no equilibrium of the {len(p_u)}-sample minibatch converged within "
            f"{ctrl_cfg.eq_max_iters} iterations (tolerance {ctrl_cfg.eq_tol:g})"
        )
    x_next = x[-1]
    skipped = int(np.sum(~conv))
    if skipped:
        p_u, q_u, x, v, offset = p_u[conv], q_u[conv], x[conv], v[conv], offset[conv]
        tape = {key: [a[:, conv] for a in arrays] for key, arrays in tape.items()}
    batch = Batch(p_u=p_u, q_u=q_u, x=x, v=v, offset=offset, tape=tape,
                  cost=cost, box=box, skipped=skipped)
    return batch, x_next
