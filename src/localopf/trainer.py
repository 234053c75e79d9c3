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

from .controller import ControllerConfig, check_stability, plant_voltage, solve_equilibria_batch
from .feeder import FeederGraph, LinearVoltageModel
from .powerflow import solve_nonlinear  # noqa: F401  bound here for perfbench/test_perfbench.py
from .policy import (
    PolicyParams,
    StabilityError,
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
    cost_grad,
    cost_value,
    project_box,
)

ACTIVITY_TOL = 1e-12  # projection considered inactive when |proj(g) - g| <= this
ADAM_BLOCK = 32768  # elements per Adam block: a cache-sized scratch instead of a theta-sized one
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # adam_update's settle rule assumes these
# keys of each per-epoch row of train's log, in the column order of training_log.csv
LOG_COLUMNS = ("epoch", "lagrangian", "mean_cost", "viol_rate_lo", "viol_rate_hi", "mu_norm",
               "skipped", "live_channels")


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
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be at least 1 and epochs nonnegative")
        if not (self.alpha > 0.0 and self.eq_tol > 0.0):
            raise ValueError("alpha and eq_tol must be positive")
        if not (self.zo_step > 0.0 and self.k_max_margin > 0.0):
            raise ValueError("zo_step and k_max_margin must be positive")
        if self.eq_max_iters < 1:
            raise ValueError("eq_max_iters must be at least 1")
        if self.arch[0] < 0 or (self.arch[0] and self.arch[1] < 1):
            raise ValueError(f"arch {list(self.arch)}: need a hidden layer count of at least 0 "
                             "and, with hidden layers, a width of at least 1")
        if min(self.sigma_phi, self.sigma_mu, self.lambda_value, self.mu_init) < 0.0 \
                or (self.sigma_lambda is not None and self.sigma_lambda < 0.0):
            raise ValueError("sigma_phi, sigma_lambda, sigma_mu, lambda_value and mu_init "
                             "must be nonnegative")
        if not 0.0 < self.v_lo < self.v_hi:
            raise ValueError(f"voltage band v_lo {self.v_lo}, v_hi {self.v_hi}: "
                             "need 0 < v_lo < v_hi")


@dataclass
class AdamState:
    """Moments laid out like the policy's ``theta``, and (C,) masks over its (C, P) rows.

    ``active``: rows whose m or v may be nonzero; ``settled``: active rows a
    zero-gradient step provably leaves unchanged (see :func:`adam_update`).
    :meth:`zeros_like` makes m and v with ``np.zeros``, whose pages stay
    untouched until written, and :func:`adam_update` writes no inactive
    row, so the moments of rows that never receive a gradient take no
    resident memory.
    """

    m: np.ndarray
    v: np.ndarray
    active: np.ndarray
    settled: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, policy: PolicyParams) -> "AdamState":
        none = np.zeros(policy.n_channels, dtype=bool)
        shape = policy.theta.shape  # np.zeros, not zeros_like, which writes every page
        return cls(m=np.zeros(shape), v=np.zeros(shape), active=none, settled=none.copy())


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
    comes from the minibatch's one ``forward_all`` pass and, like ``x``,
    holds only the converged rows.  ``tape`` is that pass's tape, written
    for the ``taped`` channels alone; it is None, and ``taped`` all False,
    when no channel ran or a row was skipped.  :func:`grad_policy` reuses
    the tape when it covers every live channel.  In :func:`train` a full
    minibatch's tape is the run's one tape, which the next full pass
    overwrites.
    """

    p_u: np.ndarray  # (S, N)
    q_u: np.ndarray  # (S, N)
    x: np.ndarray  # (S, 2N) equilibrium setpoints
    v: np.ndarray  # (S, N) equilibrium squared voltages
    offset: np.ndarray  # (S, 2N) MLP term of the policy output
    tape: list | None  # forward_all tape of ``offset``: post-activations, channel-major
    taped: np.ndarray  # (C,) channels whose entries of ``tape`` are written
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
    return _lagrangian(batch, state, _surrogate_slack(batch, state, cfg))


def _surrogate_slack(batch, state, cfg):
    """(N,) lower and upper hinge means over the rows of ``batch``, minus ``beta * lambda``."""
    v = batch.v
    hinge_lo = hinge_surrogate(state.lambda_lo, cfg.v_lo - v).mean(axis=0)
    hinge_hi = hinge_surrogate(state.lambda_hi, v - cfg.v_hi).mean(axis=0)
    return hinge_lo - cfg.beta * state.lambda_lo, hinge_hi - cfg.beta * state.lambda_hi


def _lagrangian(batch, state, slack):
    """:func:`lagrangian` from the minibatch's :func:`_surrogate_slack`."""
    val = batch.mean_cost
    val += float(state.mu_lo @ slack[0])
    val += float(state.mu_hi @ slack[1])
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
    ``cfg``.  Returns ``(grad, live)``, ``live`` being the (C,) mask of
    channels with a nonzero upstream entry: the only rows of ``grad`` that
    may be nonzero, and with ``out`` the only rows written in full.
    Backward runs only if one is live, on ``batch.tape`` if it covers every
    live channel, else on one ``forward_all`` pass over the live channels of
    the batch's rows; it writes into ``out`` when given (left as it is with
    none live), else into a fresh zero vector.
    """
    upstream = _policy_upstream(batch, state, model, cfg, voltage_jacobian)
    live = np.any(upstream, axis=0)
    if not live.any():
        return np.zeros(state.policy.theta.shape) if out is None else out, live
    tape = batch.tape
    if (live & ~batch.taped).any():  # a channel turned live on stored values, or no tape
        _, tape = forward_all(state.policy, batch.p_u, batch.q_u, with_tape=True, channels=live)
    return backward_all(state.policy, tape, upstream, batch.v, out=out), live


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
    grad_f = cost_grad(batch.cost, x)
    bracket = bracket_pq + grad_f

    g = x - cfg.alpha * (grad_f + output(state.policy.gain, batch.offset, v))
    interior = np.abs(project_box(g, batch.box) - g) <= ACTIVITY_TOL

    upstream = bracket * interior * (-1.0 / (2.0 * batch.cost.weight)) / S  # (S, 2N)
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
    return _dual_step(state, cfg.sigma_mu, _surrogate_slack(batch, state, cfg))


def _dual_step(state, sigma_mu, slack):
    """:func:`dual_update` from the minibatch's :func:`_surrogate_slack`."""
    return replace(
        state,
        mu_lo=np.maximum(state.mu_lo + sigma_mu * slack[0], 0.0),
        mu_hi=np.maximum(state.mu_hi + sigma_mu * slack[1], 0.0),
    )


def zo_voltage_jacobian(
    x_dag: np.ndarray,
    p_u: np.ndarray,
    q_u: np.ndarray,
    model: LinearVoltageModel,
    graph: FeederGraph,
    zo_step: float = 1e-3,
    plant: str = "nonlinear",
) -> np.ndarray:
    """2n-point central-difference estimate of dv/dx around ``x_dag``.

    The injections ``p_u``, ``q_u`` (N,) stay fixed.  One
    :func:`~localopf.controller.plant_voltage` call on ``plant`` evaluates
    the 4N probe rows ``[x + hE; x - hE]``; the nonlinear plant raises a
    ControllerError unless the power flow converged.
    """
    if zo_step <= 0.0:
        raise ValueError("zo_step must be positive")
    n = graph.n
    rows = (4 * n, n)
    probes = zo_step * np.eye(2 * n)
    v = plant_voltage(np.concatenate([x_dag + probes, x_dag - probes]),
                      np.broadcast_to(p_u, rows), np.broadcast_to(q_u, rows), model, graph, plant)
    return ((v[:2 * n] - v[2 * n:]) / (2.0 * zo_step)).T


# ---------------------------------------------------------------------------
# Training loop.

def adam_update(policy: PolicyParams, grad: np.ndarray, adam: AdamState, lr: float,
                live: np.ndarray, horizon: int) -> np.ndarray:
    """In-place adaptive-moment descent step on ``policy.theta``; returns the rows it moved.

    ``live``, a (C,) mask over ``theta``'s (C, P) rows, names the rows whose
    gradient may be nonzero, the only rows of ``grad`` read (and
    overwritten).  Each row takes the form of its kind (see
    :class:`AdamState`), bit for bit the full step:

    - live: the full step, and the row turns active and unsettled;
    - active, neither live nor settled: ``m *= b1; v *= b2``, then the theta
      update, since g = +-0.0 adds +0.0 to m and v, which are never -0.0;
    - settled: ``m *= b1; v *= b2``;
    - inactive: nothing, as zero m, v and g leave theta as it is.

    One scan of the rows' kinds cuts them into runs of one kind, which the
    step walks once.  The two stepping forms run in ``ADAM_BLOCK``-element
    blocks with one scratch and compare new with old theta as int64; a block
    boundary does not change an elementwise result.  The returned (C,) mask
    is exactly the rows whose theta bytes changed.  A decay-only row left
    unchanged settles from step 5 on if it passes the guard up to
    ``horizon``, the run's last step.  Why it then stays put:

    - with g = 0, u = lr (m/bc1) / (sqrt(v/bc2) + eps) keeps its sign and
      |u_{t+1}| / |u_t| <= b1 sqrt(bc2_{t+1} / (b2 bc2_t)), below 1 from
      t = 5 on for (b1, b2) = (0.9, 0.999) by 1.4% to 10%, which covers the
      roundings of u while its operands are normal numbers;
    - rounding and the k clip are monotone, so once fl(theta - u_t) = theta
      no later zero-gradient step moves theta;
    - a subnormal m, or lr m, stops shrinking under *b1 while v falls, so
      the guard asks that every nonzero m, times min(1, lr / max(1,
      sqrt(v/bc2) + eps)) and times b1 per step left, stay at least
      ``np.finfo(float).tiny``.
    """
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    adam.t += 1
    bc1 = 1.0 - beta1**adam.t
    bc2 = 1.0 - beta2**adam.t
    theta, P = policy.theta, policy.row_size
    adam.active |= live
    adam.settled &= ~live
    # each row's kind, 0 inactive, 1 live, 2 decay-only or 3 settled, and the runs of one kind
    kind = 2 * adam.active - live + adam.settled
    kinds = kind.tolist()
    cuts = [c for c in range(len(kinds) + 1) if c in (0, len(kinds)) or kinds[c] != kinds[c - 1]]
    scratch = np.empty(min(ADAM_BLOCK, theta.size))  # temporaries cost more than the math
    moved = np.zeros_like(live)
    for a, b in zip(cuts, cuts[1:]):
        form = kinds[a]
        if form == 0:
            continue
        if form == 3:
            adam.m[a * P:b * P] *= beta1
            adam.v[a * P:b * P] *= beta2
            continue
        stop = b * P
        for start in range(a * P, stop, ADAM_BLOCK):
            blk = slice(start, min(start + ADAM_BLOCK, stop))
            g, m, v, th = grad[blk], adam.m[blk], adam.v[blk], theta[blk]
            tmp = scratch[:g.size]
            v *= beta2
            m *= beta1
            if form == 1:
                v += np.multiply(np.multiply(g, 1.0 - beta2, out=tmp), g, out=tmp)
                m += np.multiply(g, 1.0 - beta1, out=g)
            np.add(np.sqrt(np.divide(v, bc2, out=tmp), out=tmp), eps, out=tmp)
            np.multiply(np.divide(m, bc1, out=g), lr, out=g)
            np.divide(g, tmp, out=g)  # lr * (m/bc1) / (sqrt(v/bc2) + eps)
            np.subtract(th, g, out=tmp)
            flag = g.view(np.bool_)[:g.size]  # the first bytes of g, free once u is spent
            np.not_equal(tmp.view(np.int64), th.view(np.int64), out=flag)
            th[...] = tmp
            touched = range(start // P, (blk.stop - 1) // P + 1)  # rows the block touches
            moved[touched.start:touched.stop] |= np.logical_or.reduceat(
                flag, [max(r * P - start, 0) for r in touched])
    if beta1**2 * (1.0 - beta2**(adam.t + 1)) < beta2 * bc2 * (1.0 - 1e-9):  # |u| falls
        same = (kind == 2) & ~moved
        reach = beta1**(horizon - adam.t)
        for c in np.flatnonzero(same):
            m, v = adam.m[c * P:(c + 1) * P], adam.v[c * P:(c + 1) * P]
            scale = np.minimum(1.0, lr / np.maximum(np.sqrt(v / bc2) + eps, 1.0))
            same[c] = np.all((m == 0.0) | (np.abs(m) * scale * reach >= np.finfo(float).tiny))
        adam.settled |= same
    return moved


def controllable_nodes(box: BoxLimits) -> tuple[int, ...]:
    """Nodes with a non-degenerate capability box."""
    free = (box.p_hi > box.p_lo) | (box.q_hi > box.q_lo)
    return tuple(int(i) + 1 for i in np.nonzero(free)[0])


def initial_state(p_u: np.ndarray, q_u: np.ndarray, cost: CostModel, box: BoxLimits,
                  cfg: TrainerConfig, graph: FeederGraph,
                  model: LinearVoltageModel) -> TrainerState:
    """The state training starts from, on the (T, N) injection rows ``p_u``, ``q_u``.

    The policy covers the controllable nodes of ``box``, its gain clamp is
    :func:`compute_k_max` of ``cost``'s convexity constants, and its inputs
    are scaled by the rows.  The multipliers start at ``cfg.mu_init``, the
    offsets at ``cfg.lambda_value`` and Adam at zero.  Raises
    :class:`StabilityError` unless the policy meets the uniqueness and
    step-size conditions.
    """
    m, xi = convexity_constants(cost)
    k_max = compute_k_max(cfg.alpha, m, xi, model.a_norm, cfg.k_max_margin)
    policy = init_policy(graph, controllable_nodes(box), cfg.arch, k_max, cfg.seed)
    set_input_scale(policy, p_u, q_u)
    report = check_stability(m, xi, model.a_norm, policy, cfg.alpha)
    if not report.all_ok:
        raise StabilityError(f"stability check failed before training: {report}")
    n = graph.n
    return TrainerState(policy=policy, mu_lo=np.full(n, float(cfg.mu_init)),
                        mu_hi=np.full(n, float(cfg.mu_init)),
                        lambda_lo=np.full(n, cfg.lambda_value),
                        lambda_hi=np.full(n, cfg.lambda_value),
                        adam_state=AdamState.zeros_like(policy))


def train(
    scenarios,
    cfg: TrainerConfig,
    graph: FeederGraph,
    model: LinearVoltageModel,
):
    """Primal-dual training over the pooled slots of ``scenarios``.

    Every scenario must share the first one's cost and box; training starts
    from :func:`initial_state` of the pooled rows.  A channel's MLP term on
    a pooled row is kept in a per-(row, channel) store, filled by passes of
    ``batch_size`` rows, and stays valid exactly as long as the channel's
    ``theta`` row keeps its bits: the rows Adam reports moved are cleared,
    and a pass runs only on the channels with a stale entry among the
    minibatch's rows (none when all are fresh; a short minibatch runs every
    channel).  Every full pass writes its hidden layers into one tape
    allocated per run; a short minibatch's pass allocates its own.  Each
    minibatch's gradient is :func:`grad_policy`'s, and Adam steps each row
    by its kind (see :func:`adam_update`).  The result is
    bit for bit that of a step over every channel as long as a row's MLP
    term does not depend on the other rows of a pass of ``batch_size``
    rows, which ``tests/test_sparse_step.py`` checks.  Returns (final
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
    state = initial_state(p_u, q_u, cost, box, cfg, graph, model)
    sigma_lambda = cfg.sigma_phi if cfg.sigma_lambda is None else cfg.sigma_lambda
    rng = np.random.default_rng(cfg.seed)
    ctrl_cfg = ControllerConfig(
        alpha=cfg.alpha,
        plant="nonlinear" if cfg.mode == "gradient_free" else "linear",
        eq_tol=cfg.eq_tol,
        eq_max_iters=cfg.eq_max_iters,
    )
    x_warm = box.midpoint
    # Only full-size passes fill or read the store: a row of ``forward_all``
    # is bit-identical wherever it sits in batches of one size, not across sizes.
    C, cols = state.policy.n_channels, state.policy.columns
    stored = np.empty((len(p_u), C))  # each pooled row's MLP term, per channel
    fresh = np.zeros((len(p_u), C), dtype=bool)
    grad = np.zeros(state.policy.theta.shape)  # Adam reads only the live rows grad_policy wrote
    # the hidden layers of every full pass, each overwritten by the next
    tape_out = [np.empty((C, cfg.batch_size, w.shape[1])) for w in state.policy.weights[:-1]]
    horizon = cfg.epochs * -(-len(p_u) // cfg.batch_size)  # the run's Adam steps
    log = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(p_u))
        rows = []  # per minibatch: lagrangian, cost, violation rates, skipped, live count
        for start in range(0, len(p_u), cfg.batch_size):
            chunk = perm[start:start + cfg.batch_size]
            p_mb, q_mb = p_u[chunk], q_u[chunk]  # the minibatch's injection rows
            full = len(chunk) == cfg.batch_size
            ran = ~fresh[chunk].all(axis=0) if full else np.ones(C, dtype=bool)
            if ran.any():
                offset, tape = forward_all(state.policy, p_mb, q_mb, with_tape=True, channels=ran,
                                           tape_out=tape_out if full else None)
            else:
                offset, tape = np.zeros((len(chunk), 2 * graph.n)), None
            if full:
                at, on, off = chunk[:, None], np.flatnonzero(ran), np.flatnonzero(~ran)
                offset[:, cols[off]] = stored[at, off]
                stored[at, on] = offset[:, cols[on]]
                fresh[at, on] = True
            batch, x_warm = _solve_batch(p_mb, q_mb, cost, box, state.policy, model, graph,
                                         ctrl_cfg, x_warm, offset, tape, ran)
            jac = None
            if cfg.mode == "gradient_free":
                # probe around the first converged row under its own injections
                jac = zo_voltage_jacobian(batch.x[0], batch.p_u[0], batch.q_u[0], model, graph,
                                          cfg.zo_step)
            grad, live = grad_policy(batch, state, model, cfg, jac, out=grad)
            slack = _surrogate_slack(batch, state, cfg)  # read by the log and the dual step
            rows.append((_lagrangian(batch, state, slack), batch.mean_cost,
                         np.count_nonzero(batch.v < cfg.v_lo) / batch.v.size,
                         np.count_nonzero(batch.v > cfg.v_hi) / batch.v.size,
                         batch.skipped, np.count_nonzero(live)))
            moved = adam_update(state.policy, grad, state.adam_state, cfg.sigma_phi, live, horizon)
            fresh[:, moved] = False
            enforce_conditions(state.policy)  # clips k, which the MLP term does not read
            if cfg.lambda_mode == "learned":
                g_lo, g_hi = grad_lambda(batch, state, cfg)
                state.lambda_lo = state.lambda_lo - sigma_lambda * g_lo
                state.lambda_hi = state.lambda_hi - sigma_lambda * g_hi
                slack = _surrogate_slack(batch, state, cfg)  # the offsets moved
            state = _dual_step(state, cfg.sigma_mu, slack)
        state.epoch = epoch + 1
        lag, mean_cost, lo, hi, skipped, n_live = zip(*rows)
        log.append({
            "epoch": epoch + 1,
            "lagrangian": float(np.mean(lag)),
            "mean_cost": float(np.mean(mean_cost)),
            "viol_rate_lo": float(np.mean(lo)),
            "viol_rate_hi": float(np.mean(hi)),
            "mu_norm": float(np.linalg.norm(np.concatenate([state.mu_lo, state.mu_hi]))),
            "skipped": sum(skipped),
            "live_channels": float(np.mean(n_live)),
        })
    return state, log


def _solve_batch(p_u, q_u, cost, box, policy, model, graph, ctrl_cfg, x_warm, offset, tape, taped):
    """Equilibria for one minibatch on ``ctrl_cfg.plant``, and the warm start for the next one.

    ``p_u``, ``q_u`` are the minibatch's (S, N) rows; ``offset`` and
    ``tape`` come from their ``forward_all`` pass, whose tape covers the
    ``taped`` channels (see :class:`Batch`).  Every row starts from
    ``x_warm`` and all rows are solved as one batch; the next minibatch
    starts from the last row.  When every row converged the batch holds the
    solve's arrays themselves; otherwise it holds copies of the converged
    rows and no tape.
    """
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
        tape, taped = None, np.zeros_like(taped)
    batch = Batch(p_u=p_u, q_u=q_u, x=x, v=v, offset=offset, tape=tape, taped=taped,
                  cost=cost, box=box, skipped=skipped)
    return batch, x_next
