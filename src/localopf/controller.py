"""Real-time projected-gradient controller with local feedback.

Implements the per-slot update, the frozen-scenario equilibrium solve, and
the stability/tracking diagnostics: the contraction factor rho(alpha), the
gain clamp, the step-size condition, and an empirical check of the
equilibrium-sensitivity bound.  The update :func:`step` is measurement in,
setpoint out; the runner applies each setpoint to the plant
(:func:`plant_voltage`) and measures it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .feeder import FeederGraph, LinearVoltageModel
from .powerflow import SWEEP_TOL, InjectionState, solve_nonlinear
from .policy import PolicyParams, forward_all, output
from .scenario import ScenarioStep, cost_grad, project_box


# Inside a Picard solve each nonlinear plant call starts from the previous
# iterate's power flow and sweeps only to this fraction of the previous
# Picard step (never below ``SWEEP_TOL``).  A sweep shrinks its error about
# tenfold (8 sweeps take it from ~1e-2 to 1e-10), so the voltage error stays
# an order of magnitude below the step; once the step is below ``eq_tol``
# (1e-9) the tolerance is back at about ``SWEEP_TOL``.
PICARD_PF_TOL_FRACTION = 0.1


class ControllerError(RuntimeError):
    """Nonlinear plant or equilibrium failure; carries only a message."""


@dataclass(frozen=True)
class ControllerConfig:
    alpha: float
    plant: str = "linear"  # or "nonlinear"
    eq_tol: float = 1e-9
    eq_max_iters: int = 2000

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.eq_tol <= 0:
            raise ValueError("eq_tol must be positive")
        if self.plant not in ("linear", "nonlinear"):
            raise ValueError(f"unknown plant '{self.plant}'")


@dataclass(frozen=True)
class Equilibrium:
    x_dag: np.ndarray
    v_dag: np.ndarray
    iterations: int
    converged: bool
    residual: float


def plant_voltage(
    x: np.ndarray,
    p_u: np.ndarray,
    q_u: np.ndarray,
    model: LinearVoltageModel,
    graph: FeederGraph,
    plant: str,
) -> np.ndarray:
    """Squared voltages produced by applying setpoints x under the injections (p_u, q_u).

    ``x`` is ``(..., 2N)`` and the injections ``(..., N)``; the nonlinear
    plant solves every row in one power-flow call.
    """
    if plant == "linear":
        return x @ model.A.T + (model.v0 + p_u @ model.R.T + q_u @ model.X.T)
    return _nonlinear_plant(x, p_u, q_u, model.v0, graph).v


def _nonlinear_plant(x, p_u, q_u, v0, graph, tol=SWEEP_TOL, start=None):
    """Power flow of setpoints ``x`` (..., 2N) under (p_u, q_u) (..., N) at slack voltage ``v0``.

    Raises a ControllerError unless it converged.
    """
    n = graph.n
    sol = solve_nonlinear(graph, InjectionState(p=x[..., :n], q=x[..., n:], p_u=p_u, q_u=q_u),
                          v0, tol=tol, start=start)
    if not sol.converged:
        raise ControllerError("nonlinear plant did not converge")
    return sol


def step(
    x: np.ndarray,
    v_hat: np.ndarray,
    step_data: ScenarioStep,
    policy: PolicyParams,
    cfg: ControllerConfig,
) -> np.ndarray:
    """One real-time update: the setpoint to apply next, from the held setpoint ``x``.

    ``v_hat`` is the measurement of ``x``: its squared voltages under
    ``step_data``'s injections.  Every node moves along its local
    gradient-plus-policy direction and is projected onto its box; each
    node's update reads only its own measurement, injection, cost, box and
    channels (all operations below are elementwise in the node index).
    Applying the setpoint and measuring the plant is the caller's part.
    """
    n = len(v_hat)
    u = output(policy.gain, forward_all(policy, step_data.p_u, step_data.q_u), v_hat)
    g = x - cfg.alpha * (cost_grad(step_data.cost, x[:n], x[n:]) + u)
    return project_box(g, step_data.box)


def _picard_plant(p_u, q_u, model, graph, plant):
    """Plant of one Picard solve: ``plant(x, step)`` maps setpoint rows to squared voltages.

    ``step`` is the largest row step of the previous Picard iteration (0 for
    full precision).  The linear plant ignores it.  The nonlinear plant keeps
    the solve's last power-flow solution, starts each sweep from it, and
    stops at ``max(SWEEP_TOL, PICARD_PF_TOL_FRACTION * step)``.
    """
    if plant == "linear":
        return lambda x, step: plant_voltage(x, p_u, q_u, model, graph, plant)
    last = None

    def solve(x, step):
        nonlocal last
        last = _nonlinear_plant(x, p_u, q_u, model.v0, graph,
                                max(SWEEP_TOL, PICARD_PF_TOL_FRACTION * step), last)
        return last.v

    return solve


def _picard(x, plant, offset, gain, cost, box, alpha, eq_tol, max_iters, gaps=None):
    """Picard iteration of the frozen-scenario dynamics on (S, 2N) setpoint rows.

    ``plant(x, step)`` maps setpoint rows to squared-voltage rows v, given
    the largest row step of the previous iteration as ``step``: 0 on the
    first call and on the final one, which returns the equilibrium's
    voltages at full precision (see :func:`_picard_plant`).  The policy
    output is ``output(gain, offset, v)`` with the MLP term ``offset``
    (S, 2N) fixed.  Stops once every row moved less than ``eq_tol``; appends
    the largest row step of each iteration to ``gaps`` when given.  Returns
    (x, v, converged (S,), gap (S,), iterations).
    """
    floor, lo, hi = cost.floor, box.lo, box.hi
    two_w = 2.0 * cost.weight
    gap = np.full(len(x), np.inf)
    step = 0.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        v = plant(x, step)
        x_new = np.clip(x - alpha * (two_w * (x - floor) + output(gain, offset, v)), lo, hi)
        gap = np.linalg.norm(x_new - x, axis=1)
        x = x_new
        step = float(np.max(gap))
        if gaps is not None:
            gaps.append(step)
        if step < eq_tol:
            break
    return x, plant(x, 0.0), gap < eq_tol, gap, iterations


def solve_equilibrium(
    step_data: ScenarioStep,
    policy: PolicyParams,
    model: LinearVoltageModel,
    graph: FeederGraph,
    cfg: ControllerConfig,
    x0: np.ndarray | None = None,
    return_gaps: bool = False,
):
    """Fixed point of the frozen-scenario dynamics on ``cfg.plant``.

    Starts at the box midpoint unless ``x0`` is given.  With ``return_gaps``
    also returns the step length of every iteration.
    """
    x = np.array(step_data.box.midpoint if x0 is None else x0, dtype=float, ndmin=2)
    p_u, q_u = step_data.p_u[None], step_data.q_u[None]
    gaps = [] if return_gaps else None
    x, v, conv, gap, iterations = _picard(
        x, _picard_plant(p_u, q_u, model, graph, cfg.plant),
        forward_all(policy, p_u, q_u), policy.gain, step_data.cost, step_data.box,
        cfg.alpha, cfg.eq_tol, cfg.eq_max_iters, gaps,
    )
    eq = Equilibrium(x_dag=x[0], v_dag=v[0], iterations=iterations,
                     converged=bool(conv[0]), residual=float(gap[0]))
    return (eq, gaps) if return_gaps else eq


def solve_equilibria_batch(
    p_u: np.ndarray,
    q_u: np.ndarray,
    offset: np.ndarray,
    cost,
    box,
    policy: PolicyParams,
    model: LinearVoltageModel,
    graph: FeederGraph,
    cfg: ControllerConfig,
    x0: np.ndarray | None = None,
):
    """Fixed points of the frozen-scenario dynamics on ``cfg.plant`` for S scenario samples.

    ``p_u``, ``q_u`` have shape (S, N), ``offset`` = ``forward_all(policy,
    p_u, q_u)``; each Picard iteration makes one plant call on all rows (on
    the nonlinear plant, warm-started from the previous iteration's power
    flow; see :func:`_picard_plant`).
    Starts every row at the box midpoint unless ``x0`` (S, 2N) is given.
    Returns (x (S,2N), v (S,N), converged (S,), iterations).  Rows share the
    cost and box.
    """
    x = np.tile(box.midpoint, (len(p_u), 1)) if x0 is None else np.array(x0, dtype=float)
    x, v, conv, _, iterations = _picard(
        x, _picard_plant(p_u, q_u, model, graph, cfg.plant), offset, policy.gain,
        cost, box, cfg.alpha, cfg.eq_tol, cfg.eq_max_iters,
    )
    return x, v, conv, iterations


def rho_alpha(m: float, xi: float, L_theta: float, a_norm: float, alpha: float) -> float:
    """Contraction factor of the closed-loop dynamics on the linear plant."""
    rad = 1.0 + alpha**2 * (xi**2 + L_theta**2 * a_norm**2 + 2.0 * xi * L_theta * a_norm) \
        - 2.0 * alpha * m
    if rad < 0.0:
        raise ValueError(f"invalid constants: negative radicand {rad}")
    return float(np.sqrt(rad))


def tracking_bound(rho: float, gamma: float, L_h: float, approx_eps: float) -> float:
    """Asymptotic tracking-error bound (rho*gamma + (1+rho)*L_h*eps)/(1-rho)."""
    if rho >= 1.0:
        raise ValueError(f"no contraction: rho = {rho} >= 1")
    return (rho * gamma + (1.0 + rho) * L_h * approx_eps) / (1.0 - rho)


@dataclass(frozen=True)
class StabilityReport:
    c1_ok: bool
    c2_ok: bool
    c3_ok: bool
    c3_bound: float
    c3_margin: float
    step_ok: bool
    step_bound: float
    rho: float
    L_theta: float
    k_max: float
    alpha: float
    a_norm: float

    @property
    def all_ok(self) -> bool:
        """Uniqueness (C1-C3) and the step-size bound; says nothing about contraction."""
        return self.c1_ok and self.c2_ok and self.c3_ok and self.step_ok

    @property
    def contraction_ok(self) -> bool:
        """The closed loop contracts on the linear plant: finite rho < 1."""
        return bool(np.isfinite(self.rho) and self.rho < 1.0)

    def summary(self) -> dict:
        """Every field plus ``all_ok`` and ``contraction_ok``: the report's ``stability`` block."""
        return {**asdict(self), "all_ok": self.all_ok, "contraction_ok": self.contraction_ok}


def check_stability(
    m: float, xi: float, a_norm: float, policy: PolicyParams, alpha: float
) -> StabilityReport:
    """Evaluate the uniqueness conditions and step-size bound for ``policy``.

    C1 holds structurally (the voltage path is an additive linear term); C2
    holds whenever every gain is finite and nonnegative; C3 compares the
    policy Lipschitz constant in v against its threshold, strictly.
    """
    L_theta = policy.lipschitz_v()
    c1_ok = True
    c2_ok = bool(np.all(np.isfinite(policy.k)) and np.all(policy.k >= 0.0))
    step_bound = 2.0 * m / xi**2
    step_ok = alpha < step_bound
    rad = 1.0 - 2.0 * alpha * m + alpha**2 * xi**2
    if rad >= 0.0 and alpha > 0.0 and a_norm > 0.0:
        c3_bound = (1.0 - np.sqrt(rad)) / (alpha * a_norm)
    else:
        c3_bound = np.nan
    c3_ok = bool(np.isfinite(c3_bound) and L_theta < c3_bound)
    try:
        rho = rho_alpha(m, xi, L_theta, a_norm, alpha)
    except ValueError:
        rho = np.nan
    return StabilityReport(
        c1_ok=c1_ok,
        c2_ok=c2_ok,
        c3_ok=c3_ok,
        c3_bound=float(c3_bound),
        c3_margin=float(c3_bound - L_theta) if np.isfinite(c3_bound) else np.nan,
        step_ok=bool(step_ok),
        step_bound=float(step_bound),
        rho=float(rho),
        L_theta=float(L_theta),
        k_max=float(policy.k_max),
        alpha=float(alpha),
        a_norm=float(a_norm),
    )


def lemma1_check(
    step_data: ScenarioStep,
    policy: PolicyParams,
    model: LinearVoltageModel,
    graph: FeederGraph,
    cfg: ControllerConfig,
    probe_scale: float = 1e-5,
) -> float:
    """Measured equilibrium sensitivity to a constant policy-output probe.

    Solves the equilibrium with and without ``probe_scale`` added to every
    controllable channel output, as one batch, and returns ||dx|| / ||probe||.
    """
    if probe_scale == 0.0:
        return 0.0
    delta = np.zeros(2 * graph.n)
    delta[policy.columns] = probe_scale
    p_u, q_u = np.tile(step_data.p_u, (2, 1)), np.tile(step_data.q_u, (2, 1))
    offset = forward_all(policy, p_u, q_u)
    offset[1] += delta
    x, _, conv, _ = solve_equilibria_batch(p_u, q_u, offset, step_data.cost, step_data.box,
                                           policy, model, graph, cfg)
    if not np.all(conv):
        raise ControllerError("base or probed equilibrium did not converge")
    return float(np.linalg.norm(x[1] - x[0]) / np.linalg.norm(delta))
