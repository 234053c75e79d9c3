"""Ground-truth solvers for benchmarking.

``solve_opf_linear`` computes the per-slot optimum of the box- and
voltage-constrained quadratic OPF under the linearized plant, certified by an
explicit KKT residual.  ``baseline_step`` is the standard communication-heavy
feedback primal-dual controller used as the comparison method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import plant_voltage
from .feeder import FeederGraph, LinearVoltageModel
from .scenario import ScenarioStep, cost_value


class InfeasibleError(RuntimeError):
    """Voltage limits unattainable within the capability boxes."""


@dataclass(frozen=True)
class OpfSolution:
    x_star: np.ndarray
    v_star: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    mu_lo: np.ndarray | None = None
    mu_hi: np.ndarray | None = None


def solve_opf_linear(
    step_data: ScenarioStep,
    model: LinearVoltageModel,
    v_lo: np.ndarray,
    v_hi: np.ndarray,
    tol: float = 1e-8,
    cap: int = 200_000,
    warm_duals: tuple[np.ndarray, np.ndarray] | None = None,
) -> OpfSolution:
    """Projected dual ascent with momentum on the voltage-limit multipliers.

    The box-constrained inner minimization has the closed form
    x(mu) = proj_box(floor - A^T (mu_hi - mu_lo) / (2w)), so primal
    stationarity holds exactly at every iterate; the loop runs until primal
    feasibility and complementary slackness drop below ``tol``.
    """
    n = model.R.shape[0]
    v_lo = np.broadcast_to(np.asarray(v_lo, dtype=float), (n,))
    v_hi = np.broadcast_to(np.asarray(v_hi, dtype=float), (n,))
    cost = step_data.cost
    lo, hi = step_data.box.lo, step_data.box.hi
    floor = cost.floor
    two_w = 2.0 * cost.weight
    v_env = model.v0 + model.R @ step_data.p_u + model.X @ step_data.q_u
    A = model.A

    if warm_duals is not None:
        mu_lo, mu_hi = (np.array(warm_duals[0], copy=True), np.array(warm_duals[1], copy=True))
    else:
        mu_lo = np.zeros(n)
        mu_hi = np.zeros(n)
    y_lo, y_hi = mu_lo.copy(), mu_hi.copy()
    t_mom = 1.0
    sigma = cost.weight / max(model.a_norm**2, 1e-12)

    def primal(ml, mh):
        x = np.clip(floor - A.T @ (mh - ml) / two_w, lo, hi)
        v = A @ x + v_env
        return x, v

    x, v = primal(mu_lo, mu_hi)
    kkt = np.inf
    iterations = 0
    for iterations in range(1, cap + 1):
        x, v = primal(y_lo, y_hi)
        g_lo = v_lo - v
        g_hi = v - v_hi
        new_lo = np.maximum(y_lo + sigma * g_lo, 0.0)
        new_hi = np.maximum(y_hi + sigma * g_hi, 0.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom**2))
        y_lo = new_lo + (t_mom - 1.0) / t_next * (new_lo - mu_lo)
        y_hi = new_hi + (t_mom - 1.0) / t_next * (new_hi - mu_hi)
        # gradient restart: momentum against the ascent direction
        if (new_lo - mu_lo) @ g_lo + (new_hi - mu_hi) @ g_hi < 0.0:
            y_lo, y_hi = new_lo.copy(), new_hi.copy()
            t_next = 1.0
        mu_lo, mu_hi, t_mom = new_lo, new_hi, t_next
        x, v = primal(mu_lo, mu_hi)
        g_lo = v_lo - v
        g_hi = v - v_hi
        feas = max(float(np.max(g_lo, initial=0.0)), float(np.max(g_hi, initial=0.0)), 0.0)
        comp = max(float(np.max(np.abs(mu_lo * g_lo))), float(np.max(np.abs(mu_hi * g_hi))))
        kkt = max(feas, comp)
        if kkt <= tol:
            break
        if max(np.max(mu_lo), np.max(mu_hi)) > 1e9:
            raise InfeasibleError("voltage limits unattainable (duals diverging)")
    return OpfSolution(
        x_star=x,
        v_star=v,
        objective=cost_value(cost, x[:n], x[n:]),
        kkt_residual=float(kkt),
        iterations=iterations,
        mu_lo=mu_lo,
        mu_hi=mu_hi,
    )


def gamma_estimate(solutions) -> float:
    """Max step-to-step drift of the optimizer over an ordered solution run."""
    if len(solutions) < 2:
        raise ValueError("need at least 2 solutions")
    xs = np.array([s.x_star for s in solutions])
    return float(np.max(np.linalg.norm(np.diff(xs, axis=0), axis=1)))


@dataclass(frozen=True)
class BaselineState:
    """Centralized feedback primal-dual controller state."""

    x: np.ndarray
    mu_lo: np.ndarray
    mu_hi: np.ndarray
    alpha_b: float
    sigma_b: float


def baseline_step(
    state: BaselineState,
    step_data: ScenarioStep,
    model: LinearVoltageModel,
    graph: FeederGraph,
    v_lo: np.ndarray,
    v_hi: np.ndarray,
) -> BaselineState:
    """One comparator update: full-vector dual ascent then projected descent.

    Requires the complete voltage measurement, i.e. system-wide
    communication -- the contrast with the local policy controller.
    """
    v_hat = plant_voltage(state.x, step_data.p_u, step_data.q_u, model, graph, "nonlinear")
    mu_lo = np.maximum(state.mu_lo + state.sigma_b * (v_lo - v_hat), 0.0)
    mu_hi = np.maximum(state.mu_hi + state.sigma_b * (v_hat - v_hi), 0.0)
    cost = step_data.cost
    grad = 2.0 * cost.weight * (state.x - cost.floor) + model.A.T @ (mu_hi - mu_lo)
    x = np.clip(state.x - state.alpha_b * grad, step_data.box.lo, step_data.box.hi)
    return BaselineState(x=x, mu_lo=mu_lo, mu_hi=mu_hi,
                         alpha_b=state.alpha_b, sigma_b=state.sigma_b)
