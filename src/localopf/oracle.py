"""Ground-truth solvers for benchmarking.

``solve_opf_linear`` computes the exact per-slot optimum of the box- and
voltage-constrained quadratic OPF under the linearized plant by a finite NNLS
active set in numpy alone (scipy would add tens of MB to a run's peak memory),
certified by an explicit KKT residual.  ``baseline_step`` is the standard
communication-heavy feedback primal-dual controller used as the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feeder import LinearVoltageModel
from .powerflow import env_voltage
from .scenario import ScenarioStep, cost_grad, cost_value, project_box


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


def _nnls(E: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, int]:
    """Lawson-Hanson active set for min ||E u - f|| over u >= 0; returns (u, additions)."""
    m = E.shape[1]
    tol = 10.0 * np.finfo(float).eps * np.abs(E).sum(axis=0).max() * max(E.shape)
    u = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    for additions in range(3 * m + 1):  # finite; the bound only stops a rounding cycle
        grad = np.where(passive, -np.inf, E.T @ (f - E @ u))
        j = int(np.argmax(grad))
        if grad[j] <= tol:
            break
        passive[j] = True
        while True:
            s = np.zeros(m)
            s[passive] = np.linalg.lstsq(E[:, passive], f, rcond=None)[0]
            if np.all(s[passive] > 0.0):
                break
            neg = passive & (s <= 0.0)
            u += np.min(u[neg] / (u[neg] - s[neg])) * (s - u)
            passive &= u > tol
        u = s
    return u, additions


def solve_opf_linear(
    step_data: ScenarioStep,
    model: LinearVoltageModel,
    v_lo: np.ndarray,
    v_hi: np.ndarray,
) -> OpfSolution:
    """Exact optimum as a least-distance program (Lawson & Hanson 1974, ch. 23).

    Coordinates with a degenerate box (``lo == hi``) are fixed at ``lo``.  On
    the free ones ``z = x - floor`` minimizes ``||z||`` subject to ``G z >= h``
    (rows: box-hi, box-lo, voltage-hi, voltage-lo).  With ``u`` the NNLS
    solution of ``[G^T; h^T] u ~ e_last`` and ``r`` its residual,
    ``z = -r[:-1] / r[-1]`` and the row multipliers are ``2w u / -r[-1]``.
    Feasible rows give ``-r[-1] = 1 / (1 + ||z||^2)``; infeasible ones give
    ``r = 0``.  Raises ``RuntimeError`` if the KKT certificate exceeds 1e-8.
    """
    n = model.R.shape[0]
    cost = step_data.cost
    lo, hi = step_data.box.lo, step_data.box.hi
    v_env = env_voltage(model, step_data.p_u, step_data.q_u)
    A = model.A

    free = lo < hi
    x0 = np.where(free, cost.floor, lo)
    v0 = A @ x0 + v_env
    k = int(free.sum())
    G = np.vstack([-np.eye(k), np.eye(k), -A[:, free], A[:, free]])
    h = np.concatenate([(x0 - hi)[free], (lo - x0)[free], v0 - v_hi, v_lo - v0])
    E = np.vstack([G.T, h])
    f = np.append(np.zeros(k), 1.0)
    u, iterations = _nnls(E, f)
    r = E @ u - f
    if not -r[-1] > np.sqrt(np.finfo(float).eps):
        raise InfeasibleError("voltage limits unattainable within the capability boxes")
    x = x0.copy()
    x[free] = np.clip(x0[free] - r[:-1] / r[-1], lo[free], hi[free])
    v = A @ x + v_env
    mu_v = 2.0 * cost.weight * u[2 * k:] / -r[-1]
    mu_hi, mu_lo = mu_v[:n], mu_v[n:]

    grad = cost_grad(cost, x) + A.T @ (mu_hi - mu_lo)
    slack = np.concatenate([v_hi - v, v - v_lo])
    kkt = max(float(np.max(np.abs(x - project_box(x - grad, step_data.box)))),
              float(np.max(-slack, initial=0.0)), float(np.max(np.abs(mu_v * slack))))
    if kkt > 1e-8:
        raise RuntimeError(f"oracle KKT certificate {kkt:.3g} exceeds 1e-8")
    return OpfSolution(
        x_star=x,
        v_star=v,
        objective=cost_value(cost, x[:n], x[n:]),
        kkt_residual=kkt,
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
    """Centralized feedback primal-dual controller state: the setpoint and the voltage duals."""

    x: np.ndarray
    mu_lo: np.ndarray
    mu_hi: np.ndarray
    alpha_b: float
    sigma_b: float


def baseline_step(
    state: BaselineState,
    v_hat: np.ndarray,
    step_data: ScenarioStep,
    model: LinearVoltageModel,
    v_lo: np.ndarray,
    v_hi: np.ndarray,
) -> BaselineState:
    """One comparator update: full-vector dual ascent then projected descent.

    ``v_hat`` is the measurement of ``state.x``: its squared voltages under
    ``step_data``'s injections.  Requires the complete voltage measurement,
    i.e. system-wide communication -- the contrast with the local policy
    controller.  Applying the new setpoint is the caller's part.
    """
    mu_lo = np.maximum(state.mu_lo + state.sigma_b * (v_lo - v_hat), 0.0)
    mu_hi = np.maximum(state.mu_hi + state.sigma_b * (v_hat - v_hi), 0.0)
    grad = cost_grad(step_data.cost, state.x) + model.A.T @ (mu_hi - mu_lo)
    x = project_box(state.x - state.alpha_b * grad, step_data.box)
    return BaselineState(x=x, mu_lo=mu_lo, mu_hi=mu_hi, alpha_b=state.alpha_b,
                         sigma_b=state.sigma_b)
