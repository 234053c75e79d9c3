"""Branch-flow power flow on radial feeders.

``solve_nonlinear`` runs a backward/forward sweep on the exact branch flow
equations in matrix form (BIBC/BCBV, Teng 2003): with the line losses held
from the previous pass a sweep is affine in them, so each sweep is one
product with the feeder's derived matrix ``FeederGraph.W``.  It solves one
injection row or a batch of ``(..., N)`` rows at once and returns squared
voltage magnitudes in per-unit^2.  ``env_voltage`` is the uncontrolled part
of the LinDistFlow surrogate; ``controller.plant_voltage`` adds the
setpoints' part and is the one entry point to either plant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feeder import FeederGraph, LinearVoltageModel


SWEEP_TOL = 1e-10  # default stop rule: every row moved less than this on the last sweep
SWEEP_MAX_ITERS = 500  # sweeps before a solve gives up as not converged


class VoltageCollapseError(RuntimeError):
    """Raised when the sweep drives a squared voltage nonpositive."""


@dataclass(frozen=True)
class InjectionState:
    """Controllable (p, q) and uncontrollable (p_u, q_u) injections, per-unit.

    Loads enter as negative injections.  The four arrays share one shape,
    ``(N,)`` for one operating point or ``(..., N)`` for a batch of rows.
    """

    p: np.ndarray
    q: np.ndarray
    p_u: np.ndarray
    q_u: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.p)
        if not shape:
            raise ValueError("injections must have at least one dimension")
        names = ("p", "q", "p_u", "q_u")
        vecs = [np.asarray(getattr(self, name), dtype=float) for name in names]
        for name, vec in zip(names, vecs):
            if vec.shape != shape:
                raise ValueError(f"{name} has shape {vec.shape}, expected {shape}")
            object.__setattr__(self, name, vec)
        if not np.isfinite(vecs).all():  # one pass over all four; then name the first bad one
            bad = next(name for name, vec in zip(names, vecs) if not np.isfinite(vec).all())
            raise ValueError(f"{bad} contains non-finite entries")


@dataclass(frozen=True)
class PowerFlowSolution:
    """Sweep result; arrays have the injections' shape, with a batch's rows first.

    A solution can seed a later sweep through ``solve_nonlinear(...,
    start=sol)``, which begins from its ``v`` and ``ell``.
    """

    v: np.ndarray  # squared voltage magnitudes, per bus 1..N
    P: np.ndarray  # sending-end active power, per line (indexed by child bus - 1)
    Q: np.ndarray
    ell: np.ndarray  # squared current magnitudes per line
    iterations: int  # sweeps run, shared by every row of a batch
    converged: bool  # every row moved less than tol on the last sweep


def solve_nonlinear(
    graph: FeederGraph,
    s: InjectionState,
    v0: float,
    tol: float = SWEEP_TOL,
    start: PowerFlowSolution | None = None,
) -> PowerFlowSolution:
    """Backward/forward sweep fixed point of the branch flow equations.

    The backward pass sums each line's downstream injections and r*ell /
    x*ell losses (ell frozen from the previous pass); the forward pass
    subtracts the line drops along each root path from the slack voltage;
    ell is then refreshed from the sending-end voltage.  Both passes are one
    product per sweep: the flows P, Q, the voltages v and the sending-end
    voltages are ``ell @ graph.W + b``, where ``b``, the injections' part
    through ``graph.B`` plus ``v0``, is formed once per call.
    Starts lossless (ell = 0, v = v0) unless ``start``, an earlier solution
    whose ``v`` and ``ell`` have the injections' shape, is given; the sweep
    then begins from them, which saves sweeps when the injections are close
    to those ``start`` solved; a start of another shape raises ValueError.
    The stop rule is the same either way: a batch sweeps until every row
    moved less than ``tol``.  A lossless
    start never stops after its first pass: that pass runs on the guess
    ell = 0, and its voltages match the start's exactly when every line's
    r*P + x*Q is zero.
    """
    if v0 <= 0:
        raise ValueError("v0 must be positive")
    n, W = graph.n, graph.W
    b = -np.concatenate([s.p + s.p_u, s.q + s.q_u], axis=-1) @ graph.B
    b[..., 2 * n:] += v0  # the slack voltage on the v and v_send blocks
    shape = s.p.shape
    v = np.full(shape, float(v0))
    P = Q = ell = np.zeros(shape)
    if start is not None:
        if not np.shape(start.v) == np.shape(start.ell) == shape:
            raise ValueError(f"start of shape {np.shape(start.v)} does not match the "
                             f"injections' shape {shape}")
        v, ell = start.v, start.ell
    converged = False
    iterations = 0
    for iterations in range(1, SWEEP_MAX_ITERS + 1):
        out = ell @ W + b  # [P | Q | v | v_send] with this pass's ell held
        v_new = out[..., 2 * n:3 * n]
        if v_new.min() <= 0.0:
            bus = np.argwhere(v_new <= 0.0)[0][-1] + 1
            raise VoltageCollapseError(f"voltage collapse at bus {bus} on iteration {iterations}")
        P, Q = out[..., :n], out[..., n:2 * n]
        ell = (P * P + Q * Q) / out[..., 3 * n:]  # squared currents from the sending-end voltage
        delta = np.abs(v_new - v).max()
        v = v_new
        if delta < tol and (iterations > 1 or start is not None):
            converged = True
            break
    return PowerFlowSolution(v=v, P=P, Q=Q, ell=ell, iterations=iterations, converged=converged)


def residual(
    graph: FeederGraph, s: InjectionState, sol: PowerFlowSolution, v0: float
) -> float:
    """Max-abs violation of the four branch flow equation families over all (..., N) rows.

    Evaluated from scratch on the supplied solution from ``graph.parent``,
    ``r`` and ``x`` alone: each line's flow sums its children's through a
    child-incidence product and its sending-end voltage is read through
    ``parent``, so the check is independent of the sweep's ``path`` products.
    """
    up, r, x = graph.parent, graph.r, graph.x
    P, Q, v, ell = sol.P, sol.Q, sol.v, sol.ell
    fed = np.flatnonzero(up)  # lines whose sending end is a non-root bus
    kids = np.zeros((graph.n, graph.n))  # kids[k, j] = 1 when bus k+1 hangs off bus j+1
    kids[fed, up[fed] - 1] = 1.0
    v_up = np.concatenate([np.full((*v.shape[:-1], 1), float(v0)), v], axis=-1)[..., up]
    gaps = (
        P - (-(s.p + s.p_u) + P @ kids + r * ell),
        Q - (-(s.q + s.q_u) + Q @ kids + x * ell),
        v - (v_up - 2.0 * (r * P + x * Q) + (r * r + x * x) * ell),
        ell * v_up - (P * P + Q * Q),
    )
    return float(max(np.abs(gap).max() for gap in gaps))


def env_voltage(model: LinearVoltageModel, p_u: np.ndarray, q_u: np.ndarray) -> np.ndarray:
    """Uncontrolled LinDistFlow voltages v0*1 + R p_u + X q_u of each (..., N) injection row.

    On a 1-D row ``p_u @ R.T`` makes the same BLAS call as ``R @ p_u``, so
    both forms give the same bits.
    """
    return model.v0 + p_u @ model.R.T + q_u @ model.X.T
