"""Time-varying load scenarios, quadratic costs, and box capability sets.

The generator produces per-slot uncontrollable injections from a slow trend
(piecewise-linear daily profile) plus per-node Gaussian disturbances, mirroring
how declining solar generation shifts net demand onto controllable resources.

A :class:`Scenario` is a slot table: slot labels ``t`` (T,) and injections
``p_u``/``q_u`` (T, N) with one cost and one box; ``Scenario.steps`` views it
one slot at a time.  Scenarios and trajectories share one long-format CSV
layout, ``t,node,<columns>``, written by :func:`write_slots` and read back
exactly by :func:`read_slots`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import yaml

from .feeder import FeederGraph


@dataclass(frozen=True)
class CostModel:
    """Separable quadratic generation cost.

    f_i(p, q) = weight * ((p_i - p_floor_i)^2 + (q_i - q_floor_i)^2).
    """

    p_floor: np.ndarray
    q_floor: np.ndarray
    weight: float = 1.0
    floor: np.ndarray = field(init=False, repr=False)  # [p_floor; q_floor], stacked once, read-only

    def __post_init__(self):
        floor = np.concatenate([self.p_floor, self.q_floor])
        floor.flags.writeable = False
        object.__setattr__(self, "floor", floor)


def cost_value(cost: CostModel, p: np.ndarray, q: np.ndarray):
    """Cost of each (..., N) row of ``p``, ``q``; a float for a single row.

    Each row's squared norm is a (1, N) @ (N, 1) matmul, which sums exactly
    as the 1-D ``dp @ dp`` does (``np.sum`` and ``einsum`` do not).
    """
    dp = p - cost.p_floor
    dq = q - cost.q_floor
    val = cost.weight * (dp[..., None, :] @ dp[..., :, None]
                         + dq[..., None, :] @ dq[..., :, None])[..., 0, 0]
    return val if val.ndim else float(val)


def cost_grad(cost: CostModel, x: np.ndarray) -> np.ndarray:
    """Gradient 2*weight*(x - floor) of each stacked (..., 2N) row x = [p; q]."""
    return 2.0 * cost.weight * (x - cost.floor)


def convexity_constants(cost: CostModel) -> tuple[float, float]:
    """(m, xi): strong convexity and smoothness of the quadratic family."""
    return 2.0 * cost.weight, 2.0 * cost.weight


@dataclass(frozen=True)
class BoxLimits:
    """Per-node capability box; non-controllable nodes carry degenerate [0, 0].

    The stacked ``lo`` = [p_lo; q_lo] and ``hi`` = [p_hi; q_hi] are built once,
    at construction, as read-only arrays.
    """

    p_lo: np.ndarray
    p_hi: np.ndarray
    q_lo: np.ndarray
    q_hi: np.ndarray

    def __post_init__(self):
        if np.any(self.p_lo > self.p_hi) or np.any(self.q_lo > self.q_hi):
            raise ValueError("box limits must satisfy lo <= hi elementwise")
        for name, parts in (("_lo", (self.p_lo, self.q_lo)), ("_hi", (self.p_hi, self.q_hi))):
            stacked = np.concatenate(parts)
            stacked.flags.writeable = False
            object.__setattr__(self, name, stacked)

    @property
    def lo(self) -> np.ndarray:
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        return self._hi

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


def project_box(x: np.ndarray, box: BoxLimits) -> np.ndarray:
    """Euclidean projection of each (..., 2N) row onto the box: elementwise clamp.

    Two plain ufuncs in ``np.clip``'s order, lower bound first, give its
    bits on signed zeros, NaN and infinities at less per-call overhead.
    """
    return np.minimum(np.maximum(x, box.lo), box.hi)


@dataclass(frozen=True)
class ScenarioStep:
    """One time slot of the moving OPF instance: a row view of a :class:`Scenario`."""

    t: int
    tau: float  # slot length, seconds
    p_u: np.ndarray
    q_u: np.ndarray
    cost: CostModel
    box: BoxLimits


@dataclass(frozen=True)
class Scenario:
    """T slots of uncontrollable injections sharing one cost and one box; row t is slot t."""

    t: np.ndarray  # (T,) slot labels
    p_u: np.ndarray  # (T, N)
    q_u: np.ndarray  # (T, N)
    tau: float  # slot length, seconds
    cost: CostModel
    box: BoxLimits
    seed: int
    provenance: str = ""

    def __post_init__(self):
        if not self.p_u.shape == self.q_u.shape == (len(self.t), len(self.box.p_lo)):
            raise ValueError(f"injections must be (T, N) = ({len(self.t)}, {len(self.box.p_lo)})")

    def __len__(self) -> int:
        return len(self.t)

    @cached_property
    def steps(self) -> tuple[ScenarioStep, ...]:
        """The slots one at a time, for the consumers that take a single slot."""
        return tuple(ScenarioStep(t, self.tau, p_u, q_u, self.cost, self.box)
                     for t, p_u, q_u in zip(self.t.tolist(), self.p_u, self.q_u))


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic load generator.

    Default loads are given in kVA/kVAR and converted to per-unit on the
    feeder base.  ``trend`` is a list of (hour, fraction) breakpoints that is
    linearly interpolated over the horizon.  The Gaussian disturbance at a
    controllable node i is Normal(1, noise_sd)/sqrt(d_def_p_kva[i]).
    """

    controllable: tuple[int, ...]
    d_def_p_kva: np.ndarray  # length N, indexed by bus id - 1
    d_def_q_kva: np.ndarray
    horizon: int
    tau: float = 6.0
    trend: tuple[tuple[float, float], ...] = ((0.0, 0.55), (8.0, 1.0))
    noise_sd: float = 0.1
    joint_noise: bool = True  # one draw per node-slot applied to both p and q
    cost_weight: float = 1.0
    p_cap_kva: float = 500.0
    q_cap_kvar: float = 300.0

    def __post_init__(self):
        if self.horizon < 1 or self.noise_sd < 0.0:
            raise ValueError(f"horizon {self.horizon}, noise_sd {self.noise_sd}: a day needs "
                             "at least one slot and a nonnegative noise_sd")
        if not (self.cost_weight > 0.0 and self.tau > 0.0):
            raise ValueError(f"cost_weight {self.cost_weight}, tau {self.tau}: the cost must be "
                             "strongly convex and a slot must last a positive time")
        if not (self.p_cap_kva >= 0.0 and self.q_cap_kvar >= 0.0):
            raise ValueError(f"p_cap_kva {self.p_cap_kva}, q_cap_kvar {self.q_cap_kvar}: "
                             "a capability cap must be nonnegative")


def trend_curve(breakpoints, horizon: int, tau: float) -> np.ndarray:
    """Piecewise-linear interpolation of (hour, fraction) breakpoints."""
    bp = sorted(breakpoints)
    hours = np.arange(horizon) * tau / 3600.0
    return np.interp(hours, [h for h, _ in bp], [f for _, f in bp])


def generate_profile(graph: FeederGraph, cfg: GeneratorConfig, seed: int) -> Scenario:
    """Build a seed-deterministic synthetic scenario for ``graph``."""
    n = graph.n
    d_p = np.asarray(cfg.d_def_p_kva, dtype=float)
    d_q = np.asarray(cfg.d_def_q_kva, dtype=float)
    if d_p.shape != (n,) or d_q.shape != (n,):
        raise ValueError(f"default loads must have length {n}")
    ctrl = np.array(sorted(cfg.controllable), dtype=int)
    if np.any(ctrl < 1) or np.any(ctrl > n):
        raise ValueError(f"controllable node ids must lie in 1..{n}: {ctrl}")
    ci = ctrl - 1
    if np.any(d_p[ci] <= 0.0):
        bad = ctrl[d_p[ci] <= 0.0]
        raise ValueError(f"zero default load at noisy controllable nodes {bad.tolist()}")

    rng = np.random.default_rng(seed)
    base = graph.base_power
    horizon = cfg.horizon
    kappa_trend = trend_curve(cfg.trend, horizon, cfg.tau)[:, None]

    # Box: controllable nodes get [0, cap]; others are pinned to zero.
    p_hi = np.zeros(n)
    q_hi = np.zeros(n)
    p_hi[ci] = cfg.p_cap_kva / base
    q_hi[ci] = cfg.q_cap_kvar / base
    box = BoxLimits(np.zeros(n), p_hi, np.zeros(n), q_hi)
    cost = CostModel(np.zeros(n), np.zeros(n), weight=cfg.cost_weight)

    # Per slot: the p draw, then (unless joint) the q draw, one value per controllable node.
    draws = rng.normal(1.0, cfg.noise_sd, size=(horizon, 1 if cfg.joint_noise else 2, len(ci)))
    kappa_p = kappa_trend + draws[:, 0] / np.sqrt(d_p[ci])
    kappa_q = kappa_trend + draws[:, -1] / np.sqrt(d_p[ci])
    p_u = np.tile(-d_p / base, (horizon, 1))
    q_u = np.tile(-d_q / base, (horizon, 1))
    p_u[:, ci] = -kappa_p * d_p[ci] / base
    q_u[:, ci] = -kappa_q * d_q[ci] / base
    return Scenario(t=np.arange(horizon), p_u=p_u, q_u=q_u, tau=cfg.tau, cost=cost, box=box,
                    seed=seed, provenance=f"synthetic(seed={seed})")


# ---------------------------------------------------------------------------
# Long-format slot CSV: one row per (slot, node), shared by scenarios and trajectories.

def write_slots(path, t: np.ndarray, columns: dict) -> None:
    """Write ``t,node,<columns>`` rows, slot-major with nodes 1..N.

    Each column is (T, N), one value per node, or (T,), one value per slot
    repeated on the slot's rows.  Floats are written with ``repr``, so they
    read back exactly; lines end in ``\\r\\n``.  Formats one slot at a time.
    """
    n = next(c.shape[1] for c in columns.values() if c.ndim == 2)
    nodes = [str(i) for i in range(1, n + 1)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["t", "node", *columns]) + "\r\n")
        for ti, label in enumerate(t.astype(int).tolist()):
            cells = [map(repr, c[ti].tolist()) if c.ndim == 2 else [repr(c[ti].item())] * n
                     for c in columns.values()]
            fh.write("".join(f"{label},{row}\r\n" for row in map(",".join, zip(nodes, *cells))))


def read_slots(path) -> tuple[np.ndarray, dict]:
    """Slot labels (T,) and every further column as a (T, N) array, from :func:`write_slots`.

    Raises ValueError unless the rows form a slot-major grid: each slot lists
    nodes 1..N in order, and the integer slot labels increase.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header[:2] != ["t", "node"] or data.shape[1:] != (len(header),) or not len(data):
        raise ValueError(f"{path}: expected a header starting t,node and one value per "
                         f"column on every row, got {header} and {data.shape[1:]} values")
    t, node = data[:, 0], data[:, 1]
    n = int(np.argmax(t != t[0])) or len(t)
    horizon = len(t) // n
    slots = t[::n].astype(int)
    if not (horizon * n == len(t) and np.array_equal(node, np.tile(np.arange(1, n + 1), horizon))
            and np.array_equal(t, np.repeat(slots, n)) and np.all(np.diff(slots) > 0)):
        raise ValueError(f"{path}: rows must list nodes 1..N in order for each slot, "
                         "with increasing integer slot labels")
    cols = np.ascontiguousarray(data[:, 2:].T).reshape(-1, horizon, n)
    return slots, dict(zip(header[2:], cols))


_BOX_KEYS = ("p_lo", "p_hi", "q_lo", "q_hi")  # BoxLimits fields, in order


def save_scenario(scn: Scenario, csv_path, sidecar_path) -> None:
    """Injections as a ``t,node,p_u,q_u`` CSV; horizon, slot length, seed, cost and box in YAML."""
    write_slots(csv_path, scn.t, {"p_u": scn.p_u, "q_u": scn.q_u})
    sidecar = {
        "horizon": len(scn),
        "tau": scn.tau,
        "seed": scn.seed,
        "provenance": scn.provenance,
        "cost_weight": scn.cost.weight,
        **{key: getattr(scn.box, key).tolist() for key in _BOX_KEYS},
    }
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(sidecar, fh, sort_keys=True)


def load_scenario(csv_path, sidecar_path) -> Scenario:
    """Inverse of :func:`save_scenario`; raises ValueError if the CSV disagrees with the sidecar."""
    with open(sidecar_path, encoding="utf-8") as fh:
        side = yaml.safe_load(fh)
    box = BoxLimits(*(np.array(side[key], dtype=float) for key in _BOX_KEYS))
    n = len(box.p_lo)
    cost = CostModel(np.zeros(n), np.zeros(n), weight=float(side["cost_weight"]))
    t, cols = read_slots(csv_path)
    if len(t) != int(side["horizon"]):
        raise ValueError(f"{csv_path} holds {len(t)} slots; {sidecar_path} says {side['horizon']}")
    return Scenario(t=t, p_u=cols["p_u"], q_u=cols["q_u"], tau=float(side["tau"]), cost=cost,
                    box=box, seed=int(side["seed"]), provenance=str(side.get("provenance", "")))
