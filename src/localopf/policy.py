"""Learnable local feedback policies.

Each controllable node owns two channels (active and reactive): a small ReLU
MLP on the local uncontrollable injection plus a monotone linear gain k on the
local squared voltage.  The voltage path is kept linear so the policy's
Lipschitz constant in v is exactly max(k), which the stability conditions
clamp.  Parameters are stored stacked across channels so batched forward and
backward passes are plain einsums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feeder import FeederGraph


@dataclass
class PolicyParams:
    """Per-node policy parameters, stacked channel-major.

    Channel order: active channels for ``nodes`` in ascending id, then the
    reactive channels in the same order.  ``weights[l]`` has shape
    (C, n_l, n_{l-1}) with C = 2 * len(nodes).
    """

    nodes: tuple[int, ...]
    arch: tuple[int, int]  # (hidden layer count L, width)
    k_max: float
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    k: np.ndarray  # (C,)
    d_scale: np.ndarray  # (C,)
    n_bus: int  # number of non-root buses N

    @property
    def n_channels(self) -> int:
        return 2 * len(self.nodes)

    @property
    def node_index(self) -> np.ndarray:
        """0-based vector indices of the controllable nodes."""
        return np.array(self.nodes, dtype=int) - 1

    def lipschitz_v(self) -> float:
        """Policy Lipschitz constant in v: the voltage path is linear in k."""
        return float(np.max(self.k)) if self.n_channels else 0.0


def compute_k_max(alpha: float, m: float, xi: float, a_norm: float, margin: float = 0.95) -> float:
    """Voltage-gain clamp from the uniqueness condition, with a safety margin.

    Returns margin * (1 - sqrt(1 - 2*alpha*m + alpha^2*xi^2)) / (alpha * ||A||).
    """
    rad = 1.0 - 2.0 * alpha * m + alpha**2 * xi**2
    if rad < 0.0:
        raise ValueError(f"invalid constants: negative radicand {rad}")
    if alpha <= 0.0 or a_norm <= 0.0:
        raise ValueError("alpha and a_norm must be positive")
    return margin * (1.0 - np.sqrt(rad)) / (alpha * a_norm)


def init_policy(
    graph: FeederGraph,
    nodes,
    arch: tuple[int, int] = (3, 64),
    k_max: float = 1.0,
    seed: int = 0,
) -> PolicyParams:
    """Fresh policy: fan-in-scaled symmetric weights, zero biases, k = k_max/2."""
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    nodes = tuple(sorted(int(i) for i in nodes))
    if any(i < 1 or i > graph.n for i in nodes):
        raise ValueError(f"controllable ids must lie in 1..{graph.n}")
    L, width = arch
    dims = [1] + [width] * L + [1]
    C = 2 * len(nodes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for l in range(1, len(dims)):
        fan_in = dims[l - 1]
        weights.append(rng.uniform(-1.0, 1.0, size=(C, dims[l], fan_in)) / np.sqrt(fan_in))
        biases.append(np.zeros((C, dims[l])))
    return PolicyParams(
        nodes=nodes,
        arch=(L, width),
        k_max=float(k_max),
        weights=weights,
        biases=biases,
        k=np.full(C, 0.5 * k_max),
        d_scale=np.ones(C),
        n_bus=graph.n,
    )


def set_input_scale(params: PolicyParams, scenario) -> None:
    """Normalize MLP inputs by the scenario-wide std of the local injection."""
    idx = params.node_index
    p_u = np.array([s.p_u[idx] for s in scenario.steps])
    q_u = np.array([s.q_u[idx] for s in scenario.steps])
    sp = np.std(p_u, axis=0)
    sq = np.std(q_u, axis=0)
    params.d_scale = np.concatenate([np.where(sp > 0, sp, 1.0), np.where(sq > 0, sq, 1.0)])


def enforce_conditions(params: PolicyParams, k_max: float | None = None) -> PolicyParams:
    """Clamp every voltage gain into [0, k_max]; MLP weights untouched.

    Mutates ``params`` in place and returns it.
    """
    if k_max is None:
        k_max = params.k_max
    np.clip(params.k, 0.0, k_max, out=params.k)
    params.k_max = float(k_max)
    return params


# ---------------------------------------------------------------------------
# Stacked forward/backward across all channels, with optional batch dims.

def forward_all(params: PolicyParams, v: np.ndarray, p_u: np.ndarray, q_u: np.ndarray,
                with_tape: bool = False):
    """Policy output for every node, scattered into a length-2N vector.

    ``v``, ``p_u``, ``q_u`` have shape (..., N); returns u of shape (..., 2N)
    with zeros at non-controllable coordinates (their boxes are degenerate).
    Internally the batch is processed channel-major so every layer is a
    BLAS-batched matmul.
    """
    idx = params.node_index
    C = params.n_channels
    v = np.asarray(v, dtype=float)
    batch_shape = v.shape[:-1]
    d = np.concatenate([np.asarray(p_u)[..., idx], np.asarray(q_u)[..., idx]], axis=-1)
    v_sel = np.concatenate([v[..., idx], v[..., idx]], axis=-1)  # (..., C)
    # channel-major (C, S, n) layout
    h = (d / params.d_scale).reshape(-1, C).T[..., None]  # (C, S, 1)
    pre, hs = [], [h]
    n_layers = len(params.weights)
    for l in range(n_layers - 1):
        z = h @ params.weights[l].transpose(0, 2, 1) + params.biases[l][:, None, :]
        pre.append(z)
        h = np.maximum(z, 0.0)
        hs.append(h)
    out = h @ params.weights[-1].transpose(0, 2, 1) + params.biases[-1][:, None, :]
    u_ch = out[:, :, 0].T.reshape(batch_shape + (C,)) + params.k * v_sel
    u = np.zeros(batch_shape + (2 * params.n_bus,))
    nc = len(params.nodes)
    u[..., idx] = u_ch[..., :nc]
    u[..., params.n_bus + idx] = u_ch[..., nc:]
    if not with_tape:
        return u
    tape = {"pre": pre, "hs": hs, "v_sel": v_sel}
    return u, tape


def backward_all(params: PolicyParams, tape, upstream: np.ndarray):
    """Parameter gradients summed over batch dims.

    ``upstream`` has shape (..., C): d(loss)/d(u_c) per channel and sample.
    Returns dict with "weights", "biases" (stacked like the params) and "k".
    """
    C = params.n_channels
    up = np.asarray(upstream, dtype=float).reshape(-1, C)  # (S, C)
    pre, hs = tape["pre"], tape["hs"]  # channel-major (C, S, n)
    v_sel = tape["v_sel"].reshape(-1, C)
    n_layers = len(params.weights)
    dW: list[np.ndarray] = [np.empty(0)] * n_layers
    db: list[np.ndarray] = [np.empty(0)] * n_layers
    delta = up.T[..., None]  # (C, S, 1)
    dW[-1] = delta.transpose(0, 2, 1) @ hs[-1]
    db[-1] = delta.sum(axis=1)
    d_h = delta @ params.weights[-1]  # (C, S, n_L)
    for l in range(n_layers - 2, -1, -1):
        delta = d_h * (pre[l] > 0.0)
        dW[l] = delta.transpose(0, 2, 1) @ hs[l]
        db[l] = delta.sum(axis=1)
        d_h = delta @ params.weights[l]
    dk = (up * v_sel).sum(axis=0)
    return {"weights": dW, "biases": db, "k": dk}


# ---------------------------------------------------------------------------
# Checkpoint round-trip.

_CKPT_VERSION = 1


def save_policy(params: PolicyParams, path) -> None:
    """Binary checkpoint; round-trips bit-exactly."""
    payload = {
        "version": np.array(_CKPT_VERSION),
        "nodes": np.array(params.nodes, dtype=int),
        "arch": np.array(params.arch, dtype=int),
        "k_max": np.array(params.k_max),
        "k": params.k,
        "d_scale": params.d_scale,
        "n_bus": np.array(params.n_bus),
    }
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        payload[f"W{l}"] = w
        payload[f"b{l}"] = b
    np.savez(path, **payload)


def load_policy(path) -> PolicyParams:
    with np.load(path) as data:
        version = int(data["version"])
        if version != _CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        arch = tuple(int(a) for a in data["arch"])
        n_layers = arch[0] + 1
        return PolicyParams(
            nodes=tuple(int(i) for i in data["nodes"]),
            arch=arch,  # type: ignore[arg-type]
            k_max=float(data["k_max"]),
            weights=[data[f"W{l}"].copy() for l in range(n_layers)],
            biases=[data[f"b{l}"].copy() for l in range(n_layers)],
            k=data["k"].copy(),
            d_scale=data["d_scale"].copy(),
            n_bus=int(data["n_bus"]),
        )
