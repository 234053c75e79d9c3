"""Learnable local feedback policies.

Each controllable node owns two channels (active and reactive): a small ReLU
MLP on the local uncontrollable injection plus a monotone linear gain k on the
local squared voltage, kept linear so the Lipschitz constant in v is exactly
max(k).  The output is :func:`output` of ``params.gain``, the MLP term
``forward_all(params, p_u, q_u)`` and v; the MLP term reads only the
injections, so callers run it once per batch.  A forward pass can keep a tape
of its post-activations, from which :func:`backward_all` writes the
parameter gradient into a caller's buffer.  All parameters live in one vector
``theta``, channel-major: channel c's ``W0, b0, ..., W_L, b_L, k`` fill one
contiguous row of its (C, P) reshape.  ``weights``, ``biases`` and ``k`` are
strided views into it, sliced by :func:`param_views` from a layout computed
once per ``PolicyParams``.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field

import numpy as np

from .feeder import FeederGraph


@dataclass
class PolicyParams:
    """Per-node policy parameters, stacked channel-major.

    Channel order: active channels for ``nodes`` in ascending id, then the
    reactive channels in the same order.  ``theta`` is C rows of
    ``row_size`` entries, one per channel, with C = 2 * len(nodes); a row
    holds the channel's every layer's weights then its biases, in layer
    order, then its ``k``.  ``weights[l]`` is a (C, n_l, n_{l-1}) strided
    view into it.
    """

    nodes: tuple[int, ...]
    arch: tuple[int, int]  # (hidden layer count L, width)
    k_max: float
    theta: np.ndarray  # flat parameter vector, laid out as param_views reads it
    d_scale: np.ndarray  # (C,)
    n_bus: int  # number of non-root buses N
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)
    k: np.ndarray = field(init=False, repr=False)  # (C,)
    columns: np.ndarray = field(init=False, repr=False)  # (C,) channel positions in (p, q)
    layout: list = field(init=False, repr=False)  # (start, stop, shape) of each block of a row
    row_size: int = field(init=False, repr=False)  # P, the parameter count of one channel

    def __post_init__(self):
        self.layout, self.row_size = _row_layout(self.arch)
        self.weights, self.biases, self.k = param_views(self, self.theta)
        idx = np.array(self.nodes, dtype=int) - 1
        self.columns = np.concatenate([idx, self.n_bus + idx])

    @property
    def n_channels(self) -> int:
        return 2 * len(self.nodes)

    @property
    def gain(self) -> np.ndarray:
        """(2N,) voltage gains: ``k`` on ``columns``, zero elsewhere."""
        g = np.zeros(2 * self.n_bus)
        g[self.columns] = self.k
        return g

    def lipschitz_v(self) -> float:
        """Policy Lipschitz constant in v: the voltage path is linear in k."""
        return float(np.max(self.k)) if self.n_channels else 0.0


def param_views(params: PolicyParams, flat: np.ndarray):
    """(weights, biases, k) as views into ``flat``, a vector laid out like ``params.theta``.

    ``flat`` is read as (C, P) channel rows, so each per-layer view, such as
    ``weights[l]`` of shape (C, n_l, n_{l-1}), is strided: channel c's block
    is contiguous, but the channels are P entries apart.  ``reshape(-1)`` of
    a view is therefore a copy; write through the view itself.
    """
    C, P = params.n_channels, params.row_size
    if flat.shape != (C * P,):
        raise ValueError(f"parameter vector has shape {flat.shape}, layout needs ({C * P},)")
    rows = flat.reshape(C, P)
    views = [rows[:, a:b].reshape((C,) + s) for a, b, s in params.layout]  # split columns: views
    return views[:-1:2], views[1:-1:2], views[-1]


def _row_layout(arch: tuple[int, int]):
    """(layout, row size P) of one channel's row of ``theta`` under ``arch``."""
    L, width = arch
    dims = [1] + [width] * L + [1]
    shapes = [s for i, o in zip(dims, dims[1:]) for s in ((o, i), (o,))] + [()]
    ends = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
    return [(int(a), int(b), s) for a, b, s in zip(ends, ends[1:], shapes)], int(ends[-1])


def _zero_policy(nodes: tuple[int, ...], arch: tuple[int, int], k_max: float,
                 n_bus: int) -> PolicyParams:
    """A policy whose ``theta`` is all zeros and whose ``d_scale`` is all ones.

    ``np.zeros`` leaves the pages of ``theta`` untouched until a view writes
    them, so the callers fill it layer by layer and no per-layer copy is
    ever held beside it.
    """
    C = 2 * len(nodes)
    return PolicyParams(nodes=nodes, arch=arch, k_max=k_max,
                        theta=np.zeros(C * _row_layout(arch)[1]), d_scale=np.ones(C),
                        n_bus=n_bus)


class StabilityError(ValueError):
    """The policy fails the uniqueness or step-size conditions before training."""


def uniqueness_constants(alpha: float, m: float, xi: float) -> tuple[float, float]:
    """(radicand 1 - 2*alpha*m + alpha^2*xi^2, step-size bound 2m/xi^2) of the uniqueness condition.

    Raises ValueError unless the convexity constants m and xi are positive.
    """
    if not (m > 0.0 and xi > 0.0):
        raise ValueError(f"convexity constants m = {m:g}, xi = {xi:g}: both must be positive")
    return 1.0 - 2.0 * alpha * m + alpha**2 * xi**2, 2.0 * m / xi**2


def compute_k_max(alpha: float, m: float, xi: float, a_norm: float, margin: float = 0.95) -> float:
    """Voltage-gain clamp from the uniqueness condition, with a safety margin.

    Returns margin * (1 - sqrt(1 - 2*alpha*m + alpha^2*xi^2)) / (alpha * ||A||).
    Raises :class:`StabilityError` when alpha is not below the step-size
    bound 2m/xi^2: there the clamp is not positive, so no gain is admissible.
    """
    rad, step_bound = uniqueness_constants(alpha, m, xi)
    if rad < 0.0:
        raise ValueError(f"invalid constants: negative radicand {rad}")
    if alpha <= 0.0 or a_norm <= 0.0:
        raise ValueError("alpha and a_norm must be positive")
    if alpha >= step_bound:
        raise StabilityError(f"step size alpha = {alpha:g} is not below the step-size bound "
                             f"2m/xi^2 = {step_bound:g}")
    return margin * (1.0 - np.sqrt(rad)) / (alpha * a_norm)


def init_policy(
    graph: FeederGraph,
    nodes,
    arch: tuple[int, int] = (3, 64),
    k_max: float = 1.0,
    seed: int = 0,
) -> PolicyParams:
    """Fresh policy: fan-in-scaled symmetric weights, zero biases, k = k_max/2.

    Layer l's weights are ``rng.uniform(-1, 1, (C, n_l, n_{l-1})) /
    sqrt(n_{l-1})``, drawn in layer order from ``default_rng(seed)``.  Each
    draw is divided in place and written through its view into a zero
    ``theta``, so building the policy holds at most one layer's draw beside
    ``theta``.
    """
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    nodes = tuple(sorted(int(i) for i in nodes))
    if any(i < 1 or i > graph.n for i in nodes):
        raise ValueError(f"controllable ids must lie in 1..{graph.n}")
    L, width = arch
    params = _zero_policy(nodes, (L, width), float(k_max), graph.n)
    rng = np.random.default_rng(seed)
    for w in params.weights:  # biases stay zero
        draw = rng.uniform(-1.0, 1.0, size=w.shape)
        w[...] = np.divide(draw, np.sqrt(w.shape[2]), out=draw)
        del draw  # freed before the next layer's draw
    params.k[...] = 0.5 * k_max
    return params


def set_input_scale(params: PolicyParams, p_u: np.ndarray, q_u: np.ndarray) -> None:
    """Normalize MLP inputs by the std of each channel's local injection over the (T, N) rows."""
    # take() gives a C-ordered copy ([:, columns] does not), which fixes np.std's summation order
    d = np.concatenate([p_u, q_u], axis=1).take(params.columns, axis=1)
    sd = np.std(d, axis=0)
    params.d_scale = np.where(sd > 0, sd, 1.0)


def enforce_conditions(params: PolicyParams) -> PolicyParams:
    """Clamp every voltage gain into [0, ``params.k_max``]; MLP weights untouched.

    Mutates ``params`` in place and returns it.
    """
    np.clip(params.k, 0.0, params.k_max, out=params.k)
    return params


# ---------------------------------------------------------------------------
# Stacked forward/backward across all channels, with optional batch dims.

def forward_all(params: PolicyParams, p_u: np.ndarray, q_u: np.ndarray, with_tape: bool = False,
                channels: np.ndarray | None = None, tape_out: list | None = None):
    """MLP term of every channel, scattered into a length-2N vector.

    ``p_u``, ``q_u`` have shape (..., N); returns shape (..., 2N) with each
    channel at its ``params.columns`` entry and zeros at non-controllable
    coordinates (their boxes are degenerate).  :func:`output` adds the
    voltage term.  Internally the batch is processed channel-major so every
    layer is a BLAS-batched matmul; the fan-in-1 first layer is a broadcast
    product.  With ``with_tape`` it also returns the tape: a list of the
    scaled input and every hidden layer's post-activation, channel-major
    (C, S, n), which is all :func:`backward_all` reads.

    ``channels``, a (C,) boolean mask, limits the pass to those channels:
    the others' columns of the result are zero and their hidden-layer tape
    entries hold no meaningful values.  A strict subset gathers its
    channels' weights and biases once per layer and runs one stacked
    product per layer on them, whatever runs of consecutive channels the
    mask holds.  Each layer is made packed in the first rows of its tape
    entry, which needs no further buffer, and moved to its channels' rows at
    the end.  Each channel's product is still its own BLAS call on the same
    layout, so its results are the same, bit for bit, as in a pass over
    every channel, which writes its tape in place.

    ``tape_out``, a caller-owned list of one (C, S, width) buffer per
    hidden layer, receives the hidden layers in place of fresh arrays, so a
    caller that makes many passes of S rows keeps one tape alive; the
    returned tape then holds these buffers.  Buffers of any other shape
    raise ValueError.
    """
    C = params.n_channels
    batch_shape = np.shape(p_u)[:-1]
    d = np.concatenate([p_u, q_u], axis=-1)[..., params.columns]
    # channel-major (C, S, n) layout
    h0 = (d / params.d_scale).reshape(-1, C).T[..., None]  # (C, S, 1)
    S = h0.shape[1]
    every = channels is None or channels.all()
    sel = slice(None) if every else np.flatnonzero(channels)

    def gather(a):  # a layer's (C, ...) weights or biases of the pass's channels
        return a if every else a[sel]

    if tape_out is None:
        tape_out = [np.empty((C, S, w.shape[1])) for w in params.weights[:-1]]
    elif [np.shape(h) for h in tape_out] != [(C, S, w.shape[1]) for w in params.weights[:-1]]:
        raise ValueError(f"tape buffers of shapes {[np.shape(h) for h in tape_out]}, "
                         f"the pass needs {[(C, S, w.shape[1]) for w in params.weights[:-1]]}")
    hs = [h0, *tape_out]
    h = h0[sel]
    for l, w in enumerate(params.weights[:-1]):
        w = gather(w)
        nxt = hs[l + 1][:len(w)]  # a subset's rows stay packed in front until the pass ends
        if l == 0:
            h = np.multiply(h, w[:, None, :, 0], out=nxt)
        else:
            h = np.matmul(h, w.transpose(0, 2, 1), out=nxt)
        h += gather(params.biases[l])[:, None, :]
        np.maximum(h, 0.0, out=h)
    top = np.matmul(h, gather(params.weights[-1]).transpose(0, 2, 1))  # (channels, S, 1)
    top += gather(params.biases[-1])[:, None, :]
    if not every:  # packed row i moves to row sel[i] >= i: last first, none is overwritten unmoved
        rows = list(enumerate(sel.tolist()))[::-1]
        for layer in hs[1:]:
            for i, c in rows:
                layer[c] = layer[i]
    u = np.zeros(batch_shape + (2 * params.n_bus,))
    u[..., params.columns[sel]] = top[:, :, 0].T.reshape(batch_shape + (len(top),))
    return (u, hs) if with_tape else u


def channel_runs(mask: np.ndarray) -> list[slice]:
    """Slices of the runs of consecutive ``True`` entries of a (C,) channel mask."""
    edges = np.flatnonzero(np.diff(np.concatenate([[False], mask, [False]])))
    return [slice(int(a), int(b)) for a, b in edges.reshape(-1, 2)]


def output(gain: np.ndarray, offset: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Policy output on (..., 2N) rows: the MLP term ``offset`` plus ``gain * [v, v]``."""
    return offset + gain * np.concatenate([v, v], axis=-1)


def backward_all(params: PolicyParams, tape, upstream: np.ndarray, v: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Parameter gradient of the policy output, summed over batch dims.

    ``upstream`` has shape (..., C): d(loss)/d(u_c) per channel and sample;
    ``v`` (..., N) holds the squared voltages the gain term read; ``tape`` is
    the forward pass's list of post-activations, whose sign is the ReLU
    mask.  The gradient, laid out like ``params.theta``, is written into
    ``out`` when given (and returned), else into a fresh ``np.zeros``
    vector, whose pages stay untouched until written.

    The layer loop runs only on the live channels, those with a nonzero
    ``upstream`` entry, so the tape is read only for them; with none live it
    does no layer work.  Each run of consecutive live channels works on
    views of the tape, the weights and the gradient, as in
    :func:`forward_all`, so its rows are bit for bit those of a loop over
    every channel.  A dead channel's row is exactly zero, as the full loop
    would make it (every product in it has a zero factor); of its row in
    ``out`` only the output-bias and ``k`` entries are written, so a caller
    reads the live rows alone.
    """
    C = params.n_channels
    up = np.asarray(upstream, dtype=float).reshape(-1, C)  # (S, C)
    v_sel = np.concatenate([v, v], axis=-1)[..., params.columns].reshape(-1, C)
    grad = np.zeros(params.theta.shape) if out is None else out
    live = np.any(up, axis=0)
    dW, db, dk = param_views(params, grad)
    last = len(params.weights) - 1
    for run in channel_runs(live):
        delta = up.T[run, :, None]  # (channels, S, fan-out of layer l)
        for l in range(last, -1, -1):
            np.matmul(delta.transpose(0, 2, 1), tape[l][run], out=dW[l][run])
            if l < last:  # the output bias is summed below over every channel: over
                # fewer channels numpy may add the samples in another order
                np.sum(delta, axis=1, out=db[l][run])
            if l:
                w = params.weights[l][run]
                delta = delta * w[:, 0, None, :] if l == last else delta @ w
                delta *= tape[l][run] > 0.0
    np.sum(up.T[..., None], axis=1, out=db[last])
    np.sum(up * v_sel, axis=0, out=dk)
    return grad


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
    """The policy of a :func:`save_policy` checkpoint.

    Each of the checkpoint's ``W{l}``, ``b{l}``, ``k`` and ``d_scale``
    arrays must have exactly the shape of the policy array it fills, and
    every node id must lie in 1..``n_bus``.  The arrays are read one at a
    time and written through the views of a zero ``theta`` (``d_scale``
    into a fresh vector), so no per-layer copy is kept beside ``theta``.
    A file numpy cannot read as such an archive raises ``ValueError("<path>
    is not a localopf policy checkpoint")``; a missing file raises
    ``FileNotFoundError``.
    """
    try:
        with np.load(path) as data:
            version = int(data["version"])
            if version == _CKPT_VERSION:
                params = _read_checkpoint(data)
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path} is not a localopf policy checkpoint") from exc
    if version != _CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    return params


def _read_checkpoint(data) -> PolicyParams:
    """The policy of an open version-1 checkpoint archive; raises ValueError or KeyError."""
    n_bus = int(data["n_bus"])
    nodes = tuple(int(i) for i in data["nodes"])
    if any(i < 1 or i > n_bus for i in nodes):
        raise ValueError(f"node ids {nodes} do not all lie in 1..{n_bus}")
    arch = tuple(int(a) for a in data["arch"])
    params = _zero_policy(nodes, arch, float(data["k_max"]), n_bus)  # type: ignore[arg-type]
    views = {"k": params.k, "d_scale": params.d_scale}
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        views[f"W{l}"], views[f"b{l}"] = w, b
    for key, view in views.items():
        arr = data[key]
        if arr.shape != view.shape:  # assignment would broadcast it
            raise ValueError(f"{key} has shape {arr.shape}, the policy needs {view.shape}")
        view[...] = arr
        del arr  # freed before the next array is read
    return params
