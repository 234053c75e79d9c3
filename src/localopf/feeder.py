"""Radial feeder topology and LinDistFlow voltage sensitivity matrices.

A feeder is a tree rooted at bus 0 (the substation).  All electrical
quantities inside the package are per-unit on the feeder's power base;
the file loader converts ohmic line data when a voltage base is given.
A ``FeederGraph`` holds the tree once, as each non-root bus's ``parent``
and the ``r``, ``x`` of the line feeding it, in read-only copies.  The
root-path incidence ``FeederGraph.path`` is derived from ``parent`` once, and
the sensitivities are products with it.  The branch-flow sweep's matrices
``W`` and ``B`` are derived from it once too, so that each sweep is one
product with ``W``; the power-flow residual reads ``parent`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

POWER_ITER_TOL, POWER_ITER_MAX = 1e-12, 10000  # spectral_norm's relative stop rule, its cap


class FeederError(ValueError):
    """Raised for malformed feeder files or non-tree topologies."""


@dataclass(frozen=True)
class Line:
    """One series branch as a feeder file lists it: either endpoint first, per-unit impedance."""

    from_bus: int
    to_bus: int
    r: float  # per-unit
    x: float  # per-unit

    def __post_init__(self):
        if not (0.0 < self.r < math.inf and 0.0 < self.x < math.inf):
            raise FeederError(
                f"impedance of line {self.from_bus}->{self.to_bus} must be finite and "
                f"strictly positive (r={self.r}, x={self.x})"
            )


@dataclass(frozen=True, eq=False)
class FeederGraph:
    """Radial network as read-only arrays indexed by non-root bus.

    Bus ``j`` (1..N) hangs off bus ``parent[j-1]`` (0 is the substation)
    through the line of per-unit impedance ``r[j-1] + i x[j-1]``; line ``l``
    is the one feeding bus ``l+1``.  ``build_graph`` makes one from a line
    list; a ``parent`` whose walk from some bus misses bus 0 raises
    :class:`FeederError`.  The graph keeps its own copies of ``parent``,
    ``r`` and ``x``.  Derived once here, and not settable:
    ``path[l, j]`` is 1 when line ``l`` lies on the root path of bus ``j+1``,
    else 0; ``W`` (N, 4N) and ``B`` (2N, 4N) are one branch-flow sweep as an
    affine map of the line losses ``ell`` held from the previous pass.  The
    sweep's line flows ``P``, ``Q``, bus voltages ``v`` and sending-end
    voltages ``v_send`` (``v_send[l]`` is the voltage at the bus feeding line
    ``l``, the slack voltage ``v0`` for the lines the slack bus feeds) are
    ``[P | Q | v - v0 | v_send - v0] = ell @ W + [-(p+p_u) | -(q+q_u)] @ B``.
    """

    parent: np.ndarray  # (N,) int
    r: np.ndarray  # (N,)
    x: np.ndarray  # (N,)
    base_power: float  # kVA
    v0: float = 1.0  # squared slack voltage, per-unit^2
    path: np.ndarray = field(init=False, repr=False)  # (N, N) incidence
    W: np.ndarray = field(init=False, repr=False)  # (N, 4N): ell -> [P | Q | v | v_send]
    B: np.ndarray = field(init=False, repr=False)  # (2N, 4N): injections -> the same blocks

    def __post_init__(self):
        up = np.array(self.parent)
        r, x = np.array(self.r, dtype=float), np.array(self.x, dtype=float)
        n = len(up)
        # walk each bus's parents to the root; a tree's root paths hold fewer than n*n
        # lines in all, so a walk still going past that is in a cycle
        walk, rows, cols = up.tolist(), [], []
        for j in range(1, n + 1):
            bus = j
            while 0 < bus <= n and len(rows) < n * n:
                rows.append(bus - 1)
                cols.append(j - 1)
                bus = walk[bus - 1]
            if bus != 0:
                raise FeederError(f"bus {j} does not reach the root through parent")
        path = np.zeros((n, n))
        path[rows, cols] = 1.0
        # rows [-(p+p_u) | -(q+q_u) | ell] -> columns [P | Q | v - v0 | v_send - v0]:
        # each line's flow sums its downstream injections and r*ell, x*ell losses, and
        # each bus's voltage drops by 2(r P + x Q) - (r² + x²) ell along its root path
        flows = np.zeros((3 * n, 2 * n))
        flows[:n, :n] = flows[n:2 * n, n:] = path.T
        flows[2 * n:, :n], flows[2 * n:, n:] = r[:, None] * path.T, x[:, None] * path.T
        volts = flows @ np.vstack([-2.0 * r[:, None] * path, -2.0 * x[:, None] * path])
        volts[2 * n:] += (r * r + x * x)[:, None] * path
        sweep = np.hstack([flows, volts, volts[:, np.maximum(up - 1, 0)] * (up != 0)])
        for name, value in (("parent", up), ("r", r), ("x", x), ("path", path),
                            ("W", sweep[2 * n:]), ("B", sweep[:2 * n])):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        """Number of non-root buses."""
        return len(self.parent)


def build_graph(n_buses, lines, base_power, v0=1.0) -> FeederGraph:
    """Orient and validate the lines of buses ``0..n_buses-1`` into a FeederGraph.

    Input lines may list either endpoint first; a breadth-first pass from the
    root fixes the parent->child direction and takes each bus's ``parent``,
    ``r`` and ``x`` from the line that reaches it.  Raises
    :class:`FeederError` on a line count other than ``n_buses - 1``, an
    unknown bus, a duplicate line, a self-loop, a cycle or a disconnected bus.
    """
    n = n_buses - 1
    if len(lines) != n:
        raise FeederError(f"expected {n} lines for {n_buses} buses, got {len(lines)}")

    adj: list[list[Line]] = [[] for _ in range(n_buses)]
    seen = set()
    for ln in lines:
        for end in (ln.from_bus, ln.to_bus):
            if not 0 <= end < n_buses:
                raise FeederError(f"line references unknown bus {end}")
        key = (min(ln.from_bus, ln.to_bus), max(ln.from_bus, ln.to_bus))
        if key in seen:
            raise FeederError(f"duplicate line between buses {key[0]} and {key[1]}")
        if ln.from_bus == ln.to_bus:
            raise FeederError(f"self-loop at bus {ln.from_bus}")
        seen.add(key)
        adj[ln.from_bus].append(ln)
        adj[ln.to_bus].append(ln)

    # BFS orientation from the root; with |lines| == n, revisiting a bus
    # means a cycle and unvisited buses mean disconnection.
    parent, r, x = [-1] * n, [0.0] * n, [0.0] * n
    visited, queue = {0}, [0]
    while queue:
        u = queue.pop(0)
        for ln in adj[u]:
            w = ln.to_bus if ln.from_bus == u else ln.from_bus
            if w in visited:
                if u == 0 or parent[u - 1] != w:
                    raise FeederError(f"cycle detected through bus {w}")
                continue
            visited.add(w)
            parent[w - 1], r[w - 1], x[w - 1] = u, ln.r, ln.x
            queue.append(w)
    if len(visited) != n_buses:
        missing = sorted(set(range(n_buses)) - visited)
        raise FeederError(f"disconnected buses {missing}")
    return FeederGraph(np.array(parent), np.array(r), np.array(x), float(base_power), float(v0))


HEADER_KEYS = ("buses", "base_kva", "v0", "base_kv")  # base_kv is optional


def load_feeder(path) -> FeederGraph:
    """Parse a feeder text file.

    Format (UTF-8, ``#`` comments and blank lines ignored)::

        buses: N, base_kva: B, v0: V [, base_kv: K]
        line,<from>,<to>,<r>,<x>,<ohm|pu>

    The header names each key at most once and no other key; ``N`` is an
    integer of at least 2 and ``B``, ``V`` and ``K`` are finite and positive.
    Ohmic impedances require ``base_kv`` and are converted to per-unit on
    (base_kva, base_kv); every impedance must be finite and positive.  Each
    malformed line raises :class:`FeederError` naming its file line; the
    topology is then checked by :func:`build_graph`.
    """
    with open(path, encoding="utf-8") as fh:
        texts = [(lineno, text) for lineno, raw in enumerate(fh, start=1)
                 if (text := raw.split("#", 1)[0].strip())]
    if not texts:
        raise FeederError(f"{path}: empty feeder file")
    n_buses, base_kva, v0, base_kv = _parse_header(*texts[0])
    z_base = None if base_kv is None else (base_kv * 1e3) ** 2 / (base_kva * 1e3)  # ohm

    lines = []
    for lineno, text in texts[1:]:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 6 or parts[0] != "line":
            raise FeederError(f"line {lineno}: expected 'line,from,to,r,x,units'")
        units = parts[5]
        if units not in ("ohm", "pu"):
            raise FeederError(f"line {lineno}: unknown units '{units}'")
        if units == "ohm" and z_base is None:
            raise FeederError(f"line {lineno}: ohmic data but no base_kv in header")
        scale = z_base if units == "ohm" else 1.0
        try:
            lines.append(Line(int(parts[1]), int(parts[2]),
                              float(parts[3]) / scale, float(parts[4]) / scale))
        except ValueError as exc:  # a number that does not parse, or Line's impedance check
            raise FeederError(f"line {lineno}: {exc}") from exc
    return build_graph(n_buses, lines, base_kva, v0)


def _parse_header(lineno, text):
    fields = {}
    for chunk in text.split(","):
        if ":" not in chunk:
            raise FeederError(f"line {lineno}: malformed header field '{chunk}'")
        key, val = (part.strip() for part in chunk.split(":", 1))
        if key not in HEADER_KEYS:
            raise FeederError(f"line {lineno}: unknown header key '{key}' "
                              f"(known: {', '.join(HEADER_KEYS)})")
        if key in fields:
            raise FeederError(f"line {lineno}: header key '{key}' given twice")
        fields[key] = val
    try:
        n_buses = int(fields["buses"])
        base_kva, v0 = float(fields["base_kva"]), float(fields["v0"])
        base_kv = float(fields["base_kv"]) if "base_kv" in fields else None
    except (KeyError, ValueError) as exc:
        raise FeederError(f"line {lineno}: bad header ({exc})") from exc
    if n_buses < 2:
        raise FeederError(f"line {lineno}: need at least 2 buses")
    for key, val in (("base_kva", base_kva), ("v0", v0), ("base_kv", base_kv)):
        if val is not None and not 0.0 < val < math.inf:
            raise FeederError(f"line {lineno}: {key} must be finite and positive, got {val}")
    return n_buses, base_kva, v0, base_kv


@dataclass(frozen=True)
class LinearVoltageModel:
    """LinDistFlow surrogate v = R p + X q + v_env.

    ``A = [R X]`` stacks the sensitivities of the squared voltages to the
    controllable injections; ``a_norm`` caches its spectral norm.
    """

    R: np.ndarray
    X: np.ndarray
    A: np.ndarray
    v0: float
    a_norm: float


def build_sensitivities(graph: FeederGraph) -> LinearVoltageModel:
    """Assemble R, X from the 2x common-root-path impedance sums.

    ``R[i][j]`` is twice the total resistance on the shared portion of the
    root paths of buses i+1 and j+1, i.e. ``path.T @ diag(2r) @ path``; X
    likewise with reactances.  The slack voltage ``v0`` is the feeder's.
    """
    path = graph.path
    R = (path.T * (2.0 * graph.r)) @ path
    X = (path.T * (2.0 * graph.x)) @ path
    A = np.hstack([R, X])
    return LinearVoltageModel(R=R, X=X, A=A, v0=float(graph.v0), a_norm=spectral_norm(A))


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value by power iteration on A^T A.

    Deterministic all-ones start; iterates until the Rayleigh estimate moves
    by at most ``POWER_ITER_TOL`` relative, so the result is reproducible.
    """
    m = A.T @ A
    v = np.ones(m.shape[0])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(POWER_ITER_MAX):
        w = m @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_est = float(v @ (m @ v))
        if abs(new_est - est) <= POWER_ITER_TOL * max(new_est, 1.0):
            est = new_est
            break
        est = new_est
    return float(np.sqrt(est))
