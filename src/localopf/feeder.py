"""Radial feeder topology and LinDistFlow voltage sensitivity matrices.

A feeder is a tree rooted at bus 0 (the substation).  All electrical
quantities inside the package are per-unit on the feeder's power base;
the file loader converts ohmic line data when a voltage base is given.
The tree's shape reaches the numerics through one matrix, the root-path
incidence ``FeederGraph.path``: the sensitivities and the branch-flow sweep
are both products with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

POWER_ITER_TOL, POWER_ITER_MAX = 1e-12, 10000  # spectral_norm's relative stop rule, its cap


class FeederError(ValueError):
    """Raised for malformed feeder files or non-tree topologies."""


@dataclass(frozen=True)
class Bus:
    id: int
    name: str = ""


@dataclass(frozen=True)
class Line:
    """One series branch, oriented parent (closer to root) -> child."""

    from_bus: int
    to_bus: int
    r: float  # per-unit
    x: float  # per-unit

    def __post_init__(self):
        if not (self.r > 0.0 and self.x > 0.0):
            raise FeederError(
                f"line {self.from_bus}->{self.to_bus}: impedance must be "
                f"strictly positive (r={self.r}, x={self.x})"
            )


@dataclass(frozen=True)
class FeederGraph:
    """Validated radial network.

    Lines are stored parent->child and indexed so that ``lines[j-1]`` is the
    unique line feeding bus ``j``.  ``order`` lists non-root buses so that
    every parent appears before its children.  ``path[l, j]`` is 1 when line
    ``l`` (feeding bus ``l+1``) lies on the root path of bus ``j+1``, else 0.
    ``r``, ``x`` and ``z2`` = r² + x² hold the line impedances indexed like
    ``lines``; ``send[l]`` is the sending-end bus of line ``l`` as a 0-based
    voltage index (0 for the ``root_lines``, which the slack bus feeds).
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    children: dict[int, tuple[int, ...]]
    base_power: float  # kVA
    v0: float = 1.0  # squared slack voltage, per-unit^2
    parent: tuple[int, ...] = field(default=())  # parent[j-1] for bus j
    order: tuple[int, ...] = field(default=())  # root-to-leaf bus order
    path: np.ndarray = field(default=None, repr=False, compare=False)  # (N, N) incidence
    r: np.ndarray = field(default=None, repr=False, compare=False)  # (N,)
    x: np.ndarray = field(default=None, repr=False, compare=False)  # (N,)
    z2: np.ndarray = field(default=None, repr=False, compare=False)  # (N,)
    send: np.ndarray = field(default=None, repr=False, compare=False)  # (N,)
    root_lines: np.ndarray = field(default=None, repr=False, compare=False)  # (N,) bool

    @property
    def n(self) -> int:
        """Number of non-root buses."""
        return len(self.buses) - 1

    def line_to(self, bus: int) -> Line:
        if not 1 <= bus <= self.n:
            raise FeederError(f"unknown non-root bus id {bus}")
        return self.lines[bus - 1]


def build_graph(buses, lines, base_power, v0=1.0) -> FeederGraph:
    """Orient, validate, and freeze a feeder description.

    Input lines may list either endpoint first; an orientation pass from the
    root fixes the parent->child direction.  Raises :class:`FeederError` on
    cycles, disconnected buses, duplicate lines, or bad ids.
    """
    buses = tuple(sorted(buses, key=lambda b: b.id))
    ids = [b.id for b in buses]
    n = len(buses) - 1
    if ids != list(range(n + 1)):
        raise FeederError(f"bus ids must be contiguous 0..{n}, got {ids}")
    if len(lines) != n:
        raise FeederError(f"expected {n} lines for {n + 1} buses, got {len(lines)}")

    adj: dict[int, list[tuple[int, Line]]] = {b.id: [] for b in buses}
    seen = set()
    for ln in lines:
        for end in (ln.from_bus, ln.to_bus):
            if end not in adj:
                raise FeederError(f"line references unknown bus {end}")
        key = (min(ln.from_bus, ln.to_bus), max(ln.from_bus, ln.to_bus))
        if key in seen:
            raise FeederError(f"duplicate line between buses {key[0]} and {key[1]}")
        if ln.from_bus == ln.to_bus:
            raise FeederError(f"self-loop at bus {ln.from_bus}")
        seen.add(key)
        adj[ln.from_bus].append((ln.to_bus, ln))
        adj[ln.to_bus].append((ln.from_bus, ln))

    # BFS orientation from the root; with |lines| == n, revisiting a bus
    # means a cycle and unvisited buses mean disconnection.
    oriented: list[Line | None] = [None] * n
    parent = [-1] * n
    order: list[int] = []
    visited = {0}
    queue = [0]
    children: dict[int, list[int]] = {b.id: [] for b in buses}
    while queue:
        u = queue.pop(0)
        for w, ln in adj[u]:
            if w in visited:
                is_parent_edge = u != 0 and parent[u - 1] == w
                if not is_parent_edge:
                    raise FeederError(f"cycle detected through bus {w}")
                continue
            visited.add(w)
            oriented[w - 1] = Line(u, w, ln.r, ln.x)
            parent[w - 1] = u
            children[u].append(w)
            order.append(w)
            queue.append(w)
    if len(visited) != n + 1:
        missing = sorted(set(ids) - visited)
        raise FeederError(f"disconnected buses {missing}")

    # a bus's root path is its parent's plus the line feeding it
    path = np.zeros((n, n))
    for w in order:
        if parent[w - 1] != 0:
            path[:, w - 1] = path[:, parent[w - 1] - 1]
        path[w - 1, w - 1] = 1.0
    r = np.array([ln.r for ln in oriented])
    x = np.array([ln.x for ln in oriented])
    up = np.array(parent)

    return FeederGraph(
        buses=buses,
        lines=tuple(oriented),  # type: ignore[arg-type]
        children={k: tuple(v) for k, v in children.items()},
        base_power=float(base_power),
        v0=float(v0),
        parent=tuple(parent),
        order=tuple(order),
        path=path,
        r=r,
        x=x,
        z2=r * r + x * x,
        send=np.maximum(up - 1, 0),
        root_lines=up == 0,
    )


def load_feeder(path) -> FeederGraph:
    """Parse a feeder text file.

    Format (UTF-8, ``#`` comments and blank lines ignored)::

        buses: N, base_kva: B, v0: V [, base_kv: K]
        line,<from>,<to>,<r>,<x>,<ohm|pu>

    Ohmic impedances require ``base_kv`` in the header and are converted to
    per-unit on (base_kva, base_kv).
    """
    header = None
    raw_lines = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if header is None:
                header = _parse_header(text, lineno)
                continue
            raw_lines.append((lineno, text))
    if header is None:
        raise FeederError(f"{path}: empty feeder file")
    n_buses, base_kva, v0, base_kv = header

    z_base = None
    if base_kv is not None:
        z_base = (base_kv * 1e3) ** 2 / (base_kva * 1e3)  # ohm

    lines = []
    for lineno, text in raw_lines:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 6 or parts[0] != "line":
            raise FeederError(f"line {lineno}: expected 'line,from,to,r,x,units'")
        try:
            f, t = int(parts[1]), int(parts[2])
            r, x = float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise FeederError(f"line {lineno}: {exc}") from exc
        units = parts[5]
        if units == "ohm":
            if z_base is None:
                raise FeederError(
                    f"line {lineno}: ohmic data but no base_kv in header"
                )
            r, x = r / z_base, x / z_base
        elif units != "pu":
            raise FeederError(f"line {lineno}: unknown units '{units}'")
        if not (r > 0.0 and x > 0.0):
            raise FeederError(
                f"line {lineno}: nonpositive impedance on line {f}->{t}"
            )
        lines.append(Line(f, t, r, x))

    buses = [Bus(i) for i in range(n_buses)]
    return build_graph(buses, lines, base_kva, v0)


def _parse_header(text, lineno):
    fields = {}
    for chunk in text.split(","):
        if ":" not in chunk:
            raise FeederError(f"line {lineno}: malformed header field '{chunk}'")
        key, val = chunk.split(":", 1)
        fields[key.strip()] = val.strip()
    try:
        n_buses = int(fields["buses"])
        base_kva = float(fields["base_kva"])
        v0 = float(fields["v0"])
    except (KeyError, ValueError) as exc:
        raise FeederError(f"line {lineno}: bad header ({exc})") from exc
    base_kv = float(fields["base_kv"]) if "base_kv" in fields else None
    if n_buses < 2:
        raise FeederError(f"line {lineno}: need at least 2 buses")
    return n_buses, base_kva, v0, base_kv


def path_to_root(graph: FeederGraph, node: int) -> list[Line]:
    """Ordered line sequence from ``node`` up to the root (empty for node 0)."""
    if node == 0:
        return []
    if not 1 <= node <= graph.n:
        raise FeederError(f"unknown bus id {node}")
    path = []
    cur = node
    while cur != 0:
        ln = graph.line_to(cur)
        path.append(ln)
        cur = ln.from_bus
    return path


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
