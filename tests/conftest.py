"""Shared fixtures: shipped feeders, root-path walks and small synthetic scenarios."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from localopf import (
    Batch,
    BoxLimits,
    CostModel,
    GeneratorConfig,
    ScenarioStep,
    build_sensitivities,
    generate_profile,
    load_feeder,
    solve_equilibrium,
)
from localopf.feeder import Line
from localopf.policy import forward_all

DATA = Path(__file__).resolve().parents[1] / "src" / "localopf" / "data"


@pytest.fixture(scope="session")
def graph8():
    return load_feeder(DATA / "feeder_8bus.txt")


@pytest.fixture(scope="session")
def graph37():
    return load_feeder(DATA / "feeder_37bus.txt")


@pytest.fixture(scope="session")
def model8(graph8):
    return build_sensitivities(graph8)


@pytest.fixture(scope="session")
def model37(graph37):
    return build_sensitivities(graph37)


def path_to_root(graph, node):
    """Ordered line sequence from ``node`` up to the root (empty for node 0)."""
    lines = []
    while node != 0:
        up = int(graph.parent[node - 1])
        lines.append(Line(up, node, float(graph.r[node - 1]), float(graph.x[node - 1])))
        node = up
    return lines


def parents_first(graph):
    """Non-root buses by root-path length, so each parent comes before its children."""
    return sorted(range(1, graph.n + 1), key=lambda j: len(path_to_root(graph, j)))


def make_step(n, p_u, q_u, ctrl, p_cap=0.5, q_cap=0.3, weight=1.0, t=0):
    """Scenario slot with floor-at-zero quadratic cost and [0, cap] boxes."""
    ci = np.asarray(ctrl, dtype=int) - 1
    p_hi = np.zeros(n)
    q_hi = np.zeros(n)
    p_hi[ci] = p_cap
    q_hi[ci] = q_cap
    return ScenarioStep(
        t=t,
        tau=6.0,
        p_u=np.asarray(p_u, dtype=float),
        q_u=np.asarray(q_u, dtype=float),
        cost=CostModel(np.zeros(n), np.zeros(n), weight=weight),
        box=BoxLimits(np.zeros(n), p_hi, np.zeros(n), q_hi),
    )


def train_scenario(graph, horizon=48, seed=1):
    """Generated training scenario on nodes 3, 5, 7 with the default demand profile."""
    cfg = GeneratorConfig(
        controllable=(3, 5, 7),
        d_def_p_kva=np.full(graph.n, 15.0),
        d_def_q_kva=np.full(graph.n, 9.0),
        horizon=horizon,
        trend=((0.0, 0.55), (0.05, 1.0)),
    )
    return generate_profile(graph, cfg, seed=seed)


def interior_step(graph, rng, t=0):
    """Random slot on nodes 3, 5, 7 whose cost floor sits mid-box, so equilibria are interior."""
    n = graph.n
    stp = make_step(n, -rng.uniform(0.002, 0.02, n), -rng.uniform(0.001, 0.012, n),
                    [3, 5, 7], p_cap=0.4, q_cap=0.3, t=t)
    return dataclasses.replace(stp, cost=CostModel(0.5 * stp.box.p_hi, 0.5 * stp.box.q_hi))


def solved_batch(samples, policy, model, graph, cfg):
    """Training batch of per-sample equilibria; every sample must converge."""
    eqs = [solve_equilibrium(s, policy, model, graph, cfg) for s in samples]
    assert all(e.converged for e in eqs)
    p_u = np.array([s.p_u for s in samples])
    q_u = np.array([s.q_u for s in samples])
    offset, tape = forward_all(policy, p_u, q_u, with_tape=True)
    return Batch(
        p_u=p_u,
        q_u=q_u,
        x=np.array([e.x_dag for e in eqs]),
        v=np.array([e.v_dag for e in eqs]),
        offset=offset,
        tape=tape,
        taped=np.ones(policy.n_channels, dtype=bool),
        cost=samples[0].cost,
        box=samples[0].box,
    )
