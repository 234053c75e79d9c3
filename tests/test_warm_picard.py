"""Warm-started power flow inside the nonlinear Picard solve.

Each Picard iteration's sweep starts from the previous iterate's solution and
stops at a fraction of the previous Picard step.  ``cold_picard`` is the loop
without either: every plant call is a cold sweep to full precision.  It is the
reference for the equilibria the warm solve returns.
"""

import dataclasses

import numpy as np

from localopf import (
    ControllerConfig,
    CostModel,
    TrainerConfig,
    init_policy,
    train,
)
from localopf.controller import plant_voltage, solve_equilibria_batch, solve_equilibrium
from localopf.policy import forward_all, output
from conftest import make_step, train_scenario

ALPHA = 0.48
EQ_TOL = 1e-9


def cold_picard_step(x, p_u, q_u, offset, gain, cost, box, model, graph):
    """One Picard step of every row on a cold, full-precision nonlinear plant call."""
    v = plant_voltage(x, p_u, q_u, model, graph, "nonlinear")
    return np.clip(x - ALPHA * (2.0 * cost.weight * (x - cost.floor) + output(gain, offset, v)),
                   box.lo, box.hi)


def cold_picard(x, p_u, q_u, offset, gain, cost, box, model, graph, max_iters=2000):
    """Picard loop with a cold plant call per iteration; stops once every row moves < EQ_TOL."""
    for _ in range(max_iters):
        x_new = cold_picard_step(x, p_u, q_u, offset, gain, cost, box, model, graph)
        gap = np.linalg.norm(x_new - x, axis=1)
        x = x_new
        if np.max(gap) < EQ_TOL:
            return x
    raise AssertionError("reference Picard loop did not converge")


def _rows_problem(graph, rows=32, seed=21):
    """``rows`` load rows sharing one slot's cost (floor mid-box) and box, and a policy."""
    rng = np.random.default_rng(seed)
    n = graph.n
    stp = make_step(n, np.zeros(n), np.zeros(n), [3, 5, 7], p_cap=0.4, q_cap=0.3)
    cost = CostModel(0.5 * stp.box.p_hi, 0.5 * stp.box.q_hi)
    p_u = -rng.uniform(0.002, 0.05, (rows, n))
    q_u = -rng.uniform(0.001, 0.03, (rows, n))
    pol = init_policy(graph, [3, 5, 7], arch=(1, 6), k_max=0.2, seed=5)
    pol.k[:] = rng.uniform(0.05, 0.2, pol.n_channels)
    return p_u, q_u, cost, stp.box, pol


def _zo_config():
    return TrainerConfig(mode="gradient_free", epochs=2, batch_size=8, v_lo=0.9604, v_hi=1.0816)


def test_warm_equilibria_match_cold_picard(graph8, model8):
    p_u, q_u, cost, box, pol = _rows_problem(graph8)
    offset = forward_all(pol, p_u, q_u)
    cfg = ControllerConfig(alpha=ALPHA, plant="nonlinear", eq_tol=EQ_TOL)
    x, v, conv, _ = solve_equilibria_batch(p_u, q_u, offset, cost, box, pol, model8, graph8, cfg)
    assert conv.all()
    np.testing.assert_allclose(v, plant_voltage(x, p_u, q_u, model8, graph8, "nonlinear"),
                               rtol=0.0, atol=1e-10)
    moved = cold_picard_step(x, p_u, q_u, offset, pol.gain, cost, box, model8, graph8) - x
    assert np.max(np.linalg.norm(moved, axis=1)) < EQ_TOL
    ref = cold_picard(np.tile(box.midpoint, (len(p_u), 1)), p_u, q_u, offset, pol.gain, cost,
                      box, model8, graph8)
    np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-8)


def test_single_equilibrium_matches_cold_picard(graph8, model8):
    p_u, q_u, cost, box, pol = _rows_problem(graph8, rows=1)
    stp = dataclasses.replace(make_step(graph8.n, p_u[0], q_u[0], [3, 5, 7]), cost=cost, box=box)
    eq = solve_equilibrium(stp, pol, model8, graph8,
                           ControllerConfig(alpha=ALPHA, plant="nonlinear", eq_tol=EQ_TOL))
    assert eq.converged
    ref = cold_picard(box.midpoint[None], p_u, q_u, forward_all(pol, p_u, q_u), pol.gain, cost,
                      box, model8, graph8)
    np.testing.assert_allclose(eq.x_dag, ref[0], rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(
        eq.v_dag, plant_voltage(eq.x_dag, stp.p_u, stp.q_u, model8, graph8, "nonlinear"),
        rtol=0.0, atol=1e-10)


def test_picard_plant_calls_sweep_few_times(graph8, model8, monkeypatch):
    """Counter guard: warm Picard plant calls average at most 5 sweeps (about 8 when cold)."""
    from localopf import controller

    calls, sweeps, warm = [0], [0], [0]
    solve = controller.solve_nonlinear

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        calls[0] += 1
        sweeps[0] += sol.iterations
        warm[0] += kwargs.get("start") is not None
        return sol

    monkeypatch.setattr(controller, "solve_nonlinear", counted)
    train(train_scenario(graph8, horizon=20), _zo_config(), graph8, model8)
    assert calls[0] > 0 and warm[0] > calls[0] // 2
    assert sweeps[0] / calls[0] <= 5.0


def test_gradient_free_training_is_deterministic_in_process(graph8, model8):
    """No warm state leaks from one solve, or one training run, into the next."""
    scn = train_scenario(graph8, horizon=20)
    first, log_first = train(scn, _zo_config(), graph8, model8)
    second, log_second = train(scn, _zo_config(), graph8, model8)
    np.testing.assert_array_equal(first.policy.theta, second.policy.theta)
    assert log_first == log_second

    p_u, q_u, cost, box, pol = _rows_problem(graph8, rows=8)
    offset = forward_all(pol, p_u, q_u)
    cfg = ControllerConfig(alpha=ALPHA, plant="nonlinear", eq_tol=EQ_TOL)
    a = solve_equilibria_batch(p_u, q_u, offset, cost, box, pol, model8, graph8, cfg)
    b = solve_equilibria_batch(p_u, q_u, offset, cost, box, pol, model8, graph8, cfg)
    for got, want in zip(a[:3], b[:3]):
        np.testing.assert_array_equal(got, want)
    assert a[3] == b[3]
