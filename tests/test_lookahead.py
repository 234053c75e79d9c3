"""The operating loop: each slot's record and the next slot's measurement share one
plant call.

``_reference_controller`` and ``_reference_baseline`` are the two-calls-per-slot
loops written out in full: each slot measures the held setpoint under its own
injections, updates, and records the new setpoint in a second call.
"""

import time

import numpy as np
import pytest

import localopf.controller as controller
from localopf import ControllerConfig, generate_profile, init_policy
from localopf.controller import plant_voltage
from localopf.policy import forward_all, output
from localopf.runner import (
    _trajectory,
    day_settings,
    resolve_config,
    run_baseline,
    run_controller,
)
from localopf.scenario import cost_grad, project_box
from conftest import DATA

HORIZON = 24
V_LO, V_HI = 0.9025, 1.1025


def _reference_controller(scenario, policy, model, graph, cfg):
    x = scenario.box.midpoint.copy()
    rows_x, rows_v = [], []
    for s in scenario.steps:
        v_hat = plant_voltage(x, s.p_u, s.q_u, model, graph, cfg.plant)
        u = output(policy.gain, forward_all(policy, s.p_u, s.q_u), v_hat)
        x = project_box(x - cfg.alpha * (cost_grad(s.cost, x) + u), s.box)
        rows_x.append(x)
        rows_v.append(plant_voltage(x, s.p_u, s.q_u, model, graph, cfg.plant))
    return _trajectory(scenario, rows_x, rows_v)


def _reference_baseline(scenario, model, graph, alpha_b, sigma_b):
    n = graph.n
    x = scenario.box.midpoint.copy()
    mu_lo, mu_hi = np.zeros(n), np.zeros(n)
    rows_x, rows_v = [], []
    for s in scenario.steps:
        v_hat = plant_voltage(x, s.p_u, s.q_u, model, graph, "nonlinear")
        mu_lo = np.maximum(mu_lo + sigma_b * (V_LO - v_hat), 0.0)
        mu_hi = np.maximum(mu_hi + sigma_b * (v_hat - V_HI), 0.0)
        grad = 2.0 * s.cost.weight * (x - s.cost.floor) + model.A.T @ (mu_hi - mu_lo)
        x = np.clip(x - alpha_b * grad, s.box.lo, s.box.hi)
        rows_x.append(x)
        rows_v.append(plant_voltage(x, s.p_u, s.q_u, model, graph, "nonlinear"))
    return _trajectory(scenario, rows_x, rows_v)


def _setup(feeder, request):
    """A held-out day of the shipped config, a policy with interior setpoints and the
    comparator gains."""
    graph = request.getfixturevalue(f"graph{feeder}")
    model = request.getfixturevalue(f"model{feeder}")
    cfg, _ = resolve_config(DATA / f"config_{feeder}bus.yaml", [f"scenario.horizon_test={HORIZON}"])
    gen, (seed,) = day_settings(cfg, "test")
    scn = generate_profile(graph, gen, seed)
    nodes = cfg["scenario"]["controllable"]
    pol = init_policy(graph, nodes, arch=(1, 8), k_max=0.5 / model.a_norm, seed=3)
    # a constant MLP term that puts the setpoints about 0.05 pu inside the box
    pol.weights[-1][:] = 0.0
    pol.biases[-1][:, 0] = -pol.k - 0.1
    ctrl_cfg = ControllerConfig(alpha=cfg["trainer"]["alpha"], plant="nonlinear")
    gains = (cfg["baseline"]["alpha_b"], cfg["baseline"]["sigma_b"])
    return graph, model, scn, pol, ctrl_cfg, gains


def _count_plant_calls(monkeypatch):
    calls = []
    solve = controller.solve_nonlinear

    def counting(*args, **kwargs):
        calls.append(args[1].p.shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(controller, "solve_nonlinear", counting)
    return calls


@pytest.mark.parametrize("feeder", ["8", "37"])
def test_run_controller_matches_two_call_reference(feeder, request, monkeypatch):
    graph, model, scn, pol, cfg, _ = _setup(feeder, request)
    want = _reference_controller(scn, pol, model, graph, cfg)
    calls = _count_plant_calls(monkeypatch)
    got, _ = run_controller(scn, pol, model, graph, cfg)
    assert len(calls) == HORIZON + 1
    assert calls.count((2, graph.n)) == HORIZON - 1
    np.testing.assert_allclose(got.x, want.x, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(got.v, want.v, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("feeder", ["8", "37"])
def test_run_baseline_matches_two_call_reference(feeder, request, monkeypatch):
    graph, model, scn, _, _, (alpha_b, sigma_b) = _setup(feeder, request)
    want = _reference_baseline(scn, model, graph, alpha_b, sigma_b)
    calls = _count_plant_calls(monkeypatch)
    got = run_baseline(scn, model, graph, V_LO, V_HI, alpha_b=alpha_b, sigma_b=sigma_b)
    assert len(calls) == HORIZON + 1
    assert calls.count((2, graph.n)) == HORIZON - 1
    np.testing.assert_allclose(got.x, want.x, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(got.v, want.v, rtol=0.0, atol=1e-10)


def test_run_controller_times_the_update_apart_from_the_plant(request, monkeypatch):
    graph, model, scn, pol, cfg, _ = _setup("8", request)
    solve = controller.solve_nonlinear
    delay = 0.005

    def slow(*args, **kwargs):
        time.sleep(delay)
        return solve(*args, **kwargs)

    monkeypatch.setattr(controller, "solve_nonlinear", slow)
    _, (update_s, plant_s) = run_controller(scn, pol, model, graph, cfg)
    assert plant_s >= delay * (HORIZON + 1) / HORIZON
    assert 0.0 < update_s < delay
