"""Closed-loop dynamics: equilibrium uniqueness, contraction, diagnostics."""

import dataclasses

import numpy as np
import pytest

from localopf import (
    ControllerConfig,
    check_stability,
    compute_k_max,
    init_policy,
    lemma1_check,
    rho_alpha,
    solve_equilibrium,
    step,
    tracking_bound,
)
from localopf import controller
from localopf.controller import plant_voltage, solve_equilibria_batch
from localopf.policy import forward_all
from localopf.powerflow import InjectionState, env_voltage, residual, solve_nonlinear
from localopf.scenario import cost_grad, project_box
from conftest import make_step

ALPHA = 0.48
M = XI = 2.0  # unit cost weight


def _random_policy(graph, rng, k_scale=0.8):
    """Random in-condition policy: k below the contraction threshold."""
    a_norm = None
    from localopf import build_sensitivities

    a_norm = build_sensitivities(graph).a_norm
    # rho(alpha) < 1 requires L_theta * a_norm < 0.8866 for alpha=0.48, w=1
    k_hi = k_scale * 0.8866 / a_norm
    pol = init_policy(graph, [3, 5, 7], arch=(1, 6), k_max=k_hi, seed=int(rng.integers(1 << 30)))
    pol.k[:] = rng.uniform(0.0, k_hi, pol.n_channels)
    for b in pol.biases:
        b += rng.normal(scale=0.05, size=b.shape)
    return pol


def _random_step(graph, rng):
    n = graph.n
    p_u = -rng.uniform(0.002, 0.02, n)
    q_u = -rng.uniform(0.001, 0.012, n)
    return make_step(n, p_u, q_u, [3, 5, 7], p_cap=0.3, q_cap=0.2)


def test_equilibrium_unique_across_starts(graph8, model8):
    rng = np.random.default_rng(100)
    cfg = ControllerConfig(alpha=ALPHA, eq_tol=1e-11)
    for trial in range(20):
        pol = _random_policy(graph8, rng)
        stp = _random_step(graph8, rng)
        eqs = []
        for start in (stp.box.lo, stp.box.hi, None):
            x0 = None if start is None else np.asarray(start)
            eq = solve_equilibrium(stp, pol, model8, graph8, cfg, x0=x0)
            assert eq.converged, f"trial {trial} failed to converge"
            eqs.append(eq.x_dag)
        for other in eqs[1:]:
            assert np.linalg.norm(other - eqs[0]) < 1e-8


def _interior_step(graph, rng):
    """Scenario slot whose equilibrium sits strictly inside the box."""
    import dataclasses

    from localopf import CostModel

    stp = _random_step(graph, rng)
    n = graph.n
    floor_p = np.where(stp.box.p_hi > 0, 0.5 * stp.box.p_hi, 0.0)
    floor_q = np.where(stp.box.q_hi > 0, 0.5 * stp.box.q_hi, 0.0)
    return dataclasses.replace(stp, cost=CostModel(floor_p, floor_q, weight=1.0))


def test_empirical_contraction_rate(graph8, model8):
    rng = np.random.default_rng(200)
    cfg = ControllerConfig(alpha=ALPHA, eq_tol=1e-12, eq_max_iters=5000)
    for _ in range(5):
        pol = _random_policy(graph8, rng)
        stp = _interior_step(graph8, rng)
        rho = rho_alpha(M, XI, pol.lipschitz_v(), model8.a_norm, ALPHA)
        assert rho < 1.0
        eq, gaps = solve_equilibrium(stp, pol, model8, graph8, cfg,
                                     x0=stp.box.hi, return_gaps=True)
        assert eq.converged
        # successive-iterate gaps of a rho-contraction shrink at least by rho
        gaps = [g for g in gaps if g > 1e-10]
        ratios = [b / a for a, b in zip(gaps, gaps[1:]) if a > 0]
        assert ratios, "equilibrium reached instantly; probe harder"
        assert max(ratios) <= rho + 1e-6


def test_gain_above_threshold_fails_c3(graph8, model8):
    pol = init_policy(graph8, [3, 5, 7], k_max=1.0, seed=0)
    bound = compute_k_max(ALPHA, M, XI, model8.a_norm, margin=1.0)
    pol.k[:] = 2.0 * bound
    rep = check_stability(M, XI, model8.a_norm, pol, ALPHA)
    assert not rep.c3_ok
    assert not rep.all_ok
    assert rep.c1_ok and rep.c2_ok and rep.step_ok


def test_check_stability_passes_for_clamped_policy(graph8, model8):
    k_max = compute_k_max(ALPHA, M, XI, model8.a_norm)
    pol = init_policy(graph8, [3, 5, 7], k_max=k_max, seed=0)
    rep = check_stability(M, XI, model8.a_norm, pol, ALPHA)
    assert rep.all_ok
    assert rep.L_theta == pytest.approx(0.5 * k_max)
    assert rep.c3_margin > 0
    assert rep.step_bound == pytest.approx(2.0 * M / XI**2)


def test_contraction_ok_separate_from_uniqueness(graph8, model8):
    # gains at the C3 clamp keep the equilibrium unique but rho > 1
    k_max = compute_k_max(ALPHA, M, XI, model8.a_norm)
    pol = init_policy(graph8, [3, 5, 7], k_max=k_max, seed=0)
    pol.k[:] = k_max
    rep = check_stability(M, XI, model8.a_norm, pol, ALPHA)
    assert rep.all_ok and rep.rho > 1.0
    assert rep.contraction_ok is False
    rep = check_stability(M, XI, model8.a_norm, _random_policy(graph8, np.random.default_rng(3)),
                          ALPHA)
    assert rep.all_ok and rep.rho < 1.0
    assert rep.contraction_ok is True


def test_check_stability_rejects_negative_gain(graph8, model8):
    pol = init_policy(graph8, [3], k_max=0.1, seed=0)
    pol.k[0] = -0.05
    rep = check_stability(M, XI, model8.a_norm, pol, ALPHA)
    assert not rep.c2_ok


def test_step_size_condition(graph8, model8):
    pol = init_policy(graph8, [3], k_max=0.01, seed=0)
    rep = check_stability(M, XI, model8.a_norm, pol, alpha=1.1)
    assert not rep.step_ok  # bound is 2m/xi^2 = 1 for unit weight


@pytest.mark.parametrize("m, xi", [(0.0, 0.0), (2.0, 0.0), (-1.0, 2.0), (0.0, 2.0)])
def test_check_stability_rejects_nonpositive_convexity_constants(graph8, m, xi):
    """m and xi are named in a ValueError: no division by xi = 0, no negative step bound."""
    pol = init_policy(graph8, [3], k_max=0.01, seed=0)
    with pytest.raises(ValueError, match=f"m = {m:g}, xi = {xi:g}"):
        check_stability(m, xi, 6.0, pol, 0.48)


def test_rho_alpha_arithmetic():
    m, xi, L, a, alpha = 2.0, 2.0, 0.1, 4.0, 0.48
    expected = np.sqrt(
        1.0 + alpha**2 * (xi**2 + L**2 * a**2 + 2 * xi * L * a) - 2 * alpha * m
    )
    assert rho_alpha(m, xi, L, a, alpha) == pytest.approx(expected, abs=1e-15)


def test_tracking_bound_arithmetic():
    assert tracking_bound(0.5, 2.0, 3.0, 0.1) == pytest.approx(
        (0.5 * 2.0 + 1.5 * 3.0 * 0.1) / 0.5
    )
    with pytest.raises(ValueError):
        tracking_bound(1.0, 1.0, 1.0, 0.0)


def test_step_with_zero_policy_is_projected_gradient(graph8, model8):
    """With all-zero weights and k=0, the update is plain projected descent."""
    pol = init_policy(graph8, [3, 5, 7], arch=(1, 4), k_max=0.1, seed=0)
    for w in pol.weights:
        w[:] = 0.0
    pol.k[:] = 0.0
    rng = np.random.default_rng(9)
    stp = _random_step(graph8, rng)
    n = graph8.n
    x0 = stp.box.midpoint
    x1 = step(x0, np.ones(n), stp, pol, ControllerConfig(alpha=ALPHA))
    expected = project_box(
        x0 - ALPHA * cost_grad(stp.cost, x0), stp.box
    )
    np.testing.assert_allclose(x1, expected, atol=1e-15)


def test_step_converges_to_equilibrium(graph8, model8):
    rng = np.random.default_rng(77)
    pol = _random_policy(graph8, rng)
    stp = _random_step(graph8, rng)
    cfg = ControllerConfig(alpha=ALPHA, eq_tol=1e-12)
    eq = solve_equilibrium(stp, pol, model8, graph8, cfg)
    x = stp.box.midpoint
    for _ in range(400):
        x = step(x, plant_voltage(x, stp.p_u, stp.q_u, model8, graph8, cfg.plant), stp, pol, cfg)
    assert np.linalg.norm(x - eq.x_dag) < 1e-9


@pytest.mark.parametrize("plant", ["linear", "nonlinear"])
@pytest.mark.parametrize("feeder", ["8", "37"])
def test_plant_voltage_rows_match_single_rows(feeder, plant, request):
    graph = request.getfixturevalue(f"graph{feeder}")
    model = request.getfixturevalue(f"model{feeder}")
    rng = np.random.default_rng(500)
    n, S = graph.n, 10
    x = np.concatenate([rng.uniform(0.0, 0.5, (S, n)), rng.uniform(0.0, 0.3, (S, n))], axis=1)
    p_u = -rng.uniform(0.0, 0.02, (S, n))
    q_u = -rng.uniform(0.0, 0.012, (S, n))
    v = plant_voltage(x, p_u, q_u, model, graph, plant)
    assert v.shape == (S, n)
    for k in range(S):
        single = plant_voltage(x[k], p_u[k], q_u[k], model, graph, plant)
        if plant == "linear":  # matrix-matrix and matrix-vector products sum in other orders
            np.testing.assert_allclose(v[k], single, rtol=1e-14, atol=0.0)
            continue
        # a row solved alone stops sweeping once it moves < 1e-10; in a batch it
        # sweeps on until the slowest row converges
        np.testing.assert_allclose(v[k], single, rtol=0.0, atol=1e-9)
        row = InjectionState(p=x[k, :n], q=x[k, n:], p_u=p_u[k], q_u=q_u[k])
        sol = solve_nonlinear(graph, row, model.v0)
        assert residual(graph, row, dataclasses.replace(sol, v=v[k]), model.v0) <= 1e-8


@pytest.mark.parametrize("plant", ["linear", "nonlinear"])
def test_batch_equilibria_match_per_sample(graph8, model8, plant):
    rng = np.random.default_rng(300)
    pol = _random_policy(graph8, rng)
    n = graph8.n
    S = 6
    steps = [_random_step(graph8, rng) for _ in range(S)]
    p_u = np.array([s.p_u for s in steps])
    q_u = np.array([s.q_u for s in steps])
    cfg = ControllerConfig(alpha=ALPHA, plant=plant, eq_tol=1e-11)
    x, v, conv, _ = solve_equilibria_batch(
        p_u, q_u, forward_all(pol, p_u, q_u), steps[0].cost, steps[0].box, pol, model8, graph8,
        cfg,
    )
    assert conv.all()
    for s in range(S):
        eq = solve_equilibrium(steps[s], pol, model8, graph8, cfg)
        np.testing.assert_allclose(x[s], eq.x_dag, atol=1e-8)
        np.testing.assert_allclose(v[s], eq.v_dag, atol=1e-8)


@pytest.mark.parametrize("feeder", ["8", "37"])
def test_picard_step_is_the_row_norm(feeder, request):
    """Each row's Picard step has the bytes of ``np.linalg.norm(move, axis=1)``.

    One-iteration solves from rows of very different sizes, some pinned to
    a box corner so that they do not move at all.
    """
    graph = request.getfixturevalue(f"graph{feeder}")
    model = request.getfixturevalue(f"model{feeder}")
    rng = np.random.default_rng(600)
    n, S = graph.n, 32
    stp = make_step(n, np.zeros(n), np.zeros(n), range(1, n + 1, 2))
    p_u, q_u = -rng.uniform(0.0, 0.02, (S, n)), -rng.uniform(0.0, 0.012, (S, n))
    offset = rng.normal(scale=0.05, size=(S, 2 * n))
    gain = rng.uniform(0.0, 0.1, 2 * n)
    x = np.tile(stp.box.midpoint, (S, 1)) * 10.0 ** rng.integers(-8, 4, (S, 1))
    x[:4], offset[:4] = stp.box.lo, 1.0  # the gradient step cannot leave the lower corner
    plant = controller._picard_plant(p_u, q_u, model, graph, "linear")
    for _ in range(4):
        x_new, _, _, gap, iterations = controller._picard(
            x, plant, offset, gain, stp.cost, stp.box, ALPHA, 1e-9, 1)
        assert iterations == 1
        assert gap.tobytes() == np.linalg.norm(x_new - x, axis=1).tobytes()
        x = x_new
    assert np.all(gap[:4] == 0.0) and np.all(gap[4:] > 0.0)


def test_linear_picard_solve_computes_the_envelope_once(graph8, model8, monkeypatch):
    """The uncontrolled voltages of a linear-plant solve are formed once, not per iteration."""
    rng = np.random.default_rng(601)
    pol, stp = _random_policy(graph8, rng), _random_step(graph8, rng)
    p_u, q_u = np.tile(stp.p_u, (3, 1)), np.tile(stp.q_u, (3, 1))
    calls = []

    def counted(*args):
        calls.append(None)
        return env_voltage(*args)

    monkeypatch.setattr(controller, "env_voltage", counted)
    cfg = ControllerConfig(alpha=ALPHA, eq_tol=1e-11)
    x, v, conv, iterations = solve_equilibria_batch(
        p_u, q_u, forward_all(pol, p_u, q_u), stp.cost, stp.box, pol, model8, graph8, cfg)
    assert conv.all() and iterations > 1 and len(calls) == 1
    assert v.tobytes() == plant_voltage(x, p_u, q_u, model8, graph8, "linear").tobytes()


def test_lemma1_sensitivity_bound(graph8, model8):
    """Measured equilibrium sensitivity never exceeds the 1/(2w) bound."""
    rng = np.random.default_rng(400)
    cfg = ControllerConfig(alpha=ALPHA, eq_tol=1e-12, eq_max_iters=10_000)
    worst = 0.0
    for _ in range(20):
        pol = _random_policy(graph8, rng)
        stp = _random_step(graph8, rng)
        worst = max(worst, lemma1_check(stp, pol, model8, graph8, cfg))
    assert worst <= 1.05 * ALPHA


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        ControllerConfig(alpha=0.5, plant="magic")
