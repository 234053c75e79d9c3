"""Acceptance gate: ten end-to-end correctness and reproduction criteria.

Each test states its criterion number.  Heavy shared work (the desk-scale
seed-by-beta training matrix on the 36-node feeder) is computed once in
module-scoped fixtures.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from localopf import (
    ControllerConfig,
    InjectionState,
    TrainerConfig,
    build_sensitivities,
    check_stability,
    compute_k_max,
    evaluate,
    generate_profile,
    hinge_surrogate,
    init_policy,
    lemma1_check,
    residual,
    rho_alpha,
    solve_equilibrium,
    solve_nonlinear,
    solve_opf_linear,
    train,
    zo_voltage_jacobian,
)
from localopf.controller import solve_equilibria_batch
from localopf.policy import forward_all, param_views
from localopf.runner import (
    day_settings,
    load_config,
    run_controller,
    run_baseline,
    run_no_control,
    run_oracle,
    run_experiment,
    trainer_config,
)
from localopf.trainer import indicator
from conftest import interior_step, make_step, solved_batch
from test_feeder import path_intersection_oracle
from test_oracle import grid_search_2bus, kkt_witness, two_bus_setup
from test_powerflow import newton_raphson_2bus, two_bus_graph

DATA = Path(__file__).resolve().parents[1] / "src" / "localopf" / "data"
CONFIG37 = DATA / "config_37bus.yaml"
CONFIG8 = DATA / "config_8bus.yaml"

ALPHA = 0.48
M = XI = 2.0


# ---------------------------------------------------------------------------
# Criterion 1: power-flow correctness


def test_acceptance_1_powerflow(graph8, graph37):
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    for graph in (graph8, graph37):
        n = graph.n
        for _ in range(50):
            s = InjectionState(
                p=rng.uniform(0.0, 0.4, n), q=rng.uniform(0.0, 0.25, n),
                p_u=-rng.uniform(0.0, 0.02, n), q_u=-rng.uniform(0.0, 0.012, n),
            )
            sol = solve_nonlinear(graph, s, 1.0)
            assert sol.converged
            assert residual(graph, s, sol, 1.0) <= 1e-8
    g2 = two_bus_graph(r=0.05, x=0.1)
    for p_net, q_net in [(-0.4, -0.2), (0.1, 0.05), (-0.05, 0.1)]:
        s = InjectionState(p=np.array([p_net]), q=np.array([q_net]),
                           p_u=np.zeros(1), q_u=np.zeros(1))
        sol = solve_nonlinear(g2, s, 1.0)
        assert abs(sol.v[0] - newton_raphson_2bus(0.05, 0.1, p_net, q_net)) <= 1e-8
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# Criterion 2: sensitivity matrices


def test_acceptance_2_sensitivities(graph8, graph37):
    for graph in (graph8, graph37):
        model = build_sensitivities(graph)
        R, X = path_intersection_oracle(graph)
        np.testing.assert_allclose(model.R, R, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(model.X, X, rtol=1e-14, atol=0.0)
        np.linalg.cholesky(model.R)  # positive definiteness
        np.linalg.cholesky(model.X)


# ---------------------------------------------------------------------------
# Criterion 3: equilibrium uniqueness and contraction, with negative control


def test_acceptance_3_equilibrium_uniqueness_and_contraction(graph8, model8):
    started = time.monotonic()
    rng = np.random.default_rng(3003)
    eq_tol = 1e-10
    cfg = ControllerConfig(alpha=ALPHA, eq_tol=eq_tol, eq_max_iters=20_000)
    k_hi = 0.8 * 0.8866 / model8.a_norm  # inside C3 and the contraction region
    for _ in range(20):
        pol = init_policy(graph8, [3, 5, 7], arch=(1, 6), k_max=k_hi,
                          seed=int(rng.integers(1 << 30)))
        pol.k[:] = rng.uniform(0.0, k_hi, pol.n_channels)
        for b in pol.biases:
            b += rng.normal(scale=0.05, size=b.shape)
        rep = check_stability(M, XI, model8.a_norm, pol, ALPHA)
        assert rep.all_ok
        rho = rho_alpha(M, XI, pol.lipschitz_v(), model8.a_norm, ALPHA)
        assert rho < 1.0
        stp = interior_step(graph8, rng)
        eq_a = solve_equilibrium(stp, pol, model8, graph8, cfg, x0=stp.box.lo)
        eq_b, gaps = solve_equilibrium(stp, pol, model8, graph8, cfg,
                                       x0=stp.box.hi, return_gaps=True)
        assert eq_a.converged and eq_b.converged
        assert np.linalg.norm(eq_a.x_dag - eq_b.x_dag) <= 10.0 * eq_tol
        gaps = [g for g in gaps if g > 1e-9]
        ratios = [b_ / a_ for a_, b_ in zip(gaps, gaps[1:]) if a_ > 0]
        if ratios:
            assert max(ratios) <= rho + 1e-6

    # negative control: gain 2x above the C3 bound plus an aggressive step
    c3_bound = compute_k_max(ALPHA, M, XI, model8.a_norm, margin=1.0)
    bad_cfg = ControllerConfig(alpha=0.9, eq_tol=eq_tol, eq_max_iters=2000)
    broke = False
    for trial in range(5):
        pol = init_policy(graph8, [3, 5, 7], arch=(1, 6), k_max=10.0,
                          seed=trial)
        pol.k[:] = 2.0 * c3_bound
        # cancel the nominal k*v offset so the iterates cannot simply park
        # on a stabilizing box corner
        pol.biases[-1][:, 0] = -pol.k * 1.0
        assert not check_stability(M, XI, model8.a_norm, pol, bad_cfg.alpha).c3_ok
        stp = interior_step(graph8, np.random.default_rng(trial))
        eq_a = solve_equilibrium(stp, pol, model8, graph8, bad_cfg, x0=stp.box.lo)
        eq_b = solve_equilibrium(stp, pol, model8, graph8, bad_cfg, x0=stp.box.hi)
        if not (eq_a.converged and eq_b.converged):
            broke = True
            break
        if np.linalg.norm(eq_a.x_dag - eq_b.x_dag) > 10.0 * eq_tol:
            broke = True
            break
    assert broke, "negative control failed to break uniqueness"
    assert time.monotonic() - started < 120.0


# ---------------------------------------------------------------------------
# Criterion 4: equilibrium-sensitivity bound


def test_acceptance_4_sensitivity_bound(graph8, model8):
    rng = np.random.default_rng(4004)
    cfg = ControllerConfig(alpha=ALPHA, eq_tol=1e-12, eq_max_iters=20_000)
    k_hi = 0.8 * 0.8866 / model8.a_norm
    for _ in range(20):
        pol = init_policy(graph8, [3, 5, 7], arch=(1, 6), k_max=k_hi,
                          seed=int(rng.integers(1 << 30)))
        pol.k[:] = rng.uniform(0.0, k_hi, pol.n_channels)
        stp = interior_step(graph8, rng)
        assert lemma1_check(stp, pol, model8, graph8, cfg) <= 1.05 * ALPHA


# ---------------------------------------------------------------------------
# Criterion 5: gradient fidelity


def test_acceptance_5_gradient_fidelity(graph8, model8):
    from localopf import TrainerState, grad_policy, lagrangian

    started = time.monotonic()
    rng = np.random.default_rng(5005)
    pol = init_policy(graph8, [3, 5, 7], arch=(2, 8), k_max=0.1, seed=55)
    # voltage gains zeroed: the analytic equilibrium response assumes the
    # measured-voltage feedback path is inactive during differentiation
    pol.k[:] = 0.0
    for b in pol.biases:
        b += rng.normal(scale=0.05, size=b.shape)
    n = graph8.n
    state = TrainerState(
        policy=pol,
        mu_lo=np.full(n, 0.7), mu_hi=np.full(n, 0.4),
        lambda_lo=np.full(n, 0.02), lambda_hi=np.full(n, 0.02),
    )
    tr_cfg = TrainerConfig(alpha=ALPHA, beta=0.3, sigma_mu=1.0, v_lo=0.9604, v_hi=1.0)
    samples = [interior_step(graph8, rng) for _ in range(3)]
    cfg = ControllerConfig(alpha=ALPHA, eq_tol=1e-13, eq_max_iters=50_000)

    batch = solved_batch(samples, pol, model8, graph8, cfg)
    grad_w, grad_b, _ = param_views(pol, grad_policy(batch, state, model8, tr_cfg)[0])

    def lag():
        return lagrangian(solved_batch(samples, pol, model8, graph8, cfg), state, tr_cfg)

    eps = 1e-6
    arrays = [(grad_w[l], pol.weights[l]) for l in range(len(pol.weights))]
    arrays += [(grad_b[l], pol.biases[l]) for l in range(len(pol.biases))]
    rng2 = np.random.default_rng(56)
    ok = 0
    tested = 0
    for g_arr, p_arr in arrays:
        flat_g = g_arr.reshape(-1)
        picks = rng2.choice(p_arr.size, size=min(20, p_arr.size), replace=False)
        for j in picks:
            idx = np.unravel_index(j, p_arr.shape)  # p_arr is a strided view: write through it
            orig = p_arr[idx]
            p_arr[idx] = orig + eps
            up = lag()
            p_arr[idx] = orig - eps
            dn = lag()
            p_arr[idx] = orig
            fd = (up - dn) / (2 * eps)
            scale = max(abs(fd), abs(flat_g[j]))
            if scale < 1e-8:
                continue  # flat coordinate: relative error undefined
            tested += 1
            if abs(flat_g[j] - fd) / scale <= 1e-3:
                ok += 1
    assert tested >= 60
    assert ok / tested >= 0.95, f"{ok}/{tested} coordinates within 1e-3"
    assert time.monotonic() - started < 300.0


# ---------------------------------------------------------------------------
# Criterion 6: gradient-free voltage-Jacobian estimator


def test_acceptance_6_zeroth_order(graph8, model8):
    n = graph8.n
    stp = make_step(n, -0.01 * np.ones(n), -0.005 * np.ones(n), [3, 5, 7])
    jac = zo_voltage_jacobian(stp.box.midpoint, stp.p_u, stp.q_u, model8, graph8, zo_step=1e-3,
                              plant="linear")
    np.testing.assert_allclose(jac, model8.A, atol=1e-10)

    # O(eps^2) self-consistency on the nonlinear plant around eps = 1e-3
    x = stp.box.midpoint
    j1 = zo_voltage_jacobian(x, stp.p_u, stp.q_u, model8, graph8, zo_step=4e-3)
    j2 = zo_voltage_jacobian(x, stp.p_u, stp.q_u, model8, graph8, zo_step=2e-3)
    j3 = zo_voltage_jacobian(x, stp.p_u, stp.q_u, model8, graph8, zo_step=1e-3)
    ref = zo_voltage_jacobian(x, stp.p_u, stp.q_u, model8, graph8, zo_step=1e-5)
    e1 = np.max(np.abs(j1 - ref))
    e2 = np.max(np.abs(j2 - ref))
    e3 = np.max(np.abs(j3 - ref))
    assert 2.5 < e1 / e2 < 6.0
    assert 2.5 < e2 / e3 < 6.0


# ---------------------------------------------------------------------------
# Criteria 7 and 8: chance level and desk-scale reproduction


@pytest.fixture(scope="module")
def desk():
    """Shared desk-scale artifacts: scenarios, comparators, training matrix."""
    cfg = load_config(CONFIG37)
    from localopf import load_feeder

    graph = load_feeder(DATA / cfg["feeder"])
    model = build_sensitivities(graph)
    scfg = cfg["scenario"]
    gen_train, _ = day_settings(cfg, "train")
    gen_test, _ = day_settings(cfg, "test")
    train_scns = [generate_profile(graph, gen_train, s) for s in scfg["train_seeds"]]
    test_scn = generate_profile(graph, gen_test, int(scfg["test_seed"]))
    limits = cfg["limits"]
    v_lo, v_hi = float(limits["v_lo"]), float(limits["v_hi"])

    oracle_traj = run_oracle(test_scn, model, v_lo, v_hi)
    nc_traj = run_no_control(test_scn, model, graph)
    bcfg = cfg["baseline"]
    base_traj = run_baseline(test_scn, model, graph, v_lo, v_hi,
                             alpha_b=float(bcfg["alpha_b"]),
                             sigma_b=float(bcfg["sigma_b"]),
                             x0=test_scn.steps[0].box.midpoint)
    nc_rep = evaluate(nc_traj, oracle_traj, v_lo, v_hi)
    base_rep = evaluate(base_traj, oracle_traj, v_lo, v_hi)

    tcfg = cfg["trainer"]
    ctrl_cfg = ControllerConfig(alpha=float(tcfg["alpha"]), plant="nonlinear")
    runs = {}
    states = {}
    for beta in (0.05, 0.1, 0.5):
        for seed in (0, 1, 2):
            tr = replace(trainer_config(cfg), beta=beta, seed=seed)
            state, _ = train(train_scns, tr, graph, model)
            traj, _ = run_controller(test_scn, state.policy, model, graph, ctrl_cfg,
                                     x0=test_scn.steps[0].box.midpoint)
            runs[(beta, seed)] = evaluate(traj, oracle_traj, v_lo, v_hi)
            states[(beta, seed)] = state
    return {
        "graph": graph, "model": model, "train_scns": train_scns,
        "v_lo": v_lo, "v_hi": v_hi, "alpha": float(tcfg["alpha"]),
        "nc": nc_rep, "baseline": base_rep, "runs": runs, "states": states,
        "started": time.monotonic(),
    }


def test_acceptance_7_chance_surrogate(desk):
    # hinge majorization on an exhaustive grid
    for lam in np.linspace(0.0, 1.0, 21):
        g = np.linspace(-2.0, 2.0, 801)
        assert np.all(hinge_surrogate(lam, g) >= lam * indicator(g) - 1e-15)
    # trained violation frequency on the training distribution
    graph, model = desk["graph"], desk["model"]
    train_scns = desk["train_scns"]
    first = train_scns[0]
    p_u = np.concatenate([scn.p_u for scn in train_scns])
    q_u = np.concatenate([scn.q_u for scn in train_scns])
    for beta in (0.05, 0.1, 0.5):
        pol = desk["states"][(beta, 0)].policy
        _, v, conv, _ = solve_equilibria_batch(
            p_u, q_u, forward_all(pol, p_u, q_u), first.cost, first.box, pol, model, graph,
            ControllerConfig(alpha=desk["alpha"], eq_tol=1e-9, eq_max_iters=5000),
        )
        assert conv.all()
        freq = np.mean((v < desk["v_lo"]) | (v > desk["v_hi"]), axis=0)
        assert np.max(freq) <= 1.5 * beta, (
            f"beta={beta}: worst node violates {np.max(freq):.3f}"
        )


def test_acceptance_8_desk_scale_orderings(desk):
    runs = desk["runs"]
    med = lambda beta, attr: float(np.median(
        [getattr(runs[(beta, s)], attr) for s in (0, 1, 2)]
    ))
    # (a) trained controller vs no-control and tuned baseline at beta = 0.1
    vv_ctrl = med(0.1, "volt_violation")
    assert vv_ctrl <= desk["nc"].volt_violation / 2.0
    assert vv_ctrl < desk["baseline"].volt_violation
    # (b) chance-level direction across beta
    assert med(0.05, "volt_violation") <= med(0.5, "volt_violation")
    assert med(0.05, "absolute_gap") >= med(0.5, "absolute_gap")


# ---------------------------------------------------------------------------
# Criterion 9: oracle validity


def test_acceptance_9_oracle(graph8, model8):
    rng = np.random.default_rng(9009)
    n = graph8.n
    for _ in range(10):
        stp = make_step(n, -rng.uniform(0.002, 0.01, n), -rng.uniform(0.001, 0.006, n),
                        [3, 5, 7], p_cap=0.3, q_cap=0.2)
        sol = solve_opf_linear(stp, model8, 0.9604, 1.0201)
        assert sol.kkt_residual <= 1e-8
        assert kkt_witness(sol, model8, stp, 0.9604, 1.0201) <= 1e-6

    _, model2 = two_bus_setup()
    stp = make_step(1, np.array([-0.6]), np.array([-0.4]), [1], p_cap=0.5, q_cap=0.4)
    sol = solve_opf_linear(stp, model2, 0.81, 1.05)
    obj_ref, _ = grid_search_2bus(model2, stp, 0.81, 1.05)
    assert sol.objective == pytest.approx(obj_ref, abs=1e-4)


# ---------------------------------------------------------------------------
# Criterion 10: bit-identical reruns


def test_acceptance_10_determinism(tmp_path):
    a = run_experiment(CONFIG8, output_dir=tmp_path / "a")
    b = run_experiment(CONFIG8, output_dir=tmp_path / "b")
    for name in ("training_log.csv", "controller_trajectory.csv",
                 "no_control_trajectory.csv", "baseline_trajectory.csv",
                 "oracle_trajectory.csv", "manifest.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
