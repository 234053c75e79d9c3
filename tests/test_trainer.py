"""Trainer correctness: surrogates, gradients, dual updates, training loop."""

import dataclasses

import numpy as np
import pytest

from localopf import (
    Batch,
    ControllerConfig,
    StabilityError,
    TrainerConfig,
    TrainerState,
    dual_update,
    grad_lambda,
    grad_policy,
    hinge_surrogate,
    init_policy,
    lagrangian,
    train,
    trainer,
    zo_voltage_jacobian,
)
from localopf.policy import forward_all, param_views
from localopf.trainer import (
    ADAM_BLOCK,
    LOG_COLUMNS,
    AdamState,
    adam_update,
    controllable_nodes,
    indicator,
    initial_state,
)
from conftest import interior_step, make_step, solved_batch, train_scenario

ALPHA = 0.48


# ---------------------------------------------------------------------------
# Surrogate properties


def test_hinge_majorizes_indicator():
    for lam in (0.0, 0.01, 0.2, 1.0):
        for g in np.linspace(-2.0, 2.0, 401):
            assert hinge_surrogate(lam, g) >= lam * indicator(g) - 1e-15


def test_hinge_values():
    assert hinge_surrogate(0.5, -0.2) == pytest.approx(0.3)
    assert hinge_surrogate(0.5, -0.8) == 0.0
    np.testing.assert_allclose(
        hinge_surrogate(np.array([0.1, 0.1]), np.array([-0.05, -0.2])), [0.05, 0.0]
    )


def test_indicator_boundary_counts_as_violation():
    np.testing.assert_array_equal(indicator(np.array([-1e-9, 0.0, 1e-9])), [0, 1, 1])


def test_chance_config_validation():
    # the chance-constraint parameters live on TrainerConfig
    with pytest.raises(ValueError, match="beta"):
        TrainerConfig(beta=0.0)
    with pytest.raises(ValueError, match="lambda_mode"):
        TrainerConfig(lambda_mode="other")


# ---------------------------------------------------------------------------
# Hand-computed Lagrangian and dual update on a fabricated 2-sample batch


def _tiny_state(n, policy, lam=0.1, mu=0.7):
    return TrainerState(policy=policy, mu_lo=np.full(n, mu), mu_hi=np.full(n, 0.3),
                        lambda_lo=np.full(n, lam), lambda_hi=np.full(n, lam))


def _tiny_cfg(beta=0.5, sigma_mu=2.0, lambda_mode="fixed", v_lo=0.9604, v_hi=1.0):
    return TrainerConfig(alpha=ALPHA, beta=beta, lambda_mode=lambda_mode, sigma_mu=sigma_mu,
                         v_lo=v_lo, v_hi=v_hi)


def _fabricated_batch(policy):
    n, ctrl = policy.n_bus, policy.nodes
    steps = [
        make_step(n, -0.01 * np.ones(n), -0.005 * np.ones(n), ctrl),
        make_step(n, -0.02 * np.ones(n), -0.01 * np.ones(n), ctrl, t=1),
    ]
    p_u = np.array([s.p_u for s in steps])
    q_u = np.array([s.q_u for s in steps])
    offset, tape = forward_all(policy, p_u, q_u, with_tape=True)
    return Batch(
        p_u=p_u,
        q_u=q_u,
        x=np.array([np.full(2 * n, 0.1), np.full(2 * n, 0.2)]),
        v=np.array([np.full(n, 0.96), np.full(n, 1.01)]),
        offset=offset,
        tape=tape,
        taped=np.ones(policy.n_channels, dtype=bool),
        cost=steps[0].cost,
        box=steps[0].box,
    )


def test_lagrangian_hand_computed(graph8):
    n = graph8.n
    pol = init_policy(graph8, [3], k_max=0.1, seed=0)
    state = _tiny_state(n, pol, lam=0.1, mu=0.7)
    batch = _fabricated_batch(pol)
    v_lo, v_hi = 0.9604, 1.0 ** 2  # 0.98^2 and 1.0
    # cost: weight 1, floor 0 => mean over samples of ||x||^2
    cost = 0.5 * (2 * n * 0.1**2 + 2 * n * 0.2**2)
    # low hinge: max(0.1 + 0.9604 - v, 0): sample v=0.96 -> 0.1004; v=1.01 -> 0.0504
    h_lo = 0.5 * (0.1004 + 0.0504)
    # high hinge: max(0.1 + v - 1.0, 0): v=0.96 -> 0.06; v=1.01 -> 0.11
    h_hi = 0.5 * (0.06 + 0.11)
    expected = cost + n * 0.7 * (h_lo - 0.5 * 0.1) + n * 0.3 * (h_hi - 0.5 * 0.1)
    cfg = _tiny_cfg(beta=0.5, v_lo=v_lo, v_hi=v_hi)
    assert lagrangian(batch, state, cfg) == pytest.approx(expected, abs=1e-12)


def test_dual_update_hand_computed(graph8):
    n = graph8.n
    pol = init_policy(graph8, [3], k_max=0.1, seed=0)
    state = _tiny_state(n, pol, lam=0.1, mu=0.7)
    batch = _fabricated_batch(pol)
    new = dual_update(state, batch, _tiny_cfg(beta=0.5, sigma_mu=2.0))
    asc_lo = 0.5 * (0.1004 + 0.0504) - 0.5 * 0.1
    asc_hi = 0.5 * (0.06 + 0.11) - 0.5 * 0.1
    np.testing.assert_allclose(new.mu_lo, 0.7 + 2.0 * asc_lo, atol=1e-12)
    np.testing.assert_allclose(new.mu_hi, 0.3 + 2.0 * asc_hi, atol=1e-12)
    # projection onto the nonnegative orthant
    state2 = dataclasses.replace(state, mu_lo=np.zeros(n), mu_hi=np.zeros(n),
                                 lambda_lo=np.zeros(n), lambda_hi=np.zeros(n))
    cfg2 = _tiny_cfg(beta=0.5, sigma_mu=1000.0, v_lo=0.5, v_hi=2.0)  # widely feasible limits
    new2 = dual_update(state2, batch, cfg2)
    assert np.all(new2.mu_lo == 0.0)
    assert np.all(new2.mu_hi == 0.0)


def test_grad_lambda_hand_computed(graph8):
    n = graph8.n
    pol = init_policy(graph8, [3], k_max=0.1, seed=0)
    state = _tiny_state(n, pol, lam=0.1, mu=0.7)
    batch = _fabricated_batch(pol)
    g_lo, g_hi = grad_lambda(batch, state, _tiny_cfg(beta=0.5, lambda_mode="learned"))
    # both samples violate both offset constraints => indicator mean 1
    np.testing.assert_allclose(g_lo, 0.7 * (1.0 - 0.5), atol=1e-15)
    np.testing.assert_allclose(g_hi, 0.3 * (1.0 - 0.5), atol=1e-15)
    with pytest.raises(ValueError):
        grad_lambda(batch, state, _tiny_cfg(beta=0.5))


# ---------------------------------------------------------------------------
# Policy gradient vs end-to-end finite differences through the equilibrium


def test_grad_policy_matches_finite_difference(graph8, model8):
    """End-to-end check: analytic gradient vs numeric differentiation of the
    Lagrangian with equilibria re-solved after every parameter perturbation.
    The voltage-feedback gains are zeroed so the equilibrium response used by
    the analytic formula is exact."""
    rng = np.random.default_rng(17)
    pol = init_policy(graph8, [3, 5, 7], arch=(1, 5), k_max=0.1, seed=3)
    pol.k[:] = 0.0
    for b in pol.biases:
        b += rng.normal(scale=0.05, size=b.shape)
    n = graph8.n
    state = _tiny_state(n, pol, lam=0.02, mu=0.7)
    tr_cfg = _tiny_cfg(beta=0.3, v_lo=0.9604, v_hi=1.0)
    samples = [interior_step(graph8, rng, t) for t in range(3)]
    cfg = ControllerConfig(alpha=ALPHA, eq_tol=1e-13, eq_max_iters=20_000)

    batch = solved_batch(samples, pol, model8, graph8, cfg)
    grad_w, grad_b, _ = param_views(pol, grad_policy(batch, state, model8, tr_cfg)[0])

    def lag():
        return lagrangian(solved_batch(samples, pol, model8, graph8, cfg), state, tr_cfg)

    eps = 1e-6
    checked = 0
    rng2 = np.random.default_rng(5)
    # the per-layer views are strided, so each entry is perturbed through its index
    for l, W in enumerate(pol.weights):
        for j in rng2.choice(W.size, size=4, replace=False):
            idx = np.unravel_index(j, W.shape)
            orig = W[idx]
            W[idx] = orig + eps
            up = lag()
            W[idx] = orig - eps
            dn = lag()
            W[idx] = orig
            fd = (up - dn) / (2 * eps)
            assert grad_w[l][idx] == pytest.approx(fd, abs=2e-6), (
                f"layer {l} weight {j}"
            )
            checked += 1
    for l, B in enumerate(pol.biases):
        idx = np.unravel_index(int(rng2.integers(B.size)), B.shape)
        orig = B[idx]
        B[idx] = orig + eps
        up = lag()
        B[idx] = orig - eps
        dn = lag()
        B[idx] = orig
        fd = (up - dn) / (2 * eps)
        assert grad_b[l][idx] == pytest.approx(fd, abs=2e-6)
        checked += 1
    assert checked >= 10


def test_grad_policy_with_explicit_jacobian_matches_linear(graph8, model8):
    """Passing [R X] as the voltage Jacobian reproduces the analytic path."""
    rng = np.random.default_rng(23)
    pol = init_policy(graph8, [3, 5, 7], arch=(1, 4), k_max=0.1, seed=1)
    n = graph8.n
    state = _tiny_state(n, pol, lam=0.02, mu=0.7)
    tr_cfg = _tiny_cfg(beta=0.3)
    samples = [interior_step(graph8, rng, t) for t in range(4)]
    cfg = ControllerConfig(alpha=ALPHA, eq_tol=1e-11)
    batch = solved_batch(samples, pol, model8, graph8, cfg)
    g0, live0 = grad_policy(batch, state, model8, tr_cfg)
    jac = np.concatenate([model8.R, model8.X], axis=1)
    g1, live1 = grad_policy(batch, state, model8, tr_cfg, voltage_jacobian=jac)
    np.testing.assert_allclose(g1, g0, atol=1e-14)
    np.testing.assert_array_equal(live1, live0)


def test_grad_policy_returns_fresh_array_without_out(graph8, model8):
    rng = np.random.default_rng(29)
    pol = init_policy(graph8, [3, 5, 7], arch=(1, 4), k_max=0.1, seed=1)
    state = _tiny_state(graph8.n, pol, lam=0.02, mu=0.7)
    tr_cfg = _tiny_cfg(beta=0.3)
    samples = [interior_step(graph8, rng, t) for t in range(3)]
    batch = solved_batch(samples, pol, model8, graph8, ControllerConfig(alpha=ALPHA, eq_tol=1e-11))
    g0, live = grad_policy(batch, state, model8, tr_cfg)
    g1, _ = grad_policy(batch, state, model8, tr_cfg)
    assert not np.shares_memory(g0, g1)
    np.testing.assert_array_equal(g0, g1)
    assert live.all()  # interior equilibria: every channel gets a gradient
    out = np.full_like(g0, np.nan)
    assert grad_policy(batch, state, model8, tr_cfg, out=out)[0] is out
    np.testing.assert_array_equal(out, g0)


def test_grad_policy_zero_where_projection_active(graph8, model8):
    """Channels whose equilibrium is pinned at the box get no gradient."""
    rng = np.random.default_rng(31)
    pol = init_policy(graph8, [3, 5, 7], arch=(1, 4), k_max=0.1, seed=2)
    n = graph8.n
    # floor-at-zero cost pins every channel at the lower box corner
    samples = [make_step(n, -rng.uniform(0.002, 0.02, n),
                         -rng.uniform(0.001, 0.012, n), [3, 5, 7], t=t)
               for t in range(3)]
    cfg = ControllerConfig(alpha=ALPHA, eq_tol=1e-11)
    batch = solved_batch(samples, pol, model8, graph8, cfg)
    assert np.all(np.abs(batch.x[:, np.array(pol.nodes) - 1]) < 1e-9)  # pinned at zero
    state = _tiny_state(n, pol, mu=0.7)
    grad, live = grad_policy(batch, state, model8, _tiny_cfg())
    assert not live.any()
    grad_w, _, grad_k = param_views(pol, grad)
    for l in range(len(grad_w)):
        np.testing.assert_allclose(grad_w[l], 0.0, atol=1e-15)
    np.testing.assert_allclose(grad_k, 0.0, atol=1e-15)
    out = np.full_like(grad, np.nan)  # with no live channel, out comes back as it was
    assert grad_policy(batch, state, model8, _tiny_cfg(), out=out)[0] is out
    assert np.isnan(out).all()


# ---------------------------------------------------------------------------
# Gradient-free voltage Jacobian


def test_zo_jacobian_exact_on_linear_plant(graph8, model8):
    n = graph8.n
    stp = make_step(n, -0.01 * np.ones(n), -0.005 * np.ones(n), [3, 5, 7])
    jac = zo_voltage_jacobian(stp.box.midpoint, stp.p_u, stp.q_u, model8, graph8, zo_step=1e-3,
                              plant="linear")
    np.testing.assert_allclose(jac, model8.A, atol=1e-10)


def test_zo_jacobian_second_order_on_nonlinear_plant(graph8, model8):
    """Central-difference error decays quadratically in the probe size."""
    n = graph8.n
    stp = make_step(n, -0.01 * np.ones(n), -0.005 * np.ones(n), [3, 5, 7])
    x = stp.box.midpoint
    ref = zo_voltage_jacobian(x, stp.p_u, stp.q_u, model8, graph8, zo_step=1e-6)
    err = {}
    for h in (4e-2, 2e-2, 1e-2):
        jac = zo_voltage_jacobian(x, stp.p_u, stp.q_u, model8, graph8, zo_step=h)
        err[h] = np.max(np.abs(jac - ref))
    r1 = err[4e-2] / err[2e-2]
    r2 = err[2e-2] / err[1e-2]
    assert 2.5 < r1 < 6.0
    assert 2.5 < r2 < 6.0


def test_zo_jacobian_rejects_bad_step(graph8, model8):
    stp = make_step(graph8.n, -0.01 * np.ones(graph8.n),
                    -0.005 * np.ones(graph8.n), [3])
    with pytest.raises(ValueError):
        zo_voltage_jacobian(stp.box.midpoint, stp.p_u, stp.q_u, model8, graph8, zo_step=0.0)


# ---------------------------------------------------------------------------
# Adam and the training loop


def test_adam_first_step_is_signed_lr(graph8):
    pol = init_policy(graph8, [3], arch=(1, 2), k_max=0.1, seed=0)
    before = [w.copy() for w in pol.weights]
    adam = AdamState.zeros_like(pol)
    grad = np.zeros_like(pol.theta)
    grad_w, grad_b, _ = param_views(pol, grad)
    for w in grad_w:
        w[...] = 1.0
    for b in grad_b:
        b[...] = -1.0
    every = np.ones(pol.n_channels, dtype=bool)
    adam_update(pol, grad, adam, 0.01, every, horizon=1)
    # first Adam step moves every coordinate by ~lr against the gradient sign
    for w, w0 in zip(pol.weights, before):
        np.testing.assert_allclose(w, w0 - 0.01 * (1.0 / (1.0 + 1e-8)), atol=1e-9)
    for b in pol.biases:
        np.testing.assert_allclose(b, 0.01 * (1.0 / (1.0 + 1e-8)), atol=1e-9)
    np.testing.assert_array_equal(pol.k, np.full(2, 0.05))  # zero grad: unchanged
    assert adam.t == 1


def test_adam_update_allocates_one_scratch_array(graph8):
    import tracemalloc

    pol = init_policy(graph8, [3, 5, 7], arch=(3, 64), k_max=0.1, seed=0)
    assert pol.theta.nbytes > 8 * ADAM_BLOCK
    grad = np.random.default_rng(3).normal(size=pol.theta.size)
    one_live = grad.copy()
    one_live.reshape(pol.n_channels, -1)[1:] = 0.0  # idle rows: no theta-sized temporary
    every = np.ones(pol.n_channels, dtype=bool)
    for g in (grad, one_live):
        adam = AdamState.zeros_like(pol)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            adam_update(pol, g, adam, 1e-3, every, horizon=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 8 * ADAM_BLOCK + 16_384  # one block-sized scratch, not one per operation


def _adam_one_shot(theta, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam step as whole-vector expressions, in adam_update's operation order."""
    v = v * beta2 + (grad * (1.0 - beta2)) * grad
    m = m * beta1 + grad * (1.0 - beta1)
    step = (m / (1.0 - beta1**t)) * lr / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    return theta - step, m, v


def test_adam_blocks_match_one_shot_update(graph8):
    pol = init_policy(graph8, [3, 5, 7], arch=(3, 64), k_max=0.1, seed=0)
    assert pol.theta.size > ADAM_BLOCK and pol.theta.size % ADAM_BLOCK
    rng = np.random.default_rng(8)
    every = np.ones(pol.n_channels, dtype=bool)
    adam = AdamState(m=rng.normal(size=pol.theta.size), v=rng.uniform(0.0, 2.0, pol.theta.size),
                     active=every.copy(), settled=~every)
    theta, m, v = pol.theta.copy(), adam.m.copy(), adam.v.copy()
    for t in (1, 2, 3):
        grad = rng.normal(size=pol.theta.size)
        theta, m, v = _adam_one_shot(theta, grad, m, v, t, lr=1e-3)
        adam_update(pol, grad, adam, 1e-3, every, horizon=3)
        np.testing.assert_array_equal(pol.theta, theta)
        np.testing.assert_array_equal(adam.m, m)
        np.testing.assert_array_equal(adam.v, v)


def test_controllable_nodes(graph8):
    stp = make_step(graph8.n, -0.01 * np.ones(graph8.n),
                    -0.005 * np.ones(graph8.n), [3, 5, 7])
    assert controllable_nodes(stp.box) == (3, 5, 7)


def test_train_zero_epochs_returns_initial_state(graph8, model8):
    scn = train_scenario(graph8, horizon=8)
    cfg = TrainerConfig(epochs=0, batch_size=8)
    state, log = train(scn, cfg, graph8, model8)
    assert log == []
    assert state.epoch == 0
    np.testing.assert_array_equal(state.mu_lo, np.ones(graph8.n))
    assert state.policy.nodes == (3, 5, 7)
    start = initial_state(scn.p_u, scn.q_u, scn.cost, scn.box, cfg, graph8, model8)
    assert state.policy.theta.tobytes() == start.policy.theta.tobytes()
    assert state.policy.d_scale.tobytes() == start.policy.d_scale.tobytes()
    assert state.policy.k_max == start.policy.k_max
    for name in ("mu_lo", "mu_hi", "lambda_lo", "lambda_hi"):
        assert getattr(state, name).tobytes() == getattr(start, name).tobytes(), name


def test_train_rejects_scenarios_with_different_boxes(graph8, model8):
    scn = train_scenario(graph8, horizon=8)
    box = scn.box
    other = dataclasses.replace(train_scenario(graph8, horizon=8, seed=2),
                                box=dataclasses.replace(box, p_hi=0.5 * box.p_hi))
    cfg = TrainerConfig(epochs=1, batch_size=8)
    with pytest.raises(ValueError, match="BoxLimits"):
        train([scn, other], cfg, graph8, model8)


def test_train_rejects_unstable_policy(graph8, model8):
    scn = train_scenario(graph8, horizon=8)
    # the initial gains k_max/2 are then 1.25x the uniqueness bound, so C3 fails
    with pytest.raises(StabilityError, match="stability"):
        train(scn, TrainerConfig(epochs=1, k_max_margin=2.5), graph8, model8)


def test_train_deterministic(graph8, model8):
    scn = train_scenario(graph8, horizon=24)
    cfg = TrainerConfig(epochs=3, batch_size=8, v_lo=0.9604, v_hi=1.0816)
    s1, log1 = train(scn, cfg, graph8, model8)
    s2, log2 = train(scn, cfg, graph8, model8)
    assert log1 == log2
    for a, b in zip(s1.policy.weights, s2.policy.weights):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(s1.mu_lo, s2.mu_lo)


def test_train_respects_gain_clamp_and_logs(graph8, model8):
    scn = train_scenario(graph8, horizon=24)
    cfg = TrainerConfig(epochs=4, batch_size=8, v_lo=0.9604, v_hi=1.0816)
    state, log = train(scn, cfg, graph8, model8)
    assert len(log) == 4
    assert all(tuple(e) == LOG_COLUMNS for e in log)  # the columns training_log.csv writes
    assert [e["epoch"] for e in log] == [1, 2, 3, 4]
    for e in log:
        assert np.isfinite(e["lagrangian"])
        assert 0.0 <= e["viol_rate_lo"] <= 1.0
        assert e["skipped"] == 0
        assert 0.0 <= e["live_channels"] <= state.policy.n_channels
    assert np.all(state.policy.k >= 0.0)
    assert np.all(state.policy.k <= state.policy.k_max + 1e-15)
    assert np.all(state.mu_lo >= 0.0)


def test_train_gradient_free_mode_runs(graph8, model8):
    scn = train_scenario(graph8, horizon=8)
    cfg = TrainerConfig(mode="gradient_free", epochs=1, batch_size=8,
                        v_lo=0.9604, v_hi=1.0816)
    state, log = train(scn, cfg, graph8, model8)
    assert len(log) == 1
    assert log[0]["skipped"] == 0


def test_train_gradient_free_solves_each_minibatch_as_one_batch(graph8, model8, monkeypatch):
    from localopf import controller, trainer

    calls = {"batch": 0, "single": 0}
    batch_solve, single_solve = trainer.solve_equilibria_batch, controller.solve_equilibrium

    def counted_batch(*args, **kwargs):
        calls["batch"] += 1
        assert args[8].plant == "nonlinear"
        return batch_solve(*args, **kwargs)

    def counted_single(*args, **kwargs):
        calls["single"] += 1
        return single_solve(*args, **kwargs)

    monkeypatch.setattr(trainer, "solve_equilibria_batch", counted_batch)
    monkeypatch.setattr(controller, "solve_equilibrium", counted_single)
    monkeypatch.setattr(trainer, "solve_equilibrium", counted_single, raising=False)
    scn = train_scenario(graph8, horizon=20)
    cfg = TrainerConfig(mode="gradient_free", epochs=2, batch_size=8,
                        v_lo=0.9604, v_hi=1.0816)
    train(scn, cfg, graph8, model8)
    assert calls == {"batch": 2 * 3, "single": 0}  # 20 samples: minibatches of 8, 8, 4


@pytest.mark.parametrize("mode", ["gradient", "gradient_free"])
def test_train_learned_lambda_moves_and_reruns_identically(graph8, model8, mode):
    scn = train_scenario(graph8, horizon=24)
    cfg = TrainerConfig(mode=mode, lambda_mode="learned", epochs=2, batch_size=8,
                        v_lo=0.9604, v_hi=1.0816)
    s1, log1 = train(scn, cfg, graph8, model8)
    s2, log2 = train(scn, cfg, graph8, model8)
    for lam in (s1.lambda_lo, s1.lambda_hi):
        assert np.all(np.isfinite(lam))
        assert np.any(lam != cfg.lambda_value)
    assert log1 == log2
    np.testing.assert_array_equal(s1.policy.theta, s2.policy.theta)
    np.testing.assert_array_equal(s1.lambda_lo, s2.lambda_lo)
    np.testing.assert_array_equal(s1.lambda_hi, s2.lambda_hi)


@pytest.mark.parametrize("mode", ["gradient", "gradient_free"])
def test_train_runs_one_mlp_pass_per_minibatch(graph8, model8, monkeypatch, mode):
    from localopf import controller, trainer

    rows = []

    def counted(*args, **kwargs):
        rows.append(len(args[1]))
        return forward_all(*args, **kwargs)

    monkeypatch.setattr(trainer, "forward_all", counted)
    monkeypatch.setattr(controller, "forward_all", counted)
    scn = train_scenario(graph8, horizon=20)
    cfg = TrainerConfig(mode=mode, epochs=2, batch_size=8, v_lo=0.9604, v_hi=1.0816)
    train(scn, cfg, graph8, model8)
    assert rows == [8, 8, 4] * 2  # one MLP pass per minibatch, none inside Picard or grad


def test_train_writes_every_full_pass_into_one_tape(graph8, model8, monkeypatch):
    """Full minibatches share one caller tape; a short one's pass allocates its own."""
    from localopf import trainer

    passes = []

    def counted(*args, tape_out=None, **kwargs):
        passes.append((len(args[1]), tape_out))
        return forward_all(*args, tape_out=tape_out, **kwargs)

    monkeypatch.setattr(trainer, "forward_all", counted)
    scn = train_scenario(graph8, horizon=20)
    cfg = TrainerConfig(epochs=2, batch_size=8, v_lo=0.9604, v_hi=1.0816)
    train(scn, cfg, graph8, model8)
    assert [rows for rows, _ in passes] == [8, 8, 4] * 2
    tapes = [tape for rows, tape in passes if rows == 8]
    assert tapes[0] is not None and all(tape is tapes[0] for tape in tapes)
    assert all(tape is None for rows, tape in passes if rows == 4)


def _solve(samples, pol, model, graph, cfg):
    """``_solve_batch`` on per-slot samples sharing one cost and box, and its forward pass."""
    p_u, q_u = np.array([s.p_u for s in samples]), np.array([s.q_u for s in samples])
    mlp = forward_all(pol, p_u, q_u, with_tape=True)
    batch, _ = trainer._solve_batch(p_u, q_u, samples[0].cost, samples[0].box, pol, model, graph,
                                    cfg, samples[0].box.midpoint, *mlp,
                                    np.ones(pol.n_channels, dtype=bool))
    return batch, mlp


def test_skipped_row_keeps_tape_aligned(graph8, model8, monkeypatch):
    """A row dropped as not converged leaves offset and gradient on the kept rows.

    The batch drops the tape instead of slicing it by rows, so
    ``grad_policy`` tapes one pass over the kept rows, and the gradient is
    that of a batch of the kept rows alone.
    """
    rng = np.random.default_rng(41)
    pol = init_policy(graph8, [3, 5, 7], arch=(1, 5), k_max=0.1, seed=4)
    samples = [interior_step(graph8, rng, t) for t in range(4)]
    cfg = ControllerConfig(alpha=ALPHA, eq_tol=1e-13, eq_max_iters=20_000)
    solve = trainer.solve_equilibria_batch

    def drop_row_1(*args, **kwargs):
        x, v, conv, iterations = solve(*args, **kwargs)
        conv = conv.copy()
        conv[1] = False
        return x, v, conv, iterations

    monkeypatch.setattr(trainer, "solve_equilibria_batch", drop_row_1)
    batch, _ = _solve(samples, pol, model8, graph8, cfg)
    kept = [samples[i] for i in (0, 2, 3)]
    assert batch.skipped == 1
    np.testing.assert_array_equal(batch.p_u, [s.p_u for s in kept])
    offset = forward_all(pol, batch.p_u, batch.q_u)
    np.testing.assert_allclose(batch.offset, offset, rtol=1e-14, atol=0.0)
    assert batch.tape is None and not batch.taped.any()
    state = _tiny_state(graph8.n, pol, lam=0.02, mu=0.7)
    tr_cfg = _tiny_cfg(beta=0.3)
    passes = []

    def counted(*args, **kwargs):
        passes.append(len(args[1]))
        return forward_all(*args, **kwargs)

    monkeypatch.setattr(trainer, "forward_all", counted)
    grad, live = grad_policy(batch, state, model8, tr_cfg)
    assert passes == [3] and live.all()  # one pass, over the kept rows
    ref, _ = grad_policy(solved_batch(kept, pol, model8, graph8, cfg), state, model8, tr_cfg)
    assert np.any(ref != 0.0)
    np.testing.assert_allclose(grad, ref, atol=1e-10)


def test_converged_batch_shares_the_forward_pass(graph8, model8):
    """With every row converged, the batch holds the solve's offset and tape, not copies."""
    rng = np.random.default_rng(43)
    pol = init_policy(graph8, [3, 5, 7], arch=(2, 5), k_max=0.1, seed=4)
    samples = [interior_step(graph8, rng, t) for t in range(4)]
    cfg = ControllerConfig(alpha=ALPHA, eq_tol=1e-11)
    batch, (offset, tape) = _solve(samples, pol, model8, graph8, cfg)
    assert batch.skipped == 0
    assert batch.offset is offset and batch.tape is tape


@pytest.mark.parametrize("mode", ["gradient", "gradient_free"])
def test_train_rejects_minibatch_without_converged_equilibrium(graph8, model8, mode):
    scn = train_scenario(graph8, horizon=8)
    cfg = TrainerConfig(mode=mode, epochs=1, batch_size=8, eq_max_iters=1)
    with pytest.raises(ValueError, match="no equilibrium of the 8-sample minibatch converged"):
        train(scn, cfg, graph8, model8)


def test_trainer_config_validation():
    for setting in ({"mode": "zeroth"}, {"batch_size": 0}, {"epochs": -1}, {"alpha": 0.0},
                    {"eq_tol": 0.0}, {"zo_step": 0.0}, {"zo_step": -1e-3}, {"k_max_margin": 0.0},
                    {"eq_max_iters": 0}, {"arch": (3, 0)}, {"arch": (-1, 64)},
                    {"sigma_mu": -1.0}, {"lambda_value": -1e-4}, {"sigma_phi": -0.5},
                    {"mu_init": -3.0}, {"sigma_lambda": -0.5, "lambda_mode": "learned"},
                    {"v_lo": 1.2}, {"v_lo": -0.1}, {"v_lo": 0.0}, {"v_hi": 0.9025},
                    {"v_lo": float("nan")}):
        with pytest.raises(ValueError):
            TrainerConfig(**setting)
    TrainerConfig(arch=(0, 64), sigma_mu=0.0, lambda_value=0.0)  # a linear model, no dual step
