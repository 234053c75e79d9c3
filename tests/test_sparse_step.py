"""The channel-sparse training step against dense references.

``forward_all`` can run on a subset of the channels, ``backward_all`` works
only on channels with a nonzero upstream entry, and ``adam_update`` steps
each row by its kind (live, decay-only, settled or inactive) and reports
the rows whose ``theta`` bytes changed.  The dense versions below run every
channel; the sparse ones must match them bit for bit on the rows they work
on, give zero dead gradient rows in a fresh vector, leave every inactive
Adam row unchanged and report exactly the moved rows.  ``reference_train``
is the training loop over every channel in every minibatch; ``train``,
which keeps each channel's MLP term in a store for as long as its
``theta`` row keeps its bits, must match it bit for bit.
"""

import numpy as np
import pytest

from localopf import init_policy, trainer
from localopf.controller import ControllerConfig
from localopf.policy import (
    backward_all,
    channel_runs,
    enforce_conditions,
    forward_all,
    param_views,
)
from localopf.runner import day_settings, load_network, resolve_config, trainer_config
from localopf.scenario import generate_profile
from localopf.trainer import ADAM_BLOCK, AdamState, adam_update, train
from conftest import DATA

SHIPPED_NODES = {  # controllable nodes of config_8bus.yaml and config_37bus.yaml
    "graph8": (3, 5, 7),
    "graph37": (3, 5, 8, 11, 13, 16, 18, 21, 23, 27, 29, 32, 36),
}


def dense_backward_all(params, hs, upstream, v, out=None):
    """Every channel through the full layer loop."""
    C = params.n_channels
    up = np.asarray(upstream, dtype=float).reshape(-1, C)
    v_sel = np.concatenate([v, v], axis=-1)[..., params.columns].reshape(-1, C)
    grad = np.empty_like(params.theta) if out is None else out
    dW, db, dk = param_views(params, grad)
    delta = up.T[..., None]
    last = len(params.weights) - 1
    for l in range(last, -1, -1):
        np.matmul(delta.transpose(0, 2, 1), hs[l], out=dW[l])
        np.sum(delta, axis=1, out=db[l])
        if l:
            w = params.weights[l]
            delta = delta * w[:, 0, None, :] if l == last else delta @ w
            delta *= hs[l] > 0.0
    np.sum(up * v_sel, axis=0, out=dk)
    return grad


def dense_adam_update(theta, grad, adam, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Every element, in ADAM_BLOCK-element blocks."""
    adam.t += 1
    bc1 = 1.0 - beta1**adam.t
    bc2 = 1.0 - beta2**adam.t
    scratch = np.empty(min(ADAM_BLOCK, theta.size))
    for start in range(0, theta.size, ADAM_BLOCK):
        blk = slice(start, start + ADAM_BLOCK)
        g, m, v = grad[blk], adam.m[blk], adam.v[blk]
        tmp = scratch[:g.size]
        np.multiply(g, 1.0 - beta2, out=tmp)
        v *= beta2
        v += np.multiply(tmp, g, out=tmp)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=g)
        np.add(np.sqrt(np.divide(v, bc2, out=tmp), out=tmp), eps, out=tmp)
        np.multiply(np.divide(m, bc1, out=g), lr, out=g)
        theta[blk] -= np.divide(g, tmp, out=g)


def live_sets(C):
    """Channel subsets that are live: none, one, some, a contiguous half, all."""
    return {
        "none": [],
        "one": [C - 2],
        "some": list(range(0, C, 3)),
        "half": list(range(C // 2, C)),
        "all": list(range(C)),
    }


SHIPPED_ARCHS = {  # test id suffix: arch
    "": (3, 64),  # the default
    "-arch2x32": (2, 32),  # the width planned for the 37-bus config
}


@pytest.fixture(params=[(g, sfx) for g in sorted(SHIPPED_NODES) for sfx in SHIPPED_ARCHS],
                ids=lambda p: p[0] + p[1])
def shipped(request):
    name, suffix = request.param
    graph = request.getfixturevalue(name)
    pol = init_policy(graph, SHIPPED_NODES[name], arch=SHIPPED_ARCHS[suffix], k_max=0.2, seed=4)
    rng = np.random.default_rng(9)
    for b in pol.biases:
        b += rng.normal(scale=0.1, size=b.shape)
    pol.d_scale = rng.uniform(0.5, 2.0, pol.n_channels)
    return graph, pol


@pytest.mark.parametrize("S", [1, 6, 7, 32])
@pytest.mark.parametrize("skipped", [False, True])
def test_backward_all_matches_dense_reference(shipped, S, skipped):
    graph, pol = shipped
    C, P, n = pol.n_channels, pol.row_size, graph.n
    rng = np.random.default_rng(S)
    v = rng.uniform(0.9, 1.1, (S + 1, n))
    _, tape = forward_all(pol, rng.normal(size=(S + 1, n)), rng.normal(size=(S + 1, n)),
                          with_tape=True)
    keep = np.arange(S + 1) != (0 if skipped else S)
    if skipped:  # a minibatch whose first sample did not converge keeps copies of the rest
        tape = [h[:, keep] for h in tape]
    else:
        tape = [h[:, :S] for h in tape]
    v = v[keep]
    for name, live in live_sets(C).items():
        upstream = np.zeros((S, C))
        upstream[:, live] = rng.normal(size=(S, len(live)))
        if S > 1 and live:
            upstream[0, live[0]] = 0.0  # a zero entry in a live column
        want = dense_backward_all(pol, tape, upstream, v).reshape(C, P)
        fresh = backward_all(pol, tape, upstream, v).reshape(C, P)
        into = backward_all(pol, tape, upstream, v, out=np.full(C * P, np.nan)).reshape(C, P)
        dead = np.setdiff1d(np.arange(C), live)
        assert np.all(fresh[dead] == 0.0), name
        assert fresh[live].tobytes() == want[live].tobytes(), name
        assert into[live].tobytes() == want[live].tobytes(), name


def test_backward_all_reads_no_tape_without_live_channels(shipped):
    graph, pol = shipped
    grad = backward_all(pol, None, np.zeros((4, pol.n_channels)), np.ones((4, graph.n)))
    assert np.all(grad == 0.0)


def test_adam_update_matches_dense_reference(shipped):
    check_adam_against_dense(shipped[1], walk_active=False)


def test_adam_update_on_active_rows_matches_dense_reference(shipped):
    check_adam_against_dense(shipped[1], walk_active=True)


def check_adam_against_dense(pol, walk_active):
    """Live sets none, one, some, half, then interleaved kinds, then all, as Adam's live rows.

    Walking the live sets, the rows that were live before and are not now
    take the step that reads no gradient, the rows never live are inactive,
    and the gradient's dead rows hold NaN, which Adam must not read.  Row
    C - 2, first live in the second step, and every row but 3, 7, 11, ...
    sit at 1e17, where their steps round to nothing, so from step 5 on such
    a row settles once it takes a decay-only step, and settled rows can
    form runs.  Between ``half`` and ``all``,
    eight steps draw random live sets that spare every third row of the
    lower half, so the rows' kinds (inactive, live, decay-only, settled)
    interleave and Adam's run scan crosses every boundary between two kinds.
    With ``walk_active`` False every row is live in every step instead.
    Adam must report exactly the rows whose theta bytes changed.
    """
    C, P = pol.n_channels, pol.row_size
    rng = np.random.default_rng(11)
    rows = pol.theta.reshape(C, P)
    rows[np.arange(C) % 4 != 3] = 1e17  # row C - 2 among them
    adam = AdamState.zeros_like(pol)
    ref_theta, ref = pol.theta.copy(), AdamState.zeros_like(pol)
    *walk, every = live_sets(C).values()
    spared = np.arange(1, C // 2, 3)  # never live: inactive throughout
    draws = [np.setdiff1d(np.flatnonzero(rng.random(C) < 0.4), spared) for _ in range(8)]
    steps = walk + draws + [every]
    boundaries = set()  # (kind, kind of the next row) pairs before each step, kinds differing
    for t, live in enumerate(steps):
        grad = np.zeros((C, P))
        grad[live] = rng.normal(size=(len(live), P))
        if t == 1:
            grad[0] = -0.0  # a row of negative zeros leaves theta, m and v as they are
        live = np.isin(np.arange(C), live) if walk_active else np.ones(C, dtype=bool)
        kind = np.select([live, adam.settled, adam.active], [1, 3, 2], 0)
        boundaries |= {(a, b) for a, b in zip(kind.tolist(), kind[1:].tolist()) if a != b}
        before = [a.reshape(C, P).copy() for a in (pol.theta, adam.m, adam.v)]
        idle = ~(np.any(grad, axis=1) | np.any(before[1], axis=1) | np.any(before[2], axis=1))
        dense_adam_update(ref_theta, grad.ravel().copy(), ref, lr=1e-3)
        grad[~live] = np.nan
        moved = adam_update(pol, grad.ravel(), adam, 1e-3, live, horizon=len(steps))
        assert adam.t == ref.t
        for got, want, old in zip((pol.theta, adam.m, adam.v), (ref_theta, ref.m, ref.v), before):
            assert got.tobytes() == want.tobytes()
            assert got.reshape(C, P)[idle].tobytes() == old[idle].tobytes()
        changed = np.any(pol.theta.reshape(C, P).view(np.int64) != before[0].view(np.int64), axis=1)
        assert moved.tolist() == changed.tolist()
        assert not changed[C - 2]
    if walk_active:
        assert boundaries == {(a, b) for a in range(4) for b in range(4) if a != b}


def test_adam_update_reports_unchanged_rows_across_blocks(graph37):
    """A step without gradient reports exactly the rows it left bit for bit unchanged.

    At ``arch=(3, 64)`` a row has 8,514 entries, so ``ADAM_BLOCK``-element
    blocks hold parts of several rows and rows 3, 7, 11, ... straddle two
    blocks.  Row 1 moves everywhere, row 3 only in its first entry, the
    last row the first block touches, and row 7 only in its last entry, the
    first row the third block touches; every other row has a step far below
    half an ulp of its theta.
    """
    pol = init_policy(graph37, SHIPPED_NODES["graph37"], arch=(3, 64), k_max=1.0, seed=2)
    C, P = pol.n_channels, pol.row_size
    assert 3 * P < ADAM_BLOCK < 4 * P
    rng = np.random.default_rng(12)
    pol.theta[:] = rng.uniform(1.0, 2.0, C * P)
    m = rng.normal(size=(C, P)) * 1e-200
    m[1] = m[3, 0] = m[7, -1] = 1e-3
    every, none = np.ones(C, dtype=bool), np.zeros(C, dtype=bool)
    adam = AdamState(m=m.ravel(), v=np.full(C * P, 1e-6), active=every, settled=none.copy(), t=9)
    ref, ref_theta = AdamState(adam.m.copy(), adam.v.copy(), every, none, t=9), pol.theta.copy()
    moved = adam_update(pol, np.zeros(C * P), adam, 1e-3, none, horizon=100)
    dense_adam_update(ref_theta, np.zeros(C * P), ref, 1e-3)
    assert pol.theta.tobytes() == ref_theta.tobytes()
    assert adam.m.tobytes() == ref.m.tobytes() and adam.v.tobytes() == ref.v.tobytes()
    assert np.flatnonzero(moved).tolist() == [1, 3, 7]
    assert np.flatnonzero(~adam.settled).tolist() == [1, 3, 7]


def test_settled_rows_stay_put_under_zero_gradients(graph37):
    """Rows that settle keep theta bit for bit through 2,000 zero-gradient steps.

    Random rows hold signed-zero, tiny (some subnormal) and normal theta,
    and m zero or from the subnormal range up to 1e-3.  At lr = 1 a
    subnormal m times lr feeds the step directly, so a row whose step once
    left theta unchanged can move again later as v keeps shrinking while m
    is stuck (row 0 is built so): the guard must refuse such a row, which
    then keeps taking the decay step.  Every step of ``adam_update``,
    settled rows and all, must match the dense step bit for bit and report
    exactly the rows it moved.
    """
    pol = init_policy(graph37, range(1, 13), arch=(1, 4), k_max=1.0, seed=0)
    C, P = pol.n_channels, pol.row_size
    rng = np.random.default_rng(6)
    rows = pol.theta.reshape(C, P)
    kind = rng.integers(0, 3, C)
    rows[...] = rng.normal(size=(C, P))
    rows[kind == 0] *= 0.0  # signed zeros
    tiny = np.finfo(float).tiny * rng.integers(-2**60, 2**60, (C, P)) / 2**40
    rows[kind == 1] = tiny[kind == 1]
    m = rng.normal(size=(C, P)) * rng.choice([0.0, 1e-320, 1e-310, 1e-300, 1e-200, 1e-100, 1e-8,
                                              1e-3], (C, 1)) + 0.0  # m is never -0.0 in Adam
    m[rng.random((C, P)) < 0.2] = 0.0
    v = rng.uniform(0.0, 1.0, (C, P)) * 10.0 ** rng.choice([-30, -10, -2, 0, 2], (C, 1))
    # a row whose step leaves theta unchanged at step 5 and moves it at step 176
    rows[0], m[0], v[0] = 1e-300, 4 * 2.0**-1074, 1e-14
    every, none = np.ones(C, dtype=bool), np.zeros(C, dtype=bool)
    adam = AdamState(m=m.ravel(), v=v.ravel(), active=every, settled=none.copy())
    ref = AdamState(m=adam.m.copy(), v=adam.v.copy(), active=every, settled=none)
    ref_theta = pol.theta.copy()
    settled_at = np.full(C, -1)
    unchanged_at = np.full(C, -1)  # the first step from 5 on that left the row unchanged
    moved_after = none.copy()  # rows that moved again after such a step
    horizon = 2400
    for _ in range(horizon):
        before = pol.theta.reshape(C, P).copy()
        was = adam.settled.copy()
        moved = adam_update(pol, np.zeros(C * P), adam, 1.0, none, horizon)
        dense_adam_update(ref_theta, np.zeros(C * P), ref, 1.0)
        assert pol.theta.tobytes() == ref_theta.tobytes(), adam.t
        assert adam.m.tobytes() == ref.m.tobytes() and adam.v.tobytes() == ref.v.tobytes(), adam.t
        same = np.all(pol.theta.reshape(C, P).view(np.int64) == before.view(np.int64), axis=1)
        assert moved.tolist() == (~same).tolist(), adam.t
        assert np.all(same[adam.settled])
        if adam.t >= 5:
            moved_after |= (unchanged_at > 0) & ~same
            unchanged_at[(unchanged_at < 0) & same] = adam.t
        settled_at[adam.settled & ~was] = adam.t
    settled = adam.settled
    assert np.all(settled_at[settled] < horizon - 2000)  # each then saw 2,000 steps settled
    assert len(set(kind[settled])) == 3  # zero, tiny and normal rows settle
    assert moved_after[0] and not np.any(settled & moved_after)  # refused rows kept stepping


# the channels of the trained 37-bus policy that go live: 9 channels in 5 runs
SHIPPED_37BUS_ACTIVE_MASK = np.isin(np.arange(26), [4, 5, 7, 8, 9, 10, 13, 17, 24])


@pytest.mark.parametrize("S", [1, 7, 32])
def test_forward_all_on_channels_matches_full_pass(shipped, S):
    graph, pol = shipped
    C, n = pol.n_channels, graph.n
    rng = np.random.default_rng(S + 5)
    p_u, q_u = rng.normal(size=(S, n)), rng.normal(size=(S, n))
    u_full, tape_full = forward_all(pol, p_u, q_u, with_tape=True)
    sets = live_sets(C)
    if C == len(SHIPPED_37BUS_ACTIVE_MASK):
        assert len(channel_runs(SHIPPED_37BUS_ACTIVE_MASK)) == 5
        sets["shipped"] = np.flatnonzero(SHIPPED_37BUS_ACTIVE_MASK)
    for name, sel in sets.items():
        channels = np.zeros(C, dtype=bool)
        channels[sel] = True
        u, tape = forward_all(pol, p_u, q_u, with_tape=True, channels=channels)
        cols = pol.columns
        assert u[:, cols[channels]].tobytes() == u_full[:, cols[channels]].tobytes(), name
        assert np.all(np.delete(u, cols[channels], axis=1) == 0.0), name
        assert tape[0].tobytes() == tape_full[0].tobytes(), name
        for h, h_full in zip(tape[1:], tape_full[1:]):
            assert h[channels].tobytes() == h_full[channels].tobytes(), name


@pytest.mark.parametrize("S", [1, 7, 32])
def test_forward_all_into_a_caller_tape_matches_a_fresh_tape(shipped, S):
    """A pass into the caller's buffers writes them, and gives a fresh tape's values."""
    graph, pol = shipped
    C, n = pol.n_channels, graph.n
    rng = np.random.default_rng(S + 6)
    p_u, q_u = rng.normal(size=(S, n)), rng.normal(size=(S, n))
    masks = {"every": None}
    if C == len(SHIPPED_37BUS_ACTIVE_MASK):
        masks["shipped"] = SHIPPED_37BUS_ACTIVE_MASK
    for name, channels in masks.items():
        taped = np.ones(C, dtype=bool) if channels is None else channels
        u_fresh, tape_fresh = forward_all(pol, p_u, q_u, with_tape=True, channels=channels)
        # buffers holding an earlier pass's values, as in training
        mine = [rng.normal(size=(C, S, w.shape[1])) for w in pol.weights[:-1]]
        u, tape = forward_all(pol, p_u, q_u, with_tape=True, channels=channels, tape_out=mine)
        assert u.tobytes() == u_fresh.tobytes(), name
        assert tape[0].tobytes() == tape_fresh[0].tobytes(), name
        assert len(tape) == len(mine) + 1, name
        for h, h_fresh, buf in zip(tape[1:], tape_fresh[1:], mine):
            assert np.shares_memory(h, buf), name
            assert h[taped].tobytes() == h_fresh[taped].tobytes(), name
            assert buf[taped].tobytes() == h_fresh[taped].tobytes(), name


def test_forward_all_rejects_a_tape_of_another_shape(shipped):
    graph, pol = shipped
    C, n, S = pol.n_channels, graph.n, 4
    p_u = q_u = np.ones((S, n))
    good = [np.empty((C, S, w.shape[1])) for w in pol.weights[:-1]]
    for bad in (good[:-1], [np.empty((C, S + 1, h.shape[2])) for h in good]):
        with pytest.raises(ValueError, match="tape buffers of shapes"):
            forward_all(pol, p_u, q_u, with_tape=True, tape_out=bad)


def test_backward_all_on_a_subset_allocates_no_more_than_on_all(shipped):
    """With a strict subset of the channels live, a call peaks no higher than with all live."""
    import tracemalloc

    graph, pol = shipped
    C, n, S = pol.n_channels, graph.n, 32
    rng = np.random.default_rng(23)
    v = rng.uniform(0.9, 1.1, (S, n))
    _, tape = forward_all(pol, rng.normal(size=(S, n)), rng.normal(size=(S, n)), with_tape=True)
    out = np.empty_like(pol.theta)
    peaks = {}
    for name, live in live_sets(C).items():
        upstream = np.zeros((S, C))
        upstream[:, live] = rng.normal(size=(S, len(live)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            backward_all(pol, tape, upstream, v, out=out)
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert all(peak <= peaks["all"] for peak in peaks.values()), peaks


# ---------------------------------------------------------------------------
# Training against the loop over every channel in every minibatch


def reference_train(scenarios, cfg, graph, model):
    """``train`` as a loop that runs the MLP of every channel in every minibatch.

    Each minibatch takes one all-channel ``forward_all`` pass, the dense
    backward and the dense Adam step over every row.  A minibatch with a
    row left out as not converged has no tape, so its gradient tapes one
    more pass over the kept rows, as ``grad_policy`` does.  The other
    parts, the start from ``initial_state`` included, are the trainer's
    own, looked up on the module at call time, so a test that patches one
    patches it here too.
    """
    p_u = np.concatenate([scn.p_u for scn in scenarios])
    q_u = np.concatenate([scn.q_u for scn in scenarios])
    cost, box = scenarios[0].cost, scenarios[0].box
    state = trainer.initial_state(p_u, q_u, cost, box, cfg, graph, model)
    sigma_lambda = cfg.sigma_phi if cfg.sigma_lambda is None else cfg.sigma_lambda
    rng = np.random.default_rng(cfg.seed)
    ctrl_cfg = ControllerConfig(alpha=cfg.alpha, eq_tol=cfg.eq_tol, eq_max_iters=cfg.eq_max_iters,
                                plant="nonlinear" if cfg.mode == "gradient_free" else "linear")
    x_warm = box.midpoint
    log = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(p_u))
        rows = []
        for start in range(0, len(p_u), cfg.batch_size):
            chunk = perm[start:start + cfg.batch_size]
            offset, tape = forward_all(state.policy, p_u[chunk], q_u[chunk], with_tape=True)
            batch, x_warm = trainer._solve_batch(p_u[chunk], q_u[chunk], cost, box, state.policy,
                                                 model, graph, ctrl_cfg, x_warm, offset, tape,
                                                 np.ones(state.policy.n_channels, dtype=bool))
            jac = None
            if cfg.mode == "gradient_free":
                jac = trainer.zo_voltage_jacobian(batch.x[0], batch.p_u[0], batch.q_u[0], model,
                                                  graph, cfg.zo_step)
            upstream = trainer._policy_upstream(batch, state, model, cfg, jac)
            rows.append((trainer.lagrangian(batch, state, cfg), batch.mean_cost,
                         np.mean(batch.v < cfg.v_lo), np.mean(batch.v > cfg.v_hi), batch.skipped,
                         np.count_nonzero(np.any(upstream, axis=0))))
            tape = batch.tape
            if tape is None:
                _, tape = forward_all(state.policy, batch.p_u, batch.q_u, with_tape=True)
            grad = dense_backward_all(state.policy, tape, upstream, batch.v)
            dense_adam_update(state.policy.theta, grad, state.adam_state, cfg.sigma_phi)
            enforce_conditions(state.policy)
            if cfg.lambda_mode == "learned":
                g_lo, g_hi = trainer.grad_lambda(batch, state, cfg)
                state.lambda_lo = state.lambda_lo - sigma_lambda * g_lo
                state.lambda_hi = state.lambda_hi - sigma_lambda * g_hi
            state = trainer.dual_update(state, batch, cfg)
        state.epoch = epoch + 1
        lag, cost_, lo, hi, skipped, live = zip(*rows)
        log.append({
            "epoch": epoch + 1,
            "lagrangian": float(np.mean(lag)),
            "mean_cost": float(np.mean(cost_)),
            "viol_rate_lo": float(np.mean(lo)),
            "viol_rate_hi": float(np.mean(hi)),
            "mu_norm": float(np.linalg.norm(np.concatenate([state.mu_lo, state.mu_hi]))),
            "skipped": sum(skipped),
            "live_channels": float(np.mean(live)),
        })
    return state, log


def shipped_training(config, *overrides):
    """Training days, trainer settings, graph and model of a shipped config with overrides."""
    cfg, feeder_path = resolve_config(DATA / config, overrides)
    graph, model = load_network(feeder_path)
    gen, seeds = day_settings(cfg, "train")
    scenarios = [generate_profile(graph, gen, s) for s in seeds]
    return scenarios, trainer_config(cfg), graph, model


def assert_same_training(got, want):
    (state, log), (ref, ref_log) = got, want
    assert log == ref_log
    for name in ("mu_lo", "mu_hi", "lambda_lo", "lambda_hi"):
        assert getattr(state, name).tobytes() == getattr(ref, name).tobytes(), name
    assert state.policy.theta.tobytes() == ref.policy.theta.tobytes()
    assert state.adam_state.m.tobytes() == ref.adam_state.m.tobytes()
    assert state.adam_state.v.tobytes() == ref.adam_state.v.tobytes()


def count_passes(monkeypatch):
    """Record the ``channels`` argument of every ``forward_all`` call the trainer makes."""
    calls = []

    def counted(*args, channels=None, **kwargs):
        calls.append(channels)
        return forward_all(*args, channels=channels, **kwargs)

    monkeypatch.setattr(trainer, "forward_all", counted)
    return calls


SHIPPED_RUNS = {
    "8bus": ("config_8bus.yaml",),
    "8bus-gradient_free": ("config_8bus.yaml", "trainer.mode=gradient_free"),
    # the offsets lambda move between the logged Lagrangian and the dual step
    "8bus-learned_lambda": ("config_8bus.yaml", "trainer.lambda_mode=learned"),
    # 103 = 3 * 32 + 7: each epoch ends on a 7-row minibatch, whose rows may
    # differ in the last bit from the same rows in a 32-row pass
    "8bus-short_tail": ("config_8bus.yaml", "scenario.horizon_train=103"),
    "37bus-3epochs": ("config_37bus.yaml", "trainer.epochs=3"),
    # every active channel settles in epoch 14 and every row is fresh from epoch 16 on
    "37bus-16epochs": ("config_37bus.yaml", "trainer.epochs=16"),
    # theta never moves, so every stored term stays valid
    "37bus-sigma_phi0": ("config_37bus.yaml", "trainer.epochs=3", "trainer.sigma_phi=0"),
}


def count_tapeless(monkeypatch):
    """Record, per minibatch solve, whether the minibatch ran no channel (it has no tape)."""
    tapeless = []
    solve = trainer._solve_batch

    def counted(*args):
        tapeless.append(args[-2] is None)
        return solve(*args)

    monkeypatch.setattr(trainer, "_solve_batch", counted)
    return tapeless


@pytest.mark.parametrize("run", sorted(SHIPPED_RUNS))
def test_train_matches_reference_loop(monkeypatch, run):
    args = shipped_training(*SHIPPED_RUNS[run])
    want = reference_train(*args)
    calls = count_passes(monkeypatch)
    tapeless = count_tapeless(monkeypatch)
    got = train(*args)
    assert_same_training(got, want)
    assert any(c is not None for c in calls)  # some minibatches ran the active channels alone
    if run == "37bus-16epochs":
        assert any(tapeless)  # some minibatches read every channel from the store


def test_train_forms_every_gradient_in_grad_policy(monkeypatch):
    """One ``grad_policy`` call per minibatch, and Adam steps on the vector it returns."""
    scenarios, cfg, graph, model = shipped_training("config_8bus.yaml")
    grad_policy, adam = trainer.grad_policy, trainer.adam_update
    formed, stepped = [], []

    def counted_grad(*a, **kw):
        grad, live = grad_policy(*a, **kw)
        formed.append(grad)
        return grad, live

    def counted_step(policy, grad, *a, **kw):
        stepped.append(grad)
        return adam(policy, grad, *a, **kw)

    monkeypatch.setattr(trainer, "grad_policy", counted_grad)
    monkeypatch.setattr(trainer, "adam_update", counted_step)
    train(scenarios, cfg, graph, model)
    minibatches = -(-sum(len(scn) for scn in scenarios) // cfg.batch_size)
    assert len(formed) == len(stepped) == cfg.epochs * minibatches
    assert all(g is h for g, h in zip(formed, stepped))


@pytest.mark.parametrize("run", ["8bus", "8bus-short_tail", "37bus-3epochs", "37bus-16epochs"])
def test_stored_rows_equal_fresh_full_pass(monkeypatch, run):
    """Each minibatch's MLP term, stored columns included, is a fresh 32-row pass's, bit for bit."""
    scenarios, cfg, graph, model = shipped_training(*SHIPPED_RUNS[run])
    assert cfg.batch_size == 32
    solve = trainer._solve_batch
    tapeless = []

    def checked(p_u, q_u, cost, box, policy, model, graph, ctrl_cfg, x_warm, offset, tape, taped):
        if len(p_u) == cfg.batch_size:
            assert offset.tobytes() == forward_all(policy, p_u, q_u).tobytes()
        assert (tape is None) == (not taped.any())
        tapeless.append(tape is None)
        return solve(p_u, q_u, cost, box, policy, model, graph, ctrl_cfg, x_warm, offset, tape,
                     taped)

    monkeypatch.setattr(trainer, "_solve_batch", checked)
    calls = count_passes(monkeypatch)
    train(scenarios, cfg, graph, model)
    read = [c for c in calls if c is not None]
    assert read and not all(c.all() for c in read)  # frozen channels were read from the store
    if run == "37bus-16epochs":
        assert any(tapeless)  # and in some minibatches every channel


@pytest.mark.parametrize("drop_row", [False, True])
def test_channel_turning_live_late_gets_its_tape(monkeypatch, drop_row):
    """A frozen channel that first goes live on stored values is taped inside ``grad_policy``.

    ``_policy_upstream`` is patched, in both loops alike, to hold channel c's
    column at zero until minibatch 6 + 5c, so a channel turns live only in a
    later epoch, after its MLP term was stored (on this config only channel
    4 ever does, at minibatch 26).  With ``drop_row`` the
    equilibrium solve also reports row 1 of every minibatch as not
    converged, so no batch has a tape and ``grad_policy`` tapes the kept
    rows of every minibatch with a live channel.
    """
    args = shipped_training("config_8bus.yaml", "trainer.sigma_mu=3.0")
    upstream, solve = trainer._policy_upstream, trainer.solve_equilibria_batch
    events = []  # ("pass", channels), ("live", mask), ("enter"/"leave", None), ("step", None)

    def gated():
        seen = []

        def late(*a, **kw):
            up = upstream(*a, **kw)
            up[:, 6 + 5 * np.arange(up.shape[1]) > len(seen)] = 0.0
            seen.append(None)
            events.append(("live", np.any(up, axis=0)))
            return up
        return late

    def drop_row_1(*a, **kw):
        x, v, conv, iterations = solve(*a, **kw)
        conv = conv.copy()
        conv[1] = False
        return x, v, conv, iterations

    if drop_row:
        monkeypatch.setattr(trainer, "solve_equilibria_batch", drop_row_1)
    monkeypatch.setattr(trainer, "_policy_upstream", gated())
    want = reference_train(*args)
    events.clear()
    monkeypatch.setattr(trainer, "_policy_upstream", gated())
    adam, grad_policy = trainer.adam_update, trainer.grad_policy

    def counted_pass(*a, channels=None, **kw):
        events.append(("pass", channels))
        return forward_all(*a, channels=channels, **kw)

    def counted_step(*a, **kw):
        events.append(("step", None))
        return adam(*a, **kw)

    def counted_grad(*a, **kw):
        events.append(("enter", None))
        result = grad_policy(*a, **kw)
        events.append(("leave", None))
        return result

    monkeypatch.setattr(trainer, "forward_all", counted_pass)
    monkeypatch.setattr(trainer, "adam_update", counted_step)
    monkeypatch.setattr(trainer, "grad_policy", counted_grad)
    got = train(*args)
    assert_same_training(got, want)
    assert got[1][0]["skipped"] == (4 if drop_row else 0)
    # A minibatch's events: its pass, if a channel is stale on its rows, then
    # one grad_policy call holding the upstream and the extra passes, then
    # the Adam step.  Each channel's turn-on minibatch must tape it in an
    # extra pass inside that call.
    turned = np.zeros(got[0].policy.n_channels, dtype=bool)
    ends = [i for i, (kind, _) in enumerate(events) if kind == "step"]
    for i, (a, b) in enumerate(zip([-1] + ends, ends)):
        kinds, masks = zip(*events[a + 1:b])
        at = kinds.index("live")
        assert kinds.count("enter") == 1 and kinds[at - 1] == "enter" and kinds[-1] == "leave"
        extras = masks[at + 1:-1]  # the passes inside grad_policy
        if drop_row:
            assert [m.tolist() for m in extras] == ([masks[at].tolist()] if masks[at].any() else [])
        for c in np.flatnonzero(masks[at] & ~turned):
            assert any(extra[c] for extra in extras), f"channel {c}, minibatch {i}"
        turned |= masks[at]
    assert turned.any()


def test_unmoved_rows_keep_their_stored_terms(monkeypatch):
    """With ``sigma_phi = 0`` theta keeps its bits: from epoch 2 on no minibatch runs a main pass.

    Every row of this config falls in a full minibatch, so after the first
    epoch each MLP term comes from the store; a minibatch makes only the
    extra pass that tapes its live channels, over exactly those.
    """
    scenarios, cfg, graph, model = shipped_training(*SHIPPED_RUNS["37bus-sigma_phi0"])
    rows = sum(len(scn) for scn in scenarios)
    assert rows % cfg.batch_size == 0
    upstream, adam = trainer._policy_upstream, trainer.adam_update
    events = []  # ("pass", channels), ("live", mask) and ("step", None), in call order

    def counted_upstream(*a, **kw):
        up = upstream(*a, **kw)
        events.append(("live", np.any(up, axis=0)))
        return up

    def counted_pass(*a, channels=None, **kw):
        events.append(("pass", channels))
        return forward_all(*a, channels=channels, **kw)

    def counted_step(*a, **kw):
        events.append(("step", None))
        return adam(*a, **kw)

    monkeypatch.setattr(trainer, "_policy_upstream", counted_upstream)
    monkeypatch.setattr(trainer, "forward_all", counted_pass)
    monkeypatch.setattr(trainer, "adam_update", counted_step)
    train(scenarios, cfg, graph, model)
    ends = [i for i, (kind, _) in enumerate(events) if kind == "step"]
    assert len(ends) == cfg.epochs * rows // cfg.batch_size
    extra = 0
    for a, b in list(zip([-1] + ends, ends))[rows // cfg.batch_size:]:
        kinds, masks = zip(*events[a + 1:b])
        at = kinds.index("live")
        assert "pass" not in kinds[:at]  # no main pass
        live = masks[at]
        assert [m.tolist() for m in masks[at + 1:]] == ([live.tolist()] if live.any() else [])
        extra += live.any()
    assert extra
