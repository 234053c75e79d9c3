"""Scenario generation, cost model, and box projection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from localopf import (
    BoxLimits,
    CostModel,
    GeneratorConfig,
    cost_grad,
    cost_value,
    convexity_constants,
    generate_profile,
    project_box,
)
from localopf.scenario import load_scenario, save_scenario, trend_curve


def test_trend_curve_breakpoints_and_interior():
    bp = ((0.0, 0.55), (0.54, 1.0))
    tau = 6.0
    curve = trend_curve(bp, 325, tau)
    assert curve[0] == pytest.approx(0.55)
    # slot at exactly 0.54 h = 324 * 6 s
    assert curve[324] == pytest.approx(1.0)
    assert curve[162] == pytest.approx(0.5 * (0.55 + 1.0))
    assert np.all(np.diff(curve) >= 0)


def test_trend_curve_flat_after_last_breakpoint():
    curve = trend_curve(((0.0, 0.5), (0.1, 1.0)), 200, 6.0)
    assert np.all(curve[61:] == 1.0)


def _gen_cfg(n, horizon=5, **kw):
    base = dict(
        controllable=(3, 5),
        d_def_p_kva=np.full(n, 10.0),
        d_def_q_kva=np.full(n, 6.0),
        horizon=horizon,
    )
    base.update(kw)
    return GeneratorConfig(**base)


def test_generate_profile_deterministic(graph8):
    cfg = _gen_cfg(graph8.n)
    a = generate_profile(graph8, cfg, seed=7)
    b = generate_profile(graph8, cfg, seed=7)
    for sa, sb in zip(a.steps, b.steps):
        np.testing.assert_array_equal(sa.p_u, sb.p_u)
        np.testing.assert_array_equal(sa.q_u, sb.q_u)
    c = generate_profile(graph8, cfg, seed=8)
    assert not np.array_equal(a.steps[0].p_u, c.steps[0].p_u)


def test_generate_profile_structure(graph8):
    cfg = _gen_cfg(graph8.n, horizon=4)
    scn = generate_profile(graph8, cfg, seed=0)
    assert len(scn) == 4
    stp = scn.steps[0]
    # uncontrollable nodes carry the deterministic trend-free default load
    for i in range(graph8.n):
        if (i + 1) not in cfg.controllable:
            assert stp.p_u[i] == pytest.approx(-10.0 / graph8.base_power)
            assert stp.box.p_hi[i] == 0.0
        else:
            assert stp.box.p_hi[i] == pytest.approx(cfg.p_cap_kva / graph8.base_power)
    # loads are demands: negative injections
    assert np.all(stp.p_u < 0)
    assert np.all(stp.q_u < 0)


def test_generate_profile_noise_scaling(graph8):
    """Disturbance scale on kappa is noise_sd/sqrt(d): empirical check."""
    n = graph8.n
    d = 25.0
    cfg = _gen_cfg(n, horizon=4000, d_def_p_kva=np.full(n, d),
                   trend=((0.0, 1.0), (24.0, 1.0)))
    scn = generate_profile(graph8, cfg, seed=3)
    p = np.array([s.p_u[2] for s in scn.steps]) * graph8.base_power
    kappa = -p / d
    assert np.std(kappa) == pytest.approx(cfg.noise_sd / np.sqrt(d), rel=0.1)
    assert np.mean(kappa) == pytest.approx(1.0 + 1.0 / np.sqrt(d), rel=0.05)


def test_generate_profile_rejects_zero_default_load(graph8):
    cfg = _gen_cfg(graph8.n, d_def_p_kva=np.zeros(graph8.n))
    with pytest.raises(ValueError, match="zero default load"):
        generate_profile(graph8, cfg, seed=0)


def test_generate_profile_rejects_bad_controllable(graph8):
    with pytest.raises(ValueError, match="controllable"):
        generate_profile(graph8, _gen_cfg(graph8.n, controllable=(0, 3)), seed=0)
    with pytest.raises(ValueError, match="controllable"):
        generate_profile(graph8, _gen_cfg(graph8.n, controllable=(99,)), seed=0)


def test_scenario_round_trip(graph8, tmp_path):
    scn = generate_profile(graph8, _gen_cfg(graph8.n, horizon=3), seed=5)
    csv_path = tmp_path / "scn.csv"
    side = tmp_path / "scn.yaml"
    save_scenario(scn, csv_path, side)
    back = load_scenario(csv_path, side)
    assert back.seed == scn.seed
    assert len(back) == len(scn)
    for sa, sb in zip(scn.steps, back.steps):
        np.testing.assert_array_equal(sa.p_u, sb.p_u)
        np.testing.assert_array_equal(sa.q_u, sb.q_u)
        np.testing.assert_array_equal(sa.box.hi, sb.box.hi)
        assert sa.tau == sb.tau


def test_load_scenario_rejects_horizon_mismatch(graph8, tmp_path):
    scn = generate_profile(graph8, _gen_cfg(graph8.n, horizon=3), seed=5)
    csv_path, side = tmp_path / "scn.csv", tmp_path / "scn.yaml"
    save_scenario(scn, csv_path, side)
    side.write_text(side.read_text().replace("horizon: 3", "horizon: 4"))
    with pytest.raises(ValueError, match="holds 3 slots"):
        load_scenario(csv_path, side)


# ---------------------------------------------------------------------------
# Cost model


def test_cost_value_and_grad_hand_computed():
    cost = CostModel(np.array([0.1, 0.0]), np.array([0.0, -0.2]), weight=3.0)
    p = np.array([0.3, 0.1])
    q = np.array([0.2, 0.0])
    expected = 3.0 * ((0.2**2 + 0.1**2) + (0.2**2 + 0.2**2))
    assert cost_value(cost, p, q) == pytest.approx(expected, abs=1e-15)
    g = cost_grad(cost, np.concatenate([p, q]))
    np.testing.assert_allclose(
        g, 6.0 * np.array([0.2, 0.1, 0.2, 0.2]), atol=1e-15
    )


def test_cost_grad_rows_match_single_rows():
    """An (S, 2N) batch gives each row's single-row gradient bit for bit."""
    rng = np.random.default_rng(5)
    cost = CostModel(rng.normal(size=37), rng.normal(size=37), weight=1.3)
    x = rng.normal(size=(6, 74))
    rows = cost_grad(cost, x)
    assert rows.shape == (6, 74)
    for k in range(6):
        np.testing.assert_array_equal(rows[k], cost_grad(cost, x[k]))


def test_cost_value_rows_match_single_rows():
    """A (..., N) batch gives each row's single-row value bit for bit."""
    rng = np.random.default_rng(4)
    cost = CostModel(rng.normal(size=37), rng.normal(size=37), weight=1.3)
    p, q = rng.normal(size=(2, 5, 37)), rng.normal(size=(2, 5, 37))
    rows = cost_value(cost, p, q)
    assert rows.shape == (2, 5)
    assert isinstance(cost_value(cost, p[0, 0], q[0, 0]), float)
    for idx in np.ndindex(2, 5):
        assert rows[idx] == cost_value(cost, p[idx], q[idx])
        dp, dq = p[idx] - cost.p_floor, q[idx] - cost.q_floor
        assert rows[idx] == 1.3 * (dp @ dp + dq @ dq)


def test_cost_grad_matches_finite_difference():
    rng = np.random.default_rng(0)
    cost = CostModel(rng.normal(size=3), rng.normal(size=3), weight=1.7)
    p, q = rng.normal(size=3), rng.normal(size=3)
    x = np.concatenate([p, q])
    g = cost_grad(cost, x)
    eps = 1e-6
    for i in range(6):
        e = np.zeros(6)
        e[i] = eps
        xp, xm = x + e, x - e
        fd = (cost_value(cost, xp[:3], xp[3:]) - cost_value(cost, xm[:3], xm[3:])) / (2 * eps)
        assert g[i] == pytest.approx(fd, abs=1e-8)


def test_convexity_constants():
    assert convexity_constants(CostModel(np.zeros(1), np.zeros(1), weight=2.5)) == (5.0, 5.0)


# ---------------------------------------------------------------------------
# Box projection (hypothesis properties)

_box = BoxLimits(np.array([-1.0, 0.0]), np.array([1.0, 0.5]),
                 np.array([0.0, -2.0]), np.array([0.0, 2.0]))
_vec = arrays(np.float64, 4, elements=st.floats(-10, 10, allow_nan=False))


@given(_vec)
def test_project_box_feasible_and_idempotent(x):
    y = project_box(x, _box)
    assert np.all(y >= _box.lo) and np.all(y <= _box.hi)
    np.testing.assert_array_equal(project_box(y, _box), y)


@given(_vec, _vec)
def test_project_box_nonexpansive(x, y):
    px, py = project_box(x, _box), project_box(y, _box)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


_EDGES = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -1.5, 1e-300, -5e-324])


def _edge_box(rng, n_p, n_q):
    """Bounds drawn from signed zeros, infinities and finite values; about a third have lo == hi."""
    a, b = rng.choice(_EDGES[_EDGES == _EDGES], (2, n_p + n_q))  # every edge value but NaN
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    same = rng.random(n_p + n_q) < 0.3
    hi[same] = lo[same]
    return BoxLimits(lo[:n_p], hi[:n_p], lo[n_p:], hi[n_p:])


def _edge_rows(rng, shape):
    """Rows mixing NaN, signed zeros, infinities and tiny values with ordinary numbers."""
    return np.where(rng.random(shape) < 0.5, rng.choice(_EDGES, shape), rng.normal(size=shape))


def test_project_box_matches_clip_bit_for_bit():
    """The two-ufunc projection gives np.clip's bytes at every row length from 1 to 257."""
    rng = np.random.default_rng(41)
    for n in range(1, 258):
        box = _edge_box(rng, n, 0)
        for shape in ((n,), (3, n)):
            x = _edge_rows(rng, shape)
            assert project_box(x, box).tobytes() == np.clip(x, box.lo, box.hi).tobytes(), shape


def test_project_box_matches_clip_on_minibatch_rows():
    """(32, 72) rows, a 37-bus minibatch of (p, q) setpoints, against np.clip."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        box = _edge_box(rng, 36, 36)
        x = _edge_rows(rng, (32, 72))
        assert project_box(x, box).tobytes() == np.clip(x, box.lo, box.hi).tobytes()


def test_box_limits_rejects_inverted():
    with pytest.raises(ValueError):
        BoxLimits(np.array([1.0]), np.array([0.0]), np.zeros(1), np.zeros(1))


def test_box_limits_stack_once_as_read_only_arrays():
    np.testing.assert_array_equal(_box.lo, [-1.0, 0.0, 0.0, -2.0])
    np.testing.assert_array_equal(_box.hi, [1.0, 0.5, 0.0, 2.0])
    assert _box.lo is _box.lo and _box.hi is _box.hi
    with pytest.raises(ValueError):
        _box.lo[0] = 5.0


def test_cost_floor_stacks_once_as_a_read_only_array():
    cost = CostModel(np.array([0.1, -0.2]), np.array([0.3, 0.0]), weight=2.0)
    assert cost.floor is cost.floor
    np.testing.assert_array_equal(cost.floor, np.concatenate([cost.p_floor, cost.q_floor]))
    with pytest.raises(ValueError):
        cost.floor[0] = 5.0
