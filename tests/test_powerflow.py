"""Exact power-flow correctness against independent oracles.

The 2-bus oracle is a polar Newton-Raphson on the bus admittance matrix --
a completely different formulation from the library's branch-flow sweep.
``loop_sweep`` is the same sweep written bus by bus over the tree; it is the
reference for the library's matrix form.  ``matrix_sweep`` is the library's
one-product sweep with its per-iteration checks written as
``np.any``/``np.max`` reductions; the library's sweep must agree with it bit
for bit.  ``three_product_sweep`` is the sweep as three products with the
root-path incidence per pass; the library must agree with it to rounding.
"""

import numpy as np
import pytest

from localopf import (
    InjectionState,
    PowerFlowSolution,
    VoltageCollapseError,
    env_voltage,
    plant_voltage,
    residual,
    solve_nonlinear,
)
from localopf.feeder import Line, build_graph
from conftest import parents_first


def newton_raphson_2bus(r, x, p_net, q_net, v0=1.0, tol=1e-12):
    """Polar NR for one PQ bus behind one line; returns squared |V1|."""
    y = 1.0 / complex(r, x)
    g, b = y.real, y.imag
    V, th = np.sqrt(v0), 0.0
    V0 = np.sqrt(v0)
    for _ in range(100):
        # injected power at bus 1 given state
        p_calc = V * V * g - V * V0 * (g * np.cos(th) + b * np.sin(th))
        q_calc = -V * V * b - V * V0 * (g * np.sin(th) - b * np.cos(th))
        dp = p_net - p_calc
        dq = q_net - q_calc
        if max(abs(dp), abs(dq)) < tol:
            break
        # jacobian entries d(p,q)/d(th,V)
        dp_dth = -V * V0 * (-g * np.sin(th) + b * np.cos(th))
        dp_dV = 2 * V * g - V0 * (g * np.cos(th) + b * np.sin(th))
        dq_dth = -V * V0 * (g * np.cos(th) + b * np.sin(th))
        dq_dV = -2 * V * b - V0 * (g * np.sin(th) - b * np.cos(th))
        J = np.array([[dp_dth, dp_dV], [dq_dth, dq_dV]])
        step = np.linalg.solve(J, np.array([dp, dq]))
        th += step[0]
        V += step[1]
    return V * V


def loop_sweep(graph, s, v0, tol=1e-10, max_iters=500):
    """Bus-by-bus backward/forward sweep on one injection row; returns (v, P, Q, ell)."""
    n = graph.n
    p_net = s.p + s.p_u
    q_net = s.q + s.q_u
    r, x, parent = graph.r, graph.x, graph.parent
    z2 = r * r + x * x
    order = parents_first(graph)
    v = np.full(n, v0)
    ell = np.zeros(n)
    P = np.zeros(n)
    Q = np.zeros(n)
    for sweep in range(max_iters):
        # backward: leaves to root
        P[:] = 0.0
        Q[:] = 0.0
        for j in reversed(order):
            jj = j - 1
            P[jj] += -p_net[jj] + r[jj] * ell[jj]
            Q[jj] += -q_net[jj] + x[jj] * ell[jj]
            if parent[jj] != 0:
                P[parent[jj] - 1] += P[jj]
                Q[parent[jj] - 1] += Q[jj]
        # forward: root to leaves
        v_new = np.empty(n)
        for j in order:
            jj = j - 1
            v_up = v0 if parent[jj] == 0 else v_new[parent[jj] - 1]
            v_new[jj] = v_up - 2.0 * (r[jj] * P[jj] + x[jj] * Q[jj]) + z2[jj] * ell[jj]
        v_send = np.where(parent == 0, v0, v_new[np.maximum(parent - 1, 0)])
        ell = (P * P + Q * Q) / v_send
        delta = np.max(np.abs(v_new - v))
        v = v_new
        if delta < tol and sweep > 0:
            return v, P, Q, ell
    raise AssertionError("reference sweep did not converge")


def matrix_sweep(graph, s, v0, tol=1e-10, max_iters=500):
    """The library's one-product sweep with ``np.any``/``np.max`` checks; returns a solution."""
    n = graph.n
    b = -np.concatenate([s.p + s.p_u, s.q + s.q_u], axis=-1) @ graph.B
    b[..., 2 * n:] += v0
    v = np.full(s.p.shape, float(v0))
    P = Q = ell = np.zeros(s.p.shape)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        out = ell @ graph.W + b
        v_new = out[..., 2 * n:3 * n]
        if np.any(v_new <= 0.0):
            bus = np.argwhere(v_new <= 0.0)[0][-1] + 1
            raise VoltageCollapseError(f"voltage collapse at bus {bus} on iteration {iterations}")
        P, Q = out[..., :n], out[..., n:2 * n]
        ell = (P * P + Q * Q) / out[..., 3 * n:]
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta < tol and iterations > 1:
            converged = True
            break
    return PowerFlowSolution(v=v, P=P, Q=Q, ell=ell, iterations=iterations, converged=converged)


def three_product_sweep(graph, s, v0, tol=1e-10, start=None, max_iters=500):
    """The sweep as three products with ``path`` per pass (flows P, Q, then voltages), from
    ``parent``, ``r`` and ``x`` alone; returns a solution."""
    neg_p = -(s.p + s.p_u)
    neg_q = -(s.q + s.q_u)
    r, x, path, parent = graph.r, graph.x, graph.path, graph.parent
    z2 = r * r + x * x
    v = np.full(neg_p.shape, float(v0))
    P = Q = ell = np.zeros(neg_p.shape)
    if start is not None:
        v = np.broadcast_to(start.v, neg_p.shape)
        ell = np.broadcast_to(start.ell, neg_p.shape)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        P = (neg_p + r * ell) @ path.T
        Q = (neg_q + x * ell) @ path.T
        v_new = v0 - (2.0 * (r * P + x * Q) - z2 * ell) @ path
        if np.any(v_new <= 0.0):
            bus = np.argwhere(v_new <= 0.0)[0][-1] + 1
            raise VoltageCollapseError(f"voltage collapse at bus {bus} on iteration {iterations}")
        v_send = v_new[..., np.maximum(parent - 1, 0)]
        v_send[..., parent == 0] = v0
        ell = (P * P + Q * Q) / v_send
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta < tol and (iterations > 1 or start is not None):
            converged = True
            break
    return PowerFlowSolution(v=v, P=P, Q=Q, ell=ell, iterations=iterations, converged=converged)


def assert_agrees_with_three_products(graph, s, v0=1.0, start=None):
    """The library's sweep and ``three_product_sweep`` run the same passes to the same
    result, within 1e-12 relative."""
    want = three_product_sweep(graph, s, v0, start=start)
    got = solve_nonlinear(graph, s, v0, start=start)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    for name in ("v", "P", "Q", "ell"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=0.0)
    return got


def _random_rows(n, rng, rows=()):
    """Controllable generation and uncontrollable load of the tests' usual magnitudes."""
    return InjectionState(p=rng.uniform(0.0, 0.5, (*rows, n)),
                          q=rng.uniform(0.0, 0.3, (*rows, n)),
                          p_u=-rng.uniform(0.0, 0.02, (*rows, n)),
                          q_u=-rng.uniform(0.0, 0.012, (*rows, n)))


def two_bus_graph(r=0.05, x=0.1):
    return build_graph(2, [Line(0, 1, r, x)], 1000.0)


@pytest.mark.parametrize("p_net,q_net", [
    (-0.3, -0.1), (-0.05, -0.02), (0.2, 0.1), (-0.5, 0.05),
])
def test_two_bus_matches_newton_raphson(p_net, q_net):
    g = two_bus_graph()
    s = InjectionState(p=np.array([p_net]), q=np.array([q_net]),
                       p_u=np.zeros(1), q_u=np.zeros(1))
    sol = solve_nonlinear(g, s, 1.0)
    assert sol.converged
    v_oracle = newton_raphson_2bus(0.05, 0.1, p_net, q_net)
    assert sol.v[0] == pytest.approx(v_oracle, abs=1e-8)


def test_lossless_first_pass_with_no_drop_is_not_the_last():
    """With r = x and p_net = -q_net the lossless pass leaves v at v0 exactly; the losses
    it left out still move the flows, so the sweep goes on."""
    g = two_bus_graph(r=0.015625, x=0.015625)
    s = InjectionState(p=np.array([0.015625]), q=np.zeros(1), p_u=np.zeros(1),
                       q_u=np.array([-0.015625]))
    sol = solve_nonlinear(g, s, 1.0)
    assert sol.converged and sol.iterations > 1
    assert residual(g, s, sol, 1.0) <= 1e-12
    assert sol.v[0] == pytest.approx(newton_raphson_2bus(0.015625, 0.015625, 0.015625,
                                                         -0.015625), abs=1e-12)


@pytest.mark.parametrize("fixture", ["graph8", "graph37"])
def test_residual_small_on_random_injections(fixture, request):
    graph = request.getfixturevalue(fixture)
    n = graph.n
    rng = np.random.default_rng(42)
    for _ in range(25):
        p = rng.uniform(0.0, 0.5, n)
        q = rng.uniform(0.0, 0.3, n)
        p_u = -rng.uniform(0.0, 0.02, n)
        q_u = -rng.uniform(0.0, 0.012, n)
        s = InjectionState(p=p, q=q, p_u=p_u, q_u=q_u)
        sol = solve_nonlinear(graph, s, 1.0)
        assert sol.converged
        assert residual(graph, s, sol, 1.0) <= 1e-8


def test_flat_start_zero_injection(graph8):
    n = graph8.n
    s = InjectionState(p=np.zeros(n), q=np.zeros(n), p_u=np.zeros(n), q_u=np.zeros(n))
    sol = solve_nonlinear(graph8, s, 1.0)
    assert sol.converged
    np.testing.assert_allclose(sol.v, 1.0, atol=1e-14)
    np.testing.assert_allclose(sol.ell, 0.0, atol=1e-14)


def test_linear_close_to_nonlinear_at_light_load(graph37, model37):
    n = graph37.n
    rng = np.random.default_rng(3)
    s = InjectionState(p=np.zeros(n), q=np.zeros(n),
                       p_u=-rng.uniform(0, 2e-4, n), q_u=-rng.uniform(0, 1e-4, n))
    v_nl = solve_nonlinear(graph37, s, 1.0).v
    v_lin = plant_voltage(np.zeros(2 * n), s.p_u, s.q_u, model37, graph37, "linear")
    # loss terms are second order in the flows
    assert np.max(np.abs(v_nl - v_lin)) < 1e-6


def test_linear_is_affine(graph37, model37):
    n = model37.R.shape[0]
    rng = np.random.default_rng(11)
    p, q = rng.normal(size=n) * 0.01, rng.normal(size=n) * 0.01
    p_u, q_u = rng.normal(size=n) * 0.01, rng.normal(size=n) * 0.01
    x = np.concatenate([p, q])
    expected = model37.A @ x + env_voltage(model37, p_u, q_u)
    np.testing.assert_allclose(plant_voltage(x, p_u, q_u, model37, graph37, "linear"), expected,
                               atol=1e-15)


@pytest.mark.parametrize("feeder", [8, 37])
def test_env_voltage_row_is_matrix_vector_form(feeder, request):
    """On a 1-D row, ``p_u @ R.T`` gives the bits of ``R @ p_u``."""
    model = request.getfixturevalue(f"model{feeder}")
    n = model.R.shape[0]
    rng = np.random.default_rng(12)
    for _ in range(50):
        p_u, q_u = -rng.uniform(0.0, 0.02, n), -rng.uniform(0.0, 0.012, n)
        np.testing.assert_array_equal(env_voltage(model, p_u, q_u),
                                      model.v0 + model.R @ p_u + model.X @ q_u)


def test_voltage_collapse_heavy_load():
    g = two_bus_graph(r=0.3, x=0.6)
    s = InjectionState(p=np.zeros(1), q=np.zeros(1),
                       p_u=np.array([-5.0]), q_u=np.array([-3.0]))
    with pytest.raises(VoltageCollapseError):
        solve_nonlinear(g, s, 1.0)


def test_injection_state_validation():
    with pytest.raises(ValueError):
        InjectionState(p=np.zeros(2), q=np.zeros(3), p_u=np.zeros(2), q_u=np.zeros(2))
    with pytest.raises(ValueError):
        InjectionState(p=np.array([np.nan]), q=np.zeros(1),
                       p_u=np.zeros(1), q_u=np.zeros(1))


@pytest.mark.parametrize("bad,first", [(("q", "q_u"), "q"), (("p_u",), "p_u"),
                                       (("p", "q", "p_u", "q_u"), "p"), (("q_u",), "q_u")])
@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_injection_state_names_first_nonfinite_array(bad, first, value):
    arrays = {name: np.zeros((2, 3)) for name in ("p", "q", "p_u", "q_u")}
    for name in bad:
        arrays[name][1, 2] = value
    with pytest.raises(ValueError, match=f"^{first} contains non-finite entries$"):
        InjectionState(**arrays)


@pytest.mark.parametrize("fixture", ["graph8", "graph37"])
def test_matrix_sweep_matches_loop_reference(fixture, request):
    graph = request.getfixturevalue(fixture)
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = _random_rows(graph.n, rng)
        sol = solve_nonlinear(graph, s, 1.0)
        assert sol.converged
        for got, want in zip((sol.v, sol.P, sol.Q, sol.ell), loop_sweep(graph, s, 1.0)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("fixture", ["graph8", "graph37"])
def test_batched_rows_match_single_solves(fixture, request):
    graph = request.getfixturevalue(fixture)
    s = _random_rows(graph.n, np.random.default_rng(8), rows=(12,))
    sol = solve_nonlinear(graph, s, 1.0)
    assert sol.converged and isinstance(sol.converged, bool)
    assert isinstance(sol.iterations, int)
    assert sol.v.shape == sol.P.shape == sol.ell.shape == (12, graph.n)
    rows = []
    for k in range(12):
        row = InjectionState(p=s.p[k], q=s.q[k], p_u=s.p_u[k], q_u=s.q_u[k])
        single = solve_nonlinear(graph, row, 1.0)
        np.testing.assert_allclose(sol.v[k], single.v, rtol=0.0, atol=1e-9)
        batched = PowerFlowSolution(v=sol.v[k], P=sol.P[k], Q=sol.Q[k], ell=sol.ell[k],
                                    iterations=sol.iterations, converged=sol.converged)
        rows.append(residual(graph, row, batched, 1.0))
        assert rows[-1] <= 1e-8
    # the residual of the whole batch is its worst row's
    assert residual(graph, s, sol, 1.0) == pytest.approx(max(rows), rel=0.0, abs=1e-14)


def test_batch_with_one_collapsing_row_raises():
    g = two_bus_graph(r=0.3, x=0.6)
    s = InjectionState(p=np.zeros((3, 1)), q=np.zeros((3, 1)),
                       p_u=np.array([[-0.1], [-5.0], [-0.2]]),
                       q_u=np.array([[-0.05], [-3.0], [-0.1]]))
    with pytest.raises(VoltageCollapseError):
        solve_nonlinear(g, s, 1.0)


def test_injection_state_accepts_rows_and_rejects_mismatched_shapes():
    s = InjectionState(p=np.zeros((4, 3)), q=np.zeros((4, 3)),
                       p_u=np.zeros((4, 3)), q_u=np.zeros((4, 3)))
    assert s.p_u.shape == (4, 3)
    with pytest.raises(ValueError):
        InjectionState(p=np.zeros((4, 3)), q=np.zeros((4, 3)),
                       p_u=np.zeros(3), q_u=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        InjectionState(p=np.zeros((4, 3)), q=np.zeros((2, 3)),
                       p_u=np.zeros((4, 3)), q_u=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        InjectionState(p=np.float64(0.0), q=np.float64(0.0),
                       p_u=np.float64(0.0), q_u=np.float64(0.0))


@pytest.mark.parametrize("rows", [(), (2,), (32,), (2, 3)])
@pytest.mark.parametrize("fixture", ["graph8", "graph37"])
def test_sweep_is_bit_identical_to_reference_loop(fixture, rows, request):
    graph = request.getfixturevalue(fixture)
    s = _random_rows(graph.n, np.random.default_rng(11), rows=rows)
    got, want = solve_nonlinear(graph, s, 1.0), matrix_sweep(graph, s, 1.0)
    assert got.converged == want.converged is True
    assert got.iterations == want.iterations
    for name in ("v", "P", "Q", "ell"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_collapse_names_the_same_bus_as_reference_loop(graph8):
    rng = np.random.default_rng(12)
    s = _random_rows(graph8.n, rng, rows=(3,))
    s.p_u[1, 4:] = -2.0  # one row's far buses collapse
    messages = []
    for solve in (solve_nonlinear, matrix_sweep, three_product_sweep):
        with pytest.raises(VoltageCollapseError) as err:
            solve(graph8, s, 1.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]
    assert messages[0].startswith("voltage collapse at bus ")


def _nearby(s, rng, scale=1e-3):
    """Injections moved by up to ``scale`` per entry, like consecutive Picard iterates."""
    return InjectionState(p=s.p + rng.uniform(-scale, scale, s.p.shape),
                          q=s.q + rng.uniform(-scale, scale, s.q.shape), p_u=s.p_u, q_u=s.q_u)


@pytest.mark.parametrize("rows", [(), (2,), (32,), (2, 3)])
@pytest.mark.parametrize("fixture", ["graph8", "graph37"])
def test_sweep_agrees_with_three_product_form(fixture, rows, request):
    graph = request.getfixturevalue(fixture)
    rng = np.random.default_rng(16)
    s = _random_rows(graph.n, rng, rows=rows)
    cold = assert_agrees_with_three_products(graph, s)
    assert cold.converged
    warm = assert_agrees_with_three_products(graph, _nearby(s, rng), start=cold)
    assert warm.converged and warm.iterations < cold.iterations


@pytest.mark.parametrize("rows", [(), (2,), (2, 3)])
@pytest.mark.parametrize("fixture", ["graph8", "graph37"])
def test_warm_start_matches_cold_start(fixture, rows, request):
    graph = request.getfixturevalue(fixture)
    rng = np.random.default_rng(13)
    s = _random_rows(graph.n, rng, rows=rows)
    near = _nearby(s, rng)
    cold = solve_nonlinear(graph, near, 1.0)
    warm = solve_nonlinear(graph, near, 1.0, start=solve_nonlinear(graph, s, 1.0))
    assert warm.converged and cold.converged
    assert warm.iterations < cold.iterations
    np.testing.assert_allclose(warm.v, cold.v, rtol=0.0, atol=1e-9)
    for name in ("P", "Q", "ell"):  # up to ~40 pu at these injections on the 37-bus feeder
        assert getattr(warm, name).shape == getattr(cold, name).shape
        np.testing.assert_allclose(getattr(warm, name), getattr(cold, name), rtol=1e-9, atol=1e-9)


def test_warm_start_that_does_not_broadcast_raises(graph8, graph37):
    rng = np.random.default_rng(15)
    s = _random_rows(graph8.n, rng, rows=(2,))
    other_feeder = solve_nonlinear(graph37, _random_rows(graph37.n, rng), 1.0)
    more_rows = solve_nonlinear(graph8, _random_rows(graph8.n, rng, rows=(3,)), 1.0)
    one_row = solve_nonlinear(graph8, _random_rows(graph8.n, rng), 1.0)
    for start in (other_feeder, more_rows, one_row):
        with pytest.raises(ValueError, match=r"start of shape \(.+\) does not match the "
                                             rf"injections' shape \(2, {graph8.n}\)"):
            solve_nonlinear(graph8, s, 1.0, start=start)
