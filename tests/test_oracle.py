"""Ground-truth OPF solver and the centralized comparator controller."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from localopf import (
    BaselineState,
    InfeasibleError,
    baseline_step,
    build_sensitivities,
    gamma_estimate,
    solve_opf_linear,
)
from localopf.controller import plant_voltage
from localopf.feeder import Line, build_graph
from localopf.oracle import OpfSolution, _nnls
from localopf.powerflow import env_voltage
from conftest import DATA, make_step


def two_bus_setup(r=0.2, x=0.3):
    graph = build_graph(2, [Line(0, 1, r, x)], 1000.0)
    return graph, build_sensitivities(graph)


def grid_search_2bus(model, stp, v_lo, v_hi, coarse=201, refine=3):
    """Brute-force minimizer of the single-node voltage-constrained QP.

    Progressive grid refinement around the incumbent; completely independent
    of the active-set solver.
    """
    p_lo, p_hi = stp.box.p_lo[0], stp.box.p_hi[0]
    q_lo, q_hi = stp.box.q_lo[0], stp.box.q_hi[0]
    v_env = env_voltage(model, stp.p_u, stp.q_u)[0]
    fp, fq = stp.cost.p_floor[0], stp.cost.q_floor[0]
    w = stp.cost.weight
    best = (np.inf, None)
    lo = np.array([p_lo, q_lo])
    hi = np.array([p_hi, q_hi])
    for _ in range(refine):
        ps = np.linspace(lo[0], hi[0], coarse)
        qs = np.linspace(lo[1], hi[1], coarse)
        P, Q = np.meshgrid(ps, qs, indexing="ij")
        V = model.R[0, 0] * P + model.X[0, 0] * Q + v_env
        obj = w * ((P - fp) ** 2 + (Q - fq) ** 2)
        feas = (V >= v_lo) & (V <= v_hi)
        if not feas.any():
            return np.inf, None
        obj = np.where(feas, obj, np.inf)
        i, j = np.unravel_index(np.argmin(obj), obj.shape)
        if obj[i, j] < best[0]:
            best = (float(obj[i, j]), np.array([P[i, j], Q[i, j]]))
        span = (hi - lo) / (coarse - 1)
        center = np.array([P[i, j], Q[i, j]])
        lo = np.maximum(center - 2 * span, [p_lo, q_lo])
        hi = np.minimum(center + 2 * span, [p_hi, q_hi])
    return best


def kkt_witness(sol: OpfSolution, model, stp, v_lo, v_hi):
    """Independent KKT residual: stationarity, feasibility, complementarity."""
    n = model.R.shape[0]
    x, v = sol.x_star, sol.v_star
    grad = 2.0 * stp.cost.weight * (x - stp.cost.floor) + model.A.T @ (sol.mu_hi - sol.mu_lo)
    lo, hi = stp.box.lo, stp.box.hi
    # projected-gradient stationarity for the box
    stat = np.abs(x - np.clip(x - grad, lo, hi)).max()
    feas = max(np.max(v_lo - v, initial=0.0), np.max(v - v_hi, initial=0.0))
    comp = max(np.max(np.abs(sol.mu_lo * (v_lo - v))), np.max(np.abs(sol.mu_hi * (v - v_hi))))
    return max(stat, feas, comp)


def test_two_bus_matches_grid_search():
    graph, model = two_bus_setup()
    # heavy demand drags the voltage below the floor: binding lower limit
    stp = make_step(1, np.array([-0.6]), np.array([-0.4]), [1], p_cap=0.5, q_cap=0.4)
    v_lo, v_hi = 0.81, 1.05
    sol = solve_opf_linear(stp, model, v_lo, v_hi)
    obj_ref, x_ref = grid_search_2bus(model, stp, v_lo, v_hi)
    assert sol.objective == pytest.approx(obj_ref, abs=1e-4)
    # the active voltage limit leaves a flat valley: compare x loosely
    np.testing.assert_allclose(sol.x_star, x_ref, atol=2e-2)
    assert sol.kkt_residual <= 1e-8


def test_two_bus_unconstrained_optimum():
    graph, model = two_bus_setup()
    stp = make_step(1, np.array([-0.01]), np.array([-0.005]), [1])
    sol = solve_opf_linear(stp, model, 0.5, 2.0)  # limits never bind
    np.testing.assert_allclose(sol.x_star, stp.cost.floor, atol=1e-12)
    assert sol.objective == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(sol.mu_lo, 0.0, atol=1e-12)
    np.testing.assert_allclose(sol.mu_hi, 0.0, atol=1e-12)


@pytest.mark.parametrize("fixture", ["graph8", "graph37"])
def test_kkt_certificate_random_instances(fixture, request):
    graph = request.getfixturevalue(fixture)
    model = build_sensitivities(graph)
    n = graph.n
    rng = np.random.default_rng(60)
    ctrl = [3, 5, 7]
    for _ in range(5):
        stp = make_step(n, -rng.uniform(0.002, 0.01, n), -rng.uniform(0.001, 0.006, n),
                        ctrl, p_cap=0.3, q_cap=0.2)
        v_lo, v_hi = 0.9604, 1.0201  # 0.98^2, 1.01^2: often binding
        sol = solve_opf_linear(stp, model, v_lo, v_hi)
        assert sol.kkt_residual <= 1e-8
        assert kkt_witness(sol, model, stp, v_lo, v_hi) <= 1e-6
        assert np.all(sol.mu_lo >= 0) and np.all(sol.mu_hi >= 0)


@pytest.mark.parametrize("fixture", ["graph8", "graph37"])
def test_pinned_coordinates_exact_and_kkt_tight(fixture, request):
    graph = request.getfixturevalue(fixture)
    model = build_sensitivities(graph)
    n = graph.n
    rng = np.random.default_rng(61)
    for _ in range(5):
        stp = make_step(n, -rng.uniform(0.002, 0.01, n), -rng.uniform(0.001, 0.006, n),
                        [3, 5, 7], p_cap=0.3, q_cap=0.2)
        v_lo, v_hi = 0.9604, 1.0201
        sol = solve_opf_linear(stp, model, v_lo, v_hi)
        lo, hi = stp.box.lo, stp.box.hi
        pinned = lo == hi
        np.testing.assert_array_equal(sol.x_star[pinned], lo[pinned])
        assert kkt_witness(sol, model, stp, v_lo, v_hi) <= 1e-12


def nnls_brute_force(E, f):
    """Best nonnegative least-squares fit over every column support."""
    best_res, best_u = np.linalg.norm(f), np.zeros(E.shape[1])
    for size in range(1, E.shape[1] + 1):
        for support in itertools.combinations(range(E.shape[1]), size):
            cols = list(support)
            sub = np.linalg.lstsq(E[:, cols], f, rcond=None)[0]
            if np.all(sub >= 0.0):
                u = np.zeros(E.shape[1])
                u[cols] = sub
                res = np.linalg.norm(E @ u - f)
                if res < best_res:
                    best_res, best_u = res, u
    return best_u


def test_nnls_matches_brute_force():
    rng = np.random.default_rng(62)
    for _ in range(60):
        rows, m = rng.integers(1, 8), rng.integers(1, 8)
        E = rng.normal(size=(rows, m))
        f = rng.normal(size=rows)
        u, additions = _nnls(E, f)
        ref = nnls_brute_force(E, f)
        assert np.all(u >= 0.0)
        assert additions >= np.count_nonzero(u)
        # the fitted point E u is unique even where u is not
        np.testing.assert_allclose(E @ u, E @ ref, atol=1e-10)


def test_infeasible_limits_raise():
    graph, model = two_bus_setup()
    stp = make_step(1, np.array([-0.2]), np.array([-0.1]), [1], p_cap=0.05, q_cap=0.05)
    # attainable v is [0.86, 0.91]: first the floor, then the ceiling is unreachable
    for v_lo, v_hi in ((1.5, 1.6), (0.4, 0.5)):
        with pytest.raises(InfeasibleError):
            solve_opf_linear(stp, model, v_lo, v_hi)


def test_oracle_loads_no_scipy():
    """Importing scipy would add tens of MB to every run's peak memory."""
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import localopf",
        "from localopf import BoxLimits, CostModel, ScenarioStep",
        f"graph = localopf.load_feeder({str(DATA / 'feeder_8bus.txt')!r})",
        "model = localopf.build_sensitivities(graph)",
        "z, cap = np.zeros(graph.n), np.full(graph.n, 0.2)",
        "stp = ScenarioStep(0, 6.0, np.full(graph.n, -0.05), np.full(graph.n, -0.03),",
        "                   CostModel(z, z), BoxLimits(z, cap, z, cap))",
        "localopf.solve_opf_linear(stp, model, 0.9604, 1.0201)",
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(DATA.parents[1]), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_gamma_estimate():
    mk = lambda x: OpfSolution(x_star=np.asarray(x, dtype=float), v_star=np.zeros(1),
                               objective=0.0, kkt_residual=0.0, iterations=1)
    sols = [mk([0.0, 0.0]), mk([3.0, 4.0]), mk([3.0, 5.0])]
    assert gamma_estimate(sols) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        gamma_estimate([mk([0.0, 0.0])])


def test_baseline_step_hand_computed(graph8, model8):
    n = graph8.n
    stp = make_step(n, -0.005 * np.ones(n), -0.003 * np.ones(n), [3, 5, 7])
    x0 = stp.box.midpoint
    st = BaselineState(x=x0, mu_lo=np.zeros(n), mu_hi=np.zeros(n),
                       alpha_b=0.3, sigma_b=0.1)
    # generous limits: duals stay at zero, update is plain projected descent
    v_hat = plant_voltage(x0, stp.p_u, stp.q_u, model8, graph8, "nonlinear")
    new = baseline_step(st, v_hat, stp, model8, np.full(n, 0.25), np.full(n, 4.0))
    np.testing.assert_array_equal(new.mu_lo, 0.0)
    np.testing.assert_array_equal(new.mu_hi, 0.0)
    expected = np.clip(x0 - 0.3 * 2.0 * (x0 - stp.cost.floor), stp.box.lo, stp.box.hi)
    np.testing.assert_allclose(new.x, expected, atol=1e-15)


def test_baseline_step_duals_nonnegative_and_react(graph8, model8):
    n = graph8.n
    stp = make_step(n, -0.05 * np.ones(n), -0.03 * np.ones(n), [3, 5, 7])
    st = BaselineState(x=stp.box.midpoint, mu_lo=np.zeros(n), mu_hi=np.zeros(n),
                       alpha_b=0.3, sigma_b=0.1)
    v_hat = plant_voltage(st.x, stp.p_u, stp.q_u, model8, graph8, "nonlinear")
    new = baseline_step(st, v_hat, stp, model8, np.full(n, 1.0199), np.full(n, 1.02))
    assert np.all(new.mu_lo >= 0.0) and np.all(new.mu_hi >= 0.0)
    assert np.any(new.mu_hi > 0.0)  # tight ceiling must trigger ascent somewhere
