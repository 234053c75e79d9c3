"""Topology validation and sensitivity-matrix correctness.

The R/X oracle here is deliberately independent of the library's path-matrix
product: it intersects explicit root-path line sets per node pair, found by
walking ``parent`` up from each bus.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localopf import (
    FeederError,
    FeederGraph,
    InjectionState,
    build_sensitivities,
    load_feeder,
    residual,
    solve_nonlinear,
)
from localopf.feeder import Line, build_graph, spectral_norm
from conftest import DATA, parents_first, path_to_root
from test_powerflow import assert_agrees_with_three_products


def path_intersection_oracle(graph):
    """R[i][j] = 2 * sum of r over lines common to both root paths."""
    n = graph.n
    paths = {}
    for node in range(1, n + 1):
        paths[node] = {(ln.from_bus, ln.to_bus): ln for ln in path_to_root(graph, node)}
    R = np.zeros((n, n))
    X = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            common = set(paths[i]) & set(paths[j])
            R[i - 1, j - 1] = 2.0 * sum(paths[i][key].r for key in common)
            X[i - 1, j - 1] = 2.0 * sum(paths[i][key].x for key in common)
    return R, X


@pytest.mark.parametrize("fixture", ["graph8", "graph37"])
def test_sensitivities_match_path_oracle(fixture, request):
    graph = request.getfixturevalue(fixture)
    model = build_sensitivities(graph)
    R, X = path_intersection_oracle(graph)
    # summation order differs between oracle and library: allow one ulp
    np.testing.assert_allclose(model.R, R, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(model.X, X, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("fixture", ["graph8", "graph37"])
def test_sensitivities_symmetric_positive_definite(fixture, request):
    graph = request.getfixturevalue(fixture)
    model = build_sensitivities(graph)
    assert np.array_equal(model.R, model.R.T)
    assert np.array_equal(model.X, model.X.T)
    # Cholesky succeeds only for positive definite matrices
    np.linalg.cholesky(model.R)
    np.linalg.cholesky(model.X)


def test_spectral_norm_matches_svd(model37):
    assert model37.a_norm == pytest.approx(np.linalg.svd(model37.A, compute_uv=False)[0],
                                           rel=1e-9)


@pytest.mark.parametrize("fixture", ["graph8", "graph37"])
def test_path_marks_root_path_lines(fixture, request):
    graph = request.getfixturevalue(fixture)
    assert graph.path.shape == (graph.n, graph.n)
    assert set(np.unique(graph.path)) == {0.0, 1.0}
    for j in range(1, graph.n + 1):
        on_path = {ln.to_bus - 1 for ln in path_to_root(graph, j)}
        assert set(np.flatnonzero(graph.path[:, j - 1])) == on_path


def test_lines_indexed_by_child(graph8):
    """The file's line ``f,t`` lands in slot ``t - 1`` of parent, r and x (the 8-bus file
    lists the parent end first)."""
    rows = [ln.split(",") for ln in (DATA / "feeder_8bus.txt").read_text().splitlines()
            if ln.startswith("line,")]
    assert len(rows) == graph8.n
    for _, f, t, r, x, _ in rows:
        child = int(t) - 1
        assert (graph8.parent[child], graph8.r[child], graph8.x[child]) == (int(f), float(r),
                                                                               float(x))


def test_parents_first_order(graph37):
    seen = {0}
    for bus in parents_first(graph37):
        assert graph37.parent[bus - 1] in seen
        seen.add(bus)
    assert len(seen) == graph37.n + 1


def test_path_to_root_depth(graph8):
    # bus 7 hangs off the 0-1-2-3 trunk in the shipped 8-bus feeder
    path = path_to_root(graph8, 7)
    assert [ln.to_bus for ln in path] == [7, 3, 2, 1]


def test_cycle_detection():
    lines = [Line(0, 1, 0.01, 0.01), Line(1, 2, 0.01, 0.01), Line(2, 0, 0.01, 0.01)]
    with pytest.raises(FeederError, match="cycle|expected"):
        build_graph(3, lines, 1000.0)


def test_disconnected_detection():
    lines = [Line(0, 1, 0.01, 0.01), Line(2, 3, 0.01, 0.01), Line(3, 2, 0.01, 0.02)]
    with pytest.raises(FeederError):
        build_graph(4, lines, 1000.0)


def test_duplicate_line_rejected():
    lines = [Line(0, 1, 0.01, 0.01), Line(1, 0, 0.02, 0.02)]
    with pytest.raises(FeederError, match="duplicate"):
        build_graph(3, lines, 1000.0)


@pytest.mark.parametrize("lines,match", [
    ([Line(0, 1, 0.01, 0.01)], "expected 2 lines"),
    ([Line(0, 1, 0.01, 0.01), Line(1, 3, 0.01, 0.01)], "unknown bus 3"),
    ([Line(0, 1, 0.01, 0.01), Line(-1, 2, 0.01, 0.01)], "unknown bus -1"),
    ([Line(0, 1, 0.01, 0.01), Line(2, 2, 0.01, 0.01)], "self-loop at bus 2"),
])
def test_topology_errors_named(lines, match):
    with pytest.raises(FeederError, match=match):
        build_graph(3, lines, 1000.0)


def test_graph_derives_its_incidence_arrays():
    for name in ("path", "W", "B"):
        with pytest.raises(TypeError):
            FeederGraph(np.array([0]), np.array([0.1]), np.array([0.2]), 1000.0,
                        **{name: np.ones(1)})
    g = FeederGraph(np.array([0, 1]), np.array([0.1, 0.2]), np.array([0.3, 0.4]), 1000.0)
    np.testing.assert_array_equal(g.path, [[1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("fixture", ["graph8", "graph37"])
def test_sweep_matrices_match_their_block_formulas(fixture, request):
    """W = [diag(r)Pi' | diag(x)Pi' | K | K_send] with
    K = -(2(diag(r)Pi'diag(r) + diag(x)Pi'diag(x)) - diag(r^2 + x^2))Pi, and B maps
    [-(p+p_u) | -(q+q_u)] to [P | Q | c | c_send] of the lossless sweep."""
    g = request.getfixturevalue(fixture)
    path, r, x, up = g.path, np.diag(g.r), np.diag(g.x), g.parent
    send = [j - 1 if j else None for j in up]  # None: the slack bus feeds the line

    def at_send(m):
        return np.stack([m[:, j] if j is not None else np.zeros(len(m)) for j in send], axis=1)

    k = -(2.0 * (r @ path.T @ r + x @ path.T @ x) - (r @ r + x @ x)) @ path
    W = np.hstack([r @ path.T, x @ path.T, k, at_send(k)])
    zero = np.zeros_like(path)
    c = np.vstack([-2.0 * path.T @ r @ path, -2.0 * path.T @ x @ path])
    B = np.hstack([np.vstack([path.T, zero]), np.vstack([zero, path.T]), c, at_send(c)])
    assert g.W.shape == (g.n, 4 * g.n) and g.B.shape == (2 * g.n, 4 * g.n)
    np.testing.assert_allclose(g.W, W, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(g.B, B, rtol=1e-13, atol=1e-15)


def test_graph_copies_and_freezes_its_arrays(graph8):
    parent, r, x = graph8.parent.copy(), graph8.r.copy(), graph8.x.copy()
    g = FeederGraph(parent, r, x, 1000.0)
    kept = {name: getattr(g, name).copy() for name in ("parent", "r", "x", "path", "W", "B")}
    parent[3], r[:], x[0] = 0, 9.0, 9.0  # a caller's later writes
    for name, value in kept.items():
        np.testing.assert_array_equal(getattr(g, name), value)
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = 1


@pytest.mark.parametrize("parent", [[2, 1], [1], [0, 3], [0, -1]])
def test_graph_rejects_parent_that_misses_the_root(parent):
    n = len(parent)
    with pytest.raises(FeederError, match="does not reach the root"):
        FeederGraph(np.array(parent), np.full(n, 0.1), np.full(n, 0.1), 1000.0)


def test_nonpositive_impedance_rejected():
    with pytest.raises(FeederError, match="positive"):
        Line(0, 1, 0.0, 0.01)


def test_reversed_orientation_fixed():
    # child-first listing is re-oriented parent->child
    g = build_graph(3, [Line(1, 0, 0.01, 0.02), Line(2, 1, 0.03, 0.04)], 1000.0)
    assert g.parent.tolist() == [0, 1]
    assert g.r.tolist() == [0.01, 0.03]
    assert g.x.tolist() == [0.02, 0.04]


def test_ohmic_conversion(tmp_path):
    z_base = (12.0e3) ** 2 / (1000.0 * 1e3)  # 144 ohm
    f = tmp_path / "feeder.txt"
    f.write_text(
        "buses: 2, base_kva: 1000, v0: 1.0, base_kv: 12.0\n"
        f"line,0,1,{0.01 * z_base},{0.02 * z_base},ohm\n"
    )
    g = load_feeder(f)
    assert g.r[0] == pytest.approx(0.01, rel=1e-12)
    assert g.x[0] == pytest.approx(0.02, rel=1e-12)


def test_ohmic_without_base_kv_rejected(tmp_path):
    f = tmp_path / "feeder.txt"
    f.write_text("buses: 2, base_kva: 1000, v0: 1.0\nline,0,1,1.0,2.0,ohm\n")
    with pytest.raises(FeederError, match="base_kv"):
        load_feeder(f)


def test_malformed_header_rejected(tmp_path):
    f = tmp_path / "feeder.txt"
    f.write_text("buses 2 base_kva 1000\nline,0,1,0.01,0.02,pu\n")
    with pytest.raises(FeederError):
        load_feeder(f)


def test_spectral_norm_of_known_matrix():
    a = np.array([[3.0, 0.0], [0.0, 4.0]])
    assert spectral_norm(a) == pytest.approx(4.0, abs=1e-9)


@pytest.mark.parametrize("r,x", [("0.0", "0.02"), ("0.01", "-0.02"), ("nan", "0.02"),
                                 ("0.01", "inf")])
def test_bad_impedance_in_file_names_its_line(tmp_path, r, x):
    f = tmp_path / "feeder.txt"
    f.write_text("# two lines\nbuses: 3, base_kva: 1000, v0: 1.0\n"
                 f"line,0,1,0.01,0.02,pu\n\nline,1,2,{r},{x},pu\n")
    with pytest.raises(FeederError, match=r"^line 5: impedance of line 1->2 must be finite and "
                                          r"strictly positive"):
        load_feeder(f)


@st.composite
def random_trees(draw):
    """A parent array over shuffled bus ids, with its lines listed in random order and
    each line's endpoints in random order."""
    n = draw(st.integers(1, 12))
    label = [0, *draw(st.permutations(range(1, n + 1)))]  # a bus's id in the drawn tree
    parent = np.zeros(n, dtype=int)
    for j in range(1, n + 1):  # bus j of a tree whose every parent has a smaller number
        parent[label[j] - 1] = label[draw(st.integers(0, j - 1))]
    impedance = st.floats(1e-3, 0.1)
    r = np.array(draw(st.lists(impedance, min_size=n, max_size=n)))
    x = np.array(draw(st.lists(impedance, min_size=n, max_size=n)))
    lines = []
    for c in draw(st.permutations(range(n))):
        ends = (int(parent[c]), c + 1)
        if draw(st.booleans()):
            ends = ends[::-1]
        lines.append(Line(*ends, r[c], x[c]))
    p, q, p_u, q_u = (sign * np.array(draw(st.lists(st.floats(0.0, 0.02), min_size=n,
                                                      max_size=n))) for sign in (1, 1, -1, -1))
    return parent, r, x, lines, InjectionState(p=p, q=q, p_u=p_u, q_u=q_u)


@settings(max_examples=60, deadline=None)
@given(random_trees())
def test_build_graph_recovers_random_trees(tree):
    parent, r, x, lines, s = tree
    g = build_graph(len(parent) + 1, lines, 1000.0)
    np.testing.assert_array_equal(g.parent, parent)
    np.testing.assert_array_equal(g.r, r)
    np.testing.assert_array_equal(g.x, x)
    oracle = np.zeros((g.n, g.n))
    for j in range(1, g.n + 1):
        for ln in path_to_root(g, j):
            oracle[ln.to_bus - 1, j - 1] = 1.0
    np.testing.assert_array_equal(g.path, oracle)
    sol = assert_agrees_with_three_products(g, s)
    assert sol.converged
    assert residual(g, s, sol, 1.0) <= 1e-9
    half = InjectionState(*(0.5 * a for a in (s.p, s.q, s.p_u, s.q_u)))
    assert_agrees_with_three_products(g, s, start=solve_nonlinear(g, half, 1.0))
