"""Topology validation and sensitivity-matrix correctness.

The R/X oracle here is deliberately independent of the library's path-matrix
product: it intersects explicit root-path line sets per node pair.
"""

import numpy as np
import pytest

from localopf import FeederError, build_sensitivities, load_feeder, path_to_root
from localopf.feeder import Bus, Line, build_graph, spectral_norm


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
    for j in range(1, graph8.n + 1):
        assert graph8.line_to(j).to_bus == j


def test_order_parents_first(graph37):
    seen = {0}
    for bus in graph37.order:
        assert graph37.parent[bus - 1] in seen
        seen.add(bus)
    assert len(seen) == graph37.n + 1


def test_path_to_root_depth(graph8):
    # bus 7 hangs off the 0-1-2-3 trunk in the shipped 8-bus feeder
    path = path_to_root(graph8, 7)
    assert [ln.to_bus for ln in path] == [7, 3, 2, 1]


def _buses(n):
    return [Bus(i) for i in range(n)]


def test_cycle_detection():
    lines = [Line(0, 1, 0.01, 0.01), Line(1, 2, 0.01, 0.01), Line(2, 0, 0.01, 0.01)]
    with pytest.raises(FeederError, match="cycle|expected"):
        build_graph(_buses(3), lines, 1000.0)


def test_disconnected_detection():
    lines = [Line(0, 1, 0.01, 0.01), Line(2, 3, 0.01, 0.01), Line(3, 2, 0.01, 0.02)]
    with pytest.raises(FeederError):
        build_graph(_buses(4), lines, 1000.0)


def test_duplicate_line_rejected():
    lines = [Line(0, 1, 0.01, 0.01), Line(1, 0, 0.02, 0.02)]
    with pytest.raises(FeederError, match="duplicate"):
        build_graph(_buses(3), lines, 1000.0)


def test_nonpositive_impedance_rejected():
    with pytest.raises(FeederError, match="positive"):
        Line(0, 1, 0.0, 0.01)


def test_reversed_orientation_fixed():
    # child-first listing is re-oriented parent->child
    g = build_graph(_buses(3), [Line(1, 0, 0.01, 0.02), Line(2, 1, 0.03, 0.04)], 1000.0)
    assert g.line_to(1).from_bus == 0
    assert g.line_to(2).from_bus == 1
    assert g.line_to(2).r == 0.03


def test_ohmic_conversion(tmp_path):
    z_base = (12.0e3) ** 2 / (1000.0 * 1e3)  # 144 ohm
    f = tmp_path / "feeder.txt"
    f.write_text(
        "buses: 2, base_kva: 1000, v0: 1.0, base_kv: 12.0\n"
        f"line,0,1,{0.01 * z_base},{0.02 * z_base},ohm\n"
    )
    g = load_feeder(f)
    assert g.line_to(1).r == pytest.approx(0.01, rel=1e-12)
    assert g.line_to(1).x == pytest.approx(0.02, rel=1e-12)


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
