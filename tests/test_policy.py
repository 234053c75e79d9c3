"""Policy forward/backward correctness against independent oracles.

The scalar single-channel ``forward``/``backward`` below are the reference
that the stacked ``forward_all``/``backward_all`` are checked against.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from localopf import (
    compute_k_max,
    enforce_conditions,
    init_policy,
    load_policy,
    save_policy,
)
from localopf.policy import backward_all, forward_all, output, param_views, set_input_scale


@dataclass
class MlpChannel:
    """Single-channel view: weight/bias list plus the voltage gain k.

    ``weights[l]`` has shape (n_l, n_{l-1}) with n_0 = n_{L+1} = 1.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    k: float
    d_scale: float = 1.0


def channel(params, node: int, which: str) -> MlpChannel:
    """View of one node's channel ('p' or 'q'); shares storage."""
    pos = params.nodes.index(node)
    c = pos if which == "p" else len(params.nodes) + pos
    return MlpChannel(
        weights=[w[c] for w in params.weights],
        biases=[b[c] for b in params.biases],
        k=float(params.k[c]),
        d_scale=float(params.d_scale[c]),
    )


def forward(ch: MlpChannel, v_i: float, d_i: float):
    """Evaluate one channel: u = MLP(d_i / d_scale) + k * v_i.

    Returns (u, tape); the tape stores pre-activations for ``backward``.
    """
    h = np.array([d_i / ch.d_scale])
    pre = []
    hs = [h]
    n_layers = len(ch.weights)
    for l in range(n_layers - 1):
        z = ch.weights[l] @ h + ch.biases[l]
        pre.append(z)
        h = np.maximum(z, 0.0)
        hs.append(h)
    out = ch.weights[-1] @ h + ch.biases[-1]
    u = float(out[0]) + ch.k * v_i
    tape = {"pre": pre, "hs": hs, "v": float(v_i), "shapes": [w.shape for w in ch.weights]}
    return u, tape


def backward(ch: MlpChannel, tape, upstream: float):
    """Exact reverse-mode gradients of one channel output.

    Returns (grads, (du_dv, du_dd)) with grads = {"weights": [...],
    "biases": [...], "k": float}.  ReLU subgradient at 0 is taken as 0.
    """
    if tape["shapes"] != [w.shape for w in ch.weights]:
        raise ValueError("tape does not match channel parameters")
    pre, hs = tape["pre"], tape["hs"]
    n_layers = len(ch.weights)
    # unit-seed reverse pass; everything is linear in the seed, so parameter
    # gradients are the unit gradients scaled by ``upstream``
    delta = np.ones(1)
    dW = [np.zeros_like(w) for w in ch.weights]
    db = [np.zeros_like(b) for b in ch.biases]
    dW[-1] = upstream * np.outer(delta, hs[-1])
    db[-1] = upstream * delta
    d_h = ch.weights[-1].T @ delta
    for l in range(n_layers - 2, -1, -1):
        delta = d_h * (pre[l] > 0.0)
        dW[l] = upstream * np.outer(delta, hs[l])
        db[l] = upstream * delta
        d_h = ch.weights[l].T @ delta
    du_dd = float(d_h[0]) / ch.d_scale
    dk = upstream * tape["v"]
    return {"weights": dW, "biases": db, "k": dk}, (ch.k, du_dd)


def mlp_oracle(ch, d):
    """Plain layer-by-layer evaluation, written independently of forward()."""
    h = np.array([d / ch.d_scale])
    for W, b in zip(ch.weights[:-1], ch.biases[:-1]):
        h = np.maximum(W @ h + b, 0.0)
    return float((ch.weights[-1] @ h + ch.biases[-1])[0])


@pytest.fixture
def policy(graph8):
    pol = init_policy(graph8, [3, 5, 7], arch=(2, 8), k_max=0.4, seed=1)
    # break the symmetry of zero biases so ReLU patterns vary
    rng = np.random.default_rng(2)
    for b in pol.biases:
        b += rng.normal(scale=0.1, size=b.shape)
    pol.d_scale = rng.uniform(0.5, 2.0, pol.n_channels)
    return pol


def test_scalar_forward_matches_oracle(policy):
    rng = np.random.default_rng(0)
    for node in policy.nodes:
        for which in ("p", "q"):
            ch = channel(policy, node, which)
            for _ in range(5):
                v, d = rng.uniform(0.9, 1.1), rng.normal()
                u, _ = forward(ch, v, d)
                assert u == pytest.approx(mlp_oracle(ch, d) + ch.k * v, abs=1e-12)


def test_scalar_backward_matches_finite_difference(policy):
    ch = channel(policy, 5, "p")
    v, d = 1.02, -0.7
    _, tape = forward(ch, v, d)
    upstream = 1.3
    grads, (du_dv, du_dd) = backward(ch, tape, upstream)
    eps = 1e-6

    def u_of(chan):
        return forward(chan, v, d)[0]

    for l, W in enumerate(ch.weights):
        it = np.nditer(W, flags=["multi_index"])
        count = 0
        for _ in it:
            if count >= 4:  # spot-check a few entries per layer
                break
            idx = it.multi_index
            orig = W[idx]
            W[idx] = orig + eps
            up = u_of(ch)
            W[idx] = orig - eps
            dn = u_of(ch)
            W[idx] = orig
            fd = upstream * (up - dn) / (2 * eps)
            assert grads["weights"][l][idx] == pytest.approx(fd, abs=1e-6)
            count += 1
    # bias and gain entries
    b = ch.biases[0]
    orig = b[0]
    b[0] = orig + eps
    up = u_of(ch)
    b[0] = orig - eps
    dn = u_of(ch)
    b[0] = orig
    assert grads["biases"][0][0] == pytest.approx(upstream * (up - dn) / (2 * eps), abs=1e-6)
    assert grads["k"] == pytest.approx(upstream * v, abs=1e-12)
    # input sensitivities
    assert du_dv == pytest.approx(ch.k)
    u_p, _ = forward(ch, v, d + eps)
    u_m, _ = forward(ch, v, d - eps)
    assert du_dd == pytest.approx((u_p - u_m) / (2 * eps), abs=1e-6)


def test_forward_all_matches_scalar_loop(policy, graph8):
    n = graph8.n
    rng = np.random.default_rng(4)
    v = rng.uniform(0.9, 1.1, (3, n))
    p_u = rng.normal(size=(3, n))
    q_u = rng.normal(size=(3, n))
    u = output(policy.gain, forward_all(policy, p_u, q_u), v)
    assert u.shape == (3, 2 * n)
    for s in range(3):
        for i in range(n):
            node = i + 1
            if node in policy.nodes:
                up, _ = forward(channel(policy, node, "p"), v[s, i], p_u[s, i])
                uq, _ = forward(channel(policy, node, "q"), v[s, i], q_u[s, i])
                assert u[s, i] == pytest.approx(up, abs=1e-13)
                assert u[s, n + i] == pytest.approx(uq, abs=1e-13)
            else:
                assert u[s, i] == 0.0
                assert u[s, n + i] == 0.0


def test_backward_all_matches_scalar_loop(policy, graph8):
    n = graph8.n
    C = policy.n_channels
    rng = np.random.default_rng(5)
    S = 4
    v = rng.uniform(0.9, 1.1, (S, n))
    p_u = rng.normal(size=(S, n))
    q_u = rng.normal(size=(S, n))
    upstream = rng.normal(size=(S, C))
    _, tape = forward_all(policy, p_u, q_u, with_tape=True)
    grad_w, grad_b, grad_k = param_views(policy, backward_all(policy, tape, upstream, v))
    nc = len(policy.nodes)
    for c in range(C):
        node = policy.nodes[c % nc]
        which = "p" if c < nc else "q"
        ch = channel(policy, node, which)
        i = node - 1
        d_series = p_u[:, i] if which == "p" else q_u[:, i]
        acc_w = [np.zeros_like(w) for w in ch.weights]
        acc_b = [np.zeros_like(b) for b in ch.biases]
        acc_k = 0.0
        for s in range(S):
            _, t1 = forward(ch, v[s, i], d_series[s])
            g1, _ = backward(ch, t1, upstream[s, c])
            for l in range(len(acc_w)):
                acc_w[l] += g1["weights"][l]
                acc_b[l] += g1["biases"][l]
            acc_k += g1["k"]
        for l in range(len(acc_w)):
            np.testing.assert_allclose(grad_w[l][c], acc_w[l], atol=1e-12)
            np.testing.assert_allclose(grad_b[l][c], acc_b[l], atol=1e-12)
        assert grad_k[c] == pytest.approx(acc_k, abs=1e-12)


def test_backward_all_writes_into_out(policy, graph8):
    rng = np.random.default_rng(6)
    S, n = 3, graph8.n
    v = rng.uniform(0.9, 1.1, (S, n))
    _, tape = forward_all(policy, rng.normal(size=(S, n)), rng.normal(size=(S, n)),
                          with_tape=True)
    upstream = rng.normal(size=(S, policy.n_channels))
    buf = np.full_like(policy.theta, np.nan)  # every entry must be overwritten
    assert backward_all(policy, tape, upstream, v, out=buf) is buf
    np.testing.assert_array_equal(buf, backward_all(policy, tape, upstream, v))


def test_init_policy_contract(graph8):
    pol = init_policy(graph8, [3, 5], arch=(3, 64), k_max=0.2, seed=9)
    assert pol.n_channels == 4
    assert len(pol.weights) == 4  # 3 hidden + output
    assert pol.weights[0].shape == (4, 64, 1)
    assert pol.weights[1].shape == (4, 64, 64)
    assert pol.weights[-1].shape == (4, 1, 64)
    for b in pol.biases:
        assert np.all(b == 0.0)
    np.testing.assert_array_equal(pol.k, np.full(4, 0.1))
    for l, W in enumerate(pol.weights):
        fan_in = W.shape[2]
        assert np.max(np.abs(W)) <= 1.0 / np.sqrt(fan_in)
        # symmetric-about-zero uniform law: mean near 0
        assert abs(np.mean(W)) < 0.2 / np.sqrt(fan_in)
    again = init_policy(graph8, [3, 5], arch=(3, 64), k_max=0.2, seed=9)
    for a, b in zip(pol.weights, again.weights):
        np.testing.assert_array_equal(a, b)


def reference_init_theta(n_channels, arch, k_max, seed):
    """``theta`` built the way ``init_policy`` once built it: per-layer draws, then one concatenate."""
    L, width = arch
    dims = [1] + [width] * L + [1]
    rng = np.random.default_rng(seed)
    blocks = []
    for l in range(1, len(dims)):
        fan_in = dims[l - 1]
        w = rng.uniform(-1.0, 1.0, size=(n_channels, dims[l], fan_in)) / np.sqrt(fan_in)
        blocks.append(w.reshape(n_channels, dims[l] * fan_in))
    blocks += [np.zeros((n_channels, d)) for d in dims[1:]]
    blocks.append(np.full((n_channels, 1), 0.5 * k_max))
    # theta's row order: every layer's weights, then every layer's biases, then k
    order = [blocks[i] for l in range(L + 1) for i in (l, L + 1 + l)] + [blocks[-1]]
    return np.concatenate(order, axis=1).ravel()


INIT_ARCHS = [(3, 64), (2, 32), (0, 1)]


@pytest.mark.parametrize("arch", INIT_ARCHS, ids=lambda a: f"{a[0]}x{a[1]}")
@pytest.mark.parametrize("nodes", [(3, 5, 7), ()], ids=["3nodes", "no_nodes"])
def test_init_policy_theta_matches_reference_bytes(graph8, arch, nodes):
    """Drawn in place through the views, ``theta`` keeps the bytes of the concatenated build."""
    pol = init_policy(graph8, nodes, arch=arch, k_max=0.3, seed=11)
    want = reference_init_theta(2 * len(nodes), arch, 0.3, 11)
    assert pol.theta.shape == want.shape
    assert pol.theta.tobytes() == want.tobytes()
    assert pol.d_scale.tobytes() == np.ones(2 * len(nodes)).tobytes()


def test_init_policy_peak_is_theta_and_one_layer_draw(graph37):
    """Building the 37-bus policy holds at most one layer's draw beside ``theta``."""
    import tracemalloc

    nodes = (3, 5, 8, 11, 13, 16, 18, 21, 23, 27, 29, 32, 36)  # config_37bus.yaml's
    init_policy(graph37, nodes[:1], arch=(1, 2))  # numpy.random's first use imports modules
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pol = init_policy(graph37, nodes, arch=(3, 64), k_max=0.2, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    largest_draw = max(w.size for w in pol.weights) * pol.theta.itemsize
    assert peak <= pol.theta.nbytes + largest_draw + 64 * 1024, (peak, pol.theta.nbytes)


def test_compute_k_max_arithmetic():
    alpha, m, xi, a_norm = 0.48, 2.0, 2.0, 4.0
    expected = 0.95 * (1.0 - np.sqrt(1.0 - 2 * alpha * m + alpha**2 * xi**2)) / (alpha * a_norm)
    assert compute_k_max(alpha, m, xi, a_norm) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError, match="negative radicand"):
        compute_k_max(0.5, 2.0, 1.0, 4.0)


@pytest.mark.parametrize("m, xi", [(0.0, 0.0), (2.0, 0.0), (-1.0, 2.0), (0.0, 2.0)])
def test_compute_k_max_rejects_nonpositive_convexity_constants(m, xi):
    """m and xi are named in a ValueError: no division by xi = 0, no negative step bound."""
    with pytest.raises(ValueError, match=f"m = {m:g}, xi = {xi:g}"):
        compute_k_max(0.48, m, xi, 6.0)


def test_enforce_conditions_clamps(graph8):
    pol = init_policy(graph8, [3], k_max=1.0, seed=0)
    pol.k[:] = [-0.3, 2.0]
    pol.k_max = 0.5
    enforce_conditions(pol)
    np.testing.assert_array_equal(pol.k, [0.0, 0.5])
    assert pol.k_max == 0.5
    assert pol.lipschitz_v() == 0.5


def test_set_input_scale(graph8):
    from localopf import GeneratorConfig, generate_profile

    cfg = GeneratorConfig(
        controllable=(3, 5),
        d_def_p_kva=np.full(graph8.n, 10.0),
        d_def_q_kva=np.full(graph8.n, 6.0),
        horizon=50,
    )
    scn = generate_profile(graph8, cfg, seed=0)
    pol = init_policy(graph8, [3, 5], k_max=0.1, seed=0)
    set_input_scale(pol, scn.p_u, scn.q_u)
    assert pol.d_scale[0] == pytest.approx(np.std(scn.p_u[:, 2]))
    assert np.all(pol.d_scale > 0)


def test_theta_layout(policy, tmp_path):
    theta = policy.theta
    C, P = policy.n_channels, policy.row_size
    assert theta.shape == (C * P,)
    base = theta.__array_interface__["data"][0]
    blocks = [a for wb in zip(policy.weights, policy.biases) for a in wb] + [policy.k]
    for a in blocks:
        assert np.shares_memory(a, theta) and a.shape[0] == C
    # row c holds channel c's every layer's weights then its biases, in layer
    # order, then its k: no gap, no overlap
    for c in range(C):
        pos = c * P
        for a in blocks:
            block = a[c:c + 1]  # a view, also for k
            assert block.flags.c_contiguous
            assert block.__array_interface__["data"][0] - base == pos * theta.itemsize
            pos += block.size
        assert pos == (c + 1) * P
    policy.k[:] = np.linspace(-0.5, 0.5, C)
    policy.k_max = 0.2
    enforce_conditions(policy)
    np.testing.assert_array_equal(theta.reshape(C, P)[:, -1],
                                  np.clip(np.linspace(-0.5, 0.5, C), 0.0, 0.2))
    save_policy(policy, tmp_path / "pol.npz")
    assert load_policy(tmp_path / "pol.npz").theta.tobytes() == theta.tobytes()
    # a checkpoint written key by key, as before the flat layout, loads unchanged
    payload = {"version": np.array(1), "nodes": np.array(policy.nodes),
               "arch": np.array(policy.arch), "k_max": np.array(policy.k_max),
               "k": policy.k.copy(), "d_scale": policy.d_scale.copy(),
               "n_bus": np.array(policy.n_bus)}
    for l, (w, b) in enumerate(zip(policy.weights, policy.biases)):
        payload[f"W{l}"], payload[f"b{l}"] = w.copy(), b.copy()
    np.savez(tmp_path / "old.npz", **payload)
    old = load_policy(tmp_path / "old.npz")
    for a, b in zip(old.weights + old.biases + [old.k],
                    policy.weights + policy.biases + [policy.k]):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(old.theta, theta)


def test_save_load_round_trip(policy, tmp_path):
    path = tmp_path / "pol.npz"
    save_policy(policy, path)
    back = load_policy(path)
    assert back.nodes == policy.nodes
    assert back.arch == policy.arch
    assert back.k_max == policy.k_max
    assert back.n_bus == policy.n_bus
    np.testing.assert_array_equal(back.k, policy.k)
    np.testing.assert_array_equal(back.d_scale, policy.d_scale)
    for a, b in zip(back.weights, policy.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(back.biases, policy.biases):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("arch", INIT_ARCHS, ids=lambda a: f"{a[0]}x{a[1]}")
@pytest.mark.parametrize("nodes", [(3, 5, 7), ()], ids=["3nodes", "no_nodes"])
def test_save_load_round_trip_is_bit_exact(graph8, tmp_path, arch, nodes):
    pol = init_policy(graph8, nodes, arch=arch, k_max=0.3, seed=5)
    rng = np.random.default_rng(6)
    pol.theta[:] = rng.normal(size=pol.theta.size)  # nonzero biases, k and signed weights
    pol.d_scale = rng.uniform(0.5, 2.0, pol.n_channels)
    save_policy(pol, tmp_path / "pol.npz")
    back = load_policy(tmp_path / "pol.npz")
    assert (back.nodes, back.arch, back.k_max, back.n_bus) == (nodes, arch, 0.3, graph8.n)
    assert back.theta.tobytes() == pol.theta.tobytes()
    assert back.d_scale.tobytes() == pol.d_scale.tobytes()


def _damaged_checkpoint(policy, path, damage):
    """Save ``policy``, then rewrite one entry of the archive as ``damage`` says."""
    save_policy(policy, path)
    with np.load(path) as data:
        payload = {key: data[key] for key in data.files}
    C = policy.n_channels
    if damage == "d_scale_one":  # broadcasts to every channel
        payload["d_scale"] = np.array([2.0])
    elif damage == "W0_broadcast":  # (C, 1, 1) broadcasts to (C, width, 1)
        payload["W0"] = payload["W0"][:, :1, :]
        assert payload["W0"].shape == (C, 1, 1)
    elif damage == "node_above_n_bus":
        payload["nodes"] = np.array(policy.nodes[:-1] + (policy.n_bus + 1,))
    np.savez(path, **payload)


@pytest.mark.parametrize("damage", ["d_scale_one", "W0_broadcast", "node_above_n_bus"])
def test_load_policy_rejects_arrays_of_another_shape(graph8, tmp_path, damage):
    """An array that only broadcasts to the layout, or a node off the feeder, is not a checkpoint."""
    pol = init_policy(graph8, [3, 5], arch=(2, 8), k_max=0.2, seed=0)
    path = tmp_path / "pol.npz"
    _damaged_checkpoint(pol, path, damage)
    with pytest.raises(ValueError, match="is not a localopf policy checkpoint"):
        load_policy(path)
