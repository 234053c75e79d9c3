"""The channel-sparse training step against dense references.

``backward_all`` works only on channels with a nonzero upstream entry, and
``adam_update`` only on channel rows whose gradient, ``m`` or ``v`` is
nonzero.  The dense versions below run every channel, as both functions did
before; the sparse ones must match them bit for bit on the rows they work
on, give zero gradient rows and leave every other Adam row unchanged.
"""

import numpy as np
import pytest

from localopf import init_policy
from localopf.policy import backward_all, forward_all, param_views
from localopf.trainer import ADAM_BLOCK, AdamState, adam_update

SHIPPED_NODES = {  # controllable nodes of config_8bus.yaml and config_37bus.yaml
    "graph8": (3, 5, 7),
    "graph37": (3, 5, 8, 11, 13, 16, 18, 21, 23, 27, 29, 32, 36),
}


def dense_backward_all(params, tape, upstream, v, out=None):
    """Every channel through the full layer loop."""
    C = params.n_channels
    up = np.asarray(upstream, dtype=float).reshape(-1, C)
    hs = tape["hs"]
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


@pytest.fixture(params=sorted(SHIPPED_NODES))
def shipped(request):
    graph = request.getfixturevalue(request.param)
    pol = init_policy(graph, SHIPPED_NODES[request.param], arch=(3, 64), k_max=0.2, seed=4)
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
        tape = {"hs": [h[:, keep] for h in tape["hs"]]}
    else:
        tape = {"hs": [h[:, :S] for h in tape["hs"]]}
    v = v[keep]
    for name, live in live_sets(C).items():
        upstream = np.zeros((S, C))
        upstream[:, live] = rng.normal(size=(S, len(live)))
        if S > 1 and live:
            upstream[0, live[0]] = 0.0  # a zero entry in a live column
        got = backward_all(pol, tape, upstream, v, out=np.full(C * P, np.nan))
        want = dense_backward_all(pol, tape, upstream, v)
        rows_got, rows_want = got.reshape(C, P), want.reshape(C, P)
        dead = np.setdiff1d(np.arange(C), live)
        assert np.all(rows_got[dead] == 0.0), name
        assert rows_got[live].tobytes() == rows_want[live].tobytes(), name


def test_backward_all_reads_no_tape_without_live_channels(shipped):
    graph, pol = shipped
    grad = backward_all(pol, {"hs": None}, np.zeros((4, pol.n_channels)),
                        np.ones((4, graph.n)), out=np.full_like(pol.theta, np.nan))
    assert np.all(grad == 0.0)


def test_adam_update_matches_dense_reference(shipped):
    _, pol = shipped
    C, P = pol.n_channels, pol.row_size
    rng = np.random.default_rng(11)
    adam = AdamState.zeros_like(pol)
    ref_theta, ref = pol.theta.copy(), AdamState.zeros_like(pol)
    for t, live in enumerate(live_sets(C).values()):
        grad = np.zeros((C, P))
        grad[live] = rng.normal(size=(len(live), P))
        if t == 1:
            grad[0] = -0.0  # a row of negative zeros leaves theta, m and v as they are
        grad = grad.ravel()
        idle_before = [a.reshape(C, P).copy() for a in (pol.theta, adam.m, adam.v)]
        idle = ~(np.any(grad.reshape(C, P), axis=1) | np.any(adam.m.reshape(C, P), axis=1)
                 | np.any(adam.v.reshape(C, P), axis=1))
        dense_adam_update(ref_theta, grad.copy(), ref, lr=1e-3)
        adam_update(pol, grad, adam, lr=1e-3)
        assert adam.t == ref.t
        for got, want, before in zip((pol.theta, adam.m, adam.v), (ref_theta, ref.m, ref.v),
                                     idle_before):
            assert got.tobytes() == want.tobytes()
            assert got.reshape(C, P)[idle].tobytes() == before[idle].tobytes()
