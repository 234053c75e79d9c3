"""Tests of the benchmark's own machinery: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spread import summarize  # noqa: E402

from localopf import controller, powerflow, trainer  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, -1, "r", tracing.ROOT, 0.0, 10.0),
        (1, 0, "r", "trainer.train", 1.0, 7.0),
        (2, 1, "r", "powerflow.solve_nonlinear", 2.0, 5.0),
        (3, 2, "r", "policy.forward_all", 3.0, 4.0),
    ]
    assert tracing.self_times(spans) == {0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0}


def test_tracer_patches_every_binding_and_restores_them():
    orig = powerflow.solve_nonlinear
    graph = workloads.feeder.load_feeder(workloads.DATA / "feeder_8bus.txt")
    n = graph.n
    s = powerflow.InjectionState(p=np.zeros(n), q=np.zeros(n),
                                 p_u=np.full(n, -0.01), q_u=np.full(n, -0.005))
    tr = tracing.Tracer(("powerflow.solve_nonlinear",), count_box=True)
    with tr, tr.root("r0"):
        assert controller.solve_nonlinear is not orig
        assert trainer.solve_nonlinear is controller.solve_nonlinear
        sol = controller.solve_nonlinear(graph, s, 1.0)
    assert powerflow.solve_nonlinear is orig
    assert controller.solve_nonlinear is orig and trainer.solve_nonlinear is orig
    assert [sp[3] for sp in tr.spans] == ["powerflow.solve_nonlinear", tracing.ROOT]
    assert tr.counts["r0"]["powerflow.sweep_iters"] == sol.iterations


def test_layer_summary_shares_add_up_to_coverage():
    tr = tracing.Tracer(())
    tr.spans = [
        (0, -1, "r", tracing.ROOT, 0.0, 10.0),
        (1, 0, "r", "oracle.solve_opf_linear", 0.0, 6.0),
        (2, 0, "r", "controller.step", 6.0, 8.0),
        (3, 2, "r", "policy.forward_all", 6.5, 7.0),
        (4, -1, "other", tracing.ROOT, 0.0, 99.0),
    ]
    out = tracing.layer_summary(tr, ["r"])
    assert out["share.oracle"] == pytest.approx(0.6)
    assert out["share.controller"] == pytest.approx(0.15)
    assert out["share.policy"] == pytest.approx(0.05)
    assert out["trace.coverage"] == pytest.approx(0.8)
    assert out["controller.policy_s"] == pytest.approx(0.5)
    assert out["trace.run_s"] == pytest.approx(10.0)


def test_seed_picks_only_the_held_out_day():
    for config in ("config_37bus.yaml", "config_8bus.yaml"):
        shipped = workloads.yaml.safe_load((workloads.DATA / config).read_text())
        cfg = workloads.resolved_config(config, workloads.DEFAULT_SEED, {})
        assert cfg["scenario"]["test_seed"] == shipped["scenario"]["test_seed"]
        assert Path(cfg["feeder"]).is_file()
        other = workloads.resolved_config(config, 7, {"trainer": {"epochs": 3}})
        assert other["scenario"]["train_seeds"] == shipped["scenario"]["train_seeds"]
        assert other["scenario"]["test_seed"] == shipped["scenario"]["test_seed"] + 6
        assert other["trainer"]["epochs"] == 3


def test_spread_uses_statistics_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert summarize(values) == {"median": med, "q1": q1, "q3": q3,
                                 "spread": (q3 - q1) / med}


def test_traced_metrics_are_the_declared_per_layer_metrics():
    tr = tracing.Tracer(())
    tr.spans = [(0, -1, "r", tracing.ROOT, 0.0, 1.0), (1, -1, "s", tracing.ROOT, 0.0, 1.0)]
    names = set(tracing.layer_summary(tr, ["r"])) | set(tracing.setup_summary(tr, ["s"]))
    names |= {"controller.step_p50_ms", "controller.step_p99_ms", "runner.bytes_written",
              "trace.overhead_frac"}  # added in run.measure
    assert names == set(run.declared_units(True))
    assert set(run.declared_units(False)) == {"run_s", "setup_s", "peak_rss_mb"}


def test_overhead_is_estimated_from_wrapper_costs():
    span, box = tracing.wrapper_costs(calls=2000, trials=3)
    assert 0.0 < span < 1e-4 and 0.0 <= box < 1e-4
    costs = (2e-6, 1e-7)
    added = 1000 * 2e-6 + 5000 * 1e-7
    assert tracing.overhead_frac(1000, 5000, 1.0 + added, costs) == pytest.approx(added)
