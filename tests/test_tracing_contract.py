"""The benchmark's tracer still binds every target it times in the package.

``perfbench/tracing.py`` patches public functions by name and reads the row
count of ``forward_all`` from its positional argument 1.  A rename, a
keyword-only call or a changed return shape breaks a traced benchmark run;
this test makes such a change fail here too.  The tracer module is loaded
read-only, under a private name, from the checkout.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from localopf import ControllerConfig, TrainerConfig, init_policy, runner, train
from conftest import train_scenario

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_localopf_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every object bound in a localopf module namespace, by (module, name)."""
    return {(name, key): val for name, mod in sys.modules.items()
            if mod is not None and (name == "localopf" or name.startswith("localopf."))
            for key, val in vars(mod).items()}


def test_tracer_binds_every_target_and_restores(graph8, model8):
    tracing = _load_tracing()
    scn = train_scenario(graph8, horizon=20)
    cfg = TrainerConfig(epochs=1, batch_size=8, v_lo=0.9604, v_hi=1.0816)
    before = _bindings()
    box_cls = sys.modules["localopf.scenario"].BoxLimits
    box_props = {p: box_cls.__dict__[p] for p in ("lo", "hi")}
    tracer = tracing.Tracer(tracing.LAYER_TARGETS, count_box=True)
    with tracer:
        for qual in tracing.LAYER_TARGETS:
            mod_name, attr = qual.split(".")
            assert getattr(sys.modules[f"localopf.{mod_name}"], attr) is not \
                before[(f"localopf.{mod_name}", attr)], qual
        with tracer.root("r0"):
            train(scn, cfg, graph8, model8)
    counts = tracer.counts["r0"]
    calls = [s[3] for s in tracer.spans]
    assert calls.count("policy.forward_all") == 3  # minibatches of 8, 8 and 4
    assert counts["policy.forward_rows"] == len(scn.steps)
    assert calls.count("controller.solve_equilibria_batch") == 3
    assert calls.count("trainer.adam_update") == 3
    assert counts["scenario.box_concat_calls"] > 0
    summary = tracing.layer_summary(tracer, ["r0"])
    assert np.isfinite(summary["controller.picard_iters_mean"])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())
    assert {p: box_cls.__dict__[p] for p in ("lo", "hi")} == box_props


@pytest.mark.parametrize("run, update", [("run_controller", "controller.step"),
                                         ("run_baseline", "oracle.baseline_step")])
def test_operated_day_spans_one_update_per_slot(graph8, model8, run, update):
    """A T-slot day gives T update spans and T+1 plant calls, all outside the updates.

    An update the tracer does not see (one bound before it patches, say) would
    leave the benchmark's ``controller.step`` latency without samples.
    """
    tracing = _load_tracing()
    horizon = 12
    scn = train_scenario(graph8, horizon=horizon)
    args = {
        "run_controller": (init_policy(graph8, [3, 5, 7], arch=(1, 4),
                                       k_max=0.5 / model8.a_norm, seed=0),
                           model8, graph8, ControllerConfig(alpha=0.48, plant="nonlinear")),
        "run_baseline": (model8, graph8, 0.9025, 1.1025, 0.48, 1.0 / (0.48 * model8.a_norm**2)),
    }[run]
    tracer = tracing.Tracer(tracing.LAYER_TARGETS)
    with tracer, tracer.root("r0"):
        getattr(runner, run)(scn, *args)
    (day,) = [s[0] for s in tracer.spans if s[3] == f"runner.{run}"]
    updates = [s for s in tracer.spans if s[3] == update]
    plant = [s for s in tracer.spans if s[3] == "powerflow.solve_nonlinear"]
    assert len(updates) == horizon
    assert len(plant) == horizon + 1
    assert all(s[1] == day for s in updates + plant)
