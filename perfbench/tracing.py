"""Spans and counters recorded around calls into ``localopf`` from outside.

A :class:`Tracer` replaces each target function, in every ``localopf``
module namespace that binds it, with a wrapper that records a span (id,
parent id, repeat id, name, start, end) and feeds the call's result to a
counter.  Nothing inside the package is changed; :meth:`Tracer.uninstall`
puts the original objects back.  Spans stay in memory until the benchmark
writes them out at the end.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# Public functions timed in a traced run, as "<module>.<function>".  The
# module name is the layer a span is charged to.
LAYER_TARGETS = (
    "feeder.load_feeder",
    "feeder.build_sensitivities",
    "scenario.generate_profile",
    "scenario.project_box",
    "powerflow.solve_nonlinear",
    "policy.forward_all",
    "policy.backward_all",
    "policy.save_policy",
    "controller.step",
    "controller.solve_equilibrium",
    "controller.solve_equilibria_batch",
    "trainer.train",
    "trainer.adam_update",
    "trainer.zo_voltage_jacobian",
    "oracle.solve_opf_linear",
    "oracle.baseline_step",
    "runner.run_controller",
    "runner.run_no_control",
    "runner.run_baseline",
    "runner.run_oracle",
    "runner.evaluate",
    "runner.save_trajectory",
    "runner.load_trajectory",
    "runner.write_training_log",
    "runner.write_manifest",
)
LAYERS = ("feeder", "scenario", "powerflow", "policy", "controller",
          "trainer", "oracle", "runner")
STEP = "controller.step"
ROOT = "bench.repeat"


def _rows(arr) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _observe(counts, name, args, kwargs, result) -> None:
    """Counters read from a call's arguments and result."""
    if name == "powerflow.solve_nonlinear":
        counts["powerflow.sweep_iters"] += result.iterations
        counts["powerflow.not_converged"] += not result.converged
    elif name == "policy.forward_all":
        counts["policy.forward_rows"] += _rows(_arg(args, kwargs, 1, "v"))
    elif name == "controller.solve_equilibria_batch":
        _, _, conv, iters = result
        counts["controller.picard_iters"] += iters
        counts["controller.eq_skipped"] += int(np.sum(~np.asarray(conv)))
    elif name == "controller.solve_equilibrium":
        eq = result[0] if isinstance(result, tuple) else result
        counts["controller.picard_iters"] += eq.iterations
        counts["controller.eq_skipped"] += not eq.converged
    elif name == "trainer.train":
        scenarios, cfg = _arg(args, kwargs, 0, "scenarios"), _arg(args, kwargs, 1, "cfg")
        if hasattr(scenarios, "steps"):
            scenarios = [scenarios]
        counts["trainer.samples"] += cfg.epochs * sum(len(s.steps) for s in scenarios)
        counts["trainer.skipped"] += sum(int(row.get("skipped", 0)) for row in result[1])
    elif name == "oracle.solve_opf_linear":
        counts["oracle.iters"] += result.iterations
        counts["oracle.iters_max"] = max(counts["oracle.iters_max"], result.iterations)
        counts["oracle.kkt_max"] = max(counts["oracle.kkt_max"], result.kkt_residual)


class Tracer:
    """Records spans for ``targets`` while installed.

    ``count_box`` also counts reads of ``BoxLimits.lo``/``.hi``, each of which
    concatenates two arrays.
    """

    def __init__(self, targets, count_box: bool = False):
        self.targets = tuple(targets)
        self.count_box = count_box
        self.spans: list[tuple] = []  # (id, parent, repeat, name, start, end)
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # repeat -> name -> value
        self._stack: list[int] = []
        self._next = 0
        self._patched: list[tuple] = []
        self.repeat = ""

    # -- installing -------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "localopf" or n.startswith("localopf."))]
        for qual in self.targets:
            mod_name, attr = qual.split(".")
            orig = getattr(importlib.import_module(f"localopf.{mod_name}"), attr)
            wrapper = self._wrap(qual, orig)
            bound = 0
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))
                        bound += 1
            if not bound:
                raise RuntimeError(f"no binding of {qual} to trace")
        if self.count_box:
            box_cls = importlib.import_module("localopf.scenario").BoxLimits
            for prop in ("lo", "hi"):
                orig = box_cls.__dict__[prop]
                setattr(box_cls, prop, property(self._counting(orig.fget)))
                self._patched.append((box_cls, prop, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _counting(self, fget):
        def counted(box):
            self.counts[self.repeat]["scenario.box_concat_calls"] += 1
            return fget(box)
        return counted

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.repeat, name, start, end))
            _observe(counts[self.repeat], name, args, kwargs, result)
            return result

        return traced

    # -- the benchmark's own root span ---------------------------------------
    def root(self, repeat: str):
        """Context manager: one span named ROOT around a whole repeat."""
        return _Root(self, repeat)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "repeat", "name", "start_s", "end_s"])
            writer.writerows(self.spans)


class _Root:
    def __init__(self, tracer: Tracer, repeat: str):
        self.tracer = tracer
        self.repeat = repeat

    def __enter__(self):
        tr = self.tracer
        tr.repeat = self.repeat
        self.sid = tr._next
        tr._next += 1
        tr._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.sid, -1, self.repeat, ROOT, self.start, end))
        self.seconds = end - self.start
        return False


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return {sid: (end - start) - child[sid] for sid, _, _, _, start, end in spans}


def durations(spans, name, repeats) -> list[float]:
    """Durations of the spans called ``name`` in the given repeat ids."""
    return [end - start for _, _, rep, nm, start, end in spans
            if nm == name and rep in repeats]


def layer_summary(tracer: Tracer, repeats) -> dict[str, float]:
    """Per-layer metrics averaged over the traced ``repeats`` (a list of ids)."""
    reps = set(repeats)
    spans = [s for s in tracer.spans if s[2] in reps]
    nrep = max(len(reps), 1)
    selft = self_times(spans)
    by_id = {s[0]: s for s in spans}
    tot = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    policy_in_step = 0.0
    root_s = 0.0
    for sid, parent, _, name, start, end in spans:
        if name == ROOT:
            root_s += end - start
            continue
        tot[name] += end - start
        calls[name] += 1
        layer_self[name.split(".")[0]] += selft[sid]
        if (name in ("policy.forward_all", "scenario.project_box")
                and parent in by_id and by_id[parent][3] == STEP):
            policy_in_step += end - start
    cnt = defaultdict(float)
    for rep in reps:
        for key, val in tracer.counts[rep].items():
            cnt[key] = max(cnt[key], val) if key.endswith("_max") else cnt[key] + val

    def per(x):
        return x / nrep

    def mean(num, den):
        return num / den if den else 0.0

    pf_calls = calls["powerflow.solve_nonlinear"]
    eq_calls = calls["controller.solve_equilibria_batch"] + calls["controller.solve_equilibrium"]
    out = {
        "scenario.box_concat_calls": per(cnt["scenario.box_concat_calls"]),
        "powerflow.solve_calls": per(pf_calls),
        "powerflow.solve_s": per(tot["powerflow.solve_nonlinear"]),
        "powerflow.sweep_iters_mean": mean(cnt["powerflow.sweep_iters"], pf_calls),
        "powerflow.not_converged": per(cnt["powerflow.not_converged"]),
        "policy.forward_calls": per(calls["policy.forward_all"]),
        "policy.forward_s": per(tot["policy.forward_all"]),
        "policy.forward_rows_mean": mean(cnt["policy.forward_rows"], calls["policy.forward_all"]),
        "policy.backward_calls": per(calls["policy.backward_all"]),
        "policy.backward_s": per(tot["policy.backward_all"]),
        "controller.eq_batch_calls": per(calls["controller.solve_equilibria_batch"]),
        "controller.eq_batch_s": per(tot["controller.solve_equilibria_batch"]),
        "controller.picard_iters_mean": mean(cnt["controller.picard_iters"], eq_calls),
        "controller.eq_skipped": per(cnt["controller.eq_skipped"]),
        "controller.eq_single_calls": per(calls["controller.solve_equilibrium"]),
        "controller.eq_single_s": per(tot["controller.solve_equilibrium"]),
        "controller.step_calls": per(calls[STEP]),
        "controller.step_s": per(tot[STEP]),
        "controller.policy_s": per(policy_in_step),
        "trainer.train_s": per(tot["trainer.train"]),
        "trainer.samples_per_s": mean(cnt["trainer.samples"], tot["trainer.train"]),
        "trainer.adam_calls": per(calls["trainer.adam_update"]),
        "trainer.adam_s": per(tot["trainer.adam_update"]),
        "trainer.zo_jacobian_calls": per(calls["trainer.zo_voltage_jacobian"]),
        "trainer.zo_jacobian_s": per(tot["trainer.zo_voltage_jacobian"]),
        "trainer.skipped": per(cnt["trainer.skipped"]),
        "oracle.solve_calls": per(calls["oracle.solve_opf_linear"]),
        "oracle.solve_s": per(tot["oracle.solve_opf_linear"]),
        "oracle.iters_mean": mean(cnt["oracle.iters"], calls["oracle.solve_opf_linear"]),
        "oracle.iters_max": cnt["oracle.iters_max"],
        "oracle.kkt_max": cnt["oracle.kkt_max"],
        "oracle.baseline_step_s": per(tot["oracle.baseline_step"]),
        "runner.stage_operate_s": per(tot["runner.run_controller"] + tot["runner.run_no_control"]
                                      + tot["runner.run_baseline"]),
        "runner.stage_oracle_s": per(tot["runner.run_oracle"]),
        "runner.stage_evaluate_s": per(tot["runner.evaluate"]),
        "runner.stage_write_s": per(tot["runner.save_trajectory"] + tot["runner.write_training_log"]
                                    + tot["runner.write_manifest"] + tot["policy.save_policy"]),
        "runner.write_s": per(tot["runner.save_trajectory"]),
        "runner.load_s": per(tot["runner.load_trajectory"]),
    }
    covered = sum(layer_self.values())
    for layer in LAYERS:
        out[f"share.{layer}"] = mean(layer_self[layer], root_s)
    out["trace.coverage"] = mean(covered, root_s)
    out["trace.run_s"] = per(root_s)
    return out


def wrapper_costs(calls: int = 5000, trials: int = 7) -> tuple[float, float]:
    """Seconds a traced call and a counted box read add to the call they wrap.

    Measured on no-op functions as the median over ``trials`` of the extra
    time per call; a throwaway tracer holds the calibration spans.
    """
    tracer = Tracer(())
    tracer.repeat = "calibrate"

    def noop(_arg):
        return None

    def per_call(fn) -> float:
        clock = time.perf_counter
        times = []
        for _ in range(trials):
            tracer.spans.clear()
            start = clock()
            for _ in range(calls):
                fn(None)
            times.append((clock() - start) / calls)
        return float(np.median(times))

    base = per_call(noop)
    span = per_call(tracer._wrap("calibrate.noop", noop)) - base
    box = per_call(tracer._counting(noop)) - base
    tracer.spans.clear()
    return max(span, 0.0), max(box, 0.0)


def overhead_frac(spans: float, box_reads: float, traced_s: float,
                  costs: tuple[float, float]) -> float:
    """Tracing time over the time the traced work would take untraced.

    ``spans`` and ``box_reads`` are per repeat, ``traced_s`` the traced
    repeat time and ``costs`` what :func:`wrapper_costs` measured.
    """
    added = spans * costs[0] + box_reads * costs[1]
    return added / (traced_s - added)


def setup_summary(tracer: Tracer, setups) -> dict[str, float]:
    """Median seconds per set-up spent in feeder loading, sensitivities and scenarios."""
    out = {}
    for metric, name in (("feeder.load_s", "feeder.load_feeder"),
                         ("feeder.sensitivities_s", "feeder.build_sensitivities"),
                         ("scenario.generate_s", "scenario.generate_profile")):
        out[metric] = float(np.median([sum(durations(tracer.spans, name, {rep}))
                                       for rep in setups]))
    return out
