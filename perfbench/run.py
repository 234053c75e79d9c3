"""localopf benchmark: one workload per invocation.

    python3 perfbench/run.py --workload feeder37_day --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
runs the same workload untraced and then traced, and reports per-layer
metrics from spans recorded around calls into the package's public
functions.  Every metric is printed with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is nonzero when a correctness check fails.
Artifacts, spans and a results file go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
BENCH = ROOT / "BENCHMARK.json"
# A set-up point repeats a set-up shorter than this, so that the pipelines'
# 10-25 ms set-ups give ``setup_s`` enough samples for a steady median.
SETUP_BURST_S = 0.25
SETUP_BURST_MAX = 16


def _import_package():
    """Import localopf from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "localopf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no localopf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import localopf

    if Path(localopf.__file__).resolve().parent != SRC / "localopf":
        sys.exit(f"perfbench: localopf imported from {localopf.__file__}, not {SRC}")


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
    }


def _quantile(values, q: float) -> float:
    import numpy as np

    return float(np.quantile(values, q)) if len(values) else float("nan")


def _setup(wl, seed: int, sdir: Path, tracer, setups: list):
    """One set-up point: set up once, and again while the burst stays short.

    Each set-up is timed and appended to ``setups`` as (span id, seconds,
    training-log digest).  Returns the inputs of the last one.
    """
    burst = 0.0
    for j in range(SETUP_BURST_MAX):
        sid = f"{sdir.name}.{j}"
        with tracer, tracer.root(sid) as root:
            inp = wl.setup(seed, sdir)
        setups.append((sid, root.seconds, getattr(inp, "train_log_digest", None)))
        burst += root.seconds
        if burst + root.seconds > SETUP_BURST_S:
            break
    return inp


def _repeats(wl, seed: int, work: Path, tracer, seconds: float, label: str, setups: list):
    """Alternate timed set-ups and repeats for ``seconds``; end with a set-up.

    Each repeat runs on the inputs of the set-up just before it, so set-up
    times are sampled across the whole run, as repeat times are.  Another
    repeat starts only if it still ends within ``seconds`` at the length of
    the last one (there is always at least one).  ``setups`` collects every
    set-up, see :func:`_setup`.  Only the first repeat's artifacts are kept
    on disk.
    """
    from tracing import STEP, durations
    from workloads import Outcome

    results = []
    start = time.perf_counter()
    k = 0
    while True:
        sdir = work / f"{label}-setup{k}"
        inp = _setup(wl, seed, sdir, tracer, setups)
        if results and time.perf_counter() - start + results[-1].seconds > seconds:
            shutil.rmtree(sdir)
            return results
        rid = f"{label}{k}"
        wl.prepare(inp, k)
        produced, error = None, None
        with tracer, tracer.root(rid) as root:
            try:
                produced = wl.body(inp, k)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
        if error is None:
            res = wl.check(inp, k, produced)
        else:
            res = Outcome(attempted=wl.attempted(inp, k), failures=[repr(error)])
        res.seconds = root.seconds
        res.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        res.steps = durations(tracer.spans, STEP, {rid})
        res.rid = rid
        results.append(res)
        if k:
            shutil.rmtree(sdir)
        k += 1


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    from tracing import (LAYER_TARGETS, ROOT, STEP, Tracer, layer_summary, overhead_frac,
                         setup_summary, wrapper_costs)
    from workloads import DEFAULT_SEED, WORKLOADS

    wl = WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    layer_tracer = Tracer(LAYER_TARGETS, count_box=True)
    plain = Tracer((STEP,))
    setups: list[tuple[str, float, str | None]] = []
    if trace:
        results = _repeats(wl, seed, work, plain, seconds / 2, "plain", setups)
        n_plain = len(setups)
        results += _repeats(wl, seed, work, layer_tracer, seconds / 2, "traced", setups)
        traced_setups = [sid for sid, _, _ in setups[n_plain:]]
    else:
        results = _repeats(wl, seed, work, plain, seconds, "repeat", setups)
    setup_s = [sec for _, sec, _ in setups]
    failures = []
    if len({digest for _, _, digest in setups}) != 1:
        failures.append("set-ups trained different policies")

    # Determinism: every repeat of the same input must write the same bytes.
    # A feeder37_day repeat outlasts a 30 s --trace 0 run, so its bytes are
    # compared between repeats by the --trace 1 run (one untraced and one
    # traced repeat), and at the default seed also with baseline.json.
    digests: dict[str, str] = {}
    for res in results:
        for fname, dig in res.digests.items():
            if digests.setdefault(fname, dig) != dig:
                res.failures.append(f"{fname} differs between repeats")
    baseline = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
    ref = baseline.get("digests", {}).get(name) if seed == DEFAULT_SEED else None
    if ref is None:
        digest_note = "no reference for this seed"
    else:
        changed = sorted(f for f in digests if ref.get(f) != digests[f])
        digest_note = "identical to baseline" if not changed else "differ: " + ",".join(changed)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results) + (attempted if failures else 0)
    failed = min(failed, attempted)
    # controller.step latency from untraced repeats only
    plain_runs = [r for r in results if not r.rid.startswith("traced")]
    steps_ms = [1e3 * s for r in plain_runs for s in r.steps]
    info = {
        "repeats": len(results),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": failures + [f"{r.rid}: {f}" for r in results for f in r.failures],
        "digests": digests,
        "digests_vs_baseline": digest_note,
        "bytes_written": float(np.median([r.bytes_written for r in results])),
        "step_samples": len(steps_ms),
        "step_p50_ms": _quantile(steps_ms, 0.50),
        "step_p95_ms": _quantile(steps_ms, 0.95),
        "step_p99_ms": _quantile(steps_ms, 0.99),
        "slots_per_s": len(steps_ms) / sum(r.seconds for r in plain_runs),
    }
    for key in sorted({k for r in results for k in r.quality}):
        info[key] = float(np.median([r.quality[key] for r in results if key in r.quality]))

    if trace:
        traced_ids = [r.rid for r in results if r.rid.startswith("traced")]
        metrics = layer_summary(layer_tracer, traced_ids)
        metrics.update(setup_summary(layer_tracer, traced_setups))
        metrics["controller.step_p50_ms"] = info["step_p50_ms"]
        metrics["controller.step_p99_ms"] = info["step_p99_ms"]
        metrics["runner.bytes_written"] = info["bytes_written"]
        ids = set(traced_ids)
        spans = sum(1 for s in layer_tracer.spans if s[2] in ids and s[3] != ROOT) / len(ids)
        metrics["trace.overhead_frac"] = overhead_frac(
            spans, metrics["scenario.box_concat_calls"], metrics["trace.run_s"], wrapper_costs())
    else:
        metrics = {
            # the mean, not the median: a shared 2-vCPU VM's speed can drift by
            # up to 1.5x within seconds, and the mean weighs every part of the run
            "run_s": float(np.mean([r.seconds for r in results])),
            "setup_s": float(np.median(setup_s)),
            # through set-up and the first repeat: later repeats only add
            # allocator fragmentation, which varies with the repeat count
            "peak_rss_mb": results[0].rss_mb,
        }
    units = declared_units(trace)
    if set(metrics) != set(units):
        sys.exit(f"perfbench: measured metrics differ from {BENCH.name}: missing "
                 f"{sorted(set(units) - set(metrics))}, undeclared "
                 f"{sorted(set(metrics) - set(units))}")
    work.mkdir(parents=True, exist_ok=True)
    if trace:
        layer_tracer.write_csv(work / "spans.csv")
    return {"workload": name, "trace": trace, "environment": _environment(seed),
            "setup_s_all": setup_s, "run_s_all": [r.seconds for r in results],
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            "info": info, "correct": failed == 0, "attempted": attempted, "failed": failed}


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares the metrics of this mode."""
    bench = json.loads(BENCH.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


# Printed and kept in the results file, but not bounded: the quality numbers
# are 0 or need the oracle on some workloads, and step latency samples a
# window too short on the pipeline workloads to be steady.
INFO_UNITS = {
    "step_p50_ms": "ms", "step_p95_ms": "ms", "step_p99_ms": "ms", "slots_per_s": "1/s",
    "step_samples": "count", "ctrl_abs_gap": "cost", "ctrl_volt_violation": "pu",
    "attempted": "count", "failed": "count", "fail_frac": "frac", "repeats": "count",
    "digests_vs_baseline": "",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, default=float), encoding="utf-8")

    for key, val in result["metrics"].items():
        print(f"{key} {val['value']:.6g} {val['unit']}")
    info = result["info"]
    for key, unit in INFO_UNITS.items():
        if key in info:
            print(f"info {key} {info[key]} {unit}")
    for failure in info["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
