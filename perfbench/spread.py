"""Run the benchmark over workloads and seeds, and the run-to-run spread.

    python3 perfbench/spread.py                         # every workload, seeds 1-10
    python3 perfbench/spread.py --seeds 1               # every workload once
    python3 perfbench/spread.py --workloads feeder8_zo --seeds 1-5

Runs ``perfbench/run.py --trace 0`` once per workload and seed, one run at a
time, printing each run's metrics with their units.  For each workload it
then prints every metric's median, quartiles and interquartile range as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
``--json PATH`` also writes every value and the summary.  The exit code is 1
when a run fails or a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.5g} {m['unit']}" for k, m in result["metrics"].items()),
                flush=True)
        if not values:
            continue
        summary = {name: summarize(vals) for name, vals in values.items()}
        print(f"{workload:<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, s in summary.items():
            print(f"  {name:<14}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
                  f"{s['spread']:>9.3f}{bounds.get(name, float('nan')):>7}")
        report[workload] = {"values": values, "summary": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seconds": args.seconds, "seeds": _seeds(args.seeds), "workloads": report},
            indent=2), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
