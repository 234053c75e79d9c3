"""Command-line entry points for the experiment pipeline.

Every subcommand but ``evaluate`` takes a single YAML config plus dotted-key
overrides (``-o trainer.beta=0.05``).  Exit code 0 on success; each pipeline
stage has its own nonzero exit code so callers can tell where a run died.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from .controller import check_stability
from .policy import load_policy
from .runner import (
    STAGES,
    StageError,
    day_settings,
    evaluate,
    load_network,
    load_trajectory,
    resolve_config,
    run_experiment,
    run_training,
    stage,
    sweep,
    trainer_config,
)
from .scenario import convexity_constants, generate_profile, save_scenario
from .trainer import controllable_nodes, initial_state

# exit codes: 1 = generic (usage errors included), 2.. = stage-specific
STAGE_EXIT = {name: i + 2 for i, name in enumerate(STAGES)}


def cmd_build_feeder(args) -> int:
    _, feeder_path = resolve_config(args.config, args.override)
    graph, model = load_network(feeder_path)
    eig_r = np.linalg.eigvalsh(model.R)
    eig_x = np.linalg.eigvalsh(model.X)
    print(json.dumps({
        "n_bus": graph.n,
        "base_kva": graph.base_power,
        "v0": graph.v0,
        "a_norm": model.a_norm,
        "R_min_eig": float(eig_r[0]),
        "X_min_eig": float(eig_x[0]),
        "R_symmetric": bool(np.allclose(model.R, model.R.T)),
        "X_symmetric": bool(np.allclose(model.X, model.X.T)),
    }, indent=2))
    return 0


def cmd_gen_scenario(args) -> int:
    cfg, feeder_path = resolve_config(args.config, args.override)
    with stage("config"):
        gen, _ = day_settings(cfg, "train")
    graph, _ = load_network(feeder_path)
    with stage("scenario"):
        scn = generate_profile(graph, gen, int(args.seed))
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_scenario(scn, out, out.with_suffix(".yaml"))
    print(f"wrote {out} ({len(scn)} steps, seed {args.seed})")
    return 0


def cmd_train(args) -> int:
    cfg, feeder_path = resolve_config(args.config, args.override)
    with stage("config"):
        tr_cfg = trainer_config(cfg)
        days = day_settings(cfg, "train")
    graph, model = load_network(feeder_path)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    _, log = run_training(days, tr_cfg, graph, model, out)
    final = f"; final lagrangian {log[-1]['lagrangian']:.6g}" if log else ""
    print(f"trained {tr_cfg.epochs} epochs{final}; artifacts in {out}")
    return 0


def cmd_run(args) -> int:
    out = run_experiment(args.config, output_dir=args.output, overrides=args.override)
    print(f"experiment artifacts in {out}")
    return 0


def cmd_evaluate(args) -> int:
    with stage("evaluate"):
        controlled = load_trajectory(args.controlled)
        oracle_traj = load_trajectory(args.oracle)
        report = evaluate(controlled, oracle_traj, float(args.v_lo), float(args.v_hi))
    print(json.dumps(asdict(report), indent=2, sort_keys=True))
    return 0


def cmd_check_conditions(args) -> int:
    cfg, feeder_path = resolve_config(args.config, args.override)
    with stage("config"):
        tr_cfg = trainer_config(cfg)
        gen, (test_seed,) = day_settings(cfg, "test")
        policy = load_policy(args.policy) if args.policy else None
    graph, model = load_network(feeder_path)
    with stage("stability"):
        scn = generate_profile(graph, gen, test_seed)
        nodes = controllable_nodes(scn.box)  # the nodes training gives a policy
        if policy is None:  # the policy training starts from, on the held-out day
            policy = initial_state(scn.p_u, scn.q_u, scn.cost, scn.box, tr_cfg, graph,
                                   model).policy
        elif (policy.n_bus, policy.nodes) != (graph.n, nodes):
            raise StageError("config", f"policy {args.policy} is for {policy.n_bus} buses with "
                             f"controllable nodes {list(policy.nodes)}, but the config's feeder "
                             f"has {graph.n} buses and controllable nodes {list(nodes)}")
        m, xi = convexity_constants(scn.cost)
        report = check_stability(m, xi, model.a_norm, policy, tr_cfg.alpha)
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    return 0 if report.all_ok else STAGE_EXIT["stability"]


def cmd_sweep(args) -> int:
    grid = {}
    with stage("config"):
        for item in args.grid:
            key, sep, raw = item.partition("=")
            if not sep:
                raise ValueError(f"grid must be key=value,...: {item}")
            grid[key] = yaml.safe_load(f"[{raw}]")  # the values as one YAML flow list
    out = sweep(args.config, grid, output_dir=args.output, overrides=args.override)
    print(f"sweep artifacts in {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localopf",
        description="Data-driven real-time OPF control on radial feeders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, config=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if config:
            p.add_argument("config")
            p.add_argument("-o", "--override", action="append", default=[],
                           help="dotted config override, e.g. trainer.beta=0.05")
        return p

    add("build-feeder", cmd_build_feeder, "load a feeder and report its sensitivity model")

    p = add("gen-scenario", cmd_gen_scenario, "generate a synthetic scenario CSV")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--output", required=True)

    p = add("train", cmd_train, "train the local feedback policies")
    p.add_argument("--output", required=True)

    p = add("run", cmd_run, "run the full experiment pipeline")
    p.add_argument("--output", default=None)

    p = add("evaluate", cmd_evaluate, "compute gap/violation metrics from trajectory CSVs",
            config=False)
    p.add_argument("controlled")
    p.add_argument("oracle")
    p.add_argument("--v-lo", default=0.95**2)
    p.add_argument("--v-hi", default=1.05**2)

    p = add("check-conditions", cmd_check_conditions, "evaluate the stability conditions")
    p.add_argument("--policy", default=None)

    p = add("sweep", cmd_sweep, "run the experiment at every point of a config grid")
    p.add_argument("-g", "--grid", action="append", required=True,
                   help="dotted config key and its values, e.g. trainer.seed=0,1,2")
    p.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return STAGE_EXIT[exc.stage]
    except Exception as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
