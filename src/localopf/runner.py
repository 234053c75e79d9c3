"""Metrics, trajectory bookkeeping, and experiment orchestration.

Reproduces the full pipeline — generate scenarios, train the local policies,
operate the controller on the nonlinear plant, solve the per-slot ground
truth, evaluate — and writes every artifact (trajectory CSVs, training log,
evaluation report, flat manifest) to a run directory.  A trajectory takes
its slot labels and injections from the scenario's arrays and is written
and read in the scenario module's long-format slot CSV.  Reruns with an
identical config are bit-identical at the CSV level; wall-clock timings live
only in the JSON report.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .controller import ControllerConfig, check_stability, plant_voltage, step
from .feeder import FeederGraph, LinearVoltageModel, build_sensitivities, load_feeder
from .oracle import BaselineState, baseline_step, solve_opf_linear
from .policy import save_policy
from .scenario import (
    GeneratorConfig,
    Scenario,
    convexity_constants,
    cost_value,
    generate_profile,
    read_slots,
    write_slots,
)
from .trainer import StabilityError, TrainerConfig, train


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed record of setpoints, voltages, and objective values."""

    t: np.ndarray  # (T,)
    x: np.ndarray  # (T, 2N)
    v: np.ndarray  # (T, N) squared voltages
    p_u: np.ndarray  # (T, N)
    q_u: np.ndarray  # (T, N)
    objective: np.ndarray  # (T,)

    @property
    def horizon(self) -> int:
        return len(self.t)

    @property
    def n(self) -> int:
        return self.v.shape[1]


def save_trajectory(traj: Trajectory, path) -> None:
    """Long-format CSV `t,node,p,q,v,p_u,q_u,objective`; repr() floats."""
    n = traj.n
    write_slots(path, traj.t, {"p": traj.x[:, :n], "q": traj.x[:, n:], "v": traj.v,
                               "p_u": traj.p_u, "q_u": traj.q_u, "objective": traj.objective})


def load_trajectory(path) -> Trajectory:
    """Inverse of :func:`save_trajectory`."""
    t, cols = read_slots(path)
    return Trajectory(t=t, x=np.concatenate([cols["p"], cols["q"]], axis=1), v=cols["v"],
                      p_u=cols["p_u"], q_u=cols["q_u"], objective=cols["objective"][:, 0])


@dataclass(frozen=True)
class EvaluationReport:
    """Horizon statistics; ``relative_gap`` = sum|f - f*| / sum f* over f* > 0 (a ratio of sums)."""

    absolute_gap: float
    relative_gap: float
    volt_violation: float
    excluded_steps: int  # relative-gap steps dropped for a zero oracle objective


def volt_violation_series(v: np.ndarray, v_lo, v_hi) -> np.ndarray:
    """Per-step ||[V_lo - V]_+||_2 + ||[V - V_hi]_+||_2 on voltage magnitudes."""
    V = np.sqrt(np.asarray(v, dtype=float))
    V_lo = np.sqrt(np.broadcast_to(np.asarray(v_lo, dtype=float), v.shape[1:]))
    V_hi = np.sqrt(np.broadcast_to(np.asarray(v_hi, dtype=float), v.shape[1:]))
    under = np.linalg.norm(np.maximum(V_lo - V, 0.0), axis=1)
    over = np.linalg.norm(np.maximum(V - V_hi, 0.0), axis=1)
    return under + over


def evaluate(
    controlled: Trajectory,
    oracle_traj: Trajectory,
    v_lo,
    v_hi,
) -> EvaluationReport:
    """Horizon-averaged gap and voltage-violation statistics.

    Steps where the oracle objective is zero are excluded from the relative
    gap and counted in ``excluded_steps``.
    """
    if controlled.horizon != oracle_traj.horizon:
        raise ValueError("trajectories must share the horizon")
    gap = np.abs(controlled.objective - oracle_traj.objective)
    denom = oracle_traj.objective
    nonzero = denom > 0.0
    rel = np.sum(gap[nonzero]) / np.sum(denom[nonzero]) if np.any(nonzero) else 0.0
    return EvaluationReport(
        absolute_gap=float(np.mean(gap)),
        relative_gap=float(rel),
        volt_violation=float(np.mean(volt_violation_series(controlled.v, v_lo, v_hi))),
        excluded_steps=int(np.sum(~nonzero)),
    )


# ---------------------------------------------------------------------------
# Trajectory producers.

def _trajectory(scenario: Scenario, x, v) -> Trajectory:
    """Trajectory over ``scenario``'s slots from per-slot setpoints and voltages."""
    x = np.array(x)
    n = x.shape[1] // 2
    return Trajectory(t=scenario.t, x=x, v=np.array(v), p_u=scenario.p_u, q_u=scenario.q_u,
                      objective=cost_value(scenario.cost, x[:, :n], x[:, n:]))


def _operate(scenario: Scenario, x0, update, model: LinearVoltageModel, graph: FeederGraph,
             plant: str):
    """The closed-loop day: operate ``update`` on ``plant`` over ``scenario``'s slots.

    ``update(x, v_hat, slot)`` maps the held setpoint ``x`` and its
    measurement ``v_hat``, the squared voltages under ``slot``'s injections,
    to the setpoint applied in that slot.  The loop measures the start
    setpoint ``x0`` (the box midpoint if None) under slot 0; after each
    update one plant call on the rows of slots t and t+1 records the new
    setpoint in slot t and measures it for slot t+1 (one row on the last
    slot), so a day of T slots makes T+1 calls.
    Returns (Trajectory, (update seconds, plant seconds)), both means per slot.
    """
    clock = time.perf_counter
    x = scenario.box.midpoint if x0 is None else np.asarray(x0, dtype=float)
    p_u, q_u = scenario.p_u, scenario.q_u
    start = clock()
    v_hat = plant_voltage(x, p_u[0], q_u[0], model, graph, plant)
    plant_s = clock() - start
    update_s = 0.0
    rows_x, rows_v = [], []
    for t, slot in enumerate(scenario.steps):
        t0 = clock()
        x = update(x, v_hat, slot)
        t1 = clock()
        p, q = p_u[t:t + 2], q_u[t:t + 2]
        v = plant_voltage(np.tile(x, (len(p), 1)), p, q, model, graph, plant)
        plant_s += clock() - t1
        update_s += t1 - t0
        rows_x.append(x)
        rows_v.append(v[0])
        v_hat = v[-1]
    T = len(scenario)
    return _trajectory(scenario, rows_x, rows_v), (update_s / T, plant_s / T)


def run_controller(
    scenario: Scenario,
    policy,
    model: LinearVoltageModel,
    graph: FeederGraph,
    cfg: ControllerConfig,
    x0: np.ndarray | None = None,
):
    """Operate the trained controller on ``cfg.plant`` over a scenario.

    Returns (Trajectory, (update seconds, plant seconds)): the mean wall time
    per slot of the local update :func:`step` and of the plant calls.
    Starts from the box midpoint unless ``x0`` is given.
    """
    return _operate(scenario, x0, lambda x, v_hat, slot: step(x, v_hat, slot, policy, cfg),
                    model, graph, cfg.plant)


def run_no_control(scenario: Scenario, model: LinearVoltageModel,
                   graph: FeederGraph) -> Trajectory:
    """Hold every controllable setpoint at zero; record the plant response in one batched solve."""
    x = np.zeros((len(scenario), 2 * graph.n))
    v = plant_voltage(x, scenario.p_u, scenario.q_u, model, graph, "nonlinear")
    return _trajectory(scenario, x, v)


def run_baseline(
    scenario: Scenario,
    model: LinearVoltageModel,
    graph: FeederGraph,
    v_lo,
    v_hi,
    alpha_b: float,
    sigma_b: float,
    x0: np.ndarray | None = None,
) -> Trajectory:
    """Operate the communication-heavy feedback primal-dual comparator on the nonlinear plant."""
    n = graph.n
    x = scenario.box.midpoint if x0 is None else np.asarray(x0, dtype=float)
    v_lo = np.broadcast_to(np.asarray(v_lo, dtype=float), (n,))
    v_hi = np.broadcast_to(np.asarray(v_hi, dtype=float), (n,))
    state = BaselineState(x=x, mu_lo=np.zeros(n), mu_hi=np.zeros(n),
                          alpha_b=alpha_b, sigma_b=sigma_b)

    def update(_x, v_hat, slot):  # the state carries the held setpoint and the duals
        nonlocal state
        state = baseline_step(state, v_hat, slot, model, v_lo, v_hi)
        return state.x

    return _operate(scenario, x, update, model, graph, "nonlinear")[0]


def run_oracle(scenario: Scenario, model: LinearVoltageModel, v_lo, v_hi) -> Trajectory:
    """Per-slot exact optima under the linearized plant."""
    sols = [solve_opf_linear(s, model, v_lo, v_hi) for s in scenario.steps]
    return _trajectory(scenario, [sol.x_star for sol in sols], [sol.v_star for sol in sols])


# ---------------------------------------------------------------------------
# Experiment orchestration.

class StageError(RuntimeError):
    """Pipeline failure; carries the stage name for exit-code mapping."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


STAGES = ("config", "feeder", "scenario", "stability", "train",
          "operate", "oracle", "evaluate", "write")


@contextmanager
def stage(name: str):
    """Re-raise a failure inside the block as a StageError of stage ``name``.

    A StabilityError belongs to the ``stability`` stage wherever it is raised.
    """
    try:
        yield
    except StageError:
        raise
    except StabilityError as exc:
        raise StageError("stability", str(exc)) from exc
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise StageError("config", f"config root must be a mapping: {path}")
    return cfg


def config_hash(cfg: dict) -> str:
    """Stable hash of the fully-resolved configuration."""
    canon = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# Keys each config section accepts; None marks a top-level scalar.
_CONFIG_KEYS = {
    "feeder": None,
    "output_dir": None,
    "scenario": {f.name for f in fields(GeneratorConfig) if f.name != "horizon"}
    | {"horizon_train", "horizon_test", "train_seeds", "test_seed"},
    "trainer": {f.name for f in fields(TrainerConfig)} - {"v_lo", "v_hi"},
    "limits": {"v_lo", "v_hi"},
    "baseline": {"alpha_b", "sigma_b"},
}

# YAML value -> dataclass field value, keyed by the field's annotation.
_COERCE = {
    "float": float,
    "int": int,
    "bool": bool,
    "str": str,
    "float | None": lambda v: None if v is None else float(v),
    "np.ndarray": lambda v: np.asarray(v, dtype=float),
    "tuple[int, ...]": lambda v: tuple(int(i) for i in v),
    "tuple[int, int]": lambda v: tuple(int(i) for i in v),
    "tuple[tuple[float, float], ...]": lambda v: tuple((float(a), float(b)) for a, b in v),
}


def resolve_config(path, overrides=()) -> tuple[dict, Path]:
    """Load a YAML config, apply dotted ``key=value`` overrides, check its keys.

    Override values are parsed as YAML.  Returns the config and the feeder
    path resolved against the config's directory; the config keeps the path
    as written, so its hash does not depend on where it was loaded from.
    Raises StageError('config') for an unreadable file, a malformed override
    or a key that no section knows.
    """
    with stage("config"):
        cfg = load_config(path)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise StageError("config", f"override must be key=value: {item}")
        *sections, leaf = key.split(".")
        node = cfg
        for part in sections:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise StageError("config", f"override {item}: '{part}' is not a section")
        node[leaf] = yaml.safe_load(raw)
    for key, value in cfg.items():
        if key not in _CONFIG_KEYS:
            raise StageError("config", f"unknown config key '{key}'")
        known = _CONFIG_KEYS[key]
        if known is None:
            continue
        if not isinstance(value, dict):
            raise StageError("config", f"config section '{key}' must be a mapping")
        unknown = sorted(set(value) - known)
        if unknown:
            raise StageError("config", f"unknown key(s) in '{key}': {', '.join(unknown)}")
    if "feeder" not in cfg:
        raise StageError("config", "no feeder configured")
    return cfg, Path(path).parent / str(cfg["feeder"])


def _from_section(cls, section: dict, **fixed):
    """``cls`` from the section's keys that name its fields, coerced to their types."""
    values = {f.name: _COERCE[f.type](section[f.name]) for f in fields(cls) if f.name in section}
    return cls(**{**values, **fixed})


def generator_config(cfg: dict, horizon: int) -> GeneratorConfig:
    """Load-generator settings of the ``scenario`` section for ``horizon`` slots."""
    return _from_section(GeneratorConfig, cfg["scenario"], horizon=horizon)


def trainer_config(cfg: dict) -> TrainerConfig:
    """Trainer settings of the ``trainer`` section with the ``limits`` voltage band."""
    return _from_section(TrainerConfig, {**cfg.get("trainer", {}), **cfg.get("limits", {})})


def load_network(feeder_path) -> tuple[FeederGraph, LinearVoltageModel]:
    """Feeder graph and its sensitivity model; failures belong to the ``feeder`` stage."""
    with stage("feeder"):
        graph = load_feeder(feeder_path)
        return graph, build_sensitivities(graph)


def _train_seeds(cfg: dict) -> list[int]:
    """Seeds of the training days; one day of seed 1 unless configured."""
    return [int(s) for s in cfg["scenario"].get("train_seeds", [1])]


def run_training(cfg: dict, tr_cfg: TrainerConfig, graph: FeederGraph,
                 model: LinearVoltageModel, out: Path):
    """Generate the training days, train, and write ``policy.npz`` and ``training_log.csv``.

    Failures belong to the ``scenario`` and ``train`` stages.  ``out`` must
    exist.  Returns (TrainerState, training log).
    """
    with stage("scenario"):
        gen = generator_config(cfg, int(cfg["scenario"]["horizon_train"]))
        scns = [generate_profile(graph, gen, s) for s in _train_seeds(cfg)]
    with stage("train"):
        state, log = train(scns, tr_cfg, graph, model)
    write_training_log(log, out / "training_log.csv")
    save_policy(state.policy, out / "policy.npz")
    return state, log


def write_training_log(log, path) -> None:
    """CSV, one row per epoch.

    Columns: `epoch,lagrangian,mean_cost,viol_rate_lo,viol_rate_hi,mu_norm`,
    then `skipped` (the epoch's samples whose equilibrium did not converge)
    and `live_channels` (the mean count per minibatch of policy channels
    with a nonzero gradient).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lagrangian", "mean_cost", "viol_rate_lo", "viol_rate_hi",
                         "mu_norm", "skipped", "live_channels"])
        for row in log:
            writer.writerow([
                row["epoch"],
                repr(float(row["lagrangian"])), repr(float(row["mean_cost"])),
                repr(float(row["viol_rate_lo"])), repr(float(row["viol_rate_hi"])),
                repr(float(row["mu_norm"])), int(row["skipped"]),
                repr(float(row["live_channels"])),
            ])


def write_manifest(path, entries: dict) -> None:
    """Flat `key=value` manifest, sorted by key."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(entries):
            fh.write(f"{key}={entries[key]}\n")


def run_experiment(config_path, output_dir=None, overrides=()) -> Path:
    """End-to-end pipeline from a single config file plus dotted overrides.

    Stages: config → feeder → scenario → stability → train → operate →
    oracle → evaluate → write.  The output directory resolves, in order,
    from the ``output_dir`` argument, the LOCALOPF_OUTDIR environment
    variable, and the config's ``output_dir`` key.  Returns the directory.
    """
    cfg, feeder_path = resolve_config(config_path, overrides)
    with stage("config"):
        tr_cfg = trainer_config(cfg)
    out = output_dir or os.environ.get("LOCALOPF_OUTDIR") or cfg.get("output_dir")
    if out is None:
        raise StageError("config", "no output directory configured")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)

    graph, model = load_network(feeder_path)
    with stage("scenario"):
        test_seed = int(cfg["scenario"].get("test_seed", 1000))
        test_scn = generate_profile(
            graph, generator_config(cfg, int(cfg["scenario"]["horizon_test"])), test_seed)
    state, _ = run_training(cfg, tr_cfg, graph, model, out)

    m, xi = convexity_constants(test_scn.cost)
    stability = check_stability(m, xi, model.a_norm, state.policy, tr_cfg.alpha)

    v_lo, v_hi = tr_cfg.v_lo, tr_cfg.v_hi
    ctrl_cfg = ControllerConfig(alpha=tr_cfg.alpha, plant="nonlinear")
    x0 = test_scn.box.midpoint
    with stage("operate"):
        ctrl_traj, (step_time, plant_time) = run_controller(test_scn, state.policy, model,
                                                            graph, ctrl_cfg, x0=x0)
        nc_traj = run_no_control(test_scn, model, graph)
        bcfg = cfg.get("baseline", {})
        alpha_b = float(bcfg.get("alpha_b", tr_cfg.alpha))
        # unless set, the dual step gives the loop gain alpha_b * sigma_b * ||A||^2 = 1
        sigma_b = float(bcfg.get("sigma_b", 1.0 / (alpha_b * model.a_norm**2)))
        base_traj = run_baseline(test_scn, model, graph, v_lo, v_hi,
                                 alpha_b=alpha_b, sigma_b=sigma_b, x0=x0)

    with stage("oracle"):
        oracle_traj = run_oracle(test_scn, model, v_lo, v_hi)

    trajectories = {"controller": ctrl_traj, "no_control": nc_traj, "baseline": base_traj}
    with stage("evaluate"):
        payload = {name: asdict(evaluate(traj, oracle_traj, v_lo, v_hi))
                   for name, traj in trajectories.items()}

    with stage("write"):
        for name, traj in {**trajectories, "oracle": oracle_traj}.items():
            save_trajectory(traj, out / f"{name}_trajectory.csv")
        payload.update(stability=stability.summary(), mean_step_time=step_time,
                       mean_plant_time=plant_time)
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        write_manifest(out / "manifest.txt", {
            "config_hash": config_hash(cfg),
            "package_version": __version__,
            "numpy_version": np.__version__,
            "feeder": str(cfg["feeder"]),
            "n_bus": graph.n,
            "train_seeds": ",".join(str(s) for s in _train_seeds(cfg)),
            "test_seed": test_seed,
            "trainer_seed": tr_cfg.seed,
            "beta": tr_cfg.beta,
            "alpha": tr_cfg.alpha,
            "mode": tr_cfg.mode,
            "epochs": tr_cfg.epochs,
            "batch_size": tr_cfg.batch_size,
            "x0": ",".join(repr(float(xx)) for xx in x0),
        })
    return out


def sweep(config_path, grid: dict, output_dir=None, overrides=()) -> Path:
    """Run the experiment at every point of ``grid`` and tabulate the reports.

    ``grid`` maps dotted config keys to value lists; its points are their
    cross product, each applied after ``overrides``.  Every point is resolved
    before the first run, so a bad key or trainer setting fails at the
    ``config`` stage having run nothing.  A point runs in the subdirectory
    named by its settings, ``key=value,...`` with JSON values.  Writes
    `sweep.csv`, one row per point: its values, then every entry of its
    `report.json` sections as `section.key`; each cell is JSON.
    """
    combos = list(itertools.product(*grid.values()))
    if not combos:
        raise StageError("config", "the sweep grid has no points")
    points = [[f"{key}={json.dumps(value)}" for key, value in zip(grid, combo)]
              for combo in combos]
    for point in points:
        cfg, _ = resolve_config(config_path, [*overrides, *point])
        with stage("config"):
            trainer_config(cfg)
    out = Path(output_dir or os.environ.get("LOCALOPF_OUTDIR")
               or cfg.get("output_dir") or ".")
    rows = []
    for point, combo in zip(points, combos):
        run_dir = run_experiment(config_path, output_dir=out / ",".join(point),
                                 overrides=[*overrides, *point])
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        rows.append({**dict(zip(grid, combo)),
                     **{f"{section}.{key}": value for section, block in report.items()
                        if isinstance(block, dict) for key, value in block.items()}})
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows([json.dumps(value) for value in row.values()] for row in rows)
    return out
