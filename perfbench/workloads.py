"""The benchmark's workloads, their inputs and their correctness checks.

Each workload builds its inputs from a seed in ``setup`` and runs one timed
repeat in ``body``; ``check`` then verifies that repeat's outputs outside the
timed region.  The seed picks the held-out day: ``test_seed = seed + 999``,
so the default seed 1 reproduces the shipped configs.  The training days stay
the shipped ``train_seeds``: how many Picard iterations training needs depends
on them (1.2 per batch solve on the shipped 37-bus days, 6.2 on days 8-10,
which nearly doubles training time), and a seed that moved them would make
the timings bimodal across seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from localopf import cli, feeder, policy, powerflow, runner, scenario
from localopf.controller import ControllerConfig

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "localopf" / "data"
DEFAULT_SEED = 1
TEST_OFFSET = 999  # held-out day seed = seed + TEST_OFFSET
TOL = 1e-8  # oracle feasibility and plant residual tolerance
RESIDUAL_SAMPLES = 8  # controller slots re-solved per trajectory
ARTIFACTS = ("controller_trajectory.csv", "no_control_trajectory.csv",
             "baseline_trajectory.csv", "oracle_trajectory.csv", "training_log.csv")


class SetupError(RuntimeError):
    """The workload's inputs could not be built."""


@dataclass
class Outcome:
    """What one repeat produced, filled in by ``body`` and ``check``."""

    attempted: int
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    rss_mb: float = 0.0  # peak resident memory of the process after the repeat
    steps: list[float] = field(default_factory=list)  # controller.step latencies, s
    rid: str = ""

    @property
    def failed(self) -> int:
        return self.attempted if self.failures else 0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def resolved_config(config: str, seed: int, overrides: dict) -> dict:
    """Shipped config with the held-out day from ``seed``, an absolute feeder path
    and ``overrides``."""
    cfg = yaml.safe_load((DATA / config).read_text(encoding="utf-8"))
    cfg["feeder"] = str(DATA / cfg["feeder"])
    cfg["scenario"]["test_seed"] = seed + TEST_OFFSET
    for section, values in overrides.items():
        cfg[section].update(values)
    return cfg


def write_config(cfg: dict, work: Path) -> Path:
    work.mkdir(parents=True, exist_ok=True)
    path = work / "config.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
    return path


def generator_config(cfg: dict, horizon: int) -> scenario.GeneratorConfig:
    scfg = cfg["scenario"]
    return scenario.GeneratorConfig(
        controllable=tuple(int(i) for i in scfg["controllable"]),
        d_def_p_kva=np.asarray(scfg["d_def_p_kva"], dtype=float),
        d_def_q_kva=np.asarray(scfg["d_def_q_kva"], dtype=float),
        horizon=horizon,
        tau=float(scfg["tau"]),
        trend=tuple((float(h), float(f)) for h, f in scfg["trend"]),
        noise_sd=float(scfg["noise_sd"]),
        cost_weight=float(scfg["cost_weight"]),
        p_cap_kva=float(scfg["p_cap_kva"]),
        q_cap_kvar=float(scfg["q_cap_kvar"]),
    )


def _finite(node) -> bool:
    if isinstance(node, dict):
        return all(_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


# ---------------------------------------------------------------------------
# Output checks.

def check_injections(traj, scn) -> list[str]:
    """The trajectory carries exactly the scenario's uncontrollable injections."""
    p_u = np.array([s.p_u for s in scn.steps])
    q_u = np.array([s.q_u for s in scn.steps])
    if traj.p_u.shape != p_u.shape or not (np.array_equal(traj.p_u, p_u)
                                           and np.array_equal(traj.q_u, q_u)):
        return ["trajectory injections differ from the generated scenario"]
    return []


def check_oracle(traj, scn, model, v_lo, v_hi) -> list[str]:
    """Every oracle slot lies in its box and voltage limits on the linear model."""
    if traj.horizon != len(scn.steps):
        return [f"oracle horizon {traj.horizon} != {len(scn.steps)}"]
    worst = 0.0
    for t, s in enumerate(scn.steps):
        x = traj.x[t]
        v = model.A @ x + model.v0 + model.R @ s.p_u + model.X @ s.q_u
        worst = max(worst, np.max(s.box.lo - x), np.max(x - s.box.hi),
                    np.max(v_lo - v), np.max(v - v_hi), np.max(np.abs(v - traj.v[t])))
    return [] if worst <= TOL else [f"oracle slot infeasible by {worst:.3g}"]


def check_plant(traj, scn, graph, model) -> list[str]:
    """Sampled slots re-solve to the recorded voltages with a tiny residual."""
    n = graph.n
    worst = 0.0
    for t in np.unique(np.linspace(0, traj.horizon - 1, RESIDUAL_SAMPLES).astype(int)):
        x = traj.x[t]
        s = powerflow.InjectionState(p=x[:n], q=x[n:], p_u=scn.steps[t].p_u,
                                     q_u=scn.steps[t].q_u)
        sol = powerflow.solve_nonlinear(graph, s, model.v0)
        if not sol.converged:
            return [f"plant did not converge at slot {t}"]
        worst = max(worst, powerflow.residual(graph, s, sol, model.v0),
                    float(np.max(np.abs(sol.v - traj.v[t]))))
    return [] if worst <= TOL else [f"plant residual {worst:.3g} > {TOL}"]


# ---------------------------------------------------------------------------
# Workloads.

@dataclass
class PipelineInputs:
    cfg_path: Path
    out: Path
    graph: object
    model: object
    test: object  # held-out Scenario
    v_lo: float
    v_hi: float


class Pipeline:
    """``localopf run`` on a shipped config, entered through ``cli.main``.

    One repeat is one whole pipeline; it is the operation counted.
    """

    def __init__(self, config: str, overrides: dict | None = None):
        self.config = config
        self.overrides = overrides or {}

    def setup(self, seed: int, work: Path) -> PipelineInputs:
        cfg = resolved_config(self.config, seed, self.overrides)
        cfg_path = write_config(cfg, work)
        graph = feeder.load_feeder(cfg["feeder"])
        model = feeder.build_sensitivities(graph)
        gen = generator_config(cfg, int(cfg["scenario"]["horizon_test"]))
        test = scenario.generate_profile(graph, gen, cfg["scenario"]["test_seed"])
        return PipelineInputs(cfg_path, work / "run", graph, model, test,
                              float(cfg["limits"]["v_lo"]), float(cfg["limits"]["v_hi"]))

    def attempted(self, inp: PipelineInputs, k: int) -> int:
        return 1

    def prepare(self, inp: PipelineInputs, k: int) -> None:
        shutil.rmtree(inp.out, ignore_errors=True)

    def body(self, inp: PipelineInputs, k: int):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", str(inp.cfg_path), "--output", str(inp.out)])

    def check(self, inp: PipelineInputs, k: int, code) -> Outcome:
        res = Outcome(attempted=self.attempted(inp, k))
        if code != 0:
            res.failures.append(f"localopf run exited with {code}")
            return res
        out = inp.out
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if not _finite(report):
            res.failures.append("report.json holds a non-finite number")
        oracle = runner.load_trajectory(out / "oracle_trajectory.csv")
        ctrl = runner.load_trajectory(out / "controller_trajectory.csv")
        res.failures += check_injections(ctrl, inp.test)
        res.failures += check_oracle(oracle, inp.test, inp.model, inp.v_lo, inp.v_hi)
        res.failures += check_plant(ctrl, inp.test, inp.graph, inp.model)
        res.digests = {name: sha256(out / name) for name in ARTIFACTS}
        res.bytes_written = sum(p.stat().st_size for p in out.iterdir())
        res.quality = {
            "ctrl_abs_gap": report["controller"]["absolute_gap"],
            "ctrl_volt_violation": report["controller"]["volt_violation"],
        }
        return res


@dataclass
class TrackInputs:
    out: Path
    graph: object
    model: object
    policy: object
    days: list
    ctrl_cfg: ControllerConfig
    v_lo: float
    v_hi: float
    alpha_b: float
    sigma_b: float
    train_log_digest: str


class Track:
    """Real-time operation on held-out days with a policy trained in set-up.

    One repeat is one held-out day: the controller, the comparator and no
    control on the nonlinear plant, each trajectory written as CSV and read
    back.  Repeats cycle over ``n_days`` days.  The operation counted is one
    controlled slot.
    """

    n_days = 4
    # Training epochs in set-up; fewer than shipped so that set-up can be
    # repeated within the run budget.  The held-out trajectories do not depend
    # on it: at the default seed they are bit-identical to those of the
    # 50-epoch policy.
    epochs = 5
    files = ARTIFACTS[:3]

    def __init__(self, config: str):
        self.config = config

    def setup(self, seed: int, work: Path) -> TrackInputs:
        cfg = resolved_config(self.config, seed, {"trainer": {"epochs": self.epochs}})
        cfg_path = write_config(cfg, work)
        trained = work / "train"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", str(cfg_path), "--output", str(trained)])
        if code != 0:
            raise SetupError(f"localopf train exited with {code}")
        graph = feeder.load_feeder(cfg["feeder"])
        model = feeder.build_sensitivities(graph)
        gen = generator_config(cfg, int(cfg["scenario"]["horizon_test"]))
        test_seed = cfg["scenario"]["test_seed"]
        days = [scenario.generate_profile(graph, gen, test_seed + i)
                for i in range(self.n_days)]
        return TrackInputs(
            out=work / "days", graph=graph, model=model,
            policy=policy.load_policy(trained / "policy.npz"), days=days,
            ctrl_cfg=ControllerConfig(alpha=float(cfg["trainer"]["alpha"]), plant="nonlinear"),
            v_lo=float(cfg["limits"]["v_lo"]), v_hi=float(cfg["limits"]["v_hi"]),
            alpha_b=float(cfg["baseline"]["alpha_b"]), sigma_b=float(cfg["baseline"]["sigma_b"]),
            train_log_digest=sha256(trained / "training_log.csv"),
        )

    def _dir(self, inp: TrackInputs, k: int) -> Path:
        return inp.out / f"day{k % self.n_days}"

    def attempted(self, inp: TrackInputs, k: int) -> int:
        return len(inp.days[k % self.n_days].steps)

    def prepare(self, inp: TrackInputs, k: int) -> None:
        shutil.rmtree(self._dir(inp, k), ignore_errors=True)
        self._dir(inp, k).mkdir(parents=True)

    def body(self, inp: TrackInputs, k: int):
        scn = inp.days[k % self.n_days]
        out = self._dir(inp, k)
        trajs = {
            self.files[0]: runner.run_controller(scn, inp.policy, inp.model, inp.graph,
                                                 inp.ctrl_cfg)[0],
            self.files[1]: runner.run_no_control(scn, inp.model, inp.graph),
            self.files[2]: runner.run_baseline(scn, inp.model, inp.graph, inp.v_lo, inp.v_hi,
                                               alpha_b=inp.alpha_b, sigma_b=inp.sigma_b),
        }
        for name, traj in trajs.items():
            runner.save_trajectory(traj, out / name)
        loaded = {name: runner.load_trajectory(out / name) for name in trajs}
        return trajs, loaded

    def check(self, inp: TrackInputs, k: int, produced) -> Outcome:
        scn = inp.days[k % self.n_days]
        res = Outcome(attempted=self.attempted(inp, k))
        trajs, loaded = produced
        for name, traj in trajs.items():
            back = loaded[name]
            if not all(np.array_equal(getattr(traj, col), getattr(back, col))
                       for col in ("t", "x", "v", "p_u", "q_u")):
                res.failures.append(f"{name} does not reload bit-exactly")
            res.failures += check_injections(traj, scn)
        ctrl = trajs[self.files[0]]
        res.failures += check_plant(ctrl, scn, inp.graph, inp.model)
        out = self._dir(inp, k)
        day = f"day{k % self.n_days}"
        res.digests = {f"{day}/{name}": sha256(out / name) for name in self.files}
        res.digests["training_log.csv"] = inp.train_log_digest
        res.bytes_written = sum(p.stat().st_size for p in out.iterdir())
        res.quality = {"ctrl_volt_violation": float(np.mean(
            runner.volt_violation_series(ctrl.v, inp.v_lo, inp.v_hi)))}
        return res


WORKLOADS = {
    "feeder37_day": Pipeline("config_37bus.yaml"),
    "feeder8_zo": Pipeline("config_8bus.yaml", {"trainer": {"mode": "gradient_free"}}),
    "feeder37_track": Track("config_37bus.yaml"),
}
