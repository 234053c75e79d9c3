"""Metrics, experiment pipeline artifacts, determinism, and the CLI."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from localopf import (
    GeneratorConfig,
    Trajectory,
    build_sensitivities,
    evaluate,
    generate_profile,
)
from localopf.cli import STAGE_EXIT, main
from localopf.runner import (
    config_hash,
    generator_config,
    load_trajectory,
    resolve_config,
    run_experiment,
    run_no_control,
    save_trajectory,
    trainer_config,
    volt_violation_series,
    write_manifest,
)

DATA = Path(__file__).resolve().parents[1] / "src" / "localopf" / "data"
CONFIG8 = DATA / "config_8bus.yaml"


def _traj(t, x, v, objective):
    T, n = np.asarray(v).shape
    return Trajectory(
        t=np.asarray(t),
        x=np.asarray(x, dtype=float),
        v=np.asarray(v, dtype=float),
        p_u=np.zeros((T, n)),
        q_u=np.zeros((T, n)),
        objective=np.asarray(objective, dtype=float),
    )


def test_evaluate_identical_trajectories_zero_gap():
    v = np.full((3, 2), 1.0)
    a = _traj([0, 1, 2], np.zeros((3, 4)), v, [1.0, 2.0, 3.0])
    rep = evaluate(a, a, 0.9025, 1.1025)
    assert rep.absolute_gap == 0.0
    assert rep.relative_gap == 0.0
    assert rep.volt_violation == 0.0
    assert rep.excluded_steps == 0


def test_evaluate_hand_built_two_step():
    # magnitudes: limits V in [0.9, 1.1]; step 1 under by 0.1, step 2 over by 0.1
    v_ctrl = np.array([[0.64, 1.0], [1.44, 1.0]])
    ctrl = _traj([0, 1], np.zeros((2, 4)), v_ctrl, [2.0, 3.0])
    orac = _traj([0, 1], np.zeros((2, 4)), np.ones((2, 2)), [1.0, 0.0])
    rep = evaluate(ctrl, orac, 0.81, 1.21)
    assert rep.absolute_gap == pytest.approx(0.5 * (1.0 + 3.0), abs=1e-12)
    # the zero-oracle step is excluded and counted
    assert rep.relative_gap == pytest.approx(1.0, abs=1e-12)
    assert rep.excluded_steps == 1
    assert rep.volt_violation == pytest.approx(0.1, abs=1e-12)


def test_evaluate_relative_gap_is_ratio_of_sums():
    # a near-zero optimum must not dominate: a per-step mean would read ~5e6
    v = np.ones((2, 1))
    ctrl = _traj([0, 1], np.zeros((2, 2)), v, [1e-10 + 1e-3, 1.1])
    orac = _traj([0, 1], np.zeros((2, 2)), v, [1e-10, 1.0])
    rep = evaluate(ctrl, orac, 0.81, 1.21)
    assert rep.relative_gap == pytest.approx((1e-3 + 0.1) / (1.0 + 1e-10), rel=1e-9)
    assert rep.excluded_steps == 0


def test_evaluate_rejects_horizon_mismatch():
    a = _traj([0], np.zeros((1, 2)), np.ones((1, 1)), [0.0])
    b = _traj([0, 1], np.zeros((2, 2)), np.ones((2, 1)), [0.0, 0.0])
    with pytest.raises(ValueError):
        evaluate(a, b, 0.9, 1.1)


def test_volt_violation_series_hand_computed():
    v = np.array([[0.9604, 1.0], [1.1025, 1.1236]])  # V = [[0.98,1],[1.05,1.06]]
    out = volt_violation_series(v, 0.9801, 1.0404)  # V in [0.99, 1.02]
    np.testing.assert_allclose(out, [0.01, np.hypot(0.03, 0.04)], atol=1e-12)


def test_trajectory_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    T, n = 4, 3
    traj = _traj(np.arange(T), rng.normal(size=(T, 2 * n)),
                 rng.uniform(0.9, 1.1, (T, n)), rng.normal(size=T) ** 2)
    traj = Trajectory(t=traj.t, x=traj.x, v=traj.v,
                      p_u=rng.normal(size=(T, n)), q_u=rng.normal(size=(T, n)),
                      objective=traj.objective)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    np.testing.assert_array_equal(back.t, traj.t)
    np.testing.assert_array_equal(back.x, traj.x)  # repr() round-trips exactly
    np.testing.assert_array_equal(back.v, traj.v)
    np.testing.assert_array_equal(back.p_u, traj.p_u)
    np.testing.assert_array_equal(back.q_u, traj.q_u)
    np.testing.assert_array_equal(back.objective, traj.objective)


# Per-cell reference writer and reader: the trajectory CSV format as first
# implemented, one csv row per (slot, node) and a DictReader per file.

def _reference_save(traj, path):
    n = traj.n
    header = ["t", "node", "p", "q", "v", "p_u", "q_u", "objective"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ti in range(traj.horizon):
            for i in range(n):
                row = [
                    int(traj.t[ti]), i + 1,
                    repr(float(traj.x[ti, i])), repr(float(traj.x[ti, n + i])),
                    repr(float(traj.v[ti, i])),
                    repr(float(traj.p_u[ti, i])), repr(float(traj.q_u[ti, i])),
                    repr(float(traj.objective[ti])),
                ]
                writer.writerow(row)


def _reference_load(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ts = sorted({int(r["t"]) for r in rows})
    n = max(int(r["node"]) for r in rows)
    T = len(ts)
    t_index = {t: i for i, t in enumerate(ts)}
    x = np.zeros((T, 2 * n))
    v = np.zeros((T, n))
    p_u = np.zeros((T, n))
    q_u = np.zeros((T, n))
    obj = np.zeros(T)
    for r in rows:
        ti = t_index[int(r["t"])]
        i = int(r["node"]) - 1
        x[ti, i] = float(r["p"])
        x[ti, n + i] = float(r["q"])
        v[ti, i] = float(r["v"])
        p_u[ti, i] = float(r["p_u"])
        q_u[ti, i] = float(r["q_u"])
        obj[ti] = float(r["objective"])
    return Trajectory(t=np.array(ts), x=x, v=v, p_u=p_u, q_u=q_u, objective=obj)


AWKWARD = [1e-05, -0.0, 1e+16, 5e-324]


def _awkward_trajectory(graph, seed):
    """No-control day on ``graph`` with random setpoints and awkward floats in every column."""
    n = graph.n
    gen = GeneratorConfig(controllable=(2, 3), d_def_p_kva=np.full(n, 20.0),
                          d_def_q_kva=np.full(n, 8.0), horizon=9)
    traj = run_no_control(generate_profile(graph, gen, seed), build_sensitivities(graph), graph)
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=0.1, size=traj.x.shape)
    v, p_u, q_u = traj.v.copy(), traj.p_u.copy(), traj.q_u.copy()
    for k, arr in enumerate((x, v, p_u, q_u)):
        arr[k, :4] = AWKWARD
    objective = rng.uniform(size=traj.horizon) ** 3
    objective[-4:] = AWKWARD
    return Trajectory(t=traj.t, x=x, v=v, p_u=p_u, q_u=q_u, objective=objective)


@pytest.mark.parametrize("graph_name", ["graph8", "graph37"])
def test_trajectory_io_matches_reference(request, tmp_path, graph_name):
    traj = _awkward_trajectory(request.getfixturevalue(graph_name), seed=11)
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    save_trajectory(traj, ours)
    _reference_save(traj, ref)
    assert ours.read_bytes() == ref.read_bytes()
    back, expected = load_trajectory(ours), _reference_load(ref)
    for name in ("t", "x", "v", "p_u", "q_u", "objective"):
        a, b = getattr(back, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name  # bit-identical, signed zeros included
    assert back.objective.tobytes() == traj.objective.tobytes()


def test_config_hash_stable_and_sensitive():
    a = {"x": 1, "nested": {"b": 2, "a": 1}}
    b = {"nested": {"a": 1, "b": 2}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 2, "nested": {"b": 2, "a": 1}})
    assert len(config_hash(a)) == 16


def test_resolve_config_overrides_reach_every_field_type():
    cfg, feeder_path = resolve_config(CONFIG8, [
        "trainer.k_max_margin=0.5", "trainer.zo_step=2e-3", "trainer.sigma_lambda=0.01",
        "trainer.arch=[1, 4]", "trainer.mu_init=2", "limits.v_lo=0.81",
        "scenario.joint_noise=false", "scenario.trend=[[0, 1]]"])
    tr = trainer_config(cfg)
    assert (tr.k_max_margin, tr.zo_step, tr.sigma_lambda) == (0.5, 2e-3, 0.01)
    assert (tr.arch, tr.mu_init, tr.v_lo, tr.epochs) == ((1, 4), 2.0, 0.81, 10)
    gen = generator_config(cfg, 5)
    assert (gen.joint_noise, gen.trend, gen.horizon) == (False, ((0.0, 1.0),), 5)
    assert cfg["feeder"] == "feeder_8bus.txt"
    assert feeder_path == DATA / "feeder_8bus.txt"


def test_write_manifest_sorted(tmp_path):
    path = tmp_path / "manifest.txt"
    write_manifest(path, {"zeta": 1, "alpha": "two"})
    assert path.read_text() == "alpha=two\nzeta=1\n"


# ---------------------------------------------------------------------------
# End-to-end pipeline on the small shipped configuration


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run8")
    return run_experiment(CONFIG8, output_dir=out)


EXPECTED_FILES = [
    "training_log.csv", "policy.npz", "controller_trajectory.csv",
    "no_control_trajectory.csv", "baseline_trajectory.csv",
    "oracle_trajectory.csv", "report.json", "manifest.txt",
]


def test_run_experiment_artifacts(run_dir):
    for name in EXPECTED_FILES:
        assert (run_dir / name).exists(), name
    with open(run_dir / "report.json", encoding="utf-8") as fh:
        rep = json.load(fh)
    for section in ("controller", "no_control", "baseline", "stability"):
        assert section in rep
    assert rep["controller"]["volt_violation"] >= 0.0
    # trained controller beats the uncontrolled plant on this instance
    assert rep["controller"]["volt_violation"] < rep["no_control"]["volt_violation"]
    manifest = dict(
        line.split("=", 1) for line in
        (run_dir / "manifest.txt").read_text().strip().splitlines()
    )
    assert manifest["n_bus"] == "7"
    assert "config_hash" in manifest and "rho" not in manifest
    assert "rho" in rep["stability"]
    # the local update and the plant are timed apart
    assert rep["mean_step_time"] > 0.0 and rep["mean_plant_time"] > 0.0


def test_run_experiment_deterministic(run_dir, tmp_path):
    again = run_experiment(CONFIG8, output_dir=tmp_path / "rerun")
    for name in EXPECTED_FILES:
        if name in ("report.json",):  # wall-clock timings live here
            continue
        a = (run_dir / name).read_bytes()
        b = (again / name).read_bytes()
        assert a == b, f"{name} differs between identical reruns"


def test_baseline_without_config_section_keeps_limits(tmp_path):
    """Without a ``baseline:`` section the comparator's loop gain is one, not a fixed
    dual step that makes it oscillate."""
    cfg = yaml.safe_load(CONFIG8.read_text(encoding="utf-8"))
    del cfg["baseline"]
    cfg["feeder"] = str(DATA / cfg["feeder"])
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    out = run_experiment(path, output_dir=tmp_path / "run", overrides=["trainer.epochs=1"])
    report = json.loads((out / "report.json").read_text())
    assert report["baseline"]["volt_violation"] <= 1e-3


def test_run_experiment_missing_output_dir(monkeypatch):
    from localopf.runner import StageError

    monkeypatch.delenv("LOCALOPF_OUTDIR", raising=False)
    with pytest.raises(StageError) as exc:
        run_experiment(CONFIG8, overrides=["output_dir=null"])
    assert exc.value.stage == "config"


# ---------------------------------------------------------------------------
# CLI


def test_cli_build_feeder(capsys):
    assert main(["build-feeder", str(CONFIG8)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n_bus"] == 7
    assert out["R_symmetric"] and out["X_symmetric"]
    assert out["R_min_eig"] > 0


def test_cli_build_feeder_bad_path(tmp_path, capsys):
    import yaml

    cfg = tmp_path / "bad.yaml"
    with open(cfg, "w", encoding="utf-8") as fh:
        yaml.safe_dump({"feeder": "missing.txt"}, fh)
    assert main(["build-feeder", str(cfg)]) == STAGE_EXIT["feeder"]


def test_cli_gen_scenario(tmp_path, capsys):
    out = tmp_path / "scn.csv"
    assert main(["gen-scenario", str(CONFIG8), "--seed", "3",
                 "--output", str(out)]) == 0
    assert out.exists() and out.with_suffix(".yaml").exists()
    from localopf.scenario import load_scenario

    scn = load_scenario(out, out.with_suffix(".yaml"))
    assert scn.seed == 3
    assert len(scn) == 120  # horizon_train of the shipped config


def test_cli_check_conditions(capsys):
    assert main(["check-conditions", str(CONFIG8)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_ok"] is True
    assert out["c3_margin"] > 0


def test_cli_check_conditions_fails_on_big_alpha(tmp_path, capsys):
    # a too-large step size has no admissible gain clamp at all, so a
    # pre-saved policy is needed to reach the report
    from localopf import init_policy, load_feeder, save_policy

    graph = load_feeder(DATA / "feeder_8bus.txt")
    pol = init_policy(graph, [3, 5, 7], k_max=0.05, seed=0)
    ckpt = tmp_path / "pol.npz"
    save_policy(pol, ckpt)
    code = main(["check-conditions", str(CONFIG8), "--policy", str(ckpt),
                 "-o", "trainer.alpha=1.01"])
    assert code == STAGE_EXIT["stability"]
    out = json.loads(capsys.readouterr().out)
    assert out["step_ok"] is False


def test_contraction_reported_apart_from_all_ok(run_dir, capsys):
    rep = json.loads((run_dir / "report.json").read_text())["stability"]
    assert rep["contraction_ok"] is (rep["rho"] < 1.0)
    assert main(["check-conditions", str(CONFIG8), "--policy",
                 str(run_dir / "policy.npz")]) == 0
    assert json.loads(capsys.readouterr().out) == rep


def test_cli_usage_error_exit_code(capsys):
    assert main(["run", str(CONFIG8), "--bogus"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["run", str(CONFIG8), "-o", "trainer.typo_key=1"]) == STAGE_EXIT["config"]
    assert main(["--help"]) == 0


def test_cli_evaluate(run_dir, capsys):
    code = main(["evaluate", str(run_dir / "controller_trajectory.csv"),
                 str(run_dir / "oracle_trajectory.csv"),
                 "--v-lo", "0.9025", "--v-hi", "1.1025"])
    assert code == 0
    rep = json.loads((run_dir / "report.json").read_text())
    assert json.loads(capsys.readouterr().out) == rep["controller"]


@pytest.mark.parametrize("damage", ["swap_nodes", "drop_node", "drop_objective"])
def test_cli_evaluate_rejects_malformed_grid(run_dir, tmp_path, capsys, damage):
    lines = (run_dir / "controller_trajectory.csv").read_bytes().split(b"\r\n")
    if damage == "swap_nodes":
        lines[3], lines[4] = lines[4], lines[3]
    elif damage == "drop_node":
        del lines[3]
    else:
        lines = [line.rsplit(b",", 1)[0] for line in lines]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\r\n".join(lines))
    code = main(["evaluate", str(bad), str(run_dir / "oracle_trajectory.csv")])
    assert code == STAGE_EXIT["evaluate"]
    err = capsys.readouterr().err
    assert ("objective" if damage == "drop_objective" else "nodes 1..N in order") in err


def test_cli_run_reports_stage_exit_code(tmp_path, capsys):
    assert main(["run", str(CONFIG8), "-o", "feeder=does_not_exist.txt",
                 "-o", f"output_dir={tmp_path / 'out'}"]) == STAGE_EXIT["feeder"]


def test_cli_train_and_overrides(tmp_path, capsys):
    out = tmp_path / "train_out"
    code = main(["train", str(CONFIG8), "--output", str(out),
                 "-o", "trainer.epochs=1", "-o", "scenario.horizon_train=16"])
    assert code == 0
    assert (out / "policy.npz").exists()
    log = (out / "training_log.csv").read_text().strip().splitlines()
    assert log[0] == ("epoch,lagrangian,mean_cost,viol_rate_lo,viol_rate_hi,mu_norm,"
                      "skipped,live_channels")
    assert len(log) == 2  # header + 1 epoch
    skipped, live = log[1].split(",")[-2:]
    assert int(skipped) == 0 and 0.0 <= float(live) <= 6.0  # 3 controllable nodes


def test_cli_train_zero_epochs(tmp_path, capsys):
    out = tmp_path / "train_out"
    assert main(["train", str(CONFIG8), "--output", str(out), "-o", "trainer.epochs=0",
                 "-o", "scenario.horizon_train=16"]) == 0
    assert (out / "policy.npz").exists()
    log = (out / "training_log.csv").read_text().strip().splitlines()
    assert len(log) == 1 and log[0].startswith("epoch,")  # header only


def test_cli_train_writes_the_training_artifacts_of_a_run(run_dir, tmp_path, capsys):
    """``localopf train`` and ``localopf run`` share one training stage."""
    out = tmp_path / "train_out"
    assert main(["train", str(CONFIG8), "--output", str(out)]) == 0
    for name in ("training_log.csv", "policy.npz"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


@pytest.mark.parametrize("command", ["run", "train"])
def test_cli_stability_failure_exit_code(tmp_path, command):
    # a gain clamp 2.5x the uniqueness bound fails C3 before training starts
    code = main([command, str(CONFIG8), "--output", str(tmp_path / "out"),
                 "-o", "trainer.k_max_margin=2.5"])
    assert code == STAGE_EXIT["stability"]


@pytest.mark.parametrize("command,key", [
    ("run", "trainer.typo_key"), ("train", "trainer.typo_key"),
    ("gen-scenario", "scenario.horizon"), ("sweep", "limits.v_mid"),
    ("check-conditions", "baseline.gamma"), ("build-feeder", "typo_key"),
])
def test_cli_unknown_config_key_exit_code(tmp_path, command, key):
    args = [command, str(CONFIG8), "-o", f"{key}=1"]
    if command not in ("build-feeder", "check-conditions"):
        args += ["--output", str(tmp_path / "out")]
    if command == "sweep":
        args += ["-g", "trainer.seed=0"]
    assert main(args) == STAGE_EXIT["config"]


@pytest.mark.parametrize("command", ["run", "train", "check-conditions"])
@pytest.mark.parametrize("override", [
    "trainer.beta=1.5", "trainer.lambda_mode=learnt", "trainer.batch_size=0",
    "trainer.batch_size=-1", "trainer.alpha=0", "trainer.eq_tol=0", "trainer.epochs=-1",
])
def test_cli_bad_trainer_setting_exit_code(tmp_path, capsys, command, override):
    """A value the trainer config rejects fails at the config stage, before any other work."""
    args = [command, str(CONFIG8), "-o", override]
    if command != "check-conditions":
        args += ["--output", str(tmp_path / "out")]
    assert main(args) == STAGE_EXIT["config"]
    assert "[config]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SMALL = ["-o", "trainer.epochs=1", "-o", "scenario.horizon_train=16",
         "-o", "scenario.horizon_test=8"]


def _sweep_rows(out, keys):
    """Rows of `sweep.csv`, each checked against its sub-run's `report.json`."""
    with open(out / "sweep.csv", encoding="utf-8") as fh:
        rows = [{k: json.loads(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    for row in rows:
        sub = out / ",".join(f"{key}={json.dumps(row[key])}" for key in keys)
        rep = json.loads((sub / "report.json").read_text())
        entries = {f"{section}.{key}": value for section, block in rep.items()
                   if isinstance(block, dict) for key, value in block.items()}
        assert entries and "mean_step_time" in rep  # timings stay out of the table
        assert row == {**{key: row[key] for key in keys}, **entries}
    return rows


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", str(CONFIG8), "-g", "trainer.beta=0.05,0.5", "--output", str(out),
                 *SMALL])
    assert code == 0
    rows = _sweep_rows(out, ["trainer.beta"])
    assert [r["trainer.beta"] for r in rows] == [0.05, 0.5]
    for row in rows:
        beta = row["trainer.beta"]
        manifest = (out / f"trainer.beta={beta}" / "manifest.txt").read_text()
        assert f"beta={beta}\n" in manifest and "epochs=1\n" in manifest
        # a sub-run has the config hash of the same settings given as overrides
        cfg, _ = resolve_config(CONFIG8, [*SMALL[1::2], f"trainer.beta={beta}"])
        assert f"config_hash={config_hash(cfg)}\n" in manifest
    assert not list(out.glob("config_*.yaml"))


def test_cli_sweep_cross_product(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", str(CONFIG8), "-g", "trainer.beta=0.05,0.5", "-g", "trainer.seed=0,1",
                 "--output", str(out), *SMALL]) == 0
    rows = _sweep_rows(out, ["trainer.beta", "trainer.seed"])
    assert [(r["trainer.beta"], r["trainer.seed"]) for r in rows] == [
        (0.05, 0), (0.05, 1), (0.5, 0), (0.5, 1)]


@pytest.mark.parametrize("grid", ["trainer.typo=1,2", "trainer.beta=0.1,1.5", "trainer.beta",
                                  "trainer.beta="])
def test_cli_sweep_bad_grid_runs_nothing(tmp_path, capsys, grid):
    """Every point is resolved before the first run."""
    out = tmp_path / "sweep"
    assert main(["sweep", str(CONFIG8), "-g", grid, "--output", str(out), *SMALL]) == \
        STAGE_EXIT["config"]
    assert "[config]" in capsys.readouterr().err
    assert not out.exists()
