"""Train local policies on the 8-bus feeder and track the moving optimum.

Runs the full loop in-process: synthetic day-long scenarios, primal-dual
policy training, real-time operation on the nonlinear plant, and comparison
against the no-control trajectory and the per-slot ground-truth optimum.
"""

from pathlib import Path

import numpy as np

from localopf import (
    ControllerConfig,
    GeneratorConfig,
    TrainerConfig,
    build_sensitivities,
    evaluate,
    generate_profile,
    load_feeder,
    train,
)
from localopf.runner import run_controller, run_no_control, run_oracle

DATA = Path(__file__).resolve().parents[1] / "src" / "localopf" / "data"
V_LO, V_HI = 0.9025, 1.1025  # 0.95^2 .. 1.05^2


def main():
    graph = load_feeder(DATA / "feeder_8bus.txt")
    model = build_sensitivities(graph)
    gen = GeneratorConfig(
        controllable=(3, 5, 7),
        d_def_p_kva=np.full(graph.n, 15.0),
        d_def_q_kva=np.full(graph.n, 9.0),
        horizon=120,
        trend=((0.0, 0.55), (0.2, 1.0)),
    )
    train_scn = generate_profile(graph, gen, seed=1)
    test_scn = generate_profile(graph, gen, seed=1000)

    cfg = TrainerConfig(epochs=10, batch_size=32, v_lo=V_LO, v_hi=V_HI)
    state, log = train(train_scn, cfg, graph, model)
    print("epoch  lagrangian  viol_lo  viol_hi")
    for row in log:
        print(f"{row['epoch']:>5d}  {row['lagrangian']:>10.4f}  "
              f"{row['viol_rate_lo']:>7.3f}  {row['viol_rate_hi']:>7.3f}")

    ctrl_cfg = ControllerConfig(alpha=cfg.alpha, plant="nonlinear")
    traj, (step_time, plant_time) = run_controller(test_scn, state.policy, model, graph,
                                                   ctrl_cfg)
    nc = run_no_control(test_scn, model, graph)
    oracle = run_oracle(test_scn, model, V_LO, V_HI)

    rep = evaluate(traj, oracle, V_LO, V_HI)
    rep_nc = evaluate(nc, oracle, V_LO, V_HI)
    print(f"\ntest-day metrics over {traj.horizon} slots:")
    print(f"  volt-violation  controller {rep.volt_violation:.2e}   "
          f"no-control {rep_nc.volt_violation:.2e}")
    print(f"  absolute gap    controller {rep.absolute_gap:.2e}   "
          f"no-control {rep_nc.absolute_gap:.2e}")
    print(f"  mean step time  {step_time * 1e3:.3f} ms local update, "
          f"{plant_time * 1e3:.3f} ms plant")
    print(f"  min |V|         controller {np.sqrt(traj.v.min()):.4f}   "
          f"no-control {np.sqrt(nc.v.min()):.4f}   limit 0.95")


if __name__ == "__main__":
    main()
