"""Data-driven real-time OPF on radial distribution feeders.

The package implements a local-feedback controller for time-varying optimal
power flow on radial networks: a LinDistFlow sensitivity model, an exact
branch-flow solver, per-node learnable feedback policies trained by a
stochastic primal-dual method under chance-constrained voltage limits, and
ground-truth solvers plus metrics to benchmark the tracking performance.
"""

__version__ = "0.1.0"

from .feeder import (
    FeederError,
    FeederGraph,
    Line,
    LinearVoltageModel,
    build_sensitivities,
    load_feeder,
)
from .powerflow import (
    InjectionState,
    PowerFlowSolution,
    VoltageCollapseError,
    env_voltage,
    residual,
    solve_nonlinear,
)
from .scenario import (
    BoxLimits,
    CostModel,
    GeneratorConfig,
    Scenario,
    ScenarioStep,
    convexity_constants,
    cost_grad,
    cost_value,
    generate_profile,
    project_box,
)
from .policy import (
    PolicyParams,
    compute_k_max,
    enforce_conditions,
    init_policy,
    load_policy,
    save_policy,
)
from .controller import (
    ControllerConfig,
    Equilibrium,
    StabilityReport,
    check_stability,
    lemma1_check,
    plant_voltage,
    rho_alpha,
    solve_equilibrium,
    step,
    tracking_bound,
)
from .trainer import (
    Batch,
    StabilityError,
    TrainerConfig,
    TrainerState,
    dual_update,
    grad_lambda,
    grad_policy,
    hinge_surrogate,
    lagrangian,
    train,
    zo_voltage_jacobian,
)
from .oracle import (
    BaselineState,
    InfeasibleError,
    OpfSolution,
    baseline_step,
    gamma_estimate,
    solve_opf_linear,
)
from .runner import (
    EvaluationReport,
    Trajectory,
    evaluate,
    run_experiment,
)
