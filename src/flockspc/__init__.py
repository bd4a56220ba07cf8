"""Deterministic multi-agent flocking: spatial predictive control (SPC),
a potential-field baseline (PFC), positional low-level controllers, a
fixed-timestep simulation engine, the declarative scenario schema, and flock
quality metrics."""

from .model import (
    Vec3,
    Obstacle,
    CostParams,
    CostBreakdown,
    CostGradient,
    evaluate_cost,
    evaluate_gradient,
    finite_difference_gradient,
    equilibrium_distance,
)
from .controller import (
    ControllerConfig,
    Setpoint,
    dynamic_lookahead_count,
    spc_setpoint,
    pfc_setpoint,
)
from .llc import (
    GRAVITY,
    LLCConfig,
    StepResponseMetrics,
    fly,
    step_trajectory,
    step_response,
)
from .config import (
    ConfigError,
    SpawnSpec,
    Waypoint,
    ScenarioConfig,
    parse_scenario,
    load_scenario,
    scenario_to_dict,
)
from .engine import (
    TickRecord,
    Trace,
    observation_stream,
    spawn_stream,
    Simulation,
    run_scenario,
    tick_observation,
    tick_cost_params,
    write_trace_csv,
)
from .metrics import (
    MetricsSample,
    Thresholds,
    RunSummary,
    compute_metrics,
    thresholds_from_geometry,
    thresholds_for_scenario,
    aggregate,
    summary_to_dict,
    write_summary_json,
    markdown_table,
)
from .presets import (
    OBSTACLE_LAYOUTS,
    build_scenario,
    hardware_scenario,
    resolve_layout,
)

__version__ = "0.1.0"
