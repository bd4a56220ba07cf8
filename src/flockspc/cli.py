"""Command-line interface: run scenarios, sweep the scenario grid, and
characterize controllers.

Exit codes are a stable contract, mapped for every command in main(): 0
success, 2 usage or configuration error, 3 quality-threshold violation in
--strict mode (or a failed --verify), 4 a rollout diverged (an agent's plant
state stopped being finite).
Outputs never embed timestamps, so identical inputs and seeds reproduce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import Any

from .config import _AGENT_COUNT, _COUNTER_WORD, ScenarioConfig, SpawnSpec
from .config import load, load_scenario, scenario_to_dict
from .controller import ControllerConfig, ControllerKind
from .engine import DivergenceError, _cpu_count, run_scenario, write_trace_csv
from .floatrepr import _Lines
from .llc import LLCConfig, LLCFamily, step_metrics, step_trajectory
from .metrics import (
    RunSummary,
    aggregate,
    markdown_table,
    summary_to_dict,
    thresholds_for_scenario,
    write_summary_json,
)
from .model import _NONNEGATIVE, _SEED, CostParams, Vec3, _check_fields, _each, _field, _one_of
from .model import ConfigError, _Rule, equilibrium_distance
from .presets import _LAYOUT_KEYS, build_scenario, resolve_layout

__all__ = ["main", "cmd_simulate", "cmd_sweep", "cmd_step_response", "cmd_equilibrium"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_DIVERGED = 4


def _fail(message: str, code: int = EXIT_CONFIG) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# --- simulate -----------------------------------------------------------------


def _summary_csv(summary: RunSummary) -> str:
    fields = summary_to_dict(summary)
    row = {**fields["scenario"], **fields["metrics"], "overall": fields["verdicts"]["overall"]}
    header = ",".join(row)
    values = ",".join("" if v is None else str(v) for v in row.values())
    return f"{header}\n{values}\n"


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    thresholds = thresholds_for_scenario(cfg)  # before the rollout: a huge r_drone fails it
    trace = run_scenario(cfg)  # spawn placement can still fail with a ConfigError
    summary = aggregate(trace, thresholds)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out / "trace.csv")
    write_summary_json(summary, out / "summary.json", scenario_echo=scenario_to_dict(cfg))
    if args.format == "md":
        (out / "summary.md").write_text(markdown_table([summary]))
    elif args.format == "csv":
        (out / "summary.csv").write_text(_summary_csv(summary))

    verdict = "pass" if summary.passed else "fail"
    print(
        f"simulated {cfg.agent_count} agents for {cfg.duration}s "
        f"({cfg.controller.kind}/LLC {cfg.llc.family}, seed {cfg.seed}): {verdict}"
    )
    print(f"wrote {out / 'trace.csv'} and {out / 'summary.json'}")
    if args.strict and not summary.passed:
        print("strict mode: quality thresholds violated", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# --- sweep ---------------------------------------------------------------------


_LIST = _Rule(bool, "a non-empty list")
_LAYOUT = _Rule(lambda v: str(v) in _LAYOUT_KEYS, f"one of {list(_LAYOUT_KEYS)}")


@dataclass(frozen=True)
class SweepSpec:
    """Sweep manifest: the grid axes plus run length and noise level."""

    flock_sizes: tuple[int, ...] = _field(_LIST, _each(_AGENT_COUNT), _each(_COUNTER_WORD))
    obstacle_scenarios: tuple[Any, ...] = _field(_LIST, _each(_LAYOUT))  # see resolve_layout
    controllers: tuple[ControllerKind, ...] = _field(_LIST, _each(_one_of(ControllerKind)))
    llc_families: tuple[LLCFamily, ...] = _field(_LIST, _each(_one_of(LLCFamily)))
    seeds: tuple[int, ...] = _field(_LIST, _each(_SEED))
    duration: float = 60.0  # checked by ScenarioConfig
    noise_sigma: float = _field(_NONNEGATIVE, default=0.10)

    def __post_init__(self) -> None:
        _check_fields(self)
        layouts = [resolve_layout(layout)[0] for layout in self.obstacle_scenarios]
        for name, axis in (("flock_sizes", self.flock_sizes), ("obstacle_scenarios", layouts),
                           ("controllers", self.controllers), ("llc_families", self.llc_families),
                           ("seeds", self.seeds)):
            for i, entry in enumerate(axis):  # a repeat would run, and write, a cell twice
                if entry in axis[:i]:
                    raise ConfigError(f"{name}[{i}]", f"repeats {json.dumps(entry)}")


def _run_name(job: tuple) -> str:
    size, layout, ctrl, fam, seed = job[:5]
    return f"run_d{size}_{layout}_{ctrl}_{fam}_s{seed}"


def _sweep_job(job: tuple) -> RunSummary:
    cfg = build_scenario(*job)  # (size, layout, controller, family, seed, duration, sigma)
    thresholds = thresholds_for_scenario(cfg)
    try:
        trace = run_scenario(cfg)
    except DivergenceError as exc:  # re-raised for main(), naming the run
        raise DivergenceError(f"{_run_name(job)}, {exc}") from None
    return aggregate(trace, thresholds)


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = load(SweepSpec, args.sweep)
    jobs = [
        (size, resolve_layout(layout)[0], ctrl, fam, seed, spec.duration, spec.noise_sigma)
        for size, layout, ctrl, fam, seed in product(
            spec.flock_sizes, spec.obstacle_scenarios, spec.controllers,
            spec.llc_families, spec.seeds,
        )
    ]
    workers = min(len(jobs), _cpu_count())  # one worker per CPU this process may use
    with ProcessPoolExecutor(max_workers=workers) as pool:
        summaries = list(pool.map(_sweep_job, jobs))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for job, summary in zip(jobs, summaries):
        write_summary_json(summary, out / f"{_run_name(job)}.json")
    table = markdown_table(summaries)
    (out / "table.md").write_text(table)
    print(f"ran {len(jobs)} scenarios with {workers} worker(s)")
    print(f"wrote {len(jobs)} summaries and {out / 'table.md'}")
    return EXIT_OK


# --- step response --------------------------------------------------------------


def cmd_step_response(args: argparse.Namespace) -> int:
    rows = step_trajectory(LLCConfig(family=args.family), args.step, duration=args.duration)
    metrics = step_metrics(rows, args.step)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "step_response.csv", "w") as fh:
        fh.write("time_s,position_m,velocity_m_s,tilt_rad\n")
        lines = _Lines(b"\0,,,")  # each float as repr() writes it
        for lo in range(0, len(rows), lines.rows):
            fh.write(lines.text(rows[lo:lo + lines.rows]))
    rise, settle = (t if math.isfinite(t) else None
                    for t in (metrics.rise_time_90, metrics.settling_time_2pct))
    payload = {"family": args.family, "step_m": args.step, "rise_time_90_s": rise,
               "overshoot_pct": metrics.overshoot_pct, "settling_time_2pct_s": settle,
               "settled": metrics.settled}
    (out / "step_response.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"family {args.family}, {args.step} m step: rise90={rise}s "
          f"overshoot={metrics.overshoot_pct:.1f}% settle2={settle}s settled={metrics.settled}")
    return EXIT_OK


# --- equilibrium -----------------------------------------------------------------


def cmd_equilibrium(args: argparse.Namespace) -> int:
    d_eq = equilibrium_distance(args.w_coh, args.w_sep, args.r_drone)
    print(f"{d_eq:.5f}")
    if not args.verify:
        return EXIT_OK

    cfg = ScenarioConfig(
        agent_count=2,
        spawn=SpawnSpec(positions=(Vec3(-d_eq, 0.0, 1.4), Vec3(d_eq, 0.0, 1.4))),
        cost=CostParams(w_coh=args.w_coh, w_sep=args.w_sep, w_tar=0.0, w_obs=0.0,
                        r_drone=args.r_drone),
        controller=ControllerConfig(kind="SPC", epsilon=0.06, n_star=5, dynamic_n=False),
        llc=LLCConfig(family="A"),
        r_h=math.inf,
        noise_sigma=0.0,
        physics_dt=0.01,
        control_period=0.1,
        duration=30.0,
        seed=0,
        formation_time=25.0,
    )
    trace = run_scenario(cfg)
    tail = [rec for rec in trace.records if rec.time >= 25.0]
    seps = [math.dist(rec.positions[0], rec.positions[1]) for rec in tail]  # no squares to overflow
    mean_sep = sum(seps) / len(seps)
    if mean_sep == math.inf:  # the sum overflowed: divide each separation first
        mean_sep = sum(sep / len(seps) for sep in seps)
    rel = abs(mean_sep - d_eq) / d_eq
    print(f"two-agent rollout: mean separation {mean_sep:.5f} m ({rel * 100:.2f}% off)")
    if rel > 0.05:
        print("verification failed: separation outside 5% of the predicted equilibrium", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# --- entry point ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flockspc",
        description="Deterministic flocking simulator: spatial predictive control "
        "with a potential-field baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario file")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON path")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sim.add_argument("--strict", action="store_true", help="exit 3 on threshold violation")
    p_sim.add_argument("--format", choices=("json", "md", "csv"), default="json",
                       help="extra summary rendering next to summary.json")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a grid of scenarios")
    p_sweep.add_argument("--sweep", required=True, help="sweep spec JSON path")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_step = sub.add_parser("step-response", help="characterize an LLC family")
    p_step.add_argument("--family", required=True, choices=("A", "B"))
    p_step.add_argument("--step", type=float, default=1.0, help="step size in metres")
    p_step.add_argument("--duration", type=float, default=20.0, help="simulated seconds")
    p_step.add_argument("--out", required=True, help="output directory")
    p_step.set_defaults(func=cmd_step_response)

    p_eq = sub.add_parser("equilibrium", help="two-drone equilibrium distance")
    p_eq.add_argument("--w-coh", type=float, required=True)
    p_eq.add_argument("--w-sep", type=float, required=True)
    p_eq.add_argument("--r-drone", type=float, default=0.0)
    p_eq.add_argument("--verify", action="store_true", help="check with a 2-agent rollout")
    p_eq.set_defaults(func=cmd_equilibrium)

    return parser


def _check_out(out: str) -> None:
    """Raise a ConfigError unless --out is, or can be made, a directory."""
    path = Path(out).absolute()
    while not path.exists():
        path = path.parent
    if not path.is_dir():
        raise ConfigError("--out", f"{path} is not a directory")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:  # any other error is a fault, not the user's input, and keeps its traceback
        if hasattr(args, "out"):
            _check_out(args.out)
        return args.func(args)
    except ConfigError as exc:
        return _fail(str(exc))
    except DivergenceError as exc:
        return _fail(f"rollout diverged at {exc}", EXIT_DIVERGED)
