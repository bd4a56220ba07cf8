"""Deterministic fixed-timestep flocking world.

Agents fly a tilt-driven point-mass plant at physics_dt cadence and decide
setpoints every control_period from their own noisy observation snapshot:
the true positions of all agents within r_h (plus self), perturbed by
i.i.d. Gaussian noise per axis.  Noise comes from counter-based RNG streams
keyed by (seed, control tick, observing agent), so a rollout is bit-identical
whatever order the per-agent decisions of a tick are evaluated in.

Rollouts record one TickRecord per control tick and can be replayed
observation-exactly via tick_observation().  A plant state that stops being
finite ends the rollout with a DivergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .config import ConfigError, ScenarioConfig
from .controller import ControllerConfig, Setpoint, pfc_setpoint, spc_setpoint
from .llc import PlantState, explicit_xy_tilt, integrate_plant, pid_xy_tilt
from .model import CostParams, Vec3

__all__ = [
    "DivergenceError",
    "TickRecord",
    "Trace",
    "observation_stream",
    "spawn_stream",
    "observe",
    "Simulation",
    "run_scenario",
    "tick_observation",
    "tick_cost_params",
    "write_trace_csv",
    "TRACE_COLUMNS",
]


class DivergenceError(Exception):
    """The plant state of an agent stopped being finite during a rollout."""


# --- RNG streams -------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_KEY_SALT = 0x9E3779B97F4A7C15
_PURPOSE_SPAWN = 0
_PURPOSE_OBSERVE = 1


def _stream(seed: int, purpose: int, tick: int, agent: int) -> np.random.Generator:
    # Counter-based: distinct (purpose, tick, agent) words give disjoint
    # streams regardless of draw order.
    key = [seed & _MASK64, _KEY_SALT]
    counter = [0, purpose, tick & _MASK64, agent & _MASK64]
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def observation_stream(seed: int, tick: int, agent: int) -> np.random.Generator:
    """Noise stream for one agent's observation at one control tick."""
    return _stream(seed, _PURPOSE_OBSERVE, tick, agent)


def spawn_stream(seed: int) -> np.random.Generator:
    """Stream used for random spawn placement."""
    return _stream(seed, _PURPOSE_SPAWN, 0, 0)


# --- observation -------------------------------------------------------------


def observe(
    true_positions: np.ndarray | Sequence[Vec3],
    agent: int,
    sigma: float,
    r_h: float,
    rng: np.random.Generator,
) -> list[tuple[int, Vec3]]:
    """One agent's snapshot: noisy positions of itself and of every agent
    strictly within r_h of its own true position (filter on true positions).

    Noise is drawn for all agents in one (n, 3) batch so the values any
    agent receives do not depend on who else happens to be in range.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if isinstance(true_positions, np.ndarray):
        pos = true_positions.astype(float, copy=False)
    else:
        pos = np.array([tuple(p) for p in true_positions], dtype=float)
    n = pos.shape[0]
    if not 0 <= agent < n:
        raise ValueError(f"agent index {agent} out of range for {n} agents")
    noisy = pos + rng.normal(0.0, sigma, size=(n, 3)) if sigma > 0.0 else pos
    delta = pos - pos[agent]
    dist = np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2 + delta[:, 2] ** 2)
    out: list[tuple[int, Vec3]] = []
    for j in range(n):
        if j == agent or dist[j] < r_h:
            out.append((j, Vec3(float(noisy[j, 0]), float(noisy[j, 1]), float(noisy[j, 2]))))
    return out


# --- rollout -----------------------------------------------------------------


@dataclass(frozen=True)
class TickRecord:
    """Everything recorded at one control tick, taken before the agents move."""

    index: int
    time: float
    target: Vec3 | None
    positions: np.ndarray  # (n, 3) true positions
    velocities: np.ndarray  # (n, 3) true velocities
    observed_self: np.ndarray  # (n, 3) each agent's own noisy position
    setpoints: np.ndarray  # (n, 3)
    costs: np.ndarray  # (n, 5) columns: total, coh, sep, tar, obs
    grad_norms: np.ndarray  # (n,)


@dataclass(frozen=True)
class Trace:
    """Full rollout: the scenario that produced it plus per-tick records."""

    config: ScenarioConfig
    records: tuple[TickRecord, ...]

    @property
    def agent_count(self) -> int:
        return self.config.agent_count


def _decide(
    agent: int, obs: list[tuple[int, Vec3]], params: CostParams, ctrl: ControllerConfig
) -> tuple[Vec3, Setpoint]:
    self_pos = None
    rows = []
    for j, p in obs:
        if j == agent:
            self_pos = p
        else:
            rows.append((p.x, p.y, p.z))
    neighbors = np.array(rows, dtype=float) if rows else np.empty((0, 3))
    setpoint_fn = spc_setpoint if ctrl.kind == "SPC" else pfc_setpoint
    return self_pos, setpoint_fn(self_pos, neighbors, params, ctrl)


def _spawn_positions(cfg: ScenarioConfig) -> np.ndarray:
    spawn = cfg.spawn
    if spawn.positions is not None:
        return np.array([tuple(p) for p in spawn.positions], dtype=float)
    rng = spawn_stream(cfg.seed)
    lo = np.array(tuple(spawn.box_min), dtype=float)
    hi = np.array(tuple(spawn.box_max), dtype=float)
    placed: list[np.ndarray] = []
    for i in range(cfg.agent_count):
        for _ in range(10_000):
            p = rng.uniform(lo, hi)
            if all(float(np.linalg.norm(p - q)) >= spawn.min_spacing for q in placed):
                placed.append(p)
                break
        else:
            raise ConfigError(
                f"spawn.box_min/box_max: could not place agent {i} with "
                f"min_spacing {spawn.min_spacing} after 10000 attempts"
            )
    return np.array(placed)


class Simulation:
    """Mutable world advancing one control tick at a time.

    Per-agent control decisions within a tick are pure functions of that
    agent's observation snapshot, so their evaluation order does not change
    the trace.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        positions = _spawn_positions(cfg)
        self.states = [
            PlantState(position=Vec3.from_array(positions[i])) for i in range(cfg.agent_count)
        ]
        self.tick_index = 0
        self._position_history: list[np.ndarray] = []

    def _active_target(self, now: float) -> Vec3 | None:
        target = None
        for wp in self.cfg.waypoints:
            if wp.time <= now + 1e-9:
                target = wp.target
            else:
                break
        return target

    def tick(self) -> TickRecord:
        """Observe, decide, record, then integrate physics for one control period.

        Raises DivergenceError, naming the tick, agent and state field, when
        an agent's plant state stops being finite.
        """
        cfg = self.cfg
        k = self.tick_index
        now = k * cfg.control_period
        positions = np.array([tuple(s.position) for s in self.states])
        velocities = np.array([tuple(s.velocity) for s in self.states])
        self._position_history.append(positions)

        target = self._active_target(now)
        params = replace(cfg.cost, target=target)
        basis = self._position_history[max(0, k - cfg.obs_delay_ticks)]
        observed, decisions = [], []
        for agent in range(cfg.agent_count):
            rng = observation_stream(cfg.seed, k, agent)
            obs = observe(basis, agent, cfg.noise_sigma, cfg.r_h, rng)
            self_pos, decision = _decide(agent, obs, params, cfg.controller)
            observed.append(tuple(self_pos))
            decisions.append(decision)

        setpoints = [d.position for d in decisions]
        costs = [d.cost for d in decisions]
        record = TickRecord(
            index=k,
            time=now,
            target=target,
            positions=positions,
            velocities=velocities,
            observed_self=np.array(observed),
            setpoints=np.array([tuple(sp) for sp in setpoints]),
            costs=np.array([(c.total, c.coh, c.sep, c.tar, c.obs) for c in costs]),
            grad_norms=np.array([d.grad_norm for d in decisions]),
        )

        llc = cfg.llc
        dt = cfg.physics_dt
        for _ in range(cfg.steps_per_tick):
            for i, state in enumerate(self.states):
                sp = setpoints[i]
                if llc.family == "A":
                    tilt = pid_xy_tilt(state, (sp.x, sp.y), llc, dt)
                else:
                    tilt = explicit_xy_tilt(state, (sp.x, sp.y), llc)
                try:
                    self.states[i] = integrate_plant(state, tilt, sp.z, dt, llc.z_time_constant)
                except ValueError as exc:  # the new state is not finite
                    raise DivergenceError(f"tick {k} (t={now:g} s), agent {i}: {exc}") from None

        self.tick_index = k + 1
        return record

    def run(self) -> Trace:
        records = tuple(self.tick() for _ in range(self.cfg.tick_count))
        return Trace(config=self.cfg, records=records)


def run_scenario(cfg: ScenarioConfig) -> Trace:
    """Full deterministic rollout; identical (cfg, seed) gives a bit-identical
    Trace."""
    return Simulation(cfg).run()


# --- observation replay ------------------------------------------------------


def tick_observation(trace: Trace, tick_index: int, agent: int) -> list[tuple[int, Vec3]]:
    """Reconstruct, exactly, the observation snapshot `agent` used at a tick."""
    cfg = trace.config
    basis_index = max(0, tick_index - cfg.obs_delay_ticks)
    basis = trace.records[basis_index].positions
    rng = observation_stream(cfg.seed, tick_index, agent)
    return observe(basis, agent, cfg.noise_sigma, cfg.r_h, rng)


def tick_cost_params(trace: Trace, tick_index: int) -> CostParams:
    """Cost params (with the tick's active target) used at a control tick."""
    return replace(trace.config.cost, target=trace.records[tick_index].target)


# --- trace output ------------------------------------------------------------

TRACE_COLUMNS = (
    "time_s",
    "agent",
    "px",
    "py",
    "pz",
    "vx",
    "vy",
    "vz",
    "ox",
    "oy",
    "oz",
    "spx",
    "spy",
    "spz",
    "cost_total",
    "cost_coh",
    "cost_sep",
    "cost_tar",
    "cost_obs",
    "grad_norm",
)


def write_trace_csv(trace: Trace, dest: str | Path | IO[str]) -> None:
    """One row per agent per control tick; floats via repr() so identical
    traces serialize to identical bytes."""
    own = isinstance(dest, (str, Path))
    fh = open(dest, "w", newline="") if own else dest
    try:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for rec in trace.records:
            t = repr(float(rec.time))
            for i in range(trace.agent_count):
                values = [
                    t,
                    str(i),
                    *(repr(float(v)) for v in rec.positions[i]),
                    *(repr(float(v)) for v in rec.velocities[i]),
                    *(repr(float(v)) for v in rec.observed_self[i]),
                    *(repr(float(v)) for v in rec.setpoints[i]),
                    *(repr(float(v)) for v in rec.costs[i]),
                    repr(float(rec.grad_norms[i])),
                ]
                fh.write(",".join(values) + "\n")
    finally:
        if own:
            fh.close()
