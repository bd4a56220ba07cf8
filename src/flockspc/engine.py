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

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .config import ConfigError, ScenarioConfig, Waypoint
from .controller import _decide
from .llc import _plant_fault, fly
from .model import CostParams, Vec3, _neighborhoods

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
# Second key word.  Keys used to be passed as a Python list, which numpy
# rounded through float64 whenever seed < 2**63, so this is the salt every
# stream was drawn with; seeds below 2**53 keep their streams.
_KEY_SALT = 0x9E3779B97F4A8000
_PURPOSE_SPAWN = 0
_PURPOSE_OBSERVE = 1


def _stream(seed: int, purpose: int, tick: int, agent: int) -> np.random.Generator:
    # Counter-based: distinct (purpose, tick, agent) words give disjoint
    # streams regardless of draw order.
    key = np.array([seed & _MASK64, _KEY_SALT], dtype=np.uint64)
    counter = np.array([0, purpose, tick & _MASK64, agent & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def observation_stream(seed: int, tick: int, agent: int) -> np.random.Generator:
    """Noise stream for one agent's observation at one control tick."""
    return _stream(seed, _PURPOSE_OBSERVE, tick, agent)


def spawn_stream(seed: int) -> np.random.Generator:
    """Stream used for random spawn placement."""
    return _stream(seed, _PURPOSE_SPAWN, 0, 0)


# --- observation -------------------------------------------------------------


def _snapshot(pos: np.ndarray, agents: np.ndarray, sigma: float, r_h: float,
              rngs: Iterable[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """What each of the observing agents (a,) sees of the true positions
    pos (n, 3): its noisy positions (a, n, 3) of all agents, drawn as one
    (n, 3) batch from its own generator in rngs (read only when sigma > 0),
    and the (a, n) mask of the agents strictly within r_h of its true
    position, itself excluded.  Inputs are trusted."""
    shape = (agents.shape[0],) + pos.shape
    if sigma > 0.0:
        seen = np.empty(shape)
        for row, rng in zip(seen, rngs):
            row[:] = rng.normal(0.0, sigma, size=pos.shape)
        seen += pos  # noise + pos is pos + noise bit for bit
    else:
        seen = np.broadcast_to(pos, shape)
    d2 = (pos[:, 0] - pos[agents, 0, None]) ** 2  # summed x, y, z in place
    d2 += (pos[:, 1] - pos[agents, 1, None]) ** 2
    d2 += (pos[:, 2] - pos[agents, 2, None]) ** 2
    near = np.sqrt(d2, out=d2) < r_h
    near[np.arange(agents.shape[0]), agents] = False
    return seen, near


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
    pos = np.array([tuple(p) for p in true_positions], dtype=float)
    n = pos.shape[0]
    if not 0 <= agent < n:
        raise ValueError(f"agent index {agent} out of range for {n} agents")
    noisy, seen = _snapshot(pos, np.array([agent]), sigma, r_h, [rng])
    seen[0, agent] = True
    return [(j, Vec3(*noisy[0, j].tolist())) for j in np.flatnonzero(seen[0]).tolist()]


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
    # Decision diagnostics, kept out of the trace CSV:
    n_neighbors: np.ndarray  # (n,) int, neighbours each agent observed
    n_candidates: np.ndarray  # (n,) int, SPC candidates scored (0 when holding and for PFC)
    chosen_m: np.ndarray  # (n,) int, chosen candidate m, 0 = hold (always 0 for PFC)


@dataclass(frozen=True)
class Trace:
    """Full rollout: the scenario that produced it plus per-tick records."""

    config: ScenarioConfig
    records: tuple[TickRecord, ...]

    @property
    def agent_count(self) -> int:
        return self.config.agent_count


def _spawn_positions(cfg: ScenarioConfig) -> np.ndarray:
    spawn = cfg.spawn
    if spawn.positions is not None:
        return np.array([tuple(p) for p in spawn.positions], dtype=float)
    rng = spawn_stream(cfg.seed)
    lo = np.array(tuple(spawn.box_min), dtype=float)
    hi = np.array(tuple(spawn.box_max), dtype=float)
    placed: list[list[float]] = []
    for i in range(cfg.agent_count):
        for _ in range(10_000):
            px, py, pz = p = rng.uniform(lo, hi).tolist()
            if all(math.sqrt((x - px) * (x - px) + (y - py) * (y - py) + (z - pz) * (z - pz))
                   >= spawn.min_spacing for x, y, z in placed):
                placed.append(p)
                break
        else:
            raise ConfigError(
                f"spawn.box_min/box_max: could not place agent {i} with "
                f"min_spacing {spawn.min_spacing} after 10000 attempts"
            )
    return np.array(placed)


def _advance(state: np.ndarray, sp: np.ndarray, cfg: ScenarioConfig, when: str) -> np.ndarray:
    """The (n, 8) state rows after one control period of LLC + plant steps
    toward the setpoints sp (n, 3).  Raises DivergenceError, prefixed by
    `when`, for the first physics step's first agent whose state is not finite."""
    new_state = state.copy()
    fly(new_state, sp, cfg.llc, cfg.physics_dt, cfg.steps_per_tick)
    if not np.isfinite(new_state[:, :6]).all():
        # A value that stops being finite stays so: replaying one step at a
        # time finds where the first one did.
        replay = state.copy()
        for _ in range(cfg.steps_per_tick):
            fly(replay, sp, cfg.llc, cfg.physics_dt, 1)
            for i, row in enumerate(replay.tolist()):
                if (fault := _plant_fault(row)) is not None:
                    raise DivergenceError(f"{when}, agent {i}: {fault}")
    return new_state


class Simulation:
    """Mutable world advancing one control tick at a time.

    Per-agent control decisions within a tick are pure functions of that
    agent's observation snapshot, so their evaluation order does not change
    the trace.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        # One row per agent: position, velocity, then family A's integrator.
        self._state = np.zeros((cfg.agent_count, 8))
        self._state[:, :3] = _spawn_positions(cfg)  # finite: SpawnSpec checks them
        self.tick_index = 0
        self._position_history: list[np.ndarray] = []
        self._rng: np.random.Generator | None = None  # observation noise, built on first use
        self._rng_state: dict = {}
        self._params: dict[Waypoint | None, CostParams] = {}

    def _active_params(self, now: float) -> CostParams:
        """Cost params with the target of the waypoint active at `now`, built
        once per waypoint so their cached obstacle and target arrays last
        the whole run."""
        active = None
        for wp in self.cfg.waypoints:
            if wp.time > now + 1e-9:
                break
            active = wp
        if active not in self._params:
            target = None if active is None else active.target
            self._params[active] = replace(self.cfg.cost, target=target)
        return self._params[active]

    def _observation_stream(self, tick: int, agent: int) -> np.random.Generator:
        """observation_stream(seed, tick, agent): the same draws from one
        generator re-keyed per call, about five times cheaper than a new one."""
        if self._rng is None:
            self._rng = observation_stream(self.cfg.seed, 0, 0)
            self._rng_state = self._rng.bit_generator.state  # counter, key, empty buffer
        counter = self._rng_state["state"]["counter"]
        counter[2], counter[3] = tick & _MASK64, agent & _MASK64
        self._rng.bit_generator.state = self._rng_state
        return self._rng

    def tick(self) -> TickRecord:
        """Observe, decide, record, then integrate physics for one control period.

        Raises DivergenceError, naming the tick, agent and state field, when
        an agent's plant state stops being finite.
        """
        cfg = self.cfg
        k = self.tick_index
        now = k * cfg.control_period
        state = self._state
        positions = state[:, :3].copy()
        self._position_history.append(positions)

        params = self._active_params(now)
        basis = self._position_history[max(0, k - cfg.obs_delay_ticks)]
        agents = np.arange(cfg.agent_count)
        rngs = (self._observation_stream(k, agent) for agent in agents.tolist())
        seen, near = _snapshot(basis, agents, cfg.noise_sigma, cfg.r_h, rngs)
        observed = seen[agents, agents]
        hoods = _neighborhoods(seen, near)
        decisions = _decide(observed, hoods, params, cfg.controller)

        record = TickRecord(
            index=k, time=now, target=params.target, positions=positions,
            velocities=state[:, 3:6].copy(), observed_self=observed,
            setpoints=decisions.setpoints, costs=decisions.costs,
            grad_norms=decisions.grad_norms, n_neighbors=hoods.counts,
            n_candidates=decisions.n_candidates, chosen_m=decisions.chosen_m,
        )
        self._state = _advance(state, decisions.setpoints, cfg, f"tick {k} (t={now:g} s)")
        self.tick_index = k + 1
        return record

    def run(self) -> Trace:
        # Huge but finite states (a diverging plant, enormous noise) overflow
        # the decision arithmetic before a state stops being finite; tick()
        # then reports a DivergenceError, so numpy's warnings add nothing.
        with np.errstate(over="ignore", invalid="ignore"):
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
    "time_s", "agent", "px", "py", "pz", "vx", "vy", "vz", "ox", "oy", "oz", "spx", "spy", "spz",
    "cost_total", "cost_coh", "cost_sep", "cost_tar", "cost_obs", "grad_norm",
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
            columns = (rec.positions, rec.velocities, rec.observed_self, rec.setpoints, rec.costs)
            rows = np.hstack((*columns, rec.grad_norms[:, None]), dtype=float).tolist()
            for i, row in enumerate(rows):
                fh.write(f"{t},{i},{','.join(map(repr, row))}\n")
    finally:
        if own:
            fh.close()
