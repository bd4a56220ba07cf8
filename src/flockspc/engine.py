"""Deterministic fixed-timestep flocking world.

Agents fly a tilt-driven point-mass plant at physics_dt cadence and decide
setpoints every control_period from their own noisy observation snapshot:
the true positions of all agents within r_h (plus self), perturbed by
i.i.d. Gaussian noise per axis.

The noise is keyed per pair (module noise): what observer i sees of agent j
at control tick k is pos[j] + sigma * observation_stream(seed, k, i, j).  A
pair's noise depends on nothing else, so a rollout is bit-identical whatever
order or batch the pairs and decisions of a tick are evaluated in.  The
snapshot (_snapshot) finds each agent's neighbours by true distance, draws
noise for the self and in-range pairs only, O(n h) draws for h neighbours,
in one vectorised call, and returns pair lists: per-agent counts, then the
neighbour indices and noisy positions in row-major order, which the cost
and gradient kernels score as they are (model._neighborhoods).  Flocks of
up to _BLOCK_AGENTS agents draw every pair's noise for the next few ticks
in one call instead.  "Strictly within r_h" is tested on squared distances
without a sqrt: d2 < T for the least float T whose sqrt reaches r_h
(_range_bound), the same answer as sqrt(d2) < r_h for every d2, because
a correctly rounded sqrt is monotone.

No SIMD-dispatched transcendental ufunc (np.power with an exponent other
than 2, np.tan, np.arctan, np.exp, np.log) feeds a recorded value, here or in
the modules this one calls, so the trace bytes do not depend on which SIMD
kernels numpy dispatches.

Rollouts record one TickRecord per control tick and can be replayed
observation-exactly via tick_observation().  A plant state that stops being
finite ends the rollout with a DivergenceError.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import IO, Callable

import numpy as np

from .config import ConfigError, ScenarioConfig, Waypoint
from .controller import _decide
from .floatrepr import _Lines
from .llc import _plant_fault, fly
from .model import _INTEGER, _SEED, CostParams, Vec3, _neighborhoods
from .noise import _pair_noise, _round_keys, observation_stream

__all__ = [
    "DivergenceError",
    "TickRecord",
    "Trace",
    "observation_stream",
    "spawn_stream",
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

# Second key word of the spawn stream.  Keys used to be passed as a Python
# list, which numpy rounded through float64 whenever seed < 2**63, so this is
# the salt every spawn was drawn with; seeds below 2**53 keep their spawns.
_KEY_SALT = 0x9E3779B97F4A8000
_SPAWN_BLOCK = 16  # box spawn candidates per draw and array pass (100 agents: ~120 attempts)
# Flocks of up to _BLOCK_AGENTS agents draw the noise of all n^2 ordered
# pairs for the next _BLOCK_PAIRS // n^2 ticks in one kernel call: the
# kernel's fixed cost of about 100 numpy calls outweighs the unused pairs.
_BLOCK_AGENTS = 16
_BLOCK_PAIRS = 1024


def spawn_stream(seed: int) -> np.random.Generator:
    """Stream used for random spawn placement: Philox keyed by the seed and
    _KEY_SALT, from counter zero.  Spawn draws candidates from it in blocks.
    Nothing else reads it, so draws left in the last block change nothing."""
    _SEED.check(seed, "seed")
    key = np.array([seed, _KEY_SALT], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# --- observation -------------------------------------------------------------

# noise(observers, observed) -> (k, 3): the observation noise of those pairs.
PairNoise = Callable[[np.ndarray, np.ndarray], np.ndarray]


@lru_cache(maxsize=64)
def _range_bound(r_h: float) -> float:
    """The least float64 T with sqrt(T) >= r_h, inf when no finite one has
    it (r_h inf, or r_h**2 past the largest float).  sqrt is correctly
    rounded (IEEE 754 section 5.4.1), so it is monotone, and for every d2,
    NaN and inf included, sqrt(d2) < r_h is exactly d2 < T.  r_h * r_h is
    within an ulp or so of T, so the loops take a few steps."""
    t = r_h * r_h
    while t > 0.0 and math.sqrt(math.nextafter(t, 0.0)) >= r_h:
        t = math.nextafter(t, 0.0)
    while t < math.inf and math.sqrt(t) < r_h:
        t = math.nextafter(t, math.inf)
    return t


def _snapshot(pos: np.ndarray, agents: np.ndarray, r_h: float, noise: PairNoise | None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What each of the observing agents (a,) sees of the true positions
    pos (n, 3), as pair lists: its own noisy position (a, 3), its neighbour
    count (a,) int32, and the indices cols (k,) and noisy positions (k, 3)
    of the agents strictly within r_h of its true position, itself excluded,
    in row-major order: agent i's are its next counts[i] entries, cols
    ascending.  A squared distance d2 is in range when d2 <
    _range_bound(r_h), which is exactly sqrt(d2) < r_h without the sqrt.
    Noise is drawn for those pairs and the self pairs only, in one call;
    None adds none.  Inputs are trusted."""
    a = agents.shape[0]
    own = pos[agents]
    d2 = pos[:, 0] - own[:, 0, None]  # squared and summed x, y, z in place
    d2 *= d2
    for c in (1, 2):
        d = pos[:, c] - own[:, c, None]
        d2 += np.multiply(d, d, out=d)
    near = d2 < _range_bound(r_h)
    near[np.arange(a), agents] = False
    rows, cols = np.divmod(np.flatnonzero(near), pos.shape[0])  # np.nonzero's order and dtype
    counts = np.bincount(rows, minlength=a).astype(np.int32)
    if noise is None:
        return own, counts, cols, pos[cols]
    noisy = noise(np.concatenate((agents, agents[rows])), np.concatenate((agents, cols)))
    own += noisy[:a]
    return own, counts, cols, pos[cols] + noisy[a:]


def _tick_noise(cfg: ScenarioConfig, tick: int) -> PairNoise | None:
    """The observation noise of pairs at `tick`, drawn per call; None
    without noise."""
    if cfg.noise_sigma == 0.0:
        return None
    return partial(_pair_noise, _round_keys(cfg.seed), tick, sigma=cfg.noise_sigma)


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


def _spawn_positions(cfg: ScenarioConfig) -> np.ndarray:
    """The (n, 3) spawn positions.  Box candidates are drawn _SPAWN_BLOCK rows
    per Generator.uniform call, which fills them in C order, so they are the
    draws of one call per attempt.  A candidate is placed when it is at least
    min_spacing from every row placed before it, in two checks: one array pass
    over the block against the rows placed before the block (none for the
    first block), then a Python loop against the rows placed earlier in the
    block.  Both take sqrt((x - px)**2 + (y - py)**2 + (z - pz)**2), placed
    minus candidate, summed left to right, and np.sqrt rounds correctly like
    math.sqrt, so each decision is the one-attempt-at-a-time loop's."""
    spawn = cfg.spawn
    if spawn.positions is not None:
        return np.array([tuple(p) for p in spawn.positions], dtype=float)
    rng = spawn_stream(cfg.seed)
    lo = np.array(tuple(spawn.box_min), dtype=float)
    hi = np.array(tuple(spawn.box_max), dtype=float)
    n, spacing = cfg.agent_count, spawn.min_spacing
    placed = np.empty((n, 3))
    k = misses = 0  # rows placed before this block; draws rejected since the last placed row
    while k < n:
        block = rng.uniform(lo, hi, (_SPAWN_BLOCK, 3))
        far = [True] * _SPAWN_BLOCK
        if k:
            d = placed[:k, None] - block
            d *= d
            far = (np.sqrt(d[..., 0] + d[..., 1] + d[..., 2]) >= spacing).all(axis=0).tolist()
        new: list[list[float]] = []
        for p, ok in zip(block.tolist(), far):
            px, py, pz = p
            if ok and all(math.sqrt((x - px) * (x - px) + (y - py) * (y - py) + (z - pz) * (z - pz))
                          >= spacing for x, y, z in new):
                new.append(p)
                misses = 0
                if k + len(new) == n:
                    break
            elif (misses := misses + 1) == 10_000:
                raise ConfigError("spawn.box_min/box_max", f"could not place agent "
                                  f"{k + len(new)} with min_spacing {spacing} after 10000 attempts")
        placed[k:k + len(new)] = np.reshape(new, (-1, 3))  # [] alone is shape (0,)
        k += len(new)
    return placed


def _advance(state: np.ndarray, sp: np.ndarray, cfg: ScenarioConfig, tick: int) -> np.ndarray:
    """The (n, 8) state rows after control tick `tick`'s LLC + plant steps
    toward the setpoints sp (n, 3).  Raises DivergenceError, naming the tick,
    for the first physics step's first agent whose state is not finite."""
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
                    raise DivergenceError(f"tick {tick} (t={tick * cfg.control_period:g} s), "
                                          f"agent {i}: {fault}")
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
        # The last obs_delay_ticks + 1 ticks' positions: [0] is the delayed snapshot's.
        self._position_history: deque[np.ndarray] = deque(maxlen=cfg.obs_delay_ticks + 1)
        self._block, self._block_start = np.empty((0, 0, 0, 3)), 0  # small flocks' noise
        self._params: dict[Waypoint | None, CostParams] = {}
        self._agents = np.arange(cfg.agent_count)  # every agent observes

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

    def _noise(self, tick: int) -> PairNoise | None:
        """_tick_noise(cfg, tick), which small flocks read from a block of
        every pair's noise for the next few ticks: a pair's noise is the
        same in any batch."""
        cfg = self.cfg
        n = cfg.agent_count
        if n > _BLOCK_AGENTS or cfg.noise_sigma == 0.0:
            return _tick_noise(cfg, tick)
        offset = tick - self._block_start
        if not 0 <= offset < len(self._block):
            span = max(1, min(_BLOCK_PAIRS // (n * n), cfg.tick_count - tick))
            ticks, observers, observed = np.indices((span, n, n)).reshape(3, -1)
            noise = _pair_noise(_round_keys(cfg.seed), ticks + tick, observers, observed,
                                cfg.noise_sigma)
            self._block, self._block_start, offset = noise.reshape(span, n, n, 3), tick, 0
        block = self._block[offset]
        return lambda observers, observed: block[observers, observed]

    # Huge but finite states (a diverging plant, enormous noise) overflow the
    # decision arithmetic before a state stops being finite; tick() then
    # reports a DivergenceError, so numpy's warnings add nothing.
    @np.errstate(over="ignore", invalid="ignore")
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
        basis = self._position_history[0]
        observed, counts, _, seen = _snapshot(basis, self._agents, cfg.r_h, self._noise(k))
        hoods = _neighborhoods(seen, counts)
        decisions = _decide(observed, hoods, params, cfg.controller)

        # Positional, in TickRecord's field order: faster than keywords.
        setpoints, costs, grad_norms, n_candidates, chosen_m = decisions
        record = TickRecord(k, now, params.target, positions, state[:, 3:6].copy(), observed,
                            setpoints, costs, grad_norms, counts, n_candidates, chosen_m)
        self._state = _advance(state, setpoints, cfg, k)
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


def _record(trace: Trace, tick_index: int) -> TickRecord:
    _INTEGER.check(tick_index, "tick_index")
    if not 0 <= tick_index < len(trace.records):
        raise ConfigError("tick_index", f"must be in [0, {len(trace.records)}), got {tick_index}")
    return trace.records[tick_index]


def tick_observation(trace: Trace, tick_index: int, agent: int) -> list[tuple[int, Vec3]]:
    """Reconstruct, exactly, the observation snapshot `agent` used at a tick:
    the noisy positions of itself and of every agent strictly within r_h of
    its own true position, as (index, position) pairs in index order."""
    cfg = trace.config
    _record(trace, tick_index)  # raises unless the tick was recorded
    _INTEGER.check(agent, "agent")
    if not 0 <= agent < cfg.agent_count:
        raise ConfigError("agent", f"must be in [0, {cfg.agent_count}), got {agent}")
    basis = trace.records[max(0, tick_index - cfg.obs_delay_ticks)].positions
    own, _, cols, seen = _snapshot(basis, np.array([agent]), cfg.r_h, _tick_noise(cfg, tick_index))
    points = sorted([(agent, own[0]), *zip(cols.tolist(), seen)], key=lambda pair: pair[0])
    return [(j, Vec3(*p.tolist())) for j, p in points]


def tick_cost_params(trace: Trace, tick_index: int) -> CostParams:
    """Cost params (with the tick's active target) used at a control tick."""
    return replace(trace.config.cost, target=_record(trace, tick_index).target)


# --- trace output ------------------------------------------------------------

TRACE_COLUMNS = (
    "time_s", "agent", "px", "py", "pz", "vx", "vy", "vz", "ox", "oy", "oz", "spx", "spy", "spz",
    "cost_total", "cost_coh", "cost_sep", "cost_tar", "cost_obs", "grad_norm",
)


# At most one trace CSV part per this many rows: a smaller part saves less
# than its fork costs (measured: one process wins up to about 4000 rows).
_CSV_PART_ROWS = 2500
# Record field and its CSV columns after time_s and agent.
_CSV_FIELDS = (("positions", slice(0, 3)), ("velocities", slice(3, 6)), ("observed_self", slice(6, 9)),
               ("setpoints", slice(9, 12)), ("costs", slice(12, 17)), ("grad_norms", 17))


def _cpu_count() -> int:
    """The CPUs this process may run on (taskset or a cpuset caps them)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _write_records(fh: IO[str], records: tuple[TickRecord, ...]) -> None:
    """The CSV rows of `records`, one per agent per record, in blocks of
    whole records (one per block for a flock larger than a block): time_s
    and agent as bytes, the agent column laid once, the 18 values through
    _Lines."""
    n = len(records[0].grad_norms) if records else 0
    if n == 0:
        return
    width = len(b",%d" % (n - 1))
    lines = _Lines(b"," * 18, 24 + width, least=n)
    per = lines.rows // n  # records per block
    prefix = lines.prefix[:per * n].reshape(per, n, -1)
    prefix[:, :, 24:] = np.frombuffer(b"".join((b",%d" % i).ljust(width, b"\0") for i in range(n)),
                                      dtype=np.uint8).reshape(n, width)
    values = np.empty((per * n, 18))
    for start in range(0, len(records), per):
        group = records[start:start + per]
        rows = len(group) * n
        for name, columns in _CSV_FIELDS:
            np.concatenate([getattr(rec, name) for rec in group], out=values[:rows, columns])
        times = b"".join(repr(float(rec.time)).encode().ljust(24, b"\0") for rec in group)
        prefix[:len(group), :, :24] = np.frombuffer(times, dtype=np.uint8).reshape(len(group), 1, 24)
        fh.write(lines.text(values[:rows]))


def write_trace_csv(trace: Trace, dest: str | Path | IO[str]) -> None:
    """One row per agent per control tick, each float as repr() writes it
    (floatrepr), so identical traces serialize to identical bytes.  The
    records are split into one contiguous part per CPU this process may
    use, at most one per _CSV_PART_ROWS rows, one without os.fork.  Forked
    children write all parts but the first to temporary files, copied into
    dest in order; every row comes from _write_records, so the bytes do not
    depend on the split."""
    records = trace.records
    rows = len(records) * trace.config.agent_count
    cpus = _cpu_count() if hasattr(os, "fork") else 1
    k = max(1, min(cpus, rows // _CSV_PART_ROWS, len(records)))
    bounds = [len(records) * p // k for p in range(k + 1)]
    own = isinstance(dest, (str, Path))
    fh = open(dest, "w", newline="") if own else dest
    parts: list[IO[str]] = []  # the temporary files of parts 1 to k - 1
    pids: list[int] = []  # their children not yet reaped, in part order
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            parts.append(part := tempfile.TemporaryFile("w+", newline=""))
            if (pid := os.fork()) == 0:  # the child exits without unwinding this stack
                try:
                    _write_records(part, records[lo:hi])
                    part.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        _write_records(fh, records[:bounds[1]])
        for p, part in enumerate(parts, 1):
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            if status:
                raise RuntimeError(f"trace CSV part {p} of {k}: its writer exited with "
                                   f"status {os.waitstatus_to_exitcode(status)}")
            part.seek(0)
            shutil.copyfileobj(part, fh, 1 << 16)
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for part in parts:
            part.close()
        if own:
            fh.close()
