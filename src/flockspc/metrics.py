"""Flock quality metrics, thresholds, and run aggregation with verdicts.

Three per-tick metrics over TRUE positions (never the noisy observations):

  dist_min:  minimum pairwise distance between agents (absent for one agent)
  comp_max:  maximum distance of any agent from the flock centroid
  clear_obj: minimum xy-plane distance from any agent to any obstacle center
             (center-to-center; the radii live in the threshold instead)

A run passes when, over the post-formation window, min(dist_min) and
min(clear_obj) stay strictly above their thresholds and max(comp_max) stays
strictly below comp_thr.  Equality fails: the boundaries are safety margins.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .config import ScenarioConfig
from .engine import Trace
from .model import _NONNEGATIVE, ConfigError, Obstacle, Vec3, _check_fields, _field, _points
from .presets import R_SAFETY

__all__ = [
    "MetricsSample",
    "Thresholds",
    "RunSummary",
    "compute_metrics",
    "thresholds_from_geometry",
    "thresholds_for_scenario",
    "aggregate",
    "summary_to_dict",
    "write_summary_json",
    "markdown_table",
]


@dataclass(frozen=True)
class MetricsSample:
    """Metrics at one instant; dist_min is None for a lone agent and
    clear_obj is None when there are no obstacles."""

    time: float
    dist_min: float | None
    comp_max: float
    clear_obj: float | None


@dataclass(frozen=True)
class Thresholds:
    """Pass/fail boundaries in metres."""

    dist_thr: float = _field(_NONNEGATIVE)
    comp_thr: float = _field(_NONNEGATIVE)
    clear_thr: float = _field(_NONNEGATIVE)

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class RunSummary:
    """Whole-run aggregates over the post-formation window plus verdicts.

    Verdicts are True (pass), False (fail), or None where the metric is
    undefined (single agent, or no obstacles).
    """

    agent_count: int
    obstacle_count: int
    controller_kind: str
    llc_family: str
    seed: int
    window_start: float
    sample_count: int
    dist_min: float | None
    comp_max: float
    clear_obj: float | None
    dist_ok: bool | None
    comp_ok: bool
    clear_ok: bool | None
    thresholds: Thresholds

    @property
    def passed(self) -> bool:
        return all(v is not False for v in (self.dist_ok, self.comp_ok, self.clear_ok))


def compute_metrics(
    true_positions: np.ndarray | Sequence[Vec3],
    obstacles: Sequence[Obstacle] = (),
    time: float = 0.0,
) -> MetricsSample:
    """Exact min/max metrics over all pairs and agents at one instant."""
    pos = _points(true_positions, "true_positions")
    return MetricsSample(time, *_frames_worst(pos[None], _obstacle_xy(obstacles)))


@lru_cache(maxsize=32)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k=1), read-only: every agent pair of a flock of n."""
    ii, jj = np.triu_indices(n, k=1)
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


def _obstacle_xy(obstacles: Sequence[Obstacle]) -> tuple[np.ndarray, np.ndarray] | None:
    """The obstacle centres' x and y arrays, None without obstacles."""
    if not obstacles:
        return None
    return np.array([o.x for o in obstacles]), np.array([o.y for o in obstacles])


# _frames_worst scores blocks of frames of at most this many pair x frame
# (or agent x obstacle x frame) elements, one frame where a frame holds more:
# a 100-agent flock's 4950 pairs keep one frame per block.  A block's
# (3, frames, pairs) differences then take about 96 KB, so aggregate's peak
# stays near the stacked window's own size.
_WINDOW_ELEMENTS = 4096


# A block whose worst square overflowed (a spread past about 1.3e154 m) is
# scored again on its frames and obstacle centres times 2**-512, which is
# exact for normal numbers; sqrt(2**-1024 x) is 2**-512 sqrt(x) exactly.
_SCALE = 2.0 ** -512


def _block_squares(frames: np.ndarray, centroid: np.ndarray, obstacle_xy, ii, jj) -> tuple:
    """The least pair square (None for one agent), the greatest centroid
    square and the least obstacle square (None without obstacles) of the
    frames (b, n, 3), whose centroids are centroid (b, 1, 3)."""
    dist2 = clear2 = None
    if len(ii):  # d[c] (b, pairs): coordinate c's differences, squared in place
        xyz = frames.transpose(2, 0, 1).copy()
        d = np.take(xyz, ii, 2)
        d -= np.take(xyz, jj, 2)
        d *= d
        dist2 = d[0] + d[1]
        dist2 += d[2]
        dist2 = dist2.min()
    c = frames - centroid
    cx, cy, cz = c[..., 0], c[..., 1], c[..., 2]
    comp2 = (cx * cx + cy * cy + cz * cz).max()
    if obstacle_xy is not None:
        ex = frames[..., 0, None] - obstacle_xy[0]
        ey = frames[..., 1, None] - obstacle_xy[1]
        clear2 = (ex * ex + ey * ey).min()
    return dist2, comp2, clear2


def _frames_worst(pos: np.ndarray, obstacle_xy: tuple[np.ndarray, np.ndarray] | None
                  ) -> tuple[float | None, float, float | None]:
    """(dist_min, comp_max, clear_obj) of finite positions pos (T, n, 3) and
    _obstacle_xy's arrays: each metric's worst over the T frames, scored in
    blocks of frames of at most _WINDOW_ELEMENTS elements, so no temporary
    grows with T.  Each frame's squares are the one-frame arithmetic's and
    min and max are exact, so the blocks do not change the result; the sqrt
    of the least or greatest square is the least or greatest sqrt.  A metric
    whose block square overflowed is taken from the block scaled by
    _SCALE, so it reads inf only where the true value passes the float
    range."""
    n = pos.shape[1]
    if n < 1:
        raise ValueError("compute_metrics needs at least one agent")
    ii, jj = _pairs(n)
    k = 0 if obstacle_xy is None else len(obstacle_xy[0])
    per = max(1, _WINDOW_ELEMENTS // max(len(ii), n * k, n))  # frames per block
    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):
        centroids = pos.mean(axis=1)
        for lo in range(0, len(pos), per):
            frames = pos[lo:lo + per]
            squares = _block_squares(frames, centroids[lo:lo + per, None], obstacle_xy, ii, jj)
            roots = [None if s is None else math.sqrt(s) for s in squares]
            if not all(r is None or math.isfinite(r) for r in roots):  # overflowed (or NaN)
                small = frames * _SCALE
                small_xy = None if obstacle_xy is None else tuple(a * _SCALE for a in obstacle_xy)
                rescored = _block_squares(small, small.mean(axis=1)[:, None], small_xy, ii, jj)
                roots = [r if r is None or math.isfinite(r) else math.sqrt(s) / _SCALE
                         for r, s in zip(roots, rescored)]
            blocks.append(roots)
    dist, comp, clear = zip(*blocks)
    return (None if n < 2 else min(dist), max(comp), None if obstacle_xy is None else min(clear))


def thresholds_from_geometry(
    r_drone: float,
    r_safety: float,
    r_k: float = 0.0,
    comp_thr: float = 10.0,
) -> Thresholds:
    """dist_thr = 2 r_drone + r_safety and clear_thr = r_drone + r_k + r_safety,
    each finite; comp_thr passes through (no geometric definition exists for it)."""
    for name, v in (("r_drone", r_drone), ("r_safety", r_safety), ("r_k", r_k)):
        _NONNEGATIVE.check(v, name)
    dist_thr, clear_thr = 2.0 * r_drone + r_safety, r_drone + r_k + r_safety
    for expr, v in (("2 * r_drone + r_safety", dist_thr), ("r_drone + r_k + r_safety", clear_thr)):
        _NONNEGATIVE.check(v, expr)  # a sum of finite values >= 0: inf once overflowed
    return Thresholds(dist_thr=dist_thr, comp_thr=comp_thr, clear_thr=clear_thr)


def thresholds_for_scenario(
    cfg: ScenarioConfig,
    r_safety: float = R_SAFETY,
    comp_thr: float = 10.0,
) -> Thresholds:
    """Thresholds implied by a scenario's geometry; r_k is the largest
    obstacle radius present (0 when there are none).  A cost.r_drone whose
    dist_thr or clear_thr is no longer finite is a ConfigError naming
    cost.r_drone, raised before any rollout by the commands that call this."""
    r_k = max((o.radius for o in cfg.obstacles), default=0.0)
    r_drone = cfg.cost.r_drone
    try:
        return thresholds_from_geometry(r_drone, r_safety, r_k, comp_thr)
    except ConfigError as exc:
        formula = {"2 * r_drone + r_safety": "dist_thr = 2 r_drone + r_safety",
                   "r_drone + r_k + r_safety": "clear_thr = r_drone + r_k + r_safety "
                                               f"(largest obstacle radius r_k {r_k})"}
        if exc.field not in formula:
            raise
        raise ConfigError("cost.r_drone", f"must keep {formula[exc.field]} finite "
                                          f"with r_safety {r_safety}, got {r_drone}") from None


def _judged(dist: float | None, comp: float, clear: float | None, thr: Thresholds) -> tuple:
    """Each worst-case value with its verdict, None for an absent metric.
    Equality fails: the thresholds are safety margins."""
    return (
        (dist, None if dist is None else dist > thr.dist_thr),
        (comp, comp < thr.comp_thr),
        (clear, None if clear is None else clear > thr.clear_thr),
    )


def _worst(summaries: Sequence[RunSummary], thr: Thresholds) -> tuple:
    """_judged worst case of summaries: least dist_min and clear_obj (None
    when none has one), greatest comp_max."""
    return _judged(
        min((s.dist_min for s in summaries if s.dist_min is not None), default=None),
        max(s.comp_max for s in summaries),
        min((s.clear_obj for s in summaries if s.clear_obj is not None), default=None),
        thr,
    )


def aggregate(
    trace: Trace,
    thresholds: Thresholds,
    formation_time: float | None = None,
) -> RunSummary:
    """Worst-case aggregates over all ticks with time >= formation_time.

    formation_time defaults to the scenario's own setting.  Raises
    ValueError when the window contains no samples or a non-finite position.
    """
    cfg = trace.config
    start = cfg.formation_time if formation_time is None else formation_time
    window = [rec for rec in trace.records if rec.time >= start]
    if not window:
        raise ValueError(
            f"aggregation window is empty: no ticks at or after t={start} "
            f"(trace ends at t={trace.records[-1].time if trace.records else 0.0})"
        )
    pos = np.array([rec.positions for rec in window], dtype=float)
    if not np.isfinite(pos).all():
        raise ValueError(f"true_positions must be finite, got a non-finite one from t={start} on")
    (dist_min, dist_ok), (comp_max, comp_ok), (clear_obj, clear_ok) = _judged(
        *_frames_worst(pos, _obstacle_xy(cfg.obstacles)), thresholds)

    return RunSummary(
        agent_count=cfg.agent_count,
        obstacle_count=len(cfg.obstacles),
        controller_kind=cfg.controller.kind,
        llc_family=cfg.llc.family,
        seed=cfg.seed,
        window_start=start,
        sample_count=len(window),
        dist_min=dist_min,
        comp_max=comp_max,
        clear_obj=clear_obj,
        dist_ok=dist_ok,
        comp_ok=comp_ok,
        clear_ok=clear_ok,
        thresholds=thresholds,
    )


def _verdict(ok: bool | None) -> str | None:
    return None if ok is None else ("pass" if ok else "fail")


def summary_to_dict(summary: RunSummary) -> dict:
    """JSON-shaped view of a RunSummary."""
    return {
        "scenario": {
            "agent_count": summary.agent_count,
            "obstacle_count": summary.obstacle_count,
            "controller": summary.controller_kind,
            "llc_family": summary.llc_family,
            "seed": summary.seed,
        },
        "window": {"start_time": summary.window_start, "sample_count": summary.sample_count},
        "thresholds": asdict(summary.thresholds),
        "metrics": {
            "dist_min": summary.dist_min,
            "comp_max": summary.comp_max,
            "clear_obj": summary.clear_obj,
        },
        "verdicts": {
            "dist_min": _verdict(summary.dist_ok),
            "comp_max": _verdict(summary.comp_ok),
            "clear_obj": _verdict(summary.clear_ok),
            "overall": "pass" if summary.passed else "fail",
        },
    }


def write_summary_json(
    summary: RunSummary,
    dest: str | Path | IO[str],
    scenario_echo: dict | None = None,
) -> None:
    """Write the summary (optionally with the full scenario echo) as JSON."""
    payload = summary_to_dict(summary)
    if scenario_echo is not None:
        payload["scenario_echo"] = scenario_echo
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(text)
    else:
        dest.write(text)


# --- markdown reporting -------------------------------------------------------

_METRIC_NAMES = ("dist_min", "comp_max", "clear_obj")


def _cell(value: float | None, ok: bool | None) -> str:
    if value is None:
        return "-"
    mark = "" if ok is None else (" ok" if ok else " FAIL")
    return f"{value:.2f}{mark}"


def markdown_table(summaries: Iterable[RunSummary]) -> str:
    """Grid of worst-case metrics: one row per (flock size, obstacle count),
    one column group per (controller, LLC family), seeds combined worst-case."""
    summaries = list(summaries)
    if not summaries:
        raise ValueError("markdown_table needs at least one summary")

    rows = sorted({(s.agent_count, s.obstacle_count) for s in summaries})
    groups = [
        (ctrl, fam)
        for ctrl in ("SPC", "PFC")
        for fam in ("A", "B")
        if any(s.controller_kind == ctrl and s.llc_family == fam for s in summaries)
    ]

    header = ["|D|", "obstacles"]
    for ctrl, fam in groups:
        header += [f"{ctrl}/{fam} {m}" for m in _METRIC_NAMES]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(" --- " for _ in header) + "|",
    ]
    for size, n_obs in rows:
        cells = [str(size), str(n_obs)]
        for ctrl, fam in groups:
            bucket = [
                s
                for s in summaries
                if (s.agent_count, s.obstacle_count) == (size, n_obs)
                and s.controller_kind == ctrl
                and s.llc_family == fam
            ]
            if not bucket:
                cells += ["-", "-", "-"]
            else:
                cells += [_cell(v, ok) for v, ok in _worst(bucket, bucket[0].thresholds)]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
