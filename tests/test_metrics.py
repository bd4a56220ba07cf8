"""Metric tests: hand-geometry oracles, threshold formulas, strict verdict
boundaries, aggregation windows, and the markdown report."""

from __future__ import annotations

import io
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import flockspc.metrics as metrics

from flockspc import (
    ConfigError,
    ControllerConfig,
    CostParams,
    LLCConfig,
    Obstacle,
    ScenarioConfig,
    SpawnSpec,
    Thresholds,
    TickRecord,
    Trace,
    Vec3,
    aggregate,
    build_scenario,
    compute_metrics,
    hardware_scenario,
    markdown_table,
    run_scenario,
    summary_to_dict,
    thresholds_for_scenario,
    thresholds_from_geometry,
    write_summary_json,
)


def _trace(frames, obstacles=()) -> Trace:
    """Synthetic trace from [(time, positions)] pairs; everything else zeroed."""
    n = len(frames[0][1])
    cfg = ScenarioConfig(
        agent_count=n,
        spawn=SpawnSpec(positions=tuple(Vec3(*p) for p in frames[0][1])),
        cost=CostParams(w_coh=20.0, w_sep=9.0, w_tar=0.0, w_obs=0.0, r_drone=0.07),
        controller=ControllerConfig(kind="SPC"),
        llc=LLCConfig(family="A"),
        r_h=math.inf,
        noise_sigma=0.0,
        physics_dt=0.01,
        control_period=0.1,
        duration=max(t for t, _ in frames) + 0.1,
        seed=0,
        obstacles=tuple(obstacles),
        formation_time=0.0,
    )
    records = []
    for k, (t, pos) in enumerate(frames):
        arr = np.asarray(pos, dtype=float)
        zeros = np.zeros_like(arr)
        records.append(TickRecord(
            index=k, time=t, target=None, positions=arr, velocities=zeros,
            observed_self=arr.copy(), setpoints=arr.copy(),
            costs=np.zeros((n, 5)), grad_norms=np.zeros(n), n_neighbors=np.zeros(n, int),
            n_candidates=np.zeros(n, int), chosen_m=np.zeros(n, int)))
    return Trace(config=cfg, records=tuple(records))


def test_metrics_hand_geometry_oracle():
    s = compute_metrics([Vec3(0, 0, 1), Vec3(1, 0, 1), Vec3(0, 1, 1)])
    assert abs(s.dist_min - 1.0) <= 1e-15, f"dist_min {s.dist_min}"
    assert abs(s.comp_max - math.sqrt(5.0) / 3.0) <= 1e-12, f"comp_max {s.comp_max}"
    assert s.clear_obj is None


def test_metrics_clearance_is_xy_center_distance():
    s = compute_metrics([Vec3(5, 6, 2), Vec3(5, 9, 1)], [Obstacle(5, 5, 0.15)])
    assert abs(s.clear_obj - 1.0) <= 1e-15, (
        f"clear_obj {s.clear_obj}: z must be ignored and radii excluded")


def test_metrics_single_agent_has_no_dist():
    s = compute_metrics([Vec3(1, 2, 3)])
    assert s.dist_min is None
    assert s.comp_max == 0.0


def test_metrics_reject_non_finite_positions():
    # NaN metrics would fail a verdict without naming the bad input.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="true_positions must be finite"):
            compute_metrics([Vec3(0, 0, 1), Vec3(bad, 0, 1)])
        with pytest.raises(ValueError, match="true_positions must be finite"):
            compute_metrics(np.array([[0.0, 0, 1], [0, bad, 1]]))
    with pytest.raises(ValueError, match=r"true_positions: expected 3 coordinates per point, got shape \(2, 2\)"):
        compute_metrics(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="compute_metrics needs at least one agent"):
        compute_metrics(np.empty((0, 3)))
    # aggregate scores every recorded tick the same way
    frames = [(t, [(0, 0, 1), (1, 0, 1)]) for t in (0.0, 0.1, 0.2)]
    frames[1][1][1] = (math.nan, 0, 1)
    with pytest.raises(ValueError, match="true_positions must be finite"):
        aggregate(_trace(frames), Thresholds(0.2, 10.0, 0.28))


def test_metrics_past_the_square_range_are_the_finite_values(monkeypatch):
    # A spread past about 1.3e154 m overflows a square.  That block is
    # scored again scaled by 2**-512, so the true values come out, with no
    # RuntimeWarning (an error under the test filter); the metrics that did
    # not overflow keep the unscaled arithmetic's bits.
    frame = np.array([[0.0, 0, 1], [1, 0, 1], [0, 1, 1]])
    s = compute_metrics(frame, (Obstacle(1e300, 0.0, 0.15),))
    assert (s.dist_min, s.comp_max, s.clear_obj) == (1.0, 0.7453559924999299, 1e300)
    assert s.comp_max == compute_metrics(frame).comp_max
    s = compute_metrics(np.array([[-1e300, 0, 1], [1e300, 0, 1]]))
    assert (s.dist_min, s.comp_max, s.clear_obj) == (2e300, 1e300, None)
    # A centroid sum of +inf and -inf halves (NaN) and a distance past the
    # float range (inf, the true value's float).
    s = compute_metrics(np.array([[1.5e308, 0, 1], [1.5e308, 0, 1], [-1.5e308, 0, 1],
                                  [-1.5e308, 0, 1]]))
    assert (s.dist_min, s.comp_max) == (0.0, 1.5e308)
    assert compute_metrics(np.array([[-1.5e308, 0, 1], [1.5e308, 0, 1]])).dist_min == math.inf
    # aggregate takes the worst of a frame that overflowed and one that did
    # not, scored in one block or in a block each.
    frames = [(0.0, [(0, 0, 1), (0.5, 0, 1)]), (0.1, [(-1e300, 0, 1), (1e300, 0, 1)])]
    for elements in (metrics._WINDOW_ELEMENTS, 1):
        monkeypatch.setattr(metrics, "_WINDOW_ELEMENTS", elements)
        summary = aggregate(_trace(frames), Thresholds(0.2, 10.0, 0.28))
        assert (summary.dist_min, summary.comp_max) == (0.5, 1e300), elements


def test_metrics_comp_zero_iff_coincident():
    s = compute_metrics([Vec3(1, 1, 1), Vec3(1, 1, 1), Vec3(1, 1, 1)])
    assert s.comp_max == 0.0
    s = compute_metrics([Vec3(1, 1, 1), Vec3(1, 1, 1.001)])
    assert s.comp_max > 0.0


def test_metrics_translation_invariant():
    rng = np.random.default_rng(2)
    pos = rng.uniform(-3, 3, size=(6, 3))
    obs = [Obstacle(0.5, -0.2, 0.15), Obstacle(2.0, 1.0, 0.15)]
    t = rng.uniform(-20, 20, size=3)
    a = compute_metrics(pos, obs)
    b = compute_metrics(pos + t,
                        [Obstacle(o.x + t[0], o.y + t[1], o.radius) for o in obs])
    assert abs(a.dist_min - b.dist_min) <= 1e-9
    assert abs(a.comp_max - b.comp_max) <= 1e-9
    assert abs(a.clear_obj - b.clear_obj) <= 1e-9


def test_metrics_insertion_never_increases_dist_min():
    rng = np.random.default_rng(8)
    for _ in range(50):
        pos = rng.uniform(-2, 2, size=(5, 3))
        base = compute_metrics(pos).dist_min
        extended = np.vstack([pos, rng.uniform(-2, 2, size=(1, 3))])
        assert compute_metrics(extended).dist_min <= base + 1e-15


def _brute_force(pos: np.ndarray, obstacles) -> tuple:
    n = pos.shape[0]
    dist = None
    if n >= 2:
        best = math.inf
        for i in range(n):
            for j in range(i + 1, n):
                dx = pos[i, 0] - pos[j, 0]
                dy = pos[i, 1] - pos[j, 1]
                dz = pos[i, 2] - pos[j, 2]
                best = min(best, dx * dx + dy * dy + dz * dz)
        dist = math.sqrt(best)
    centroid = pos.mean(axis=0)
    worst = 0.0
    for i in range(n):
        cx = pos[i, 0] - centroid[0]
        cy = pos[i, 1] - centroid[1]
        cz = pos[i, 2] - centroid[2]
        worst = max(worst, cx * cx + cy * cy + cz * cz)
    comp = math.sqrt(worst)
    clear = None
    if obstacles:
        best = math.inf
        for o in obstacles:
            for i in range(n):
                ex = pos[i, 0] - o.x
                ey = pos[i, 1] - o.y
                best = min(best, ex * ex + ey * ey)
        clear = math.sqrt(best)
    return dist, comp, clear


def test_metrics_match_brute_force_exactly():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        pos = rng.uniform(-5, 5, size=(n, 3))
        n_obs = int(rng.integers(0, 4))
        obstacles = [Obstacle(float(x), float(y), 0.15)
                     for x, y in rng.uniform(-5, 5, size=(n_obs, 2))]
        s = compute_metrics(pos, obstacles)
        dist, comp, clear = _brute_force(pos, obstacles)
        assert s.dist_min == dist, f"dist {s.dist_min} != {dist}"
        assert s.comp_max == comp, f"comp {s.comp_max} != {comp}"
        assert s.clear_obj == clear, f"clear {s.clear_obj} != {clear}"


def test_threshold_formulas():
    t = thresholds_from_geometry(0.07, 0.06)
    assert abs(t.dist_thr - 0.20) <= 1e-15, f"dist_thr {t.dist_thr}"
    t = thresholds_from_geometry(0.07, 0.06, r_k=0.15)
    assert abs(t.clear_thr - 0.28) <= 1e-15, f"clear_thr {t.clear_thr}"
    t = thresholds_from_geometry(0.0, 0.0, 0.0, comp_thr=0.0)
    assert t.dist_thr == 0.0 and t.clear_thr == 0.0 and t.comp_thr == 0.0
    for args, named in (((-0.01, 0.06), "r_drone"), ((math.nan, 0.06), "r_drone"),
                        ((0.07, math.inf), "r_safety"), ((0.07, 0.06, math.inf), "r_k"),
                        ((0.07, 0.06, -math.inf), "r_k")):
        with pytest.raises(ValueError, match=rf"^{named}: must be >= 0 and finite"):
            thresholds_from_geometry(*args)
    for named, value in (("dist_thr", -0.01), ("comp_thr", math.nan), ("clear_thr", math.inf)):
        with pytest.raises(ValueError, match=rf"^{named}: must be >= 0 and finite"):
            Thresholds(**{"dist_thr": 0.2, "comp_thr": 10.0, "clear_thr": 0.28, named: value})


def test_thresholds_for_scenario_uses_largest_obstacle():
    tr = _trace([(0.0, [(0, 0, 1), (1, 0, 1)])],
                obstacles=[Obstacle(3, 0, 0.15), Obstacle(5, 0, 0.30)])
    t = thresholds_for_scenario(tr.config)
    assert abs(t.clear_thr - (0.07 + 0.30 + 0.06)) <= 1e-15
    bare = _trace([(0.0, [(0, 0, 1), (1, 0, 1)])])
    assert thresholds_for_scenario(bare.config).clear_thr == pytest.approx(0.13)


def test_thresholds_for_scenario_names_an_r_drone_that_overflows_them():
    # r_drone passes CostParams (finite, >= 0), but a threshold built from it
    # overflows: dist_thr = 2 r_drone + r_safety, or clear_thr = r_drone +
    # r_k + r_safety with the largest obstacle radius r_k.
    tr = _trace([(0.0, [(0, 0, 1), (1, 0, 1)])])
    huge = replace(tr.config, cost=replace(tr.config.cost, r_drone=1e308))
    with pytest.raises(ConfigError, match=r"^cost\.r_drone: must keep dist_thr = 2 r_drone "
                                          r"\+ r_safety finite with r_safety 0\.06, got 1e\+308$"):
        thresholds_for_scenario(huge)
    wide = _trace([(0.0, [(0, 0, 1), (1, 0, 1)])], obstacles=[Obstacle(3, 0, 1.7e308)])
    big = replace(wide.config, cost=replace(wide.config.cost, r_drone=6e307))
    with pytest.raises(ConfigError, match=r"^cost\.r_drone: must keep clear_thr = r_drone \+ r_k "
                                          r"\+ r_safety \(largest obstacle radius r_k 1\.7e\+308\)"):
        thresholds_for_scenario(big)
    with pytest.raises(ConfigError, match=r"^comp_thr: must be >= 0 and finite"):
        thresholds_for_scenario(tr.config, comp_thr=math.inf)


def test_verdict_boundary_is_strict():
    thr = Thresholds(dist_thr=0.5, comp_thr=10.0, clear_thr=0.28)
    tr = _trace([(0.0, [(0, 0, 1), (0.5, 0, 1)])])  # exactly dist_thr apart
    s = aggregate(tr, thr)
    assert s.dist_min == 0.5
    assert s.dist_ok is False, "equality with the threshold must fail"
    assert not s.passed
    tr = _trace([(0.0, [(0, 0, 1), (0.5000001, 0, 1)])])
    assert aggregate(tr, thr).dist_ok is True


def test_aggregate_worst_case_over_window():
    frames = [
        (0.0, [(0, 0, 1), (0.10, 0, 1)]),  # pre-formation chaos, excluded
        (10.0, [(0, 0, 1), (0.78, 0, 1)]),
        (10.1, [(0, 0, 1), (0.80, 0, 1)]),
        (10.2, [(0, 0, 1), (0.79, 0, 1)]),
    ]
    thr = Thresholds(dist_thr=0.20, comp_thr=10.0, clear_thr=0.28)
    s = aggregate(_trace(frames), thr, formation_time=10.0)
    assert abs(s.dist_min - 0.78) <= 1e-15, f"window min {s.dist_min}"
    assert s.dist_ok is True and s.passed
    assert s.sample_count == 3

    frames[2] = (10.1, [(0, 0, 1), (0.14, 0, 1)])
    s = aggregate(_trace(frames), thr, formation_time=10.0)
    assert abs(s.dist_min - 0.14) <= 1e-15
    assert s.dist_ok is False and not s.passed


def _hex(value):
    return None if value is None else value.hex()


@pytest.mark.parametrize("make", [
    lambda: build_scenario(30, "eleven", "SPC", "A", 3, duration=20.0),
    lambda: build_scenario(100, "none", "PFC", "B", 3, duration=20.0),
    lambda: hardware_scenario(3),
], ids=["spc_eleven_30", "pfc_open_100", "spc_hw_4"])
def test_aggregate_is_the_worst_of_compute_metrics_over_its_window(make):
    # One pass over the stacked window, bit for bit the worst per-tick sample.
    cfg = make()
    trace = run_scenario(cfg)
    s = aggregate(trace, thresholds_for_scenario(cfg))
    samples = [compute_metrics(rec.positions, cfg.obstacles, rec.time)
               for rec in trace.records if rec.time >= cfg.formation_time]
    assert s.sample_count == len(samples)
    clears = [m.clear_obj for m in samples]
    expected = (min(m.dist_min for m in samples), max(m.comp_max for m in samples),
                min(clears) if cfg.obstacles else None)
    assert tuple(map(_hex, (s.dist_min, s.comp_max, s.clear_obj))) == tuple(map(_hex, expected))


def _frames_worst_per_frame(pos, obstacle_xy):
    """metrics._frames_worst as one frame at a time, the loop it replaced."""
    ii, jj = np.triu_indices(pos.shape[1], k=1)
    dist2, comp2, clear2 = [], [], []
    for frame, centroid in zip(pos, pos.mean(axis=1)):
        if pos.shape[1] >= 2:
            dx, dy, dz = (np.take(frame, ii, 0) - np.take(frame, jj, 0)).T
            dist2.append((dx * dx + dy * dy + dz * dz).min())
        cx, cy, cz = (frame - centroid).T
        comp2.append((cx * cx + cy * cy + cz * cz).max())
        if obstacle_xy is not None:
            ex = frame[:, 0, None] - obstacle_xy[0]
            ey = frame[:, 1, None] - obstacle_xy[1]
            clear2.append((ex * ex + ey * ey).min())
    return (math.sqrt(min(dist2)) if dist2 else None, math.sqrt(max(comp2)),
            math.sqrt(min(clear2)) if clear2 else None)


@pytest.mark.byte_identity
@pytest.mark.parametrize("n", [1, 2, 4, 30, 100])
@pytest.mark.parametrize("obstacles", [0, 11], ids=["none", "eleven"])
def test_blocked_window_equals_the_per_frame_loop(n, obstacles):
    """The summary's metrics, scored in blocks of frames under
    metrics._WINDOW_ELEMENTS (one frame each for 100 agents) with a last,
    partial block, against the per-frame loop: the same worst values, to
    the bit.  Frames hold coincident agents, 8e15 m outliers and tiny
    offsets, so each metric's worst frame sits inside a block, not only at
    its start."""
    rng = np.random.default_rng(n + obstacles)
    per = max(1, metrics._WINDOW_ELEMENTS // max(n * (n - 1) // 2, n * obstacles, n))
    frames = 2 * per + 3
    pos = rng.uniform(-3.0, 3.0, size=(frames, n, 3))
    pos[frames // 2, :, 2] += 8e15 * rng.random(n)
    if n >= 2:
        pos[frames - 2, 1] = pos[frames - 2, 0] + 1e-9
    xy = None
    if obstacles:
        xy = rng.uniform(-3.0, 3.0, obstacles), rng.uniform(-3.0, 3.0, obstacles)
    for window in (pos, pos[:1], pos[1:per + 1], pos[: per + 1]):
        got, want = metrics._frames_worst(window, xy), _frames_worst_per_frame(window, xy)
        assert [_hex(v) for v in got] == [_hex(v) for v in want], (len(window), per)


def test_aggregate_memory_does_not_grow_with_pairs_or_obstacles():
    # A 60 s, 30-agent window through the eleven-cylinder field: 500 ticks.
    # Scored all at once, its pair distances alone would take 1.7 MB.
    rng = np.random.default_rng(5)
    frames = [(10.0 + 0.1 * k, rng.uniform(-3, 3, size=(30, 3))) for k in range(500)]
    obstacles = [Obstacle(float(x), float(y), 0.15) for x, y in rng.uniform(-3, 3, size=(11, 2))]
    tr = _trace(frames, obstacles)
    thr = thresholds_for_scenario(tr.config)
    aggregate(tr, thr)
    tracemalloc.start()
    try:
        aggregate(tr, thr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"aggregate peaked at {peak} bytes"


def test_aggregate_no_obstacles_reports_absent_clearance():
    tr = _trace([(1.0, [(0, 0, 1), (1, 0, 1)])])
    s = aggregate(tr, Thresholds(0.2, 10.0, 0.28))
    assert s.clear_obj is None and s.clear_ok is None
    assert s.passed  # absent metric cannot fail a run


def test_aggregate_empty_window_raises():
    tr = _trace([(1.0, [(0, 0, 1), (1, 0, 1)])])
    with pytest.raises(ValueError, match="window"):
        aggregate(tr, Thresholds(0.2, 10.0, 0.28), formation_time=5.0)


def test_aggregate_uses_scenario_formation_time_by_default():
    frames = [(0.0, [(0, 0, 1), (0.1, 0, 1)]), (5.0, [(0, 0, 1), (1.0, 0, 1)])]
    tr = _trace(frames)  # helper sets formation_time=0.0: both frames count
    thr = Thresholds(0.2, 10.0, 0.28)
    assert aggregate(tr, thr).dist_min == pytest.approx(0.1)
    assert aggregate(tr, thr, formation_time=4.0).dist_min == pytest.approx(1.0)


def test_summary_json_round_trip_and_stability(tmp_path):
    tr = _trace([(1.0, [(0, 0, 1), (0.9, 0, 1)])], obstacles=[Obstacle(5, 5, 0.15)])
    s = aggregate(tr, thresholds_for_scenario(tr.config))
    d = summary_to_dict(s)
    assert d["verdicts"]["overall"] == "pass"
    assert d["metrics"]["dist_min"] == pytest.approx(0.9)
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_summary_json(s, buf1)
    write_summary_json(s, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    parsed = json.loads(buf1.getvalue())
    assert parsed == json.loads(json.dumps(d))
    p = tmp_path / "summary.json"
    write_summary_json(s, p, scenario_echo={"note": 1})
    assert json.loads(p.read_text())["scenario_echo"] == {"note": 1}


def test_markdown_table_layout_and_verdicts():
    thr = Thresholds(0.2, 10.0, 0.28)
    runs = []
    for seed, d in ((0, 0.78), (1, 0.61)):
        tr = _trace([(1.0, [(0, 0, 1), (d, 0, 1)])])
        cfg = tr.config
        s = aggregate(tr, thr)
        runs.append(s)
    bad = aggregate(_trace([(1.0, [(0, 0, 1), (0.14, 0, 1)])]), thr)
    table = markdown_table(runs + [bad])
    lines = table.strip().split("\n")
    assert lines[0].startswith("| |D| | obstacles |")
    assert "SPC/A dist_min" in lines[0]
    body = "\n".join(lines[2:])
    # worst case across the three runs of the same cell: 0.14 and FAIL
    assert "0.14 FAIL" in body, f"table body:\n{body}"
    assert "-" in body  # clearance column dashes without obstacles


def test_markdown_table_dashes_a_group_a_row_lacks():
    # Each (size, obstacles) row shows "-" for a controller/family group that
    # only other rows ran.
    thr = Thresholds(0.2, 10.0, 0.28)
    spc = aggregate(_trace([(1.0, [(0, 0, 1), (0.78, 0, 1)])]), thr)
    pfc = aggregate(_trace([(1.0, [(0, 0, 1), (0.61, 0, 1), (0, 0.61, 1)])]), thr)
    pfc = replace(pfc, controller_kind="PFC", llc_family="B")
    lines = markdown_table([pfc, spc]).strip().split("\n")
    assert lines[0] == ("| |D| | obstacles | SPC/A dist_min | SPC/A comp_max | SPC/A clear_obj "
                        "| PFC/B dist_min | PFC/B comp_max | PFC/B clear_obj |")
    assert lines[2:] == ["| 2 | 0 | 0.78 ok | 0.39 ok | - | - | - | - |",
                         "| 3 | 0 | - | - | - | 0.61 ok | 0.45 ok | - |"]


def test_markdown_table_rejects_empty():
    with pytest.raises(ValueError):
        markdown_table([])
