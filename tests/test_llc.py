"""Low-level controller and plant tests: tilt laws for both families,
stopping-distance kinematics, step-response metrics, fly()'s array step
against its row loop, and fly() against the per-agent plant code it
replaced."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from flockspc import (
    GRAVITY,
    ControllerConfig,
    CostParams,
    LLCConfig,
    ScenarioConfig,
    SpawnSpec,
    Vec3,
    fly,
    step_metrics,
    step_response,
    step_trajectory,
)
from flockspc.engine import DivergenceError, _advance
from flockspc.llc import _BLOCK_ROWS, _fly


def _state(position, velocity=(0.0, 0.0, 0.0), integrator=(0.0, 0.0)):
    """One (1, 8) state row."""
    return np.array([[*position, *velocity, *integrator]], dtype=float)


def _tilt(state, ref, cfg, dt=0.01, steps=1):
    """The row loop's `steps` steps of the (1, 8) state toward ref (x, y, z),
    written back in place; its last tilts."""
    rows = state.tolist()
    tilt = _fly(rows, np.array([ref], dtype=float).tolist(), cfg, dt, steps)
    state[:] = rows
    return tilt


def test_pid_clamps_large_error():
    # raw output 0.4*1.0 = 0.4 rad exceeds the 0.35 rad tilt limit
    cfg = LLCConfig(family="A", k_v=0.05, k_p=0.4, k_i=0.0)
    tilt = _tilt(_state((0, 0, 1)), (1.0, 0.0, 1.0), cfg)
    assert tilt == (0.35, 0.0), f"expected clamp to 0.35, got {tilt}"


def test_pid_zero_error_zero_tilt():
    cfg = LLCConfig(family="A")
    assert _tilt(_state((0.4, -0.2, 1)), (0.4, -0.2, 1.0), cfg) == (0.0, 0.0)


def test_pid_velocity_term_cancels_offset():
    # offset equal to k_v*v makes the damped error exactly zero
    cfg = LLCConfig(family="A", k_v=0.05, k_p=0.4, k_i=0.0)
    tilt = _tilt(_state((0, 0, 1), velocity=(1.0, 0, 0)), (0.05, 0.0, 1.0), cfg)
    assert tilt == (0.0, 0.0), f"steady-speed condition violated: {tilt}"


def test_pid_integrator_accumulates_when_unclamped():
    cfg = LLCConfig(family="A", k_v=0.0, k_p=0.1, k_i=0.5)
    st = _state((0, 0, 1))
    _tilt(st, (0.1, 0.0, 1.0), cfg)
    assert abs(st[0, 6] - 0.001) <= 1e-15, f"{st[0, 6:]}"
    st[0, :6] = (0, 0, 1, 0, 0, 0)  # back to the start: only the integral carries over
    _tilt(st, (0.1, 0.0, 1.0), cfg)
    assert abs(st[0, 6] - 0.002) <= 1e-15


def test_pid_integrator_frozen_while_clamped():
    cfg = LLCConfig(family="A", k_v=0.0, k_p=0.4, k_i=0.5)
    st = _state((0, 0, 1))
    for _ in range(50):
        tilt = _tilt(st, (5.0, 0.0, 1.0), cfg)
        assert tilt[0] == cfg.tilt_max
    assert st[0, 6] == 0.0, f"integrator wound up to {st[0, 6]} while output clamped"


def test_explicit_zero_error_zero_velocity():
    cfg = LLCConfig(family="B")
    assert _tilt(_state((1, 2, 1)), (1.0, 2.0, 1.0), cfg) == (0.0, 0.0)


def test_explicit_optimal_speed_gives_zero_accel():
    # e = v*t_delta means the agent is already on the ideal braking profile
    cfg = LLCConfig(family="B", t_delta=0.5)
    tilt = _tilt(_state((0, 0, 1), velocity=(1.0, 0, 0)), (0.5, 0.0, 1.0), cfg)
    assert abs(tilt[0]) <= 1e-15 and tilt[1] == 0.0, f"{tilt}"


def test_explicit_deceleration_oracle():
    # e=0 at speed 1 m/s: a = -v/t_delta = -2, phi = atan(-2/9.81)
    cfg = LLCConfig(family="B", t_delta=0.5)
    tilt = _tilt(_state((0, 0, 1), velocity=(1.0, 0, 0)), (0.0, 0.0, 1.0), cfg)
    assert abs(tilt[0] - math.atan(-2.0 / GRAVITY)) <= 1e-15
    assert abs(tilt[0] + 0.2011) <= 5e-5, f"phi {tilt[0]} not near -0.2011"


def test_tilt_always_within_limits():
    cfg_a = LLCConfig(family="A", k_v=0.05, k_p=5.0, k_i=1.0)
    cfg_b = LLCConfig(family="B", t_delta=0.1)
    grid = [(ref, v) for ref in (-40.0, -3.0, 0.0, 3.0, 40.0) for v in (-8.0, 0.0, 8.0)]
    states = np.array([[0, 0, 1, v, -v, 0, 0, 0] for _, v in grid], dtype=float)
    refs = np.array([(ref, ref, 1.0) for ref, _ in grid])
    for cfg in (cfg_a, cfg_b):
        tilts = np.array([_tilt(states[i:i + 1].copy(), ref, cfg) for i, ref in enumerate(refs)])
        assert tilts.shape == (len(grid), 2)
        assert ((cfg.tilt_min <= tilts) & (tilts <= cfg.tilt_max)).all(), tilts


def test_plant_at_rest_stays_put():
    # The reference at the current position commands zero tilt.
    for family in "AB":
        st = _state((1, 2, 1.4))
        assert _tilt(st, (1.0, 2.0, 1.4), LLCConfig(family=family)) == (0.0, 0.0)
        assert st.tolist() == _state((1, 2, 1.4)).tolist()


def test_plant_tilt_acceleration_oracle():
    # A large error saturates the tilt; the plant then accelerates at g*tan(0.35).
    st = _state((0, 0, 1))
    tilt = _tilt(st, (10.0, 0.0, 1.0), LLCConfig(family="B"))
    assert tilt == (0.35, 0.0)
    expect = GRAVITY * math.tan(0.35) * 0.01
    assert abs(st[0, 3] - expect) <= 1e-15
    assert abs(st[0, 3] - 0.03581) <= 5e-6, f"v_x {st[0, 3]}"
    # semi-implicit: the fresh velocity already moves the position
    assert abs(st[0, 0] - expect * 0.01) <= 1e-15


def test_plant_z_settles_critically_damped():
    cfg = LLCConfig(family="B", z_time_constant=0.4)
    st = _state((0, 0, 1.0))
    fly(st, np.array([[0.0, 0.0, 1.4]]), cfg, 0.001, steps=8000)
    assert abs(st[0, 2] - 1.4) <= 1e-3, f"z {st[0, 2]} did not settle"
    assert abs(st[0, 5]) <= 1e-3
    assert st[0, [0, 1, 3, 4]].tolist() == [0.0] * 4


def _coast(v0: float, cfg: LLCConfig, duration: float, dt: float):
    """Family B with the reference pinned to the current position (e=0 path):
    the commanded deceleration is -v/t_delta each step."""
    st = _state((0, 0, 1), velocity=(v0, 0, 0))
    out = [(0.0, st[0, 0], st[0, 3])]
    steps = round(duration / dt)
    for i in range(steps):
        fly(st, st[:, :3].copy(), cfg, dt)
        out.append(((i + 1) * dt, float(st[0, 0]), float(st[0, 3])))
    return out


def test_exponential_deceleration_law():
    cfg = LLCConfig(family="B", t_delta=0.5)
    rows = _coast(1.0, cfg, duration=1.5, dt=0.001)
    for t, _x, v in rows:
        expect = math.exp(-t / cfg.t_delta)
        assert abs(v - expect) <= 0.01 * max(expect, 1e-6), (
            f"v({t:.3f}) = {v:.5f}, expected {expect:.5f}")


def test_stopping_distance_identity():
    cfg = LLCConfig(family="B", t_delta=0.5)
    rows = _coast(1.0, cfg, duration=5.0, dt=0.001)
    total = rows[-1][1]
    assert abs(total - 0.5) <= 0.02 * 0.5, f"stopping distance {total:.5f} != 0.5 +/- 2%"


def test_energy_identity_at_99pct_time():
    # v^2 decays twice as fast: 1% KE remains at t = -t_delta*ln(sqrt(0.01))
    cfg = LLCConfig(family="B", t_delta=0.5)
    alpha = 0.01
    t_star = -cfg.t_delta * math.log(math.sqrt(alpha))
    rows = _coast(1.0, cfg, duration=t_star + 0.01, dt=0.001)
    t, x, v = min(rows, key=lambda r: abs(r[0] - t_star))
    frac = v * v / 1.0
    assert abs(frac - alpha) <= 0.02 * alpha, f"KE fraction {frac:.5f} at t={t:.4f}"
    assert abs(x - 0.45) <= 0.02 * 0.45, f"distance {x:.5f} at 99% energy time"


def test_steady_cruise_family_a():
    cfg = LLCConfig(family="A", k_i=0.0)
    v_ref = 0.3
    offset = cfg.k_v * v_ref
    st = _state((0, 0, 1))
    dt = 0.001
    worst = 0.0
    for i in range(30000):
        t = i * dt
        fly(st, np.array([[v_ref * t + offset, 0.0, 1.0]]), cfg, dt)
        if t >= 25.0:
            worst = max(worst, abs(st[0, 3] - v_ref))
    assert worst <= 0.05 * v_ref, f"cruise velocity error {worst:.4f} m/s"


def test_plant_is_deterministic():
    def run():
        st = _state((0.1, 0.2, 1.0), velocity=(0.3, -0.1, 0))
        vals = []
        for i in range(200):
            fly(st, np.array([[0.01 * (i % 7), -0.02, 1.4]]), LLCConfig(family="B"), 0.01)
            vals.append(st.tolist())
        return vals

    assert run() == run()


def test_step_response_orderings():
    a = step_response(LLCConfig(family="A"), 1.0)
    b = step_response(LLCConfig(family="B"), 1.0)
    assert a.settled and b.settled
    assert b.rise_time_90 < a.rise_time_90, (
        f"B rise {b.rise_time_90:.3f} not faster than A {a.rise_time_90:.3f}")
    assert a.overshoot_pct < b.overshoot_pct, (
        f"A overshoot {a.overshoot_pct:.1f}% not below B {b.overshoot_pct:.1f}%")
    assert a.rise_time_90 <= a.settling_time_2pct
    assert b.rise_time_90 <= b.settling_time_2pct


def test_step_response_zero_step():
    m = step_response(LLCConfig(family="A"), 0.0)
    assert m.rise_time_90 == 0.0 and m.overshoot_pct == 0.0
    assert m.settled


def test_step_response_flags_non_settling():
    # one-millisecond horizon cannot contain the transient
    m = step_response(LLCConfig(family="A"), 1.0, duration=0.001)
    assert not m.settled
    # Rows that never leave the 2 % band settle at once.
    m = step_metrics(np.array([[0.0, 0.99, 0.0, 0.0], [0.1, 1.01, 0.0, 0.0]]), 1.0)
    assert m.settling_time_2pct == 0.0 and m.rise_time_90 == 0.0 and m.settled


def test_step_trajectory_shape_and_start():
    rows = step_trajectory(LLCConfig(family="B"), 1.0, duration=1.0, dt=0.001)
    assert rows.shape[1] == 4
    assert rows[0, 0] == 0.0 and rows[0, 1] == 0.0
    assert abs(rows[-1, 0] - 1.0) <= 1e-9
    times = rows[:, 0]
    assert (times[1:] > times[:-1]).all()


@pytest.mark.parametrize("duration", [1e12, 1e300])
def test_step_trajectory_bounds_its_sample_count(duration):
    # Rejected before the (samples, 4) array is allocated: 1e12 s would be
    # 28.4 PiB of rows, and 1e300 s more rows than numpy can index.
    with pytest.raises(ValueError, match=r"^duration / dt: must give at most 1000000 samples, "
                                         r"got duration .* and dt 0\.001$"):
        step_trajectory(LLCConfig(family="A"), 1.0, duration=duration)


# The least time constant whose square is not 0.0 (it is 5e-324).
_LEAST_TIME_CONSTANT = 1.5717277847026288e-162


def test_llc_config_validation():
    with pytest.raises(ValueError):
        LLCConfig(family="C")
    with pytest.raises(ValueError):
        LLCConfig(family="A", tilt_min=0.1)
    with pytest.raises(ValueError):
        LLCConfig(family="B", t_delta=0.0)
    with pytest.raises(ValueError):
        LLCConfig(family="A", k_p=-1.0)
    # The plant divides by the squares of both time constants: below about
    # 1.6e-162 the square is 0.0, above about 1.3e154 it overflows.
    for name in ("t_delta", "z_time_constant"):
        for value in (1e-170, math.nextafter(_LEAST_TIME_CONSTANT, 0.0), 1e200):
            with pytest.raises(ValueError, match=f"^{name}: must be positive with a positive, finite square"):
                LLCConfig(family="B", **{name: value})


@pytest.mark.parametrize("name, value", [
    ("k_v", math.nan), ("k_p", math.inf), ("k_i", math.nan), ("t_delta", math.inf),
    ("t_delta", math.nan), ("tilt_max", math.inf), ("tilt_min", -math.inf),
    ("tilt_max", math.nan), ("z_time_constant", math.inf), ("z_time_constant", math.nan),
])
def test_llc_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=rf"^{name}: must be "):
        LLCConfig(family="A", **{name: value})


@pytest.mark.parametrize("name, value", [("tilt_max", 2.0), ("tilt_min", -2.0),
                                         ("tilt_max", math.pi / 2), ("tilt_min", -math.pi / 2)])
def test_llc_config_rejects_tilt_limits_past_a_quarter_turn(name, value):
    # tan changes sign at +-pi/2, so family B's acceleration clamp would
    # invert: at +-2.0 rad a_lo is +21.4 and a_hi -21.4 m/s^2.
    with pytest.raises(ValueError, match=name):
        LLCConfig(family="B", **{name: value})


@pytest.mark.parametrize("bad", [
    dict(states=np.zeros((2, 7))), dict(states=np.zeros((2, 8), dtype=np.float32)),
    dict(states=np.zeros(8)), dict(states=[[0.0] * 8, [0.0] * 8]), dict(refs=np.zeros((3, 3))),
    dict(refs=np.zeros((2, 2))), dict(dt=0.0), dict(dt=math.inf), dict(dt=math.nan),
    dict(steps=0), dict(steps=1.0),
])
def test_fly_checks_shapes_dt_and_steps(bad):
    args = {**dict(states=np.zeros((2, 8)), refs=np.zeros((2, 3)), dt=0.01, steps=1), **bad}
    with pytest.raises(ValueError):
        fly(args["states"], args["refs"], LLCConfig(family="A"), args["dt"], args["steps"])


def test_fly_takes_integer_steps_only():
    # steps=True ran one step while np.True_ was rejected; both are bools.
    states, refs = np.zeros((2, 8)), np.full((2, 3), 0.5)
    for bad in (True, np.True_, 1.5, 2.0):
        with pytest.raises(ValueError, match=r"^steps: must be an integer, got "):
            fly(states.copy(), refs, LLCConfig(family="A"), 0.01, steps=bad)
    want = states.copy()
    fly(want, refs, LLCConfig(family="A"), 0.01, steps=3)
    for steps in (np.int64(3), np.uint16(3)):
        got = states.copy()
        fly(got, refs, LLCConfig(family="A"), 0.01, steps=steps)
        assert got.tobytes() == want.tobytes()


def test_fly_lets_non_finite_values_through():
    # Values are the divergence path's business, not fly()'s.
    states = np.zeros((3, 8))
    states[1, 0] = math.nan
    refs = np.array([[0, 0, 0], [0, 0, 0], [math.inf, 0, 0]])
    tilt = _tilt(states[2:].copy(), refs[2], LLCConfig(family="B"), steps=3)
    assert fly(states, refs, LLCConfig(family="B"), 0.01, steps=3) is None
    assert np.isnan(states[1, 0]) and np.isfinite(states[0]).all() and tilt[0] == 0.35
    assert fly(np.zeros((0, 8)), np.zeros((0, 3)), LLCConfig(family="A"), 0.01) is None


def test_fly_writes_any_float64_layout_in_place():
    # The row loop's rows go back by one assignment whatever the layout:
    # C order, a strided view, Fortran order.  The array step (family B from
    # _BLOCK_ROWS rows) writes its transposed copy back the same way.
    for n, family in ((3, "A"), (_BLOCK_ROWS, "B")):
        start = np.arange(8.0 * n).reshape(n, 8) / 7.0
        refs = np.resize([[1.0, -2.0, 3.0], [0.0, 0.5, 0.0], [-4.0, 0.0, 1.0]], (n, 3))
        cfg = LLCConfig(family=family)
        expected = start.tolist()
        _fly(expected, refs.tolist(), cfg, 0.01, 4)
        strided = np.zeros((n, 16))
        for states in (start.copy(), strided[:, ::2], np.asfortranarray(start)):
            states[:] = start
            assert fly(states, refs, cfg, 0.01, steps=4) is None
            assert _hex_rows(states.tolist()) == _hex_rows(expected)
        frozen = start.copy()
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            fly(frozen, refs, cfg, 0.01)


def _hex_rows(rows):
    return [[float(v).hex() for v in row] for row in rows]


@pytest.mark.byte_identity
def test_block_step_equals_the_row_loop():
    """fly() steps family B batches of _BLOCK_ROWS rows or more as one
    array step; each row must get the per-row loop's bits, NaN and inf
    included, and raise no numpy warning on the way, so the trace does not
    depend on which of the two a flock takes.  The row loop, one row at a time,
    gives each row's last tilts, to count clamped and free rows.  The last
    two cases take the least t_delta and z_time_constant that LLCConfig
    accepts, whose squares are the least subnormal: the plant divides by
    them, so every tilt is clamped in the first and the z states leave the
    finite range in the second."""
    rng = np.random.default_rng(41)
    clamped = free = 0
    for i in range(122):
        cfg = _random_llc(rng, "B")
        if i >= 120:
            cfg = replace(cfg, **{("t_delta", "z_time_constant")[i - 120]: _LEAST_TIME_CONSTANT})
        dt, steps = float(rng.choice((0.001, 0.01))), (1, 10)[i % 2]
        n = (_BLOCK_ROWS - 1, _BLOCK_ROWS, 3 * _BLOCK_ROWS)[i % 3]
        start = rng.uniform(-3.0, 3.0, size=(n, 8))
        near = rng.choice((0.01, 1.0), size=(n, 1))  # rows near rest rarely clamp
        start[:, 3:] *= near
        refs = start[:, :3] + near * rng.uniform(-4.0, 4.0, size=(n, 3))
        if i % 4 == 3:  # a non-finite state value and reference
            start[rng.integers(n), rng.integers(8)] = rng.choice((math.nan, math.inf, -math.inf))
            refs[rng.integers(n), rng.integers(3)] = rng.choice((math.nan, math.inf, -math.inf))
        rows = start.tolist()
        tilts = [_fly([row], [ref], cfg, dt, steps) for row, ref in zip(rows, refs.tolist())]
        states = start.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fly(states, refs, cfg, dt, steps)
        assert _hex_rows(states.tolist()) == _hex_rows(rows), f"case {i}"
        limits = np.isin(tilts, (cfg.tilt_min, cfg.tilt_max))
        if i == 120:
            assert limits.all()
        if i == 121:
            assert not np.isfinite(states[:, [2, 5]]).any()
        clamped += int(limits.any(axis=1).sum())
        free += int((~limits).all(axis=1).sum())
    print(f"{clamped} rows with a clamped tilt, {free} with none")
    assert clamped > 1000 and free > 1000, (clamped, free)


# --- fly() vs. the per-agent plant code it replaced -------------------------------


@dataclass
class _RefState:
    """Point-mass state of one agent as the reference code held it."""

    position: Vec3
    velocity: Vec3 = field(default_factory=lambda: Vec3(0.0, 0.0, 0.0))
    integrator_xy: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (self.position.is_finite() and self.velocity.is_finite()):
            name = "position" if not self.position.is_finite() else "velocity"
            raise ValueError(f"plant {name} must be finite, got {getattr(self, name)}")


def _ref_clamp(value, lo, hi):
    return lo if value < lo else hi if value > hi else value


def _ref_pid(state, ref_xy, cfg, dt):
    """pid_xy_tilt as it was written before the float loop: the bit-level reference."""
    pos = (state.position.x, state.position.y)
    vel = (state.velocity.x, state.velocity.y)
    tilts = [0.0, 0.0]
    integ = list(state.integrator_xy)
    for axis in range(2):
        e = (ref_xy[axis] - pos[axis]) - cfg.k_v * vel[axis]
        integ_new = integ[axis] + e * dt
        raw = cfg.k_p * e + cfg.k_i * integ_new
        clamped = _ref_clamp(raw, cfg.tilt_min, cfg.tilt_max)
        if clamped == raw:
            integ[axis] = integ_new
        tilts[axis] = clamped
    state.integrator_xy = (integ[0], integ[1])
    return (tilts[0], tilts[1])


def _ref_explicit(state, ref_xy, cfg):
    """explicit_xy_tilt as it was written before the float loop: the bit-level reference."""
    pos = (state.position.x, state.position.y)
    vel = (state.velocity.x, state.velocity.y)
    tilts = [0.0, 0.0]
    for axis in range(2):
        e = ref_xy[axis] - pos[axis]
        accel = (e - vel[axis] * cfg.t_delta) / cfg.t_delta**2
        tilts[axis] = _ref_clamp(math.atan(accel / GRAVITY), cfg.tilt_min, cfg.tilt_max)
    return (tilts[0], tilts[1])


def _ref_integrate(state, tilt_xy, z_ref, dt, z_time_constant=0.4):
    """integrate_plant as it was written before the float loop: the bit-level reference."""
    ax = GRAVITY * math.tan(tilt_xy[0])
    ay = GRAVITY * math.tan(tilt_xy[1])
    az = (z_ref - state.position.z) / z_time_constant**2 - 2.0 * state.velocity.z / z_time_constant
    vx = state.velocity.x + ax * dt
    vy = state.velocity.y + ay * dt
    vz = state.velocity.z + az * dt
    return _RefState(
        position=Vec3(state.position.x + vx * dt, state.position.y + vy * dt,
                      state.position.z + vz * dt),
        velocity=Vec3(vx, vy, vz),
        integrator_xy=state.integrator_xy,
    )


def _ref_steps(state, ref, cfg, dt, steps):
    """The old engine's physics loop for one agent: returns (state, tilt)."""
    for _ in range(steps):
        if cfg.family == "A":
            tilt = _ref_pid(state, ref[:2], cfg, dt)
        else:
            tilt = _ref_explicit(state, ref[:2], cfg)
        state = _ref_integrate(state, tilt, ref[2], dt, cfg.z_time_constant)
    return state, tilt


def _random_llc(rng, family):
    # Large gains and narrow limits make clamping (and so the anti-windup
    # hold) common; small ones keep plenty of unclamped steps.
    return LLCConfig(family=family, k_v=float(rng.uniform(0.0, 2.0)),
                     k_p=float(rng.choice((0.01, 0.08, 5.0))), k_i=float(rng.uniform(0.0, 2.0)),
                     tilt_min=float(rng.uniform(-0.5, -0.05)),
                     tilt_max=float(rng.uniform(0.05, 0.5)),
                     t_delta=float(rng.uniform(0.05, 1.0)),
                     z_time_constant=float(rng.uniform(0.05, 1.0)))


def _random_state(rng):
    return _RefState(position=Vec3(*rng.uniform(-3.0, 3.0, size=3).tolist()),
                     velocity=Vec3(*rng.uniform(-3.0, 3.0, size=3).tolist()),
                     integrator_xy=tuple(rng.uniform(-1.0, 1.0, size=2).tolist()))


# Family B flies its tilt law as the acceleration clamp
# clamp(a, g*tan(tilt_min), g*tan(tilt_max)); the reference computes
# g*tan(clamp(atan(a/g))).  Both are equal in exact arithmetic: the reference
# rounds a through a division, atan, tan and a product, a few units in the
# last place of |a| <= g*tan(0.5) ~ 5.4 m/s^2 per step, fed back through
# v/t_delta (t_delta >= 0.05) over at most ten steps of dt <= 0.01 or the
# 2000 damped steps of a step response.  That stays far below this bound,
# relative to max(1, |value|); the worst seen is 4.4e-16.  Family A keeps
# the reference's bits.
_B_TOL = 1e-14


def _assert_matches(got, want, family, what):
    if family == "A":
        assert [v.hex() for v in got] == [v.hex() for v in want], what
    else:
        assert all(abs(g - w) <= _B_TOL * max(1.0, abs(w)) for g, w in zip(got, want)), what


def test_float_plant_loop_is_bit_identical_to_plantstate_reference():
    # Each case flies a batch of one to three agents in one fly() call; every
    # row must repeat the reference, whatever else is in the batch: family A
    # bit for bit, family B within _B_TOL.  The row loop on that row alone
    # gives its last tilts, which must repeat the reference's the same way.
    rng = np.random.default_rng(17)
    clamped = held = 0
    for i in range(2000):
        cfg = _random_llc(rng, "AB"[i % 2])
        dt = float(rng.choice((0.001, 0.01)))
        steps = (1, 10)[i % 4 // 2]
        starts = [_random_state(rng) for _ in range(1 + i % 3)]
        refs = rng.uniform(-4.0, 4.0, size=(len(starts), 3))
        states = np.array([[*s.position, *s.velocity, *s.integrator_xy] for s in starts])
        tilts = [_tilt(states[j:j + 1].copy(), ref, cfg, dt, steps) for j, ref in enumerate(refs)]
        fly(states, refs, cfg, dt, steps)
        for row, tilt, start, ref in zip(states.tolist(), tilts, starts, refs.tolist()):
            want, want_tilt = _ref_steps(start, tuple(ref), cfg, dt, steps)
            expect = [*want.position, *want.velocity, *want.integrator_xy]
            _assert_matches(row, expect, cfg.family, f"case {i}")
            _assert_matches(tilt, want_tilt, cfg.family, f"case {i}: tilt {tilt} != {want_tilt}")
            clamped += any(t in (cfg.tilt_min, cfg.tilt_max) for t in tilt)
            # one step of family A with one axis clamped keeps that axis's integral
            held += steps == 1 and cfg.family == "A" and any(
                t in (cfg.tilt_min, cfg.tilt_max) and a == b
                for t, a, b in zip(tilt, want.integrator_xy, start.integrator_xy))
    print(f"{clamped} rows with a clamped tilt, {held} with an integral held")
    assert clamped > 400 and held > 40, (clamped, held)


@pytest.mark.parametrize("family", ["A", "B"])
def test_step_trajectory_matches_plantstate_reference(family):
    cfg = LLCConfig(family=family)
    rows = step_trajectory(cfg, 1.0, duration=2.0, dt=0.001)
    state = _RefState(position=Vec3(0.0, 0.0, 0.0))
    for i in range(1, rows.shape[0]):
        state, tilt = _ref_steps(state, (1.0, 0.0, 0.0), cfg, 0.001, 1)
        assert rows[i, 0] == i * 0.001
        _assert_matches(rows[i, 1:].tolist(), [state.position.x, state.velocity.x, tilt[0]],
                        family, f"sample {i}")


def _divergence_config(family, n):
    return ScenarioConfig(
        agent_count=n, spawn=SpawnSpec(positions=tuple(Vec3(i, 0.0, 1.0) for i in range(n))),
        cost=CostParams(w_coh=1.0, w_sep=1.0, w_tar=0.0, w_obs=0.0),
        controller=ControllerConfig(kind="SPC"),
        llc=LLCConfig(family=family, z_time_constant=0.004),  # unstable at dt 0.01
        r_h=math.inf, noise_sigma=0.0, physics_dt=0.01, control_period=0.1,
        duration=1.0, seed=0, formation_time=0.0)


def test_divergence_names_first_step_then_lowest_agent_like_the_reference():
    # The z loop is unstable at this time constant and grows by a roughly
    # fixed factor per step, so each agent's start height picks the physics
    # step at which it overflows.  The reference steps one agent at a time:
    # family A through the reference plant code, bit for bit; family B, which
    # no longer repeats _ref_steps bit for bit, through the per-row loop, with
    # the message from the reference state.  Family B batches of _BLOCK_ROWS
    # or more put _advance and its replay on the array step.
    rng = np.random.default_rng(23)
    diverged_at, block_cases = set(), [0, 0]
    for case in range(200):
        family = "AB"[case % 2]
        if case < 120:  # small batches: every agent overflows at some step
            n = int(rng.integers(1, 7))
            wild = np.arange(n)
        else:  # large batches: zero to three agents overflow
            n = int(rng.integers(_BLOCK_ROWS, 3 * _BLOCK_ROWS))
            wild = rng.choice(n, size=int(rng.integers(0, 4)), replace=False)
        cfg = _divergence_config(family, n)
        state = np.zeros((n, 8))
        state[:, :6] = rng.uniform(-2.0, 2.0, size=(n, 6))
        state[wild, 2] = (10.0 ** rng.uniform(280.0, 308.0, size=wild.size)
                          * rng.choice((-1.0, 1.0), size=wild.size))
        setpoints = rng.uniform(-2.0, 2.0, size=(n, 3))

        rows = state.tolist()
        expect = None
        for step in range(cfg.steps_per_tick):
            for i, row in enumerate(rows):
                try:
                    if family == "A":
                        st = _RefState(Vec3(*row[:3]), Vec3(*row[3:6]), (row[6], row[7]))
                        st, _ = _ref_steps(st, tuple(setpoints[i].tolist()), cfg.llc, 0.01, 1)
                        row[:] = [*st.position, *st.velocity, *st.integrator_xy]
                    else:
                        _fly([row], [setpoints[i].tolist()], cfg.llc, 0.01, 1)
                        _RefState(Vec3(*row[:3]), Vec3(*row[3:6]))
                except ValueError as exc:
                    expect = f"tick 7 (t=0.7 s), agent {i}: {exc}"
                    break
            if expect:
                diverged_at.add((step, i))
                break
        if family == "B" and n >= _BLOCK_ROWS:
            block_cases[expect is None] += 1
        try:
            new_state = _advance(state, setpoints, cfg, 7)
        except DivergenceError as exc:
            assert str(exc) == expect, f"case {case}"
        else:
            assert expect is None, f"case {case}: no divergence, expected {expect}"
            assert _hex_rows(new_state.tolist()) == _hex_rows(rows), f"case {case}"
    print(f"diverged at {len(diverged_at)} distinct (step, agent) pairs; "
          f"family B block batches diverged / not: {block_cases}")
    assert len({step for step, _ in diverged_at}) >= 5 and len({i for _, i in diverged_at}) >= 3
    assert min(block_cases) >= 10 and max(i for _, i in diverged_at) >= _BLOCK_ROWS
