"""Low-level controller and plant tests: tilt laws for both families,
stopping-distance kinematics, step-response metrics, and fly() against the
per-agent plant code it replaced."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    step_response,
    step_trajectory,
)
from flockspc.engine import DivergenceError, _advance


def _state(position, velocity=(0.0, 0.0, 0.0), integrator=(0.0, 0.0)):
    """One (1, 8) state row."""
    return np.array([[*position, *velocity, *integrator]], dtype=float)


def _tilt(state, ref, cfg, dt=0.01):
    """One fly() step of the (1, 8) state toward ref (x, y, z); its tilts."""
    return tuple(fly(state, np.array([ref], dtype=float), cfg, dt)[0].tolist())


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
        tilts = fly(states.copy(), refs, cfg, 0.01)
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


def test_step_trajectory_shape_and_start():
    rows = step_trajectory(LLCConfig(family="B"), 1.0, duration=1.0, dt=0.001)
    assert rows.shape[1] == 4
    assert rows[0, 0] == 0.0 and rows[0, 1] == 0.0
    assert abs(rows[-1, 0] - 1.0) <= 1e-9
    times = rows[:, 0]
    assert (times[1:] > times[:-1]).all()


def test_llc_config_validation():
    with pytest.raises(ValueError):
        LLCConfig(family="C")
    with pytest.raises(ValueError):
        LLCConfig(family="A", tilt_min=0.1)
    with pytest.raises(ValueError):
        LLCConfig(family="B", t_delta=0.0)
    with pytest.raises(ValueError):
        LLCConfig(family="A", k_p=-1.0)


@pytest.mark.parametrize("name, value", [
    ("k_v", math.nan), ("k_p", math.inf), ("k_i", math.nan), ("t_delta", math.inf),
    ("t_delta", math.nan), ("tilt_max", math.inf), ("tilt_min", -math.inf),
    ("tilt_max", math.nan), ("z_time_constant", math.inf), ("z_time_constant", math.nan),
])
def test_llc_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match="tilt limits" if name.startswith("tilt") else name):
        LLCConfig(family="A", **{name: value})


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


def test_fly_lets_non_finite_values_through():
    # Values are the divergence path's business, not fly()'s.
    states = np.zeros((3, 8))
    states[1, 0] = math.nan
    tilts = fly(states, np.array([[0, 0, 0], [0, 0, 0], [math.inf, 0, 0]]),
                LLCConfig(family="B"), 0.01, steps=3)
    assert np.isnan(states[1, 0]) and np.isfinite(states[0]).all() and tilts[2, 0] == 0.35
    assert fly(np.zeros((0, 8)), np.zeros((0, 3)), LLCConfig(family="A"), 0.01).shape == (0, 2)


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


def test_float_plant_loop_is_bit_identical_to_plantstate_reference():
    # Each case flies a batch of one to three agents in one fly() call; every
    # row must repeat the reference bit for bit, whatever else is in the batch.
    rng = np.random.default_rng(17)
    clamped = held = 0
    for i in range(2000):
        cfg = _random_llc(rng, "AB"[i % 2])
        dt = float(rng.choice((0.001, 0.01)))
        steps = (1, 10)[i % 4 // 2]
        starts = [_random_state(rng) for _ in range(1 + i % 3)]
        refs = rng.uniform(-4.0, 4.0, size=(len(starts), 3))
        states = np.array([[*s.position, *s.velocity, *s.integrator_xy] for s in starts])
        tilts = fly(states, refs, cfg, dt, steps).tolist()
        for row, tilt, start, ref in zip(states.tolist(), tilts, starts, refs.tolist()):
            want, want_tilt = _ref_steps(start, tuple(ref), cfg, dt, steps)
            expect = [*want.position, *want.velocity, *want.integrator_xy]
            assert [v.hex() for v in row] == [v.hex() for v in expect], f"case {i}"
            assert tuple(tilt) == want_tilt, f"case {i}: tilt {tilt} != {want_tilt}"
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
        assert tuple(rows[i]) == (i * 0.001, state.position.x, state.velocity.x, tilt[0])


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
    # step at which it overflows.
    rng = np.random.default_rng(23)
    diverged_at = set()
    for case in range(120):
        family, n = "AB"[case % 2], int(rng.integers(1, 7))
        cfg = _divergence_config(family, n)
        state = np.zeros((n, 8))
        state[:, :6] = rng.uniform(-2.0, 2.0, size=(n, 6))
        state[:, 2] = 10.0 ** rng.uniform(280.0, 308.0, size=n) * rng.choice((-1.0, 1.0), size=n)
        setpoints = rng.uniform(-2.0, 2.0, size=(n, 3))

        states = [_RefState(Vec3(*r[:3]), Vec3(*r[3:6]), (r[6], r[7])) for r in state.tolist()]
        expect = None
        for step in range(cfg.steps_per_tick):
            for i, st in enumerate(states):
                try:
                    states[i], _ = _ref_steps(st, tuple(setpoints[i].tolist()), cfg.llc, 0.01, 1)
                except ValueError as exc:
                    expect = f"tick 7 (t=0.7 s), agent {i}: {exc}"
                    break
            if expect:
                diverged_at.add((step, i))
                break
        try:
            new_state = _advance(state, setpoints, cfg, "tick 7 (t=0.7 s)")
        except DivergenceError as exc:
            assert str(exc) == expect, f"case {case}"
        else:
            assert expect is None, f"case {case}: no divergence, expected {expect}"
            want = [[*s.position, *s.velocity, *s.integrator_xy] for s in states]
            assert new_state.tolist() == want, f"case {case}"
    print(f"diverged at {len(diverged_at)} distinct (step, agent) pairs")
    assert len({step for step, _ in diverged_at}) >= 5 and len({i for _, i in diverged_at}) >= 3
