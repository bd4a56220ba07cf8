"""Low-level controller and plant tests: tilt laws for both families,
stopping-distance kinematics, step-response metrics, and the float plant
loop against the PlantState code it replaced."""

from __future__ import annotations

import math

import numpy as np
import pytest

from flockspc import (
    GRAVITY,
    ControllerConfig,
    CostParams,
    LLCConfig,
    PlantState,
    ScenarioConfig,
    SpawnSpec,
    Vec3,
    explicit_xy_tilt,
    integrate_plant,
    pid_xy_tilt,
    step_response,
    step_trajectory,
)
from flockspc.engine import DivergenceError, _advance
from flockspc.llc import _fly


def test_pid_clamps_large_error():
    # raw output 0.4*1.0 = 0.4 rad exceeds the 0.35 rad tilt limit
    cfg = LLCConfig(family="A", k_v=0.05, k_p=0.4, k_i=0.0)
    st = PlantState(position=Vec3(0, 0, 1))
    tilt = pid_xy_tilt(st, (1.0, 0.0), cfg, dt=0.01)
    assert tilt == (0.35, 0.0), f"expected clamp to 0.35, got {tilt}"


def test_pid_zero_error_zero_tilt():
    cfg = LLCConfig(family="A")
    st = PlantState(position=Vec3(0.4, -0.2, 1))
    tilt = pid_xy_tilt(st, (0.4, -0.2), cfg, dt=0.01)
    assert tilt == (0.0, 0.0)


def test_pid_velocity_term_cancels_offset():
    # offset equal to k_v*v makes the damped error exactly zero
    cfg = LLCConfig(family="A", k_v=0.05, k_p=0.4, k_i=0.0)
    st = PlantState(position=Vec3(0, 0, 1), velocity=Vec3(1.0, 0, 0))
    tilt = pid_xy_tilt(st, (0.05, 0.0), cfg, dt=0.01)
    assert tilt == (0.0, 0.0), f"steady-speed condition violated: {tilt}"


def test_pid_integrator_accumulates_when_unclamped():
    cfg = LLCConfig(family="A", k_v=0.0, k_p=0.1, k_i=0.5)
    st = PlantState(position=Vec3(0, 0, 1))
    pid_xy_tilt(st, (0.1, 0.0), cfg, dt=0.01)
    assert abs(st.integrator_xy[0] - 0.001) <= 1e-15, f"{st.integrator_xy}"
    pid_xy_tilt(st, (0.1, 0.0), cfg, dt=0.01)
    assert abs(st.integrator_xy[0] - 0.002) <= 1e-15


def test_pid_integrator_frozen_while_clamped():
    cfg = LLCConfig(family="A", k_v=0.0, k_p=0.4, k_i=0.5)
    st = PlantState(position=Vec3(0, 0, 1))
    for _ in range(50):
        tilt = pid_xy_tilt(st, (5.0, 0.0), cfg, dt=0.01)
        assert tilt[0] == cfg.tilt_max
    assert st.integrator_xy[0] == 0.0, (
        f"integrator wound up to {st.integrator_xy[0]} while output clamped")


def test_explicit_zero_error_zero_velocity():
    cfg = LLCConfig(family="B")
    st = PlantState(position=Vec3(1, 2, 1))
    assert explicit_xy_tilt(st, (1.0, 2.0), cfg) == (0.0, 0.0)


def test_explicit_optimal_speed_gives_zero_accel():
    # e = v*t_delta means the agent is already on the ideal braking profile
    cfg = LLCConfig(family="B", t_delta=0.5)
    st = PlantState(position=Vec3(0, 0, 1), velocity=Vec3(1.0, 0, 0))
    tilt = explicit_xy_tilt(st, (0.5, 0.0), cfg)
    assert abs(tilt[0]) <= 1e-15 and tilt[1] == 0.0, f"{tilt}"


def test_explicit_deceleration_oracle():
    # e=0 at speed 1 m/s: a = -v/t_delta = -2, phi = atan(-2/9.81)
    cfg = LLCConfig(family="B", t_delta=0.5)
    st = PlantState(position=Vec3(0, 0, 1), velocity=Vec3(1.0, 0, 0))
    tilt = explicit_xy_tilt(st, (0.0, 0.0), cfg)
    assert abs(tilt[0] - math.atan(-2.0 / GRAVITY)) <= 1e-15
    assert abs(tilt[0] + 0.2011) <= 5e-5, f"phi {tilt[0]} not near -0.2011"


def test_tilt_always_within_limits():
    cfg_a = LLCConfig(family="A", k_v=0.05, k_p=5.0, k_i=1.0)
    cfg_b = LLCConfig(family="B", t_delta=0.1)
    for ref in (-40.0, -3.0, 0.0, 3.0, 40.0):
        for v in (-8.0, 0.0, 8.0):
            st = PlantState(position=Vec3(0, 0, 1), velocity=Vec3(v, -v, 0))
            ta = pid_xy_tilt(st, (ref, ref), cfg_a, dt=0.01)
            tb = explicit_xy_tilt(st, (ref, ref), cfg_b)
            for t in (*ta, *tb):
                assert cfg_a.tilt_min <= t <= cfg_a.tilt_max, f"tilt {t} out of range"


def test_plant_at_rest_stays_put():
    st = PlantState(position=Vec3(1, 2, 1.4))
    out = integrate_plant(st, (0.0, 0.0), 1.4, 0.01)
    assert out.position == st.position
    assert out.velocity.norm() == 0.0


def test_plant_tilt_acceleration_oracle():
    st = PlantState(position=Vec3(0, 0, 1))
    out = integrate_plant(st, (0.35, 0.0), 1.0, 0.01)
    expect = GRAVITY * math.tan(0.35) * 0.01
    assert abs(out.velocity.x - expect) <= 1e-15
    assert abs(out.velocity.x - 0.03581) <= 5e-6, f"v_x {out.velocity.x}"
    # semi-implicit: the fresh velocity already moves the position
    assert abs(out.position.x - expect * 0.01) <= 1e-15


def test_plant_z_settles_critically_damped():
    st = PlantState(position=Vec3(0, 0, 1.0))
    z_tc = 0.4
    for _ in range(8000):
        st = integrate_plant(st, (0.0, 0.0), 1.4, 0.001, z_tc)
    assert abs(st.position.z - 1.4) <= 1e-3, f"z {st.position.z} did not settle"
    assert abs(st.velocity.z) <= 1e-3


def _coast(v0: float, cfg: LLCConfig, duration: float, dt: float):
    """Family B with the reference pinned to the current position (e=0 path):
    the commanded deceleration is -v/t_delta each step."""
    st = PlantState(position=Vec3(0, 0, 1), velocity=Vec3(v0, 0, 0))
    out = [(0.0, st.position.x, st.velocity.x)]
    steps = round(duration / dt)
    for i in range(steps):
        tilt = explicit_xy_tilt(st, (st.position.x, st.position.y), cfg)
        st = integrate_plant(st, tilt, 1.0, dt, cfg.z_time_constant)
        out.append(((i + 1) * dt, st.position.x, st.velocity.x))
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
    st = PlantState(position=Vec3(0, 0, 1))
    dt = 0.001
    worst = 0.0
    for i in range(30000):
        t = i * dt
        tilt = pid_xy_tilt(st, (v_ref * t + offset, 0.0), cfg, dt)
        st = integrate_plant(st, tilt, 1.0, dt, cfg.z_time_constant)
        if t >= 25.0:
            worst = max(worst, abs(st.velocity.x - v_ref))
    assert worst <= 0.05 * v_ref, f"cruise velocity error {worst:.4f} m/s"


def test_plant_is_deterministic():
    def run():
        st = PlantState(position=Vec3(0.1, 0.2, 1.0), velocity=Vec3(0.3, -0.1, 0))
        vals = []
        for i in range(200):
            st = integrate_plant(st, (0.01 * (i % 7), -0.02), 1.4, 0.01)
            vals.append((st.position.x, st.position.y, st.position.z,
                         st.velocity.x, st.velocity.y, st.velocity.z))
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


# --- the float plant loop vs. the PlantState code it replaced ------------------


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
    return PlantState(
        position=Vec3(state.position.x + vx * dt, state.position.y + vy * dt,
                      state.position.z + vz * dt),
        velocity=Vec3(vx, vy, vz),
        integrator_xy=state.integrator_xy,
        mass=state.mass,
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
    return PlantState(position=Vec3(*rng.uniform(-3.0, 3.0, size=3).tolist()),
                      velocity=Vec3(*rng.uniform(-3.0, 3.0, size=3).tolist()),
                      integrator_xy=tuple(rng.uniform(-1.0, 1.0, size=2).tolist()))


def test_float_plant_loop_is_bit_identical_to_plantstate_reference():
    rng = np.random.default_rng(17)
    clamped = held = 0
    for i in range(2000):
        cfg = _random_llc(rng, "AB"[i % 2])
        dt = float(rng.choice((0.001, 0.01)))
        steps = (1, 10)[i % 4 // 2]
        state = _random_state(rng)
        ref = tuple(rng.uniform(-4.0, 4.0, size=3).tolist())
        row = [*state.position, *state.velocity, *state.integrator_xy]
        start_integrator = state.integrator_xy
        want, want_tilt = _ref_steps(state, ref, cfg, dt, steps)
        tilt = _fly(row, ref, cfg, cfg.z_time_constant, dt, steps)
        expect = [*want.position, *want.velocity, *want.integrator_xy]
        assert [v.hex() for v in row] == [v.hex() for v in expect], f"case {i}"
        assert tilt == want_tilt, f"case {i}: tilt {tilt} != {want_tilt}"
        clamped += any(t in (cfg.tilt_min, cfg.tilt_max) for t in tilt)
        # one step of family A with one axis clamped keeps that axis's integral
        held += steps == 1 and cfg.family == "A" and any(
            t in (cfg.tilt_min, cfg.tilt_max) and a == b
            for t, a, b in zip(tilt, want.integrator_xy, start_integrator))

        # The public wrappers are one step of the same loop.
        st = _random_state(rng)
        ref_st = PlantState(st.position, st.velocity, st.integrator_xy)
        if cfg.family == "A":
            assert pid_xy_tilt(st, ref[:2], cfg, dt) == _ref_pid(ref_st, ref[:2], cfg, dt)
            assert st.integrator_xy == ref_st.integrator_xy
        else:
            assert explicit_xy_tilt(st, ref[:2], cfg) == _ref_explicit(ref_st, ref[:2], cfg)
        assert integrate_plant(st, tilt, ref[2], dt, cfg.z_time_constant) == _ref_integrate(
            ref_st, tilt, ref[2], dt, cfg.z_time_constant)
    print(f"{clamped} cases with a clamped tilt, {held} with an integral held")
    assert clamped > 200 and held > 20, (clamped, held)


@pytest.mark.parametrize("family", ["A", "B"])
def test_step_trajectory_matches_plantstate_reference(family):
    cfg = LLCConfig(family=family)
    rows = step_trajectory(cfg, 1.0, duration=2.0, dt=0.001)
    state = PlantState(position=Vec3(0.0, 0.0, 0.0))
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

        states = [PlantState(Vec3(*r[:3]), Vec3(*r[3:6]), (r[6], r[7])) for r in state.tolist()]
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
