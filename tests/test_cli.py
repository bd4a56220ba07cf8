"""Command-line interface tests: exit codes, output files, idempotence,
and the sweep grid."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from flockspc import (
    ConfigError, LLCConfig, hardware_scenario, parse_scenario, scenario_to_dict, step_trajectory,
)
from flockspc.cli import SweepSpec, _sweep_job, main
from flockspc.config import load

TWO_AGENT_SCENARIO = {
    "agent_count": 2,
    "seed": 0,
    "duration": 5.0,
    "r_h": "inf",
    "noise_sigma": 0.05,
    "physics_dt": 0.01,
    "control_period": 0.1,
    "formation_time": 2.0,
    "spawn": {"positions": [[-0.5, 0.0, 1.4], [0.5, 0.0, 1.4]]},
    "cost": {"w_coh": 20.0, "w_sep": 9.0, "w_tar": 0.0, "w_obs": 0.0,
             "r_drone": 0.07},
    "controller": {"kind": "SPC", "epsilon": 0.06, "n_star": 5},
    "llc": {"family": "A"},
}


def _write(tmp_path, name, data) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_simulate_writes_trace_and_summary(tmp_path, capsys):
    sc = _write(tmp_path, "sc.json", TWO_AGENT_SCENARIO)
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", sc, "--out", str(out)])
    assert code == 0
    assert (out / "trace.csv").exists() and (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"]["overall"] == "pass"
    assert summary["scenario_echo"]["agent_count"] == 2
    assert "pass" in capsys.readouterr().out


def test_simulate_outputs_are_idempotent(tmp_path):
    sc = _write(tmp_path, "sc.json", TWO_AGENT_SCENARIO)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", sc, "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", sc, "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_seed_override(tmp_path):
    sc = _write(tmp_path, "sc.json", TWO_AGENT_SCENARIO)
    out0, out1 = tmp_path / "s0", tmp_path / "s1"
    assert main(["simulate", "--scenario", sc, "--out", str(out0)]) == 0
    assert main(["simulate", "--scenario", sc, "--out", str(out1), "--seed", "1"]) == 0
    assert (out0 / "trace.csv").read_bytes() != (out1 / "trace.csv").read_bytes()


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_simulate_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    # 2**64 and -1 would replay the traces of seeds 0 and 2**64 - 1.
    sc = _write(tmp_path, "sc.json", TWO_AGENT_SCENARIO)
    assert main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o"), "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


def test_simulate_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code = main(["simulate", "--scenario", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_simulate_missing_file_exits_2(tmp_path, capsys):
    code = main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_simulate_unknown_field_exits_2(tmp_path, capsys):
    data = dict(TWO_AGENT_SCENARIO)
    data["gravity"] = 9.81
    sc = _write(tmp_path, "sc.json", data)
    code = main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "gravity" in capsys.readouterr().err


def test_simulate_strict_exits_3_on_violation(tmp_path, capsys):
    # two agents spawned 0.1 m apart with no separation force: dist_min
    # stays under the 0.20 m threshold
    data = dict(TWO_AGENT_SCENARIO)
    data["spawn"] = {"positions": [[-0.05, 0.0, 1.4], [0.05, 0.0, 1.4]]}
    data["cost"] = {"w_coh": 20.0, "w_sep": 0.0, "w_tar": 0.0, "w_obs": 0.0,
                    "r_drone": 0.07}
    data["noise_sigma"] = 0.0
    data["formation_time"] = 0.0
    sc = _write(tmp_path, "sc.json", data)
    assert main(["simulate", "--scenario", sc, "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    code = main(["simulate", "--scenario", sc, "--out", str(tmp_path / "b"),
                 "--strict"])
    assert code == 3, "strict mode must flag the violation"
    assert "strict" in capsys.readouterr().err


def test_simulate_extra_formats(tmp_path):
    sc = _write(tmp_path, "sc.json", TWO_AGENT_SCENARIO)
    out_md, out_csv = tmp_path / "md", tmp_path / "csv"
    assert main(["simulate", "--scenario", sc, "--out", str(out_md),
                 "--format", "md"]) == 0
    assert (out_md / "summary.md").read_text().startswith("| |D| |")
    assert main(["simulate", "--scenario", sc, "--out", str(out_csv),
                 "--format", "csv"]) == 0
    lines = (out_csv / "summary.csv").read_text().strip().split("\n")
    assert lines[0].startswith("agent_count,")
    assert len(lines) == 2


def test_simulate_huge_control_period_exits_2(tmp_path, capsys):
    data = scenario_to_dict(hardware_scenario())
    data["control_period"] = 1e308
    sc = _write(tmp_path, "sc.json", data)
    assert main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
    assert "control_period" in capsys.readouterr().err


def test_simulate_formation_time_after_last_tick_exits_2(tmp_path, capsys):
    # ticks end at t = 0.9, so a window starting at 0.95 would hold no tick
    data = scenario_to_dict(hardware_scenario())
    data["duration"] = 1.0
    data["formation_time"] = 0.95
    sc = _write(tmp_path, "sc.json", data)
    assert main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "formation_time" in err and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value, named", [
    ("physics_dt", 1e-300, "physics_dt"),  # about 1e299 physics steps per tick
    ("agent_count", 10**12, "spawn.min_spacing"),  # cannot fit in the spawn box
])
def test_simulate_scenario_that_cannot_finish_exits_2(tmp_path, capsys, field, value, named):
    data = scenario_to_dict(hardware_scenario())
    data[field] = value
    # Checked at parse time first: if the check regressed, `simulate` below
    # would spin in the physics loop or in spawn placement instead of failing.
    with pytest.raises(ConfigError, match=named):
        parse_scenario(data)
    sc = _write(tmp_path, "sc.json", data)
    assert main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


def test_simulate_huge_n_star_exits_2(tmp_path, capsys):
    data = scenario_to_dict(hardware_scenario())
    data["controller"]["n_star"] = 10**9
    # Checked at parse time first: if the check regressed, `simulate` below
    # would try to allocate a ladder of up to 3e9 candidates per agent.
    with pytest.raises(ConfigError, match=r"^controller\.n_star: must be an integer in \[1, "):
        parse_scenario(data)
    sc = _write(tmp_path, "sc.json", data)
    assert main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error: controller.n_star: must be" in err and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


def test_simulate_tilt_limit_past_a_quarter_turn_exits_2(tmp_path, capsys):
    data = dict(TWO_AGENT_SCENARIO, llc={"family": "B", "tilt_min": -2.0})
    sc = _write(tmp_path, "sc.json", data)
    assert main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "llc" in err and "tilt_min" in err and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


def test_simulate_rollout_fault_is_not_a_config_error(tmp_path, monkeypatch):
    # Only a ConfigError is the scenario's fault; any other error in the
    # rollout propagates instead of being reported as exit 2.
    def broken(cfg):
        raise ValueError("fault inside the rollout")

    monkeypatch.setattr("flockspc.cli.run_scenario", broken)
    sc = _write(tmp_path, "sc.json", TWO_AGENT_SCENARIO)
    with pytest.raises(ValueError, match="fault inside the rollout"):
        main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")])


def test_simulate_diverging_plant_exits_4(tmp_path, capsys):
    # z_time_constant well below physics_dt makes the explicit z update unstable
    data = scenario_to_dict(hardware_scenario())
    data["llc"]["z_time_constant"] = 0.004
    sc = _write(tmp_path, "sc.json", data)
    assert main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "diverged" in err and "tick " in err and "agent " in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "trace.csv").exists()


@pytest.mark.parametrize("value", [1e-170, 1e200])
def test_simulate_time_constant_whose_square_is_zero_or_inf_exits_2(tmp_path, capsys, value):
    # The plant divides by z_time_constant squared; 1e-170 squared is 0.0
    # (a ZeroDivisionError once) and 1e200 squared overflows.
    data = scenario_to_dict(hardware_scenario())
    data["llc"]["z_time_constant"] = value
    sc = _write(tmp_path, "sc.json", data)
    assert main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error: llc.z_time_constant: must be positive" in err and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


def _no_rollout(cfg):
    raise AssertionError("the rollout started")


def test_simulate_huge_r_drone_exits_2_before_any_tick(tmp_path, monkeypatch, capsys):
    # 2 r_drone + r_safety overflows to an infinite dist_thr: a ConfigError
    # that names the scenario field, raised before the rollout's work.
    monkeypatch.setattr("flockspc.cli.run_scenario", _no_rollout)
    data = json.loads(Path("scenarios/hardware_preset.json").read_text())
    data["cost"]["r_drone"] = 1e308
    sc = _write(tmp_path, "sc.json", data)
    assert main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cost.r_drone: must keep dist_thr = 2 r_drone + r_safety "
                          "finite"), err
    assert "1e+308" in err and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


def test_sweep_job_with_huge_r_drone_fails_before_its_rollout(monkeypatch):
    # A sweep's worker checks its scenario's thresholds before the rollout too.
    cfg = hardware_scenario()
    monkeypatch.setattr("flockspc.cli.build_scenario",
                        lambda *job: replace(cfg, cost=replace(cfg.cost, r_drone=1e308)))
    monkeypatch.setattr("flockspc.cli.run_scenario", _no_rollout)
    with pytest.raises(ConfigError, match=r"^cost\.r_drone: must keep dist_thr") as exc:
        _sweep_job((4, "none", "SPC", "A", 0, 60.0, 0.1))
    assert exc.value.field == "cost.r_drone"


SWEEP_SMALL = {
    "flock_sizes": [2, 3],
    "obstacle_scenarios": ["none"],
    "controllers": ["SPC"],
    "llc_families": ["A", "B"],
    "seeds": [0, 1],
    "duration": 2.0,
    "noise_sigma": 0.05,
}


def test_sweep_runs_grid_and_writes_table(tmp_path, capsys):
    sw = _write(tmp_path, "sweep.json", SWEEP_SMALL)
    out = tmp_path / "out"
    assert main(["sweep", "--sweep", sw, "--out", str(out)]) == 0
    runs = sorted(p.name for p in out.glob("run_*.json"))
    assert len(runs) == 8, f"expected 8 runs, got {runs}"
    assert "run_d2_none_SPC_A_s0.json" in runs
    table = (out / "table.md").read_text()
    assert "SPC/A dist_min" in table and "SPC/B dist_min" in table
    assert "ran 8 scenarios" in capsys.readouterr().out


def _allow_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch, capsys):
    sw = _write(tmp_path, "sweep.json", SWEEP_SMALL)
    _allow_cpus(monkeypatch, 1)
    assert main(["sweep", "--sweep", sw, "--out", str(tmp_path / "serial")]) == 0
    assert "with 1 worker(s)" in capsys.readouterr().out
    _allow_cpus(monkeypatch, 2)
    assert main(["sweep", "--sweep", sw, "--out", str(tmp_path / "par")]) == 0
    assert "with 2 worker(s)" in capsys.readouterr().out
    assert ((tmp_path / "serial" / "table.md").read_bytes()
            == (tmp_path / "par" / "table.md").read_bytes())
    for p in (tmp_path / "serial").glob("run_*.json"):
        assert p.read_bytes() == (tmp_path / "par" / p.name).read_bytes()


@pytest.mark.parametrize("cpus, seeds", [(1, [0]), (2, [0]), (2, [0, 1])])
def test_sweep_diverging_job_exits_4(tmp_path, monkeypatch, capsys, cpus, seeds):
    # Every job runs in a worker process; with two jobs on two CPUs the first
    # job in grid order is the one reported.
    _allow_cpus(monkeypatch, cpus)
    data = {"flock_sizes": [3], "obstacle_scenarios": ["none"], "controllers": ["PFC"],
            "llc_families": ["B"], "seeds": seeds, "duration": 12.0, "noise_sigma": 1e308}
    sw = _write(tmp_path, "sweep.json", data)
    assert main(["sweep", "--sweep", sw, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: rollout diverged at run_d3_none_PFC_B_s0, tick ") and \
        err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cpu_count, workers", [(None, 1), (3, 2)])
def test_sweep_without_affinity_counts_cpus(tmp_path, monkeypatch, capsys, cpu_count, workers):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    sw = _write(tmp_path, "sweep.json", dict(SWEEP_SMALL, flock_sizes=[2], llc_families=["A"]))
    assert main(["sweep", "--sweep", sw, "--out", str(tmp_path / "o")]) == 0
    assert f"ran 2 scenarios with {workers} worker(s)" in capsys.readouterr().out


def test_sweep_layout_given_as_obstacle_count(tmp_path):
    data = dict(SWEEP_SMALL, obstacle_scenarios=[0], flock_sizes=[2], llc_families=["A"], seeds=[0])
    sw = _write(tmp_path, "sweep.json", data)
    assert main(["sweep", "--sweep", sw, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "run_d2_none_SPC_A_s0.json").exists()


def test_sweep_field_errors_exit_2(tmp_path, capsys):
    # A duration too short for one tick fails in the pool's workers, and their
    # ConfigError reaches main() pickled.
    for key, value in (("controllers", ["MPC"]), ("flock_sizes", [0]), ("duration", "long"),
                       ("seeds", [True]), ("noise_sigma", -0.1), ("duration", 0.05)):
        sw = _write(tmp_path, "sweep.json", dict(SWEEP_SMALL, **{key: value}))
        assert main(["sweep", "--sweep", sw, "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err, key


@pytest.mark.parametrize("key, value, named", [
    ("seeds", [0, -1], "seeds[1]: must be an integer in [0, 2**64), got -1"),
    ("flock_sizes", [4294967296], "flock_sizes[0]: must be below 2**32, got 4294967296"),
    ("flock_sizes", [3, 2, 3], "flock_sizes[2]: repeats 3"),
    ("obstacle_scenarios", ["three", 3], 'obstacle_scenarios[1]: repeats "three"'),
    ("obstacle_scenarios", [0, "none"], 'obstacle_scenarios[1]: repeats "none"'),
    ("controllers", ["SPC", "SPC"], 'controllers[1]: repeats "SPC"'),
    ("llc_families", ["B", "A", "B"], 'llc_families[2]: repeats "B"'),
    ("seeds", [0, 0], "seeds[1]: repeats 0"),
], ids=["seeds", "flock_sizes", "repeated_flock_size", "repeated_layout_name_then_count",
        "repeated_layout_count_then_name", "repeated_controller", "repeated_llc_family",
        "repeated_seed"])
def test_sweep_entries_are_checked_before_the_pool_starts(tmp_path, capsys, monkeypatch, key,
                                                         value, named):
    # Once raised inside a worker as the scenario's seed or agent_count; a
    # repeated entry ran its cells twice, both runs writing one summary file.
    def no_pool(*args, **kwargs):
        raise AssertionError("the sweep started its pool")

    monkeypatch.setattr("flockspc.cli.ProcessPoolExecutor", no_pool)
    sw = _write(tmp_path, "sweep.json", dict(SWEEP_SMALL, **{key: value}))
    with pytest.raises(ConfigError) as exc:
        load(SweepSpec, sw)
    assert str(exc.value) == named
    assert main(["sweep", "--sweep", sw, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (tmp_path / "o").exists()


def test_sweep_empty_seed_list_exits_2(tmp_path, capsys):
    data = dict(SWEEP_SMALL)
    data["seeds"] = []
    sw = _write(tmp_path, "sweep.json", data)
    assert main(["sweep", "--sweep", sw, "--out", str(tmp_path / "o")]) == 2
    assert "seeds" in capsys.readouterr().err


def test_sweep_unknown_layout_exits_2(tmp_path, capsys):
    data = dict(SWEEP_SMALL)
    data["obstacle_scenarios"] = ["five"]
    sw = _write(tmp_path, "sweep.json", data)
    assert main(["sweep", "--sweep", sw, "--out", str(tmp_path / "o")]) == 2
    assert "five" in capsys.readouterr().err


def test_step_response_outputs(tmp_path):
    out = tmp_path / "step"
    assert main(["step-response", "--family", "A", "--out", str(out)]) == 0
    payload = json.loads((out / "step_response.json").read_text())
    assert payload["family"] == "A" and payload["settled"]
    assert payload["rise_time_90_s"] > 0
    csv_lines = (out / "step_response.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "time_s,position_m,velocity_m_s,tilt_rad"
    assert len(csv_lines) > 1000
    assert "np" not in csv_lines[1]


@pytest.mark.parametrize("family", ["A", "B"])
def test_step_response_csv_writes_each_float_as_repr(tmp_path, family):
    # The rows as the per-row f-string loop wrote them before the array
    # formatter: the file's bytes must not change.
    out = tmp_path / family
    assert main(["step-response", "--family", family, "--out", str(out)]) == 0
    rows = step_trajectory(LLCConfig(family=family), 1.0, duration=20.0)
    expected = "time_s,position_m,velocity_m_s,tilt_rad\n" + "".join(
        f"{float(t)!r},{float(x)!r},{float(v)!r},{float(tilt)!r}\n" for t, x, v, tilt in rows)
    assert (out / "step_response.csv").read_bytes() == expected.encode()


def test_step_response_zero_step(tmp_path):
    out = tmp_path / "step0"
    assert main(["step-response", "--family", "B", "--step", "0", "--out", str(out)]) == 0
    payload = json.loads((out / "step_response.json").read_text())
    assert payload["rise_time_90_s"] == 0.0 and payload["overshoot_pct"] == 0.0


def test_step_response_rejects_negative_step(tmp_path, capsys):
    code = main(["step-response", "--family", "A", "--step", "-1",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("args, named", [
    (["--step", "inf"], "step"),
    (["--step", "nan"], "step"),
    (["--duration", "inf"], "duration"),
    (["--step", "0", "--duration", "inf"], "duration"),  # a zero step skips the metrics
    (["--duration", "nan"], "duration"),
])
def test_step_response_rejects_non_finite_arguments(tmp_path, capsys, args, named):
    code = main(["step-response", "--family", "B", *args, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2 and named in err and "finite" in err, err
    assert not (tmp_path / "o").exists()


def test_step_response_huge_duration_exits_2(tmp_path, capsys):
    # 1e12 s would be 28.4 PiB of trajectory rows.
    code = main(["step-response", "--family", "A", "--duration", "1e12",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2 and "duration" in err and "dt" in err, err
    assert not (tmp_path / "o").exists()


def test_step_response_simulates_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return step_trajectory(*args, **kwargs)

    monkeypatch.setattr("flockspc.cli.step_trajectory", counted)
    monkeypatch.setattr("flockspc.llc.step_trajectory", counted)
    assert main(["step-response", "--family", "A", "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_step_response_family_ordering(tmp_path):
    for fam in ("A", "B"):
        assert main(["step-response", "--family", fam,
                     "--out", str(tmp_path / fam)]) == 0
    a = json.loads((tmp_path / "A" / "step_response.json").read_text())
    b = json.loads((tmp_path / "B" / "step_response.json").read_text())
    assert b["rise_time_90_s"] < a["rise_time_90_s"]
    assert b["overshoot_pct"] > a["overshoot_pct"]


def test_equilibrium_prints_closed_form(capsys):
    assert main(["equilibrium", "--w-coh", "20", "--w-sep", "9"]) == 0
    assert capsys.readouterr().out.strip() == "0.81904"
    assert main(["equilibrium", "--w-coh", "1", "--w-sep", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1.00000"


def test_equilibrium_rejects_nonpositive_weights(capsys):
    assert main(["equilibrium", "--w-coh", "0", "--w-sep", "9"]) == 2
    assert "w_coh" in capsys.readouterr().err


@pytest.mark.parametrize("args, named", [
    (["--w-coh", "nan", "--w-sep", "1"], "w_coh"),
    (["--w-coh", "1", "--w-sep", "inf"], "w_sep"),
    (["--w-coh", "1", "--w-sep", "1", "--r-drone", "inf"], "r_drone"),
    (["--w-coh", "1", "--w-sep", "1", "--r-drone", "-0.5"], "r_drone"),
])
def test_equilibrium_rejects_non_finite_arguments(capsys, args, named):
    assert main(["equilibrium", *args]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err, err


def test_equilibrium_nan_radius_exits_2_without_spinning():
    # In a subprocess with a timeout: a bisection that spins on NaN fails in
    # seconds instead of hanging the suite.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "flockspc", "equilibrium", "--w-coh", "1", "--w-sep", "1",
         "--r-drone", "nan"],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2 and "r_drone" in proc.stderr, proc.stderr


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_equilibrium_unbounded_distance_exits_2(capsys, verify):
    # (1e300 / 1e-300) ** 0.25 is inf: no distance to print or to spawn at
    assert main(["equilibrium", "--w-coh", "1e-300", "--w-sep", "1e300", *verify]) == 2
    captured = capsys.readouterr()
    assert "w_sep / w_coh" in captured.err and captured.out == "", captured


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_equilibrium_overflowing_radius_exits_2(capsys, verify):
    # 2 * 1e308 overflows: the error names that expression, before any
    # distance is printed or a rollout spawns agents at it.
    assert main(["equilibrium", "--w-coh", "1", "--w-sep", "1", "--r-drone", "1e308",
                 *verify]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: 2 * r_drone: must be >= 0 and finite, got inf")
    assert captured.out == "" and "Traceback" not in captured.err, captured


def test_equilibrium_verify_measures_huge_separations_without_overflow(capsys):
    # The agents spawn 2 * d_eq = 4e160 m apart and cannot move at that
    # scale, so the rollout fails the 5 % check; a separation measured with
    # squares (np.linalg.norm) overflowed to inf there, with a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["equilibrium", "--w-coh", "1", "--w-sep", "1", "--r-drone", "1e160",
                     "--verify"])
    captured = capsys.readouterr()
    line = captured.out.splitlines()[-1]
    sep, off = re.fullmatch(r"two-agent rollout: mean separation (\S+) m \((\S+)% off\)",
                            line).groups()
    assert math.isfinite(float(sep)) and float(sep) > 3.9e160, line
    assert off == "100.00", line
    assert code == 3 and captured.err.startswith("verification failed"), captured.err


def test_equilibrium_verify_averages_huge_separations_without_overflow(capsys):
    # 2 * d_eq is about 4e306 m: each separation is finite, but the 50 of
    # them add up past the float range, so their plain sum reads inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["equilibrium", "--w-coh", "1", "--w-sep", "1", "--r-drone", "1e306",
                     "--verify"])
    captured = capsys.readouterr()
    line = captured.out.splitlines()[-1]
    sep, off = re.fullmatch(r"two-agent rollout: mean separation (\S+) m \((\S+)% off\)",
                            line).groups()
    assert math.isfinite(float(sep)) and 3.9e306 < float(sep) < 4.1e306, line
    assert off == "100.00", line
    assert code == 3 and captured.err.startswith("verification failed"), captured.err


def test_equilibrium_verify_against_rollout(capsys):
    assert main(["equilibrium", "--w-coh", "20", "--w-sep", "9", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "mean separation" in out


@pytest.mark.parametrize("command, work", [
    (["simulate", "--scenario", "{scenario}"], "flockspc.cli.run_scenario"),
    (["sweep", "--sweep", "{sweep}"], "flockspc.cli._sweep_job"),
    (["step-response", "--family", "A"], "flockspc.cli.step_trajectory"),
])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_that_cannot_be_a_directory_exits_2_before_any_work(
        tmp_path, monkeypatch, capsys, command, work, out):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    monkeypatch.setattr(work, no_work)
    paths = {"scenario": _write(tmp_path, "sc.json", TWO_AGENT_SCENARIO),
             "sweep": _write(tmp_path, "sweep.json", SWEEP_SMALL)}
    (tmp_path / "file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    argv = [arg.format(**paths) for arg in command]
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert "--out" in err and "file is not a directory" in err, err
    assert sorted(tmp_path.rglob("*")) == before


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
