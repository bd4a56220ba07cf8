#!/usr/bin/env python3
"""Benchmark of the flockspc control-tick pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload spc_eleven_30 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Each rollout does what `flockspc simulate` does, through the public API:
parse_scenario -> Simulation(cfg) -> tick() in a loop -> aggregate ->
write_trace_csv + write_summary_json.  Scenarios come from `presets` and the
--seed argument only.  Everything runs in this process on one thread as a
closed loop with one client: a tick starts only after the previous one
returned.  The package is imported from this checkout's src/, never from an
installed copy.

Both modes repeat whole rounds of rollouts until --seconds are spent (at
least one round); a round runs each of the workload's scenario seeds twice.
--trace 0 times each tick as the lesser of its two identical runs and prints
the end-to-end metrics of BENCHMARK.json.  --trace 1 runs each seed plain
and with the timing wrappers of spans.py, and prints the per-layer metrics
per round and the tracing overhead.

Times are scaled to one nominal host speed by the probe in hostspeed.py,
which runs fixed reference work between ticks: the shared host's own speed
can halve and recover within seconds.  The report line gives the scales.

Every rollout passes a correctness gate outside the timed region: no
exception, every recorded value finite, a sample of decisions replayed
through tick_observation + tick_cost_params + spc_setpoint/pfc_setpoint to
the recorded setpoint bit for bit, and the same trace SHA-256 every time a
seed repeats (traced or not).  A failed flock verdict is reported, not
counted as a failure.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it give
quartiles, sample counts, verdicts, trace digests and host details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from hostspeed import SpeedProbe
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 31
# Rollouts of each seed per round in --trace 0.  They do identical work (the
# digest check proves it), so each tick counts with the least of its times:
# that drops most of the host's stalls, which are shorter than the probe
# period and make up most of the tick-time tail.
REPLAYS = 2
REPLAY_SAMPLES = 32
# Simulated seconds per rollout in --self-check: past the 10 s formation
# window, so aggregate has samples.
SELF_CHECK_DURATION = 12.0
RECORD_ARRAYS = ("positions", "velocities", "observed_self", "setpoints", "costs", "grad_norms")


@dataclass(frozen=True)
class Workload:
    build: Callable  # (presets module, seed) -> ScenarioConfig
    seeds_per_round: int  # distinct scenario seeds in one round of rollouts


WORKLOADS = {
    # Decision-heavy: candidate scoring dominates, and the SPC ladders are
    # longest while crossing the field after the t = 12 s waypoint switch.
    # The 60 s, 30-agent run is the roadmap's wall-time target.
    "spc_eleven_30": Workload(lambda p, seed: p.build_scenario(30, "eleven", "SPC", "A", seed), 1),
    # No candidate search at all: observe, the gradient, the plant loop and a
    # 100-row CSV per tick.  A candidate-kernel change should not move it.
    "pfc_open_100": Workload(
        lambda p, seed: p.build_scenario(100, "none", "PFC", "B", seed, duration=20.0), 2
    ),
    # Same SPC path with tiny batches (about 2 neighbours, 6 candidates):
    # per-call overhead, set-up and the CSV weigh most here.
    "spc_hw_4": Workload(lambda p, seed: p.hardware_scenario(seed), 8),
}


class Api:
    """The package under test.  Names are looked up at call time, so the
    wrappers a traced run installs are the ones called."""

    def __init__(self) -> None:
        package = SRC / "flockspc"
        if not (package / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no package source at {package}")
        sys.path.insert(0, str(SRC))
        import numpy
        import flockspc

        if Path(flockspc.__file__).resolve().parent != package.resolve():
            raise SystemExit(f"perfbench: imported flockspc from {flockspc.__file__}, not {package}")
        import flockspc.controller, flockspc.engine, flockspc.metrics, flockspc.presets  # noqa: E401,F401

        self.np = numpy
        self.pkg = flockspc

    def fn(self, module: str, name: str) -> Callable:
        """`flockspc.<module>.<name>`, or the package-level export if it moved."""
        found = getattr(getattr(self.pkg, module, None), name, None)
        return found if found is not None else getattr(self.pkg, name)


@dataclass
class Rollout:
    seed: int
    traced: bool
    problem: str | None = None
    tick_s: list[float] = field(default_factory=list)
    run_s: float = 0.0
    sim_seconds: float = 0.0
    dist_min: float | None = None
    verdicts: dict | None = None
    sha256: str | None = None
    csv_bytes: int = 0
    scale: float = 1.0  # host-speed scale over the whole rollout


def scenario_dicts(api: Api, workload: Workload, seed: int, duration: float | None) -> dict[int, dict]:
    """Scenario dicts of one round, keyed by scenario seed."""
    presets = api.pkg.presets
    out = {}
    for k in range(workload.seeds_per_round):
        scenario_seed = seed * workload.seeds_per_round + k
        cfg = workload.build(presets, scenario_seed)
        if duration is not None:
            cfg = replace(cfg, duration=duration)
        out[scenario_seed] = api.fn("engine", "scenario_to_dict")(cfg)
    return out


def measure_setup(api: Api, datas: list[dict]) -> list[float]:
    """Scaled seconds from scenario dict to a Simulation ready to tick, each
    sample the mean over every scenario of the round."""
    probe = SpeedProbe(period_s=0.0)
    for _ in range(SETUP_REPEATS):
        sims = []
        start = time.perf_counter()
        for data in datas:
            sims.append(api.fn("engine", "Simulation")(api.fn("engine", "parse_scenario")(data)))
        probe.measured((time.perf_counter() - start) / len(datas))
        for sim in sims:
            if hasattr(sim, "close"):
                sim.close()
    return probe.scaled_pieces()


def simulate(api: Api, data: dict, rollout: Rollout):
    """One `flockspc simulate`, timed and scaled to the nominal host speed;
    returns the trace for the gate."""
    probe = SpeedProbe()
    start = time.perf_counter()
    cfg = api.fn("engine", "parse_scenario")(data)
    sim = api.fn("engine", "Simulation")(cfg)
    probe.measured(time.perf_counter() - start)
    records = []
    for _ in range(cfg.tick_count):
        t = time.perf_counter()
        records.append(sim.tick())
        probe.measured(time.perf_counter() - t)
    start = time.perf_counter()
    if hasattr(sim, "close"):
        sim.close()
    trace = api.fn("engine", "Trace")(config=cfg, records=tuple(records))
    summary = api.fn("metrics", "aggregate")(trace, api.fn("metrics", "thresholds_for_scenario")(cfg))
    api.fn("engine", "write_trace_csv")(trace, OUT / "trace.csv")
    api.fn("metrics", "write_summary_json")(
        summary, OUT / "summary.json", scenario_echo=api.fn("engine", "scenario_to_dict")(cfg)
    )
    probe.measured(time.perf_counter() - start)
    pieces = probe.scaled_pieces()  # set-up, each tick, then output
    rollout.tick_s = pieces[1:-1]
    rollout.run_s = sum(pieces)
    rollout.scale = probe.scale()

    rollout.sim_seconds = cfg.tick_count * cfg.control_period
    rollout.dist_min = summary.dist_min
    rollout.verdicts = api.fn("metrics", "summary_to_dict")(summary)["verdicts"]
    csv = (OUT / "trace.csv").read_bytes()
    rollout.csv_bytes = len(csv)
    rollout.sha256 = hashlib.sha256(csv).hexdigest()
    return trace


def gate(api: Api, trace) -> str | None:
    """Why a finished rollout counts as failed, or None."""
    np = api.np
    for rec in trace.records:
        for name in RECORD_ARRAYS:
            values = getattr(rec, name, None)
            if values is not None and not np.isfinite(np.asarray(values, dtype=float)).all():
                return f"non-finite {name} recorded at tick {rec.index}"

    cfg = trace.config
    ctrl = cfg.controller
    setpoint_fn = api.fn("controller", "spc_setpoint" if ctrl.kind == "SPC" else "pfc_setpoint")
    ticks = len(trace.records)
    for j in range(REPLAY_SAMPLES):
        k = j * ticks // REPLAY_SAMPLES
        agent = j % cfg.agent_count
        obs = api.fn("engine", "tick_observation")(trace, k, agent)
        params = api.fn("engine", "tick_cost_params")(trace, k)
        self_pos = next(p for i, p in obs if i == agent)
        rows = [tuple(p) for i, p in obs if i != agent]
        neighbors = np.array(rows, dtype=float) if rows else np.empty((0, 3))
        setpoint = setpoint_fn(self_pos, neighbors, params, ctrl).position
        rec = trace.records[k]
        if _floats(self_pos) != _floats(rec.observed_self[agent]):
            return f"replayed observation differs at tick {k}, agent {agent}"
        if _floats(setpoint) != _floats(rec.setpoints[agent]):
            return f"replayed setpoint differs at tick {k}, agent {agent}"
    return None


def _floats(point) -> tuple[float, ...]:
    return tuple(float(v) for v in point)


def run_rollout(api: Api, seed: int, data: dict, digests: dict[int, tuple], tracer=None) -> Rollout:
    """Simulate (traced while `tracer` is installed), gate the first plain
    rollout of a seed, and compare the trace digest with the seed's first;
    a rollout with the same digest shares the first one's verdict."""
    traced = tracer is not None
    rollout = Rollout(seed=seed, traced=traced)
    first = seed not in digests
    try:
        if traced:
            tracer.install()
        try:
            trace = simulate(api, data, rollout)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            tracer.commit(rollout.scale)
        if first and not traced:
            rollout.problem = gate(api, trace)
    except Exception as exc:  # a raising rollout is a failed rollout
        rollout.problem = f"{type(exc).__name__}: {exc}"
        return rollout
    sha256, problem = digests.setdefault(seed, (rollout.sha256, rollout.problem))
    if sha256 != rollout.sha256:
        rollout.problem = rollout.problem or "trace differs from another rollout of the same seed"
    else:
        rollout.problem = rollout.problem or problem
    return rollout


def repeat_rounds(deadline: float, run_round: Callable[[int], None]) -> int:
    """Call run_round(0), run_round(1), ... while another round of the same
    length still ends before the deadline; always at least once."""
    rounds = 0
    while True:
        start = time.perf_counter()
        run_round(rounds)
        rounds += 1
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return rounds


def run_plain(api: Api, workload: Workload, seed: int, seconds: float, duration=None):
    """--trace 0: whole rounds until `seconds` are spent; end-to-end metrics."""
    deadline = time.perf_counter() + seconds
    datas = scenario_dicts(api, workload, seed, duration)
    setup = measure_setup(api, list(datas.values()))
    rollouts: list[Rollout] = []
    digests: dict[int, tuple] = {}
    best: list[Rollout] = []

    def run_round(_: int) -> None:
        for s, data in datas.items():
            runs = [run_rollout(api, s, data, digests) for _ in range(REPLAYS)]
            rollouts.extend(runs)
            ok = [r for r in runs if r.problem is None]
            if ok:
                ticks = [min(t) for t in zip(*(r.tick_s for r in ok))]
                best.append(replace(ok[0], tick_s=ticks, run_s=min(r.run_s for r in ok)))

    repeat_rounds(deadline, run_round)
    metrics = {}
    details = {"setup_s": _describe(setup)}
    if best:
        ticks = [t for r in best for t in r.tick_s]
        rt = [r.sim_seconds / sum(r.tick_s) for r in best]
        run_s = [r.run_s for r in best]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "tick_ms_p50": (1e3 * statistics.median(ticks), "ms"),
            "tick_ms_p95": (1e3 * statistics.quantiles(ticks, n=100)[94], "ms"),
            "sim_rt_factor": (statistics.median(rt), "s/s"),
            "run_s": (statistics.median(run_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        details.update(
            tick_ms=_describe([1e3 * t for t in ticks]),
            sim_rt_factor=_describe(rt),
            run_s=_describe(run_s),
            host_scale=_describe([r.scale for r in rollouts if r.problem is None]),
        )
    return rollouts, metrics, details


def run_traced(api: Api, workload: Workload, seed: int, seconds: float, duration=None):
    """--trace 1: rounds in which each seed runs plain and traced, in turns
    first, until `seconds` are spent; per-layer metrics per round."""
    deadline = time.perf_counter() + seconds
    datas = scenario_dicts(api, workload, seed, duration)
    tracer = Tracer()
    rollouts: list[Rollout] = []
    digests: dict[int, tuple] = {}
    overheads: list[float] = []

    def run_round(index: int) -> None:
        for s, data in datas.items():
            pair = {}
            for traced in (False, True) if index % 2 == 0 else (True, False):
                pair[traced] = run_rollout(api, s, data, digests, tracer if traced else None)
            rollouts.extend(pair.values())
            if pair[False].problem is None and pair[True].problem is None:
                overheads.append(pair[True].run_s / pair[False].run_s - 1.0)

    rounds = repeat_rounds(deadline, run_round)
    metrics = tracer.metrics(rounds)
    csv_bytes = sum(r.csv_bytes for r in rollouts if r.traced)
    csv_s = tracer.spans["engine.write_trace_csv"].total_s
    metrics["engine.trace_csv_mb_per_s"] = (csv_bytes / 1e6 / csv_s if csv_s else 0.0, "MB/s")
    metrics["trace.overhead_frac"] = (statistics.median(overheads) if overheads else 0.0, "frac")
    details = {"rounds": rounds, "overhead_frac": _describe(overheads),
               "missing_spans": sorted(tracer.missing)}
    return rollouts, metrics, details


def _describe(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spec_problems(metrics: dict, trace: int) -> list[str]:
    """Emitted metrics against BENCHMARK.json, and self <= total per span."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = [f"metric {n} not emitted" for n in wanted if n not in metrics]
    problems += [f"metric {n} not in BENCHMARK.json" for n in metrics if n not in wanted]
    problems += [
        f"metric {n} has unit {metrics[n][1]}, BENCHMARK.json says {u}"
        for n, u in wanted.items()
        if n in metrics and metrics[n][1] != u
    ]
    for name, (value, _) in metrics.items():
        span = name.removesuffix(".self_s")
        if span + ".total_s" in metrics:
            total = metrics[span + ".total_s"][0]
            if not 0.0 <= value <= total:
                problems.append(f"span {span}: self {value} outside [0, total {total}]")
    return problems


def host_info(api: Api) -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": api.np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    info["numpy_simd"] = sorted(name for name, on in __cpu_features__.items() if on)
    return info


def identity(rollouts: list[Rollout]) -> list[dict]:
    """Per scenario seed: trace digest, verdicts and sample counts."""
    seen = {}
    for r in rollouts:
        if r.seed not in seen and r.problem is None:
            seen[r.seed] = {
                "seed": r.seed,
                "trace_sha256": r.sha256,
                "verdicts": r.verdicts,
                "dist_min_m": r.dist_min,
                "ticks": len(r.tick_s),
                "trace_csv_bytes": r.csv_bytes,
            }
    return list(seen.values())


def execute(api: Api, name: str, seed: int, seconds: float, trace: int, duration=None) -> tuple[dict, list[str]]:
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    if trace:
        rollouts, metrics, details = run_traced(api, workload, seed, seconds, duration)
    else:
        rollouts, metrics, details = run_plain(api, workload, seed, seconds, duration)
    failed = [r for r in rollouts if r.problem is not None]
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "rollouts": len(rollouts),
        "fail_rate": len(failed) / len(rollouts),
        "failures": [f"seed {r.seed}{' traced' if r.traced else ''}: {r.problem}" for r in failed],
        "details": details,
        "identity": identity(rollouts),
        "host": host_info(api),
    }
    result = {
        "correct": not failed,
        "attempted": len(rollouts),
        "failed": len(failed),
        "metrics": {n: {"value": float(v), "unit": u} for n, (v, u) in metrics.items()},
    }
    problems = spec_problems(metrics, trace) if metrics else []
    return {"report": report, "result": result}, problems


def self_check(api: Api) -> int:
    """Short rollouts of every workload in both modes; checks the harness."""
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            out, found = execute(api, name, 0, 0.0, trace, duration=SELF_CHECK_DURATION)
            found += out["report"]["failures"]
            problems += [f"{name} --trace {trace}: {p}" for p in found]
            print(f"{name} --trace {trace}: {len(out['result']['metrics'])} metrics, "
                  f"{out['result']['attempted']} rollouts, {len(found)} problems")
    for p in problems:
        print(f"  {p}")
    print("self-check:", "ok" if not problems else "FAILED")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="quick check of the harness")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    api = Api()
    if args.self_check:
        return self_check(api)
    out, problems = execute(api, args.workload, args.seed, args.seconds, args.trace)
    if problems:
        print("\n".join(f"perfbench: {p}" for p in problems), file=sys.stderr)
        return 1
    print("report " + json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
