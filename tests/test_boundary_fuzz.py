"""End-to-end boundary fuzz: every accepted input runs to a documented outcome.

Each case sets one numeric leaf of a base scenario, or one command-line
argument, to a boundary value (boundary-value analysis: Myers, "The Art of
Software Testing", 1979, ch. 4) and runs the whole program in process through
cli.main, as random testing of whole programs does (Miller, Fredriksen & So,
CACM 33(12), 1990).  The documented outcomes are the exit codes 0, 2, 3 and
4; an exception that escapes, a RuntimeWarning outside a rollout's
np.errstate included, is a fault.  A case checks:

- the exit code is 0, 2, 3 or 4;
- on exit 2 from simulate, the `error: <field>:` line names a JSON path of
  the scenario it read; on exit 2 from an argument case, the error names
  the argument;
- on exit 0 from simulate, summary.json parses and trace.csv holds one row
  per agent per tick.

The grid is fixed: three base scenarios cut to 0.5 s, every numeric leaf of
each set to each of VALUES, and the same values for `simulate --seed` and
the `step-response` and `equilibrium` arguments.  Tier-1 runs SUBSET: each
case that failed, before their mends, from one of the three faults the fuzz
first found (a subnormal spawn.min_spacing, a huge obs_delay_ticks, metrics
past the square range), one case of each outcome, and every 29th leaf case.  The whole grid
runs as a script:

    PYTHONPATH=src python tests/test_boundary_fuzz.py

which prints the count of each exit code and exits 1 on the first failing case.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import pytest

from flockspc import build_scenario, hardware_scenario, load_scenario, scenario_to_dict
from flockspc.cli import main

_EDGES = (5e-324, 1e-300, 1e154, 1e300, sys.float_info.max)
VALUES = (0, -0.0, *_EDGES, *(-v for v in _EDGES), 2**53 + 1, 2**63, 2**64, 7)

_CUT = {"duration": 0.5, "formation_time": 0.2}
BASES = {
    "hardware": scenario_to_dict(replace(hardware_scenario(), **_CUT)),
    "pfc_three": scenario_to_dict(replace(build_scenario(4, "three", "PFC", "A", 0), **_CUT)),
    "spc_eleven_delayed": scenario_to_dict(
        replace(build_scenario(9, "eleven", "SPC", "B", 0), obs_delay_ticks=2, **_CUT)),
}


class Case(NamedTuple):
    """`flockspc <argv>` with `value` put at `leaf`, a path of keys into
    base scenario `base`, or, with no leaf, as the value of argv's last
    flag."""

    argv: tuple[str, ...]
    value: int | float
    base: str | None = None
    leaf: tuple[str | int, ...] = ()

    def __str__(self) -> str:
        if self.leaf:
            return f"{self.argv[0]} {self.base} {_json_path(self.leaf)}={self.value!r}"
        return " ".join(self.argv[:-1] + (f"{self.argv[-1]}={self.value!r}",))


def _json_path(keys: tuple[str | int, ...]) -> str:
    """The keys as a config error names them: spawn.box_min[0]."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def _paths(node: dict | list, prefix: tuple = ()):
    """The key path of every value inside node, containers included."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _leaves(node: dict) -> list[tuple[str | int, ...]]:
    """The paths of node's numbers; a bool is no number here."""
    return [path for path in _paths(node) if type(_get(node, path)) in (int, float)]


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def scenario_cases() -> list[Case]:
    return [Case(("simulate",), value, base, leaf)
            for base, data in BASES.items() for leaf in _leaves(data) for value in VALUES]


def argument_cases() -> list[Case]:
    argvs = [("simulate", base, "--seed") for base in BASES]
    for family in "AB":
        argvs += [("step-response", None, "--family", family, "--duration", "0.5", "--step"),
                  ("step-response", None, "--family", family, "--duration")]
    for verify in ((), ("--verify",)):
        argvs += [("equilibrium", None, *verify, "--w-sep", "9", "--w-coh"),
                  ("equilibrium", None, *verify, "--w-coh", "20", "--w-sep"),
                  ("equilibrium", None, *verify, "--w-coh", "20", "--w-sep", "9", "--r-drone")]
    return [Case((command, *rest), value, base)
            for command, base, *rest in argvs for value in VALUES]


def _run(argv: list[str]) -> tuple[int, str]:
    """cli.main's exit code and stderr; argparse's usage errors exit 2."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def check(case: Case, workdir: Path) -> int:
    """Run `case` in the empty directory `workdir`, assert its outcome, and
    return its exit code."""
    argv = list(case.argv)
    if case.base is not None:
        data = copy.deepcopy(BASES[case.base])
        if case.leaf:
            _get(data, case.leaf[:-1])[case.leaf[-1]] = case.value
        scenario = workdir / "scenario.json"
        scenario.write_text(json.dumps(data))
        argv[1:1] = ["--scenario", str(scenario)]
    if not case.leaf:
        argv[-1] += f"={case.value!r}"
    out = workdir / "out"
    if case.argv[0] != "equilibrium":  # it writes nothing
        argv += ["--out", str(out)]
    code, err = _run(argv)
    assert code in (0, 2, 3, 4), f"{case}: exit {code}\n{err}"
    if code == 2:
        lines = [line for line in err.splitlines() if "error: " in line]
        assert lines, f"{case}: exit 2 with no error line\n{err}"
        if case.leaf:
            field = lines[-1].split("error: ", 1)[1].split(": ", 1)[0]
            known = {_json_path(path) for path in _paths(data)}
            assert field in known, f"{case}: error names {field!r}, no path of the input\n{err}"
        else:
            flag = case.argv[-1]
            assert flag in err or flag[2:].replace("-", "_") in err, f"{case}: {flag} not named\n{err}"
    if code == 0 and case.argv[0] == "simulate":
        json.loads((out / "summary.json").read_text())
        cfg = load_scenario(scenario)
        with open(out / "trace.csv") as fh:
            rows = sum(1 for _ in fh) - 1  # the header
        assert rows == cfg.agent_count * cfg.tick_count, f"{case}: {rows} trace rows"
    return code


SUBSET = [
    # A subnormal min_spacing halves to 0.0, which the spawn check divided by.
    Case(("simulate",), 5e-324, "pfc_three", ("spawn", "min_spacing")),
    # A delay from 2**63 on overflowed the position history's deque maxlen.
    Case(("simulate",), 2**63, "spc_eleven_delayed", ("obs_delay_ticks",)),
    Case(("simulate",), 2**64, "spc_eleven_delayed", ("obs_delay_ticks",)),
    # The metrics window squared differences past the float range.
    Case(("simulate",), 1e300, "pfc_three", ("cost", "w_coh")),
    Case(("simulate",), 1e300, "pfc_three", ("noise_sigma",)),
    Case(("simulate",), 1e300, "pfc_three", ("obstacles", 0, "x")),
    Case(("simulate",), -1e300, "pfc_three", ("spawn", "box_min", 0)),
    # Each other outcome: runs, a config error, a divergence.
    Case(("simulate",), 7, "hardware", ("agent_count",)),
    Case(("simulate",), 1e-300, "hardware", ("llc", "z_time_constant")),
    Case(("simulate",), sys.float_info.max, "spc_eleven_delayed", ("noise_sigma",)),
    Case(("simulate",), 2**53 + 1, "spc_eleven_delayed", ("waypoints", 1, "target", 2)),
    # Arguments: an int seed past 64 bits, a float seed, a step response,
    # and an equilibrium check that fails its --verify.
    Case(("simulate", "--seed"), 2**64, "hardware"),
    Case(("simulate", "--seed"), -0.0, "hardware"),
    Case(("step-response", "--family", "B", "--duration", "0.5", "--step"), 1e300),
    Case(("equilibrium", "--verify", "--w-coh", "20", "--w-sep", "9", "--r-drone"), 1e154),
]
# And every 29th leaf case: 29 is prime to len(VALUES), so the values turn
# over the leaves.
SUBSET += [case for case in scenario_cases()[::29] if case not in SUBSET]


@pytest.mark.parametrize("case", SUBSET, ids=str)
def test_boundary_case_exits_as_documented(case, tmp_path):
    check(case, tmp_path)


def run_grid() -> int:
    """Run every case, print the exit code counts; 1 on the first failure."""
    cases = scenario_cases() + argument_cases()
    codes: Counter[int] = Counter()
    start = time.perf_counter()
    for case in cases:
        try:
            with tempfile.TemporaryDirectory() as tmp:
                codes[check(case, Path(tmp))] += 1
        except Exception:  # noqa: BLE001 - a failing case ends the run, named
            traceback.print_exc()
            print(f"FAIL {case}", file=sys.stderr)
            return 1
    counts = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items()))
    print(f"{len(cases)} boundary cases in {time.perf_counter() - start:.1f} s: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(run_grid())
