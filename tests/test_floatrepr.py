"""The trace CSV's float formatter: flockspc.floatrepr writes the bytes of
repr(float(v)) for every float64 v, and write_trace_csv writes the bytes of
the per-row repr loop it replaced, which lives on here as the oracle.

The trace CSV's floats come from integer numpy arithmetic, which must equal
repr() on every numpy the package supports; these tests pin the CSV bytes
apart from the digests, so every test here is marked byte_identity.
"""

from __future__ import annotations

import io
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import flockspc.floatrepr as floatrepr
from flockspc import TRACE_COLUMNS, run_scenario, write_trace_csv
from test_trace_digests import CASES, _preset

pytestmark = pytest.mark.byte_identity


def _written(values) -> list[str]:
    """The formatter's text of each value, one per line."""
    x = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    lines = floatrepr._Lines(b"\0")
    text = "".join(lines.text(x[lo:lo + lines.rows]) for lo in range(0, len(x), lines.rows))
    return text.split("\n")[:-1]


def _assert_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    got, want = _written(values), [repr(v) for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, f"{len(bad)} of {len(want)} differ, e.g. {bad[:5]}"


def _neighbours(x):
    """x and the floats one step above and below it, both signs."""
    x = np.asarray(x, dtype=np.float64)
    near = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    return np.concatenate([near, -near])


def _floor_log10(num: int, den: int) -> int:
    """floor(log10(num / den)) for positive integers, exactly."""
    def at_most(k):  # 10**k <= num / den
        return den * 10**k <= num if k >= 0 else den <= num * 10**-k
    k = len(str(num)) - len(str(den))
    while not at_most(k):
        k -= 1
    while at_most(k + 1):
        k += 1
    return k


def test_exponent_formulas_are_exact():
    # Giulietti's integer approximations of the logarithms, against exact
    # ones on every exponent the tables take; with these k, h stays in
    # [1, 5], so 4c << h stays below 2**60 and the limb products exact.
    for q in range(-1074, 972):
        assert floatrepr._floor_log10_pow2(q, False) == _floor_log10(2**max(q, 0), 2**max(-q, 0)), q
        assert floatrepr._floor_log10_pow2(q, True) == _floor_log10(3 * 2**max(q, 0), 4 * 2**max(-q, 0)), q
    for e in range(-400, 401):
        exact = (10**e).bit_length() - 1 if e >= 0 else -(10**-e).bit_length()
        assert floatrepr._floor_log2_pow10(e) == exact, e
    assert 1 <= floatrepr._H.min() and floatrepr._H.max() <= 5


def test_powers_of_two_and_their_neighbours():
    _assert_repr(_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_powers_of_ten_and_their_neighbours():
    _assert_repr(_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_integers():
    rng = np.random.default_rng(7)
    _assert_repr(np.arange(65536, dtype=np.float64))
    _assert_repr(rng.integers(0, 2**54, 100_000, endpoint=True).astype(np.float64))
    _assert_repr(_neighbours(2.0**53 + np.arange(-64, 65)))


def test_notation_thresholds_and_special_values():
    # Fixed notation for 1e-4 <= |v| < 1e16, exponent notation outside;
    # eight floats on each side of each edge.
    near = []
    for edge in (1e-5, 1e-4, 1e16, 1e17):
        below = above = np.float64(edge)
        for _ in range(8):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            near += [below, above]
        near.append(edge)
    tiny = np.float64(5e-324)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 2.2250738585072009e-308,
                2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max, 9.999999999999999e-05,
                9999999999999998.0, 1e15, 123456789012345680.0, 0.1, 0.3, 2 / 3, 1.5, 100.0, 1e22, 1e23,
                -1.2345678901234567e-308, 1.2345678901234567e+308]
    subnormals = np.ldexp(np.arange(1, 4096), -1074)
    _assert_repr(np.concatenate([near, np.negative(near), specials, subnormals]))


def test_random_bit_patterns():
    bits = np.random.default_rng(2023).integers(0, 2**64, 100_000, dtype=np.uint64)
    _assert_repr(bits.view(np.float64))


def test_random_values_at_trace_scales():
    rng = np.random.default_rng(11)
    _assert_repr(rng.standard_normal(50_000) * 10.0 ** rng.integers(-20, 20, 50_000))


def _exponent_notation_values() -> list[float]:
    """For each significand length 1..17, both signs and the exponents
    -307, -100, -99, -5, 16, 99, 100 and 307: a float whose repr has that
    many digits in exponent notation."""
    digits = "12345678923456789"  # no '0', so each prefix is its float's shortest text
    values = []
    for length in range(1, 18):
        for e in (-307, -100, -99, -5, 16, 99, 100, 307):
            v = float(f"{digits[0]}.{digits[1:length]}e{e}")
            # A 16- or 17-digit text may name a float with a shorter text;
            # a float a step or two below it takes all its digits.
            while len(repr(v).split("e")[0].replace(".", "")) != length:
                v = float(np.nextafter(v, 0.0))
            values += [v, -v]
    return values


def test_exponent_notation_at_each_significand_length():
    # The suffix sits at a fixed byte behind 1 to 17 digits and the "."
    # (none after a single digit), at 2- and 3-digit exponents of both signs.
    values = _exponent_notation_values()
    assert {repr(v).split("e")[1] for v in values} == {"-307", "-100", "-99", "-05", "+16", "+99", "+100", "+307"}
    assert len(values) == 17 * 8 * 2
    _assert_repr(values)


def test_zeros_in_every_column_of_a_trace_row():
    # Rows laid out as write_trace_csv's (a time and agent prefix, 18
    # values after ","), with +0.0 and -0.0 in every column, next to each
    # other and to texts of other lengths and notations.
    rows = np.zeros((6, 18))
    rows[1] = -0.0
    rows[2, 1::2] = rows[3, ::2] = -0.0
    rows[4, ::2] = rows[5, 1::2] = -1.2345678901234567e-300
    rows[4, 1::2] = rows[5, ::2] = np.resize([-0.0, 0.0], 9)
    lines = floatrepr._Lines(b"," * 18, 24 + 2, least=len(rows))
    for i in range(len(rows)):  # the time in bytes 0-23, the agent after it
        time_s, agent = repr(0.1 * i).encode(), b",%d" % i
        lines.prefix[i, :len(time_s)] = np.frombuffer(time_s, dtype=np.uint8)
        lines.prefix[i, 24:24 + len(agent)] = np.frombuffer(agent, dtype=np.uint8)
    want = "".join(f"{0.1 * i!r},{i},{','.join(map(repr, row))}\n" for i, row in enumerate(rows.tolist()))
    assert lines.text(rows) == want
    for sign in (True, False):  # each column holds a zero of each sign
        assert ((rows == 0.0) & (np.signbit(rows) == sign)).any(axis=0).all()


def test_columns_separators_and_signs():
    lines = floatrepr._Lines(b"\0,;")
    values = np.array([[-0.0, 1.5, -np.nan], [-np.inf, -1e-07, 2.0], [5e-324, -5e-324, 1e300]])
    assert lines.text(values) == "-0.0,1.5;nan\n-inf,-1e-07;2.0\n5e-324,-5e-324;1e+300\n"


# --- write_trace_csv --------------------------------------------------------


def _reference_csv(trace) -> str:
    """The trace CSV as write_trace_csv wrote it before the array formatter:
    one row at a time, each float through repr."""
    fh = io.StringIO()
    fh.write(",".join(TRACE_COLUMNS) + "\n")
    for rec in trace.records:
        t = repr(float(rec.time))
        columns = (rec.positions, rec.velocities, rec.observed_self, rec.setpoints, rec.costs)
        rows = np.hstack((*columns, rec.grad_norms[:, None]), dtype=float).tolist()
        for i, row in enumerate(rows):
            fh.write(f"{t},{i},{','.join(map(repr, row))}\n")
    return fh.getvalue()


@pytest.fixture(scope="module")
def traces():
    traces = {name: run_scenario(case()) for name, case in CASES.items()}
    # A flock larger than one block of _BLOCK_VALUES values (256 trace rows).
    traces["pfc_B_none_300"] = run_scenario(_preset("PFC", "B", "none", seed=8, n=300, duration=1.0))
    return traces


@pytest.mark.parametrize("name, block_rows", [
    *((name, rows) for name in sorted(CASES) for rows in (7, None)), ("pfc_B_none_300", None)])
def test_trace_csv_equals_the_repr_loop(monkeypatch, tmp_path, traces, name, block_rows):
    # Seven rows per block are fewer than one record of these flocks of 10
    # and 64, so each block holds one record; so does each default block of
    # the 300-agent flock.
    if block_rows is not None:
        monkeypatch.setattr(floatrepr, "_BLOCK_VALUES", 18 * block_rows)
    trace = traces[name]
    want = _reference_csv(trace)
    buf, path = io.StringIO(), tmp_path / "trace.csv"
    write_trace_csv(trace, buf)
    write_trace_csv(trace, path)
    assert buf.getvalue() == want
    assert path.read_bytes() == want.encode()


def test_trace_csv_of_unusual_values(traces):
    # Times and values that take exponent notation, zeros of both signs,
    # subnormals, inf and nan, as a diverging or hand-built trace may hold.
    odd = np.array([np.nan, -np.inf, np.inf, -0.0, 5e-324, -2.2250738585072009e-308, 1e-05,
                    -1.2345678901234567e-300, 1e16, 9999999999999998.0, 1e300, 0.0001])
    trace = traces["spc_A_none"]
    records = []
    for k, rec in enumerate(trace.records[:6]):
        n = len(rec.grad_norms)
        fill = np.resize(np.roll(odd, k), (n, 3))
        records.append(replace(rec, time=(1e-07, -0.0, 12345678.123456789, 1e22, 0.5, 3.0)[k],
                               positions=fill, costs=np.resize(odd[::-1], (n, 5)), grad_norms=fill[:, 0]))
    odd_trace = replace(trace, records=tuple(records))
    buf = io.StringIO()
    write_trace_csv(odd_trace, buf)
    assert buf.getvalue() == _reference_csv(odd_trace)


# --- the whole-range sweep ----------------------------------------------------


def sweep(patterns: int = 4_000_000, chunk: int = 1 << 18, seed: int = 2024) -> int:
    """Every power of two and of ten with its neighbours, then `patterns`
    random bit patterns (every pattern equally likely, in chunks of `chunk`
    values), against repr().  Tier-1 runs fixed samples of these; this runs
    the whole sweep:

        PYTHONPATH=src python tests/test_floatrepr.py

    in about 10 s.  It prints the count, and stops on the first chunk that
    differs (an AssertionError naming the values, exit 1)."""
    start = time.perf_counter()
    test_powers_of_two_and_their_neighbours()
    test_powers_of_ten_and_their_neighbours()
    rng = np.random.default_rng(seed)
    for lo in range(0, patterns, chunk):
        _assert_repr(rng.integers(0, 2**64, min(chunk, patterns - lo), dtype=np.uint64).view(np.float64))
    print(f"{patterns} random bit patterns, powers of two and ten: the bytes of repr(), "
          f"in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(sweep())
