"""Machine facade and performance-counter tests."""

from __future__ import annotations

import pytest

from repro.errors import CompileError, LinkError
from repro.machine.perf import PerfCounters
from repro.machine.vm import Machine


def test_load_returns_unit_record():
    m = Machine()
    unit = m.load("long f() { return 1; } long g() { return 2; }", unit="demo")
    assert unit.name == "demo"
    assert set(unit.functions) == {"f", "g"}
    assert unit.functions["f"] == m.symbol("f")


def test_load_compile_error_propagates():
    m = Machine()
    with pytest.raises(CompileError):
        m.load("long f() { return undeclared; }")


def test_call_by_name_and_address():
    m = Machine()
    m.load("long f(long a) { return a + 1; }")
    addr = m.symbol("f")
    assert m.call("f", 1).int_return == m.call(addr, 1).int_return == 2


def test_call_undefined_symbol():
    m = Machine()
    with pytest.raises(LinkError):
        m.call("missing")


def test_disassemble_function_requires_known_extent():
    m = Machine()
    m.load("long f() { return 1; }")
    assert "ret" in m.disassemble_function("f")
    with pytest.raises(KeyError):
        m.disassemble_function(0x123456)


def test_host_function_symbol_registered():
    m = Machine()
    addr = m.register_host_function("helper", lambda cpu: None)
    assert m.symbol("helper") == addr


@pytest.mark.parametrize("tier", [0, 1, 2])
def test_runs_have_independent_perf_deltas(tier):
    m = Machine()
    if tier:
        m.enable_jit(trace=tier == 2)
    m.load("long f(long n) { long t = 0; for (long i = 0; i < n; i++) t += i; return t; }")
    small = m.call("f", 2)
    big = m.call("f", 50)
    small2 = m.call("f", 2)
    assert big.cycles > small.cycles
    # deterministic, and every counter is this run's own delta
    assert small.perf == small2.perf


def test_perf_snapshot_and_delta():
    perf = PerfCounters()
    perf.cycles = 100
    perf.loads = 7
    snap = perf.snapshot()
    perf.cycles = 150
    perf.loads = 9
    delta = perf.delta(snap)
    assert delta.cycles == 50 and delta.loads == 2
    # snapshot unaffected
    assert snap.cycles == 100


def test_perf_reset():
    perf = PerfCounters()
    perf.cycles = 5
    perf.remote_accesses = 3
    perf.reset()
    assert perf == PerfCounters()


def test_perf_as_dict_roundtrip():
    perf = PerfCounters(cycles=10, instructions=4, calls=1)
    d = perf.as_dict()
    assert d["cycles"] == 10 and d["instructions"] == 4 and d["calls"] == 1
