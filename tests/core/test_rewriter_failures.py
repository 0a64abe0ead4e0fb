"""Graceful-failure coverage: every documented failure reason is reachable
and never crashes (paper Sec. III.G: "this robustness is needed as we may
follow arbitrary code paths")."""

from __future__ import annotations

import pytest

from repro.asm.assembler import assemble
from repro.core import brew_init_conf, brew_rewrite, brew_setpar, BREW_KNOWN, BREW_PTR_TO_KNOWN
from repro.core import rewriter
from repro.machine.vm import Machine
from repro.models.stencil import StencilLab
from repro.testing import EXPECTED_REASON, FaultInjector


def load_asm(machine: Machine, name: str, src: str) -> int:
    probe, _ = assemble(src, 0, extra_labels=dict(machine.image.symbols))
    addr = machine.image.add_function(name, b"\x00" * len(probe))
    code, _ = assemble(src, addr, extra_labels=dict(machine.image.symbols))
    machine.image.poke(addr, code)
    return addr


@pytest.fixture()
def machine() -> Machine:
    return Machine()


def check_failure(machine, result, reason):
    assert not result.ok
    assert result.reason == reason, (result.reason, result.message)
    assert result.entry is None
    assert result.entry_or_original == result.original


def test_indirect_jump_unknown_target(machine):
    load_asm(machine, "f", "jmpi rdi")
    check_failure(machine, brew_rewrite(machine, brew_init_conf(), "f", 0),
                  "indirect-jump")


def test_decode_error_in_garbage(machine):
    addr = machine.image.add_function("garbage", b"\xff\xff\xff\xff")
    check_failure(machine, brew_rewrite(machine, brew_init_conf(), "garbage"),
                  "decode-error")


def test_trace_runs_into_nonexecutable_memory(machine):
    # a function that falls off its end into... nothing decodable; place
    # a jmp to a data address
    data = machine.image.add_data("blob", b"\x00" * 16)
    load_asm(machine, "f", f"mov rax, 1\njmp blob")
    result = brew_rewrite(machine, brew_init_conf(), "f")
    assert not result.ok
    assert result.reason in ("not-executable", "decode-error")


def test_buffer_full(machine):
    machine.load("""
    noinline long f(long n) {
        long t = 0;
        for (long i = 0; i < n; i++) t += i;
        return t;
    }
    """)
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    conf.max_output_instructions = 4
    check_failure(machine, brew_rewrite(machine, conf, "f", 1000), "buffer-full")


#: A loop whose induction variable survives ``makeDynamic`` at -O2, so
#: with a variant threshold of 4 the trace migrates (compensation code).
COUNT_SRC = """
noinline long makeDynamic(long x) { return x; }
noinline long count(long n) {
    long total = 0;
    for (long i = makeDynamic(0); i < n; i++)
        total += i * 2;
    return total;
}
"""
LOOP_SRC = """
noinline long f(long n) {
    long t = 0;
    for (long i = 0; i < n; i++) t += i;
    return t;
}
"""
#: A generated program whose third migration lands on a variant that
#: already exists, so its compensation edge goes straight there.
MERGE_SRC = """
noinline long fuzzed(long p0, long p1) {
long acc = p0;
for (long t1 = 0; t1 < 4; t1++) { acc = ((-(p1)) == acc); }
for (long t3 = 0; t3 < 5; t3++) { for (long t2 = 0; t2 < 3; t2++) { p0 = ((acc * p1) ^ (p0 < p0)); } }
for (long t4 = 0; t4 < 1; t4++) { if ((p0 + p1)) { p0 = (0 * acc); } }
acc = acc;
long t5 = ((p1 - acc) + p1);
return acc + ((5 / ((-3) | 1)) >= (t5 >= acc));
}
"""


def _buffer_full_case(case: str, limit: int):
    """``(machine, conf, fn, args)`` of one ``buffer-full`` pin."""
    conf = brew_init_conf()
    conf.max_output_instructions = limit
    if case == "apply":
        lab = StencilLab(16, 16)
        brew_setpar(conf, 2, BREW_KNOWN)
        brew_setpar(conf, 3, BREW_PTR_TO_KNOWN)
        return lab.machine, conf, "apply", (lab.m1 + 8 * 17, 16, lab.s_addr)
    m = Machine()
    brew_setpar(conf, 1, BREW_KNOWN)
    if case == "merge":
        m.load(MERGE_SRC)
        conf.variant_threshold = 4
        return m, conf, "fuzzed", (0, 0)
    if case == "count":
        m.load(COUNT_SRC, opt=2)
        conf.dynamic_markers.add(m.symbol("makeDynamic"))
        conf.variant_threshold = 4
        return m, conf, "count", (1000,)
    m.load(LOOP_SRC, opt=1)
    return m, conf, "f", (30,)


@pytest.mark.parametrize("case,limit,traced", [
    # nothing emitted yet: the first migration's compensation block alone
    # fills the buffer
    ("loop", 1, 206), ("loop", 9, 211),
    ("count", 64, 108), ("count", 79, 123),
    ("merge", 81, 187), ("merge", 90, 198),
    # the second output instruction is a deferred spill's store
    ("apply", 2, 8), ("apply", 3, 30), ("apply", 26, 123),
])
def test_buffer_full_fires_at_a_pinned_traced_instruction(
        monkeypatch, case, limit, traced):
    """The output budget counts every instruction a captured block
    holds, compensation blocks and spill stores included, so
    ``buffer-full`` fires at the same traced instruction as when the
    check re-summed every block at each step (the pinned counts)."""
    tracers = []

    class Recording(rewriter.Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracers.append(self)

    monkeypatch.setattr(rewriter, "Tracer", Recording)
    m, conf, fn, args = _buffer_full_case(case, limit)
    check_failure(m, brew_rewrite(m, conf, fn, *args), "buffer-full")
    assert tracers[-1].stats.traced_instructions == traced


def test_trace_limit(machine):
    machine.load("""
    noinline long f(long n) {
        long t = 0;
        for (long i = 0; i < n; i++) t += i;
        return t;
    }
    """)
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    conf.max_trace_steps = 50
    check_failure(machine, brew_rewrite(machine, conf, "f", 100000), "trace-limit")


def test_rsp_escape(machine):
    load_asm(machine, "f", "mov rsp, rdi\nret")
    result = brew_rewrite(machine, brew_init_conf(), "f", 0)
    check_failure(machine, result, "rsp-escape")


def test_stack_imbalance(machine):
    load_asm(machine, "f", "push rax\nret")
    result = brew_rewrite(machine, brew_init_conf(), "f")
    check_failure(machine, result, "stack-imbalance")


def test_bad_argument_types(machine):
    machine.load("noinline long f(long a) { return a; }")
    result = brew_rewrite(machine, brew_init_conf(), "f", "not-an-int")
    check_failure(machine, result, "bad-argument")


def test_ptr_to_known_unmapped(machine):
    machine.load("noinline long f(long *p) { return *p; }")
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_PTR_TO_KNOWN)
    result = brew_rewrite(machine, conf, "f", 0xDEAD_BEEF_0000)
    check_failure(machine, result, "bad-argument")


def test_known_division_by_zero(machine):
    machine.load("noinline long f(long a, long b) { return a / b; }")
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    brew_setpar(conf, 2, BREW_KNOWN)
    result = brew_rewrite(machine, conf, "f", 5, 0)
    check_failure(machine, result, "div-by-zero")


def test_failure_leaves_machine_usable(machine):
    """After any failure the machine and original function still work."""
    machine.load("noinline long f(long a) { return a * 2; }")
    conf = brew_init_conf()
    conf.max_output_instructions = 1
    result = brew_rewrite(machine, conf, "f", 3)
    assert not result.ok
    assert machine.call("f", 21).int_return == 42
    # and a subsequent rewrite with a sane budget succeeds
    good = brew_rewrite(machine, brew_init_conf(), "f", 3)
    assert good.ok
    assert machine.call(good.entry, 21).int_return == 42


def test_unknown_indirect_call_is_kept_not_failed(machine):
    """Extension beyond the paper: unknown indirect *calls* are kept with
    full compensation rather than failing (only unknown indirect jumps
    fail)."""
    machine.load("""
    noinline long target(long x) { return x + 5; }
    noinline long f(long (*fp)(long), long x) { return fp(x) + 1; }
    """)
    result = brew_rewrite(machine, brew_init_conf(), "f", 0, 0)
    assert result.ok, result.message
    t = machine.symbol("target")
    assert machine.call(result.entry, t, 10).int_return == 16


# ---------------------------------------------- failures on a warm cache
# The tracer fetches through the image's decode cache.  A cache that
# already holds the traced code (from an earlier rewrite or from
# execution) must hide neither the fetch checks nor an injected decode
# fault.

MUL2 = """
    mov rax, rdi
    imul rax, rsi
    ret
"""


def _known2_conf():
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    conf.passes = ()
    return conf


def _insn_addrs(machine, name, count):
    addr, addrs = machine.image.symbol(name), []
    for _ in range(count):
        addrs.append(addr)
        addr += machine.image.fetch(addr).size
    return addrs


@pytest.mark.parametrize("kind,nth", [("decode", 1), ("decode", 3),
                                      ("undecodable", 1), ("undecodable", 2)])
def test_decode_seams_fire_on_a_warm_cache(machine, kind, nth):
    """Rewrite once (every fetch fills the cache), then inject a decode
    fault and rewrite the same function again: each fetch is a cache
    hit, and the Nth still fails with the seam's reason."""
    load_asm(machine, "mul2", MUL2)
    assert brew_rewrite(machine, _known2_conf(), "mul2", 5, 7).ok
    addrs = _insn_addrs(machine, "mul2", 3)
    assert all(a in machine.image.decoded for a in addrs)
    with FaultInjector(kind, nth=nth) as injector:
        result = brew_rewrite(machine, _known2_conf(), "mul2", 5, 7)
    assert injector.fired and injector.calls == nth
    check_failure(machine, result, EXPECTED_REASON[kind])
    assert "injected-fault" in result.message
    again = brew_rewrite(machine, _known2_conf(), "mul2", 5, 7)
    assert again.ok and machine.call(again.entry, 6, 7).int_return == 42


@pytest.mark.parametrize("jit", [None, "block", "trace"])
def test_warm_cache_still_reports_not_executable(machine, jit):
    """Code in the data segment runs on every tier but is never cached,
    so a rewrite that reaches it fails ``not-executable`` however often
    it ran or was traced before."""
    blob = machine.image.add_data("blob", assemble("mov rax, 2\nret", 0)[0])
    load_asm(machine, "f", "mov rax, 1\njmp blob")
    if jit is not None:
        machine.enable_jit(trace=jit == "trace")
    for _ in range(3):
        assert machine.call("f").int_return == 2
        check_failure(machine, brew_rewrite(machine, brew_init_conf(), "f"),
                      "not-executable")
    assert machine.image.symbol("f") in machine.image.decoded
    assert blob not in machine.image.decoded


def test_warm_cache_still_reports_fetch_out_of_bounds(machine):
    """The cache holds only mapped bytes, so the fetch that walks off
    every segment misses and is checked: the trace fails the same way
    on a warm cache as on a cold one."""
    load_asm(machine, "f", "mov rax, 1\njmp 0x150000")
    for _ in range(2):
        check_failure(machine, brew_rewrite(machine, brew_init_conf(), "f"),
                      "fetch-out-of-bounds")
    assert all(a in machine.image.decoded
               for a in _insn_addrs(machine, "f", 2))
