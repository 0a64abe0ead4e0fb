"""Tier-2 trace JIT tests: differential equality against the
interpreter with traces actually formed, exact side-exit accounting,
multi-version promotion under a shifting branch profile, step-limit
parity, invalidation severing installed traces, the guards of a trace
that inlines a call (call hooks, host functions, code writes into the
callee), the memory state a trace keeps between entries (hoisted
read-only cells, per-site segment slots), and the shape of the code it
emits for stack slots and live ADD flags.

Every machine here uses hair-trigger thresholds (``hot_threshold=4,
min_edge=1``) so small test loops promote; the assertions on
``trace_installs``/``trace_iterations`` prove the trace tier actually
executed the iterations being compared, not tier 1.
"""

from __future__ import annotations

import re
import struct

import pytest

from repro.asm.assembler import assemble
from repro.errors import CpuError
from repro.experiments.tracejit_exp import add_jit_counters
from repro.isa.registers import GPR
from repro.machine import blockjit, tracejit
from repro.machine.tracejit import TraceJIT
from repro.machine.vm import Machine
from repro.models.stencil import StencilLab
from repro.obs import Metrics
from tests.machine.test_selfmodify import _call_heap_slot
from tests.machine.test_tier_parity import CALL_LOOPS

#: Aggressive promotion thresholds for test-sized loops.
HOT = dict(hot_threshold=4, min_edge=1)


def machine_at(tier: int) -> Machine:
    m = Machine()
    if tier:
        m.enable_jit(trace=tier == 2, **(HOT if tier == 2 else {}))
    return m


def inlined(jit, addr: int) -> bool:
    """Does a live trace version compile the code at ``addr``?"""
    return any(s <= addr < e for table in jit.versions.values()
               for ver in table.values() for s, e in ver.spans)


def fingerprint(machine, result):
    """Full architectural outcome of one run, bitwise-comparable."""
    cpu = machine.cpu
    return (
        result.uint_return,
        struct.pack("<d", result.float_return),
        result.steps,
        tuple(sorted(result.perf.as_dict().items())),
        tuple(cpu.regs),
        tuple(tuple(x) for x in cpu.xmm),
        cpu.pc,
    )


#: Hot-loop programs covering the trace compiler's operand families:
#: integer arithmetic with a division, arrays (load + store sites in
#: multiple segments), float accumulation with comparisons, and a
#: two-block cycle (loop body + guard).
PROGRAMS = {
    "intloop": """
        long main() {
            long t; long i;
            t = 0;
            for (i = 1; i <= 400; i = i + 1) { t = t + i * 3 - t / 7; }
            return t;
        }
    """,
    "arrays": """
        long main() {
            long a[64]; long i; long t;
            for (i = 0; i < 64; i = i + 1) { a[i] = i * 5 % 17; }
            t = 0;
            for (i = 0; i < 64; i = i + 1) { t = t + a[63 - i]; }
            return t;
        }
    """,
    "floats": """
        double main() {
            double total; long i; double x;
            total = 0.0;
            for (i = 0; i < 300; i = i + 1) {
                x = i * 0.25 - 20.0;
                if (x < 0.0) { x = 0.0 - x; }
                total = total + x / (x + 1.0);
            }
            return total;
        }
    """,
    "rare_branch": """
        long main() {
            long t; long i;
            t = 0;
            for (i = 0; i < 500; i = i + 1) {
                if (i == 437) { t = t + 1000000; }
                t = t + i;
            }
            return t;
        }
    """,
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_differential_bit_for_bit_with_traces(name):
    src = PROGRAMS[name]
    interp = Machine()
    interp.load(src)
    traced = Machine()
    traced.load(src)
    traced.enable_jit(trace=True, **HOT)
    r_i = interp.call("main")
    r_t = traced.call("main")
    assert fingerprint(interp, r_i) == fingerprint(traced, r_t)
    stats = traced.jit.stats()
    assert stats["trace_installs"] > 0, "no trace formed — nothing tested"
    assert stats["trace_iterations"] > 0
    assert stats["interp_fallbacks"] == 0
    # second run: warm traces, still identical
    assert fingerprint(interp, interp.call("main")) == fingerprint(
        traced, traced.call("main")
    )


def test_side_exit_accounting_exact():
    """The loop's final iteration disagrees with the recorded branch
    direction, so every run ends through a guarded side exit; steps and
    every deterministic perf counter must still match the interpreter
    exactly (the ``_ran_partial`` contract)."""
    src = ("long f(long n) { long t; long i; t = 0;"
           " for (i = 0; i < n; i = i + 1) { t = t + i * 2; } return t; }")
    interp = Machine()
    interp.load(src)
    traced = Machine()
    traced.load(src)
    traced.enable_jit(trace=True, **HOT)
    for n in (50, 51, 1, 0, 200):
        r_i = interp.call("f", n)
        r_t = traced.call("f", n)
        assert fingerprint(interp, r_i) == fingerprint(traced, r_t), n
    stats = traced.jit.stats()
    assert stats["trace_side_exits"] > 0
    assert stats["interp_fallbacks"] == 0


def test_max_steps_parity_on_nonterminating_loop():
    src = ("long main() { long t; t = 0;"
           " for (t = 0; t >= 0; t = t + 1) { } return t; }")
    msgs = []
    for trace in (False, None):
        m = Machine()
        m.load(src)
        if trace is None:
            m.enable_jit(trace=True, **HOT)
        with pytest.raises(CpuError) as exc:
            m.call("main", max_steps=5000)
        msgs.append(str(exc.value))
    assert msgs[0] == msgs[1]  # same step count, same faulting pc


def test_max_steps_boundary_exact():
    """A hot-loop run finishing in exactly N steps must succeed with
    max_steps=N and fail with N-1, same as the interpreter — the trace's
    iteration cap may never overstep the budget."""
    src = ("long main() { long t; long i; t = 0;"
           " for (i = 0; i < 100; i = i + 1) { t = t + i; } return t; }")
    interp = Machine()
    interp.load(src)
    steps = interp.call("main").steps
    m = Machine()
    m.load(src)
    m.enable_jit(trace=True, **HOT)
    assert m.call("main", max_steps=steps).int_return == 4950
    assert m.jit.stats()["trace_iterations"] > 0
    with pytest.raises(CpuError):
        m.call("main", max_steps=steps - 1)


def test_multi_version_traces_on_phase_shift(monkeypatch):
    """A branch profile that flips halfway (local phase, then remote
    phase) must deactivate the first trace and promote a second version
    keyed by the new direction signature — and stay bit-for-bit."""
    src = """
        long f(long n) {
            long t; long i;
            t = 0;
            for (i = 0; i < 2 * n; i = i + 1) {
                if (i < n) { t = t + 3; } else { t = t + i; }
            }
            return t;
        }
    """
    interp = Machine()
    interp.load(src)
    traced = Machine()
    traced.load(src)
    monkeypatch.setattr(blockjit, "DEACT_MIN_EXITS", 2)
    traced.enable_jit(trace=True, **HOT)
    for n in (400, 400, 400):
        assert fingerprint(interp, interp.call("f", n)) == fingerprint(
            traced, traced.call("f", n))
    stats = traced.jit.stats()
    assert stats["trace_versions"] >= 2, stats
    assert stats["trace_deactivations"] >= 1, stats
    assert stats["interp_fallbacks"] == 0


#: One loop calling through a function pointer, and five callees: one
#: more than a head keeps versions.
POINTER_SRC = """
    typedef long (*fn_t)(long);
    noinline long c0(long x) { return x + 1; }
    noinline long c1(long x) { return x * 3; }
    noinline long c2(long x) { return x - 7; }
    noinline long c3(long x) { return x ^ 5; }
    noinline long c4(long x) { return x + x + 2; }
    long run(fn_t fp, long n) {
        long t = 0;
        for (long i = 0; i < n; i++) { t = t + fp(i); }
        return t;
    }
"""
POINTER_CALLEES = {
    "c0": lambda x: x + 1, "c1": lambda x: x * 3, "c2": lambda x: x - 7,
    "c3": lambda x: x ^ 5, "c4": lambda x: x + x + 2,
}


def test_full_version_table_evicts_the_oldest_version():
    """A fifth call target evicts the head's oldest version instead of
    pinning the head to tier 1: every run of a second round over the
    five callees is traced again (production thresholds)."""
    m = Machine()
    m.load(POINTER_SRC)
    jit = m.enable_jit(trace=True)
    for round_ in range(2):
        for name, fn in POINTER_CALLEES.items():
            before = jit.stats()["trace_iterations"]
            r = m.call("run", m.symbol(name), 400)
            assert r.int_return == sum(fn(i) for i in range(400)), name
            if round_:
                assert jit.stats()["trace_iterations"] > before, name
    assert all(len(t) <= tracejit.MAX_VERSIONS for t in jit.versions.values())


def test_rebuilt_versions_reuse_their_compiled_code(monkeypatch):
    """A second round over five callees rebuilds the versions the first
    round evicted from identical source, so it makes no ``compile()``
    call, and every run is still traced."""
    m = Machine()
    m.load(POINTER_SRC)
    jit = m.enable_jit(trace=True)
    for name in POINTER_CALLEES:
        m.call("run", m.symbol(name), 400)
    calls = []

    def counting(*args):
        calls.append(args[1])
        return compile(*args)

    for module in (blockjit, tracejit):  # both tiers' compile() calls
        monkeypatch.setattr(module, "compile", counting, raising=False)
    trace_compiles = jit.stats()["trace_compiles"]
    for name, fn in POINTER_CALLEES.items():
        before = jit.stats()["trace_iterations"]
        r = m.call("run", m.symbol(name), 400)
        assert r.int_return == sum(fn(i) for i in range(400)), name
        assert jit.stats()["trace_iterations"] > before, name
    assert jit.stats()["trace_compiles"] > trace_compiles
    assert calls == []


def test_version_reuse_no_recompile_in_steady_state(monkeypatch):
    """Once both versions of a phase-shifting loop are compiled, further
    calls swap installed versions without new compiles, and a
    deactivation puts the head's tier-1 block back instead of
    translating it again."""
    src = """
        long f(long n) {
            long t; long i;
            t = 0;
            for (i = 0; i < 2 * n; i = i + 1) {
                if (i < n) { t = t + 3; } else { t = t + i; }
            }
            return t;
        }
    """
    m = Machine()
    m.load(src)
    monkeypatch.setattr(blockjit, "DEACT_MIN_EXITS", 2)
    m.enable_jit(trace=True, **HOT)
    for _ in range(4):
        m.call("f", 300)
    before = m.jit.stats()
    for _ in range(3):
        m.call("f", 300)
    after = m.jit.stats()
    assert after["trace_compiles"] == before["trace_compiles"]
    assert after["trace_deactivations"] > before["trace_deactivations"]
    assert after["compiles"] == before["compiles"]


def test_invalidation_severs_installed_traces():
    """An in-place poke over a traced function must retire its versions
    and drop the installed entry; the next run executes the new bytes."""
    src = ("long main() { long t; long i; t = 0;"
           " for (i = 0; i < 200; i = i + 1) { t = t + 2; } return t; }")
    m = Machine()
    m.load(src)
    m.enable_jit(trace=True, **HOT)
    assert m.call("main").int_return == 400
    stats = m.jit.stats()
    assert stats["installed_traces"] > 0
    entry = m.image.resolve("main")
    size = m.image.function_sizes.get(entry, 64)
    m.image.poke(entry, bytes(m.image.peek(entry, size)))  # same bytes, still a code write
    stats = m.jit.stats()
    assert stats["installed_traces"] == 0
    assert stats["trace_invalidations"] >= 1
    assert m.call("main").int_return == 400  # re-profiles and re-traces


def test_reserve_rewrite_drops_overlapping_traces():
    """Snapshot re-placement pins rewrite-segment ranges via
    ``reserve_rewrite``; a pinned range overlapping a traced body must
    sever the trace exactly like a poke (the generation bump makes the
    dispatch loop re-resolve instead of running the stale entry)."""
    from repro.asm.assembler import assemble

    loop_src = "\n".join([
        "xor rax, rax",
        "mov rcx, 0",
        "loop:",
        "add rax, rcx",
        "add rcx, 1",
        "cmp rcx, 150",
        "jne loop",
        "ret",
    ])
    m = Machine()
    m.load("long main() { return 0; }")  # gives the image a toolchain
    m.enable_jit(trace=True, **HOT)
    # two-phase assembly into the rewrite segment, the region
    # reserve_rewrite manages
    probe, _ = assemble(loop_src, 0)
    addr = m.image.alloc_rewrite(len(probe))
    code, _ = assemble(loop_src, addr)
    m.image.poke(addr, code)
    m.image.define_symbol("hot2", addr)

    gen_before = m.jit.gen
    assert m.call("hot2").int_return == sum(range(150))
    assert m.jit.stats()["installed_traces"] > 0
    # pinning only the 8-byte header must NOT drop the loop trace —
    # trace invalidation is span-precise, like tier 1's
    m.image.reserve_rewrite(addr, 8)
    assert m.jit.stats()["installed_traces"] == 1
    # pinning the whole body severs it and bumps the generation
    m.image.reserve_rewrite(addr, len(code))
    assert m.jit.gen != gen_before
    assert m.jit.stats()["installed_traces"] == 0
    assert m.jit.stats()["trace_invalidations"] >= 1
    assert m.call("hot2").int_return == sum(range(150))


def test_trace_stats_count_compiles_installs_and_iterations():
    m = Machine()
    m.load("long main() { long t; long i; t = 0;"
           " for (i = 0; i < 300; i = i + 1) { t = t + i; } return t; }")
    m.enable_jit(trace=True, **HOT)
    m.call("main")
    stats = m.jit.stats()
    assert stats["trace_compiles"] > 0
    assert stats["trace_installs"] > 0
    assert stats["trace_entries"] > 0
    assert stats["trace_iterations"] > 0
    # a code write drops the version; its counts stay in the totals
    head = next(iter(m.jit.versions))
    m.image.poke(head, m.image.peek(head, 1))
    after = m.jit.stats()
    assert after["trace_versions"] == 0 and after["trace_invalidations"] == 1
    for key in ("trace_entries", "trace_side_exits", "trace_iterations"):
        assert after[key] == stats[key], key


#: docs/MACHINE.md's ``jit.*`` names for the cumulative ``stats()`` keys.
JIT_COUNTER_NAMES = {
    "compiles": "jit.compiles",
    "hits": "jit.hits",
    "chain_follows": "jit.chain_follows",
    "reuses": "jit.reuses",
    "invalidations": "jit.invalidations",
    "interp_fallbacks": "jit.interp_fallbacks",
    "trace_compiles": "jit.trace.compiles",
    "trace_installs": "jit.trace.installs",
    "trace_deactivations": "jit.trace.deactivations",
    "trace_aborts": "jit.trace.aborts",
    "trace_invalidations": "jit.trace.invalidations",
    "trace_entries": "jit.trace.entries",
    "trace_side_exits": "jit.trace.side_exits",
    "trace_iterations": "jit.trace.iterations",
}


def test_ext10_exports_nonzero_cumulative_stats_under_schema_names():
    jits = []
    for n in (300, 40):
        m = Machine()
        m.load("long main() { long t; long i; t = 0;"
               f" for (i = 0; i < {n}; i = i + 1) {{ t = t + i; }} return t; }}")
        m.enable_jit(trace=True, **HOT)
        m.call("main")
        jits.append(m.jit)
    head = next(iter(m.jit.versions))
    m.image.poke(head, m.image.peek(head, 1))  # invalidates one JIT's trace
    metrics = Metrics()
    add_jit_counters(metrics, jits)
    want = {}
    for jit in jits:
        stats = jit.stats()
        assert set(stats) - set(JIT_COUNTER_NAMES) == {
            "cached_blocks", "chain_edges", "trace_versions",
            "installed_traces"}
        for key, name in JIT_COUNTER_NAMES.items():
            if stats[key]:
                want[name] = want.get(name, 0) + stats[key]
    assert "jit.trace.invalidations" in want  # nonzero on one JIT only
    assert "jit.interp_fallbacks" not in want  # zero on every JIT
    assert metrics.as_dict()["counters"] == dict(sorted(want.items()))


def test_stats_schema_superset_of_tier1():
    m = Machine()
    m.load("long main() { return 1; }")
    m.enable_jit(trace=True)
    m.call("main")
    stats = m.jit.stats()
    for key in ("compiles", "hits", "chain_follows", "reuses",
                "interp_fallbacks", "trace_compiles", "trace_installs",
                "trace_deactivations", "trace_aborts",
                "trace_invalidations", "trace_entries", "trace_side_exits",
                "trace_iterations", "trace_versions", "installed_traces"):
        assert key in stats, key


def test_enable_is_idempotent_and_guards_tier_conflict():
    m = Machine()
    m.load("long main() { return 1; }")
    jit = m.enable_jit(trace=True)
    assert isinstance(jit, TraceJIT)
    assert m.enable_jit(trace=True) is jit
    m2 = Machine()
    tier1 = m2.enable_jit()
    m2.load("long main() { return 1; }")
    with pytest.raises(RuntimeError):
        m2.enable_jit(trace=True)
    assert m2.enable_jit() is tier1
    # Thresholds belong to the trace tier and are fixed once attached:
    # neither call may hand back an engine that ignored them.
    with pytest.raises(TypeError, match="trace=True"):
        Machine().enable_jit(hot_threshold=4)
    with pytest.raises(TypeError, match="trace=True"):
        m2.enable_jit(min_edge=1)
    with pytest.raises(RuntimeError, match="hot_threshold"):
        m.enable_jit(trace=True, hot_threshold=4)
    assert jit.hot_threshold == tracejit.HOT_THRESHOLD
    m3 = Machine()
    hot = m3.enable_jit(trace=True, **HOT)
    assert (hot.hot_threshold, hot.min_edge) == (4, 1)
    assert m3.enable_jit(trace=True, **HOT) is hot  # the same values


#: A hot loop calling a helper once per iteration; ``bump`` is compiled
#: before ``main``, so the callee sits below the loop.
CALL_SRC = """
    noinline long bump(long x) { return x * 3 + 1; }
    long main(long n) {
        long t = 0;
        for (long i = 0; i < n; i++) { t = t + bump(i); }
        return t;
    }
"""


def test_call_hook_installed_after_formation_sees_every_call():
    """The call guard exits before the call while a hook is installed,
    so the hook sees the interpreter's calls, argument registers and
    instruction counts; formation refuses call paths meanwhile, so the
    trace is not reinstalled just to be deactivated again."""
    seqs = []
    for tier in (0, 1, 2):
        m = machine_at(tier)
        m.load(CALL_SRC)
        m.call("main", 60)
        seq = []
        m.cpu.call_hooks.append(lambda cpu, target, seq=seq: seq.append(
            (target, cpu.regs[GPR.RDI], cpu.perf.instructions)))
        if tier == 2:
            assert inlined(m.jit, m.symbol("bump"))
            installs = m.jit.stats()["trace_installs"]
        r = m.call("main", 60)
        seqs.append((seq, fingerprint(m, r)))
    assert seqs[0] == seqs[1] == seqs[2]
    assert len(seqs[0][0]) == 60
    assert m.jit.stats()["trace_installs"] == installs


def test_host_function_registered_at_callee_is_called_not_inlined():
    """The call guard hands a callee that became a host function to
    tier 1, and formation refuses it from then on."""
    results = []
    for tier in (0, 1, 2):
        m = machine_at(tier)
        m.load(CALL_SRC)
        m.call("main", 60)
        bump = m.symbol("bump")
        if tier == 2:
            assert inlined(m.jit, bump)
            installs = m.jit.stats()["trace_installs"]
        args = []

        def host(cpu, args=args):
            args.append(cpu.regs[GPR.RDI])
            cpu.regs[GPR.RAX] = cpu.regs[GPR.RDI] * 7

        m.cpu.host_functions[bump] = host
        r = m.call("main", 60)
        results.append((args, fingerprint(m, r)))
    assert results[0] == results[1] == results[2]
    assert results[0][0] == list(range(60))
    assert m.jit.stats()["trace_installs"] == installs


def test_promotion_decodes_nothing(monkeypatch):
    """Trace formation reads the instructions of the cached blocks on
    its path instead of decoding their bytes again."""
    in_promote, decodes = [False], []
    real_decode, real_promote = TraceJIT._decode_block, TraceJIT._promote

    def decode(self, addr):
        if in_promote[0]:
            decodes.append(addr)
        return real_decode(self, addr)

    def promote(self, head):
        in_promote[0] = True
        try:
            return real_promote(self, head)
        finally:
            in_promote[0] = False

    monkeypatch.setattr(TraceJIT, "_decode_block", decode)
    monkeypatch.setattr(TraceJIT, "_promote", promote)
    m = Machine()
    m.load(CALL_SRC)
    m.enable_jit(trace=True, **HOT)
    assert m.call("main", 60).int_return == sum(3 * i + 1 for i in range(60))
    assert m.jit.stats()["trace_installs"] > 0
    assert decodes == []


def _asm_at(m: Machine, addr: int, src: str, labels=None) -> bytes:
    code, _ = assemble(src, addr, extra_labels=labels)
    m.image.poke(addr, code)
    return code


@pytest.mark.parametrize("where", ["rewrite segment", "below the head"])
def test_poking_the_callee_severs_the_trace(where):
    """New bytes poked into an inlined callee sever the trace even
    though they lie outside the head's function: in the rewrite segment
    (above the head), or below the head, outside the installed entry's
    ``[head, end)`` range."""
    old, new = "add rax, 1\nret", "add rax, 7\nret"
    loop = ("mov r15, 50\nmov rax, 0\ntop:\ncall callee\n"
            "sub r15, 1\njne top\nret")
    size = len(assemble(old, 0)[0])
    assert len(assemble(new, 0)[0]) == size
    fps = []
    for tier in (0, 2):
        m = machine_at(tier)
        if where == "rewrite segment":
            callee = m.image.alloc_rewrite(size)
        else:
            callee = m.image.add_function("callee", b"\x00" * size)
        _asm_at(m, callee, old)
        labels = {"callee": callee}
        fn = m.image.add_function(
            "f", b"\x00" * len(assemble(loop, 0, extra_labels=labels)[0]))
        _asm_at(m, fn, loop, labels)
        assert m.call(fn).uint_return == 50
        if tier == 2:
            assert inlined(m.jit, callee)
            assert m.jit.stats()["installed_traces"] == 1
        _asm_at(m, callee, new)
        if tier == 2:
            stats = m.jit.stats()
            assert stats["installed_traces"] == 0, stats
            assert not inlined(m.jit, callee)
        r = m.call(fn)
        assert r.uint_return == 350
        fps.append(fingerprint(m, r))
    assert fps[0] == fps[1]


def test_direct_call_into_heap_code_aborts_formation_once():
    """A direct call into a non-executable heap slot never gets a chain
    link (the callee runs uncached, one step at a time), so no trace can
    pass it.  Formation says so once, structurally, instead of forming
    and aborting each time the loop gets hot (166 aborts over this loop
    when the call read as transient)."""
    m = Machine()
    slot = m.image.malloc(32, align=16)
    m.image.poke(slot, assemble("mov rax, 3\nret", slot)[0])
    caller = _call_heap_slot(m, slot)
    jit = m.enable_jit(trace=True)
    assert m.cpu.run(caller, 2000).uint_return == 2000 * 3
    stats = jit.stats()
    assert stats["trace_aborts"] <= 1, stats
    assert stats["interp_fallbacks"] == 2000 * 2
    assert stats["trace_installs"] == 0


def test_indirect_call_into_heap_code_stays_transient(monkeypatch):
    """A ``calli`` without links may still gain one (its target can
    change), so formation keeps calling that transient."""
    m = Machine()
    m.load(POINTER_SRC)
    slot = m.image.malloc(32, align=16)
    m.image.poke(slot, assemble("mov rax, 3\nret", slot)[0])
    jit = m.enable_jit(trace=True)
    verdicts = []
    form = jit._form_trace

    def recording(head):
        formed, why = form(head)
        verdicts.append(why)
        return formed, why

    monkeypatch.setattr(jit, "_form_trace", recording)
    assert m.call("run", slot, 2000).int_return == 2000 * 3
    assert verdicts and set(verdicts) == {"transient"}, verdicts
    assert not jit._no_trace


# ------------------------------------------------ hoisted loads, site slots
def _load_fn(m: Machine, src: str) -> int:
    size = len(assemble(src, 0)[0])
    fn = m.image.add_function(f"f{len(m.image.symbols)}", b"\x00" * size)
    _asm_at(m, fn, src)
    return fn


def _tier_runs(program, calls, between=lambda m, i: None):
    """Call ``program(m)``'s function with each argument tuple of
    ``calls`` on fresh machines at tiers 0 and 2, running
    ``between(m, i)`` before call ``i``.  Results, architectural state,
    perf counters and the bytes of the program's cell must agree;
    returns the tier-2 machine and the cell's address."""
    runs = []
    for tier in (0, 2):
        m = machine_at(tier)
        src, cell = program(m)
        fn = _load_fn(m, src)
        out = []
        for i, args in enumerate(calls):
            between(m, i)
            r = m.call(fn, *args)
            out.append((fingerprint(m, r), m.image.peek(cell, 8)))
        runs.append(out)
    assert runs[0] == runs[1]
    return m, cell


def _sum_back(m):
    """Adds a float literal cell to a running sum and stores the sum
    back into the cell, every iteration."""
    lit = m.image.float_literal(1.5)
    return (f"mov rcx, rdi\nxorpd xmm0, xmm0\ntop:\nmovsd xmm1, [{lit}]\n"
            f"addsd xmm0, xmm1\nmovsd [{lit}], xmm0\nsub rcx, 1\njne top\n"
            "ret"), lit


def test_hoisted_cell_is_read_again_after_a_store_into_it():
    """A load from a read-only cell at a constant address reads it in
    the trace's preamble, and the store into the same cell reads it
    again: each iteration sees the previous iteration's sum."""
    m, lit = _tier_runs(_sum_back, [(40,), (40,)])
    assert m.jit.stats()["trace_iterations"] > 0
    (table,) = m.jit.versions.values()
    (ver,) = table.values()
    pre, loop = ver.source.split("    for it_ in range(mx_):\n")
    off = lit - m.memory.segment_for(lit).base
    assert f"c0_0 = UDF(hd0_, {off})[0]" in pre
    assert "UDF(sd" not in loop  # no load site reads the cell


def _sum_of(m):
    """Adds a float literal cell to a running sum, every iteration."""
    lit = m.image.float_literal(0.5)
    return (f"mov rcx, rdi\nxorpd xmm0, xmm0\ntop:\naddsd xmm0, [{lit}]\n"
            "sub rcx, 1\njne top\nret"), lit


def test_host_poke_of_a_hoisted_cell_is_seen_at_the_next_entry():
    """The second call re-enters the same trace version, whose preamble
    reads the cell the host poked in between."""
    def poke(m, i):
        if i:
            m.image.poke(m.image.float_literal(0.5), struct.pack("<d", 4.0))

    m, _ = _tier_runs(_sum_of, [(60,), (60,)], poke)
    stats = m.jit.stats()
    assert stats["trace_compiles"] == 1 and stats["trace_entries"] >= 2


def test_journal_opened_between_entries_journals_the_trace_stores():
    """A warm trace's store site keeps its heap segment across entries,
    but reads ``watched`` afresh: the first store of the next call, made
    by the trace, journals the heap, and the rollback restores it."""
    m = machine_at(2)
    buf = m.image.malloc(64 * 8)
    # ``jmp top`` makes the trace, installed at ``top``, do every store
    fn = _load_fn(m, "mov rcx, rsi\njmp top\ntop:\nmov rax, rcx\n"
                     "add rax, rdx\nmov [rdi + rcx*8 - 8], rax\nsub rcx, 1\n"
                     "jne top\nret")
    m.call(fn, buf, 64, 0)
    assert m.jit.stats()["installed_traces"] == 1
    heap = m.memory.segment_by_name("heap")
    before, entries = bytes(heap.data), m.jit.stats()["trace_entries"]
    m.memory.open_journal()
    try:
        m.call(fn, buf, 64, 1000)
        assert m.jit.stats()["trace_entries"] > entries
        assert "heap" in m.memory.journal
        m.memory.rollback()
    finally:
        m.memory.close_journal()
    assert bytes(heap.data) == before


def test_site_moving_to_a_remote_segment_is_charged_its_surcharge():
    """A site whose slot holds the heap resolves the remote segment when
    its pointer moves there, and charges the same remote cycles as the
    interpreter."""
    runs = []
    for tier in (0, 2):
        m = machine_at(tier)
        remote = m.image.map_remote_node(0, 0x1000, 40).base
        m.image.poke(remote, struct.pack("<16Q", *range(16)))
        buf = m.image.malloc(16 * 8)
        m.image.poke(buf, struct.pack("<16Q", *range(100, 116)))
        fn = _load_fn(m, "mov rcx, rsi\nmov rax, 0\ntop:\n"
                         "add rax, [rdi + rcx*8 - 8]\nsub rcx, 1\njne top\nret")
        runs.append([fingerprint(m, m.call(fn, ptr, 16))
                     for ptr in (buf, remote)])
    assert runs[0] == runs[1]
    perf = dict(runs[1][1][3])
    assert perf["remote_accesses"] == 16 and perf["remote_cycles"] == 16 * 40
    assert m.jit.stats()["trace_entries"] >= 2


# ------------------------------------------- stack forwarding, ADD flags
#: A hot loop that pushes its counter, calls a helper and pops the
#: counter back; ``{alias}`` may store through a copy of ``rsp`` onto the
#: pushed slot in between.  The helper sits below the loop, so the
#: return is no back-edge and the trace starts at ``top``: the push and
#: the pop fall in one iteration.
PUSH_CALL = """
    jmp start
bump:
    add rax, 1
    ret
start:
    mov r15, 40
    mov rax, 0
top:
    push r15
{alias}
    call bump
    pop rcx
    add rax, rcx
    sub r15, 1
    jne top
    ret
"""
#: A return guard: the popped address against the recorded return site.
RET_GUARD = re.compile(r"if _t\d+ != \d+:")


def _loops(src: str) -> tuple[Machine, list[str]]:
    """Run ``src`` twice at tiers 0 and 2 (the fingerprints must agree);
    returns the tier-2 machine and the iteration loop of each of its
    trace versions."""
    fps = []
    for tier in (0, 2):
        m = machine_at(tier)
        fn = _load_fn(m, src)
        fps.append([fingerprint(m, m.call(fn)) for _ in range(2)])
    assert fps[0] == fps[1]
    assert m.jit.stats()["trace_iterations"] > 0
    return m, [ver.source.split("    for it_ in range(mx_):\n")[1]
               for table in m.jit.versions.values()
               for ver in table.values()]


def _load_sites(loop: str) -> set[str]:
    return set(re.findall(r"= U[QD]F\(sd(\d+)_", loop))


def test_pushed_values_reach_the_pop_and_the_return_without_a_load():
    """The pop reads the value the push kept, and the return reads the
    address the call pushed, so it needs no guard: no load site is
    left, though both loads are still counted (the fingerprint)."""
    _, (loop,) = _loops(PUSH_CALL.format(alias=""))
    assert _load_sites(loop) == set()
    assert not RET_GUARD.search(loop)


def test_a_store_through_a_copy_of_rsp_cancels_the_forward():
    """``mov [rbx], rax`` may alias any stack slot, so the pop after it
    reads memory (rax, not the pushed counter); the call's push comes
    after it, so the return still reads the kept address."""
    _, (loop,) = _loops(PUSH_CALL.format(alias="mov rbx, rsp\nmov [rbx], rax"))
    assert len(_load_sites(loop)) == 1
    assert not RET_GUARD.search(loop)


def test_a_rewritten_return_slot_still_exits():
    """The callee's store into its return slot replaces the address the
    call pushed, so the return keeps its guard and exits to the new
    address."""
    m, loops = _loops(CALL_LOOPS["callee rewrites its return slot"])
    assert all(RET_GUARD.search(loop) for loop in loops)
    assert m.jit.stats()["trace_side_exits"] > 0


def test_sweep_trace_reads_no_stack_slot_and_builds_no_add_flags():
    """The Sec. V sweep's trace (``sweep`` calling the specialized
    ``apply`` through its pointer) loads only the matrix and the frame
    (7 sites; the three argument pops, the return and the reload of r14
    read kept values), and its two flag-setting ADDs build no flags in
    the loop: only exits read them."""
    lab = StencilLab(48, 48)
    lab.machine.enable_jit(trace=True)
    lab.attach_service()
    lab.apply_via_service()
    lab.service.drain()
    entry = lab.apply_via_service()
    lab.machine.call("sweep", lab.m1, lab.m2, lab.xs, lab.ys, lab.s_addr,
                     entry)
    (table,) = lab.machine.jit.versions.values()
    (ver,) = table.values()
    loop = ver.source.split("    for it_ in range(mx_):\n")[1]
    assert len(_load_sites(loop)) == 7
    assert not RET_GUARD.search(loop)
    assert "zf_ =" not in loop
