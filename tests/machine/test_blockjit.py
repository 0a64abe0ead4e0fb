"""Tier-1 block engine tests: differential equality against the
interpreter, code-cache invalidation by code writes (in-place pokes),
chaining, and step-limit parity."""

from __future__ import annotations

import struct

import pytest

from repro.asm.assembler import assemble
from repro.core import BREW_KNOWN, brew_init_conf, brew_rewrite, brew_setpar
from repro.errors import CpuError
from repro.machine import blockjit
from repro.machine.vm import Machine


def load(image, name, src, extra=None):
    """Two-phase hand-assembly into the code segment (same helper as
    the interpreter tests)."""
    probe, _ = assemble(src, base_addr=0, extra_labels=dict(extra or {}, **image.symbols))
    addr = image.add_function(name, b"\x00" * len(probe))
    code, _ = assemble(src, base_addr=addr, extra_labels=dict(extra or {}, **image.symbols))
    image.poke(addr, code)
    return addr


def machine(jit: bool) -> Machine:
    """A fresh machine, with the tier-1 engine attached when ``jit``."""
    m = Machine()
    if jit:
        m.enable_jit()
    return m


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


#: Minic programs covering every opclass family the compiler emits:
#: recursion + calls, integer loops with arrays and division, float
#: arithmetic with comparisons and conversions.
PROGRAMS = {
    "fib": "long fib(long n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }"
           " long main() { return fib(12); }",
    "loops": """
        long main() {
            long a[32]; long i; long total;
            for (i = 0; i < 32; i = i + 1) { a[i] = i * 7 % 13; }
            total = 0;
            for (i = 0; i < 32; i = i + 1) { total = total + a[i] / 3; }
            return total;
        }
    """,
    "floats": """
        double main() {
            double total; long i; double x;
            total = 0.0;
            for (i = 0; i < 64; i = i + 1) {
                x = i * 0.5 - 7.0;
                if (x < 0.0) { x = 0.0 - x; }
                total = total + x * x / (x + 1.0);
            }
            return total;
        }
    """,
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_differential_bit_for_bit(name):
    src = PROGRAMS[name]
    interp = Machine()
    interp.load(src)
    jitted = machine(True)
    jitted.load(src)
    r_i = interp.call("main")
    r_j = jitted.call("main")
    assert fingerprint(interp, r_i) == fingerprint(jitted, r_j)
    assert jitted.jit.stats()["interp_fallbacks"] == 0
    # second run: warm cache, still identical
    assert fingerprint(interp, interp.call("main")) == fingerprint(
        jitted, jitted.call("main")
    )


def test_host_function_parity():
    def host(cpu):
        cpu.regs[0] = cpu.regs[7] * 3  # rax = rdi * 3

    machines = []
    for jit in (False, True):
        m = machine(jit)
        m.register_host_function("triple", host)
        m.load("extern long triple(long x);"
               " long main() { return triple(7) + triple(10); }")
        machines.append(m)
    r_i = machines[0].call("main")
    r_j = machines[1].call("main")
    assert r_j.int_return == 51
    assert fingerprint(machines[0], r_i) == fingerprint(machines[1], r_j)


def test_host_function_sees_exact_counters_mid_call():
    """A host function observing perf mid-call must see the same
    counters under both tiers (block costs are charged *before* the
    call transfers, like the interpreter's per-step accounting)."""
    seen = []

    def probe(cpu):
        seen.append((cpu.perf.instructions, cpu.perf.cycles, cpu.perf.loads))
        cpu.regs[0] = 0

    values = []
    for jit in (False, True):
        seen.clear()
        m = machine(jit)
        m.register_host_function("probe", probe)
        m.load("extern long probe(long x);"
               " long main() { long i; for (i = 0; i < 3; i = i + 1)"
               " { probe(i); } return 0; }")
        m.call("main")
        values.append(list(seen))
    assert values[0] == values[1]


def test_chaining_and_hit_counters():
    m = machine(True)
    m.load("long main() { long i; long t; t = 0;"
           " for (i = 0; i < 100; i = i + 1) { t = t + i; } return t; }")
    assert m.call("main").int_return == 4950
    stats = m.jit.stats()
    assert stats["compiles"] > 0
    assert stats["chain_follows"] > 0  # the loop back-edge is chained
    before_hits = stats["hits"]
    m.call("main")
    assert m.jit.stats()["hits"] > before_hits  # warm cache reused
    assert m.jit.stats()["compiles"] == stats["compiles"]


def test_stale_block_never_executes_after_inplace_poke():
    """In-place rewrites of executable bytes (Image.poke) must drop the
    covering compiled block — the next run recompiles from the new
    bytes instead of executing the stale translation."""
    m = machine(True)
    addr = load(m.image, "f", "mov rax, 42\nret")
    assert m.call("f").int_return == 42
    assert m.jit.stats()["cached_blocks"] > 0
    replacement, _ = assemble("mov rax, 7\nret", base_addr=addr)
    m.image.poke(addr, replacement)
    assert m.jit.stats()["invalidations"] > 0
    assert m.call("f").int_return == 7


def test_retranslation_of_known_bytes_reuses_compiled_code(monkeypatch):
    """A block translated again from bytes it compiled before takes its
    code from the JIT's ``compile()`` memo, which drops its oldest entry
    when full."""
    monkeypatch.setattr(blockjit, "MAX_CODE_MEMO", 2)
    m = machine(True)
    addr = load(m.image, "f", "mov rax, 42\nret")
    bodies = {42: m.image.peek(addr, m.image.function_sizes[addr])}
    for value in (7, 9):
        bodies[value], _ = assemble(f"mov rax, {value}\nret", base_addr=addr)
        assert len(bodies[value]) == len(bodies[42])
    calls = []
    monkeypatch.setattr(blockjit, "compile",
                        lambda *a: calls.append(a[1]) or compile(*a),
                        raising=False)

    def run(value):
        m.image.poke(addr, bodies[value])
        assert m.call("f").int_return == value

    assert m.call("f").int_return == 42
    run(7)
    compiles, n_calls = m.jit.stats()["compiles"], len(calls)
    run(42)  # retranslated, memo hit
    assert m.jit.stats()["compiles"] > compiles and len(calls) == n_calls
    run(9)  # full memo: the oldest entry, 42's code, goes
    run(42)
    assert len(calls) == n_calls + 2 and len(m.jit._code_memo) == 2


def test_interpreter_cost_recomputed_after_inplace_rewrite():
    """Regression for the per-instruction cost cache: after rewriting
    code in place (the poke drops the overlapping decode-cache entries),
    the interpreter must charge the *new* instruction's cost (the old
    cache keyed on ``id(insn)``, which a recycled decode object could
    collide with)."""
    m = Machine()  # tier 0 only
    buf = m.image.malloc(8)
    m.memory.write_u64(buf, 5)
    addr = load(m.image, "f", "mov rax, 3\nret")
    plain = m.call("f")
    assert plain.int_return == 3
    replacement, _ = assemble(f"mov rax, [{buf}]\nret", base_addr=addr)
    assert len(replacement) > 0
    m.image.poke(addr, replacement)
    reloaded = m.call("f")
    assert reloaded.int_return == 5
    # the memory form must charge the load surcharge the register form
    # did not: recomputed, not replayed from a stale cache entry
    assert reloaded.perf.cycles > plain.perf.cycles
    assert reloaded.perf.loads == plain.perf.loads + 1  # the operand load


def test_max_steps_parity_on_nonterminating_loop():
    msgs = []
    for jit in (False, True):
        m = machine(jit)
        load(m.image, "spin", "top:\nmov rax, 1\nmov rcx, 2\njmp top")
        with pytest.raises(CpuError) as exc:
            m.call("spin", max_steps=1000)
        msgs.append(str(exc.value))
    assert msgs[0] == msgs[1]  # same step count, same faulting pc


def test_max_steps_boundary_exact():
    """A run that finishes in exactly N steps must succeed with
    max_steps=N under both tiers and fail with N-1 under both."""
    results = []
    for jit in (False, True):
        m = machine(jit)
        m.load("long main() { return 1 + 2; }")
        steps = m.call("main").steps
        m2 = machine(jit)
        m2.load("long main() { return 1 + 2; }")
        ok = m2.call("main", max_steps=steps)
        with pytest.raises(CpuError):
            m2.call("main", max_steps=steps - 1)
        results.append((steps, ok.int_return))
    assert results[0] == results[1]


def test_rewritten_function_runs_under_jit():
    """Rewriter output lands via emit_rewritten/reserve_rewrite into an
    executable segment; the block engine must compile and run it to the
    same result as the interpreter."""
    src = ("long dot(long n, long s) { long i; long t; t = 0;"
           " for (i = 0; i < n; i = i + 1) { t = t + i * s; } return t; }")
    outs = []
    for jit in (False, True):
        m = machine(jit)
        m.load(src)
        conf = brew_init_conf()
        brew_setpar(conf, 1, BREW_KNOWN)
        result = brew_rewrite(m, conf, "dot", 10, 3)
        assert result.ok
        run = m.call(result.entry, 10, 3)
        outs.append((run.uint_return, run.perf.cycles, run.steps))
    assert outs[0] == outs[1]
    assert outs[0][0] == sum(i * 3 for i in range(10)) & ((1 << 64) - 1)


def test_jit_stats_count_compiles_follows_and_invalidations():
    m = machine(True)
    m.load("long main() { long i; long t; t = 0;"
           " for (i = 0; i < 50; i = i + 1) { t = t + 2; } return t; }")
    m.call("main")
    stats = m.jit.stats()
    assert stats["compiles"] > 0
    assert stats["chain_follows"] > 0
    main = m.symbol("main")
    m.image.poke(main, m.image.peek(main, 1))  # same byte, still a code write
    assert m.jit.stats()["invalidations"] > 0


def test_reuses_counts_chain_follows_as_cache_hits():
    """Regression: ``reuses`` must count *every* cache reuse — both
    dict-probe hits and chained follows.  The old accounting only bumped
    ``hits``, so a fully-chained hot loop (the common steady state,
    where dispatch never touches the dict) looked like a cold cache."""
    m = machine(True)
    m.load("long main() { long i; long t; t = 0;"
           " for (i = 0; i < 80; i = i + 1) { t = t + i; } return t; }")
    m.call("main")
    stats = m.jit.stats()
    assert stats["reuses"] == stats["hits"] + stats["chain_follows"]
    # the loop back-edge chains, so reuses must exceed bare dict hits
    assert stats["reuses"] > stats["hits"]


def test_chain_graph_exposes_edge_frequencies():
    """``chain_graph()`` is the introspection view of the dispatch
    loop's edge profile: every cached block with links appears, edge
    counts match observed follows, and invalidation empties it."""
    m = machine(True)
    m.load("long main() { long i; long t; t = 0;"
           " for (i = 0; i < 60; i = i + 1) { t = t + i; } return t; }")
    m.call("main")
    graph = m.jit.chain_graph()
    assert graph, "a hot loop must leave chain links behind"
    for addr, edges in graph.items():
        assert isinstance(addr, int) and edges
        for pc, count in edges.items():
            assert isinstance(pc, int) and count >= 0
    # the loop back-edge is the hottest edge in the graph: one install
    # (count 0) plus one follow per remaining iteration
    hottest = max(count for edges in graph.values() for count in edges.values())
    assert hottest >= 58
    back_edges = [
        (addr, pc) for addr, edges in graph.items()
        for pc, count in edges.items() if pc <= addr and count == hottest
    ]
    assert back_edges, "hottest edge should be the loop back-edge"
    # total observed follows across the graph equals the loop's counter
    assert sum(count for edges in graph.values()
               for count in edges.values()) == m.jit.stats()["chain_follows"]
    main = m.symbol("main")
    m.image.poke(main, m.image.peek(main, 1))  # same byte, still a code write
    assert m.jit.chain_graph() == {}


def test_chain_graph_in_stats():
    m = machine(True)
    m.load("long main() { long i; long t; t = 0;"
           " for (i = 0; i < 40; i = i + 1) { t = t + 1; } return t; }")
    m.call("main")
    stats = m.jit.stats()
    assert stats["chain_edges"] == sum(
        len(edges) for edges in m.jit.chain_graph().values())


def test_enable_is_idempotent():
    m = machine(True)
    jit = m.jit
    assert m.enable_jit() is jit


def test_enable_jit_is_the_one_way_to_attach_an_engine():
    """No constructor flag attaches an engine and no run keeps the last
    run's registers; tier 1 shares the dispatch loop with tier 2 but
    keeps no back-edge profile."""
    with pytest.raises(TypeError):
        Machine(jit=True)
    m = Machine()
    load(m.image, "f", "mov rax, rbx\nret")
    with pytest.raises(TypeError):
        m.cpu.run("f", reset_regs=False)
    jit = m.enable_jit()
    assert type(jit) is blockjit.BlockJIT and jit.hot_threshold == 0
    m.cpu.regs[3] = 5  # rbx: every run starts from zeroed registers
    assert m.call("f").int_return == 0
