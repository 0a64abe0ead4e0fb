"""Step-mode determinism: a seeded service workload is bit-for-bit
reproducible — same published entries, same emitted code bytes, same
metrics snapshot — across two independent runs.

The workload interleaves requests (varying functions, known arguments
and descriptor state), queue steps, descriptor mutations and explicit
invalidations under one ``random.Random(seed)`` schedule.  Nothing in
the pipeline may consult a clock, an unordered container or object
identity in a way that leaks into the outputs.
"""

from __future__ import annotations

import random

from repro.core import brew_init_conf, brew_setpar, BREW_KNOWN, BREW_PTR_TO_KNOWN
from repro.machine.vm import Machine
from repro.service import RewriteService

SOURCE = """
struct Cfg { long scale; long bias; };
noinline long apply_cfg(long x, struct Cfg *c) { return x * c->scale + c->bias; }
noinline long poly(long x, long k) { return x * k + k; }
noinline long mix(long a, long b, long c) { return a * b ^ c; }
"""

STEPS = 120


def _poly_conf():
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    return conf


def _mix_conf():
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    brew_setpar(conf, 3, BREW_KNOWN)
    return conf


def _cfg_conf():
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    return conf


def run_workload(seed: int) -> dict:
    """One full seeded service session, reduced to comparable artifacts."""
    m = Machine()
    m.load(SOURCE)
    svc = RewriteService(m)  # step mode, private manager + metrics
    cfg = m.image.malloc(16)
    m.memory.write_u64(cfg, 2)
    m.memory.write_u64(cfg + 8, 10)

    rng = random.Random(seed)
    entries: list[int] = []
    for _ in range(STEPS):
        roll = rng.random()
        if roll < 0.35:
            entries.append(
                svc.request(_poly_conf(), "poly", rng.randrange(100), rng.randrange(2, 6))
            )
        elif roll < 0.55:
            entries.append(svc.request(
                _mix_conf(), "mix",
                rng.randrange(100), rng.randrange(2, 5), rng.randrange(3),
            ))
        elif roll < 0.75:
            entries.append(svc.request(_cfg_conf(), "apply_cfg", 0, cfg))
        elif roll < 0.90:
            svc.step(limit=rng.randrange(1, 3))
        else:
            m.memory.write_u64(cfg, rng.randrange(2, 9))
            svc.manager.invalidate_memory(cfg, cfg + 8)
    svc.drain()

    published = sorted(
        e for e in set(svc.manager.published_entries().values())
        if e in m.image.function_sizes
    )
    code = {
        hex(e): m.image.peek(e, m.image.function_sizes[e]).hex()
        for e in published
    }
    return {
        "entries": entries,
        "code": code,
        "snapshot": svc.metrics.snapshot_json(),
        "service_stats": svc.stats(),
        "manager_stats": svc.manager.stats(),
    }


def test_seeded_workload_is_bit_for_bit_reproducible():
    a = run_workload(seed=42)
    b = run_workload(seed=42)
    assert a["entries"] == b["entries"]
    assert a["code"] == b["code"]
    assert a["snapshot"] == b["snapshot"], "metrics snapshot must be byte-identical"
    assert a["service_stats"] == b["service_stats"]
    assert a["manager_stats"] == b["manager_stats"]


def test_different_seeds_still_converge_on_correctness():
    """Whatever the schedule, every published entry computes what the
    original computes (a light differential sweep over the session)."""
    for seed in (1, 7):
        m = Machine()
        m.load(SOURCE)
        svc = RewriteService(m)
        rng = random.Random(seed)
        for _ in range(30):
            k = rng.randrange(2, 6)
            svc.request(_poly_conf(), "poly", 0, k)
            svc.step()
        for k in range(2, 6):
            entry = svc.request(_poly_conf(), "poly", 0, k)
            svc.drain()
            entry = svc.request(_poly_conf(), "poly", 0, k)
            for x in (0, 5, -3):
                want = m.call("poly", x, k).int_return
                assert m.call(entry, x, k).int_return == want


def test_workload_actually_exercised_the_cache():
    run = run_workload(seed=42)
    stats = run["service_stats"]
    assert stats["publishes"] > 0
    assert stats["warm_hits"] > 0
    assert stats["cold_misses"] > 0
    assert run["manager_stats"]["evictions"] > 0, "invalidations must bite"
    assert run["code"], "no published code captured"
