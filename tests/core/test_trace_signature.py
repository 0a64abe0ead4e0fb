"""World-signature trace cache: known-read recording, sharing across
irrelevant differences, read-filtered invalidation, content-addressed
code dedup, and the manager's eviction accounting."""

from __future__ import annotations

import pytest

from repro.core import brew_init_conf, brew_setpar, BREW_KNOWN, BREW_PTR_TO_KNOWN
from repro.core.manager import SpecializationManager
from repro.core.rewriter import rewrite
from repro.machine.vm import Machine

SOURCE = """
struct Cfg { long scale; long bias; long unused; };
noinline long scaled(long x, struct Cfg *c) { return x * c->scale; }
noinline long affine(long x, struct Cfg *c) { return x * c->scale + c->bias; }
noinline long poly(long x, long k) { return x * k + k; }
"""


@pytest.fixture()
def setup():
    m = Machine()
    m.load(SOURCE)
    return m, SpecializationManager(m)


def _make_cfg(m, scale=2, bias=10, unused=77):
    cfg = m.image.malloc(24)
    m.memory.write_u64(cfg, scale)
    m.memory.write_u64(cfg + 8, bias)
    m.memory.write_u64(cfg + 16, unused)
    return cfg


# ------------------------------------------------------- tracer recording
def test_known_reads_recorded_on_result(setup):
    m, _ = setup
    cfg = _make_cfg(m)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    result = rewrite(m, conf, "affine", 0, cfg)
    assert result.ok, result.message
    reads = dict(result.known_reads)
    # scale and bias were consumed, the unused field was not
    assert reads[cfg] == 2 and reads[cfg + 8] == 10
    assert cfg + 16 not in reads


def test_known_reads_empty_without_known_memory(setup):
    m, _ = setup
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    result = rewrite(m, conf, "poly", 0, 3)
    assert result.ok and result.known_reads == ()


# ------------------------------------------------- key sharing (arguments)
def test_unknown_args_share_one_variant(setup):
    """The concrete value of an UNKNOWN argument cannot reach the trace,
    so calls differing only there must share one cache slot."""
    m, mgr = setup
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    r1 = mgr.get(conf, "poly", 0, 3)
    r2 = mgr.get(conf, "poly", 999, 3)
    assert r1.ok and r1.entry == r2.entry
    stats = mgr.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1 and len(mgr) == 1
    # ... while the *type* of an unknown argument still matters: float
    # vs int changes argument-register assignment
    r3 = mgr.get(conf, "poly", 0.5, 3)
    assert mgr.stats()["misses"] == 2 and r3.entry != r1.entry


def test_known_args_still_distinguish_variants(setup):
    m, mgr = setup
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    r3 = mgr.get(conf, "poly", 0, 3)
    r4 = mgr.get(conf, "poly", 0, 4)
    assert r3.entry != r4.entry
    assert m.call(r3.entry, 5, 3).int_return == 18
    assert m.call(r4.entry, 5, 4).int_return == 24


# --------------------------------------------- read-filtered invalidation
def test_unread_bytes_do_not_invalidate(setup):
    """Mutating a declared-known byte the trace never consumed keeps the
    variant fresh — the signature, not the declaration, is the dep."""
    m, mgr = setup
    cfg = _make_cfg(m)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    r1 = mgr.get(conf, "scaled", 0, cfg)
    assert r1.ok
    m.memory.write_u64(cfg + 8, 999)   # bias: declared known, never read
    m.memory.write_u64(cfg + 16, 888)  # unused: likewise
    r2 = mgr.get(conf, "scaled", 0, cfg)
    assert r2.entry == r1.entry and mgr.stats()["hits"] == 1
    # the read cell still invalidates
    m.memory.write_u64(cfg, 5)
    r3 = mgr.get(conf, "scaled", 0, cfg)
    assert r3.entry != r1.entry and mgr.stats()["misses"] == 2
    assert m.call(r3.entry, 6, cfg).int_return == 30


def test_invalidate_memory_is_read_filtered(setup):
    m, mgr = setup
    cfg = _make_cfg(m)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    assert mgr.get(conf, "scaled", 0, cfg).ok
    key = mgr.key_for("scaled", conf, (0, cfg))
    # a range covering only unread fields overlaps no dependency, and
    # neither does one far away
    assert mgr.invalidate_memory(cfg + 8, cfg + 24) == 0
    far = cfg + 1_000_000
    assert mgr.invalidate_memory(far, far + 8) == 0
    assert len(mgr) == 1
    # the read field does: exactly that key goes
    assert mgr.invalidate_memory(cfg, cfg + 8) == 1
    assert len(mgr) == 0 and mgr.cached_result(key) is None
    # nothing overlaps any more: re-invalidating drops nothing
    assert mgr.invalidate_memory(cfg, cfg + 8) == 0
    assert mgr.stats()["evictions"] == 1


# ------------------------------------------------- content-addressed dedup
def test_identical_bodies_dedup_across_keys(setup):
    """Two cache keys whose rewrites emit byte-identical code dispatch
    through one canonical entry."""
    m, mgr = setup
    cfg = _make_cfg(m)
    conf1 = brew_init_conf()
    brew_setpar(conf1, 2, BREW_PTR_TO_KNOWN)
    r1 = mgr.get(conf1, "scaled", 0, cfg)
    assert r1.ok
    # a second config differing only in an extra (never-read) declared
    # range: different fingerprint, hence a fresh rewrite — but the body
    # comes out byte-identical and is deduplicated
    scratch = m.image.malloc(8)
    conf2 = brew_init_conf()
    brew_setpar(conf2, 2, BREW_PTR_TO_KNOWN)
    conf2.add_known_memory(scratch, scratch + 8)
    r2 = mgr.get(conf2, "scaled", 0, cfg)
    assert r2.ok and mgr.stats()["misses"] == 2
    assert r2.entry == r1.entry
    assert mgr.stats()["code_dedup"] == 1
    assert m.call(r2.entry, 7, cfg).int_return == 14
    # the debug map moved onto the canonical body with the entry
    assert m.explain_rewrite(r2) == m.explain_rewrite(r1)


# -------------------------------------------------- eviction accounting
def test_stats_report_evictions_and_cache_size(setup):
    m, mgr = setup
    cfg = _make_cfg(m)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    assert mgr.get(conf, "scaled", 0, cfg).ok
    stats = mgr.stats()
    assert stats["cached"] == 1 and stats["evictions"] == 0
    # staleness eviction (detected inside get) counts
    m.memory.write_u64(cfg, 3)
    assert mgr.get(conf, "scaled", 0, cfg).ok
    assert mgr.stats()["evictions"] == 1
    # explicit invalidation counts too
    assert mgr.invalidate_memory(cfg, cfg + 8) == 1
    stats = mgr.stats()
    assert stats["evictions"] == 2 and stats["cached"] == 0
