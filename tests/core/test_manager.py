"""SpecializationManager tests."""

from __future__ import annotations

import pytest

from repro.core import brew_init_conf, brew_setpar, BREW_KNOWN, BREW_PTR_TO_KNOWN
from repro.core.manager import SpecializationManager
from repro.core.rewriter import RewriteResult, rewrite
from repro.machine.vm import Machine

SOURCE = """
struct Cfg { long scale; long bias; };
noinline long apply_cfg(long x, struct Cfg *c) { return x * c->scale + c->bias; }
noinline long poly(long x, long k) { return x * k + k; }
"""


@pytest.fixture()
def setup():
    m = Machine()
    m.load(SOURCE)
    return m, SpecializationManager(m)


def test_cache_hit_on_repeat(setup):
    m, mgr = setup
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    r1 = mgr.get(conf, "poly", 0, 3)
    r2 = mgr.get(conf, "poly", 0, 3)
    assert r1.ok and r1.entry == r2.entry
    stats = mgr.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1 and len(mgr) == 1


def test_different_args_are_different_variants(setup):
    m, mgr = setup
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    r3 = mgr.get(conf, "poly", 0, 3)
    r4 = mgr.get(conf, "poly", 0, 4)
    assert r3.entry != r4.entry
    assert m.call(r3.entry, 5, 3).int_return == 5 * 3 + 3
    assert m.call(r4.entry, 5, 4).int_return == 5 * 4 + 4


def test_known_memory_mutation_invalidates(setup):
    m, mgr = setup
    cfg = m.image.malloc(16)
    m.memory.write_u64(cfg, 2)       # scale
    m.memory.write_u64(cfg + 8, 10)  # bias
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    r1 = mgr.get(conf, "apply_cfg", 0, cfg)
    assert r1.ok
    assert m.call(r1.entry, 5, cfg).int_return == 20
    # same descriptor content: cache hit
    assert mgr.get(conf, "apply_cfg", 0, cfg).entry == r1.entry
    # mutate the descriptor: stale entry is dropped, new variant built
    m.memory.write_u64(cfg, 7)
    r2 = mgr.get(conf, "apply_cfg", 0, cfg)
    assert r2.entry != r1.entry
    assert m.call(r2.entry, 5, cfg).int_return == 45


def test_fresh_ptr_to_known_config_per_call_hits(setup):
    """The idiom every model uses: a fresh config per call.  Rewriting
    must not change the key an equal config derives, so an unsupervised
    manager misses once and then hits."""
    m, mgr = setup
    cfg = m.image.malloc(16)
    m.memory.write_u64(cfg, 2)
    m.memory.write_u64(cfg + 8, 10)
    for _ in range(4):
        conf = brew_init_conf()
        brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
        assert mgr.get(conf, "apply_cfg", 0, cfg).ok
    stats = mgr.stats()
    assert stats["misses"] == 1 and stats["hits"] == 3 and len(mgr) == 1


def test_invalidate_memory_by_range(setup):
    m, mgr = setup
    cfg = m.image.malloc(16)
    m.memory.write_u64(cfg, 3)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    mgr.get(conf, "apply_cfg", 0, cfg)
    assert len(mgr) == 1
    assert mgr.invalidate_memory(cfg, cfg + 8) == 1
    assert len(mgr) == 0
    # non-overlapping invalidation is a no-op (the PTR_TO_KNOWN extent
    # spans 64 KiB, so go well beyond it)
    mgr.get(conf, "apply_cfg", 0, cfg)
    far = cfg + 1_000_000
    assert mgr.invalidate_memory(far, far + 8) == 0


def test_invalidate_function(setup):
    m, mgr = setup
    c1, c2 = brew_init_conf(), brew_init_conf()
    brew_setpar(c1, 2, BREW_KNOWN)
    brew_setpar(c2, 1, BREW_KNOWN)
    mgr.get(c1, "poly", 0, 3)
    mgr.get(c2, "poly", 9, 0)
    assert len(mgr) == 2
    assert mgr.invalidate_function("poly") == 2


def test_failures_are_cached(setup):
    m, mgr = setup
    conf = brew_init_conf()
    conf.max_output_instructions = 1
    r1 = mgr.get(conf, "poly", 0, 0)
    r2 = mgr.get(conf, "poly", 0, 0)
    assert not r1.ok and r1 is r2
    stats = mgr.stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


class _FlakyRewriter:
    """A ``rewrite_fn`` stub: fails while ``failing`` is set, then
    delegates to the real pipeline — same cache key, different outcome,
    which is exactly the quarantine re-admission scenario."""

    def __init__(self, machine):
        self.machine = machine
        self.failing = True
        self.calls = 0

    def __call__(self, conf, fn, *args):
        self.calls += 1
        if self.failing:
            return RewriteResult(
                ok=False, original=self.machine.image.resolve(fn),
                reason="internal", message="injected flaky failure",
            )
        return rewrite(self.machine, conf, fn, *args)


def _quarantine_setup(backoff=10.0):
    m = Machine()
    m.load(SOURCE)
    now = [1000.0]
    flaky = _FlakyRewriter(m)
    mgr = SpecializationManager(
        m, rewrite_fn=flaky, backoff_seconds=backoff, clock=lambda: now[0]
    )
    return m, mgr, flaky, now


def test_quarantine_refused_before_backoff_expires():
    m, mgr, flaky, now = _quarantine_setup(backoff=10.0)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    r1 = mgr.get(conf, "poly", 0, 3)
    assert not r1.ok and flaky.calls == 1
    # inside the window: the cached failure is served, no new attempt
    now[0] += 9.999
    r2 = mgr.get(conf, "poly", 0, 3)
    assert r2 is r1 and flaky.calls == 1
    stats = mgr.stats()
    assert stats["quarantine_hits"] == 1 and stats["quarantine_retries"] == 0


def test_stats_fallbacks_count_quarantine_hits():
    """``stats()["fallbacks"]`` counts every failed result handed back,
    cached ones included; the ``manager.fallbacks`` counter counts only
    fresh failures (cached ones are ``manager.quarantine_hits``)."""
    m, mgr, flaky, now = _quarantine_setup(backoff=10.0)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    for _ in range(3):
        assert not mgr.get(conf, "poly", 0, 3).ok
    assert flaky.calls == 1
    assert mgr.stats()["fallbacks"] == 3
    assert mgr.metrics.value("manager.fallbacks") == 1
    assert mgr.metrics.value("manager.quarantine_hits") == 2


def test_quarantine_retried_after_backoff_and_window_doubles():
    m, mgr, flaky, now = _quarantine_setup(backoff=10.0)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    mgr.get(conf, "poly", 0, 3)             # failure #1, window = 10
    now[0] += 10.0
    mgr.get(conf, "poly", 0, 3)             # retried -> failure #2
    assert flaky.calls == 2 and mgr.stats()["quarantine_retries"] == 1
    # the window doubled to 20: refused at +19.999, retried at +20
    now[0] += 19.999
    mgr.get(conf, "poly", 0, 3)
    assert flaky.calls == 2 and mgr.stats()["quarantine_hits"] == 1
    now[0] += 0.001
    mgr.get(conf, "poly", 0, 3)             # retried -> failure #3
    assert flaky.calls == 3 and mgr.stats()["quarantine_retries"] == 2
    # and doubles again (40) from the time of failure #3
    now[0] += 39.999
    mgr.get(conf, "poly", 0, 3)
    assert flaky.calls == 3 and mgr.stats()["quarantine_hits"] == 2


def test_quarantine_readmission_after_recovery():
    m, mgr, flaky, now = _quarantine_setup(backoff=10.0)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    assert not mgr.get(conf, "poly", 0, 3).ok
    flaky.failing = False                   # the underlying cause is fixed
    # still refused until the window expires — quarantine holds
    now[0] += 5.0
    assert not mgr.get(conf, "poly", 0, 3).ok
    assert flaky.calls == 1
    # after expiry the retry goes through and the key is re-admitted
    now[0] += 5.0
    r = mgr.get(conf, "poly", 0, 3)
    assert r.ok and flaky.calls == 2
    assert m.call(r.entry, 5, 3).int_return == 5 * 3 + 3
    # and subsequent calls are plain cache hits, no more quarantine
    assert mgr.get(conf, "poly", 0, 3) is r
    assert mgr.stats()["quarantined"] == 0


def test_invalidate_memory_return_value_direct(setup):
    """Direct coverage of the ``invalidate_memory`` contract: the return
    value is exactly the number of dropped variants, per call."""
    m, mgr = setup
    cfg_a = m.image.malloc(16)
    cfg_b = m.image.malloc(16)
    m.memory.write_u64(cfg_a, 3)
    m.memory.write_u64(cfg_b, 4)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    assert mgr.get(conf, "apply_cfg", 0, cfg_a).ok
    conf_b = brew_init_conf()
    brew_setpar(conf_b, 2, BREW_PTR_TO_KNOWN)
    assert mgr.get(conf_b, "apply_cfg", 0, cfg_b).ok
    assert len(mgr) == 2
    # empty range: nothing dropped, epoch still bumps
    epoch = mgr.epoch
    assert mgr.invalidate_memory(0, 0) == 0
    assert mgr.epoch == epoch + 1
    # one descriptor's cell: exactly one variant dropped
    assert mgr.invalidate_memory(cfg_a, cfg_a + 8) == 1
    # everything: the remaining one
    assert mgr.invalidate_memory(0, 2**48) == 1
    assert mgr.invalidate_memory(0, 2**48) == 0
    assert len(mgr) == 0


def test_stats_keys_complete(setup):
    """``stats()`` exposes the full health vocabulary, including the
    cache-size and eviction counters."""
    m, mgr = setup
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    mgr.get(conf, "poly", 0, 3)
    stats = mgr.stats()
    for key in ("hits", "misses", "fallbacks", "quarantine_hits",
                "quarantine_retries", "quarantined", "cached",
                "evictions", "code_dedup", "epoch"):
        assert key in stats, key
    assert stats["cached"] == 1 and stats["evictions"] == 0
    assert mgr.invalidate_function("poly") == 1
    assert mgr.stats()["evictions"] == 1
    assert mgr.stats()["cached"] == 0
