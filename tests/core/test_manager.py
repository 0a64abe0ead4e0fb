"""SpecializationManager tests."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import brew_init_conf, brew_setpar, BREW_KNOWN, BREW_PTR_TO_KNOWN
from repro.core.config import FunctionConfig, Knownness, RewriteConfig
from repro.core.manager import (
    SpecializationManager, _config_fingerprint, _relevant_args,
)
from repro.core.persist import load_manager, save_manager
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
    cfg = m.image.malloc(16)
    m.memory.write_u64(cfg, 2)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    mgr.get(conf, "apply_cfg", 0, cfg)
    stats = mgr.stats()
    for key in ("hits", "misses", "fallbacks", "quarantine_hits",
                "quarantine_retries", "quarantined", "cached",
                "evictions", "code_dedup", "epoch"):
        assert key in stats, key
    assert stats["cached"] == 1 and stats["evictions"] == 0
    assert mgr.invalidate_memory(cfg, cfg + 8) == 1
    assert mgr.stats()["evictions"] == 1
    assert mgr.stats()["cached"] == 0


# ------------------------------------------- known arguments by exact value
#: ``scale(-2.0, -0.0)`` is +0.0, but a variant specialized for k = +0.0
#: multiplies by +0.0 and returns -0.0.
SCALE_SOURCE = "noinline double scale(double x, double k) { return x * k; }"


@pytest.fixture()
def scale_setup():
    m = Machine()
    m.load(SCALE_SOURCE)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    return m, SpecializationManager(m), conf


def _nan(bits: int) -> float:
    """A fresh float object holding the NaN with these bits."""
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def test_known_int_and_equal_float_get_their_own_keys(setup):
    m, mgr = setup
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    assert mgr.key_for("poly", conf, (5, 3)) != mgr.key_for("poly", conf, (5, 3.0))


def test_known_bool_is_not_served_the_int_variant(setup):
    m, mgr = setup
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    assert mgr.key_for("poly", conf, (5, 1)) != mgr.key_for("poly", conf, (5, True))
    assert mgr.get(conf, "poly", 5, 1).ok
    refused = mgr.get(conf, "poly", 5, True)
    assert not refused.ok and refused.reason == "bad-argument"
    assert len(mgr) == 2


def test_signed_zeros_get_their_own_variants(scale_setup):
    m, mgr, conf = scale_setup
    plus = mgr.get(conf, "scale", 2.0, 0.0)
    minus = mgr.get(conf, "scale", 2.0, -0.0)
    assert plus.ok and minus.ok and plus.entry != minus.entry
    for variant, k in ((plus, 0.0), (minus, -0.0)):
        want = m.call("scale", -2.0, k).float_return
        got = m.call(variant.entry, -2.0, k).float_return
        assert struct.pack("<d", got) == struct.pack("<d", want), k
    assert math.copysign(1.0, m.call(minus.entry, -2.0, -0.0).float_return) == 1.0


def test_equal_nan_bits_share_one_variant(scale_setup):
    m, mgr, conf = scale_setup
    for _ in range(4):
        assert mgr.get(conf, "scale", 2.0, _nan(0x7FF8000000000001)).ok
    stats = mgr.stats()
    assert (stats["misses"], stats["hits"], len(mgr)) == (1, 3, 1)
    mgr.get(conf, "scale", 2.0, _nan(0x7FF8000000000002))
    assert len(mgr) == 2  # other NaN bits, another variant


def test_snapshot_round_trips_a_key_with_a_known_inf(scale_setup, tmp_path):
    m, mgr, conf = scale_setup
    assert mgr.get(conf, "scale", 2.0, math.inf).ok
    path = save_manager(mgr, tmp_path / "spec.snap")
    restored = SpecializationManager(m)
    report = load_manager(restored, path)
    assert report.rejected == [] and len(report.restored_ok) == 1
    assert report.restored_ok == [mgr.key_for("scale", conf, (2.0, math.inf))]
    restored.get(conf, "scale", 2.0, math.inf)
    assert restored.stats()["hits"] == 1


# ------------------------------------------- key derivation equivalence
def _reference_config_fingerprint(conf) -> tuple:
    """``_config_fingerprint`` as it was first written (generator
    expressions and ``sorted``), kept to pin the keys it produced."""
    def fn_key(cfg) -> tuple:
        return (
            tuple(sorted((k, v.value) for k, v in cfg.params.items())),
            cfg.inline, cfg.force_unknown_results, cfg.conditionals_unknown,
        )

    return (
        tuple(sorted((str(k), fn_key(v)) for k, v in conf.functions.items())),
        tuple(sorted(conf.known_memory)),
        conf.variant_threshold,
        conf.deferred_spills,
        conf.inline_default,
        conf.passes,
        tuple(sorted(conf.dynamic_markers)),
        tuple(sorted(conf.dynamic_cells)),
    )


def _reference_relevant_args(conf, args: tuple) -> tuple:
    """``_relevant_args`` as it was first written."""
    entry_cfg = conf.function(None)
    out = []
    for position, arg in enumerate(args, start=1):
        knownness = entry_cfg.params.get(position, Knownness.UNKNOWN)
        if knownness is Knownness.UNKNOWN and type(arg) in (int, float):
            out.append(("?", type(arg).__name__))
        else:
            out.append(arg)
    return tuple(out)


_addrs = st.integers(0, 1 << 40)
_function_configs = st.builds(
    FunctionConfig,
    params=st.dictionaries(st.integers(1, 8), st.sampled_from(Knownness),
                           max_size=6),
    inline=st.booleans(),
    force_unknown_results=st.booleans(),
    conditionals_unknown=st.booleans(),
)
_configs = st.builds(
    RewriteConfig,
    functions=st.dictionaries(
        st.one_of(st.just(RewriteConfig.ENTRY), _addrs), _function_configs,
        max_size=4),
    known_memory=st.lists(st.tuples(_addrs, _addrs), max_size=4),
    variant_threshold=st.integers(1, 64),
    inline_default=st.booleans(),
    dynamic_markers=st.sets(_addrs, max_size=4),
    dynamic_cells=st.sets(_addrs, max_size=4),
    passes=st.lists(st.sampled_from(("dce", "copyprop", "peephole")),
                    max_size=3).map(tuple),
    deferred_spills=st.booleans(),
)
_args = st.lists(st.one_of(
    st.integers(-(1 << 63), (1 << 64) - 1), st.floats(), st.booleans(),
    st.lists(st.integers(), max_size=3)), max_size=8)


def _tagged(arg):
    """The key part of a non-int argument the reference kept verbatim:
    a float by its IEEE-754 bits, an unhashable value as it is (the key
    fingerprints it by type and repr), anything else by type and
    value."""
    if type(arg) is float:
        return ("float", struct.unpack("<Q", struct.pack("<d", arg))[0])
    if type(arg).__hash__ is None:
        return arg
    return (type(arg).__name__, arg)


@settings(max_examples=300, deadline=None)
@given(conf=_configs, args=_args)
def test_key_parts_equal_the_reference_derivation(conf, args):
    """The loop-built key parts are the tuples the reference built:
    equal, and equal in ``repr``, which is what the fabric's route
    digest hashes.  An exact int, an unhashable value, and every
    unknown int or float position, is pinned to the reference; any
    other argument the reference kept verbatim is tagged (its float 1.0
    compared equal to an int 1 and to ``True``)."""
    fingerprint = _config_fingerprint(conf)
    assert fingerprint == _reference_config_fingerprint(conf)
    assert repr(fingerprint) == repr(_reference_config_fingerprint(conf))
    relevant = _relevant_args(conf, tuple(args))
    reference = _reference_relevant_args(conf, tuple(args))
    expected = tuple(
        ref if ref is not arg or type(arg) is int else _tagged(arg)
        for arg, ref in zip(args, reference))
    assert repr(relevant) == repr(expected)
    assert [type(a) for a in relevant] == [type(a) for a in expected]


# ----------------------------------------------- freshness as byte runs
_FRESHNESS_SEGMENTS = ("heap", "data")
_cells = st.lists(st.tuples(
    st.sampled_from(_FRESHNESS_SEGMENTS),
    # whole cells (adjacent runs and gaps) and any byte offset (overlaps)
    st.one_of(st.integers(0, 7).map(lambda i: 8 * i), st.integers(0, 56)),
    st.sampled_from(("read", "other", "none")),
), max_size=8)


@pytest.fixture(scope="module")
def freshness_machine():
    m = Machine()
    bases = {"heap": m.image.malloc(64),
             "data": m.image.add_data(None, bytes(64))}
    return m, bases


@settings(max_examples=300, deadline=None)
@given(contents=st.binary(min_size=128, max_size=128), cells=_cells,
       flip=st.none() | st.tuples(st.sampled_from(_FRESHNESS_SEGMENTS),
                                  st.integers(0, 63)))
def test_run_freshness_agrees_with_the_per_cell_rule(
        freshness_machine, contents, cells, flip):
    """A published entry reads fresh exactly when every recorded cell,
    peeked on its own, still holds its value: over adjacent, gapped and
    overlapping cells in two segments, a value that was never there, a
    ``None`` value, and one byte flipped inside or outside the runs."""
    m, bases = freshness_machine
    m.image.poke(bases["heap"], contents[:64])
    m.image.poke(bases["data"], contents[64:])
    deps = []
    for segment, offset, kind in cells:
        addr = bases[segment] + offset
        value = int.from_bytes(m.image.peek(addr, 8), "little")
        if kind == "other":
            value = (value + 1) % (1 << 64)
        elif kind == "none":
            value = None
        deps.append((addr, addr + 8, value))
    mgr = SpecializationManager(m)
    key = ("f", (), ())
    mgr.restore_entry(key, RewriteResult(ok=True, original=0, entry=16), deps)
    if flip is not None:
        addr = bases[flip[0]] + flip[1]
        m.image.poke(addr, bytes([m.image.peek(addr, 1)[0] ^ 0xFF]))
    # the per-cell rule: one peek per recorded cell
    want = all(
        int.from_bytes(m.image.peek(start, 8), "little") == value
        for start, _, value in deps)
    assert mgr.publish(key, 16)
    assert (mgr.published(key) == 16) == want
    assert (mgr.cached_result(key) is not None) == want, (
        "a stale published entry is evicted where it is found")
