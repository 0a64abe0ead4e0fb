"""C-flavoured API surface tests (Figures 2/3/5 parity) and per-function
configuration corners."""

from __future__ import annotations

import pytest

from repro.core import (
    BREW_KNOWN, BREW_PTR_TO_KNOWN, BREW_UNKNOWN,
    brew_init_conf, brew_rewrite, brew_setfunc, brew_setmem, brew_setpar,
)
from repro.core.config import RewriteConfig
from repro.core.rewriter import _register_pointed_to
from repro.machine.vm import Machine


def test_init_conf_returns_fresh_configs():
    a, b = brew_init_conf(), brew_init_conf()
    brew_setpar(a, 1, BREW_KNOWN)
    assert b.function(None).params == {}


def test_setpar_rejects_zero_based_indices():
    with pytest.raises(ValueError):
        brew_setpar(brew_init_conf(), 0, BREW_KNOWN)


def test_setmem_validates_range_and_kind():
    conf = brew_init_conf()
    with pytest.raises(ValueError):
        brew_setmem(conf, 100, 100)
    with pytest.raises(ValueError):
        brew_setmem(conf, 0, 8, BREW_UNKNOWN)
    brew_setmem(conf, 0x1000, 0x1010)
    assert conf.memory_is_known(0x1000)
    assert conf.memory_is_known(0x1008)
    assert not conf.memory_is_known(0x100C)  # 8 bytes would cross the end


def test_setfunc_unknown_option_rejected():
    with pytest.raises(ValueError):
        brew_setfunc(brew_init_conf(), None, no_such_option=True)


def test_per_function_configs_are_independent():
    conf = RewriteConfig()
    conf.set_function(0x1000, inline=False)
    assert conf.function(0x1000).inline is False
    assert conf.function(0x2000).inline is True
    assert conf.function(None).inline is True


def test_figure3_semantics_known_param_ignored_at_call():
    """Figure 3: '// ignores value 1' — the rewritten function uses the
    baked-in value regardless of what the caller passes."""
    m = Machine()
    m.load("noinline long func(long a, long b) { return a * 100 + b; }")
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    result = brew_rewrite(m, conf, "func", 42, 2)
    assert result.ok
    assert m.call(result.entry, 1, 2).int_return == 42 * 100 + 2
    assert m.call(result.entry, 999, 7).int_return == 42 * 100 + 7


def test_forced_unknown_param_on_inlined_callee():
    """brew_setpar(fn, i, BREW_UNKNOWN) prevents the callee from being
    specialized on a known argument (the makeDynamic alternative done
    through configuration)."""
    m = Machine()
    m.load("""
    noinline long inner(long x, long n) {
        long t = 0;
        for (long i = 0; i < x; i++) t += n;
        return t;
    }
    noinline long outer(long n) { return inner(6, n); }
    """)
    # default: inner's x=6 is known -> loop fully unrolls inside outer
    plain = brew_rewrite(m, brew_init_conf(), "outer", 0)
    assert plain.ok
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_UNKNOWN, fn_addr=m.symbol("inner"))
    guarded = brew_rewrite(m, conf, "outer", 0)
    assert guarded.ok
    # both correct
    for n in (0, 3, 9):
        assert m.call(plain.entry, n).int_return == 6 * n
        assert m.call(guarded.entry, n).int_return == 6 * n
    # the forced-unknown version kept the loop -> more blocks
    assert guarded.stats.blocks > plain.stats.blocks


def test_ptr_to_known_range_is_bounded_by_its_segment():
    m = Machine()
    m.load("noinline long f(long *p) { return p[0]; }")
    buf = m.image.malloc(16)
    m.memory.write_u64(buf, 77)
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_PTR_TO_KNOWN)
    result = brew_rewrite(m, conf, "f", buf)
    assert result.ok
    assert m.call(result.entry, buf).int_return == 77
    # the rewrite registered the range into a private copy of conf;
    # register it on conf the same way to observe its bounds
    _register_pointed_to(m.image, conf, buf)
    start, end = conf.known_memory[-1]
    assert start == buf
    assert end <= m.image.seg_heap.end


def test_rewrite_leaves_the_callers_config_unchanged():
    m = Machine()
    m.load("noinline long f(long *p) { return p[0]; }")
    buf = m.image.malloc(16)
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_PTR_TO_KNOWN)
    for _ in range(2):
        assert brew_rewrite(m, conf, "f", buf).ok
    assert conf.known_memory == []


def test_rewrite_accepts_bare_image():
    from repro.core.rewriter import rewrite

    m = Machine()
    m.load("noinline long f(long a) { return a + 1; }")
    result = rewrite(m.image, brew_init_conf(), "f", 0)
    assert result.ok
    assert m.call(result.entry, 1).int_return == 2


def test_result_names_are_unique_and_symbolized():
    m = Machine()
    m.load("noinline long f(long a) { return a; }")
    r1 = brew_rewrite(m, brew_init_conf(), "f", 0)
    r2 = brew_rewrite(m, brew_init_conf(), "f", 0)
    assert r1.name != r2.name
    assert m.symbol(r1.name) == r1.entry
    assert m.symbol(r2.name) == r2.entry
