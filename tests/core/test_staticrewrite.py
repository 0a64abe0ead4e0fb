"""The ahead-of-time whole-image rewriting mode (Zipr-style static).

The acceptance claim: static mode produces **bit-for-bit identical
architectural results** to both the interpreted original and the
runtime rewriting mode on the entire well-behaved corpus — the
Section V stencil, the Section VI PGAS reduction, and the EXT-1 RDMA
prefetcher's machine — while paying its whole rewrite cost before the
first call and falling back gracefully (tagged, per function) on
anything the pipeline refuses.
"""

from __future__ import annotations

import hashlib
import struct

from repro.asm.assembler import assemble
from repro.core import StaticImageRewriter
from repro.machine.vm import Machine
from repro.models.pgas import PgasLab
from repro.models.rdma import RdmaPrefetcher
from repro.models.stencil import StencilLab
from repro.obs import Metrics


def _stencil_outcome(lab, run):
    return (
        run.uint_return,
        struct.pack("<d", run.float_return).hex(),
        hashlib.sha1(bytes(lab.machine.image.seg_heap.data)).hexdigest(),
    )


# ===================================================== corpus equivalence
def test_static_matches_runtime_and_interpreter_on_stencil():
    oracle_lab = StencilLab(xs=12, ys=12)
    oracle = _stencil_outcome(oracle_lab, oracle_lab.run_generic(iters=2))

    rt_lab = StencilLab(xs=12, ys=12)
    rt = rt_lab.rewrite_apply()
    assert rt.ok, rt.message
    runtime = _stencil_outcome(
        rt_lab, rt_lab.run_with_apply(rt.entry_or_original, iters=2))

    st_lab = StencilLab(xs=12, ys=12)
    static = StaticImageRewriter(st_lab.machine)
    report = static.rewrite_image()
    assert report.functions >= 5
    assert report.rewritten + report.fallback_count == report.functions
    got = _stencil_outcome(
        st_lab, st_lab.run_with_apply(static.entry("apply"), iters=2))

    assert got == oracle == runtime


def test_static_matches_runtime_on_pgas():
    lo, hi = 0, 128
    oracle_lab = PgasLab(nelems=128, nnodes=4)
    want = oracle_lab.sum_generic(lo, hi).float_return

    rt_lab = PgasLab(nelems=128, nnodes=4)
    rt = rt_lab.rewrite_kernel()
    rt_sum = rt_lab.sum_with_kernel(rt.entry_or_original, lo, hi)

    st_lab = PgasLab(nelems=128, nnodes=4)
    static = StaticImageRewriter(st_lab.machine)
    static.rewrite_image()
    st_sum = st_lab.machine.cpu.run(
        static.entry("ga_sum_range"), st_lab.ga_addr, lo, hi,
        st_lab.machine.symbol("ga_get"))

    assert st_sum.float_return == want == rt_sum.float_return


def test_static_coexists_with_rdma_prefetcher():
    """Static mode on the RDMA model's machine: the ahead-of-time pass
    must not perturb the prefetcher's own detect/preload/redirect
    machinery, and both answers must equal the naive reduction."""
    lab = PgasLab(nelems=128, nnodes=4)
    lo, hi = lab.block, 3 * lab.block
    want = lab.reference_sum(lo, hi)

    static = StaticImageRewriter(lab.machine)
    static.rewrite_image()
    via_static = lab.machine.cpu.run(
        static.entry("ga_sum_range"), lab.ga_addr, lo, hi,
        lab.machine.symbol("ga_get"))
    assert via_static.float_return == want

    pre = RdmaPrefetcher(lab)
    run = pre.run_resilient(lo, hi).run
    assert run.float_return == want


# ========================================================= mode mechanics
def test_static_pass_is_idempotent():
    lab = StencilLab(xs=12, ys=12)
    static = StaticImageRewriter(lab.machine)
    first = static.rewrite_image()
    table = dict(static.dispatch)
    second = static.rewrite_image()
    assert static.dispatch == table
    assert (second.functions, second.rewritten) == (
        first.functions, first.rewritten)


def test_entry_is_total_over_unrewritten_functions():
    """Functions added after the pass (or unknown addresses) dispatch to
    themselves — callers need no fallback logic."""
    lab = StencilLab(xs=12, ys=12)
    static = StaticImageRewriter(lab.machine)
    static.rewrite_image()
    late = lab.machine.image.add_function(
        "late_arrival", assemble("mov rax, 7\nret", 0)[0])
    assert static.entry("late_arrival") == late
    assert static.entry(late) == late


def test_hostile_function_falls_back_tagged():
    """A function the tracer refuses (unknown indirect jump) is tagged
    in the report and dispatches to its original body."""
    m = Machine()
    target = m.image.add_function(
        "landing", assemble("mov rax, 99\nret", 0)[0])
    hostile = m.image.add_function("hostile", assemble("jmpi rdi", 0)[0])
    metrics = Metrics()
    static = StaticImageRewriter(m, metrics=metrics)
    report = static.rewrite_image()
    assert report.fallbacks.get("hostile") == "indirect-jump"
    assert static.entry("hostile") == hostile
    # the original still runs fine through the dispatch table
    assert m.cpu.run(static.entry("hostile"), target).uint_return == 99
    assert '"static.fallback.indirect-jump":1' in metrics.snapshot_json()


def test_static_variants_register_in_metrics():
    metrics = Metrics()
    lab = StencilLab(xs=12, ys=12)
    static = StaticImageRewriter(lab.machine, metrics=metrics)
    report = static.rewrite_image()
    snapshot = metrics.snapshot_json()
    assert f'"static.functions":{report.functions}' in snapshot
    assert f'"static.rewritten":{report.rewritten}' in snapshot
