"""EXT-10: tier-2 trace JIT — hot-cycle superblocks over the block
engine (beyond-paper extension).

The paper's runtime rewriter lives inside an execution engine; this
extension measures the engine's three tiers on the same workloads.
Tier 0 is the BX64 interpreter.  Tier 1 is the block engine
(:mod:`repro.machine.blockjit`): one Python closure per guest basic
block, operands and cycle costs resolved at compile time, blocks
chained.  Tier 2 (:mod:`repro.machine.tracejit`) profiles the block
engine's chain graph at runtime and stitches hot cycles into
*superblocks* — one
``compile()``'d Python function per trace, guest registers living in
Python locals across block seams — and guarded side exits fall back to
tier 1 with exact step/cycle accounting.  Traces are multi-versioned
per head (keyed by branch directions and call targets) so a workload
whose profile shifts mid-run re-profiles and promotes a new version
instead of thrashing one.

Three claims are checked, on two kernels:

* **transparency** — all three tiers produce *bit-for-bit identical*
  architectural results (returns, steps, deterministic perf counters),
  including across side exits and the PGAS remote-segment surcharges;
* **speed** — warm wall clock drops by at least
  :data:`T1_SPEEDUP_FLOOR` x over tier 1 on both the Section V
  stencil sweep and a Section VI-shaped PGAS reduction, with *zero*
  interpreter fallbacks on the hot path of tiers 1 and 2.  On the
  stencil, tier 1 alone must clear :data:`BLOCK_SPEEDUP_FLOOR` x over
  the interpreter.  Against the interpreter the
  FP-heavy stencil must clear :data:`T0_SPEEDUP_FLOOR` x; the PGAS
  loop — dominated by one signed division per element, inlined
  arithmetically by the trace renderer but branchier than the
  stencil (the owner test side-exits at every block boundary) —
  clears the separate :data:`PGAS_T0_FLOOR` x;
* **robustness** — a seeded adversarial torture sweep with the trace
  tier forced on (hair-trigger thresholds) reports zero silent
  miscompiles and zero untagged escapes.

The PGAS workload is deliberately phase-shifting: the reduction walks
node 0's local block first, then three remote blocks, so the trace
formed on the local phase goes cold at the region boundary.  The
checks assert the multi-version machinery actually engaged
(``trace_versions >= 2`` with at least one deactivation).

Both kernels are call-free, hand-inlined loops.  A third workload runs
the paper's own Section V shape: :class:`~repro.models.stencil.StencilLab`'s
``sweep`` calling the rewrite service's specialized ``apply`` through a
function pointer once per cell, so the trace must follow the call and
its return.  It carries no speed floor; its checks are parity across
the tiers, iterations actually run inside traces, and zero interpreter
fallbacks.

The tier-2 JITs' counters (:func:`add_jit_counters`) and the torture
sweep's go into one metrics snapshot, embedded in the table and saved
by ``python -m repro.experiments --write`` as ``BENCH_ext10.json``.
"""

from __future__ import annotations

import struct

from repro.experiments.harness import (
    Experiment, Row, best_of, result_fingerprint,
)
from repro.machine.vm import Machine
from repro.models.pgas import PgasLab
from repro.models.stencil import StencilLab
from repro.obs import Metrics
from repro.testing.torture import run_torture

#: Stencil grid edge.  Large enough that the per-site memory TLB and
#: trace-local registers dominate; at this size tier 2 clears 3x over
#: tier 1 with margin.
STENCIL_EDGE = 64
#: Sweep iterations per timed stencil call (full / reduced-CI).
STENCIL_ITERS = 6
STENCIL_ITERS_REDUCED = 2
#: PGAS array length across 4 nodes (full / reduced-CI).  Node 0's
#: block is local; the other three live in remote segments with
#: access surcharges.
PGAS_NELEMS = 16384
PGAS_NELEMS_REDUCED = 4096
#: Grid edge of the Section V pointer-call sweep (full / reduced-CI).
SWEEP_EDGE = 48
SWEEP_EDGE_REDUCED = 24
#: Adversarial images for the trace-tier torture sweep (full / CI).
TORTURE_IMAGES = 40
TORTURE_IMAGES_REDUCED = 12
#: Seed for the torture sweep — replayable bit-for-bit.
EXT10_SEED = 20260810
#: Timed repetitions; the minimum is reported (best-of-N protocol).
#: The jitted tiers get extra rounds: they are cheap to repeat and the
#: tier-1/tier-2 ratio is the gating number, so the extra samples buy
#: margin against host noise where it matters.
TIMING_ROUNDS = 3
TIMING_ROUNDS_JITTED = 5
#: Acceptance floors for the warm-trace speedups (full run).  The
#: reduced CI run keeps the parity/robustness checks hard but relaxes
#: the floors — shared CI runners are too noisy to gate on 3x.
T1_SPEEDUP_FLOOR = 3.0
#: Interpreter floor for the stencil: typically 23-30x, but the tier-0
#: baseline and the jitted phases are timed minutes apart, so scheduler
#: noise can compress the ratio (observed worst case ~17x).  The load-
#: bearing claim is the tier-1 floor above; this one just pins the
#: order of magnitude.
T0_SPEEDUP_FLOOR = 15.0
#: Interpreter floor for the PGAS loop: the trace inlines the signed
#: division arithmetically (measured ~24x), but the phase-shift churn
#: (deactivate / re-profile / reinstall at the local/remote boundary)
#: keeps the ratio structurally below the stencil's steady cycle.
PGAS_T0_FLOOR = 15.0
T1_SPEEDUP_FLOOR_REDUCED = 1.5
T0_SPEEDUP_FLOOR_REDUCED = 8.0
PGAS_T0_FLOOR_REDUCED = 6.0
#: Block engine over interpreter on the stencil (tier 1 against tier 0).
#: Not relaxed in the reduced run: both shapes read 5.6-10.7x on a
#: shared 2-vCPU host, so 3x holds through host noise and still catches
#: a block engine that stopped compiling the hot loop.
BLOCK_SPEEDUP_FLOOR = 3.0

#: The stencil kernel, compiled into the guest image from source: a
#: 5-point sweep whose inner loop is one hot cycle with three distinct
#: memory regions (src matrix, stack spills, dst matrix) per iteration.
STENCIL_SRC = r"""
double stencil_sweep(double *src, double *dst, long xs, long ys, long iters) {
    double acc = 0.0;
    for (long it = 0; it < iters; it++) {
        for (long y = 1; y < ys - 1; y++) {
            for (long x = 1; x < xs - 1; x++) {
                double *m = &src[y * xs + x];
                double v = 0.25 * (m[-1] + m[1] + m[0 - xs] + m[xs]) - m[0];
                dst[y * xs + x] = v;
                acc = acc + v;
            }
        }
    }
    return acc;
}
"""

#: The PGAS reduction, address arithmetic inlined (no ga_get call per
#: element) so the whole walk is one loop with a data-dependent branch
#: — exactly the shape that exercises multi-version traces when the
#: owner test flips from the local to the remote arm.
PGAS_SRC = r"""
double ga_sum_inline(long block, long localbase, long remotebase,
                     long remotestride, long hi) {
    double total = 0.0;
    double *lb = (double*)localbase;
    for (long i = 0; i < hi; i++) {
        long owner = i / block;
        if (owner == 0) {
            total = total + lb[i];
        } else {
            long off = i - owner * block;
            double *r = (double*)(remotebase + owner * remotestride + off * 8);
            total = total + *r;
        }
    }
    return total;
}
"""


#: The point-in-time keys of a JIT's ``stats()``; every other key is a
#: cumulative counter.
_POINT_IN_TIME = frozenset(
    {"cached_blocks", "chain_edges", "trace_versions", "installed_traces"})


def add_jit_counters(metrics: Metrics, jits) -> None:
    """Add the cumulative ``stats()`` counters of ``jits`` to ``metrics``
    under their ``jit.*`` names (``trace_X`` files as ``jit.trace.X``;
    docs/MACHINE.md lists them).  Zero counts add no counter."""
    for jit in jits:
        for key, value in jit.stats().items():
            if value and key not in _POINT_IN_TIME:
                metrics.inc("jit." + key.replace("trace_", "trace.", 1), value)


def _enable_tier(machine: Machine, tier: int) -> None:
    if tier:
        machine.enable_jit(trace=tier == 2)


def _stencil_machine(tier: int):
    """A machine with the stencil kernel loaded and ``tier`` enabled,
    plus initialized src/dst matrices."""
    m = Machine()
    m.load(STENCIL_SRC, unit="ext10")
    _enable_tier(m, tier)
    src = m.image.malloc(STENCIL_EDGE * STENCIL_EDGE * 8)
    dst = m.image.malloc(STENCIL_EDGE * STENCIL_EDGE * 8)
    for i in range(STENCIL_EDGE * STENCIL_EDGE):
        m.image.poke(src + i * 8, struct.pack("<d", (i * 37 % 101) / 7.0))
    return m, src, dst


def _pgas_lab(tier: int, nelems: int) -> PgasLab:
    """A PGAS lab with the inlined reduction loaded and ``tier`` on."""
    lab = PgasLab(nelems=nelems, nnodes=4)
    lab.machine.load(PGAS_SRC, unit="ext10")
    _enable_tier(lab.machine, tier)
    return lab


def _sweep_lab(tier: int, edge: int):
    """A Section V lab with ``tier`` enabled whose rewrite service has
    published the specialized ``apply``; returns the lab and that
    entry."""
    lab = StencilLab(edge, edge)
    _enable_tier(lab.machine, tier)
    lab.attach_service()
    lab.apply_via_service()  # cold miss: queues the rewrite
    lab.service.drain()
    return lab, lab.apply_via_service()


def ext10_tracejit(*, reduced: bool = False) -> Experiment:
    """EXT-10: warm wall clock across all three execution tiers on the
    stencil sweep, a phase-shifting PGAS reduction and the Section V
    pointer-call sweep, with bit-for-bit parity, multi-version trace
    evidence and a trace-tier torture sweep.  ``reduced=True`` is the CI
    shape: smaller workloads and relaxed speedup floors, identical
    parity/robustness checks."""
    iters = STENCIL_ITERS_REDUCED if reduced else STENCIL_ITERS
    edge = SWEEP_EDGE_REDUCED if reduced else SWEEP_EDGE
    nelems = PGAS_NELEMS_REDUCED if reduced else PGAS_NELEMS
    images = TORTURE_IMAGES_REDUCED if reduced else TORTURE_IMAGES
    t1_floor = T1_SPEEDUP_FLOOR_REDUCED if reduced else T1_SPEEDUP_FLOOR
    t0_floor = T0_SPEEDUP_FLOOR_REDUCED if reduced else T0_SPEEDUP_FLOOR
    pg_t0_floor = PGAS_T0_FLOOR_REDUCED if reduced else PGAS_T0_FLOOR

    exp = Experiment(
        "EXT-10",
        "tier-2 trace JIT: hot-cycle superblocks with side exits",
        "beyond-paper: profile-guided traces over the block engine",
    )
    # ---- stencil sweep: one machine per tier, identical images
    st = {t: _stencil_machine(t) for t in (0, 1, 2)}
    st_times, st_fps = {}, {}
    for tier, (m, src, dst) in st.items():
        run = lambda m=m, src=src, dst=dst: m.call(
            "stencil_sweep", src, dst, STENCIL_EDGE, STENCIL_EDGE, iters)
        run()  # warm: compiles blocks, profiles, installs traces
        # parity capture at the same call index on every tier, so each
        # tier's captured run starts from the same memory
        st_fps[tier] = result_fingerprint(run())
        rounds = TIMING_ROUNDS if tier == 0 else TIMING_ROUNDS_JITTED
        st_times[tier], _ = best_of(run, rounds)
    st_speedup_t1 = st_times[1] / st_times[2]
    st_speedup_t0 = st_times[0] / st_times[2]
    st_block_speedup = st_times[0] / st_times[1]
    st_stats = st[2][0].jit.stats()

    # ---- PGAS reduction: local phase then three remote phases
    pg = {t: _pgas_lab(t, nelems) for t in (0, 1, 2)}
    pg_times, pg_fps = {}, {}
    for tier, lab in pg.items():
        run = lambda lab=lab: lab.machine.call(
            "ga_sum_inline", lab.block, lab.local_base, lab.remote_base,
            lab.remote_stride, lab.nelems)
        run()  # warm: forms the local-phase trace, then the remote one
        # same-call-index parity capture (see the stencil note)
        pg_fps[tier] = result_fingerprint(run())
        rounds = TIMING_ROUNDS if tier == 0 else TIMING_ROUNDS_JITTED
        pg_times[tier], _ = best_of(run, rounds)
    pg_speedup_t1 = pg_times[1] / pg_times[2]
    pg_speedup_t0 = pg_times[0] / pg_times[2]
    pg_stats = pg[2].machine.jit.stats()

    # ---- Sec. V sweep: specialized apply through a function pointer
    sw = {t: _sweep_lab(t, edge) for t in (0, 1, 2)}
    sw_times, sw_fps = {}, {}
    for tier, (lab, entry) in sw.items():
        run = lambda lab=lab, entry=entry: lab.machine.call(
            "sweep", lab.m1, lab.m2, lab.xs, lab.ys, lab.s_addr, entry)
        run()  # warm
        # same-call-index parity capture, plus the matrix it wrote
        sw_fps[tier] = (entry, result_fingerprint(run()),
                        lab.machine.image.peek(lab.m2, edge * edge * 8))
        rounds = TIMING_ROUNDS if tier == 0 else TIMING_ROUNDS_JITTED
        sw_times[tier], _ = best_of(run, rounds)
    sw_speedup_t1 = sw_times[1] / sw_times[2]
    sw_stats = sw[2][0].machine.jit.stats()

    # ---- trace-tier torture: hair-trigger thresholds, full contract
    metrics = Metrics()
    report = run_torture(EXT10_SEED, images, metrics=metrics,
                         trace_tier=True)

    exp.rows.append(Row(
        "stencil sweep, interpreter (ms)", round(st_times[0] * 1e3, 1),
        1.0, note="tier 0 baseline"))
    exp.rows.append(Row(
        "stencil sweep, block engine (ms)", round(st_times[1] * 1e3, 1),
        st_times[1] / st_times[0], note="tier 1, warm code cache"))
    exp.rows.append(Row(
        "stencil sweep, trace JIT (ms)", round(st_times[2] * 1e3, 1),
        st_times[2] / st_times[0],
        note=f"tier 2, warm traces; {st_speedup_t1:.1f}x over tier 1"))
    exp.rows.append(Row(
        "pgas reduction, interpreter (ms)", round(pg_times[0] * 1e3, 1),
        1.0, note="tier 0 baseline"))
    exp.rows.append(Row(
        "pgas reduction, block engine (ms)", round(pg_times[1] * 1e3, 1),
        pg_times[1] / pg_times[0], note="tier 1, warm code cache"))
    exp.rows.append(Row(
        "pgas reduction, trace JIT (ms)", round(pg_times[2] * 1e3, 1),
        pg_times[2] / pg_times[0],
        note=f"tier 2, warm traces; {pg_speedup_t1:.1f}x over tier 1"))
    exp.rows.append(Row(
        "pointer-call sweep, interpreter (ms)", round(sw_times[0] * 1e3, 1),
        1.0, note="tier 0 baseline"))
    exp.rows.append(Row(
        "pointer-call sweep, block engine (ms)", round(sw_times[1] * 1e3, 1),
        sw_times[1] / sw_times[0], note="tier 1, warm code cache"))
    exp.rows.append(Row(
        "pointer-call sweep, trace JIT (ms)", round(sw_times[2] * 1e3, 1),
        sw_times[2] / sw_times[0],
        note=f"tier 2, traces through the call; {sw_speedup_t1:.1f}x over "
             f"tier 1, {sw_stats['trace_iterations']:,} trace iterations"))
    exp.rows.append(Row(
        "traces installed (stencil + pgas)",
        st_stats["trace_installs"] + pg_stats["trace_installs"], None,
        note=f"{st_stats['trace_iterations'] + pg_stats['trace_iterations']:,}"
             " trace iterations"))
    exp.rows.append(Row(
        "pgas trace versions", pg_stats["trace_versions"], None,
        note=f"{pg_stats['trace_deactivations']} deactivations at the "
             "local/remote phase boundary"))
    exp.rows.append(Row(
        "torture images (trace tier forced on)",
        report.counters["torture.images"], None,
        note=f"{report.counters.get('torture.rewritten_verified', 0)} "
             "rewritten+verified, rest graceful"))

    exp.check(
        "stencil sweep: bit-for-bit identical across all three tiers",
        st_fps[0] == st_fps[1] == st_fps[2])
    exp.check(
        "pgas reduction: bit-for-bit identical across all three tiers "
        "(including remote-segment surcharges, across side exits)",
        pg_fps[0] == pg_fps[1] == pg_fps[2])
    exp.check(
        f"stencil: trace tier >= {t1_floor:.1f}x over block engine "
        f"(measured {st_speedup_t1:.1f}x)",
        st_speedup_t1 >= t1_floor)
    exp.check(
        f"stencil: trace tier >= {t0_floor:.0f}x over interpreter "
        f"(measured {st_speedup_t0:.1f}x)",
        st_speedup_t0 >= t0_floor)
    exp.check(
        f"stencil: block engine >= {BLOCK_SPEEDUP_FLOOR:.1f}x over "
        f"interpreter (measured {st_block_speedup:.1f}x)",
        st_block_speedup >= BLOCK_SPEEDUP_FLOOR)
    exp.check(
        f"pgas: trace tier >= {t1_floor:.1f}x over block engine "
        f"(measured {pg_speedup_t1:.1f}x)",
        pg_speedup_t1 >= t1_floor)
    exp.check(
        f"pgas: trace tier >= {pg_t0_floor:.0f}x over interpreter "
        f"(measured {pg_speedup_t0:.1f}x)",
        pg_speedup_t0 >= pg_t0_floor)
    exp.check(
        "zero interpreter fallbacks on the hot path (both workloads)",
        all(m.jit.stats()["interp_fallbacks"] == 0
            for m in (st[1][0], st[2][0], pg[1].machine, pg[2].machine)))
    exp.check(
        "pointer-call sweep: bit-for-bit identical across all three tiers "
        "(specialized apply reached through a function pointer)",
        sw_fps[0] == sw_fps[1] == sw_fps[2])
    exp.check(
        "pointer-call sweep: iterations run inside traces "
        "(the trace follows the call and its return)",
        sw_stats["trace_iterations"] > 0)
    exp.check(
        "pointer-call sweep: zero interpreter fallbacks",
        sw_stats["interp_fallbacks"] == 0)
    exp.check(
        "pgas phase shift engaged multi-version traces "
        "(>= 2 versions, >= 1 deactivation)",
        pg_stats["trace_versions"] >= 2
        and pg_stats["trace_deactivations"] >= 1)
    exp.check(
        "trace-tier torture: zero silent miscompiles",
        report.miscompiles == 0)
    exp.check(
        "trace-tier torture: zero untagged escapes",
        report.escapes == 0)
    exp.check(
        "trace-tier torture: contract holds end to end",
        report.contract_holds)

    health = {f"stencil.{k}": v for k, v in st_stats.items()
              if "trace" in k or k == "interp_fallbacks"}
    health.update({f"pgas.{k}": v for k, v in pg_stats.items()
                   if "trace" in k or k == "interp_fallbacks"})
    health.update({f"sweep.{k}": v for k, v in sw_stats.items()
                   if "trace" in k or k == "interp_fallbacks"})
    exp.health = health
    add_jit_counters(metrics, (st[2][0].jit, pg[2].machine.jit,
                               sw[2][0].machine.jit))
    exp.listing = "metrics " + metrics.snapshot_json()
    return exp
