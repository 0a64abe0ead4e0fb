"""Fault-tolerant distributed runtime tests: resilient RDMA prefetch,
guarded stencil degradation, breaker-driven re-promotion, and network
fault injection.

The contract: an interconnect fault may cost cycles (retries, timeouts,
surcharged per-access fallback) but may never change an answer and may
never escape as an exception — Sec. III.G's robustness property applied
to the distributed runtime."""

from __future__ import annotations

import math

import pytest

from repro.errors import FAILURE_REASONS
from repro.machine import link as link_module
from repro.machine.link import BREAKER_OPEN, FaultProfile, TransferManager
from repro.models.distributed_stencil import DistributedStencilLab
from repro.models.pgas import PgasLab
from repro.models.rdma import RdmaPrefetcher
from repro.testing import EXPECTED_REASON, NETWORK_FAULT_KINDS, FaultInjector


def _rdma_setup(faults=None, seed=0):
    lab = PgasLab(nelems=512, nnodes=4)
    lab.transfers = TransferManager(lab.machine, faults=faults, seed=seed)
    pre = RdmaPrefetcher(lab)
    return lab, pre, lab.block, 3 * lab.block


def _stencil_setup(faults=None, seed=0):
    lab = DistributedStencilLab(xs=16, rows_per_node=4, nnodes=3)
    lab.transfers = TransferManager(lab.machine, faults=faults, seed=seed)
    return lab


def _matches(out, oracle) -> bool:
    return all(abs(a - b) < 1e-9 for a, b in zip(out, oracle))


# ------------------------------------------------------------ RDMA resilient
def test_resilient_rdma_clean_network_matches_legacy_bit_for_bit():
    """A clean network charges each preloaded range the bulk-copy cost
    the models always charged (``repro.machine.link``: STARTUP_CYCLES
    plus PER_ELEMENT_CYCLES per 8-byte element), and the redirected
    answer equals the oracle's bit for bit."""
    lab, pre, lo, hi = _rdma_setup()
    plan = pre.detect(lo, hi)
    cycles_before = lab.machine.cpu.perf.cycles
    cost, reports = pre.preload(plan)
    assert [r.cycles for r in reports] == [
        link_module.STARTUP_CYCLES
        + (end - start) // 8 * link_module.PER_ELEMENT_CYCLES
        for start, end in plan.ranges
    ]
    assert cost == lab.machine.cpu.perf.cycles - cycles_before
    assert pre.mirror_valid

    rr = RdmaPrefetcher(lab).run_resilient(lo, hi)
    assert rr.path == "redirected" and not rr.failures
    assert rr.transfer_cycles == cost
    assert rr.run.float_return == lab.reference_sum(lo, hi)


def test_rdma_dead_network_falls_back_with_tagged_reason():
    lab, pre, lo, hi = _rdma_setup(faults=FaultProfile(drop=1.0), seed=3)
    ref = lab.reference_sum(lo, hi)
    rr = pre.run_resilient(lo, hi)
    assert rr.path == "remote-fallback"
    assert math.isclose(rr.run.float_return, ref, rel_tol=1e-12)
    assert rr.failures and all(f == "link-drop" for f in rr.failures)
    assert all(f in FAILURE_REASONS for f in rr.failures)
    assert pre.fallbacks == 1 and pre.promotions == 0


def test_rdma_repromotes_after_heal_and_breaker_cooldown(monkeypatch):
    monkeypatch.setattr(link_module, "BREAKER_THRESHOLD", 1)
    monkeypatch.setattr(link_module, "BREAKER_COOLDOWN_EPOCHS", 2)
    lab, pre, lo, hi = _rdma_setup(faults=FaultProfile(drop=1.0), seed=3)
    ref = lab.reference_sum(lo, hi)
    paths = [pre.run_resilient(lo, hi).path for _ in range(2)]
    assert paths == ["remote-fallback"] * 2
    assert any(b.state == BREAKER_OPEN for b in lab.transfers.breakers.values())
    # the network heals; while breakers cool the model stays degraded,
    # then the half-open probe succeeds and promotion returns
    lab.transfers.set_faults(FaultProfile())
    later = [pre.run_resilient(lo, hi) for _ in range(3)]
    assert later[-1].path == "redirected"
    assert all(math.isclose(r.run.float_return, ref, rel_tol=1e-12) for r in later)
    assert lab.transfers.stats()["rejected"] > 0


# -------------------------------------------------------- guarded stencil
def test_guarded_sweep_halo_path_matches_legacy_and_oracle():
    lab = _stencil_setup()
    ep = lab.run_resilient()
    out = lab.read_out()
    assert ep.path == "halo"
    assert ep.outcome.run.perf.remote_accesses == 0
    assert _matches(out, lab.reference_out())

    legacy = DistributedStencilLab(xs=16, rows_per_node=4, nnodes=3)
    legacy.run_halo_prefetched()
    assert out == legacy.read_out()


def test_halo_prefetch_on_dead_network_runs_plain_sweep():
    """An undelivered halo row leaves the mirror stale, so the
    halo-prefetched sweep runs the plain specialized sweep, which reads
    the neighbour rows remotely: the oracle's answer, no exception."""
    lab = _stencil_setup(faults=FaultProfile(drop=1.0), seed=5)
    oracle = lab.reference_out()
    for _ in range(link_module.BREAKER_THRESHOLD):
        outcome, result = lab.run_halo_prefetched()
        assert result.ok
        assert lab.read_out() == oracle
        assert outcome.run.perf.remote_accesses > 0
    assert lab.transfers.stats()["failures"] == link_module.BREAKER_THRESHOLD
    # each sweep is an epoch, so the opened breaker cools down and the
    # healed network serves the halo again
    lab.transfers.set_faults(FaultProfile())
    remote = [lab.run_halo_prefetched()[0].run.perf.remote_accesses
              for _ in range(link_module.BREAKER_COOLDOWN_EPOCHS + 1)]
    assert remote[-1] == 0
    assert lab.read_out() == oracle


def test_one_flag_degradation_takes_remote_path_and_stays_correct():
    lab = _stencil_setup()
    ep = lab.run_resilient()
    halo_cycles = ep.outcome.run.cycles
    # flip the dynamic cell: the SAME specialized kernel now routes
    # boundary accesses through the per-access remote path
    lab.set_halo_avail(False)
    degraded = lab.run_rewritten(lab._guarded)
    assert _matches(lab.read_out(), lab.reference_out())
    assert degraded.run.perf.remote_accesses > 0
    assert degraded.run.cycles > halo_cycles


def test_stencil_epochs_degrade_then_repromote():
    lab = _stencil_setup(faults=FaultProfile(drop=1.0), seed=5)
    oracle = lab.reference_out()
    paths = []
    for _ in range(3):
        ep = lab.run_resilient()
        paths.append(ep.path)
        assert _matches(lab.read_out(), oracle)
        assert ep.failures and all(f.startswith("link-") for f in ep.failures)
    assert paths == ["remote-fallback"] * 3
    lab.transfers.set_faults(FaultProfile())
    for _ in range(4):
        ep = lab.run_resilient()
        paths.append(ep.path)
        assert _matches(lab.read_out(), oracle)
    assert paths[-1] == "halo"
    assert lab.fallbacks >= 3 and lab.promotions >= 1


def test_mid_sweep_invalidation_falls_back_via_guard_compare():
    """Acceptance: invalidate the halo mirror *mid-sweep* (a spy flips
    ``haloavail`` after the first halo reads) — the already-running
    specialized kernel degrades through its live guard compare to the
    per-access remote path and the output is still correct."""
    lab = _stencil_setup()
    # fill the mirror and mark it valid, as run_resilient would
    cost, reports = lab.exchange_halo()
    assert reports and all(r.ok for r in reports)
    lab.set_halo_avail(True)

    halo_window = (lab.halo, lab.halo + 2 * lab.xs * 8)
    seen = {"halo_reads": 0}

    def spy(cpu) -> None:
        addr = cpu.regs[7]
        if halo_window[0] <= addr < halo_window[1]:
            seen["halo_reads"] += 1
            if seen["halo_reads"] == 2:
                lab.set_halo_avail(False)  # mirror invalidated mid-sweep

    hook = lab.machine.register_host_function("midsweep_invalidator", spy)
    guarded = lab.rewrite_sweep_guarded(memory_hook=hook)
    assert guarded.ok, guarded.message
    outcome = lab.run_rewritten(guarded)

    assert seen["halo_reads"] >= 2, "the sweep reached the halo mirror"
    assert _matches(lab.read_out(), lab.reference_out())
    # after the flip, boundary accesses provably went remote — the
    # guard compare, not a respecialization, made the switch
    assert outcome.run.perf.remote_accesses > 0

    # a clean guarded run on the same lab (flag restored) is remote-free
    lab.set_halo_avail(True)
    clean = lab.run_rewritten(guarded)
    assert clean.run.perf.remote_accesses == 0
    assert _matches(lab.read_out(), lab.reference_out())


# ------------------------------------------------------ network fault classes
@pytest.mark.parametrize("kind", NETWORK_FAULT_KINDS)
def test_injected_network_fault_terminal_reason_is_documented(kind,
                                                               monkeypatch):
    """With retries disabled, one injected wire fault is terminal and
    surfaces as the documented ``link-*`` reason on the fallback path."""
    monkeypatch.setattr(link_module, "MAX_ATTEMPTS", 1)
    lab, pre, lo, hi = _rdma_setup()
    ref = lab.reference_sum(lo, hi)
    with FaultInjector(kind, nth=1) as injector:
        rr = pre.run_resilient(lo, hi)
    assert injector.fired
    assert rr.path == "remote-fallback"
    assert EXPECTED_REASON[kind] in rr.failures
    assert all(f in FAILURE_REASONS for f in rr.failures)
    assert math.isclose(rr.run.float_return, ref, rel_tol=1e-12)


@pytest.mark.parametrize("kind", NETWORK_FAULT_KINDS)
def test_injected_network_fault_is_retried_through(kind, monkeypatch):
    """With the default retry budget a single injected fault is absorbed:
    the transfer recovers on a later attempt and promotion goes through.
    (A partition latches, so give retries room to outlast it.)"""
    monkeypatch.setattr(link_module, "MAX_ATTEMPTS", 8)
    lab, pre, lo, hi = _rdma_setup()
    with FaultInjector(kind, nth=1) as injector:
        rr = pre.run_resilient(lo, hi)
    assert injector.fired
    assert rr.path == "redirected"
    assert not rr.failures
    assert lab.transfers.stats()["retries"] >= 1


@pytest.mark.parametrize("kind", NETWORK_FAULT_KINDS)
def test_injected_network_fault_on_stencil_never_escapes(kind, monkeypatch):
    monkeypatch.setattr(link_module, "MAX_ATTEMPTS", 1)
    lab = _stencil_setup()
    oracle = lab.reference_out()
    with FaultInjector(kind, nth=1) as injector:
        ep = lab.run_resilient()
    assert injector.fired
    assert ep.path == "remote-fallback"
    assert EXPECTED_REASON[kind] in ep.failures
    assert _matches(lab.read_out(), oracle)
