"""Section VIII outlook tests: detect / preload / redirect."""

from __future__ import annotations

import math

import pytest

from repro.models.pgas import PgasLab
from repro.models.rdma import RdmaPrefetcher


@pytest.fixture(scope="module")
def setup():
    lab = PgasLab(nelems=256, nnodes=4, remote_cost=200)
    return lab, RdmaPrefetcher(lab)


def test_detection_finds_exactly_the_touched_windows(setup):
    lab, pre = setup
    block = lab.block
    lo, hi = block, block + 16  # entirely on node 1
    plan = pre.detect(lo, hi)
    assert plan.total_bytes == 16 * 8
    for i in range(lo, hi):
        assert plan.covers(lab.element_address(i))
    # node 2's window untouched
    assert not plan.covers(lab.element_address(2 * block))


def test_prefetched_run_is_remote_free_and_correct(setup):
    lab, pre = setup
    block = lab.block
    lo, hi = block, 2 * block  # node 1's whole slice
    naive = pre.run_naive(lo, hi)
    run = pre.run_resilient(lo, hi).run
    assert math.isclose(run.float_return, naive.float_return, rel_tol=1e-12)
    assert run.perf.remote_accesses == 0
    assert naive.perf.remote_accesses == hi - lo


def test_prefetch_beats_naive_on_large_remote_ranges(setup):
    lab, pre = setup
    block = lab.block
    lo, hi = block, 4 * block  # three remote slices
    naive = pre.run_naive(lo, hi)
    assert pre.run_resilient(lo, hi).total_cycles < naive.cycles


def test_redirect_kernel_reused_across_runs(setup):
    lab, pre = setup
    k1 = pre.redirect_kernel()
    k2 = pre.redirect_kernel()
    assert k1 == k2
