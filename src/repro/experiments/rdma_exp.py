"""EXT-1: the Section VIII outlook implemented (beyond the paper's
prototype — flagged as an extension)."""

from __future__ import annotations

from repro.experiments.harness import Experiment, Row
from repro.models.pgas import PgasLab
from repro.models.rdma import RdmaPrefetcher


def ext1_rdma_prefetch(nelems: int = 512, nnodes: int = 4) -> Experiment:
    """EXT-1: naive remote traversal vs detect/preload/redirect."""
    lab = PgasLab(nelems=nelems, nnodes=nnodes, remote_cost=200)
    pre = RdmaPrefetcher(lab)
    block = lab.block
    lo, hi = block, 4 * block  # three remote slices

    naive = pre.run_naive(lo, hi)
    prefetched = pre.run_resilient(lo, hi)
    run, preload_cost = prefetched.run, prefetched.transfer_cycles
    total = run.cycles + preload_cost

    exp = Experiment(
        "EXT-1", "RDMA prefetch via detect / preload / redirect",
        "Sec. VIII: 'detect remote memory accesses in arbitrary code, "
        "triggering preloading from remote nodes per RDMA, and use a "
        "second rewritten version of the same code which redirects memory "
        "access to the local pre-loaded data'",
    )
    n = naive.cycles
    exp.rows.append(Row("naive remote traversal", naive.cycles, 1.0,
                        note=f"{naive.perf.remote_accesses} remote accesses"))
    exp.rows.append(Row("RDMA preload (bulk)", preload_cost, preload_cost / n))
    exp.rows.append(Row("redirected kernel run", run.cycles, run.cycles / n,
                        note=f"{run.perf.remote_accesses} remote accesses"))
    exp.rows.append(Row("prefetched total", total, total / n))
    exp.check("answers identical",
              abs(run.float_return - naive.float_return) < 1e-9)
    exp.check("redirected run performs zero remote accesses",
              run.perf.remote_accesses == 0)
    exp.check("prefetched total beats the naive traversal", total < n)
    return exp
