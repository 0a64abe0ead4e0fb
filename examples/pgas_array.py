#!/usr/bin/env python3
"""PGAS global arrays: the overhead the paper's introduction motivates.

A DASH-like global array is block-distributed over 4 simulated nodes
(remote nodes cost extra cycles per access).  The library accessor
``ga_get`` translates global indices and checks locality on *every*
access; BREW specializes the accessor and then the whole reduction
kernel for the concrete array descriptor.  A memory-access hook then
demonstrates the Sec. VIII outlook: detecting remote accesses in
arbitrary code (the first step towards RDMA prefetching).

Run:  python examples/pgas_array.py
"""

from repro.models.pgas import PgasLab


def main() -> None:
    lab = PgasLab(nelems=1024, nnodes=4, remote_cost=150)
    block = lab.block
    print(f"global array: {lab.nelems} doubles over {lab.nnodes} nodes "
          f"(block = {block}); node 0 perspective")

    generic = lab.sum_generic(0, block)
    accessor = lab.rewrite_accessor()
    assert accessor.ok, accessor.message
    via_acc = lab.sum_generic(0, block, getter=accessor.entry)
    kernel = lab.rewrite_kernel()
    assert kernel.ok, kernel.message
    via_kernel = lab.sum_with_kernel(kernel.entry, 0, block)
    manual = lab.sum_manual_local()

    g = generic.cycles
    print()
    print(f"{'variant':<42}{'cycles':>10}{'vs generic':>12}")
    for label, run in (
        ("generic operator[] via pointer", generic),
        ("rewritten accessor (descriptor folded)", via_acc),
        ("rewritten kernel (call inlined too)", via_kernel),
        ("hand-written local loop", manual),
    ):
        print(f"{label:<42}{run.cycles:>10,}{run.cycles / g:>11.1%}")
        assert abs(run.float_return - generic.float_return) < 1e-9

    # --- Sec. VIII outlook: detect -> preload -> redirect -------------
    from repro.models.rdma import RdmaPrefetcher

    pre = RdmaPrefetcher(lab)
    lo, hi = block, 4 * block  # three remote slices
    naive = pre.run_naive(lo, hi)
    prefetched = pre.run_resilient(lo, hi)
    run, preload_cost = prefetched.run, prefetched.transfer_cycles
    print(f"\nSec. VIII in action over the remote range [{lo}, {hi}):")
    print(f"  naive traversal:  {naive.cycles:>8,} cycles, "
          f"{naive.perf.remote_accesses} remote accesses")
    print(f"  RDMA preload:     {preload_cost:>8,} cycles (bulk)")
    print(f"  redirected run:   {run.cycles:>8,} cycles, "
          f"{run.perf.remote_accesses} remote accesses")
    print(f"  total speedup:    {naive.cycles / (run.cycles + preload_cost):.2f}x, "
          "answers identical:", abs(run.float_return - naive.float_return) < 1e-9)


if __name__ == "__main__":
    main()
