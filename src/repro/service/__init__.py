"""Background rewrite service: specialization off the caller's hot path.

``SpecializationManager.get`` pays a full synchronous trace on every
miss — on the caller's critical path.  The paper's amortization argument
(Sec. VII: rewriting cost is "easily amortized" over repeated
invocations) only needs the rewrite to happen *eventually*; BAAR
(PAPERS.md) demonstrates the consequence: run original code while a
background worker specializes, then swap in the specialized version.

:class:`~repro.service.rewrite_service.RewriteService` implements that
contract.  ``request()`` never blocks: it returns the published
specialized entry on a warm hit and the *original* entry on a cold miss,
queueing the rewrite.  ``step()`` and ``drain()`` run queued rewrites
on the caller's own thread (the only schedule), so runs are bit-for-bit
reproducible.  Finished variants are published on the manager's own
cache entries (:meth:`~repro.core.manager.SpecializationManager.publish`),
so whatever evicts an entry (an announced invalidation, a stale hit, a
quarantine) withdraws its publication in the same step.

PR-4 adds the **continuous assurance** layer: sampled shadow execution
of published variants (``shadow_interval=`` + the :meth:`call` dispatch
path), crash-safe snapshot/restore of the whole specialization state
(``save_snapshot``/``restore_snapshot``, format in
:mod:`repro.core.persist`), and admission control under overload
(``max_queue_depth``/``retry_budget``/``watchdog_max_trace_steps``).
The EXT-5 soak experiment (:mod:`repro.experiments.soak_exp`) proves the
whole loop: injected miscompiles are caught within the sampling window,
restart-mid-soak restores the cache, overload sheds deterministically.

PR-7 scales the service out: :class:`~repro.service.fabric.RewriteFabric`
shards managers into N fault-isolated bulkhead domains routed by
rendezvous hashing over the modelled interconnect, with per-tenant
quotas and weighted-fair dequeue, a deterministic heartbeat watchdog,
and snapshot-based warm-start failover (EXT-7:
:mod:`repro.experiments.fabric_exp`).
"""

from repro.service.fabric import (
    RewriteFabric,
    RewriteShard,
    RouteResult,
    SHARD_DEAD,
    SHARD_HEALTHY,
    SHARD_SUSPECT,
)
from repro.service.rewrite_service import (
    REWRITE_CYCLES_PER_TRACED_INSN,
    SHED_LOG_LIMIT,
    RewriteService,
    modeled_rewrite_cycles,
)

__all__ = [
    "RewriteFabric",
    "RewriteService",
    "RewriteShard",
    "RouteResult",
    "REWRITE_CYCLES_PER_TRACED_INSN",
    "SHARD_DEAD",
    "SHARD_HEALTHY",
    "SHARD_SUSPECT",
    "SHED_LOG_LIMIT",
    "modeled_rewrite_cycles",
]
