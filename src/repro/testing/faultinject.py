"""Seeded fault injection for the rewrite pipeline.

The paper's robustness claim (Sec. III.G: "it is not catastrophic if the
rewriter meets a situation it cannot handle") is easy to state and easy
to regress.  This module makes it testable: :class:`FaultInjector`
monkeypatches one well-defined seam of the pipeline so that the Nth call
through it fails, and the test asserts that ``brew_rewrite`` still
returns a *tagged* failed result — the documented reason for that fault
class, never an escaping exception.

Four fault classes cover the pipeline end to end:

``decode``
    The tracer's Nth instruction fetch raises
    :class:`~repro.errors.DecodeError` (corrupt code bytes) → reason
    ``decode-error``.
``memory``
    The memory system raises :class:`~repro.errors.SegmentationFault`
    on an access (unmapped address reached while tracing) → reason
    ``memory-fault``.
``emit``
    Program encoding raises :class:`~repro.errors.EncodingError` while
    laying out the specialized code → reason ``encode-error``.
``pass``
    An optimization pass raises an arbitrary ``RuntimeError`` (a bug in
    the pass itself) → reason ``internal``.

Four more classes cover the simulated interconnect (the distributed
runtime's robustness contract: a network fault is a tagged, recoverable
:class:`~repro.machine.link.TransferReport`, never a crash and never a
wrong answer):

``drop`` / ``corrupt`` / ``delay`` / ``partition``
    The Nth wire-level attempt through
    :meth:`repro.machine.link.Link.transfer` suffers that fate → reasons
    ``link-drop`` / ``link-corrupt`` / ``link-delay`` /
    ``link-partition`` once the manager's retries are exhausted.

Three more cover the continuous-assurance runtime (PR 4: shadow
sampling, persistent state, admission control):

``shadow``
    The Nth shadow comparison observes the published variant returning
    a wrong value (its int return is bit-flipped before the compare) →
    the sampler reports a divergence and the service withdraws +
    quarantines under reason ``shadow-divergence``.
``snapshot``
    The Nth record written by the snapshot encoder has a byte flipped
    *after* its CRC was computed (what torn writes/bit rot look like)
    → restore rejects exactly that record with ``snapshot-corrupt``.
``shed``
    The Nth admission decision in
    :meth:`repro.service.rewrite_service.RewriteService.request` is
    forced to shed → the caller keeps the original under reason
    ``service-shed``.

Three more cover the sharded rewrite fabric (PR 7: bulkheads, tenant
quotas, heartbeat watchdog, failover):

``shard-crash``
    The Nth rewrite performed by any shard raises an arbitrary
    ``RuntimeError`` (the shard process dying mid-rewrite) → the fabric
    declares the shard dead, fails its keys over, and requests routed to
    it during the window are answered with the original under reason
    ``shard-dead``.
``shard-stall``
    From the Nth heartbeat on, that shard's heartbeats are suppressed
    (a wedged shard looks exactly like silence) → the watchdog suspects
    it (``shard-stalled``) and eventually declares it dead.
``tenant-flood``
    The Nth per-tenant admission decision in
    :meth:`repro.service.fabric.RewriteFabric._admit_tenant` is forced
    to reject → the caller keeps the original under reason
    ``tenant-quota-exceeded``.

Four more cover the adversarial-guest situations the torture suite
(PR 6) generates organically, so they can also be hit deliberately:

``undecodable`` / ``self-modify-mid-trace`` / ``indirect-jump-unknown``
/ ``segment-escape``
    The Nth fetch yields an impossible operand shape → reason
    ``undecodable-instruction``; the Nth traced store lands in
    executable bytes → ``self-modifying-code``; the Nth jump target is
    unknowable → ``indirect-jump``; the Nth instruction fetch walks off
    every mapped segment → ``fetch-out-of-bounds``.

Injection sites are patched for the dynamic extent of the context
manager only and restored unconditionally; injectors are reusable but
not reentrant.

The ``decode`` and ``undecodable`` seams sit behind the image's decode
cache (:meth:`repro.machine.image.Image.fetch`): they wrap the tracer's
read of it, :meth:`repro.core.tracer.Tracer._fetch`, and count every
fetch that reaches it — cache hits, and misses that passed the tracer's
mapping and permission checks — so code decoded by an earlier rewrite
or by execution cannot hide an injected fault.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Iterator

from repro.errors import (
    DecodeError, EncodingError, RewriteFailure, SegmentationFault,
    UndecodableError,
)

#: All supported rewrite-pipeline fault classes, in pipeline order.
FAULT_KINDS = ("decode", "memory", "emit", "pass")

#: Interconnect fault classes (distributed runtime, PR 2): the Nth bulk
#: transfer through :meth:`repro.machine.link.Link.transfer` is forced to
#: the corresponding wire-level fate.  These surface as tagged failed
#: :class:`~repro.machine.link.TransferReport` objects (after the
#: manager's retries are exhausted), never as escaping exceptions.
NETWORK_FAULT_KINDS = ("drop", "corrupt", "delay", "partition")

#: Continuous-assurance fault classes (PR 4): a lying published variant,
#: a corrupted persisted snapshot record, a forced admission shed.
ASSURANCE_FAULT_KINDS = ("shadow", "snapshot", "shed")

#: Sharded-fabric fault classes (PR 7): a shard crashing mid-rewrite, a
#: shard going silent (heartbeats suppressed), a hostile tenant pushed
#: past its quota.
FABRIC_FAULT_KINDS = ("shard-crash", "shard-stall", "tenant-flood")

#: Adversarial-guest fault classes (PR 6, the torture suite): the four
#: ways hostile code bytes break a trace.  ``undecodable`` makes the Nth
#: fetch return garbage that parses but names no instruction;
#: ``self-modify-mid-trace`` makes the Nth traced store land in
#: executable bytes; ``indirect-jump-unknown`` makes the Nth jump's
#: target unknowable; ``segment-escape`` makes the Nth instruction fetch
#: walk off every mapped segment.
TORTURE_FAULT_KINDS = (
    "undecodable", "self-modify-mid-trace", "indirect-jump-unknown",
    "segment-escape",
)

#: Crash-forensics fault classes (PR 9): a bit-rotted ``REPRO-BUNDLE``
#: record.  Deliberately a *separate* seam from ``snapshot``: forensics
#: imports persist's ``_encode_record`` by value, so cache-snapshot
#: bit-rot never leaks into bundle writes and vice versa.
FORENSICS_FAULT_KINDS = ("bundle",)

#: Every injectable fault class: pipeline, interconnect, assurance,
#: fabric, adversarial-guest, forensics.
ALL_FAULT_KINDS = (
    FAULT_KINDS + NETWORK_FAULT_KINDS + ASSURANCE_FAULT_KINDS
    + FABRIC_FAULT_KINDS + TORTURE_FAULT_KINDS + FORENSICS_FAULT_KINDS
)

#: The documented failure reason each injected fault class must surface
#: as — ``RewriteResult.reason`` for pipeline kinds,
#: ``TransferReport.reason`` for interconnect kinds (the taxonomy lives
#: in :data:`repro.errors.FAILURE_REASONS`).
EXPECTED_REASON = {
    "decode": "decode-error",
    "memory": "memory-fault",
    "emit": "encode-error",
    "pass": "internal",
    "drop": "link-drop",
    "corrupt": "link-corrupt",
    "delay": "link-delay",
    "partition": "link-partition",
    "shadow": "shadow-divergence",
    "snapshot": "snapshot-corrupt",
    "shed": "service-shed",
    "shard-crash": "shard-dead",
    "shard-stall": "shard-stalled",
    "tenant-flood": "tenant-quota-exceeded",
    "undecodable": "undecodable-instruction",
    "self-modify-mid-trace": "self-modifying-code",
    "indirect-jump-unknown": "indirect-jump",
    "segment-escape": "fetch-out-of-bounds",
    "bundle": "bundle-corrupt",
}

#: Marker embedded in every injected exception message so tests can tell
#: an injected fault from an organic one.
INJECTED_MARK = "injected-fault"


class FaultInjector:
    """Context manager that fails one pipeline seam at the Nth call.

    ``kind`` selects the seam (see module docstring); ``nth`` is the
    1-based call number at which the fault fires.  After the ``with``
    block, ``calls`` holds how many times the seam was exercised and
    ``fired`` whether the fault actually triggered — a test that injects
    at ``nth=5`` into a trace that only decodes 3 instructions should
    notice the miss instead of silently passing.
    """

    def __init__(self, kind: str, nth: int = 1) -> None:
        if kind not in ALL_FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        if nth < 1:
            raise ValueError("nth is 1-based")
        self.kind = kind
        self.nth = nth
        self.calls = 0
        self.fired = False
        self._restore = None

    # ----------------------------------------------------------- plumbing
    def _tick(self) -> bool:
        """Count one call through the seam; True when the fault fires."""
        self.calls += 1
        if self.calls == self.nth:
            self.fired = True
            return True
        return False

    def __enter__(self) -> "FaultInjector":
        if self._restore is not None:
            raise RuntimeError("FaultInjector is not reentrant")
        self.calls = 0
        self.fired = False
        install = getattr(self, f"_install_{self.kind.replace('-', '_')}")
        self._restore = install()
        return self

    def __exit__(self, *exc_info) -> None:
        restore, self._restore = self._restore, None
        if restore is not None:
            restore()

    # -------------------------------------------------------------- seams
    def _install_fetch(self, error):
        """Patch :meth:`repro.core.tracer.Tracer._fetch`, the tracer's
        read of the image's decode cache, so its Nth call raises
        ``error`` instead of returning an instruction (hits count too)."""
        from repro.core.tracer import Tracer

        real = Tracer._fetch

        def faulty_fetch(tracer, addr):
            """Injected: fail the Nth fetch as if its bytes were bad."""
            if self._tick():
                raise error(f"{INJECTED_MARK}: {self.kind}", addr)
            return real(tracer, addr)

        Tracer._fetch = faulty_fetch

        def restore():
            Tracer._fetch = real

        return restore

    def _install_decode(self):
        """The Nth fetch does not decode (``decode-error``)."""
        return self._install_fetch(DecodeError)

    def _install_memory(self):
        """Patch :meth:`repro.machine.memory.Memory.segment_for`, the
        funnel every typed read/write resolves through."""
        from repro.machine.memory import Memory

        real = Memory.segment_for

        def faulty_segment_for(mem, addr, length=1):
            """Injected: fault the Nth memory-access resolution."""
            if self._tick():
                raise SegmentationFault(f"{INJECTED_MARK}: memory", addr)
            return real(mem, addr, length)

        Memory.segment_for = faulty_segment_for

        def restore():
            Memory.segment_for = real

        return restore

    def _install_emit(self):
        """Patch the emitter's view of ``encode_program``."""
        import repro.core.emit as emit_mod

        real = emit_mod.encode_program

        def faulty_encode(items, base_addr, extra_labels=None):
            """Injected: fail the Nth program-encoding attempt."""
            if self._tick():
                raise EncodingError(f"{INJECTED_MARK}: emit")
            return real(items, base_addr, extra_labels=extra_labels)

        emit_mod.encode_program = faulty_encode

        def restore():
            emit_mod.encode_program = real

        return restore

    def _install_network(self, status: str):
        """Patch :meth:`repro.machine.link.Link.transfer` so the Nth
        wire-level attempt (across all links) suffers ``status`` — routed
        through :meth:`~repro.machine.link.Link.force_fault` so injected
        faults have exactly the organic side effects (counters move,
        partitions latch, cycles are charged)."""
        from repro.machine.link import Link

        real = Link.transfer

        def faulty_transfer(link, payload):
            """Injected: force the Nth transfer attempt to a fault."""
            if self._tick():
                return link.force_fault(payload, status)
            return real(link, payload)

        Link.transfer = faulty_transfer

        def restore():
            Link.transfer = real

        return restore

    def _install_drop(self):
        """Nth bulk transfer is dropped (sender burns its timeout)."""
        return self._install_network("drop")

    def _install_corrupt(self):
        """Nth bulk transfer arrives bit-flipped (checksum catches it)."""
        return self._install_network("corrupt")

    def _install_delay(self):
        """Nth bulk transfer completes after the sender's timeout."""
        return self._install_network("delay")

    def _install_partition(self):
        """Nth bulk transfer starts a latched partition on its link."""
        return self._install_network("partition")

    def _install_shadow(self):
        """Patch :meth:`repro.core.shadowexec.ShadowSampler._compare` so
        the Nth shadow comparison sees the variant returning a
        bit-flipped int — a silent miscompile from the comparator's
        point of view; the organic divergence machinery (rollback,
        withdrawal, quarantine, repro capture) does the rest."""
        from repro.core.shadowexec import ShadowSampler

        real = ShadowSampler._compare

        def faulty_compare(sampler, want, run, args):
            """Injected: the Nth compared variant returns a wrong value."""
            if self._tick():
                run = SimpleNamespace(
                    uint_return=run.uint_return ^ 0x1,
                    float_return=run.float_return,
                )
            return real(sampler, want, run, args)

        ShadowSampler._compare = faulty_compare

        def restore():
            ShadowSampler._compare = real

        return restore

    def _install_snapshot(self):
        """Patch :func:`repro.core.persist._encode_record` so the Nth
        record written gets one byte flipped *after* its CRC was
        computed over the clean payload — restore must reject exactly
        that record (``snapshot-corrupt``) and keep the rest."""
        import repro.core.persist as persist_mod

        real = persist_mod._encode_record

        def faulty_encode(record):
            """Injected: bit-rot the Nth persisted snapshot record."""
            line = real(record)
            if self._tick():
                mid = len(line) // 2
                line = line[:mid] + chr(ord(line[mid]) ^ 0x1) + line[mid + 1:]
            return line

        persist_mod._encode_record = faulty_encode

        def restore():
            persist_mod._encode_record = real

        return restore

    def _install_bundle(self):
        """Patch :mod:`repro.core.forensics`'s *own* ``_encode_record``
        binding so the Nth crash-bundle record written gets one byte
        flipped after its CRC was computed — load must reject the
        damage (``bundle-corrupt``): whole-bundle for structural
        records, per-record containment for diagnostics."""
        import repro.core.forensics as forensics_mod

        real = forensics_mod._encode_record

        def faulty_encode(record):
            """Injected: bit-rot the Nth persisted bundle record."""
            line = real(record)
            if self._tick():
                mid = len(line) // 2
                line = line[:mid] + chr(ord(line[mid]) ^ 0x1) + line[mid + 1:]
            return line

        forensics_mod._encode_record = faulty_encode

        def restore():
            forensics_mod._encode_record = real

        return restore

    def _install_shed(self):
        """Patch :meth:`repro.service.rewrite_service.RewriteService._admit`
        so the Nth admission decision sheds the request regardless of
        queue depth — callers must keep receiving the original with the
        ``service-shed`` reason in the log and counters."""
        from repro.service.rewrite_service import RewriteService

        real = RewriteService._admit

        def faulty_admit(service, key):
            """Injected: force the Nth admission decision to shed."""
            if self._tick():
                return f"{INJECTED_MARK}: shed"
            return real(service, key)

        RewriteService._admit = faulty_admit

        def restore():
            RewriteService._admit = real

        return restore

    def _install_shard_crash(self):
        """Patch :meth:`repro.service.fabric.RewriteShard.perform` so the
        Nth dequeued rewrite (across all shards) dies with an arbitrary
        ``RuntimeError`` — the fabric's crash containment must convert
        it into a dead shard plus re-routed keys, never an escaping
        exception or a wrong answer."""
        from repro.service.fabric import RewriteShard

        real = RewriteShard.perform

        def faulty_perform(shard, work):
            """Injected: the Nth shard rewrite crashes the shard."""
            if self._tick():
                raise RuntimeError(f"{INJECTED_MARK}: shard-crash")
            return real(shard, work)

        RewriteShard.perform = faulty_perform

        def restore():
            RewriteShard.perform = real

        return restore

    def _install_shard_stall(self):
        """Patch :meth:`repro.service.fabric.RewriteShard.heartbeat` so
        that from the Nth beat on, *that* shard's heartbeats are
        swallowed (latched per shard — a wedged process never beats
        again) — the watchdog must walk it through SUSPECT to DEAD."""
        from repro.service.fabric import RewriteShard

        real = RewriteShard.heartbeat
        stalled: set[int] = set()

        def faulty_heartbeat(shard, now):
            """Injected: swallow heartbeats from the Nth beat on."""
            if shard.index in stalled:
                return
            if self._tick():
                stalled.add(shard.index)
                return
            return real(shard, now)

        RewriteShard.heartbeat = faulty_heartbeat

        def restore():
            RewriteShard.heartbeat = real

        return restore

    def _install_tenant_flood(self):
        """Patch :meth:`repro.service.fabric.RewriteFabric._admit_tenant`
        so the Nth per-tenant admission decision rejects regardless of
        quota state — the caller must keep the original under
        ``tenant-quota-exceeded``, other tenants untouched."""
        from repro.service.fabric import RewriteFabric

        real = RewriteFabric._admit_tenant

        def faulty_admit(fabric, tenant, shard):
            """Injected: force the Nth tenant admission to reject."""
            if self._tick():
                return f"{INJECTED_MARK}: tenant-flood"
            return real(fabric, tenant, shard)

        RewriteFabric._admit_tenant = faulty_admit

        def restore():
            RewriteFabric._admit_tenant = real

        return restore

    def _install_undecodable(self):
        """The Nth fetch parses structurally but names no executable
        instruction — the adversarial-bytes shape the torture generator
        produces organically (``undecodable-instruction``)."""
        return self._install_fetch(UndecodableError)

    def _install_self_modify_mid_trace(self):
        """Patch :meth:`repro.core.tracer.Tracer._store_hits_code` so the
        Nth absolute-address store the trace models appears to land in
        executable bytes — the organic ``self-modifying-code`` refusal
        does the rest."""
        from repro.core.tracer import Tracer

        real = Tracer._store_hits_code

        def faulty_check(tracer, addr, size=8):
            """Injected: the Nth checked store targets code bytes."""
            if self._tick():
                return True
            return real(tracer, addr, size)

        Tracer._store_hits_code = faulty_check

        def restore():
            Tracer._store_hits_code = real

        return restore

    def _install_indirect_jump_unknown(self):
        """Patch :meth:`repro.core.tracer.Tracer._do_jmp` so the Nth
        jump's target is unknowable — the paper's canonical unhandled
        situation (Sec. III.F), surfacing as ``indirect-jump``."""
        from repro.core.tracer import Tracer

        real = Tracer._do_jmp

        def faulty_jmp(tracer, insn, next_pc):
            """Injected: the Nth jump has an unknown target."""
            if self._tick():
                raise RewriteFailure(
                    "indirect-jump", f"{INJECTED_MARK}: indirect-jump-unknown"
                )
            return real(tracer, insn, next_pc)

        Tracer._do_jmp = faulty_jmp

        def restore():
            Tracer._do_jmp = real

        return restore

    def _install_segment_escape(self):
        """Patch :meth:`repro.core.tracer.Tracer._decode` so the Nth
        instruction fetch happens at a genuinely unmapped address — the
        organic unmapped-fetch conversion (``fetch-out-of-bounds``) runs
        for real, segment scan and all."""
        from repro.core.tracer import Tracer

        real = Tracer._decode

        def faulty_fetch(tracer, addr):
            """Injected: redirect the Nth fetch off every segment."""
            if self._tick():
                addr = 0x6666_0000_0000  # far beyond every mapped segment
            return real(tracer, addr)

        Tracer._decode = faulty_fetch

        def restore():
            Tracer._decode = real

        return restore

    def _install_pass(self):
        """Patch the pass loader so the loaded pass function crashes with
        an arbitrary (non-Repro) exception at its Nth block."""
        import repro.core.passes.pipeline as pipeline_mod

        real = pipeline_mod._load_pass

        def faulty_load(name):
            """Injected: wrap the real pass in an Nth-call crasher."""
            fn = real(name)

            def crashing_pass(insns, image):
                """Injected wrapper: crash at the Nth block."""
                if self._tick():
                    raise RuntimeError(f"{INJECTED_MARK}: pass {name!r}")
                return fn(insns, image)

            return crashing_pass

        pipeline_mod._load_pass = faulty_load

        def restore():
            pipeline_mod._load_pass = real

        return restore


def inject_fault(kind: str, nth: int = 1) -> FaultInjector:
    """Convenience alias: ``with inject_fault("decode", nth=3): ...``."""
    return FaultInjector(kind, nth)


def plan_faults(
    seed: int, *, kinds: tuple[str, ...] = FAULT_KINDS, rounds: int = 1, max_nth: int = 6
) -> Iterator[FaultInjector]:
    """A seeded campaign: for each round and each kind, yield an injector
    with a pseudo-random Nth-call position in ``[1, max_nth]``.

    Deterministic for a given seed, so a failing campaign is replayable
    by number.
    """
    rng = random.Random(seed)
    for _ in range(rounds):
        for kind in kinds:
            yield FaultInjector(kind, rng.randint(1, max_nth))
