"""Seeded fault injection for the rewrite pipeline and its resilience
layers.

The paper's robustness claim (Sec. III.G: "it is not catastrophic if the
rewriter meets a situation it cannot handle") is easy to state and easy
to regress.  This module makes it testable: :class:`FaultInjector`
monkeypatches one well-defined seam so that the Nth call through it
fails, and the test asserts that the layer above still answers with a
*tagged* result — the documented taxonomy reason for that fault kind
(:data:`repro.errors.FAILURE_REASONS`), never an escaping exception and
never a wrong answer.

:data:`SEAMS` is the one list of fault kinds.  Each row names the kind's
group, the reason it must surface as, the attribute it replaces
(``"module:Owner.attr"``) and the wrapper that replaces it.  Most
wrappers come from four shapes: raise at the Nth call, return a value
at the Nth call, bit-rot the Nth record written, and force the Nth
link attempt to a wire-level fate (through
:meth:`repro.machine.link.Link.force_fault`, so counters move,
partitions latch and cycles are charged as for an organic fault).
The rest are written per kind.  The group tuples
(:data:`FAULT_KINDS` and the five others), :data:`ALL_FAULT_KINDS` and
:data:`EXPECTED_REASON` are read off the table.

To add a kind, add one row, register its reason in
:data:`~repro.errors.FAILURE_REASONS` and mention it in
``docs/REWRITER.md``; ``tests/test_failure_taxonomy.py`` checks both.

A seam is patched for the dynamic extent of the ``with`` block only and
restored unconditionally; injectors are reusable but not reentrant.

The ``decode`` and ``undecodable`` seams sit behind the image's decode
cache (:meth:`repro.machine.image.Image.fetch`): they wrap the tracer's
read of it, :meth:`repro.core.tracer.Tracer._fetch`, and count every
fetch that reaches it — cache hits, and misses that passed the tracer's
mapping and permission checks — so code decoded by an earlier rewrite
or by execution cannot hide an injected fault.  The ``bundle`` seam is
deliberately apart from ``snapshot``: forensics imports persist's
``_encode_record`` by value, so cache-snapshot bit-rot never leaks into
bundle writes and vice versa.
"""

from __future__ import annotations

import importlib
import random
from functools import partial
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

from repro.errors import (
    DecodeError, EncodingError, RewriteFailure, SegmentationFault,
    UndecodableError,
)

#: Marker embedded in every injected exception message (and forced shed
#: reason) so tests can tell an injected fault from an organic one.
INJECTED_MARK = "injected-fault"


# ---------------------------------------------------------------- shapes
# A wrapper builder takes the entered injector and the real attribute
# and returns the replacement; ``injector.tick()`` counts one call
# through the seam and is true at the Nth.

def _raises(error, *, addressed: bool = False):
    """Shape: the Nth call raises ``error(message)`` instead of running
    (``error(message, address)`` when ``addressed``: the call's first
    argument after ``self``)."""
    def wrap(injector, real):
        def faulty(*args, **kwargs):
            if injector.tick():
                message = f"{INJECTED_MARK}: {injector.kind}"
                raise error(message, args[1]) if addressed else error(message)
            return real(*args, **kwargs)
        return faulty
    return wrap


def _returns(value=None):
    """Shape: the Nth call returns ``value`` instead of running (by
    default the injected message, which an admission seam reads as the
    reason it sheds)."""
    def wrap(injector, real):
        def faulty(*args, **kwargs):
            if injector.tick():
                return f"{INJECTED_MARK}: {injector.kind}" if value is None else value
            return real(*args, **kwargs)
        return faulty
    return wrap


def _bit_rot(injector, real):
    """Shape: the Nth record written gets one byte flipped *after* its
    CRC was computed over the clean payload, as torn writes and bit rot
    look; the loader must reject exactly that damage."""
    def faulty(record):
        line = real(record)
        if injector.tick():
            mid = len(line) // 2
            line = line[:mid] + chr(ord(line[mid]) ^ 0x1) + line[mid + 1:]
        return line
    return faulty


def _forced_link(injector, real):
    """Shape: the Nth wire-level attempt across all links suffers the
    fate the kind names (``drop``, ``corrupt``, ``delay``,
    ``partition``)."""
    def faulty(link, payload):
        if injector.tick():
            return link.force_fault(payload, injector.kind)
        return real(link, payload)
    return faulty


def _crashing_pass(injector, real):
    """The pass loader hands out each real pass wrapped so that the Nth
    block through any of them crashes with an arbitrary (non-Repro)
    exception: a bug in the pass itself."""
    def faulty_load(name):
        fn = real(name)

        def crashing_pass(insns, image):
            if injector.tick():
                raise RuntimeError(f"{INJECTED_MARK}: pass {name!r}")
            return fn(insns, image)
        return crashing_pass
    return faulty_load


def _lying_compare(injector, real):
    """The Nth shadow comparison sees the variant return a bit-flipped
    int: a silent miscompile from the comparator's point of view, which
    the organic divergence machinery (rollback, withdrawal, quarantine,
    repro capture) handles."""
    def faulty(sampler, want, run, args):
        if injector.tick():
            run = SimpleNamespace(uint_return=run.uint_return ^ 0x1,
                                  float_return=run.float_return)
        return real(sampler, want, run, args)
    return faulty


def _stalled_heartbeat(injector, real):
    """From the Nth heartbeat on, that shard's heartbeats are swallowed,
    latched per shard (a wedged process never beats again): the
    watchdog must walk it through SUSPECT to DEAD."""
    stalled: set[int] = set()

    def faulty(shard, now):
        if shard.index in stalled:
            return None
        if injector.tick():
            stalled.add(shard.index)
            return None
        return real(shard, now)
    return faulty


def _escaped_fetch(injector, real):
    """The Nth instruction fetch happens at a genuinely unmapped
    address, so the organic unmapped-fetch conversion runs for real,
    segment scan and all."""
    def faulty(tracer, addr):
        if injector.tick():
            addr = 0x6666_0000_0000  # far beyond every mapped segment
        return real(tracer, addr)
    return faulty


# ----------------------------------------------------------------- table
class Seam(NamedTuple):
    """One injectable fault kind."""

    #: Which resilience layer the kind exercises.
    group: str
    #: The :data:`~repro.errors.FAILURE_REASONS` entry it surfaces as.
    reason: str
    #: The attribute it replaces, ``"module:Owner.attr"`` or
    #: ``"module:attr"``.
    target: str
    #: ``(injector, real) -> replacement``.
    wrap: Callable

    def resolve(self) -> tuple[object, str]:
        """The object that holds :attr:`target`, and its attribute name."""
        module, _, path = self.target.partition(":")
        owner = importlib.import_module(module)
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        return owner, attr


#: Every injectable fault kind, grouped by resilience layer in pipeline
#: order: the rewrite pipeline, the interconnect, continuous assurance,
#: the sharded fabric, adversarial guests, crash forensics.
SEAMS: dict[str, Seam] = {
    # the tracer's read of the decode cache; hits count too
    "decode": Seam("pipeline", "decode-error", "repro.core.tracer:Tracer._fetch",
                   _raises(DecodeError, addressed=True)),
    # the funnel every typed read and write resolves through
    "memory": Seam("pipeline", "memory-fault",
                   "repro.machine.memory:Memory.segment_for",
                   _raises(SegmentationFault, addressed=True)),
    # the emitter's view of the program encoder
    "emit": Seam("pipeline", "encode-error", "repro.core.emit:encode_program",
                 _raises(EncodingError)),
    "pass": Seam("pipeline", "internal", "repro.core.passes.pipeline:_load_pass",
                 _crashing_pass),
    # retried by the transfer manager; the reason is the last attempt's
    "drop": Seam("network", "link-drop", "repro.machine.link:Link.transfer",
                 _forced_link),
    "corrupt": Seam("network", "link-corrupt", "repro.machine.link:Link.transfer",
                    _forced_link),
    "delay": Seam("network", "link-delay", "repro.machine.link:Link.transfer",
                  _forced_link),
    "partition": Seam("network", "link-partition",
                      "repro.machine.link:Link.transfer", _forced_link),
    "shadow": Seam("assurance", "shadow-divergence",
                   "repro.core.shadowexec:ShadowSampler._compare", _lying_compare),
    # restore rejects exactly the rotten record and keeps the rest
    "snapshot": Seam("assurance", "snapshot-corrupt",
                     "repro.core.persist:_encode_record", _bit_rot),
    "shed": Seam("assurance", "service-shed",
                 "repro.service.rewrite_service:RewriteService._admit",
                 _returns()),
    # a shard process dying mid-rewrite, contained as a shard death
    "shard-crash": Seam("fabric", "shard-dead",
                        "repro.service.fabric:RewriteShard.perform",
                        _raises(RuntimeError)),
    "shard-stall": Seam("fabric", "shard-stalled",
                        "repro.service.fabric:RewriteShard.heartbeat",
                        _stalled_heartbeat),
    "tenant-flood": Seam("fabric", "tenant-quota-exceeded",
                         "repro.service.fabric:RewriteFabric._admit_tenant",
                         _returns()),
    # bytes that parse but name no executable instruction
    "undecodable": Seam("torture", "undecodable-instruction",
                        "repro.core.tracer:Tracer._fetch",
                        _raises(UndecodableError, addressed=True)),
    # the Nth absolute-address store the trace models lands in code
    "self-modify-mid-trace": Seam("torture", "self-modifying-code",
                                  "repro.core.tracer:Tracer._store_hits_code",
                                  _returns(True)),
    # the paper's canonical unhandled situation (Sec. III.F)
    "indirect-jump-unknown": Seam("torture", "indirect-jump",
                                  "repro.core.tracer:Tracer._do_jmp",
                                  _raises(partial(RewriteFailure, "indirect-jump"))),
    "segment-escape": Seam("torture", "fetch-out-of-bounds",
                           "repro.core.tracer:Tracer._decode", _escaped_fetch),
    # whole-bundle rejection for structural records, per-record
    # containment for diagnostics
    "bundle": Seam("forensics", "bundle-corrupt",
                   "repro.core.forensics:_encode_record", _bit_rot),
}


def _group(name: str) -> tuple[str, ...]:
    return tuple(kind for kind, seam in SEAMS.items() if seam.group == name)


FAULT_KINDS = _group("pipeline")
NETWORK_FAULT_KINDS = _group("network")
ASSURANCE_FAULT_KINDS = _group("assurance")
FABRIC_FAULT_KINDS = _group("fabric")
TORTURE_FAULT_KINDS = _group("torture")
FORENSICS_FAULT_KINDS = _group("forensics")
ALL_FAULT_KINDS = tuple(SEAMS)
#: The reason each kind must surface as: ``RewriteResult.reason`` for
#: pipeline kinds, ``TransferReport.reason`` for interconnect kinds.
EXPECTED_REASON = {kind: seam.reason for kind, seam in SEAMS.items()}


class FaultInjector:
    """Context manager that fails one seam at the Nth call.

    ``kind`` selects the row of :data:`SEAMS`; ``nth`` is the 1-based
    call number at which the fault fires.  After the ``with`` block,
    ``calls`` holds how many times the seam was exercised and ``fired``
    whether the fault actually triggered — a test that injects at
    ``nth=5`` into a trace that only decodes 3 instructions should
    notice the miss instead of silently passing.
    """

    def __init__(self, kind: str, nth: int = 1) -> None:
        if kind not in SEAMS:
            raise ValueError(f"unknown fault kind {kind!r}")
        if nth < 1:
            raise ValueError("nth is 1-based")
        self.kind = kind
        self.nth = nth
        self.calls = 0
        self.fired = False
        #: ``(owner, attribute, real value)`` while entered.
        self._patched = None

    def tick(self) -> bool:
        """Count one call through the seam; True when the fault fires."""
        self.calls += 1
        if self.calls == self.nth:
            self.fired = True
            return True
        return False

    def __enter__(self) -> "FaultInjector":
        if self._patched is not None:
            raise RuntimeError("FaultInjector is not reentrant")
        self.calls = 0
        self.fired = False
        seam = SEAMS[self.kind]
        owner, attr = seam.resolve()
        real = getattr(owner, attr)
        setattr(owner, attr, seam.wrap(self, real))
        self._patched = owner, attr, real
        return self

    def __exit__(self, *exc_info) -> None:
        patched, self._patched = self._patched, None
        if patched is not None:
            setattr(*patched)


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
