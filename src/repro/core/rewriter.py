"""``brew_rewrite`` orchestration (paper Sec. III.E and III.G).

"The generator API function takes as parameters the configuration, the
function pointer of the original function, as well as all parameters of
the original function.  A pointer to the new function is returned which
can be used as drop-in replacement of the original function."

Failure is a *result*: every :class:`~repro.errors.RewriteFailure`
raised anywhere in the pipeline is caught and reported in
``RewriteResult.ok/reason`` so the caller can keep using the original
entry point — the robustness property Sec. III.G insists on.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.errors import MemoryError_, ReproError, RewriteFailure
from repro.abi.callconv import FLOAT_ARG_REGS, INT_ARG_REGS
from repro.core.config import Knownness, RewriteConfig
from repro.core.emit import emit_into_image
from repro.core.known import KnownFloat, KnownInt, World
from repro.core.debuginfo import DebugMap
from repro.core.tracer import Tracer, TraceStats
from repro.machine.image import Image

#: Default extent of a BREW_PTR_TO_KNOWN range when the data size is not
#: declared (clamped to the containing segment).
PTR_KNOWN_EXTENT = 64 * 1024

_name_counter = itertools.count(1)


@dataclass
class RewriteResult:
    """Outcome of one rewrite attempt."""

    ok: bool
    original: int
    entry: int | None = None
    name: str | None = None
    reason: str = ""
    message: str = ""
    code_size: int = 0
    stats: TraceStats = field(default_factory=TraceStats)
    #: Host seconds spent rewriting (reported for ABL-5; not simulated).
    rewrite_seconds: float = 0.0
    #: Provenance of every emitted instruction (Sec. VIII debugging).
    debug: "DebugMap | None" = None
    #: Which degradation-ladder rung produced this result (0 = the
    #: caller's own config; set by the resilience supervisor).
    ladder_rung: int = 0
    #: ``(rung_name, failure_reason)`` for every attempt before this one.
    ladder_attempts: tuple = ()
    #: True once the differential validation gate compared this variant
    #: against the original and found no divergence.
    validated: bool = False
    #: World signature: ``(addr, value)`` pairs for every declared-known
    #: memory cell whose content the trace actually consumed.  Two
    #: configs that agree on these cells (but differ in irrelevant
    #: bytes) produce the same specialized body, so the manager keys its
    #: cache — and its invalidation dependencies — on exactly this set.
    known_reads: tuple = ()

    @property
    def entry_or_original(self) -> int:
        """The drop-in pointer: the rewritten entry, or the original on
        failure (the paper's graceful-fallback idiom)."""
        return self.entry if self.ok and self.entry is not None else self.original


def _build_entry_world(
    image: Image, config: RewriteConfig, args: tuple
) -> World:
    """Seed the entry known-world from the declared parameter knownness
    and the concrete example arguments (paper Fig. 3/5)."""
    world = World.entry_world()
    entry_cfg = config.function(None)
    next_int = next_float = 0
    for position, arg in enumerate(args, start=1):
        knownness = entry_cfg.params.get(position, Knownness.UNKNOWN)
        if isinstance(arg, bool):
            raise RewriteFailure("bad-argument", "boolean rewrite argument")
        if isinstance(arg, float):
            reg = FLOAT_ARG_REGS[next_float]
            next_float += 1
            if knownness is not Knownness.UNKNOWN:
                world.xmm[reg] = KnownFloat(arg)
        elif isinstance(arg, int):
            reg = INT_ARG_REGS[next_int]
            next_int += 1
            if knownness is not Knownness.UNKNOWN:
                world.regs[reg] = KnownInt(arg)
            if knownness is Knownness.PTR_TO_KNOWN:
                _register_pointed_to(image, config, arg)
        else:
            raise RewriteFailure("bad-argument", f"unsupported argument {arg!r}")
    return world


def _register_pointed_to(image: Image, config: RewriteConfig, ptr: int) -> None:
    """BREW_PTR_TO_KNOWN: declare the memory behind ``ptr`` known.  The
    paper applies this "recursively if pointers would have been used";
    without type information we declare a bounded extent clamped to the
    pointer's segment, which covers nested pointers into the same data."""
    try:
        seg = image.memory.segment_for(ptr, 1)
    except ReproError as exc:
        raise RewriteFailure("bad-argument", f"PTR_TO_KNOWN at unmapped 0x{ptr:x}") from exc
    end = min(seg.end, ptr + PTR_KNOWN_EXTENT)
    config.add_known_memory(ptr, end)


def rewrite(
    machine_or_image, config: RewriteConfig, fn, *args, clock=None
) -> RewriteResult:
    """Rewrite the function at ``fn`` (symbol name or address).

    ``args`` are the example parameters driving the trace, exactly like
    the trailing arguments of the paper's ``brew_rewrite``.  ``clock``
    (a ``() -> float`` monotonic source) governs the
    ``config.deadline_seconds`` budget; the default is the real
    monotonic clock, and supervisors inject a fake one in tests so
    deadline expiry is deterministic.

    ``config`` is not mutated: PTR_TO_KNOWN ranges are registered into a
    private copy, so the cache key a caller derives from ``config`` is
    the same before and after the rewrite.
    """
    # accept a Machine facade or a bare Image
    image: Image = getattr(machine_or_image, "image", machine_or_image)
    host_addrs: set[int] = set()
    cpu = getattr(machine_or_image, "cpu", None)
    if cpu is not None:
        host_addrs = set(cpu.host_functions)

    original = image.resolve(fn)
    started = time.perf_counter()
    try:
        config = config.copy()
        entry_world = _build_entry_world(image, config, tuple(args))
        tracer = Tracer(image, config, original)
        tracer._host_addrs = host_addrs
        if clock is not None:
            tracer.clock = clock
        if config.deadline_seconds is not None:
            tracer.deadline = tracer.clock() + config.deadline_seconds
        output = tracer.run(entry_world)
        registry = output.registry
        if config.passes:
            from repro.core.passes.pipeline import run_passes

            run_passes(registry, config.passes, image, output.entry_label)
        base_name = image.symbol_names.get(original, f"fn_{original:x}")
        name = f"{base_name}__brew{next(_name_counter)}"
        entry, size, debug = emit_into_image(image, registry, output.entry_label, name)
        return RewriteResult(
            ok=True,
            original=original,
            entry=entry,
            name=name,
            code_size=size,
            stats=output.stats,
            rewrite_seconds=time.perf_counter() - started,
            debug=debug,
            known_reads=tuple(sorted(output.known_reads.items())),
        )
    except RewriteFailure as exc:
        return RewriteResult(
            ok=False,
            original=original,
            reason=exc.reason,
            message=str(exc),
            rewrite_seconds=time.perf_counter() - started,
        )
    except Exception as exc:  # noqa: BLE001 — Sec. III.G: never a crash
        failure = _wrap_unexpected(exc)
        return RewriteResult(
            ok=False,
            original=original,
            reason=failure.reason,
            message=str(failure),
            rewrite_seconds=time.perf_counter() - started,
        )


def _wrap_unexpected(exc: Exception) -> RewriteFailure:
    """Convert a non-RewriteFailure escaping the pipeline into a tagged
    graceful failure.  The paper's robustness property ("it is not
    catastrophic if the rewriter meets a situation it cannot handle")
    must hold even for bugs in the rewriter itself — a fault-injection
    harness asserts no raw traceback ever escapes ``brew_rewrite``."""
    if isinstance(exc, MemoryError_):
        return RewriteFailure("memory-fault", f"{type(exc).__name__}: {exc}")
    return RewriteFailure("internal", f"{type(exc).__name__}: {exc}")
