"""Specialization management: caching, reuse, invalidation, quarantine.

The paper's use cases all share a lifecycle the raw ``brew_rewrite``
call leaves to the caller: a library specializes a function *per
configuration instance* (per stencil, per domain map, per descriptor),
wants to reuse the variant while the instance is unchanged, and must
drop it when the instance mutates (Sec. VI: "a runtime system could
trigger a new specialization whenever the domain map is changed").
:class:`SpecializationManager` packages that lifecycle:

* variants are cached under ``(function, config fingerprint, example
  arguments, fingerprints of the known memory they depend on)``;
* ``get`` returns a cached drop-in pointer or rewrites on miss;
* the cache is also the one table of **published** variants: the
  rewrite service (:mod:`repro.service`) marks a cache entry with the
  entry point warm callers get (``publish``, read back by
  ``published``).  Every hit, a ``get`` or a warm dispatch, passes one
  freshness rule (the known cells the trace read still hold what it
  read); a stale entry is evicted where it is found, so an unannounced
  write to known memory is never served;
* ``invalidate_memory(start, end)`` drops variants whose known-memory
  ranges overlap a mutated region (the redistribute trigger, announced
  eagerly) and bumps the **known-memory epoch**, a counter that a
  persisted snapshot records, so a snapshot taken before an
  invalidation restores nothing (:mod:`repro.core.persist`);
* failures are **quarantined with backoff** rather than pinned forever:
  a failed rewrite is served from cache while its backoff window is
  open, then retried; repeated failures back off exponentially.  A
  function that cannot be rewritten *today* (buffers too small, code
  path unsupported) may well succeed after the workload or configuration
  changes — pinning the failure forever turns a transient condition
  into a permanent one;
* ``stats()`` exposes hit/miss/fallback/quarantine counters so runtimes
  can report specialization health (the experiments harness does).
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.config import Knownness, RewriteConfig
from repro.core.rewriter import RewriteResult, rewrite
from repro.errors import RewriteFailure, SegmentationFault
from repro.obs import Metrics

#: First-failure backoff window in (clock) seconds; doubles per repeat.
DEFAULT_BACKOFF_SECONDS = 0.25
#: Ceiling for the exponential backoff window.
MAX_BACKOFF_SECONDS = 60.0

_F64 = struct.Struct("<d")


def _config_fingerprint(conf: RewriteConfig) -> tuple:
    """A hashable digest of everything that changes rewrite output.

    Every request derives it (``key_for``), so it is built with plain
    loops; configs are mutated in place, so it is never cached."""
    functions = []
    for addr, cfg in conf.functions.items():
        # ``_value_`` is what ``Knownness.value`` returns, without the
        # enum property's call
        params = [(index, knownness._value_)
                  for index, knownness in cfg.params.items()]
        params.sort()
        functions.append((str(addr), (
            tuple(params),
            cfg.inline, cfg.force_unknown_results, cfg.conditionals_unknown,
        )))
    functions.sort()
    known, markers, cells = (
        conf.known_memory, conf.dynamic_markers, conf.dynamic_cells)
    return (
        tuple(functions),
        tuple(sorted(known)) if known else (),
        conf.variant_threshold,
        conf.deferred_spills,
        conf.inline_default,
        conf.passes,
        tuple(sorted(markers)) if markers else (),
        tuple(sorted(cells)) if cells else (),
    )


def _args_fingerprint(args: tuple) -> tuple:
    """A hashable stand-in for the example arguments.

    Rewrite arguments are ints and floats, which hash fine — but a caller
    passing a list or dict by mistake should get the rewriter's graceful
    ``bad-argument`` result, not a raw ``TypeError`` out of the cache
    key.  Unhashable arguments are fingerprinted by type and repr."""
    try:
        hash(args)
        return args
    except TypeError:
        return tuple(
            (type(a).__name__, hashlib.sha1(repr(a).encode()).hexdigest())
            for a in args
        )


def _relevant_args(conf: RewriteConfig, args: tuple) -> tuple:
    """Project the example arguments onto what the rewrite can see.

    The entry world seeds only *declared-known* parameters, so the
    concrete value of an UNKNOWN int/float argument provably cannot
    influence the trace — two calls differing only there produce the
    same specialized body and must share one cache slot.  The argument's
    *type* still matters (int vs. float changes register assignment), so
    unknown positions collapse to a ``("?", typename)`` placeholder
    rather than disappearing.

    Every other argument keys exactly what the rewrite sees.  An exact
    ``int`` stays verbatim, so int keys, route digests and replays are
    unchanged.  A float becomes ``("float", IEEE-754 bits)``: 3 and 3.0,
    or 0.0 and -0.0, get different keys, equal NaNs share one, and
    ``inf`` survives a snapshot's ``ast.literal_eval``.  Any other
    hashable value becomes ``(typename, value)``, so ``True`` is not 1.
    An unhashable one (a list passed by mistake) stays verbatim:
    :func:`_args_fingerprint` keys it by type and repr, as it always
    did.  The rewriter rejects all of these as ``bad-argument``, and the
    failure is cached per value."""
    entry = conf.functions.get(conf.ENTRY)
    declared = entry.params if entry is not None else {}
    unknown = Knownness.UNKNOWN
    out = []
    for position, arg in enumerate(args, 1):
        kind = type(arg)
        if ((kind is int or kind is float)
                and declared.get(position, unknown) is unknown):
            out.append(("?", kind.__name__))
        elif kind is int:
            out.append(arg)
        elif kind is float:
            out.append(("float", int.from_bytes(_F64.pack(arg), "little")))
        elif kind.__hash__ is None:
            out.append(arg)
        else:
            out.append((kind.__name__, arg))
    return tuple(out)


def conf_fingerprint(conf: RewriteConfig) -> str:
    """The config half of a cache key as text, recorded in crash bundles
    so a bundle can be matched against live cache entries."""
    return repr(_config_fingerprint(conf))


def portable_key(fn, key: tuple) -> tuple:
    """``key`` with its per-machine function address replaced by
    ``str(fn)``: equal on every machine that loads the same program, so
    the rewrite fabric routes on its digest."""
    return (str(fn),) + key[1:]


def _cell_runs(memory, deps) -> tuple | None:
    """A successful entry's world signature as the freshness check reads
    it: one ``(segment bytes, start, end, expected bytes)`` per run of
    adjacent or overlapping 8-byte cells in one segment, so the check is
    one slice compare per run.  None when no memory contents can match:
    a cell whose value is not an unsigned 64-bit int (a restored ``None``
    among them), two overlapping cells that disagree, or a cell outside
    every segment.  Segments are never unmapped and their buffers are
    only written in place, so the runs stay valid for the entry's life."""
    runs: list[list] = []
    for start, _, value in sorted(deps, key=lambda dep: dep[0]):
        if type(value) is not int or not 0 <= value < 1 << 64:
            return None
        try:
            seg = memory.segment_for(start, 8)
        except SegmentationFault:
            return None
        off, want = start - seg.base, value.to_bytes(8, "little")
        run = runs[-1] if runs else None
        if run and run[0] is seg.data and off <= run[1] + len(run[2]):
            # sorted 8-byte cells: the run ends within this cell
            shared = run[2][off - run[1]:]
            if want[:len(shared)] != shared:
                return None
            run[2] += want[len(shared):]
        else:
            runs.append([seg.data, off, bytearray(want)])
    return tuple((data, lo, lo + len(want), bytes(want))
                 for data, lo, want in runs)


@dataclass
class _Entry:
    """One cached rewrite outcome (success or quarantined failure) and,
    once the rewrite service publishes it, what callers dispatch to."""

    result: RewriteResult
    #: Known-memory dependencies at rewrite time.  For a successful
    #: rewrite these are the *world signature*: ``(addr, addr+8, value)``
    #: triples for exactly the cells the trace consumed (the third
    #: element is the 8-byte integer value read).  For failures — where
    #: no trace output exists — they are the declared ranges as
    #: ``(start, end, None)``, used only for overlap.
    memory_deps: list[tuple[int, int, int | None]] = field(default_factory=list)
    #: Consecutive failures for this key (0 for a successful entry).
    fail_count: int = 0
    #: Clock time at which a quarantined failure becomes retryable.
    retry_at: float = 0.0
    #: The world signature as byte runs (:func:`_cell_runs`); None for
    #: a failure and for a success that can never read fresh.
    runs: tuple | None = None
    #: The entry point warm callers are dispatched to (None: unpublished).
    published: int | None = None
    #: Published but not yet trusted: the next dispatch through the
    #: service's ``call`` is shadow-validated before it is admitted.
    probation: bool = False

    def overlaps(self, start: int, end: int) -> bool:
        """Whether any known-memory dependency intersects [start, end)."""
        return any(s < end and start < e for s, e, _ in self.memory_deps)

    def fresh(self) -> bool:
        """The one freshness rule: every known cell the trace read still
        holds the value it read."""
        runs = self.runs
        if runs is None:
            return False
        for data, lo, hi, want in runs:
            if data[lo:hi] != want:
                return False
        return True


class SpecializationManager:
    """Caches rewrites per machine; see the module docstring.

    ``rewrite_fn`` lets callers route rewrites through a
    :class:`~repro.core.resilience.RewriteSupervisor` (pass its bound
    ``rewrite`` method); the default is the plain ``brew_rewrite``
    pipeline.  ``clock`` is injectable for deterministic backoff tests.
    """

    def __init__(
        self,
        machine,
        *,
        rewrite_fn: Callable[..., RewriteResult] | None = None,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
        max_backoff_seconds: float = MAX_BACKOFF_SECONDS,
        clock: Callable[[], float] = time.monotonic,
        metrics: Metrics | None = None,
    ) -> None:
        self.machine = machine
        self._rewrite_fn = rewrite_fn
        self.backoff_seconds = backoff_seconds
        self.max_backoff_seconds = max_backoff_seconds
        self.clock = clock
        self.metrics = metrics if metrics is not None else Metrics()
        self._cache: dict[tuple, _Entry] = {}
        #: Content-addressed code index: sha1 of the emitted bytes →
        #: canonical (entry, name).  Two keys whose rewrites produce
        #: byte-identical bodies (emission is rel32 position-independent)
        #: dispatch through one copy; the redundant emission's span goes
        #: back to the rewrite allocator when it is the latest one.
        self._code_index: dict[str, tuple[int, str]] = {}
        #: Monotone counter bumped on every invalidation; snapshots
        #: record it, and a restore rejects one from an older epoch.
        self.epoch = 1

    # ------------------------------------------------------------- internal
    def _do_rewrite(self, conf: RewriteConfig, fn, *args) -> RewriteResult:
        if self._rewrite_fn is not None:
            return self._rewrite_fn(conf, fn, *args)
        return rewrite(self.machine, conf, fn, *args)

    @staticmethod
    def _memory_deps(
        conf: RewriteConfig, result: RewriteResult
    ) -> list[tuple[int, int, int | None]]:
        """Dependencies that make a cached entry stale.

        A successful rewrite carries its world signature
        (``result.known_reads``): the variant depends on exactly the
        known cells the trace consumed, so mutating an unread byte of a
        declared range neither invalidates it nor counts as overlap for
        :meth:`invalidate_memory`.  Failures have no trace, so they
        overlap every declared range; their freshness is the backoff
        window, never memory content."""
        if result.ok:
            return [(addr, addr + 8, value) for addr, value in result.known_reads]
        return [(start, end, None) for start, end in conf.known_memory]

    def _file(self, key: tuple, result: RewriteResult, memory_deps: list,
              fail_count: int = 0, retry_at: float = 0.0) -> None:
        """File an unpublished entry under ``key``; a success gets its
        world signature's byte runs (an ``ok`` entry restored with a
        ``None`` value never reads fresh: it fails closed)."""
        runs = (_cell_runs(self.machine.memory, memory_deps)
                if result.ok else None)
        self._cache[key] = _Entry(
            result, memory_deps, fail_count, retry_at, runs)

    def key_for(self, fn, conf: RewriteConfig, args: tuple) -> tuple:
        """The cache key ``get`` files ``(fn, conf, args)`` under.

        Rewriting never mutates ``conf``, so the key is the same before
        and after a rewrite: the rewrite service and the fabric's router
        derive it once per request, look the published entry up under
        it (:meth:`published`) and publish under it."""
        return (
            self.machine.image.resolve(fn),
            _config_fingerprint(conf),
            _args_fingerprint(_relevant_args(conf, args)),
        )

    def _evict(self, keys: list[tuple]) -> None:
        """Drop ``keys``; each published one counts as
        ``service.withdrawn``."""
        withdrawn = sum(self._cache.pop(k).published is not None for k in keys)
        if keys:
            self.metrics.inc("manager.evictions", len(keys))
        if withdrawn:
            self.metrics.inc("service.withdrawn", withdrawn)

    def _backoff(self, fail_count: int) -> float:
        return min(
            self.backoff_seconds * (2 ** (fail_count - 1)),
            self.max_backoff_seconds,
        )

    # ------------------------------------------------------------------ api
    def get(self, conf: RewriteConfig, fn, *args) -> RewriteResult:
        """A (possibly cached) rewrite of ``fn`` under ``conf``.

        The lookup and the new entry share one key, ``key_for(fn, conf,
        args)``: a rewrite registers PTR_TO_KNOWN ranges into a private
        copy of ``conf``, so a fresh but equal config hits.

        Successes are served from cache while their known-memory
        dependencies are byte-identical (``_Entry.fresh``, the rule a
        warm dispatch through :meth:`published` passes too).  Failures
        are served from cache only while their backoff window is open;
        after it expires the rewrite is retried, and repeated failures
        double the window (capped at ``max_backoff_seconds``).
        """
        key = self.key_for(fn, conf, args)
        entry = self._cache.get(key)
        retry_of: _Entry | None = None
        if entry is not None:
            if entry.result.ok:
                # stale if any depended-on known cell changed content
                if entry.fresh():
                    self.metrics.inc("manager.hits")
                    return entry.result
                self.metrics.inc("manager.miss_stale")
                self._evict([key])
            elif self.clock() < entry.retry_at:
                self.metrics.inc("manager.hits")
                self.metrics.inc("manager.quarantine_hits")
                return entry.result
            else:
                self.metrics.inc("manager.quarantine_retries")
                retry_of = entry
        else:
            self.metrics.inc("manager.miss_cold")
        self.metrics.inc("manager.misses")
        result = self._do_rewrite(conf, fn, *args)
        if result.ok:
            result = self._dedup_code(result)
            self._file(key, result, self._memory_deps(conf, result))
        else:
            self.metrics.inc("manager.fallbacks")
            fail_count = (retry_of.fail_count if retry_of else 0) + 1
            self._file(key, result, self._memory_deps(conf, result),
                       fail_count, self.clock() + self._backoff(fail_count))
        return result

    def _dedup_code(self, result: RewriteResult) -> RewriteResult:
        """Content-addressed sharing of emitted bodies.

        Emission relocates internal jumps as rel32, so byte-identical
        bodies behave identically at any address; the first emission of
        a body becomes canonical and later identical emissions dispatch
        through it.  This is what makes world-signature sharing pay off
        across *distinct* cache keys (e.g. configs with different
        declared ranges whose read cells happen to agree), and what
        keeps a service that cycles through a few configurations
        (Sec. VI retuning) from growing its code: the duplicate's span
        goes back to the allocator (:meth:`Image.free_rewrite`), and its
        debug map moves onto the canonical body, whose instructions sit
        at the same offsets."""
        if not result.ok or result.entry is None or not result.code_size:
            return result
        image = self.machine.image
        digest = hashlib.sha1(image.peek(result.entry, result.code_size)).hexdigest()
        canonical = self._code_index.get(digest)
        if canonical is None:
            self._code_index[digest] = (result.entry, result.name)
            return result
        entry, name = canonical
        if entry == result.entry:
            return result
        self.metrics.inc("manager.code_dedup")
        image.free_rewrite(result.entry, result.code_size)
        debug = result.debug
        if debug is not None:
            shift = entry - result.entry
            debug = replace(debug, entries={
                addr + shift: where for addr, where in debug.entries.items()})
        return replace(result, entry=entry, name=name, debug=debug)

    def cached_result(self, key: tuple) -> RewriteResult | None:
        """The cached :class:`RewriteResult` under ``key`` (no freshness
        check, no counters): the world signature a divergence report
        records, the body size a fabric publication ships."""
        entry = self._cache.get(key)
        return entry.result if entry is not None else None

    # ---------------------------------------------------------- publication
    def publish(
        self, key: tuple, entry: int, *, probation: bool = False
    ) -> bool:
        """Dispatch warm callers of ``key`` to ``entry``; ``probation``
        holds it untrusted until a shadow-validated call admits it (a
        plain re-publish).  Returns False, publishing nothing, when no
        successful entry is cached under ``key``: an invalidation raced
        the rewrite, and the variant must not become reachable."""
        cached = self._cache.get(key)
        if cached is None or not cached.result.ok:
            return False
        cached.published = entry
        cached.probation = probation
        return True

    def published(self, key: tuple) -> int | None:
        """The entry point published under ``key``, or None: the warm
        path of the service and the fabric.  A published variant passes
        the same freshness rule as a :meth:`get` hit; a stale one is
        evicted here (no hit or miss counted) and the caller takes the
        cold path."""
        cached = self._cache.get(key)
        if cached is None or cached.published is None:
            return None
        if cached.fresh():
            return cached.published
        self._evict([key])
        return None

    def on_probation(self, key: tuple) -> bool:
        """Whether ``key`` is published but not yet trusted."""
        cached = self._cache.get(key)
        return cached is not None and cached.probation

    def withdraw(self, key: tuple) -> bool:
        """Unpublish ``key`` but keep its cache entry (the fabric's
        publication lost on the wire; a later request republishes it).
        Returns whether a variant was published."""
        cached = self._cache.get(key)
        if cached is None or cached.published is None:
            return False
        cached.published = None
        cached.probation = False
        return True

    def published_entries(self) -> dict[tuple, int]:
        """Every published key and its entry point (no freshness check)."""
        return {key: cached.published for key, cached in self._cache.items()
                if cached.published is not None}

    def quarantine_key(
        self, key: tuple, reason: str = "shadow-divergence", message: str = ""
    ) -> RewriteResult:
        """File a synthetic *failed* entry under ``key``.

        The continuous-assurance path: a published variant that diverged
        under shadow sampling is withdrawn by evicting its cache entry
        (which unpublishes it in the same step) and replaced with a
        quarantined failure.  Later ``get`` calls serve the original
        while the backoff window is open, then retry — exactly the
        backoff ladder a rewrite-time failure takes.  Returns the
        quarantine result."""
        failure = RewriteFailure(reason, message or reason)
        prior = self._cache.get(key)
        fail_count = 1
        if prior is not None:
            if not prior.result.ok:
                fail_count = prior.fail_count + 1
            self._evict([key])
        result = RewriteResult(
            ok=False, original=key[0], reason=failure.reason, message=str(failure)
        )
        self._file(key, result, [], fail_count,
                   self.clock() + self._backoff(fail_count))
        self.metrics.inc("manager.shadow_quarantines")
        return result

    # ------------------------------------------------- persistence support
    def export_entries(self) -> list[tuple[tuple, RewriteResult, list, int, float]]:
        """The cache as ``(key, result, memory_deps, fail_count,
        backoff_remaining)`` rows — everything the snapshot writer needs;
        ``backoff_remaining`` is relative to the manager clock so restore
        re-anchors quarantine windows on the new process's clock."""
        now = self.clock()
        return [
            (
                key,
                entry.result,
                list(entry.memory_deps),
                entry.fail_count,
                max(0.0, entry.retry_at - now) if not entry.result.ok else 0.0,
            )
            for key, entry in self._cache.items()
        ]

    def restore_entry(
        self,
        key: tuple,
        result: RewriteResult,
        memory_deps: list,
        fail_count: int = 0,
        backoff_remaining: float = 0.0,
    ) -> None:
        """Insert one unpublished entry restored from a snapshot (no
        counters move; restored variants earn their hits back through
        ``get``, and the service republishes them on probation)."""
        retry_at = self.clock() + backoff_remaining if not result.ok else 0.0
        self._file(key, result, list(memory_deps), fail_count, retry_at)
        if result.ok and result.entry is not None and result.code_size:
            digest = hashlib.sha1(
                self.machine.image.peek(result.entry, result.code_size)
            ).hexdigest()
            self._code_index.setdefault(digest, (result.entry, result.name))

    def invalidate_memory(self, start: int, end: int) -> int:
        """Drop every cached variant whose known memory overlaps
        ``[start, end)`` and bump the epoch; returns how many were
        dropped."""
        stale = [k for k, e in self._cache.items() if e.overlaps(start, end)]
        self._evict(stale)
        self.epoch += 1
        self.metrics.inc("manager.invalidations")
        return len(stale)

    def stats(self) -> dict[str, int]:
        """Health counters: cache traffic, fallbacks and quarantine.

        ``hits``/``misses`` count cache lookups; ``fallbacks`` counts
        ``get`` calls that handed back a failed result (cached or
        fresh); ``quarantine_hits`` are failures served while their
        backoff window was open, ``quarantine_retries`` re-rewrites
        after a window expired; ``quarantined`` is the number of failed
        entries currently cached, ``cached`` the total cache size;
        ``evictions`` counts entries dropped (staleness plus explicit
        invalidation) and ``code_dedup`` rewrites whose emitted body was
        byte-identical to an already-cached variant's.

        The counts are read from the ``manager.*`` counters of
        :attr:`metrics`, so a registry shared by two managers reports
        their sums."""
        value = self.metrics.value
        quarantined = sum(1 for e in self._cache.values() if not e.result.ok)
        return {
            "hits": value("manager.hits"),
            "misses": value("manager.misses"),
            "fallbacks": (value("manager.fallbacks")
                          + value("manager.quarantine_hits")),
            "quarantine_hits": value("manager.quarantine_hits"),
            "quarantine_retries": value("manager.quarantine_retries"),
            "quarantined": quarantined,
            "cached": len(self._cache),
            "evictions": value("manager.evictions"),
            "code_dedup": value("manager.code_dedup"),
            "epoch": self.epoch,
        }

    def __len__(self) -> int:
        return len(self._cache)
