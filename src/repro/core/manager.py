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
* ``invalidate_memory(start, end)`` drops variants whose known-memory
  ranges overlap a mutated region (the redistribute trigger) and bumps
  the **known-memory epoch** — a data cell that guard stubs built via
  :func:`repro.core.dispatch.build_guard_stub` check before dispatching
  to a variant, so stale stubs fall back to the original in one compare;
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
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.config import FunctionConfig, Knownness, RewriteConfig
from repro.core.rewriter import RewriteResult, rewrite
from repro.errors import RewriteFailure
from repro.obs import Metrics

#: First-failure backoff window in (clock) seconds; doubles per repeat.
DEFAULT_BACKOFF_SECONDS = 0.25
#: Ceiling for the exponential backoff window.
MAX_BACKOFF_SECONDS = 60.0


def _config_fingerprint(conf: RewriteConfig) -> tuple:
    """A hashable digest of everything that changes rewrite output."""
    def fn_key(cfg: FunctionConfig) -> tuple:
        return (
            tuple(sorted((k, v.value) for k, v in cfg.params.items())),
            cfg.inline, cfg.force_unknown_results, cfg.conditionals_unknown,
        )

    return (
        tuple(sorted((str(k), fn_key(v)) for k, v in conf.functions.items())),
        tuple(sorted(conf.known_memory)),
        conf.variant_threshold,
        conf.deferred_spills,
        conf.inline_default,
        conf.passes,
        tuple(sorted(conf.dynamic_markers)),
        tuple(sorted(conf.dynamic_cells)),
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
    rather than disappearing.  Anything that is not a plain int/float
    (bools, lists...) is kept verbatim: those are rejected by the
    rewriter as ``bad-argument`` and the failure is cached per-value."""
    entry_cfg = conf.function(None)
    out = []
    for position, arg in enumerate(args, start=1):
        knownness = entry_cfg.params.get(position, Knownness.UNKNOWN)
        if knownness is Knownness.UNKNOWN and type(arg) in (int, float):
            out.append(("?", type(arg).__name__))
        else:
            out.append(arg)
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


@dataclass
class _Entry:
    """One cached rewrite outcome (success or quarantined failure)."""

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

    def overlaps(self, start: int, end: int) -> bool:
        """Whether any known-memory dependency intersects [start, end)."""
        return any(s < end and start < e for s, e, _ in self.memory_deps)


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
        self._listeners: list[Callable[[list[tuple]], None]] = []
        #: Monotone counter bumped on every invalidation; mirrored into
        #: :attr:`epoch_cell` so guard stubs can check it in one compare.
        self.epoch = 1
        self._epoch_cell: int | None = None

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

    def _deps_fresh(self, deps: list[tuple[int, int, int | None]]) -> bool:
        """Whether every recorded cell still holds the value the trace
        read.  A dep without an int value never matches, so an ``ok``
        entry restored with one reads as stale (it fails closed)."""
        peek = self.machine.image.peek
        return all(int.from_bytes(peek(s, 8), "little") == v for s, _, v in deps)

    def key_for(self, fn, conf: RewriteConfig, args: tuple) -> tuple:
        """The cache key ``get`` files ``(fn, conf, args)`` under.

        Rewriting never mutates ``conf``, so the key is the same before
        and after a rewrite: layers that mirror published entries (the
        rewrite service's dispatch table, the fabric's router) derive it
        once per request, publish under it, and drop their mirror when
        an invalidation listener reports it."""
        return (
            self.machine.image.resolve(fn),
            _config_fingerprint(conf),
            _args_fingerprint(_relevant_args(conf, args)),
        )

    def add_invalidation_listener(
        self, callback: Callable[[list[tuple]], None]
    ) -> None:
        """Register ``callback(dropped_keys)``, fired whenever cache
        entries are evicted (explicit invalidation or staleness)."""
        self._listeners.append(callback)

    def remove_invalidation_listener(
        self, callback: Callable[[list[tuple]], None]
    ) -> None:
        """Unregister a listener (no-op when absent) — a closed rewrite
        service detaches itself so a shared manager never fires into a
        dead dispatch table."""
        try:
            self._listeners.remove(callback)
        except ValueError:
            pass

    def _evict(self, keys: list[tuple]) -> None:
        for k in keys:
            del self._cache[k]
        if keys:
            self.metrics.inc("manager.evictions", len(keys))
            for callback in self._listeners:
                callback(list(keys))

    def _backoff(self, fail_count: int) -> float:
        return min(
            self.backoff_seconds * (2 ** (fail_count - 1)),
            self.max_backoff_seconds,
        )

    # ------------------------------------------------------------------ api
    @property
    def epoch_cell(self) -> int:
        """Address of the 8-byte known-memory epoch cell (lazily
        allocated on the machine's heap and kept equal to ``epoch``)."""
        if self._epoch_cell is None:
            self._epoch_cell = self.machine.image.malloc(8)
            self._write_epoch()
        return self._epoch_cell

    def _write_epoch(self) -> None:
        self.machine.image.poke(
            self._epoch_cell, (self.epoch & 0xFFFFFFFF).to_bytes(8, "little")
        )

    def _bump_epoch(self) -> None:
        self.epoch += 1
        if self._epoch_cell is not None:
            self._write_epoch()

    def get(self, conf: RewriteConfig, fn, *args) -> RewriteResult:
        """A (possibly cached) rewrite of ``fn`` under ``conf``.

        The lookup and the new entry share one key, ``key_for(fn, conf,
        args)``: a rewrite registers PTR_TO_KNOWN ranges into a private
        copy of ``conf``, so a fresh but equal config hits.

        Successes are served from cache while their known-memory
        dependencies are byte-identical.  Failures are served from cache
        only while their backoff window is open; after it expires the
        rewrite is retried, and repeated failures double the window
        (capped at ``max_backoff_seconds``).
        """
        key = self.key_for(fn, conf, args)
        entry = self._cache.get(key)
        retry_of: _Entry | None = None
        if entry is not None:
            if entry.result.ok:
                # stale if any depended-on known cell changed content
                if self._deps_fresh(entry.memory_deps):
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
            self._cache[key] = _Entry(result, self._memory_deps(conf, result))
        else:
            self.metrics.inc("manager.fallbacks")
            fail_count = (retry_of.fail_count if retry_of else 0) + 1
            self._cache[key] = _Entry(
                result,
                self._memory_deps(conf, result),
                fail_count=fail_count,
                retry_at=self.clock() + self._backoff(fail_count),
            )
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
        check, no counters) — mirror layers use this to read the world
        signature of an entry they are about to withdraw."""
        entry = self._cache.get(key)
        return entry.result if entry is not None else None

    def __contains__(self, key: tuple) -> bool:
        """Whether ``key`` is currently cached — the publish-side check
        that closes the invalidate-during-rewrite race (a worker must
        not publish an entry the manager has already evicted)."""
        return key in self._cache

    def quarantine_key(
        self, key: tuple, reason: str = "shadow-divergence", message: str = ""
    ) -> RewriteResult:
        """File a synthetic *failed* entry under ``key``.

        The continuous-assurance path: a published variant that diverged
        under shadow sampling is withdrawn by evicting its cache entry
        (which fires the invalidation listeners, so the published entry
        disappears atomically) and replaced with a quarantined
        failure.  Later ``get`` calls serve the original while the
        backoff window is open, then retry — exactly the PR-1 ladder a
        rewrite-time failure takes.  Returns the quarantine result."""
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
        self._cache[key] = _Entry(
            result,
            [],
            fail_count=fail_count,
            retry_at=self.clock() + self._backoff(fail_count),
        )
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
        """Insert one entry restored from a snapshot (no counters move;
        restored variants earn their hits back through ``get``)."""
        retry_at = self.clock() + backoff_remaining if not result.ok else 0.0
        self._cache[key] = _Entry(
            result, list(memory_deps), fail_count=fail_count, retry_at=retry_at
        )
        if result.ok and result.entry is not None and result.code_size:
            digest = hashlib.sha1(
                self.machine.image.peek(result.entry, result.code_size)
            ).hexdigest()
            self._code_index.setdefault(digest, (result.entry, result.name))

    def invalidate_memory(self, start: int, end: int) -> int:
        """Drop every cached variant whose known memory overlaps
        ``[start, end)`` and bump the epoch (stale guard stubs start
        falling back to the original); returns how many were dropped."""
        stale = [k for k, e in self._cache.items() if e.overlaps(start, end)]
        self._evict(stale)
        self._bump_epoch()
        self.metrics.inc("manager.invalidations")
        return len(stale)

    def invalidate_function(self, fn) -> int:
        """Drop every cached variant of ``fn`` and bump the epoch."""
        addr = self.machine.image.resolve(fn)
        stale = [k for k in self._cache if k[0] == addr]
        self._evict(stale)
        self._bump_epoch()
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
