"""Simulated unreliable interconnect for the distributed runtime.

Every bulk copy the distributed models make between the simulated
remote-node segments and local mirrors — an RDMA preload range
(``repro.models.rdma``), a halo row (``repro.models.distributed_stencil``)
— goes through :meth:`TransferManager.transfer`; each lab builds a
clean manager, and a caller that wants faults replaces it with a seeded
one.  Real one-sided HPC transports drop, delay, corrupt and partition,
so this module makes the interconnect a first-class (and first-class
*unreliable*) machine component:

* :class:`Link` — one one-sided channel to a remote node.  Every bulk
  transfer goes through :meth:`Link.transfer`, where a seeded RNG decides
  the attempt's fate: delivered, dropped (nothing arrives, the sender
  burns its timeout), corrupted (payload arrives bit-flipped), delayed
  past the timeout (arrives too late to use), or partitioned (the link
  goes down and stays down for a while).  Per-link latency is accounted
  in cycles, like every other cost in the simulated machine.

* :class:`TransferManager` — the reliability layer over the links:
  CRC-checksummed transfers, per-attempt timeouts, bounded retry with
  exponential backoff plus seeded jitter, and a per-link
  :class:`CircuitBreaker` that stops hammering a dead peer and
  half-opens for a probe after a cooldown measured in epochs (one epoch
  = one sweep/iteration of the calling model).

The hard contract mirrors the rewriter's Sec. III.G robustness story:
**no interconnect fault may ever produce a wrong answer or an escaping
exception**.  A transfer either delivers checksum-verified bytes or
returns a failed :class:`TransferReport` tagged with one of the
``link-*`` reasons from :data:`repro.errors.FAILURE_REASONS`; corrupted
payloads are detected by checksum and never written to the destination.
Callers degrade to the per-access remote path, which is always correct.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.errors import RewriteFailure

#: Attempt outcomes a :class:`Link` can produce, in the order the fault
#: dice are rolled (a latched partition preempts everything).
LINK_STATUSES = ("ok", "drop", "corrupt", "delay", "partition")

#: Circuit-breaker states (the classic three-state machine).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

# The interconnect's cost model and reliability policy.  Code reads
# these at call time, so a test can patch one on this module.

#: Fixed cost of one bulk-copy attempt, in cycles.
STARTUP_CYCLES = 600
#: Cost per 8-byte element of a delivered attempt, in cycles.
PER_ELEMENT_CYCLES = 2
#: Cycles a sender waits for a completion that never comes (drop,
#: delay, partition).
TIMEOUT_CYCLES = 2400
#: Wire-level attempts per managed transfer (1 = no retries).
MAX_ATTEMPTS = 4
#: Backoff before the first retry, in cycles; each later retry waits
#: ``BACKOFF_FACTOR`` times longer, plus up to ``BACKOFF_JITTER`` of
#: that drawn from the manager's seeded stream.
BACKOFF_BASE_CYCLES = 300
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.25
#: Consecutive terminal failures that open a link's breaker.
BREAKER_THRESHOLD = 3
#: Epochs an open breaker waits before it half-opens for a probe.
BREAKER_COOLDOWN_EPOCHS = 2


@dataclass(frozen=True)
class FaultProfile:
    """Per-attempt fault probabilities for one link.

    Each probability is rolled independently per transfer attempt, in
    the fixed order partition → drop → delay → corrupt, so a given seed
    replays bit-identically.  ``partition_attempts`` is how many
    consecutive attempts a partition keeps the link down once it fires.
    """

    drop: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    partition: float = 0.0
    partition_attempts: int = 6

    @classmethod
    def uniform(cls, p: float) -> "FaultProfile":
        """The chaos-sweep shape: drop/corrupt/delay each at ``p``,
        partitions rarer (``p/4``) but latched once they fire."""
        return cls(drop=p, corrupt=p, delay=p, partition=p / 4.0)

    @property
    def any_faults(self) -> bool:
        """Whether this profile can produce any fault at all."""
        return (self.drop or self.corrupt or self.delay or self.partition) > 0.0


@dataclass
class TransferAttempt:
    """What one wire-level attempt did: status, payload (None when
    nothing usable arrived), and the cycles the attempt cost."""

    status: str
    payload: bytes | None
    cycles: int


class Link:
    """One simulated one-sided channel between node 0 and a peer.

    ``transfer`` models a single bulk-copy attempt.  A clean delivery
    costs ``STARTUP_CYCLES`` plus ``PER_ELEMENT_CYCLES`` per element
    (the one RDMA cost model every model copy is charged); a
    drop/delay/partition costs the full ``TIMEOUT_CYCLES`` (the sender
    waited for a completion that never came); a corrupt delivery costs
    normal latency but arrives damaged.  All fault decisions come from a
    per-link seeded RNG stream, so a campaign is replayable by seed.
    The link keeps no counters: :meth:`TransferManager.stats` counts
    every attempt.
    """

    def __init__(
        self,
        node_id: int,
        *,
        faults: FaultProfile | None = None,
        seed: int = 0,
    ) -> None:
        self.node_id = node_id
        self.faults = faults or FaultProfile()
        self.rng = random.Random((seed << 16) ^ (node_id * 0x9E3779B1))
        #: Attempts remaining in a latched partition (0 = link up).
        self._partition_left = 0

    # ---------------------------------------------------------------- model
    @staticmethod
    def latency(nbytes: int) -> int:
        """Clean-delivery cost of an ``nbytes`` bulk copy, in cycles."""
        return STARTUP_CYCLES + (nbytes // 8) * PER_ELEMENT_CYCLES

    @property
    def partitioned(self) -> bool:
        """Whether the link is currently in a latched partition."""
        return self._partition_left > 0

    def partition(self, attempts: int) -> None:
        """Take the link down for its next ``attempts`` attempts (an
        operator pulling the cable), leaving its fault profile as it is."""
        self._partition_left = attempts

    def heal(self) -> None:
        """Lift a latched partition (an operator fixing the cable)."""
        self._partition_left = 0

    def _make_fault(self, status: str, payload: bytes) -> TransferAttempt:
        """Build one fault outcome.  Partition latching is the
        caller's job; this only shapes the attempt itself."""
        if status == "corrupt":
            # corrupt: normal latency, damaged payload (seeded bit flips)
            damaged = bytearray(payload)
            if damaged:
                for _ in range(1 + self.rng.randrange(3)):
                    damaged[self.rng.randrange(len(damaged))] ^= (
                        1 << self.rng.randrange(8)
                    )
            return TransferAttempt("corrupt", bytes(damaged), self.latency(len(payload)))
        # drop: nothing arrives; delay: arrives after the timeout (too
        # late to use); partition: the link is down.  In all three the
        # sender burns the full timeout waiting for a completion.
        return TransferAttempt(status, None, TIMEOUT_CYCLES)

    def _latch_partition(self) -> None:
        """Start a latched partition if one is not already running."""
        if self._partition_left == 0:
            self._partition_left = max(1, self.faults.partition_attempts)

    def transfer(self, payload: bytes) -> TransferAttempt:
        """One wire-level bulk-copy attempt (see class docstring)."""
        if self._partition_left > 0:
            self._partition_left -= 1
            return self._make_fault("partition", payload)
        return self._roll(payload)

    def _roll(self, payload: bytes) -> TransferAttempt:
        """Roll the fault dice for one attempt, in fixed order."""
        f = self.faults
        if f.partition and self.rng.random() < f.partition:
            self._latch_partition()
            self._partition_left -= 1  # this attempt consumes one
            return self._make_fault("partition", payload)
        if f.drop and self.rng.random() < f.drop:
            return self._make_fault("drop", payload)
        if f.delay and self.rng.random() < f.delay:
            return self._make_fault("delay", payload)
        if f.corrupt and self.rng.random() < f.corrupt:
            return self._make_fault("corrupt", payload)
        return TransferAttempt("ok", payload, self.latency(len(payload)))

    def force_fault(self, payload: bytes, status: str) -> TransferAttempt:
        """Deterministically produce one fault attempt — the seam the
        fault-injection harness drives, with the same side effects as an
        organic fault (partitions latch)."""
        if status not in LINK_STATUSES or status == "ok":
            raise ValueError(f"unknown link fault {status!r}")
        if status == "partition":
            self._latch_partition()
            self._partition_left -= 1
        return self._make_fault(status, payload)


@dataclass
class CircuitBreaker:
    """Per-link three-state breaker, cooled down in *epochs*.

    Closed: transfers flow.  After ``BREAKER_THRESHOLD`` consecutive
    terminal transfer failures the breaker opens: transfers to that peer
    fail fast (no retries burned on a dead link).  Once
    ``BREAKER_COOLDOWN_EPOCHS`` epochs have passed it half-opens: exactly
    the next transfer goes through as a probe; success closes the
    breaker, failure re-opens it for another cooldown.
    """

    state: str = BREAKER_CLOSED
    consecutive_failures: int = 0
    opened_at_epoch: int = 0
    trips: int = 0

    def allow(self, epoch: int) -> bool:
        """Whether a transfer may be attempted at ``epoch`` (may move
        an open breaker to half-open when the cooldown has passed)."""
        if self.state == BREAKER_OPEN:
            if epoch - self.opened_at_epoch >= BREAKER_COOLDOWN_EPOCHS:
                self.state = BREAKER_HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        """A verified delivery: reset the failure streak and close."""
        self.consecutive_failures = 0
        self.state = BREAKER_CLOSED

    def record_failure(self, epoch: int) -> None:
        """A terminal transfer failure: trip when the streak reaches the
        threshold (a failed half-open probe trips immediately)."""
        self.consecutive_failures += 1
        if (
            self.state == BREAKER_HALF_OPEN
            or self.consecutive_failures >= BREAKER_THRESHOLD
        ):
            self.state = BREAKER_OPEN
            self.opened_at_epoch = epoch
            self.trips += 1


@dataclass
class TransferReport:
    """Outcome of one reliable (managed) transfer.

    ``ok`` means checksum-verified bytes landed at the destination.
    Otherwise ``reason`` is the tagged ``link-*`` failure class of the
    *last* attempt (documented in :data:`repro.errors.FAILURE_REASONS`)
    and the destination is untouched — a failed transfer never leaves
    partial or corrupt data behind.
    """

    ok: bool
    node: int
    nbytes: int
    attempts: int
    cycles: int
    reason: str | None = None
    message: str = ""
    statuses: tuple[str, ...] = ()


def _terminal_failure(status: str) -> RewriteFailure:
    """The tagged failure for a transfer whose last attempt ended in
    ``status`` — constructed (never raised) so the failure taxonomy's
    literal scan and the reports share one source of truth."""
    if status == "drop":
        return RewriteFailure(
            "link-drop", "bulk transfer dropped on every attempt"
        )
    if status == "corrupt":
        return RewriteFailure(
            "link-corrupt", "transfer checksum mismatched on every attempt"
        )
    if status == "delay":
        return RewriteFailure(
            "link-delay", "transfer exceeded its timeout on every attempt"
        )
    return RewriteFailure(
        "link-partition", "peer unreachable: link partitioned or breaker open"
    )


class TransferManager:
    """Reliable bulk transfers over unreliable :class:`Link` objects.

    One manager serves one machine.  ``transfer`` copies ``nbytes``
    from a source address (the authoritative remote window) to a
    destination address (a local mirror), surviving drops, corruption,
    delays and short partitions via checksums and bounded seeded-jitter
    exponential backoff, and giving up fast on dead peers via the
    per-link circuit breaker.  All latency — clean, wasted and backoff
    alike — is charged to the machine's cycle counter, so degradation
    has an honest measured cost.

    ``advance_epoch`` is the model's heartbeat (call it once per sweep):
    breakers cool down in epochs, which is what lets a degraded model
    re-attempt promotion "on the next epoch once the breaker half-opens".
    """

    def __init__(
        self,
        machine,
        *,
        faults: FaultProfile | None = None,
        seed: int = 0,
    ) -> None:
        self.machine = machine
        self.faults = faults or FaultProfile()
        self.seed = seed
        self.epoch = 0
        self.links: dict[int, Link] = {}
        self.breakers: dict[int, CircuitBreaker] = {}
        self._jitter_rng = random.Random((seed << 8) ^ 0x5DEECE66)
        self._stats = {
            "transfers": 0,        # managed transfer() calls
            "completed": 0,        # checksum-verified deliveries
            "failures": 0,         # terminal failures (caller degrades)
            "attempts": 0,         # wire-level attempts
            "retries": 0,          # attempts beyond each transfer's first
            "rejected": 0,         # fast-failed by an open breaker
            "breaker_trips": 0,    # closed/half-open -> open transitions
            "cycles": 0,           # total interconnect cycles charged
        }
        self.fault_counts: dict[str, int] = {
            s: 0 for s in LINK_STATUSES if s != "ok"
        }

    # ------------------------------------------------------------- plumbing
    def link_for(self, node: int) -> Link:
        """The (lazily created) link to ``node``."""
        link = self.links.get(node)
        if link is None:
            link = Link(node, faults=self.faults, seed=self.seed)
            self.links[node] = link
        return link

    def breaker_for(self, node: int) -> CircuitBreaker:
        """The (lazily created) circuit breaker for ``node``."""
        breaker = self.breakers.get(node)
        if breaker is None:
            breaker = CircuitBreaker()
            self.breakers[node] = breaker
        return breaker

    def set_faults(self, faults: FaultProfile | None) -> None:
        """Change the fault profile for all present and future links
        (chaos experiments heal or degrade the network mid-campaign).
        ``None`` means a clean network, as in the constructor."""
        faults = faults if faults is not None else FaultProfile()
        self.faults = faults
        for link in self.links.values():
            link.faults = faults
            if not faults.any_faults:
                link.heal()

    def _backoff_cycles(self, retry_index: int) -> int:
        """Backoff before retry ``retry_index`` (1-based): exponential
        with seeded jitter so retries never synchronize across links."""
        base = BACKOFF_BASE_CYCLES * (BACKOFF_FACTOR ** (retry_index - 1))
        return int(base * (1.0 + BACKOFF_JITTER * self._jitter_rng.random()))

    def advance_epoch(self) -> int:
        """One model epoch passed (one sweep); cools open breakers."""
        self.epoch += 1
        return self.epoch

    # ------------------------------------------------------------------ api
    def transfer(self, node: int, src: int, dst: int, nbytes: int) -> TransferReport:
        """Reliably bulk-copy ``nbytes`` from ``src`` to ``dst`` over the
        link to ``node``.  Returns a :class:`TransferReport`; never
        raises, never writes unverified bytes to ``dst``."""
        self._stats["transfers"] += 1
        breaker = self.breaker_for(node)
        if not breaker.allow(self.epoch):
            self._stats["rejected"] += 1
            self._stats["failures"] += 1
            failure = _terminal_failure("partition")
            return TransferReport(
                ok=False, node=node, nbytes=nbytes, attempts=0, cycles=0,
                reason=failure.reason, message=str(failure),
                statuses=("breaker-open",),
            )
        link = self.link_for(node)
        payload = self.machine.image.peek(src, nbytes)
        checksum = zlib.crc32(payload)
        cycles = 0
        statuses: list[str] = []
        trips_before = breaker.trips
        max_attempts = MAX_ATTEMPTS
        for attempt_index in range(1, max_attempts + 1):
            if attempt_index > 1:
                self._stats["retries"] += 1
                cycles += self._backoff_cycles(attempt_index - 1)
            self._stats["attempts"] += 1
            attempt = link.transfer(payload)
            cycles += attempt.cycles
            status = attempt.status
            if (
                status == "ok"
                and attempt.payload is not None
                and zlib.crc32(attempt.payload) == checksum
            ):
                self.machine.image.poke(dst, attempt.payload)
                breaker.record_success()
                self._charge(cycles)
                self._stats["completed"] += 1
                return TransferReport(
                    ok=True, node=node, nbytes=nbytes,
                    attempts=attempt_index, cycles=cycles,
                    statuses=tuple(statuses + ["ok"]),
                )
            if status == "ok":
                # delivered but damaged in a way the link itself did not
                # flag — the checksum is the authority
                status = "corrupt"
            statuses.append(status)
            self.fault_counts[status] += 1
        breaker.record_failure(self.epoch)
        self._stats["breaker_trips"] += breaker.trips - trips_before
        self._stats["failures"] += 1
        self._charge(cycles)
        failure = _terminal_failure(statuses[-1])
        return TransferReport(
            ok=False, node=node, nbytes=nbytes,
            attempts=max_attempts, cycles=cycles,
            reason=failure.reason, message=str(failure),
            statuses=tuple(statuses),
        )

    def _charge(self, cycles: int) -> None:
        """Charge interconnect latency to the machine's cycle counter."""
        self._stats["cycles"] += cycles
        self.machine.cpu.perf.cycles += cycles

    def stats(self) -> dict[str, int]:
        """A copy of the health counters plus per-class fault counts."""
        out = dict(self._stats)
        for status, count in self.fault_counts.items():
            out[f"fault_{status}"] = count
        return out

    def breaker_state(self, node: int) -> str:
        """The breaker state for ``node`` (closed when never used)."""
        breaker = self.breakers.get(node)
        return breaker.state if breaker is not None else BREAKER_CLOSED
