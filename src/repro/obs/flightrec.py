"""Black-box flight recorder: bounded, deterministic event journals.

Layer 5 of the RESILIENCE ladder starts here.  When a tagged failure
fires today the runtime keeps a reason string and a counter; the
evidence needed to *reproduce* the failure — what the layer was doing in
the moments before — is gone.  The flight recorder keeps that evidence
cheaply: one bounded ring buffer per layer **channel** (``machine``,
``rewrite``, ``service``, ``fabric``), every record stamped with a
single global monotonic sequence number so a cross-channel timeline can
be reassembled exactly.

Design constraints, in priority order:

* **Determinism** — no wall clock, no ``id()``, no unordered iteration.
  Two seeded runs of the same workload journal byte-identical records,
  which is what lets a crash bundle's replay assert a bit-for-bit
  fingerprint (:mod:`repro.core.forensics`).
* **Bounded** — each channel holds at most ``capacity`` records
  (``collections.deque(maxlen=...)``); a chatty layer can never grow the
  journal without bound.  Overwritten records are counted, not silently
  forgotten.
* **Off the hot path** — the warm-dispatch path of the rewrite service
  never records at all (anomalies and state changes are journaled,
  steady-state hits are not), so the recorder's tax on warm latency is
  bounded by EXT-9's ≤ 5 % check.  A layer without a recorder attached
  (a service whose ``forensics`` is ``None``) journals nothing.

Payloads must be JSON-able (ints, floats, strings, lists, dicts): they
are persisted verbatim into ``REPRO-BUNDLE`` records and replayed.
"""

from __future__ import annotations

from collections import deque

#: The per-layer channels, in architectural order (guest machine,
#: rewrite pipeline, service layer, sharded fabric).  Fixed: a typo'd
#: channel name is a bug, not a new channel.
CHANNELS = ("machine", "rewrite", "service", "fabric")

#: Default per-channel ring capacity.
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Per-channel bounded journals with one global sequence counter.

    ``capacity`` bounds each channel's ring independently.
    """

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity is 1-based")
        self.capacity = capacity
        self._seq = 0
        self._rings: dict[str, deque] = {
            name: deque(maxlen=capacity) for name in CHANNELS
        }
        #: Records pushed out of a full ring, per channel (evidence that
        #: the journal tail is a *tail*, not the whole story).
        self.dropped: dict[str, int] = {name: 0 for name in CHANNELS}

    # ------------------------------------------------------------ recording
    def record(self, channel: str, event: str, payload: dict | None = None) -> int:
        """Journal one event; returns its sequence number.  ``payload``
        must be JSON-able — it is persisted verbatim into crash
        bundles."""
        ring = self._rings[channel]
        if len(ring) == ring.maxlen:
            self.dropped[channel] += 1
        self._seq += 1
        ring.append((self._seq, event, payload if payload is not None else {}))
        return self._seq

    # -------------------------------------------------------------- reading
    def tail(self, channel: str | None = None, limit: int | None = None) -> list[dict]:
        """The journal tail as JSON-able dicts, oldest first.

        ``channel=None`` interleaves every channel by sequence number —
        the cross-layer timeline a crash bundle persists.  ``limit``
        keeps only the newest ``limit`` records after interleaving."""
        names = CHANNELS if channel is None else (channel,)
        rows = [
            {"seq": seq, "channel": name, "event": event, "data": data}
            for name in names
            for seq, event, data in self._rings[name]
        ]
        rows.sort(key=lambda r: r["seq"])
        if limit is not None:
            rows = rows[-limit:]
        return rows

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())

    def clear(self) -> None:
        """Drop every journaled record (sequence numbers keep counting:
        a cleared recorder never re-issues an old sequence number)."""
        for ring in self._rings.values():
            ring.clear()
        for name in self.dropped:
            self.dropped[name] = 0

    def stats(self) -> dict:
        """Ring occupancy and drop counts, per channel (JSON-able)."""
        return {
            "seq": self._seq,
            "per_channel": {
                name: {"held": len(self._rings[name]), "dropped": self.dropped[name]}
                for name in CHANNELS
            },
        }
