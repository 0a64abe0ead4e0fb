"""Segmented flat memory for the simulated machine.

Segments carry permissions and an ``extra_cost`` per access — that is
how simulated remote-node memory (PGAS experiments) charges its latency
without special-casing anything in the CPU.  All multi-byte accesses are
little-endian; doubles are IEEE-754 binary64.

Every store path tests one per-segment flag, :attr:`Segment.watched`,
and takes the slow path :meth:`Memory.before_write` only when it is
set: on executable segments (code listeners), and on writable ones not
yet written under an open **write journal**, whose pre-images
:meth:`Memory.rollback` writes back.  The snapshots of shadow sampling
and the validation gate are such journals, so they copy only the
segments a run writes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Flag as EnumFlag, auto

from repro.errors import MemoryError_, SegmentationFault


class Perm(EnumFlag):
    """Segment permissions."""

    R = auto()
    W = auto()
    X = auto()
    RW = R | W
    RX = R | X
    RWX = R | W | X


@dataclass
class Segment:
    """One contiguous mapped region."""

    name: str
    base: int
    size: int
    perms: Perm = Perm.RW
    #: Extra cycles charged per access (remote-node memory, etc.).
    extra_cost: int = 0
    data: bytearray = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        if not self.data:
            self.data = bytearray(self.size)
        elif len(self.data) != self.size:
            raise ValueError("backing buffer size mismatch")
        #: The one flag every store path tests; its slow path is
        #: :meth:`Memory.before_write`.  Set for executable segments, and
        #: for writable ones not yet journaled while a journal is open.
        self.watched = Perm.X in self.perms

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end


class Memory:
    """The address space: an ordered collection of segments."""

    def __init__(self) -> None:
        self.segments: list[Segment] = []
        #: The open write journal: segment name -> contents before the
        #: segment's first write since :meth:`open_journal`, or None.
        self.journal: dict[str, bytes] | None = None

    # -- mapping ----------------------------------------------------------
    def map_segment(self, segment: Segment) -> Segment:
        """Add a segment; overlaps with existing mappings are rejected."""
        for existing in self.segments:
            if segment.base < existing.end and existing.base < segment.end:
                raise MemoryError_(
                    f"segment {segment.name!r} overlaps {existing.name!r}"
                )
        self.segments.append(segment)
        self.segments.sort(key=lambda s: s.base)
        return segment

    def segment_for(self, addr: int, length: int = 1) -> Segment:
        for segment in self.segments:
            if segment.contains(addr, length):
                return segment
        raise SegmentationFault(
            f"access to unmapped address 0x{addr:x} (+{length})", addr
        )

    def segment_by_name(self, name: str) -> Segment:
        for segment in self.segments:
            if segment.name == name:
                return segment
        raise MemoryError_(f"no segment named {name!r}")

    # -- write journal -----------------------------------------------------
    def open_journal(self) -> None:
        """Watch every writable segment until its first write (one
        journal at a time)."""
        if self.journal is not None:
            raise MemoryError_("a write journal is already open")
        self.journal = {}
        for seg in self.segments:
            if Perm.W in seg.perms:
                seg.watched = True

    def before_write(self, seg: Segment) -> bool:
        """Slow path of the write barrier, run before the bytes of a
        watched segment change.  A writable segment's first write under
        the open journal saves its pre-image and unwatches it unless it
        is executable.  Returns the flag afterwards, which is then set
        exactly on executable segments: the caller stores, then
        notifies the code listeners if it is true."""
        journal = self.journal
        if journal is not None and seg.name not in journal and Perm.W in seg.perms:
            journal[seg.name] = bytes(seg.data)
            seg.watched = Perm.X in seg.perms
        return seg.watched

    def rollback(self) -> None:
        """Write every journaled pre-image back; the journal stays open
        (its pre-images still hold) and the segments stay unwatched."""
        for seg in self.segments:
            pre = self.journal.get(seg.name)
            if pre is not None:
                seg.data[:] = pre

    def close_journal(self) -> None:
        """Drop the journal (if any) and unwatch all but executable
        segments; the current contents stay as they are."""
        self.journal = None
        for seg in self.segments:
            seg.watched = Perm.X in seg.perms

    # -- raw access --------------------------------------------------------
    def read_bytes(self, addr: int, length: int) -> bytes:
        """Permission-checked read."""
        seg = self.segment_for(addr, length)
        if Perm.R not in seg.perms:
            raise MemoryError_(f"read from non-readable segment {seg.name!r}", addr)
        off = addr - seg.base
        return bytes(seg.data[off : off + length])

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Permission-checked write."""
        seg = self.segment_for(addr, len(data))
        if Perm.W not in seg.perms:
            raise MemoryError_(f"write to non-writable segment {seg.name!r}", addr)
        if seg.watched:
            self.before_write(seg)
        off = addr - seg.base
        seg.data[off : off + len(data)] = data

    # -- typed access -------------------------------------------------------
    def read_u64(self, addr: int) -> int:
        return struct.unpack("<Q", self.read_bytes(addr, 8))[0]

    def read_i64(self, addr: int) -> int:
        return struct.unpack("<q", self.read_bytes(addr, 8))[0]

    def write_u64(self, addr: int, value: int) -> None:
        self.write_bytes(addr, struct.pack("<Q", value & ((1 << 64) - 1)))

    def read_f64(self, addr: int) -> float:
        return struct.unpack("<d", self.read_bytes(addr, 8))[0]

    def write_f64(self, addr: int, value: float) -> None:
        self.write_bytes(addr, struct.pack("<d", value))

    def access_cost(self, addr: int) -> int:
        """Cycle surcharge for touching ``addr`` (0 for plain segments)."""
        return self.segment_for(addr).extra_cost
