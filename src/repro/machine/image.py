"""Executable image: segment layout, symbol table, allocators.

The layout mirrors a small static binary plus the extras this system
needs: a ``rewrite`` segment that plays the role of the executable heap
the paper's rewriter emits new code into, and optional ``remote<N>``
segments that simulate other PGAS nodes' memory (mapped high, with an
access surcharge).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LinkError, MemoryError_
from repro.machine.memory import Memory, Perm, Segment


@dataclass(frozen=True)
class _Layout:
    code_base: int = 0x1000
    code_size: int = 1 << 20
    rodata_base: int = 0x200000
    rodata_size: int = 1 << 20
    data_base: int = 0x400000
    data_size: int = 4 << 20
    heap_base: int = 0x900000
    heap_size: int = 24 << 20
    rewrite_base: int = 0x2800000
    rewrite_size: int = 8 << 20
    stack_base: int = 0x7000000
    stack_size: int = 1 << 20
    #: Base address for simulated remote-node segments.
    remote_base: int = 0x1_0000_0000
    remote_stride: int = 0x1000_0000
    #: Address region used for host-Python functions (never mapped, but
    #: kept below 2^31 so rel32 call displacements always reach it).
    host_base: int = 0x0F00_0000
    #: Sentinel return address that terminates a run.
    halt_addr: int = 0xDEAD_0000


LAYOUT = _Layout()


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


class Image:
    """A loaded program: memory + symbols + bump allocators."""

    def __init__(self, memory: Memory | None = None) -> None:
        self.memory = memory or Memory()
        L = LAYOUT
        self.seg_code = self.memory.map_segment(
            Segment("code", L.code_base, L.code_size, Perm.RX)
        )
        self.seg_rodata = self.memory.map_segment(
            Segment("rodata", L.rodata_base, L.rodata_size, Perm.R)
        )
        self.seg_data = self.memory.map_segment(
            Segment("data", L.data_base, L.data_size, Perm.RW)
        )
        self.seg_heap = self.memory.map_segment(
            Segment("heap", L.heap_base, L.heap_size, Perm.RW)
        )
        self.seg_rewrite = self.memory.map_segment(
            Segment("rewrite", L.rewrite_base, L.rewrite_size, Perm.RX)
        )
        self.seg_stack = self.memory.map_segment(
            Segment("stack", L.stack_base, L.stack_size, Perm.RW)
        )
        self._code_next = L.code_base
        self._rodata_next = L.rodata_base
        self._data_next = L.data_base
        self._heap_next = L.heap_base
        self._rewrite_next = L.rewrite_base
        self._host_next = L.host_base
        self.symbols: dict[str, int] = {}
        self.symbol_names: dict[int, str] = {}
        #: Sizes of named functions (addr -> code length), for disassembly.
        self.function_sizes: dict[int, int] = {}
        #: Callbacks ``(addr, length)`` fired by :meth:`notify_code_write`
        #: whenever bytes land in an executable segment (``poke``, guest
        #: stores) or a rewrite range is pinned (``reserve_rewrite``).
        #: This is the only invalidation path: the interpreter icache
        #: and both JIT tiers drop exactly the decoded or compiled code
        #: overlapping the range, and nothing else flushes them.
        self.code_listeners: list = []

    # -- symbols -----------------------------------------------------------
    def define_symbol(self, name: str, addr: int) -> None:
        """Bind ``name`` to ``addr`` (duplicates are a link error)."""
        if name in self.symbols:
            raise LinkError(f"duplicate symbol {name!r}")
        self.symbols[name] = addr
        self.symbol_names.setdefault(addr, name)

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise LinkError(f"undefined symbol {name!r}") from None

    def resolve(self, name_or_addr: str | int) -> int:
        return self.symbol(name_or_addr) if isinstance(name_or_addr, str) else name_or_addr

    # -- raw poking (loader-level, bypasses perms) ----------------------------
    def poke(self, addr: int, data: bytes) -> None:
        """Loader-level raw write (bypasses permissions; the write
        barrier still runs)."""
        seg = self.memory.segment_for(addr, len(data))
        off = addr - seg.base
        if seg.watched and self.memory.before_write(seg):
            seg.data[off : off + len(data)] = data
            self.notify_code_write(addr, len(data))
        else:
            seg.data[off : off + len(data)] = data

    def notify_code_write(self, addr: int, length: int) -> None:
        """Fire the executable-write listeners for ``[addr, addr+length)``.

        Every path that mutates executable bytes must route through here
        (``poke`` does; the CPU's store helpers do for guest stores that
        land in code) so decoded-instruction caches — the interpreter
        icache and both JIT tiers — can never serve stale bytes."""
        for listener in self.code_listeners:
            listener(addr, max(length, 1))

    def peek(self, addr: int, length: int) -> bytes:
        """Loader-level raw read (bypasses permissions)."""
        seg = self.memory.segment_for(addr, length)
        off = addr - seg.base
        return bytes(seg.data[off : off + length])

    # -- allocators ----------------------------------------------------------
    def add_function(self, name: str | None, code: bytes, align: int = 16) -> int:
        """Place ``code`` in the code segment; returns its entry address."""
        addr = _align(self._code_next, align)
        if addr + len(code) > self.seg_code.end:
            raise MemoryError_("code segment full")
        self.poke(addr, code)
        self._code_next = addr + len(code)
        if name is not None:
            self.define_symbol(name, addr)
        self.function_sizes[addr] = len(code)
        return addr

    def add_rodata(self, name: str | None, data: bytes, align: int = 8) -> int:
        """Place bytes in the read-only data segment; returns the address."""
        addr = _align(self._rodata_next, align)
        if addr + len(data) > self.seg_rodata.end:
            raise MemoryError_("rodata segment full")
        self.poke(addr, data)
        self._rodata_next = addr + len(data)
        if name is not None:
            self.define_symbol(name, addr)
        return addr

    def add_data(self, name: str | None, data: bytes, align: int = 8) -> int:
        """Place bytes in the writable data segment; returns the address."""
        addr = _align(self._data_next, align)
        if addr + len(data) > self.seg_data.end:
            raise MemoryError_("data segment full")
        self.poke(addr, data)
        self._data_next = addr + len(data)
        if name is not None:
            self.define_symbol(name, addr)
        return addr

    def malloc(self, size: int, align: int = 8) -> int:
        """Bump-allocate zeroed heap memory (no free; it's a simulator)."""
        addr = _align(self._heap_next, align)
        if addr + size > self.seg_heap.end:
            raise MemoryError_("heap exhausted")
        self._heap_next = addr + size
        return addr

    def alloc_rewrite(self, size: int, align: int = 16) -> int:
        """Reserve space in the rewrite (executable heap) segment."""
        addr = _align(self._rewrite_next, align)
        if addr + size > self.seg_rewrite.end:
            raise MemoryError_("rewrite segment full")
        self._rewrite_next = addr + size
        return addr

    def reserve_rewrite(self, addr: int, size: int) -> None:
        """Pin ``[addr, addr+size)`` of the rewrite segment as occupied
        (snapshot restore re-places emitted bodies at their recorded
        addresses); future ``alloc_rewrite`` calls allocate past it."""
        if not self.seg_rewrite.base <= addr <= addr + size <= self.seg_rewrite.end:
            raise MemoryError_(f"address 0x{addr:x} outside the rewrite segment")
        self._rewrite_next = max(self._rewrite_next, addr + size)
        self.notify_code_write(addr, size)

    def emit_rewritten(self, name: str | None, code: bytes) -> int:
        """Place rewriter output into the rewrite segment."""
        addr = self.alloc_rewrite(len(code))
        self.poke(addr, code)
        if name is not None:
            self.define_symbol(name, addr)
        self.function_sizes[addr] = len(code)
        return addr

    def alloc_host_slot(self, name: str | None = None) -> int:
        """Reserve an address in the (unmapped) host-function region."""
        addr = self._host_next
        self._host_next += 16
        if name is not None:
            self.define_symbol(name, addr)
        return addr

    def map_remote_node(self, node_id: int, size: int, extra_cost: int) -> Segment:
        """Map a simulated remote node's memory with an access surcharge."""
        base = LAYOUT.remote_base + node_id * LAYOUT.remote_stride
        if size > LAYOUT.remote_stride:
            raise MemoryError_("remote segment too large")
        return self.memory.map_segment(
            Segment(f"remote{node_id}", base, size, Perm.RW, extra_cost=extra_cost)
        )

    # -- literal pool ---------------------------------------------------------
    def float_literal(self, value: float) -> int:
        """Address of an 8-byte rodata cell holding ``value`` (deduplicated).

        Used by the compiler for float literals and by the rewriter to
        materialize known doubles (BX64 has no double immediates)."""
        import struct as _struct

        pool = getattr(self, "_float_pool", None)
        if pool is None:
            pool = {}
            self._float_pool = pool
        bits = _struct.unpack("<Q", _struct.pack("<d", value))[0]
        addr = pool.get(bits)
        if addr is None:
            addr = self.add_rodata(f"__lit_{bits:016x}", _struct.pack("<d", value))
            pool[bits] = addr
        return addr

    # -- stack ---------------------------------------------------------------
    @property
    def initial_rsp(self) -> int:
        # Leave a 64-byte red zone below the top; keep 16-byte alignment.
        return (self.seg_stack.end - 64) & ~0xF
