"""The simulated machine: memory, executable image, CPU, counters.

This package is the "hardware + OS loader" substitute (DESIGN.md §2):
a segmented 64-bit address space, an executable image with a symbol
table and heap, and a BX64 interpreter with a deterministic cycle cost
model.  Remote-node memory for the PGAS experiments is an ordinary
segment with a per-access cycle surcharge; bulk transfers between nodes
go through :mod:`repro.machine.link`, a seeded *unreliable* interconnect
with checksummed retries and per-link circuit breakers.
"""

from repro.machine.memory import Memory, Segment, Perm
from repro.machine.image import Image, LAYOUT
from repro.machine.perf import PerfCounters
from repro.machine.cpu import CPU, CallFrameInfo
from repro.machine.blockjit import BlockJIT, CompiledBlock
from repro.machine.link import (
    CircuitBreaker, FaultProfile, Link, TransferManager, TransferReport,
)

__all__ = [
    "Memory", "Segment", "Perm", "Image", "LAYOUT", "PerfCounters",
    "CPU", "CallFrameInfo",
    "BlockJIT", "CompiledBlock",
    "CircuitBreaker", "FaultProfile", "Link", "TransferManager",
    "TransferReport",
]
