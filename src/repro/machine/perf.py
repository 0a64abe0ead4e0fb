"""Performance counters for the simulated machine.

``cycles`` is the headline number every benchmark reports; the rest
exist so experiments can explain *why* a variant is faster (fewer loads,
fewer call pairs, fewer branches) the way the paper's prose does.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class PerfCounters:
    """Cycle/instruction/memory/branch counters for one CPU."""
    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_branches: int = 0
    calls: int = 0
    rets: int = 0
    #: Surcharge cycles paid to special segments (e.g. remote nodes).
    remote_cycles: int = 0
    remote_accesses: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> "PerfCounters":
        """An independent copy, for later delta()."""
        return PerfCounters(
            self.cycles, self.instructions, self.loads, self.stores,
            self.branches, self.taken_branches, self.calls, self.rets,
            self.remote_cycles, self.remote_accesses)

    def delta(self, earlier: "PerfCounters") -> "PerfCounters":
        """Counters accumulated since ``earlier`` (a snapshot)."""
        return PerfCounters(
            self.cycles - earlier.cycles,
            self.instructions - earlier.instructions,
            self.loads - earlier.loads,
            self.stores - earlier.stores,
            self.branches - earlier.branches,
            self.taken_branches - earlier.taken_branches,
            self.calls - earlier.calls,
            self.rets - earlier.rets,
            self.remote_cycles - earlier.remote_cycles,
            self.remote_accesses - earlier.remote_accesses)

    def as_dict(self) -> dict[str, int]:
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "branches": self.branches,
            "taken_branches": self.taken_branches,
            "calls": self.calls,
            "rets": self.rets,
            "remote_cycles": self.remote_cycles,
            "remote_accesses": self.remote_accesses,
        }
