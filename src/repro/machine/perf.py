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
        snap = PerfCounters()
        for f in fields(self):
            setattr(snap, f.name, getattr(self, f.name))
        return snap

    def delta(self, earlier: "PerfCounters") -> "PerfCounters":
        """Counters accumulated since ``earlier`` (a snapshot)."""
        out = PerfCounters()
        for f in fields(self):
            setattr(out, f.name, getattr(self, f.name) - getattr(earlier, f.name))
        return out

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
