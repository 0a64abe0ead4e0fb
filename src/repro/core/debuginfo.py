"""Debug information for rewritten code (paper Sec. VIII: "an important
issue is support for debugging rewritten code which may rely on
re-generation of debug information on the fly").

The tracer stamps every emitted instruction with the original address it
derives from; :func:`build_debug_map` collects that provenance after
emission, and :func:`format_debug_listing` renders a Figure-6-style
listing annotated with original locations — a debugger's "where did this
instruction come from" view.  Synthetic instructions (compensation code,
spill flushes, injected hooks) have no origin and are labelled by their
role instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asm.disassembler import format_instruction
from repro.isa.encoding import iter_decode
from repro.isa.instruction import Instruction


@dataclass
class DebugMap:
    """new address -> (original address | None, role note)."""

    entries: dict[int, tuple[int | None, str]] = field(default_factory=dict)

    def role_of(self, new_addr: int) -> str:
        """The provenance role of the code at ``new_addr``."""
        entry = self.entries.get(new_addr)
        if entry is None:
            return "unknown"
        if entry[0] is not None:
            return "traced"
        return entry[1] or "synthetic"

    @property
    def synthetic_count(self) -> int:
        return sum(1 for origin, _ in self.entries.values() if origin is None)


def build_debug_map(
    placed: list[tuple[int, Instruction]]
) -> DebugMap:
    """Build the map from (new address, emitted instruction) pairs."""
    dm = DebugMap()
    for addr, insn in placed:
        dm.entries[addr] = (insn.origin, insn.note)
    return dm


def _describe_origin(
    origin: int | None, note: str, symbols: dict[int, str] | None
) -> str:
    if origin is None:
        return f"<{note or 'synthetic'}>"
    if symbols:
        # find the closest preceding symbol for a name+offset rendering
        best_name, best_addr = None, -1
        for addr, name in symbols.items():
            if best_addr < addr <= origin:
                best_name, best_addr = name, addr
        if best_name is not None:
            off = origin - best_addr
            return f"{best_name}+0x{off:x}" if off else best_name
    return f"0x{origin:x}"


def format_debug_listing(
    code: bytes,
    base_addr: int,
    debug_map: DebugMap,
    symbols: dict[int, str] | None = None,
) -> str:
    """Annotated disassembly: each line shows where the instruction came
    from in the original binary (or which rewriter mechanism made it)."""
    lines = []
    for n, insn in enumerate(iter_decode(code, base_addr), 1):
        assert insn.addr is not None
        origin, note = debug_map.entries.get(insn.addr, (None, ""))
        where = _describe_origin(origin, note, symbols)
        text = format_instruction(insn, symbols)
        lines.append(f"i-{n:02d}: 0x{insn.addr:x}: {text:<40} ; <- {where}")
    return "\n".join(lines)
