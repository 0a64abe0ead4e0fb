"""Captured blocks and the yet-to-be-rewritten queue (paper Sec. III.F/G).

A *captured block* is a maximal traced region: it may span many original
basic blocks (the tracer runs straight through known-condition jumps and
inlined calls) and ends at an unknown-condition branch, a jump to an
already-translated block, or the outer return.

Block identity is ``(original start address, known-world digest)`` —
"basic blocks starting at same address are treated to be different when
their known-world state differs".  Emitted branch targets are symbolic
labels resolved at final emission.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.config import FunctionConfig
from repro.core.known import World
from repro.core.shadow import ShadowFrame
from repro.isa.instruction import Instruction

#: (orig_addr, world digest, shadow-stack digest).  The shadow stack is
#: part of block identity: an unknown branch *inside an inlined callee*
#: forks two pending blocks that must resume with the same inline
#: context, and the same address traced under different inline contexts
#: returns to different places.
BlockKey = tuple[int, tuple, tuple]


@dataclass
class CapturedBlock:
    """One translated block of the rewritten function."""

    label: str
    orig_addr: int
    world_in: World
    insns: list[Instruction] = field(default_factory=list)
    #: Label this block falls through / jumps to at its end (None when it
    #: ends in RET or its terminator is fully emitted inside ``insns``).
    final_target: str | None = None
    #: All labels this block can transfer to (for layout).
    successors: list[str] = field(default_factory=list)
    #: True when this is a compensation (world-migration) edge block.
    is_compensation: bool = False
    done: bool = False


@dataclass
class PendingBlock:
    label: str
    orig_addr: int
    world: World
    shadow: list[ShadowFrame]
    fn_addr: int
    fn_config: FunctionConfig


class BlockRegistry:
    """Blocks already translated or queued, keyed by (addr, world)."""

    def __init__(self) -> None:
        self.by_key: dict[BlockKey, str] = {}
        self.blocks: dict[str, CapturedBlock] = {}
        self.queue: deque[PendingBlock] = deque()
        #: Translations per original address, for the variant threshold.
        self.variants: dict[int, list[str]] = {}
        self._seq = 0

    def fresh_label(self, stem: str = "blk") -> str:
        self._seq += 1
        return f"@{stem}{self._seq}"

    @staticmethod
    def shadow_digest(shadow: list[ShadowFrame]) -> tuple:
        return tuple((f.return_addr, f.fn_addr) for f in shadow)

    def lookup(self, addr: int, world: World, shadow: list[ShadowFrame]) -> str | None:
        return self.by_key.get((addr, world.digest(), self.shadow_digest(shadow)))

    def variant_count(self, addr: int) -> int:
        return len(self.variants.get(addr, []))

    def enqueue(
        self,
        addr: int,
        world: World,
        shadow: list[ShadowFrame],
        fn_addr: int,
        fn_config: FunctionConfig,
    ) -> str:
        """Register a (not-yet-translated) block and queue it."""
        key = (addr, world.digest(), self.shadow_digest(shadow))
        existing = self.by_key.get(key)
        if existing is not None:
            return existing
        label = self.fresh_label()
        self.by_key[key] = label
        self.variants.setdefault(addr, []).append(label)
        pending = PendingBlock(
            label, addr, world.copy(), list(shadow), fn_addr, fn_config.copy()
        )
        self.queue.append(pending)
        return label

    def add_compensation_block(self, block: CapturedBlock) -> None:
        """Compensation blocks have no (addr, world) identity."""
        block.is_compensation = True
        block.done = True
        self.blocks[block.label] = block

    def begin(self, pending: PendingBlock) -> CapturedBlock:
        """Materialize a pending block so the tracer can fill it."""
        block = CapturedBlock(pending.label, pending.orig_addr, pending.world)
        self.blocks[pending.label] = block
        return block

    def next_pending(self) -> PendingBlock | None:
        while self.queue:
            pending = self.queue.popleft()
            if pending.label not in self.blocks:
                return pending
        return None
