"""Rewriting by tracing — the partial evaluator at the heart of BREW
(paper Sections III.B, III.E, III.F, III.G).

The tracer emulates the original function instruction by instruction
over the :class:`~repro.core.known.World` lattice.  "In each step,
either the original instruction, a modified version, or nothing may be
passed on as the next instruction to be appended to the newly generated
variant."

Key mechanics (see the module docs of :mod:`repro.core.known` for the
runtime-location invariant everything rests on):

* fully-known operations fold — no instruction is emitted ("automatic
  constant propagation");
* partially-known operations are re-emitted with known operands folded
  in: integers become immediates, known doubles become loads from the
  literal pool, known address components fold into displacements
  (Figure 6's ``[0x615100]`` coefficients and constant row strides);
* stack addressing is symbolic: emitted stack operands are rewritten to
  be entry-rsp-relative, the emitted code never moves the runtime rsp
  (``push``/``pop`` become plain moves), and a window of
  ``sub rsp, F`` / ``add rsp, F`` protects the frame around emitted
  calls;
* calls with known targets are inlined through a shadow stack; calls
  configured no-inline are kept with ABI compensation; ``makeDynamic``
  markers short-circuit to "the argument, forced unknown" (Sec. V.C);
* control transfers end the current captured block and enqueue the
  successor keyed by ``(address, world, shadow)``; unknown conditional
  jumps enqueue both paths with the saved world (Sec. III.F); unknown
  indirect *jumps* fail the rewrite (as in the paper);
* anything unhandled raises :class:`~repro.errors.RewriteFailure` —
  "it is not catastrophic... the user has to use the original version".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from time import monotonic as _monotonic

from repro.errors import (
    DecodeError, MemoryError_, RewriteFailure, UndecodableError,
)
from repro.abi.callconv import (
    CALLEE_SAVED, FLOAT_ARG_REGS, INT_ARG_REGS,
)
from repro.core.blocks import BlockRegistry, CapturedBlock, PendingBlock
from repro.core.compensation import (
    materialize_edge, materialize_gpr, materialize_mem, materialize_xmm, stack_mem,
)
from repro.core.config import FunctionConfig, Knownness, RewriteConfig
from repro.core.known import (
    KnownFloat, KnownInt, MemKey, RegSnapshot, StackRel, Value, World,
    abs_key, generalize, materialization_needs, migration_mismatch, stack_key,
)
from repro.core.shadow import ShadowFrame
from repro.isa.flags import Flag, cond_holds
from repro.isa.instruction import Instruction, ins
from repro.isa.opcodes import Op, OpClass, op_info
from repro.isa.operands import FReg, Imm, Mem, Reg
from repro.isa.registers import GPR, XMM
from repro.isa import semantics as S
from repro.machine.image import Image
from repro.machine.memory import Perm

MASK64 = (1 << 64) - 1
_INT32_MIN, _INT32_MAX = -(1 << 31), (1 << 31) - 1


def _bits_of_float(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & MASK64))[0]


def _fits_disp(value: int) -> bool:
    return _INT32_MIN <= value <= _INT32_MAX


@dataclass
class TraceStats:
    traced_instructions: int = 0
    emitted_instructions: int = 0
    folded_instructions: int = 0
    inlined_calls: int = 0
    blocks: int = 0
    compensation_blocks: int = 0
    migrations: int = 0
    flushes: int = 0


@dataclass
class TraceOutput:
    registry: BlockRegistry
    entry_label: str
    stats: TraceStats = field(default_factory=TraceStats)
    #: Absolute addresses of *declared-known* cells whose content the
    #: trace actually consumed (folded), mapped to the 8-byte value
    #: read.  This is the memory half of the variant's world signature:
    #: the emitted code is valid exactly while these cells hold these
    #: values — bytes inside known ranges that were never read are
    #: irrelevant to the variant (see SpecializationManager).
    known_reads: dict[int, int] = field(default_factory=dict)


class Tracer:
    """One rewriting-by-tracing run over one entry function."""

    def __init__(self, image: Image, config: RewriteConfig, entry_addr: int) -> None:
        self.image = image
        self.config = config
        self.entry_addr = entry_addr
        self.registry = BlockRegistry()
        self.stats = TraceStats()
        # per-block mutable state
        self.world: World = World.entry_world()
        self.shadow: list[ShadowFrame] = []
        self.fn_addr = entry_addr
        self.fn_cfg: FunctionConfig = config.function(None)
        self.block: CapturedBlock | None = None
        self.pc = entry_addr
        #: Lowest stack offset touched; the call-window frame extent.
        self.min_stack = -8
        self._host_addrs: set[int] = set()
        #: Monotonic-clock instant after which tracing must stop with a
        #: graceful ``deadline-exceeded`` failure (None = unbounded; set
        #: by the rewriter from ``config.deadline_seconds``).
        self.deadline: float | None = None
        #: The clock the deadline is measured against.  Injectable (the
        #: rewriter threads its caller's clock through) so deadline-expiry
        #: tests are deterministic instead of wall-clock races.
        self.clock = _monotonic
        #: Scratch cell for the memory-hook rdi save (lazily allocated;
        #: see _maybe_memory_hook for why it is not a stack slot).
        self._hook_scratch: int | None = None
        #: Runtime-content generation per register (see known.RegSnapshot);
        #: bumped whenever an *emitted* instruction writes the register.
        self.reg_gens: dict = {}
        #: Declared-known cells consumed by this trace (see TraceOutput).
        self.known_reads: dict[int, int] = {}

    # ====================================================== driving loop
    def run(self, entry_world: World) -> TraceOutput:
        """Drive the queue to exhaustion (Sec. III.G step list)."""
        entry_label = self.registry.enqueue(
            self.entry_addr, entry_world, [], self.entry_addr, self.fn_cfg
        )
        while True:
            pending = self.registry.next_pending()
            if pending is None:
                break
            self._trace_block(pending)
        self.stats.blocks = sum(
            1 for b in self.registry.blocks.values() if not b.is_compensation
        )
        self.stats.compensation_blocks = sum(
            1 for b in self.registry.blocks.values() if b.is_compensation
        )
        return TraceOutput(self.registry, entry_label, self.stats, self.known_reads)

    def _trace_block(self, pending: PendingBlock) -> None:
        self.block = self.registry.begin(pending)
        self.world = pending.world.copy()
        self.world.kill_flags()  # flags are block-local (see known.py)
        self.shadow = list(pending.shadow)
        self.fn_addr = pending.fn_addr
        self.fn_cfg = pending.fn_config
        self.reg_gens = {}
        self.pc = pending.orig_addr
        if pending.orig_addr == self.entry_addr and not pending.shadow:
            self._maybe_emit_entry_hook()
        while self.block is not None and not self.block.done:
            self._step()

    def _step(self) -> None:
        if self.stats.traced_instructions >= self.config.max_trace_steps:
            raise RewriteFailure("trace-limit", "max_trace_steps exceeded")
        if self.registry.total_instructions >= self.config.max_output_instructions:
            raise RewriteFailure("buffer-full", "max_output_instructions exceeded")
        if (
            self.deadline is not None
            and (self.stats.traced_instructions & 63) == 0
            and self.clock() >= self.deadline
        ):
            raise RewriteFailure(
                "deadline-exceeded",
                f"wall-clock deadline expired after "
                f"{self.stats.traced_instructions} traced instructions",
            )
        try:
            insn = self._decode(self.pc)
        except UndecodableError as exc:
            raise RewriteFailure("undecodable-instruction", str(exc)) from exc
        except DecodeError as exc:
            raise RewriteFailure("decode-error", str(exc)) from exc
        self.stats.traced_instructions += 1
        before_emitted = self.stats.emitted_instructions
        next_pc = self.pc + (insn.size or 0)
        self._transfer(insn, next_pc)
        if self.stats.emitted_instructions == before_emitted:
            self.stats.folded_instructions += 1

    def _decode(self, addr: int) -> Instruction:
        # The decode cache holds only mapped, executable bytes, so a hit
        # needs neither fetch check.
        if addr not in self.image.decoded:
            try:
                seg = self.image.memory.segment_for(addr, 2)
            except MemoryError_:
                # Distinguish a fetch that genuinely walked off every
                # mapped segment from an access-machinery fault (e.g. an
                # injected SegmentationFault on a mapped address): scan
                # the segment list directly so the answer does not
                # depend on the (patchable) resolution path that just
                # failed.
                if any(s.base <= addr and addr + 2 <= s.end
                       for s in self.image.memory.segments):
                    raise
                raise RewriteFailure(
                    "fetch-out-of-bounds",
                    f"instruction fetch at unmapped address 0x{addr:x}",
                ) from None
            if Perm.X not in seg.perms:
                raise RewriteFailure(
                    "not-executable",
                    f"trace reached non-executable address 0x{addr:x}",
                )
        return self._fetch(addr)

    def _fetch(self, addr: int) -> Instruction:
        """The executable instruction at ``addr``, from the image's decode
        cache: a rewrite that traces code decoded before (by an earlier
        rewrite or by execution) decodes nothing.  The ``decode`` and
        ``undecodable`` fault seams wrap this call."""
        return self.image.fetch(addr)

    # ======================================================== emission
    @staticmethod
    def _reg_key(reg) -> tuple:
        # GPR.R12 == XMM.XMM12 under IntEnum value equality; generation
        # bookkeeping must distinguish the register classes.
        return ("x" if isinstance(reg, XMM) else "g", int(reg))

    def _gen(self, reg) -> int:
        return self.reg_gens.get(self._reg_key(reg), 0)

    def _written_runtime_regs(self, insn: Instruction) -> list:
        """Registers whose *runtime* content this emitted instruction
        changes (used to invalidate register snapshots)."""
        cls = op_info(insn.op).opclass
        ops = insn.operands
        if cls is OpClass.DIV:
            return [GPR.RAX, GPR.RDX]
        if cls is OpClass.CALL:
            from repro.abi.callconv import CALLEE_SAVED as _CS

            return [r for r in GPR if r not in _CS] + list(XMM)
        if cls in (OpClass.PUSH, OpClass.RET, OpClass.JMP, OpClass.JCC,
                   OpClass.CMP, OpClass.FCMP, OpClass.NOP, OpClass.HLT):
            return []
        if ops and isinstance(ops[0], Reg):
            return [ops[0].reg]
        if ops and isinstance(ops[0], FReg):
            return [ops[0].reg]
        return []

    def _flush_snapshots_of(self, reg) -> None:
        rkey = self._reg_key(reg)
        for key in list(self.world.mem):
            value = self.world.mem[key]
            if isinstance(value, RegSnapshot) and self._reg_key(value.reg) == rkey:
                self._emit_snapshot_store(key, value)
                self.world.mem[key] = None

    def _normalize_snapshots(self) -> None:
        """At block boundaries snapshots stay alive across the edge, but
        their generation must be canonical (0) so world digests from
        different traces compare equal (reg_gens restart per block)."""
        for key, value in self.world.mem.items():
            if isinstance(value, RegSnapshot) and value.gen != 0:
                assert value.gen == self._gen(value.reg), "stale snapshot"
                self.world.mem[key] = RegSnapshot(value.reg, 0, value.is_float)

    def _drop_dead_frame_snapshots(self) -> None:
        """At the outer return the frame below the entry rsp is dead:
        deferred spills into it can simply be dropped.  Snapshots into
        caller-visible memory (offset >= 0, absolute) are flushed."""
        for key in list(self.world.mem):
            value = self.world.mem[key]
            if not isinstance(value, RegSnapshot):
                continue
            kind, pos = key
            if kind == "s" and pos < 0:
                del self.world.mem[key]
            else:
                self._emit_snapshot_store(key, value)
                self.world.mem[key] = None

    def _emit_snapshot_store(self, key: MemKey, snap: RegSnapshot) -> None:
        assert snap.gen == self._gen(snap.reg), "stale register snapshot"
        kind, pos = key
        dst = stack_mem(pos, 0) if kind == "s" else Mem(disp=pos)
        if snap.is_float:
            insn = ins(Op.MOVSD, dst, FReg(snap.reg), note="spill")
        else:
            insn = ins(Op.MOV, dst, Reg(snap.reg), note="spill")
        self.block.insns.append(insn)  # bypass emit(): stores write no regs
        self.stats.emitted_instructions += 1

    def emit(self, insn: Instruction) -> None:
        """Append ``insn`` to the current captured block, maintaining the
        register-snapshot generations (see known.RegSnapshot) and
        stamping debug provenance (the original pc being traced)."""
        assert self.block is not None
        for reg in self._written_runtime_regs(insn):
            self._flush_snapshots_of(reg)
            self.reg_gens[self._reg_key(reg)] = self._gen(reg) + 1
        if insn.origin is None and insn.note not in (
            "compensation", "flush", "spill", "demote", "hook",
            "call-window", "store-known",
        ):
            from dataclasses import replace as _replace

            insn = _replace(insn, origin=self.pc)
        self.block.insns.append(insn)
        self.stats.emitted_instructions += 1

    def emit_many(self, insns: list[Instruction]) -> None:
        for i in insns:
            self.emit(i)

    def _end_block(self, final_target: str | None) -> None:
        assert self.block is not None
        self.block.final_target = final_target
        if final_target is not None:
            self.block.successors.append(final_target)
        self.block.done = True
        self.block = None

    # ================================================== value utilities
    def set_reg(self, reg: GPR, value: Value) -> None:
        self.world.regs[reg] = value
        if reg is GPR.RSP and isinstance(value, StackRel):
            self.min_stack = min(self.min_stack, value.offset)

    def _touch_stack(self, offset: int) -> None:
        self.min_stack = min(self.min_stack, offset - 8)

    def eff_addr(self, mem: Mem) -> Value:
        """Symbolic effective address of a memory operand."""
        total = mem.disp
        stack = None
        if mem.base is not None:
            base = self.world.regs[mem.base]
            if base is None:
                return None
            if isinstance(base, StackRel):
                stack = base
            elif isinstance(base, KnownInt):
                total += base.value
            else:
                return None
        if mem.index is not None:
            index = self.world.regs[mem.index]
            if not isinstance(index, KnownInt):
                return None  # scaled symbolic stack index: give up
            total += S.to_signed(index.value) * mem.scale
        if stack is not None:
            return StackRel(stack.offset + total)
        return KnownInt(total)

    def _mem_key(self, addr: Value) -> MemKey | None:
        if isinstance(addr, KnownInt):
            return abs_key(addr.value)
        if isinstance(addr, StackRel):
            return stack_key(addr.offset)
        return None

    def _image_foldable(self, addr: int, size: int = 8) -> bool:
        """May an untracked absolute cell be folded from the image?"""
        if self.config.memory_is_known(addr, size):
            return True
        seg = self.image.memory.segments
        rodata = self.image.seg_rodata
        code = self.image.seg_code
        return (rodata.contains(addr, size)) or (code.contains(addr, size))

    def mem_load(self, addr: Value, want_float: bool) -> Value:
        """Known value of an 8-byte load, or None (= emit the load)."""
        key = self._mem_key(addr)
        if key is None:
            return None
        if key in self.world.mem:
            value = self.world.mem[key]
        elif key[0] == "a" and self._image_foldable(key[1]):
            raw = self.image.memory.read_u64(key[1])
            if self.config.memory_is_known(key[1], 8):
                # a declared-known (mutable) cell fed the trace: part of
                # the variant's world signature.  rodata/code folds are
                # immutable program text and need no recording.
                self.known_reads[key[1]] = raw
            value = KnownFloat(_float_of_bits(raw)) if want_float else KnownInt(raw)
        else:
            return None
        return self._coerce(value, want_float, key)

    def _coerce(self, value: Value, want_float: bool, key: MemKey | None) -> Value:
        if value is None:
            return None
        if isinstance(value, RegSnapshot):
            if value.is_float == want_float:
                return value
            # cross-class reinterpretation of a deferred spill: flush it
            if key is not None:
                self._flush_cell(key)
            return None
        if want_float:
            if isinstance(value, KnownFloat):
                return value
            if isinstance(value, KnownInt):
                return KnownFloat(_float_of_bits(value.value))
            # StackRel read as a double: flush the cell and read at runtime
            if key is not None:
                self._flush_cell(key)
            return None
        if isinstance(value, KnownFloat):
            return KnownInt(_bits_of_float(value.value))
        return value

    def _store_hits_code(self, addr: int, size: int = 8) -> bool:
        """Does a store to ``[addr, addr+size)`` overlap executable bytes?

        A trace folding values out of the image must refuse such stores:
        the specialized body could go stale the instant it runs (the
        runtime tiers invalidate their caches on code writes, but a
        rewrite baked around the *old* bytes cannot be fixed up)."""
        return any(
            addr < seg.end and addr + size > seg.base and Perm.X in seg.perms
            for seg in self.image.memory.segments
        )

    def mem_store(self, addr: Value, value: Value, src_operand, *, is_float: bool) -> None:
        """Model a store; emits when needed (see module doc policy)."""
        key = self._mem_key(addr)
        assert key is not None, "unknown-address stores are handled by the caller"
        if key[0] == "a" and self._store_hits_code(key[1]):
            raise RewriteFailure(
                "self-modifying-code",
                f"traced store targets executable bytes at 0x{key[1]:x}",
            )
        self.world.kill_mem_overlapping(key)
        if value is not None:
            if key[0] == "s":
                # stack cell with a known value: track, elide
                self.world.mem[key] = value
                self._touch_stack(key[1])
                return
            # absolute cell: emit the store now (keeps globals/heap
            # runtime-consistent), and track for folding
            self.emit(self._store_known_insn(Mem(disp=key[1]), value))
            self.world.mem[key] = value
            return
        # unknown value
        if (
            key[0] == "s"
            and isinstance(src_operand, (Reg, FReg))
            and self.config.deferred_spills
        ):
            # defer the spill: the cell aliases the register's runtime
            # content until that content changes (see known.RegSnapshot)
            reg = src_operand.reg
            self.world.mem[key] = RegSnapshot(
                reg, self._gen(reg), is_float=isinstance(src_operand, FReg)
            )
            self._touch_stack(key[1])
            return
        self.world.mem[key] = None
        if key[0] == "s":
            self._touch_stack(key[1])
            dst = stack_mem(key[1], 0)
        else:
            dst = Mem(disp=key[1])
        op = Op.MOVSD if is_float else Op.MOV
        self.emit(ins(op, dst, src_operand, note="store"))

    def _store_known_insn(self, dst: Mem, value: Value) -> Instruction:
        if isinstance(value, KnownInt):
            return ins(Op.MOV, dst, Imm(value.value), note="store-known")
        if isinstance(value, KnownFloat):
            return ins(Op.MOV, dst, Imm(_bits_of_float(value.value)), note="store-known")
        raise RewriteFailure("bad-store", f"cannot store {value!r}")

    def _scratch_slot(self) -> int:
        """A stack offset safely below every live frame cell (for
        register borrows in materialization sequences)."""
        slot = self.min_stack - 8
        self.min_stack = slot - 8
        return slot

    def _flush_cell(self, key: MemKey) -> None:
        value = self.world.mem.get(key)
        if value is None:
            return
        if isinstance(value, RegSnapshot):
            self._emit_snapshot_store(key, value)
        else:
            if isinstance(value, StackRel):
                self._mark_escape()
            self.emit_many(materialize_mem(key, value, 0, note="flush",
                                           scratch_offset=self._scratch_slot()))
        self.world.mem[key] = None
        self.stats.flushes += 1

    def _mark_escape(self) -> None:
        """A frame address became reachable outside the tracer's
        knowledge; unknown-pointer stores may alias the frame from now
        on (see World.escaped)."""
        self.world.escaped = True

    def flush_known_memory(self, full: bool = False) -> None:
        """Materialize tracked known cells (before unknown stores and
        non-inlined calls), then mark them dirty.

        Unless ``full`` (kept calls, which may receive frame pointers as
        arguments), callee-frame cells are exempt while the frame has
        not escaped — an unknown pointer cannot alias them, so their
        knowledge (and the elision of their spills) survives."""
        for key in sorted(self.world.mem):
            kind, pos = key
            if (
                not full
                and not self.world.escaped
                and kind == "s"
                and pos < 0
            ):
                continue
            value = self.world.mem[key]
            if isinstance(value, RegSnapshot):
                self._emit_snapshot_store(key, value)
                self.world.mem[key] = None
                self.stats.flushes += 1
            elif value is not None:
                if isinstance(value, StackRel):
                    self._mark_escape()
                self.emit_many(materialize_mem(key, value, 0, note="flush",
                                               scratch_offset=self._scratch_slot()))
                self.stats.flushes += 1
        self.world.taint_all_memory()

    def _flush_range(self, addr: Value, size: int) -> None:
        """Flush tracked cells overlapping [addr, addr+size) (packed ops)."""
        key = self._mem_key(addr)
        if key is None:
            self.flush_known_memory()
            return
        kind, pos = key
        for other in list(self.world.mem):
            if other[0] == kind and other[1] + 8 > pos and other[1] < pos + size:
                self._flush_cell(other)

    # ------------------------------------------------- operand rewriting
    def rewrite_mem(self, mem: Mem) -> Mem:
        """Rewrite a memory operand so it is correct at runtime: known
        components fold into the displacement, stack addresses become
        rsp-relative, unknown registers stay live."""
        addr = self.eff_addr(mem)
        if isinstance(addr, KnownInt):
            value = S.to_signed(addr.value)
            if not _fits_disp(value):
                raise RewriteFailure("disp-overflow", f"absolute address 0x{addr.value:x}")
            return Mem(disp=value)
        if isinstance(addr, StackRel):
            if not _fits_disp(addr.offset):
                raise RewriteFailure("disp-overflow", "stack offset out of range")
            return stack_mem(addr.offset, 0)
        # partially known: fold what we can
        base = mem.base
        index = mem.index
        scale = mem.scale
        disp = mem.disp
        if base is not None:
            bval = self.world.regs[base]
            if isinstance(bval, KnownInt):
                disp += S.to_signed(bval.value)
                base = None
            elif isinstance(bval, StackRel):
                disp += bval.offset
                base = GPR.RSP
        if index is not None:
            ival = self.world.regs[index]
            if isinstance(ival, KnownInt):
                disp += S.to_signed(ival.value) * scale
                index = None
                scale = 1
            elif isinstance(ival, StackRel):
                raise RewriteFailure("stack-index", "scaled stack-address index")
        if base is None and index is not None and scale == 1:
            base, index = index, None
        if not _fits_disp(disp):
            raise RewriteFailure("disp-overflow", "folded displacement out of range")
        return Mem(base, index, scale, disp)

    def int_operand_for(self, operand) -> tuple:
        """(value, runtime_operand) for an integer-context source operand.

        ``runtime_operand`` is what to emit if the instruction is kept
        (None when the value is known and should be folded to an Imm)."""
        if isinstance(operand, Reg):
            value = self.world.regs[operand.reg]
            return value, operand
        if isinstance(operand, Imm):
            return KnownInt(operand.value), None
        if isinstance(operand, Mem):
            addr = self.eff_addr(operand)
            value = self.mem_load(addr, want_float=False)
            if isinstance(value, RegSnapshot):
                if value.is_float:
                    # int-context read of a deferred float spill
                    self._flush_cell(self._mem_key(addr))  # type: ignore[arg-type]
                    return None, self.rewrite_mem(operand)
                return None, Reg(value.reg)
            return value, self.rewrite_mem(operand)
        raise RewriteFailure("bad-operand", repr(operand))

    def fold_int_value(self, value: Value):
        """Imm operand for a known integer value (StackRel → needs lea)."""
        if isinstance(value, KnownInt):
            return Imm(value.value)
        return None

    # =================================================== main transfer
    def _transfer(self, insn: Instruction, next_pc: int) -> None:
        op = insn.op
        cls = op_info(op).opclass

        if cls is OpClass.NOP:
            self.pc = next_pc
            return
        if cls is OpClass.MOV:
            self._do_mov(insn)
        elif cls in (OpClass.ALU, OpClass.MUL, OpClass.SHIFT):
            self._do_alu(insn)
        elif cls is OpClass.CMP:
            self._do_cmp(insn)
        elif cls is OpClass.LEA:
            self._do_lea(insn)
        elif cls is OpClass.SETCC:
            self._do_setcc(insn)
        elif cls is OpClass.DIV:
            self._do_div(insn)
        elif cls is OpClass.FMOV:
            self._do_fmov(insn)
        elif cls in (OpClass.FALU, OpClass.FDIV):
            self._do_falu(insn)
        elif cls is OpClass.FCMP:
            self._do_fcmp(insn)
        elif cls is OpClass.FCVT:
            self._do_fcvt(insn)
        elif cls is OpClass.BITMOV:
            self._do_bitmov(insn)
        elif cls in (OpClass.VMOV, OpClass.VALU):
            self._do_packed(insn)
        elif cls is OpClass.PUSH:
            self._do_push(insn)
        elif cls is OpClass.POP:
            self._do_pop(insn)
        elif cls is OpClass.JMP:
            self._do_jmp(insn, next_pc)
            return
        elif cls is OpClass.JCC:
            self._do_jcc(insn, next_pc)
            return
        elif cls is OpClass.CALL:
            self._do_call(insn, next_pc)
            return
        elif cls is OpClass.RET:
            self._do_ret()
            return
        elif cls is OpClass.HLT:
            self._drop_dead_frame_snapshots()
            self.emit(ins(Op.HLT))
            self._end_block(None)
            return
        else:  # pragma: no cover - exhaustive
            raise RewriteFailure("unsupported-insn", str(insn))
        self.pc = next_pc

    # ------------------------------------------------------------- moves
    def _do_mov(self, insn: Instruction) -> None:
        dst, src = insn.operands
        value, runtime_src = self.int_operand_for(src)
        if isinstance(dst, Reg):
            if value is not None:
                self.set_reg(dst.reg, value)
                return
            if isinstance(runtime_src, Reg) and runtime_src.reg == dst.reg:
                # reload of a deferred spill into the same register
                self.set_reg(dst.reg, None)
                return
            self.set_reg(dst.reg, None)
            self.emit(ins(Op.MOV, dst, runtime_src, note=insn.note))
            if isinstance(runtime_src, Mem):
                self._maybe_memory_hook(runtime_src)
            return
        # memory destination
        assert isinstance(dst, Mem)
        addr = self.eff_addr(dst)
        if addr is None:
            self.flush_known_memory()
            src_op = runtime_src
            if value is not None:
                folded = self.fold_int_value(value)
                if folded is None:  # StackRel value: materialize via helper
                    self._emit_stackrel_store_unknown_addr(dst, value)
                    return
                src_op = folded
            self.emit(ins(Op.MOV, self.rewrite_mem(dst), src_op, note="store*"))
            self.world.taint_all_memory()
            return
        if value is not None and isinstance(value, StackRel) and self._mem_key(addr)[0] == "a":
            # storing a stack address to an absolute cell: the frame
            # escapes; track + emit via helper
            self._mark_escape()
            self.world.kill_mem_overlapping(self._mem_key(addr))
            self.emit_many(materialize_mem(self._mem_key(addr), value, 0, note="store",
                                           scratch_offset=self._scratch_slot()))
            self.world.mem[self._mem_key(addr)] = value
            return
        if value is None:
            src_op = runtime_src
            self.mem_store(addr, None, src_op, is_float=False)
        else:
            self.mem_store(addr, value, None, is_float=False)

    def _emit_stackrel_store_unknown_addr(self, dst: Mem, value: StackRel) -> None:
        # store of a known stack address through an unknown pointer:
        # borrow rax via a scratch slot below the frame extent
        self._mark_escape()
        save = stack_mem(self._scratch_slot(), 0)
        self.emit(ins(Op.MOV, save, Reg(GPR.RAX), note="spill"))
        self.emit(ins(Op.LEA, Reg(GPR.RAX), stack_mem(value.offset, 0), note="spill"))
        self.emit(ins(Op.MOV, self.rewrite_mem(dst), Reg(GPR.RAX), note="store*"))
        self.emit(ins(Op.MOV, Reg(GPR.RAX), save, note="spill"))
        self.world.taint_all_memory()

    # --------------------------------------------------------------- ALU
    def _materialize_reg_if_known(self, reg: GPR) -> None:
        value = self.world.regs[reg]
        if value is not None:
            self.emit_many(materialize_gpr(reg, value, 0, note="demote"))
            self.world.regs[reg] = None

    def _materialize_xmm_if_known(self, reg: XMM) -> None:
        value = self.world.xmm[reg]
        if value is not None:
            self.emit_many(
                materialize_xmm(reg, value, self.image.float_literal, note="demote")
            )
            self.world.xmm[reg] = None

    def _do_alu(self, insn: Instruction) -> None:
        ops = insn.operands
        if len(ops) == 1:
            self._do_alu_unary(insn)
            return
        dst, src = ops
        src_val, runtime_src = self.int_operand_for(src)
        if isinstance(dst, Reg):
            dst_val = self.world.regs[dst.reg]
            folded = self._fold_int_binop(insn.op, dst_val, src_val)
            # force_unknown_results never applies to stack-pointer
            # arithmetic: the symbolic stack model (known.py) requires rsp
            # and frame addresses to stay folded.
            structural = dst.reg is GPR.RSP or (
                folded is not None and isinstance(folded[0], StackRel)
            )
            if folded is not None and (structural or not self.fn_cfg.force_unknown_results):
                result, flags = folded
                self.set_reg(dst.reg, result)
                self._set_flags(flags)
                return
            # keep the op: dst must be live
            if dst_val is not None:
                self.emit_many(materialize_gpr(dst.reg, dst_val, 0, note="demote"))
                self.world.regs[dst.reg] = None
            src_op = runtime_src
            if src_val is not None:
                imm = self.fold_int_value(src_val)
                if imm is not None:
                    src_op = imm
                else:  # StackRel source of an ALU op: materialize it
                    assert isinstance(src, Reg)
                    self._materialize_reg_if_known(src.reg)
                    src_op = src
            self.emit(ins(insn.op, dst, src_op, note=insn.note))
            self.set_reg(dst.reg, None)
            self._set_flags(None)
            return
        # read-modify-write on memory
        assert isinstance(dst, Mem)
        addr = self.eff_addr(dst)
        cell_val = self.mem_load(addr, want_float=False)
        folded = self._fold_int_binop(insn.op, cell_val, src_val)
        if folded is not None and addr is not None and not self.fn_cfg.force_unknown_results:
            result, flags = folded
            self._set_flags(flags)
            self.mem_store(addr, result, None, is_float=False)
            return
        if addr is None:
            self.flush_known_memory()
        else:
            key = self._mem_key(addr)
            assert key is not None
            self._flush_cell(key)
            if key[0] == "s":
                self._touch_stack(key[1])
        src_op = runtime_src
        if src_val is not None:
            imm = self.fold_int_value(src_val)
            if imm is None:
                raise RewriteFailure("stack-rmw", "StackRel source in memory RMW")
            src_op = imm
        self.emit(ins(insn.op, self.rewrite_mem(dst), src_op, note=insn.note))
        if addr is None:
            self.world.taint_all_memory()
        else:
            self.world.mem[self._mem_key(addr)] = None  # type: ignore[index]
        self._set_flags(None)

    def _do_alu_unary(self, insn: Instruction) -> None:
        (dst,) = insn.operands
        if isinstance(dst, Reg):
            value = self.world.regs[dst.reg]
            if isinstance(value, KnownInt) and not self.fn_cfg.force_unknown_results:
                result, flags = S.int_unop(insn.op, value.value)
                self.set_reg(dst.reg, KnownInt(result))
                self._set_flags(flags)
                return
            if isinstance(value, StackRel) and insn.op in (Op.INC, Op.DEC) and not self.fn_cfg.force_unknown_results:
                delta = 1 if insn.op is Op.INC else -1
                self.set_reg(dst.reg, StackRel(value.offset + delta))
                self._set_flags(None)
                return
            self._materialize_reg_if_known(dst.reg)
            self.emit(ins(insn.op, dst, note=insn.note))
            self.set_reg(dst.reg, None)
            if op_info(insn.op).writes_flags:
                self._set_flags(None)
            return
        # unary on memory
        assert isinstance(dst, Mem)
        addr = self.eff_addr(dst)
        cell_val = self.mem_load(addr, want_float=False)
        if isinstance(cell_val, KnownInt) and addr is not None and not self.fn_cfg.force_unknown_results:
            result, flags = S.int_unop(insn.op, cell_val.value)
            self._set_flags(flags)
            self.mem_store(addr, KnownInt(result), None, is_float=False)
            return
        if addr is None:
            self.flush_known_memory()
        else:
            key = self._mem_key(addr)
            assert key is not None
            self._flush_cell(key)
        self.emit(ins(insn.op, self.rewrite_mem(dst), note=insn.note))
        if addr is None:
            self.world.taint_all_memory()
        else:
            self.world.mem[self._mem_key(addr)] = None  # type: ignore[index]
        if op_info(insn.op).writes_flags:
            self._set_flags(None)

    def _fold_int_binop(self, op: Op, a: Value, b: Value):
        """Try to fold ``a ⊕ b``; returns (result_value, flags) or None."""
        if isinstance(a, KnownInt) and isinstance(b, KnownInt):
            result, flags = S.int_binop(op, a.value, b.value)
            return KnownInt(result), flags
        if isinstance(a, StackRel) and isinstance(b, KnownInt):
            if op is Op.ADD:
                return StackRel(a.offset + S.to_signed(b.value)), None
            if op is Op.SUB:
                return StackRel(a.offset - S.to_signed(b.value)), None
        if isinstance(a, KnownInt) and isinstance(b, StackRel) and op is Op.ADD:
            return StackRel(b.offset + S.to_signed(a.value)), None
        if isinstance(a, StackRel) and isinstance(b, StackRel) and op is Op.SUB:
            result = (a.offset - b.offset) & MASK64
            _, flags = S.int_binop(Op.SUB, a.offset & MASK64, b.offset & MASK64)
            return KnownInt(result), flags
        return None

    def _set_flags(self, flags) -> None:
        if flags is None:
            self.world.kill_flags()
        else:
            for f, v in flags.items():
                self.world.flags[f] = v

    # --------------------------------------------------------------- CMP
    def _do_cmp(self, insn: Instruction) -> None:
        a_op, b_op = insn.operands
        a_val, a_rt = self.int_operand_for(a_op)
        b_val, b_rt = self.int_operand_for(b_op)
        force_emit = self.fn_cfg.conditionals_unknown or self.fn_cfg.force_unknown_results
        if not force_emit:
            folded = self._fold_int_binop(insn.op if insn.op is not Op.TEST else Op.AND,
                                          a_val, b_val)
            if insn.op is Op.CMP:
                folded = self._fold_int_binop(Op.SUB, a_val, b_val)
                if folded is not None and folded[1] is None:
                    folded = None  # StackRel arithmetic without real flags
            if folded is not None:
                self._set_flags(folded[1])
                return
        # emit the comparison; both operands must be runtime-live or immediates
        first = a_op
        if a_val is not None:
            if isinstance(a_op, Reg):
                self._materialize_reg_if_known(a_op.reg)
            elif isinstance(a_op, Mem):
                key = self._mem_key(self.eff_addr(a_op))
                if key is not None:
                    self._flush_cell(key)
                first = self.rewrite_mem(a_op)
        elif isinstance(a_op, Mem):
            first = self.rewrite_mem(a_op)
        second = b_rt
        if b_val is not None:
            imm = self.fold_int_value(b_val)
            if imm is not None:
                second = imm
            else:
                assert isinstance(b_op, Reg)
                self._materialize_reg_if_known(b_op.reg)
                second = b_op
        self.emit(ins(insn.op, first, second, note=insn.note))
        self._set_flags(None)

    # --------------------------------------------------------------- LEA
    def _do_lea(self, insn: Instruction) -> None:
        dst, mem = insn.operands
        assert isinstance(dst, Reg) and isinstance(mem, Mem)
        addr = self.eff_addr(mem)
        if addr is not None and not isinstance(addr, KnownFloat):
            self.set_reg(dst.reg, addr)
            return
        self.emit(ins(Op.LEA, dst, self.rewrite_mem(mem), note=insn.note))
        self.set_reg(dst.reg, None)

    # ------------------------------------------------------------- SETcc
    def _do_setcc(self, insn: Instruction) -> None:
        (dst,) = insn.operands
        assert isinstance(dst, Reg)
        cond = op_info(insn.op).cond
        assert cond is not None
        flags = self.world.flags
        if all(flags[f] is not None for f in Flag) and not self.fn_cfg.force_unknown_results:
            value = cond_holds(cond, {f: bool(flags[f]) for f in Flag})
            self.set_reg(dst.reg, KnownInt(1 if value else 0))
            return
        self.emit(ins(insn.op, dst, note=insn.note))
        self.set_reg(dst.reg, None)

    # -------------------------------------------------------------- IDIV
    def _do_div(self, insn: Instruction) -> None:
        (src,) = insn.operands
        src_val, runtime_src = self.int_operand_for(src)
        rax = self.world.regs[GPR.RAX]
        if (
            isinstance(rax, KnownInt)
            and isinstance(src_val, KnownInt)
            and not self.fn_cfg.force_unknown_results
        ):
            if S.to_signed(src_val.value) == 0:
                raise RewriteFailure("div-by-zero", "known division by zero")
            quot, rem = S.idiv(rax.value, src_val.value)
            self.set_reg(GPR.RAX, KnownInt(quot))
            self.set_reg(GPR.RDX, KnownInt(rem))
            self._set_flags(None)
            return
        self._materialize_reg_if_known(GPR.RAX)
        self._materialize_reg_if_known(GPR.RDX)
        src_op = runtime_src
        if src_val is not None:
            if isinstance(src, Reg):
                self._materialize_reg_if_known(src.reg)
                src_op = src
            else:
                key = self._mem_key(self.eff_addr(src))  # type: ignore[arg-type]
                if key is not None:
                    self._flush_cell(key)
                src_op = self.rewrite_mem(src)  # type: ignore[arg-type]
        self.emit(ins(Op.IDIV, src_op, note=insn.note))
        self.set_reg(GPR.RAX, None)
        self.set_reg(GPR.RDX, None)
        self._set_flags(None)

    # ------------------------------------------------------------- float
    def float_operand_for(self, operand) -> tuple:
        """(value, runtime_operand) for a float-context source operand."""
        if isinstance(operand, FReg):
            return self.world.xmm[operand.reg], operand
        if isinstance(operand, Mem):
            addr = self.eff_addr(operand)
            value = self.mem_load(addr, want_float=True)
            if isinstance(value, RegSnapshot):
                if not value.is_float:
                    self._flush_cell(self._mem_key(addr))  # type: ignore[arg-type]
                    return None, self.rewrite_mem(operand)
                return None, FReg(value.reg)
            return value, self.rewrite_mem(operand)
        raise RewriteFailure("bad-operand", repr(operand))

    def _fold_float_operand(self, value: KnownFloat):
        """Rewrite a known double source as a literal-pool load operand."""
        return Mem(disp=self.image.float_literal(value.value))

    def _do_fmov(self, insn: Instruction) -> None:
        if insn.op is Op.XORPD:
            dst, src = insn.operands
            assert isinstance(dst, FReg)
            if isinstance(src, FReg) and src.reg == dst.reg:
                if not self.fn_cfg.force_unknown_results:
                    self.world.xmm[dst.reg] = KnownFloat(0.0)
                    return
                self.emit(insn.with_operands(dst, src))
                self.world.xmm[dst.reg] = None
                return
            # generic bitwise xor: keep it, operands live
            if isinstance(src, FReg):
                self._materialize_xmm_if_known(src.reg)
            self._materialize_xmm_if_known(dst.reg)
            src_out = self.rewrite_mem(src) if isinstance(src, Mem) else src
            self.emit(ins(Op.XORPD, dst, src_out, note=insn.note))
            self.world.xmm[dst.reg] = None
            return
        # MOVSD
        dst, src = insn.operands
        value, runtime_src = self.float_operand_for(src)
        if isinstance(dst, FReg):
            if isinstance(value, KnownFloat):
                self.world.xmm[dst.reg] = value
                return
            self.world.xmm[dst.reg] = None
            if isinstance(runtime_src, FReg) and runtime_src.reg == dst.reg:
                return  # reload of a deferred spill into the same register
            self.emit(ins(Op.MOVSD, dst, runtime_src, note=insn.note))
            if isinstance(runtime_src, Mem):
                self._maybe_memory_hook(runtime_src)
            return
        # store
        assert isinstance(dst, Mem)
        addr = self.eff_addr(dst)
        if addr is None:
            self.flush_known_memory()
            src_op = runtime_src
            if isinstance(value, KnownFloat):
                src_op = self._fold_float_operand(value)
                # MOVSD m, m is not a valid form; go through a store of bits
                self.emit(ins(Op.MOV, self.rewrite_mem(dst),
                              Imm(_bits_of_float(value.value)), note="store*"))
                self.world.taint_all_memory()
                return
            self.emit(ins(Op.MOVSD, self.rewrite_mem(dst), src_op, note="store*"))
            self.world.taint_all_memory()
            return
        if isinstance(value, KnownFloat):
            self.mem_store(addr, value, None, is_float=True)
        else:
            self.mem_store(addr, None, runtime_src, is_float=True)

    def _do_falu(self, insn: Instruction) -> None:
        dst, src = insn.operands
        assert isinstance(dst, FReg)
        src_val, runtime_src = self.float_operand_for(src)
        dst_val = self.world.xmm[dst.reg]
        if (
            isinstance(dst_val, KnownFloat)
            and isinstance(src_val, KnownFloat)
            and not self.fn_cfg.force_unknown_results
        ):
            if insn.op is Op.SQRTSD:
                result = S.float_sqrt(src_val.value)
            else:
                result = S.float_binop(insn.op, dst_val.value, src_val.value)
            self.world.xmm[dst.reg] = KnownFloat(result)
            return
        if insn.op is Op.SQRTSD:
            # dst is write-only
            src_op = runtime_src
            if isinstance(src_val, KnownFloat):
                src_op = self._fold_float_operand(src_val)
            self.emit(ins(insn.op, dst, src_op, note=insn.note))
            self.world.xmm[dst.reg] = None
            return
        self._materialize_xmm_if_known(dst.reg)
        src_op = runtime_src
        if isinstance(src_val, KnownFloat):
            src_op = self._fold_float_operand(src_val)
        self.emit(ins(insn.op, dst, src_op, note=insn.note))
        self.world.xmm[dst.reg] = None

    def _do_fcmp(self, insn: Instruction) -> None:
        a_op, b_op = insn.operands
        a_val, a_rt = self.float_operand_for(a_op)
        b_val, b_rt = self.float_operand_for(b_op)
        force_emit = self.fn_cfg.conditionals_unknown or self.fn_cfg.force_unknown_results
        if (
            isinstance(a_val, KnownFloat)
            and isinstance(b_val, KnownFloat)
            and not force_emit
        ):
            self._set_flags(S.ucomisd_flags(a_val.value, b_val.value))
            return
        first = a_op
        if isinstance(a_op, FReg):
            if a_val is not None:
                self._materialize_xmm_if_known(a_op.reg)
        else:
            first = a_rt
        second = b_rt
        if isinstance(b_val, KnownFloat):
            second = self._fold_float_operand(b_val)
        self.emit(ins(Op.UCOMISD, first, second, note=insn.note))
        self._set_flags(None)

    def _do_fcvt(self, insn: Instruction) -> None:
        dst, src = insn.operands
        if insn.op is Op.CVTSI2SD:
            assert isinstance(dst, FReg)
            value, runtime_src = self.int_operand_for(src)
            if isinstance(value, KnownInt) and not self.fn_cfg.force_unknown_results:
                self.world.xmm[dst.reg] = KnownFloat(S.cvtsi2sd(value.value))
                return
            src_op = runtime_src
            if value is not None:
                imm = self.fold_int_value(value)
                if imm is not None and isinstance(src, Reg):
                    # CVTSI2SD has no immediate form: materialize the reg
                    self._materialize_reg_if_known(src.reg)
                    src_op = src
                elif imm is None and isinstance(src, Reg):
                    self._materialize_reg_if_known(src.reg)
                    src_op = src
            self.emit(ins(insn.op, dst, src_op, note=insn.note))
            self.world.xmm[dst.reg] = None
            return
        # CVTTSD2SI
        assert isinstance(dst, Reg)
        value, runtime_src = self.float_operand_for(src)
        if isinstance(value, KnownFloat) and not self.fn_cfg.force_unknown_results:
            self.set_reg(dst.reg, KnownInt(S.cvttsd2si(value.value)))
            return
        src_op = runtime_src
        if isinstance(value, KnownFloat):
            src_op = self._fold_float_operand(value)
        self.emit(ins(insn.op, dst, src_op, note=insn.note))
        self.set_reg(dst.reg, None)

    def _do_bitmov(self, insn: Instruction) -> None:
        dst, src = insn.operands
        if isinstance(dst, Reg):  # movq r, x
            assert isinstance(src, FReg)
            value = self.world.xmm[src.reg]
            if isinstance(value, KnownFloat) and not self.fn_cfg.force_unknown_results:
                self.set_reg(dst.reg, KnownInt(_bits_of_float(value.value)))
                return
            self._materialize_xmm_if_known(src.reg)
            self.emit(insn.with_operands(dst, src))
            self.set_reg(dst.reg, None)
            return
        assert isinstance(dst, FReg) and isinstance(src, Reg)
        value = self.world.regs[src.reg]
        if isinstance(value, KnownInt) and not self.fn_cfg.force_unknown_results:
            self.world.xmm[dst.reg] = KnownFloat(_float_of_bits(value.value))
            return
        self._materialize_reg_if_known(src.reg)
        self.emit(insn.with_operands(dst, src))
        self.world.xmm[dst.reg] = None

    def _do_packed(self, insn: Instruction) -> None:
        """Packed ops are never folded: operands go live, result unknown."""
        dst, src = insn.operands
        out_ops = []
        for i, operand in enumerate((dst, src)):
            if isinstance(operand, FReg):
                self._materialize_xmm_if_known(operand.reg)
                out_ops.append(operand)
            else:
                assert isinstance(operand, Mem)
                addr = self.eff_addr(operand)
                self._flush_range(addr, 16)
                out_ops.append(self.rewrite_mem(operand))
        if isinstance(dst, Mem):
            addr = self.eff_addr(dst)
            key = self._mem_key(addr)
            if key is None:
                self.flush_known_memory()
                self.world.taint_all_memory()
            else:
                kind, pos = key
                self.world.mem[(kind, pos)] = None
                self.world.mem[(kind, pos + 8)] = None
        else:
            self.world.xmm[dst.reg] = None
        self.emit(ins(insn.op, out_ops[0], out_ops[1], note=insn.note))

    # ---------------------------------------------------------- push/pop
    def _do_push(self, insn: Instruction) -> None:
        (src,) = insn.operands
        rsp = self.world.regs[GPR.RSP]
        if not isinstance(rsp, StackRel):
            raise RewriteFailure("rsp-escape", "push with non-symbolic rsp")
        value, runtime_src = self.int_operand_for(src)
        new_rsp = StackRel(rsp.offset - 8)
        self.set_reg(GPR.RSP, new_rsp)
        addr = StackRel(new_rsp.offset)
        if value is not None:
            self.mem_store(addr, value, None, is_float=False)
        else:
            self.mem_store(addr, None, runtime_src, is_float=False)

    def _do_pop(self, insn: Instruction) -> None:
        (dst,) = insn.operands
        assert isinstance(dst, Reg)
        rsp = self.world.regs[GPR.RSP]
        if not isinstance(rsp, StackRel):
            raise RewriteFailure("rsp-escape", "pop with non-symbolic rsp")
        addr = StackRel(rsp.offset)
        value = self.mem_load(addr, want_float=False)
        if isinstance(value, RegSnapshot):
            if value.is_float:
                # popping a deferred float spill into a GPR: flush + load
                self._flush_cell(stack_key(rsp.offset))
                self.emit(ins(Op.MOV, dst, stack_mem(rsp.offset, 0), note="pop"))
            elif self._reg_key(value.reg) != self._reg_key(dst.reg):
                self.emit(ins(Op.MOV, dst, Reg(value.reg), note="pop"))
            self.set_reg(dst.reg, None)
        elif value is not None:
            self.set_reg(dst.reg, value)
        else:
            self.emit(ins(Op.MOV, dst, stack_mem(rsp.offset, 0), note="pop"))
            self.set_reg(dst.reg, None)
        self.set_reg(GPR.RSP, StackRel(rsp.offset + 8))

    # ------------------------------------------------------------- jumps
    def _canonicalize_world(self, world: World) -> None:
        """Drop dirty (None) cells that mean the same as *absent*.

        A dirty stack cell and an absent stack cell both read as
        unknown-live; same for absolute cells outside foldable ranges.
        Without this, every unknown-pointer store leaves a permanent
        key in the world and loop iterations never reach a fixed point
        (each digest differs by dead bookkeeping, exploding variants).
        Only dirty cells *inside* foldable ranges carry information —
        they suppress folding from the image — and are kept.
        """
        for key in list(world.mem):
            if world.mem[key] is None and (
                key[0] == "s" or not self._image_foldable(key[1])
            ):
                del world.mem[key]

    def _link_to(self, addr: int) -> str:
        """Label for continuing at original address ``addr`` with the
        current world/shadow — translated, queued, or newly enqueued;
        applies the variant threshold + world migration (Sec. III.F)."""
        self._canonicalize_world(self.world)
        existing = self.registry.lookup(addr, self.world, self.shadow)
        if existing is not None:
            return existing
        if self.registry.variant_count(addr) >= self.config.variant_threshold:
            return self._migrate_to(addr)
        return self.registry.enqueue(
            addr, self.world, self.shadow, self.fn_addr, self.fn_cfg
        )

    def _compatible_for_migration(self, dst_world: World) -> bool:
        if migration_mismatch(self.world, dst_world):
            return False
        if not dst_world.escaped:
            # the edge would materialize frame addresses (StackRel) into
            # locations dst treats as unaliasable-frame-free
            gprs, _, mem_keys = materialization_needs(self.world, dst_world)
            if any(isinstance(self.world.regs[r], StackRel) for r in gprs):
                return False
            if any(isinstance(self.world.mem.get(k), StackRel) for k in mem_keys):
                return False
        # extra check: absolute cells we track but dst does not — dst
        # folds them from the image iff in a known range; our value must
        # match the image bytes.
        for key, value in self.world.mem.items():
            if key[0] != "a" or value is None:
                continue
            if key in dst_world.mem:
                continue
            if self._image_foldable(key[1]):
                raw = self.image.memory.read_u64(key[1])
                if self.config.memory_is_known(key[1], 8):
                    self.known_reads[key[1]] = raw
                mine = value.value if isinstance(value, KnownInt) else (
                    _bits_of_float(value.value) if isinstance(value, KnownFloat) else None
                )
                if mine != raw:
                    return False
        return True

    def _migrate_to(self, addr: int) -> str:
        """Variant threshold reached for ``addr``: migrate (Sec. III.F)."""
        self.stats.migrations += 1
        my_shadow = self.registry.shadow_digest(self.shadow)
        # candidate variants with the same inline context (shadow digest)
        usable = []
        for (baddr, wdig, sdig), label in self.registry.by_key.items():
            if baddr == addr and sdig == my_shadow:
                block = self.registry.blocks.get(label)
                world_in = block.world_in if block is not None else next(
                    (p.world for p in self.registry.queue if p.label == label), None
                )
                if world_in is not None:
                    usable.append((label, world_in))
        compatible = [
            (label, w) for label, w in usable if self._compatible_for_migration(w)
        ]
        pool = self.image.float_literal
        if compatible:
            # smallest materialization effort
            def effort(item):
                gprs, xmms, mems = materialization_needs(self.world, item[1])
                return len(gprs) + len(xmms) + len(mems)

            label, target_world = min(compatible, key=effort)
            comp = materialize_edge(self.world, target_world, pool,
                                    scratch_offset=self._scratch_slot())
            edge = CapturedBlock(
                self.registry.fresh_label("comp"), addr, self.world.copy(),
                insns=comp, final_target=label, successors=[label],
            )
            self.registry.add_compensation_block(edge)
            return edge.label
        if not usable:
            # threshold hit but no same-shadow variant: just enqueue
            return self.registry.enqueue(
                addr, self.world, self.shadow, self.fn_addr, self.fn_cfg
            )
        # generalize against the closest variant and retry (terminates at
        # the all-unknown world)
        def distance(item):
            gprs, xmms, mems = materialization_needs(self.world, item[1])
            return len(gprs) + len(xmms) + len(mems)

        closest = min(usable, key=distance)[1]
        general = generalize(self.world, closest)
        self._canonicalize_world(general)
        comp = materialize_edge(self.world, general, pool,
                                scratch_offset=self._scratch_slot())
        # enqueue the generalized world directly (bypassing the threshold:
        # each generalization strictly loses knowledge, so this terminates
        # at the all-unknown world, which then hits the lookup above)
        target = self.registry.lookup(addr, general, self.shadow)
        if target is None:
            target = self.registry.enqueue(
                addr, general, self.shadow, self.fn_addr, self.fn_cfg
            )
        edge = CapturedBlock(
            self.registry.fresh_label("comp"), addr, self.world.copy(),
            insns=comp, final_target=target, successors=[target],
        )
        self.registry.add_compensation_block(edge)
        return edge.label

    def _do_jmp(self, insn: Instruction, next_pc: int) -> None:
        self._normalize_snapshots()
        if insn.op is Op.JMPI:
            (reg,) = insn.operands
            assert isinstance(reg, Reg)
            value = self.world.regs[reg.reg]
            if not isinstance(value, KnownInt):
                raise RewriteFailure(
                    "indirect-jump", "unknown indirect jump target (paper Sec. III.F)"
                )
            target = value.value
        else:
            (imm,) = insn.operands
            assert isinstance(imm, Imm)
            target = imm.value
        label = self._link_to(target)
        self._end_block(label)

    def _do_jcc(self, insn: Instruction, next_pc: int) -> None:
        self._normalize_snapshots()
        cond = op_info(insn.op).cond
        assert cond is not None
        (imm,) = insn.operands
        assert isinstance(imm, Imm)
        target = imm.value
        flags = self.world.flags
        known = all(flags[f] is not None for f in Flag)
        if known and not self.fn_cfg.conditionals_unknown:
            taken = cond_holds(cond, {f: bool(flags[f]) for f in Flag})
            label = self._link_to(target if taken else next_pc)
            self._end_block(label)
            return
        # unknown condition: fork.  Save the world per path (paper III.F).
        taken_label = self._link_to(target)
        from repro.isa.operands import Label

        self.emit(ins(insn.op, Label(taken_label), note="fork"))
        assert self.block is not None
        self.block.successors.append(taken_label)
        fall_label = self._link_to(next_pc)
        self._end_block(fall_label)

    # ------------------------------------------------------------- calls
    def _do_call(self, insn: Instruction, next_pc: int) -> None:
        if insn.op is Op.CALLI:
            (reg,) = insn.operands
            assert isinstance(reg, Reg)
            value = self.world.regs[reg.reg]
            if isinstance(value, KnownInt):
                self._call_known(value.value, next_pc)
                return
            if value is not None:
                raise RewriteFailure("indirect-call", "call through a stack address")
            # unknown indirect call: keep it (extension beyond the paper,
            # which only fails on unknown indirect JUMPS)
            self._emit_real_call(ins(Op.CALLI, reg), next_pc)
            return
        (imm,) = insn.operands
        assert isinstance(imm, Imm)
        self._call_known(imm.value, next_pc)

    def _call_known(self, target: int, next_pc: int) -> None:
        if target in self.config.dynamic_markers:
            # makeDynamic(x): the runtime result is the argument; the
            # tracer marks it unknown (paper Sec. V.C)
            rdi = self.world.regs[GPR.RDI]
            if rdi is None:
                self.emit(ins(Op.MOV, Reg(GPR.RAX), Reg(GPR.RDI), note="makeDynamic"))
            else:
                self.emit_many(materialize_gpr(GPR.RAX, rdi, 0, note="makeDynamic"))
            self.set_reg(GPR.RAX, None)
            self.pc = next_pc
            return
        cfg = self.config.function(target)
        is_host = target in self._host_addrs or not self._is_executable(target)
        if cfg.inline and not is_host:
            # inline: continue tracing inside the callee
            rsp = self.world.regs[GPR.RSP]
            if not isinstance(rsp, StackRel):
                raise RewriteFailure("rsp-escape", "call with non-symbolic rsp")
            self.shadow.append(ShadowFrame(next_pc, self.fn_addr, self.fn_cfg))
            new_rsp = StackRel(rsp.offset - 8)
            self.set_reg(GPR.RSP, new_rsp)
            self.world.mem[stack_key(new_rsp.offset)] = KnownInt(next_pc)
            self._touch_stack(new_rsp.offset)
            # switch to the callee's effective config
            self.fn_addr = target
            self.fn_cfg = self._effective_config(target)
            self.stats.inlined_calls += 1
            self.pc = target
            return
        self._emit_real_call(ins(Op.CALL, Imm(target)), next_pc)

    def _effective_config(self, fn_addr: int) -> FunctionConfig:
        cfg = self.config.function(fn_addr).copy()
        # UNKNOWN param declarations force argument registers unknown at
        # entry of an inlined callee (the working makeDynamic alternative)
        for index, knownness in cfg.params.items():
            if knownness is Knownness.UNKNOWN:
                # parameter index -> register cannot be derived without
                # the signature; apply to the index-th *integer* arg reg
                # and the index-th float arg reg conservatively.
                if index - 1 < len(INT_ARG_REGS):
                    reg = INT_ARG_REGS[index - 1]
                    value = self.world.regs[reg]
                    if value is not None:
                        self.emit_many(materialize_gpr(reg, value, 0, note="force-unknown"))
                        self.world.regs[reg] = None
                if index - 1 < len(FLOAT_ARG_REGS):
                    xreg = FLOAT_ARG_REGS[index - 1]
                    if self.world.xmm[xreg] is not None:
                        self._materialize_xmm_if_known(xreg)
        return cfg

    def _is_executable(self, addr: int) -> bool:
        try:
            seg = self.image.memory.segment_for(addr, 2)
        except Exception:
            return False
        return Perm.X in seg.perms

    def _emit_real_call(self, call_insn: Instruction, next_pc: int) -> None:
        """Keep a call: ABI compensation + frame window (Sec. III.G)."""
        # argument registers must be live per the ABI
        for reg in INT_ARG_REGS:
            self._materialize_reg_if_known(reg)
        for xreg in FLOAT_ARG_REGS:
            self._materialize_xmm_if_known(xreg)
        # the callee may read (and write) any memory through passed
        # pointers, including frame pointers in its arguments
        self._mark_escape()
        self.flush_known_memory(full=True)
        frame = (-self.min_stack + 15) & ~15
        if frame:
            self.emit(ins(Op.SUB, Reg(GPR.RSP), Imm(frame), note="call-window"))
        self.emit(call_insn.with_note("call"))
        if frame:
            self.emit(ins(Op.ADD, Reg(GPR.RSP), Imm(frame), note="call-window"))
        # caller-saved registers are dead/unknown; callee-saved keep state
        for reg in GPR:
            if reg not in CALLEE_SAVED:
                self.world.regs[reg] = None
        for xreg in XMM:
            self.world.xmm[xreg] = None
        self._set_flags(None)
        self.world.taint_all_memory()
        self.pc = next_pc

    # --------------------------------------------------------------- ret
    def _do_ret(self) -> None:
        rsp = self.world.regs[GPR.RSP]
        if not isinstance(rsp, StackRel):
            raise RewriteFailure("rsp-escape", "ret with non-symbolic rsp")
        if self.shadow:
            frame = self.shadow.pop()
            self.world.mem.pop(stack_key(rsp.offset), None)
            self.set_reg(GPR.RSP, StackRel(rsp.offset + 8))
            self.fn_addr = frame.fn_addr
            self.fn_cfg = frame.config
            self.pc = frame.return_addr
            return
        # outer return
        self._drop_dead_frame_snapshots()
        if rsp.offset != 0:
            raise RewriteFailure(
                "stack-imbalance", f"ret with rsp at entry{rsp.offset:+d}"
            )
        # the caller expects rax/xmm0 (whichever is the return channel)
        # and all callee-saved registers to be live
        for reg in [GPR.RAX] + sorted(CALLEE_SAVED, key=int):
            if reg is GPR.RSP:
                continue
            self._materialize_reg_if_known(reg)
        self._materialize_xmm_if_known(XMM.XMM0)
        self.emit(ins(Op.RET))
        self._end_block(None)

    # ------------------------------------------------------------- hooks
    def _maybe_memory_hook(self, mem: Mem) -> None:
        """Inject a handler call after an emitted load (paper Sec. III.D:
        "other interesting points for callbacks include memory accesses";
        Sec. VIII: "detect remote memory accesses in arbitrary code").

        The handler receives the accessed address in ``rdi`` and must
        preserve all registers and program-visible memory (host-Python
        handlers do).  Loads from the literal pool are not instrumented.
        """
        hook = self.config.memory_hook
        if hook is None:
            return
        if mem.base is None and mem.index is None and self.image.seg_rodata.contains(
            mem.disp & MASK64, 8
        ):
            return
        # rdi is saved in an absolute scratch cell, NOT on the stack: the
        # emitted code keeps locals red-zone style below rsp, and
        # ``min_stack`` is only a running estimate at this point of the
        # trace — a stack-relative save sized from it can land on a spill
        # slot the rest of the trace allocates later.  (Host CALLs are
        # intercepted before the return-address push, so the call itself
        # never touches the guest stack.)
        if self._hook_scratch is None:
            self._hook_scratch = self.image.malloc(8)
        scratch = Mem(None, None, 1, self._hook_scratch)
        self.emit(ins(Op.MOV, scratch, Reg(GPR.RDI), note="hook"))
        self.emit(ins(Op.LEA, Reg(GPR.RDI), mem, note="hook"))
        self.emit(ins(Op.CALL, Imm(hook), note="hook"))
        self.emit(ins(Op.MOV, Reg(GPR.RDI), scratch, note="hook"))
        # the handler preserves machine state, but emit() already bumped
        # the snapshot generations for the call conservatively; the world
        # itself is unchanged *except* rdi, which the sequence restores —
        # however its snapshot generation advanced, which is merely
        # conservative.

    def _maybe_emit_entry_hook(self) -> None:
        hook = self.config.entry_hook
        if hook is None:
            return
        frame = 16
        self.emit(ins(Op.SUB, Reg(GPR.RSP), Imm(frame), note="hook"))
        self.emit(ins(Op.CALL, Imm(hook), note="hook"))
        self.emit(ins(Op.ADD, Reg(GPR.RSP), Imm(frame), note="hook"))
        # the hook must preserve everything (host functions do)
