"""The known/unknown value lattice and the *known-world state*.

Terminology follows the paper (Sec. III.F): the known-world state is
"the state of all known-ness as well as the values themselves if known",
maintained over registers, condition flags, and memory.

Value kinds
-----------

* :class:`KnownInt` — a concrete 64-bit value (canonical unsigned);
* :class:`KnownFloat` — a concrete double (XMM lane 0);
* :class:`StackRel` — a *symbolic* stack address, ``entry_rsp + offset``.
  The traced function's stack frame cannot have a concrete address at
  rewrite time, so stack addressing is tracked relative to the value of
  ``rsp`` on entry; emitted memory operands are rewritten to be
  rsp-relative (the emitted code never moves the runtime ``rsp`` except
  around non-inlined calls, so ``runtime rsp == entry rsp`` holds
  throughout a rewritten body);
* ``None`` — unknown: the *runtime location* holds the live value.

The central invariant: a location marked known is **stale at runtime**
(every use was folded); a location marked unknown is **live at
runtime**.  Converting known→unknown therefore requires *materialization*
(compensation code, Sec. III.F), which is what
:func:`repro.core.compensation.materialize` emits.

Memory cells
------------

``mem`` maps cells (8-byte granules, keyed symbolically for the stack
and absolutely otherwise) to values.  A value of ``None`` means
*dirty*: the cell was overwritten with an unknown value, so it must not
be folded from the image even if it lies inside a ``brew_setmem`` range.
An *absent* key means untracked: reads fold from the image iff the
address is inside a declared known range, else they are unknown.

Flags are deliberately **excluded** from block identity and migration:
compiler-generated code never keeps condition flags live across basic
block boundaries (the flag consumer directly follows its producer), the
same assumption binary translators like QEMU/Dynamo make.  Within one
traced region flags are tracked normally so known comparisons fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.isa.flags import Flag
from repro.isa.registers import GPR, XMM

# Member tuples: iterating an enum class runs a Python generator, and
# worlds are built, copied and compared for every traced block.
_GPRS = tuple(GPR)
_XMMS = tuple(XMM)
_FLAGS = tuple(Flag)

MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class KnownInt:
    """A concrete integer/pointer value (canonical unsigned 64-bit)."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value & MASK64)

    def __repr__(self) -> str:
        return f"KnownInt(0x{self.value:x})"


@dataclass(frozen=True)
class KnownFloat:
    """A concrete double (compared by bit pattern so -0.0 != 0.0)."""

    value: float

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnownFloat):
            return NotImplemented
        import struct

        return struct.pack("<d", self.value) == struct.pack("<d", other.value)

    def __hash__(self) -> int:
        import struct

        return hash(struct.pack("<d", self.value))


@dataclass(frozen=True)
class StackRel:
    """A symbolic stack address: ``entry_rsp + offset`` (offset signed)."""

    offset: int


@dataclass(frozen=True)
class RegSnapshot:
    """A *deferred spill*: the cell holds "whatever register ``reg``'s
    runtime content was at generation ``gen``".

    Used to elide save/restore pairs (callee-saved push/pop, parameter
    spill/reload): when an unknown register is stored to a stack cell,
    the store is deferred; a later load folds to the register itself,
    and the store only materializes if the register's *runtime* content
    is about to change (i.e. an emitted instruction writes it — folded
    writes never touch runtime contents).

    Snapshots are strictly block-local: the tracer flushes them before
    any block boundary, so they never appear in world digests.
    """

    reg: object  # GPR or XMM
    gen: int
    is_float: bool = False


Value = Union[KnownInt, KnownFloat, StackRel, RegSnapshot, None]

#: Memory cell key: ``("s", offset)`` for stack cells (offset relative to
#: the entry rsp), ``("a", address)`` for absolute cells.
MemKey = tuple[str, int]


def stack_key(offset: int) -> MemKey:
    """Cell key for the stack cell at entry-rsp-relative ``offset``."""
    return ("s", offset)


def abs_key(addr: int) -> MemKey:
    """Cell key for the absolute address ``addr``."""
    return ("a", addr & MASK64)


class World:
    """One known-world state.  Mutable during tracing; ``digest()``
    snapshots it hashably for block identity."""

    __slots__ = ("regs", "xmm", "flags", "mem", "escaped")

    def __init__(self) -> None:
        self.regs: dict[GPR, Value] = dict.fromkeys(_GPRS)
        self.xmm: dict[XMM, KnownFloat | None] = dict.fromkeys(_XMMS)
        self.flags: dict[Flag, bool | None] = dict.fromkeys(_FLAGS)
        #: Tracked memory cells, :data:`MemKey` -> value: None means
        #: *dirty*, an absent key untracked (see the module doc).
        self.mem: dict[MemKey, Value] = {}
        #: Frame escape flag: False while no address of this frame has
        #: become reachable outside the tracer's knowledge (stored to
        #: absolute memory, passed to a kept call, or demoted from
        #: StackRel to unknown).  While False, stores through *unknown*
        #: pointers provably cannot alias callee-frame cells (offset <
        #: 0): the frame did not exist when the caller formed its
        #: pointers, and every in-frame address is still tracked
        #: symbolically — so frame cells survive such stores.
        self.escaped: bool = False

    @classmethod
    def entry_world(cls) -> "World":
        """World at the entry of the function being rewritten: everything
        unknown except ``rsp``, which is the symbolic stack base."""
        w = cls()
        w.regs[GPR.RSP] = StackRel(0)
        return w

    # ------------------------------------------------------------- copying
    def copy(self) -> "World":
        """A mutation-independent copy: each of ``regs``, ``xmm``,
        ``flags`` and ``mem`` is copied whole (dict-shallow, since the
        values are frozen)."""
        w = World.__new__(World)
        w.regs = dict(self.regs)
        w.xmm = dict(self.xmm)
        w.flags = dict(self.flags)
        w.mem = dict(self.mem)
        w.escaped = self.escaped
        return w

    # -------------------------------------------------------------- digest
    def digest(self) -> tuple:
        """Hashable identity of this world (flags excluded; see module doc)."""
        regs = tuple(map(self.regs.__getitem__, _GPRS))
        xmm = tuple(map(self.xmm.__getitem__, _XMMS))
        mem = tuple(sorted(self.mem.items()))
        assert all(
            v.gen == 0 for _, v in mem if isinstance(v, RegSnapshot)
        ), "register snapshots must be normalized (gen 0) at block boundaries"
        return (regs, xmm, mem, self.escaped)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, World):
            return NotImplemented
        return self.digest() == other.digest()

    def __hash__(self) -> int:  # worlds are dict keys via digest
        return hash(self.digest())

    # --------------------------------------------------------------- stats
    @property
    def known_count(self) -> int:
        """How many locations carry knowledge (migration distance metric)."""
        count = sum(1 for v in self.regs.values() if v is not None)
        count += sum(1 for v in self.xmm.values() if v is not None)
        count += sum(1 for v in self.mem.values() if v is not None)
        return count

    # ------------------------------------------------------------ mutation
    def kill_flags(self) -> None:
        self.flags = dict.fromkeys(_FLAGS)

    def kill_mem_overlapping(self, key: MemKey) -> None:
        """Remove tracked cells overlapping an 8-byte access at ``key``
        (conservative partial-overlap handling for unaligned stores)."""
        kind, pos = key
        for other in [k for k in self.mem if k[0] == kind and abs(k[1] - pos) < 8]:
            if other != key:
                del self.mem[other]

    def taint_all_memory(self) -> None:
        """After a store through an unknown pointer: every aliasable
        tracked cell becomes dirty (the caller must have materialized
        those cells first — see tracer.flush_known_memory).

        While the frame has not escaped, callee-frame cells (stack
        offsets below the entry rsp) cannot be aliased by an unknown
        pointer and keep their knowledge (see the ``escaped`` field)."""
        for key in list(self.mem):
            kind, pos = key
            if not self.escaped and kind == "s" and pos < 0:
                continue
            self.mem[key] = None


# --------------------------------------------------------------- migration
def _reg_loc(world: "World", snap: RegSnapshot):
    return world.xmm[snap.reg] if snap.is_float else world.regs[snap.reg]


def migration_mismatch(src: "World", dst: "World") -> list[str]:
    """Why ``src`` cannot migrate into ``dst`` (empty list = compatible).

    Migration src→dst is possible when dst's knowledge is a subset of
    src's: every location dst knows must be known-equal in src.
    Locations src knows but dst doesn't just need materialization.

    One extra rule for snapshot cells (deferred spills): a dst cell that
    aliases register ``r`` stays valid only if the migration edge will
    not *materialize* ``r`` (i.e. src must not know ``r`` while dst
    forgets it) — materialization overwrites the runtime content the
    alias refers to.
    """
    problems: list[str] = []
    for r in _GPRS:
        d = dst.regs[r]
        if d is not None and d != src.regs[r]:
            problems.append(f"reg {r}")
    for x in _XMMS:
        d = dst.xmm[x]
        if d is not None and d != src.xmm[x]:
            problems.append(f"xmm {x}")
    if src.escaped and not dst.escaped:
        # dst's code assumed the frame cannot be aliased; on this path
        # a frame address is already loose — unsound to merge
        problems.append("frame escape")
    for key, dval in dst.mem.items():
        sval = src.mem.get(key, "absent")
        if dval is None:
            # dst expects the runtime cell live; src: known -> will be
            # materialized; dirty/absent -> already live.  Always fine.
            continue
        if sval != dval:
            problems.append(f"mem {key}")
            continue
        if isinstance(dval, RegSnapshot):
            if _reg_loc(src, dval) is not None and _reg_loc(dst, dval) is None:
                problems.append(f"snapshot {key} vs materialized {dval.reg}")
    # src cells that dst does not track: if the address is inside a known
    # range, dst would fold reads from the image; src's runtime/known
    # value must equal the image value — we cannot verify that here, the
    # tracer checks it with the image at hand.
    return problems


def generalize(a: "World", b: "World") -> "World":
    """The join: keep only knowledge ``a`` and ``b`` agree on.  Repeated
    application terminates at the all-unknown world (paper, Sec. III.F).

    Demoting a StackRel value to unknown makes a frame address
    runtime-live outside the tracer's knowledge, so the join is marked
    escaped in that case (and whenever either input already was)."""
    out = World()
    out.escaped = a.escaped or b.escaped
    for r in _GPRS:
        if a.regs[r] is not None and a.regs[r] == b.regs[r]:
            out.regs[r] = a.regs[r]
        elif isinstance(a.regs[r], StackRel) or isinstance(b.regs[r], StackRel):
            out.escaped = True  # a frame address goes runtime-live
    for x in _XMMS:
        if a.xmm[x] is not None and a.xmm[x] == b.xmm[x]:
            out.xmm[x] = a.xmm[x]
    keys = set(a.mem) | set(b.mem)
    for key in keys:
        av = a.mem.get(key, "absent")
        bv = b.mem.get(key, "absent")
        if av == bv and av != "absent":
            if isinstance(av, RegSnapshot) and _reg_loc(a, av) != _reg_loc(b, av):
                # the register the cell aliases will be materialized on at
                # least one incoming edge; the alias does not survive
                out.mem[key] = None
            else:
                out.mem[key] = av  # type: ignore[assignment]
        else:
            # disagreement (or tracked on one side only): the cell must be
            # runtime-live and unfoldable -> dirty
            out.mem[key] = None
            if isinstance(av, StackRel) or isinstance(bv, StackRel):
                out.escaped = True  # a frame address goes runtime-live
    return out


def materialization_needs(src: "World", dst: "World") -> tuple[list, list, list]:
    """Locations known in ``src`` that are unknown/dirty in ``dst`` and
    therefore need materializing on the src→dst edge.

    Returns ``(gprs, xmms, mem_keys)``.
    """
    gprs = [r for r in _GPRS
            if src.regs[r] is not None and dst.regs[r] is None and r is not GPR.RSP]
    xmms = [x for x in _XMMS if src.xmm[x] is not None and dst.xmm[x] is None]
    mem_keys = []
    for key, sval in src.mem.items():
        if sval is None:
            continue
        dval = dst.mem.get(key, "absent")
        if dval is None or (dval == "absent" and key[0] == "s"):
            # dst expects the cell live (dirty), or it's an untracked
            # stack cell dst would read from runtime memory
            mem_keys.append(key)
        elif dval == "absent" and key[0] == "a":
            # absolute cell untracked in dst: dst folds it from the image
            # iff it's in a known range, else reads it live.  Either way a
            # store keeps runtime memory consistent; the tracer decides
            # whether the image value already matches.
            mem_keys.append(key)
    return gprs, xmms, mem_keys
