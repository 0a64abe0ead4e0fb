"""Tier-2 execution: profile-guided trace JIT over the tier-1 chain graph.

Tier 1 (:mod:`repro.machine.blockjit`) removes per-instruction dispatch
but keeps per-*block* overhead: a dict probe or chain follow, a
generation recheck, and a full architectural-state round trip (registers
to the ``regs`` list, flags to the ``flags`` dict) at every block
boundary.  On a hot loop of three small blocks that boundary tax is most
of the remaining runtime.

This module adds tier 2.  The dispatch loop counts **back-edges**
(chained transitions to a lower or equal address) as a lightweight
profile; when a target crosses ``hot_threshold`` the trace former walks
the tier-1 chain graph from that head, following the *hottest* observed
successor edge of each block, until the path closes back on the head.
The walk follows guest calls: a CALL/CALLI continues into the callee the
graph observed, a RET at the return address of the matching call on the
path, and the path must be call-balanced where it closes (a helper
called from two sites is inlined twice).  The closed path — a
superblock covering one iteration of the hot cycle — is compiled into
ONE Python function with

* guest registers, xmm lanes, and condition flags allocated to Python
  **locals** for the whole trace body (loaded once on entry, written
  back only on exit),
* an internal iteration loop, so one call executes up to
  ``budget // n_insns`` guest iterations with zero dispatch between them,
* flag-liveness elision across block seams, and CMP/TEST results kept
  **deferred** (the operands, not the four flags) so loop-exit guards
  compare values directly,
* segment-TLB fields cached in locals (base/end/data/surcharge), so the
  per-access fast path is two integer compares against locals,
* **guarded side exits**: every on-trace conditional branch checks the
  observed direction and, on disagreement, writes back all live state,
  charges the *exact* interpreter-equivalent perf counters for the
  executed prefix (``iterations * per_iteration + prefix`` for
  instructions, cycles, loads, stores, branches, taken branches), sets
  ``cpu._ran_partial``, and returns to tier 1 at the off-trace pc,
* self-modification exits after every store that hits executable bytes,
  with the same exact accounting (the ``cw_`` contract of tier 1),
* **call and return guards**: a call exits *before* itself, at its own
  pc, when an indirect target differs from the recorded callee, a call
  hook is installed, or the target has become a host function (tier 1
  then performs the call exactly as the interpreter does); otherwise it
  pushes the return address through a store site.  A return pops
  through a load site and exits to the popped address when it is not
  the recorded return site.  Every exit taken inside a callee appends
  one ``CallFrameInfo`` per open frame, so ``cpu.call_stack`` matches
  the interpreter's.

One emitter serves both tiers.  :class:`_TraceCompiler` runs tier 1's
per-instruction translators unchanged and re-implements only the
state-access methods of :class:`~repro.machine.blockjit._BlockCompiler`:
``reg``/``lane``/``flag`` name Python locals (``r3``, ``x8_0``, ``zf_``)
and record which registers and lanes the trace touches, ``signed`` is
inline arithmetic, and ``divide`` is inline truncating division.  Memory
accessors get per-site TLB slots.  Exits are recorded during the walk
and rendered last, once the per-iteration counter totals, the touched
registers and the TLB sites of the whole trace are known.

Multi-version traces: each head keeps up to :data:`MAX_VERSIONS`
compiled traces keyed by the **signature** of the path: the
taken/not-taken decision of every branch and the recorded target of
every call along it.  When the profile shifts, the installed trace
starts exiting early; the dispatch loop notices (:data:`DEACT_MIN_EXITS`
consecutive low-yield exits), deactivates it — the head's tier-1 block,
kept by the entry, goes back into the cache — re-profiles, and installs
— or reuses — the version matching the new signature, so a callee
respecialized at a new address gets a version of its own.  A head whose
table is full evicts its oldest version to make room; a version rebuilt
after its eviction renders the same source, so it takes its code from
the JIT's ``compile()`` memo.  Formation reads the instructions the
cached blocks were translated from and decodes nothing.  An entry that
exits before its first instruction (a call at the head whose guard
fails) is deactivated at once and its pc runs in tier 1.

Invalidation: trace entries live in the tier-1 code cache, so the one
invalidation path (``Image.notify_code_write`` → ``invalidate_range``)
severs them exactly like blocks; stored versions are dropped precisely
by the spans of code they compiled, so versions of code nobody wrote
survive a rewrite elsewhere.  A store from *inside* a running trace
into its own bytes takes the next ``cw_`` exit (the already-running
Python frame is unaffected by the cache drop), so mid-trace
self-modification re-enters tier 1 — and then tier 0 semantics — at the
next instruction boundary.

Divergence note (same as tier 1): a *fault* raised mid-trace surfaces as
the same exception type, but register/flag/counter state and
``cpu.call_stack`` at the fault point may differ because locals have not
been written back and open frames not appended; all success paths, side
exits included, are bit-for-bit exact.  ``max_steps`` exhaustion is
exact: the iteration cap guarantees a trace call never oversteps its
budget, and the loop hands the tail to the interpreter.
"""

from __future__ import annotations

from repro.isa.flags import Cond
from repro.isa.opcodes import Op, OpClass
from repro.isa.operands import FReg, Mem, Reg
from repro.machine.blockjit import (
    _BLOCK_ENDERS,
    _COND_EXPR,
    _RAX,
    _RDX,
    _RSP,
    _BlockCompiler,
    _Unsupported,
    BlockJIT,
)
from repro.machine.cpu import CPU
from repro.machine.image import LAYOUT

#: Back-edge executions of one target pc before trace formation runs.
HOT_THRESHOLD = 24
#: Minimum observed follow count for every edge on the trace path.
MIN_EDGE = 4
#: Formation caps: blocks / instructions per trace.
MAX_TRACE_BLOCKS = 16
MAX_TRACE_INSNS = 384
#: Compiled versions kept per head address.
MAX_VERSIONS = 4
#: Deactivation: after this many consecutive side exits, ...
DEACT_MIN_EXITS = 8
#: ... each yielding fewer iterations than this.
DEACT_ITERS_PER_EXIT = 2

#: Loop-exit guard expressions under a *deferred* CMP (``_ga - _gb``):
#: each condition over the four flags, rewritten as a direct comparison
#: of the saved operands (the standard x86 identities, e.g.
#: ``SF != OF  ⇔  signed(a) < signed(b)`` after a subtraction).
_CMP_DIRECT = {
    Cond.E: "_ga == _gb",
    Cond.NE: "_ga != _gb",
    # Signed comparisons via the sign-bit flip: xoring both sides with
    # 2**63 maps signed order onto unsigned order, no calls.
    Cond.L: "(_ga ^ SB) < (_gb ^ SB)",
    Cond.GE: "(_ga ^ SB) >= (_gb ^ SB)",
    Cond.LE: "(_ga ^ SB) <= (_gb ^ SB)",
    Cond.G: "(_ga ^ SB) > (_gb ^ SB)",
    Cond.B: "_ga < _gb",
    Cond.AE: "_ga >= _gb",
    Cond.BE: "_ga <= _gb",
    Cond.A: "_ga > _gb",
    Cond.S: "((_ga - _gb) & M) >= SB",
    Cond.NS: "((_ga - _gb) & M) < SB",
}

#: Same for a deferred TEST (``_ga & _gb``): CF = OF = False, so the
#: signed conditions collapse onto SF and ZF of the AND result.
_TEST_DIRECT = {
    Cond.E: "(_ga & _gb) == 0",
    Cond.NE: "(_ga & _gb) != 0",
    Cond.L: "(_ga & _gb) >= SB",
    Cond.GE: "(_ga & _gb) < SB",
    Cond.LE: "((_ga & _gb) == 0 or (_ga & _gb) >= SB)",
    Cond.G: "((_ga & _gb) != 0 and (_ga & _gb) < SB)",
    Cond.B: "False",
    Cond.AE: "True",
    Cond.BE: "(_ga & _gb) == 0",
    Cond.A: "(_ga & _gb) != 0",
    Cond.S: "(_ga & _gb) >= SB",
    Cond.NS: "(_ga & _gb) < SB",
}

# A guard after a deferred CMP/TEST looks its condition up here, so
# both tables must cover every condition a Jcc can carry.
assert _CMP_DIRECT.keys() == _TEST_DIRECT.keys() == _COND_EXPR.keys()

#: The trace function's signature.  The globals the body reads every
#: iteration are bound as parameter defaults, so each reference is a
#: local load rather than a global dict lookup.
_TRACE_DEF = ("def _trace(cpu, budget, M=M, SB=SB, UQF=UQF, UDF=UDF, "
              "PQI=PQI, PDI=PDI, XPD=XPD, IDIV=IDIV, sqrt=sqrt, NAN=NAN, "
              "INF=INF):")
#: Body lines run inside the iteration loop; a guard's or store's exit
#: sits one level deeper, under its ``if``.
_BODY_IND = " " * 8
_EXIT_IND = " " * 12
#: The perf counters an exit charges, in the order of its prefix tuple.
_EXIT_COUNTERS = ("instructions", "loads", "stores", "cycles", "branches",
                  "taken_branches", "calls", "rets")
_FLAGS = ("ZF", "SF", "CF", "OF")


class TraceVersion:
    """One compiled trace for (head, signature): the function and its
    spans of compiled code bytes."""

    __slots__ = ("head", "sig", "run", "n_insns", "n_blocks", "spans",
                 "source")

    def __init__(self, head, sig, run, n_insns, n_blocks, spans, source):
        self.head = head
        self.sig = sig
        self.run = run
        #: Guest instructions per trace iteration.
        self.n_insns = n_insns
        self.n_blocks = n_blocks
        #: ``[(start, end), ...]`` byte ranges of every constituent
        #: block — traces span non-contiguous code, so invalidation
        #: checks each span, not one interval.
        self.spans = spans
        self.source = source


class TraceEntry:
    """A trace installed in the tier-1 code cache at its head address.

    Quacks like a :class:`CompiledBlock` (addr/end/links/n_insns) so the
    cache, chain links, and range invalidation treat it uniformly;
    ``is_trace`` tells the dispatch loop to call ``run(cpu, budget)``.
    """

    is_trace = True

    __slots__ = ("addr", "end", "run", "n_insns", "links", "source",
                 "version", "spans", "displaced", "lowrun")

    def __init__(self, version: TraceVersion, displaced):
        self.addr = version.head
        self.end = max(e for _, e in version.spans)
        self.run = version.run
        self.n_insns = version.n_insns
        self.links: dict[int, list] = {}
        self.source = version.source
        self.version = version
        self.spans = version.spans
        #: The head's tier-1 block this entry replaced in the cache;
        #: deactivation puts it back.  It compiled the head's bytes
        #: ``[addr, displaced.end)``, the trace's first span, so a code
        #: write over them drops the entry and this block with it.
        self.displaced = displaced
        #: Consecutive low-yield side exits (a sliding signal, not an
        #: install-anchored average: a long healthy phase must not mask
        #: a profile shift — see the deactivation check in ``loop``).
        self.lowrun = 0


class _TraceCompiler(_BlockCompiler):
    """Compiles a closed path of decoded blocks into one trace function.

    Tier 1's per-instruction translators emit the body; this class
    supplies their state-access methods over Python locals, per-site
    TLB memory accessors, the deferred CMP/TEST protocol, and the
    guards and exits.  Exits are kept in :attr:`lines` as tuples and
    rendered by :meth:`render` once the walk has fixed the
    per-iteration totals.
    """

    def __init__(self, path, costs):
        # path: [(addr, insns, end, recorded), ...] where ``recorded`` is
        # the branch direction of a JCC block, the callee of a CALL
        # block, the return site of a RET block, else None
        all_insns = [i for _, insns, _, _ in path for i in insns]
        super().__init__(all_insns, path[0][0], costs)
        self.path = path
        self.head = path[0][0]
        #: Deferred flag state: None (flag locals are current), or
        #: "cmp"/"test" (arch flags are a function of ``_ga``/``_gb``).
        self._defer = None
        self._br = 0   # branches so far this iteration (prefix)
        self._tk = 0   # taken branches so far this iteration
        self._cyc = 0  # cycles so far this iteration
        self._calls = 0  # calls so far this iteration
        self._rets = 0   # returns so far this iteration
        #: ``(target, return_addr)`` of the calls open at this point of
        #: the walk, outermost first: an exit appends them as frames.
        self._frames: list[tuple[int, int]] = []
        #: Per-site TLB slots: every static access site caches its own
        #: segment in its own locals (site ``j``: ``sb{j}_`` base,
        #: ``sm{j}_`` last valid address, ``sd{j}_`` data, ``sx{j}_``
        #: surcharge, ``sw{j}_`` watched).  A site has locality to one
        #: segment even when consecutive sites alternate segments
        #: (matrix / stack / matrix), which thrashes a shared
        #: single-entry TLB into a ``segment_for`` walk per access.
        self._load_slots: list[int] = []
        self._store_slots: list[int] = []
        #: GPRs and xmm lanes the trace touches: loaded into locals on
        #: entry and written back at every exit.
        self._regs: set[int] = set()
        self._lanes: set[tuple[int, int]] = set()

    # ------------------------------------------------- state in locals
    def emit(self, line):
        self.lines.append(_BODY_IND + line)

    def reg(self, n):
        self._regs.add(n)
        return f"r{n}"

    def lane(self, n, lane):
        self._lanes.add((n, lane))
        return f"x{n}_{lane}"

    def flag(self, name):
        return f"{name.lower()}_"

    def signed(self, x):
        # x is canonical (0 <= x < 2**64), so ``(x & SB) << 1`` is
        # exactly 2**64 when the sign bit is set: no helper call.
        return f"({x} - (({x} & SB) << 1))"

    def divide(self, b):
        """C-truncation signed division as pure arithmetic.  With the
        floor-division sign trick ``-(-a // b)`` the truncated quotient
        needs no abs() calls, and the remainder follows exactly as the
        interpreter computes it (``rem = sa - quot*sb``).  The zero
        divisor falls into an ``IDIV`` call that raises the helper's
        exact ``CpuError`` before its ``[0]`` subscript evaluates."""
        q, r = self.reg(_RAX), self.reg(_RDX)
        e = self.emit
        e(f"_dv = {b}; _da = {self.signed(q)}; _db = {self.signed('_dv')}")
        e("_dq = (-(-_da // _db) if (_da < 0) != (_db < 0) else _da // _db)"
          f" if _db else IDIV({q}, 0)[0]")
        e(f"{q} = _dq & M; {r} = (_da - _dq * _db) & M")

    # ------------------------------------------------- memory fast path
    def _site_refill(self, j, t):
        """Refill site ``j``'s segment locals on a bounds miss."""
        e = self.emit
        e(f"    seg_ = segfor({t}, 8); cpu._seg_cache = seg_")
        e(f"    sb{j}_ = seg_.base; sm{j}_ = seg_.end - 8; "
          f"sd{j}_ = seg_.data; sx{j}_ = seg_.extra_cost; "
          f"sw{j}_ = seg_.watched")

    def load(self, ea_expr, var, fmt="Q", count_inline=False):
        """Inline a guest load through this site's private TLB slot."""
        j = len(self._load_slots) + len(self._store_slots)
        self._load_slots.append(j)
        t = self.tmp()
        e = self.emit
        e(f"{t} = {ea_expr}")
        e(f"if not sb{j}_ <= {t} <= sm{j}_:")
        self._site_refill(j, t)
        e(f"if sx{j}_:")
        e(f"    perf.cycles += sx{j}_; perf.remote_cycles += sx{j}_; "
          "perf.remote_accesses += 1")
        fn = "UQF" if fmt == "Q" else "UDF"
        e(f"{var} = {fn}(sd{j}_, {t} - sb{j}_)[0]")
        if count_inline:
            e("perf.loads += 1")
        else:
            self.n_loads += 1
        self.needs.add("mem")
        return t

    def store(self, ea_expr, value_expr, fmt="Q", count_inline=False):
        """Inline a guest store through this site's private TLB slot,
        behind tier 1's write barrier.  The slow path re-reads the
        site's cached ``sw{j}_`` flag, so after the store that journals
        a segment the site is back on the fast path."""
        j = len(self._load_slots) + len(self._store_slots)
        self._store_slots.append(j)
        t = self.tmp()
        e = self.emit
        e(f"{t} = {ea_expr}")
        e(f"if not sb{j}_ <= {t} <= sm{j}_:")
        self._site_refill(j, t)
        e(f"if sx{j}_:")
        e(f"    perf.cycles += sx{j}_; perf.remote_cycles += sx{j}_; "
          "perf.remote_accesses += 1")
        fn = "PQI" if fmt == "Q" else "PDI"
        self._barriered_store(
            f"sw{j}_ and (sw{j}_ := "
            f"cpu.memory.before_write(segfor({t}, 8)))",
            f"{fn}(sd{j}_, {t} - sb{j}_, {value_expr})", t, count_inline)

    # ------------------------------------------------------ translation
    def gen_insn(self, insn, flags_needed):
        """Tier-1 translation plus two trace-only forms: comparisons
        keep their operands in ``_ga``/``_gb`` instead of computing four
        flags (guards and exits consume them directly), and a load into
        a register or scalar lane lands straight in its local."""
        cls = insn.info.opclass
        ops = insn.operands
        if cls is OpClass.CMP and flags_needed:
            a = self.read_int(ops[0])
            b = self.read_int(ops[1])
            self.emit(f"_ga = {a}; _gb = {b}")
            self._defer = "test" if insn.op is Op.TEST else "cmp"
            return
        if cls is OpClass.MOV and type(ops[0]) is Reg and type(ops[1]) is Mem:
            self.load(self.ea(ops[1]), self.reg(int(ops[0].reg)))
            return
        if (insn.op is Op.MOVSD and type(ops[0]) is FReg
                and type(ops[1]) is Mem):
            self.load(self.ea(ops[1]), self.lane(int(ops[0].reg), 0), "D")
            return
        if cls is OpClass.SETCC and self._defer is not None:
            self._materialize_locals()
        super().gen_insn(insn, flags_needed)
        if (flags_needed and insn.info.writes_flags
                and cls is not OpClass.DIV and cls is not OpClass.CMP):
            self._defer = None  # flag locals are current again

    def _deferred_flags(self, defer):
        """The statement and the four flag expressions that materialize
        a deferred CMP/TEST from ``_ga``/``_gb``."""
        if defer == "test":
            return "_gr = _ga & _gb", ("_gr == 0", "_gr >= SB", "False",
                                       "False")
        ts = self.signed
        return "_gr = (_ga - _gb) & M", (
            "_gr == 0", "_gr >= SB", "_ga < _gb",
            f"{ts('_ga')} - {ts('_gb')} != {ts('_gr')}")

    def _materialize_locals(self):
        """Fold a deferred CMP/TEST into the four flag locals."""
        setup, flags = self._deferred_flags(self._defer)
        self.emit(setup)
        self.set_flags(*flags)
        self._defer = None

    def _flags_dead_at_head(self):
        """True when nothing can observe the flag state carried across
        the loop seam: scanning from the head, a flag *writer* comes
        before any reader (JCC/SETCC) or exit site (a store's ``cw_``
        exit, a call or return guard).  Then the end-of-iteration
        materialization can be skipped — exits before the first writer
        do not exist, and everything after it sees freshly-defined
        state."""
        for insn in self.insns:
            cls = insn.info.opclass
            if cls is OpClass.SETCC or cls is OpClass.JCC:
                return False
            if self._can_exit(insn):
                return False
            if insn.info.writes_flags and cls is not OpClass.DIV:
                return True
        return False

    # ------------------------------------------------------------- exits
    def _prefix(self, k, cyc=0, br=0, tk=0):
        """The counts of the current iteration's first ``k``
        instructions (one per :data:`_EXIT_COUNTERS` entry), with
        ``cyc``/``br``/``tk`` added for a branch taken off the trace."""
        return (k, self.n_loads, self.n_stores, self._cyc + cyc,
                self._br + br, self._tk + tk, self._calls, self._rets)

    def _exit(self, ind, prefix, target, count_exit=True, itvar="it_"):
        """Record an exit at indent ``ind``: write back live state,
        charge exact counters for ``itvar`` full iterations plus the
        ``prefix`` (see :meth:`_prefix`) of the current one, push the
        open call frames, and return to tier 1 at ``target`` (a
        constant, or the local holding a popped return address)."""
        self.lines.append((ind, prefix, target, self._defer, count_exit,
                           itvar, tuple(self._frames)))

    def _exit_lines(self, writeback, ind, prefix, target, defer,
                    count_exit, itvar, frames):
        per_iter = (len(self.insns), self.n_loads, self.n_stores,
                    self._cyc, self._br, self._tk, self._calls, self._rets)
        out = [f"perf.{name} += {itvar}*{n} + {p}"
               for name, n, p in zip(_EXIT_COUNTERS, per_iter, prefix)
               if n or p]
        if writeback:
            out.append(writeback)
        if defer is None:
            values = tuple(self.flag(f) for f in _FLAGS)
        else:
            setup, values = self._deferred_flags(defer)
            out.append(setup)
        out.append("; ".join(
            f"flags[{f}] = {v}" for f, v in zip(_FLAGS, values)))
        if frames:
            out.append("cpu.call_stack.extend(["
                       + ", ".join(f"CFI({t}, {r})" for t, r in frames)
                       + "])")
        if count_exit:
            out.append("VC[1] += 1")
        out.append(f"VC[2] += {itvar}")
        out.append(f"cpu._ran_partial = {itvar}*{per_iter[0]} + {prefix[0]}")
        out.append(f"cpu.pc = {target}")
        out.append(f"return {target}")
        return [ind + line for line in out]

    def _emit_cw_exit(self, k, next_pc):
        """Self-modification exit right after a store into executable
        bytes, at the next instruction boundary (tier-1 ``cw_``
        contract)."""
        self.emit("if cw_:")
        self._exit(_EXIT_IND, self._prefix(k), next_pc)

    def _emit_call(self, insn, k, target, ret):
        """Inline a call into the recorded callee after ``k``
        instructions.  The guard exits *before* the call, at its own pc,
        so tier 1 performs it exactly as the interpreter does: when an
        indirect target is not the recorded one, a call hook is
        installed, or the target has become a host function.  Then the
        return address is pushed through a store site, and the callee's
        frame stays open until its RET."""
        guard = f"hooks or {target} in hostfns"
        if insn.op is Op.CALLI:
            guard = f"{self.reg(int(insn.operands[0].reg))} != {target} or {guard}"
        self.needs.add("call")
        self.emit(f"if {guard}:")
        self._exit(_EXIT_IND, self._prefix(k), insn.addr)
        sp = self.reg(_RSP)
        self.emit(f"{sp} = ({sp} - 8) & M")
        self.store(sp, repr(ret))
        self._calls += 1
        self._cyc += self._costs.base_cost(insn, False)
        self._frames.append((target, ret))
        self._emit_cw_exit(k + 1, target)

    def _emit_ret(self, insn, k, ret):
        """Inline the return to the recorded return site ``ret`` after
        ``k`` instructions: pop through a load site, and exit to the
        popped address when it differs (the callee rewrote its return
        slot)."""
        t = self.tmp()
        sp = self.reg(_RSP)
        self.load(sp, t)
        self.emit(f"{sp} = ({sp} + 8) & M")
        self._rets += 1
        self._cyc += self._costs.base_cost(insn, False)
        self._frames.pop()
        self.emit(f"if {t} != {ret}:")
        self._exit(_EXIT_IND, self._prefix(k + 1), t)

    def _emit_guard(self, insn, direction, k, fall_pc):
        """Guard an on-trace conditional branch; exit on disagreement."""
        cond = insn.info.cond
        if self._defer == "cmp":
            expr = _CMP_DIRECT[cond]
        elif self._defer == "test":
            expr = _TEST_DIRECT[cond]
        else:
            expr = self.cond(cond)
        cost = self._costs.base_cost
        if direction:
            self.emit(f"if not ({expr}):")
            exit_pc = fall_pc
        else:
            self.emit(f"if {expr}:")
            exit_pc = insn.operands[0].value
        exit_taken = not direction
        self._exit(_EXIT_IND, self._prefix(k, cost(insn, exit_taken), 1,
                                           int(exit_taken)), exit_pc)
        self._br += 1
        self._tk += int(direction)
        self._cyc += cost(insn, direction)

    # ---------------------------------------------------------- translate
    def gen_trace(self):
        """Emit the whole closed path — body instructions, ``cw_``
        exits after store sites, direction guards at every on-trace
        conditional branch, inlined calls and returns — and return the
        rendered source."""
        need = self._flag_liveness(self.insns)
        costs = self._costs
        k = 0
        for addr, insns, end, recorded in self.path:
            last = insns[-1]
            has_ender = last.info.opclass in _BLOCK_ENDERS
            body = insns[:-1] if has_ender else insns
            for insn in body:
                sites = self._store_sites
                self.gen_insn(insn, need[k])
                k += 1
                self._cyc += costs.base_cost(insn, False)
                if self._store_sites > sites:
                    self._emit_cw_exit(k, (insn.addr or 0) + (insn.size or 0))
            if has_ender:
                cls = last.info.opclass
                if cls is OpClass.JCC:
                    self._emit_guard(last, recorded, k + 1, end)
                elif cls is OpClass.JMP:
                    self._br += 1
                    self._tk += 1
                    self._cyc += costs.base_cost(last, False)
                elif cls is OpClass.CALL:
                    self._emit_call(last, k, recorded, end)
                elif cls is OpClass.RET:
                    self._emit_ret(last, k, recorded)
                else:  # pragma: no cover - formation rejects other enders
                    raise _Unsupported(f"trace ender {cls}")
                k += 1
        if not self._flags_dead_at_head() and self._defer is not None:
            self._materialize_locals()
        if not self.lines:
            self.emit("pass")  # a cycle of NOPs and jumps emits no code
        # Iteration-cap exit, after the for-loop: it runs exactly when
        # the trace has executed mx_ full iterations.
        self._exit("    ", (0,) * len(_EXIT_COUNTERS), self.head,
                   count_exit=False, itvar="mx_")
        return self.render()

    # -------------------------------------------------------------- render
    def render(self):
        """The trace function: preamble (state into locals, poisoned
        TLB slots), then the iteration loop with every recorded exit
        rendered against the final per-iteration totals."""
        regs = sorted(self._regs)
        lanes = sorted(self._lanes)
        writeback = "; ".join(
            [f"regs[{i}] = r{i}" for i in regs]
            + [f"xmm[{a}][{b}] = x{a}_{b}" for a, b in lanes])
        pre = [
            _TRACE_DEF,
            "    regs = cpu.regs",
            "    perf = cpu.perf",
            "    flags = cpu.flags",
        ]
        if lanes:
            pre.append("    xmm = cpu.xmm")
        if "mem" in self.needs:
            pre.append("    segfor = cpu.memory.segment_for")
            # Poisoned bounds: every site's first access misses and
            # fills its slot; the other slot locals are defined by the
            # refill before anything reads them.
            for j in self._load_slots + self._store_slots:
                pre.append(f"    sb{j}_ = 1; sm{j}_ = 0")
        if "cw" in self.needs:
            pre.append("    cw_ = False")
        if "call" in self.needs:
            pre.append("    hooks = cpu.call_hooks; hostfns = cpu.host_functions")
        pre += [f"    r{i} = regs[{i}]" for i in regs]
        pre += [f"    x{a}_{b} = xmm[{a}][{b}]" for a, b in lanes]
        pre.append("    zf_ = flags[ZF]; sf_ = flags[SF]; "
                   "cf_ = flags[CF]; of_ = flags[OF]")
        pre.append("    VC[0] += 1")
        pre.append(f"    mx_ = budget // {len(self.insns)}")
        pre.append("    for it_ in range(mx_):")
        body = []
        for line in self.lines:
            if type(line) is str:
                body.append(line)
            else:
                body.extend(self._exit_lines(writeback, *line))
        return "\n".join(pre + body) + "\n"


class TraceJIT(BlockJIT):
    """Tier-1 engine plus back-edge profiling, trace formation,
    multi-version installation, and trace-aware dispatch.

    Construction attaches to the cpu exactly like :class:`BlockJIT`
    (it *is* one); the overridden loop adds a hot-target counter on
    chained back-edges and dispatches installed traces with the
    remaining step budget.
    """

    def __init__(self, cpu: CPU, *,
                 hot_threshold: int = HOT_THRESHOLD,
                 min_edge: int = MIN_EDGE) -> None:
        super().__init__(cpu)
        self.hot_threshold = hot_threshold
        self.min_edge = min_edge
        #: Back-edge counts per target pc (the promotion profile).
        self._hot: dict[int, int] = {}
        #: Heads where formation failed structurally (an unbalanced
        #: return, a host-function callee, an indirect jump or other
        #: unsupported shape on the path): no point retrying until the
        #: code changes.  Cleared by every code write.
        self._no_trace: set[int] = set()
        #: Compiled versions: head -> {signature: TraceVersion}.
        self.versions: dict[int, dict[tuple, TraceVersion]] = {}
        #: Currently installed entries by head address.
        self._installed: dict[int, TraceEntry] = {}
        #: ``[entries, side_exits, iterations]`` of every version this
        #: JIT compiled, incremented by the generated code itself (bound
        #: as each version's ``VC`` global).
        self._vc = [0, 0, 0]
        self.trace_compiles = 0
        self.trace_installs = 0
        self.trace_deactivations = 0
        self.trace_aborts = 0
        self.trace_invalidations = 0

    # ----------------------------------------------------------- formation
    def _form_trace(self, head: int):
        """Walk the chain graph from ``head`` along hottest edges until
        the path closes on ``head`` with no call left open.  A call
        continues into its hottest observed callee, a return at the
        return address of the matching call on the path.  Returns
        ``((path, signature), None)`` or ``(None, reason)`` with reason
        ``"structural"`` (never retry until invalidation) or
        ``"transient"`` (profile not warm enough yet, or call hooks
        installed)."""
        cache = self.cache
        path, sig = [], []
        # Return addresses of the calls open on the path, innermost
        # last; ``seen`` keys blocks by them, so one helper called from
        # two sites is walked (and inlined) twice.
        rets = []
        seen = {(head, ())}
        addr = head
        n_insns = 0
        while True:
            blk = cache.get(addr)
            if blk is None:
                return None, "transient"
            if blk.is_trace or blk.source.startswith("#"):
                return None, "structural"
            # a cached block's bytes are unchanged (a write would have
            # dropped it), so its decoded instructions are current
            insns, end = blk.insns, blk.end
            last = insns[-1]
            cls = last.info.opclass
            if cls is OpClass.HLT or last.op is Op.JMPI:
                return None, "structural"
            if cls is OpClass.RET:
                if not rets:
                    return None, "structural"  # returns out of the head's frame
                succ = rets.pop()  # the matching call's return site
            elif blk.links:
                succ = max(blk.links, key=lambda pc: (blk.links[pc][1], -pc))
            else:
                return None, "transient"
            link = blk.links.get(succ)
            if link is None or link[1] < self.min_edge:
                return None, "transient"
            recorded = None
            if cls is OpClass.JCC:
                taken_pc = last.operands[0].value
                if succ == taken_pc:
                    recorded = True
                elif succ == end:
                    recorded = False
                else:
                    return None, "structural"
                sig.append(recorded)
            elif cls is OpClass.JMP:
                if succ != last.operands[0].value:
                    return None, "structural"
            elif cls is OpClass.CALL:
                if self.cpu.call_hooks:
                    return None, "transient"
                # a host call continues at the fall-through pc
                if (succ == end or succ in self.cpu.host_functions
                        or (last.op is Op.CALL
                            and succ != last.operands[0].value)):
                    return None, "structural"
                rets.append(end)
                recorded = succ
                sig.append(succ)
            elif cls is OpClass.RET:
                recorded = succ
            else:  # fall-through block (MAX_BLOCK_INSNS split)
                if succ != end:
                    return None, "structural"
            path.append((addr, insns, end, recorded))
            n_insns += len(insns)
            if (n_insns > MAX_TRACE_INSNS
                    or len(path) > MAX_TRACE_BLOCKS):
                return None, "structural"
            if succ == head and not rets:
                return (path, tuple(sig)), None
            key = (succ, tuple(rets))
            if key in seen:
                return None, "structural"  # inner cycle not through head
            seen.add(key)
            addr = succ

    def _compile_trace(self, head, path, sig):
        try:
            compiler = _TraceCompiler(path, self.cpu.costs)
            source = compiler.gen_trace()
        except _Unsupported:
            return None
        ns = dict(self._globals)
        ns["VC"] = self._vc
        exec(self._code(source, f"<trace:0x{head:x}>"), ns)
        spans = [(addr, end) for addr, _, end, _ in path]
        return TraceVersion(head, sig, ns["_trace"], len(compiler.insns),
                            len(path), spans, source)

    def _promote(self, head: int):
        """Form + compile + install a trace at ``head``; returns the
        installed :class:`TraceEntry` or None."""
        formed, why = self._form_trace(head)
        if formed is None:
            self.trace_aborts += 1
            if why == "structural":
                self._no_trace.add(head)
            return None
        path, sig = formed
        table = self.versions.setdefault(head, {})
        ver = table.get(sig)
        if ver is None:
            ver = self._compile_trace(head, path, sig)
            if ver is None:
                self.trace_aborts += 1
                self._no_trace.add(head)
                return None
            if len(table) >= MAX_VERSIONS:
                # evict the oldest version (tables keep insertion
                # order); none is installed while the head is promoting
                del table[next(iter(table))]
            table[sig] = ver
            self.trace_compiles += 1
        return self._install(ver)

    def _install(self, ver: TraceVersion) -> TraceEntry:
        head = ver.head
        entry = TraceEntry(ver, self.cache[head])
        self.cache[head] = entry
        self._installed[head] = entry
        # Sever every chain link into the head so no stale link can
        # bypass the trace (links are keyed by destination pc, so this
        # is one dict pop per cached block, not a full clear).
        for blk in self.cache.values():
            if blk is not entry and blk.links:
                blk.links.pop(head, None)
        self.trace_installs += 1
        return entry

    def _deactivate(self, entry: TraceEntry) -> None:
        """Uninstall a side-exit-heavy trace: the profile has shifted,
        so return the head to tier 1 and let re-profiling pick (or
        compile) the version matching the new signature.  The head's
        tier-1 block goes back into the cache untranslated, its links
        cleared: out of the cache, no invalidation could sever them."""
        head = entry.addr
        if self.cache.get(head) is entry:
            blk = entry.displaced
            blk.links.clear()
            self.cache[head] = blk
        self._installed.pop(head, None)
        entry.links.clear()
        for blk in self.cache.values():
            if blk.links:
                blk.links.pop(head, None)
        self._hot[head] = 0
        self.trace_deactivations += 1

    # -------------------------------------------------------- invalidation
    def invalidate_range(self, start: int, end: int) -> None:
        """Sever every trace whose compiled bytes overlap
        ``[start, end)``, then the tier-1 blocks."""
        # Stored versions are dropped precisely by compiled spans: a
        # write into a gap between a trace's blocks does not stale it.
        hit = 0
        for head in list(self.versions):
            table = self.versions[head]
            for sig in list(table):
                ver = table[sig]
                if any(s < end and e > start for s, e in ver.spans):
                    del table[sig]
                    hit += 1
            if not table:
                del self.versions[head]
        # Installed entries drop with the conservative [head, end)
        # overlap the base cache sweep uses (once a trace follows a call
        # into the rewrite segment that range spans two segments), and
        # with any span overlap: a callee below the head lies outside
        # that range, so such an entry leaves the cache here.
        for head in list(self._installed):
            entry = self._installed[head]
            if (head < end and entry.end > start
                    or any(s < end and e > start for s, e in entry.spans)):
                del self._installed[head]
                if self.cache.get(head) is entry:
                    del self.cache[head]
        self.trace_invalidations += hit
        self._hot.clear()
        self._no_trace.clear()
        super().invalidate_range(start, end)

    # --------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Tier-1 stats plus the cumulative ``trace_*`` counters and the
        point-in-time ``trace_versions`` (live compiled versions) and
        ``installed_traces``."""
        s = super().stats()
        entries, exits, iters = self._vc
        s.update({
            "trace_compiles": self.trace_compiles,
            "trace_installs": self.trace_installs,
            "trace_deactivations": self.trace_deactivations,
            "trace_aborts": self.trace_aborts,
            "trace_invalidations": self.trace_invalidations,
            "trace_entries": entries,
            "trace_side_exits": exits,
            "trace_iterations": iters,
            "trace_versions": sum(len(t) for t in self.versions.values()),
            "installed_traces": len(self._installed),
        })
        return s

    # ----------------------------------------------------------------- loop
    def loop(self, max_steps: int) -> int:
        """Tier-1 dispatch loop plus: back-edge profiling on chained
        transitions, promotion at the hot threshold, budgeted trace
        dispatch, and exit-rate-based deactivation."""
        cpu = self.cpu
        cache = self.cache
        halt = LAYOUT.halt_addr
        steps = 0
        hits = follows = 0
        hot = self._hot
        hot_at = self.hot_threshold
        try:
            gen = self.gen
            pc = cpu.pc
            while True:
                if pc == halt:
                    return steps
                if steps >= max_steps:
                    return cpu._interp_loop(max_steps, steps)
                blk = cache.get(pc)
                if blk is None:
                    blk = self._compile(pc)
                else:
                    hits += 1
                while True:
                    if steps + blk.n_insns > max_steps:
                        return cpu._interp_loop(max_steps, steps)
                    if blk.is_trace:
                        # budget >= n_insns (checked above), so the
                        # iteration cap is >= 1 and the trace can never
                        # overstep max_steps; _ran_partial is the exact
                        # executed instruction count.
                        pc = blk.run(cpu, max_steps - steps)
                        ran = cpu._ran_partial
                        steps += ran
                        cpu._ran_partial = None
                        if not ran:
                            # Zero progress: a call guard at the head
                            # failed before the first instruction, and
                            # re-entering would fail the same way
                            # forever.  Tier 1 runs the head instead.
                            self._deactivate(blk)
                        elif pc != blk.addr:
                            # Side exit.  A run of DEACT_MIN_EXITS
                            # consecutive entries each yielding fewer
                            # than DEACT_ITERS_PER_EXIT iterations means
                            # the profile has shifted: deactivate and
                            # let re-profiling pick the new version.
                            if ran < DEACT_ITERS_PER_EXIT * blk.n_insns:
                                blk.lowrun += 1
                                if blk.lowrun >= DEACT_MIN_EXITS:
                                    self._deactivate(blk)
                            else:
                                blk.lowrun = 0
                    else:
                        pc = blk.run(cpu)
                        ran = cpu._ran_partial
                        if ran is None:
                            steps += blk.n_insns
                        else:
                            steps += ran
                            cpu._ran_partial = None
                    if pc == halt:
                        return steps
                    if self.gen != gen:
                        gen = self.gen
                        break
                    ent = blk.links.get(pc)
                    if ent is None:
                        if steps >= max_steps:
                            return cpu._interp_loop(max_steps, steps)
                        nxt = cache.get(pc)
                        if nxt is None:
                            nxt = self._compile(pc)
                        else:
                            hits += 1
                        if pc in cache:  # an uncached step gets no link
                            blk.links[pc] = [nxt, 0]
                    else:
                        ent[1] += 1
                        follows += 1
                        nxt = ent[0]
                    if pc <= blk.addr and not nxt.is_trace:
                        n = hot.get(pc, 0) + 1
                        if n >= hot_at:
                            hot[pc] = 0
                            if pc not in self._no_trace:
                                t = self._promote(pc)
                                if t is not None:
                                    nxt = t
                        else:
                            hot[pc] = n
                    blk = nxt
        finally:
            self.hits += hits
            self.chain_follows += follows


def enable_tracejit(machine, **tuning) -> TraceJIT:
    """Attach a :class:`TraceJIT` to ``machine`` (idempotent).
    ``tuning`` forwards threshold overrides (``hot_threshold=4`` makes
    tests and torture sweeps promote aggressively)."""
    jit = machine.cpu.jit
    if jit is None:
        jit = TraceJIT(machine.cpu, **tuning)
    elif not isinstance(jit, TraceJIT):
        raise RuntimeError(
            "a tier-1 BlockJIT is already attached; enable the trace "
            "tier first (enable_jit(trace=True)) or use a fresh machine")
    return jit
