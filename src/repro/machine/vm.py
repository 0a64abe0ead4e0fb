"""The ``Machine`` facade: image + CPU + cost model in one object.

Most user code starts here::

    from repro import Machine
    m = Machine()
    m.load(minic_source)           # compile + link into the image
    result = m.call("main")        # run
    print(result.int_return, result.cycles)

``load`` lives on the facade (not in :mod:`repro.cc`) purely for
ergonomics; it delegates to :func:`repro.cc.frontend.compile_into`.
"""

from __future__ import annotations

from repro.isa.costs import CostModel
from repro.machine.cpu import CPU, RunResult
from repro.machine.image import Image
from repro.machine.memory import Memory


class Machine:
    """A complete simulated host: memory image and one CPU."""

    def __init__(self, costs: CostModel | None = None) -> None:
        self.image = Image(Memory())
        self.cpu = CPU(self.image, costs)

    @property
    def memory(self) -> Memory:
        return self.image.memory

    @property
    def jit(self):
        """The attached execution engine (tier-1 block JIT, or the
        tier-2 trace JIT, which is one), or ``None``."""
        return self.cpu.jit

    def enable_jit(self, trace: bool = False, **tuning):
        """Attach the tier-1 block-compiling engine and return it; the
        one way to attach an engine.  With ``trace=True`` attach the
        tier-2 trace JIT instead — a
        :class:`~repro.machine.tracejit.TraceJIT`, which contains tier 1
        and adds hot-cycle superblock traces; ``tuning`` forwards its
        threshold overrides (``hot_threshold=4, min_edge=1`` makes tests
        and torture sweeps promote aggressively); tier 1 has no
        thresholds, so ``tuning`` without ``trace=True`` raises
        ``TypeError``.  Idempotent: an attached engine is returned as it
        is, except that asking for the trace tier on a machine running
        tier 1, or for thresholds the attached trace JIT does not run
        with, raises ``RuntimeError``.
        See :mod:`repro.machine.blockjit` and
        :mod:`repro.machine.tracejit` for the invalidation contract."""
        from repro.machine.blockjit import BlockJIT
        from repro.machine.tracejit import TraceJIT

        if tuning and not trace:
            raise TypeError(
                f"enable_jit() got trace tuning {sorted(tuning)} without "
                "trace=True; the tier-1 engine has no thresholds")
        jit = self.cpu.jit
        if jit is None:
            return (TraceJIT(self.cpu, **tuning) if trace
                    else BlockJIT(self.cpu))
        if trace and not isinstance(jit, TraceJIT):
            raise RuntimeError(
                "a tier-1 BlockJIT is already attached; enable the trace "
                "tier first (enable_jit(trace=True)) or use a fresh machine")
        held = {k: getattr(jit, k) for k, v in tuning.items()
                if getattr(jit, k) != v}
        if held:
            raise RuntimeError(
                f"the attached trace JIT runs with {held}; its thresholds "
                "are set when it is attached (use a fresh machine)")
        return jit

    def load(self, source: str, opt: int = 2, unit: str = "<unit>"):
        """Compile minic ``source`` at optimization level ``opt`` and link
        it into this machine's image.  Returns the compiled unit record
        (symbols, per-function listings)."""
        from repro.cc.frontend import compile_into

        return compile_into(self.image, source, opt=opt, unit=unit)

    def call(self, entry: int | str, *args, max_steps: int = 200_000_000) -> RunResult:
        """Call a loaded function by name or address."""
        return self.cpu.run(entry, *args, max_steps=max_steps)

    def register_host_function(self, name: str, fn) -> int:
        """Expose a Python callable at a fake code address; minic code can
        ``extern`` and call it.  ``fn`` receives the CPU and must follow
        the ABI (read arg registers, write return registers)."""
        addr = self.image.alloc_host_slot(name)
        self.cpu.host_functions[addr] = fn
        return addr

    def symbol(self, name: str) -> int:
        return self.image.symbol(name)

    def explain_rewrite(self, result) -> str:
        """Debug listing of a rewrite: each instruction annotated with
        its original provenance (paper Sec. VIII's debugging outlook)."""
        from repro.core.debuginfo import format_debug_listing

        if not result.ok or result.debug is None:
            raise ValueError("no debug information on a failed rewrite")
        code = self.image.peek(result.entry, result.code_size)
        return format_debug_listing(
            code, result.entry, result.debug, symbols=self.image.symbol_names
        )

    def disassemble_function(self, name_or_addr: int | str) -> str:
        """Figure-6-style listing of a loaded or rewritten function."""
        from repro.asm.disassembler import disassemble

        addr = self.image.resolve(name_or_addr)
        size = self.image.function_sizes.get(addr)
        if size is None:
            raise KeyError(f"unknown function extent for 0x{addr:x}")
        return disassemble(
            self.image.peek(addr, size), addr, symbols=self.image.symbol_names
        )
