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

    def __init__(self, costs: CostModel | None = None, jit: bool = False) -> None:
        self.image = Image(Memory())
        self.cpu = CPU(self.image, costs)
        if jit:
            self.enable_jit()

    @property
    def memory(self) -> Memory:
        return self.image.memory

    @property
    def jit(self):
        """The attached execution engine (tier-1 block JIT, or the
        tier-2 trace JIT, which is one), or ``None``."""
        return self.cpu.jit

    def enable_jit(self, trace: bool = False, **tuning):
        """Attach the tier-1 block-compiling engine (idempotent).  With
        ``trace=True`` attach the tier-2 trace JIT instead — a
        :class:`~repro.machine.tracejit.TraceJIT`, which contains tier 1
        and adds hot-cycle superblock traces; ``tuning`` forwards its
        threshold overrides.  See :mod:`repro.machine.blockjit` and
        :mod:`repro.machine.tracejit` for the invalidation contract."""
        if trace:
            from repro.machine.tracejit import enable_tracejit

            return enable_tracejit(self, **tuning)
        from repro.machine.blockjit import enable_blockjit

        return enable_blockjit(self)

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
