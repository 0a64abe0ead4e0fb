"""Guarded dispatch stubs (paper Sec. III.D).

"A specific variant can be generated which is called after a check for
the parameter actually being 42.  Otherwise, the original function
should be executed."

:func:`build_guard_stub` emits exactly that check-and-branch stub into
the rewrite segment; :func:`specialize_hot_param` is the end-to-end
profile-guided flow: take a :class:`~repro.profiling.value_profile.FunctionProfile`,
pick the dominant value, rewrite the function with that parameter known,
and return a guarded drop-in pointer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RewriteFailure
from repro.abi.callconv import INT_ARG_REGS
from repro.asm.builder import Builder
from repro.core.api import brew_init_conf, brew_rewrite, brew_setpar
from repro.core.config import BREW_KNOWN, RewriteConfig
from repro.core.rewriter import RewriteResult
from repro.isa.operands import Mem


@dataclass
class GuardedSpecialization:
    """A guard stub plus the specialization behind it."""

    entry: int            # the drop-in pointer (the stub)
    guard_param: int      # 1-based integer parameter index
    guard_value: int
    specialized: RewriteResult
    original: int


def build_guard_stub(
    machine,
    fn: int | str,
    param: int,
    value: int,
    specialized_entry: int,
    *,
    epoch_cell: int | None = None,
    epoch: int | None = None,
) -> int:
    """Emit ``if (argN == value) goto specialized else goto original``.

    ``param`` is 1-based and must be an integer parameter (the guard
    compares a GPR).  Returns the stub's address.

    With ``epoch_cell``/``epoch`` (from a
    :class:`~repro.core.manager.SpecializationManager`), the stub first
    checks the known-memory epoch: ``if ([epoch_cell] != epoch) goto
    original``.  Invalidation bumps the cell, so a stub guarding a
    variant whose known data has since mutated falls back to the
    original in one compare instead of dispatching to stale code.
    """
    image = machine.image
    original = image.resolve(fn)
    if not 1 <= param <= len(INT_ARG_REGS):
        raise RewriteFailure("bad-guard", f"cannot guard parameter {param}")
    if (epoch_cell is None) != (epoch is None):
        raise RewriteFailure("bad-guard", "epoch_cell and epoch go together")
    reg = INT_ARG_REGS[param - 1]
    b = Builder()
    if epoch_cell is not None:
        b.cmp(Mem(disp=epoch_cell), epoch)
        b.jne("original")
    b.cmp(reg, value)
    b.jne("original")
    b.jmp("specialized")
    b.label("original")
    b.jmp("orig_target")
    code, _ = b.assemble(0, extra_labels={"specialized": 0, "orig_target": 0})
    addr = image.alloc_rewrite(len(code))
    code, _ = b.assemble(
        addr, extra_labels={"specialized": specialized_entry, "orig_target": original}
    )
    image.poke(addr, code)
    base_name = image.symbol_names.get(original, f"fn_{original:x}")
    image.function_sizes[addr] = len(code)
    image.define_symbol(f"{base_name}__guard_{param}_{value & 0xFFFF:x}_{addr:x}", addr)
    return addr


def specialize_hot_param(
    machine,
    fn: int | str,
    profile,
    param: int,
    min_share: float = 0.8,
    conf: RewriteConfig | None = None,
    example_args: tuple = (),
    supervisor=None,
    manager=None,
) -> GuardedSpecialization | None:
    """Profile-guided guarded specialization of one integer parameter.

    Returns ``None`` when the profile has no dominant value or the
    rewrite fails (callers keep using the original — graceful as ever).
    ``example_args`` supplies values for the *other* parameters during
    tracing; the guarded parameter's slot is overwritten with the hot
    value.

    ``supervisor`` (a :class:`~repro.core.resilience.RewriteSupervisor`)
    routes the rewrite through the degradation ladder and validation
    gate; ``manager`` (a :class:`~repro.core.manager.SpecializationManager`)
    adds its known-memory epoch check to the emitted guard stub.
    """
    hot = profile.hot_value(param, min_share)
    if hot is None:
        return None
    image = machine.image
    original = image.resolve(fn)
    conf = conf or brew_init_conf()
    brew_setpar(conf, param, BREW_KNOWN)
    args = list(example_args) if example_args else []
    # pad with zeros up to the guarded slot AND every profiled parameter,
    # whichever is further out — short example_args used to skip the
    # profile width entirely, starving later profiled params of a value
    while len(args) < max(param, profile_arg_count(profile)):
        args.append(0)
    args[param - 1] = hot
    if supervisor is not None:
        result = supervisor.rewrite(conf, original, *args)
    else:
        result = brew_rewrite(machine, conf, original, *args)
    if not result.ok:
        return None
    epoch_kwargs = {}
    if manager is not None:
        epoch_kwargs = {"epoch_cell": manager.epoch_cell, "epoch": manager.epoch}
    stub = build_guard_stub(
        machine, original, param, hot, result.entry, **epoch_kwargs
    )
    return GuardedSpecialization(
        entry=stub, guard_param=param, guard_value=hot,
        specialized=result, original=original,
    )


def profile_arg_count(profile) -> int:
    """How many integer parameters the profile observed."""
    return max(profile.values.keys(), default=0)


class DispatchTable:
    """Published specializations: ``key -> entry`` with atomic updates.

    The rewrite service's callers look up a key (the manager cache key)
    and jump to whatever entry is published — the original function
    until a background rewrite lands, the specialized body afterwards.
    Publication is a single dict assignment, which is atomic under the
    interpreter lock, so a concurrent reader sees either the old entry
    or the new one, never a torn state; the same holds for withdrawal.

    An entry may additionally be **on probation** — published but not
    yet trusted.  Snapshot-restored variants start this way: the shadow
    sampler validates the first live call against the original, and
    only a matching call clears the flag (continuous assurance; see
    :mod:`repro.core.shadowexec`).  Probation is metadata; ``lookup``
    ignores it, the service's dispatch path consults it.
    """

    def __init__(self) -> None:
        self._table: dict = {}
        self._probation: set = set()

    def lookup(self, key, default: int | None = None) -> int | None:
        return self._table.get(key, default)

    def publish(self, key, entry: int, *, probation: bool = False) -> None:
        self._table[key] = entry
        if probation:
            self._probation.add(key)
        else:
            self._probation.discard(key)

    def withdraw(self, keys) -> int:
        """Remove published entries; returns how many were present."""
        dropped = 0
        for key in keys:
            self._probation.discard(key)
            if self._table.pop(key, None) is not None:
                dropped += 1
        return dropped

    def on_probation(self, key) -> bool:
        """Whether ``key`` is published but awaiting its first
        shadow-validated call."""
        return key in self._probation

    def clear_probation(self, key) -> bool:
        """Mark ``key`` trusted (its shadow call matched); returns
        whether it had been on probation."""
        if key in self._probation:
            self._probation.discard(key)
            return True
        return False

    def entries(self) -> set:
        """The set of currently published entry addresses."""
        return set(self._table.values())

    def __contains__(self, key) -> bool:
        return key in self._table

    def __len__(self) -> int:
        return len(self._table)
