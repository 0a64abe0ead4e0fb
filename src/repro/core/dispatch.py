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
) -> int:
    """Emit ``if (argN == value) goto specialized else goto original``.

    ``param`` is 1-based and must be an integer parameter (the guard
    compares a GPR).  Returns the stub's address.
    """
    image = machine.image
    original = image.resolve(fn)
    if not 1 <= param <= len(INT_ARG_REGS):
        raise RewriteFailure("bad-guard", f"cannot guard parameter {param}")
    reg = INT_ARG_REGS[param - 1]
    b = Builder()
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
) -> GuardedSpecialization | None:
    """Profile-guided guarded specialization of one integer parameter.

    Returns ``None`` when the profile has no dominant value or the
    rewrite fails (callers keep using the original — graceful as ever).
    ``example_args`` supplies values for the *other* parameters during
    tracing; the guarded parameter's slot is overwritten with the hot
    value.

    ``supervisor`` (a :class:`~repro.core.resilience.RewriteSupervisor`)
    routes the rewrite through the degradation ladder and validation
    gate.
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
    stub = build_guard_stub(machine, original, param, hot, result.entry)
    return GuardedSpecialization(
        entry=stub, guard_param=param, guard_value=hot,
        specialized=result, original=original,
    )


def profile_arg_count(profile) -> int:
    """How many integer parameters the profile observed."""
    return max(profile.values.keys(), default=0)

