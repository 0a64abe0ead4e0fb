"""Debug-information tests (paper Sec. VIII: debugging rewritten code)."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.core import brew_init_conf, brew_rewrite, brew_setpar, BREW_KNOWN
from repro.core import rewriter
from repro.isa.instruction import Instruction, ins
from repro.isa.opcodes import Op
from repro.isa.operands import Imm, Reg
from repro.isa.registers import GPR
from repro.machine.vm import Machine
from repro.models.stencil import StencilLab

SOURCE = """
noinline long helper(long x) { return x * 3; }
noinline long f(long a, long b) {
    long t = helper(a) + b;
    return t - 1;
}
"""


@pytest.fixture()
def machine() -> Machine:
    m = Machine()
    m.load(SOURCE)
    return m


def test_every_emitted_instruction_has_a_map_entry(machine):
    result = brew_rewrite(machine, brew_init_conf(), "f", 0, 0)
    assert result.ok and result.debug is not None
    from repro.isa.encoding import iter_decode

    code = machine.image.peek(result.entry, result.code_size)
    for insn in iter_decode(code, result.entry):
        assert insn.addr in result.debug.entries


def test_traced_instructions_point_into_original_functions(machine):
    result = brew_rewrite(machine, brew_init_conf(), "f", 0, 0)
    assert result.ok
    f_addr = machine.symbol("f")
    f_size = machine.image.function_sizes[f_addr]
    h_addr = machine.symbol("helper")
    h_size = machine.image.function_sizes[h_addr]
    origins = [o for o, _ in result.debug.entries.values() if o is not None]
    assert origins, "no traced provenance at all"
    for origin in origins:
        assert (f_addr <= origin < f_addr + f_size) or (
            h_addr <= origin < h_addr + h_size
        ), hex(origin)
    # the inlined helper contributes provenance of its own
    assert any(h_addr <= o < h_addr + h_size for o in origins)


def test_synthetic_code_is_labelled(machine):
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    result = brew_rewrite(machine, conf, "f", 5, 0)
    assert result.ok
    roles = {result.debug.role_of(addr) for addr in result.debug.entries}
    assert "traced" in roles
    # materializations of known values are marked, not blamed on source
    synth = [a for a in result.debug.entries
             if result.debug.entries[a][0] is None]
    for addr in synth:
        assert result.debug.role_of(addr) != "traced"


def test_explain_rewrite_listing(machine):
    result = brew_rewrite(machine, brew_init_conf(), "f", 0, 0)
    listing = machine.explain_rewrite(result)
    assert "; <- f" in listing or "; <- f+0x" in listing
    assert "helper" in listing  # inlined code attributed to its source


def test_explain_rewrite_rejects_failures(machine):
    conf = brew_init_conf()
    conf.max_output_instructions = 1
    result = brew_rewrite(machine, conf, "f", 0, 0)
    assert not result.ok
    with pytest.raises(ValueError):
        machine.explain_rewrite(result)


FABRIC_SOURCE = """
noinline long poly(long x, long k) { return x * k + k; }
noinline long mix(long x, long k) { return x * x + k; }
"""


def _listing(machine, result) -> tuple[bytes, str]:
    assert result.ok, result.message
    return (machine.image.peek(result.entry, result.code_size),
            machine.explain_rewrite(result))


def _stamped_rewrites() -> list[tuple[bytes, str]]:
    """Emitted bytes and ``explain_rewrite`` listings of ``poly``/``mix``
    (k known) and the stencil ``apply``, on fresh machines; checks that
    no instruction of either machine's decode cache got an origin."""
    m = Machine()
    m.load(FABRIC_SOURCE)
    out = []
    for fn in ("poly", "mix"):
        for k in (3, 1000):
            conf = brew_init_conf()
            brew_setpar(conf, 2, BREW_KNOWN)
            out.append(_listing(m, brew_rewrite(m, conf, fn, 5, k)))
    lab = StencilLab(16, 16)
    for spills in (True, False):
        out.append(_listing(lab.machine,
                            lab.rewrite_apply(deferred_spills=spills)))
    for machine in (m, lab.machine):
        assert machine.image.decoded
        assert all(i.origin is None for i in machine.image.decoded.values())
    return out


def test_origin_stamp_copies_without_touching_the_decode_cache(monkeypatch):
    """``Tracer.emit`` stamps ``origin`` on a copy that shares ``info``
    and ``kinds`` (``Instruction.with_origin``).  The instructions it
    copies are often the image's cached decodes, which keep no origin,
    and the code and debug listings equal those of a full
    ``dataclasses.replace`` copy."""
    monkeypatch.setattr(rewriter, "_name_counter", itertools.count(1))
    stamped = _stamped_rewrites()
    monkeypatch.setattr(rewriter, "_name_counter", itertools.count(1))
    monkeypatch.setattr(
        Instruction, "with_origin",
        lambda self, origin: dataclasses.replace(self, origin=origin))
    assert _stamped_rewrites() == stamped


def test_with_origin_copies_and_shares_derived_fields():
    insn = ins(Op.ADD, Reg(GPR.RAX), Imm(1), note="x")
    stamped = insn.with_origin(0x40)
    assert (stamped.origin, insn.origin) == (0x40, None)
    assert stamped == insn and stamped.note == "x"
    assert stamped.info is insn.info and stamped.kinds == insn.kinds == "ri"
