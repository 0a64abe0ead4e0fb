"""Host-time span recorder for the benchmark's traced run.

Layers are the program's own modules, measured from outside: while a
:class:`SpanRecorder` is installed, each public function in
:data:`LAYER_SPANS` is replaced by a wrapper that records one span per
call (name, start, end, parent span, op id).  A method is patched on its
class; a module function is patched under every name, in every loaded
``repro`` module, that refers to it, so callers that imported it by name
see the wrapper too.  Leaving the ``with`` block restores every original,
including names bound to a wrapper by a ``repro`` module first imported
while the recorder was installed.

Spans stay in memory, in flat arrays, until :meth:`SpanRecorder.write_jsonl`.
A span's self time is its duration minus the durations of its direct
children; within one thread children never overlap, so the self times of
an op span and all its descendants add up to the op span's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

#: ``(span name, module, function or Class.method)`` for every layer
#: boundary the traced run times.  ``cc.load`` is compilation, which
#: only set-up does.
LAYER_SPANS = (
    ("service.fabric.request", "repro.service.fabric", "RewriteFabric.request"),
    ("service.fabric.route_digest", "repro.service.fabric", "RewriteFabric.route_digest"),
    ("service.fabric.pump", "repro.service.fabric", "RewriteFabric.pump"),
    ("machine.link.transfer", "repro.machine.link", "TransferManager.transfer"),
    ("service.rewrite_service.request", "repro.service.rewrite_service", "RewriteService.request"),
    ("service.rewrite_service.call", "repro.service.rewrite_service", "RewriteService.call"),
    ("service.rewrite_service.drain", "repro.service.rewrite_service", "RewriteService.drain"),
    ("core.manager.key_for", "repro.core.manager", "SpecializationManager.key_for"),
    ("core.manager.get", "repro.core.manager", "SpecializationManager.get"),
    ("core.manager.invalidate_memory", "repro.core.manager", "SpecializationManager.invalidate_memory"),
    ("core.resilience.rewrite", "repro.core.resilience", "RewriteSupervisor.rewrite"),
    ("core.resilience.validate_variant", "repro.core.resilience", "validate_variant"),
    ("core.rewriter.rewrite", "repro.core.rewriter", "rewrite"),
    ("core.tracer.run", "repro.core.tracer", "Tracer.run"),
    ("core.passes.run_passes", "repro.core.passes.pipeline", "run_passes"),
    ("core.emit.emit_into_image", "repro.core.emit", "emit_into_image"),
    ("core.shadowexec.run_shadowed", "repro.core.shadowexec", "ShadowSampler.run_shadowed"),
    ("machine.cpu.run", "repro.machine.cpu", "CPU.run"),
    ("cc.load", "repro.machine.vm", "Machine.load"),
)

#: The span the runner opens around each op; its self time is the part
#: of the op no layer span covers.
OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"


class SpanRecorder:
    """Records nested host-time spans; install with ``with``.

    ``keep_returns`` maps a span name to a function of its return value;
    the results are kept, as ``(op id, projection)`` pairs in
    :attr:`returns`, for counters that only a return value carries.
    ``clock`` is injectable so tests can script times.
    """

    def __init__(self, targets=LAYER_SPANS, *, keep_returns=None,
                 clock=time.perf_counter_ns) -> None:
        self.targets = tuple(targets)
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.current_op = -1
        self._stack: list[int] = []
        self.keep_returns = dict(keep_returns or {})
        self.returns: dict[str, list] = {name: [] for name in self.keep_returns}
        #: ``(holder, attribute, original)`` for every installed wrapper.
        self._patches: list[tuple[object, str, object]] = []
        #: ``id(wrapper) -> (wrapper, original)`` of every module function.
        self._wrapped: dict[int, tuple[object, object]] = {}

    def __len__(self) -> int:
        return len(self.start)

    # ---------------------------------------------------------- recording
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.current_op = op_id
        return self.open(OP_SPAN)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.current_op = -1

    def _wrap(self, name: str, fn):
        project = self.keep_returns.get(name)
        keep = self.returns[name].append if project is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if keep is not None:
                keep((self.current_op, project(result)))
            return result

        return wrapper

    # ------------------------------------------------------- installation
    def _patch(self, holder, attr: str, original, wrapper) -> None:
        self._patches.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    @staticmethod
    def _program_modules() -> list:
        return [mod for name, mod in list(sys.modules.items())
                if name == "repro" or name.startswith("repro.")]

    def install(self) -> None:
        # import every target first, so no target's import binds a wrapper
        mods = [importlib.import_module(module) for _, module, _ in self.targets]
        for (name, _, qualname), mod in zip(self.targets, mods):
            owner, _, attr = qualname.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                original = vars(cls)[attr]
                self._patch(cls, attr, original, self._wrap(name, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            self._wrapped[id(wrapper)] = (wrapper, original)
            for holder in self._program_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)
        # a module imported while installed may have bound a wrapper by name
        for holder in self._program_modules():
            for key, value in list(vars(holder).items()):
                entry = self._wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(holder, key, entry[1])
        self._wrapped.clear()

    def __enter__(self) -> "SpanRecorder":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------ analysis
    def self_times(self) -> list[int]:
        """Each span's duration minus its direct children's durations."""
        start, end, parent = self.start, self.end, self.parent
        own = [end[i] - start[i] for i in range(len(start))]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def ledger(self) -> dict[str, dict[str, int]]:
        """Per span name, over spans inside ops (op id >= 0): calls,
        summed self ns and summed duration ns.  Spans outside ops
        (set-up) are filed under their name with the ``setup:`` prefix."""
        out: dict[str, dict[str, int]] = {}
        own = self.self_times()
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            if self.op[i] < 0:
                name = "setup:" + name
            row = out.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
            row["calls"] += 1
            row["self_ns"] += own[i]
            row["total_ns"] += self.end[i] - self.start[i]
        return out

    def format_ledger(self, n_ops: int) -> str:
        """The per-layer table: calls and self time per op for every span
        name seen inside ops, largest self time first, with its share of
        the op; the ``bench.op`` row is the unattributed remainder."""
        rows = {k: v for k, v in self.ledger().items() if not k.startswith("setup:")}
        op_ns = rows.get(OP_SPAN, {}).get("total_ns", 0) or 1
        lines = [f"{'span':40} {'calls/op':>10} {'self us/op':>12} {'share':>7}"]
        for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_ns"]):
            lines.append(
                f"{name:40} {row['calls'] / n_ops:10.3f} "
                f"{row['self_ns'] / 1e3 / n_ops:12.2f} "
                f"{100 * row['self_ns'] / op_ns:6.1f}%"
            )
        return "\n".join(lines)

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in start order; times are ns from
        the first span's start."""
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w") as f:
            for i in range(len(self.start)):
                f.write(json.dumps({
                    "id": i, "name": self.names[self.name_id[i]],
                    "start_ns": self.start[i] - t0, "end_ns": self.end[i] - t0,
                    "parent": self.parent[i], "op": self.op[i],
                }, separators=(",", ":")) + "\n")
