"""Crash-forensics bundles: capture, persist, reload (RESILIENCE Layer 5).

When a tagged failure fires — a terminal supervisor fallback, a shadow
divergence, a torture miscompile/escape, a fabric shard death — the
runtime used to keep a reason string and a counter.  This module
captures the *evidence*: a versioned ``REPRO-BUNDLE`` holding everything
a deterministic replay needs:

* the **journal tail** from the :class:`~repro.obs.flightrec.FlightRecorder`
  (the cross-layer timeline leading up to the failure);
* the **guest image** — every mapped segment's bytes (trailing zeros
  stripped), symbols, function sizes and allocator cursors, enough to
  rebuild a bit-identical :class:`~repro.machine.vm.Machine` (the layout
  is fixed, so a fresh machine maps the same segments at the same
  addresses);
* the full **rewrite configuration** (JSON document) plus its
  fingerprint, the **request sequence**, the relevant **seeds**, a
  **metrics snapshot**, and the tagged **failure reason**;
* a kind-specific **evidence** record whose canonical-JSON SHA-256 is
  the bundle's ``fingerprint``.  Replay (:mod:`repro.testing.replay`)
  recomputes the evidence from scratch and must reproduce the digest
  bit-for-bit.

The on-disk format reuses :mod:`repro.core.persist` conventions: a
magic+version first line, one ``<crc32hex> <canonical json>`` record per
line (written and read through the same ``_encode_record`` and
``_decode_record`` helpers), atomic temp-file + rename.  A record that
fails its CRC or schema check is rejected with a ``bundle-corrupt``
:class:`~repro.errors.RewriteFailure` — per record where containment is
possible, whole-bundle when the damaged record is structural (meta,
conf, image).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import RewriteFailure
from repro.core.config import FunctionConfig, Knownness, RewriteConfig
from repro.core.manager import conf_fingerprint
# imported by value on purpose: the `snapshot` fault injector patches
# persist's module attribute, and snapshot bit-rot must not leak into
# bundle writes (the `bundle` injector patches *this* module instead)
from repro.core.persist import _decode_record, _encode_record
from repro.obs import FlightRecorder, Metrics

#: First line of every bundle; the trailing integer is the schema
#: version.  Readers reject the whole file on mismatch — record layouts
#: are never reinterpreted across versions (same rule as ``REPRO-SNAP``).
BUNDLE_MAGIC = "REPRO-BUNDLE 1"

#: The bundle kinds the forensics hub captures (and replay dispatches on).
BUNDLE_KINDS = (
    "rewrite-failure", "shadow-divergence", "torture", "fabric-shard-death",
)


def _jsonable(value):
    """Recursively coerce tuples to lists (canonical JSON has no tuples)."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def bundle_fingerprint(kind: str, reason: str, evidence: dict) -> str:
    """The bundle's bit-for-bit replay fingerprint: SHA-256 over the
    canonical JSON of the kind, the taxonomy reason and the evidence
    record.  Replay recomputes the evidence organically and must land on
    the same digest."""
    blob = json.dumps(
        {"kind": kind, "reason": reason, "evidence": _jsonable(evidence)},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


# ================================================== configuration documents
def conf_to_doc(conf: RewriteConfig) -> dict:
    """A self-contained JSON document for a :class:`RewriteConfig`.

    ``functions`` becomes a key/options pair list (JSON object keys must
    be strings, and function keys are ints or the ``__entry__``
    sentinel); sets become sorted lists; the entry/memory hook callbacks
    are host-side state and persist as their addresses only.
    ``deadline_seconds`` is recorded but replay ignores it — a
    wall-clock budget is the one knob that cannot replay
    deterministically."""
    return {
        "functions": [
            [key, {
                "params": sorted(
                    [position, knownness.value]
                    for position, knownness in cfg.params.items()
                ),
                "inline": cfg.inline,
                "force_unknown_results": cfg.force_unknown_results,
                "conditionals_unknown": cfg.conditionals_unknown,
            }]
            for key, cfg in sorted(
                conf.functions.items(), key=lambda kv: str(kv[0])
            )
        ],
        "known_memory": [list(r) for r in conf.known_memory],
        "variant_threshold": conf.variant_threshold,
        "max_trace_steps": conf.max_trace_steps,
        "max_output_instructions": conf.max_output_instructions,
        "deadline_seconds": conf.deadline_seconds,
        "inline_default": conf.inline_default,
        "dynamic_markers": sorted(conf.dynamic_markers),
        "dynamic_cells": sorted(conf.dynamic_cells),
        "passes": list(conf.passes),
        "deferred_spills": conf.deferred_spills,
        "entry_hook": conf.entry_hook,
        "memory_hook": conf.memory_hook,
    }


def conf_from_doc(doc: dict) -> RewriteConfig:
    """Rebuild a :class:`RewriteConfig` from :func:`conf_to_doc` output."""
    try:
        conf = RewriteConfig(
            functions={
                (key if isinstance(key, str) else int(key)): FunctionConfig(
                    params={
                        int(position): Knownness(value)
                        for position, value in options["params"]
                    },
                    inline=bool(options["inline"]),
                    force_unknown_results=bool(options["force_unknown_results"]),
                    conditionals_unknown=bool(options["conditionals_unknown"]),
                )
                for key, options in doc["functions"]
            },
            known_memory=[tuple(r) for r in doc["known_memory"]],
            variant_threshold=int(doc["variant_threshold"]),
            max_trace_steps=int(doc["max_trace_steps"]),
            max_output_instructions=int(doc["max_output_instructions"]),
            deadline_seconds=None,  # wall clock never replays (see conf_to_doc)
            inline_default=bool(doc["inline_default"]),
            dynamic_markers=set(doc["dynamic_markers"]),
            dynamic_cells=set(doc["dynamic_cells"]),
            passes=tuple(doc["passes"]),
            deferred_spills=bool(doc["deferred_spills"]),
            entry_hook=doc["entry_hook"],
            memory_hook=doc["memory_hook"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RewriteFailure("bundle-corrupt", f"conf document mismatch: {exc}")
    return conf


# ====================================================== machine capture
def capture_machine(machine) -> dict:
    """Everything needed to rebuild a bit-identical machine: segment
    bytes (trailing zeros stripped — the heap alone is 24 MB of mostly
    zeros), symbols, function sizes and allocator cursors.  The memory
    layout is fixed (:class:`repro.machine.image._Layout`), so a fresh
    machine maps the same segments at the same bases and restore is a
    by-name byte copy."""
    image = machine.image
    return {
        "segments": [
            {
                "name": seg.name,
                "base": seg.base,
                "size": seg.size,
                "data": bytes(seg.data).rstrip(b"\0").hex(),
            }
            for seg in image.memory.segments
        ],
        "symbols": dict(sorted(image.symbols.items())),
        "function_sizes": {
            str(addr): size
            for addr, size in sorted(image.function_sizes.items())
        },
        "allocators": {
            "code": image._code_next,
            "rodata": image._rodata_next,
            "data": image._data_next,
            "heap": image._heap_next,
            "rewrite": image._rewrite_next,
        },
    }


def restore_machine(doc: dict):
    """Rebuild a machine from :func:`capture_machine` output.

    Only the six standard segments restore (simulated remote-node
    segments and host-Python callables are process state a bundle cannot
    carry; workloads that need them are outside the replay surface —
    a segment recorded under an unknown name is skipped, not an error)."""
    from repro.machine.vm import Machine

    machine = Machine()
    image = machine.image
    # a new Machine has nothing decoded or compiled: raw writes need no notify
    by_name = {seg.name: seg for seg in image.memory.segments}
    try:
        for rec in doc["segments"]:
            seg = by_name.get(rec["name"])
            if seg is None:
                continue
            data = bytes.fromhex(rec["data"])
            if rec["base"] != seg.base or len(data) > seg.size:
                raise RewriteFailure(
                    "bundle-corrupt",
                    f"segment {rec['name']!r} does not fit the fixed layout",
                )
            seg.data[: len(data)] = data
        for name, addr in doc["symbols"].items():
            if name not in image.symbols:
                image.define_symbol(name, int(addr))
        image.function_sizes.update(
            {int(addr): int(size) for addr, size in doc["function_sizes"].items()}
        )
        alloc = doc["allocators"]
        image._code_next = int(alloc["code"])
        image._rodata_next = int(alloc["rodata"])
        image._data_next = int(alloc["data"])
        image._heap_next = int(alloc["heap"])
        image._rewrite_next = int(alloc["rewrite"])
    except (KeyError, TypeError, ValueError) as exc:
        raise RewriteFailure("bundle-corrupt", f"image document mismatch: {exc}")
    return machine


# ========================================================== the bundle
@dataclass
class CrashBundle:
    """One captured failure, self-contained (see the module docstring).

    ``evidence`` is the kind-specific record the ``fingerprint`` digests;
    ``settings`` carries replay knobs (supervisor budgets, watchdog
    thresholds); ``requests`` is the recorded request sequence (the last
    entry is the failing one); ``spec`` is the torture image spec for
    ``torture`` bundles (images rebuild from the spec, not from bytes).
    ``metrics`` and ``journal`` are diagnostic context — deliberately
    outside the fingerprint, which must be recomputable from a cold
    replay."""

    kind: str
    reason: str
    message: str = ""
    evidence: dict = field(default_factory=dict)
    fingerprint: str = ""
    conf: dict | None = None
    conf_fp: str = ""
    requests: list = field(default_factory=list)
    machine: dict | None = None
    spec: dict | None = None
    seeds: dict = field(default_factory=dict)
    settings: dict = field(default_factory=dict)
    journal: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    version: int = 1

    def seal(self) -> "CrashBundle":
        """Compute and store the replay fingerprint; returns ``self``."""
        self.fingerprint = bundle_fingerprint(self.kind, self.reason, self.evidence)
        return self


def save_bundle(bundle: CrashBundle, path: str | Path) -> Path:
    """Write ``bundle`` to ``path`` atomically (temp + rename), one
    CRC-checked canonical-JSON record per line."""
    lines = [BUNDLE_MAGIC]
    lines.append(_encode_record({
        "kind": "meta",
        "version": bundle.version,
        "bundle_kind": bundle.kind,
        "reason": bundle.reason,
        "message": bundle.message,
        "fingerprint": bundle.fingerprint,
        "conf_fp": bundle.conf_fp,
        "seeds": _jsonable(bundle.seeds),
        "settings": _jsonable(bundle.settings),
        "evidence": _jsonable(bundle.evidence),
        "spec": _jsonable(bundle.spec),
    }))
    if bundle.conf is not None:
        lines.append(_encode_record({"kind": "conf", "doc": _jsonable(bundle.conf)}))
    for request in bundle.requests:
        lines.append(_encode_record({"kind": "request", **_jsonable(request)}))
    if bundle.machine is not None:
        image_doc = dict(bundle.machine)
        for seg in image_doc.pop("segments"):
            lines.append(_encode_record({"kind": "segment", **seg}))
        lines.append(_encode_record({"kind": "image", **_jsonable(image_doc)}))
    for row in bundle.journal:
        lines.append(_encode_record({"kind": "journal", **_jsonable(row)}))
    lines.append(_encode_record({"kind": "metrics", "doc": _jsonable(bundle.metrics)}))
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    tmp.replace(path)
    return path


def load_bundle(path: str | Path) -> CrashBundle:
    """Read a bundle written by :func:`save_bundle`.

    A missing meta record, a magic/version mismatch or a corrupt
    structural record (meta, conf, image, segment) rejects the whole
    bundle with ``bundle-corrupt``; a corrupt journal or metrics record
    is contained — dropped with a counter in ``bundle.settings`` — since
    diagnostics must never block a replay."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != BUNDLE_MAGIC:
        raise RewriteFailure("bundle-corrupt", "bad magic/version line")
    meta = None
    conf_doc = None
    requests: list = []
    segments: list = []
    image_doc = None
    journal: list = []
    metrics: dict = {}
    dropped = 0
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            record = _decode_record(line, "bundle-corrupt")
        except RewriteFailure:
            # containment is only safe for diagnostics; since a rotten
            # line's kind is unknowable, count it and let the structural
            # completeness checks below decide whether replay can proceed
            dropped += 1
            continue
        kind = record.pop("kind")
        if kind == "meta":
            meta = record
        elif kind == "conf":
            conf_doc = record["doc"]
        elif kind == "request":
            requests.append(record)
        elif kind == "segment":
            segments.append(record)
        elif kind == "image":
            image_doc = record
        elif kind == "journal":
            journal.append(record)
        elif kind == "metrics":
            metrics = record["doc"]
        else:
            raise RewriteFailure("bundle-corrupt", f"unknown record kind {kind!r}")
    if meta is None:
        raise RewriteFailure("bundle-corrupt", "bundle has no meta record")
    if int(meta.get("version", 0)) != 1:
        raise RewriteFailure("bundle-corrupt", "unsupported bundle version")
    machine_doc = None
    if image_doc is not None:
        machine_doc = dict(image_doc)
        machine_doc["segments"] = segments
    elif segments:
        raise RewriteFailure("bundle-corrupt", "segment records without an image record")
    settings = dict(meta.get("settings") or {})
    if dropped:
        settings["corrupt_records_dropped"] = dropped
    bundle = CrashBundle(
        kind=meta["bundle_kind"],
        reason=meta["reason"],
        message=meta.get("message", ""),
        evidence=meta.get("evidence") or {},
        fingerprint=meta.get("fingerprint", ""),
        conf=conf_doc,
        conf_fp=meta.get("conf_fp", ""),
        requests=requests,
        machine=machine_doc,
        spec=meta.get("spec"),
        seeds=dict(meta.get("seeds") or {}),
        settings=settings,
        journal=journal,
        metrics=metrics,
    )
    if bundle.kind not in BUNDLE_KINDS:
        raise RewriteFailure("bundle-corrupt", f"unknown bundle kind {bundle.kind!r}")
    return bundle


# ==================================================== evidence builders
#
# Shared with repro.testing.replay: capture computes these from the live
# failure, replay recomputes them from a cold re-execution, and the
# fingerprints must agree bit-for-bit.  Nothing host-dependent (wall
# time, object ids, unordered iteration) may appear here.


def rewrite_evidence(fn, args: tuple, result) -> dict:
    """Evidence for a terminal supervisor fallback: the failing request
    plus the full ladder transcript."""
    return {
        "fn": fn if isinstance(fn, (str, int)) else str(fn),
        "args": _jsonable(args),
        "reason": result.reason,
        "message": result.message,
        "ladder_attempts": _jsonable(result.ladder_attempts),
    }


def shadow_evidence(args: tuple, entry: int, original: int, description: str) -> dict:
    """Evidence for a shadow divergence: the live arguments, both entry
    points and the comparator's mismatch description."""
    return {
        "args": _jsonable(args),
        "entry": entry,
        "original": original,
        "description": description,
    }


def torture_evidence(
    spec_doc: dict, classification: str, reason: str | None,
    oracle: tuple, outcome: tuple,
) -> dict:
    """Evidence for a torture-suite failure: the seeded spec (images
    rebuild from it byte-identically), the classification, and both
    normalized architectural outcomes."""
    return {
        "spec": _jsonable(spec_doc),
        "classification": classification,
        "reason": reason,
        "oracle": _jsonable(oracle),
        "outcome": _jsonable(outcome),
    }


def fabric_evidence(
    *, shard: int, cause: str, tick: float, moved: list,
    live: list, seed: int, suspect_after: float, dead_after: float,
) -> dict:
    """Evidence for a fabric shard death: which shard died, why, at
    which tick, where every pending digest re-routed (rendezvous
    successors over ``live``), and the watchdog thresholds — enough for
    a pure re-execution of both the routing and the watchdog ladder."""
    return {
        "shard": shard,
        "cause": cause,
        "tick": tick,
        "moved": _jsonable(moved),
        "live": _jsonable(live),
        "seed": seed,
        "suspect_after": suspect_after,
        "dead_after": dead_after,
    }


# ========================================================== the hub
class ForensicsHub:
    """The capture side of Layer 5: one journal, one bundle store.

    Layers journal through :meth:`journal` (a no-op when the recorder is
    disabled) and call a ``capture_*`` method at the moment a tagged
    failure fires.  Every capture seals a :class:`CrashBundle`
    (fingerprint included), files it on :attr:`bundles` (bounded by
    ``keep``), charges ``forensics.*`` counters, and — when ``out_dir``
    is set — persists it via :func:`save_bundle`.

    The hub is strictly opt-in: every wired layer takes
    ``forensics=None`` and behaves exactly as before when none is given,
    which keeps the seeded EXT-3/5/7 metrics snapshots bit-for-bit
    stable."""

    def __init__(
        self,
        *,
        recorder: FlightRecorder | None = None,
        out_dir: str | Path | None = None,
        metrics: Metrics | None = None,
        keep: int = 64,
        journal_tail: int = 128,
    ) -> None:
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.metrics = metrics if metrics is not None else Metrics()
        self.keep = keep
        self.journal_tail = journal_tail
        #: Captured bundles, oldest first (bounded by ``keep``).
        self.bundles: list[CrashBundle] = []
        #: Paths of bundles persisted to ``out_dir``, oldest first.
        self.saved: list[Path] = []
        self._captured = 0

    # ---------------------------------------------------------- journaling
    def journal(self, channel: str, event: str, payload: dict | None = None) -> None:
        """Journal one event on the flight recorder (cheap no-op when
        the recorder is disabled)."""
        recorder = self.recorder
        if recorder.enabled:
            recorder.record(channel, event, payload)

    # ------------------------------------------------------------- capture
    def _file(self, bundle: CrashBundle) -> CrashBundle:
        bundle.journal = self.recorder.tail(limit=self.journal_tail)
        bundle.seal()
        self._captured += 1
        self.bundles.append(bundle)
        if len(self.bundles) > self.keep:
            self.bundles.pop(0)
        self.metrics.inc("forensics.captures")
        self.metrics.inc(f"forensics.captures.{bundle.kind}")
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            name = f"bundle-{self._captured:04d}-{bundle.kind}.rbundle"
            self.saved.append(save_bundle(bundle, self.out_dir / name))
            self.metrics.inc("forensics.saved")
        return bundle

    def capture_rewrite_failure(
        self, machine, conf, fn, args: tuple, result,
        *, settings: dict | None = None, metrics: Metrics | None = None,
        history: tuple = (),
    ) -> CrashBundle:
        """A terminal supervisor fallback: capture the machine, the conf
        and the failing request (``history`` prepends earlier requests
        of the same conf for sequence minimization)."""
        requests = [
            {"fn": h_fn, "args": _jsonable(h_args)} for h_fn, h_args in history
        ]
        requests.append({
            "fn": fn if isinstance(fn, (str, int)) else str(fn),
            "args": _jsonable(args),
        })
        return self._file(CrashBundle(
            kind="rewrite-failure",
            reason=result.reason,
            message=result.message,
            evidence=rewrite_evidence(fn, args, result),
            conf=conf_to_doc(conf),
            conf_fp=conf_fingerprint(conf),
            requests=requests,
            machine=capture_machine(machine),
            settings=dict(settings or {}),
            metrics=metrics.as_dict() if metrics is not None else {},
        ))

    def capture_shadow_divergence(
        self, machine, conf, fn, args: tuple, entry: int, original: int,
        description: str, *, known_reads: tuple = (),
        metrics: Metrics | None = None,
    ) -> CrashBundle:
        """A published variant caught lying by the shadow sampler."""
        return self._file(CrashBundle(
            kind="shadow-divergence",
            reason="shadow-divergence",
            message=description,
            evidence=shadow_evidence(args, entry, original, description),
            conf=conf_to_doc(conf) if conf is not None else None,
            conf_fp=conf_fingerprint(conf) if conf is not None else "",
            requests=[{
                "fn": fn if isinstance(fn, (str, int)) else str(fn),
                "args": _jsonable(args),
                "entry": entry,
                "original": original,
            }],
            machine=capture_machine(machine),
            settings={"known_reads": _jsonable(known_reads)},
            metrics=metrics.as_dict() if metrics is not None else {},
        ))

    def capture_torture(
        self, spec, classification: str, reason: str | None,
        oracle: tuple, outcome: tuple, *, max_steps: int,
        jit_parity: bool,
    ) -> CrashBundle:
        """A torture image that failed gracefully — or violated the
        contract (miscompile/escape).  The image itself rebuilds from
        the spec (pure function), so the bundle carries no bytes."""
        spec_doc = {
            "index": spec.index,
            "kind": spec.kind,
            "seed": spec.seed,
            "known_params": list(spec.known_params),
        }
        return self._file(CrashBundle(
            kind="torture",
            reason=reason or classification,
            message=classification,
            evidence=torture_evidence(
                spec_doc, classification, reason, oracle, outcome
            ),
            spec=spec_doc,
            seeds={"spec": spec.seed},
            settings={"max_steps": max_steps, "jit_parity": jit_parity},
        ))

    def capture_fabric_death(
        self, *, shard: int, cause: str, tick: float, moved: list,
        live: list, seed: int, suspect_after: float, dead_after: float,
        metrics: Metrics | None = None,
    ) -> CrashBundle:
        """A fabric shard declared dead (crash or heartbeat timeout)."""
        return self._file(CrashBundle(
            kind="fabric-shard-death",
            reason="shard-dead",
            message=cause,
            evidence=fabric_evidence(
                shard=shard, cause=cause, tick=tick, moved=moved,
                live=live, seed=seed, suspect_after=suspect_after,
                dead_after=dead_after,
            ),
            seeds={"fabric": seed},
            settings={"suspect_after": suspect_after, "dead_after": dead_after},
            metrics=metrics.as_dict() if metrics is not None else {},
        ))
