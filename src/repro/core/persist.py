"""Crash-safe persistence of specialization state (assurance, part 2).

Everything the runtime learns — world-signature cache keys, emitted
bodies, recorded known-reads, quarantine/backoff state — used to vanish
on restart, so a warm production fleet restarting for a deploy would
re-pay every rewrite.  This module makes the
:class:`~repro.core.manager.SpecializationManager` state durable:

* :func:`save_manager` writes a **versioned, per-record CRC-checksummed**
  snapshot: a magic+version line, then one ``<crc32hex> <json>`` line
  per record (a ``meta`` record plus one ``entry`` record per cache
  entry, emitted bytes included as hex);

* :func:`load_manager` restores into a freshly loaded machine: emitted
  bodies are re-placed at their recorded addresses (rewrite emission is
  deterministic, so a warm restart of the same program reproduces the
  same layout; the allocator is advanced past restored bodies either
  way), cache entries are re-filed, and quarantine windows re-anchor on
  the new process's clock;

* corruption is contained **per entry**: a record whose CRC or schema
  check fails is rejected with a ``snapshot-corrupt``
  :class:`~repro.errors.RewriteFailure` in the report — the other
  records restore normally.  A magic/version mismatch rejects the whole
  snapshot (schema changes bump the version, never reinterpret bytes).

Restored *successful* entries are not trusted blindly: the rewrite
service republishes them **on probation**, so the first live call
shadow-validates each one against the original before it is re-admitted
to steady-state sampling (see :mod:`repro.core.shadowexec` and
``docs/SERVICE.md``).
"""

from __future__ import annotations

import ast
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import RewriteFailure
from repro.core.rewriter import RewriteResult

#: First line of every snapshot; the trailing integer is the schema
#: version.  Readers reject the whole file on mismatch — record layouts
#: are never reinterpreted across versions.
SNAPSHOT_MAGIC = "REPRO-SNAP 1"


def _encode_record(record: dict) -> str:
    """One snapshot line: ``<crc32 hex> <canonical json>``.

    A separate function (not inlined in the writer) because it is the
    fault-injection seam: ``repro.testing`` wraps it to flip a byte in
    the Nth record's payload *after* the CRC is computed, which is
    exactly what torn writes and bit rot look like to the reader."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(payload.encode()):08x} {payload}"


def _decode_record(line: str, reason: str = "snapshot-corrupt") -> dict:
    """Parse and CRC-check one record line; raises ``RewriteFailure``
    tagged ``reason`` on any mismatch (forensics bundles pass
    ``bundle-corrupt``, so a rotten crash bundle is never mistaken for a
    rotten cache snapshot)."""
    try:
        crc_hex, payload = line.split(" ", 1)
        crc = int(crc_hex, 16)
    except ValueError:
        raise RewriteFailure(reason, "unparseable record framing")
    if zlib.crc32(payload.encode()) != crc:
        raise RewriteFailure(reason, "record CRC mismatch")
    try:
        record = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise RewriteFailure(reason, f"record is not JSON: {exc}")
    if not isinstance(record, dict) or "kind" not in record:
        raise RewriteFailure(reason, "record missing its kind")
    return record


def _literal_key(text: str) -> tuple:
    """Rebuild a cache key from its repr (keys are nested tuples of
    ints/floats/strings/bools — ``ast.literal_eval`` territory)."""
    try:
        key = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        raise RewriteFailure("snapshot-corrupt", "cache key does not parse")
    if not isinstance(key, tuple):
        raise RewriteFailure("snapshot-corrupt", "cache key is not a tuple")
    return key


def _collides_with_live_code(image, entry: int, code_size: int, code: bytes) -> bool:
    """Whether placing ``code`` at ``entry`` would overwrite a
    *different* live function body.  Byte-identical overlap is fine
    (an idempotent re-restore, or two shards that emitted the same
    deterministic rewrite); anything else is a collision."""
    lo, hi = entry, entry + code_size
    overlaps = any(
        addr < hi and lo < addr + size
        for addr, size in image.function_sizes.items()
    )
    return overlaps and image.peek(entry, code_size) != code


@dataclass
class RestoreReport:
    """What :func:`load_manager` did: which keys came back (split by
    outcome), which records were rejected and why."""

    restored_ok: list[tuple] = field(default_factory=list)
    restored_failed: list[tuple] = field(default_factory=list)
    rejected: list[RewriteFailure] = field(default_factory=list)
    version_ok: bool = True
    epoch: int = 0

    @property
    def restored(self) -> int:
        return len(self.restored_ok) + len(self.restored_failed)


def save_manager(manager, path: str | Path) -> Path:
    """Write ``manager``'s cache to ``path`` (atomically: temp + rename,
    so a crash mid-save leaves the previous snapshot intact)."""
    image = manager.machine.image
    lines = [SNAPSHOT_MAGIC]
    entries = manager.export_entries()
    lines.append(_encode_record({
        "kind": "meta",
        "epoch": manager.epoch,
        "entries": len(entries),
    }))
    for key, result, memory_deps, fail_count, backoff_remaining in entries:
        record = {
            "kind": "entry",
            "key": repr(key),
            "ok": result.ok,
            "original": result.original,
            "reason": result.reason,
            "message": result.message,
            "fail_count": fail_count,
            "backoff_remaining": backoff_remaining,
            "memory_deps": [list(dep) for dep in memory_deps],
        }
        if result.ok and result.entry is not None:
            record.update({
                "entry": result.entry,
                "name": result.name,
                "code_size": result.code_size,
                "code": image.peek(result.entry, result.code_size).hex()
                        if result.code_size else "",
                "known_reads": [list(kr) for kr in result.known_reads],
                "validated": result.validated,
                "ladder_rung": result.ladder_rung,
            })
        lines.append(_encode_record(record))
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    tmp.replace(path)
    return path


def _restore_one(manager, record: dict) -> tuple[tuple, bool]:
    """File one decoded entry record into ``manager``; returns
    ``(key, ok)``.  Raises ``snapshot-corrupt`` on schema trouble and
    ``snapshot-collision`` when the recorded body's address range is
    already occupied by *different* live code (restoring a foreign
    shard's snapshot into a machine that has done its own rewrites —
    overwriting a live variant would corrupt answers silently)."""
    try:
        key = _literal_key(record["key"])
        ok = bool(record["ok"])
        original = int(record["original"])
        fail_count = int(record["fail_count"])
        backoff_remaining = float(record["backoff_remaining"])
        memory_deps = [tuple(dep) for dep in record["memory_deps"]]
        if ok:
            entry = int(record["entry"])
            code_size = int(record["code_size"])
            code = bytes.fromhex(record["code"])
            known_reads = tuple(tuple(kr) for kr in record["known_reads"])
    except (KeyError, TypeError, ValueError) as exc:
        raise RewriteFailure(
            "snapshot-corrupt", f"entry record schema mismatch: {exc}"
        )
    image = manager.machine.image
    if ok:
        if len(code) != code_size:
            raise RewriteFailure(
                "snapshot-corrupt", "emitted-body length disagrees with code_size"
            )
        if code_size and _collides_with_live_code(image, entry, code_size, code):
            raise RewriteFailure(
                "snapshot-collision",
                f"restore target [0x{entry:x}, 0x{entry + code_size:x}) "
                "holds different live code",
            )
        image.reserve_rewrite(entry, code_size)
        image.poke(entry, code)
        image.function_sizes[entry] = code_size
        name = record.get("name")
        if name and name not in image.symbols:
            image.define_symbol(name, entry)
        result = RewriteResult(
            ok=True,
            original=original,
            entry=entry,
            name=name,
            code_size=code_size,
            known_reads=known_reads,
            validated=bool(record.get("validated", False)),
            ladder_rung=int(record.get("ladder_rung", 0)),
        )
    else:
        result = RewriteResult(
            ok=False,
            original=original,
            reason=str(record.get("reason", "")),
            message=str(record.get("message", "")),
        )
    manager.restore_entry(
        key, result, memory_deps,
        fail_count=fail_count, backoff_remaining=backoff_remaining,
    )
    return key, ok


def load_manager(manager, path: str | Path) -> RestoreReport:
    """Restore a snapshot written by :func:`save_manager` into
    ``manager`` (see module docstring for the trust model).  Missing
    file or version mismatch → an empty report with ``version_ok``
    False; corrupt/mismatched records are rejected individually."""
    report = RestoreReport()
    path = Path(path)
    metrics = manager.metrics
    try:
        lines = path.read_text().splitlines()
    except OSError:
        report.version_ok = False
        metrics.inc("snapshot.missing")
        return report
    if not lines or lines[0] != SNAPSHOT_MAGIC:
        report.version_ok = False
        metrics.inc("snapshot.version_mismatch")
        return report
    stale = False
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            record = _decode_record(line)
            if record["kind"] == "meta":
                report.epoch = int(record.get("epoch", 0))
                # the epoch forward-ratchet, applied per restore: a
                # snapshot written at an older epoch predates live
                # invalidations, so its entries could resurrect stale
                # variants — reject every entry record (not the call)
                stale = report.epoch < manager.epoch
                continue
            if record["kind"] != "entry":
                raise RewriteFailure(
                    "snapshot-corrupt", f"unknown record kind {record['kind']!r}"
                )
            if stale:
                raise RewriteFailure(
                    "snapshot-stale",
                    f"snapshot epoch {report.epoch} predates live epoch "
                    f"{manager.epoch}",
                )
            key, ok = _restore_one(manager, record)
        except RewriteFailure as failure:
            report.rejected.append(failure)
            metrics.inc("snapshot.rejected")
            continue
        (report.restored_ok if ok else report.restored_failed).append(key)
        metrics.inc("snapshot.restored")
    # the restored epoch only ratchets forward: a snapshot this manager
    # could write before a later invalidation must still read as older
    # than the live epoch (``snapshot-stale``), and ``stats()["epoch"]``
    # never moves back
    if report.epoch > manager.epoch:
        manager.epoch = report.epoch
    return report
