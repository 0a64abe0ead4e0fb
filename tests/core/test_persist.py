"""Crash-safe persistence of specialization state: versioned CRC'd
snapshots, per-entry corruption rejection, quarantine/backoff restore."""

from __future__ import annotations

import pytest

from repro.core import brew_init_conf, brew_setpar, BREW_KNOWN
from repro.core.manager import SpecializationManager
from repro.core.persist import (
    SNAPSHOT_MAGIC, load_manager, save_manager,
)
from repro.machine.vm import Machine
from repro.obs import Metrics
from repro.testing import FaultInjector

SOURCE = """
noinline long poly(long x, long k) { return x * k + k; }
noinline long mix(long x, long k) { return x * x + k; }
"""


def _machine() -> Machine:
    m = Machine()
    m.load(SOURCE)
    return m


def _conf(**overrides):
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    for name, value in overrides.items():
        setattr(conf, name, value)
    return conf


def _warm_manager(machine) -> SpecializationManager:
    """A manager with two good entries and one quarantined failure."""
    manager = SpecializationManager(machine)
    assert manager.get(_conf(), "poly", 0, 3).ok
    assert manager.get(_conf(), "mix", 0, 7).ok
    doomed = manager.get(_conf(max_output_instructions=1), "poly", 0, 9)
    assert not doomed.ok
    return manager


# ------------------------------------------------------------ roundtrip
def test_roundtrip_restores_runnable_entries(tmp_path):
    saved = _warm_manager(_machine())
    path = save_manager(saved, tmp_path / "spec.snap")

    machine = _machine()
    manager = SpecializationManager(machine)
    report = load_manager(manager, path)
    assert report.version_ok
    assert len(report.restored_ok) == 2 and len(report.restored_failed) == 1
    assert not report.rejected
    for key in report.restored_ok:
        result = manager.cached_result(key)
        assert result is not None and result.ok
        # the restored body runs at its recorded address, correctly
        if result.name.startswith("poly"):
            assert machine.call(result.entry, 5, 3).int_return == 5 * 3 + 3
        else:
            assert machine.call(result.entry, 5, 7).int_return == 5 * 5 + 7
    # a warm get serves the restored entry without rewriting again
    misses_before = manager.stats()["misses"]
    assert manager.get(_conf(), "poly", 0, 3).ok
    assert manager.stats()["misses"] == misses_before


def test_restored_quarantine_keeps_backing_off(tmp_path):
    saved = _warm_manager(_machine())
    path = save_manager(saved, tmp_path / "spec.snap")

    manager = SpecializationManager(_machine())
    report = load_manager(manager, path)
    assert len(report.restored_failed) == 1
    # within the restored backoff window the failure is served from
    # quarantine — no rewrite attempt burns cycles on a doomed config
    result = manager.get(_conf(max_output_instructions=1), "poly", 0, 9)
    assert not result.ok
    assert manager.metrics.value("manager.quarantine_hits") >= 1


def test_allocator_advances_past_restored_bodies(tmp_path):
    saved = _warm_manager(_machine())
    path = save_manager(saved, tmp_path / "spec.snap")
    machine = _machine()
    manager = SpecializationManager(machine)
    report = load_manager(manager, path)
    restored_entries = {
        manager.cached_result(k).entry for k in report.restored_ok
    }
    # a fresh rewrite after restore must not land on a restored body
    fresh = manager.get(_conf(), "poly", 0, 11)
    assert fresh.ok and fresh.entry not in restored_entries
    assert machine.call(fresh.entry, 5, 11).int_return == 5 * 11 + 11


def test_epoch_only_ratchets_forward(tmp_path):
    saved = _warm_manager(_machine())
    saved.epoch = 5
    path = save_manager(saved, tmp_path / "spec.snap")

    behind = SpecializationManager(_machine())
    load_manager(behind, path)
    assert behind.epoch == 5, "restored epoch must win over a smaller one"

    ahead = SpecializationManager(_machine())
    ahead.epoch = 9
    load_manager(ahead, path)
    assert ahead.epoch == 9, "a live epoch must never move backwards"


# ----------------------------------------------------------- corruption
def test_injected_bit_rot_rejects_exactly_one_record(tmp_path):
    saved = _warm_manager(_machine())
    path = tmp_path / "spec.snap"
    # record 1 is the meta header; nth=2 bit-rots the first entry record
    with FaultInjector("snapshot", nth=2) as fault:
        save_manager(saved, path)
    assert fault.fired

    metrics = Metrics()
    manager = SpecializationManager(_machine(), metrics=metrics)
    report = load_manager(manager, path)
    assert report.version_ok
    assert len(report.rejected) == 1
    assert report.rejected[0].reason == "snapshot-corrupt"
    assert report.restored == 2, "the other records restore normally"
    assert metrics.value("snapshot.rejected") == 1
    assert metrics.value("snapshot.restored") == 2


def test_on_disk_byte_flip_is_rejected_per_entry(tmp_path):
    saved = _warm_manager(_machine())
    path = save_manager(saved, tmp_path / "spec.snap")
    lines = path.read_text().splitlines()
    # flip one byte inside the last record's JSON payload
    victim = lines[-1]
    mid = len(victim) // 2
    lines[-1] = victim[:mid] + chr(ord(victim[mid]) ^ 0x1) + victim[mid + 1:]
    path.write_text("\n".join(lines) + "\n")

    manager = SpecializationManager(_machine())
    report = load_manager(manager, path)
    assert len(report.rejected) == 1
    assert report.rejected[0].reason == "snapshot-corrupt"
    assert report.restored == 2


def test_version_mismatch_rejects_the_whole_snapshot(tmp_path):
    saved = _warm_manager(_machine())
    path = save_manager(saved, tmp_path / "spec.snap")
    body = path.read_text().splitlines()
    body[0] = "REPRO-SNAP 999"
    path.write_text("\n".join(body) + "\n")

    metrics = Metrics()
    manager = SpecializationManager(_machine(), metrics=metrics)
    report = load_manager(manager, path)
    assert not report.version_ok and report.restored == 0
    assert metrics.value("snapshot.version_mismatch") == 1


def test_missing_snapshot_is_a_clean_cold_start(tmp_path):
    manager = SpecializationManager(_machine())
    report = load_manager(manager, tmp_path / "never-written.snap")
    assert not report.version_ok and report.restored == 0
    # and the manager still works
    assert manager.get(_conf(), "poly", 0, 3).ok


def test_save_is_atomic_no_tmp_left_behind(tmp_path):
    saved = _warm_manager(_machine())
    path = save_manager(saved, tmp_path / "spec.snap")
    assert path.exists()
    assert not list(tmp_path.glob("*.tmp"))
    assert path.read_text().splitlines()[0] == SNAPSHOT_MAGIC


# ------------------------------------------------- epoch forward-ratchet
def test_older_snapshot_after_newer_is_rejected_step_mode(tmp_path):
    """Restore a newer snapshot, then an older one, through the service
    path: the older restore must be rejected per entry (``snapshot-stale``,
    never a crash) and must not disturb the already-restored state."""
    from repro.service import RewriteService

    writer = RewriteService(_machine())
    writer.request(_conf(), "poly", 0, 3)
    writer.drain()
    old_path = tmp_path / "old.snap"
    writer.save_snapshot(old_path)
    # live invalidations advance the epoch; later snapshots embed it
    writer.manager.epoch = 7
    writer.request(_conf(), "mix", 0, 5)
    writer.drain()
    new_path = tmp_path / "new.snap"
    writer.save_snapshot(new_path)
    writer.close()

    machine = _machine()
    svc = RewriteService(machine)
    try:
        newer = svc.restore_snapshot(new_path)
        assert newer.version_ok and len(newer.restored_ok) == 2
        assert svc.manager.epoch == 7
        published_before = len(svc.manager.published_entries())
        assert published_before == 2

        older = svc.restore_snapshot(old_path)
        assert older.version_ok, "a stale snapshot is not a format error"
        assert older.restored == 0
        assert len(older.rejected) == 1
        assert all(f.reason == "snapshot-stale" for f in older.rejected)
        assert svc.manager.epoch == 7, "the epoch never moves backwards"
        assert len(svc.manager.published_entries()) == published_before, (
            "live state undisturbed")
        # the service still works end to end after the rejected restore
        entry = svc.request(_conf(), "poly", 0, 3)
        assert machine.call(entry, 5, 3).int_return == 5 * 3 + 3
    finally:
        svc.close()


def test_stale_rejection_is_per_entry_not_a_crash(tmp_path):
    """Every entry record of a stale snapshot is individually rejected
    with ``snapshot-stale``; the report is complete, nothing raises."""
    saved = _warm_manager(_machine())
    path = save_manager(saved, tmp_path / "spec.snap")

    metrics = Metrics()
    manager = SpecializationManager(_machine(), metrics=metrics)
    manager.epoch = 3  # ahead of the snapshot's epoch 0
    report = load_manager(manager, path)
    assert report.version_ok
    assert report.restored == 0
    assert len(report.rejected) == 3, "one rejection per entry record"
    assert {f.reason for f in report.rejected} == {"snapshot-stale"}
    assert metrics.value("snapshot.rejected") == 3
    assert manager.epoch == 3


# --------------------------------------------------------- collision guard
def test_restore_onto_different_live_code_is_rejected(tmp_path):
    """A snapshot whose recorded body address now holds *different* live
    code (a foreign shard's snapshot restored into a machine that did
    its own rewrites) is rejected per entry as ``snapshot-collision`` —
    overwriting a live variant would corrupt answers silently."""
    saver = SpecializationManager(_machine())
    assert saver.get(_conf(), "poly", 0, 3).ok
    path = save_manager(saver, tmp_path / "foreign.snap")

    machine = _machine()
    manager = SpecializationManager(machine)
    # the deterministic allocator puts this machine's own first rewrite
    # at the same address the snapshot recorded — with different bytes
    own = manager.get(_conf(), "poly", 0, 4)
    assert own.ok
    report = load_manager(manager, path)
    assert len(report.rejected) == 1
    assert report.rejected[0].reason == "snapshot-collision"
    assert report.restored == 0
    # the live variant is untouched and still correct
    assert machine.call(own.entry, 5, 4).int_return == 5 * 4 + 4


def test_byte_identical_overlap_restores_idempotently(tmp_path):
    """Byte-identical overlap is NOT a collision: re-restoring the same
    snapshot (or two shards' identical deterministic rewrites) is fine."""
    saver = SpecializationManager(_machine())
    assert saver.get(_conf(), "poly", 0, 3).ok
    path = save_manager(saver, tmp_path / "spec.snap")

    machine = _machine()
    manager = SpecializationManager(machine)
    assert manager.get(_conf(), "poly", 0, 3).ok  # identical bytes land first
    report = load_manager(manager, path)
    assert not report.rejected
    assert len(report.restored_ok) == 1


def test_schema_mismatch_record_is_rejected(tmp_path):
    """A structurally valid line (good CRC, good JSON) whose record is
    missing fields must be rejected as snapshot-corrupt, not crash."""
    from repro.core.persist import _encode_record

    saved = _warm_manager(_machine())
    path = save_manager(saved, tmp_path / "spec.snap")
    lines = path.read_text().splitlines()
    lines.append(_encode_record({"kind": "entry", "key": "('orphan',)"}))
    lines.append(_encode_record({"kind": "mystery"}))
    path.write_text("\n".join(lines) + "\n")

    manager = SpecializationManager(_machine())
    report = load_manager(manager, path)
    assert len(report.rejected) == 2
    assert {f.reason for f in report.rejected} == {"snapshot-corrupt"}
    assert report.restored == 3
