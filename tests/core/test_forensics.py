"""Crash-forensics bundles: capture, canonical persistence, corruption
containment, and the capture seams on every layer."""

from __future__ import annotations

import pytest

from repro.core import BREW_KNOWN, BREW_UNKNOWN, brew_init_conf, brew_setpar
from repro.core import forensics
from repro.core.forensics import (
    BUNDLE_MAGIC,
    CrashBundle,
    ForensicsHub,
    bundle_fingerprint,
    capture_machine,
    conf_fingerprint,
    conf_from_doc,
    conf_to_doc,
    load_bundle,
    restore_machine,
    save_bundle,
)
from repro.core.resilience import RewriteSupervisor
from repro.errors import RewriteFailure
from repro.machine.vm import Machine
from repro.obs import Metrics
from repro.testing import FaultInjector

SOURCE = """
noinline long poly(long x, long k) { return x * k + k; }
"""


def _conf():
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    return conf


def _rewrite_failure_hub(**hub_kwargs):
    """One organic terminal failure (bad-pass) captured through the
    supervisor seam."""
    machine = Machine()
    machine.load(SOURCE)
    hub = ForensicsHub(**hub_kwargs)
    supervisor = RewriteSupervisor(machine, forensics=hub)
    conf = _conf()
    conf.passes = ("no-such-pass",)
    supervisor.rewrite(conf, "poly", 5, 3)
    return hub


# ------------------------------------------------------------ fingerprint
def test_fingerprint_is_order_insensitive_canonical_json():
    a = bundle_fingerprint("torture", "decode-error", {"x": 1, "y": [2, 3]})
    b = bundle_fingerprint("torture", "decode-error", {"y": [2, 3], "x": 1})
    c = bundle_fingerprint("torture", "decode-error", {"x": 1, "y": [2, 4]})
    assert a == b
    assert a != c


# ----------------------------------------------------- conf round-tripping
def test_conf_document_round_trips_including_fingerprint():
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    brew_setpar(conf, 2, BREW_UNKNOWN)
    conf.inline = False
    doc = conf_to_doc(conf)
    rebuilt = conf_from_doc(doc)
    assert conf_to_doc(rebuilt) == doc
    assert conf_fingerprint(rebuilt) == conf_fingerprint(conf)


def test_conf_document_never_replays_wall_clock_deadlines():
    conf = _conf()
    conf.deadline_seconds = 0.5
    rebuilt = conf_from_doc(conf_to_doc(conf))
    assert rebuilt.deadline_seconds is None


def test_broken_conf_document_is_bundle_corrupt():
    with pytest.raises(RewriteFailure) as exc:
        conf_from_doc({"functions": "not-a-list"})
    assert exc.value.reason == "bundle-corrupt"


# ------------------------------------------------- machine capture/restore
def test_machine_restore_is_bit_identical_under_capture():
    machine = Machine()
    machine.load(SOURCE)
    machine.image.add_function("scratch", b"\x90" * 16)
    doc = capture_machine(machine)
    restored = restore_machine(doc)
    assert capture_machine(restored) == doc
    assert restored.image.resolve("poly") == machine.image.resolve("poly")
    assert restored.image.resolve("scratch") == machine.image.resolve("scratch")


def test_machine_restore_rejects_out_of_layout_segments():
    machine = Machine()
    machine.load(SOURCE)
    doc = capture_machine(machine)
    doc["segments"][0]["base"] += 8
    with pytest.raises(RewriteFailure) as exc:
        restore_machine(doc)
    assert exc.value.reason == "bundle-corrupt"


# --------------------------------------------------------- save/load disk
def test_bundle_save_load_round_trip(tmp_path):
    hub = _rewrite_failure_hub()
    bundle = hub.bundles[0]
    path = save_bundle(bundle, tmp_path / "crash.rbundle")
    assert path.read_text().splitlines()[0] == BUNDLE_MAGIC
    loaded = load_bundle(path)
    assert loaded.kind == bundle.kind == "rewrite-failure"
    assert loaded.reason == bundle.reason == "bad-pass"
    assert loaded.fingerprint == bundle.fingerprint
    assert loaded.evidence == bundle.evidence
    assert loaded.conf == bundle.conf
    assert loaded.conf_fp == bundle.conf_fp
    assert loaded.requests == bundle.requests
    assert loaded.machine == bundle.machine
    assert loaded.settings == bundle.settings
    assert loaded.journal == bundle.journal


def test_bad_magic_rejects_the_whole_bundle(tmp_path):
    path = tmp_path / "crash.rbundle"
    path.write_text("REPRO-BUNDLE 999\n")
    with pytest.raises(RewriteFailure) as exc:
        load_bundle(path)
    assert exc.value.reason == "bundle-corrupt"


def test_corrupt_structural_record_rejects_the_whole_bundle(tmp_path):
    """The `bundle` fault class bit-rots the Nth encoded record; record
    1 is the meta header, without which a replay would be guesswork."""
    hub = _rewrite_failure_hub()
    path = tmp_path / "crash.rbundle"
    with FaultInjector("bundle", nth=1):
        save_bundle(hub.bundles[0], path)
    with pytest.raises(RewriteFailure) as exc:
        load_bundle(path)
    assert exc.value.reason == "bundle-corrupt"


def test_corrupt_diagnostics_record_is_contained_per_record(tmp_path):
    """The final record is the metrics snapshot — diagnostics.  Rotting
    it must not block the replay: it is dropped and counted."""
    hub = _rewrite_failure_hub()
    clean = tmp_path / "clean.rbundle"
    save_bundle(hub.bundles[0], clean)
    records = len(clean.read_text().splitlines()) - 1  # minus magic
    rotten = tmp_path / "rotten.rbundle"
    with FaultInjector("bundle", nth=records):
        save_bundle(hub.bundles[0], rotten)
    loaded = load_bundle(rotten)
    assert loaded.settings["corrupt_records_dropped"] == 1
    assert loaded.metrics == {}
    assert loaded.fingerprint == hub.bundles[0].fingerprint


def test_snapshot_fault_class_cannot_rot_bundles(tmp_path):
    """forensics imported persist's record codec by value: the
    `snapshot` fault class (which patches the persist module) must not
    leak into bundle writes — the seams stay independently testable."""
    hub = _rewrite_failure_hub()
    path = tmp_path / "crash.rbundle"
    with FaultInjector("snapshot", nth=1):
        save_bundle(hub.bundles[0], path)
    assert load_bundle(path).fingerprint == hub.bundles[0].fingerprint


def test_unknown_record_kind_rejects_the_bundle(tmp_path):
    from repro.core.forensics import _encode_record

    hub = _rewrite_failure_hub()
    path = tmp_path / "crash.rbundle"
    save_bundle(hub.bundles[0], path)
    with path.open("a") as fh:
        fh.write(_encode_record({"kind": "surprise"}) + "\n")
    with pytest.raises(RewriteFailure) as exc:
        load_bundle(path)
    assert exc.value.reason == "bundle-corrupt"


def test_atomic_write_leaves_no_tmp_file(tmp_path):
    hub = _rewrite_failure_hub()
    save_bundle(hub.bundles[0], tmp_path / "crash.rbundle")
    assert [p.name for p in tmp_path.iterdir()] == ["crash.rbundle"]


# ----------------------------------------------------------------- the hub
def test_hub_charges_capture_counters_and_bounds_retention(monkeypatch):
    monkeypatch.setattr(forensics, "KEEP_BUNDLES", 2)
    metrics = Metrics()
    hub = ForensicsHub(metrics=metrics)
    for tick in range(3):
        hub.capture_fabric_death(
            shard=tick, cause="crash: test", tick=float(tick), moved=[],
            live=[9], seed=7, suspect_after=2.0, dead_after=4.0,
        )
    assert metrics.value("forensics.captures") == 3
    assert metrics.value("forensics.captures.fabric-shard-death") == 3
    assert len(hub.bundles) == 2, "retention is bounded by keep"
    assert hub.bundles[0].evidence["shard"] == 1, "oldest evicted first"


def test_hub_persists_bundles_to_out_dir(tmp_path):
    hub = _rewrite_failure_hub(out_dir=tmp_path, metrics=Metrics())
    assert len(hub.saved) == 1
    assert hub.saved[0].name == "bundle-0001-rewrite-failure.rbundle"
    assert load_bundle(hub.saved[0]).fingerprint == hub.bundles[0].fingerprint
    assert hub.metrics.value("forensics.saved") == 1


def test_capture_embeds_the_flight_recorder_tail(monkeypatch):
    monkeypatch.setattr(forensics, "JOURNAL_TAIL", 4)
    hub = _rewrite_failure_hub()
    bundle = hub.bundles[0]
    assert 0 < len(bundle.journal) <= 4
    assert all(row["channel"] == "rewrite" for row in bundle.journal)
    assert {row["event"] for row in bundle.journal} <= {"ladder-attempt"}


def test_sealed_bundles_carry_a_recomputable_fingerprint():
    bundle = CrashBundle(kind="torture", reason="decode-error",
                         evidence={"spec": {"index": 0}}).seal()
    assert bundle.fingerprint == bundle_fingerprint(
        "torture", "decode-error", {"spec": {"index": 0}})
