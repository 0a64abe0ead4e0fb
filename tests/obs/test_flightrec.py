"""Flight recorder: bounded rings, global ordering, disabled cost."""

from __future__ import annotations

import pytest

from repro.obs import CHANNELS, FlightRecorder


def test_channels_are_the_four_architectural_layers():
    assert CHANNELS == ("machine", "rewrite", "service", "fabric")


def test_record_returns_monotonic_global_sequence_numbers():
    rec = FlightRecorder()
    seqs = [rec.record(ch, "e") for ch in CHANNELS for _ in range(3)]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_rings_are_bounded_and_drops_are_counted():
    rec = FlightRecorder(capacity=4)
    for i in range(10):
        rec.record("service", "tick", {"i": i})
    assert len(rec) == 4
    assert rec.dropped["service"] == 6
    assert rec.dropped["rewrite"] == 0
    held = [r["data"]["i"] for r in rec.tail("service")]
    assert held == [6, 7, 8, 9], "a ring keeps the newest records"


def test_tail_interleaves_channels_by_sequence():
    rec = FlightRecorder()
    rec.record("service", "a")
    rec.record("rewrite", "b")
    rec.record("service", "c")
    rows = rec.tail()
    assert [r["event"] for r in rows] == ["a", "b", "c"]
    assert [r["channel"] for r in rows] == ["service", "rewrite", "service"]
    assert [r["seq"] for r in rows] == sorted(r["seq"] for r in rows)


def test_tail_limit_keeps_the_newest_records_after_interleaving():
    rec = FlightRecorder()
    for i in range(6):
        rec.record(CHANNELS[i % len(CHANNELS)], f"e{i}")
    rows = rec.tail(limit=2)
    assert [r["event"] for r in rows] == ["e4", "e5"]


def test_payload_defaults_to_empty_dict():
    rec = FlightRecorder()
    rec.record("machine", "e")
    assert rec.tail("machine")[0]["data"] == {}


def test_clear_drops_records_but_never_reissues_sequence_numbers():
    rec = FlightRecorder(capacity=2)
    for _ in range(5):
        rec.record("fabric", "e")
    rec.clear()
    assert len(rec) == 0
    assert rec.dropped["fabric"] == 0
    assert rec.record("fabric", "e") == 6


def test_unknown_channel_is_a_bug_not_a_new_ring():
    rec = FlightRecorder()
    with pytest.raises(KeyError):
        rec.record("sevrice", "typo")


def test_capacity_is_validated():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_stats_reports_occupancy_and_drops():
    rec = FlightRecorder(capacity=2)
    for _ in range(3):
        rec.record("rewrite", "e")
    stats = rec.stats()
    assert stats["seq"] == 3
    assert stats["per_channel"]["rewrite"] == {"held": 2, "dropped": 1}
    assert stats["per_channel"]["machine"] == {"held": 0, "dropped": 0}


def test_two_identical_runs_journal_identical_tails():
    def run():
        rec = FlightRecorder(capacity=8)
        for i in range(20):
            rec.record(CHANNELS[i % 3], "step", {"i": i, "v": i * i})
        return rec.tail()

    assert run() == run()
