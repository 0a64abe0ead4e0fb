"""Unit tests for the unreliable interconnect (machine.link)."""

from __future__ import annotations

import struct

import pytest

from repro.errors import FAILURE_REASONS
from repro.machine import link as link_module
from repro.machine.link import (
    BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN,
    CircuitBreaker, FaultProfile, Link, TransferManager,
)
from repro.machine.vm import Machine

SOURCE = "noinline long idle(long x) { return x; }"


@pytest.fixture()
def setup():
    m = Machine()
    m.load(SOURCE)
    src = m.image.malloc(256)
    dst = m.image.malloc(256)
    m.image.poke(src, bytes(range(256)))
    return m, src, dst


def _manager(machine, **kw):
    return TransferManager(machine, **kw)


def _patch(monkeypatch, **constants):
    """Set interconnect constants of ``repro.machine.link`` for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(link_module, name, value)


# ------------------------------------------------------------------ Link
def test_clean_link_delivers_with_latency():
    link = Link(1, seed=0)
    attempt = link.transfer(b"\x01" * 64)
    assert attempt.status == "ok"
    assert attempt.payload == b"\x01" * 64
    assert attempt.cycles == 616  # 600 startup + 8 elements x 2


def test_link_faults_are_seed_deterministic():
    profile = FaultProfile.uniform(0.4)
    a = Link(2, faults=profile, seed=9)
    b = Link(2, faults=profile, seed=9)
    seq_a = [a.transfer(b"x" * 32).status for _ in range(40)]
    seq_b = [b.transfer(b"x" * 32).status for _ in range(40)]
    assert seq_a == seq_b
    assert set(seq_a) - {"ok"}, "profile at 0.4 should produce faults"


def test_corrupt_attempt_damages_payload_but_keeps_length():
    link = Link(1, seed=3)
    payload = bytes(64)
    attempt = link.force_fault(payload, "corrupt")
    assert attempt.status == "corrupt"
    assert attempt.payload is not None and len(attempt.payload) == 64
    assert attempt.payload != payload
    assert attempt.cycles == link.latency(64)


def test_drop_and_delay_burn_the_timeout():
    link = Link(1, seed=0)
    for status in ("drop", "delay"):
        attempt = link.force_fault(b"abc", status)
        assert attempt.payload is None
        assert attempt.cycles == 2400


def test_partition_latches_and_heals():
    link = Link(1, faults=FaultProfile(partition_attempts=3), seed=0)
    link.force_fault(b"x", "partition")
    assert link.partitioned
    # subsequent organic attempts keep failing while latched
    assert link.transfer(b"x").status == "partition"
    assert link.transfer(b"x").status == "partition"
    assert not link.partitioned  # 3 attempts consumed the latch
    assert link.transfer(b"x").status == "ok"
    link.force_fault(b"x", "partition")
    link.heal()
    assert not link.partitioned


# --------------------------------------------------------- CircuitBreaker
def test_breaker_three_state_machine(monkeypatch):
    _patch(monkeypatch, BREAKER_THRESHOLD=2, BREAKER_COOLDOWN_EPOCHS=3)
    br = CircuitBreaker()
    assert br.state == BREAKER_CLOSED and br.allow(0)
    br.record_failure(0)
    assert br.state == BREAKER_CLOSED
    br.record_failure(0)
    assert br.state == BREAKER_OPEN and br.trips == 1
    assert not br.allow(1) and not br.allow(2)
    assert br.allow(3)  # cooldown passed -> half-open probe
    assert br.state == BREAKER_HALF_OPEN
    br.record_failure(3)  # failed probe re-opens immediately
    assert br.state == BREAKER_OPEN and br.trips == 2
    assert br.allow(6)
    br.record_success()
    assert br.state == BREAKER_CLOSED and br.consecutive_failures == 0


# -------------------------------------------------------- TransferManager
def test_clean_transfer_verified_and_charged(setup):
    m, src, dst = setup
    tm = _manager(m)
    before = m.cpu.perf.cycles
    report = tm.transfer(1, src, dst, 128)
    assert report.ok and report.attempts == 1
    assert report.statuses == ("ok",)
    assert m.image.peek(dst, 128) == m.image.peek(src, 128)
    assert m.cpu.perf.cycles - before == report.cycles > 0
    assert tm.stats()["completed"] == 1


def test_retry_recovers_from_transient_fault(setup):
    m, src, dst = setup
    tm = _manager(m)
    # deterministic transient: patch one forced corrupt ahead of delivery
    link = tm.link_for(1)
    original = link.transfer
    state = {"first": True}

    def flaky(payload):
        if state["first"]:
            state["first"] = False
            return link.force_fault(payload, "corrupt")
        return original(payload)

    link.transfer = flaky
    report = tm.transfer(1, src, dst, 64)
    assert report.ok and report.attempts == 2
    assert report.statuses == ("corrupt", "ok")
    assert tm.stats()["retries"] == 1
    assert m.image.peek(dst, 64) == m.image.peek(src, 64)


def test_terminal_failure_tags_documented_reason_and_leaves_dst_alone(setup):
    m, src, dst = setup
    sentinel = b"\xee" * 64
    m.image.poke(dst, sentinel)
    tm = _manager(m, faults=FaultProfile(corrupt=1.0), seed=4)
    report = tm.transfer(1, src, dst, 64)
    assert not report.ok
    assert report.attempts == link_module.MAX_ATTEMPTS
    assert report.reason == "link-corrupt"
    assert report.reason in FAILURE_REASONS
    assert m.image.peek(dst, 64) == sentinel, "corrupt bytes must never land"


def test_backoff_grows_exponentially(setup, monkeypatch):
    m, _, _ = setup
    _patch(monkeypatch, BACKOFF_BASE_CYCLES=100, BACKOFF_FACTOR=2.0,
           BACKOFF_JITTER=0.0)
    tm = _manager(m)
    assert tm._backoff_cycles(1) == 100
    assert tm._backoff_cycles(2) == 200
    assert tm._backoff_cycles(3) == 400
    _patch(monkeypatch, BACKOFF_JITTER=0.5)
    jittered = _manager(m)
    assert 100 <= jittered._backoff_cycles(1) <= 150


def test_breaker_opens_fast_fails_then_reprobes(setup, monkeypatch):
    m, src, dst = setup
    _patch(monkeypatch, BREAKER_THRESHOLD=2, BREAKER_COOLDOWN_EPOCHS=2)
    tm = _manager(m, faults=FaultProfile(drop=1.0), seed=2)
    assert not tm.transfer(1, src, dst, 64).ok
    assert not tm.transfer(1, src, dst, 64).ok
    assert tm.breaker_state(1) == BREAKER_OPEN
    rejected = tm.transfer(1, src, dst, 64)
    assert rejected.statuses == ("breaker-open",)
    assert rejected.attempts == 0 and rejected.cycles == 0
    assert rejected.reason == "link-partition"
    assert tm.stats()["rejected"] == 1
    # heal the network, wait out the cooldown: the probe closes it
    tm.set_faults(FaultProfile())
    tm.advance_epoch()
    tm.advance_epoch()
    report = tm.transfer(1, src, dst, 64)
    assert report.ok
    assert tm.breaker_state(1) == BREAKER_CLOSED


def test_managers_with_same_seed_replay_identically(setup):
    m, src, dst = setup
    outcomes = []
    for _ in range(2):
        tm = _manager(m, faults=FaultProfile.uniform(0.3), seed=77)
        outcomes.append(tuple(
            tm.transfer(1 + (i % 3), src, dst, 64).statuses for i in range(12)
        ))
    assert outcomes[0] == outcomes[1]


def test_stats_fault_counts_track_statuses(setup, monkeypatch):
    m, src, dst = setup
    _patch(monkeypatch, MAX_ATTEMPTS=3)
    tm = _manager(m, faults=FaultProfile(delay=1.0), seed=0)
    report = tm.transfer(2, src, dst, 64)
    assert not report.ok and report.reason == "link-delay"
    stats = tm.stats()
    assert stats["fault_delay"] == 3
    assert stats["attempts"] == 3 and stats["retries"] == 2
    assert stats["failures"] == 1 and stats["transfers"] == 1
