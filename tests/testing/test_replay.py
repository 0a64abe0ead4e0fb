"""Deterministic replay of crash bundles and repro minimization."""

from __future__ import annotations

import dataclasses

import pytest

from repro.asm.assembler import assemble
from repro.core import BREW_KNOWN, brew_init_conf, brew_setpar
from repro.core.forensics import ForensicsHub
from repro.core.resilience import RewriteSupervisor
from repro.errors import RewriteFailure
from repro.machine.vm import Machine
from repro.service import RewriteService
from repro.service.fabric import RewriteFabric
from repro.testing import (
    materialize_torture_bundle,
    minimize_bundle,
    replay_bundle,
    run_torture,
)
from repro.testing.replay import _ddmin, _shrink_length, rendezvous_successor

SOURCE = """
noinline long poly(long x, long k) { return x * k + k; }
noinline long poly_evil(long x, long k) { return x * k + k + 1; }
"""


def _conf():
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    return conf


@pytest.fixture(scope="module")
def rewrite_bundle():
    """An organic indirect-jump terminal failure, captured."""
    machine = Machine()
    machine.load(SOURCE)
    entry = machine.image.add_function("ij", bytes(64))
    code, _ = assemble("jmpi rdi", entry)
    machine.image.poke(entry, code)
    hub = ForensicsHub()
    RewriteSupervisor(machine, forensics=hub).rewrite(_conf(), "ij", 7, 3)
    return hub.bundles[0]


@pytest.fixture(scope="module")
def torture_bundles():
    hub = ForensicsHub()
    run_torture(424242, 10, jit_parity=False, forensics=hub)
    return list(hub.bundles)


# ------------------------------------------------------------- per kind
def test_rewrite_failure_replays_to_identical_fingerprint(rewrite_bundle):
    out = replay_bundle(rewrite_bundle)
    assert out.ok
    assert out.replayed_reason == "indirect-jump"
    assert out.replayed_fingerprint == rewrite_bundle.fingerprint


def test_shadow_divergence_replays_to_identical_fingerprint():
    machine = Machine()
    machine.load(SOURCE)
    hub = ForensicsHub()
    service = RewriteService(machine, shadow_interval=1, forensics=hub)
    service.request(_conf(), "poly", 0, 3)
    service.drain()
    key = service.manager.key_for("poly", _conf(), (5, 3))
    assert service.manager.publish(key, machine.image.resolve("poly_evil"))
    service.call(_conf(), "poly", 5, 3)
    (bundle,) = hub.bundles
    out = replay_bundle(bundle)
    assert out.ok
    assert out.replayed_reason == "shadow-divergence"


def test_every_torture_bundle_replays_identically(torture_bundles):
    assert torture_bundles, "seed 424242 must produce non-verified images"
    for bundle in torture_bundles:
        out = replay_bundle(bundle)
        assert out.ok, (bundle.reason, out.replayed_reason)


def test_fabric_deaths_replay_from_the_journal():
    hub = ForensicsHub()
    fabric = RewriteFabric(SOURCE, shards=3, seed=9, forensics=hub)
    for i in range(6):
        fabric.request(f"t{i % 2}", _conf(), "poly", i, 3 + i)
    fabric.crash_shard(1)
    fabric.pump(1)
    fabric.stall_shard(0)
    fabric.pump(10)
    fabric.close()
    causes = {b.evidence["cause"] for b in hub.bundles}
    assert "heartbeat-timeout" in causes and any("crash" in c for c in causes)
    for bundle in hub.bundles:
        out = replay_bundle(bundle)
        assert out.ok, (bundle.evidence["cause"], out.evidence)


# ---------------------------------------------------------- strict mode
def test_strict_replay_raises_replay_mismatch_on_tampered_evidence(rewrite_bundle):
    tampered = dataclasses.replace(
        rewrite_bundle,
        evidence={**rewrite_bundle.evidence, "reason": "decode-error"},
        reason="decode-error",
    ).seal()
    with pytest.raises(RewriteFailure) as exc:
        replay_bundle(tampered, strict=True)
    assert exc.value.reason == "replay-mismatch"


def test_strict_replay_passes_a_faithful_bundle(rewrite_bundle):
    assert replay_bundle(rewrite_bundle, strict=True).ok


# ------------------------------------------------------------ minimizer
def test_minimizer_shrinks_requests_and_guest_code(torture_bundles):
    mat = materialize_torture_bundle(torture_bundles[0])
    assert mat.kind == "rewrite-failure"
    assert replay_bundle(mat).ok
    padded = dataclasses.replace(mat, requests=list(mat.requests) * 4)
    report = minimize_bundle(padded)
    assert report.requests_after < report.requests_before == 4
    assert report.code_bytes_after < report.code_bytes_before
    assert report.replays <= 200
    out = replay_bundle(report.bundle)
    assert out.ok
    assert out.replayed_reason == mat.reason


def test_minimizer_rejects_non_rewrite_failure_bundles(torture_bundles):
    with pytest.raises(ValueError):
        minimize_bundle(torture_bundles[0])


# ------------------------------------------------------------ the units
def test_ddmin_finds_a_single_failing_item():
    items = list(range(16))
    failing = lambda kept: 11 in kept
    assert _ddmin(items, failing) == [11]


def test_ddmin_keeps_a_failing_pair():
    items = list(range(8))
    failing = lambda kept: 2 in kept and 5 in kept
    assert _ddmin(items, failing) == [2, 5]


def test_ddmin_on_empty_or_unshrinkable_input():
    assert _ddmin([], lambda kept: True) == []
    assert _ddmin([1, 2], lambda kept: len(kept) == 2) == [1, 2]


def test_shrink_length_descends_to_the_smallest_failing_size():
    assert _shrink_length(512, lambda n: n >= 12) == 12
    assert _shrink_length(512, lambda n: True) == 1
    assert _shrink_length(512, lambda n: n >= 512) == 512


def test_rendezvous_successor_is_deterministic_and_live():
    live = [0, 2, 4]
    a = rendezvous_successor("digest-x", live, seed=7)
    assert a == rendezvous_successor("digest-x", live, seed=7)
    assert a in live
    assert rendezvous_successor("digest-x", [a], seed=7) == a
