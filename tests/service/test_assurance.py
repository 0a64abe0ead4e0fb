"""Continuous assurance at the service level: the shadowed `call` path,
probation after snapshot restore, admission control and the watchdog."""

from __future__ import annotations

import pytest

from repro.core import brew_init_conf, brew_setpar, BREW_KNOWN
from repro.core.manager import SpecializationManager
from repro.machine.vm import Machine
from repro.obs import Metrics
from repro.service import RewriteService
from repro.testing import FaultInjector

SOURCE = """
noinline long poly(long x, long k) { return x * k + k; }
noinline long poly_evil(long x, long k) { return x * k + k + 1; }
noinline long mix(long x, long k) { return x * x + k; }
"""


class _TickClock:
    """Deterministic monotonic clock (advances per reading)."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@pytest.fixture()
def machine() -> Machine:
    m = Machine()
    m.load(SOURCE)
    return m


def _conf(**overrides):
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    for name, value in overrides.items():
        setattr(conf, name, value)
    return conf


def _assured(machine, **options) -> RewriteService:
    clock = _TickClock()
    manager = SpecializationManager(
        machine, clock=clock, backoff_seconds=0.016, max_backoff_seconds=0.256
    )
    svc = RewriteService(
        machine, manager=manager, shadow_interval=1, **options
    )
    svc.clock = clock
    return svc


def _warm(svc, k=3):
    svc.request(_conf(), "poly", 0, k)
    svc.drain()
    return svc.manager.key_for("poly", _conf(), (0, k))


# --------------------------------------------------------- shadowed call
def test_sampled_match_serves_the_variant(machine):
    svc = _assured(machine)
    key = _warm(svc)
    run = svc.call(_conf(), "poly", 5, 3)
    assert run.int_return == 18
    assert svc.stats()["shadow_samples"] == 1
    assert key in svc.manager.published_entries(), (
        "a matching variant stays published")


def test_divergence_withdraws_quarantines_and_records_a_repro(machine):
    svc = _assured(machine)
    key = _warm(svc)
    # the miscompile: the published body silently starts lying
    assert svc.manager.publish(key, machine.image.resolve("poly_evil"))
    run = svc.call(_conf(), "poly", 5, 3)
    # the sampled call never delivers the wrong answer
    assert run.int_return == 18
    assert key not in svc.manager.published_entries(), (
        "the lying variant is withdrawn")
    assert svc.manager.stats()["quarantined"] == 1
    assert svc.stats()["shadow_divergences"] == 1
    (repro,) = svc.divergences
    assert repro.failure.reason == "shadow-divergence"
    assert repro.args == (5, 3)
    assert "int return diverged" in repro.description
    # post-withdrawal calls run the original — still correct
    assert svc.call(_conf(), "poly", 6, 3).int_return == 21


def test_requalified_key_republishes_on_probation(machine):
    svc = _assured(machine)
    key = _warm(svc)
    assert svc.manager.publish(key, machine.image.resolve("poly_evil"))
    svc.call(_conf(), "poly", 5, 3)  # divergence: withdrawn + quarantined
    svc.clock.now += 1.0  # backoff expires
    svc.request(_conf(), "poly", 0, 3)
    svc.drain()
    assert svc.manager.published(key) and svc.manager.on_probation(key), (
        "a key withdrawn for divergence must re-enter on probation"
    )
    assert svc.call(_conf(), "poly", 5, 3).int_return == 18
    assert not svc.manager.on_probation(key), "the matching call re-admits it"


def test_unsampled_calls_run_the_published_entry(machine):
    svc = RewriteService(machine, shadow_interval=1000, shadow_seed=7)
    _warm(svc)
    runs = [svc.call(_conf(), "poly", x, 3).int_return for x in range(5)]
    assert runs == [3 * x + 3 for x in range(5)]
    assert svc.stats()["shadow_samples"] <= 1


def test_call_without_shadow_sampler_still_works(machine):
    svc = RewriteService(machine)
    assert svc.call(_conf(), "poly", 5, 3).int_return == 18  # cold
    svc.drain()
    assert svc.call(_conf(), "poly", 5, 3).int_return == 18  # warm


def test_shadow_fault_class_end_to_end(machine):
    """`shadow` injection: a correct variant is observed lying once —
    the service must withdraw it exactly as for an organic miscompile."""
    svc = _assured(machine)
    key = _warm(svc)
    with FaultInjector("shadow") as fault:
        run = svc.call(_conf(), "poly", 5, 3)
    assert fault.fired
    assert run.int_return == 18
    assert key not in svc.manager.published_entries()
    assert svc.manager.stats()["quarantined"] == 1


# ----------------------------------------------------------- persistence
def test_restore_publishes_on_probation_and_revalidates(machine, tmp_path):
    svc = _assured(machine)
    key = _warm(svc)
    path = tmp_path / "spec.snap"
    svc.save_snapshot(path)

    fresh = Machine()
    fresh.load(SOURCE)
    svc2 = _assured(fresh)
    report = svc2.restore_snapshot(path)
    assert report.restored == 1 and not report.rejected
    assert svc2.manager.published(key) and svc2.manager.on_probation(key)
    assert svc2.stats()["restored_publishes"] == 1
    # first call shadow-validates and admits
    assert svc2.call(_conf(), "poly", 5, 3).int_return == 18
    assert not svc2.manager.on_probation(key)
    assert svc2.stats()["probation_admits"] == 1
    # and it is a warm hit, not a re-rewrite
    assert svc2.stats()["publishes"] == 0


def test_restore_rejects_corrupt_record_and_cold_starts_that_key(
    machine, tmp_path
):
    svc = _assured(machine)
    _warm(svc, k=3)
    _warm(svc, k=5)
    path = tmp_path / "spec.snap"
    with FaultInjector("snapshot", nth=2):  # bit-rot the first entry
        svc.save_snapshot(path)

    fresh = Machine()
    fresh.load(SOURCE)
    svc2 = _assured(fresh)
    report = svc2.restore_snapshot(path)
    assert len(report.rejected) == 1
    assert report.rejected[0].reason == "snapshot-corrupt"
    assert report.restored == 1
    # both keys still produce correct answers: one restored+validated,
    # one cold-missed back through the rewrite queue
    for k in (3, 5):
        assert svc2.call(_conf(), "poly", 5, k).int_return == 5 * k + k
        svc2.drain()


# ----------------------------------------------------- admission control
def test_bounded_queue_sheds_deterministically(machine):
    svc = RewriteService(machine, max_queue_depth=1)
    original = machine.image.resolve("poly")
    entries = [svc.request(_conf(), "poly", 0, k) for k in (3, 4, 5)]
    assert entries == [original] * 3, "shed callers keep the original"
    assert svc.pending() == 1
    assert svc.stats()["shed"] == 2
    assert len(svc.shed_log) == 2
    assert all("service-shed" in message for _, message in svc.shed_log)
    svc.drain()
    # pressure gone: the same keys admit again
    svc.request(_conf(), "poly", 0, 4)
    assert svc.pending() == 1


def test_retry_budget_exhaustion_sheds(machine):
    svc = _assured(machine, retry_budget=1)
    doomed = _conf(max_output_instructions=1)
    svc.request(doomed, "poly", 0, 3)
    svc.drain()  # failure #1 consumes the budget
    assert svc.stats()["failures"] == 1
    svc.clock.now += 1.0  # quarantine backoff expires
    svc.request(doomed, "poly", 0, 3)
    assert svc.pending() == 0, "over-budget key must not re-enter the queue"
    assert svc.stats()["shed"] == 1
    assert "retry budget" in svc.shed_log[-1][1]


def test_watchdog_aborts_stuck_rewrites_into_the_ladder(machine):
    svc = RewriteService(machine, watchdog_max_trace_steps=3)
    original = machine.image.resolve("mix")
    assert svc.request(_conf(), "mix", 0, 9) == original
    svc.drain()
    assert svc.stats()["failures"] == 1 and svc.stats()["publishes"] == 0
    cached = svc.manager.cached_result(
        svc.manager.key_for("mix", _conf(), (0, 9))
    )
    assert cached is not None and cached.reason == "trace-limit"
    # the caller keeps the original; nothing wedged
    assert machine.call(svc.request(_conf(), "mix", 0, 9), 5, 9
                        ).int_return == 34


def test_shed_fault_class_forces_a_shed(machine):
    svc = RewriteService(machine)
    original = machine.image.resolve("poly")
    with FaultInjector("shed") as fault:
        entry = svc.request(_conf(), "poly", 0, 3)
    assert fault.fired
    assert entry == original and svc.pending() == 0
    assert svc.stats()["shed"] == 1
    # the next, uninjected request admits normally
    svc.request(_conf(), "poly", 0, 3)
    assert svc.pending() == 1
