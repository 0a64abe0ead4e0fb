"""RewriteService behaviour: non-blocking misses, publication, coalescing,
withdrawal of stale variants (announced or not), and shutdown."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.core import brew_init_conf, brew_setpar, BREW_KNOWN, BREW_PTR_TO_KNOWN
from repro.core.manager import SpecializationManager
from repro.core.resilience import RewriteSupervisor
from repro.machine.vm import Machine
from repro.obs import Metrics
from repro.service import RewriteService

SOURCE = """
struct Cfg { long scale; long bias; };
noinline long apply_cfg(long x, struct Cfg *c) { return x * c->scale + c->bias; }
noinline long poly(long x, long k) { return x * k + k; }
noinline long scaled(long x, struct Cfg *c) { return x * c->scale; }
"""


@pytest.fixture()
def machine() -> Machine:
    m = Machine()
    m.load(SOURCE)
    return m


def _poly_conf():
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    return conf


# -------------------------------------------------------------- the queue
def test_cold_miss_returns_original_and_queues(machine):
    svc = RewriteService(machine)
    original = machine.image.resolve("poly")
    entry = svc.request(_poly_conf(), "poly", 0, 3)
    assert entry == original
    assert svc.pending() == 1
    # the original is immediately runnable — the caller never blocked
    assert machine.call(entry, 5, 3).int_return == 18
    stats = svc.stats()
    assert stats["cold_misses"] == 1 and stats["publishes"] == 0


def test_step_publishes_and_next_request_is_warm(machine):
    svc = RewriteService(machine)
    original = machine.image.resolve("poly")
    svc.request(_poly_conf(), "poly", 0, 3)
    assert svc.step() == 1
    assert svc.pending() == 0
    warm = svc.request(_poly_conf(), "poly", 123456, 3)  # unknown arg differs
    assert warm != original
    assert machine.call(warm, 5, 3).int_return == 18
    stats = svc.stats()
    assert stats["warm_hits"] == 1 and stats["publishes"] == 1


def test_duplicate_requests_coalesce(machine):
    svc = RewriteService(machine)
    svc.request(_poly_conf(), "poly", 0, 3)
    svc.request(_poly_conf(), "poly", 0, 3)
    svc.request(_poly_conf(), "poly", 7, 3)
    assert svc.pending() == 1, "same key must occupy one queue slot"
    assert svc.stats()["coalesced"] == 2
    assert svc.drain() == 1


def test_distinct_keys_queue_separately(machine):
    svc = RewriteService(machine)
    svc.request(_poly_conf(), "poly", 0, 3)
    svc.request(_poly_conf(), "poly", 0, 4)  # known arg differs: new key
    assert svc.pending() == 2
    assert svc.drain() == 2
    e3 = svc.request(_poly_conf(), "poly", 0, 3)
    e4 = svc.request(_poly_conf(), "poly", 0, 4)
    assert e3 != e4
    assert machine.call(e3, 5, 3).int_return == 18
    assert machine.call(e4, 5, 4).int_return == 24


def test_failed_rewrite_never_publishes(machine):
    svc = RewriteService(machine)
    conf = _poly_conf()
    conf.max_output_instructions = 1  # dooms the rewrite
    original = machine.image.resolve("poly")
    assert svc.request(conf, "poly", 0, 3) == original
    svc.drain()
    assert svc.request(conf, "poly", 0, 3) == original
    stats = svc.stats()
    assert stats["failures"] == 1 and stats["publishes"] == 0
    # the manager quarantined it, so the re-request coalesced into the
    # backoff window rather than re-queueing a doomed rewrite
    assert svc.manager.stats()["quarantined"] == 1


def test_invalidation_withdraws_published_entries(machine):
    svc = RewriteService(machine)
    cfg = machine.image.malloc(16)
    machine.memory.write_u64(cfg, 2)
    machine.memory.write_u64(cfg + 8, 10)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    original = machine.image.resolve("apply_cfg")
    svc.request(conf, "apply_cfg", 0, cfg)
    svc.drain()
    warm = svc.request(conf, "apply_cfg", 0, cfg)
    assert warm != original
    assert machine.call(warm, 5, cfg).int_return == 20
    # descriptor mutates: manager eviction must withdraw the table entry
    machine.memory.write_u64(cfg, 7)
    assert svc.manager.invalidate_memory(cfg, cfg + 8) == 1
    cold = svc.request(conf, "apply_cfg", 0, cfg)
    assert cold == original, "stale specialization must not be served"
    svc.drain()
    fresh = svc.request(conf, "apply_cfg", 0, cfg)
    assert machine.call(fresh, 5, cfg).int_return == 45
    assert svc.stats()["withdrawn"] >= 1


def test_ptr_to_known_publish_leaves_one_table_entry(machine):
    """An unsupervised rewrite does not mutate the config it was queued
    with, so the entry is published under the request key alone."""
    svc = RewriteService(machine)
    cfg = machine.image.malloc(16)
    machine.memory.write_u64(cfg, 2)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    svc.request(conf, "apply_cfg", 0, cfg)
    svc.drain()
    assert svc.stats()["publishes"] == 1
    published = svc.manager.published_entries()
    assert list(published) == [svc.manager.key_for("apply_cfg", conf, (0, cfg))]


def test_service_routes_through_supervisor(machine):
    """A manager whose rewrites go through a supervisor charges the
    shared metrics registry end to end."""
    metrics = Metrics()
    supervisor = RewriteSupervisor(machine, metrics=metrics)
    manager = SpecializationManager(
        machine, rewrite_fn=supervisor.rewrite, metrics=metrics
    )
    svc = RewriteService(machine, manager=manager, metrics=metrics)
    svc.request(_poly_conf(), "poly", 0, 3)
    svc.drain()
    entry = svc.request(_poly_conf(), "poly", 0, 3)
    assert machine.call(entry, 5, 3).int_return == 18
    result = manager.get(_poly_conf(), "poly", 0, 3)  # cache hit
    assert result.validated and result.ladder_rung == 0
    for name in ("service.requests", "service.publishes", "manager.misses",
                 "supervisor.rewrites", "supervisor.validations"):
        assert metrics.value(name) > 0, name


def test_queue_depth_gauge_tracks_pending(machine):
    svc = RewriteService(machine)
    svc.request(_poly_conf(), "poly", 0, 3)
    svc.request(_poly_conf(), "poly", 0, 4)
    assert svc.metrics.value("service.queue_depth") == 2
    svc.step()
    svc.step()
    assert svc.metrics.value("service.queue_depth") == 0


def test_the_callers_thread_is_the_only_schedule(machine):
    """There is no worker pool to configure and no lock to take: queued
    rewrites run only in ``step``/``drain`` on the caller's thread."""
    for option in ({"mode": "thread"}, {"max_workers": 2}):
        with pytest.raises(TypeError):
            RewriteService(machine, **option)
    assert not hasattr(RewriteService(machine), "lock")


def test_no_module_under_src_starts_threads():
    """Why no lock is needed: nothing in the package imports a thread
    API, so no second thread ever touches a machine."""
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
        assert not imported & {"threading", "_thread", "concurrent.futures"}, path


# ------------------------------------------------- satellite regressions
def test_inflight_released_when_the_worker_crashes(machine):
    """A crashing manager/rewrite_fn must not pin the key in _inflight:
    every later request would coalesce against a rewrite that will
    never land (the cold path would be stuck on the original forever)."""
    svc = RewriteService(machine)
    original = machine.image.resolve("poly")
    assert svc.request(_poly_conf(), "poly", 0, 3) == original

    real_get = svc.manager.get

    def crashing_get(conf, fn, *args):
        raise RuntimeError("injected worker crash")

    svc.manager.get = crashing_get
    with pytest.raises(RuntimeError):
        svc.step()
    svc.manager.get = real_get

    # the key is free again: the re-request queues (does NOT coalesce)
    assert svc.request(_poly_conf(), "poly", 0, 3) == original
    assert svc.pending() == 1
    assert svc.stats()["coalesced"] == 0
    svc.drain()
    assert svc.request(_poly_conf(), "poly", 0, 3) != original


def test_invalidation_racing_a_rewrite_never_publishes_stale(machine):
    """Deterministic interleaving of the publish/withdraw race: the
    cache entry is invalidated after the rewrite completes but before
    the worker publishes.  The worker must notice (the manager no
    longer holds the key) and drop the publication."""
    svc = RewriteService(machine)
    cfg = machine.image.malloc(16)
    machine.memory.write_u64(cfg, 2)
    machine.memory.write_u64(cfg + 8, 10)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    original = machine.image.resolve("apply_cfg")
    svc.request(conf, "apply_cfg", 0, cfg)

    real_get = svc.manager.get

    def racy_get(got_conf, fn, *args):
        result = real_get(got_conf, fn, *args)
        # the descriptor mutates in the window between rewrite
        # completion and publication
        machine.memory.write_u64(cfg, 7)
        assert svc.manager.invalidate_memory(cfg, cfg + 8) == 1
        return result

    svc.manager.get = racy_get
    svc.step()
    svc.manager.get = real_get

    assert svc.metrics.value("service.publish_races") == 1
    assert svc.stats()["publishes"] == 0
    assert svc.stats()["published"] == 0, "no stale entry may be reachable"
    # the caller keeps the original and the next cycle specializes fresh
    assert svc.request(conf, "apply_cfg", 0, cfg) == original
    svc.drain()
    fresh = svc.request(conf, "apply_cfg", 0, cfg)
    assert machine.call(fresh, 5, cfg).int_return == 45


@pytest.mark.parametrize("dispatch", ["request", "call"])
def test_unannounced_write_to_known_memory_is_never_served(machine, dispatch):
    """A warm hit passes the manager's freshness rule: after a write to
    the known descriptor that nobody announced, the next dispatch gets
    the original (the stale variant is withdrawn), and the variant
    republished after ``drain`` reads the new value."""
    svc = RewriteService(machine)
    cfg = machine.image.malloc(16)
    machine.memory.write_u64(cfg, 2)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    original = machine.image.resolve("scaled")
    svc.request(conf, "scaled", 0, cfg)
    svc.drain()
    entry = svc.request(conf, "scaled", 5, cfg)
    assert entry != original and machine.call(entry, 5, cfg).int_return == 10

    machine.memory.write_u64(cfg, 7)  # no invalidate_memory
    if dispatch == "request":
        assert svc.request(conf, "scaled", 5, cfg) == original
    else:
        assert svc.call(conf, "scaled", 5, cfg).int_return == 35
    assert svc.stats()["withdrawn"] == 1 and svc.pending() == 1

    svc.drain()
    fresh = svc.request(conf, "scaled", 5, cfg)
    assert fresh != original and machine.call(fresh, 5, cfg).int_return == 35


# ------------------------------------------------------ shutdown contract
def test_close_is_idempotent_and_drains(machine):
    svc = RewriteService(machine)
    svc.request(_poly_conf(), "poly", 0, 3)
    svc.close()
    svc.close()  # idempotent: the second call is a no-op, not an error
    assert svc.pending() == 0, "close drains queued work first"
    assert svc.stats()["publishes"] == 1


def test_context_manager_closes_and_drains(machine):
    original = machine.image.resolve("poly")
    with RewriteService(machine) as svc:
        assert svc.request(_poly_conf(), "poly", 0, 3) == original
    assert svc._closed
    # close() drained: the rewrite landed before shutdown
    assert svc.stats()["publishes"] == 1


def test_invalidation_after_close_withdraws_the_published_entry(machine):
    """Published variants live in the manager, so a manager outliving
    the service still withdraws them: nothing stale stays reachable."""
    svc = RewriteService(machine)
    cfg = machine.image.malloc(16)
    machine.memory.write_u64(cfg, 2)
    machine.memory.write_u64(cfg + 8, 10)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    svc.request(conf, "apply_cfg", 0, cfg)
    svc.drain()
    assert svc.stats()["published"] == 1
    svc.close()
    machine.memory.write_u64(cfg, 7)
    assert svc.manager.invalidate_memory(cfg, cfg + 8) == 1
    assert svc.stats()["withdrawn"] == 1
    assert svc.stats()["published"] == 0
