"""Checks of the benchmark itself; run with ``python -m pytest bench/``.

The workload runs here are shortened to a few ops each; no reported
number comes from them.
"""

from __future__ import annotations

import importlib
import itertools
import re
import sys
import types

import pytest

import run
import speed

spans, _ = run._import_program()

#: A few ops per workload: enough to reach a retune, a shadow sample and
#: a fabric pump with a publish.
SHORT = {"stencil-sweep": 3, "pgas-call": 24, "fabric-churn": 400, "stencil-retune": 5}
NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


def _short(name: str, traced: bool = False) -> dict:
    return run.measure(name, seed=5, traced=traced, ops=SHORT[name], setups=1)


def _holders():
    """Every ``(holder, attribute, value)`` the recorder may patch."""
    out = []
    for _, module, qualname in spans.LAYER_SPANS:
        mod = importlib.import_module(module)
        owner, _, attr = qualname.rpartition(".")
        if owner:
            cls = getattr(mod, owner)
            out.append((cls, attr, vars(cls)[attr]))
            continue
        original = getattr(mod, attr)
        for mod_name, holder in list(sys.modules.items()):
            if mod_name == "repro" or mod_name.startswith("repro."):
                out.extend((holder, key, value) for key, value in vars(holder).items()
                           if value is original)
    return out


def test_self_time_is_duration_minus_direct_children():
    ticks = iter([0, 10, 20, 30, 60, 70, 90, 100, 200, 205])
    rec = spans.SpanRecorder(targets=(), clock=lambda: next(ticks))
    op = rec.begin_op(0)            # [0, 100]
    a = rec.open("a")               # [10, 60]
    b = rec.open("b")               # [20, 30], child of a
    rec.close(b)
    rec.close(a)
    c = rec.open("c")               # [70, 90]
    rec.close(c)
    rec.end_op(op)
    s = rec.open("setup")           # [200, 205], outside any op
    rec.close(s)
    assert list(rec.parent) == [-1, 0, 1, 0, -1]
    assert rec.self_times() == [30, 40, 10, 20, 5]
    ledger = rec.ledger()
    assert ledger[spans.OP_SPAN] == {"calls": 1, "self_ns": 30, "total_ns": 100}
    assert ledger["setup:setup"]["self_ns"] == 5
    inside = [v["self_ns"] for k, v in ledger.items() if not k.startswith("setup:")]
    assert sum(inside) == ledger[spans.OP_SPAN]["total_ns"]


def test_speed_probe_blends_the_bracketing_samples():
    ms, mem = 1_000_000, speed.REF_MEM_NS

    def sample_ticks(at, cpu_ns):
        # each part runs twice; the faster run counts
        return [at, 0, cpu_ns, 0, cpu_ns + 5 * ms, 0, mem, 0, 2 * mem]

    ticks = iter(sample_ticks(0, 2 * ms) + sample_ticks(10 * ms, 4 * ms))
    probe = speed.SpeedProbe(clock=lambda: next(ticks))
    probe.sample()
    probe.sample()
    assert probe.slowdown(5 * ms, 1.0) == pytest.approx(3.0)
    assert probe.slowdown(5 * ms, 0.0) == pytest.approx(1.0)
    assert probe.scale(5 * ms, 600, 0.5) == pytest.approx(300)


def test_recorder_restores_every_original():
    import repro.core.rewriter

    before = _holders()
    late = types.ModuleType("repro.bench_late_import")
    try:
        with spans.SpanRecorder() as rec:
            for holder, attr, original in before:
                assert getattr(holder, attr) is not original
            # a module first imported while the recorder is installed
            late.rewrite = repro.core.rewriter.rewrite
            sys.modules[late.__name__] = late
            from repro.machine.vm import Machine

            Machine().load("long f(long x) { return x + 1; }")
    finally:
        sys.modules.pop(late.__name__, None)
    assert [getattr(h, a) for h, a, _ in before] == [o for _, _, o in before]
    assert rec.ledger()["setup:cc.load"]["calls"] == 1
    import repro.core.manager
    import repro.core.resilience

    assert repro.core.resilience.rewrite is repro.core.rewriter.rewrite
    assert repro.core.manager.rewrite is repro.core.rewriter.rewrite
    assert late.rewrite is repro.core.rewriter.rewrite


@pytest.fixture(scope="module")
def short_runs():
    return {name: (_short(name), _short(name)) for name in SHORT}


def test_every_end_to_end_metric_is_reported(short_runs):
    wanted = [m["name"] for m in run.spec()["end_to_end"]]
    for name, (first, _) in short_runs.items():
        result = run.report(first, traced=False)
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] == SHORT[name]
        assert list(result["metrics"]) == wanted
        for metric in itertools.chain(result["metrics"], first["exact"]):
            assert NAME.fullmatch(metric), metric


def test_deterministic_counts_repeat(short_runs):
    for name, (first, second) in short_runs.items():
        assert first["exact"] == second["exact"], name
    assert short_runs["stencil-sweep"][0]["exact"]["guest_cycles_per_op"] > 0
    assert short_runs["fabric-churn"][0]["exact"]["warm_ratio"] > 0


@pytest.mark.parametrize("name", list(SHORT))
def test_traced_run_ledger_adds_up_and_restores(name, short_runs):
    before = _holders()
    record = _short(name, traced=True)
    assert [getattr(h, a) for h, a, _ in before] == [o for _, _, o in before]
    result = run.report(record, traced=True)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in run.spec()["per_layer"]]
    assert all(NAME.fullmatch(metric) for metric in result["metrics"])
    layer = {k: v for k, (v, _) in record["layer"].items()}
    assert set(layer) == set(result["metrics"])
    spans_us = sum(v for k, v in layer.items() if k.endswith(".self_us_per_op"))
    total = spans_us + layer["bench.unattributed_us_per_op"]
    assert total == pytest.approx(layer["bench.traced_op_us"], rel=1e-9)
    untraced = short_runs[name][0]["exact"]
    assert layer["machine.cpu.guest_cycles_per_op"] == untraced.get("guest_cycles_per_op", 0)
