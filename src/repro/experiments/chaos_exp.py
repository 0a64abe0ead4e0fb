"""EXT-3: chaos sweep over the unreliable interconnect (extension).

The fault-tolerant distributed runtime under test: the EXT-1 RDMA
prefetcher and the EXT-2 distributed stencil run for several epochs
while the interconnect drops, corrupts, delays and partitions bulk
transfers at increasing probability.  The claims this experiment
regenerates are the robustness analogue of the paper's Sec. III.G story:

* at fault probability 0.0 the resilient paths reproduce the EXT-1 /
  EXT-2 results of a lab's default, clean interconnect bit-for-bit (a
  seeded fault profile that never fires costs nothing);
* at every probability > 0 every sweep still produces the correct
  answer — graceful degradation to the per-access remote path, never a
  wrong result, never an escaping exception;
* every injected fault surfaces as a tagged, documented failure reason
  from :data:`repro.errors.FAILURE_REASONS`;
* the cycle cost of surviving faults is measured honestly (retries,
  backoff, timeouts and surcharged fallback sweeps all hit the same
  cycle counter the clean path uses).
"""

from __future__ import annotations

import json

from repro.errors import FAILURE_REASONS
from repro.experiments.harness import Experiment, Row
from repro.machine.link import FaultProfile, TransferManager
from repro.obs import Metrics
from repro.models.distributed_stencil import DistributedStencilLab
from repro.models.pgas import PgasLab
from repro.models.rdma import RdmaPrefetcher

#: Fault probabilities swept (per attempt, via FaultProfile.uniform).
CHAOS_PROBS = (0.0, 0.05, 0.2, 0.6)
#: Epochs per probability step (enough for breakers to trip and cool).
CHAOS_EPOCHS = 5
#: Seed for the whole campaign — the sweep is replayable bit-for-bit.
CHAOS_SEED = 1234


def _chaos_cell(p: float, epochs: int, seed: int) -> dict:
    """Run one probability step: ``epochs`` resilient RDMA epochs plus
    ``epochs`` resilient stencil epochs under ``FaultProfile.uniform(p)``.
    Returns the measurements; any escaping exception or wrong answer is
    recorded, not raised (the experiment's checks assert on them)."""
    cell = {
        "p": p, "cycles": 0, "sweeps": 0, "correct": 0,
        "fallbacks": 0, "promotions": 0, "escapes": 0,
        "reasons": set(), "stats": {},
        "rdma_answers": [], "stencil_outs": [],
    }
    profile = FaultProfile.uniform(p)

    lab = PgasLab(nelems=512, nnodes=4)
    lab.transfers = TransferManager(lab.machine, faults=profile, seed=seed)
    pre = RdmaPrefetcher(lab)
    lo, hi = lab.block, 4 * lab.block
    ref_sum = lab.reference_sum(lo, hi)
    for _ in range(epochs):
        try:
            rr = pre.run_resilient(lo, hi)
        except Exception:  # noqa: BLE001 — "zero escaping exceptions"
            cell["escapes"] += 1
            continue
        cell["sweeps"] += 1
        cell["cycles"] += rr.total_cycles
        cell["correct"] += abs(rr.run.float_return - ref_sum) < 1e-9
        cell["fallbacks"] += rr.path == "remote-fallback"
        cell["promotions"] += rr.path == "redirected"
        cell["reasons"].update(rr.failures)
        cell["rdma_answers"].append(rr.run.float_return)

    slab = DistributedStencilLab(xs=16, rows_per_node=4, nnodes=3)
    slab.transfers = TransferManager(slab.machine, faults=profile, seed=seed)
    oracle = slab.reference_out()
    for _ in range(epochs):
        try:
            ep = slab.run_resilient()
        except Exception:  # noqa: BLE001
            cell["escapes"] += 1
            continue
        out = slab.read_out()
        cell["sweeps"] += 1
        cell["cycles"] += ep.outcome.total_cycles
        cell["correct"] += all(abs(a - b) < 1e-9 for a, b in zip(out, oracle))
        cell["fallbacks"] += ep.path == "remote-fallback"
        cell["promotions"] += ep.path == "halo"
        cell["reasons"].update(ep.failures)
        cell["stencil_outs"].append(out)

    stats = lab.transfers.stats()
    for key, value in slab.transfers.stats().items():
        stats[key] = stats.get(key, 0) + value
    cell["stats"] = stats
    return cell


def _clean_baselines() -> tuple[float, list[float]]:
    """The EXT-1 / EXT-2 results on a fresh lab's clean interconnect,
    which the p=0.0 cell must reproduce bit-for-bit."""
    lab = PgasLab(nelems=512, nnodes=4)
    pre = RdmaPrefetcher(lab)
    run = pre.run_resilient(lab.block, 4 * lab.block).run

    slab = DistributedStencilLab(xs=16, rows_per_node=4, nnodes=3)
    slab.run_halo_prefetched()
    return run.float_return, slab.read_out()


def ext3_chaos(
    probs: tuple = CHAOS_PROBS,
    epochs: int = CHAOS_EPOCHS,
    seed: int = CHAOS_SEED,
) -> Experiment:
    """EXT-3: fault-probability sweep of the resilient distributed paths."""
    exp = Experiment(
        "EXT-3", "Chaos sweep: unreliable interconnect, graceful degradation",
        "extension of Sec. III.G + VIII: the robustness contract applied "
        "to the distributed runtime — faults degrade performance, never "
        "correctness",
    )
    cells = [_chaos_cell(p, epochs, seed) for p in probs]
    baseline = cells[0]["cycles"] or 1

    # the observability layer consumes the campaign: per-cell link stats
    # become counters, per-cell survival cost a cycle histogram, and the
    # one-line JSON snapshot is embedded in the table (benchmarks
    # persist it, so fault-tolerance cost is machine-readable per PR)
    metrics = Metrics()
    health: dict = {}
    for cell in cells:
        metrics.record("chaos.cell_cycles", cell["cycles"])
        metrics.inc("chaos.sweeps", cell["sweeps"])
        metrics.inc("chaos.fallbacks", cell["fallbacks"])
        for key, value in cell["stats"].items():
            metrics.inc(f"link.{key}", value)
    for cell in cells:
        note = (
            f"{cell['correct']}/{cell['sweeps']} correct, "
            f"{cell['fallbacks']} fallbacks, "
            f"{cell['stats'].get('retries', 0)} retries, "
            f"{cell['stats'].get('breaker_trips', 0)} breaker trips"
        )
        exp.rows.append(Row(
            f"fault probability {cell['p']:.2f}",
            cell["cycles"], cell["cycles"] / baseline, note=note,
        ))
        for key, value in cell["stats"].items():
            health[key] = health.get(key, 0) + value

    rdma_clean, stencil_clean = _clean_baselines()
    clean = cells[0]
    exp.check(
        "p=0.00 reproduces EXT-1/EXT-2 bit-for-bit",
        all(a == rdma_clean for a in clean["rdma_answers"])
        and all(out == stencil_clean for out in clean["stencil_outs"])
        and clean["fallbacks"] == 0,
    )
    exp.check(
        "every sweep correct at every fault probability",
        all(c["correct"] == c["sweeps"] == 2 * epochs for c in cells),
    )
    exp.check(
        "zero escaping exceptions",
        all(c["escapes"] == 0 for c in cells),
    )
    exp.check(
        "faults actually happened and degraded service at high p",
        cells[-1]["fallbacks"] > 0 and health.get("failures", 0) > 0,
    )
    all_reasons = set().union(*(c["reasons"] for c in cells))
    exp.check(
        "every transfer failure carries a documented link-* reason",
        bool(all_reasons)
        and all(
            r in FAILURE_REASONS and r.startswith("link-") for r in all_reasons
        ),
    )
    exp.check(
        "surviving faults costs cycles (no free lunch)",
        cells[-1]["cycles"] > cells[0]["cycles"],
    )
    snapshot = metrics.snapshot_json()
    parsed = json.loads(snapshot)
    exp.check(
        "metrics snapshot is valid one-line JSON and the campaign moved it",
        "\n" not in snapshot
        and parsed["counters"].get("chaos.sweeps", 0) > 0
        and parsed["histograms"]["chaos.cell_cycles"]["count"] == len(cells),
    )
    exp.health = health
    exp.listing = "metrics " + snapshot
    return exp
