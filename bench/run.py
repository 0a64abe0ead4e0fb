"""End-to-end benchmark with a per-layer cost ledger.

Usage (from the repository root)::

    python3 bench/run.py                          # all workloads, one process each
    python3 bench/run.py --workload pgas-call --seed 23 --trace 1
    python3 bench/run.py --label base             # record runs under a label
    python3 bench/run.py --compare base change    # medians, quartiles, verdicts

One run of one workload sets the program up several times (``setup_s``
is the median), then drives a closed loop with one client through the
workload's fixed number of ops, checks answers against Python oracles
outside the timed region, prints every metric by name and unit, and ends
with one JSON line.  A speed probe runs between ops and set-ups, and
every reported time is scaled by it to a reference machine speed
(``speed.py``), so that a shared host's changing speed does not show as
a change of the program.  With ``--trace 1`` it then repeats the same seed's
ops under the span recorder (``spans.py``) and reports the per-layer
metrics instead.  Full records are appended to ``bench/out/<label>.jsonl``;
see ``README.md`` for the metrics, bounds and the layer map.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEFAULT_SEED = 11
SETUPS = 5
#: A traced run stops adding ops before its span buffer passes this.
SPAN_LIMIT = 500_000
SPAN_HEADROOM = 20_000
#: Per-op counts that repeat exactly for a given seed; ``--compare``
#: requires them equal.  Every bounded metric is in BENCHMARK.json.
EXACT = ("guest_cycles_per_op", "warm_ratio")


@functools.cache
def spec() -> dict:
    """BENCHMARK.json: workload names, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program():
    """Put the program's sources on the path; fail loudly without them."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"bench: no program sources at {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import spans
    import workloads
    return spans, workloads


# ----------------------------------------------------------- measurement
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def pin_allocator() -> None:
    """Fix glibc's policy for large blocks in this process.

    By default glibc raises its mmap threshold when a large mapped block
    is freed, so whether a copy of a 24 MiB guest segment reuses heap
    memory or maps fresh pages, and page-faults on every one of them,
    depends on the process's allocation history.  Shadow-sampled
    ``pgas-call`` ops took 27 ms in some processes and 60 ms in others,
    decided by the seed.  Pinned, a block of up to 32 MiB always comes
    from the heap and freed heap memory stays for reuse.  Without glibc
    there is nothing to pin."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of already sorted raw samples."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Phase:
    """Observations of one timed loop; times are scaled to the reference
    speed of ``speed.py``."""

    def __init__(self) -> None:
        self.latency_ns: list[float] = []   # the op alone
        self.busy_ns: list[float] = []      # the op plus its settle step
        self.attempted = 0
        self.checked = 0
        self.failed = 0
        self.exact = Counter()              # summed over completed ops
        self.rss_kb = 0                     # ru_maxrss at the end
        self.before = self.after = Counter()
        self.slowdown: list[float] = []     # interpretation's, at each probe

    @property
    def ops(self) -> int:
        return len(self.busy_ns)


def run_ops(w, n: int, recorder=None) -> Phase:
    """The closed loop over ops ``0 .. n-1``.  A traced loop stops
    early, on the same seed's prefix, when its span buffer is nearly
    full.  The speed probe runs between ops, outside any op span."""
    ph = Phase()
    ph.before = Counter(w.counters())
    clock = time.perf_counter_ns
    probe = speed.SpeedProbe(clock)
    probe.sample()
    raw = []  # (start, latency, busy, interpretation share)
    for i in range(n):
        if recorder is not None and len(recorder) > SPAN_LIMIT - SPAN_HEADROOM:
            break
        probe.maybe_sample()
        ph.attempted += 1
        inp = w.next_input(i)
        span = recorder.begin_op(i) if recorder is not None else None
        try:
            t0 = clock()
            out = w.op(inp)
            t1 = clock()
            w.settle(i)
            t2 = clock()
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            if not ph.failed:
                traceback.print_exc()
            ph.failed += 1
            ph.checked += 1
            continue
        finally:
            if span is not None:
                recorder.end_op(span)
        raw.append((t0, t1 - t0, t2 - t0, w.interp_share(i, inp, out)))
        ok = w.check(i, inp, out)
        if ok is not None:
            ph.checked += 1
            ph.failed += not ok
        ph.exact.update(w.exact(out))
    probe.sample()
    ph.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ph.after = Counter(w.counters())
    for t0, latency, busy, share in raw:
        slowdown = probe.slowdown(t0, share)
        ph.latency_ns.append(latency / slowdown)
        ph.busy_ns.append(busy / slowdown)
    ph.slowdown = probe.cpu
    return ph


def set_up(workloads, name: str, seed: int, times: int) -> tuple[object, list[float]]:
    """Build the workload ``times`` times; returns the last build and
    each build's seconds at the reference speed."""
    probe = speed.SpeedProbe()
    probe.sample()
    took = []
    for _ in range(times):
        w = None  # let the previous set-up's program go first
        gc.collect()
        t0 = time.perf_counter_ns()
        w = workloads.WORKLOADS[name](seed)
        w.setup()
        ns = time.perf_counter_ns() - t0
        probe.sample()
        took.append(probe.scale(t0, ns, workloads.SETTING_UP) / 1e9)
    return w, took


def end_to_end(ph: Phase, setup_times: list[float]) -> tuple[dict, dict, dict]:
    """``(metrics, sample counts, exact counts)`` of one untraced phase;
    every metric is ``(value, unit)``."""
    lat = sorted(ph.latency_ns) or [0]
    busy_s = sum(ph.busy_ns) / 1e9
    m = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (ph.ops / busy_s if busy_s else 0.0, "ops/s"),
        "op_p50_ms": (percentile(lat, 0.50) / 1e6, "ms"),
        "op_p90_ms": (percentile(lat, 0.90) / 1e6, "ms"),
        "peak_rss_mb": (ph.rss_kb / 1024, "MB"),
    }
    samples = {f"op_p{q}_ms": f"n={ph.ops}, {ph.ops - math.ceil(q / 100 * ph.ops)} beyond"
               for q in (50, 90)}
    exact = {}
    if ph.ops and "guest_cycles" in ph.exact:
        exact["guest_cycles_per_op"] = ph.exact["guest_cycles"] / ph.ops
    if ph.ops and "warm" in ph.exact:
        exact["warm_ratio"] = ph.exact["warm"] / ph.ops
    return m, samples, exact


def per_layer(spans, rec, ph: Phase, untraced: Phase) -> dict:
    """The per-layer metrics of one traced phase, as ``(value, unit)``."""
    n = ph.ops
    ledger = rec.ledger()
    zero = {"calls": 0, "self_ns": 0, "total_ns": 0}
    d = ph.after - ph.before  # Counter subtraction drops non-positive

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, _, _ in spans.LAYER_SPANS:
        if name == "cc.load":
            row = ledger.get("setup:" + name, zero)
            m[name + ".calls_per_setup"] = (row["calls"], "calls")
            m[name + ".self_us_per_setup"] = (row["self_ns"] / 1e3, "us")
        else:
            row = ledger.get(name, zero)
            m[name + ".calls_per_op"] = (row["calls"] / n, "calls/op")
            m[name + ".self_us_per_op"] = (row["self_ns"] / 1e3 / n, "us/op")
    rewrites = [r for op, r in rec.returns["core.rewriter.rewrite"] if op >= 0]
    traced = sum(t for _, t, _ in rewrites)
    sizes = [size for ok, _, size in rewrites if ok]
    steps = sum(s for op, s in rec.returns["machine.cpu.run"] if op >= 0)
    m["core.rewriter.traced_insns_per_op"] = (traced / n, "insns/op")
    m["core.tracer.ns_per_traced_insn"] = (
        ratio(ledger.get("core.tracer.run", zero)["self_ns"], traced), "ns/insn")
    m["core.emit.code_bytes_per_rewrite"] = (ratio(sum(sizes), len(sizes)), "bytes")
    m["core.resilience.attempts_per_rewrite"] = (
        ratio(d["sup.attempts"], d["sup.rewrites"]), "ratio")
    m["core.manager.hit_ratio"] = (
        ratio(d["mgr.hits"], d["mgr.hits"] + d["mgr.misses"]), "ratio")
    m["service.rewrite_service.warm_hit_ratio"] = (
        ratio(d["svc.warm_hits"], d["svc.requests"]), "ratio")
    m["service.fabric.warm_hit_ratio"] = (
        ratio(d["fab.warm_hits"], d["fab.requests"]), "ratio")
    m["service.fabric.tenant_shed_per_op"] = (d["fab.tenant_shed"] / n, "sheds/op")
    m["core.shadowexec.samples_per_op"] = (d["shadow.samples"] / n, "samples/op")
    m["machine.cpu.guest_insns_per_op"] = (steps / n, "insns/op")
    m["machine.cpu.guest_cycles_per_op"] = (ph.exact["guest_cycles"] / n, "cycles/op")
    m["machine.cpu.ns_per_guest_insn"] = (
        ratio(ledger.get("machine.cpu.run", zero)["self_ns"], steps), "ns/insn")
    m["machine.blockjit.compiles_per_op"] = (d["jit.compiles"] / n, "blocks/op")
    m["machine.blockjit.reuses_per_op"] = (d["jit.reuses"] / n, "blocks/op")
    m["machine.blockjit.interp_fallbacks_per_op"] = (
        d["jit.interp_fallbacks"] / n, "fallbacks/op")
    m["machine.tracejit.trace_compiles_per_op"] = (d["jit.trace_compiles"] / n, "traces/op")
    m["machine.tracejit.trace_iterations_per_op"] = (
        d["jit.trace_iterations"] / n, "iters/op")
    m["machine.tracejit.side_exits_per_op"] = (d["jit.trace_side_exits"] / n, "exits/op")
    op_row = ledger.get(spans.OP_SPAN, zero)
    m["bench.unattributed_us_per_op"] = (op_row["self_ns"] / 1e3 / n, "us/op")
    m["bench.traced_op_us"] = (op_row["total_ns"] / 1e3 / n, "us/op")
    m["bench.trace_overhead_ratio"] = (
        ratio(sum(ph.busy_ns), sum(untraced.busy_ns[:n])), "ratio")
    return m


def measure(name: str, seed: int, traced: bool = False, *, ops: int | None = None,
            setups: int = SETUPS, trace_path: Path | None = None) -> dict:
    """One run of one workload; returns the full record.  ``ops``
    shortens the run for tests.  A traced run writes its spans to
    ``trace_path`` when one is given."""
    spans, workloads = _import_program()
    pin_allocator()
    ops = ops or workloads.WORKLOADS[name].ops
    w, setup_times = set_up(workloads, name, seed, setups)
    ph = run_ops(w, ops)
    metrics, samples, exact = end_to_end(ph, setup_times)
    record = {
        "workload": name, "seed": seed, "ops": ph.ops, "attempted": ph.attempted,
        "checked": ph.checked, "failed": ph.failed,
        "metrics": metrics, "samples": samples, "exact": exact,
        "slowdown": [statistics.median(ph.slowdown), min(ph.slowdown), max(ph.slowdown)],
    }
    if traced:
        w = None
        gc.collect()
        keep = {
            "core.rewriter.rewrite":
                lambda r: (r.ok, r.stats.traced_instructions, r.code_size),
            "machine.cpu.run": lambda r: r.steps,
        }
        with spans.SpanRecorder(keep_returns=keep) as rec:
            span = rec.open(spans.SETUP_SPAN)
            w = workloads.WORKLOADS[name](seed)
            w.setup()
            rec.close(span)
            tph = run_ops(w, ops, recorder=rec)
        record["traced_ops"] = tph.ops
        record["attempted"] += tph.attempted
        record["checked"] += tph.checked
        record["failed"] += tph.failed
        record["layer"] = per_layer(spans, rec, tph, ph)
        record["ledger_table"] = rec.format_ledger(tph.ops)
        if trace_path is not None:
            trace_path.parent.mkdir(exist_ok=True)
            rec.write_jsonl(trace_path)
    return record


# -------------------------------------------------------------- reporting
def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record: dict, traced: bool) -> dict:
    """Print the human table; return the contract's final JSON object."""
    name = record["workload"]
    print(f"== {name}  seed={record['seed']}  attempted={record['attempted']}  "
          f"checked={record['checked']}  failed={record['failed']}")
    for metric, (value, unit) in record["metrics"].items():
        extra = record["samples"].get(metric)
        extra = f"  ({extra})" if extra else ""
        print(f"  {metric:34} {_fmt(value):>14} {unit}{extra}")
    for metric, value in record["exact"].items():
        print(f"  {metric:34} {_fmt(value):>14} (exact)")
    print("  times are scaled to the reference speed; the probe's interpretation part "
          "took {:.2f}x its reference time (median; range {:.2f}-{:.2f})".format(
              *record["slowdown"]))
    if traced:
        print(f"-- per-layer ledger ({record['traced_ops']} traced ops)")
        print(record["ledger_table"])
        for metric, (value, unit) in record["layer"].items():
            print(f"  {metric:52} {_fmt(value):>14} {unit}")
    wanted = spec()["per_layer"] if traced else spec()["end_to_end"]
    source = record["layer"] if traced else record["metrics"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]}
            for m in wanted
        },
    }


def _label_path(label: str) -> Path:
    path = Path(label)
    return path if path.suffix == ".jsonl" else OUT / f"{label}.jsonl"


def run_one(args) -> int:
    record = measure(args.workload, args.seed, bool(args.trace),
                     trace_path=OUT / f"trace-{args.workload}.jsonl")
    OUT.mkdir(exist_ok=True)
    with open(_label_path(args.label), "a") as f:
        slim = {k: v for k, v in record.items() if k != "ledger_table"}
        f.write(json.dumps(slim) + "\n")
    result = report(record, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    status = 0
    for w in (x["name"] for x in spec()["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--trace", str(args.trace),
               "--label", args.label]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


# ---------------------------------------------------------------- compare
def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """Judge change ``b`` against parent ``a``: a metric whose parent
    spread is wider than its bound is unresolved unless every change run
    beats every parent run."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1 if better == "lower" else -1
    q1, _, q3 = statistics.quantiles(a, n=4)
    spread = (q3 - q1) / abs(med_a) if med_a else 0.0
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "worse"
    return "within bound"


def _row(workload: str, metric: str, unit: str, v: str, a: list, b: list) -> dict:
    qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    return {
        "workload": workload, "metric": metric, "unit": unit, "verdict": v,
        "a": {"median": statistics.median(a), "q1": qa[0], "q3": qa[2]},
        "b": {"median": statistics.median(b), "q1": qb[0], "q3": qb[2]},
    }


def compare(label_a: str, label_b: str) -> int:
    """Per workload: every end-to-end metric against its BENCHMARK.json
    bound, every EXACT count equal per seed, and no failed op."""
    sets = []
    for label in (label_a, label_b):
        by_workload: dict[str, list[dict]] = {}
        for line in _label_path(label).read_text().splitlines():
            rec = json.loads(line)
            by_workload.setdefault(rec["workload"], []).append(rec)
        sets.append(by_workload)
    rows, status = [], 0
    for w in sorted(set(sets[0]) & set(sets[1])):
        runs_a, runs_b = sets[0][w], sets[1][w]
        if min(len(runs_a), len(runs_b)) < 5:
            print(f"{w}: need at least 5 runs on each side "
                  f"(have {len(runs_a)} and {len(runs_b)})")
            status = 2
            continue
        for m in spec()["end_to_end"]:
            a = [r["metrics"][m["name"]][0] for r in runs_a]
            b = [r["metrics"][m["name"]][0] for r in runs_b]
            rows.append(_row(w, m["name"], m["unit"],
                             verdict(a, b, m["better"], m["bound"]), a, b))
        for metric in EXACT:
            by_seed: dict[int, set] = {}
            for r in runs_a + runs_b:
                if metric in r["exact"]:
                    by_seed.setdefault(r["seed"], set()).add(r["exact"][metric])
            a = [r["exact"][metric] for r in runs_a if metric in r["exact"]]
            b = [r["exact"][metric] for r in runs_b if metric in r["exact"]]
            if len(a) > 1 and len(b) > 1:
                same = all(len(values) == 1 for values in by_seed.values())
                rows.append(_row(w, metric, "exact", "match" if same else "CHANGED", a, b))
        a = [r["failed"] for r in runs_a]
        b = [r["failed"] for r in runs_b]
        rows.append(_row(w, "failed", "ops", "match" if max(a + b) == 0 else "FAILED", a, b))
    for r in rows:
        if r["verdict"] in ("worse", "CHANGED", "FAILED"):
            status = 1
    print(f"{'workload':15} {'metric':20} {'A median [q1, q3]':34} "
          f"{'B median [q1, q3]':34} verdict")
    for r in rows:
        cells = [f"{_fmt(s['median'])} [{_fmt(s['q1'])}, {_fmt(s['q3'])}]"
                 for s in (r["a"], r["b"])]
        print(f"{r['workload']:15} {r['metric']:20} {cells[0]:34} {cells[1]:34} "
              f"{r['verdict']}")
    OUT.mkdir(exist_ok=True)
    (OUT / "compare.json").write_text(json.dumps(rows, indent=1))
    return status


def main(argv=None) -> int:
    names = [w["name"] for w in spec()["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="accepted from the benchmark contract's command line and "
                        "not used: a run's length is its workload's fixed op count")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    p.add_argument("--label", default="runs",
                   help="append full records to bench/out/<label>.jsonl")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two labels (or .jsonl files) of >= 5 runs each")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
