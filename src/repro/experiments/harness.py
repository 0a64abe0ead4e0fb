"""Experiment result structures, paper-style table formatting, the
``BENCH_<slug>.json`` record writer, and the measurement helpers the
execution-tier experiments share."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Row:
    """One measurement row (mirrors how Sec. V reports one variant)."""

    label: str
    cycles: int | float | None = None
    #: ratio against the experiment's baseline row (1.0 = baseline)
    ratio: float | None = None
    #: what the paper reported for the same quantity, if it did
    paper: str = ""
    note: str = ""


@dataclass
class ShapeCheck:
    """A qualitative claim that must hold for the reproduction to count."""

    description: str
    holds: bool


@dataclass
class Experiment:
    """One reproduced table/figure: rows, shape checks, optional listing."""
    id: str
    title: str
    paper_locus: str
    rows: list[Row] = field(default_factory=list)
    checks: list[ShapeCheck] = field(default_factory=list)
    listing: str = ""  # for figure-style experiments (EXP-2)
    #: Rewrite-health counters for the run (supervisor/manager ``stats()``
    #: merged by the experiment): attempts, ladder recoveries, validation
    #: failures, fallbacks... rendered as a footer by :func:`format_table`.
    health: dict = field(default_factory=dict)

    @property
    def all_checks_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def check(self, description: str, holds: bool) -> None:
        self.checks.append(ShapeCheck(description, holds))


def _fmt_cycles(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return f"{value:,}"


def format_table(exp: Experiment) -> str:
    """Render an experiment the way the paper's prose reports it."""
    lines = [
        f"== {exp.id}: {exp.title}",
        f"   (paper: {exp.paper_locus})",
        "",
    ]
    if exp.rows:
        label_w = max(len(r.label) for r in exp.rows) + 2
        lines.append(f"   {'variant':<{label_w}}{'cycles':>14}  {'ratio':>8}  {'paper':>10}  note")
        for r in exp.rows:
            ratio = f"{r.ratio:.1%}" if r.ratio is not None else "-"
            lines.append(
                f"   {r.label:<{label_w}}{_fmt_cycles(r.cycles):>14}  {ratio:>8}  "
                f"{r.paper:>10}  {r.note}"
            )
    if exp.listing:
        lines.append("")
        lines.extend("   " + line for line in exp.listing.splitlines())
    if exp.checks:
        lines.append("")
        for c in exp.checks:
            lines.append(f"   [{'ok' if c.holds else 'FAIL'}] {c.description}")
    if exp.health:
        rewrites = exp.health.get("rewrites", 0)
        fallbacks = exp.health.get("fallbacks", 0)
        rate = f"{fallbacks / rewrites:.0%}" if rewrites else "n/a"
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(exp.health.items()))
        lines.append("")
        lines.append(f"   rewrite health: {pairs}")
        lines.append(f"   fallback rate: {rate}")
    lines.append("")
    return "\n".join(lines)


def _record(exp: Experiment) -> dict:
    """A machine-readable snapshot of one experiment run."""
    doc = {
        "id": exp.id,
        "title": exp.title,
        "paper_locus": exp.paper_locus,
        "rows": [
            {
                "label": r.label,
                "cycles": r.cycles,
                "ratio": r.ratio,
                "paper": r.paper,
                "note": r.note,
            }
            for r in exp.rows
        ],
        "checks": [
            {"description": c.description, "holds": c.holds} for c in exp.checks
        ],
        "health": dict(exp.health),
    }
    # experiments that embed a one-line metrics snapshot in their listing
    # get it parsed back out as structured data; any other listing (the
    # Figure 6 disassembly) is kept as text
    if exp.listing.startswith("metrics "):
        doc["metrics"] = json.loads(exp.listing[len("metrics "):])
    elif exp.listing:
        doc["listing"] = exp.listing
    return doc


def write_record(exp: Experiment) -> None:
    """Save ``exp`` as ``BENCH_<slug>.json`` in the current directory
    (``EXT-10`` -> ``BENCH_ext10.json``).  The text is canonical (indent
    2, sorted keys, trailing newline), so a re-run that moved nothing
    leaves the committed file byte-identical and ``git diff`` shows
    exactly the rows that moved."""
    slug = exp.id.lower().replace("-", "")
    Path(f"BENCH_{slug}.json").write_text(
        json.dumps(_record(exp), indent=2, sort_keys=True) + "\n")


def result_fingerprint(result) -> tuple:
    """Everything architectural about one run, bitwise-comparable."""
    return (
        result.uint_return,
        struct.pack("<d", result.float_return),
        result.steps,
        tuple(sorted(result.perf.as_dict().items())),
    )


def best_of(run_fn, rounds: int):
    """Best-of-``rounds`` wall clock of ``run_fn()`` in seconds (the
    minimum is the least-noise estimate) and the last run's result."""
    best = None
    result = None
    for _ in range(rounds):
        started = perf_counter()
        result = run_fn()
        elapsed = perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result
