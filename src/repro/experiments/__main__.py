"""``python -m repro.experiments [--write] [ID ...]`` — run experiments.

Prints every table (only the named ones when ids are given, e.g.
``ext-10``).  ``--write`` also saves each run as ``BENCH_<slug>.json``
in the current directory.  Exit status: 0 when every shape check holds,
1 when one fails (after every table is printed and written), 2 for an
unknown id (nothing runs).
"""

from __future__ import annotations

import sys

from repro.experiments import ALL_EXPERIMENTS, format_table
from repro.experiments.harness import write_record


def experiment_id(fn) -> str:
    """The id an experiment function reports, read off its name
    (``ext10_tracejit`` -> ``EXT-10``), so filtering runs only the
    requested experiments."""
    head = fn.__name__.split("_", 1)[0]
    letters = head.rstrip("0123456789")
    return f"{letters.upper()}-{head[len(letters):]}"


def main(argv: list[str]) -> int:
    """Run the requested experiments (all when no ids are given), print
    their tables and, with ``--write``, save their records."""
    write = "--write" in argv
    ids = [a for a in argv if a != "--write"]
    known = [experiment_id(fn) for fn in ALL_EXPERIMENTS]
    unknown = [a for a in ids if a.upper() not in known]
    if unknown:
        print(f"unknown experiment id(s): {' '.join(unknown)} "
              f"(known: {' '.join(known)})", file=sys.stderr)
        return 2
    wanted = {a.upper() for a in ids}
    failures = 0
    for fn in ALL_EXPERIMENTS:
        if wanted and experiment_id(fn) not in wanted:
            continue
        exp = fn()
        print(format_table(exp))
        if write:
            write_record(exp)
        if not exp.all_checks_hold:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) failed their shape checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
