"""``python -m repro.experiments`` — print every experiment table."""

from __future__ import annotations

import sys

from repro.experiments import ALL_EXPERIMENTS, format_table


def experiment_id(fn) -> str:
    """The id an experiment function reports, read off its name
    (``ext10_tracejit`` -> ``EXT-10``), so filtering runs only the
    requested experiments."""
    head = fn.__name__.split("_", 1)[0]
    letters = head.rstrip("0123456789")
    return f"{letters.upper()}-{head[len(letters):]}"


def main(argv: list[str]) -> int:
    """Print the requested experiment tables (all when no ids given)."""
    wanted = set(a.upper() for a in argv)
    failures = 0
    for fn in ALL_EXPERIMENTS:
        if wanted and experiment_id(fn) not in wanted:
            continue
        exp = fn()
        print(format_table(exp))
        if not exp.all_checks_hold:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) failed their shape checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
