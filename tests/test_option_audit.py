"""Every constructor option of the runtime layers has a caller.

An option with a default that no code in ``src/``, ``bench/`` or
``examples/`` passes is a configuration that only tests reach: it
multiplies what the tests must cover and buys nothing a caller uses.
This test scans those directories' calls of each audited class (by
name, ``Cls(...)`` or ``module.Cls(...)``) and fails on an option that
none of them passes, positionally or by keyword.  A ``**options``
splat names nothing, so it counts for no option.  Tests are not
callers, so ``tests/`` is not scanned.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

from repro.core.forensics import ForensicsHub
from repro.core.manager import SpecializationManager
from repro.core.resilience import RewriteSupervisor
from repro.core.shadowexec import ShadowSampler
from repro.machine.link import Link, TransferManager
from repro.machine.vm import Machine
from repro.models.rdma import RdmaPrefetcher
from repro.obs.flightrec import FlightRecorder
from repro.service import RewriteFabric, RewriteService, RewriteShard

ROOT = Path(__file__).resolve().parents[1]

#: The directories whose calls count.
CALLER_DIRS = ("src", "bench", "examples")

AUDITED = (
    Machine, RewriteService, RewriteShard, RewriteFabric, TransferManager,
    Link, ShadowSampler, RewriteSupervisor, ForensicsHub, FlightRecorder,
    SpecializationManager, RdmaPrefetcher,
)

#: Options no call in ``CALLER_DIRS`` passes, kept on purpose.
ALLOWED_UNSET = {
    # the directory bundles are saved to; CI's crash-forensics entry sets it
    ("ForensicsHub", "out_dir"),
    # wall-clock budget and its injectable clock
    ("RewriteSupervisor", "deadline_seconds"),
    ("RewriteSupervisor", "clock"),
}


def _options(cls) -> list[str]:
    """The constructor parameters of ``cls`` that have a default."""
    return [
        p.name for p in inspect.signature(cls).parameters.values()
        if p.default is not inspect.Parameter.empty
    ]


def _passed() -> dict[str, set[str]]:
    """Class name -> every parameter some scanned call passes."""
    by_name = {cls.__name__: cls for cls in AUDITED}
    passed: dict[str, set[str]] = {name: set() for name in by_name}
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None)
                if name not in by_name:
                    continue
                params = list(inspect.signature(by_name[name]).parameters)
                positional = [a for a in node.args
                              if not isinstance(a, ast.Starred)]
                passed[name].update(params[:len(positional)])
                passed[name].update(kw.arg for kw in node.keywords if kw.arg)
    return passed


@pytest.fixture(scope="module")
def passed() -> dict[str, set[str]]:
    return _passed()


@pytest.mark.parametrize("cls", AUDITED, ids=lambda cls: cls.__name__)
def test_every_option_is_passed_by_some_caller(cls, passed):
    unset = [
        option for option in _options(cls)
        if option not in passed[cls.__name__]
        and (cls.__name__, option) not in ALLOWED_UNSET
    ]
    assert not unset, (
        f"{cls.__name__} options no call in {', '.join(CALLER_DIRS)} "
        f"passes: {unset}; make each a module constant or pass it"
    )


def test_the_allowlist_names_real_unset_options(passed):
    """An allowlisted option that a caller now passes, or that no
    longer exists, must leave the allowlist."""
    by_name = {cls.__name__: cls for cls in AUDITED}
    for name, option in sorted(ALLOWED_UNSET):
        assert option in _options(by_name[name]), (name, option)
        assert option not in passed[name], (name, option)
