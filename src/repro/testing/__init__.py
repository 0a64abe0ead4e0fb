"""Test-support utilities: fault injection for the rewrite pipeline
and its resilience layers, adversarial images, and crash-bundle replay.

Nothing in this package is used by the rewriter itself; it exists so the
test suite (and CI's fault-injection / chaos smoke jobs) can prove the
robustness contracts *mechanically*: every induced failure anywhere in
the rewrite pipeline must surface as a tagged failed ``RewriteResult``,
and every induced interconnect fault as a tagged failed
``TransferReport`` — never as a raw traceback, never as a wrong answer.
:data:`~repro.testing.faultinject.SEAMS` is the one list of injectable
fault kinds: one row per kind names its group, its taxonomy reason, the
attribute it patches and the wrapper that patches it; every other list
of kinds here is read off it.
:mod:`repro.testing.replay` closes the loop for Layer 5: every captured
``REPRO-BUNDLE`` must re-execute to the identical failure reason and
bit-for-bit fingerprint, and :func:`minimize_bundle` shrinks it toward
a minimal repro.
"""

from repro.testing.faultinject import (
    ALL_FAULT_KINDS,
    ASSURANCE_FAULT_KINDS,
    EXPECTED_REASON,
    FABRIC_FAULT_KINDS,
    FAULT_KINDS,
    FORENSICS_FAULT_KINDS,
    NETWORK_FAULT_KINDS,
    SEAMS,
    TORTURE_FAULT_KINDS,
    FaultInjector,
    plan_faults,
)
from repro.testing.replay import (
    MinimizeReport,
    ReplayOutcome,
    materialize_torture_bundle,
    minimize_bundle,
    replay_bundle,
)
from repro.testing.torture import (
    TORTURE_CLASSES,
    TortureImage,
    TortureReport,
    classify_image,
    generate_images,
    run_torture,
)

__all__ = [
    "ALL_FAULT_KINDS",
    "ASSURANCE_FAULT_KINDS",
    "EXPECTED_REASON",
    "FABRIC_FAULT_KINDS",
    "FAULT_KINDS",
    "FORENSICS_FAULT_KINDS",
    "NETWORK_FAULT_KINDS",
    "SEAMS",
    "TORTURE_CLASSES",
    "TORTURE_FAULT_KINDS",
    "FaultInjector",
    "MinimizeReport",
    "ReplayOutcome",
    "TortureImage",
    "TortureReport",
    "classify_image",
    "generate_images",
    "materialize_torture_bundle",
    "minimize_bundle",
    "plan_faults",
    "replay_bundle",
    "run_torture",
]
