"""Deterministic replay of crash bundles + automatic repro minimization.

The payoff half of Layer 5 (:mod:`repro.core.forensics` is the capture
half).  :func:`replay_bundle` takes a ``REPRO-BUNDLE`` and re-executes
the failure from scratch:

* **rewrite-failure** — rebuild the bit-identical machine from the
  bundle's segment records, rebuild the config and supervisor (same
  ladder, same validation seed, same trace/output budgets; the
  wall-clock deadline deliberately does not replay), re-run the
  recorded request sequence and recompute the terminal result;
* **shadow-divergence** — rebuild the machine, attach a fresh
  always-sample :class:`~repro.core.shadowexec.ShadowSampler` and
  re-run the variant under shadow supervision of the original;
* **torture** — rebuild the image from its seeded spec (a pure
  function) and re-classify with
  :func:`~repro.testing.torture.classify_image`;
* **fabric-shard-death** — a *pure* re-execution: recompute every moved
  digest's rendezvous successor from (digest, seed, live shards) and,
  for heartbeat deaths, re-run the watchdog arithmetic over the
  journaled per-tick heartbeat pictures.

The replay recomputes the kind-specific evidence record organically and
derives the replay fingerprint from it
(:func:`~repro.core.forensics.bundle_fingerprint`); a faithful replay
reproduces the recorded failure reason *and* the recorded fingerprint
bit-for-bit.  ``strict=True`` turns any mismatch into a tagged
``replay-mismatch`` :class:`~repro.errors.RewriteFailure`.

:func:`minimize_bundle` is the delta-debugging half: starting from a
replayable ``rewrite-failure`` bundle it shrinks (1) the request
sequence (ddmin over the warm-up prefix; the final failing request is
always kept), (2) the failing function's code bytes (exponential
descent on the still-fails prefix length), and (3) the known-config
(dropping known-memory ranges and known-parameter declarations one at a
time) — accepting a candidate only when its replay fails with the
*same* taxonomy reason.  :func:`materialize_torture_bundle` converts a
spec-based torture bundle into a segment-based rewrite-failure bundle
first, so torture repros are image-shrinkable too.  This generalizes
PR-4's :class:`~repro.core.shadowexec.DivergenceRepro` from "the args
that diverged" to "the smallest world that still fails".
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field, replace

from repro.errors import RewriteFailure
from repro.core.forensics import (
    CrashBundle, bundle_fingerprint, conf_fingerprint, conf_from_doc,
    conf_to_doc, capture_machine, fabric_evidence, restore_machine,
    rewrite_evidence, shadow_evidence, torture_evidence,
)
from repro.core.resilience import RewriteSupervisor
from repro.core.shadowexec import ShadowSampler
from repro.testing.torture import TortureImage, classify_image


@dataclass
class ReplayOutcome:
    """What a deterministic re-execution of one bundle produced.

    ``ok`` is the headline: the replay reproduced both the recorded
    failure reason and the recorded bit-for-bit fingerprint.  The
    recorded/replayed pairs are kept separately so a mismatch is
    debuggable, and ``evidence`` is the organically recomputed record
    the replayed fingerprint digests."""

    kind: str
    recorded_reason: str
    replayed_reason: str
    recorded_fingerprint: str
    replayed_fingerprint: str
    evidence: dict = field(default_factory=dict)

    @property
    def reason_matches(self) -> bool:
        """True when the replay failed for the recorded taxonomy reason."""
        return self.recorded_reason == self.replayed_reason

    @property
    def fingerprint_matches(self) -> bool:
        """True when the recomputed evidence digests identically."""
        return self.recorded_fingerprint == self.replayed_fingerprint

    @property
    def ok(self) -> bool:
        """Reason and fingerprint both reproduced."""
        return self.reason_matches and self.fingerprint_matches


# ============================================================ per-kind replay
def _supervisor_from_settings(machine, settings: dict) -> RewriteSupervisor:
    """A replay supervisor configured from
    :meth:`~repro.core.resilience.RewriteSupervisor.replay_settings`
    (no wall-clock deadline — see that method)."""
    return RewriteSupervisor(
        machine,
        validation_vectors=int(settings.get("validation_vectors", 3)),
        validation_seed=int(settings.get("validation_seed", 0)),
        validation_max_steps=int(
            settings.get("validation_max_steps", 2_000_000)
        ),
        max_trace_steps=settings.get("max_trace_steps"),
        max_output_instructions=settings.get("max_output_instructions"),
    )


def _request_target(request: dict):
    """The ``fn`` a recorded request resolves: entry addresses round-trip
    through JSON as ints, symbol names as strings — both resolvable."""
    return request["fn"]


def _replay_rewrite_failure(bundle: CrashBundle) -> tuple[str, dict]:
    machine = restore_machine(bundle.machine)
    conf = conf_from_doc(bundle.conf)
    supervisor = _supervisor_from_settings(machine, bundle.settings)
    result = None
    fn = None
    args: tuple = ()
    for request in bundle.requests:
        fn = _request_target(request)
        args = tuple(request["args"])
        result = supervisor.rewrite(conf, fn, *args)
    if result is None:
        raise RewriteFailure("bundle-corrupt", "bundle has no request records")
    return result.reason, rewrite_evidence(fn, args, result)


def _replay_shadow_divergence(bundle: CrashBundle) -> tuple[str, dict]:
    machine = restore_machine(bundle.machine)
    request = bundle.requests[-1]
    args = tuple(request["args"])
    entry = int(request["entry"])
    original = int(request["original"])
    sampler = ShadowSampler(machine, interval=1, seed=0)
    outcome = sampler.run_shadowed(entry, original, args)
    description = outcome.divergence if outcome.divergence is not None else ""
    reason = "shadow-divergence" if outcome.divergence else "no-divergence"
    return reason, shadow_evidence(args, entry, original, description)


def _replay_torture(bundle: CrashBundle) -> tuple[str, dict]:
    spec_doc = bundle.spec
    if spec_doc is None:
        raise RewriteFailure("bundle-corrupt", "torture bundle has no spec")
    spec = TortureImage(
        index=int(spec_doc["index"]), kind=spec_doc["kind"],
        seed=int(spec_doc["seed"]),
        known_params=tuple(spec_doc["known_params"]),
    )
    record, info = classify_image(
        spec,
        max_steps=int(bundle.settings.get("max_steps", 60_000)),
        jit_parity=bool(bundle.settings.get("jit_parity", True)),
    )
    reason = record["reason"] or record["classification"]
    evidence = torture_evidence(
        dict(spec_doc), record["classification"], record["reason"],
        info["oracle"], tuple(info["outcome"] or ()),
    )
    return reason, evidence


def rendezvous_successor(digest: str, live: list, seed: int) -> int | None:
    """The fabric's rendezvous choice, recomputed from first principles
    (same hash material as ``RewriteFabric._owner_for``): the live shard
    index with the highest seeded score for ``digest``."""
    best = None
    best_score = b""
    for index in live:
        score = hashlib.sha1(f"{digest}|{seed}|{index}".encode()).digest()
        if best is None or score > best_score:
            best, best_score = index, score
    return best


def _replay_fabric_death(bundle: CrashBundle) -> tuple[str, dict]:
    recorded = bundle.evidence
    live = [int(i) for i in recorded["live"]]
    seed = int(recorded["seed"])
    shard = int(recorded["shard"])
    cause = recorded["cause"]
    # the recomputed half: every moved digest independently re-picks its
    # successor over the recorded live set
    moved = [
        [digest, rendezvous_successor(digest, live, seed)]
        for digest, _ in recorded["moved"]
    ]
    tick = recorded["tick"]
    if cause == "heartbeat-timeout":
        # pure watchdog re-run over the journaled per-tick pictures:
        # the death tick is the first tick whose recorded heartbeat
        # silence crosses the dead_after threshold
        tick = None
        for row in bundle.journal:
            if row.get("channel") != "fabric" or row.get("event") != "tick":
                continue
            data = row["data"]
            beat = data["beats"].get(str(shard))
            if beat is None:
                continue
            if data["tick"] - beat >= recorded["dead_after"]:
                tick = data["tick"]
                break
    evidence = fabric_evidence(
        shard=shard, cause=cause, tick=tick, moved=moved, live=live,
        seed=seed, suspect_after=recorded["suspect_after"],
        dead_after=recorded["dead_after"],
    )
    return "shard-dead", evidence


_REPLAYERS = {
    "rewrite-failure": _replay_rewrite_failure,
    "shadow-divergence": _replay_shadow_divergence,
    "torture": _replay_torture,
    "fabric-shard-death": _replay_fabric_death,
}


def replay_bundle(bundle: CrashBundle, *, strict: bool = False) -> ReplayOutcome:
    """Re-execute ``bundle`` deterministically (module docstring).

    Returns a :class:`ReplayOutcome`; with ``strict=True`` a reason or
    fingerprint mismatch raises ``replay-mismatch`` instead of
    returning — the taxonomy-tagged form CI jobs assert on."""
    replayer = _REPLAYERS.get(bundle.kind)
    if replayer is None:
        raise RewriteFailure(
            "bundle-corrupt", f"no replayer for bundle kind {bundle.kind!r}"
        )
    reason, evidence = replayer(bundle)
    outcome = ReplayOutcome(
        kind=bundle.kind,
        recorded_reason=bundle.reason,
        replayed_reason=reason,
        recorded_fingerprint=bundle.fingerprint,
        replayed_fingerprint=bundle_fingerprint(bundle.kind, reason, evidence),
        evidence=evidence,
    )
    if strict and not outcome.ok:
        raise RewriteFailure(
            "replay-mismatch",
            f"replay of {bundle.kind} bundle diverged: "
            f"reason {outcome.recorded_reason!r} -> "
            f"{outcome.replayed_reason!r}, fingerprint "
            f"{outcome.recorded_fingerprint[:12]} -> "
            f"{outcome.replayed_fingerprint[:12]}",
        )
    return outcome


# ================================================================ minimizer
@dataclass
class MinimizeReport:
    """What the delta-debugging minimizer achieved on one bundle.

    ``bundle`` is the minimized repro, re-sealed (its evidence and
    fingerprint recomputed from its own replay, so it round-trips
    through :func:`replay_bundle` like any captured bundle).  The
    before/after pairs quantify the shrink; ``replays`` counts how many
    candidate replays the search spent."""

    bundle: CrashBundle
    requests_before: int
    requests_after: int
    code_bytes_before: int
    code_bytes_after: int
    known_items_before: int
    known_items_after: int
    replays: int


def _ddmin(items: list, still_fails) -> list:
    """Classic ddmin over ``items``: the smallest (order-preserving)
    subset for which ``still_fails`` holds, assuming it holds for the
    full list.  Deterministic — chunk order is positional."""
    if still_fails([]):
        return []
    granularity = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // granularity)
        reduced = False
        for start in range(0, len(items), chunk):
            candidate = items[:start] + items[start + chunk:]
            if candidate != items and still_fails(candidate):
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items


def _shrink_length(size: int, still_fails) -> int:
    """The smallest prefix length in ``[1, size]`` for which
    ``still_fails`` holds, by exponential descent: halve the step on
    every refusal, walk down on every acceptance.  Assumes
    ``still_fails(size)`` (the caller verified the unshrunk bundle
    replays) but not monotonicity — a non-monotone predicate just
    yields a larger-than-optimal (still valid) prefix."""
    best = size
    step = size // 2
    while step >= 1:
        trial = best - step
        if trial >= 1 and still_fails(trial):
            best = trial
        else:
            step //= 2
    return best


def _code_prefix_bundle(bundle: CrashBundle, entry: int, length: int) -> CrashBundle:
    """A candidate bundle whose failing function keeps only its first
    ``length`` code bytes (the tail is zeroed, its recorded size
    shrunk).  Pure: the input bundle is never mutated."""
    doc = copy.deepcopy(bundle.machine)
    size = int(doc["function_sizes"][str(entry)])
    for seg in doc["segments"]:
        if seg["name"] != "code":
            continue
        data = bytearray(bytes.fromhex(seg["data"]))
        offset = entry - int(seg["base"])
        for i in range(offset + length, min(offset + size, len(data))):
            data[i] = 0
        seg["data"] = bytes(data).rstrip(b"\0").hex()
        break
    doc["function_sizes"] = dict(doc["function_sizes"])
    doc["function_sizes"][str(entry)] = length
    return replace(bundle, machine=doc)


def _entry_code_size(bundle: CrashBundle) -> tuple[int | None, int]:
    """The failing request's entry address and recorded code size, or
    ``(None, 0)`` when the bundle's target is symbolic (code-shrinking
    needs an address to anchor the prefix)."""
    fn = bundle.requests[-1]["fn"]
    if not isinstance(fn, int):
        return None, 0
    sizes = (bundle.machine or {}).get("function_sizes", {})
    size = int(sizes.get(str(fn), 0))
    return (fn, size) if size > 0 else (None, 0)


def _known_items(conf_doc: dict) -> int:
    """How many shrinkable knowledge declarations a config doc carries
    (known-memory ranges + declared-known parameters)."""
    params = sum(
        len(options["params"]) for _, options in conf_doc["functions"]
    )
    return len(conf_doc["known_memory"]) + params


def minimize_bundle(
    bundle: CrashBundle, *, max_replays: int = 200
) -> MinimizeReport:
    """Shrink a ``rewrite-failure`` bundle toward a minimal repro
    (module docstring has the three phases).  The acceptance criterion
    is *reason equality*: a candidate survives only when its replay
    fails with the recorded taxonomy reason (fingerprints legitimately
    drift as warm-up requests disappear, the reason must not).

    Raises ``RewriteFailure`` (``replay-mismatch``) when the input
    bundle itself does not replay to its recorded reason — a repro that
    cannot reproduce is not worth minimizing."""
    if bundle.kind != "rewrite-failure":
        raise ValueError(
            "minimize_bundle shrinks rewrite-failure bundles; convert "
            "torture bundles with materialize_torture_bundle() first"
        )
    counter = {"replays": 0}

    def fails_same(candidate: CrashBundle) -> bool:
        if counter["replays"] >= max_replays:
            return False
        counter["replays"] += 1
        try:
            outcome = replay_bundle(candidate)
        except RewriteFailure:
            return False  # a candidate that corrupts the replay is no repro
        return outcome.replayed_reason == bundle.reason

    if not fails_same(bundle):
        raise RewriteFailure(
            "replay-mismatch",
            "bundle does not reproduce its recorded reason; refusing to "
            "minimize an unfaithful repro",
        )

    # phase 1 — ddmin the warm-up request prefix (keep the failing tail)
    final = bundle.requests[-1]
    prefix = list(bundle.requests[:-1])
    requests_before = len(bundle.requests)
    kept_prefix = _ddmin(
        prefix,
        lambda cand: fails_same(replace(bundle, requests=cand + [final])),
    )
    current = replace(bundle, requests=kept_prefix + [final])

    # phase 2 — shrink the failing function's code bytes
    entry, size = _entry_code_size(current)
    code_before = size
    code_after = size
    if entry is not None:
        length = _shrink_length(
            size,
            lambda n: fails_same(_code_prefix_bundle(current, entry, n)),
        )
        if length < size:
            current = _code_prefix_bundle(current, entry, length)
            code_after = length

    # phase 3 — drop knowledge declarations one at a time (greedy)
    known_before = _known_items(current.conf)
    changed = True
    while changed:
        changed = False
        conf_doc = current.conf
        for i in range(len(conf_doc["known_memory"])):
            cand_doc = copy.deepcopy(conf_doc)
            del cand_doc["known_memory"][i]
            candidate = replace(current, conf=cand_doc)
            if fails_same(candidate):
                current = candidate
                changed = True
                break
        if changed:
            continue
        for fi, (_, options) in enumerate(conf_doc["functions"]):
            for pi in range(len(options["params"])):
                cand_doc = copy.deepcopy(conf_doc)
                del cand_doc["functions"][fi][1]["params"][pi]
                candidate = replace(current, conf=cand_doc)
                if fails_same(candidate):
                    current = candidate
                    changed = True
                    break
            if changed:
                break
    known_after = _known_items(current.conf)

    # re-seal: the minimized repro's evidence is its own replay's
    reason, evidence = _replay_rewrite_failure(current)
    minimized = replace(
        current, reason=reason, evidence=evidence, message=bundle.message
    ).seal()
    return MinimizeReport(
        bundle=minimized,
        requests_before=requests_before,
        requests_after=len(minimized.requests),
        code_bytes_before=code_before,
        code_bytes_after=code_after,
        known_items_before=known_before,
        known_items_after=known_after,
        replays=counter["replays"],
    )


def materialize_torture_bundle(bundle: CrashBundle) -> CrashBundle:
    """Convert a spec-based ``torture`` bundle into a segment-based
    ``rewrite-failure`` bundle: build the image from the spec (pure),
    capture it *before* rewriting, then run the supervisor once to
    record the terminal result the new bundle's evidence digests.  The
    result is image-shrinkable by :func:`minimize_bundle`."""
    if bundle.kind != "torture" or bundle.spec is None:
        raise ValueError("materialize_torture_bundle needs a torture bundle")
    from repro.testing.torture import _make_conf, build_image

    spec = TortureImage(
        index=int(bundle.spec["index"]), kind=bundle.spec["kind"],
        seed=int(bundle.spec["seed"]),
        known_params=tuple(bundle.spec["known_params"]),
    )
    machine, entry, args = build_image(spec)
    machine_doc = capture_machine(machine)
    conf = _make_conf(spec)
    supervisor = RewriteSupervisor(machine)
    result = supervisor.rewrite(conf, entry, *args)
    if result.ok:
        raise ValueError(
            f"spec {spec.index} ({spec.kind}) rewrites cleanly; there is "
            "no failure to materialize"
        )
    return CrashBundle(
        kind="rewrite-failure",
        reason=result.reason,
        message=result.message,
        evidence=rewrite_evidence(entry, args, result),
        conf=conf_to_doc(conf),
        conf_fp=conf_fingerprint(conf),
        requests=[{"fn": entry, "args": list(args)}],
        machine=machine_doc,
        seeds=dict(bundle.seeds),
        settings=supervisor.replay_settings(),
    ).seal()
