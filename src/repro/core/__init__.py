"""BREW — the paper's contribution: programmer-controlled binary
rewriting at runtime.

The public surface mirrors the C API of the paper (Figures 2/3/5)::

    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)            # 1-based parameter index
    brew_setpar(conf, 3, BREW_PTR_TO_KNOWN)     # pointer to known data
    brew_setmem(conf, start, end, BREW_KNOWN)   # known read-only memory
    result = brew_rewrite(machine, conf, "apply", 0, xs, s5_addr)
    if result.ok:
        app2 = result.entry       # drop-in replacement address
    else:
        app2 = machine.symbol("apply")   # graceful failure: keep original

Internally (Sections III.E–III.G of the paper):

* :mod:`repro.core.config` — the rewriter configuration;
* :mod:`repro.core.known` — the known/unknown value lattice and the
  *known-world state* over registers, flags and memory;
* :mod:`repro.core.tracer` — rewriting by tracing (partial evaluation,
  inlining via a shadow stack, jump processing);
* :mod:`repro.core.blocks` — the yet-to-be-rewritten queue keyed by
  ``(address, world)`` and the per-address variant counts
  (:class:`~repro.core.blocks.BlockRegistry`) the tracer holds against
  the variant threshold before it migrates a world (Sec. III.F);
* :mod:`repro.core.compensation` — materialization code for world
  migrations and non-inlined calls;
* :mod:`repro.core.layout` / :mod:`repro.core.emit` — block ordering,
  final binary emission and jump relocation;
* :mod:`repro.core.passes` — optional post-capture optimization passes
  (the paper's "future work", implemented here as extensions);
* :mod:`repro.core.dispatch` — profile-guided guarded specialization;
* :mod:`repro.core.resilience` — the degradation ladder and the
  differential validation gate around ``brew_rewrite``;
* :mod:`repro.core.manager` — caching, invalidation and failure
  quarantine across many rewrites.
"""

from repro.core.config import (
    BREW_KNOWN,
    BREW_PTR_TO_KNOWN,
    BREW_UNKNOWN,
    FunctionConfig,
    RewriteConfig,
)
from repro.core.rewriter import RewriteResult, rewrite
from repro.core.api import (
    brew_init_conf,
    brew_rewrite,
    brew_setdynamic,
    brew_setfunc,
    brew_setmem,
    brew_setpar,
)
from repro.core.resilience import RewriteSupervisor, supervised_rewrite, validate_variant
from repro.core.staticrewrite import StaticImageRewriter, StaticRewriteReport

__all__ = [
    "BREW_KNOWN", "BREW_PTR_TO_KNOWN", "BREW_UNKNOWN",
    "RewriteConfig", "FunctionConfig", "RewriteResult", "rewrite",
    "brew_init_conf", "brew_setpar", "brew_setmem", "brew_setfunc",
    "brew_setdynamic", "brew_rewrite",
    "RewriteSupervisor", "supervised_rewrite", "validate_variant",
    "StaticImageRewriter", "StaticRewriteReport",
]
