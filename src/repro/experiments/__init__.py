"""Experiment harness: regenerates every quantitative claim of the
paper's evaluation (DESIGN.md §4 maps experiment ids to paper loci).

Each ``expN_*`` / ``ablN_*`` function returns an
:class:`~repro.experiments.harness.Experiment` whose rows mirror the
paper's reported numbers (ratios against the generic baseline, the way
Section V reports 2.00 s / 0.88 s / 0.74 s).  ``python -m
repro.experiments`` prints every table; ``--write`` also saves each run
as ``BENCH_<slug>.json`` in the current directory (the repo root keeps
the committed records).
"""

from repro.experiments.harness import Experiment, Row, format_table
from repro.experiments.stencil_exp import exp1_specialize, exp2_listing, exp3_grouped, exp4_call_overhead, exp5_makedynamic
from repro.experiments.pgas_exp import exp6_pgas
from repro.experiments.domainmap_exp import exp7_domainmap
from repro.experiments.profile_exp import exp8_value_profile
from repro.experiments.rdma_exp import ext1_rdma_prefetch
from repro.experiments.dstencil_exp import ext2_distributed_stencil
from repro.experiments.chaos_exp import ext3_chaos
from repro.experiments.amortization_exp import ext4_amortization
from repro.experiments.soak_exp import ext5_soak
from repro.experiments.fabric_exp import ext7_fabric
from repro.experiments.torture_exp import ext8_static_vs_runtime
from repro.experiments.forensics_exp import ext9_forensics
from repro.experiments.tracejit_exp import ext10_tracejit
from repro.experiments.ablations import (
    abl1_variant_threshold, abl2_inlining, abl3_passes, abl4_vectorize,
    abl5_rewrite_cost,
)

ALL_EXPERIMENTS = (
    exp1_specialize, exp2_listing, exp3_grouped, exp4_call_overhead,
    exp5_makedynamic, exp6_pgas, exp7_domainmap, exp8_value_profile,
    ext1_rdma_prefetch, ext2_distributed_stencil, ext3_chaos,
    ext4_amortization, ext5_soak, ext7_fabric, ext8_static_vs_runtime,
    ext9_forensics, ext10_tracejit,
    abl1_variant_threshold, abl2_inlining, abl3_passes, abl4_vectorize,
    abl5_rewrite_cost,
)

__all__ = ["Experiment", "Row", "format_table", "ALL_EXPERIMENTS"]
