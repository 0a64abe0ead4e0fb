"""The generic 2-D stencil library of paper Section V.

This is the paper's running example, reproduced as a library a user
would actually call:

* the minic sources below are Figure 4 (generic ``apply`` over a
  runtime stencil data structure), the manual specialization, the
  coefficient-grouped generic version of Sec. V.B, and the sweep
  drivers (through a function pointer — so neither the compiler nor
  anything else can devirtualize them — plus a same-compilation-unit
  variant the minic ``-O2`` inliner gets to eat, for the paper's
  0.74 s → 0.48 s comparison);
* :class:`StencilSpec` packs an arbitrary runtime stencil into the
  ``struct S`` / grouped ``struct SG`` layouts;
* :class:`StencilLab` owns a machine, matrices and the stencil
  instance, runs each variant, and rewrites ``apply`` exactly like
  Figure 5 (``brew_setpar(2, BREW_KNOWN)``,
  ``brew_setpar(3, BREW_PTR_TO_KNOWN)``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core import (
    BREW_KNOWN, BREW_PTR_TO_KNOWN, brew_init_conf, brew_setfunc, brew_setpar,
)
from repro.core.resilience import RewriteSupervisor
from repro.core.rewriter import RewriteResult
from repro.isa.costs import CostModel
from repro.machine.cpu import RunResult
from repro.machine.vm import Machine
from repro.models.lab import ServiceLab

#: Max points per stencil / per group (the array bound in the structs).
MAX_POINTS = 12
MAX_GROUPS = 4

STENCIL_SOURCE = r"""
// ---- Figure 4: the generic stencil library --------------------------
struct P { double f; long dx; long dy; };
struct S { long ps; struct P p[12]; };

noinline double apply(double *m, long xs, struct S *s) {
    double v = 0.0;
    for (long i = 0; i < s->ps; i++) {
        struct P *p = &s->p[i];
        v = v + p->f * m[p->dx + xs * p->dy];
    }
    return v;
}

// ---- Sec. V.A: manual specialization for the 5-point stencil --------
noinline double apply_manual(double *m, long xs, struct S *s) {
    return 0.25 * (m[-1] + m[1] + m[0 - xs] + m[xs]) - m[0];
}

// ---- Sec. V.B: coefficient-grouped generic version ------------------
struct GP { long dx; long dy; };
struct G { double f; long n; struct GP p[12]; };
struct SG { long gs; struct G g[4]; };

noinline double apply_grouped(double *m, long xs, struct SG *s) {
    double v = 0.0;
    for (long gi = 0; gi < s->gs; gi++) {
        struct G *g = &s->g[gi];
        double sum = 0.0;
        for (long i = 0; i < g->n; i++) {
            struct GP *p = &g->p[i];
            sum = sum + m[p->dx + xs * p->dy];
        }
        v = v + g->f * sum;
    }
    return v;
}

// ---- sweep through a function pointer (no devirtualization possible)
typedef double (*apply_t)(double*, long, struct S*);
typedef double (*applyg_t)(double*, long, struct SG*);

noinline void sweep(double *src, double *dst, long xs, long ys,
                    struct S *s, apply_t fn) {
    for (long y = 1; y < ys - 1; y++)
        for (long x = 1; x < xs - 1; x++)
            dst[y * xs + x] = fn(&src[y * xs + x], xs, s);
}

noinline void sweep_grouped(double *src, double *dst, long xs, long ys,
                            struct SG *s, applyg_t fn) {
    for (long y = 1; y < ys - 1; y++)
        for (long x = 1; x < xs - 1; x++)
            dst[y * xs + x] = fn(&src[y * xs + x], xs, s);
}

// ---- Sec. V.B: manual code in the same compilation unit -------------
// apply_local is a single-return function, so minic -O2 inlines it into
// sweep_local (the paper's 0.48 s case: no call overhead at all).
double apply_local(double *m, long xs) {
    return 0.25 * (m[-1] + m[1] + m[0 - xs] + m[xs]) - m[0];
}

noinline void sweep_local(double *src, double *dst, long xs, long ys) {
    for (long y = 1; y < ys - 1; y++)
        for (long x = 1; x < xs - 1; x++)
            dst[y * xs + x] = apply_local(&src[y * xs + x], xs);
}
"""


@dataclass
class StencilSpec:
    """A runtime stencil: ``[(coefficient, dx, dy), ...]``."""

    points: list[tuple[float, int, int]]

    @classmethod
    def five_point(cls) -> "StencilSpec":
        """The paper's stencil: average of the 4 neighbours minus the
        centre value."""
        return cls(
            [
                (0.25, -1, 0),
                (0.25, 1, 0),
                (0.25, 0, -1),
                (0.25, 0, 1),
                (-1.0, 0, 0),
            ]
        )

    @classmethod
    def nine_point(cls) -> "StencilSpec":
        """A 9-point box stencil (diagonals weighted 0.05)."""
        points = []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    points.append((-1.0, 0, 0))
                elif dx == 0 or dy == 0:
                    points.append((0.2, dx, dy))
                else:
                    points.append((0.05, dx, dy))
        return cls(points)

    def pack(self) -> bytes:
        """Serialize to the ``struct S`` layout of Figure 4."""
        if len(self.points) > MAX_POINTS:
            raise ValueError(f"at most {MAX_POINTS} stencil points")
        out = struct.pack("<q", len(self.points))
        for f, dx, dy in self.points:
            out += struct.pack("<dqq", f, dx, dy)
        out += b"\x00" * (8 + MAX_POINTS * 24 - len(out))
        return out

    def grouped(self) -> list[tuple[float, list[tuple[int, int]]]]:
        """Group points by coefficient, preserving first-seen order
        (the Sec. V.B restructuring)."""
        groups: list[tuple[float, list[tuple[int, int]]]] = []
        for f, dx, dy in self.points:
            for gf, pts in groups:
                if gf == f:
                    pts.append((dx, dy))
                    break
            else:
                groups.append((f, [(dx, dy)]))
        return groups

    def pack_grouped(self) -> bytes:
        """Serialize to the grouped ``struct SG`` layout of Sec. V.B."""
        groups = self.grouped()
        if len(groups) > MAX_GROUPS:
            raise ValueError(f"at most {MAX_GROUPS} coefficient groups")
        group_size = 8 + 8 + MAX_POINTS * 16  # f + n + points
        out = struct.pack("<q", len(groups))
        for f, pts in groups:
            if len(pts) > MAX_POINTS:
                raise ValueError(f"at most {MAX_POINTS} points per group")
            g = struct.pack("<dq", f, len(pts))
            for dx, dy in pts:
                g += struct.pack("<qq", dx, dy)
            g += b"\x00" * (group_size - len(g))
            out += g
        out += b"\x00" * (8 + MAX_GROUPS * group_size - len(out))
        return out

    def reference_apply(self, grid, xs: int, x: int, y: int) -> float:
        """Pure-Python oracle for one stencil application."""
        return sum(f * grid[(y + dy) * xs + (x + dx)] for f, dx, dy in self.points)


class StencilLab(ServiceLab):
    """Machine + matrices + stencil instance for the Section V study."""

    def __init__(
        self,
        xs: int = 48,
        ys: int = 48,
        spec: StencilSpec | None = None,
        costs: CostModel | None = None,
        opt: int = 2,
    ) -> None:
        self.xs = xs
        self.ys = ys
        self.spec = spec or StencilSpec.five_point()
        self.machine = Machine(costs)
        self.unit = self.machine.load(STENCIL_SOURCE, opt=opt, unit="stencil")
        image = self.machine.image
        nbytes = xs * ys * 8
        self.m1 = image.malloc(nbytes)
        self.m2 = image.malloc(nbytes)
        self.s_addr = image.malloc(len(self.spec.pack()))
        image.poke(self.s_addr, self.spec.pack())
        self.sg_addr = image.malloc(len(self.spec.pack_grouped()))
        image.poke(self.sg_addr, self.spec.pack_grouped())
        #: Every rewrite goes through the resilience supervisor: failed
        #: attempts degrade down the ladder and successful variants are
        #: differentially validated before being handed out.
        self.supervisor = RewriteSupervisor(self.machine, validation_vectors=1)
        self.reset_matrices()

    def apply_via_service(
        self, passes: tuple[str, ...] = (), deferred_spills: bool = True
    ) -> int:
        """The generic ``apply``'s current best entry from the service:
        the original on a cold miss (rewrite queued for the background
        worker), the Figure-5 specialized body once published."""
        conf = brew_init_conf()
        brew_setpar(conf, 2, BREW_KNOWN)
        brew_setpar(conf, 3, BREW_PTR_TO_KNOWN)
        conf.passes = passes
        conf.deferred_spills = deferred_spills
        m_example = self.m1 + 8 * (self.xs + 1)
        return self.service.request(conf, "apply", m_example, self.xs, self.s_addr)

    def apply_cell_via_service(
        self, x: int, y: int,
        passes: tuple[str, ...] = (), deferred_spills: bool = True,
    ):
        """One stencil application at ``(x, y)``, dispatched *and
        executed* through the continuously assured path (mirror of
        :meth:`repro.models.pgas.PgasLab.sum_via_service`): when the
        attached service has a shadow sampler, sampled warm calls are
        compared against the original ``apply`` and a diverging variant
        is withdrawn.  Returns the ``RunResult``."""
        conf = brew_init_conf()
        brew_setpar(conf, 2, BREW_KNOWN)
        brew_setpar(conf, 3, BREW_PTR_TO_KNOWN)
        conf.passes = passes
        conf.deferred_spills = deferred_spills
        mp = self.m1 + 8 * (y * self.xs + x)
        return self.service.call(conf, "apply", mp, self.xs, self.s_addr)

    # ---------------------------------------------------------- matrices
    def reset_matrices(self) -> None:
        """Deterministic initial condition; dst starts as a copy so the
        boundary stays consistent."""
        data = bytearray()
        for i in range(self.xs * self.ys):
            x, y = i % self.xs, i // self.xs
            data += struct.pack("<d", ((x * 31 + y * 17) % 97) / 97.0)
        self.machine.image.poke(self.m1, bytes(data))
        self.machine.image.poke(self.m2, bytes(data))

    def read_matrix(self, addr: int) -> list[float]:
        raw = self.machine.image.peek(addr, self.xs * self.ys * 8)
        return list(struct.unpack(f"<{self.xs * self.ys}d", raw))

    def checksum(self, addr: int) -> float:
        return sum(self.read_matrix(addr))

    # ------------------------------------------------------------- runs
    def _run_sweeps(
        self, sweep_name: str, s_addr: int, fn_addr: int, iters: int
    ) -> RunResult:
        """Run ``iters`` sweeps ping-ponging between the two matrices;
        returns the accumulated counters of all iterations."""
        self.reset_matrices()
        total = None
        src, dst = self.m1, self.m2
        for _ in range(iters):
            result = self.machine.call(
                sweep_name, src, dst, self.xs, self.ys, s_addr, fn_addr
            )
            total = result if total is None else self._accumulate(total, result)
            src, dst = dst, src
        assert total is not None
        self.final_matrix = src  # last written matrix
        return total

    def _run_sweeps_local(self, iters: int) -> RunResult:
        self.reset_matrices()
        total = None
        src, dst = self.m1, self.m2
        for _ in range(iters):
            result = self.machine.call("sweep_local", src, dst, self.xs, self.ys)
            total = result if total is None else self._accumulate(total, result)
            src, dst = dst, src
        assert total is not None
        self.final_matrix = src
        return total

    @staticmethod
    def _accumulate(total: RunResult, more: RunResult) -> RunResult:
        for name in ("cycles", "instructions", "loads", "stores", "branches",
                     "taken_branches", "calls", "rets", "remote_cycles",
                     "remote_accesses"):
            setattr(total.perf, name, getattr(total.perf, name) + getattr(more.perf, name))
        return total

    def run_generic(self, iters: int = 1) -> RunResult:
        """The Figure 4 baseline: generic ``apply`` through a pointer."""
        return self._run_sweeps("sweep", self.s_addr, self.machine.symbol("apply"), iters)

    def run_manual(self, iters: int = 1) -> RunResult:
        """Manually specialized ``apply`` through the same pointer."""
        return self._run_sweeps(
            "sweep", self.s_addr, self.machine.symbol("apply_manual"), iters
        )

    def run_grouped_generic(self, iters: int = 1) -> RunResult:
        """The Sec. V.B grouped generic version (slower than plain generic)."""
        return self._run_sweeps(
            "sweep_grouped", self.sg_addr, self.machine.symbol("apply_grouped"), iters
        )

    def run_compiler_inlined(self, iters: int = 1) -> RunResult:
        """Manual stencil in the same compilation unit: minic -O2 inlined
        it into the sweep (the paper's 0.48 s measurement)."""
        return self._run_sweeps_local(iters)

    def run_with_apply(self, fn_addr: int, iters: int = 1, grouped: bool = False) -> RunResult:
        """Run sweeps with an arbitrary drop-in ``apply`` replacement
        (e.g. a rewritten one)."""
        if grouped:
            return self._run_sweeps("sweep_grouped", self.sg_addr, fn_addr, iters)
        return self._run_sweeps("sweep", self.s_addr, fn_addr, iters)

    # --------------------------------------------------------- rewriting
    def rewrite_apply(
        self,
        grouped: bool = False,
        passes: tuple[str, ...] = (),
        deferred_spills: bool = True,
    ) -> RewriteResult:
        """Figure 5: specialize the generic ``apply`` for this stencil and
        row stride (xs known, stencil pointer to known data).

        ``deferred_spills=False`` reproduces the paper prototype's output
        quality (spill/reload pairs preserved; see RewriteConfig)."""
        conf = brew_init_conf()
        brew_setpar(conf, 2, BREW_KNOWN)
        brew_setpar(conf, 3, BREW_PTR_TO_KNOWN)
        conf.passes = passes
        conf.deferred_spills = deferred_spills
        target = "apply_grouped" if grouped else "apply"
        s_addr = self.sg_addr if grouped else self.s_addr
        # the matrix pointer is unknown, so its traced value is free: an
        # interior point makes the validation gate actually execute the
        # stencil instead of skipping every fault-on-null vector
        m_example = self.m1 + 8 * (self.xs + 1)
        return self.supervisor.rewrite(conf, target, m_example, self.xs, s_addr)

    def rewrite_sweep(
        self,
        apply_addr: int | None = None,
        variant_threshold: int = 4,
        passes: tuple[str, ...] = (),
    ) -> RewriteResult:
        """Rewrite the *whole matrix sweep* (Sec. V.B outlook): the
        function-pointer argument is known, so the indirect calls
        disappear by specialization; unrolling is kept in check by
        treating conditionals as unknown plus the variant threshold
        ("controlled unrolling such as four-times")."""
        conf = brew_init_conf()
        brew_setpar(conf, 3, BREW_KNOWN)   # xs
        brew_setpar(conf, 4, BREW_KNOWN)   # ys
        brew_setpar(conf, 5, BREW_PTR_TO_KNOWN)  # stencil
        brew_setpar(conf, 6, BREW_KNOWN)   # the function pointer
        brew_setfunc(conf, None, conditionals_unknown=True)
        conf.variant_threshold = variant_threshold
        conf.passes = passes
        fn = apply_addr if apply_addr is not None else self.machine.symbol("apply")
        return self.supervisor.rewrite(
            conf, "sweep", self.m1, self.m2, self.xs, self.ys, self.s_addr, fn,
        )

    # ------------------------------------------------------------ oracle
    def reference_sweep(self, grid: list[float]) -> list[float]:
        """Pure-Python sweep for correctness checks."""
        out = list(grid)
        for y in range(1, self.ys - 1):
            for x in range(1, self.xs - 1):
                out[y * self.xs + x] = self.spec.reference_apply(grid, self.xs, x, y)
        return out
