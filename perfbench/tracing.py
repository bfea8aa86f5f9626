"""Per-layer spans and counters for the traced run, recorded from outside ``src/``.

Layers are the library's modules.  A span (name, start, end, parent,
case id) is opened around each call into a layer, at the name the
calling module imported it under; spans are kept in memory and written
out when the run ends.  A layer's self time is its spans' duration minus
their children's.

Every ``PathComplex`` a traced case creates is taken through its layers
bottom up before the caller sees it: paths of every dimension the case
will use, then the boundary-power matrices, then the Omega spaces, all
read off the memo an earlier untraced pass of the same case left behind.
The memo then makes each later span roughly that layer's own work.
The untraced run patches nothing; the discovery pass only records which
complexes a case creates.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from mayerpath import boundary, cli, cycles, homology, omega, report, structure
from mayerpath.complexes import PathComplex
from mayerpath.cyclotomic import Scalar
from mayerpath.linalg import Subspace

import cases

LINALG = (("nullspace", "linalg.nullspace"), ("intersect", "linalg.intersect"),
          ("quotient_dim", "linalg.quotient"))
ENTRY_POINTS = (
    ("betti_table", "homology.betti"), ("brute_force_oracle", "homology.oracle"),
    ("poincare_identity_check", "homology.poincare"),
    ("omega_full", "omega.solve"), ("omega_nq", "omega.solve"),
    ("omega_nilpotency", "omega.checks"), ("verify_chain_closure", "omega.checks"),
    ("verify_nilpotency", "boundary.apply"),
    ("omega2_decompose", "structure.omega2"), ("minimal_clusters", "structure.clusters"),
    ("special_edges", "structure.special"), ("z1_generators", "cycles.z1"),
)
# (module, attribute, span name): the names each caller imported its layers under.
WRAPPED = (
    [(m, a, s) for m in (cases, cli, report) for a, s in ENTRY_POINTS]
    + [(m, a, s) for m in (omega, homology, structure, cycles) for a, s in LINALG]
    + [(m, "apply_regular_power", "boundary.apply") for m in (omega, homology)]
)

# span name -> per-layer metric holding its self time
SELF_METRICS = {
    "complexes": "complexes.build_s",
    "boundary.assemble": "boundary.assemble_s",
    "boundary.apply": "boundary.apply_s",
    "omega.solve": "omega.solve_s",
    "omega.checks": "omega.checks_s",
    "homology.betti": "homology.betti_s",
    "homology.oracle": "homology.oracle_s",
    "homology.poincare": "homology.poincare_s",
    "linalg.nullspace": "linalg.nullspace_s",
    "linalg.intersect": "linalg.intersect_s",
    "linalg.span": "linalg.span_s",
    "linalg.quotient": "linalg.quotient_s",
    "structure.omega2": "structure.omega2_s",
    "structure.clusters": "structure.clusters_s",
    "structure.special": "structure.special_s",
    "cycles.z1": "cycles.z1_s",
    "cli.betti": "cli.betti_s",
    "cli.omega": "cli.omega_s",
    "cli.classify": "cli.classify_s",
    "cli.cycles": "cli.cycles_s",
    "cli.check": "cli.check_s",
    "cli.report": "cli.report_s",
}
COUNTS = ("complexes.paths", "boundary.nnz", "boundary.extra_rows", "omega.dims",
          "linalg.nullspace_calls", "linalg.nullspace_cells", "linalg.intersect_calls",
          "cyclotomic.mul", "cyclotomic.inv", "cyclotomic.addsub",
          "structure.clusters", "structure.truncated_pairs", "cycles.kernel_dim",
          "cli.out_bytes")
ROOT_SPAN = "case"
EMPTY_PLAN = {"dims": [], "bpm": [], "omega_nq": [], "omega_full": []}


def memo_plan(P) -> dict:
    """What an untraced pass computed on P: path dimensions and memo keys."""
    memo = getattr(P, "_memo", {})
    keys = [k for k in memo if isinstance(k, tuple) and k]
    return {
        "dims": sorted(getattr(P, "_dims", {})),
        "bpm": sorted(k[1:] for k in keys if k[0] == "bpm" and len(k) == 4),
        "omega_nq": sorted(k[1:] for k in keys if k[0] == "omega_nq" and len(k) == 4),
        "omega_full": sorted(k[1:] for k in keys if k[0] == "omega_full" and len(k) == 3),
    }


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, case id]
        self.stack: list[int] = []
        self.case = ""
        self.counts: dict[str, int] = defaultdict(int)
        self.ops = [0, 0, 0]            # Scalar mul, inverse, add/sub
        self.plans: dict[str, list[dict]] = {}
        self.pending: list[dict] = []   # plans left for the complexes the case creates
        self.created: list = []         # discovery: complexes the case created
        self._mark: tuple = (0, (0, 0, 0), {})
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                           self.case])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def in_linalg(self) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0].startswith("linalg.")

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _hook_constructors(self, after) -> None:
        for attr in ("from_digraph", "from_simplicial"):
            func = PathComplex.__dict__[attr].__func__

            def build(cls, *args, _func=func, **kwargs):
                return after(lambda: _func(cls, *args, **kwargs))
            self._patch(PathComplex, attr, classmethod(build))

    def install_discovery(self) -> None:
        """Only remember which complexes a case creates."""
        def after(make):
            P = make()
            self.created.append(P)
            return P
        self._hook_constructors(after)

    def install(self) -> None:
        """Wrap every layer entry point and count scalar operations."""
        self._hook_constructors(self._build_bottom_up)
        for module, attr, name in WRAPPED:
            if attr in module.__dict__:
                self._patch(module, attr, self._wrap(getattr(module, attr), name, attr))
        self._patch(cli, "main", self._wrap(cli.main, lambda argv: f"cli.{argv[0]}", "main"))
        from_spanning = Subspace.__dict__["from_spanning"].__func__

        def spanning(cls, *args, **kwargs):
            if self.in_linalg():
                return from_spanning(cls, *args, **kwargs)
            with self.span("linalg.span"):
                return from_spanning(cls, *args, **kwargs)
        self._patch(Subspace, "from_spanning", classmethod(spanning))
        self._count_scalar_ops()

    def _wrap(self, fn, name, attr: str):
        counts = self.counts
        linalg = isinstance(name, str) and name.startswith("linalg.")

        def wrapper(*args, **kwargs):
            if linalg and self.in_linalg():
                return fn(*args, **kwargs)
            idx = self.open(name if isinstance(name, str) else name(*args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attr == "nullspace":
                counts["linalg.nullspace_cells"] += args[0].rows * args[0].cols
            elif attr == "minimal_clusters":
                counts["structure.clusters"] += len(result.clusters)
                counts["structure.truncated_pairs"] += len(result.truncated)
            elif attr == "z1_generators":
                counts["cycles.kernel_dim"] += result.kernel_dim
                counts["cycles.shortfall"] += result.shortfall
            return result
        return wrapper

    def _count_scalar_ops(self) -> None:
        ops = self.ops
        mul, inv = Scalar.__dict__["__mul__"], Scalar.__dict__["inverse"]
        add, sub = Scalar.__dict__["__add__"], Scalar.__dict__["__sub__"]

        def c_mul(a, b):
            ops[0] += 1
            return mul(a, b)

        def c_inv(a):
            ops[1] += 1
            return inv(a)

        def c_add(a, b):
            ops[2] += 1
            return add(a, b)

        def c_sub(a, b):
            ops[2] += 1
            return sub(a, b)

        for attr, fn in (("__mul__", c_mul), ("__rmul__", c_mul), ("inverse", c_inv),
                         ("__add__", c_add), ("__sub__", c_sub)):
            self._patch(Scalar, attr, fn)

    def _build_bottom_up(self, make):
        """complexes -> boundary -> omega for one new PathComplex."""
        plan = self.pending.pop(0) if self.pending else EMPTY_PLAN
        with self.span("complexes"):
            P = make()
            for n in plan["dims"]:
                P.paths(n)
        self.counts["complexes.paths"] += sum(len(P.paths(n)) for n in plan["dims"])
        with self.span("boundary.assemble"):
            for key in plan["bpm"]:
                bm = boundary.boundary_power_matrix(P, *key)
                self.counts["boundary.nnz"] += len(bm.entries)
                self.counts["boundary.extra_rows"] += len(bm.row_paths) - bm.allowed_rows
        with self.span("omega.solve"):
            for key in plan["omega_nq"]:
                omega.omega_nq(P, *key)
            for key in plan["omega_full"]:
                self.counts["omega.dims"] += omega.omega_full(P, *key).space.dim
        return P

    # -- executions ---------------------------------------------------------

    def begin(self, case_id: str, execution: int, discovery: bool = False) -> None:
        self.case = f"{case_id}#{execution}"
        self.created = []
        self.pending = [] if discovery else list(self.plans.get(case_id, ()))
        self._mark = (len(self.spans), tuple(self.ops), dict(self.counts))
        if not discovery:
            self.open(ROOT_SPAN)

    def end_discovery(self, case_id: str) -> None:
        self.plans[case_id] = [memo_plan(P) for P in self.created]
        self.created = []

    def end(self) -> dict:
        """Per-layer metrics of the execution since ``begin``."""
        while self.stack:
            self.close(self.stack[-1])
        first, ops0, counts0 = self._mark
        child: dict[int, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(first, len(self.spans)):
            name, start, end, parent, _ = self.spans[i]
            if parent >= first:
                child[parent] += end - start
        for i in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[i]
            self_time[name] += end - start - child[i]
            calls[name] += 1
        out = {metric: self_time.get(name, 0.0) for name, metric in SELF_METRICS.items()}
        for key in COUNTS + ("cycles.shortfall",):
            out[key] = self.counts.get(key, 0) - counts0.get(key, 0)
        out["linalg.nullspace_calls"] = calls["linalg.nullspace"]
        out["linalg.intersect_calls"] = calls["linalg.intersect"]
        for i, key in enumerate(("cyclotomic.mul", "cyclotomic.inv", "cyclotomic.addsub")):
            out[key] = self.ops[i] - ops0[i]
        root = self.spans[first]
        out["trace.wall_s"] = root[2] - root[1]
        out["trace.layer_self_s"] = sum(t for n, t in self_time.items() if n != ROOT_SPAN)
        return out

    def write(self, path, t0: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7),
                                     parent, case]) + "\n")


def summarize(executions: dict[str, list[dict]], untraced_s: float) -> dict:
    """Corpus totals: each case's median over its traced executions, summed.

    ``untraced_s`` is the corpus time of the discovery pass, the untraced
    reference for the tracing overhead.
    """
    total: dict[str, float] = defaultdict(float)
    for runs in executions.values():
        for key in runs[0]:
            total[key] += statistics.median(r[key] for r in runs)
    out = {metric: total[metric] for metric in list(SELF_METRICS.values()) + list(COUNTS)}
    kernel = total["cycles.kernel_dim"]
    out["cycles.covered_frac"] = 1 - total["cycles.shortfall"] / kernel if kernel else 0.0
    out["trace.overhead_frac"] = total["trace.wall_s"] / untraced_s - 1
    out["trace.layer_self_frac"] = total["trace.layer_self_s"] / untraced_s
    return out
