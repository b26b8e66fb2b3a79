"""Spans around calls into the package's public functions.

The benchmark installs wrappers from its own files: every module of the
package that holds a reference to a wrapped function gets the wrapper in its
place, so calls between modules (``from .lp import solve``) are timed too.
Spans are kept in memory; per-layer metrics are computed from them after
each CLI call.  A layer is a module of the package, and a span's self time
is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Public functions wrapped by the traced run, per module of the package.
TRACED = {
    "cli": ("main",),
    "fitting": ("fit", "degree_sweep", "build_grid", "assemble"),
    "lp": ("solve",),
    "basis": ("make_basis", "eval_basis_many", "eval_poly_many"),
    "moments": ("moment_vector", "moment_matrix"),
    "verification": (
        "run_report", "mc_volume", "chebyshev_check", "nonnegativity_scan",
        "count_components", "trace_report",
    ),
}

EVAL_SPANS = ("basis.eval_basis_many", "basis.eval_poly_many")
FIT_SPANS = ("fitting.fit", "fitting.degree_sweep")
MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = math.nan
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; a disabled tracer passes calls straight through."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.enabled = True

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """Time `fn` as span `name`.  `before(*args, **kwargs)` runs in a
        separate bench.* span and returns info; `after(result)` adds info."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            info = {}
            if before is not None:
                with self.span("bench." + name):
                    info.update(before(*args, **kwargs))
            with self.span(name) as record:
                record.info = info
                result = fn(*args, **kwargs)
            if after is not None:
                info.update(after(result))
            return result

        return wrapper

    def seconds(self, *names: str) -> float:
        return sum(s.seconds for s in self.spans if s.name in names)


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "polycover" or n.startswith("polycover.")]


@contextmanager
def installed(tracer: Tracer, targets: dict[str, tuple[str, ...]], hooks: dict, scope: str | None = None):
    """Replace each target function by a wrapper in every package module that
    refers to it (only in module `scope` when given); restore on exit."""
    replaced = []
    modules = _package_modules()
    try:
        for module_name, names in targets.items():
            module = sys.modules[f"polycover.{module_name}"]
            for name in names:
                original = getattr(module, name)
                label = f"{module_name}.{name}"
                wrapper = tracer.wrap(label, original, *hooks.get(label, (None, None)))
                for holder in modules:
                    if scope is not None and holder.__name__ != f"polycover.{scope}":
                        continue
                    if holder.__dict__.get(name) is original:
                        setattr(holder, name, wrapper)
                        replaced.append((holder, name, original))
        yield
    finally:
        for holder, name, original in reversed(replaced):
            setattr(holder, name, original)


def untraced_timers(tracer: Tracer):
    """Timers on the four calls cli makes for fit_s and verify_s, bound only
    in the cli module's namespace."""
    targets = {"fitting": ("fit", "degree_sweep"), "verification": ("run_report", "count_components")}
    return installed(tracer, targets, {}, scope="cli")


def _degree_of(cols: int, dimension: int) -> int | None:
    for degree in range(64):
        size = math.comb(dimension + degree, degree)
        if size == cols:
            return degree
        if size > cols:
            return None
    return None


def layer_hooks(dimension: int) -> dict:
    """Info recorded per span: sizes, counts and outcomes."""

    def solve_before(problem, *args, **kwargs):
        distinct = len({row.tobytes() for row in problem.A})
        return {
            "rows": problem.num_rows,
            "cols": problem.num_cols,
            "dup_rows": problem.num_rows - distinct,
            "degree": _degree_of(problem.num_cols, dimension),
        }

    def solve_after(solution):
        return {"iters": solution.iterations, "failed": solution.status != "optimal"}

    def points_before(*args, **kwargs):
        points = args[1] if len(args) > 1 else kwargs["points"]
        return {"points": len(points)}

    def assemble_before(cloud, grid_points, basis, moments):
        return {"rows": cloud.count + len(grid_points), "cols": len(basis)}

    return {
        "lp.solve": (solve_before, solve_after),
        "basis.eval_basis_many": (points_before, None),
        "basis.eval_poly_many": (points_before, None),
        "fitting.assemble": (assemble_before, None),
        "fitting.build_grid": (None, lambda grid: {"points": len(grid)}),
        "verification.mc_volume": (None, lambda est: {"samples": est.samples}),
        "verification.nonnegativity_scan": (None, lambda scan: {"points": scan.points}),
    }


def traced(tracer: Tracer, dimension: int):
    return installed(tracer, TRACED, layer_hooks(dimension))


def layer_metrics(spans: list[Span], degrees: tuple[int, ...]) -> dict[str, float]:
    """Per-layer metrics of one traced CLI call; one lp.solve_s.dN per
    degree in `degrees`, zero for degrees the call did not solve."""
    child_seconds = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        return sum(s.seconds for s in named(*names))

    def self_time(layer):
        return sum(
            s.seconds - child_seconds[i]
            for i, s in enumerate(spans)
            if s.name.split(".")[0] == layer
        )

    def ancestor(span, names):
        while span.parent is not None:
            span = spans[span.parent]
            if span.name in names:
                return span
        return None

    solves = named("lp.solve")
    solve_s = total("lp.solve")
    iters = sum(s.info.get("iters", 0) for s in solves)
    fit_grids = [s for s in named("fitting.build_grid") if ancestor(s, FIT_SPANS)]
    evals = [
        s for s in named(*EVAL_SPANS)
        if s.parent is None or spans[s.parent].name not in EVAL_SPANS
    ]
    assembles = named("fitting.assemble")
    mc = named("verification.mc_volume")
    mc_s = total("verification.mc_volume")

    metrics = {
        "lp.solve_s": solve_s,
        "lp.iters": iters,
        "lp.s_per_iter": solve_s / iters if iters else 0.0,
        "lp.rows": max((s.info["rows"] for s in solves), default=0),
        "lp.cols": max((s.info["cols"] for s in solves), default=0),
        "lp.dup_rows": sum(s.info["dup_rows"] for s in solves),
        "lp.failures": sum(1 for s in solves if s.info.get("failed", True)),
        "fitting.build_grid_s": sum(s.seconds for s in fit_grids),
        "fitting.grid_points": sum(s.info["points"] for s in fit_grids),
        "fitting.assemble_s": total("fitting.assemble"),
        "fitting.A_mb_computed": max(
            (s.info["rows"] * s.info["cols"] * 8 / MIB for s in assembles), default=0.0
        ),
        "fitting.self_s": self_time("fitting"),
        "basis.eval_s": sum(s.seconds for s in evals),
        "basis.eval_points": sum(s.info["points"] for s in evals),
        "basis.eval_calls": len(evals),
        "basis.make_s": total("basis.make_basis"),
        "moments.vector_s": total("moments.moment_vector"),
        "moments.matrix_s": total("moments.moment_matrix"),
        "verification.mc_s": mc_s,
        "verification.mc_samples_per_s": (
            sum(s.info["samples"] for s in mc) / mc_s if mc_s else 0.0
        ),
        "verification.scan_s": total("verification.nonnegativity_scan"),
        "verification.scan_points": sum(
            s.info["points"] for s in named("verification.nonnegativity_scan")
        ),
        "verification.components_s": total("verification.count_components"),
        "verification.components_cells": sum(
            s.info["points"] for s in evals
            if ancestor(s, ("verification.count_components",))
        ),
        "verification.trace_s": total("verification.trace_report"),
        "verification.self_s": self_time("verification"),
        "cli.self_s": self_time("cli"),
    }
    for degree in degrees:
        metrics[f"lp.solve_s.d{degree}"] = sum(
            s.seconds for s in solves if s.info["degree"] == degree
        )
    return metrics
