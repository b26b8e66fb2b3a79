"""Independent checks on a fitted superlevel set U(p) = {x in B : p(x) >= 1}.

Volume is estimated by Monte Carlo with a counter-based generator, so runs
with equal seeds agree bit for bit regardless of chunking.  mc_volume first
bounds p rigorously on a grid of cells, its own screen: the cells where the
bounds decide p >= 1 count by their exact volume, and points are drawn only
in the cells whose bounds straddle 1, as many as a uniform sample of the
requested size would put there (stratified sampling).  When
p >= 0 holds on all of B, Markov's bound gives vol U(p) <= integral of p
over B;  the integral is the fit objective w, so w should exceed the
estimated volume up to sampling noise.  The nonnegativity scan probes how
far p dips below zero between the grid points where it was enforced, on a
tensor grid that holds the box's faces, edges and corners;
only where no tensor grid of the scan's size fits p does it evaluate a
quasi-random sample instead.  The component count describes the topology of
U(p) (exactly in 1-D, from the real roots of p - 1; on a pixel grid in 2-D
and 3-D, by runs of cells joined where they overlap and merged by
union-find, in numpy, with the counts of scipy.ndimage.label's face
adjacency), and the trace report recomputes w through a Gram-matrix route as
a cross-check on the moment pipeline.  Tensor grids (the scan, the pixel
grids) are evaluated axis by axis through eval_poly_grid, scattered points
(the Monte Carlo samples, a quasi-random scan) through eval_poly_many.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .basis import (
    _ENCLOSURE_BLOCK,
    Polynomial,
    cell_enclosures,
    eval_basis_many,
    eval_poly_grid,
    eval_poly_many,
    half_degree,
    make_basis,
    poly_to_gram,
)
from .domain import BoxDomain, check_grid_size, grid_axes
from .fitting import GridSpec, build_grid
from .moments import MomentVector, moment_matrix, moment_vector

TRACE_AGREEMENT_TOL = 1e-9
MIN_MC_SAMPLES = 1000
SCAN_BUDGET = 400_000  # points of the nonnegativity scan in 3-D and up
# Monte Carlo points drawn and evaluated at a time; larger chunks raise the
# peak RSS of a fit and run no faster
MC_CHUNK_SAMPLES = 8192
# Roots of p - 1 with imaginary parts up to this size, in the coordinates that
# map the box onto [-1, 1], still split the box in the exact 1-D count.
ROOT_IMAG_TOL = 1e-3

_log = logging.getLogger("polycover")


@dataclass(frozen=True)
class VolumeEstimate:
    estimate: float
    standard_error: float
    # the requested sample count, a density: the points a uniform sample of
    # the whole box would hold
    samples: int
    seed: int
    # cells of the screen in all, those it left undecided, and the points
    # drawn in them, at each of which p was evaluated
    cells: int
    undecided: int
    evaluated: int


def check_mc_samples(samples: int) -> None:
    """Refuse a Monte Carlo sample count below MIN_MC_SAMPLES."""
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples")


def _screen(p: Polynomial, box: BoxDomain, samples: int) -> tuple[int, np.ndarray]:
    """The cell screen for a density of `samples` points: its cells per
    axis, a power of two, and one int8 per cell, row-major in the axis
    order: 1 where p >= 1 on the whole cell, -1 where p < 1, 0 where
    undecided (mc_volume draws points only there), decided by the cell's
    enclosure widened by cell_enclosures' margin E.  About 4096 cells in
    all; fewer where their enclosures' multiply-adds, (d + 1)^(n + 1) per
    cell, would pass twice the len(basis) per sample of evaluating every
    sample (as matrix products they run several times faster); one
    undecided cell where a cell's (d + 1)^n coefficients would not fit in an
    enclosure block.  A degree-0 p gets one cell bounded by its constant,
    the value eval_poly_many returns at every point."""
    n, d = p.dimension, p.degree
    cells = 1
    if d == 0:
        low = high = p.coeffs[:1]
    elif (d + 1) ** n > _ENCLOSURE_BLOCK:
        low, high = np.array([-math.inf]), np.array([math.inf])
    else:
        budget = min(4096, 2 * samples * math.comb(n + d, d) // (d + 1) ** (n + 1))
        cells = 1 << max(0, budget.bit_length() - 1) // n
        low, high, margin = cell_enclosures(p, box, cells)
        low, high = low - margin, high + margin
    return cells, (low >= 1.0).astype(np.int8) - (high < 1.0)


def mc_volume(
    p: Polynomial, box: BoxDomain, samples: int = 1_000_000, seed: int = 0
) -> VolumeEstimate:
    """Monte Carlo estimate of vol {x in B : p(x) >= 1}, stratified by the
    C^n cells of _screen: the I where p >= 1 count by their volume, and
    N = ceil(samples * U / C^n) points, as many as `samples` uniform
    samples of B would put there, are drawn in the U undecided ones.  A
    point is one row of Philox draws: u_0 picks open cell floor(u_0 * U),
    the rest place it at (corner + u) / C before box.scale_unit, so chunks
    do not change the stream; with U = 1 there is no pick, so an
    unscreened run (C = 1) draws plain uniform samples.  The estimate is
    vol(B) * (I + U * q) / C^n for q = hits / N, exact when U = 0, with the
    binomial standard error vol(B) * (U / C^n) * sqrt(q(1-q)/N).  It goes
    to zero only like 1/sqrt(N), so treat small gaps as noise.
    """
    check_mc_samples(samples)
    n = box.dimension
    if p.dimension != n:
        raise ValueError("polynomial and box dimensions differ")
    cells, state = _screen(p, box, samples)
    total = cells**n
    open_cells = np.flatnonzero(state == 0)
    undecided = open_cells.size
    corners = np.transpose(np.unravel_index(open_cells, (cells,) * n))
    pick = int(undecided > 1)
    drawn = -(-samples * undecided // total)
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    for start in range(0, drawn, MC_CHUNK_SAMPLES):
        draws = rng.random((min(MC_CHUNK_SAMPLES, drawn - start), n + pick))
        unit = draws[:, pick:]
        # cells is a power of two, so dividing by it is exact
        unit += corners[(draws[:, 0] * undecided).astype(np.intp)] if pick else corners[0]
        unit /= cells
        hits += int(np.count_nonzero(eval_poly_many(p, box.scale_unit(unit)) >= 1.0))
    q = hits / max(drawn, 1)
    volume = box.volume
    return VolumeEstimate(
        estimate=volume * (int(np.count_nonzero(state == 1)) + undecided * q) / total,
        standard_error=volume * (undecided / total) * math.sqrt(q * (1.0 - q) / max(drawn, 1)),
        samples=samples, seed=seed, cells=total, undecided=undecided, evaluated=drawn,
    )


@dataclass(frozen=True)
class ChebyshevCheck:
    """Comparison of the objective w against the estimated set volume."""

    w: float
    gap: float
    passed: bool


def chebyshev_check(
    p: Polynomial, moments: MomentVector, volume: VolumeEstimate
) -> ChebyshevCheck:
    """Verify  w = integral of p  >=  vol U(p)  up to three standard errors.

    The inequality assumes p >= 0 on the box; a fit that dips negative
    between grid points can undershoot, which is exactly what this flags.
    """
    if moments.basis != p.basis:
        raise ValueError("moment vector was computed for a different basis")
    w = math.fsum(float(c) * float(y) for c, y in zip(p.coeffs, moments.values))
    gap = w - volume.estimate
    passed = gap >= -3.0 * volume.standard_error
    return ChebyshevCheck(w=w, gap=gap, passed=passed)


@dataclass(frozen=True)
class ScanResult:
    min_value: float
    argmin: tuple[float, ...]
    points: int


def _scan_spec(p: Polynomial) -> GridSpec:
    """The default scan grid: 8001 nodes in 1-D and 801 per axis in 2-D.
    In 3-D and up, the tensor grid with the most nodes per axis within
    SCAN_BUDGET points: 73 per axis in 3-D, 25 in 4-D, 2 from 12-D to 18-D.
    eval_poly_grid contracts p's dense (d + 1)^n coefficients, so where
    they would not fit in an enclosure block, or the grid would have fewer
    than 2 nodes per axis, the scan draws SCAN_BUDGET Sobol points itself,
    with seed 1, not the fitting grid's default 0, to probe new locations."""
    n = p.dimension
    if n <= 2:
        return GridSpec(points_per_axis=8001 if n == 1 else 801)
    per_axis = 1
    while (per_axis + 1) ** n <= SCAN_BUDGET:
        per_axis += 1
    if per_axis >= 2 and (p.degree + 1) ** n <= _ENCLOSURE_BLOCK:
        return GridSpec(points_per_axis=per_axis)
    return GridSpec(sample_count=SCAN_BUDGET, seed=1)


def nonnegativity_scan(
    p: Polynomial, box: BoxDomain, spec: GridSpec | None = None
) -> ScanResult:
    """Minimum of p over a scan grid finer than the fitting default
    (_scan_spec when spec is None), and the first grid point, in
    build_grid's order, that attains it.

    A tensor grid is evaluated axis by axis, with no point array; a
    quasi-random grid at every point.
    """
    spec = _scan_spec(p) if spec is None else spec
    if spec.points_per_axis is None:
        points = build_grid(box, spec)
        values = eval_poly_many(p, points)
        pos = int(np.argmin(values))
        argmin = points[pos]
    else:
        axes = grid_axes(box.lower, box.upper, spec.points_per_axis)
        values = eval_poly_grid(p, axes)
        pos = int(np.argmin(values))
        argmin = [axis[i] for axis, i in zip(axes, np.unravel_index(pos, values.shape))]
    return ScanResult(float(values.flat[pos]), tuple(float(x) for x in argmin), values.size)


def default_resolution(dimension: int) -> int:
    """Grid points per axis for component counts and plot data."""
    return 512 if dimension <= 2 else 64


def check_resolution(dimension: int, resolution: int | None) -> int:
    """The resolution count_components uses in dimensions 1 to 3, the
    default when None.  Refuses one below 64 and, in 2-D and 3-D, one whose
    grid would pass MAX_GRID_POINTS cells, before anything is built."""
    if resolution is None:
        return default_resolution(dimension)
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    if dimension >= 2:
        check_grid_size(resolution, dimension, "component grid")
    return resolution


def _count_intervals(p: Polynomial, box: BoxDomain) -> int:
    """Number of intervals of positive length in {p >= 1} on a 1-D box.

    The real roots of p - 1 split the box into pieces on which p - 1 keeps
    its sign, so one evaluation per piece decides membership and the count
    is the number of maximal runs of member pieces.  Roots come from the
    colleague matrix of the Chebyshev interpolant of p - 1 on the box.
    Surplus breakpoints are harmless, so near-real roots are kept as well.
    A piece ending at a root whose midpoint value lies within the rounding
    bound of the evaluation cannot be told from a point where p touches 1;
    it is dropped, so it neither counts nor separates its neighbours.
    """
    lo, up = box.lower[0], box.upper[0]
    center, half = (lo + up) / 2.0, (up - lo) / 2.0

    def minus_one(t: np.ndarray) -> np.ndarray:
        return eval_poly_many(p, (center + half * t).reshape(-1, 1)) - 1.0

    roots = chebyshev.chebroots(chebyshev.chebinterpolate(minus_one, p.degree))
    roots = roots.real[np.abs(roots.imag) <= ROOT_IMAG_TOL]
    roots = np.unique(roots[(roots > -1.0) & (roots < 1.0)])
    breaks = np.concatenate([[-1.0], roots, [1.0]])

    mids = center + half * (breaks[:-1] + breaks[1:]) / 2.0
    table = eval_basis_many(p.basis, mids.reshape(-1, 1))
    excess = table @ p.coeffs - 1.0
    # bound on the rounding error of excess: the Chebyshev recurrence or the
    # powers behind the table, then the dot product and the subtraction
    rounding = (
        4.0 * (p.degree + 1) ** 2 * np.finfo(float).eps
        * (np.abs(table) @ np.abs(p.coeffs) + 1.0)
    )
    # with at least one root, every piece ends at a root
    undecided = (np.abs(excess) <= rounding) & (roots.size > 0)
    inside = (excess[~undecided] >= 0.0).astype(np.int8)
    return int(np.count_nonzero(np.diff(inside, prepend=0) == 1))


def _face_components(mask: np.ndarray) -> int:
    """Number of face-connected components of the True cells of a mask of
    two or more dimensions.

    The lines along the last axis are laid end to end in one flat array,
    each followed by a False cell, so every run of True cells [start, end)
    stays on its line and the runs come out sorted.  A run joins each run
    it overlaps on the next line along every other axis: in the flat
    layout that line lies a fixed step further on, and the runs that
    overlap the shifted run are one index range of the sorted runs.  The
    joined runs are merged by union-find: each larger root is hooked onto
    the smaller, and pointer jumping then points every run at its root,
    until every joined pair shares a root (He, Chao and Suzuki 2008;
    Shiloach and Vishkin 1982).  The count is the number of roots.
    """
    *outer, length = mask.shape
    lines, width = math.prod(outer), length + 1
    # a False cell before the first line, so every run starts on a transition
    flat = np.zeros(lines * width + 1, dtype=bool)
    flat[1:].reshape(lines, width)[:, :length] = mask.reshape(lines, length)
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = edges[0::2], edges[1::2]
    line = starts // width
    first_runs, second_runs = [], []
    stride = 1
    for size in reversed(outer):
        # the runs whose line has a next line along this axis
        has_next = np.flatnonzero(line // stride % size < size - 1)
        shift = stride * width
        first = np.searchsorted(ends, starts[has_next] + shift, side="right")
        counts = np.searchsorted(starts, ends[has_next] + shift) - first
        offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        first_runs.append(np.repeat(has_next, counts))
        second_runs.append(np.repeat(first, counts) + offsets)
        stride *= size
    u, v = np.concatenate(first_runs), np.concatenate(second_runs)
    root = np.arange(starts.size)
    while True:
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            break
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
    return int(np.count_nonzero(root == np.arange(starts.size)))


def count_components(
    p: Polynomial, box: BoxDomain, resolution: int | None = None
) -> int:
    """Number of connected components of U(p) = {p >= 1} in the box.

    In dimension 1 the count is exact: U(p) is a finite union of intervals,
    found from the real roots of p - 1, and each interval of positive length
    counts once however narrow it is; a point where p only touches 1 counts
    as nothing, and so does a piece where p - 1 stays within the rounding
    error of its evaluation.  The resolution is validated but unused there.
    In dimensions 2 and 3 the count is of face-connected components on a
    grid of cell centres, resolution cells per axis, at most MAX_GRID_POINTS
    cells in all; components thinner than a cell can escape it, so raise
    the resolution when the set has fine structure.  _face_components makes
    that count from the runs of cells along the last axis, joined where they
    overlap on neighbouring lines and merged by union-find; it is the count
    of scipy.ndimage.label under its default (face) structure.
    """
    n = box.dimension
    if p.dimension != n:
        raise ValueError("polynomial and box dimensions differ")
    if n > 3:
        raise ValueError("component counting supports dimensions 1 to 3 only")
    resolution = check_resolution(n, resolution)
    if n == 1:
        return _count_intervals(p, box)
    h = box.widths / resolution
    axes = grid_axes(box.lower_array + h / 2.0, box.upper_array - h / 2.0, resolution,
                     "component grid")
    return _face_components(eval_poly_grid(p, axes) >= 1.0)


@dataclass(frozen=True)
class TraceReport:
    """Two routes to the integral of p: coefficient dot product and Gram trace."""

    trace_pm: float
    weighted_coeff_sum: float
    relative_gap: float


def trace_report(p: Polynomial, box: BoxDomain) -> TraceReport:
    """Recompute the objective as trace(P M) and compare with sum of p_a y_a.

    P is the symmetric Gram representative of p over the half-degree basis
    and M the matching moment matrix, so trace(P M) equals the integral of p
    exactly; the two routes must agree to 1e-9 relative or an ArithmeticError
    is raised.  Sums accumulate in extended precision because high-degree
    coefficients cancel heavily.  Monomial bases only.
    """
    if p.basis.kind != "monomial":
        raise ValueError("trace_report requires a monomial basis")
    if p.dimension != box.dimension:
        raise ValueError("polynomial and box dimensions differ")

    moments = moment_vector(p.basis, box)
    dot = float(
        np.sum(p.coeffs.astype(np.longdouble) * moments.values.astype(np.longdouble))
    )

    gram = poly_to_gram(p)
    half = make_basis(p.dimension, half_degree(p.degree), "monomial")
    mm = moment_matrix(half, box, warn_threshold=math.inf)
    trace = float(
        np.sum(gram.astype(np.longdouble) * mm.entries.astype(np.longdouble))
    )

    gap = abs(trace - dot) / (1.0 + abs(dot))
    if gap > TRACE_AGREEMENT_TOL:
        raise ArithmeticError(
            f"trace route {trace!r} and coefficient route {dot!r} disagree "
            f"(relative gap {gap:.3e})"
        )
    return TraceReport(trace_pm=trace, weighted_coeff_sum=dot, relative_gap=gap)


@dataclass(frozen=True)
class VerificationReport:
    w: float
    mc_volume: float
    mc_stderr: float
    cheb_gap: float
    min_scan_value: float
    components: int | None
    trace_pm: float | None

    def to_json_dict(self) -> dict:
        return {
            "w": self.w,
            "mc_volume": self.mc_volume,
            "mc_stderr": self.mc_stderr,
            "cheb_gap": self.cheb_gap,
            "min_scan_value": self.min_scan_value,
            "components": self.components,
            "trace_PM": self.trace_pm,
        }


def run_report(
    p: Polynomial,
    box: BoxDomain,
    *,
    mc_samples: int = 1_000_000,
    seed: int = 0,
    resolution: int | None = None,
) -> VerificationReport:
    """Full verification pass over one fitted polynomial.

    Writes one DEBUG line to the polycover logger with the seconds of each
    stage and the points it evaluated: for the Monte Carlo stage, which
    includes its cell screen, the points drawn and evaluated, in how many of
    the screen's cells; for the scan, its grid.  The component
    count reports 0 cells where it labels no grid: the exact 1-D count, and
    above 3-D, where it is skipped like the trace in a Chebyshev basis.
    """
    n = box.dimension
    start = time.perf_counter()
    # first, so that a bad setting fails before the costlier stages run
    check_mc_samples(mc_samples)
    resolution = check_resolution(n, resolution) if n <= 3 else resolution
    components = count_components(p, box, resolution) if n <= 3 else None
    components_done = time.perf_counter()
    moments = moment_vector(p.basis, box)
    moments_done = time.perf_counter()
    volume = mc_volume(p, box, samples=mc_samples, seed=seed)
    cheb = chebyshev_check(p, moments, volume)
    mc_done = time.perf_counter()
    scan_spec = _scan_spec(p)
    scan = nonnegativity_scan(p, box, scan_spec)
    scan_done = time.perf_counter()
    per_axis, samples = scan_spec.points_per_axis, scan_spec.sample_count
    scan_grid = f"{samples} Sobol points" if per_axis is None else f"a {per_axis}^{n} grid"
    trace = trace_report(p, box).trace_pm if p.basis.kind == "monomial" else None
    cells = resolution**n if 2 <= n <= 3 else 0
    _log.debug(
        "verify degree %d: moments %.3f s, monte carlo %.3f s on %d samples drawn in %d of "
        "%d cells, scan %.3f s on %s, components %.3f s on %d cells, trace %.3f s",
        p.degree, moments_done - components_done, mc_done - moments_done, volume.evaluated,
        volume.undecided, volume.cells, scan_done - mc_done, scan_grid,
        components_done - start, cells, time.perf_counter() - scan_done,
    )
    return VerificationReport(
        w=cheb.w,
        mc_volume=volume.estimate,
        mc_stderr=volume.standard_error,
        cheb_gap=cheb.gap,
        min_scan_value=scan.min_value,
        components=components,
        trace_pm=trace,
    )
