"""Fit a low-volume polynomial superlevel set around a finite point cloud.

The fitted set is U(p) = {x in B : p(x) >= 1} for a polynomial p of chosen
degree.  Minimizing the integral of p over the box B, subject to p >= 1 at
every cloud point and p >= 0 on a dense grid of B, is a linear program in the
coefficients of p; its optimal value upper-bounds nothing and lower-bounds
nothing by itself, but with p >= 0 on all of B it dominates the volume of
U(p), which is what makes the objective a useful surrogate.

Nonnegativity is only enforced at grid points, so a fitted polynomial can dip
slightly negative between them; the verification module measures this.

fit, degree_sweep and build_problem (and so export-mps) take the program
of a degree from one builder, and the solver reads its rows through the
program's row source only.  On a 1-D or Sobol grid the cloud and grid rows
are assemble's dense A.  On a tensor grid in two or more dimensions no A is
built for a fit: the solver prices the grid rows by contracting the
coefficients with per-axis tables of the basis and builds only the rows it
works with; build_problem's A is built from the same source, row for row
and bit for bit, when it is first read.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from .basis import (
    BasisKind, PolyBasis, Polynomial, _basis_table, _contract, eval_basis_many, make_basis,
)
from .domain import MAX_GRID_POINTS, BoxDomain, grid_axes, tensor_grid
from .lp import DenseRows, LpProblem, SolveStats, StackedRows, _gamma, solve
from .moments import MomentVector, moment_vector

_log = logging.getLogger("polycover")

CONTAINMENT_TOL = 1e-6


class FitError(RuntimeError):
    """Base class for fitting failures."""


class UnboundedFitError(FitError):
    """The objective can decrease without bound on the assembled problem."""


class SolverFailedError(FitError):
    """The solver could not certify an outcome."""


class ContainmentError(FitError):
    """The returned polynomial fails p >= 1 at some cloud point."""


@dataclass(frozen=True)
class PointCloud:
    """Finite set of points to cover, one row per point."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("point cloud must be a nonempty (N, n) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class GridSpec:
    """Where to enforce p >= 0: a tensor grid or a quasi-random sample.

    Exactly one of points_per_axis and sample_count must be set.  The seed
    only affects the quasi-random mode.
    """

    points_per_axis: int | None = None
    sample_count: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.points_per_axis is None) == (self.sample_count is None):
            raise ValueError("set exactly one of points_per_axis and sample_count")
        if self.points_per_axis is not None and self.points_per_axis < 2:
            raise ValueError("points_per_axis must be at least 2")
        if self.sample_count is not None and self.sample_count < 1:
            raise ValueError("sample_count must be positive")


def default_grid_spec(dimension: int) -> GridSpec:
    """Grid density defaults: 2001 points in 1-D, 201 per axis in 2-D,
    and a 100000-point quasi-random sample in higher dimension."""
    if dimension == 1:
        return GridSpec(points_per_axis=2001)
    if dimension == 2:
        return GridSpec(points_per_axis=201)
    return GridSpec(sample_count=100_000)


def build_grid(box: BoxDomain, spec: GridSpec) -> np.ndarray:
    """Materialize the grid as an (M, n) array of points inside the box.

    Tensor grids include the box boundary and are laid out row-major in the
    axis order.  Quasi-random grids use a scrambled Sobol sequence, so a
    fixed seed gives identical points on every run; more than
    MAX_GRID_POINTS of them are refused before anything is drawn.
    """
    if spec.points_per_axis is not None:
        return tensor_grid(box.lower, box.upper, spec.points_per_axis)
    if spec.sample_count > MAX_GRID_POINTS:
        raise ValueError(
            f"quasi-random grid would hold {spec.sample_count} points (limit {MAX_GRID_POINTS})"
        )
    return box.scale_unit(_sobol(box.dimension, spec.sample_count, spec.seed))


@functools.cache
def _sobol_table() -> tuple[np.ndarray, np.ndarray]:
    """The Joe-Kuo primitive polynomials and initial direction numbers that
    scipy ships; locating the file by path imports no scipy.stats."""
    with np.load(Path(scipy.__file__).with_name("stats") / "_sobol_direction_numbers.npz") as table:
        return table["poly"], table["vinit"]


def _sobol(d: int, n: int, seed: int) -> np.ndarray:
    """The first n <= 2**30 points of scipy.stats.qmc.Sobol(d, scramble=True,
    seed=seed), bit for bit: Sobol's sequence with Joe-Kuo direction numbers
    (SIAM J. Sci. Comput. 30, 2008) under Matousek's linear matrix scramble
    and a digital shift (J. Complexity 14, 1998), drawn in Gray-code order."""
    poly, vinit = _sobol_table()
    if d > len(poly):
        raise ValueError(f"Sobol grids have at most {len(poly)} dimensions, not {d}")
    bits = 30
    rng = np.random.default_rng(seed)  # as scipy's QMC engines seed their generator
    shift_bits = rng.integers(2, size=(d, bits), dtype=np.uint32)
    ltm = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32))
    ltm[:, range(bits), range(bits)] = 1
    # Direction numbers: row 0 all ones, row j by the recurrence of poly[j].
    v = np.ones((d, bits), dtype=np.uint32)
    for j in range(1, d):
        p = int(poly[j])
        m = p.bit_length() - 1
        row = vinit[j, :m].tolist()
        for i in range(m, bits):
            new = row[i - m]
            for k in range(m):
                if p >> (m - 1 - k) & 1:
                    new ^= row[i - k - 1] << (k + 1)
            row.append(new)
        v[j] = row
    top = np.uint32(1) << np.arange(bits - 1, -1, -1, dtype=np.uint32)  # top[k] = 2**(29 - k)
    v *= top
    # Scramble: bit 29 - p of a column is the parity of ltm[p] against its
    # bits 29 - k, k = 0..29.
    digits = ((v[:, :, None] & top) != 0).astype(np.uint32)
    columns = ((digits @ ltm.transpose(0, 2, 1)) & 1) @ top
    # Point 0 is the shift; point i is point i - 1 XOR the column at the
    # lowest zero bit of i - 1, which is b for i = 2**b mod 2**(b + 1).
    points = np.empty((n, d), dtype=np.uint32)
    points[0] = shift_bits @ top[::-1]
    for b in range(bits):
        points[1 << b :: 2 << b] = columns[:, b]
    np.bitwise_xor.accumulate(points, axis=0, out=points)
    return points * 2.0**-bits


def assemble(
    cloud: PointCloud,
    grid_points: np.ndarray,
    basis: PolyBasis,
    moments: MomentVector,
) -> LpProblem:
    """Build the coefficient program: minimize the integral of p over the box
    subject to p >= 1 on the cloud and p >= 0 on the grid."""
    if moments.basis is not basis and moments.basis != basis:
        raise ValueError("moment vector was computed for a different basis")
    A = eval_basis_many(basis, np.vstack([cloud.points, grid_points]))
    b, kinds = _rhs_kinds(cloud.count, len(grid_points), 0)
    return LpProblem(c=moments.values.copy(), A=A, b=b, row_kinds=kinds)


def _rhs_kinds(cloud_count: int, grid_count: int, bound_rows: int) -> tuple[np.ndarray, tuple]:
    """b and row_kinds of the coefficient program: 1 on the cloud rows, 0 on
    the grid rows and -1 on the bound rows +-v_i / coeff_bound >= -1, scaled
    so that a large bound widens no solver tolerance (they scale with |b|)."""
    b = np.concatenate([np.ones(cloud_count), np.zeros(grid_count), np.full(bound_rows, -1.0)])
    return b, ("K",) * cloud_count + ("grid",) * grid_count + ("bound",) * bound_rows


class _GridRows:
    """Row source (see lp.DenseRows) of a basis at the nodes of a tensor
    grid, in tensor_grid's row-major order, less the nodes left out of the
    program: the grid rows that assemble would fill.

    Each axis's table holds _basis_table's values, the factors that
    eval_basis_many multiplies, so take, which is eval_basis_many on the
    chosen nodes, gives A's rows bit for bit.  price contracts the dense
    coefficient array of each column of Y with the tables axis by axis, as
    eval_poly_grid does; no row is formed.
    """

    def __init__(self, basis: PolyBasis, axes: list[np.ndarray], points: np.ndarray,
                 kept: np.ndarray | None):
        self.basis = basis
        self.points = points  # the node of each row
        self.kept = kept  # the node index of each row; None when no node is left out
        self.tables = [np.ascontiguousarray(_basis_table(basis, axis, x).T)
                       for axis, x in enumerate(axes)]
        self.abs_tables = [np.abs(table) for table in self.tables]
        self.shape = (points.shape[0], len(basis))

    def take(self, idx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return eval_basis_many(self.basis, self.points[idx], out=out)

    def _values(self, Y: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
        """Y's columns as dense coefficient arrays contracted with tables:
        one row per grid row, one column per column of Y."""
        dense = np.zeros((self.basis.degree + 1,) * self.basis.dimension + Y.shape[1:])
        dense[tuple(self.basis.exponent_array.T)] = Y
        values = _contract(dense, tables).reshape(Y.shape[1:] + (-1,)).T
        return values if self.kept is None else values[self.kept]

    def price(self, Y: np.ndarray) -> np.ndarray:
        return self._values(Y, self.tables)

    def error(self, b: np.ndarray, v: np.ndarray) -> np.ndarray:
        """2 gamma_N (|b| + S) plus an underflow term, where S is the same
        contraction run on |v| and the |tables|, and N = n (d + 2) + 2.

        The contraction is n dot products of length d + 1 in turn, so its
        value is sum_alpha v_alpha prod_i t_i (1 + theta), |theta| <=
        gamma_{n (d + 1)}; A's entries are the products prod_i t_i rounded
        n - 1 times; b - price(v) rounds once more.  So the float residual
        is within gamma_{n (d + 2)} (|b| + S) of b - A v, and the computed S
        falls short of the exact one by a factor (1 - gamma_{n (d + 1)}) at
        most, which the factor 2 of _gamma absorbs with the rest.  Underflow
        adds at most half the smallest subnormal per product, scaled by the
        tables' later factors: (n (d + 1)^n + n |v|_1) prod_i max(1, |t_i|).
        """
        n, d = self.basis.dimension, self.basis.degree
        peak = math.prod(max(1.0, float(table.max())) for table in self.abs_tables)
        products = n * (d + 1) ** n + n * float(np.sum(np.abs(v)))
        e = self._values(np.abs(v), self.abs_tables)
        e += np.abs(b)
        e *= _gamma(n * (d + 2) + 2)
        e += products * peak * np.finfo(float).smallest_subnormal
        return e

    def max_abs(self) -> float:
        """max |A_ij| over every node, left out or not (a node left out
        repeats a cloud row): the per-axis peaks multiplied in
        eval_basis_many's order, since rounding is monotone."""
        peaks = [table.max(axis=1) for table in self.abs_tables]
        exps = self.basis.exponent_array
        product = peaks[0][exps[:, 0]]
        for axis in range(1, self.basis.dimension):
            product = product * peaks[axis][exps[:, axis]]
        return float(product.max())


@dataclass(frozen=True)
class _FitSetup:
    """Checked inputs shared by every degree: the cloud, the inflated box, the
    grid where p >= 0 is enforced, the basis kind and the coefficient bound.
    For a tensor grid in two or more dimensions, axes holds the grid's axes
    and kept the node index of each point of grid_points, or None when no
    node was left out."""

    cloud: PointCloud
    box: BoxDomain
    grid_points: np.ndarray
    kind: BasisKind
    coeff_bound: float | None
    axes: list[np.ndarray] | None = None
    kept: np.ndarray | None = None

    def _basis(self, degree: int) -> tuple[PolyBasis, MomentVector]:
        basis_box = self.box if self.kind == "chebyshev" else None
        basis = make_basis(self.cloud.dimension, degree, self.kind, basis_box)
        return basis, moment_vector(basis, self.box)

    def program(self, degree: int) -> tuple[PolyBasis, LpProblem]:
        """The coefficient program of one degree: cloud rows, grid rows, then
        the rows +-v_i / bound >= -1 when a coefficient bound is set.  The
        cloud and grid rows are assemble's dense A, or on a tensor grid in
        two or more dimensions the cloud's dense rows over a _GridRows."""
        basis, moments = self._basis(degree)
        if self.axes is None:
            problem = assemble(self.cloud, self.grid_points, basis, moments)
            if self.coeff_bound is None:
                return basis, problem
            parts = [problem.rows]
        else:
            cloud = DenseRows(eval_basis_many(basis, self.cloud.points))
            parts = [cloud, _GridRows(basis, self.axes, self.grid_points, self.kept)]
        bound_rows = 0
        if self.coeff_bound is not None:
            eye = np.eye(len(basis)) / self.coeff_bound
            parts.append(DenseRows(np.vstack([eye, -eye])))
            bound_rows = 2 * len(basis)
        b, kinds = _rhs_kinds(self.cloud.count, len(self.grid_points), bound_rows)
        rows = StackedRows(parts)
        return basis, LpProblem(moments.values.copy(), b=b, row_kinds=kinds, rows=rows)


def _prepare(
    cloud: PointCloud,
    box: BoxDomain,
    kind: BasisKind,
    grid: GridSpec | None,
    inflate: float,
    coeff_bound: float | None,
) -> _FitSetup:
    """Check the inputs, inflate the box and build the grid, once for all degrees.

    Grid nodes equal to a cloud point are left out: their rows would repeat
    that point's row with the smaller right-hand side 0.
    """
    if cloud.dimension != box.dimension:
        raise ValueError("cloud and box dimensions differ")
    if coeff_bound is not None and not (math.isfinite(coeff_bound) and coeff_bound > 0):
        raise ValueError("coeff_bound must be positive and finite")
    box_eff = box.inflate(inflate)
    if not box_eff.contains_all(cloud.points):
        raise ValueError("point cloud is not contained in the box")
    spec = grid if grid is not None else default_grid_spec(cloud.dimension)
    grid_points = build_grid(box_eff, spec)
    point = np.dtype((np.void, grid_points.itemsize * cloud.dimension))  # compares bytes
    on_cloud = np.isin(
        grid_points.view(point).ravel(), np.ascontiguousarray(cloud.points).view(point).ravel()
    )
    axes = kept = None
    if spec.points_per_axis is not None and cloud.dimension >= 2:
        # in 1-D the one axis table is the grid's row block, and dense rows cost no more
        axes = grid_axes(box_eff.lower, box_eff.upper, spec.points_per_axis)
        kept = np.flatnonzero(~on_cloud) if on_cloud.any() else None
    return _FitSetup(cloud, box_eff, grid_points[~on_cloud], kind, coeff_bound, axes, kept)


def build_problem(
    cloud: PointCloud,
    box: BoxDomain,
    degree: int,
    *,
    kind: BasisKind = "monomial",
    grid: GridSpec | None = None,
    inflate: float = 1.0,
    coeff_bound: float | None = None,
) -> LpProblem:
    """The program that fit solves for the same arguments, left unsolved."""
    return _prepare(cloud, box, kind, grid, inflate, coeff_bound).program(degree)[1]


@dataclass(frozen=True)
class FitResult:
    """One certified fit.  grid_size counts the grid nodes where p >= 0 was
    enforced; nodes equal to a cloud point are not among them.
    containment_margin is min p over the cloud minus 1.  lp_stats holds the
    solve's work counters; no output file carries them."""

    polynomial: Polynomial
    objective: float
    degree: int
    grid_size: int
    containment_margin: float
    box: BoxDomain
    lp_iterations: int
    lp_rows: int
    lp_stats: SolveStats = field(compare=False)

    @property
    def w(self) -> float:
        """Optimal integral of p over the box."""
        return self.objective


def _fit_degree(setup: _FitSetup, degree: int) -> FitResult:
    """Build, solve and check one degree; writes one DEBUG line to the
    polycover logger with the row count and the seconds of each stage (build:
    setup.program, which assembles A on a 1-D or Sobol grid and sets up the
    row source of a tensor grid).  problem.A is never read."""
    start = time.perf_counter()
    basis, problem = setup.program(degree)
    built = time.perf_counter()
    solution = solve(problem)
    solved = time.perf_counter()
    if solution.status == "optimal":
        polynomial = Polynomial(basis, solution.v)
        cloud = problem.rows.take(np.arange(setup.cloud.count))
        margin = float(np.min(cloud @ polynomial.coeffs)) - 1.0
    _log.debug(
        "fit degree %d (%s): %d rows, build %.3f s, solve %.3f s, checks %.3f s",
        degree, solution.status, problem.num_rows, built - start,
        solved - built, time.perf_counter() - solved,
    )
    if solution.status == "unbounded":
        raise UnboundedFitError(
            f"degree-{degree} fit is unbounded: the grid leaves room to push the "
            "polynomial down; refine the grid or set a coefficient bound"
        )
    if solution.status != "optimal":
        raise SolverFailedError(f"degree-{degree} fit failed: {solution.message}")
    if margin < -CONTAINMENT_TOL:
        raise ContainmentError(
            f"fitted polynomial misses a cloud point by {-margin:.3e}"
        )
    return FitResult(
        polynomial=polynomial,
        objective=float(solution.objective),
        degree=degree,
        grid_size=setup.grid_points.shape[0],
        containment_margin=margin,
        box=setup.box,
        lp_iterations=solution.iterations,
        lp_rows=problem.num_rows,
        lp_stats=solution.stats,
    )


def fit(
    cloud: PointCloud,
    box: BoxDomain,
    degree: int,
    *,
    kind: BasisKind = "monomial",
    grid: GridSpec | None = None,
    inflate: float = 1.0,
    coeff_bound: float | None = None,
) -> FitResult:
    """Fit one polynomial of the given degree around the cloud, solving its
    LP to the fixed contract of polycover.lp (FEAS_TOL, OPT_TOL, MAX_ITERS).

    Args:
        cloud: points to cover; must lie inside the (inflated) box.
        box: bounding box B of the superlevel set.
        degree: total degree of the polynomial, at least 0.
        kind: coefficient basis; "chebyshev" is better conditioned at
            high degree and on wide boxes.
        grid: where to enforce p >= 0; dimension-based default when None.
        inflate: scale factor applied to the box about its center before
            fitting, to push boundary effects away from the cloud.
        coeff_bound: optional bound beta on the sup-norm of the coefficient
            vector, as the extra constraint rows +-v_i / beta >= -1.

    Raises:
        ValueError: cloud outside the box, or invalid parameters.
        UnboundedFitError, SolverFailedError, ContainmentError.
    """
    setup = _prepare(cloud, box, kind, grid, inflate, coeff_bound)
    return _fit_degree(setup, degree)


@dataclass(frozen=True)
class SweepEntry:
    degree: int
    result: FitResult | None
    error: str | None
    seconds: float = 0.0


def degree_sweep(
    cloud: PointCloud,
    box: BoxDomain,
    degrees: list[int] | tuple[int, ...],
    *,
    kind: BasisKind = "monomial",
    grid: GridSpec | None = None,
    inflate: float = 1.0,
    coeff_bound: float | None = None,
) -> list[SweepEntry]:
    """Fit every degree on one shared grid, in ascending order, each to the
    contract that fit solves to.

    Because the degree-d basis is a prefix of the degree-d' basis for d < d'
    and the grid is shared, the optimal objective cannot increase with the
    degree; a violation beyond roundoff means the solver misbehaved and is
    raised rather than returned.
    """
    degrees = list(degrees)
    if not degrees:
        raise ValueError("degrees must be nonempty")
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be nonnegative")
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be strictly ascending")
    setup = _prepare(cloud, box, kind, grid, inflate, coeff_bound)

    entries: list[SweepEntry] = []
    last_w: float | None = None
    for degree in degrees:
        start = time.perf_counter()
        result, error = None, None
        try:
            result = _fit_degree(setup, degree)
        except (FitError, ValueError) as exc:
            error = str(exc)
        if result is not None:
            if last_w is not None and result.objective > last_w + 1e-6 * (1.0 + abs(last_w)):
                raise SolverFailedError(
                    f"objective rose from {last_w} to {result.objective} at degree "
                    f"{degree}; expected a nonincreasing sweep on a shared grid"
                )
            last_w = result.objective
        entries.append(SweepEntry(degree, result, error, time.perf_counter() - start))
    return entries
