import collections
import dataclasses
import functools
import logging
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycover import (
    BoxDomain,
    GridSpec,
    PointCloud,
    SolverFailedError,
    UnboundedFitError,
    assemble,
    build_grid,
    build_problem,
    default_grid_spec,
    degree_sweep,
    eval_basis_many,
    eval_poly_many,
    export_mps,
    fit,
    make_basis,
    moment_vector,
    solve,
)
from polycover import fitting, lp
from polycover.domain import grid_axes, tensor_grid
from polycover.fitting import MAX_GRID_POINTS, _prepare
from polycover.lp import DenseRows, LpProblem, StackedRows, _max_violation

from conftest import cluster_point_array
from oracles import read_mps


def test_single_point_degree_two_has_known_optimum():
    # covering {0} with a degree-2 set on [-1, 1]: the best is 1 - x^2 with
    # integral 4/3 (touching zero at both box endpoints)
    result = fit(
        PointCloud(np.array([0.0])),
        BoxDomain.symmetric(1),
        2,
        grid=GridSpec(points_per_axis=101),
    )
    assert result.w == pytest.approx(4.0 / 3.0, rel=1e-9)
    np.testing.assert_allclose(result.polynomial.coeffs, [1.0, 0.0, -1.0], atol=1e-8)


def test_fit_result_carries_its_solve_stats():
    cloud = PointCloud(np.array([-0.5, 0.0, 0.25]))
    for entry in degree_sweep(cloud, BoxDomain.symmetric(1), [2, 7],
                              grid=GridSpec(points_per_axis=501)):
        stats = entry.result.lp_stats
        assert stats.phase1_pivots + stats.phase2_pivots == entry.result.lp_iterations > 0
        assert stats.factorizations > 0


def test_constant_degree_zero_covers_box():
    result = fit(
        PointCloud(np.array([0.3])),
        BoxDomain.symmetric(1),
        0,
        grid=GridSpec(points_per_axis=51),
    )
    assert result.w == 2.0
    assert result.polynomial.coeffs[0] == pytest.approx(1.0, abs=1e-12)


def test_objective_never_exceeds_box_volume():
    # p == 1 is always feasible, so w <= vol(B)
    box = BoxDomain(lower=(-1.0, -2.0), upper=(2.0, 1.0))
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, -1.0], [-0.5, 0.5]]))
    for degree in (0, 2, 4):
        result = fit(cloud, box, degree, grid=GridSpec(points_per_axis=41))
        assert result.w <= box.volume + 1e-9


def test_a_box_past_1e154_fits_without_overflow(caplog):
    # |c| = 4e200: the sum of squares in the crash's norms of c and of its
    # residual overflows, while the norms themselves do not
    with warnings.catch_warnings(), caplog.at_level(logging.DEBUG, logger="polycover"):
        warnings.simplefilter("error")
        result = fit(PointCloud(np.array([[0.5, 0.5]])),
                     BoxDomain((-1e100, -1e100), (1e100, 1e100)), 1,
                     grid=GridSpec(points_per_axis=21))
    assert result.objective == 4e200
    lines = [r.getMessage() for r in caplog.records if r.name == "polycover"]
    assert lines[0].startswith("crash declined (residual 4.000e+200 on 0 rows): ")


def test_containment_margin_is_reported_and_honored():
    result = fit(
        PointCloud(np.array([-0.5, 0.0, 0.25])),
        BoxDomain.symmetric(1),
        7,
        grid=GridSpec(points_per_axis=501),
    )
    assert result.containment_margin >= -1e-6
    values = eval_poly_many(result.polynomial, np.array([[-0.5], [0.0], [0.25]]))
    assert float(np.min(values)) >= 1.0 - 1e-6


def test_grid_refinement_cannot_decrease_objective():
    cloud = PointCloud(np.array([-0.4, 0.2]))
    box = BoxDomain.symmetric(1)
    # 2k+1-point grids nest: every coarse point appears in the finer grid
    coarse = fit(cloud, box, 6, grid=GridSpec(points_per_axis=101)).w
    fine = fit(cloud, box, 6, grid=GridSpec(points_per_axis=201)).w
    assert fine >= coarse - 1e-9


def test_degree_monotone_on_shared_grid():
    entries = degree_sweep(
        PointCloud(np.array([-0.4, 0.2])),
        BoxDomain.symmetric(1),
        [0, 2, 4, 6, 8],
        grid=GridSpec(points_per_axis=201),
    )
    values = [e.result.w for e in entries]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-6 * (1 + abs(hi))
    assert all(e.seconds >= 0.0 for e in entries)


def test_translation_equivariance():
    rng = np.random.default_rng(17)
    points = rng.uniform(-0.6, 0.6, size=(5, 2))
    shift = np.array([0.35, -1.2])
    box = BoxDomain.symmetric(2)
    shifted_box = BoxDomain(
        lower=tuple(box.lower_array + shift), upper=tuple(box.upper_array + shift)
    )
    spec = GridSpec(points_per_axis=41)
    base = fit(PointCloud(points), box, 3, grid=spec)
    moved = fit(PointCloud(points + shift), shifted_box, 3, grid=spec)
    probes = rng.uniform(-0.9, 0.9, size=(20, 2))
    np.testing.assert_allclose(
        eval_poly_many(moved.polynomial, probes + shift),
        eval_poly_many(base.polynomial, probes),
        atol=1e-8,
    )


def test_coarse_grid_high_degree_is_unbounded():
    # x^2 (x^2 - 1) vanishes on the grid {-1, 0, 1} and has negative integral,
    # so the objective can run away
    cloud = PointCloud(np.array([0.0]))
    with pytest.raises(UnboundedFitError, match="refine the grid"):
        fit(cloud, BoxDomain.symmetric(1), 4, grid=GridSpec(points_per_axis=3))


def test_coefficient_bound_restores_boundedness():
    cloud = PointCloud(np.array([0.0]))
    result = fit(
        cloud,
        BoxDomain.symmetric(1),
        4,
        grid=GridSpec(points_per_axis=3),
        coeff_bound=10.0,
    )
    assert np.max(np.abs(result.polynomial.coeffs)) <= 10.0 + 1e-9


@pytest.mark.parametrize("bound", [10.0, 1e6, 1e9])
def test_an_inactive_coefficient_bound_leaves_the_fit_unchanged(bound):
    # the paper's line cloud at degree 4, where max |v_i| is 2.92; the
    # solver's tolerances scale with |b|, so bound rows with rhs -bound let
    # 1e6 return p = -1.2e-4 at a grid node and 1e9 miss a cloud point by 1
    cloud, box = PointCloud(np.array([-0.5, 0.0, 0.25])), BoxDomain.symmetric(1)
    plain = fit(cloud, box, 4)
    bounded = fit(cloud, box, 4, coeff_bound=bound)
    assert plain.w == bounded.w == 1.4287351602487985
    assert solve(build_problem(cloud, box, 4, coeff_bound=bound)).max_infeasibility <= 2e-9


def test_chebyshev_kind_reaches_the_monomial_optimum():
    # same LP in a different coordinate system
    cloud = PointCloud(np.array([-0.5, 0.0, 0.25]))
    box = BoxDomain.symmetric(1)
    spec = GridSpec(points_per_axis=501)
    w_mono = fit(cloud, box, 7, grid=spec).w
    w_cheb = fit(cloud, box, 7, kind="chebyshev", grid=spec).w
    assert w_cheb == pytest.approx(w_mono, rel=1e-8, abs=1e-8)


def test_inflate_expands_the_fitting_box():
    cloud = PointCloud(np.array([0.9]))
    result = fit(cloud, BoxDomain.symmetric(1), 2, grid=GridSpec(points_per_axis=101), inflate=1.5)
    assert result.box.lower[0] == pytest.approx(-1.5)
    assert result.box.upper[0] == pytest.approx(1.5)
    assert result.w <= result.box.volume + 1e-9


def test_cloud_outside_box_is_an_error():
    with pytest.raises(ValueError, match="not contained"):
        fit(PointCloud(np.array([1.5])), BoxDomain.symmetric(1), 2)


def test_dimension_mismatch_is_an_error():
    with pytest.raises(ValueError, match="dimensions differ"):
        fit(PointCloud(np.array([[0.0, 0.0]])), BoxDomain.symmetric(1), 2)


ENTRY_POINTS = {
    "fit": lambda cloud, box, **kw: fit(cloud, box, 2, **kw),
    "degree_sweep": lambda cloud, box, **kw: degree_sweep(cloud, box, [2, 4], **kw),
    "build_problem": lambda cloud, box, **kw: build_problem(cloud, box, 2, **kw),
}
BAD_INPUTS = {
    "outside_box": ([1.5], {}, "not contained"),
    "outside_inflated_box": ([0.9], {"inflate": 0.5}, "not contained"),
    "dimension_mismatch": ([[0.0, 0.0]], {}, "dimensions differ"),
    "negative_coeff_bound": ([0.0], {"coeff_bound": -1.0}, "coeff_bound"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case", BAD_INPUTS)
def test_every_entry_point_rejects_bad_inputs(entry, case):
    points, kwargs, message = BAD_INPUTS[case]
    cloud = PointCloud(np.array(points))
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](
            cloud, BoxDomain.symmetric(1), grid=GridSpec(points_per_axis=11), **kwargs
        )


def test_build_problem_appends_bound_rows_to_the_assembled_program():
    # the grid is -1, 0, 1; the node 0.0 is the cloud point, so it is left out
    cloud = PointCloud(np.array([0.0]))
    box = BoxDomain.symmetric(1)
    spec = GridSpec(points_per_axis=3)
    plain = build_problem(cloud, box, 4, grid=spec)
    bounded = build_problem(cloud, box, 4, grid=spec, coeff_bound=10.0)
    basis = make_basis(1, 4, "monomial")
    assembled = assemble(cloud, np.array([[-1.0], [1.0]]), basis, moment_vector(basis, box))
    np.testing.assert_array_equal(plain.A, assembled.A)
    np.testing.assert_array_equal(plain.b, assembled.b)
    np.testing.assert_array_equal(bounded.A[:3], plain.A)
    # +-v_i / 10 >= -1: the bound scales the rows, not b
    np.testing.assert_array_equal(bounded.A[3:], np.vstack([np.eye(5), -np.eye(5)]) / 10.0)
    np.testing.assert_array_equal(bounded.b[3:], np.full(10, -1.0))
    assert bounded.row_kinds == plain.row_kinds + ("bound",) * 10


def test_grid_nodes_on_cloud_points_are_left_out():
    # the paper's three points all sit on nodes of the 2001-node line grid
    cloud = PointCloud(np.array([-0.5, 0.0, 0.25]))
    box = BoxDomain.symmetric(1)
    grid = build_grid(box, default_grid_spec(1))
    problem = build_problem(cloud, box, 7)
    assert problem.num_rows == grid.shape[0]  # 3 cloud rows, 3 grid rows fewer
    assert problem.row_kinds.count("grid") == grid.shape[0] - 3
    grid_rows = {row.tobytes() for row in problem.A[3:]}
    assert not grid_rows & {row.tobytes() for row in problem.A[:3]}

    result = fit(cloud, box, 7)
    assert result.grid_size == grid.shape[0] - 3
    basis = make_basis(1, 7, "monomial")
    full = solve(assemble(cloud, grid, basis, moment_vector(basis, box)))
    assert full.status == "optimal"
    assert result.objective == pytest.approx(full.objective, rel=1e-9)


@pytest.mark.parametrize("case, left_out", [
    ("cluster", 0), ("nodes", 4), ("signed-zero", 1), ("one-axis", 0),
])
def test_grid_nodes_left_out_are_those_equal_to_a_cloud_point_byte_for_byte(case, left_out):
    box, spec = BoxDomain.symmetric(2), GridSpec(points_per_axis=21)
    grid = build_grid(box, spec)  # grid[10] = (-1.0, 0.0)
    x, y = grid[47]
    points = {
        "cluster": cluster_point_array(),
        "nodes": np.vstack([cluster_point_array(), grid[[0, 17, 220, 440]]]),
        # -0.0 == 0.0 as floats, but the rows differ in their bytes
        "signed-zero": np.array([[-1.0, -0.0], [-0.0, -1.0], [-1.0, 0.0]]),
        # grid[47] matches on each axis, but through two different points
        "one-axis": np.array([[x, 0.123], [0.456, y], [x, y + 0.01]]),
    }[case]
    cloud = PointCloud(points)
    row = np.dtype((np.void, grid.itemsize * 2))
    expected = np.isin(grid.view(row).ravel(), np.ascontiguousarray(cloud.points).view(row).ravel())
    assert np.count_nonzero(expected) == left_out
    setup = _prepare(cloud, box, "monomial", spec, 1.0, None, [2])
    np.testing.assert_array_equal(setup.grid_points, grid[~expected])
    if left_out:
        np.testing.assert_array_equal(setup.kept, np.flatnonzero(~expected))
    else:
        assert setup.kept is None


def test_negative_degree_is_an_error():
    with pytest.raises(ValueError, match="degree"):
        fit(PointCloud(np.array([0.0])), BoxDomain.symmetric(1), -1)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec()
    with pytest.raises(ValueError):
        GridSpec(points_per_axis=101, sample_count=50)
    with pytest.raises(ValueError):
        GridSpec(points_per_axis=1)
    with pytest.raises(ValueError):
        GridSpec(sample_count=0)


def test_box_and_cloud_refuse_malformed_input():
    for lower, upper in [((), ()), ((0.0,), (1.0, 2.0))]:
        with pytest.raises(ValueError, match="^lower and upper must have the same nonzero length$"):
            BoxDomain(lower=lower, upper=upper)
    with pytest.raises(ValueError, match="^dimension must be at least 1$"):
        BoxDomain.symmetric(0)
    with pytest.raises(ValueError, match="^half_width must be positive$"):
        BoxDomain.symmetric(2, 0.0)
    with pytest.raises(ValueError, match="^points have dimension 3, box has 2$"):
        BoxDomain.symmetric(2).contains_all(np.zeros((4, 3)))
    for points in (np.zeros((0, 2)), np.zeros(0), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match=r"^point cloud must be a nonempty \(N, n\) array$"):
            PointCloud(points)


def test_default_grid_spec_by_dimension():
    assert default_grid_spec(1).points_per_axis == 2001
    assert default_grid_spec(2).points_per_axis == 201
    assert default_grid_spec(3).sample_count == 100_000
    assert default_grid_spec(5).sample_count == 100_000


def test_tensor_grid_layout_and_cap():
    box = BoxDomain(lower=(0.0, 10.0), upper=(1.0, 12.0))
    grid = build_grid(box, GridSpec(points_per_axis=3))
    expected_first_axis = [0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    np.testing.assert_allclose(grid[:, 0], expected_first_axis)
    np.testing.assert_allclose(grid[:3, 1], [10.0, 11.0, 12.0])

    big = math.ceil(MAX_GRID_POINTS ** (1 / 2)) + 1
    with pytest.raises(ValueError, match="limit"):
        build_grid(box, GridSpec(points_per_axis=big))


def test_quasirandom_grid_limits_are_checked_before_drawing():
    with pytest.raises(ValueError, match="quasi-random grid would hold 10000001 points .*limit"):
        build_grid(BoxDomain.symmetric(3), GridSpec(sample_count=MAX_GRID_POINTS + 1))
    # the Joe-Kuo table has 21201 rows of direction numbers
    with pytest.raises(ValueError, match="at most 21201 dimensions"):
        build_grid(BoxDomain.symmetric(21202), GridSpec(sample_count=1))


def _scipy_sobol_grid(box, count, seed):
    from scipy.stats import qmc  # the reference implementation, for tests only

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # balance needs powers of two
        unit = qmc.Sobol(d=box.dimension, scramble=True, seed=seed).random(count)
    return qmc.scale(unit, box.lower_array, box.upper_array)


@pytest.mark.parametrize("dimension", [1, 2, 3, 4, 7])
def test_quasirandom_grid_is_bitwise_scipy_sobol(dimension):
    box = BoxDomain.symmetric(dimension)
    for seed in (0, 1, 7, 12345):
        for count in (1, 2, 3, 1000, 20000):
            grid = build_grid(box, GridSpec(sample_count=count, seed=seed))
            assert np.array_equal(grid, _scipy_sobol_grid(box, count, seed)), (seed, count)


def test_quasirandom_scan_sized_grid_on_a_skewed_box_is_bitwise_scipy_sobol():
    # 400,000 points is the 3-D nonnegativity scan's default sample
    box = BoxDomain(lower=(-0.3, 2.0, -7.25), upper=(1.7, 2.5, 3.0))
    grid = build_grid(box, GridSpec(sample_count=400_000, seed=1))
    assert np.array_equal(grid, _scipy_sobol_grid(box, 400_000, 1))


def test_quasirandom_grid_is_seed_deterministic():
    box = BoxDomain.symmetric(3)
    a = build_grid(box, GridSpec(sample_count=500, seed=9))
    b = build_grid(box, GridSpec(sample_count=500, seed=9))
    c = build_grid(box, GridSpec(sample_count=500, seed=10))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert box.contains_all(a)


def test_assemble_shapes_and_kinds():
    cloud = PointCloud(np.array([[0.1, 0.2], [0.3, -0.1]]))
    box = BoxDomain.symmetric(2)
    basis = make_basis(2, 2, "monomial")
    grid = build_grid(box, GridSpec(points_per_axis=5))
    problem = assemble(cloud, grid, basis, moment_vector(basis, box))
    assert problem.A.shape == (2 + 25, len(basis))
    assert problem.b[:2].tolist() == [1.0, 1.0]
    assert set(problem.row_kinds[:2]) == {"K"}
    assert set(problem.row_kinds[2:]) == {"grid"}


def test_build_problem_allocates_little_beyond_A():
    # the W2 LP: the conftest cluster on the 201^2 grid at degree 14
    args = (PointCloud(cluster_point_array()), BoxDomain.symmetric(2), 14)
    spec = GridSpec(points_per_axis=201)
    build_problem(*args, grid=spec)  # caches warm
    tracemalloc.start()
    try:
        A = build_problem(*args, grid=spec).A
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per-point tables, two row blocks and their vstack peaked at 2.26 A.nbytes
    assert peak <= 1.25 * A.nbytes


def test_bound_rows_are_written_into_A_not_stacked_under_it():
    # the W2 LP with a coefficient bound: 2k bound rows below the 40,501
    args = (PointCloud(cluster_point_array()), BoxDomain.symmetric(2), 14)
    spec = GridSpec(points_per_axis=201)
    plain = build_problem(*args, grid=spec)
    tracemalloc.start()
    try:
        bounded = build_problem(*args, grid=spec, coeff_bound=50.0)
        bounded.A
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # np.vstack of the bound rows under A peaked at 2.17 A.nbytes
    assert peak <= 1.25 * bounded.A.nbytes
    m, k = plain.A.shape
    eye = np.eye(k) / 50.0  # the rows +-v_i / 50 >= -1
    assert bounded.A.tobytes() == np.vstack([plain.A, eye, -eye]).tobytes()  # signed zeros too
    assert bounded.b.tobytes() == np.concatenate([plain.b, np.full(2 * k, -1.0)]).tobytes()
    assert bounded.c.tobytes() == plain.c.tobytes()


def test_tensor_grid_fit_builds_few_dense_rows(cluster_sweep):
    # the W2 LP: the engine prices all 40,501 rows by contraction and
    # builds only its working sets (3666 rows)
    (result,) = [entry.result for entry in cluster_sweep if entry.degree == 14]
    assert result.lp_rows == 40_501
    assert 0 < result.lp_stats.rows_built <= 0.1 * result.lp_rows


def test_tensor_grid_fit_allocates_a_fraction_of_A():
    # the cluster cloud on the 201^2 grid at degree 9: A would hold
    # 40,501 x 55 doubles; the fit never builds it
    args = (PointCloud(cluster_point_array()), BoxDomain.symmetric(2), 9)
    spec = GridSpec(points_per_axis=201)
    fit(*args, grid=spec)  # caches warm
    tracemalloc.start()
    try:
        result = fit(*args, grid=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 0.23 m k 8 bytes, from the grid, its node test and the engine's m-vectors
    assert peak <= 0.25 * result.lp_rows * len(result.polynomial.coeffs) * 8


def _on_node_cloud() -> np.ndarray:
    # the cluster cloud plus two nodes of the 31^2 grid on [-1, 1]^2
    axis = grid_axes((-1.0, -1.0), (1.0, 1.0), 31)[0]
    return np.vstack([cluster_point_array(), [[axis[4], axis[20]], [axis[15], axis[15]]]])


def _cloud_3d() -> np.ndarray:
    return np.clip(np.random.default_rng(3).normal(0.0, 0.3, size=(20, 3)), -0.9, 0.9)


# (points, kind, degree, points per axis, coefficient bound)
DIFFERENTIAL_CASES = {
    "monomial": (cluster_point_array, "monomial", 9, 101, None),
    "chebyshev": (cluster_point_array, "chebyshev", 9, 101, None),
    "coeff_bound": (cluster_point_array, "monomial", 12, 21, 40.0),
    "cloud_on_node": (_on_node_cloud, "chebyshev", 8, 31, None),
    "3d": (_cloud_3d, "chebyshev", 5, 15, None),
}


def _dense_program(cloud, box, kind, spec, degree, bound):
    """build_problem's program as a dense reference: assemble on the grid
    less the nodes equal to a cloud point, the bound rows stacked by hand."""
    grid = build_grid(box, spec)
    on_cloud = (grid[:, None, :] == cloud.points[None, :, :]).all(axis=2).any(axis=1)
    basis = make_basis(cloud.dimension, degree, kind, box if kind == "chebyshev" else None)
    problem = assemble(cloud, grid[~on_cloud], basis, moment_vector(basis, box))
    if bound is None:
        return problem
    eye = np.eye(len(basis)) / bound
    return LpProblem(
        c=problem.c,
        A=np.vstack([problem.A, eye, -eye]),
        b=np.concatenate([problem.b, np.full(2 * len(basis), -1.0)]),
        row_kinds=problem.row_kinds + ("bound",) * (2 * len(basis)),
    )


@pytest.mark.parametrize("kind", ["monomial", "chebyshev"])
@pytest.mark.parametrize("n, per_axis, degree", [(2, 41, 9), (3, 9, 5)])
@pytest.mark.parametrize("left_out", [False, True])
def test_grid_rows_take_is_eval_basis_many_bit_for_bit(kind, n, per_axis, degree, left_out):
    box = BoxDomain(lower=(-1.3, -0.2, -2.0)[:n], upper=(0.7, 1.9, 1.0)[:n])
    basis = make_basis(n, degree, kind, box if kind == "chebyshev" else None)
    nodes = tensor_grid(box.lower, box.upper, per_axis)
    rng = np.random.default_rng(n + 2 * left_out)
    kept = np.sort(rng.permutation(len(nodes))[: len(nodes) // 2]) if left_out else None
    tables = [np.ascontiguousarray(fitting._basis_table(basis, axis, x).T)
              for axis, x in enumerate(grid_axes(box.lower, box.upper, per_axis))]
    rows = fitting._GridRows(basis, tables, kept)
    points = nodes if kept is None else nodes[kept]
    assert rows.shape == (len(points), len(basis))
    # more rows than one evaluation block, with repeats, in any order
    idx = rng.integers(0, len(points), 5000)
    expected = eval_basis_many(basis, points[idx])
    assert rows.take(idx).tobytes() == expected.tobytes()
    out = np.empty_like(expected)
    assert rows.take(idx, out=out) is out
    assert out.tobytes() == expected.tobytes()
    # the peak over every node, left out or not
    assert rows.max_abs() == DenseRows(eval_basis_many(basis, nodes)).max_abs()


@pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
def test_tensor_grid_program_matches_the_dense_program(case):
    points, kind, degree, per_axis, bound = DIFFERENTIAL_CASES[case]
    cloud = PointCloud(points())
    box = BoxDomain.symmetric(cloud.dimension)
    spec = GridSpec(points_per_axis=per_axis)
    reference = _dense_program(cloud, box, kind, spec, degree, bound)
    problem = build_problem(cloud, box, degree, kind=kind, grid=spec, coeff_bound=bound)
    assert isinstance(problem.rows, StackedRows)
    if case == "cloud_on_node":
        assert problem.num_rows == cloud.count + per_axis**2 - 2
    # the rows, built on demand in any order, are the dense rows bit for bit
    some = np.random.default_rng(5).permutation(problem.num_rows)[:500]
    assert problem.rows.take(some).tobytes() == reference.A[some].tobytes()
    assert problem.A.tobytes() == reference.A.tobytes()
    assert problem.b.tobytes() == reference.b.tobytes()
    assert problem.c.tobytes() == reference.c.tobytes()
    assert problem.row_kinds == reference.row_kinds

    opt_tol = lp.OPT_TOL
    dense = solve(reference)
    tensor = solve(problem)
    assert dense.status == tensor.status == "optimal", (dense.message, tensor.message)
    assert abs(tensor.objective - dense.objective) <= opt_tol * (1.0 + abs(dense.objective))
    np.testing.assert_allclose(tensor.duals, dense.duals, rtol=0.0, atol=opt_tol)
    result = fit(cloud, box, degree, kind=kind, grid=spec, coeff_bound=bound)
    assert result.objective == tensor.objective
    assert result.lp_rows == reference.num_rows
    dense_margin = float(np.min(reference.A[: cloud.count] @ dense.v)) - 1.0
    assert abs(result.containment_margin - dense_margin) <= opt_tol
    if bound is not None:
        assert np.max(np.abs(result.polynomial.coeffs)) <= bound * (1.0 + 1e-9)


def test_tensor_grid_program_certifies_the_dense_program_ray():
    # the k = 120 ray LP: the crash declines, so phase 1 prices every row
    # from the artificials through the contraction, and the ray check reads
    # the source's max |A| and products
    cloud, box = PointCloud(cluster_point_array()), BoxDomain.symmetric(2)
    spec = GridSpec(points_per_axis=21)
    reference = _dense_program(cloud, box, "monomial", spec, 14, None)
    problem = build_problem(cloud, box, 14, grid=spec)
    assert problem.rows.max_abs() == DenseRows(reference.A).max_abs()
    dense = solve(reference)
    tensor = solve(problem)
    assert dense.status == tensor.status == "unbounded"
    assert tensor.stats.phase1_pivots > 0
    assert float(reference.c @ tensor.ray) < 0.0
    A = reference.A
    assert float(np.min(A @ tensor.ray)) >= -1e-9 * (1.0 + np.max(np.abs(A)))


def test_exported_program_is_the_one_the_tensor_grid_fit_solves():
    # a tensor grid, a line grid and a Sobol sample, each with a bound
    inputs = [
        (_on_node_cloud(), "monomial", GridSpec(points_per_axis=31), 20.0),
        (np.array([-0.5, 0.0, 0.25]), "monomial", GridSpec(points_per_axis=41), 20.0),
        (_cloud_3d(), "chebyshev", GridSpec(sample_count=500, seed=3), 20.0),
    ]
    for points, kind, spec, bound in inputs:
        cloud = PointCloud(points)
        box = BoxDomain.symmetric(cloud.dimension)
        exported = build_problem(cloud, box, 6, kind=kind, grid=spec, coeff_bound=bound)
        c, A, b, _, _ = read_mps(export_mps(exported))
        program = _prepare(cloud, box, kind, spec, 1.0, bound, [6]).program(6)[1]
        np.testing.assert_array_equal(A, program.rows.take(np.arange(program.num_rows)))
        np.testing.assert_array_equal(b, program.b)
        np.testing.assert_array_equal(c, program.c)


@functools.cache
def _violation_programs():
    cloud, box = PointCloud(_on_node_cloud()), BoxDomain.symmetric(2)
    spec = GridSpec(points_per_axis=31)
    programs = []
    for kind, bound in (("monomial", None), ("chebyshev", 25.0)):
        reference = _dense_program(cloud, box, kind, spec, 7, bound)
        problem = build_problem(cloud, box, 7, kind=kind, grid=spec, coeff_bound=bound)
        programs.append((reference, problem, solve(reference).v))
    return programs


@settings(max_examples=60, deadline=None)
@given(
    which=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 1e-15, 1e-12, 1e-6, 1.0, 1e3, 1e12]),
    near_optimum=st.booleans(),
)
def test_tensor_grid_max_violation_is_the_dense_one_bit_for_bit(which, seed, scale, near_optimum):
    reference, problem, optimum = _violation_programs()[which]
    step = np.random.default_rng(seed).normal(size=problem.num_cols) * scale
    v = optimum + step if near_optimum else step
    dense = _max_violation(DenseRows(reference.A), reference.b, v)
    assert _max_violation(problem.rows, problem.b, v) == dense


# (points, grid): a line grid, a Sobol sample and a tensor grid
PROGRAM_FORMS = {
    "line": (lambda: np.array([-0.5, 0.0, 0.25]), GridSpec(points_per_axis=101)),
    "sobol": (_cloud_3d, GridSpec(sample_count=2000, seed=1)),
    "tensor": (cluster_point_array, GridSpec(points_per_axis=41)),
}


# degrees with k >= 64 in 2-D (66 columns) and 3-D (84)
CONTINUED_DEGREES = {"line": 12, "sobol": 6, "tensor": 10}


@pytest.mark.parametrize("bound", [None, 30.0], ids=["free", "coeff_bound"])
@pytest.mark.parametrize("form", PROGRAM_FORMS)
def test_fit_solves_through_lp_solve_and_never_reads_A(monkeypatch, form, bound):
    # the margin comes from the cloud's rows of the row source; on W2 an A
    # would add 37 MiB to the cluster sweep's peak
    points, spec = PROGRAM_FORMS[form]
    cloud = PointCloud(points())
    box = BoxDomain.symmetric(cloud.dimension)
    solved = []

    def recorded(problem, start=None):
        solved.append(problem)
        return solve(problem, start=start)

    def unread(problem):
        raise AssertionError("problem.A was read")

    monkeypatch.setattr(fitting, "solve", recorded)
    monkeypatch.setattr(LpProblem, "A", property(unread))
    result = fit(cloud, box, 3, grid=spec, coeff_bound=bound)
    entries = degree_sweep(cloud, box, [1, 3], grid=spec, coeff_bound=bound)
    assert [problem.num_rows for problem in solved] == [
        result.lp_rows, entries[0].result.lp_rows, entries[1].result.lp_rows
    ]
    assert isinstance(solved[0].rows, StackedRows) == (form == "tensor" or bound is not None)
    assert entries[1].result.objective == result.objective
    # at k >= 64 the tensor and Sobol fits, bounded or not, solve one coarse
    # level first, through solve and without reading its A either; the line
    # fits stay cold
    solved.clear()
    continued = fit(cloud, box, CONTINUED_DEGREES[form], grid=spec, coeff_bound=bound)
    levels = 0 if form == "line" else 1
    assert [problem.num_rows for problem in solved][levels:] == [continued.lp_rows]
    assert len(solved) == levels + 1 and continued.lp_stats.start_basis == (levels == 1)


def _node_cloud_33() -> np.ndarray:
    # the cluster cloud plus a node of the 33^2 grid that its 17^2 level
    # keeps (even indices) and one that it does not
    axis = grid_axes((-1.0, -1.0), (1.0, 1.0), 33)[0]
    return np.vstack([cluster_point_array(), [[axis[4], axis[20]], [axis[15], axis[15]]]])


# (points, kind, degree, grid, coefficient bound, the labels of the levels, coarsest first)
LEVEL_CASES = {
    "2d_on_nodes": (_node_cloud_33, "monomial", 10, GridSpec(points_per_axis=33), None, ["17x17 grid"]),
    "3d_tensor": (_cloud_3d, "chebyshev", 6, GridSpec(points_per_axis=33), None,
                  ["9x9x9 grid", "17x17x17 grid"]),
    "sobol": (_cloud_3d, "chebyshev", 6, GridSpec(sample_count=8000, seed=1), None,
              ["500 points", "2000 points"]),
    "2d_on_nodes_bounded": (_node_cloud_33, "monomial", 10, GridSpec(points_per_axis=33), 30.0,
                            ["17x17 grid"]),
    "sobol_bounded": (_cloud_3d, "chebyshev", 6, GridSpec(sample_count=8000, seed=1), 30.0,
                      ["500 points", "2000 points"]),
}


@pytest.mark.parametrize("case", LEVEL_CASES)
def test_coarse_levels_are_rows_of_the_program_bit_for_bit(case):
    points, kind, degree, spec, bound, labels = LEVEL_CASES[case]
    cloud = PointCloud(points())
    setup = _prepare(cloud, BoxDomain.symmetric(cloud.dimension), kind, spec, 1.0, bound, [degree])
    basis, problem, top_rows = setup.program(degree)
    assert top_rows is None  # no index arrays for the program itself
    steps = list(fitting._coarse_levels(setup, degree, len(basis)))
    assert [label for label, _ in steps] == labels
    levels = [setup.program(degree, step)[1:] for _, step in steps]
    bound_rows = 0 if bound is None else 2 * len(basis)
    for level, rows in levels:
        assert np.all(np.diff(rows) > 0) and rows[-1] < problem.num_rows
        assert np.array_equal(rows[: cloud.count], np.arange(cloud.count))
        # the bound rows join every level as the cloud rows do
        bound_in_problem = np.arange(problem.num_rows - bound_rows, problem.num_rows)
        assert np.array_equal(rows[len(rows) - bound_rows :], bound_in_problem)
        taken = level.rows.take(np.arange(level.num_rows))
        assert taken.tobytes() == problem.rows.take(rows).tobytes()
        assert level.b.tobytes() == problem.b[rows].tobytes()
        assert level.c.tobytes() == problem.c.tobytes()
        assert level.row_kinds == tuple(problem.row_kinds[i] for i in rows)
    for (_, coarse), (_, fine) in zip(levels, levels[1:]):
        assert np.isin(coarse, fine).all()
    if case.startswith("2d_on_nodes"):
        # the 17^2 level leaves out the one kept node on the cloud
        assert problem.rows.parts[1].kept is not None
        assert levels[0][0].rows.parts[1].kept is not None
        assert (problem.num_rows, levels[0][0].num_rows) == (
            102 + 33**2 - 2 + bound_rows, 102 + 17**2 - 1 + bound_rows)


# (points, box, grid, top degree): 88 degrees, so 352 programs in both bases,
# with and without a coefficient bound
SLICED_FORMS = {
    "line": (lambda: np.array([-0.5, 0.0, 0.25]), BoxDomain.symmetric(1),
             GridSpec(points_per_axis=201), 35),
    "line-off-centre": (lambda: np.array([0.7, 1.5, 2.25]), BoxDomain((0.5,), (3.0,)),
                        GridSpec(points_per_axis=201), 20),
    "tensor-2d-on-node": (_on_node_cloud, BoxDomain.symmetric(2), GridSpec(points_per_axis=31), 14),
    "tensor-3d": (_cloud_3d, BoxDomain.symmetric(3), GridSpec(points_per_axis=9), 6),
    "sobol-3d": (_cloud_3d, BoxDomain.symmetric(3), GridSpec(sample_count=500, seed=3), 8),
}


@pytest.mark.parametrize("bound", [None, 30.0], ids=["free", "coeff_bound"])
@pytest.mark.parametrize("kind", ["monomial", "chebyshev"])
@pytest.mark.parametrize("form", SLICED_FORMS)
def test_every_degree_is_sliced_from_the_one_build(form, kind, bound):
    # a sweep's setup builds the rows once, at the top degree; each degree's
    # program is the one build_problem builds at that degree alone, bit for bit
    points, box, spec, top = SLICED_FORMS[form]
    cloud = PointCloud(points())
    setup = _prepare(cloud, box, kind, spec, 1.0, bound, list(range(top + 1)))
    for degree in range(top + 1):
        sliced = setup.program(degree)[1]
        built = build_problem(cloud, box, degree, kind=kind, grid=spec, coeff_bound=bound)
        assert type(sliced.rows) is type(built.rows)
        assert sliced.A.shape == built.A.shape
        assert sliced.A.tobytes() == built.A.tobytes()
        assert sliced.b.tobytes() == built.b.tobytes()
        assert sliced.c.tobytes() == built.c.tobytes()
        assert sliced.row_kinds == built.row_kinds
        y = np.random.default_rng(degree).normal(size=built.num_cols)
        assert sliced.rows.price(y).tobytes() == built.rows.price(y).tobytes()
        # dense rows are contiguous copies of the build's first columns, as built alone
        parts = sliced.rows.parts if isinstance(sliced.rows, StackedRows) else [sliced.rows]
        assert all(part.A.flags.c_contiguous for part in parts if isinstance(part, DenseRows))


def test_a_sweep_evaluates_the_basis_rows_once(monkeypatch):
    # a 4-degree sweep takes its rows and tables from one build at the top
    # degree: no more evaluations than a fit at that degree
    calls = collections.Counter()
    for name in ("eval_basis_many", "_basis_table"):
        def counted(*args, _name=name, _evaluate=getattr(fitting, name), **kwargs):
            calls[_name] += 1
            return _evaluate(*args, **kwargs)

        monkeypatch.setattr(fitting, name, counted)
    # (points, grid, degrees, the evaluations of eval_basis_many and _basis_table)
    sweeps = [
        (np.array([-0.5, 0.0, 0.25]), GridSpec(points_per_axis=201), [2, 5, 8, 12], (1, 0)),
        (cluster_point_array(), GridSpec(points_per_axis=21), [2, 3, 4, 5], (1, 2)),
    ]
    for points, spec, degrees, expected in sweeps:
        cloud = PointCloud(points)
        box = BoxDomain.symmetric(cloud.dimension)
        calls.clear()
        fit(cloud, box, degrees[-1], grid=spec)
        assert (calls["eval_basis_many"], calls["_basis_table"]) == expected
        calls.clear()
        entries = degree_sweep(cloud, box, degrees, grid=spec)
        assert all(entry.result is not None for entry in entries)
        assert (calls["eval_basis_many"], calls["_basis_table"]) == expected


def _sobol_3d_points() -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(7))
    clusters = [rng.normal(centre, 0.15, size=(20, 3))
                for centre in ([-0.45, -0.3, -0.35], [0.4, 0.45, 0.3])]
    return np.clip(np.vstack(clusters), -0.9, 0.9)


def test_continued_fits_certify_the_cold_optimum(cluster_sweep):
    # W2 at degree 14 (26^2, 51^2 and 101^2 levels) and the 3-D Chebyshev
    # degree-6 fit on 20,000 Sobol points (1250 and 5000)
    (w2,) = [entry.result for entry in cluster_sweep if entry.degree == 14]
    cloud_3d, box_3d = PointCloud(_sobol_3d_points()), BoxDomain.symmetric(3)
    sobol = GridSpec(sample_count=20_000)
    cheb3d = fit(cloud_3d, box_3d, 6, kind="chebyshev", grid=sobol)
    colds = [
        solve(build_problem(PointCloud(cluster_point_array()), BoxDomain.symmetric(2), 14,
                            grid=GridSpec(points_per_axis=201))),
        solve(build_problem(cloud_3d, box_3d, 6, kind="chebyshev", grid=sobol)),
    ]
    for result, cold in zip([w2, cheb3d], colds):
        assert cold.status == "optimal" and not cold.stats.start_basis
        assert result.lp_stats.start_basis and not result.lp_stats.crash_rows
        assert abs(result.objective - cold.objective) <= 1e-12 * abs(cold.objective)


def test_bounded_fits_continue_through_every_level(monkeypatch):
    # W2 at degree 14 with the bound rows +-v_i / 1e3 >= -1 on its 26^2,
    # 51^2 and 101^2 levels: each level after the coarsest starts from the
    # last one's basis, and the fit certifies the cold bounded optimum
    cloud, box, spec = PointCloud(cluster_point_array()), BoxDomain.symmetric(2), GridSpec(points_per_axis=201)
    solutions = []

    def recorded(problem, start=None):
        solutions.append(solve(problem, start=start))
        return solutions[-1]

    monkeypatch.setattr(fitting, "solve", recorded)
    result = fit(cloud, box, 14, grid=spec, coeff_bound=1e3)
    monkeypatch.undo()
    cold = solve(build_problem(cloud, box, 14, grid=spec, coeff_bound=1e3))
    assert [s.status for s in solutions] == ["optimal"] * 4
    assert [s.stats.start_basis for s in solutions] == [False, True, True, True]
    assert cold.status == "optimal" and not cold.stats.start_basis
    assert abs(result.objective - cold.objective) <= 1e-12 * abs(cold.objective)


def test_a_continued_level_opens_on_its_start_basis_and_the_cloud_rows(monkeypatch):
    # W2 at degree 14 on 201^2 and on 401^2: the fine solve takes the last
    # level's basis, and its first working set is that basis plus the b != 0
    # rows, the same size on both grids (every 64th grid row would add 632
    # rows on 201^2 and 2513 on 401^2)
    cloud, box = PointCloud(cluster_point_array()), BoxDomain.symmetric(2)
    first = []
    for n in (201, 401):
        solved = []

        def recorded(problem, start=None):
            solved.append((problem, start, solve(problem, start=start)))
            return solved[-1][2]

        monkeypatch.setattr(fitting, "solve", recorded)
        fit(cloud, box, 14, grid=GridSpec(points_per_axis=n))
        problem, start, solution = solved[-1]
        assert solution.status == "optimal" and solution.stats.start_basis
        assert solution.stats.work_rows[0] == np.union1d(np.flatnonzero(problem.b), start).size
        first.append(solution.stats.work_rows[0])
    assert first[0] == first[1]


def test_each_coarse_level_writes_one_debug_line(caplog):
    cloud, box = PointCloud(cluster_point_array()), BoxDomain.symmetric(2)
    with caplog.at_level(logging.DEBUG, logger="polycover"):
        result = fit(cloud, box, 10, grid=GridSpec(points_per_axis=41))
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith(("level ", "fit "))]
    assert len(lines) == 2 and lines[1].startswith("fit degree 10 (optimal)")
    level = re.fullmatch(
        r"level 21x21 grid \(optimal\): (\d+) rows, (\d+) pivots, start basis not taken", lines[0])
    assert level and int(level[1]) == 100 + 21**2 and int(level[2]) > 0
    assert result.lp_stats.start_basis


def test_a_coarse_level_that_is_not_optimal_leaves_the_next_to_the_crash(monkeypatch):
    # a level that ends without an optimal basis hands none on: the fine
    # solve runs the crash and is the cold solve, bit for bit
    cloud, box = PointCloud(cluster_point_array()), BoxDomain.symmetric(2)
    spec = GridSpec(points_per_axis=41)
    starts = []

    def failed_level(problem, start=None):
        starts.append(start)
        solution = solve(problem, start=start)
        if len(starts) > 1:
            return solution
        return dataclasses.replace(solution, status="unbounded", basis=None)

    monkeypatch.setattr(fitting, "solve", failed_level)
    result = fit(cloud, box, 10, grid=spec)
    cold = solve(build_problem(cloud, box, 10, grid=spec))
    assert starts == [None, None]
    assert not result.lp_stats.start_basis and result.lp_stats.crash_basis == cold.stats.crash_basis
    assert result.lp_iterations == cold.iterations
    assert result.polynomial.coeffs.tobytes() == cold.v.tobytes()


def test_every_fit_writes_one_debug_line(caplog):
    line = re.compile(
        r"fit degree (\d+) \((\w+)\): (\d+) rows, build \d+\.\d{3} s, "
        r"solve \d+\.\d{3} s, checks \d+\.\d{3} s"
    )
    cloud, box = PointCloud(np.array([-0.5, 0.0, 0.25])), BoxDomain.symmetric(1)
    with caplog.at_level(logging.DEBUG, logger="polycover"):
        entries = degree_sweep(cloud, box, [2, 7], grid=GridSpec(points_per_axis=51))
        with pytest.raises(UnboundedFitError):  # the failed fit writes its line too
            fit(PointCloud(np.array([0.0])), box, 4, grid=GridSpec(points_per_axis=3))
    fits = [line.fullmatch(r.getMessage()) for r in caplog.records
            if r.getMessage().startswith("fit ")]
    assert all(fits)
    assert [(int(m[1]), m[2], int(m[3])) for m in fits] == [
        (2, "optimal", entries[0].result.lp_rows),
        (7, "optimal", entries[1].result.lp_rows),
        (4, "unbounded", 3),
    ]
    caplog.clear()
    fit(cloud, box, 2, grid=GridSpec(points_per_axis=51))  # silent by default
    assert not [r for r in caplog.records if r.name == "polycover"]


def test_sweep_requires_ascending_degrees():
    cloud = PointCloud(np.array([0.0]))
    box = BoxDomain.symmetric(1)
    with pytest.raises(ValueError, match="ascending"):
        degree_sweep(cloud, box, [4, 2], grid=GridSpec(points_per_axis=11))
    with pytest.raises(ValueError, match="nonempty"):
        degree_sweep(cloud, box, [], grid=GridSpec(points_per_axis=11))


def test_sweep_captures_per_degree_errors():
    # degree 4 on the 3-point grid is unbounded; degree 2 still succeeds
    entries = degree_sweep(
        PointCloud(np.array([0.0])),
        BoxDomain.symmetric(1),
        [2, 4],
        grid=GridSpec(points_per_axis=3),
    )
    assert entries[0].error is None
    assert entries[1].result is None
    assert "unbounded" in entries[1].error


def test_solver_iteration_cap_surfaces_as_fit_error(monkeypatch):
    monkeypatch.setattr(lp, "MAX_ITERS", 2)
    cloud = PointCloud(np.array([-0.5, 0.0, 0.25]))
    with pytest.raises(SolverFailedError, match="iteration limit"):
        fit(cloud, BoxDomain.symmetric(1), 7, grid=GridSpec(points_per_axis=501))


def test_assemble_refuses_another_basis_moments():
    cloud, box = PointCloud(np.array([[0.0, 0.1]])), BoxDomain.symmetric(2)
    grid = build_grid(box, GridSpec(points_per_axis=5))
    with pytest.raises(ValueError, match="moment vector was computed for a different basis"):
        assemble(cloud, grid, make_basis(2, 3), moment_vector(make_basis(2, 2), box))
