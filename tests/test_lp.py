import importlib.util
import itertools
import logging
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from polycover import (
    BoxDomain,
    GridSpec,
    LpProblem,
    PointCloud,
    build_problem,
    export_mps,
    solve,
)
from polycover import lp
from polycover.lp import (
    DenseRows, SolveStats, StackedRows, _DualSimplex, _EngineFailure, _max_violation, _Outcome,
    _residuals_ext,
)

from conftest import cluster_point_array
from oracles import read_mps


@pytest.fixture
def engine_runs(monkeypatch):
    """Every _DualSimplex that runs during the test, in order."""
    engines = []
    run = _DualSimplex.run

    def recording_run(self):
        engines.append(self)
        return run(self)

    monkeypatch.setattr(_DualSimplex, "run", recording_run)
    return engines


@pytest.fixture
def no_crash(monkeypatch):
    """Phase 1 starts from the artificials, as when the crash declines."""
    monkeypatch.setattr(_DualSimplex, "_crash", lambda self: None)


def simple_problem():
    # min x + y subject to x >= 1, y >= 2, x + y >= 4; optimum 4 on a face,
    # vertices (1, 3) and (2, 2) both optimal.
    c = np.array([1.0, 1.0])
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, 4.0])
    return LpProblem(c=c, A=A, b=b)


def test_simple_optimum():
    sol = solve(simple_problem())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(4.0, abs=1e-9)
    assert sol.max_infeasibility <= 1e-9 * 5
    assert sol.v is not None and sol.v[0] >= 1 - 1e-9 and sol.v[1] >= 2 - 1e-9


def test_one_dimensional_bound():
    sol = solve(LpProblem(c=np.array([2.0]), A=np.array([[1.0]]), b=np.array([3.0])))
    assert sol.status == "optimal"
    assert sol.v[0] == pytest.approx(3.0, abs=1e-12)
    assert sol.objective == pytest.approx(6.0, abs=1e-12)


def test_negative_cost_direction():
    # min -x subject to x <= 5 (written as -x >= -5) and x >= 0
    sol = solve(
        LpProblem(c=np.array([-1.0]), A=np.array([[-1.0], [1.0]]), b=np.array([-5.0, 0.0]))
    )
    assert sol.status == "optimal"
    assert sol.v[0] == pytest.approx(5.0, abs=1e-12)


def test_stationarity_certificate():
    # at an optimum of min c.v over A v >= b with free v, c = A^T duals exactly
    rng = np.random.default_rng(21)
    for _ in range(10):
        A = rng.normal(size=(8, 3))
        lam = np.abs(rng.normal(size=8))
        c = A.T @ lam
        v0 = rng.normal(size=3)
        b = A @ v0 - np.abs(rng.normal(size=8))
        sol = solve(LpProblem(c=c, A=A, b=b))
        assert sol.status == "optimal"
        assert sol.duals is not None
        assert np.min(sol.duals) >= 0.0
        residual = np.max(np.abs(c - A.T @ sol.duals))
        assert residual <= 1e-7 * (1 + np.max(np.abs(c)))


def test_unbounded_returns_certified_ray():
    sol = solve(LpProblem(c=np.array([-1.0]), A=np.array([[1.0]]), b=np.array([0.0])))
    assert sol.status == "unbounded"
    assert sol.ray is not None
    assert float(sol.ray @ np.array([-1.0])) < 0
    assert np.min(np.array([[1.0]]) @ sol.ray) >= -1e-10
    assert sol.v is not None  # feasible base point comes with the ray
    assert sol.v[0] >= -1e-9


def test_unbounded_two_variables():
    # descent along (1, 1) keeps both constraints satisfied
    c = np.array([-1.0, -1.0])
    A = np.array([[1.0, -0.5], [-0.5, 1.0]])
    b = np.array([0.0, 0.0])
    sol = solve(LpProblem(c=c, A=A, b=b))
    assert sol.status == "unbounded"
    assert float(c @ sol.ray) < 0
    assert np.min(A @ sol.ray) >= -1e-10 * (1 + np.max(np.abs(A)))
    assert sol.max_infeasibility <= 1e-9 * 2


def test_inconsistent_rows_fail_with_message():
    # v >= 1 and -v >= 0 cannot both hold
    sol = solve(
        LpProblem(c=np.array([1.0]), A=np.array([[1.0], [-1.0]]), b=np.array([1.0, 0.0]))
    )
    assert sol.status == "solver_failure"
    assert "feasible" in sol.message


def test_failed_probe_counts_both_runs(engine_runs):
    # v1 >= 1 and -v1 >= 0 clash while v2 is free to descend: the main run
    # finds the dual infeasible, and the feasibility probe then fails
    sol = solve(
        LpProblem(
            c=np.array([0.0, -1.0]), A=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            b=np.array([1.0, 0.0]),
        )
    )
    assert sol.status == "solver_failure"
    assert "inconsistent" in sol.message
    assert len(engine_runs) == 2
    assert sol.iterations == sum(engine.iterations for engine in engine_runs) > 0


def test_no_rows_zero_cost():
    sol = solve(LpProblem(c=np.zeros(3), A=np.zeros((0, 3)), b=np.zeros(0)))
    assert sol.status == "optimal"
    assert sol.objective == 0.0


def test_no_rows_nonzero_cost_is_unbounded():
    sol = solve(LpProblem(c=np.array([0.0, 2.0]), A=np.zeros((0, 2)), b=np.zeros(0)))
    assert sol.status == "unbounded"
    assert float(np.array([0.0, 2.0]) @ sol.ray) < 0


def test_iteration_limit_reports_failure(monkeypatch):
    problem = simple_problem()
    monkeypatch.setattr(lp, "MAX_ITERS", 1)
    sol = solve(problem)
    assert sol.status == "solver_failure"
    assert sol.message == "iteration limit 1 reached in phase 1"
    assert sol.iterations == 1


def _random_lps(seed, shape):
    # feasible, bounded LPs: c is a nonnegative combination of the rows
    rng = np.random.default_rng(seed)
    for _ in range(8):
        A = rng.normal(size=shape)
        lam = np.abs(rng.normal(size=shape[0]))
        b = A @ rng.normal(size=shape[1]) - np.abs(rng.normal(size=shape[0]))
        yield LpProblem(c=A.T @ lam, A=A, b=b)


def test_scaling_cost_leaves_argmin_bitwise_identical():
    # phase 1 starts from the crash basis on every one of these LPs
    for problem in [*_random_lps(31, (10, 4)), *_random_lps(32, (40, 4))]:
        base = solve(problem)
        # power of two: exact
        scaled = solve(LpProblem(c=2.0 * problem.c, A=problem.A, b=problem.b))
        assert base.status == scaled.status == "optimal"
        np.testing.assert_array_equal(base.v, scaled.v)
        assert scaled.objective == pytest.approx(2.0 * base.objective, rel=1e-12)


def test_duplicate_rows_keep_largest_rhs():
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = np.array([1.0, 3.0, 0.5])
    sol = solve(LpProblem(c=np.array([1.0, 1.0]), A=A, b=b))
    assert sol.status == "optimal"
    assert sol.v[0] == pytest.approx(3.0, abs=1e-9)
    # the dominated duplicate carries no dual
    assert sol.duals[0] == 0.0


def test_many_identical_rows_certify_on_a_largest_rhs_row():
    # 40,501 copies of the row (1): the grid-sized LP of the 2-D config,
    # with a tie for the largest rhs among the cloud-like rows
    b = np.zeros(40_501)
    b[:100] = np.linspace(0.0, 1.0, 100)
    b[[7, 23]] = 1.0
    sol = solve(LpProblem(c=np.array([1.0]), A=np.ones((b.size, 1)), b=b))
    assert sol.status == "optimal"
    assert sol.v[0] == pytest.approx(1.0, abs=1e-12)
    nonzero = np.flatnonzero(sol.duals)
    assert nonzero.size >= 1
    assert np.all(b[nonzero] == 1.0)
    assert float(sol.duals.sum()) == pytest.approx(1.0, abs=1e-12)


def test_phase_2_starts_from_a_coarse_working_set(engine_runs, no_crash, monkeypatch):
    # rows 0 and 201 carry b != 0; rows 1..200 are zero-rhs, so phase 2
    # starts from those two, every 64th zero-rhs row and phase 1's basis
    A = np.column_stack([np.ones(202), np.linspace(-1.0, 1.0, 202)])
    b = np.zeros(202)
    b[[0, 201]] = [1.0, 0.5]
    seen = []
    set_work = _DualSimplex._set_work

    def recording_set_work(self, work, cost_real):
        seen.append(work.copy())
        set_work(self, work, cost_real)

    monkeypatch.setattr(_DualSimplex, "_set_work", recording_set_work)
    sol = solve(LpProblem(c=np.array([1.0, 0.0]), A=A, b=b))
    assert sol.status == "optimal", sol.message
    (engine,) = engine_runs
    assert seen[0].tolist() == list(range(202))  # phase 1 prices every row
    start = seen[1]
    assert np.all(np.diff(start) > 0)
    assert set(start.tolist()) >= {0, 201, 1, 65, 129, 193}
    assert len(start) <= 6 + engine.k
    assert sol.stats.work_rows[0] == len(start)


def test_degenerate_vertex_is_optimal():
    # five constraints active at the optimum (0, 0)
    c = np.array([1.0, 1.0])
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
    b = np.zeros(5)
    sol = solve(LpProblem(c=c, A=A, b=b))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.max_infeasibility <= 1e-9


def cluster_problem(degree, kind="monomial"):
    # the conftest cluster cloud on the 51^2 grid, a corner of the 2-D
    # config small enough for a quick solve
    return build_problem(
        PointCloud(cluster_point_array()), BoxDomain.symmetric(2), degree,
        kind=kind, grid=GridSpec(points_per_axis=51),
    )


def test_cluster_degree_5_lp_reaches_its_degenerate_optimum():
    sol = solve(cluster_problem(5))
    assert sol.status == "optimal", sol.message
    assert sol.objective == pytest.approx(2.5049492389294734, rel=1e-9)


def test_chebyshev_degree_14_cluster_lp_certifies(monkeypatch):
    # the Chebyshev degree-14 cluster LP on a 51^2 grid: phase 1 starts on
    # a long degenerate stretch that pricing must leave well inside the
    # budget, and the Devex weights pass their cap and return to 1
    monkeypatch.setattr(lp, "MAX_ITERS", 5000)
    sol = solve(cluster_problem(14, kind="chebyshev"))
    assert sol.status == "optimal", sol.message
    assert sol.stats.devex_resets > 0
    # HiGHS gives 1.2695068344052323, the monomial basis 1.269506834405209
    assert sol.objective == pytest.approx(1.2695068344052, abs=1e-7)


def test_cluster_degree_9_lp_agrees_with_highs():
    problem = cluster_problem(9)
    sol = solve(problem)
    assert sol.status == "optimal", sol.message
    ref = linprog(
        problem.c, A_ub=-problem.A, b_ub=-problem.b, bounds=(None, None), method="highs"
    )
    assert ref.status == 0
    # HiGHS gives 1.6319673417691085
    assert sol.objective == pytest.approx(ref.fun, rel=1e-8)


def sobol_3d_problem():
    # two 3-D clusters, Chebyshev degree 6 (k = 84) on 2000 Sobol points
    rng = np.random.Generator(np.random.Philox(11))
    cloud = np.vstack([
        rng.normal([-0.4, -0.3, -0.35], 0.15, size=(15, 3)),
        rng.normal([0.4, 0.45, 0.3], 0.15, size=(15, 3)),
    ])
    return build_problem(
        PointCloud(np.clip(cloud, -0.9, 0.9)), BoxDomain.symmetric(3), 6,
        kind="chebyshev", grid=GridSpec(sample_count=2000, seed=0),
    )


def test_sobol_chebyshev_3d_lp_certifies_as_its_working_set_grows():
    problem = sobol_3d_problem()
    sol = solve(problem)
    assert sol.status == "optimal", sol.message
    assert sol.max_infeasibility <= 1e-9 * 2.0
    # HiGHS gives 2.206746628166181
    assert sol.objective == pytest.approx(2.206746628166181, rel=1e-8)
    stats = sol.stats
    assert len(stats.work_rows) >= 3  # the start set, then two growths or more
    assert stats.work_rows == sorted(stats.work_rows)
    assert stats.work_rows[-1] < problem.num_rows
    assert stats.phase1_pivots + stats.phase2_pivots == sol.iterations
    # phase 1 starts from the crash basis and makes no pivot; in phase 2, a
    # getrf every REFACTOR_EVERY pivots and an eta update at the others
    assert stats.crash_basis and stats.phase1_pivots == 0
    assert (stats.factorizations, stats.factor_updates) == (11, 459)
    assert stats.pricing_s > 0.0


def test_inconsistent_rows_outside_the_working_set_fail_with_message(engine_runs):
    # p >= 1 and -p >= 0 at the same cloud point, with the second row last
    # among the zero-rhs rows, where phase 2 starts without it
    problem = cluster_problem(3)
    b = np.append(problem.b, 0.0)
    zero = np.flatnonzero(b == 0.0)
    assert zero[-1] == problem.num_rows
    assert (zero.size - 1) % _DualSimplex.START_STRIDE != 0
    sol = solve(LpProblem(c=problem.c, A=np.vstack([problem.A, -problem.A[:1]]), b=b))
    assert sol.status == "solver_failure"
    assert sol.message == "constraints admit no feasible point (inconsistent system)"
    (engine,) = engine_runs
    assert engine.in_work[problem.num_rows]  # the clashing row came in by growth
    assert len(sol.stats.work_rows) > 1


def line_problem(order, degree, kind="monomial"):
    # the paper's three points in the given order, on the 2001-node grid
    cloud = PointCloud(np.array(order))
    spec = GridSpec(points_per_axis=2001)
    return build_problem(cloud, BoxDomain.symmetric(1), degree, kind=kind, grid=spec)


def test_extended_precision_vertex_certifies_the_degree_26_line_lp():
    # the simplex ends on a basis whose double-precision vertex misses the
    # feasibility contract; the same basis solved in extended precision
    # meets it
    sol = solve(line_problem((0.0, -0.5, 0.25), 26))
    assert sol.status == "optimal", sol.message
    assert sol.stats.vertex_ext
    assert sol.max_infeasibility <= 1e-9 * 2.0
    # the Chebyshev basis certifies 0.4967970107747697
    assert sol.objective == pytest.approx(0.4967970107747697, rel=1e-7)


def test_failed_certification_reports_the_work_done():
    # the degree-31 line LP: the final vertex misses the feasibility
    # contract even after the extended-precision solve
    sol = solve(line_problem((-0.5, 0.0, 0.25), 31))
    assert sol.status == "solver_failure"
    assert sol.stats.vertex_ext
    assert sol.message == "solution violates feasibility: residual 9.232e-08"
    assert sol.iterations > 0
    assert sol.stats.phase1_pivots + sol.stats.phase2_pivots == sol.iterations


def w2_problem(degree):
    # the W2 LP: the conftest cluster on the 201^2 grid, monomial basis
    return build_problem(
        PointCloud(cluster_point_array()), BoxDomain.symmetric(2), degree,
        grid=GridSpec(points_per_axis=201),
    )


@pytest.fixture(scope="module")
def w2_degree_14():
    # the W2 LP at degree 14 and the solver's v
    problem = w2_problem(14)
    sol = solve(problem)
    assert sol.status == "optimal", sol.message
    return problem, sol.v


def _assert_screened_violation_is_exact(A, b, v):
    # the certificate before screening: every row in extended precision
    want = max(0.0, float(np.max(_residuals_ext(A, b, v), initial=-math.inf)))
    got = _max_violation(DenseRows(A), b, v)
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), (got, want)


def _perturbed(v, seed):
    rng = np.random.default_rng(seed)
    for scale in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
        yield v * (1.0 + scale * rng.standard_normal(v.size))


@pytest.mark.parametrize("order", list(itertools.permutations((-0.5, 0.0, 0.25))))
def test_screened_violation_is_exact_on_the_degree_26_line_lp(order):
    problem = line_problem(order, 26)
    sol = solve(problem)
    assert sol.status == "optimal", sol.message
    for v in (sol.v, *_perturbed(sol.v, 5)):
        _assert_screened_violation_is_exact(problem.A, problem.b, v)


def test_screened_violation_is_exact_on_the_cluster_lp(w2_degree_14):
    problem, v = w2_degree_14
    for v in (v, *_perturbed(v, 6)):
        _assert_screened_violation_is_exact(problem.A, problem.b, v)


def test_screened_violation_is_exact_on_random_lps():
    rng = np.random.default_rng(8)
    for problem in [*_random_lps(33, (300, 6)), *_random_lps(34, (50, 12))]:
        A, b = problem.A, problem.b
        sol = solve(problem)
        assert sol.status == "optimal", sol.message
        v = rng.normal(size=A.shape[1]) * 10.0 ** rng.integers(-3, 4)
        # near ties: every residual within a few ulps of zero
        _assert_screened_violation_is_exact(A, A @ v + 1e-15 * rng.normal(size=b.size), v)
        for v in (sol.v, v):
            _assert_screened_violation_is_exact(A, b, v)


def test_screened_violation_checks_every_row_when_the_screen_overflows(monkeypatch):
    # |A| |v| overflows float64 in every row, so no row can be ruled out;
    # in extended precision the products cancel and the residual is b
    checked = []

    def recording_residuals(A, b, v):
        checked.append(A.shape[0])
        return _residuals_ext(A, b, v)

    A = np.array([[1e200, -1e200], [-2e200, 2e200], [3e200, -3e200]])
    b = np.array([0.25, 0.5, -3.0])
    v = np.array([1e200, 1e200])
    _assert_screened_violation_is_exact(A, b, v)
    monkeypatch.setattr("polycover.lp._residuals_ext", recording_residuals)
    _max_violation(DenseRows(A), b, v)
    assert sum(checked) == A.shape[0]


def test_screened_violation_allocates_a_small_part_of_A(w2_degree_14):
    problem, v = w2_degree_14
    tracemalloc.start()
    try:
        _max_violation(DenseRows(problem.A), problem.b, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the all-rows extended-precision pass allocated 0.82 A.nbytes
    assert peak <= 0.25 * problem.A.nbytes


def _bench_workloads():
    # the benchmark's workload definitions: clouds and pinned objectives
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def _line_pinned():
    # the objectives the line-sweep benchmark pins at every seed
    workloads = _bench_workloads()
    return workloads.LINE_PINNED, workloads.PINNED_RTOL


@pytest.mark.parametrize("degree", [17, 26])
@pytest.mark.parametrize("order", list(itertools.permutations((-0.5, 0.0, 0.25))))
def test_line_lp_certifies_at_every_cloud_order(order, degree):
    # the line-sweep benchmark permutes the three points by seed
    pinned, rtol = _line_pinned()
    sol = solve(line_problem(order, degree))
    assert sol.status == "optimal", sol.message
    assert sol.objective == pytest.approx(pinned[degree], rel=rtol)


def test_devex_pricing_cuts_the_phase_2_pivots_of_the_cluster_lp(engine_runs, no_crash):
    # from the artificials, Dantzig's rule makes 115 + 549 pivots on this
    # LP and Devex 141 + 497
    problem = cluster_problem(9)
    sol = solve(problem)
    assert sol.status == "optimal", sol.message
    assert sol.objective == pytest.approx(1.6319673417691085, rel=1e-8)
    assert (sol.stats.phase1_pivots, sol.stats.phase2_pivots) == (141, 497)
    assert sol.stats.devex_resets > 0
    # the weights follow the working set through its growths
    (engine,) = engine_runs
    assert len(sol.stats.work_rows) > 1
    assert engine.weights.shape == engine.work.shape
    assert np.all((engine.weights >= 1.0) & (engine.weights <= _DualSimplex.DEVEX_CAP))


def test_basis_matrix_kept_in_place_matches_a_rebuilt_one(engine_runs, no_crash):
    sol = solve(cluster_problem(9))
    assert sol.status == "optimal", sol.message
    (engine,) = engine_runs
    np.testing.assert_array_equal(engine.B, engine._basis_matrix())
    assert engine.etas == 0  # the phase ended on fresh factors of B
    # a getrf at each of the 141 phase-1 pivots and at each phase start;
    # in phase 2, 490 eta updates and 7 getrf every REFACTOR_EVERY pivots,
    # and one before the phase ends
    assert (sol.stats.factorizations, sol.stats.factor_updates) == (151, 490)


def test_duals_come_back_in_input_order(engine_runs):
    problem = cluster_problem(5)
    order = np.random.default_rng(5).permutation(problem.num_rows)
    shuffled = LpProblem(c=problem.c, A=problem.A[order], b=problem.b[order])
    for prob in (problem, shuffled):
        sol = solve(prob)
        assert sol.status == "optimal", sol.message
        assert sol.objective == pytest.approx(2.5049492389294734, rel=1e-9)
        # rows that never entered the working set carry no dual at all
        assert np.all(sol.duals[~engine_runs[-1].in_work] == 0.0)
        assert np.count_nonzero(~engine_runs[-1].in_work) > prob.num_rows // 2
        # stationarity and complementary slackness hold row by row
        np.testing.assert_allclose(prob.A.T @ sol.duals, prob.c, atol=1e-8)
        slack = prob.A @ sol.v - prob.b
        assert float(np.max(sol.duals * np.abs(slack))) <= 1e-9


def test_singular_basis_fails_with_message():
    # two parallel rows as the basis: getrf leaves an exact zero pivot
    rows = np.array([[1.0, 2.0], [2.0, 4.0]])
    engine = _DualSimplex(DenseRows(rows), np.ones(2), np.zeros(2), SolveStats())
    engine.basis = np.array([0, 1])
    engine.B = engine._basis_matrix()
    engine._factor()
    with pytest.raises(_EngineFailure, match="^singular basis matrix$"):
        engine._solve(np.ones(2), 0, False)


def test_phase_ends_are_logged_at_debug_level(caplog):
    with caplog.at_level(logging.DEBUG, logger="polycover"):
        sol = solve(cluster_problem(3))
    assert sol.status == "optimal", sol.message
    lines = [r.getMessage() for r in caplog.records if r.name == "polycover"]
    assert len(lines) == 3
    assert lines[0] == f"crash taken: {sol.stats.crash_rows[-1]} rows, 0 growths"
    assert lines[1].startswith(f"phase 1 ended: {sol.stats.phase1_pivots} pivots, ")
    assert lines[2].startswith(f"phase 2 ended: {sol.stats.phase2_pivots} pivots, "
                               f"{sol.stats.work_rows[-1]} working rows, ")
    resets = [int(line.split(", ")[-1].removesuffix(" devex resets")) for line in lines[1:]]
    assert sum(resets) == sol.stats.devex_resets
    caplog.clear()
    solve(cluster_problem(3))  # silent by default
    assert not [r for r in caplog.records if r.name == "polycover"]


def test_phase_ends_log_their_factorizations_and_eta_updates(caplog, no_crash):
    with caplog.at_level(logging.DEBUG, logger="polycover"):
        sol = solve(cluster_problem(9))
    assert sol.status == "optimal", sol.message
    assert sol.stats.crash_rows == []  # every getrf belongs to a phase
    phases = []
    for record in caplog.records:
        head, _, counts = record.getMessage().partition(" ended: ")
        if head.startswith("phase "):
            phases.append({name: int(n) for n, name in (f.split(" ", 1) for f in counts.split(", "))})
    assert len(phases) == 2
    assert sum(p["factorizations"] for p in phases) == sol.stats.factorizations
    assert sum(p["factor updates"] for p in phases) == sol.stats.factor_updates > 0
    first, second = phases
    # phase 1 refactors at every pivot; phase 2 makes a getrf or an eta
    # update per pivot, and a getrf to start
    assert (first["factorizations"], first["factor updates"]) == (first["pivots"] + 1, 0)
    assert second["factorizations"] + second["factor updates"] >= second["pivots"] + 1


@pytest.fixture(scope="module")
def w2_degree_9():
    # k = 55; the crash basis, then 563 phase-2 pivots
    return w2_problem(9)


@pytest.mark.parametrize(
    "problem", [lambda: w2_problem(9), lambda: cluster_problem(9), sobol_3d_problem],
    ids=["w2-degree-9", "cluster-51-degree-9", "sobol-3d"],
)
def test_eta_updates_leave_the_solution_bitwise_unchanged(problem, monkeypatch):
    # all three start phase 1 from the crash basis, so every eta update
    # belongs to phase 2
    lp = problem()
    updated = solve(lp)
    monkeypatch.setattr(_DualSimplex, "REFACTOR_EVERY", 1)  # a getrf at every pivot
    reference = solve(lp)
    assert updated.status == reference.status == "optimal"
    assert updated.stats.factor_updates > 0 and reference.stats.factor_updates == 0
    assert (updated.stats.phase1_pivots, updated.stats.phase2_pivots) == (
        reference.stats.phase1_pivots, reference.stats.phase2_pivots)
    assert updated.v.tobytes() == reference.v.tobytes()
    assert updated.duals.tobytes() == reference.duals.tobytes()


def test_primal_residual_stays_small_between_refactorizations(w2_degree_9, monkeypatch):
    # normwise backward error of every unrefined x_B = B^-1 rhs, in units of
    # eps; without the periodic getrf it grows past 100
    errors = []
    solve_basis = _DualSimplex._solve

    def recording_solve(self, rhs, trans, refine):
        x = solve_basis(self, rhs, trans, refine)
        if rhs is self.rhs and not refine:
            residual = np.abs(_residuals_ext(self.B, rhs, x))
            scale = np.abs(self.B) @ np.abs(x) + np.abs(rhs)
            errors.append((float(residual.max() / scale.max()) / np.finfo(float).eps, self.etas))
        return x

    monkeypatch.setattr(_DualSimplex, "_solve", recording_solve)
    sol = solve(w2_degree_9)
    assert sol.status == "optimal", sol.message
    assert len(errors) > sol.iterations
    assert max(etas for _, etas in errors) == _DualSimplex.REFACTOR_EVERY - 1
    assert max(error for error, _ in errors) <= 16.0


def test_small_bases_refactor_at_every_pivot(no_crash):
    # k = 36 < UPDATE_MIN_K; from the artificials both phases pivot
    problem = cluster_problem(7)
    assert problem.num_cols < _DualSimplex.UPDATE_MIN_K
    sol = solve(problem)
    assert sol.status == "optimal", sol.message
    assert sol.stats.crash_rows == [] and sol.stats.factor_updates == 0
    assert sol.stats.factorizations == sol.iterations + 2  # one per pivot and per phase start


@pytest.mark.parametrize("v", [(math.nan, 5.0), (math.inf, -math.inf)])
def test_non_finite_vertex_has_infinite_violation(v):
    assert _max_violation(DenseRows(np.eye(2)), np.array([1.0, 2.0]), np.array(v)) == math.inf


def test_non_finite_engine_vertex_fails_with_message(monkeypatch):
    def nan_run(self):
        return _Outcome(kind="optimal", y=np.array([math.nan, -2.0]), lam=np.array([1.0, 0.0, 1.0]))

    monkeypatch.setattr(_DualSimplex, "run", nan_run)
    sol = solve(simple_problem())
    assert sol.status == "solver_failure"
    assert sol.message == "non-finite vertex"


def unbounded_problem():
    # simple_problem with the objective negated: the ray (1, 1) descends forever
    problem = simple_problem()
    return LpProblem(c=-problem.c, A=problem.A, b=problem.b)


def test_duality_gap_beyond_tolerance_fails_with_message(monkeypatch):
    # doubled duals at the engine's vertex and at vertex_ext's: b.lam = 8
    # against c.v = 4, so both certificates fail on the gap alone
    reference = solve(simple_problem())
    run, vertex_ext = _DualSimplex.run, _DualSimplex.vertex_ext

    def doubled_run(self):
        outcome = run(self)
        return _Outcome(kind=outcome.kind, y=outcome.y, lam=2.0 * outcome.lam)

    def doubled_vertex_ext(self):
        v, lam = vertex_ext(self)
        return v, 2.0 * lam

    monkeypatch.setattr(_DualSimplex, "run", doubled_run)
    monkeypatch.setattr(_DualSimplex, "vertex_ext", doubled_vertex_ext)
    sol = solve(simple_problem())
    assert sol.status == "solver_failure"
    assert sol.message == "duality gap 4.000e+00 exceeds tolerance"
    assert sol.iterations == reference.iterations
    assert sol.stats.vertex_ext


def test_uncertified_ray_fails_with_message(monkeypatch):
    # the optimal vertex (1, 3) handed back as a ray: c.ray > 0 is no descent
    reference = solve(simple_problem())
    run = _DualSimplex.run

    def ray_run(self):
        return _Outcome(kind="dual_infeasible", y=run(self).y)

    monkeypatch.setattr(_DualSimplex, "run", ray_run)
    sol = solve(simple_problem())
    assert sol.status == "solver_failure"
    assert sol.message == "could not certify an unbounded direction"
    assert sol.iterations == reference.iterations
    assert not sol.stats.vertex_ext


@pytest.mark.parametrize("probe_kind", ["dual_infeasible", "optimal"])
def test_failed_feasibility_probe_fails_with_message(monkeypatch, probe_kind):
    # the probe (rhs = 0) runs, then reports no optimum, or the point 0,
    # which misses the row x + y >= 4 by 4
    reference = solve(unbounded_problem())
    assert reference.status == "unbounded"
    run = _DualSimplex.run

    def probe_run(self):
        outcome = run(self)
        if self.rhs.any():
            return outcome
        return _Outcome(kind=probe_kind, y=np.zeros(2))

    monkeypatch.setattr(_DualSimplex, "run", probe_run)
    sol = solve(unbounded_problem())
    assert sol.status == "solver_failure"
    assert sol.message == {
        "dual_infeasible": "feasibility probe failed to converge",
        "optimal": "probe produced an infeasible point: residual 4.000e+00",
    }[probe_kind]
    assert sol.iterations == reference.iterations  # both runs count
    assert not sol.stats.vertex_ext


def test_options_tighten_the_contract(monkeypatch):
    # the certificate reads the contract constants when the solve runs
    monkeypatch.setattr(lp, "FEAS_TOL", 1e-12)
    monkeypatch.setattr(lp, "OPT_TOL", 1e-10)
    sol = solve(simple_problem())
    assert sol.status == "optimal"
    assert sol.max_infeasibility <= 1e-12 * 5


def test_problem_validation():
    with pytest.raises(ValueError, match="shape mismatch"):
        LpProblem(c=np.ones(2), A=np.ones((3, 3)), b=np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        LpProblem(c=np.array([np.nan]), A=np.ones((1, 1)), b=np.ones(1))
    with pytest.raises(ValueError, match="row_kinds"):
        LpProblem(c=np.ones(1), A=np.ones((2, 1)), b=np.ones(2), row_kinds=("K",))
    with pytest.raises(ValueError):
        LpProblem(c=np.zeros(0), A=np.zeros((0, 0)), b=np.zeros(0))
    rows = DenseRows(np.ones((3, 2)))
    with pytest.raises(ValueError, match="shape mismatch"):
        LpProblem(c=np.ones(3), b=np.ones(3), rows=rows)
    with pytest.raises(TypeError, match="exactly one of A and rows"):
        LpProblem(c=np.ones(2), A=np.ones((3, 2)), b=np.ones(3), rows=rows)
    with pytest.raises(TypeError, match="exactly one of A and rows"):
        LpProblem(c=np.ones(2), b=np.ones(3))


def test_problem_over_a_row_source_builds_A_once_on_first_read():
    A = np.arange(12.0).reshape(6, 2)
    rows = StackedRows([DenseRows(A[:2]), DenseRows(A[2:5]), DenseRows(A[5:])])
    problem = LpProblem(c=np.ones(2), b=np.zeros(6), rows=rows)
    assert problem.rows is rows and problem.row_kinds == ("row",) * 6
    assert problem.A.tobytes() == A.tobytes()
    assert problem.A is problem.A
    dense = LpProblem(c=np.ones(2), A=A, b=np.zeros(6))
    assert isinstance(dense.rows, DenseRows) and dense.A is dense.rows.A


def test_mps_export_round_trips_exactly():
    problem = LpProblem(
        c=np.array([0.1, -2.5e-7]),
        A=np.array([[1.0 / 3.0, 0.0], [-1.23456789012345e8, 4.0]]),
        b=np.array([1.0, 0.0]),
        row_kinds=("K", "grid"),
    )
    text = export_mps(problem, name="TINY")
    c, A, b, row_names, col_names = read_mps(text)
    np.testing.assert_array_equal(c, problem.c)
    np.testing.assert_array_equal(A, problem.A)
    np.testing.assert_array_equal(b, problem.b)
    assert row_names == ["K0000001", "G0000002"]
    assert col_names == ["V0000001", "V0000002"]
    assert text.startswith("NAME")
    assert text.rstrip().endswith("ENDATA")


def test_mps_export_writes_file(tmp_path):
    problem = simple_problem()
    target = tmp_path / "problem.mps"
    text = export_mps(problem, destination=target)
    assert target.read_text() == text

    c, A, b, _, _ = read_mps(text)
    resolved = solve(LpProblem(c=c, A=A, b=b))
    assert resolved.objective == pytest.approx(4.0, abs=1e-9)


def test_solution_is_reproducible_bitwise():
    problem = simple_problem()
    first = solve(problem)
    second = solve(problem)
    np.testing.assert_array_equal(first.v, second.v)
    assert first.objective == second.objective
    assert first.iterations == second.iterations


def test_crash_basis_starts_phase_1_on_the_cluster_lp():
    # 141 start rows against GROWTH * k = 84: the crash grows its candidate
    # set until NNLS reaches zero residual on k rows
    problem = cluster_problem(5)
    sol = solve(problem)
    assert sol.status == "optimal", sol.message
    stats = sol.stats
    assert stats.crash_basis
    assert stats.phase1_pivots == 0
    assert len(stats.crash_rows) > 1 and stats.crash_rows == sorted(stats.crash_rows)
    ref = linprog(
        problem.c, A_ub=-problem.A, b_ub=-problem.b, bounds=(None, None), method="highs"
    )
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-8)


def test_crash_grows_and_starts_phase_1_on_the_sobol_3d_lp():
    # the cheb3d-fit workload's LP: 20,040 rows, 84 columns, 353 start rows
    workloads = _bench_workloads()
    problem = build_problem(
        PointCloud(workloads.cheb3d_cloud()), BoxDomain.symmetric(3), 6,
        kind="chebyshev", grid=GridSpec(sample_count=20_000, seed=0),
    )
    sol = solve(problem)
    assert sol.status == "optimal", sol.message
    assert sol.stats.crash_basis
    assert sol.stats.phase1_pivots == 0
    assert len(sol.stats.crash_rows) > 1
    assert sol.stats.crash_rows[-1] < problem.num_rows
    pinned = workloads.CHEB3D_PINNED[6]
    assert sol.objective == pytest.approx(pinned, rel=workloads.PINNED_RTOL)


def test_crash_starts_phase_1_from_few_start_rows_on_the_3d_degree_8_lp():
    # 540 rows, 165 columns and 48 start rows, far fewer than k: the crash
    # grows its candidate set, and phase 1 makes no pivot
    problem = build_problem(
        PointCloud(_bench_workloads().cheb3d_cloud()), BoxDomain.symmetric(3), 8,
        kind="chebyshev", grid=GridSpec(sample_count=500),
    )
    assert problem.A.shape == (540, 165)
    sol = solve(problem)
    assert sol.status == "optimal", sol.message
    assert sol.stats.crash_rows[0] == 48
    assert sol.stats.crash_basis
    assert sol.stats.phase1_pivots == 0
    ref = linprog(
        problem.c, A_ub=-problem.A, b_ub=-problem.b, bounds=(None, None), method="highs"
    )
    assert ref.status == 0
    # HiGHS gives 1.4098707002468465
    assert abs(sol.objective - ref.fun) <= 1e-8


def test_phase_1_from_the_artificials_certifies_a_ray_at_k_120(caplog):
    # the cluster cloud on a 21^2 grid at degree 14: too few grid points
    # bound the integral, and NNLS stops at a residual, so phase 1 starts
    # from the artificials, refactoring at every pivot
    problem = build_problem(
        PointCloud(cluster_point_array()), BoxDomain.symmetric(2), 14,
        grid=GridSpec(points_per_axis=21),
    )
    assert problem.num_cols == 120 >= _DualSimplex.UPDATE_MIN_K
    with caplog.at_level(logging.DEBUG, logger="polycover"):
        sol = solve(problem)
    assert sol.status == "unbounded", sol.message
    assert not sol.stats.crash_basis
    assert sol.stats.phase1_pivots == 735
    assert float(problem.c @ sol.ray) < 0.0
    assert float(np.min(problem.A @ sol.ray)) >= -1e-9 * (1.0 + np.max(np.abs(problem.A)))
    lines = [r.getMessage() for r in caplog.records if r.name == "polycover"]
    assert lines[0].startswith("crash declined (residual ")
    assert lines[1].startswith("phase 1 ended: 735 pivots, ")
    assert ", 0 factor updates, " in lines[1]


def test_crash_declines_when_the_objective_leaves_the_cone_of_the_rows(caplog):
    # min -integral(p): unbounded, so -c is no nonnegative combination of
    # rows and NNLS stops at a nonzero residual that no row reduces
    problem = cluster_problem(3)
    with caplog.at_level(logging.DEBUG, logger="polycover"):
        sol = solve(LpProblem(c=-problem.c, A=problem.A, b=problem.b))
    assert sol.status == "unbounded"
    assert float(-problem.c @ sol.ray) < 0.0
    assert float(np.min(problem.A @ sol.ray)) >= -1e-9 * (1.0 + np.max(np.abs(problem.A)))
    assert not sol.stats.crash_basis
    lines = [r.getMessage() for r in caplog.records if r.name == "polycover"]
    assert lines[0].startswith("crash declined (residual ")
    # the feasibility probe solves with rhs = 0 and skips the crash
    assert len(sol.stats.crash_rows) == 1


def test_crash_leaves_status_and_objective_unchanged(monkeypatch):
    problems = [cluster_problem(5), cluster_problem(9)]
    problems += [line_problem((-0.5, 0.0, 0.25), degree) for degree in (2, 7)]
    problems += [*_random_lps(31, (10, 4)), *_random_lps(32, (40, 4))]
    with_crash = [solve(problem) for problem in problems]
    assert sum(sol.stats.crash_basis for sol in with_crash) >= 10
    monkeypatch.setattr(_DualSimplex, "_crash", lambda self: None)
    opt_tol = lp.OPT_TOL
    for problem, crashed in zip(problems, with_crash):
        plain = solve(problem)
        assert plain.stats.crash_rows == []
        assert crashed.status == plain.status
        assert abs(crashed.objective - plain.objective) <= opt_tol * (1.0 + abs(plain.objective))


def test_crash_nnls_matches_scipy_nnls(caplog):
    from scipy.optimize import nnls

    rng = np.random.default_rng(3)
    for trial in range(20):
        k = int(rng.integers(2, 9))
        m = int(rng.integers(4 * k, 12 * k))
        rows = rng.normal(size=(m, k))
        if trial % 2:
            # nonnegative rows and a target with a negative entry: no
            # nonnegative combination reaches it
            rows, c = np.abs(rows), rng.normal(size=k)
            c[0] = -0.1 - abs(c[0])
        else:
            lam = np.zeros(m)
            lam[rng.choice(m, k, replace=False)] = rng.uniform(0.5, 2.0, k)
            c = rows.T @ lam
        # every cost is nonzero, so every row is a start row
        engine = _DualSimplex(DenseRows(rows), c, np.ones(m), SolveStats())
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="polycover"):
            engine._crash()
        ref, rnorm = nnls(rows.T, c)
        if trial % 2:
            assert not engine.stats.crash_basis
            (line,) = [r.getMessage() for r in caplog.records if r.name == "polycover"]
            assert line.startswith(
                f"crash declined (residual {rnorm:.3e} on {np.count_nonzero(ref)} rows)"
            )
        else:
            assert engine.stats.crash_basis
            x = np.zeros(m)
            x[engine.basis] = np.linalg.solve(rows[engine.basis].T, c)
            np.testing.assert_allclose(x, ref, atol=1e-12)


def test_line_census_certifies_every_order_basis_and_degree():
    # the W1 census: the paper's three points at all 6 orders, both bases,
    # degrees 0-26 on the 2001-node grid, 324 LPs
    orders = list(itertools.permutations((-0.5, 0.0, 0.25)))
    for kind in ("monomial", "chebyshev"):
        for degree in range(27):
            objectives = []
            for order in orders:
                sol = solve(line_problem(order, degree, kind))
                assert sol.status == "optimal", (kind, degree, order, sol.message)
                objectives.append(sol.objective)
            # orders[0] is the canonical order
            np.testing.assert_allclose(objectives, objectives[0], rtol=1e-7, atol=0.0)


def test_monomial_tail_fails_no_new_degree_and_order():
    # degrees 27-30 at the 6 cloud orders: 8 of these 24 LPs fail their
    # feasibility check; no other pair may join them
    known = {
        (28, (-0.5, 0.0, 0.25)), (28, (-0.5, 0.25, 0.0)), (28, (0.0, -0.5, 0.25)),
        (28, (0.0, 0.25, -0.5)), (29, (0.0, -0.5, 0.25)), (29, (0.0, 0.25, -0.5)),
        (30, (-0.5, 0.0, 0.25)), (30, (-0.5, 0.25, 0.0)),
    }
    failing = set()
    for degree in range(27, 31):
        for order in itertools.permutations((-0.5, 0.0, 0.25)):
            sol = solve(line_problem(order, degree))
            assert sol.status in ("optimal", "solver_failure")
            if sol.status == "solver_failure":
                assert sol.message
                failing.add((degree, order))
    assert failing <= known
