import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycover import (
    BoxDomain,
    GridSpec,
    Polynomial,
    build_grid,
    chebyshev_check,
    count_components,
    eval_poly_many,
    gram_to_poly,
    make_basis,
    mc_volume,
    moment_matrix,
    moment_vector,
    nonnegativity_scan,
    poly_to_gram,
    run_report,
    trace_report,
)
from polycover import verification
from polycover.basis import constant_poly
from polycover.moments import MomentMatrix
from polycover.domain import MAX_GRID_POINTS, tensor_grid

from oracles import bfs_component_count, stratified_mc_points, stratified_mc_volume


def halfspace_poly():
    # p(x, y) = x + 1, so {p >= 1} is the right half of [-1, 1]^2, volume 2
    basis = make_basis(2, 1, "monomial")
    return Polynomial(basis, np.array([1.0, 0.0, 1.0]))


def test_mc_volume_of_halfspace():
    est = mc_volume(halfspace_poly(), BoxDomain.symmetric(2), samples=200_000, seed=3)
    assert est.estimate == pytest.approx(2.0, abs=4 * est.standard_error)
    assert est.samples == 200_000


def test_mc_volume_is_seed_deterministic():
    p = halfspace_poly()
    box = BoxDomain.symmetric(2)
    a = mc_volume(p, box, samples=50_000, seed=5)
    b = mc_volume(p, box, samples=50_000, seed=5)
    c = mc_volume(p, box, samples=50_000, seed=6)
    assert a == b
    assert a.estimate != c.estimate


def test_mc_volume_chunking_does_not_change_the_estimate(monkeypatch):
    def estimate(p, box, chunk):
        monkeypatch.setattr(verification, "MC_CHUNK_SAMPLES", chunk)
        return mc_volume(p, box, samples=30_000, seed=1)

    p = halfspace_poly()
    box = BoxDomain.symmetric(2)
    small_chunks = estimate(p, box, 1_000)
    one_chunk = estimate(p, box, 30_000)
    assert small_chunks.estimate == one_chunk.estimate

    rng = np.random.default_rng(15)
    box3 = BoxDomain(lower=(-0.4, -1.0, 0.5), upper=(1.2, 0.3, 2.0))
    for basis, box in ((make_basis(2, 14), box), (make_basis(3, 6, "chebyshev", box3), box3)):
        p = Polynomial(basis, rng.normal(size=len(basis)))
        small_chunks = estimate(p, box, 1_000)
        one_chunk = estimate(p, box, 30_000)
        assert 0 < small_chunks.estimate < box.volume
        assert small_chunks.estimate == one_chunk.estimate


def test_mc_volume_estimate_is_pinned_at_seed_0():
    # 814 of the 4096 cells count by their volume, and 31,788 points are
    # drawn in the 434 undecided ones, built in place as lower + u * widths
    # from u = (corner + draw) / 16.  When every one of the 300,001 samples
    # was drawn in the whole box, the estimate was 0.783518221605928 (75,218
    # hits, standard error 0.002472911592730496), which the plain oracle
    # still gives; it moved because the points are now other draws, placed
    # only where the screen leaves p undecided
    box = BoxDomain(lower=(-1.0, -0.5, 0.25), upper=(1.5, 2.0, 0.75))
    basis = make_basis(3, 2, "monomial")
    p = Polynomial(basis, np.linspace(0.1, 1.0, len(basis)) * (-1.0) ** np.arange(len(basis)))
    est = mc_volume(p, box, samples=300_001, seed=0)
    assert (est.cells, est.undecided, est.evaluated) == (4096, 434, 31_788)
    assert est.estimate == 0.7828719303625041
    assert est.standard_error == 0.0009283433370694733
    cells, state = verification._screen(p, box, 300_001)
    assert stratified_mc_volume(p, box, cells, state, 300_001, 0)[:2] == (
        est.estimate, est.standard_error)
    assert stratified_mc_volume(p, box, 1, [0], 300_001, 0)[:2] == (
        0.783518221605928, 0.002472911592730496)


def test_mc_standard_error_shrinks_with_samples():
    # doubling the sample count should shrink the standard error by about
    # sqrt(2); demand at least 1.3x on average over 20 seeds
    p = halfspace_poly()
    box = BoxDomain.symmetric(2)
    ratios = []
    for seed in range(20):
        small = mc_volume(p, box, samples=2_000, seed=seed)
        large = mc_volume(p, box, samples=4_000, seed=seed)
        ratios.append(small.standard_error / large.standard_error)
    assert np.mean(ratios) >= 1.3


def test_mc_volume_rejects_tiny_sample_counts():
    with pytest.raises(ValueError, match="samples"):
        mc_volume(halfspace_poly(), BoxDomain.symmetric(2), samples=10)


def _mc_samples(box, samples, seed):
    # mc_volume's samples: the same Philox stream, built in place the same way
    points = np.random.Generator(np.random.Philox(seed)).random((samples, box.dimension))
    points *= box.widths
    points += box.lower_array
    return points


def _screen_families():
    """Polynomials of 1 to 4 variables, both kinds, degrees 0 to 14, on
    off-centre boxes, each shifted so that about half the samples have
    p >= 1."""
    rng = np.random.default_rng(21)
    for dimension, degrees in ((1, range(0, 15, 2)), (2, range(1, 15, 3)), (3, (2, 6, 9)),
                               (4, (1, 4))):
        for kind in ("monomial", "chebyshev"):
            for degree in degrees:
                lower = rng.uniform(-3.0, 2.0, dimension)
                box = BoxDomain(lower=tuple(lower),
                                upper=tuple(lower + rng.uniform(0.3, 3.0, dimension)))
                basis = make_basis(dimension, degree, kind, box)
                p = Polynomial(basis, rng.normal(size=len(basis)))
                seed = int(rng.integers(2**32))
                p.coeffs[0] += 1.0 - np.median(eval_poly_many(p, _mc_samples(box, 1000, seed)))
                yield p, box, seed


def test_mc_volume_is_the_stratified_oracle_bit_for_bit():
    # every drawn point is evaluated, so the estimate is that of the oracle,
    # which draws the same rows all at once; the pick of a cell must stay
    # below U where u_0 * U is exact (U a power of two) and where it rounds
    open_counts = set()
    screened = 0
    for p, box, seed in _screen_families():
        samples = 20_000 + seed % 1000
        est = mc_volume(p, box, samples=samples, seed=seed)
        cells, state = verification._screen(p, box, samples)
        inside, undecided = int(np.sum(state == 1)), int(np.sum(state == 0))
        assert (est.cells, est.undecided) == (cells**p.dimension, undecided)
        assert stratified_mc_volume(p, box, cells, state, samples, seed) == (
            est.estimate, est.standard_error, est.evaluated), (p.basis.kind, p.dimension, p.degree)
        # the decided cells bracket the estimate exactly
        bracket = box.volume * np.array([inside, inside + undecided]) / est.cells
        assert bracket[0] <= est.estimate <= bracket[1]
        open_counts.add(undecided)
        screened += est.evaluated < samples // 2
    assert screened >= 10  # the screen decides most cells of most families
    assert any(u > 1 and u & (u - 1) == 0 for u in open_counts)
    assert any(u > 1 and u % 2 == 1 for u in open_counts)


def _touching_one(p, points):
    """p with its constant term shifted so that its computed value at one of
    the points is exactly 1.0, and that point's position; the points where
    p is nearest 1 are tried first, so the shift is small."""
    values = eval_poly_many(p, points)
    for i in np.argsort(np.abs(values - 1.0))[:50]:
        coeffs = p.coeffs.copy()
        for step in range(40):
            value = eval_poly_many(Polynomial(p.basis, coeffs), points[i : i + 1])[0]
            if value == 1.0:
                return Polynomial(p.basis, coeffs), i
            if step < 4:
                coeffs[0] += 1.0 - value
            else:  # below the constant's spacing: one ulp at a time
                coeffs[0] = np.nextafter(coeffs[0], math.copysign(math.inf, 1.0 - value))
    raise AssertionError("no shift of the constant term makes p exactly 1 at a point")


def _drawn_points(p, box, samples, seed):
    """The points mc_volume draws for p, and its screen."""
    cells, state = verification._screen(p, box, samples)
    chunks = list(stratified_mc_points(box, cells, state, samples, seed))
    points = np.concatenate(chunks) if chunks else np.empty((0, box.dimension))
    return points, (cells, state.tolist())


def test_mc_volume_counts_a_drawn_point_where_p_is_exactly_one():
    samples = 5_000
    for p, box, seed in _screen_families():
        if p.degree == 0:
            continue  # nothing is drawn
        # p of order 1, so that the spacing of its values near 1 is 1's
        p = Polynomial(p.basis, p.coeffs / np.max(np.abs(eval_poly_many(
            p, _mc_samples(box, samples, seed)))))
        # shifting p moves its screen, and so the points drawn: shift until
        # the screen stays
        points, screen = _drawn_points(p, box, samples, seed)
        for _ in range(6):
            touching, i = _touching_one(p, points if len(points) else
                                        _mc_samples(box, samples, seed))
            moved = _drawn_points(touching, box, samples, seed)
            if moved[1] == screen:
                break
            p, (points, screen) = touching, moved
        else:
            raise AssertionError("the screen moved at every shift")
        values = eval_poly_many(touching, points)
        assert values[i] == 1.0
        hits = np.count_nonzero(values >= 1.0)
        est = mc_volume(touching, box, samples=samples, seed=seed)
        inside, undecided = screen[1].count(1), screen[1].count(0)
        assert est.evaluated == len(points)
        assert est.estimate == box.volume * (inside + undecided * (hits / len(points))) / est.cells


@pytest.mark.parametrize("dimension, coeffs", [
    (2, (3.0, 0.5, -0.25, 0.125, 0.5, 0.25)),  # p >= 1.375 on the box
    (3, (0.5, 0.1, -0.1, 0.1, 0.0, 0.1, 0.0, 0.0, 0.0, -0.1)),  # p <= 0.9 on the box
])
def test_mc_volume_of_a_p_whose_screen_decides_every_cell_evaluates_nothing(
    dimension, coeffs, monkeypatch
):
    def no_evaluation(*args):
        raise AssertionError("p was evaluated")

    box = BoxDomain(lower=(-1.0, 0.5, -0.25)[:dimension], upper=(0.5, 2.0, 1.0)[:dimension])
    p = Polynomial(make_basis(dimension, 2, "chebyshev", box), np.array(coeffs))
    cells, state = verification._screen(p, box, 100_000)
    monkeypatch.setattr(verification, "eval_poly_many", no_evaluation)
    est = mc_volume(p, box, samples=100_000, seed=4)
    assert cells > 1 and not np.any(state == 0)
    inside = int(np.sum(state == 1))
    assert inside in (0, cells**dimension)
    assert (est.estimate, est.standard_error) == (box.volume * inside / cells**dimension, 0.0)
    assert (est.undecided, est.evaluated) == (0, 0)


@pytest.mark.parametrize("family", [(2, "chebyshev", 7), (3, "monomial", 6)])
def test_stratified_mc_volume_is_unbiased_and_no_noisier_than_plain(family):
    # the mean of 20 seeded estimates against a 4M-sample plain estimate,
    # which evaluates every sample, within 4 combined standard errors
    p, box, _ = next(f for f in _screen_families()
                     if (f[0].dimension, f[0].basis.kind, f[0].degree) == family)
    samples = 100_000
    runs = [mc_volume(p, box, samples=samples, seed=seed) for seed in range(20)]
    plain, plain_stderr, _ = stratified_mc_volume(p, box, 1, [0], 4_000_000, 99)
    mean = np.mean([r.estimate for r in runs])
    stderrs = np.array([r.standard_error for r in runs])
    combined = math.sqrt(np.mean(stderrs**2) / len(runs) + plain_stderr**2)
    assert abs(mean - plain) <= 4.0 * combined
    # the plain estimator's standard error at the same sample count
    fraction = plain / box.volume
    assert np.mean(stderrs) <= box.volume * math.sqrt(fraction * (1.0 - fraction) / samples)


def test_mc_volume_peak_memory_on_a_2d_degree_9_fit():
    # a 2-D degree-9 p at 1M samples, like the cluster fit's Monte Carlo:
    # the loop that drew every sample in the box, 65,536 at a time, peaked
    # at 2.20 MB, and the screen alone peaks at 1.84 MB; chunks of 16,384
    # points or more would pass the bound
    rng = np.random.default_rng(5)
    box = BoxDomain.symmetric(2)
    p = Polynomial(make_basis(2, 9), 0.3 * rng.normal(size=55))
    p.coeffs[0] += 1.0 - np.median(eval_poly_many(p, rng.uniform(-1.0, 1.0, (1000, 2))))
    tracemalloc.start()
    try:
        est = mc_volume(p, box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 20_000 < est.evaluated < est.samples // 20
    assert peak < 2.2e6


def test_mc_volume_evaluates_every_sample_where_a_cell_would_not_fit_a_block():
    # 8^6 coefficients per cell of a 6-D degree-7 polynomial pass the
    # enclosure block, so nothing is screened
    rng = np.random.default_rng(24)
    box = BoxDomain.symmetric(6, 0.5)
    basis = make_basis(6, 7)
    p = Polynomial(basis, rng.normal(size=len(basis)))
    points = _mc_samples(box, 2_000, 3)
    p.coeffs[0] += 1.0 - np.median(eval_poly_many(p, points))
    est = mc_volume(p, box, samples=2_000, seed=3)
    hits = np.count_nonzero(eval_poly_many(p, points) >= 1.0)
    assert est.evaluated == 2_000
    assert 0 < hits < 2_000
    assert est.estimate == box.volume * (hits / 2_000)


def test_mc_volume_encloses_its_cells_in_blocks():
    # 4096 cells of a 4-D degree-6 polynomial hold 7^4 coefficients each:
    # enclosed at once they would take 79 MiB
    rng = np.random.default_rng(23)
    box = BoxDomain.symmetric(4)
    p = Polynomial(make_basis(4, 6), 0.3 * rng.normal(size=210))
    tracemalloc.start()
    try:
        est = mc_volume(p, box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.evaluated < est.samples // 2
    assert peak < 16 * 2**20


def test_chebyshev_check_passes_for_nonnegative_polynomial():
    box = BoxDomain.symmetric(1)
    basis = make_basis(1, 2, "monomial")
    p = Polynomial(basis, np.array([1.0, 0.0, -1.0]))  # 1 - x^2 >= 0 on box
    check = chebyshev_check(p, moment_vector(basis, box), mc_volume(p, box, samples=100_000))
    assert check.passed
    assert check.w == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_chebyshev_check_flags_negative_dips():
    # deeply negative polynomial: integral is far below the volume of {p>=1}
    box = BoxDomain.symmetric(1)
    basis = make_basis(1, 2, "monomial")
    p = Polynomial(basis, np.array([-2.0, 0.0, 3.0]))  # {p >= 1} = [-1,1] \ (-1,1) endpoints
    volume = mc_volume(p, box, samples=100_000)
    check = chebyshev_check(p, moment_vector(basis, box), volume)
    assert check.w < 0  # integral -2
    assert not check.passed or volume.estimate <= check.w + 3 * volume.standard_error


def test_nonnegativity_scan_finds_interior_minimum():
    basis = make_basis(1, 2, "monomial")
    p = Polynomial(basis, np.array([0.09, -0.6, 1.0]))  # (x - 0.3)^2
    scan = nonnegativity_scan(p, BoxDomain.symmetric(1), GridSpec(points_per_axis=2001))
    assert scan.min_value == pytest.approx(0.0, abs=1e-6)
    assert scan.argmin[0] == pytest.approx(0.3, abs=1e-3)
    assert scan.points == 2001


@pytest.mark.parametrize("dimension, per_axis", [(2, 301), (3, 41)])
def test_nonnegativity_scan_argmin_is_a_grid_point(dimension, per_axis):
    box = BoxDomain(lower=(-0.7, 0.2, -3.0)[:dimension], upper=(1.3, 0.9, -1.5)[:dimension])
    spec = GridSpec(points_per_axis=per_axis)
    grid = build_grid(box, spec)
    target = grid[per_axis**dimension // 3]
    # sum over the axes of (x_d - target_d)^2: smallest at one grid point
    basis = make_basis(dimension, 2, "monomial")
    coeffs = np.zeros(len(basis))
    for d in range(dimension):
        unit = tuple(int(e == d) for e in range(dimension))
        coeffs[basis.indices.index(tuple(2 * u for u in unit))] = 1.0
        coeffs[basis.indices.index(unit)] = -2.0 * target[d]
    coeffs[0] = float(target @ target)
    scan = nonnegativity_scan(Polynomial(basis, coeffs), box, spec)
    assert scan.points == grid.shape[0]
    assert scan.argmin == tuple(target.tolist())
    assert scan.min_value == pytest.approx(0.0, abs=1e-12)


def test_verification_memory_does_not_grow_with_the_basis():
    # a random degree-14 2-D polynomial (120 basis elements); a (points,
    # basis) matrix over either grid would take hundreds of MiB
    rng = np.random.default_rng(16)
    p = Polynomial(make_basis(2, 14), rng.normal(size=120))
    box = BoxDomain.symmetric(2)
    for run in (lambda: count_components(p, box, 512), lambda: nonnegativity_scan(p, box)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def test_nonnegativity_scan_on_a_tensor_grid_builds_no_point_array():
    # the default scans have 801^2 points in 2-D and 73^3 in 3-D; an array
    # of those points would alone take two or three times the bytes of the
    # values
    skewed = BoxDomain(lower=(-0.4, -1.0, 0.5), upper=(1.2, 0.3, 2.0))
    rng = np.random.default_rng(9)
    for box, basis, per_axis in (
        (BoxDomain.symmetric(2), make_basis(2, 9), 801),
        (skewed, make_basis(3, 6, "chebyshev", skewed), 73),
    ):
        p = Polynomial(basis, rng.normal(size=len(basis)))
        tracemalloc.start()
        try:
            scan = nonnegativity_scan(p, box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scan.points == per_axis**box.dimension
        assert peak <= 1.5 * scan.points * np.dtype(float).itemsize


def test_nonnegativity_scan_default_refines_the_fit_grid():
    basis = make_basis(1, 0, "monomial")
    p = Polynomial(basis, np.array([1.0]))
    scan = nonnegativity_scan(p, BoxDomain.symmetric(1))
    assert scan.points == 4 * 2000 + 1


def test_default_scan_finds_the_lowest_corner_of_an_affine_p():
    # the default grid holds the box's 2^n corners, where an affine p takes
    # its minimum; dyadic coefficients and bounds make every value exact
    rng = np.random.default_rng(36)
    for dimension in range(3, 7):
        for kind in ("monomial", "chebyshev"):
            lower = rng.integers(-12, 8, dimension) / 4.0
            box = BoxDomain(lower=tuple(lower),
                            upper=tuple(lower + rng.integers(1, 8, dimension) / 2.0))
            basis = make_basis(dimension, 1, kind, box)
            coeffs = rng.choice([-3.0, -1.5, -0.5, 0.25, 1.0, 2.5], size=len(basis))
            p = Polynomial(basis, coeffs)
            corners = tensor_grid(box.lower, box.upper, 2)
            values = eval_poly_many(p, corners)
            pos = int(np.argmin(values))
            scan = nonnegativity_scan(p, box)
            assert scan.points == verification._scan_spec(p).points_per_axis ** dimension
            assert (scan.min_value, scan.argmin) == (values[pos], tuple(corners[pos])), (
                dimension, kind)


def _every_point_scan(p, box, spec):
    """The scan by evaluating p at every point of build_grid: the minimum
    and the first point, in build_grid's order, that attains it."""
    points = build_grid(box, spec)
    values = eval_poly_many(p, points)
    pos = int(np.argmin(values))
    return float(values[pos]), tuple(float(x) for x in points[pos]), len(points)


@pytest.mark.parametrize("dimension, degree, per_axis", [
    (17, 1, 2),  # 2^17 coefficients: exactly an enclosure block
    (18, 1, None),  # 2^18: past it
    (18, 0, 2),  # 2^18 points within the budget
    (19, 0, None),  # 2^19 points would pass it: fewer than 2 nodes per axis
])
def test_default_scan_draws_sobol_points_only_where_no_tensor_grid_fits(
    dimension, degree, per_axis
):
    rng = np.random.default_rng(dimension + degree)
    lower = rng.uniform(-2.0, 1.0, dimension)
    box = BoxDomain(lower=tuple(lower), upper=tuple(lower + rng.uniform(0.5, 2.0, dimension)))
    basis = make_basis(dimension, degree, "chebyshev", box)
    p = Polynomial(basis, rng.normal(size=len(basis)))
    spec = verification._scan_spec(p)
    assert spec.points_per_axis == per_axis
    scan = nonnegativity_scan(p, box)
    if per_axis is None:
        assert spec == GridSpec(sample_count=400_000, seed=1)
        assert (scan.min_value, scan.argmin, scan.points) == _every_point_scan(p, box, spec)
    else:
        assert scan.points == per_axis**dimension


def test_scan_grid_follows_its_own_rule_not_the_fitting_default(monkeypatch):
    # 8001 nodes in 1-D, 801 per axis in 2-D, and in 3-D and up the most
    # nodes per axis within 400,000 points while (d + 1)^n fits in an
    # enclosure block of 2^17 coefficients, else 400,000 Sobol points
    from polycover import fitting

    monkeypatch.setattr(fitting, "default_grid_spec", lambda n: GridSpec(points_per_axis=46))
    per_axis = {1: 8001, 2: 801, 3: 73, 4: 25, 5: 13, 6: 8}
    max_tensor_degree = {1: 12, 2: 12, 3: 12, 4: 12, 5: 9, 6: 6}
    for dimension in range(1, 7):
        for degree in range(13):
            spec = verification._scan_spec(Polynomial(make_basis(dimension, degree), np.ones(
                math.comb(dimension + degree, degree))))
            if degree <= max_tensor_degree[dimension]:
                assert spec == GridSpec(points_per_axis=per_axis[dimension])
            else:
                assert spec == GridSpec(sample_count=400_000, seed=1)


def test_sobol_scan_over_the_grid_cap_fails_before_allocating():
    p = Polynomial(make_basis(3, 6), np.random.default_rng(33).normal(size=84))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="quasi-random grid would hold 10000001 points"):
            nonnegativity_scan(p, BoxDomain.symmetric(3),
                               GridSpec(sample_count=MAX_GRID_POINTS + 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_run_report_encloses_the_cells_once(monkeypatch):
    # the Monte Carlo's screen is the one cell_enclosures call of a report;
    # the scan encloses nothing
    calls = []
    real = verification.cell_enclosures

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    rng = np.random.default_rng(34)
    box = BoxDomain(lower=(-0.4, -1.0, 0.5), upper=(1.2, 0.3, 2.0))
    p = Polynomial(make_basis(3, 4, "chebyshev", box), rng.normal(size=35))
    monkeypatch.setattr(verification, "cell_enclosures", counted)
    report = run_report(p, box, mc_samples=20_000, resolution=64)
    # 20,000 samples earn 8 cells per axis
    assert calls == [8]
    volume = mc_volume(p, box, samples=20_000)
    scan = nonnegativity_scan(p, box)
    assert calls == [8, 8]
    assert (report.mc_volume, report.mc_stderr) == (volume.estimate, volume.standard_error)
    assert report.min_scan_value == scan.min_value


@pytest.mark.parametrize("dimension, degree, spec", [
    (3, 0, None),  # the default 73^3 scan; one exact cell
    (4, 19, GridSpec(sample_count=3000, seed=5)),  # 20^4 coefficients: one undecided cell
])
def test_one_cell_screen_and_the_scan_of_every_point(dimension, degree, spec):
    box = BoxDomain(lower=(-0.5,) * dimension, upper=(1.5,) * dimension)
    basis = make_basis(dimension, degree, "chebyshev", box)
    p = Polynomial(basis, np.random.default_rng(degree).normal(size=len(basis)))
    cells, state = verification._screen(p, box, 10_000)
    # the constant (0.126) is its own enclosure, below 1
    assert (cells, state.dtype, state.tolist()) == (1, np.int8, [-1 if degree == 0 else 0])
    scan = nonnegativity_scan(p, box, spec)
    spec = spec or verification._scan_spec(p)
    assert (scan.min_value, scan.argmin, scan.points) == _every_point_scan(p, box, spec)
    if degree == 0:
        # every sample is decided
        volume = mc_volume(constant_poly(basis, 1.0), box, samples=10_000)
        assert (volume.estimate, volume.cells, volume.evaluated) == (box.volume, 1, 0)


def test_count_components_two_intervals():
    basis = make_basis(1, 2, "monomial")
    p = Polynomial(basis, np.array([-1.0, 0.0, 8.0]))  # 8x^2 - 1 >= 1 iff |x| >= 0.5
    assert count_components(p, BoxDomain.symmetric(1)) == 2


def _cell_centres(box, resolution):
    # the points count_components labels in 2-D and 3-D
    h = box.widths / resolution
    return tensor_grid(box.lower_array + h / 2.0, box.upper_array - h / 2.0, resolution)


def _one_plus(roots, sign=1.0):
    # 1 + sign * prod (x - root) in the monomial basis
    q = sign * np.polynomial.polynomial.polyfromroots(roots)
    q[0] += 1.0
    return Polynomial(make_basis(1, len(roots), "monomial"), q)


def test_count_components_counts_an_interval_narrower_than_a_cell():
    # (x^2 - delta^2)(x - 0.5) >= 0 on [-delta, delta] and [0.5, 1]; the
    # first interval is half a 512-cell wide and sits between the cell
    # centres at -h/2 and h/2, so a cell-centre count sees only [0.5, 1]
    delta = 1e-3
    box = BoxDomain.symmetric(1)
    centres = _cell_centres(box, 512)[:, 0]
    assert not np.any(np.abs(centres) <= delta)
    p = _one_plus([-delta, delta, 0.5])
    for resolution in (64, 512):
        assert count_components(p, box, resolution) == 2

    # the same shape in Chebyshev coefficients on an offset box, centred on
    # the boundary between cells 200 and 201
    box = BoxDomain(lower=(-0.3,), upper=(1.7,))
    middle = -0.3 + 200 * (2.0 / 512)
    centres = _cell_centres(box, 512)[:, 0]
    assert not np.any(np.abs(centres - middle) <= delta)
    q = np.polynomial.polynomial.polyfromroots([middle - delta, middle + delta, 1.2])
    coeffs = np.polynomial.chebyshev.chebinterpolate(
        lambda t: 1.0 + np.polynomial.polynomial.polyval(0.7 + t, q), 3
    )
    p = Polynomial(make_basis(1, 3, "chebyshev", box), coeffs)
    assert count_components(p, box, 512) == 2


@pytest.mark.parametrize("r", [-0.25, 0.0, 0.4, 0.5])
def test_count_components_ignores_a_point_where_p_touches_one(r):
    box = BoxDomain.symmetric(1)
    # p - 1 = (x - r)^2 (x - 0.95): U(p) = {r} u [0.95, 1]
    assert count_components(_one_plus([r, r, 0.95]), box) == 1
    # p - 1 = -(x - r)^2: U(p) = {r}, no interval at all
    assert count_components(_one_plus([r, r], sign=-1.0), box) == 0
    # p - 1 = (x - r)^2 (x + 0.6)^2 touches 0 twice: U(p) is the whole box
    assert count_components(_one_plus([r, r, -0.6, -0.6]), box) == 1


def test_count_components_disc_complement():
    basis = make_basis(2, 2, "monomial")
    # x^2 + y^2 >= 1 inside the square: four corner lobes
    p = Polynomial(basis, np.array([0.0, 0.0, 0.0, 1.0, 0.0, 1.0]))
    assert count_components(p, BoxDomain.symmetric(2)) == 4


def test_count_components_agrees_with_bfs_oracle():
    rng = np.random.default_rng(8)
    basis = make_basis(2, 4, "monomial")
    box = BoxDomain.symmetric(2)
    for _ in range(5):
        p = Polynomial(basis, rng.normal(size=len(basis)))
        resolution = 64
        points = _cell_centres(box, resolution)
        mask = (eval_poly_many(p, points) >= 1.0).reshape(resolution, resolution)
        assert count_components(p, box, resolution) == bfs_component_count(mask)


@given(
    shape=st.lists(st.integers(1, 16), min_size=2, max_size=3),
    density=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=200)
def test_face_components_agrees_with_bfs_oracle(shape, density, seed):
    mask = np.random.default_rng(seed).random(shape) < density
    assert verification._face_components(mask) == bfs_component_count(mask)


def test_face_components_edge_cases():
    for shape in [(1, 1), (7, 1), (1, 9), (5, 6), (4, 1, 3), (3, 4, 5)]:
        assert verification._face_components(np.zeros(shape, dtype=bool)) == 0
        assert verification._face_components(np.ones(shape, dtype=bool)) == 1
    # cells that touch only at a corner are apart under face adjacency
    assert verification._face_components(np.eye(2, dtype=bool)) == 2
    cube = np.zeros((2, 2, 2), dtype=bool)
    cube[0, 0, 0] = cube[1, 1, 1] = True
    assert verification._face_components(cube) == 2
    # a run ending a line does not join a run starting the next line
    lines = np.zeros((2, 4), dtype=bool)
    lines[0, 2:] = lines[1, :2] = True
    assert verification._face_components(lines) == 2


@pytest.mark.parametrize("shape", [(512, 512), (64, 64, 64)])
def test_face_components_agrees_with_scipy_label_on_noise(shape):
    import scipy.ndimage  # the reference; the package itself does not import it

    mask = np.random.default_rng(21).random(shape) < 0.5
    assert verification._face_components(mask) == scipy.ndimage.label(mask)[1]


def test_count_components_3d_corners():
    basis = make_basis(3, 6, "monomial")
    coeffs = np.zeros(len(basis))
    coeffs[basis.indices.index((2, 2, 2))] = 1.0
    p = Polynomial(basis, coeffs)  # (xyz)^2, at least 1 only near the corners
    assert count_components(p, BoxDomain.symmetric(3, 1.5), resolution=64) == 8


def test_count_components_validation():
    basis = make_basis(1, 1, "monomial")
    p = Polynomial(basis, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="resolution"):
        count_components(p, BoxDomain.symmetric(1), resolution=32)
    basis4 = make_basis(4, 1, "monomial")
    p4 = Polynomial(basis4, np.zeros(5))
    with pytest.raises(ValueError, match="dimension"):
        count_components(p4, BoxDomain.symmetric(4))


def test_component_count_stable_under_resolution_doubling(figure_sweep):
    for entry in figure_sweep:
        p = entry.result.polynomial
        box = entry.result.box
        assert count_components(p, box, 256) == count_components(p, box, 512)


def test_trace_report_agrees_on_small_random_polynomials():
    rng = np.random.default_rng(14)
    box = BoxDomain(lower=(-1.0, -0.5), upper=(0.5, 2.0))
    basis = make_basis(2, 4, "monomial")
    for _ in range(10):
        p = Polynomial(basis, rng.normal(size=len(basis)))
        report = trace_report(p, box)
        assert report.relative_gap <= 1e-10
        assert report.trace_pm == pytest.approx(report.weighted_coeff_sum, rel=1e-9, abs=1e-12)


def test_trace_identity_holds_for_every_gram_representative():
    # add a symmetric matrix that expands to the zero polynomial; the trace
    # against the moment matrix must not move
    rng = np.random.default_rng(15)
    box = BoxDomain.symmetric(2)
    basis = make_basis(2, 4, "monomial")
    half = make_basis(2, 2, "monomial")
    mm = moment_matrix(half, box)
    for _ in range(8):
        p = Polynomial(basis, rng.normal(size=len(basis)))
        P = poly_to_gram(p)
        raw = rng.normal(size=P.shape)
        S0 = (raw + raw.T) / 2
        S = S0 - poly_to_gram(gram_to_poly(S0, half))
        residual = gram_to_poly(S, half)
        np.testing.assert_allclose(residual.coeffs, 0.0, atol=1e-12)
        base = float(np.sum(P * mm.entries))
        moved = float(np.sum((P + S) * mm.entries))
        assert moved == pytest.approx(base, rel=1e-10, abs=1e-10)


def test_trace_report_requires_monomial():
    box = BoxDomain.symmetric(1)
    cheb = make_basis(1, 2, "chebyshev", box)
    with pytest.raises(ValueError, match="monomial"):
        trace_report(Polynomial(cheb, np.zeros(3)), box)


def test_run_report_checks_the_sample_count_before_counting_components(monkeypatch):
    def no_count(*args, **kwargs):
        raise AssertionError("components were counted before the sample count was checked")

    monkeypatch.setattr(verification, "count_components", no_count)
    with pytest.raises(ValueError, match=f"need at least {verification.MIN_MC_SAMPLES} samples"):
        run_report(halfspace_poly(), BoxDomain.symmetric(2),
                   mc_samples=verification.MIN_MC_SAMPLES - 1, resolution=64)


def test_run_report_schema(figure_sweep):
    entry = figure_sweep[0]
    report = run_report(
        entry.result.polynomial, entry.result.box, mc_samples=10_000, resolution=64
    )
    payload = report.to_json_dict()
    assert list(payload) == [
        "w",
        "mc_volume",
        "mc_stderr",
        "cheb_gap",
        "min_scan_value",
        "components",
        "trace_PM",
    ]
    assert payload["components"] == 1
    assert payload["w"] == pytest.approx(44.0 / 27.0, rel=1e-12)


def test_run_report_logs_its_stages_at_debug_level(caplog):
    line = re.compile(
        r"verify degree (\d+): moments \d+\.\d{3} s, monte carlo \d+\.\d{3} s on (\d+) samples "
        r"drawn in (\d+) of (\d+) cells, scan \d+\.\d{3} s "
        r"on (a \d+\^\d+ grid|\d+ Sobol points), components \d+\.\d{3} s on (\d+) cells, "
        r"trace \d+\.\d{3} s"
    )
    square, segment = BoxDomain.symmetric(2), BoxDomain.symmetric(1)
    line_poly = Polynomial(make_basis(1, 2, "monomial"), np.array([0.0, 0.0, 2.0]))
    with caplog.at_level(logging.DEBUG, logger="polycover"):
        run_report(halfspace_poly(), square, mc_samples=10_000, resolution=64)
        run_report(line_poly, segment, mc_samples=2_000)  # exact count: no cells
        for dimension in (3, 19):  # no components counted past 3-D
            run_report(constant_poly(make_basis(dimension, 0), 0.5),
                       BoxDomain.symmetric(dimension), mc_samples=2_000, resolution=64)
    lines = [line.fullmatch(r.getMessage()) for r in caplog.records if r.name == "polycover"]
    assert all(lines)
    fields = [m.groups() for m in lines]
    # the scan names its grid: nodes per axis, or Sobol points past 18-D
    assert [(int(f[0]), f[4], int(f[5])) for f in fields] == [
        (1, "a 801^2 grid", 64 * 64),
        (2, "a 8001^1 grid", 0),
        (0, "a 73^3 grid", 64**3),
        (0, "400000 Sobol points", 0),
    ]
    # the Monte Carlo's points, drawn only in the cells near the boundary
    # p = 1 that the screen leaves undecided
    volumes = [mc_volume(halfspace_poly(), square, samples=10_000),
               mc_volume(line_poly, segment, samples=2_000)]
    assert [(int(f[1]), int(f[2]), int(f[3])) for f in fields[:2]] == [
        (v.evaluated, v.undecided, v.cells) for v in volumes
    ]
    assert 0 < int(fields[0][1]) < 10_000 // 10 and 0 < int(fields[1][1]) < 2_000 // 10
    # a constant's one cell is decided, so nothing is drawn
    assert [(int(f[1]), int(f[2]), int(f[3])) for f in fields[2:]] == [(0, 0, 1), (0, 0, 1)]
    caplog.clear()
    run_report(halfspace_poly(), square, mc_samples=10_000, resolution=64)  # silent by default
    assert not [r for r in caplog.records if r.name == "polycover"]


def test_checks_refuse_a_box_or_moments_of_another_dimension():
    p = constant_poly(make_basis(2, 2), 1.5)
    box_3d = BoxDomain.symmetric(3)
    checks = [
        lambda: verification.cell_enclosures(p, box_3d, 4),
        lambda: mc_volume(p, box_3d, samples=10_000),
        lambda: count_components(p, box_3d, 64),
        lambda: trace_report(p, box_3d),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="polynomial and box dimensions differ"):
            check()
    volume = mc_volume(p, BoxDomain.symmetric(2), samples=10_000)
    other = moment_vector(make_basis(2, 3), BoxDomain.symmetric(2))
    with pytest.raises(ValueError, match="moment vector was computed for a different basis"):
        chebyshev_check(p, other, volume)


def test_trace_report_raises_when_its_routes_disagree(monkeypatch):
    # a moment matrix off by 1e-6 relative moves the trace route alone
    def perturbed(*args, **kwargs):
        mm = moment_matrix(*args, **kwargs)
        return MomentMatrix(mm.basis, mm.box, mm.entries * (1.0 + 1e-6))

    p = constant_poly(make_basis(2, 2), 1.5)
    box = BoxDomain.symmetric(2)
    assert trace_report(p, box).relative_gap <= 1e-12
    monkeypatch.setattr(verification, "moment_matrix", perturbed)
    with pytest.raises(ArithmeticError, match="trace route .* disagree"):
        trace_report(p, box)
