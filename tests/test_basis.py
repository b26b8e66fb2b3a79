import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycover import BoxDomain, Polynomial, enumerate_indices, eval_basis, eval_basis_many
from polycover import eval_poly, eval_poly_many, gram_to_poly, half_degree, make_basis
from polycover import poly_from_dict, poly_to_dict, poly_to_gram
from polycover.basis import _BLOCK_POINTS, _TILE_POINTS, PolyBasis, basis_size, constant_poly
from polycover.basis import cell_enclosures, eval_poly_grid
from polycover.domain import grid_axes, tensor_grid

from oracles import chebyshev_tensor_value, gram_by_pairs, gram_to_coeffs_by_pairs, horner_eval


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
@pytest.mark.parametrize("degree", range(11))
def test_index_count_matches_binomial(dimension, degree):
    indices = enumerate_indices(dimension, degree)
    assert len(indices) == math.comb(dimension + degree, degree)
    assert len(set(indices)) == len(indices)
    assert basis_size(dimension, degree) == len(indices)


def test_indices_are_graded_lex():
    indices = enumerate_indices(3, 5)
    keyed = [(sum(a), a) for a in indices]
    assert keyed == sorted(keyed)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_lower_degree_basis_is_a_prefix(dimension):
    # Degree truncation must keep positions stable; the fitting sweep and the
    # Gram padding both rely on it.
    big = enumerate_indices(dimension, 9)
    for degree in range(9):
        small = enumerate_indices(dimension, degree)
        assert big[: len(small)] == small


def test_monomial_eval_matches_naive_product():
    basis = make_basis(3, 4, "monomial")
    rng = np.random.default_rng(3)
    points = rng.uniform(-1.5, 1.5, size=(20, 3))
    rows = eval_basis_many(basis, points)
    for r, x in zip(rows, points):
        naive = [np.prod(x ** np.asarray(alpha)) for alpha in basis.indices]
        np.testing.assert_allclose(r, naive, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize(
    "box",
    [
        BoxDomain.symmetric(2),
        BoxDomain(lower=(-0.3, 0.5), upper=(1.9, 2.0)),
    ],
)
def test_chebyshev_eval_matches_coefficient_tables(box):
    basis = make_basis(2, 6, "chebyshev", box)
    rng = np.random.default_rng(4)
    points = box.lower_array + rng.random((25, 2)) * box.widths
    rows = eval_basis_many(basis, points)
    for r, x in zip(rows, points):
        expected = [
            chebyshev_tensor_value(alpha, x, box.lower, box.upper)
            for alpha in basis.indices
        ]
        np.testing.assert_allclose(r, expected, rtol=1e-10, atol=1e-10)


def test_eval_basis_single_point_matches_many():
    basis = make_basis(2, 3, "monomial")
    x = np.array([0.3, -0.7])
    np.testing.assert_array_equal(eval_basis(basis, x), eval_basis_many(basis, x[None, :])[0])


def _eval_basis_per_point(basis, points):
    # the evaluation before distinct-coordinate tables: every point's own
    # ** powers or Chebyshev recurrence, on its own map of each axis onto
    # [-1, 1], then the product over the axes
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if basis.kind == "chebyshev":
        lower, upper = basis.box.lower_array, basis.box.upper_array
        pts = (2.0 * pts - (lower + upper)) / (upper - lower)
    exps = basis.exponent_array
    tables = [
        pts[:, d, None] ** np.arange(basis.degree + 1) if basis.kind == "monomial"
        else _chebyshev_columns(pts[:, d], basis.degree)
        for d in range(basis.dimension)
    ]
    values = tables[0][:, exps[:, 0]]
    for d in range(1, basis.dimension):
        values *= tables[d][:, exps[:, d]]
    return values


@st.composite
def _points_with_repeats(draw):
    # coordinates drawn from a few values, -0.0 and 0.0 among them, so that
    # points share coordinates along every axis; 5000 points span two blocks
    dimension = draw(st.integers(1, 3))
    values = np.array(draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-1.0, 1.0),
        min_size=1, max_size=6,
    )))
    count = draw(st.sampled_from([0, 1, 2, 7, 5000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return values[rng.integers(0, values.size, size=(count, dimension))]


@given(
    points=_points_with_repeats(),
    kind=st.sampled_from(["monomial", "chebyshev"]),
    degree=st.integers(0, 9),
)
@settings(deadline=None, max_examples=80)
def test_eval_basis_many_is_bitwise_the_per_point_evaluation(points, kind, degree):
    dimension = points.shape[1]
    # other bounds on every axis, so that a map that read another axis's
    # bounds would change the values
    box = BoxDomain(lower=(-1.0, -0.5, -2.0)[:dimension], upper=(1.5, 0.75, 0.25)[:dimension])
    basis = make_basis(dimension, degree, kind, box)
    got, want = eval_basis_many(basis, points), _eval_basis_per_point(basis, points)
    assert got.shape == want.shape == (points.shape[0], len(basis))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if points.shape[0]:  # the single-point path
        one = eval_basis_many(basis, points[-1])
        assert np.array_equal(one.view(np.int64), want[-1].view(np.int64))


def test_eval_basis_many_keeps_the_sign_of_zero():
    basis = make_basis(2, 3, "monomial")
    values = eval_basis_many(basis, np.array([[0.0, 2.0], [-0.0, 2.0]]))
    linear = basis.indices.index((1, 0)), basis.indices.index((1, 2))
    assert all(math.copysign(1.0, values[0, j]) == 1.0 for j in linear)
    assert all(math.copysign(1.0, values[1, j]) == -1.0 for j in linear)


@given(
    coeffs=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=4, max_size=4
    ),
    x=st.floats(min_value=-2, max_value=2),
)
@settings(deadline=None, max_examples=60)
def test_univariate_polynomial_is_horner(coeffs, x):
    basis = make_basis(1, 3, "monomial")
    p = Polynomial(basis, np.asarray(coeffs))
    expected = horner_eval(coeffs, x)
    assert p(np.array([x])) == pytest.approx(expected, rel=1e-12, abs=1e-9)


def _chebyshev_columns(t, max_degree):
    # the column-by-column recurrence the kernel used before its tables
    # went row-major
    out = np.empty((t.shape[0], max_degree + 1))
    out[:, 0] = 1.0
    if max_degree >= 1:
        out[:, 1] = t
    for k in range(2, max_degree + 1):
        out[:, k] = 2.0 * t * out[:, k - 1] - out[:, k - 2]
    return out


def _eval_poly_gathered(p, points):
    # the block loop before row-major tables and in-place runs: a fresh
    # (d + 1, block) table per axis, the rows of the other axes' tables
    # gathered per prefix and multiplied in axis order, then a sum
    basis = p.basis
    pts = np.atleast_2d(np.asarray(points, dtype=float))

    def axis_table(axis, x):
        if basis.kind == "chebyshev":
            lo, up = basis.box.lower[axis], basis.box.upper[axis]
            t = (2.0 * x - (lo + up)) / (up - lo)
            return np.ascontiguousarray(_chebyshev_columns(t, basis.degree).T)
        table = np.empty((basis.degree + 1, x.shape[0]))
        table[0] = 1.0
        for k in range(1, basis.degree + 1):
            table[k] = table[k - 1] * x
        return table

    keys, base = basis.exponent_array, basis.degree + 1
    codes = np.zeros(keys.shape[0], dtype=np.int64)
    for column in keys[:, :-1].T:
        codes = np.unique(codes * base + column, return_inverse=True)[1]
    count = int(codes.max()) + 1
    prefixes = np.empty((count, keys.shape[1] - 1), dtype=keys.dtype)
    prefixes[codes] = keys[:, :-1]
    layout = np.zeros((max(count, 2), base))  # two rows at least, as in the kernel
    layout[codes, keys[:, -1]] = p.coeffs

    last = basis.dimension - 1
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], _BLOCK_POINTS):
        block = pts[start : start + _BLOCK_POINTS]
        size = block.shape[0]
        # padded with copies of the last point, as in the kernel
        block = np.vstack([block, np.repeat(block[-1:], -size % _TILE_POINTS, axis=0)])
        acc = layout @ axis_table(last, block[:, last])
        for axis in range(last):
            acc *= axis_table(axis, block[:, axis])[prefixes[:, axis]]
        out[start : start + size] = acc.sum(axis=0)[:size]
    return out


@given(
    dimension=st.integers(1, 4),
    kind=st.sampled_from(["monomial", "chebyshev"]),
    degree=st.integers(0, 12),
    count=st.sampled_from([1, 7, 4096, 4097, 9000]),
    order=st.sampled_from(["C", "F", "column slice"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=60)
def test_eval_poly_many_is_bitwise_the_gathered_block_loop(
    dimension, kind, degree, count, order, seed
):
    # 4097 and 9000 points end in a partial block, whose buffers must be as
    # contiguous as the full blocks' for the table product to keep its bits
    box = BoxDomain(lower=(-1.5, -0.25, -2.0, -0.75)[:dimension],
                    upper=(0.5, 1.75, 1.0, 0.25)[:dimension])
    basis = make_basis(dimension, degree, kind, box)
    rng = np.random.default_rng(seed)
    p = Polynomial(basis, rng.normal(size=len(basis)))
    wide = box.lower_array + rng.random((count, dimension + 1))[:, :dimension] * box.widths
    wide[rng.random(wide.shape) < 0.1] = 0.0
    wide[rng.random(wide.shape) < 0.1] = -0.0
    if order == "column slice":
        wider = np.full((count, dimension + 2), np.nan)
        wider[:, 1:-1] = wide
        points = wider[:, 1:-1]
    else:
        points = np.array(wide, order=order)
    got = eval_poly_many(p, points)
    want = _eval_poly_gathered(p, points)
    assert got.shape == want.shape == (count,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_eval_poly_many_chunks_agree_with_direct_loop():
    basis = make_basis(1, 2, "monomial")
    p = Polynomial(basis, np.array([1.0, -0.5, 2.0]))
    points = np.linspace(-1, 1, 262_200).reshape(-1, 1)  # spans > one chunk
    values = eval_poly_many(p, points)
    sample = slice(0, None, 50_000)
    direct = [p(x) for x in points[sample]]
    np.testing.assert_allclose(values[sample], direct, rtol=1e-14)


@pytest.mark.parametrize("kind", ["monomial", "chebyshev"])
@pytest.mark.parametrize("dimension, degree", [(1, 9), (2, 7), (3, 5)])
def test_a_polynomial_at_one_point_is_eval_poly_many_bit_for_bit(dimension, degree, kind):
    # one evaluator of p at scattered points: p(x) and eval_poly give
    # eval_poly_many's value at every point, on a box off the origin
    box = BoxDomain(lower=(0.5, -3.0, 1.0)[:dimension], upper=(2.5, -0.5, 4.0)[:dimension])
    basis = make_basis(dimension, degree, kind, box)
    rng = np.random.default_rng(10 * dimension + degree)
    p = Polynomial(basis, rng.normal(size=len(basis)))
    points = box.scale_unit(rng.random((200, dimension)))
    values = eval_poly_many(p, points)
    assert np.array([p(x) for x in points]).tobytes() == values.tobytes()
    assert np.array([eval_poly(p, x) for x in points]).tobytes() == values.tobytes()


@pytest.mark.parametrize("kind", ["monomial", "chebyshev"])
@pytest.mark.parametrize("dimension, degree", [(1, 12), (1, 20), (2, 9), (2, 16), (3, 6)])
def test_eval_poly_many_of_a_lone_point_is_bitwise_its_value_in_a_block(
    dimension, degree, kind
):
    # a value must not depend on the block it is evaluated in: mc_volume's
    # chunk sizes follow the number of cells its screen leaves undecided, and
    # the scan and the CLI evaluate other subsets; a lone point once took
    # numpy's matrix-vector path, and from 16 coefficients per row on, a
    # block's last columns past a multiple of 8 took other BLAS kernels
    rng = np.random.default_rng(20 + dimension + degree)
    box = BoxDomain(lower=(-1.5, -0.25, -2.0)[:dimension], upper=(0.5, 1.75, 1.0)[:dimension])
    basis = make_basis(dimension, degree, kind, box)
    p = Polynomial(basis, rng.normal(size=len(basis)))
    points = box.lower_array + rng.random((300, dimension)) * box.widths
    block = eval_poly_many(p, points)
    lone = np.array([eval_poly_many(p, points[i : i + 1])[0] for i in range(len(points))])
    assert np.array_equal(lone.view(np.int64), block.view(np.int64))
    for size in range(2, 70):
        pick = np.sort(rng.choice(len(points), size, replace=False))
        got = eval_poly_many(p, points[pick])
        assert np.array_equal(got.view(np.int64), block[pick].view(np.int64))


def _cell_samples(box, cells, rng, count):
    """Samples built as mc_volume builds them, x = lower + u * widths in
    place, and their cells: each coordinate of u is a random draw, a
    cell's lower face k / cells or the largest draw below its upper face;
    the box's corners are added."""
    n = box.dimension
    k = rng.integers(0, cells, (count, n))
    u = np.select(
        [rng.random((count, n)) < 0.4, rng.random((count, n)) < 0.5],
        [(k + rng.random((count, n))) / cells, k / cells],
        np.nextafter((k + 1) / cells, 0.0),
    )
    corners = np.array(np.meshgrid(*[[0.0, np.nextafter(1.0, 0.0)]] * n)).reshape(n, -1).T
    u = np.vstack([u, corners])
    cell = np.zeros(u.shape[0], dtype=np.int64)
    for axis in range(n):
        cell = cell * cells + (u[:, axis] * cells).astype(np.int64)
    points = u.copy()
    points *= box.widths
    points += box.lower_array
    return points, cell


@pytest.mark.parametrize("kind", ["monomial", "chebyshev"])
@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_cell_enclosures_contain_p_within_the_margin(dimension, kind):
    rng = np.random.default_rng(40 + 10 * dimension + len(kind))
    cells = (64, 16, 4, 2)[dimension - 1]
    degrees = range(15) if dimension <= 2 else (0, 1, 2, 5, 9, 14)
    for degree in degrees:
        # off-centre boxes; for Chebyshev the cells also split a box inside
        # the basis box, whose map then stays inside [-1, 1]
        lower = rng.uniform(-3.0, 2.0, dimension)
        basis_box = BoxDomain(lower=tuple(lower),
                              upper=tuple(lower + rng.uniform(0.3, 3.0, dimension)))
        box = basis_box
        if kind == "chebyshev" and degree % 2:
            box = BoxDomain(lower=tuple(basis_box.lower_array + 0.25 * basis_box.widths),
                            upper=basis_box.upper)
        basis = make_basis(dimension, degree, kind, basis_box)
        p = Polynomial(basis, rng.normal(size=len(basis)))
        points, cell = _cell_samples(box, cells, rng, 3000)
        values = eval_poly_many(p, points)
        # p about 1 at the first sample, so that its cell straddles 1
        p.coeffs[0] += 1.0 - values[0]
        values = eval_poly_many(p, points)
        low, high, margin = cell_enclosures(p, box, cells)
        assert low.shape == high.shape == (cells**dimension,)
        assert 0.0 < margin < math.inf
        assert np.all(low[cell] - margin <= values), (degree, np.min(values - low[cell]))
        assert np.all(values <= high[cell] + margin), (degree, np.max(values - high[cell]))
        assert np.all(low <= high)


def _assert_matches_basis_matrix(p, values, points):
    # the basis-matrix product, to 1e-12 of the largest sum of |c_a phi_a(x)|
    terms = eval_basis_many(p.basis, points) * p.coeffs
    scale = 1.0 + np.max(np.abs(terms).sum(axis=1))
    assert values.shape == (points.shape[0],)
    np.testing.assert_allclose(values, terms.sum(axis=1), rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("kind", ["monomial", "chebyshev"])
@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_eval_poly_many_agrees_with_the_basis_matrix(dimension, kind):
    rng = np.random.default_rng(10 * dimension + len(kind))
    lower = rng.uniform(-2.0, -0.2, dimension)
    box = BoxDomain(lower=tuple(lower), upper=tuple(lower + rng.uniform(0.5, 3.0, dimension)))
    per_axis = 9 if dimension < 4 else 5
    grid = tensor_grid(box.lower, box.upper, per_axis)
    for degree in range(15):
        basis = make_basis(dimension, degree, kind, box)
        p = Polynomial(basis, rng.normal(size=len(basis)))
        points = box.lower_array + rng.random((300, dimension)) * box.widths
        _assert_matches_basis_matrix(p, eval_poly_many(p, points), points)
        _assert_matches_basis_matrix(p, eval_poly_many(p, points[:1]), points[:1])
        _assert_matches_basis_matrix(p, eval_poly_many(p, grid), grid)
    if dimension <= 2:
        # more points than one block of the scattered kernel
        points = box.lower_array + rng.random((20_000, dimension)) * box.widths
        _assert_matches_basis_matrix(p, eval_poly_many(p, points), points)

    wrong = dimension + 1
    message = f"points have dimension {wrong}, basis has {dimension}"
    with pytest.raises(ValueError, match=message):
        eval_poly_many(p, np.zeros((5, wrong)))
    with pytest.raises(ValueError, match=message):
        eval_poly_many(p, np.zeros(wrong))


@pytest.mark.parametrize("kind", ["monomial", "chebyshev"])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_eval_poly_grid_agrees_with_eval_poly_many_on_the_tensor_grid(dimension, kind):
    rng = np.random.default_rng(20 * dimension + len(kind))
    lower = rng.uniform(-2.0, -0.2, dimension)
    box = BoxDomain(lower=tuple(lower), upper=tuple(lower + rng.uniform(0.5, 3.0, dimension)))
    for degree in (0, 1, 4, 9):
        basis = make_basis(dimension, degree, kind, box)
        p = Polynomial(basis, rng.normal(size=len(basis)))
        for per_axis in (1, 2, 9):
            grid = tensor_grid(box.lower, box.upper, per_axis)
            got = eval_poly_grid(p, grid_axes(box.lower, box.upper, per_axis))
            assert got.shape == (per_axis,) * dimension
            # both sum the same table products in other orders: at most
            # (d + 1)^n terms, each with a few roundings of its own
            bound = (8 * (degree + 1) ** dimension * np.finfo(float).eps
                     * (np.abs(eval_basis_many(basis, grid)) @ np.abs(p.coeffs)))
            assert np.all(np.abs(got.reshape(-1) - eval_poly_many(p, grid)) <= bound)

    with pytest.raises(ValueError, match=f"got {dimension + 1} axes"):
        eval_poly_grid(p, grid_axes(box.lower, box.upper, 3) + [np.zeros(3)])


def test_eval_poly_grid_is_laid_out_row_major():
    # p = x_d picks axis d's coordinates exactly (products with 1, sums with
    # 0), so the values are the d-th column of the row-major point array
    box = BoxDomain(lower=(-0.7, 0.2, -3.0), upper=(1.3, 0.9, -1.5))
    axes = [np.linspace(lo, up, count) for lo, up, count in zip(box.lower, box.upper, (4, 1, 3))]
    points = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    basis = make_basis(3, 2, "monomial")
    for d in range(3):
        coeffs = np.zeros(len(basis))
        coeffs[basis.indices.index(tuple(int(e == d) for e in range(3)))] = 1.0
        values = eval_poly_grid(Polynomial(basis, coeffs), axes)
        assert values.shape == (4, 1, 3)
        assert np.array_equal(values.reshape(-1), points[:, d])


def test_gram_quadratic_form_consistency():
    half = make_basis(2, 2, "monomial")
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(len(half), len(half)))
    P = (raw + raw.T) / 2.0
    p = gram_to_poly(P, half)
    assert p.degree == 4
    for x in rng.uniform(-1, 1, size=(12, 2)):
        row = eval_basis(half, x)
        assert p(x) == pytest.approx(float(row @ P @ row), rel=1e-10, abs=1e-10)


@given(
    st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=6, max_size=6)
)
@settings(deadline=None, max_examples=50)
def test_gram_round_trip_recovers_coefficients(coeffs):
    basis = make_basis(2, 2, "monomial")
    p = Polynomial(basis, np.asarray(coeffs))
    back = gram_to_poly(poly_to_gram(p), make_basis(2, half_degree(2), "monomial"))
    np.testing.assert_allclose(back.coeffs, p.coeffs, rtol=0, atol=1e-12 * (1 + np.max(np.abs(coeffs))))


def test_gram_round_trip_odd_degree_pads():
    basis = make_basis(1, 3, "monomial")
    p = Polynomial(basis, np.array([0.5, -1.0, 3.0, 0.25]))
    back = gram_to_poly(poly_to_gram(p), make_basis(1, 2, "monomial"))
    np.testing.assert_allclose(back.coeffs[:4], p.coeffs, atol=1e-12)
    np.testing.assert_allclose(back.coeffs[4:], 0.0, atol=1e-12)


def test_poly_to_gram_is_symmetric():
    basis = make_basis(2, 4, "monomial")
    rng = np.random.default_rng(12)
    p = Polynomial(basis, rng.normal(size=len(basis)))
    G = poly_to_gram(p)
    np.testing.assert_array_equal(G, G.T)


GRAM_CASES = [(n, d) for n in (1, 2, 3, 4) for d in range(11 if n < 4 else 9)] + [(40, 2)]


@pytest.mark.parametrize("dimension, degree", GRAM_CASES)
def test_gram_conversions_match_the_pair_loops_bit_for_bit(dimension, degree):
    # 40-D: 5^40 passes int64, so _gram_pairs codes in Python integers
    rng = np.random.default_rng(100 * dimension + degree)
    basis = make_basis(dimension, degree)
    half = make_basis(dimension, half_degree(degree))
    full = make_basis(dimension, 2 * half.degree)
    coeffs = rng.normal(size=len(basis))
    coeffs[rng.random(len(basis)) < 0.2] = -0.0
    G = poly_to_gram(Polynomial(basis, coeffs))
    assert G.tobytes() == gram_by_pairs(coeffs, basis.indices, half.indices).tobytes()
    raw = rng.normal(size=(len(half), len(half)))
    P = raw + raw.T
    p = gram_to_poly(P, half)
    assert p.basis == full
    assert p.coeffs.tobytes() == gram_to_coeffs_by_pairs(P, half.indices, full.indices).tobytes()


def test_gram_rejects_asymmetric_input():
    half = make_basis(1, 1, "monomial")
    with pytest.raises(ValueError, match="asymmetric"):
        gram_to_poly(np.array([[1.0, 2.0], [0.0, 1.0]]), half)


def test_gram_requires_monomial_kind():
    box = BoxDomain.symmetric(1)
    cheb = make_basis(1, 2, "chebyshev", box)
    p = Polynomial(cheb, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="monomial"):
        poly_to_gram(p)
    with pytest.raises(ValueError, match="monomial"):
        gram_to_poly(np.eye(2), make_basis(1, 1, "chebyshev", box))


def test_dict_round_trip_monomial_is_exact():
    basis = make_basis(2, 3, "monomial")
    rng = np.random.default_rng(13)
    p = Polynomial(basis, rng.normal(size=len(basis)) * 1e3)
    data = json.loads(json.dumps(poly_to_dict(p)))
    q = poly_from_dict(data)
    assert q.basis == p.basis
    np.testing.assert_array_equal(q.coeffs, p.coeffs)
    assert "box" not in poly_to_dict(p)


def test_dict_round_trip_chebyshev_carries_box():
    box = BoxDomain(lower=(-2.0, 0.0), upper=(1.0, 3.0))
    basis = make_basis(2, 2, "chebyshev", box)
    p = Polynomial(basis, np.arange(len(basis), dtype=float))
    q = poly_from_dict(json.loads(json.dumps(poly_to_dict(p))))
    assert q.basis.box == box
    np.testing.assert_array_equal(q.coeffs, p.coeffs)


def test_half_degree_is_ceil():
    assert [half_degree(d) for d in range(7)] == [0, 1, 1, 2, 2, 3, 3]


def test_constant_poly_evaluates_to_value():
    basis = make_basis(2, 5, "monomial")
    p = constant_poly(basis, 2.5)
    assert p(np.array([0.4, -0.9])) == 2.5


def test_validation_errors():
    basis = make_basis(2, 2, "monomial")
    with pytest.raises(ValueError):
        Polynomial(basis, np.zeros(5))  # needs 6 coefficients
    with pytest.raises(ValueError):
        make_basis(2, 2, "chebyshev")  # box required
    assert make_basis(2, 2, "monomial", BoxDomain.symmetric(2)).box is None
    with pytest.raises(ValueError):
        enumerate_indices(0, 3)
    with pytest.raises(ValueError):
        enumerate_indices(2, -1)
    p = Polynomial(basis, np.zeros(6))
    with pytest.raises(ValueError):
        p(np.zeros(3))  # wrong point dimension


def test_basis_evaluators_refuse_points_of_another_shape():
    plane, line = make_basis(2, 2), make_basis(1, 3)
    for points in (np.zeros((5, 3)), np.zeros(3)):
        with pytest.raises(ValueError, match="^points have dimension 3, basis has 2$"):
            eval_basis_many(plane, points)
    # a 0-d point is a point of a 1-D basis, and of dimension 1 for any other
    np.testing.assert_array_equal(eval_basis(line, np.float64(0.5)), [1.0, 0.5, 0.25, 0.125])
    with pytest.raises(ValueError, match="^points have dimension 1, basis has 2$"):
        eval_basis(plane, 0.5)
    with pytest.raises(ValueError, match="^eval_basis expects a single point$"):
        eval_basis(plane, np.zeros((1, 2)))


def test_poly_basis_and_gram_to_poly_refuse_inconsistent_inputs():
    indices = tuple(enumerate_indices(2, 2))
    with pytest.raises(ValueError, match="unknown basis kind 'legendre'"):
        PolyBasis(2, 2, "legendre", indices)
    with pytest.raises(ValueError, match="basis box dimension mismatch"):
        PolyBasis(2, 2, "chebyshev", indices, BoxDomain.symmetric(3))
    with pytest.raises(ValueError, match="index list does not match the full basis"):
        PolyBasis(2, 2, "monomial", indices[:-1])
    with pytest.raises(ValueError, match="gram matrix must be 3x3 for this basis"):
        gram_to_poly(np.eye(2), make_basis(2, 1))
