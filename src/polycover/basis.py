"""Multi-index enumeration, polynomial bases, evaluation, and Gram conversions.

A basis is the ordered family of all n-variate monomials (or tensor products
of Chebyshev polynomials of the first kind) of total degree at most d.  The
ordering is graded lexicographic: ascending total degree, then ascending
lexicographic order of the exponent tuples.  This makes the degree-d basis a
prefix of every higher-degree basis, which the fitting layer relies on.

Chebyshev basis elements are evaluated through the affine map of the attached
box onto [-1, 1]^n, so a Chebyshev basis always carries its box.

Every value comes from row-major per-axis tables of the 1-D basis functions,
one row per degree, which the basis matrix and both evaluators read; one
kernel, _axis_product, multiplies their rows at the basis exponents for the
basis matrix, the fitting layer's tensor-grid rows and the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Literal

import numpy as np

from .domain import BoxDomain

MultiIndex = tuple[int, ...]
BasisKind = Literal["monomial", "chebyshev"]

BASIS_KINDS = ("monomial", "chebyshev")


def _compositions(total: int, parts: int) -> Iterator[MultiIndex]:
    """All exponent tuples with the given sum, in ascending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def enumerate_indices(dimension: int, degree: int) -> list[MultiIndex]:
    """Ordered list of all multi-indices with |alpha| <= degree.

    Args:
        dimension: number of variables, at least 1.
        degree: maximum total degree, at least 0.

    Returns:
        Graded-lex ordered, duplicate-free list of length
        binomial(dimension + degree, degree).
    """
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    indices: list[MultiIndex] = []
    for total in range(degree + 1):
        indices.extend(_compositions(total, dimension))
    return indices


def basis_size(dimension: int, degree: int) -> int:
    return math.comb(dimension + degree, degree)


def half_degree(degree: int) -> int:
    """Ceil(degree / 2), the degree of the square-root basis for Gram forms."""
    return (degree + 1) // 2


@dataclass(frozen=True)
class PolyBasis:
    """Ordered finite polynomial basis of degree <= d in n variables.

    Chebyshev bases carry the box whose affine map onto [-1, 1]^n defines the
    tensor Chebyshev elements; monomial bases are box-free.
    """

    dimension: int
    degree: int
    kind: BasisKind
    indices: tuple[MultiIndex, ...]
    box: BoxDomain | None = None

    def __post_init__(self) -> None:
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "chebyshev":
            if self.box is None:
                raise ValueError("a chebyshev basis requires a box")
            if self.box.dimension != self.dimension:
                raise ValueError("basis box dimension mismatch")
        if len(self.indices) != basis_size(self.dimension, self.degree):
            raise ValueError("index list does not match the full basis")

    def __len__(self) -> int:
        return len(self.indices)

    @cached_property
    def exponent_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.int64)


def make_basis(
    dimension: int,
    degree: int,
    kind: BasisKind = "monomial",
    box: BoxDomain | None = None,
) -> PolyBasis:
    """Construct the full graded-lex basis of the given dimension and degree."""
    indices = tuple(enumerate_indices(dimension, degree))
    if kind == "monomial":
        box = None
    return PolyBasis(dimension=dimension, degree=degree, kind=kind, indices=indices, box=box)


# Entries of the largest array of a block, 2**17 float64 (1 MiB): the (k, B)
# products of eval_basis_many and _GridRows.take, and cell_enclosures' q.
_BLOCK_ENTRIES = 2**17


def _basis_table(basis: PolyBasis, axis: int, x: np.ndarray) -> np.ndarray:
    """The 1-D factors of eval_basis_many's entries along one axis: the
    values phi_0..phi_d at the coordinates x, one row per degree and one
    column per coordinate.  Monomials are ** powers: _axis_table's running
    products move the entries by up to 9e-16 and grow the monomial failures
    of the 492 line LPs at degrees 27-30 from 8 to 12.  They are taken
    points-major and copied: numpy takes x ** 2 as x * x, off its pow at 2%
    of points, where one exponent meets a long run of coordinates."""
    if basis.kind == "monomial":
        return (x[:, None] ** np.arange(basis.degree + 1)).T.copy()
    return _axis_table(basis, axis, x, np.empty((basis.degree + 1, x.size)))


def _axis_product(factors: list[np.ndarray], exps: np.ndarray) -> np.ndarray:
    """The product over axes i of the rows factors[i][exps[:, i]], multiplied
    in axis order: one row per basis element.  It is the one such product,
    so arrays built from the same factors have the same bits."""
    product = factors[0][exps[:, 0]]
    for axis in range(1, len(factors)):
        product *= factors[axis][exps[:, axis]]
    return product


def eval_basis_many(basis: PolyBasis, points: np.ndarray) -> np.ndarray:
    """Evaluate every basis element at every point.

    The result is filled in blocks of _BLOCK_ENTRIES // len(basis) rows:
    tabulate each axis's 1-D values at the block's coordinates (_basis_table),
    multiply them by _axis_product and write the product transposed.  Every
    entry is the product of float64 factors computed point by point, so the
    values do not depend on the block a point is in.

    Args:
        basis: the basis to evaluate.
        points: array of shape (N, n) or (n,) for a single point.

    Returns:
        Array of shape (N, len(basis)) with one column per basis element.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[1] != basis.dimension:
        raise ValueError(
            f"points have dimension {pts.shape[-1]}, basis has {basis.dimension}"
        )
    values = np.empty((pts.shape[0], len(basis)))
    step = max(1, _BLOCK_ENTRIES // len(basis))
    for start in range(0, pts.shape[0], step):
        block = pts[start : start + step]
        factors = [_basis_table(basis, axis, block[:, axis]) for axis in range(basis.dimension)]
        values[start : start + step] = _axis_product(factors, basis.exponent_array).T
    return values[0] if single else values


def eval_basis(basis: PolyBasis, x: np.ndarray) -> np.ndarray:
    """Evaluate every basis element at a single point; returns a 1-D vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1:
        raise ValueError("eval_basis expects a single point")
    return eval_basis_many(basis, x)


@dataclass
class Polynomial:
    """A polynomial stored as a dense coefficient vector over a basis."""

    basis: PolyBasis
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if coeffs.shape[0] != len(self.basis):
            raise ValueError(
                f"coefficient vector has length {coeffs.shape[0]}, "
                f"basis has {len(self.basis)} elements"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        self.coeffs = coeffs

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    @property
    def degree(self) -> int:
        return self.basis.degree

    def __call__(self, x: np.ndarray) -> float:
        return eval_poly(self, x)


def eval_poly(p: Polynomial, x: np.ndarray) -> float:
    """Value of the polynomial at one point: eval_poly_many's, bit for bit."""
    return float(eval_poly_many(p, np.reshape(x, (1, -1)))[0])  # more points fail its dimension check


def _axis_map(basis: PolyBasis, axis: int, x: np.ndarray) -> np.ndarray:
    """The variable of one axis's 1-D basis functions at the coordinates x:
    x itself for monomials; for Chebyshev, x's image under the affine map of
    the box's axis onto [-1, 1].  This is the one place that map is written."""
    if basis.kind == "monomial":
        return x
    assert basis.box is not None
    lo, up = basis.box.lower[axis], basis.box.upper[axis]
    return (2.0 * x - (lo + up)) / (up - lo)


def _recurrence(kind: BasisKind, out: np.ndarray, times) -> np.ndarray:
    """Rows 2..d of a table of the 1-D basis functions phi_0..phi_d of a
    variable v, whose rows 0 and 1 already hold phi_0 = 1 and phi_1 = v:
    running products v^k = v * v^(k-1) for monomials, the three-term
    recurrence T_k = 2v * T_(k-1) - T_(k-2) for Chebyshev.  times(row, dst)
    writes v * row (monomial) or 2v * row (Chebyshev) into dst."""
    for k in range(2, len(out)):
        times(out[k - 1], out[k])
        if kind == "chebyshev":
            out[k] -= out[k - 2]
    return out


def _axis_table(basis: PolyBasis, axis: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Values of the 1-D basis functions of degree 0..d along one axis, one
    row per degree and one column per coordinate in x, written into out of
    shape (d + 1, len(x))."""
    v = _axis_map(basis, axis, x)
    out[0] = 1.0
    if basis.degree >= 1:
        out[1] = v  # 1.0 * x is x, bit for bit
    factor = 2.0 * v if basis.kind == "chebyshev" else v
    return _recurrence(basis.kind, out, lambda row, dst: np.multiply(factor, row, out=dst))


# Points per block of eval_poly_many.  Blocks this small keep the
# intermediates in cache: 1M 2-D degree-9 points take 0.05 s, against
# 0.11 s with 262144-point blocks; 1M 3-D degree-6 Chebyshev points take
# 0.13-0.15 s (2-core Xeon, one BLAS thread).
_BLOCK_POINTS = 4096
# eval_poly_many pads a block to a multiple of this many points with copies
# of its last point.  Its product with the last axis's table runs through
# BLAS, whose last few columns, when their count is no multiple of the
# kernel's width, and a lone column, take other code paths with other bits;
# so a point's value would depend on its block.
_TILE_POINTS = 64


def _prefix_layout(
    basis: PolyBasis, coeffs: np.ndarray
) -> tuple[list[list[tuple[int, int, int]]], np.ndarray]:
    """Group the coefficients by the exponents of all axes but the last.

    The distinct prefixes (alpha_0, ..., alpha_{n-2}) are ranked in
    lexicographic order.  Returns, for each of those n - 1 axes, the runs
    (start, stop, exponent) of consecutive prefixes that share that axis's
    exponent, and the (P, d + 1) layout that holds c_alpha at
    [rank of the prefix of alpha, alpha_{n-1}] and zeros elsewhere.  A
    single prefix (1-D, or degree 0) gets a second, zero row, which keeps
    eval_poly_many's product with the last axis's table a matrix product.
    """
    keys, base = basis.exponent_array, basis.degree + 1
    codes = np.zeros(keys.shape[0], dtype=np.int64)
    for column in keys[:, :-1].T:
        # rank of the prefix so far; ranks stay below len(keys), so the codes
        # cannot overflow, and ranking keeps the lexicographic order
        codes = np.unique(codes * base + column, return_inverse=True)[1]
    count = int(codes.max()) + 1
    prefixes = np.empty((count, keys.shape[1] - 1), dtype=keys.dtype)
    prefixes[codes] = keys[:, :-1]
    runs = []
    for column in prefixes.T:
        starts = np.flatnonzero(np.diff(column, prepend=-1))
        stops = np.append(starts[1:], count)
        runs.append(list(zip(starts.tolist(), stops.tolist(), column[starts].tolist())))
    layout = np.zeros((max(count, 2), base))
    layout[codes, keys[:, -1]] = coeffs
    return runs, layout


def eval_poly_many(p: Polynomial, points: np.ndarray, *, layout=None) -> np.ndarray:
    """Values at many points, evaluated in blocks of _BLOCK_POINTS points.

    The coefficients are grouped by the exponents of all axes but the last
    into a (P, d + 1) layout, so a block costs one product of that layout with
    the last axis's table, then for each other axis, in axis order, each run
    of prefixes that share its exponent multiplied in place by one row of
    that axis's table, and a sum over the P prefixes.  The tables are filled
    row by row into buffers kept across blocks.  No intermediate exceeds
    (len(basis), block).  A block is padded to a multiple of _TILE_POINTS
    points, so a point's value does not depend on the block it is in.
    A caller that evaluates p often passes _prefix_layout(p.basis, p.coeffs).
    """
    basis = p.basis
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != basis.dimension:
        raise ValueError(
            f"points have dimension {pts.shape[-1]}, basis has {basis.dimension}"
        )
    last = basis.dimension - 1
    runs, layout = _prefix_layout(basis, p.coeffs) if layout is None else layout
    count = pts.shape[0]
    out = np.empty(count + _TILE_POINTS)
    acc = tables = np.empty((0, 0))
    for start in range(0, count, _BLOCK_POINTS):
        block = pts[start : start + _BLOCK_POINTS]
        pad = -block.shape[0] % _TILE_POINTS
        if pad:
            block = np.concatenate([block, np.broadcast_to(block[-1], (pad, block.shape[1]))])
        if acc.shape[1] != block.shape[0]:
            # new buffers for a new block size, the last partial block
            # included: the product with a strided view of the old ones
            # takes another BLAS path, with other bits
            tables = np.empty((basis.dimension, basis.degree + 1, block.shape[0]))
            acc = np.empty((layout.shape[0], block.shape[0]))
        np.matmul(layout, _axis_table(basis, last, block[:, last], tables[last]), out=acc)
        for axis in range(last):
            table = _axis_table(basis, axis, block[:, axis], tables[axis])
            for run_start, run_stop, exponent in runs[axis]:
                acc[run_start:run_stop] *= table[exponent]
        acc.sum(axis=0, out=out[start : start + block.shape[0]])
    return out[:count]


def _dense_coeffs(basis: PolyBasis, coeffs: np.ndarray) -> np.ndarray:
    """The coefficients in a dense (d + 1)^n array indexed by exponent,
    followed by the trailing axes of coeffs (one per column of a matrix)."""
    values = np.zeros((basis.degree + 1,) * basis.dimension + coeffs.shape[1:])
    values[tuple(basis.exponent_array.T)] = coeffs
    return values


def _contract(values: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """Contract the leading degree index of values with the leading index of
    each table in turn (de Boor, ACM TOMS 5, 1979); the other indices of each
    table go last, in order."""
    for table in tables:
        values = np.tensordot(values, table, axes=(0, 0))
    return values


def eval_poly_grid(p: Polynomial, axes: list[np.ndarray]) -> np.ndarray:
    """Values on the tensor grid of the 1-D coordinate arrays in axes, of
    shape (len(axes[0]), ..., len(axes[-1])): raveled, in tensor_grid's
    row-major order.  The dense coefficient array is contracted with each
    axis's table in turn; no point array is built."""
    basis = p.basis
    if len(axes) != basis.dimension:
        raise ValueError(f"got {len(axes)} axes, basis has dimension {basis.dimension}")
    tables = [_axis_table(basis, axis, x, np.empty((basis.degree + 1, len(x))))
              for axis, x in enumerate(axes)]
    return _contract(_dense_coeffs(basis, p.coeffs), tables)


def _shift_table(kind: BasisKind, degree: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_axis_table's recurrence run on polynomials in a cell coordinate s:
    S[j, k, m] is the coefficient of s^m in phi_j(a[k] + b[k] s), for the
    variable a[k] + b[k] s of cell k, s in [-1, 1]."""
    out = np.zeros((degree + 1, a.size, degree + 1))
    out[0, :, 0] = 1.0
    if degree >= 1:
        out[1, :, 0], out[1, :, 1] = a, b
    scale = 2.0 if kind == "chebyshev" else 1.0
    sa, sb = (scale * a)[:, None], (scale * b)[:, None]

    def times(row: np.ndarray, dst: np.ndarray) -> None:
        # row * (sa + sb s); row has degree below d in s, so nothing drops out
        np.multiply(sa, row, out=dst)
        dst[:, 1:] += sb * row[:, :-1]

    return _recurrence(kind, out, times)


def cell_enclosures(
    p: Polynomial, box: BoxDomain, cells: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Bounds of p on each cell of the box split into `cells` equal cells
    per axis, a power of two.  Returns lower, upper (one entry per cell,
    row-major in the axis order) and a margin E such that every float point
    x of a closed cell, or within the excursion below of one, has
    fl(lower - E) <= eval_poly_many(p, x) <= fl(upper + E).  _screen decides
    cells by these rounded bounds, so every point of a decided cell that
    eval_poly_many evaluates, on its faces too, lies on the decided side.

    On cell k of axis i, phi_j's variable v (x, or the Chebyshev map of x)
    runs over [a_k - b_k, a_k + b_k], so v = a_k + b_k s with s in [-1, 1],
    and _shift_table gives phi_j(v) as a polynomial in s.  Contracting the
    dense coefficient array with those tables axis by axis gives
    p = sum_beta q_beta s^beta on the cell, hence the centred form
    q_0 - sum_{beta != 0} |q_beta| <= p <= q_0 + sum_{beta != 0} |q_beta|
    (Ratschek and Rokne, Computer Methods for the Range of Functions, 1984).
    The cells are enclosed in blocks of at most _BLOCK_ENTRIES entries.

    The margin bounds rounding, with u = 2^-53.  Let z_i bound |v| on every
    cell and at every such point (for Chebyshev, max(1, |a_k|) + b_k, [-1, 1]
    grown by half a cell, plus the excursion and the map's rounding below),
    m_ij = max |phi_j| on [-z_i, z_i] (z^j, or T_j(z) = cosh(j acosh z)) and
    M = sum_alpha |c_alpha| prod_i m_{i,alpha_i}, which bounds
    sum |c_alpha phi_alpha| at those points and sum_beta |q_beta|, since the
    absolute s-coefficients of phi_j(a + b s) sum to at most m_ij.  With
    R_i = max |coordinate| of the box (and the basis box) and, for
    Chebyshev, kappa_i = R_i / (basis box width), each table entry is off by
    at most a_i u m_ij, where a_i sums, for monomials (times j <= d):
    - eval_poly_many's running products, j - 1 roundings;
    - _shift_table's, 2 per step;
    - the excursion: x, the cell edges, a and b are each a few roundings
      from their exact values, so a point box.lower + u * box.widths built
      in place lies within 12.1 z_i u of the closed cell holding its exact
      value, and |d/dx x^j| <= j m_ij / z_i;
    so a_i = 16 d.  For Chebyshev (times j^2 <= d^2): the map's rounding,
    |t^ - t| <= (3.01 z + 2.01 kappa) u, times |T_j'| <= j^2 m_ij; the
    recurrence's rounding, whose errors propagate by U_{k-j} <=
    (k - j + 1) T_{k-j}, 1.51 j^2 in eval_poly_many and 4.52 j^2 in
    _shift_table (3 roundings a step); and the excursion,
    (5.03 z + 22.13 kappa) u, times j^2 m_ij; so a_i = d^2 (15 z_i +
    25 kappa_i).  The products over axes and the sums add (depth of each
    rounded sum): n + d + len(basis) in eval_poly_many, n (d + 1) in the
    contraction, (d + 1)^n in sum |q_beta|, and 6 for the last subtraction
    and the rounding of lower - E and upper + E.  So
    E = 2 u M (sum_i a_i + n + d + len(basis) + n (d + 1) + (d + 1)^n + 6),
    where the factor 2 covers the second-order terms while the bracket
    times u is at most 2^-20; beyond that E is infinite and no cell is
    decided.
    """
    basis, n, d = p.basis, p.dimension, p.degree
    if box.dimension != n:
        raise ValueError("polynomial and box dimensions differ")
    unit = 2.0**-53
    tables, majorants, excess = [], [], 0.0
    for axis in range(n):
        lo, width = box.lower[axis], box.widths[axis]
        v = _axis_map(basis, axis, lo + width * (np.arange(cells + 1) / cells))
        a, b = (v[1:] + v[:-1]) / 2.0, (v[1:] - v[:-1]) / 2.0
        tables.append(_shift_table(basis.kind, d, a, b))
        if basis.kind == "monomial":
            z = float(np.max(np.abs(a) + b)) * (1.0 + 13.0 * unit)
            majorants.append(z ** np.arange(d + 1))
            excess += 16.0 * d
        else:
            assert basis.box is not None
            blo, bup = basis.box.lower[axis], basis.box.upper[axis]
            kappa = max(abs(lo), abs(box.upper[axis]), abs(blo), abs(bup)) / (bup - blo)
            z0 = max(1.0, float(np.max(np.abs(a)))) + float(np.max(b))
            z = z0 * (1.0 + 13.0 * unit) + 25.0 * kappa * unit
            majorants.append(np.cosh(np.arange(d + 1) * np.arccosh(z)))
            excess += d * d * (15.0 * z + 25.0 * kappa)
    bound = np.abs(p.coeffs) * _axis_product(majorants, basis.exponent_array)
    depth = excess + n + d + len(basis) + n * (d + 1) + (d + 1) ** n + 6
    margin = 2.0 * unit * depth * float(np.sum(bound)) if depth * unit <= 2.0**-20 else math.inf

    total = cells**n
    per_block = 1 << max(0, (_BLOCK_ENTRIES // (d + 1) ** n).bit_length() - 1)
    per_block = min(per_block, total)
    lower, upper = np.empty(total), np.empty(total)
    grid, powers = (cells,) * n, tuple(range(1, 2 * n, 2))
    dense = _dense_coeffs(basis, p.coeffs)
    for start in range(0, total, per_block):
        # an aligned power-of-two run of cells: a product of index ranges
        first = np.unravel_index(start, grid)
        last = np.unravel_index(start + per_block - 1, grid)
        q = _contract(dense, [t[:, f : l + 1] for t, f, l in zip(tables, first, last)])
        # axes of q: (cell, power of s) for each axis in turn
        centre = q[(slice(None), 0) * n].reshape(-1)
        radius = np.abs(q).sum(axis=powers).reshape(-1) - np.abs(centre)
        lower[start : start + per_block] = centre - radius
        upper[start : start + per_block] = centre + radius
    return lower, upper, margin


def constant_poly(basis: PolyBasis, value: float) -> Polynomial:
    coeffs = np.zeros(len(basis))
    coeffs[0] = value
    return Polynomial(basis, coeffs)


# ---------------------------------------------------------------------------
# Gram matrix conversions (monomial bases)
# ---------------------------------------------------------------------------

GRAM_SYMMETRY_TOL = 1e-12


def _require_monomial(basis: PolyBasis, what: str) -> None:
    if basis.kind != "monomial":
        raise ValueError(f"{what} is defined for monomial bases only")


def _gram_pairs(basis_half: PolyBasis) -> tuple[PolyBasis, np.ndarray]:
    """The monomial basis of degree 2 delta and the pair table of the
    half-degree basis: the (s, s) array whose entry (i, j) is the position of
    alpha_i + alpha_j in that basis.  Exponents are coded in radix 2 delta + 1,
    so no axis carries and a pair's code is the sum of its two codes; one
    sorted search finds every pair code among the full basis's codes."""
    n, base = basis_half.dimension, 2 * basis_half.degree + 1
    full = make_basis(n, base - 1, "monomial")
    # Python integers where codes can pass int64 (3^40 does): wrapped codes could coincide
    radix = np.array([base**k for k in reversed(range(n))],
                     dtype=np.int64 if base**n < 2**63 else object)
    half_codes, full_codes = basis_half.exponent_array @ radix, full.exponent_array @ radix
    order = np.argsort(full_codes)
    pair_codes = half_codes[:, None] + half_codes[None, :]
    return full, order[np.searchsorted(full_codes, pair_codes, sorter=order)]


def gram_to_poly(gram: np.ndarray, basis_half: PolyBasis) -> Polynomial:
    """Expand the quadratic form of a symmetric matrix over a half-degree basis.

    Given a symmetric matrix P and the monomial basis pi of degree delta,
    returns pi^T P pi collected as a polynomial of degree 2*delta: each
    coefficient is the sum of the P[i, j] that _gram_pairs' table sends to
    it, added in row-major order of (i, j) by one np.bincount.
    """
    _require_monomial(basis_half, "gram_to_poly")
    P = np.asarray(gram, dtype=float)
    s = len(basis_half)
    if P.shape != (s, s):
        raise ValueError(f"gram matrix must be {s}x{s} for this basis")
    asym = float(np.max(np.abs(P - P.T)))
    if asym > GRAM_SYMMETRY_TOL * max(1.0, float(np.max(np.abs(P)))):
        raise ValueError(f"gram matrix is asymmetric (max deviation {asym:.3e})")
    full, pairs = _gram_pairs(basis_half)
    return Polynomial(full, np.bincount(pairs.ravel(), weights=P.ravel(), minlength=len(full)))


def poly_to_gram(p: Polynomial) -> np.ndarray:
    """Canonical symmetric Gram representative of a monomial polynomial.

    Each coefficient of exponent gamma is split equally across all ordered
    pairs (alpha, beta) of half-degree exponents with alpha + beta = gamma:
    G[i, j] is the coefficient at entry (i, j) of _gram_pairs' table divided
    by the number of table entries that hold its position.
    The result G satisfies gram_to_poly(G) == p up to zero padding.
    """
    _require_monomial(p.basis, "poly_to_gram")
    full, pairs = _gram_pairs(make_basis(p.dimension, half_degree(p.degree), "monomial"))
    coeffs = np.zeros(len(full))
    coeffs[: len(p.basis)] = p.coeffs  # the degree-d basis is a prefix of full
    counts = np.bincount(pairs.ravel(), minlength=len(full))
    return coeffs[pairs] / counts[pairs] + 0.0  # + 0.0: a -0.0 coefficient gives +0.0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def poly_to_dict(p: Polynomial) -> dict:
    """JSON-ready dict; floats round-trip exactly through json (repr printing)."""
    out: dict = {
        "dimension": p.dimension,
        "degree": p.degree,
        "kind": p.basis.kind,
        "coeffs": [float(c) for c in p.coeffs],
    }
    if p.basis.box is not None:
        out["box"] = {
            "lower": list(p.basis.box.lower),
            "upper": list(p.basis.box.upper),
        }
    return out


def poly_from_dict(data: dict) -> Polynomial:
    kind = data["kind"]
    box = None
    if "box" in data and data["box"] is not None:
        box = BoxDomain(lower=tuple(data["box"]["lower"]), upper=tuple(data["box"]["upper"]))
    basis = make_basis(int(data["dimension"]), int(data["degree"]), kind, box)
    return Polynomial(basis, np.asarray(data["coeffs"], dtype=float))
