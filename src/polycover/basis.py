"""Multi-index enumeration, polynomial bases, evaluation, and Gram conversions.

A basis is the ordered family of all n-variate monomials (or tensor products
of Chebyshev polynomials of the first kind) of total degree at most d.  The
ordering is graded lexicographic: ascending total degree, then ascending
lexicographic order of the exponent tuples.  This makes the degree-d basis a
prefix of every higher-degree basis, which the fitting layer relies on.

Chebyshev basis elements are evaluated through the affine map of the attached
box onto [-1, 1]^n, so a Chebyshev basis always carries its box.
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
    def index_position(self) -> dict[MultiIndex, int]:
        return {alpha: i for i, alpha in enumerate(self.indices)}

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


# Points per block of eval_basis_many and eval_poly_many.  Blocks this small
# keep the intermediates in cache: in eval_poly_many, 1M 2-D degree-9 points
# take 0.05 s, against 0.11 s with 262144-point blocks; 1M 3-D degree-6
# Chebyshev points take 0.13-0.15 s (2-core Xeon, one BLAS thread).
_BLOCK_POINTS = 4096


def _chebyshev_rows(t: np.ndarray, max_degree: int, table: np.ndarray) -> np.ndarray:
    """Values T_0(t)..T_max(t) via the three-term recurrence, one row per
    degree, filled into table of shape (max + 1, len(t))."""
    table[0] = 1.0
    if max_degree >= 1:
        table[1] = t
        two_t = 2.0 * t
        for k in range(2, max_degree + 1):
            np.multiply(two_t, table[k - 1], out=table[k])
            table[k] -= table[k - 2]
    return table


def eval_basis_many(
    basis: PolyBasis, points: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate every basis element at every point.

    Each axis's 1-D values (powers by ``**``, or _axis_table's Chebyshev
    recurrence) are tabulated once per distinct coordinate, told apart by
    bit pattern so that -0.0 and 0.0 keep their own rows; a 201^2 tensor
    grid has 201 distinct coordinates per axis.  The result is filled in
    blocks of _BLOCK_POINTS rows: gather each axis's table rows for the
    block, then the columns of the basis exponents, and multiply the axes
    in order.
    Every entry is the product of the same float64 factors as tabulating
    per point would give, so the values do not depend on the grouping.

    Args:
        basis: the basis to evaluate.
        points: array of shape (N, n) or (n,) for a single point.
        out: optional C-contiguous float array of shape (N, len(basis)) to
            fill instead of a new one.

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
    exps = basis.exponent_array
    tables, rows = [], []
    for d in range(basis.dimension):
        bits, inverse = np.unique(pts[:, d].view(np.int64), return_inverse=True)
        x = bits.view(np.float64)
        # ** powers, not _axis_table's running products: those move A by up
        # to 9e-16, which changes line-LP outcomes
        tables.append(x[:, None] ** np.arange(basis.degree + 1) if basis.kind == "monomial"
                      else _axis_table(basis, d, x, np.empty((basis.degree + 1, x.size))).T)
        rows.append(inverse)
    values = np.empty((pts.shape[0], len(basis))) if out is None else out
    if values.shape != (pts.shape[0], len(basis)):
        raise ValueError(f"out has shape {out.shape}, expected {(pts.shape[0], len(basis))}")
    for start in range(0, pts.shape[0], _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        out = values[block]
        # mode="clip" lets take write straight into out; no index is out of range
        np.take(tables[0][rows[0][block]], exps[:, 0], axis=1, out=out, mode="clip")
        for d in range(1, basis.dimension):
            out *= tables[d][rows[d][block]][:, exps[:, d]]
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
    """Value of the polynomial at one point."""
    return float(eval_basis(p.basis, x) @ p.coeffs)


def _axis_table(basis: PolyBasis, axis: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Values of the 1-D basis functions of degree 0..d along one axis, one
    row per degree and one column per coordinate in x, written into out of
    shape (d + 1, len(x)).  Chebyshev coordinates go through the affine map
    of the box's axis onto [-1, 1]."""
    if basis.kind == "chebyshev":
        assert basis.box is not None
        lo, up = basis.box.lower[axis], basis.box.upper[axis]
        return _chebyshev_rows((2.0 * x - (lo + up)) / (up - lo), basis.degree, out)
    out[0] = 1.0
    if basis.degree >= 1:
        out[1] = x  # 1.0 * x is x, bit for bit
    for k in range(2, basis.degree + 1):
        np.multiply(out[k - 1], out[1], out=out[k])
    return out


def _prefix_layout(
    basis: PolyBasis, coeffs: np.ndarray
) -> tuple[list[list[tuple[int, int, int]]], np.ndarray]:
    """Group the coefficients by the exponents of all axes but the last.

    The distinct prefixes (alpha_0, ..., alpha_{n-2}) are ranked in
    lexicographic order.  Returns, for each of those n - 1 axes, the runs
    (start, stop, exponent) of consecutive prefixes that share that axis's
    exponent, and the (P, d + 1) layout that holds c_alpha at
    [rank of the prefix of alpha, alpha_{n-1}] and zeros elsewhere.
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
    layout = np.zeros((count, base))
    layout[codes, keys[:, -1]] = coeffs
    return runs, layout


def eval_poly_many(p: Polynomial, points: np.ndarray) -> np.ndarray:
    """Values at many points, evaluated in blocks of _BLOCK_POINTS points.

    The coefficients are grouped by the exponents of all axes but the last
    into a (P, d + 1) layout, so a block costs one product of that layout with
    the last axis's table, then for each other axis, in axis order, each run
    of prefixes that share its exponent multiplied in place by one row of
    that axis's table, and a sum over the P prefixes.  The tables are filled
    row by row into buffers kept across blocks.  No intermediate exceeds
    (len(basis), block).
    """
    basis = p.basis
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != basis.dimension:
        raise ValueError(
            f"points have dimension {pts.shape[-1]}, basis has {basis.dimension}"
        )
    last = basis.dimension - 1
    runs, layout = _prefix_layout(basis, p.coeffs)
    out = np.empty(pts.shape[0])
    acc = tables = np.empty((0, 0))
    for start in range(0, pts.shape[0], _BLOCK_POINTS):
        block = pts[start : start + _BLOCK_POINTS]
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
        acc.sum(axis=0, out=out[start : start + _BLOCK_POINTS])
    return out


def eval_poly_grid(p: Polynomial, axes: list[np.ndarray]) -> np.ndarray:
    """Values on the tensor grid of the 1-D coordinate arrays in axes, of
    shape (len(axes[0]), ..., len(axes[-1])): raveled, in tensor_grid's
    row-major order.  The coefficients fill a dense (d + 1)^n array by
    exponent, and each axis's degree index in turn is contracted with its
    table (de Boor, ACM TOMS 5, 1979); no point array is built."""
    basis = p.basis
    if len(axes) != basis.dimension:
        raise ValueError(f"got {len(axes)} axes, basis has dimension {basis.dimension}")
    values = np.zeros((basis.degree + 1,) * basis.dimension)
    values[tuple(basis.exponent_array.T)] = p.coeffs
    for axis, x in enumerate(axes):
        table = _axis_table(basis, axis, x, np.empty((basis.degree + 1, len(x))))
        # the leading index is this axis's degree; its coordinates go last
        values = np.tensordot(values, table, axes=(0, 0))
    return values


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


def gram_to_poly(gram: np.ndarray, basis_half: PolyBasis) -> Polynomial:
    """Expand the quadratic form of a symmetric matrix over a half-degree basis.

    Given a symmetric matrix P and the monomial basis pi of degree delta,
    returns pi^T P pi collected as a polynomial of degree 2*delta.
    """
    _require_monomial(basis_half, "gram_to_poly")
    P = np.asarray(gram, dtype=float)
    s = len(basis_half)
    if P.shape != (s, s):
        raise ValueError(f"gram matrix must be {s}x{s} for this basis")
    asym = float(np.max(np.abs(P - P.T))) if s else 0.0
    if asym > GRAM_SYMMETRY_TOL * max(1.0, float(np.max(np.abs(P))) if s else 1.0):
        raise ValueError(f"gram matrix is asymmetric (max deviation {asym:.3e})")

    full = make_basis(basis_half.dimension, 2 * basis_half.degree, "monomial")
    coeffs = np.zeros(len(full))
    pos = full.index_position
    idx = basis_half.indices
    for i in range(s):
        ai = idx[i]
        for j in range(s):
            gamma = tuple(a + b for a, b in zip(ai, idx[j]))
            coeffs[pos[gamma]] += P[i, j]
    return Polynomial(full, coeffs)


def poly_to_gram(p: Polynomial) -> np.ndarray:
    """Canonical symmetric Gram representative of a monomial polynomial.

    Each coefficient of exponent gamma is split equally across all ordered
    pairs (alpha, beta) of half-degree exponents with alpha + beta = gamma.
    The result G satisfies gram_to_poly(G) == p up to zero padding.
    """
    _require_monomial(p.basis, "poly_to_gram")
    delta = half_degree(p.degree)
    basis_half = make_basis(p.dimension, delta, "monomial")
    idx = basis_half.indices
    s = len(basis_half)

    pair_slots: dict[MultiIndex, list[tuple[int, int]]] = {}
    for i in range(s):
        for j in range(s):
            gamma = tuple(a + b for a, b in zip(idx[i], idx[j]))
            pair_slots.setdefault(gamma, []).append((i, j))

    G = np.zeros((s, s))
    pos = p.basis.index_position
    for gamma, slots in pair_slots.items():
        c = p.coeffs[pos[gamma]] if gamma in pos else 0.0
        if c == 0.0:
            continue
        share = c / len(slots)
        for i, j in slots:
            G[i, j] += share
    return G


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
