"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: quadrature instead of closed forms,
brute-force vertex enumeration instead of simplex, breadth-first flood fill
instead of library labeling. Slow is fine; these only see tiny inputs.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np
import scipy.integrate
import scipy.optimize

# Chebyshev polynomials of the first kind as monomial coefficient rows,
# constant term first: T_0 .. T_10.
CHEBYSHEV_MONOMIAL_ROWS = [
    [1],
    [0, 1],
    [-1, 0, 2],
    [0, -3, 0, 4],
    [1, 0, -8, 0, 8],
    [0, 5, 0, -20, 0, 16],
    [-1, 0, 18, 0, -48, 0, 32],
    [0, -7, 0, 56, 0, -112, 0, 64],
    [1, 0, -32, 0, 160, 0, -256, 0, 128],
    [0, 9, 0, -120, 0, 432, 0, -576, 0, 256],
    [-1, 0, 50, 0, -400, 0, 1120, 0, -1280, 0, 512],
]


def chebyshev_tensor_value(alpha, point, box_lower, box_upper) -> float:
    """Product over axes of T_alpha_i at the affinely mapped coordinate."""
    value = 1.0
    for k, x, lo, up in zip(alpha, point, box_lower, box_upper):
        t = (2.0 * x - (lo + up)) / (up - lo)
        acc = 0.0
        for power, coeff in enumerate(CHEBYSHEV_MONOMIAL_ROWS[k]):
            acc += coeff * t**power
        value *= acc
    return value


def quad_monomial_moment(lower, upper, alpha) -> float:
    """Adaptive quadrature of the monomial x^alpha over the box, axis by axis.

    The integrand factorizes, so one quad call per axis reaches near machine
    precision without the cost of a full n-dimensional rule.
    """
    value = 1.0
    for lo, up, a in zip(lower, upper, alpha):
        part, _ = scipy.integrate.quad(
            lambda t, a=a: t**a, lo, up, epsabs=1e-14, epsrel=1e-14
        )
        value *= part
    return value


def dblquad_monomial_moment(lower, upper, alpha) -> float:
    """Genuinely two-dimensional adaptive quadrature of x^a y^b."""
    a, b = alpha
    value, _ = scipy.integrate.dblquad(
        lambda y, x: x**a * y**b,
        lower[0],
        upper[0],
        lower[1],
        upper[1],
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return value


def quad_chebyshev_moment(lower, upper, alpha) -> float:
    """Axis-by-axis adaptive quadrature of the tensor Chebyshev element."""
    value = 1.0
    for lo, up, k in zip(lower, upper, alpha):

        def integrand(x, k=k, lo=lo, up=up):
            t = (2.0 * x - (lo + up)) / (up - lo)
            return sum(
                c * t**p for p, c in enumerate(CHEBYSHEV_MONOMIAL_ROWS[k])
            )

        part, _ = scipy.integrate.quad(integrand, lo, up, epsabs=1e-14, epsrel=1e-14)
        value *= part
    return value


def bfs_component_count(mask: np.ndarray) -> int:
    """Connected components of a boolean grid under face adjacency."""
    mask = np.asarray(mask, dtype=bool)
    shape = mask.shape
    seen = np.zeros(shape, dtype=bool)
    count = 0
    for start in zip(*np.nonzero(mask)):
        if seen[start]:
            continue
        count += 1
        queue = deque([start])
        seen[start] = True
        while queue:
            cell = queue.popleft()
            for axis in range(len(shape)):
                for step in (-1, 1):
                    neighbor = list(cell)
                    neighbor[axis] += step
                    if not 0 <= neighbor[axis] < shape[axis]:
                        continue
                    neighbor = tuple(neighbor)
                    if mask[neighbor] and not seen[neighbor]:
                        seen[neighbor] = True
                        queue.append(neighbor)
    return count


def vertex_enumeration_minimum(c, A, b, feas_tol=1e-9):
    """Minimum of c.v over {A v >= b} by enumerating basic solutions.

    Assumes the problem is feasible, bounded and A has full column rank, so
    the optimum sits at a vertex defined by n active rows. Returns the best
    objective or None when no feasible vertex exists.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    best = None
    for rows in itertools.combinations(range(m), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        vertex = np.linalg.solve(sub, b[list(rows)])
        if np.min(A @ vertex - b) < -feas_tol * scale:
            continue
        value = float(c @ vertex)
        if best is None or value < best:
            best = value
    return best


def cone_membership_residual(c, A):
    """Distance of c from the cone of the rows of A (NNLS residual).

    Zero residual certifies dual feasibility of min c.v s.t. A v >= b,
    which for a feasible problem means the objective is bounded below.
    """
    _, residual = scipy.optimize.nnls(np.asarray(A, dtype=float).T, np.asarray(c, dtype=float))
    return float(residual)


def read_mps(text: str):
    """Tokenizing reader for the subset of MPS the package writes.

    Returns (c, A, b, row_names, col_names) with rows in ROWS-section order
    and columns in COLUMNS-section first-appearance order.
    """
    section = None
    row_order: list[str] = []
    row_sense: dict[str, str] = {}
    col_order: list[str] = []
    entries: dict[tuple[str, str], float] = {}
    rhs: dict[str, float] = {}
    objective: dict[str, float] = {}
    free_cols: set[str] = set()
    minimize = None

    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        head = not raw.startswith((" ", "\t"))
        tokens = raw.split()
        if head:
            section = tokens[0]
            continue
        if section == "OBJSENSE":
            minimize = tokens[0] == "MIN"
        elif section == "ROWS":
            sense, name = tokens
            if sense == "N":
                continue
            row_sense[name] = sense
            row_order.append(name)
        elif section == "COLUMNS":
            col, row, value = tokens
            if col not in col_order:
                col_order.append(col)
            if row == "OBJ":
                objective[col] = float(value)
            else:
                entries[(row, col)] = float(value)
        elif section == "RHS":
            _, row, value = tokens
            rhs[row] = float(value)
        elif section == "BOUNDS":
            kind, _, col = tokens
            if kind == "FR":
                free_cols.add(col)

    assert minimize is True, "expected a minimization objective"
    assert all(sense == "G" for sense in row_sense.values())
    assert free_cols == set(col_order), "expected all variables free"

    c = np.array([objective.get(col, 0.0) for col in col_order])
    A = np.array(
        [[entries.get((row, col), 0.0) for col in col_order] for row in row_order]
    )
    b = np.array([rhs.get(row, 0.0) for row in row_order])
    return c, A, b, row_order, col_order


def horner_eval(coeffs_by_power, x: float) -> float:
    """1-D polynomial evaluation, constant term first."""
    acc = 0.0
    for coeff in reversed(list(coeffs_by_power)):
        acc = acc * x + coeff
    return acc


def gram_to_coeffs_by_pairs(P, half_indices, full_indices) -> np.ndarray:
    """pi^T P pi collected over the exponents full_indices: every ordered
    pair (i, j) visited in row-major order, P[i, j] added at the position of
    alpha_i + alpha_j."""
    pos = {gamma: k for k, gamma in enumerate(full_indices)}
    coeffs = np.zeros(len(full_indices))
    for i, ai in enumerate(half_indices):
        for j, aj in enumerate(half_indices):
            coeffs[pos[tuple(a + b for a, b in zip(ai, aj))]] += P[i, j]
    return coeffs


def gram_by_pairs(coeffs, indices, half_indices) -> np.ndarray:
    """The Gram matrix over half_indices that splits each coefficient of
    exponent gamma (indices[k] for coeffs[k]) equally across the ordered
    pairs (i, j) with alpha_i + alpha_j = gamma; pairs whose gamma has a
    zero or no coefficient stay +0.0."""
    slots: dict = {}
    for i, ai in enumerate(half_indices):
        for j, aj in enumerate(half_indices):
            slots.setdefault(tuple(a + b for a, b in zip(ai, aj)), []).append((i, j))
    pos = {alpha: k for k, alpha in enumerate(indices)}
    G = np.zeros((len(half_indices), len(half_indices)))
    for gamma, pairs in slots.items():
        c = coeffs[pos[gamma]] if gamma in pos else 0.0
        if c == 0.0:
            continue
        share = c / len(pairs)
        for i, j in pairs:
            G[i, j] += share
    return G


def mc_integral(values: np.ndarray, box_volume: float):
    """Sample-mean integral estimate with its standard error."""
    mean = float(np.mean(values))
    sem = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return box_volume * mean, box_volume * sem


def stratified_mc_points(box, cells, state, samples, seed, chunk=1 << 18):
    """The points mc_volume draws, in chunks: with C = cells per axis and U
    cells of state 0, N = ceil(samples * U / C^n) rows of n + 1 Philox
    draws (n when U = 1), column 0 picking the open cell, the rest placing
    the point at (corner + u) / C, mapped onto the box as lower + u * widths.
    cells = 1 with state [0] gives plain uniform samples of the box."""
    n = box.dimension
    open_cells = np.flatnonzero(np.asarray(state).ravel() == 0)
    undecided = len(open_cells)
    drawn = -(-samples * undecided // cells**n)
    pick = 1 if undecided > 1 else 0
    rng = np.random.Generator(np.random.Philox(seed))
    for start in range(0, drawn, chunk):
        rows = rng.random((min(chunk, drawn - start), n + pick))
        index = np.floor(rows[:, 0] * undecided).astype(np.int64) if pick else 0
        assert np.all(index < undecided), "a pick past the last open cell"
        cell = open_cells[index] * np.ones(len(rows), dtype=np.int64)
        corner = np.empty((len(rows), n))
        for axis in reversed(range(n)):  # the last axis varies fastest
            corner[:, axis] = cell % cells
            cell = cell // cells
        yield box.lower_array + (corner + rows[:, pick:]) / cells * box.widths


def stratified_mc_volume(p, box, cells, state, samples, seed):
    """mc_volume's estimate and standard error, p evaluated at every point
    stratified_mc_points draws: vol(B) * (I + U * h/N) / C^n for h hits
    among N points, I cells of state 1 and U of state 0, and standard error
    vol(B) * (U / C^n) * sqrt(q(1-q)/N) with q = h/N.  cells = 1 with
    state [0] is the plain estimate of evaluating every sample.  Returns
    (estimate, standard error, N)."""
    from polycover import eval_poly_many

    total = cells**box.dimension
    state = np.asarray(state).ravel()
    inside, undecided = int(np.sum(state == 1)), int(np.sum(state == 0))
    hits = drawn = 0
    for points in stratified_mc_points(box, cells, state, samples, seed):
        hits += int(np.count_nonzero(eval_poly_many(p, points) >= 1.0))
        drawn += len(points)
    if drawn == 0:
        return box.volume * inside / total, 0.0, 0
    q = hits / drawn
    estimate = box.volume * (inside + undecided * q) / total
    stderr = box.volume * (undecided / total) * math.sqrt(q * (1.0 - q) / drawn)
    return estimate, stderr, drawn
