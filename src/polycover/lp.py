"""Dense linear programs of the form  min c.v  subject to  A v >= b,  v free.

The row count m (cloud points plus grid points) dwarfs the column count k
(basis coefficients), so the solver runs the revised primal simplex method on
the dual problem

    min (-b).lam   subject to   A^T lam = c,   lam >= 0,

whose basis matrices stay k x k.  Phase 2 starts from the caller's start
basis if it is k distinct rows with a feasible basis solve.  Else a crash
solves A^T lam = c, lam >= 0 as nonnegative least squares (Lawson-Hanson) on
rows that it grows from phase 2's start rows, however few; if that yields a
feasible basis of k rows within MAX_ITERS steps, phase 2 starts there.  When
c = 0 the basis of artificial columns, one per equality row, is feasible and
phase 2 starts there.  Otherwise phase 1 starts from the artificials; those
left over at zero level are pinned there during phase 2.  Pricing uses Devex
reference weights (Harris 1973) with smallest-index tie breaking; the weights
are 1 when a phase starts and when a row joins the working set, and all
return to 1 when one passes 1e6.
Phase 1 prices every row.  Phase 2 prices a working set of rows (b != 0
and the rows of its start basis, plus every 64th zero-rhs row unless the
caller's start basis was taken); when it prices out, one pricing over
every row adds the 4k most violated rows (k columns).
A new primal row is a new dual column, so the basis stays feasible, and a
row that never enters gets dual 0.  Rows are solved as given, in the
caller's order.  The basis matrix is updated one column per pivot.  Solves
use the LU factors (LAPACK getrf) of the basis B0 at the last
refactorization and a dense eta product M with B^-1 = M B0^-1, updated by
one rank-1 term per pivot; B is refactored and M reset at each phase start,
every REFACTOR_EVERY pivots and before a phase ends, and at every pivot of
phase 1 or when k < UPDATE_MIN_K.  A pivot solves with B twice, for B^-1 a_q
and B^-T e_p; the basic values and multipliers are solved after a getrf and
else follow from those two.  Extended-precision refinement runs when a
phase is about to finish; a phase ends only when a pricing over every row
at the refined multipliers finds no entering row.  A run fails when it
reaches MAX_ITERS pivots.  Only the crash sees coordinates: v = T u keeps x_B,
reduced costs, Devex ratios, B^-1 a_q and so every optimal basis (a row set).

The engine sees the rows through a row source (DenseRows, StackedRows, or
any object with their methods): dense rows by index, products of every row
with one or two vectors, and the rounding bound and extremes that the
certificates need.  An LpProblem holds its rows as a source, a dense A or
any other, and solve reads them through it alone, so a problem whose rows
have structure, such as a basis evaluated on a tensor grid, is solved
without the full matrix.  The engine turns into dense rows only its
working sets, its basis and the certificate's candidate rows.

Outcomes carry certificates.  Optimal solutions return row duals and are
rechecked for feasibility (to FEAS_TOL), duality gap and stationarity (to
OPT_TOL), first at the engine's vertex and, if that fails, at the vertex of
its final basis solved in extended precision.  Unbounded problems return a
feasible point plus a ray along which the objective decreases forever.
Inconsistent constraints surface as solver_failure with an explanatory
message, since callers only distinguish the three listed statuses.  Every
outcome, failures included, reports the pivots made and its SolveStats.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np
import scipy.linalg

LpStatus = Literal["optimal", "unbounded", "solver_failure"]

_log = logging.getLogger("polycover")

_ROW_PREFIXES = {"K": "K", "grid": "G", "bound": "B"}


# The solve contract, read when a solve runs: pivots per simplex run, the
# feasibility tolerance relative to 1 + |b|_inf and the duality-gap
# tolerance relative to 1 + |c.v|.
MAX_ITERS = 20_000
FEAS_TOL = 1e-9
OPT_TOL = 1e-8


class LpProblem:
    """min c.v subject to A v >= b, all v free.

    The rows of A come as a row source, rows (see DenseRows), or as a dense
    A, which is checked for shape and finite entries and held as
    DenseRows(A).  problem.rows is the row source either way; problem.A is
    the dense matrix: a DenseRows' own, else built on first access, each of
    the source's blocks written straight into it.

    row_kinds tags each row with its provenance ("K", "grid", "bound", ...)
    for export naming and diagnostics; it has no effect on the solution.
    """

    def __init__(self, c, A=None, b=None, row_kinds=(), *, rows=None):
        if (A is None) == (rows is None) or b is None:
            raise TypeError("LpProblem takes c, b and exactly one of A and rows")
        c = np.asarray(c, dtype=float).reshape(-1)
        b = np.asarray(b, dtype=float).reshape(-1)
        if c.size < 1:
            raise ValueError("objective must have at least one coefficient")
        if rows is None:
            A = np.asarray(A, dtype=float)
            if A.ndim != 2:
                raise ValueError("constraint matrix must be two dimensional")
            rows = DenseRows(A)
        if rows.shape != (b.size, c.size):
            raise ValueError(
                f"shape mismatch: A is {rows.shape}, expected ({b.size}, {c.size})"
            )
        for name, arr in (("c", c), ("A", A), ("b", b)):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        kinds = tuple(row_kinds) if row_kinds else ("row",) * b.size
        if len(kinds) != b.size:
            raise ValueError("row_kinds length does not match the row count")
        self.c, self.b, self.rows, self.row_kinds = c, b, rows, kinds
        self._A = rows.A if isinstance(rows, DenseRows) else None

    @property
    def A(self) -> np.ndarray:
        if self._A is None:
            self._A = self.rows.take(np.arange(self.num_rows))
        return self._A

    @property
    def num_rows(self) -> int:
        return self.b.size

    @property
    def num_cols(self) -> int:
        return self.c.size


def _product(rows: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """rows @ Y for a (k, 2) Y, in blocks of 4096 rows past 4096 rows: BLAS
    is slow on tall (n, 2) products.  Each block is one matmul, bits and all."""
    if rows.shape[0] <= 4096:
        return rows @ Y
    out = np.empty((rows.shape[0], Y.shape[1]))
    for i in range(0, rows.shape[0], 4096):
        np.matmul(rows[i : i + 4096], Y, out=out[i : i + 4096])
    return out


def _gamma(n: int) -> float:
    """2 gamma_n, gamma_n = n u / (1 - n u): Higham's bound for a dot product
    of length n, doubled to cover the rounding of the bound itself and of
    the extended-precision recheck."""
    u = np.finfo(float).eps / 2
    return 2.0 * n * u / (1.0 - n * u)


def _norm(x: np.ndarray) -> float:
    """|x|_2, by hypot where the plain sum of squares overflows."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    return norm if math.isfinite(norm) else float(np.hypot.reduce(x))


class DenseRows:
    """A row source that holds every row of A.

    A row source offers shape (m, k); take(idx, out=None), the dense rows
    idx, written into out when it is given; price(Y), A Y for a vector or a
    (k, 2) matrix Y, in an array of its own that the caller may overwrite;
    error(b, v), a bound e with
    |fl(b - price(v)) - (b - A v)| <= e / 2 row by row, evaluated in float64
    (the half left over covers e's own rounding and the extended-precision
    recheck); and max_abs(), max |A_ij|.
    """

    def __init__(self, A: np.ndarray):
        self.A = A
        self.shape = A.shape

    def take(self, idx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # mode="clip" lets take write straight into out; no index is out of range
        return np.take(self.A, idx, axis=0, out=out, mode="clip")

    def price(self, Y: np.ndarray) -> np.ndarray:
        return self.A @ Y if Y.ndim == 1 else _product(self.A, Y)

    def error(self, b: np.ndarray, v: np.ndarray) -> np.ndarray:
        """2 gamma_{k+2} (|b| + |A| |v|), plus the underflow of the k + 2
        products, with |A| taken one block at a time."""
        n = v.size + 2
        e = np.abs(b)
        for start in range(0, self.A.shape[0], 4096):
            e[start : start + 4096] += np.abs(self.A[start : start + 4096]) @ np.abs(v)
        return _gamma(n) * e + n * np.finfo(float).smallest_subnormal

    def max_abs(self) -> float:
        return max(float(self.A.max(initial=0.0)), -float(self.A.min(initial=0.0)))


class StackedRows:
    """The rows of several row sources of equal width, one under the other."""

    def __init__(self, parts: list):
        self.parts = parts
        self.offsets = np.cumsum([0] + [part.shape[0] for part in parts])
        self.shape = (int(self.offsets[-1]), parts[0].shape[1])

    def take(self, idx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Each part's rows in place where they form one run of out's rows,
        as when every row is taken; copied into out where they do not."""
        out = np.empty((idx.size, self.shape[1])) if out is None else out
        owner = self.offsets.searchsorted(idx, side="right") - 1
        for j, part in enumerate(self.parts):
            mine = np.flatnonzero(owner == j)
            if mine.size == 0:
                continue
            lo, hi = mine[0], mine[-1] + 1
            if hi - lo == mine.size:
                part.take(idx[lo:hi] - self.offsets[j], out=out[lo:hi])
            else:
                out[mine] = part.take(idx[mine] - self.offsets[j])
        return out

    def price(self, Y: np.ndarray) -> np.ndarray:
        return np.concatenate([part.price(Y) for part in self.parts])

    def error(self, b: np.ndarray, v: np.ndarray) -> np.ndarray:
        bounds = zip(self.parts, self.offsets, self.offsets[1:])
        return np.concatenate([part.error(b[lo:hi], v) for part, lo, hi in bounds])

    def max_abs(self) -> float:
        return max(part.max_abs() for part in self.parts)


@dataclass
class SolveStats:
    """Work counters of one solve, summed over its simplex runs.

    crash_rows and work_rows list the size of the crash's candidate set and
    of phase 2's working set when each starts and after each growth
    (crash_rows is empty only when a start basis is taken or c = 0, as in
    the feasibility probe, where no crash is tried; phase 2 starts on its
    start basis and b != 0, plus every 64th zero-rhs row unless the caller's
    start basis was taken); start_basis and crash_basis say whether the
    caller's start basis or the crash basis was taken, so that phase 1 did
    not run.  crash_steps counts the crash's QR inserts and deletes.
    full_pricings counts passes over every row: one per phase-1 pivot and
    one per attempt to grow either set.
    pricing_s is the time spent pricing, factorizations the LU
    factorizations of a basis matrix, factor_updates the pivots folded into
    the eta product instead, basis_solves the solves with LU factors,
    devex_resets the times the Devex weights returned to 1 after one passed
    DEVEX_CAP.  rows_built counts the rows the engine took from its row
    source as dense rows; a row kept from one dense working set to the next
    is counted once (phase 1's set is every row, so phase 2's start rows are
    taken again).  stationarity_defect is that of the last vertex checked.
    """

    phase1_pivots: int = 0
    phase2_pivots: int = 0
    work_rows: list[int] = field(default_factory=list)
    full_pricings: int = 0
    pricing_s: float = 0.0
    factorizations: int = 0
    factor_updates: int = 0
    basis_solves: int = 0
    refined_solves: int = 0
    devex_resets: int = 0
    vertex_ext: bool = False
    crash_rows: list[int] = field(default_factory=list)
    crash_steps: int = 0
    crash_basis: bool = False
    start_basis: bool = False
    rows_built: int = 0
    stationarity_defect: float = 0.0


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    v: np.ndarray | None
    objective: float
    max_infeasibility: float
    iterations: int
    ray: np.ndarray | None = None
    duals: np.ndarray | None = None
    message: str = ""
    stats: SolveStats = field(default_factory=SolveStats)
    basis: np.ndarray | None = None  # when optimal, the final basis's real rows, sorted


class _EngineFailure(Exception):
    pass


@dataclass
class _Outcome:
    kind: str  # "optimal" | "dual_infeasible" | "dual_unbounded"
    y: np.ndarray | None = None
    lam: np.ndarray | None = None
    levels: np.ndarray = field(default_factory=lambda: np.zeros(0))
    clipped: np.ndarray = field(default_factory=lambda: np.zeros(0))


class _DualSimplex:
    """Two-phase revised simplex on min f.lam s.t. sum lam_j row_j = rhs;
    phase 1 runs only when _crash finds no feasible basis, and
    phase 2 prices a working set of rows, sorted by index, and grows it; a
    start basis from the caller stands in for self.start's stride sample.
    Both phases price by Devex weights kept aligned with the working set.
    The rows come from a row source; a working set of fewer than every row
    keeps its rows dense, and the rows of the current such set are reused
    before any is taken from the source again."""

    START_STRIDE = 64  # every 64th zero-cost row starts the crash's and a cold phase 2's set
    GROWTH = 4  # one growth adds at most GROWTH * k rows
    DEVEX_CAP = 1e6  # a weight above it returns every weight to 1
    REFACTOR_EVERY = 64  # a fresh getrf at least every 64 pivots
    UPDATE_MIN_K = 48  # below it every pivot refactors: getrf is as cheap as an update

    def __init__(self, rows, rhs: np.ndarray, f: np.ndarray, stats: SolveStats, warm=None):
        self.source = rows  # a row source of shape (m, k); dual column j is row j
        self.warm = warm  # the caller's start basis rows, or None
        self.rhs = rhs
        self.f = f
        self.stats = stats
        self.m, self.k = self.source.shape
        self.sigma = np.where(rhs >= 0.0, 1.0, -1.0)
        self.basis = np.arange(self.m, self.m + self.k)
        self.artificials = self.k  # basic artificial columns
        self.iterations = 0
        self.phase1_tol = FEAS_TOL * (1.0 + float(np.sum(np.abs(rhs))))
        self.unit = np.eye(self.k)  # e_p for the pivot rows of the Devex update
        self.getrf, self.getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (self.unit,))
        self.trtrs = scipy.linalg.get_lapack_funcs("trtrs", (self.unit,))
        self.ger = scipy.linalg.get_blas_funcs("ger", (self.unit,))
        self.work_rows = self.source  # no dense working set yet
        # M with B^-1 = M B0^-1, B0 factored in lu; Fortran order lets ger update it in place
        self.eta = np.empty((self.k, self.k), order="F")
        self.etas = 0  # eta updates folded into M since the last getrf; 0 means M = I
        self.y_rho = np.zeros((self.k, 2))  # [y, rho], rho = B^-T e_p of the last pivot
        self.pending = None  # (alpha_q, w_q, leaving row's working-set position) of the last pivot
        zero = np.flatnonzero(f == 0.0)  # the start rows of the crash and of a cold phase 2
        self.start = np.union1d(np.flatnonzero(f != 0.0), zero[:: self.START_STRIDE])

    def _rows(self, idx: np.ndarray) -> np.ndarray:
        """Dense rows idx: copied where the dense working set holds them,
        taken from the source (and counted) where it does not or is every row."""
        if self.work_rows is self.source:
            self.stats.rows_built += idx.size
            return self.source.take(idx)
        pos = np.minimum(self.work.searchsorted(idx), self.work.size - 1)
        missing = self.work[pos] != idx
        # mode="clip" lets take write straight into out, with no temporary
        out = np.take(self.work_rows.A, pos, axis=0, out=np.empty((idx.size, self.k)), mode="clip")
        if missing.any():
            self.stats.rows_built += int(np.count_nonzero(missing))
            out[missing] = self.source.take(idx[missing])
        return out

    def _work_row(self, pos: int) -> np.ndarray:
        """Row work[pos]: a dense working row, or taken from the source
        (and counted) when the working set is every row."""
        if self.work_rows is self.source:
            self.stats.rows_built += 1
            return self.source.take(self.work[pos : pos + 1])[0]
        return self.work_rows.A[pos]

    def _basis_matrix(self) -> np.ndarray:
        """Columns row j for basic j < m; sigma_i e_i for artificial m + i."""
        real = self.basis < self.m
        art = self.basis[~real] - self.m
        B = np.zeros((self.k, self.k))
        B[:, real] = self._rows(self.basis[real]).T
        B[art, np.flatnonzero(~real)] = self.sigma[art]
        return B

    def _factor(self) -> None:
        """Fresh LU factors of B (LAPACK getrf); M returns to the identity."""
        self.lu = self.getrf(self.B)[:2]
        self.etas = 0
        self.stats.factorizations += 1

    def _update(self, d: np.ndarray, p: int, phase: int) -> bool:
        """Account for a pivot whose entering column a has d = B^-1 a and
        replaced position p: B_new^-1 = (I - (d - e_p) e_p^T / d_p) B^-1.
        Refactors instead every REFACTOR_EVERY pivots, at small k and in
        phase 1, which prices every row per pivot: there a getrf costs
        little beside pricing, and eta updates changed its degenerate paths
        from the artificials, on the 3-D Chebyshev degree-8 LP (k = 165)
        from 1901 to 3660 pivots.  Returns whether the pivot went into M."""
        if phase == 1 or self.k < self.UPDATE_MIN_K or self.etas + 1 >= self.REFACTOR_EVERY:
            self._factor()
            return False
        if self.etas == 0:
            self.eta[:] = self.unit
        self.ger(-1.0, (d - self.unit[p]) / d[p], self.eta[p].copy(), a=self.eta, overwrite_a=True)
        self.etas += 1
        self.stats.factor_updates += 1
        return True

    def _apply(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        """B^-1 rhs as M B0^-1 rhs, or B0^-T rhs with trans: B^-T rhs when
        M = I, as at every solve for y, and B^-T e_p for rhs = M^T e_p."""
        self.stats.basis_solves += 1
        x = self.getrs(*self.lu, rhs, trans=trans)[0]
        return self.eta @ x if self.etas and not trans else x

    def _solve(self, rhs: np.ndarray, trans: int, refine: bool) -> np.ndarray:
        """Solve with the factors of B; with refine, plus iterative
        refinement on extended-precision residuals.  Power-basis columns make
        simplex bases Vandermonde-like and badly conditioned at high degree;
        refinement recovers close to full double accuracy as long as the
        basis is numerically nonsingular."""
        x = self._apply(rhs, trans)
        if not np.isfinite(x).all():
            raise _EngineFailure("singular basis matrix")
        if not refine:
            return x
        self.stats.refined_solves += 1
        scale = float(np.max(np.abs(rhs), initial=0.0)) + 1.0
        for _ in range(3):
            residual = _residuals_ext(self.B.T if trans else self.B, rhs, x)
            if float(np.max(np.abs(residual), initial=0.0)) <= 1e-15 * scale:
                break
            delta = self._apply(residual, trans)
            if not np.all(np.isfinite(delta)):
                break
            x = x + delta
        return x

    def _set_work(self, work: np.ndarray, cost_real: np.ndarray) -> None:
        """Price the rows `work`, sorted by index, from now on through the
        row source work_rows: their dense rows, or the source itself when
        they are every row; _rows copies them from the old set."""
        whole = work.size == self.m
        self.work_rows = self.source if whole else DenseRows(self._rows(work))
        self.work = work
        self.work_cost = cost_real if whole else cost_real[work]
        self.work_basic = np.isin(work, self.basis)
        self.weights = np.ones(work.size)

    def _price(self, cost_real: np.ndarray, y: np.ndarray, price_tol: float) -> int:
        """Devex pricing over the working set, grown when it prices out: the
        set position of the row of largest r^2 / w with reduced cost r <
        -price_tol, or -1.  The same pass gives the last pivot's pivot row."""
        start = time.perf_counter()
        whole = self.work.size == self.m
        if whole:
            self.stats.full_pricings += 1
        self.y_rho[:, 0] = y
        product = self.work_rows.price(self.y_rho)
        reduced = self.work_cost - product[:, 0]
        if self.pending is not None:
            self._update_weights(product[:, 1])
        reduced[self.work_basic] = math.inf
        candidates = (reduced < -price_tol).nonzero()[0]
        pos = -1
        if candidates.size:
            score = reduced[candidates] ** 2 / self.weights[candidates]
            pos = int(candidates[score.argmax()])
        elif not whole:
            pos = self._grow(cost_real, y, price_tol, self.stats.work_rows)
        self.stats.pricing_s += time.perf_counter() - start
        return pos

    def _update_weights(self, alpha: np.ndarray) -> None:
        """Devex update from alpha, the pivot row of the last pivot."""
        alpha_q, w_q, leaving = self.pending  # leaving: -1 for an artificial
        self.pending = None
        ratio = alpha / alpha_q
        ratio *= ratio
        ratio *= w_q
        np.maximum(self.weights, ratio, out=self.weights)
        if leaving >= 0:
            self.weights[leaving] = min(max(w_q / alpha_q**2, 1.0), self.DEVEX_CAP)
        if self.weights.max() > self.DEVEX_CAP:
            self.weights[:] = 1.0
            self.stats.devex_resets += 1

    def _grow(self, cost_real: np.ndarray, y: np.ndarray, price_tol: float, sizes: list) -> int:
        """Price every row; add the GROWTH * k most violated rows outside the
        working set to it, append its size to sizes and return the position
        in the set of the entering row among the new rows, or -1."""
        self.stats.full_pricings += 1
        reduced = self.source.price(y)
        np.subtract(cost_real, reduced, out=reduced)
        reduced[self.work] = math.inf
        new = np.flatnonzero(reduced < -price_tol)
        if new.size == 0:
            return -1
        cap = self.GROWTH * self.k
        if new.size > cap:
            new = np.sort(new[np.argpartition(reduced[new], cap - 1)[:cap]])
        entering = int(new[np.argmin(reduced[new])])
        del reduced  # an m-vector; the new working rows need the room
        old, weights = self.work, self.weights
        self._set_work(np.union1d(self.work, new), cost_real)
        self.weights[self.work.searchsorted(old)] = weights
        sizes.append(self.work.size)
        return int(self.work.searchsorted(entering))

    def _ratio_test(self, d: np.ndarray, x_basic: np.ndarray, phase: int) -> int:
        """Position of the leaving basic variable, or -1 if d has no positive
        entry; a non-finite d, from a singular basis matrix, fails the run."""
        peak = float(np.abs(d).max())
        if not math.isfinite(peak):
            raise _EngineFailure("singular basis matrix")
        piv_tol = 1e-10 * max(1.0, peak)
        if phase == 2 and self.artificials:
            # An artificial must never leave zero; pivot it out first.
            art = np.flatnonzero((self.basis >= self.m) & (np.abs(d) > piv_tol))
            if art.size:
                return int(art[self.basis[art].argmin()])
        positive = (d > piv_tol).nonzero()[0]
        if positive.size == 0:
            return -1
        ratios = np.maximum(x_basic[positive], 0.0) / d[positive]
        tie = positive[ratios <= float(ratios.min()) * (1.0 + 1e-9) + 1e-300]
        return int(tie[0] if tie.size == 1 else tie[self.basis[tie].argmin()])

    def _take(self, rows: np.ndarray) -> str:
        """Make the rows, sorted, the basis if B x = rhs gives x >=
        -phase1_tol; returns "" if so, else why not."""
        basis = np.sort(rows)
        self.B = self._rows(basis).T
        self._factor()
        x = self._apply(self.rhs, 0)
        if not np.all(x >= -self.phase1_tol):
            return f"basis solve gives x_min {float(np.min(x)):.3e}"
        self.basis, self.artificials = basis, 0
        return ""

    def _crash(self) -> bool:
        """Find a feasible basis of real rows by NNLS in place of phase 1;
        returns whether phase 1 can be skipped.

        Lawson-Hanson NNLS for sum lam_j rows_j = rhs, lam >= 0 on a working
        set of the start rows, with QR factors of the passive rows updated a
        column at a time, for at most MAX_ITERS steps.  Where it stops at a
        residual r != 0, _grow adds the rows with the largest gradient
        rows @ r > 0, so the start set needs no minimum size.  The basis is
        taken if it has k rows and _take accepts them.
        """
        if not np.any(self.rhs):
            return True  # rhs = 0: the artificial basis is feasible
        zero = np.zeros(self.m)
        self._set_work(self.start, zero)
        self.stats.crash_rows.append(self.start.size)
        passive: list[int] = []  # the rows in the column order of Q R
        Q, R = np.eye(self.k), np.zeros((self.k, 0))
        x = np.zeros(0)
        tol = 1e-13 * (_norm(self.rhs) * self.work_rows.max_abs())
        reason, growths = "step limit", 0
        for _ in range(MAX_ITERS):
            p, r = len(passive), self.rhs
            if p:
                qtc = Q.T @ self.rhs
                z = self.trtrs(R[:p, :p], qtc[:p])[0]
                if z.min() <= 0.0:
                    if x[-1] == 0.0 and z[-1] <= 0.0:
                        reason = "a row with positive gradient did not enter"
                        break
                    # step toward z until passive rows reach zero; drop them
                    neg = np.flatnonzero(z <= 0.0)
                    ratios = x[neg] / (x[neg] - z[neg])
                    x += ratios.min() * (z - x)
                    x[neg[ratios <= ratios.min()]] = 0.0
                    for j in np.flatnonzero(x <= 0.0)[::-1]:
                        Q, R = scipy.linalg.qr_delete(Q, R, j, 1, "col", check_finite=False)
                        passive.pop(j)
                        self.stats.crash_steps += 1
                    x = x[x > 0.0]
                    continue
                x = z
                if p == self.k:
                    reason = ""
                    break
                r = Q[:, p:] @ qtc[p:]
            grad = self.work_rows.price(r)
            grad[self.work.searchsorted(passive)] = -math.inf
            pos = int(np.argmax(grad))
            if grad[pos] > tol:
                row = int(self.work[pos])
                column = self._work_row(pos)
                Q, R = scipy.linalg.qr_insert(Q, R, column, p, "col", check_finite=False)
                passive.append(row)
                self.stats.crash_steps += 1
                x = np.append(x, 0.0)
            elif self._grow(zero, r, tol, self.stats.crash_rows) >= 0:
                growths += 1
            else:
                reason = f"residual {_norm(r):.3e} on {p} rows"
                break
        if not reason:
            reason = self._take(np.array(passive))
        verdict = f"declined ({reason})" if reason else "taken"
        _log.debug("crash %s: %d rows, %d growths", verdict, self.work.size, growths)
        self.stats.crash_basis = not reason
        return self.stats.crash_basis

    def _run_phase(self, phase: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Iterate until the phase objective is optimal; returns (x_B, y, obj),
        solved with refinement and priced once more over every row before
        the phase ends.  x_B = B^-1 rhs and y = B^-T c_B are solved after a
        getrf; after a pivot folded into M they follow from its d and rho:
        x_B -= theta d, x_B[p] = theta = x_B[p] / d_p; y += r_q / d_p rho."""
        # costs of the real columns, then of the artificials
        if phase == 1:
            cost = np.concatenate([np.zeros(self.m), np.ones(self.k)])
            work = np.arange(self.m)
        else:
            cost = np.concatenate([self.f, np.zeros(self.k)])
            rows = np.flatnonzero(self.f != 0.0) if self.stats.start_basis else self.start
            work = np.union1d(rows, self.basis[self.basis < self.m])
            self.stats.work_rows.append(work.size)
        cost_real = cost[: self.m]
        self._set_work(work, cost_real)
        self.pending = None
        price_tol = 1e-9 * (1.0 + float(np.max(np.abs(cost_real), initial=0.0)))
        self.B = self._basis_matrix()
        pivots, pricings = self.iterations, self.stats.full_pricings
        resets, solves = self.stats.devex_resets, self.stats.basis_solves
        factors, updates = self.stats.factorizations, self.stats.factor_updates
        self._factor()
        refine, fresh = False, True  # fresh: solve for x_B and y, not carry them

        while True:
            if fresh:
                x_basic = self._solve(self.rhs, 0, refine)
                y = self._solve(cost[self.basis], 1, refine)

            pos = -1  # the entering row's position in the working set
            if phase == 2 or float(cost[self.basis] @ x_basic) > self.phase1_tol:
                pos = self._price(cost_real, y, price_tol)
            if pos < 0:
                if refine:
                    _log.debug(
                        "phase %d ended: %d pivots, %d working rows, %d full pricings, "
                        "%d factorizations, %d factor updates, %d basis solves, "
                        "%d devex resets", phase,
                        self.iterations - pivots, self.work.size,
                        self.stats.full_pricings - pricings,
                        self.stats.factorizations - factors,
                        self.stats.factor_updates - updates,
                        self.stats.basis_solves - solves,
                        self.stats.devex_resets - resets,
                    )
                    return x_basic, y, float(cost[self.basis] @ x_basic)
                # the phase-end solves and pricing use fresh factors
                if self.etas:
                    self._factor()
                refine = fresh = True
                continue
            refine = False

            entering, row = int(self.work[pos]), self._work_row(pos)
            d = self._apply(row, 0)  # _ratio_test checks that it is finite
            leave_pos = self._ratio_test(d, x_basic, phase)
            if leave_pos < 0:
                if phase == 1:
                    raise _EngineFailure("phase-1 subproblem is unbounded")
                raise _UnboundedDual()

            leaving = self.basis[leave_pos]
            # rho = B^-T e_p = B0^-T M^T e_p, and M^T e_p is row p of M
            self.y_rho[:, 1] = self._apply((self.eta if self.etas else self.unit)[leave_pos], 1)
            leave_work = -1  # the leaving row's position in the working set
            if leaving < self.m:
                leave_work = int(self.work.searchsorted(leaving))
                self.work_basic[leave_work] = False
            self.artificials -= int(leaving >= self.m)
            self.pending = (d[leave_pos], self.weights[pos], leave_work)
            self.basis[leave_pos] = entering
            self.work_basic[pos] = True
            self.B[:, leave_pos] = row
            fresh = not self._update(d, leave_pos, phase)
            if not fresh:
                theta = x_basic[leave_pos] / d[leave_pos]
                x_basic -= theta * d
                x_basic[leave_pos] = theta
                y += (cost_real[entering] - row @ y) / d[leave_pos] * self.y_rho[:, 1]

            self.iterations += 1
            if phase == 1:
                self.stats.phase1_pivots += 1
            else:
                self.stats.phase2_pivots += 1
            if self.iterations >= MAX_ITERS:
                raise _EngineFailure(f"iteration limit {MAX_ITERS} reached in phase {phase}")

    def run(self) -> _Outcome:
        start = np.unique(self.warm if self.warm is not None else [])
        self.stats.start_basis = bool(start.size == self.k and 0 <= start[0] and start[-1] < self.m
                                      and not self._take(start))
        if not self.stats.start_basis and not self._crash():
            _, y1, w1 = self._run_phase(1)
            if w1 > self.phase1_tol:
                return _Outcome(kind="dual_infeasible", y=y1)
        try:
            x_basic, y2, _ = self._run_phase(2)
        except _UnboundedDual:
            return _Outcome(kind="dual_unbounded")
        return self._optimum(x_basic, y2)

    def _optimum(self, x_basic: np.ndarray, y: np.ndarray) -> _Outcome:
        """The optimal outcome at x_B: lam is x_B on the real rows, clipped at
        0; levels (the basic artificials' x_B) and clipped are what it leaves out."""
        real = self.basis < self.m
        x_real = x_basic[real]
        lam = np.zeros(self.m)
        lam[self.basis[real]] = np.maximum(x_real, 0.0)
        return _Outcome("optimal", y, lam, levels=x_basic[~real], clipped=x_real[x_real < 0.0])

    def vertex_ext(self) -> _Outcome:
        """The final basis's outcome, v = -y and x_B solved in extended
        precision; leftover artificials pin their v_i at zero."""
        self.stats.vertex_ext = True
        B = self._basis_matrix()
        b_basic = np.concatenate([-self.f, np.zeros(self.k)])[self.basis]
        v = _gauss_solve_ext(B.T, b_basic).astype(float)
        x_basic = _gauss_solve_ext(B, self.rhs).astype(float)
        return self._optimum(x_basic, -v)


class _UnboundedDual(Exception):
    pass


def _gauss_solve_ext(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a dense square system entirely in extended precision.

    Used to polish near-degenerate final bases where LU in double precision
    cannot reach the feasibility contract.
    """
    k = matrix.shape[0]
    aug = np.concatenate(
        [matrix.astype(np.longdouble), rhs.reshape(-1, 1).astype(np.longdouble)],
        axis=1,
    )
    for col in range(k):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if aug[piv, col] == 0.0:
            raise _EngineFailure("singular basis matrix")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        factors = aug[col + 1 :, col] / aug[col, col]
        aug[col + 1 :, col:] -= factors[:, None] * aug[col, col:]
    x = aug[:, k].copy()
    for col in range(k - 1, -1, -1):
        x[col] = (x[col] - aug[col, col + 1 : k] @ x[col + 1 : k]) / aug[col, col]
    return x


def _residuals_ext(A: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """b - A v accumulated in extended precision, in row chunks, then rounded.

    Plain float64 residuals carry noise of order eps * |v|_1, which swamps
    the tolerances when coefficients are large.
    """
    out = np.empty(A.shape[0])
    v_ext = v.astype(np.longdouble)
    for start in range(0, A.shape[0], 8192):
        block = A[start : start + 8192].astype(np.longdouble)
        b_block = b[start : start + 8192].astype(np.longdouble)
        out[start : start + 8192] = (b_block - block @ v_ext).astype(float)
    return out


def _max_violation(rows, b: np.ndarray, v: np.ndarray) -> float:
    """max(0, max(b - A v)) for the vector actually returned to the caller,
    equal to the maximum of _residuals_ext over every row of the row source
    rows.

    A float64 pass screens the rows: r = b - price(v) is within the
    source's error bound e of the exact residual (for dense rows,
    2 gamma_{k+2} (|b| + |A| |v|)).  A row with r + e below the largest
    r - e cannot hold the maximum, so only the other rows, and every row
    with a non-finite r or e, are recomputed in extended precision.  A
    non-finite residual gives inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow makes candidates
        r = rows.price(v)
        np.subtract(b, r, out=r)
        e = rows.error(b, v)
        finite = np.isfinite(r) & np.isfinite(e)
        floor = float(np.max((r - e)[finite], initial=-math.inf))
        candidates = np.flatnonzero(~finite | (r + e >= floor))
        worst = _residuals_ext(rows.take(candidates), b[candidates], v)
    if not np.isfinite(worst).all():
        return math.inf
    return max(0.0, float(np.max(worst, initial=-math.inf)))


def _check_finite(v: np.ndarray, lam: np.ndarray) -> None:
    if not (np.isfinite(v).all() and np.isfinite(lam).all()):
        raise _EngineFailure("non-finite vertex")


def _check_ray(rows, c: np.ndarray, ray: np.ndarray) -> bool:
    scale = 1.0 + rows.max_abs()
    recession = float(np.min(rows.price(ray), initial=0.0))
    descent = float(c @ ray)
    return recession >= -FEAS_TOL * scale and descent < 0.0


def solve(problem: LpProblem, start: np.ndarray | None = None) -> LpSolution:
    """Solve the problem to the contract tolerances, from the start basis
    rows start (an optimal basis of a row subset, say) if they make one.

    Optimal solutions satisfy  max(b - A v) <= FEAS_TOL * (1 + |b|_inf)  and
    |c.v - b.lam| <= OPT_TOL * (1 + |c.v|), and the stationarity defect
    (what lam leaves out of A^T lam = c: basic artificials' levels and
    clipped x_B entries, summed) times max(1, |v|_1) is within OPT_TOL *
    (1 + |c.v|).  That is a screen, not a proof: another feasible v' can
    have a far larger |v'|_1 (30 times v's on the degree-32 monomial line
    LP).  Violations, and a simplex run that reaches MAX_ITERS pivots, are
    reported as solver_failure.  The rows are read through problem.rows
    only; problem.A is never built.
    """
    c, b, rows = problem.c, problem.b, problem.rows
    b_scale = 1.0 + float(np.max(np.abs(b), initial=0.0))

    if b.size == 0:
        if float(np.max(np.abs(c), initial=0.0)) == 0.0:
            return LpSolution(
                status="optimal", v=np.zeros(c.size), objective=0.0,
                max_infeasibility=0.0, iterations=0, duals=np.zeros(0),
            )
        ray = -c / float(np.max(np.abs(c)))
        return LpSolution(
            status="unbounded", v=np.zeros(c.size), objective=-math.inf,
            max_infeasibility=0.0, iterations=0, ray=ray,
            message="no constraints restrict the descent direction",
        )

    stats = SolveStats()
    engine = _DualSimplex(rows, c, -b, stats, start)
    engines = [engine]  # every run counts toward the reported iterations
    try:
        outcome = engine.run()

        if outcome.kind == "optimal":
            # certify the engine's vertex; if it fails, the extended-precision one
            for retry in (True, False):
                v, lam = -outcome.y, outcome.lam
                _check_finite(v, lam)
                objective = float(c @ v)
                max_inf = _max_violation(rows, b, v)
                gap = abs(objective - float(b @ lam))
                defect = stats.stationarity_defect = float(
                    np.sum(np.abs(outcome.levels)) + np.sum(np.abs(outcome.clipped)))
                if max_inf > FEAS_TOL * b_scale:
                    fault = f"solution violates feasibility: residual {max_inf:.3e}"
                elif gap > OPT_TOL * (1.0 + abs(objective)):
                    fault = f"duality gap {gap:.3e} exceeds tolerance"
                elif defect * max(1.0, float(np.sum(np.abs(v)))) > OPT_TOL * (1.0 + abs(objective)):
                    fault = (f"stationarity defect {defect:.3e} exceeds tolerance "
                             f"({outcome.levels.size} basic artificials)")
                else:
                    return LpSolution(
                        status="optimal", v=v, objective=objective,
                        max_infeasibility=max_inf, iterations=engine.iterations, duals=lam,
                        stats=stats, basis=np.sort(engine.basis[engine.basis < engine.m]),
                    )
                if not retry:
                    raise _EngineFailure(fault)
                outcome = engine.vertex_ext()

        if outcome.kind == "dual_infeasible":
            ray = -outcome.y
            peak = float(np.max(np.abs(ray), initial=0.0))
            if peak == 0.0 or not _check_ray(rows, c, ray / peak):
                raise _EngineFailure("could not certify an unbounded direction")
            ray = ray / peak
            probe = _DualSimplex(rows, np.zeros(c.size), -b, stats)
            engines.append(probe)
            probe_out = probe.run()
            if probe_out.kind == "dual_unbounded":
                raise _EngineFailure(
                    "constraints admit no feasible point (inconsistent system)"
                )
            if probe_out.kind != "optimal":
                raise _EngineFailure("feasibility probe failed to converge")
            v = -probe_out.y
            max_inf = _max_violation(rows, b, v)
            if max_inf > FEAS_TOL * b_scale:
                raise _EngineFailure(
                    f"probe produced an infeasible point: residual {max_inf:.3e}"
                )
            return LpSolution(
                status="unbounded", v=v, objective=-math.inf, ray=ray,
                max_infeasibility=max_inf, iterations=engine.iterations + probe.iterations,
                message="objective decreases without bound along the ray", stats=stats,
            )

        # dual feasible but unbounded: the original constraints are inconsistent
        raise _EngineFailure(
            "constraints admit no feasible point (inconsistent system)"
        )
    except _EngineFailure as exc:
        return LpSolution(
            status="solver_failure", v=None, objective=math.nan, max_infeasibility=math.nan,
            iterations=sum(e.iterations for e in engines), message=str(exc), stats=stats,
        )


# ---------------------------------------------------------------------------
# MPS export
# ---------------------------------------------------------------------------


def _row_names(kinds: tuple[str, ...]) -> list[str]:
    return [
        f"{_ROW_PREFIXES.get(kind, 'R')}{j + 1:07d}" for j, kind in enumerate(kinds)
    ]


def export_mps(problem: LpProblem, destination: str | Path | None = None, name: str = "COVERLP") -> str:
    """Serialize the problem as MPS text with G rows and free variables.

    Values print with repr so a reader recovers every coefficient exactly.
    The value fields therefore run wider than the classic fixed-column MPS
    layout; any whitespace-tokenizing reader handles this.
    """
    rows = _row_names(problem.row_kinds)
    cols = [f"V{j + 1:07d}" for j in range(problem.num_cols)]

    lines = [f"NAME          {name}", "OBJSENSE", "    MIN", "ROWS", " N  OBJ"]
    lines.extend(f" G  {row}" for row in rows)

    lines.append("COLUMNS")
    for j, col in enumerate(cols):
        lines.append(f"    {col}  OBJ  {float(problem.c[j])!r}")
        for i in np.flatnonzero(problem.A[:, j]):
            lines.append(f"    {col}  {rows[i]}  {float(problem.A[i, j])!r}")

    lines.append("RHS")
    for i in np.flatnonzero(problem.b):
        lines.append(f"    RHS  {rows[i]}  {float(problem.b[i])!r}")

    lines.append("BOUNDS")
    lines.extend(f" FR BND  {col}" for col in cols)
    lines.append("ENDATA")

    text = "\n".join(lines) + "\n"
    if destination is not None:
        Path(destination).write_text(text)
    return text
