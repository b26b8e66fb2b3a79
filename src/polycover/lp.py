"""Dense linear programs of the form  min c.v  subject to  A v >= b,  v free.

The row count m (cloud points plus grid points) dwarfs the column count k
(basis coefficients), so the solver runs the revised primal simplex method on
the dual problem

    min (-b).lam   subject to   A^T lam = c,   lam >= 0,

whose basis matrices stay k x k.  Phase 1 introduces one artificial column
per equality row; artificials left over at zero level are pinned there during
phase 2.  Pricing uses Dantzig's rule with smallest-index tie breaking, over
every row in phase 1; phase 2 prices nested sections of the rows, laid out
coarse to fine (rows with b != 0, then every 64th, 16th and 4th zero-rhs
row, then all), and moves on when a section prices out.  The rows are solved
as given: identical rows are not collapsed.  Pivots use plain LU solves;
extended-precision refinement runs when a phase is about to finish, followed
by one more plain pricing at the refined multipliers, and before a ratio test
declares a ray.  A run that never finishes ends at the iteration limit.

Outcomes carry certificates.  Optimal solutions return row duals and are
rechecked for feasibility and duality gap.  Unbounded problems return a
feasible point plus a ray along which the objective decreases forever.
Inconsistent constraints surface as solver_failure with an explanatory
message, since callers only distinguish the three listed statuses.  Every
outcome, failures included, reports the pivots made and its SolveStats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np
import scipy.linalg

LpStatus = Literal["optimal", "unbounded", "solver_failure"]

_ROW_PREFIXES = {"K": "K", "grid": "G", "bound": "B"}


@dataclass(frozen=True)
class LpOptions:
    max_iters: int = 20_000
    feas_tol: float = 1e-9
    opt_tol: float = 1e-8


@dataclass(frozen=True)
class LpProblem:
    """min c.v subject to A v >= b, all v free.

    row_kinds tags each row with its provenance ("K", "grid", "bound", ...)
    for export naming and diagnostics; it has no effect on the solution.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    row_kinds: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float).reshape(-1)
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if c.size < 1:
            raise ValueError("objective must have at least one coefficient")
        if A.ndim != 2:
            raise ValueError("constraint matrix must be two dimensional")
        if A.shape != (b.size, c.size):
            raise ValueError(
                f"shape mismatch: A is {A.shape}, expected ({b.size}, {c.size})"
            )
        for name, arr in (("c", c), ("A", A), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        kinds = tuple(self.row_kinds) if self.row_kinds else ("row",) * b.size
        if len(kinds) != b.size:
            raise ValueError("row_kinds length does not match the row count")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "row_kinds", kinds)

    @property
    def num_rows(self) -> int:
        return self.b.size

    @property
    def num_cols(self) -> int:
        return self.c.size


@dataclass
class SolveStats:
    """Work counters of one solve, summed over its simplex runs.

    Phase 2 prices the row prefixes that end at section_rows in turn;
    section_pivots counts its pivots per section.  full_pricings counts
    pricings over every row.
    """

    phase1_pivots: int = 0
    section_rows: tuple[int, ...] = ()
    section_pivots: list[int] = field(default_factory=list)
    full_pricings: int = 0
    refined_solves: int = 0
    vertex_ext: bool = False

    @property
    def phase2_pivots(self) -> int:
        return sum(self.section_pivots)


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


class _EngineFailure(Exception):
    pass


@dataclass
class _Outcome:
    kind: str  # "optimal" | "dual_infeasible" | "dual_unbounded"
    y: np.ndarray | None = None
    lam: np.ndarray | None = None


class _DualSimplex:
    """Two-phase revised simplex on min f.lam s.t. sum lam_j row_j = rhs;
    phase 2 prices the row prefixes that end at sections in turn."""

    def __init__(
        self, rows: np.ndarray, rhs: np.ndarray, f: np.ndarray, options: LpOptions,
        sections: list[int], stats: SolveStats,
    ):
        self.rows = rows  # (m, k); dual column j is rows[j]
        self.rhs = rhs
        self.f = f
        self.opt = options
        self.sections = sections
        self.stats = stats
        self.m, self.k = rows.shape
        self.sigma = np.where(rhs >= 0.0, 1.0, -1.0)
        self.basis = np.arange(self.m, self.m + self.k)
        self.in_basis = np.zeros(self.m, dtype=bool)
        self.iterations = 0
        self.phase1_tol = options.feas_tol * (1.0 + float(np.sum(np.abs(rhs))))

    def _basis_matrix(self) -> np.ndarray:
        """Columns rows[j] for basic j < m; sigma_i e_i for artificial m + i."""
        real = self.basis < self.m
        art = self.basis[~real] - self.m
        B = np.zeros((self.k, self.k))
        B[:, real] = self.rows[self.basis[real]].T
        B[art, np.flatnonzero(~real)] = self.sigma[art]
        return B

    def _solve(self, lu, B: np.ndarray, rhs: np.ndarray, trans: int, refine: bool) -> np.ndarray:
        """LU solve; with refine, plus iterative refinement on extended-precision
        residuals.  Power-basis columns make simplex bases Vandermonde-like and
        badly conditioned at high degree; refinement recovers close to full
        double accuracy as long as the basis is numerically nonsingular."""
        x = scipy.linalg.lu_solve(lu, rhs, trans=trans, check_finite=False)
        if not np.all(np.isfinite(x)):
            raise _EngineFailure("singular basis matrix")
        if not refine:
            return x
        self.stats.refined_solves += 1
        scale = float(np.max(np.abs(rhs), initial=0.0)) + 1.0
        for _ in range(3):
            residual = _residuals_ext(B.T if trans else B, rhs, x)
            if float(np.max(np.abs(residual), initial=0.0)) <= 1e-15 * scale:
                break
            delta = scipy.linalg.lu_solve(lu, residual, trans=trans, check_finite=False)
            if not np.all(np.isfinite(delta)):
                break
            x = x + delta
        return x

    def _price(self, cost_real: np.ndarray, y: np.ndarray, end: int, price_tol: float) -> int:
        """Dantzig pricing over rows[:end]: the entering row, or -1 if none."""
        if end == self.m:
            self.stats.full_pricings += 1
        reduced = cost_real[:end] - self.rows[:end] @ y
        reduced[self.in_basis[:end]] = math.inf
        entering = int(np.argmin(reduced))
        return entering if reduced[entering] < -price_tol else -1

    def _ratio_test(self, d: np.ndarray, x_basic: np.ndarray, phase: int) -> int:
        """Position of the leaving basic variable, or -1 if d has no positive entry."""
        piv_tol = 1e-10 * max(1.0, float(np.max(np.abs(d))))
        if phase == 2:
            # An artificial must never leave zero; pivot it out first.
            art = np.flatnonzero((self.basis >= self.m) & (np.abs(d) > piv_tol))
            if art.size:
                return int(art[np.argmin(self.basis[art])])
        ratios = np.full(self.k, math.inf)
        positive = d > piv_tol
        ratios[positive] = np.maximum(x_basic[positive], 0.0) / d[positive]
        theta = float(ratios.min())
        if not math.isfinite(theta):
            return -1
        tie = np.flatnonzero(ratios <= theta * (1.0 + 1e-9) + 1e-300)
        return int(tie[np.argmin(self.basis[tie])])

    def _run_phase(self, phase: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Iterate until the phase objective is optimal; returns (x_B, y, obj),
        solved with refinement and priced once more before the phase ends."""
        # costs of the real columns, then of the artificials
        if phase == 1:
            cost = np.concatenate([np.zeros(self.m), np.ones(self.k)])
            sections = [self.m]
        else:
            cost = np.concatenate([self.f, np.zeros(self.k)])
            sections = self.sections
        cost_real = cost[: self.m]
        price_tol = 1e-9 * (1.0 + float(np.max(np.abs(cost_real), initial=0.0)))
        section = 0
        refine = False

        while True:
            B = self._basis_matrix()
            lu = scipy.linalg.lu_factor(B, check_finite=False)
            x_basic = self._solve(lu, B, self.rhs, 0, refine)
            cost_basic = cost[self.basis]
            y = self._solve(lu, B, cost_basic, 1, refine)
            obj = float(cost_basic @ x_basic)

            entering = -1
            if phase == 2 or obj > self.phase1_tol:
                entering = self._price(cost_real, y, sections[section], price_tol)
                while entering < 0 and section + 1 < len(sections):
                    section += 1
                    entering = self._price(cost_real, y, sections[section], price_tol)
            if entering < 0:
                if refine:
                    return x_basic, y, obj
                refine = True
                continue
            refine = False

            d = self._solve(lu, B, self.rows[entering], 0, False)
            leave_pos = self._ratio_test(d, x_basic, phase)
            if leave_pos < 0:
                # Rounding noise must not pass for a ray: only a refined d
                # may end the phase as unbounded.
                d = self._solve(lu, B, self.rows[entering], 0, True)
                leave_pos = self._ratio_test(d, x_basic, phase)
            if leave_pos < 0:
                if phase == 1:
                    raise _EngineFailure("phase-1 subproblem is unbounded")
                raise _UnboundedDual()

            leaving = self.basis[leave_pos]
            if leaving < self.m:
                self.in_basis[leaving] = False
            self.basis[leave_pos] = entering
            self.in_basis[entering] = True

            self.iterations += 1
            if phase == 1:
                self.stats.phase1_pivots += 1
            else:
                self.stats.section_pivots[section] += 1
            if self.iterations >= self.opt.max_iters:
                raise _EngineFailure(
                    f"iteration limit {self.opt.max_iters} reached in phase {phase}"
                )

    def run(self) -> _Outcome:
        x_basic, y1, w1 = self._run_phase(1)
        if w1 > self.phase1_tol:
            return _Outcome(kind="dual_infeasible", y=y1)
        try:
            x_basic, y2, _ = self._run_phase(2)
        except _UnboundedDual:
            return _Outcome(kind="dual_unbounded")
        return _Outcome(kind="optimal", y=y2, lam=self._multipliers(x_basic))

    def _multipliers(self, x_basic: np.ndarray) -> np.ndarray:
        lam = np.zeros(self.m)
        real = self.basis < self.m
        lam[self.basis[real]] = np.maximum(x_basic[real], 0.0)
        return lam

    def vertex_ext(self) -> tuple[np.ndarray, np.ndarray]:
        """The final basis's primal vertex v and multipliers, solved in
        extended precision; leftover artificials pin their v_i at zero."""
        self.stats.vertex_ext = True
        B = self._basis_matrix()
        b_basic = np.concatenate([-self.f, np.zeros(self.k)])[self.basis]
        v = _gauss_solve_ext(B.T, b_basic).astype(float)
        x_basic = _gauss_solve_ext(B, self.rhs).astype(float)
        return v, self._multipliers(x_basic)


class _UnboundedDual(Exception):
    pass


def _row_layout(b: np.ndarray, k: int) -> tuple[np.ndarray, list[int]]:
    """The engine's row order, coarse to fine, and its pricing sections.

    Rows with b != 0 come first; the zero-rhs rows follow in stages: every
    64th, then the rest of every 16th, of every 4th and all others, each
    stage in original order.  Returns the permutation and the ends of the
    phase-2 pricing sections: every stage end after at least 4k zero-rhs
    rows (k columns), and the last row.
    """
    zero = np.flatnonzero(b == 0.0)
    strides = (64, 16, 4)
    stage = np.full(zero.size, len(strides))
    for s in reversed(range(len(strides))):
        stage[:: strides[s]] = s
    order = np.concatenate([np.flatnonzero(b != 0.0), zero[np.argsort(stage, kind="stable")]])
    counts = np.cumsum(np.bincount(stage, minlength=len(strides) + 1))[:-1]
    ends = [b.size - zero.size + int(n) for n in counts if n >= 4 * k]
    return order, ends + [b.size]


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


def _max_violation(A: np.ndarray, b: np.ndarray, v: np.ndarray) -> float:
    """max(0, max(b - A v)) for the vector actually returned to the caller."""
    return max(0.0, float(np.max(_residuals_ext(A, b, v), initial=-math.inf)))


def _check_ray(A: np.ndarray, c: np.ndarray, ray: np.ndarray, feas_tol: float) -> bool:
    scale = 1.0 + float(np.max(np.abs(A), initial=0.0))
    recession = float(np.min(A @ ray, initial=0.0))
    descent = float(c @ ray)
    return recession >= -feas_tol * scale and descent < 0.0


def solve(problem: LpProblem, options: LpOptions | None = None) -> LpSolution:
    """Solve the problem to the contract tolerances.

    Optimal solutions satisfy  max(b - A v) <= feas_tol * (1 + |b|_inf)  and a
    relative duality gap bound of opt_tol; violations are reported as
    solver_failure rather than silently returned.
    """
    opt = options or LpOptions()
    A, b, c = problem.A, problem.b, problem.c
    b_scale = 1.0 + float(np.max(np.abs(b), initial=0.0))

    if problem.num_rows == 0:
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

    order, sections = _row_layout(b, c.size)
    A2, b2 = A[order], b[order]
    stats = SolveStats(section_rows=tuple(sections), section_pivots=[0] * len(sections))

    engine = _DualSimplex(A2, c, -b2, opt, sections, stats)
    engines = [engine]  # every run counts toward the reported iterations
    try:
        outcome = engine.run()

        if outcome.kind == "optimal":
            v = -outcome.y
            lam = outcome.lam
            objective = float(c @ v)
            max_inf = _max_violation(A, b, v)
            gap = abs(objective - float(b2 @ lam))
            if max_inf > opt.feas_tol * b_scale or gap > opt.opt_tol * (1.0 + abs(objective)):
                v, lam = engine.vertex_ext()
                objective = float(c @ v)
                max_inf = _max_violation(A, b, v)
                gap = abs(objective - float(b2 @ lam))
            if max_inf > opt.feas_tol * b_scale:
                raise _EngineFailure(
                    f"solution violates feasibility: residual {max_inf:.3e}"
                )
            if gap > opt.opt_tol * (1.0 + abs(objective)):
                raise _EngineFailure(f"duality gap {gap:.3e} exceeds tolerance")
            duals = np.zeros(problem.num_rows)
            duals[order] = lam
            return LpSolution(
                status="optimal", v=v, objective=objective,
                max_infeasibility=max_inf, iterations=engine.iterations, duals=duals,
                stats=stats,
            )

        if outcome.kind == "dual_infeasible":
            ray = -outcome.y
            peak = float(np.max(np.abs(ray), initial=0.0))
            if peak == 0.0 or not _check_ray(A, c, ray / peak, opt.feas_tol):
                raise _EngineFailure("could not certify an unbounded direction")
            ray = ray / peak
            probe = _DualSimplex(A2, np.zeros(c.size), -b2, opt, sections, stats)
            engines.append(probe)
            probe_out = probe.run()
            if probe_out.kind == "dual_unbounded":
                raise _EngineFailure(
                    "constraints admit no feasible point (inconsistent system)"
                )
            if probe_out.kind != "optimal":
                raise _EngineFailure("feasibility probe failed to converge")
            v = -probe_out.y
            max_inf = _max_violation(A, b, v)
            if max_inf > opt.feas_tol * b_scale:
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
