"""The four benchmark workloads: their inputs, CLI arguments and output checks.

Each workload has one canonical point set.  The workload seed permutes the
rows of the points file, so every seed poses the same program up to row
order (the solver's pivoting and tie breaking see a different order) and the
pinned objectives below apply at every seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Objectives of the canonical point sets, measured on the commit that added
# this benchmark.  Checked to PINNED_RTOL relative.
PINNED_RTOL = 1e-7
CLUSTER_PINNED = {
    2: 3.490942834769588,
    5: 2.5059912402524684,
    9: 1.6330594246192085,
    14: 1.2765925275142693,
}
LINE_PINNED = {
    2: 1.6296296296296298,
    7: 1.2225512829814222,
    17: 0.7575377842019048,
    26: 0.49679701232611634,
}
CHEB3D_PINNED = {6: 2.3447498829018167}

CONTAINMENT_TOL = 1e-6
MONOTONE_RTOL = 1e-9

# The cloud of the 2-D cluster config in tests/conftest.py, with its seed.
CLUSTER_CLOUD_SEED = 7
CHEB3D_CLOUD_SEED = 7
LINE_POINTS = (-0.5, 0.0, 0.25)


def cluster_cloud() -> np.ndarray:
    """Two 50-point Gaussian clusters in [-1, 1]^2 (the conftest recipe)."""
    rng = np.random.Generator(np.random.Philox(CLUSTER_CLOUD_SEED))
    first = rng.normal([-0.55, -0.35], 0.12, size=(50, 2))
    second = rng.normal([0.5, 0.45], 0.12, size=(50, 2))
    return np.clip(np.vstack([first, second]), -0.95, 0.95)


def cheb3d_cloud() -> np.ndarray:
    """Two 20-point Gaussian clusters in [-1, 1]^3."""
    rng = np.random.Generator(np.random.Philox(CHEB3D_CLOUD_SEED))
    first = rng.normal([-0.45, -0.3, -0.35], 0.15, size=(20, 3))
    second = rng.normal([0.4, 0.45, 0.3], 0.15, size=(20, 3))
    return np.clip(np.vstack([first, second]), -0.9, 0.9)


def line_cloud() -> np.ndarray:
    """The paper's three points on [-1, 1]."""
    return np.array(LINE_POINTS).reshape(-1, 1)


def write_points(points: np.ndarray, path: Path) -> None:
    lines = [",".join(repr(float(x)) for x in row) for row in points]
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "fit" or "sweep"
    cloud: callable
    args: tuple[str, ...]
    degrees: tuple[int, ...]
    pinned: dict[int, float]
    why: str

    @property
    def dimension(self) -> int:
        return self.cloud().shape[1]

    def points(self, seed: int) -> np.ndarray:
        base = self.cloud()
        order = np.random.Generator(np.random.Philox(seed)).permutation(base.shape[0])
        return base[order]

    def argv(self, points_file: Path, out: Path) -> list[str]:
        return [self.verb, "--points", str(points_file), *self.args, "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cluster-sweep",
            verb="sweep",
            cloud=cluster_cloud,
            args=("--degrees", "2,5,9,14", "--grid", "201"),
            degrees=(2, 5, 9, 14),
            pinned=CLUSTER_PINNED,
            why="2-D cluster sweep, dominated by the degree-14 simplex solve; "
            "solver and exchange-method work shows here",
        ),
        Workload(
            name="cluster-fit",
            verb="fit",
            cloud=cluster_cloud,
            args=("--degree", "9"),
            degrees=(9,),
            pinned=CLUSTER_PINNED,
            why="2-D degree-9 fit plus full verification on tensor grids; "
            "verification dominates, solver work barely moves total_s",
        ),
        Workload(
            name="cheb3d-fit",
            verb="fit",
            cloud=cheb3d_cloud,
            args=("--degree", "6", "--basis", "chebyshev", "--grid-samples", "20000"),
            degrees=(6,),
            pinned=CHEB3D_PINNED,
            why="3-D Chebyshev fit on scattered Sobol points; a tensor-grid-only "
            "optimisation should show no change here",
        ),
        Workload(
            name="line-sweep",
            verb="sweep",
            cloud=line_cloud,
            args=("--degrees", "2,7,17,26", "--grid", "2001"),
            degrees=(2, 7, 17, 26),
            pinned=LINE_PINNED,
            why="the paper's 1-D sweep up to ill-conditioned degree 26; fixed "
            "costs (grid, assembly, moments, duplicate rows) dominate",
        ),
    )
}

ALL_DEGREES = tuple(sorted({d for w in WORKLOADS.values() for d in w.degrees}))

# W3: the cluster sweep at degree 14 in the Chebyshev basis.  The solver
# stops at its iteration limit on it; the traced run of the Chebyshev
# workload runs it once and records the outcome.
W3_ARGS = ("--degrees", "14", "--grid", "201", "--basis", "chebyshev")
W3_WORKLOAD = "cheb3d-fit"


def _digest(path: Path, drop_column: str | None = None) -> str:
    if drop_column is None:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    keep = [i for i, name in enumerate(rows[0]) if name != drop_column]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def output_digests(out: Path) -> dict[str, str]:
    """Digests of the files that must repeat byte for byte; sweep.csv
    without its wall-clock `seconds` column."""
    digests = {p.name: _digest(p) for p in sorted(out.glob("coeffs*.json"))}
    if (out / "report.json").exists():
        digests["report.json"] = _digest(out / "report.json")
    if (out / "sweep.csv").exists():
        digests["sweep.csv"] = _digest(out / "sweep.csv", drop_column="seconds")
    return digests


def _objectives(workload: Workload, out: Path) -> dict[int, float]:
    if workload.verb == "fit":
        report = json.loads((out / "report.json").read_text())
        return {workload.degrees[0]: float(report["w"])}
    with (out / "sweep.csv").open(newline="") as handle:
        return {int(row["degree"]): float(row["w"]) for row in csv.DictReader(handle)}


def _coeff_files(workload: Workload, out: Path) -> dict[int, Path]:
    if workload.verb == "fit":
        return {workload.degrees[0]: out / "coeffs.json"}
    return {d: out / f"coeffs_d{d}.json" for d in workload.degrees}


def check_outputs(workload: Workload, code: int, out: Path, points: np.ndarray) -> list[str]:
    """Every failed output check of one CLI call, as messages."""
    from polycover.basis import eval_poly_many, poly_from_dict

    if code != 0:
        return [f"exit code {code}"]
    problems: list[str] = []
    try:
        objectives = _objectives(workload, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable objectives: {exc}"]
    missing = sorted(set(workload.degrees) - set(objectives))
    if missing:
        problems.append(f"no objective for degrees {missing}")

    for degree, path in _coeff_files(workload, out).items():
        if not path.exists():
            problems.append(f"missing {path.name}")
            continue
        poly = poly_from_dict(json.loads(path.read_text()))
        worst = float(np.min(eval_poly_many(poly, points)))
        if worst < 1.0 - CONTAINMENT_TOL:
            problems.append(f"degree {degree}: min p over the cloud is {worst!r}")

    ordered = [objectives[d] for d in sorted(objectives)]
    for low, high in zip(ordered, ordered[1:]):
        if high > low + MONOTONE_RTOL * (1.0 + abs(low)):
            problems.append(f"objective rose from {low!r} to {high!r}")

    for degree, value in objectives.items():
        pinned = workload.pinned.get(degree)
        if pinned is not None and abs(value - pinned) > PINNED_RTOL * abs(pinned):
            problems.append(f"degree {degree}: objective {value!r}, pinned {pinned!r}")
    return problems
