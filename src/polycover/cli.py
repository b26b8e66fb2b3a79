"""Command line front end.

Verbs:
    fit         fit one degree and verify the result
    sweep       fit several degrees on one shared grid
    plotdata    tabulate a fitted polynomial on a plotting grid
    export-mps  write the assembled program without solving it
    verify      run the verification pass on saved coefficients

Exit codes: 0 success, 2 bad input or configuration, 3 solver failure,
4 verification or containment failure.  Outputs contain no timestamps, so
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .basis import Polynomial, eval_poly_grid, eval_poly_many, poly_from_dict, poly_to_dict
from .domain import BoxDomain, grid_axes
from .fitting import (
    CONTAINMENT_TOL,
    ContainmentError,
    FitError,
    GridSpec,
    PointCloud,
    SolverFailedError,
    UnboundedFitError,
    build_problem,
    degree_sweep,
    fit,
)
from .lp import export_mps
from .verification import (
    check_mc_samples,
    check_resolution,
    count_components,
    default_resolution,
    run_report,
)


class IngestError(ValueError):
    """A points file could not be parsed."""


def ingest_points(path: str | Path) -> np.ndarray:
    """Read a CSV of coordinates, one point per line; '#' starts a comment."""
    rows: list[list[float]] = []
    width: int | None = None
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = [f.strip() for f in body.split(",")]
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise IngestError(f"{path}, line {lineno}: {exc}") from exc
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise IngestError(
                f"{path}, line {lineno}: expected {width} coordinates, got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise IngestError(f"{path}: no points found")
    return np.asarray(rows)


def parse_box(text: str) -> BoxDomain:
    """Parse 'l1,u1;l2,u2;...' into a box."""
    lower: list[float] = []
    upper: list[float] = []
    for axis, part in enumerate(text.split(";")):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise IngestError(f"box axis {axis}: expected 'lower,upper', got {part!r}")
        try:
            lo, up = float(pieces[0]), float(pieces[1])
        except ValueError as exc:
            raise IngestError(f"box axis {axis}: {exc}") from exc
        lower.append(lo)
        upper.append(up)
    try:
        return BoxDomain(lower=tuple(lower), upper=tuple(upper))
    except ValueError as exc:
        raise IngestError(f"invalid box: {exc}") from exc


def _box_for(args: argparse.Namespace, dimension: int) -> BoxDomain:
    if args.box is not None:
        box = parse_box(args.box)
        if box.dimension != dimension:
            raise IngestError(
                f"box has dimension {box.dimension}, data has {dimension}"
            )
        return box
    return BoxDomain.symmetric(dimension)


def _grid_for(args: argparse.Namespace) -> GridSpec | None:
    if args.grid is not None and args.grid_samples is not None:
        raise IngestError("choose one of --grid and --grid-samples")
    if args.grid is not None:
        return GridSpec(points_per_axis=args.grid)
    if args.grid_samples is not None:
        return GridSpec(sample_count=args.grid_samples, seed=args.seed)
    return None


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _out_dir(args: argparse.Namespace) -> Path:
    """Create the output directory; every verb calls this before any work."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IngestError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _load_poly(args: argparse.Namespace) -> tuple[Polynomial, BoxDomain]:
    try:
        poly = poly_from_dict(json.loads(Path(args.coeffs).read_text()))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise IngestError(f"cannot load coeffs {args.coeffs}: {exc!r}") from exc
    box = poly.basis.box if poly.basis.box is not None else _box_for(args, poly.dimension)
    return poly, box


def _check_verification(args: argparse.Namespace, dimension: int, monte_carlo: bool) -> None:
    """Refuse the resolution or sample count the verification would refuse,
    before any fit or report: components are counted in dimensions 1 to 3."""
    if dimension <= 3:
        check_resolution(dimension, args.resolution)
    if monte_carlo:
        check_mc_samples(args.mc_samples)


def cmd_fit(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    cloud = PointCloud(ingest_points(args.points))
    box = _box_for(args, cloud.dimension)
    _check_verification(args, cloud.dimension, monte_carlo=True)
    result = fit(
        cloud,
        box,
        args.degree,
        kind=args.basis,
        grid=_grid_for(args),
        inflate=args.inflate,
        coeff_bound=args.coeff_bound,
    )
    report = run_report(
        result.polynomial,
        result.box,
        mc_samples=args.mc_samples,
        seed=args.seed,
        resolution=args.resolution,
    )
    _write_json(out / "coeffs.json", poly_to_dict(result.polynomial))
    _write_json(out / "report.json", report.to_json_dict())
    print(f"degree {result.degree}: w = {result.objective!r}")
    print(f"mc volume = {report.mc_volume!r} (stderr {report.mc_stderr!r})")
    print(f"components = {report.components}, min scan value = {report.min_scan_value!r}")
    print(f"wrote {out / 'coeffs.json'} and {out / 'report.json'}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    cloud = PointCloud(ingest_points(args.points))
    box = _box_for(args, cloud.dimension)
    _check_verification(args, cloud.dimension, monte_carlo=False)
    try:
        degrees = sorted({int(d) for d in args.degrees.split(",")})
    except ValueError as exc:
        raise IngestError(f"--degrees {args.degrees!r}: expected comma-separated integers") from exc
    entries = degree_sweep(
        cloud, box, degrees,
        kind=args.basis, grid=_grid_for(args),
        inflate=args.inflate, coeff_bound=args.coeff_bound,
    )

    successes = 0
    with (out / "sweep.csv").open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["degree", "w", "components", "seconds"])
        for entry in entries:
            if entry.result is None:
                print(f"degree {entry.degree}: failed ({entry.error})", file=sys.stderr)
                continue
            successes += 1
            poly = entry.result.polynomial
            comps = (
                count_components(poly, entry.result.box, args.resolution)
                if cloud.dimension <= 3
                else ""
            )
            writer.writerow(
                [entry.degree, repr(entry.result.objective), comps,
                 f"{entry.seconds:.3f}"]
            )
            _write_json(out / f"coeffs_d{entry.degree}.json", poly_to_dict(poly))
            print(f"degree {entry.degree}: w = {entry.result.objective!r}")
    print(f"wrote {out / 'sweep.csv'} ({successes} of {len(entries)} degrees)")
    return 0 if successes else 3


def cmd_plotdata(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    poly, box = _load_poly(args)
    if box.dimension > 3:
        raise IngestError("plot data supports dimensions 1 to 3 only")
    resolution = default_resolution(box.dimension) if args.resolution is None else args.resolution
    if resolution < 2:
        raise IngestError(f"plot grid would hold {resolution} points per axis (at least 2)")
    axes = grid_axes(box.lower, box.upper, resolution, "plot grid")
    values = eval_poly_grid(poly, axes).reshape(-1)

    target = out / "plotdata.csv"
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f"x{d}" for d in range(box.dimension)] + ["p", "in_set"])
        for row, value in zip(itertools.product(*axes), values):
            writer.writerow(
                [repr(float(c)) for c in row] + [repr(float(value)), int(value >= 1.0)]
            )
    print(f"wrote {target} ({values.size} rows)")
    return 0


def cmd_export_mps(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    cloud = PointCloud(ingest_points(args.points))
    problem = build_problem(
        cloud, _box_for(args, cloud.dimension), args.degree,
        kind=args.basis, grid=_grid_for(args),
        inflate=args.inflate, coeff_bound=args.coeff_bound,
    )
    target = out / "problem.mps"
    export_mps(problem, destination=target)
    print(f"wrote {target} ({problem.num_rows} rows, {problem.num_cols} columns)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    poly, box = _load_poly(args)
    cloud = PointCloud(ingest_points(args.points)) if args.points is not None else None
    if cloud is not None and cloud.dimension != poly.dimension:
        raise IngestError(f"points have dimension {cloud.dimension}, coefficients have "
                          f"{poly.dimension}")
    _check_verification(args, poly.dimension, monte_carlo=True)
    report = run_report(
        poly, box,
        mc_samples=args.mc_samples, seed=args.seed, resolution=args.resolution,
    )
    _write_json(out / "report.json", report.to_json_dict())
    print(f"w = {report.w!r}, mc volume = {report.mc_volume!r}")
    print(f"components = {report.components}, min scan value = {report.min_scan_value!r}")
    print(f"wrote {out / 'report.json'}")
    if cloud is not None:
        worst = float(np.min(eval_poly_many(poly, cloud.points)))
        if worst < 1.0 - CONTAINMENT_TOL:
            print(f"containment violated: min p over points is {worst!r}", file=sys.stderr)
            return 4
        print(f"containment holds: min p over points is {worst!r}")
    return 0


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Fill unset flags from a JSON config file, through each flag's type and
    choices as on the command line; explicit flags win."""
    if args.config is None:
        return args
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestError(f"cannot load config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise IngestError("config file must hold a JSON object")
    (commands,) = [action.choices for action in parser._actions if action.dest == "command"]
    actions = {action.dest: action for action in commands[args.command]._actions}
    for key, value in config.items():
        action = actions.get(key.replace("-", "_"))
        if action is None or not hasattr(args, action.dest):
            raise IngestError(f"config key {key!r} is not a recognized option")
        if getattr(args, action.dest) is not None or value is None:
            continue
        try:
            value = (action.type or str)(str(value))
        except ValueError as exc:
            raise IngestError(f"config key {key!r}: invalid value {value!r}") from exc
        if action.choices is not None and value not in action.choices:
            raise IngestError(f"config key {key!r}: {value!r} is not one of {action.choices}")
        setattr(args, action.dest, value)
    return args


def _add_common(parser: argparse.ArgumentParser, *, points: bool, degree: str | None) -> None:
    if points:
        parser.add_argument("--points", help="CSV file, one point per line")
    parser.add_argument("--box", help="box as 'l1,u1;l2,u2;...'; default [-1,1]^n")
    if degree == "single":
        parser.add_argument("--degree", type=int, help="polynomial degree")
    elif degree == "list":
        parser.add_argument("--degrees", help="comma-separated degrees, e.g. 2,5,9")
    parser.add_argument(
        "--basis", choices=("monomial", "chebyshev"), help="coefficient basis"
    )
    parser.add_argument("--grid", type=int, help="tensor grid points per axis")
    parser.add_argument("--grid-samples", type=int, help="quasi-random grid size")
    parser.add_argument("--seed", type=int, help="seed for sampling (default 0)")
    parser.add_argument("--inflate", type=float, help="box inflation factor (default 1)")
    parser.add_argument("--coeff-bound", type=float, help="sup-norm bound on coefficients")
    parser.add_argument("--mc-samples", type=int, help="Monte Carlo sample count")
    parser.add_argument(
        "--resolution",
        type=int,
        help="component-count cells per axis, at least 64; checked in 1-D to "
        "3-D but used only in 2-D and 3-D, since the 1-D count is exact "
        "(plotdata: grid points per axis)",
    )
    parser.add_argument("--out", help="output directory (default .)")
    parser.add_argument("--config", help="JSON file with defaults for these flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycover",
        description="Fit and check low-volume polynomial superlevel sets around point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one degree and verify it")
    _add_common(p_fit, points=True, degree="single")
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser("sweep", help="fit several degrees on one grid")
    _add_common(p_sweep, points=True, degree="list")
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plotdata", help="tabulate a saved polynomial on a grid")
    p_plot.add_argument("--coeffs", help="coeffs.json from a fit")
    _add_common(p_plot, points=False, degree=None)
    p_plot.set_defaults(func=cmd_plotdata)

    p_mps = sub.add_parser("export-mps", help="write the program in MPS format")
    _add_common(p_mps, points=True, degree="single")
    p_mps.set_defaults(func=cmd_export_mps)

    p_verify = sub.add_parser("verify", help="verification pass on saved coefficients")
    p_verify.add_argument("--coeffs", help="coeffs.json from a fit")
    _add_common(p_verify, points=True, degree=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _finalize_defaults(args: argparse.Namespace) -> None:
    if args.seed is None:
        args.seed = 0
    if getattr(args, "inflate", None) is None:
        args.inflate = 1.0
    if args.mc_samples is None:
        args.mc_samples = 1_000_000
    if args.out is None:
        args.out = "."
    if getattr(args, "basis", None) is None:
        args.basis = "monomial"


def _check_required(args: argparse.Namespace) -> None:
    needs_points = args.command in ("fit", "sweep", "export-mps")
    if needs_points and args.points is None:
        raise IngestError("--points is required (flag or config)")
    if args.command in ("fit", "export-mps") and args.degree is None:
        raise IngestError("--degree is required (flag or config)")
    if args.command == "sweep" and args.degrees is None:
        raise IngestError("--degrees is required (flag or config)")
    if args.command in ("plotdata", "verify") and args.coeffs is None:
        raise IngestError("--coeffs is required (flag or config)")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, parser)
        _check_required(args)
        _finalize_defaults(args)
        return args.func(args)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnboundedFitError, SolverFailedError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except ContainmentError as exc:
        print(f"containment error: {exc}", file=sys.stderr)
        return 4
    except ArithmeticError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
