"""Command line front end: VERBS names each verb and the flags it reads.

Exit codes: 0 success, 2 bad input or configuration, a failed output write
or a refused allocation, 3 solver failure, 4 verification or containment
failure.  Outputs contain no timestamps, so identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

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


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_coeffs(path: Path, p: Polynomial, box: BoxDomain) -> None:
    """poly_to_dict with the fit box, which a monomial basis does not carry,
    so that verify and plotdata find the box the fit was made on."""
    box_dict = {"lower": list(box.lower), "upper": list(box.upper)}
    _write_json(path, {**poly_to_dict(p), "box": box_dict})


def _out_dir(args: argparse.Namespace) -> Path:
    """Create the output directory; every verb calls this before any work."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IngestError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _load_poly(args: argparse.Namespace) -> tuple[Polynomial, BoxDomain]:
    """The saved polynomial and its box: a Chebyshev basis's own box, which
    a --box must equal; for monomials --box, else the stored fit box, else
    [-1, 1]^n."""
    try:
        data = json.loads(Path(args.coeffs).read_text())
        poly = poly_from_dict(data)
        stored = data.get("box")
        if stored is not None:
            stored = BoxDomain(lower=tuple(stored["lower"]), upper=tuple(stored["upper"]))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise IngestError(f"cannot load coeffs {args.coeffs}: {exc!r}") from exc
    if poly.basis.box is not None:
        own = poly.basis.box
        if args.box is not None and _box_for(args, poly.dimension) != own:
            text = ";".join(f"{lo!r},{up!r}" for lo, up in zip(own.lower, own.upper))
            raise IngestError(f"--box {args.box} differs from the Chebyshev basis box {text} "
                              f"of {args.coeffs}")
        return poly, own
    if args.box is None and stored is not None:
        return poly, stored
    return poly, _box_for(args, poly.dimension)


def _program(args: argparse.Namespace) -> tuple[PointCloud, BoxDomain, dict]:
    """The cloud, the box and the program keywords of fit, sweep and export-mps."""
    if args.grid is not None and args.grid_samples is not None:
        raise IngestError("choose one of --grid and --grid-samples")
    grid = None
    if args.grid is not None:
        grid = GridSpec(points_per_axis=args.grid)
    elif args.grid_samples is not None:
        grid = GridSpec(sample_count=args.grid_samples, seed=args.seed)
    cloud = PointCloud(ingest_points(args.points))
    box = _box_for(args, cloud.dimension)
    return cloud, box, dict(kind=args.basis, grid=grid, inflate=args.inflate,
                            coeff_bound=args.coeff_bound)


def _check_verification(args: argparse.Namespace, dimension: int) -> None:
    """Refuse the resolution or sample count the verification would refuse,
    before any fit or report: components are counted in dimensions 1 to 3."""
    if dimension <= 3:
        check_resolution(dimension, args.resolution)
    if hasattr(args, "mc_samples"):
        check_mc_samples(args.mc_samples)


def cmd_fit(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    cloud, box, program = _program(args)
    _check_verification(args, cloud.dimension)
    result = fit(cloud, box, args.degree, **program)
    report = run_report(
        result.polynomial,
        result.box,
        mc_samples=args.mc_samples,
        seed=args.seed,
        resolution=args.resolution,
    )
    _write_coeffs(out / "coeffs.json", result.polynomial, result.box)
    _write_json(out / "report.json", report.to_json_dict())
    print(f"degree {result.degree}: w = {result.objective!r}")
    print(f"mc volume = {report.mc_volume!r} (stderr {report.mc_stderr!r})")
    print(f"components = {report.components}, min scan value = {report.min_scan_value!r}")
    print(f"wrote {out / 'coeffs.json'} and {out / 'report.json'}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    cloud, box, program = _program(args)
    _check_verification(args, cloud.dimension)
    try:
        degrees = sorted({int(d) for d in args.degrees.split(",")})
    except ValueError as exc:
        raise IngestError(f"--degrees {args.degrees!r}: expected comma-separated integers") from exc
    entries = degree_sweep(cloud, box, degrees, **program)

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
            _write_coeffs(out / f"coeffs_d{entry.degree}.json", poly, entry.result.box)
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
    cloud, box, program = _program(args)
    problem = build_problem(cloud, box, args.degree, **program)
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
    _check_verification(args, poly.dimension)
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


# Each flag's add_argument keywords; every verb also takes --out and --config.
FLAGS: dict[str, dict] = {
    "points": dict(help="CSV file, one point per line"),
    "coeffs": dict(help="coeffs.json from a fit"),
    "box": dict(help="box as 'l1,u1;l2,u2;...' (write --box=-1,1 when l1 is negative); "
                "default [-1,1]^n"),
    "degree": dict(type=int, help="polynomial degree"),
    "degrees": dict(help="comma-separated degrees, e.g. 2,5,9"),
    "basis": dict(choices=("monomial", "chebyshev"), help="coefficient basis"),
    "grid": dict(type=int, help="tensor grid points per axis"),
    "grid-samples": dict(type=int, help="quasi-random grid size"),
    "seed": dict(type=int, help="seed for sampling (default 0)"),
    "inflate": dict(type=float, help="box inflation factor (default 1)"),
    "coeff-bound": dict(type=float, help="sup-norm bound on coefficients"),
    "mc-samples": dict(type=int, help="Monte Carlo samples over the whole box, a density: "
                       "only those in cells the screen leaves undecided are drawn"),
    "resolution": dict(
        type=int,
        help="component-count cells per axis, at least 64; checked in 1-D to 3-D but used "
        "only in 2-D and 3-D, since the 1-D count is exact (plotdata: grid points per axis)",
    ),
    "out": dict(help="output directory (default .)"),
    "config": dict(help="JSON file with defaults for these flags"),
}

# Defaults that apply after the config file, to the verbs that take the flag.
DEFAULTS = {"seed": 0, "inflate": 1.0, "mc_samples": 1_000_000, "out": ".", "basis": "monomial"}

_PROGRAM = ("box", "basis", "grid", "grid-samples", "seed", "inflate", "coeff-bound")


class Verb(NamedTuple):
    func: Callable[[argparse.Namespace], int]
    help: str
    flags: tuple[str, ...]  # the flags it reads, besides --out and --config
    required: tuple[str, ...]


VERBS = {
    "fit": Verb(cmd_fit, "fit one degree and verify it",
            ("points", "degree", *_PROGRAM, "mc-samples", "resolution"), ("points", "degree")),
    "sweep": Verb(cmd_sweep, "fit several degrees on one grid",
              ("points", "degrees", *_PROGRAM, "resolution"), ("points", "degrees")),
    "plotdata": Verb(cmd_plotdata, "tabulate a saved polynomial on a grid",
                 ("coeffs", "box", "resolution"), ("coeffs",)),
    "export-mps": Verb(cmd_export_mps, "write the program in MPS format",
                   ("points", "degree", *_PROGRAM), ("points", "degree")),
    "verify": Verb(cmd_verify, "verification pass on saved coefficients",
               ("coeffs", "points", "box", "seed", "mc-samples", "resolution"), ("coeffs",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycover",
        description="Fit and check low-volume polynomial superlevel sets around point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, verb in VERBS.items():
        # full names only, as in config files: `sweep --degree` is not --degrees
        sub_parser = sub.add_parser(command, help=verb.help, allow_abbrev=False)
        for flag in (*verb.flags, "out", "config"):
            sub_parser.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset flags from a JSON config file, through each flag's type and
    choices as on the command line; explicit flags win.  A key naming
    another verb's flag is skipped, so one file can serve several verbs."""
    if args.config is None:
        return
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestError(f"cannot load config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise IngestError("config file must hold a JSON object")
    for key, value in config.items():
        flag = key.replace("_", "-")
        if flag not in FLAGS:
            raise IngestError(f"config key {key!r} is not a recognized option")
        dest = flag.replace("-", "_")
        if not hasattr(args, dest) or getattr(args, dest) is not None or value is None:
            continue
        spec = FLAGS[flag]
        try:
            value = spec.get("type", str)(str(value))
        except ValueError as exc:
            raise IngestError(f"config key {key!r}: invalid value {value!r}") from exc
        if "choices" in spec and value not in spec["choices"]:
            raise IngestError(f"config key {key!r}: {value!r} is not one of {spec['choices']}")
        setattr(args, dest, value)


def _settle(args: argparse.Namespace) -> None:
    """After the config file: refuse missing required flags and a negative
    seed, and fill the defaults of the flags the verb takes."""
    for flag in VERBS[args.command].required:
        if getattr(args, flag.replace("-", "_")) is None:
            raise IngestError(f"--{flag} is required (flag or config)")
    for dest, value in DEFAULTS.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)
    if getattr(args, "seed", 0) < 0:
        raise IngestError("--seed must be nonnegative")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_config(args)
        _settle(args)
        return VERBS[args.command].func(args)
    except (UnboundedFitError, SolverFailedError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except ContainmentError as exc:
        print(f"containment error: {exc}", file=sys.stderr)
        return 4
    except ArithmeticError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, FitError, OSError, MemoryError) as exc:
        # bad input, a failed output write, or an allocation the OS refused
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
