import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import polycover
from polycover import (
    BoxDomain,
    GridSpec,
    PointCloud,
    Polynomial,
    build_problem,
    eval_basis_many,
    eval_poly_many,
    poly_from_dict,
    solve,
)
from polycover.basis import constant_poly, make_basis, poly_to_dict
from polycover import cli, fitting, verification
from polycover.cli import IngestError, ingest_points, main, parse_box
from polycover.fitting import MAX_GRID_POINTS
from polycover.domain import tensor_grid
from polycover.verification import default_resolution

from conftest import cluster_point_array
from oracles import read_mps


def write_points(path, rows):
    path.write_text("\n".join(",".join(repr(v) for v in row) for row in rows) + "\n")


# ---------------------------------------------------------------- ingestion


def test_ingest_points_skips_comments_and_blank_lines(tmp_path):
    target = tmp_path / "pts.csv"
    target.write_text("# header\n0.5, -1.0\n\n  0.25,0.75  # inline note\n")
    pts = ingest_points(target)
    np.testing.assert_allclose(pts, [[0.5, -1.0], [0.25, 0.75]])


def test_ingest_points_reports_the_offending_line(tmp_path):
    target = tmp_path / "pts.csv"
    target.write_text("0.0,0.0\n1.0,2.0,3.0\n")
    with pytest.raises(IngestError, match="line 2"):
        ingest_points(target)
    target.write_text("0.0\nnot-a-number\n")
    with pytest.raises(IngestError, match="line 2"):
        ingest_points(target)


def test_ingest_points_rejects_empty_or_missing_files(tmp_path):
    target = tmp_path / "pts.csv"
    target.write_text("# only a comment\n")
    with pytest.raises(IngestError, match="no points"):
        ingest_points(target)
    with pytest.raises(IngestError, match="cannot read"):
        ingest_points(tmp_path / "absent.csv")


def test_parse_box_round_trip():
    box = parse_box("-1,1;-0.5,2.5")
    assert box.lower == (-1.0, -0.5)
    assert box.upper == (1.0, 2.5)


def test_parse_box_errors():
    with pytest.raises(IngestError, match="lower,upper"):
        parse_box("0,1;2")
    with pytest.raises(IngestError, match="axis 0"):
        parse_box("zero,1")
    with pytest.raises(IngestError, match="invalid box"):
        parse_box("1,0")


# ------------------------------------------------------------------- verbs


def test_fit_writes_coefficients_and_report(tmp_path):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(-0.5,), (0.0,), (0.25,)])
    out = tmp_path / "out"
    code = main(
        [
            "fit", "--points", str(pts), "--degree", "2", "--grid", "101",
            "--mc-samples", "2000", "--resolution", "64", "--out", str(out),
        ]
    )
    assert code == 0

    poly = poly_from_dict(json.loads((out / "coeffs.json").read_text()))
    values = eval_poly_many(poly, np.array([[-0.5], [0.0], [0.25]]))
    assert np.min(values) >= 1.0 - 1e-6

    report = json.loads((out / "report.json").read_text())
    assert set(report) == {
        "w", "mc_volume", "mc_stderr", "cheb_gap",
        "min_scan_value", "components", "trace_PM",
    }
    assert report["components"] == 1
    assert report["w"] == pytest.approx(44.0 / 27.0, rel=1e-3)


def test_fit_and_verify_print_the_mc_volume_as_a_float(tmp_path, capsys):
    # the printed value is report.json's, as a plain float repr (not np.float64(...))
    pts = tmp_path / "pts.csv"
    write_points(pts, [(-0.5,), (0.0,), (0.25,)])
    checks = ["--mc-samples", "2000", "--resolution", "64"]
    assert main(["fit", "--points", str(pts), "--degree", "2", "--grid", "101", *checks,
                 "--out", str(tmp_path / "fit")]) == 0
    fitted = capsys.readouterr().out.splitlines()
    assert main(["verify", "--coeffs", str(tmp_path / "fit" / "coeffs.json"), "--points", str(pts),
                 *checks, "--out", str(tmp_path / "verify")]) == 0
    verified = capsys.readouterr().out.splitlines()
    report = json.loads((tmp_path / "fit" / "report.json").read_text())
    assert (tmp_path / "verify" / "report.json").read_text() == (tmp_path / "fit" / "report.json").read_text()
    volume = report["mc_volume"]
    assert type(volume) is float and volume > 0.0
    assert fitted[1] == f"mc volume = {volume!r} (stderr {report['mc_stderr']!r})"
    assert verified[0] == f"w = {report['w']!r}, mc volume = {volume!r}"


def test_fit_on_a_too_coarse_grid_exits_3(tmp_path):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.0,)])
    code = main(
        ["fit", "--points", str(pts), "--degree", "4", "--grid", "3",
         "--out", str(tmp_path / "out")]
    )
    assert code == 3


def test_conflicting_grid_flags_exit_2(tmp_path):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.0,)])
    code = main(
        ["fit", "--points", str(pts), "--degree", "2",
         "--grid", "11", "--grid-samples", "50", "--out", str(tmp_path)]
    )
    assert code == 2


def test_missing_required_flags_exit_2(tmp_path):
    assert main(["fit", "--degree", "2", "--out", str(tmp_path)]) == 2
    assert main(["verify", "--out", str(tmp_path)]) == 2


def test_box_dimension_mismatch_exits_2(tmp_path):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.0, 0.0)])
    code = main(
        ["fit", "--points", str(pts), "--degree", "2", "--box=-1,1",
         "--out", str(tmp_path / "out")]
    )
    assert code == 2


def test_sweep_writes_csv_and_per_degree_coefficients(tmp_path):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(-0.5,), (0.0,), (0.25,)])
    out = tmp_path / "out"
    code = main(
        [
            "sweep", "--points", str(pts), "--degrees", "4,2", "--grid", "201",
            "--resolution", "64", "--out", str(out),
        ]
    )
    assert code == 0

    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "degree,w,components,seconds"
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert [first[0], second[0]] == ["2", "4"]  # degrees are sorted
    assert float(first[1]) >= float(second[1])  # objective never rises
    assert (out / "coeffs_d2.json").exists()
    assert (out / "coeffs_d4.json").exists()


def test_sweep_with_no_successful_degree_exits_3(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.0,)])
    out = tmp_path / "out"
    code = main(
        ["sweep", "--points", str(pts), "--degrees", "4,6", "--grid", "3",
         "--out", str(out)]
    )
    assert code == 3
    assert (out / "sweep.csv").read_text().splitlines() == [
        "degree,w,components,seconds"
    ]
    assert "failed" in capsys.readouterr().err


def test_sweep_in_4_d_leaves_the_components_field_empty(tmp_path):
    # components are counted in dimensions 1 to 3 only
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.5,) * 4, (-0.5,) * 4])
    out = tmp_path / "out"
    code = main(["sweep", "--points", str(pts), "--degrees", "1,2", "--grid", "5",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    for line, degree in zip(lines[1:], ("1", "2")):
        fields = line.split(",")
        assert fields[0] == degree and fields[2] == ""
    assert lines[1].startswith("1,16.0,,")  # p = 1 covers the whole box


def test_plotdata_tabulates_a_saved_polynomial(tmp_path):
    coeffs = tmp_path / "coeffs.json"
    poly = poly_from_dict(
        {"dimension": 1, "degree": 2, "kind": "monomial", "coeffs": [1.0, 0.0, -1.0]}
    )
    coeffs.write_text(json.dumps(poly_to_dict(poly)))
    out = tmp_path / "out"
    code = main(
        ["plotdata", "--coeffs", str(coeffs), "--resolution", "101",
         "--out", str(out)]
    )
    assert code == 0

    lines = (out / "plotdata.csv").read_text().splitlines()
    assert lines[0] == "x0,p,in_set"
    assert len(lines) == 102
    for line in lines[1:]:
        x, value, flag = line.split(",")
        assert float(value) == pytest.approx(1.0 - float(x) ** 2, abs=1e-12)
        assert int(flag) == (1 if float(value) >= 1.0 else 0)

    # 2-D, on an off-centre box: coordinates are the tensor-grid rows exactly
    box = BoxDomain(lower=(-0.7, 0.2), upper=(1.3, 0.9))
    basis = make_basis(2, 9, "monomial")
    poly = Polynomial(basis, np.random.default_rng(17).normal(size=len(basis)))
    coeffs.write_text(json.dumps(poly_to_dict(poly)))
    code = main(
        ["plotdata", "--coeffs", str(coeffs), "--box=-0.7,1.3;0.2,0.9",
         "--resolution", "37", "--out", str(out)]
    )
    assert code == 0
    rows = (out / "plotdata.csv").read_text().splitlines()
    assert rows[0] == "x0,x1,p,in_set"
    grid = tensor_grid(box.lower, box.upper, 37)
    terms = eval_basis_many(basis, grid) * poly.coeffs
    tolerance = 1e-12 * (1.0 + np.max(np.abs(terms).sum(axis=1)))
    assert len(rows) == grid.shape[0] + 1
    for line, point, expected in zip(rows[1:], grid, terms.sum(axis=1)):
        x0, x1, value, flag = line.split(",")
        assert [x0, x1] == [repr(float(c)) for c in point]
        assert abs(float(value) - expected) <= tolerance
        assert int(flag) == int(float(value) >= 1.0)


def test_plotdata_refuses_4_d_coefficients(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(poly_to_dict(constant_poly(make_basis(4, 1), 1.0))))
    code = main(["plotdata", "--coeffs", str(coeffs), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: plot data supports dimensions 1 to 3 only\n"


def test_export_mps_writes_a_parsable_program(tmp_path):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3,), (-0.4,)])
    out = tmp_path / "out"
    code = main(
        ["export-mps", "--points", str(pts), "--degree", "2", "--grid", "21",
         "--out", str(out)]
    )
    assert code == 0
    c, A, b, row_names, col_names = read_mps((out / "problem.mps").read_text())
    assert len(col_names) == 3  # 1, x, x^2
    assert len(row_names) == 2 + 21
    assert sorted(b.tolist(), reverse=True)[:2] == [1.0, 1.0]
    np.testing.assert_allclose(c, [2.0, 0.0, 2.0 / 3.0])


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param(["--coeff-bound", "10"], id="coeff_bound"),
        pytest.param(["--inflate", "1.5"], id="inflate"),
        pytest.param(["--basis", "chebyshev"], id="chebyshev"),
    ],
)
def test_export_mps_poses_the_program_that_fit_solves(tmp_path, flags):
    points = np.array([[0.3, -0.2], [-0.4, 0.5], [0.9, 0.1]])
    pts = tmp_path / "pts.csv"
    write_points(pts, points.tolist())
    out = tmp_path / "out"
    code = main(
        ["export-mps", "--points", str(pts), "--degree", "3", "--grid", "7",
         "--box=-1,1;-1,1", *flags, "--out", str(out)]
    )
    assert code == 0
    c, A, b, row_names, _ = read_mps((out / "problem.mps").read_text())

    kwargs = {"coeff_bound": 10.0} if "--coeff-bound" in flags else {}
    if "--inflate" in flags:
        kwargs["inflate"] = 1.5
    if "--basis" in flags:
        kwargs["kind"] = "chebyshev"
    problem = build_problem(
        PointCloud(points), BoxDomain.symmetric(2), 3,
        grid=GridSpec(points_per_axis=7), **kwargs,
    )
    np.testing.assert_array_equal(c, problem.c)
    np.testing.assert_array_equal(A, problem.A)
    np.testing.assert_array_equal(b, problem.b)
    bound_rows = [name for name in row_names if name.startswith("B")]
    assert len(bound_rows) == (2 * 10 if "--coeff-bound" in flags else 0)
    assert len(row_names) == 3 + 49 + len(bound_rows)


# (verb, dimension, grid flags): the line, a 2-D tensor grid and a 3-D Sobol grid
OVERFLOW_CASES = {
    "fit": ("fit", 1, ()),
    "export-mps": ("export-mps", 1, ()),
    "sweep": ("sweep", 1, ()),
    "sweep-tensor-2d": ("sweep", 2, ("--grid", "21")),
    "sweep-sobol-3d": ("sweep", 3, ("--grid-samples", "2000")),
}


@pytest.mark.parametrize("case", OVERFLOW_CASES)
def test_overflowing_moments_are_a_bad_input(tmp_path, capsys, recwarn, case):
    # 1000**111 is beyond float64: the moments, not a verification, fail.  A
    # sweep builds its rows at degree 2, the top degree whose moments are
    # finite; a degree-110 A on the 3-D grid would take 3.7 GB
    verb, n, grid = OVERFLOW_CASES[case]
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.5,) * n])
    degrees = ["--degrees", "2,110"] if verb == "sweep" else ["--degree", "110"]
    tracemalloc.start()
    try:
        code = main([verb, "--points", str(pts), *degrees, *grid, "--box=" + ";".join(["-1000,1000"] * n),
                     "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    box = " x ".join(["[-1000.0, 1000.0]"] * n)
    message = f"the moments up to degree 110 overflow on the box {box}"
    err = capsys.readouterr().err.splitlines()
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]
    assert peak < 64 * 2**20
    if verb == "sweep":  # degree 110 fails alone
        assert code == 0
        assert err == [f"degree 110: failed ({message})"]
        assert (tmp_path / "out" / "coeffs_d2.json").exists()
    else:
        assert code == 2
        assert err == [f"error: {message}"]


@pytest.mark.parametrize("verb", ["fit", "sweep"])
def test_overflowing_moment_products_are_a_bad_input(tmp_path, capsys, recwarn, verb):
    # each axis's moments are finite (at most 2e300 / 3), their product is not
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.5, 0.5)])
    degrees = ["--degrees", "2"] if verb == "sweep" else ["--degree", "2"]
    code = main([verb, "--points", str(pts), *degrees, "--box=-1e100,1e100;-1e100,1e100",
                 "--out", str(tmp_path / "out")])
    message = ("the moments up to degree 2 overflow on the box "
               "[-1e+100, 1e+100] x [-1e+100, 1e+100]")
    err = capsys.readouterr().err.splitlines()
    assert not recwarn.list
    if verb == "sweep":  # the one degree fails, so no degree was fitted
        assert code == 3
        assert err == [f"degree 2: failed ({message})"]
    else:
        assert code == 2
        assert err == [f"error: {message}"]


def test_export_mps_rejects_a_nonpositive_coeff_bound(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3,)])
    code = main(
        ["export-mps", "--points", str(pts), "--degree", "2", "--grid", "11",
         "--coeff-bound", "-1", "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert "coeff_bound must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out" / "problem.mps").exists()


VERB_ARGS = {
    "fit": ["--degree", "2", "--mc-samples", "2000", "--resolution", "64"],
    "sweep": ["--degrees", "2,4", "--resolution", "64"],
    "export-mps": ["--degree", "2"],
}


@pytest.mark.parametrize("verb", VERB_ARGS)
@pytest.mark.parametrize(
    "rows, flags, message",
    [
        pytest.param([(1.5,)], [], "point cloud is not contained in the box", id="outside_box"),
        pytest.param(
            [(0.9,)], ["--inflate", "0.5"], "point cloud is not contained in the box",
            id="outside_inflated_box",
        ),
        pytest.param([(0.0, 0.0)], ["--box=-1,1"], "box has dimension 1, data has 2",
                     id="dimension_mismatch"),
    ],
)
def test_every_verb_rejects_bad_clouds(tmp_path, capsys, verb, rows, flags, message):
    pts = tmp_path / "pts.csv"
    write_points(pts, rows)
    out = tmp_path / "out"
    code = main(
        [verb, "--points", str(pts), "--grid", "11", *VERB_ARGS[verb], *flags,
         "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "lines, argv, message",
    [
        pytest.param("0.1\nnan\n", ["fit", "--degree", "2"],
                     "point cloud contains non-finite coordinates", id="nan_point"),
        pytest.param("0.1\ninf\n", ["fit", "--degree", "2"],
                     "point cloud contains non-finite coordinates", id="inf_point"),
        pytest.param("0.1\n", ["sweep", "--degrees=-1,2"], "degrees must be nonnegative",
                     id="negative_degree"),
        pytest.param("0.1\n", ["fit", "--degree", "2", "--inflate", "0"],
                     "inflation factor must be positive and finite", id="zero_inflate"),
        pytest.param("0.1,0.2\n", ["fit", "--degree", "2", "--box=-inf,1;-1,1"],
                     "invalid box: box bounds must be finite", id="infinite_box"),
    ],
)
def test_non_finite_and_out_of_range_inputs_exit_2(tmp_path, capsys, lines, argv, message):
    pts = tmp_path / "pts.csv"
    pts.write_text(lines)
    out = tmp_path / "out"
    assert main([argv[0], "--points", str(pts), *argv[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


def test_verify_refuses_a_non_finite_coefficient(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.json"
    saved = poly_to_dict(constant_poly(make_basis(1, 1, "monomial"), 1.5))
    coeffs.write_text(json.dumps({**saved, "coeffs": [1.5, math.nan]}))  # written as NaN
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.1,)])
    out = tmp_path / "out"
    assert main(["verify", "--coeffs", str(coeffs), "--points", str(pts), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot load coeffs {coeffs}: ValueError('coefficients must be finite')\n"
    )
    assert not out.exists() or not any(out.iterdir())


def test_plotdata_default_resolution_is_the_component_count_default(tmp_path):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(poly_to_dict(constant_poly(make_basis(1, 0, "monomial"), 2.0))))
    out = tmp_path / "out"
    assert main(["plotdata", "--coeffs", str(coeffs), "--out", str(out)]) == 0
    lines = (out / "plotdata.csv").read_text().splitlines()
    assert len(lines) == 1 + default_resolution(1) == 513


@pytest.mark.parametrize("resolution", [0, 1, -3])
def test_plotdata_refuses_a_grid_below_two_points_per_axis(tmp_path, capsys, resolution):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(poly_to_dict(constant_poly(make_basis(2, 0, "monomial"), 2.0))))
    out = tmp_path / "out"
    code = main(["plotdata", "--coeffs", str(coeffs), "--resolution", str(resolution),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: plot grid would hold {resolution} points per axis (at least 2)\n"
    )
    assert not (out / "plotdata.csv").exists()


def test_sweep_refuses_a_degree_list_with_an_empty_entry(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(-0.5,), (0.25,)])
    code = main(["sweep", "--points", str(pts), "--degrees", "2,,5", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --degrees '2,,5': expected comma-separated integers\n"
    )
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("value, code", [(1.0 - 0.5e-6, 0), (1.0 - 2e-6, 4)])
def test_verify_allows_the_fit_containment_tolerance(tmp_path, value, code):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(poly_to_dict(constant_poly(make_basis(1, 0, "monomial"), value))))
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.1,)])
    assert main(
        ["verify", "--coeffs", str(coeffs), "--points", str(pts),
         "--mc-samples", "2000", "--resolution", "64", "--out", str(tmp_path / "out")]
    ) == code


def test_verify_reruns_checks_from_saved_coefficients(tmp_path):
    coeffs = tmp_path / "coeffs.json"
    basis = make_basis(1, 0, "monomial")
    coeffs.write_text(json.dumps(poly_to_dict(constant_poly(basis, 1.5))))
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.1,), (-0.9,)])
    out = tmp_path / "out"
    code = main(
        ["verify", "--coeffs", str(coeffs), "--points", str(pts),
         "--mc-samples", "2000", "--resolution", "64", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["w"] == pytest.approx(3.0, rel=1e-12)
    assert report["components"] == 1


def test_verify_flags_points_outside_the_set(tmp_path):
    coeffs = tmp_path / "coeffs.json"
    basis = make_basis(1, 0, "monomial")
    coeffs.write_text(json.dumps(poly_to_dict(constant_poly(basis, 0.5))))
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.1,)])
    code = main(
        ["verify", "--coeffs", str(coeffs), "--points", str(pts),
         "--mc-samples", "2000", "--resolution", "64",
         "--out", str(tmp_path / "out")]
    )
    assert code == 4


def test_verify_reads_the_points_before_the_report(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(poly_to_dict(constant_poly(make_basis(1, 0, "monomial"), 1.5))))
    out = tmp_path / "out"
    code = main(
        ["verify", "--coeffs", str(coeffs), "--points", str(tmp_path / "missing.csv"),
         "--mc-samples", "2000", "--resolution", "64", "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path / 'missing.csv'}: ")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "resolution, message",
    [(10, "resolution must be at least 64"),
     (4000, f"component grid would hold 16000000 points (limit {MAX_GRID_POINTS})")],
    ids=["below_64", "over_the_cap"],
)
def test_verify_checks_the_resolution_before_the_monte_carlo(
    tmp_path, capsys, monkeypatch, resolution, message
):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(poly_to_dict(constant_poly(make_basis(2, 2), 1.0))))

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran before the resolution was checked")

    monkeypatch.setattr(verification, "mc_volume", no_monte_carlo)
    code = main(
        ["verify", "--coeffs", str(coeffs), "--resolution", str(resolution),
         "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "verb, flags, message",
    [
        pytest.param("fit", ["--degree", "9", "--resolution", "10"],
                     "resolution must be at least 64", id="fit_below_64"),
        pytest.param("fit", ["--degree", "9", "--resolution", "4000"],
                     f"component grid would hold 16000000 points (limit {MAX_GRID_POINTS})",
                     id="fit_over_the_cap"),
        pytest.param("fit", ["--degree", "9", "--mc-samples", "10"],
                     "need at least 1000 samples", id="fit_few_samples"),
        pytest.param("sweep", ["--degrees", "2,5", "--resolution", "10"],
                     "resolution must be at least 64", id="sweep_below_64"),
    ],
)
def test_fit_and_sweep_check_the_verification_settings_before_fitting(
    tmp_path, capsys, monkeypatch, verb, flags, message
):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3, -0.2), (-0.4, 0.5)])

    def no_fit(*args, **kwargs):
        raise AssertionError("the fit ran before the verification settings were checked")

    monkeypatch.setattr(cli, "fit", no_fit)
    monkeypatch.setattr(cli, "degree_sweep", no_fit)
    out = tmp_path / "out"
    assert main([verb, "--points", str(pts), *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(out.iterdir())  # no sweep.csv, not even its header


def test_verify_checks_the_dimension_of_the_points_before_the_report(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(poly_to_dict(constant_poly(make_basis(2, 2), 1.0))))
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.1, 0.2, 0.3)])
    out = tmp_path / "out"
    code = main(["verify", "--coeffs", str(coeffs), "--points", str(pts),
                 "--mc-samples", "1000", "--resolution", "64", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: points have dimension 3, coefficients have 2\n"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("verb", ["fit", "sweep", "export-mps", "plotdata", "verify"])
def test_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, verb):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3,)])
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(poly_to_dict(constant_poly(make_basis(1, 0, "monomial"), 1.5))))
    taken = tmp_path / "somefile"
    taken.write_text("")

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output directory was made")

    for name in ("fit", "degree_sweep", "build_problem", "run_report", "eval_poly_grid"):
        monkeypatch.setattr(cli, name, no_work)
    inputs = {
        "fit": ["--points", str(pts), "--degree", "2"],
        "sweep": ["--points", str(pts), "--degrees", "2"],
        "export-mps": ["--points", str(pts), "--degree", "2"],
        "plotdata": ["--coeffs", str(coeffs)],
        "verify": ["--coeffs", str(coeffs)],
    }
    assert main([verb, *inputs[verb], "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot create output directory {taken}: ")


@pytest.mark.parametrize("verb, blocked", [("fit", "coeffs.json"), ("sweep", "sweep.csv")])
def test_a_failed_output_write_exits_2(tmp_path, capsys, verb, blocked):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(-0.5,), (0.25,)])
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    code = main([verb, "--points", str(pts), "--grid", "21", *VERB_ARGS[verb], "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 21] Is a directory: ") and str(out / blocked) in err
    assert err.count("\n") == 1


# numpy's message when the OS refuses A for 3 points in 3-D at degree 40
REFUSED = "Unable to allocate 9.20 GiB for an array with shape (100003, 12341) and data type float64"


@pytest.mark.parametrize(
    "error, message",
    [(MemoryError(REFUSED), REFUSED), (MemoryError(), "MemoryError")],
    ids=["numpy", "bare"],
)
def test_a_refused_allocation_exits_2(tmp_path, capsys, monkeypatch, error, message):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.1, -0.2, 0.3)])

    def refused(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "fit", refused)
    code = main(["fit", "--points", str(pts), "--degree", "40", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _line_points(tmp_path):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(-0.5,), (0.0,), (0.25,)])
    return str(pts)


def test_a_fit_that_misses_a_cloud_point_exits_4(tmp_path, capsys, monkeypatch):
    # a solver whose optimal v comes back halved: p = 1/2 at the binding points
    def halved(problem, start=None):
        solution = solve(problem, start=start)
        return dataclasses.replace(solution, v=solution.v / 2)

    monkeypatch.setattr(fitting, "solve", halved)
    out = tmp_path / "out"
    code = main(["fit", "--points", _line_points(tmp_path), "--degree", "2", "--grid", "101",
                 "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err == "containment error: fitted polynomial misses a cloud point by 5.000e-01\n"
    assert not (out / "coeffs.json").exists()


def test_a_trace_that_fails_its_cross_check_exits_4(tmp_path, capsys, monkeypatch):
    def disagreeing(p, box):
        raise ArithmeticError("trace routes disagree")

    monkeypatch.setattr(verification, "trace_report", disagreeing)
    out = tmp_path / "out"
    code = main(["fit", "--points", _line_points(tmp_path), "--degree", "2", "--grid", "101",
                 "--mc-samples", "2000", "--resolution", "64", "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err == "verification error: trace routes disagree\n"
    assert not (out / "report.json").exists()


def test_a_sweep_whose_objective_rises_exits_3(tmp_path, capsys, monkeypatch):
    # degree 4's objective comes back 1 above its optimum, which is below degree 2's
    fit_degree = fitting._fit_degree

    def raised(setup, degree):
        result = fit_degree(setup, degree)
        return dataclasses.replace(result, objective=result.objective + 1.0) if degree == 4 else result

    monkeypatch.setattr(fitting, "_fit_degree", raised)
    code = main(["sweep", "--points", _line_points(tmp_path), "--degrees", "2,4", "--grid", "101",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: objective rose from 1.6")
    assert err.endswith(" at degree 4; expected a nonincreasing sweep on a shared grid\n")


@pytest.mark.parametrize("verb", ["fit", "verify"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_negative_seed_exits_2_before_any_work(tmp_path, capsys, monkeypatch, verb, source):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3,)])
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(poly_to_dict(constant_poly(make_basis(1, 0, "monomial"), 1.5))))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1}))

    def no_work(*args, **kwargs):
        raise AssertionError("work started with a negative seed")

    for name in ("fit", "run_report", "ingest_points"):
        monkeypatch.setattr(cli, name, no_work)
    inputs = {"fit": ["--points", str(pts), "--degree", "2"], "verify": ["--coeffs", str(coeffs)]}
    seed = ["--seed", "-1"] if source == "flag" else ["--config", str(config)]
    assert main([verb, *inputs[verb], *seed, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: --seed must be nonnegative\n"


# ------------------------------------------------------------------- flags


def _sample_value(flag):
    spec = cli.FLAGS[flag]
    if "choices" in spec:
        return spec["choices"][-1]
    return {int: "3", float: "1.5", str: "text"}[spec.get("type", str)]


@pytest.mark.parametrize("flag", cli.FLAGS)
@pytest.mark.parametrize("verb", cli.VERBS)
def test_every_verb_takes_exactly_its_flags(capsys, verb, flag):
    argv = [verb, f"--{flag}", _sample_value(flag)]
    if flag in (*cli.VERBS[verb].flags, "out", "config"):
        args = cli.build_parser().parse_args(argv)
        value = getattr(args, flag.replace("-", "_"))
        assert value == cli.FLAGS[flag].get("type", str)(_sample_value(flag))
    else:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, flag",
    [("sweep", ["--mc-samples", "10"]), ("plotdata", ["--grid", "11"]),
     ("verify", ["--basis", "chebyshev"]), ("export-mps", ["--resolution", "64"])],
)
def test_a_flag_the_verb_would_ignore_exits_2(tmp_path, capsys, monkeypatch, verb, flag):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3,)])
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(poly_to_dict(constant_poly(make_basis(1, 0, "monomial"), 1.5))))

    def no_work(*args, **kwargs):
        raise AssertionError("work started with a flag the verb does not read")

    for name in ("degree_sweep", "build_problem", "run_report", "eval_poly_grid"):
        monkeypatch.setattr(cli, name, no_work)
    inputs = {
        "sweep": ["--points", str(pts), "--degrees", "2"],
        "export-mps": ["--points", str(pts), "--degree", "2"],
        "plotdata": ["--coeffs", str(coeffs)],
        "verify": ["--coeffs", str(coeffs)],
    }
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([verb, *inputs[verb], *flag, "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ config


def test_config_fills_unset_flags(tmp_path):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3,)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"degree": 3, "grid": 11}))
    out = tmp_path / "out"
    code = main(
        ["export-mps", "--points", str(pts), "--config", str(config),
         "--out", str(out)]
    )
    assert code == 0
    _, _, _, _, col_names = read_mps((out / "problem.mps").read_text())
    assert len(col_names) == 4  # cubic in one variable


def test_explicit_flags_beat_the_config(tmp_path):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3,)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"degree": 3, "grid": 11}))
    out = tmp_path / "out"
    code = main(
        ["export-mps", "--points", str(pts), "--config", str(config),
         "--degree", "2", "--out", str(out)]
    )
    assert code == 0
    _, _, _, _, col_names = read_mps((out / "problem.mps").read_text())
    assert len(col_names) == 3


def test_unknown_config_key_exits_2(tmp_path):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3,)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"degre": 3}))
    code = main(
        ["export-mps", "--points", str(pts), "--degree", "2", "--config",
         str(config), "--out", str(tmp_path / "out")]
    )
    assert code == 2


def test_one_config_serves_fit_sweep_and_verify(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(-0.5,), (0.0,), (0.25,)])
    settings = {"points": str(pts), "mc-samples": 2000, "degree": 2, "degrees": "2,4",
                "grid": 101, "resolution": 64}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    fit_out, sweep_out = tmp_path / "fit", tmp_path / "sweep"
    assert main(["fit", "--config", str(config), "--out", str(fit_out)]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(sweep_out)]) == 0
    verify = ["verify", "--coeffs", str(fit_out / "coeffs.json"), "--config", str(config)]
    assert main([*verify, "--out", str(tmp_path / "verify")]) == 0

    # verify reads mc-samples and points from the file and skips degree,
    # degrees and grid, so it repeats the fit's report byte for byte
    verified = (tmp_path / "verify" / "report.json").read_bytes()
    assert verified == (fit_out / "report.json").read_bytes()
    degrees = [line.split(",")[0] for line in (sweep_out / "sweep.csv").read_text().splitlines()]
    assert degrees == ["degree", "2", "4"]
    assert "containment holds" in capsys.readouterr().out

    # a key that names no flag of any verb is still refused
    config.write_text(json.dumps({**settings, "degre": 3}))
    for argv in (["fit", "--config", str(config)], ["sweep", "--config", str(config)], verify):
        assert main([*argv, "--out", str(tmp_path / "refused")]) == 2
        assert capsys.readouterr().err == "error: config key 'degre' is not a recognized option\n"


@pytest.mark.parametrize("key", ["func", "command", "help"])
def test_config_keys_must_name_a_flag(tmp_path, capsys, key):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3,)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: "fit"}))
    code = main(
        ["export-mps", "--points", str(pts), "--degree", "2", "--config",
         str(config), "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert f"config key {key!r} is not a recognized option" in capsys.readouterr().err


def test_config_must_be_a_json_object(tmp_path):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3,)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps([1, 2, 3]))
    code = main(
        ["export-mps", "--points", str(pts), "--config", str(config),
         "--out", str(tmp_path / "out")]
    )
    assert code == 2


@pytest.mark.parametrize("text", [None, "{degree: 3}"], ids=["missing", "invalid-json"])
def test_an_unreadable_config_exits_2(tmp_path, capsys, text):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3,)])
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text)
    code = main(["fit", "--points", str(pts), "--config", str(config),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load config {config}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_config_values_take_the_flag_types(tmp_path):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3,)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"degree": "3", "grid": "11", "basis": "chebyshev"}))
    out = tmp_path / "out"
    code = main(
        ["export-mps", "--points", str(pts), "--config", str(config), "--out", str(out)]
    )
    assert code == 0
    _, _, _, _, col_names = read_mps((out / "problem.mps").read_text())
    assert len(col_names) == 4


@pytest.mark.parametrize(
    "values, message",
    [
        ({"degree": "nine"}, "config key 'degree': invalid value 'nine'"),
        ({"degree": 2.5}, "config key 'degree': invalid value 2.5"),
        ({"resolution": True}, "config key 'resolution': invalid value True"),
        ({"basis": "legendre"}, "config key 'basis': 'legendre' is not one of"),
    ],
)
def test_invalid_config_values_exit_2(tmp_path, capsys, values, message):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.3,), (-0.2,)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"degree": 2, **values}))
    code = main(
        ["fit", "--points", str(pts), "--config", str(config), "--grid", "21",
         "--mc-samples", "1000", "--out", str(tmp_path / "out")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


def test_verify_and_plotdata_use_the_box_a_monomial_fit_was_made_on(tmp_path):
    # a monomial basis carries no box, so fit and sweep store the inflated
    # box in every coeffs file; an explicit --box still overrides it
    pts = tmp_path / "pts.csv"
    write_points(pts, [(-0.5,), (0.0,), (0.25,)])
    settings = ["--mc-samples", "2000", "--resolution", "64"]
    fit_out = tmp_path / "fit"
    assert main(["fit", "--points", str(pts), "--degree", "4", "--inflate", "1.5", *settings,
                 "--out", str(fit_out)]) == 0
    assert main(["sweep", "--points", str(pts), "--degrees", "2,4", "--inflate", "1.5",
                 "--resolution", "64", "--out", str(tmp_path / "sweep")]) == 0
    stored = {"lower": [-1.5], "upper": [1.5]}
    for path in (fit_out / "coeffs.json", *sorted((tmp_path / "sweep").glob("coeffs_d*.json"))):
        assert json.loads(path.read_text())["box"] == stored, path.name
    coeffs = str(fit_out / "coeffs.json")

    def verify(*flags):
        out = tmp_path / f"verify{len(flags)}"
        assert main(["verify", "--coeffs", coeffs, *flags, *settings, "--out", str(out)]) == 0
        return (out / "report.json").read_text()

    fitted = (fit_out / "report.json").read_text()
    assert json.loads(fitted)["w"] == pytest.approx(1.679575839956412, rel=1e-9)
    assert verify() == fitted
    assert json.loads(verify("--box=-1,1"))["w"] == pytest.approx(1.5650246759548034, rel=1e-9)
    plot = tmp_path / "plot"
    assert main(["plotdata", "--coeffs", coeffs, "--resolution", "3", "--out", str(plot)]) == 0
    rows = (plot / "plotdata.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["-1.5", "0.0", "1.5"]


@pytest.mark.parametrize("verb", ["verify", "plotdata"])
def test_a_box_other_than_the_chebyshev_basis_box_exits_2(tmp_path, capsys, monkeypatch, verb):
    # moment_vector integrates a Chebyshev basis over its own box only, so
    # --box may only repeat that box
    basis = make_basis(1, 4, "chebyshev", BoxDomain(lower=(-0.5,), upper=(1.0,)))
    coeffs = tmp_path / "coeffs.json"
    p = Polynomial(basis, np.array([0.5, 0.2, 0.9, 0.0, 0.1]))
    coeffs.write_text(json.dumps(poly_to_dict(p)))
    flags = ["--mc-samples", "2000"] if verb == "verify" else []
    output = "report.json" if verb == "verify" else "plotdata.csv"

    def run(name, *box):
        return main([verb, "--coeffs", str(coeffs), *flags, *box, "--out", str(tmp_path / name)])

    assert run("own") == 0 and run("equal", "--box=-0.5,1") == 0
    assert (tmp_path / "equal" / output).read_bytes() == (tmp_path / "own" / output).read_bytes()
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a box the basis is not defined on")

    for name in ("run_report", "eval_poly_grid"):
        monkeypatch.setattr(cli, name, no_work)
    assert run("other", "--box=-3,3") == 2
    assert capsys.readouterr().err == (
        f"error: --box -3,3 differs from the Chebyshev basis box -0.5,1.0 of {coeffs}\n"
    )


@pytest.mark.parametrize("verb", ["plotdata", "verify"])
@pytest.mark.parametrize(
    "content, message",
    [
        (None, ": FileNotFoundError("),
        ("{not json", ": JSONDecodeError("),
        (json.dumps({"kind": "monomial"}), ": KeyError('dimension')"),
        (json.dumps([1, 2]), ": TypeError("),
    ],
)
def test_unreadable_coeffs_exit_2(tmp_path, capsys, verb, content, message):
    coeffs = tmp_path / "coeffs.json"
    if content is not None:
        coeffs.write_text(content)
    code = main([verb, "--coeffs", str(coeffs), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load coeffs {coeffs}") and message in err
    assert err.count("\n") == 1


def test_identical_invocations_write_identical_files(tmp_path):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(-0.5,), (0.0,), (0.25,)])
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            ["fit", "--points", str(pts), "--degree", "2", "--grid", "101",
             "--mc-samples", "2000", "--resolution", "64", "--out", str(out)]
        )
        assert code == 0
        outputs.append(
            ((out / "coeffs.json").read_bytes(), (out / "report.json").read_bytes())
        )
    assert outputs[0] == outputs[1]
    assert not math.isnan(json.loads(outputs[0][1])["w"])


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # Sobol grids are drawn in numpy, so neither the import nor a 3-D fit on a
    # quasi-random grid (and its quasi-random scan) loads scipy.stats, which
    # costs as much to import as the rest of the package
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.1, -0.2, 0.3), (-0.4, 0.5, 0.0), (0.2, 0.2, -0.3)])
    src = str(Path(polycover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["fit", "--points", str(pts), "--grid-samples", "2000", "--degree", "2",
            "--mc-samples", "2000", "--resolution", "64", "--out", str(tmp_path / "out")]
    code = (
        "import sys, polycover.cli\n"
        f"assert polycover.cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "report.json").exists()


def test_import_leaves_scipy_ndimage_unloaded():
    # the 2-D and 3-D component count is numpy's own, so no CLI process pays
    # for importing scipy.ndimage
    src = str(Path(polycover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, polycover.cli\nprint('scipy.ndimage' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_quasirandom_grid_over_the_cap_exits_2(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    write_points(pts, [(0.1, -0.2, 0.3)])
    code = main(
        ["fit", "--points", str(pts), "--degree", "2", "--grid-samples", "10000001",
         "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert "quasi-random grid would hold 10000001 points" in capsys.readouterr().err


def test_resolution_over_the_grid_cap_exits_2(tmp_path, capsys, monkeypatch):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(poly_to_dict(constant_poly(make_basis(2, 2), 1.0))))
    resolution = math.isqrt(MAX_GRID_POINTS) + 1
    real_meshgrid = np.meshgrid

    def meshgrid_within_the_cap(*axes, **kwargs):
        # a grid of points over the cap fails the test instead of being built
        assert math.prod(len(a) for a in axes) <= MAX_GRID_POINTS
        return real_meshgrid(*axes, **kwargs)

    monkeypatch.setattr(np, "meshgrid", meshgrid_within_the_cap)
    limit = f"would hold {resolution**2} points (limit {MAX_GRID_POINTS})"
    common = ["--coeffs", str(coeffs), "--resolution", str(resolution), "--out", str(tmp_path)]
    assert main(["verify", "--mc-samples", "1000"] + common) == 2
    assert f"component grid {limit}" in capsys.readouterr().err
    assert main(["plotdata"] + common) == 2
    assert f"plot grid {limit}" in capsys.readouterr().err


def test_traced_benchmark_names_resolve_in_the_package(monkeypatch, tmp_path):
    # bench/tracing.py wraps each TRACED name through getattr on its module,
    # so deleting or renaming one of these functions breaks the traced run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    for module, names in tracing.TRACED.items():
        package_module = importlib.import_module(f"polycover.{module}")
        for name in names:
            assert callable(getattr(package_module, name, None)), f"polycover.{module}.{name}"

    # its hooks read the arguments the package passes (lp.solve's reads
    # problem.A), so a call they cannot read must fail here, not in the
    # benchmark: a small sweep and fit run under them through cli.main
    pts = tmp_path / "pts.csv"
    write_points(pts, cluster_point_array().tolist())
    common = ["--points", str(pts), "--grid", "21", "--resolution", "64"]
    tracer = tracing.Tracer()
    with tracing.traced(tracer, 2):
        assert cli.main(["sweep", "--degrees", "2,5", *common, "--out", str(tmp_path / "s")]) == 0
        assert cli.main(["fit", "--degree", "5", "--mc-samples", "1000", *common,
                         "--out", str(tmp_path / "f")]) == 0
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "fitting.degree_sweep", "fitting.fit", "fitting.build_grid"} <= names
    assert tracing.layer_metrics(tracer.spans, (2, 5))["fitting.grid_points"] == 2 * 21**2

    # fit_s and verify_s come from timers bound only in cli's namespace: a
    # call that cli stops making through those names would read 0 s there
    tracer = tracing.Tracer()
    with tracing.untraced_timers(tracer):
        assert cli.main(["sweep", "--degrees", "2,5", *common, "--out", str(tmp_path / "s2")]) == 0
        assert cli.main(["fit", "--degree", "5", "--mc-samples", "1000", *common,
                         "--out", str(tmp_path / "f2")]) == 0
    timed = ("fitting.fit", "fitting.degree_sweep", "verification.run_report",
             "verification.count_components")
    assert {span.name for span in tracer.spans} == set(timed)
    assert all(tracer.seconds(name) > 0.0 for name in timed)
