"""Benchmark of the polycover command line, end to end and per module.

Run from the root of a source checkout:

    python3 bench/run.py --workload cluster-sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

One invocation runs one workload in this process: it writes the workload's
points file from the seed, then calls ``polycover.cli.main`` in a closed loop,
one call at a time, for ``--seconds`` (and at least two calls).
Every call's outputs are checked.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics, with ``--trace 1`` the
per-module metrics of a separate traced run.  End-to-end times are scaled to
a reference machine speed (calibration.py).  The line before the result is a
JSON record of the run's context, sample counts, unscaled wall times, failed
checks and, for the traced cheb3d-fit run, the W3 record.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# At least two calls per untraced run: a median, and a repeat to compare
# outputs with.
MIN_CALLS = 2
CHILD_TIMEOUT_S = 170


def blas_threads() -> int:
    # One thread: the workloads' BLAS calls are small (one and two threads
    # time the same), and a second thread only adds scheduler noise on a
    # machine of few, shared cores.
    return 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def summary(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def time_setup(repeats: int, calibration) -> list[dict]:
    """Wall time of `import polycover.cli` in fresh interpreters, with the
    calibration scale of each."""
    cmd = [sys.executable, "-c", "import polycover.cli"]
    env = child_env()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        seconds = time.perf_counter() - start
        samples.append({"setup_s": seconds, "scale": calibration.scale(seconds)})
    return samples


def import_split(repeats: int) -> dict[str, list[float]]:
    """Cumulative import times from `python -X importtime`, in seconds."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import polycover.cli"]
    env = child_env()
    split = {"import.polycover_s": [], "import.scipy_stats_s": []}
    for _ in range(repeats):
        err = subprocess.run(
            cmd, env=env, check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        ).stderr
        cumulative: dict[str, int] = {}
        for line in err.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2].strip()
            cumulative[name] = max(cumulative.get(name, 0), int(fields[1]))
        package = [us for name, us in cumulative.items() if name.split(".")[0] == "polycover"]
        split["import.polycover_s"].append(max(package) / 1e6)
        split["import.scipy_stats_s"].append(cumulative.get("scipy.stats", 0) / 1e6)
    return split


class Runner:
    """Runs one workload's CLI calls and checks their outputs."""

    def __init__(self, workload, seed: int, work: Path):
        import polycover.cli
        from workloads import write_points
        from tracing import Tracer

        self.cli = polycover.cli
        self.workload = workload
        self.points = workload.points(seed)
        self.points_file = work / "points.csv"
        write_points(self.points, self.points_file)
        self.work = work
        self.tracer = Tracer()
        self.reference: dict[str, str] | None = None
        self.calls = 0
        self.problems: list[str] = []

    def call(self, argv: list[str]) -> tuple[int, float, str]:
        """One CLI call with its output captured; returns code, seconds, stderr."""
        self.tracer.reset()
        # Collect the previous call's garbage outside the timed region.
        gc.collect()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed call, not a dead benchmark
                traceback.print_exc()
                code = -1
            seconds = time.perf_counter() - start
        return code, seconds, err.getvalue()

    def op(self) -> dict:
        """One checked call of the workload; returns its timings."""
        from workloads import check_outputs, output_digests

        out = self.work / f"out{self.calls}"
        self.calls += 1
        code, seconds, err = self.call(self.workload.argv(self.points_file, out))
        verify = "verification.run_report" if self.workload.verb == "fit" else "verification.count_components"
        sample = {
            "total_s": seconds,
            "fit_s": self.tracer.seconds("fitting.fit", "fitting.degree_sweep"),
            "verify_s": self.tracer.seconds(verify),
            "spans": list(self.tracer.spans),
        }
        self.tracer.enabled = False
        try:
            problems = check_outputs(self.workload, code, out, self.points)
            if code == 0:
                digests = output_digests(out)
                if self.reference is None:
                    self.reference = digests
                elif digests != self.reference:
                    changed = sorted(k for k in digests.keys() | self.reference.keys()
                                     if digests.get(k) != self.reference.get(k))
                    problems.append(f"outputs differ from the first call: {changed}")
        finally:
            self.tracer.enabled = True
        if problems:
            self.problems.append(f"call {self.calls}: " + "; ".join(problems) + (f" [{err.strip()[-300:]}]" if err.strip() else ""))
        sample["failed"] = bool(problems)
        shutil.rmtree(out, ignore_errors=True)
        return sample

    def loop(self, seconds: float, min_calls: int, calibration=None) -> list[dict]:
        """Calls until the next one, at the median call time so far, would
        end after `seconds`; at least `min_calls` calls.  With a calibration,
        each sample gets its scale."""
        samples = []
        start = time.perf_counter()
        while len(samples) < min_calls or (
            time.perf_counter() - start + statistics.median(s["total_s"] for s in samples) <= seconds
        ):
            sample = self.op()
            if calibration is not None:
                sample["scale"] = calibration.scale(sample["total_s"])
            samples.append(sample)
        return samples

    def w3(self) -> dict:
        """W3: the Chebyshev degree-14 cluster sweep, run once, untimed by layer."""
        from workloads import W3_ARGS, cluster_cloud, write_points

        points_file = self.work / "w3.csv"
        write_points(cluster_cloud(), points_file)
        self.tracer.enabled = False
        try:
            code, seconds, err = self.call(["sweep", "--points", str(points_file), *W3_ARGS,
                                            "--out", str(self.work / "w3")])
        finally:
            self.tracer.enabled = True
        lines = err.strip().splitlines()
        return {
            "exit_code": code,
            "status": "certified" if code == 0 else "failed",
            "message": lines[0] if lines else "",
            "seconds": seconds,
        }


def untraced_run(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    """End-to-end metrics: setup in fresh interpreters, then timed calls.
    Each time is scaled to the reference machine speed (see calibration.py);
    the record keeps the wall times."""
    from calibration import REFERENCE_UNIT_S, Calibration
    from tracing import untraced_timers

    calibration = Calibration()
    setup = time_setup(SETUP_REPEATS, calibration)
    with untraced_timers(runner.tracer):
        samples = runner.loop(seconds, MIN_CALLS, calibration)
    wall, series = {}, {}
    for key, runs in (("setup_s", setup), ("total_s", samples), ("fit_s", samples), ("verify_s", samples)):
        wall[key] = [s[key] for s in runs]
        series[key] = [s[key] * s["scale"] for s in runs]
    metrics = {k: statistics.median(v) for k, v in series.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, samples, {
        "samples": {k: summary(v) for k, v in series.items()},
        "wall": {k: summary(v) for k, v in wall.items()},
        "calibration": {"reference_unit_s": REFERENCE_UNIT_S, "unit_s": summary(calibration.units)},
    }


def traced_run(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics: untraced calls for half the time, traced calls for
    the other half, then W3 on the Chebyshev workload."""
    from tracing import layer_metrics, traced, untraced_timers
    from workloads import ALL_DEGREES, W3_WORKLOAD

    series = import_split(IMPORT_REPEATS)
    with untraced_timers(runner.tracer):
        plain = runner.loop(seconds / 2, 1)
    with traced(runner.tracer, runner.workload.dimension):
        samples = runner.loop(seconds / 2, 1)
    per_call = [layer_metrics(s["spans"], ALL_DEGREES) for s in samples]
    for key in per_call[0]:
        series[key] = [m[key] for m in per_call]
    series["trace.total_s"] = [s["total_s"] for s in samples]
    metrics = {k: statistics.median(v) for k, v in series.items()}
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - statistics.median(
        s["total_s"] for s in plain
    )
    record = {
        "samples": {
            **{f"untraced_{k}": summary([s[k] for s in plain]) for k in ("total_s", "fit_s", "verify_s")},
            "traced_calls": len(samples),
            "import_repeats": IMPORT_REPEATS,
        }
    }
    w3 = runner.w3() if runner.workload.name == W3_WORKLOAD else None
    record["w3"] = w3 or "not run in this workload"
    metrics["w3.ran"] = int(w3 is not None)
    metrics["w3.failed"] = int(w3 is not None and w3["status"] == "failed")
    metrics["w3.s"] = w3["seconds"] if w3 else 0.0
    return metrics, plain + samples, record


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import polycover

    if Path(polycover.__file__).resolve().parent != SRC / "polycover":
        print(f"polycover imported from {polycover.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    record = {
        "workload": name,
        "context": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
        },
    }
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(WORKLOADS[name], seed, work)
        metrics, samples, extra = (traced_run if trace else untraced_run)(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    failed = sum(s["failed"] for s in samples)
    record.update(extra, attempted=len(samples), failed_frac=failed / len(samples),
                  problems=runner.problems[:10])
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s") or ".solve_s." in metric or metric in ("lp.s_per_iter", "w3.s"):
        return "s"
    if metric.endswith("_mb_computed") or metric.endswith("_mb"):
        return "MiB"
    return "count"


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints one table."""
    from workloads import WORKLOADS

    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])
        print(f"== {name}: {result['failed']} of {result['attempted']} calls failed")
        for problem in record["problems"]:
            print(f"   {problem}")
        if "w3" in record:
            print(f"   w3: {record['w3']}")
        for key, entry in result["metrics"].items():
            print(f"   {key:32s} {entry['value']:14.6g} {entry['unit']}")
            metrics[f"{name}.{key}"] = entry
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    # BLAS reads these once, when numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads())
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polycover" / "cli.py").is_file():
        print(f"no polycover sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
