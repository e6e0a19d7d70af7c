"""Benchmark of the ahft CLI pipeline, driven in process.

    python3 perfbench/run.py --workload paper|cohort|screen-wide \
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file, never from an installed copy.  One process, one
thread of work: each pass calls ``ahft.cli.main`` once per operation, in
order (a closed loop with one client), and checks each call's artifacts.
An untimed warm-up pass comes first and fixes the reference artifacts
and counts; timed passes follow until ``--seconds`` would be exceeded.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (a fresh
interpreter until ``import ahft.cli`` returns), ``pass_s`` (one pass),
the per-subcommand ``*_s`` (time inside ``cli.main`` per call) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes and
reports per-layer figures per pass from the spans of ``tracing.py``,
plus ``trace.overhead_s``.  Timings are medians over the run.

Timings are in reference seconds.  The CPU speed of small shared
machines swings by up to a factor of two in phases of seconds to
minutes, which no run length averages out.  So a fixed reference kernel
runs before every call and after the last one, and each call's wall
time is scaled by ``REFERENCE_S`` over the mean of the two kernel runs
around it: the time the call would take on a core where the kernel
takes ``REFERENCE_S``.  The wall-clock median, the highest percentile
with ten samples beyond it and the sample count are printed beside it.

Human-readable lines, including the failure share, go to stdout; the
last line is one JSON object.  A results file with the machine record
goes to ``.perfbench/results/``.  The exit code is 0 only when every
operation and every exact-count guard passed.
"""

from __future__ import annotations

import os

# numpy reads this when it loads: one BLAS thread, so a pass is one thread of work.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from tracing import Tracer, aggregate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 11
# The reference kernel's fastest run time on the machine the benchmark was
# tuned on (Intel Xeon, 2 vCPU, Python 3.11, numpy 2.4).
REFERENCE_S = 0.0021

COMMANDS = ("pca", "fit", "predict", "validate", "curves", "simulate")
END_TO_END = {"setup_s": "s", "pass_s": "s", **{f"{c}_s": "s" for c in COMMANDS},
              "peak_rss_mb": "MB"}
# Exact counts: they must repeat on every pass and agree between the
# counts read back from the artifacts and those the spans observed.
GUARDED = ("alt.iterations", "validation.rows_generated", "validation.rows_evaluated",
           "dataset.csv_bytes_read", "dataset.csv_bytes_written", "alt.sweep_points")
# per-layer metric -> (key in tracing.aggregate's totals, unit, the
# end-to-end metric it should move and on which workload).  Times and
# counts are per pass.
PER_LAYER = {
    "cli.self_s": ("cli.main.self", "s", "every *_s on paper"),
    "cli.artifact_bytes": ("cli.artifact_bytes", "count", "none (count)"),
    "dataset.load_csv_s": ("dataset.load_csv", "s",
                           "fit_s, validate_s, pca_s on cohort; pca_s on screen-wide"),
    "dataset.csv_bytes_read": ("csv_bytes_read", "count", "none (count)"),
    "dataset.load_csv_calls": ("dataset.load_csv.calls", "count", "none (count)"),
    "dataset.serialize_s": ("dataset.serialize", "s", "simulate_s on cohort"),
    "dataset.csv_bytes_written": ("csv_bytes_written", "count", "none (count)"),
    "dataset.column_s": ("dataset.column", "s", "fit_s on cohort; pca_s on screen-wide"),
    "dataset.column_calls": ("dataset.column.calls", "count", "none (count)"),
    "dataset.correlation_s": ("dataset.correlation", "s", "pca_s on screen-wide"),
    "pca.eigen_s": ("pca.eigen", "s", "pca_s on screen-wide (dominant) and paper; nothing on cohort"),
    "pca.run_pca_self_s": ("pca.run_pca.self", "s", "pca_s"),
    "alt.fit_mle_self_s": ("alt.fit_mle.self", "s", "fit_s on cohort"),
    "alt.iterations": ("iterations", "count", "none (count)"),
    "alt.s_per_iteration": ("alt.s_per_iteration", "s", "fit_s on cohort"),
    "alt.loglik_s": ("alt.loglik", "s", "fit_s on cohort"),
    "alt.loglik_bytes": ("alt.loglik_bytes", "bytes", "none (computed bytes)"),
    "alt.model_io_s": ("alt.model_io", "s", "fit_s, predict_s, validate_s, curves_s on paper"),
    "alt.predict_s": ("alt.predict", "s", "predict_s on paper"),
    "alt.sweep_s": ("alt.sweep", "s", "curves_s on cohort"),
    "alt.sweep_points": ("sweep_points", "count", "none (count)"),
    "validation.generate_s": ("validation.generate", "s", "simulate_s on cohort"),
    "validation.rows_generated": ("rows_generated", "count", "none (count)"),
    "validation.evaluate_s": ("validation.evaluate", "s", "validate_s on cohort"),
    "validation.rows_evaluated": ("rows_evaluated", "count", "none (count)"),
    "svg.line_chart_s": ("svg.line_chart", "s", "curves_s on cohort; pca_s on paper"),
    "svg.points": ("points", "count", "none (count)"),
    "trace.overhead_s": (None, "s", "none (traced minus untraced pass_s)"),
}


def reference_kernel() -> float:
    """A fixed mix of the program's kind of work: dicts, float text, numpy."""
    rows = [{"x": i * 0.25, "y": float(i % 7)} for i in range(1600)]
    text = "\n".join(f"{r['x']!r},{r['y'] * 1.5!r}" for r in rows)
    values = [float(cell) for line in text.splitlines() for cell in line.split(",")]
    column = np.array(values)
    for _ in range(20):
        column = np.sqrt(column * column + 1.0)
    return float(column.sum())


def reference_time() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def measure_setup(env) -> tuple[list[float], list[float]]:
    """Reference and wall seconds from spawning an interpreter until
    ``import ahft.cli`` returns."""
    probe = "import time, ahft.cli; print(time.monotonic())"
    scaled, wall = [], []
    before = reference_time()
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        wall.append(float(done.stdout.split()[-1]) - start)
        after = reference_time()
        scaled.append(wall[-1] * 2 * REFERENCE_S / (before + after))
        before = after
    return scaled, wall


def blas_threads():
    for path in sorted(glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype, getter.argtypes = ctypes.c_int, []
                return getter()
    return None


def machine_record(nproc: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "worker_processes": 1,
        "reference_s": REFERENCE_S,
    }


def median(values):
    return statistics.median(values) if values else math.nan


def tail(values):
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 80, 75, 50):
        if n * (1 - p / 100) >= 10:
            return p, sorted(values)[math.ceil(p / 100 * n) - 1]
    return None, None


class Runner:
    def __init__(self, workload, seed, tracer):
        from ahft import cli
        import workloads

        self.cli = cli
        self.tracer = tracer
        work = OUT / "work" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.ops = workloads.WORKLOADS[workload](work, seed, workloads.paper_truth())
        self.reference = {}      # op label -> {file: sha256}
        self.ref_counts = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.guard_errors = []

    def fail(self, op, message):
        self.failures.append(f"{op.label}: {message}")

    def call(self, op, traced):
        stdout, stderr = io.StringIO(), io.StringIO()
        index = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            if traced:
                index = self.tracer.open("cli.main")
            try:
                code = self.cli.main([*op.argv, "--output-dir", str(op.out)])
            except Exception:
                code = None
                traceback.print_exc()
            finally:
                if traced:
                    self.tracer.close(index)
            elapsed = time.perf_counter() - start
        if code != 0:
            self.fail(op, f"exit {code}: {stderr.getvalue().strip()[-400:]}")
        return code == 0, elapsed

    def observe(self, op, counts):
        """Check the artifacts of ``op`` and add its counts read back from them."""
        files = {p.name: p.read_bytes() for p in sorted(op.out.iterdir()) if p.is_file()}
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        reference = self.reference.setdefault(op.label, digests)
        if digests != reference:
            self.fail(op, "artifacts differ from the first pass")
        try:
            if op.check is not None:
                op.check(files)
        except Exception as exc:
            self.fail(op, f"check failed: {exc}")
        counts["cli.artifact_bytes"] += sum(len(d) for d in files.values())
        counts["dataset.csv_bytes_read"] += sum(p.stat().st_size for p in op.reads)
        if op.command == "simulate":
            counts["dataset.csv_bytes_written"] += len(files["synthetic.csv"])
            counts["validation.rows_generated"] += files["synthetic.csv"].count(b"\n") - 1
        elif op.command == "fit":
            counts["alt.iterations"] += json.loads(files["model.json"])["fit_meta"]["iterations"]
        elif op.command == "validate":
            counts["validation.rows_evaluated"] += files["validation.csv"].count(b"\n") - 3
        elif op.command == "curves":
            counts["alt.sweep_points"] += sum(f.count(b"\n") - 1 for name, f in files.items()
                                              if name.endswith(".csv"))

    def loglik_probe(self, first):
        """One public log_likelihood call on the model and data ``fit`` just saw."""
        from ahft import alt

        fit = next(s for s in reversed(self.tracer.spans[first:]) if s.name == "alt.fit_mle")
        data, model = fit.args[0], fit.result
        fit.args = fit.result = None
        value = alt.log_likelihood(model, data)
        if not math.isclose(value, model.fit_meta.log_likelihood, rel_tol=1e-9, abs_tol=1e-9):
            self.guard_errors.append(f"log_likelihood {value!r} != fit's "
                                     f"{model.fit_meta.log_likelihood!r}")
        return 8 * data.n_rows * (len(model.factors) + 2)

    def run_pass(self, traced):
        """One pass: ``[(command, reference s, wall s)]`` and, if traced, its layers."""
        counts = Counter()
        calls = []
        seconds, layer_counts = Counter(), Counter()
        before = reference_time()
        for op in self.ops:
            self.attempted += 1
            failures = len(self.failures)
            first = len(self.tracer.spans)
            ok, elapsed = self.call(op, traced)
            if ok:
                self.observe(op, counts)
            self.failed += len(self.failures) > failures
            if ok and traced and op.command == "fit":
                layer_counts["alt.loglik_bytes"] += self.loglik_probe(first)
            after = reference_time()
            scale = 2 * REFERENCE_S / (before + after)
            before = after
            calls.append((op.command, elapsed * scale, elapsed))
            if traced:
                op_seconds, op_counts = aggregate(self.tracer.spans, first, len(self.tracer.spans))
                seconds.update({key: value * scale for key, value in op_seconds.items()})
                layer_counts.update(op_counts)
        pass_counts = {key: counts[key] for key in GUARDED + ("cli.artifact_bytes",)}
        if self.ref_counts is None:
            self.ref_counts = pass_counts
        elif pass_counts != self.ref_counts:
            self.guard_errors.append(f"counts {pass_counts} differ from the first pass's "
                                     f"{self.ref_counts}")
        if not traced:
            return calls, None
        for key in GUARDED:
            span_key = PER_LAYER[key][0]
            if layer_counts[span_key] != counts[key]:
                self.guard_errors.append(f"{key}: spans saw {layer_counts[span_key]}, "
                                         f"artifacts show {counts[key]}")
        layers = {**seconds, **layer_counts, "cli.artifact_bytes": counts["cli.artifact_bytes"]}
        if layers.get("iterations"):
            layers["alt.s_per_iteration"] = layers["alt.fit_mle.self"] / layers["iterations"]
        return calls, layers


def measure(runner, seconds, trace):
    """Warm-up pass, then timed passes (alternating traced ones if ``trace``)."""
    runner.run_pass(traced=False)
    plain, traced, walls = [], [], []
    start = time.perf_counter()
    while not (plain and (traced or not trace)) or (
            time.perf_counter() - start + median(walls) <= seconds):
        use_trace = trace and len(traced) < len(plain)
        began = time.perf_counter()
        runner.tracer.enabled = use_trace
        result = runner.run_pass(use_trace)
        runner.tracer.enabled = False
        walls.append(time.perf_counter() - began)
        (traced if use_trace else plain).append(result)
    return plain, traced


def pass_seconds(passes, column):
    return [sum(call[column] for call in calls) for calls, _ in passes]


def end_to_end(plain, setup):
    """Reference-second samples and wall-second samples of each metric."""
    scaled, wall = {"setup_s": setup[0]}, {"setup_s": setup[1]}
    for samples, column in ((scaled, 1), (wall, 2)):
        samples["pass_s"] = pass_seconds(plain, column)
        for command in COMMANDS:
            samples[f"{command}_s"] = [call[column] for calls, _ in plain
                                      for call in calls if call[0] == command]
    values = {name: median(v) for name, v in scaled.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values, scaled, wall


def per_layer(plain, traced):
    scaled = {name: [layers.get(key, 0) for _, layers in traced]
              for name, (key, _, _) in PER_LAYER.items() if key is not None}
    # Each traced pass against the untraced pass just before it.
    untraced, with_spans = pass_seconds(plain, 1), pass_seconds(traced, 1)
    scaled["trace.overhead_s"] = [t - u for t, u in zip(with_spans, untraced)]
    return {name: median(v) for name, v in scaled.items()}, scaled


def report(args, nproc, values, units, scaled, wall, runner, plain, traced):
    from workloads import WHY

    print(f"workload {args.workload}: {WHY[args.workload]}")
    print(f"seed {args.seed}, {len(plain)} untraced and {len(traced)} traced passes; "
          f"timings in reference seconds (REFERENCE_S = {REFERENCE_S})")
    for name, value in values.items():
        line = f"  {name:28s} {value:.6g} {units[name]}"
        if units[name] == "s":
            p, at = tail(scaled[name])
            line += f"  median of n={len(scaled[name])}; " + (
                f"p{p:g} {at:.6g} s" if p else "no percentile has 10 samples beyond it")
            if name in wall:
                line += f"; wall-clock median {median(wall[name]):.6g} s"
        print(line)
    print(f"  {'fail_share':28s} {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted})")
    for message in runner.failures + runner.guard_errors:
        print(f"FAILED {message}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(nproc),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "metrics": {name: {"value": values[name], "unit": units[name],
                           "tail": tail(scaled[name]) if name in scaled else None,
                           "samples": scaled.get(name), "wall_samples": wall.get(name)}
                    for name in values},
        "moves": {name: moves for name, (_, _, moves) in PER_LAYER.items()} if args.trace else None,
        "counts": runner.ref_counts,
        "attempted": runner.attempted, "failed": runner.failed,
        "failures": runner.failures, "guard_errors": runner.guard_errors,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "cohort", "screen-wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ahft" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'ahft'} is missing", file=sys.stderr)
        return 2
    # One core for the run and the interpreters it spawns, so that the
    # reference kernel runs at the speed of the calls it scales.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))
    setup = ([], []) if args.trace else measure_setup(env)

    import ahft

    if Path(ahft.__file__).resolve().parent != SRC / "ahft":
        print(f"error: imported ahft from {ahft.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer()
    if args.trace:
        tracer.install()
    runner = Runner(args.workload, args.seed, tracer)
    plain, traced = measure(runner, args.seconds, args.trace)
    tracer.uninstall()

    if args.trace:
        values, scaled = per_layer(plain, traced)
        wall = {}
        units = {name: unit for name, (_, unit, _) in PER_LAYER.items()}
    else:
        values, scaled, wall = end_to_end(plain, setup)
        units = END_TO_END
    report(args, nproc, values, units, scaled, wall, runner, plain, traced)
    correct = not runner.failures and not runner.guard_errors
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
