"""Benchmark of nldiff: one closed-loop workload per process, one caller.

    python3 nldiff_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The seed makes the workload's inputs;
the same seed gives the same ops.  After set-up the fixed op list runs as a
fixed number of whole passes, S divided by the workload's nominal pass time
and rounded, so what a run attempts does not depend on the machine's speed.
Every op's outputs are checked, and the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics of a
run whose layer functions are wrapped in spans.  The metric names and units
are those of ``BENCHMARK.json``.  Details and the span file go to
``nldiff_bench/results/``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one caller and at most nproc threads: BLAS runs single-threaded, fixed
# before numpy loads
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
# set-ups in fresh processes besides the run's own; setup_s is the median
# of all of them, each cold
FRESH_SETUPS = 2
FRESH_SETUP_TIMEOUT_S = 60


def _declared(kind):
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _fail(message):
    print("nldiff_bench: " + message, file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once, print the set-up time and stop
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Runner:
    """Runs one workload's passes and collects op times and outcomes."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.op_times = []
        self.by_label = {}
        self.pass_times = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.errors = []

    def run_op(self, i, timed=True):
        wl = self.workload
        if self.tracer is not None:
            self.tracer.current_op = i
        start = time.perf_counter()
        try:
            outcome = wl.run_op(i)
        except workloads.OpFailed as exc:
            outcome = exc
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.current_op = -1
        if timed:
            self.attempted += 1
            self.op_times.append(elapsed)
            self.by_label.setdefault(wl.ops[i][0], []).append(elapsed)
        if isinstance(outcome, workloads.OpFailed):
            if timed:
                self.failed += 1
            self.failures.append("%s: %s" % (wl.ops[i][0], outcome))
        else:
            self.errors += wl.check_op(i, outcome)
        return elapsed

    def run_pass(self):
        wl = self.workload
        wl.begin_pass()
        total = sum(self.run_op(i) for i in range(len(wl.ops)))
        self.errors += wl.end_pass()
        self.pass_times.append(total)
        return total


def _setup(name, seed, workdir, tracer):
    """Generate inputs, build the space and run one untimed warm-up op."""
    workload = workloads.WORKLOADS[name](seed, workdir)
    runner = Runner(workload, tracer)
    workload.begin_pass()
    runner.run_op(0, timed=False)
    runner.errors += workload.end_pass()
    return workload, runner.errors


def _passes(workload, seconds):
    """Whole passes for a run of ``seconds``: fixed by the nominal pass time."""
    return max(1, int(seconds / workload.PASS_SECONDS + 0.5))


def _fresh_setups(args):
    """Set-up times of fresh processes, each as cold as the run's own."""
    times = []
    for _ in range(FRESH_SETUPS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=FRESH_SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            _fail("set-up in a fresh process failed:\n" + proc.stderr[-2000:])
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def prepare_imports():
    """Put the tree's nldiff and its test generators first on the path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "nldiff", "__init__.py")) or \
            not os.path.isfile(os.path.join(ROOT, "tests", "conftest.py")):
        _fail("run from a source tree holding src/nldiff and tests/conftest.py")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]


def main(argv=None):
    args = _parse(argv)
    prepare_imports()
    global workloads
    import numpy as np
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail("unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)))
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    import_s = time.perf_counter() - _T0

    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    try:
        workload, errors = _setup(args.workload, args.seed, workdir, tracer)
        # set-up: everything in this process before the first timed op
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            workload.close()
            for line in errors[:20]:
                print("check failed: " + line, file=sys.stderr)
            print(json.dumps({"setup_s": setup_s}))
            return 1 if errors else 0
        passes = _passes(workload, args.seconds)
        runner = Runner(workload, None)
        untraced_pass = None
        if tracer is not None:
            # one untraced pass, then the traced ones: their ratio is the
            # tracing overhead
            tracer.uninstall()
            untraced_pass = runner.run_pass()
            tracer.install()
            runner.tracer = tracer
            traced_from = len(tracer.start)
            tracer.counts.clear()
            tracer.op_counts.clear()
            counts_before = dict(workload.counts)
            runner.pass_times.clear()
        for _ in range(passes):
            runner.run_pass()
        workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors += runner.errors

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": BLAS_THREADS,
        "ops_per_pass": len(workload.ops), "passes": passes,
        "op_samples": len(runner.op_times), "import_s": import_s,
        "setup_own_s": setup_s, "pass_s": runner.pass_times,
        "op_s_p50_by_label": {label: statistics.median(times)
                              for label, times in runner.by_label.items()},
        "failures": sorted(set(runner.failures)), "errors": errors[:20],
        "python": platform.python_version(), "numpy": np.__version__,
    }
    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + _fresh_setups(args)
        details["setup_runs_s"] = setups
        metrics = {
            "setup_s": statistics.median(setups),
            "op_s_p50": statistics.median(runner.op_times),
            "ops_per_s": len(workload.ops) * passes / sum(runner.pass_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = _declared("end_to_end")
    else:
        tracer.uninstall()
        units = _declared("per_layer")
        metrics = _layer_metrics(tracer, traced_from, workload, counts_before,
                                 passes, units)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.fmean(runner.pass_times) / untraced_pass - 1.0)
        details["untraced_pass_s"] = untraced_pass
        details["spans"] = len(tracer.start)
        details["counts_per_pass_by_op"] = {
            "%d %s" % (i, workload.ops[i][0]): {
                name: value / passes for name, value in counts.items()}
            for i, counts in sorted(tracer.op_counts.items())}
        tracer.save(os.path.join(RESULTS, "trace_%s.npz" % args.workload))
    if set(metrics) != set(units):
        _fail("measured metrics %s differ from BENCHMARK.json's %s"
              % (sorted(metrics), sorted(units)))
    with open(os.path.join(RESULTS, "%s%s.json" % (
            args.workload, "_trace" if tracer else "")), "w") as fh:
        json.dump({"details": details, "metrics": metrics}, fh, indent=1)
    for line in errors[:20]:
        print("check failed: " + line, file=sys.stderr)
    print("# %s: %d passes, %d ops attempted, %d failed; median op %.4g s"
          % (args.workload, passes, runner.attempted, runner.failed,
             statistics.median(runner.op_times)))
    print(json.dumps({
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_metrics(tracer, traced_from, workload, counts_before, passes,
                   names):
    """Per-layer figures per traced pass; space.build_s per build.

    ``<layer>.self_s`` is a layer's self time; ``<span>_calls`` and
    ``<span>_s`` are the calls and seconds of a span name of ``tracing``;
    any other name is a count kept by the tracer or the workload.
    """
    import numpy as np
    import tracing
    spans = np.arange(len(tracer.start))
    per_span, layer_self = tracing.layer_totals(tracer, spans >= traced_from)
    span_names = {name for _, _, name in tracing.PATCHES}
    counts = dict(tracer.counts)
    for name, value in workload.counts.items():
        counts[name] = value - counts_before.get(name, 0.0)
    out = {}
    for name in names:
        base, _, suffix = name.rpartition("_")
        if name == "trace.overhead_pct":
            continue
        if name == "space.build_s":
            # over the whole run: two workloads build their space only in
            # set-up
            calls, secs, _ = tracing.layer_totals(
                tracer, np.ones(spans.size, dtype=bool))[0]["space.build"]
            out[name] = secs / calls if calls else 0.0
        elif name.endswith(".self_s"):
            out[name] = layer_self.get(name.split(".")[0], 0.0) / passes
        elif suffix in ("calls", "s") and base in span_names:
            calls, secs, _ = per_span.get(base, (0, 0.0, 0.0))
            out[name] = (calls if suffix == "calls" else secs) / passes
        elif suffix in ("calls", "s"):
            _fail("per-layer metric %s names no span of tracing.py" % name)
        else:
            out[name] = counts.get(name, 0.0) / passes
    return out


if __name__ == "__main__":
    sys.exit(main())
