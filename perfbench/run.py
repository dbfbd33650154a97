"""reillylab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Prints a human-readable summary
and, as the last line, one JSON object with "correct", "attempted",
"failed" and "metrics": the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread in this process and every child: with two
# threads ARPACK's shift-invert count and the last digits of lambda2 move.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5

Op = namedtuple("Op", "seconds traced failures facts")



def metric_units(kind):
    """Name -> unit of the "end_to_end" or "per_layer" metrics the
    benchmark declares in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: prepare the inputs, print the seconds since SPAWN_TIME
    # (a perf_counter reading of the parent) and exit
    parser.add_argument("--setup-probe", type=float, default=None,
                        metavar="SPAWN_TIME", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"blas_threads": THREADS, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def setup_seconds(args):
    """Median over fresh processes of process start to inputs ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-probe", repr(spawned)],
            capture_output=True, text=True, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def percentile_line(times):
    """The highest percentile with ten samples beyond it, if any."""
    n = len(times)
    if n < 20:
        return "no percentile with ten samples beyond it (%d ops)" % n
    k = n - 10
    return "p%.0f %.6f s" % (100.0 * k / n, sorted(times)[k - 1])


def timed_op(workload, state, reference, tracer=None):
    """(seconds, failures, facts) for one operation."""
    start = time.perf_counter()
    try:
        result = workload.run(state, tracer)
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - start, ["raised %r" % exc], {}
    seconds = time.perf_counter() - start
    failures, facts = workload.check(result, reference)
    return seconds, failures, facts


def peak_rss_mb(child_kb):
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + child_kb) * 1024 / 1e6


def measure(workload, state, reference, seconds, tracer=None):
    """Closed loop of operations; stops before one would end late.

    Returns one ``Op`` per operation.  With a
    tracer, traced and untraced operations alternate, starting with a
    traced one, and the loop runs at least one of each.
    """
    start = time.perf_counter()
    ops = []
    while True:
        op = len(ops) + 1
        traced = tracer is not None and op % 2 == 1
        if traced:
            restore = spans.install(tracer, layers.TARGETS)
            try:
                with tracer.operation(op):
                    secs, failures, facts = timed_op(workload, state,
                                                     reference, tracer)
            finally:
                restore()
        else:
            secs, failures, facts = timed_op(workload, state, reference)
        for msg in failures:
            print("FAILED op %d: %s" % (op, msg))
        ops.append(Op(secs, traced, failures, facts))
        enough = tracer is None or op >= 2
        if enough and (time.perf_counter() - start
                       + statistics.median(o.seconds for o in ops) > seconds):
            return ops


def report_untraced(args, workload, state, reference, env):
    units = metric_units("end_to_end")
    setup_s = setup_seconds(args)
    ops = measure(workload, state, reference, args.seconds)
    times = [o.seconds for o in ops]
    failed = sum(bool(o.failures) for o in ops)
    relerrs = [o.facts["lambda2_relerr"] for o in ops
               if "lambda2_relerr" in o.facts]
    child_kb = max(o.facts.get("child_maxrss_kb", 0) for o in ops)
    metrics = {
        "op_s": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(child_kb),
        "lambda2_relerr": statistics.median(relerrs) if relerrs else None,
    }
    print("environment %s" % json.dumps(env, sort_keys=True))
    print("op_s median %.6f s over %d ops; %s"
          % (metrics["op_s"], len(times), percentile_line(times)))
    print("op times %s" % " ".join("%.4f" % t for t in times))
    for name, value in metrics.items():
        print("%-16s %s %s" % (name, value, units[name]))
    print("%-16s %s (%d of %d)" % ("failed_frac", failed / len(times),
                                   failed, len(times)))
    return len(times), failed, {name: {"value": metrics[name], "unit": unit}
                                for name, unit in units.items()}


def report_traced(args, workload, state, reference, env):
    tracer = spans.Tracer()
    measured = measure(workload, state, reference, args.seconds, tracer)
    traced = [o.seconds for o in measured if o.traced]
    untraced = [o.seconds for o in measured if not o.traced]
    failed = sum(bool(o.failures) for o in measured)
    for op, o in enumerate(measured, 1):
        if o.traced and "cli.bytes_written" in o.facts:
            tracer.counts[op]["cli.bytes_written"] += \
                o.facts["cli.bytes_written"]
    ops = spans.per_operation(tracer.spans, tracer.counts)
    rows = [layers.layer_values(ops[op]) for op in sorted(ops)]
    # counts repeat exactly, so median_low keeps them whole numbers
    values = {name: (statistics.median_low if isinstance(rows[0][name], int)
                     else statistics.median)([row[name] for row in rows])
              for name in rows[0]}
    values["trace_overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(untraced) - 1.0)
    trace_file = OUT / ("trace-%s-seed%d.json.gz" % (args.workload, args.seed))
    with gzip.open(trace_file, "wt") as fh:
        json.dump(dict(tracer.dump(), environment=env,
                       per_op=[dict(r, op=op) for op, r in
                               zip(sorted(ops), rows)]), fh)
    print("environment %s" % json.dumps(env, sort_keys=True))
    print("traced ops %d, untraced ops %d; spans in %s"
          % (len(traced), len(untraced), trace_file.relative_to(ROOT)))
    print("missing targets: %s" % (", ".join(sorted(tracer.missing))
                                    or "none"))
    for name, value in values.items():
        print("%-28s %s" % (name, value))
    units = metric_units("per_layer")
    return len(measured), failed, {name: {"value": values[name], "unit": unit}
                                   for name, unit in units.items()}


def main(argv):
    args = parse_args(argv)
    if not (ROOT / "src" / "reillylab" / "__init__.py").is_file():
        print("no reillylab sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r (known: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT))
    try:
        state = workload.prepare(args.seed, workdir)
        if args.setup_probe is not None:
            print(time.perf_counter() - args.setup_probe)
            return 0
        env = environment()
        report = report_traced if args.trace else report_untraced
        attempted, failed, metrics = report(args, workload, state,
                                            reference, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
