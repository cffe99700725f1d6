"""Benchmark of the `ramanpa` toolkit: one workload per run, closed loop, one client.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` tree. With `--trace 0` the run measures the end-to-end metrics untraced;
with `--trace 1` it runs the same ops untraced and then traced and reports the
per-layer metrics. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. A fuller result, with machine
details and the bases of every ratio, goes to `.bench_out/` in the checkout,
next to the spans of a traced run. See README.md in this directory.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
TMP = os.path.join(ROOT, ".bench_tmp")
SETUP_SAMPLES = 3

E2E = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
       "peak_rss_mb": "MiB"}


def _parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _set_up(name, seed, tmp):
    """Import the package, generate the inputs and run one untimed warm-up op."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, tmp)
    # the warm-up repeats op 0; its check state is keyed by op, so op 0 of the
    # timed loop replaces it
    inputs = workload.prepare(0)
    errors = workload.check(0, inputs, workload.run(inputs))
    return workload, errors


def _timed_loop(workload, seconds=None, n_ops=None, tracer=None):
    """Run ops back to back; stop after `n_ops`, or once `seconds` have passed
    and the op count is a whole number of workload cycles, at least
    `min_cycles` of them."""
    latencies, failed = [], 0
    start = time.perf_counter()
    min_ops = workload.min_cycles * workload.cycle
    i = 0
    while (i < n_ops if n_ops is not None
           else time.perf_counter() - start < seconds or i % workload.cycle or i < min_ops):
        inputs = workload.prepare(i)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = workload.run(inputs)
        except Exception:  # an op that raises is a failed op, the run goes on
            latencies.append(time.perf_counter() - t0)
            traceback.print_exc()
            failed += 1
            i += 1
            continue
        latencies.append(time.perf_counter() - t0)
        errors = workload.check(i, inputs, result)
        if errors:
            failed += 1
            print(f"op {i} failed: {'; '.join(errors)}", file=sys.stderr)
        i += 1
    return latencies, failed


def _setup_probe(args):
    """Set-up time of a fresh process running the same set-up, in seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def _child_env():
    env = dict(os.environ)
    env.pop("RAMANPA_CONFIG", None)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli_import_probes():
    """`import ramanpa.cli` time in fresh interpreters, and the scipy shares of
    it from `python -X importtime`."""
    env = _child_env()
    code = ("import time; t = time.perf_counter(); import ramanpa.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(3)]
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ramanpa.cli"],
                         env=env, cwd=ROOT, check=True, capture_output=True, text=True)
    cumulative = {}
    for line in res.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {"cli.import_s": statistics.median(times),
            "cli.import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
            "cli.import.scipy_constants_s": cumulative.get("scipy.constants", 0.0)}


def _peak_rss_mb(workload):
    kib = getattr(workload, "peak_rss_kib", None)
    if kib is None:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def _end_to_end(args, workload, setup_errors, setup_main):
    from harness import tail_latency

    latencies, failed = _timed_loop(workload, seconds=args.seconds)
    run_errors = workload.check_run()
    peak = _peak_rss_mb(workload)
    setups = [setup_main] + [_setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    tail, pct, n = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "peak_rss_mb": peak,
    }
    by_label: dict[str, list[float]] = {}
    for i, latency in enumerate(latencies):
        by_label.setdefault(workload.op_label(i), []).append(latency)
    details = {"ops": n, "busy_s": sum(latencies), "op_tail_percentile": pct,
               "fail_ratio": failed / n, "setup_samples_s": setups,
               "op_p50_s_by_kind": {k: statistics.median(v) for k, v in by_label.items()},
               **workload.diagnostics()}
    return metrics, E2E, n, failed, setup_errors + run_errors, details


def _per_layer(args, workload, setup_errors):
    import tracing

    half = args.seconds / 2.0
    plain, failed_plain = _timed_loop(workload, seconds=half)
    n = len(plain)
    if workload.name == "cli_session":
        workload.traced = True
        traced, failed_traced = _timed_loop(workload, n_ops=n)
        spans = workload.spans
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, failed_traced = _timed_loop(workload, n_ops=n, tracer=tracer)
        finally:
            tracer.uninstall()
        spans = tracer.finalize()
    run_errors = workload.check_run()
    extra = {k: v for k, v in workload.diagnostics().items() if k in tracing.PER_LAYER}
    extra["trace.overhead_ratio"] = sum(traced) / sum(plain)
    details = {"ops_per_pass": n, "untraced_s": sum(plain), "traced_s": sum(traced),
               "spans": len(spans), **workload.diagnostics()}
    if workload.name == "cli_session":
        extra.update(_cli_import_probes())
        median_op = statistics.median(plain)
        extra["cli.startup_share"] = extra["cli.import_s"] / median_op
        extra["io.bytes_written"] = statistics.fmean(workload.bytes_written)
        details.update({"startup_share_import_s": extra["cli.import_s"],
                        "startup_share_median_invocation_s": median_op})
    metrics = tracing.per_layer_metrics(spans, n, extra)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(spans, fh)
    units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    return (metrics, units, 2 * n, failed_plain + failed_traced, setup_errors + run_errors,
            details)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "ramanpa", "__init__.py")):
        print(f"error: no ramanpa source tree under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = _parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be > 0 and --seed >= 0", file=sys.stderr)
        return 1
    os.makedirs(TMP, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP)
    try:
        workload, setup_errors = _set_up(args.workload, args.seed, tmp)
        setup_main = time.perf_counter() - _T0
        import ramanpa

        if not os.path.abspath(ramanpa.__file__).startswith(SRC + os.sep):
            print(f"error: ramanpa imported from {ramanpa.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        if args.trace:
            outcome = _per_layer(args, workload, setup_errors)
        else:
            outcome = _end_to_end(args, workload, setup_errors, setup_main)
        metrics, units, attempted, failed, errors, details = outcome
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    from harness import machine_info

    machine = machine_info()
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("machine: " + json.dumps(machine))
    for key, value in details.items():
        print(f"  {key} = {value}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    result = {"correct": failed == 0 and not errors, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": machine, "details": details,
                   "errors": errors}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
