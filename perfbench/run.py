"""dampwave benchmark: time to a validated solution on two workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed draws the workload's inputs (see workloads.py).  The runner then
starts fresh single-threaded worker processes, one instance each, as long
as the next one is expected to end within ``--seconds`` (and at least five
in all).  Every instance is checked against the workload's acceptance
bounds, and all instances of one seed must write byte-identical CSV
outputs.  An instance that raises, fails its check or breaks determinism
counts as failed.

``--trace 0`` reports the end-to-end metrics over the instances that passed:

* ``wall_s`` (mean): from the first solver or quadrature call until the
  outputs are written and have passed the check;
* ``setup_s`` (median): import of dampwave, config validation and the first
  touch of the lazily cached grid arrays and initial data;
* ``cpu_s`` (mean): process CPU time over the ``wall_s`` interval;
* ``op_p50_ms`` and ``op_tail_ms`` (pooled over the instances): latency of
  one operation, a ``solver.duhamel_step`` call or, for radial_decay, one
  ``radial.linear_norm_radial`` call.  The tail is the
  highest percentile with at least ten samples beyond it in five instances;
  the report names it;
* ``peak_rss_mb`` (median): peak resident set size of the worker.

Instance times within a run are averaged rather than taken as a median
because the host's speed switches between phases that last from seconds to
minutes: on a shared 2-vCPU VM the median of a run's instances jumped with
the phase, while the mean moved in proportion to it.  For the same reason
a run is as long as the time limit allows.

``--trace 1`` alternates untraced and traced instances and reports the
per-layer metrics of layers.py from the traced ones: counts, which must
repeat exactly between traced instances, and self times (medians).  It adds
the tracer's own checks: ``trace.coverage_err`` (layer self times against
the traced interval), ``trace.overhead_s`` (traced minus untraced wall
time) and ``trace.open_spans``.

Everything but the last line of standard output is a JSON report with the
environment, sample counts and failures; the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

from layers import EXACT_METRICS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_INSTANCES = 5
MIN_TRACED = 2
DEADLINE_S = 170.0
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
COVERAGE_TOL = 0.03
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}
WORKER_ENV = {"DAMPWAVE_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


def _loadavg():
    with open("/proc/loadavg") as fh:
        return fh.read().split()[:3]


def tail_percentile(n):
    """Highest listed percentile with at least ten of n samples beyond it."""
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10.0:
            return q
    return 50.0


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_worker(root, spec, timeout):
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": [f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    return json.loads(lines[-1])


def run_instances(root, name, inputs, seconds, trace):
    """Run instances until the time is up; returns them in run order."""
    workdir = os.path.join(HERE, "_work")
    os.makedirs(workdir, exist_ok=True)
    start = time.monotonic()
    instances = []
    durations = []
    try:
        while True:
            elapsed = time.monotonic() - start
            expected = statistics.median(durations) if durations else 0.0
            n_traced = sum(1 for r in instances if r.get("trace"))
            n_plain = len(instances) - n_traced
            if trace:
                enough = n_traced >= MIN_TRACED and n_plain >= 1
                traced_next = n_plain > n_traced
            else:
                enough = len(instances) >= MIN_INSTANCES
                traced_next = False
            if (enough and elapsed + expected > seconds) or elapsed >= DEADLINE_S - 30.0:
                break
            spec = {"workload": name, "inputs": inputs, "trace": traced_next,
                    "workdir": workdir}
            result = run_worker(root, spec, DEADLINE_S - elapsed)
            durations.append(time.monotonic() - start - elapsed)
            result.setdefault("trace", traced_next)
            instances.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return instances


def gate(instances):
    """Mark instances that broke determinism or count repeatability."""
    digests = [r["csv_sha256"] for r in instances if "csv_sha256" in r]
    if digests:
        usual = max(set(digests), key=digests.count)
        for r in instances:
            if r.get("csv_sha256", usual) != usual:
                r["failures"].append("CSV output differs from the other instances")
    traced = [r for r in instances if "layers" in r]
    if traced:
        reference = traced[0]["layers"]
        for r in traced:
            layer = r["layers"]
            diff = [k for k in EXACT_METRICS if layer[k] != reference[k]]
            if diff:
                r["failures"].append(f"counts differ between traced runs: {diff}")
            if abs(layer["multipliers.unique_frac"] - r["unique_frac_direct"]) > 1e-12:
                r["failures"].append(
                    f"unique_frac {layer['multipliers.unique_frac']} != direct "
                    f"{r['unique_frac_direct']}")
            if layer["trace.coverage_err"] > COVERAGE_TOL or layer["trace.open_spans"]:
                r["failures"].append(
                    f"layer self times cover the traced time only to "
                    f"{layer['trace.coverage_err']:.2%} ({layer['trace.open_spans']} open)")
            if r.get("missing_hooks"):
                r["failures"].append(f"layer hooks not found: {r['missing_hooks']}")


def end_to_end(ok):
    ops = [ns / 1e6 for r in ok for ns in r["op_ns"]]
    q = tail_percentile(len(ok[0]["op_ns"]) * MIN_INSTANCES)
    values = {
        "wall_s": statistics.mean(r["wall_s"] for r in ok),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "cpu_s": statistics.mean(r["cpu_s"] for r in ok),
        "op_p50_ms": statistics.median(ops),
        "op_tail_ms": percentile(ops, q),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }
    wrapper_ns = statistics.median(r["op_wrapper_ns"] for r in ok)
    detail = {"op_samples": len(ops), "op_tail_percentile": q,
              "op_wrapper_ns_per_call": wrapper_ns,
              "op_wrapper_share_of_wall": wrapper_ns * 1e-9 * len(ok[0]["op_ns"])
              / values["wall_s"]}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, detail


def per_layer(traced, plain):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    values = {}
    for name in declared:
        samples = [r["layers"][name] for r in traced if name in r["layers"]]
        if not samples:
            continue
        if name in EXACT_METRICS:
            values[name] = samples[0]  # gate() checked that these repeat
        elif name.startswith("trace."):
            values[name] = max(samples)
        else:
            values[name] = statistics.median(samples)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in plain)
    return {k: {"value": values[k], "unit": u} for k, u in declared.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated runner still kills and reaps its worker (subprocess.run
    # does so on any exception)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dampwave", "__init__.py")):
        print("no dampwave sources under src/ in the working directory", file=sys.stderr)
        return 2

    load_start = _loadavg()
    inputs = WORKLOADS[args.workload].inputs(random.Random(args.seed))
    instances = run_instances(root, args.workload, inputs, args.seconds, args.trace)
    for r in instances:
        r.setdefault("failures", [])
    gate(instances)
    ok = [r for r in instances if not r["failures"]]
    failed = len(instances) - len(ok)

    report = {
        "workload": args.workload, "seed": args.seed, "inputs": inputs,
        "trace": args.trace, "instances": len(instances), "failed": failed,
        "failed_frac": failed / len(instances),
        "failures": [r["failures"] for r in instances if r["failures"]],
        "wall_s_each": [(r.get("trace"), r.get("wall_s")) for r in instances],
        "env": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "loadavg_start": load_start, "loadavg_end": _loadavg(),
                "platform": platform.platform(),
                "worker": ok[0]["env"] if ok else None},
    }
    plain = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    if not plain or (args.trace and not traced):
        print(json.dumps(report, indent=1))
        print("too few instances passed their checks", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(traced, plain)
        report["samples"] = len(traced)
    else:
        metrics, report["op_latency"] = end_to_end(plain)
        report["samples"] = len(plain)
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(instances),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
