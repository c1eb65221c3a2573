"""One benchmark instance: set up, run and check one workload in this process.

Usage: ``python3 perfbench/worker.py '<json spec>'`` with the spec keys
``workload``, ``inputs``, ``trace`` and ``workdir``.  The runner starts a
fresh worker per instance, so imports, lazy grid properties and any cache
the package keeps start cold every time.  The last line of standard output
is one JSON object with the instance's timings, its failures, the digest of
the CSV files it wrote and, when traced, its per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

from layers import Tracer, install, metrics
from workloads import WORKLOADS

_OP_CALIBRATION_CALLS = 20000


class OpTimer:
    """The one wrapper of an untraced run: a duration per operation call."""

    def __init__(self):
        self.ns = []

    def wrap(self, fn):
        ns = self.ns
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ns.append(clock() - t0)

        return timed


def _op_wrapper_cost_ns():
    """Mean cost of one OpTimer wrapper call, from a wrapped no-op."""

    def noop():
        return None

    wrapped = OpTimer().wrap(noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for _ in range(_OP_CALIBRATION_CALLS):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(_OP_CALIBRATION_CALLS):
            wrapped()
        t2 = time.perf_counter_ns()
        best = min(best, ((t2 - t1) - (t1 - t0)) / _OP_CALIBRATION_CALLS)
    return best


def _digest(outdir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def run_instance(spec):
    workload = WORKLOADS[spec["workload"]]
    tracer = Tracer() if spec["trace"] else None
    timer = OpTimer()
    out = {"trace": bool(tracer)}

    span = tracer.root if tracer else contextlib.nullcontext
    t0 = time.perf_counter()
    with span():
        import dampwave

        if tracer:
            out["missing_hooks"] = install(tracer)
        else:
            module = getattr(dampwave, workload.op[0])
            setattr(module, workload.op[1], timer.wrap(getattr(module, workload.op[1])))
        state = workload.setup(spec["inputs"])
    out["setup_s"] = time.perf_counter() - t0

    outdir = tempfile.mkdtemp(prefix="instance-", dir=spec["workdir"])
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        with span():
            result = workload.run(state, outdir)
            failures = workload.check(result)
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = time.process_time() - c0
        out["csv_sha256"] = _digest(outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["failures"] = failures

    if tracer:
        layer = metrics(tracer)
        covered = sum(tracer.self_ns.values()) / 1e9
        total = out["setup_s"] + out["wall_s"]
        layer["trace.coverage_err"] = abs(total - covered) / total
        layer["trace.open_spans"] = tracer.open_spans
        out["layers"] = layer
        out["unique_frac_direct"] = workload.unique_frac(state)
    else:
        out["op_ns"] = timer.ns
        out["op_wrapper_ns"] = _op_wrapper_cost_ns()

    import numpy as np

    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "threads": _threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "DAMPWAVE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS")},
    }
    return out


def main():
    spec = json.loads(sys.argv[1])
    try:
        out = run_instance(spec)
    except Exception:  # an instance that raises is a failed run, reported
        out = {"failures": ["raised: " + traceback.format_exc(limit=4)]}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
