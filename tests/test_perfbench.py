"""The benchmark's layer tracer finds every name it patches in dampwave and
counts the calls, nodes and Bessel points of a radial series and of a
simulate run."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_finds_every_layer_hook():
    # a traced benchmark run counts an instance with a missing hook as
    # failed; install in a subprocess, so that the patches stay out of the
    # other tests
    code = ("import json, sys; sys.path[:0] = ['perfbench', 'src']; "
            "from layers import Tracer, install; print(json.dumps(install(Tracer())))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, check=True, timeout=120)
    assert json.loads(out.stdout.splitlines()[-1]) == []


SERIES_UNDER_TRACER = """
import json, sys
sys.path[:0] = ['perfbench', 'src']
import numpy as np
from dampwave import multipliers, profiles, radial
points = [0]
for name in ('_jy', 'jy_extended'):
    def counted(nu, tau, fn=getattr(multipliers, name)):
        points[0] += np.size(tau)
        return fn(nu, tau)
    setattr(multipliers, name, counted)
from layers import Tracer, install, metrics
tracer = Tracer()
missing = install(tracer)
g = radial.gaussian_spectrum(1.0, 1.0)
radial.linear_decay_series(4.0, profiles.constant_profile(), g, g, [1.0, 10.0, 100.0])
print(json.dumps({"missing": missing, "points": points[0], "metrics": metrics(tracer)}))
"""


def test_tracer_counts_a_radial_series():
    # the radial_decay workload reads these counters: one radial call per
    # output time, its quadrature nodes, one multiplier evaluation per time
    # (radial calls its module binding of phi_values_grid), and every Bessel
    # point and call, which the tracer counts at the multipliers bindings
    out = subprocess.run([sys.executable, "-c", SERIES_UNDER_TRACER], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["missing"] == []
    counted = report["metrics"]
    assert counted["radial.calls"] == 3
    assert counted["radial.quad_points"] > 0
    assert counted["multipliers.calls"] == 3
    assert counted["specfun.points"] == report["points"] > 0
    # the series evaluates its times' Bessel values in batches, not per time
    assert counted["specfun.calls"] <= 4
    # mu = 4 is an integer order: no longdouble point
    assert counted["specfun.ext_points"] == 0


SIMULATE_UNDER_TRACER = """
import json, random, sys
sys.path[:0] = ['perfbench', 'src']
import numpy as np
from dampwave import multipliers, solver
points = [0]
for name in ('_jy', 'jy_extended'):
    def counted(nu, tau, fn=getattr(multipliers, name)):
        points[0] += np.size(tau)
        return fn(nu, tau)
    setattr(multipliers, name, counted)
from layers import Tracer, install, metrics
from workloads import WORKLOADS
tracer = Tracer()
missing = install(tracer)
workload = WORKLOADS['semilinear_3d']
solver.simulate(workload.setup(workload.inputs(random.Random(7)))['cfg'])
print(json.dumps({"missing": missing, "points": points[0], "metrics": metrics(tracer)}))
"""


def test_tracer_counts_a_simulate_run():
    # the semilinear_3d workload reads these counters: two multiplier
    # evaluations per Duhamel step (the solver calls the module binding
    # multipliers.phi_values_grid), and every Bessel point and call, which
    # the store's prefetch makes in one call per precision: float64 alone at
    # the workload's mu = 4
    out = subprocess.run([sys.executable, "-c", SIMULATE_UNDER_TRACER], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["missing"] == []
    counted = report["metrics"]
    assert counted["solver.steps"] > 0
    assert counted["multipliers.calls"] == 2 * counted["solver.steps"]
    assert counted["specfun.points"] == report["points"] > 0
    assert counted["specfun.calls"] == 1 and counted["specfun.ext_points"] == 0
