"""Per-layer tracing of dampwave from outside the package.

The tracer replaces module and class attributes with wrappers that open a
span per call.  A span's self time is its duration minus the time its child
spans cover, so the self times of all layers add up to the traced interval.
Each wrapper patches the name the caller actually looks up: ``multipliers``
binds ``_jy``/``jy_extended`` at import and ``radial`` binds
``phi_values_grid``, so those bindings are patched rather than the
definitions in ``specfun``/``multipliers``.  ``Grid.fft``/``ifft``,
``NonlinearitySpec.g``/``prefactor``, ``NormSeries.to_csv`` and the
``SpeedProfile`` methods are patched on the class.

Bookkeeping done for the counters (array sizes, distinct |xi|) runs outside
the span clocks and is charged to the ``trace`` layer, and the root spans
around set-up and the workload are charged to ``bench``.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

_clock = time.perf_counter_ns

# span layer -> reported self-time metric
SELF_METRICS = {
    "specfun": "specfun.self_s",
    "multipliers": "multipliers.self_s",
    "ode": "ode.self_s",
    "solver": "solver.self_s",
    "solver.fft": "solver.fft_s",
    "solver.nonlin": "solver.nonlin_s",
    "solver.norms": "solver.norms_s",
    "radial": "radial.self_s",
    "analysis.fit": "analysis.fit_s",
    "analysis.csv": "analysis.csv_s",
    "config": "config.validate_s",
    "profiles": "profiles.self_s",
    "trace": "trace.self_s",
    "bench": "bench.self_s",
}

COUNTS = (
    "specfun.calls", "specfun.points", "specfun.series_points",
    "specfun.asym_points", "specfun.ext_points",
    "multipliers.calls", "multipliers.modes", "multipliers.unique_modes",
    "multipliers.fallback_modes",
    "ode.calls", "ode.rhs_evals",
    "solver.steps", "solver.fft_calls", "solver.norms_calls",
    "radial.calls", "radial.quad_points",
    "analysis.fit_calls",
    "profiles.calls",
)

# values that must repeat exactly between two traced runs of one seed
EXACT_METRICS = COUNTS + ("multipliers.unique_frac", "solver.dt_min", "solver.dt_max")


class Tracer:
    """Span stack with per-layer self time and named counters."""

    def __init__(self):
        self._stack = []  # one frame per open span
        self.self_ns = Counter()
        self.counts = Counter()
        self.dt = []

    @contextmanager
    def span(self, layer):
        """Time a span of ``layer``; its self time excludes nested spans."""
        frame = [0]  # time covered by child spans
        self._stack.append(frame)
        t0 = _clock()
        try:
            yield
        finally:
            duration = _clock() - t0
            self._stack.pop()
            self.self_ns[layer] += duration - frame[0]
            if self._stack:
                self._stack[-1][0] += duration

    def root(self):
        """A ``bench`` span around set-up or the workload."""
        return self.span("bench")

    def _bookkeeping(self, fn, *args):
        with self.span("trace"):
            return fn(*args)

    def wrap(self, fn, layer, count=None, pre=None):
        """Wrap ``fn`` in a span of ``layer``.

        ``count`` names a counter bumped per call; ``pre(args, kwargs)`` runs
        outside the span and may return replacement ``(args, kwargs)``.
        """
        tracer = self

        def traced(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            if pre is not None:
                replaced = tracer._bookkeeping(pre, args, kwargs)
                if replaced is not None:
                    args, kwargs = replaced
            with tracer.span(layer):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @property
    def open_spans(self):
        return len(self._stack)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer):
    """Patch every layer boundary of dampwave; returns the names not found."""
    import numpy as np
    from dampwave import _ode, analysis, config, multipliers, profiles, radial, solver, specfun

    missing = []
    series_switch = getattr(specfun, "_SERIES_SWITCH", 16.0)
    tau_fallback = getattr(multipliers, "TAU_FALLBACK", float("inf"))
    counts = tracer.counts

    def patch(owner, attr, layer, **hooks):
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{owner.__name__}.{attr}")
        else:
            setattr(owner, attr, tracer.wrap(fn, layer, **hooks))

    # specfun, at the names multipliers looks up
    def specfun_points(extended):
        def pre(args, kwargs):
            tau = np.asarray(_arg(args, kwargs, 1, "tau"))
            series = int(np.count_nonzero(tau < series_switch))
            counts["specfun.points"] += tau.size
            counts["specfun.series_points"] += series
            counts["specfun.asym_points"] += tau.size - series
            if extended:
                counts["specfun.ext_points"] += tau.size
        return pre

    patch(multipliers, "_jy", "specfun", count="specfun.calls", pre=specfun_points(False))
    patch(multipliers, "jy_extended", "specfun", count="specfun.calls",
          pre=specfun_points(True))

    # multipliers; profile values for the fallback count come from the
    # unwrapped method so that bookkeeping does not count as profile calls
    Lambda_at = profiles.SpeedProfile.Lambda_at
    last_unique = [None, 0]  # grids pass the same cached xi array every call

    def distinct(xi):
        if xi is last_unique[0]:
            return last_unique[1]
        flat = xi.ravel()
        if np.all(flat[1:] > flat[:-1]):
            n = flat.size
        else:
            n = len(np.unique(flat))
        last_unique[:] = [xi, n]
        return n

    def modes(radial_call):
        def pre(args, kwargs):
            xi = np.asarray(_arg(args, kwargs, 4, "xi"), dtype=float)
            counts["multipliers.modes"] += xi.size
            counts["multipliers.unique_modes"] += distinct(xi)
            if xi.size:
                tau = xi * float(Lambda_at(_arg(args, kwargs, 1, "profile"),
                                           _arg(args, kwargs, 3, "t")))
                counts["multipliers.fallback_modes"] += int(np.count_nonzero(tau > tau_fallback))
            if radial_call:
                counts["radial.quad_points"] += xi.size
        return pre

    patch(multipliers, "phi_values_grid", "multipliers", count="multipliers.calls",
          pre=modes(False))
    patch(radial, "phi_values_grid", "multipliers", count="multipliers.calls",
          pre=modes(True))

    # the oracle fallback: count right-hand-side evaluations
    def ode_rhs(args, kwargs):
        rhs = args[0]

        def counted(x, y):
            counts["ode.rhs_evals"] += 1
            return rhs(x, y)

        return (counted,) + tuple(args[1:]), kwargs

    patch(_ode, "integrate_batch", "ode", count="ode.calls", pre=ode_rhs)

    # solver
    def step(args, kwargs):
        tracer.dt.append(float(_arg(args, kwargs, 5, "dt")))

    patch(solver, "duhamel_step", "solver", count="solver.steps", pre=step)
    for name in ("linear_step", "simulate", "make_initial_data", "cone_excess"):
        patch(solver, name, "solver")
    patch(solver, "norms", "solver.norms", count="solver.norms_calls")
    for name in ("fft", "ifft"):
        patch(solver.Grid, name, "solver.fft", count="solver.fft_calls")
    for name in ("g", "prefactor"):
        patch(solver.NonlinearitySpec, name, "solver.nonlin")

    # radial
    patch(radial, "linear_norm_radial", "radial", count="radial.calls")
    patch(radial, "linear_decay_series", "radial")

    # analysis
    patch(analysis, "fit_decay", "analysis.fit", count="analysis.fit_calls")
    patch(analysis.NormSeries, "to_csv", "analysis.csv")

    # config and profiles
    patch(config, "validate_config", "config")
    for name in ("lambda_at", "Lambda_at", "lambda_prime_at"):
        patch(profiles.SpeedProfile, name, "profiles", count="profiles.calls")
    return missing


def metrics(tracer):
    """Per-layer metric values of one traced instance."""
    out = {name: tracer.self_ns[layer] / 1e9 for layer, name in SELF_METRICS.items()}
    out.update({name: tracer.counts[name] for name in COUNTS})
    points = tracer.counts["specfun.points"]
    out["specfun.ns_per_point"] = tracer.self_ns["specfun"] / points if points else 0.0
    modes = tracer.counts["multipliers.modes"]
    out["multipliers.unique_frac"] = (tracer.counts["multipliers.unique_modes"] / modes
                                      if modes else 0.0)
    out["solver.dt_min"] = min(tracer.dt, default=0.0)
    out["solver.dt_max"] = max(tracer.dt, default=0.0)
    return out
