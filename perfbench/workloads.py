"""The benchmark workloads: inputs drawn from a seed, set-up, run and check.

Every workload uses the constant speed profile and damping mu = 4.  The seed
draws only amplitudes from narrow ranges; grid, box, end time and data
widths are fixed, so the work a run does is the same for every seed.

Why each workload exists, and what a change should move on it:

* ``semilinear_3d``: n=3, N=32, signed power p=2, amplitude 0.1, T=0.5.
  The most redundant multiplier work: 17,408 modes per call, 3.5% of them
  distinct (``multipliers.unique_frac``), all on the power-series branch of
  ``specfun``.  Deduplicating |xi| moves ``specfun.points`` and ``wall_s``
  here first; per-time-node reuse lowers ``specfun.calls`` per
  ``solver.steps``; a spectral-state stepper lowers ``solver.fft_calls`` per
  step.
  Check: no blow-up, finite norms, max ``cone_excess`` <= 1e-3.
* ``radial_decay``: the AC-3 decay series with spectra
  ``gaussian_spectrum(1, 1)`` and ``(0.7, 1.2)`` on 31 log-spaced times
  from 1 to 1e3.  No grid and no FFT; ``tau`` reaches ~1e4, every |xi| is
  distinct, and ``s = 0`` is fixed, so the ``sigma``-side Bessel values are
  a reuse candidate.  Moves: ``radial.*``, ``specfun.asym_points`` and
  ``ext_points``; deduplication and stepper changes should leave it alone.
  Check: L2 slope -0.5 +- 0.05 and energy slope -1.5 +- 0.05, both
  ``pure_power``.

On every workload ``ode.*`` reads zero today; a change that routes modes to
the oracle fallback shows there first.

There is no scan workload and no linear-path workload.  On a shared 2-vCPU
VM the time to solution of every workload moves by up to 1.5x between host
load phases that last minutes, so the benchmark keeps two workloads and
gives each a long run.  The AC-5 blow-up scan (n=1, N=512) moved by up to
1.6x and ten runs of it did not agree within 25%.  A linear-path workload
(n=2, N=128, zero nonlinearity) was dropped for run length; the one change
only it would show is exact linear jumps lowering ``solver.steps``.

The geometry is smaller than the acceptance tests use (AC-3 runs 81 times
to t = 1e4) so that one instance takes 2-3 s and a timed run can repeat it;
the branch mix and the kind of check are the same.

Functions here receive plain inputs and import dampwave lazily, so the
runner can draw inputs without importing the package.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

MU = 4.0
CONSTANT = {"kind": "constant"}


@dataclass(frozen=True)
class Workload:
    name: str
    op: tuple  # (module, function) whose calls are the timed operations
    inputs: Callable  # random.Random -> dict of JSON-safe inputs
    setup: Callable  # inputs -> state; imports and validates
    run: Callable  # (state, outdir) -> result; writes the CSV outputs
    check: Callable  # result -> list of failure messages
    unique_frac: Callable  # state -> distinct |xi| over modes, from the inputs


def _jitter(rng, centre, rel):
    return centre * rng.uniform(1.0 - rel, 1.0 + rel)


def _touch_grid(cfg):
    """First touch of the lazily cached grid arrays and the initial data."""
    from dampwave import solver

    grid = cfg.grid
    grid.xi, grid.radius, grid.dealias_mask
    solver.make_initial_data(grid, cfg.data.kind, cfg.data.amplitude,
                             cfg.data.width, cfg.data.seed)


def _grid_unique_frac(grid):
    import numpy as np

    return len(np.unique(grid.xi)) / grid.xi.size


def _sim_config(n, N, nonlinearity, amplitude, T):
    return {"profile": CONSTANT, "mu": MU, "grid": {"n": n, "N": N},
            "nonlinearity": nonlinearity,
            "data": {"kind": "gaussian", "amplitude": amplitude, "width": 1.0},
            "T": T}


def _sim_setup(raw):
    from dampwave import config

    cfg = config.validate_config(raw)
    _touch_grid(cfg)
    return {"cfg": cfg}


def _sim_run(state, outdir):
    from dampwave import solver

    series, final = solver.simulate(state["cfg"])
    series.to_csv(os.path.join(outdir, "series.csv"))
    return series, final


def _sim_failures(series, final, cone_max):
    import numpy as np
    from dampwave import solver

    failures = []
    if isinstance(final, solver.BlowupRecord):
        failures.append(f"unexpected blow-up at t={final.t_star}: {final.reason}")
    for name, vals in series.tracks.items():
        if not np.all(np.isfinite(vals)):
            failures.append(f"track {name} is not finite")
    cone = float(np.max(series.tracks["cone_excess"]))
    if not cone <= cone_max:
        failures.append(f"max cone_excess {cone:.3g} > {cone_max:g}")
    return failures


# -- semilinear_3d -----------------------------------------------------------

def _semi_inputs(rng):
    return {"amplitude": _jitter(rng, 0.1, 0.05)}


def _semi_setup(inputs):
    return _sim_setup(_sim_config(3, 32, {"form": "signed_power", "p": 2.0},
                                  inputs["amplitude"], 0.5))


def _semi_check(result):
    return _sim_failures(*result, cone_max=1e-3)


# -- radial_decay ------------------------------------------------------------

def _radial_inputs(rng):
    return {"a0": _jitter(rng, 1.0, 0.05), "a1": _jitter(rng, 0.7, 0.05)}


def _radial_setup(inputs):
    import numpy as np
    from dampwave import profiles, radial

    return {"profile": profiles.constant_profile(),
            "v0": radial.gaussian_spectrum(inputs["a0"], 1.0),
            "v1": radial.gaussian_spectrum(inputs["a1"], 1.2),
            "times": np.geomspace(1.0, 1.0e3, 31)}


def _radial_run(state, outdir):
    from dampwave import radial

    series = radial.linear_decay_series(MU, state["profile"], state["v0"],
                                        state["v1"], state["times"])
    series.to_csv(os.path.join(outdir, "series.csv"))
    return series


def _radial_check(series):
    from dampwave import analysis

    failures = []
    for track, alpha in (("L2", 0.5), ("energy", 1.5)):
        fit = analysis.fit_decay(series, track)
        if fit.model != "pure_power" or not abs(fit.alpha - alpha) <= 0.05:
            failures.append(f"{track} fit {fit.model} slope -{fit.alpha:.4f}, "
                            f"want pure_power -{alpha} +- 0.05")
    return failures


WORKLOADS = {w.name: w for w in (
    Workload("semilinear_3d", ("solver", "duhamel_step"), _semi_inputs, _semi_setup,
             _sim_run, _semi_check, lambda s: _grid_unique_frac(s["cfg"].grid)),
    # quadrature nodes are strictly increasing, so every |xi| is distinct
    Workload("radial_decay", ("radial", "linear_norm_radial"), _radial_inputs,
             _radial_setup, _radial_run, _radial_check, lambda s: 1.0),
)}
