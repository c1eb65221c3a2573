"""Drivers that run the solver: parameter scans and the GN check.

``run_scan`` runs a grid of simulations and classifies each cell by its
blow-up record or the decay fit of its L2 track; ``gn_verify`` samples
smooth fields on a periodic grid and measures the Gagliardo-Nirenberg
ratio.  Both sit above ``solver``, ``config`` and ``analysis`` and import
them at the top, so the package's import graph has no cycles.
"""

from __future__ import annotations

import concurrent.futures as cf
import copy
import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import analysis, config, solver
from .analysis import _fmt
from .errors import (DegenerateFitError, DomainError, FitWindowError, ResourceCapError,
                     UnsupportedOrderError, ValidationError)
from .multipliers import _check_orders


@dataclass(frozen=True)
class GNReport:
    q: float
    n: int
    theta: float
    count: int
    max_ratio: float
    mean_ratio: float
    scale_residual: float
    refinement_drift: float
    cap: float

    @property
    def passed(self):
        return self.max_ratio <= self.cap

    def as_dict(self):
        return {"q": self.q, "n": self.n, "theta": self.theta, "count": self.count,
                "max_ratio": self.max_ratio, "mean_ratio": self.mean_ratio,
                "scale_residual": self.scale_residual,
                "refinement_drift": self.refinement_drift,
                "cap": self.cap, "passed": self.passed}


def _gn_ratio(grid, u, q, theta):
    vol = grid.cell_volume
    lq = (np.sum(np.abs(u) ** q) * vol) ** (1.0 / q)
    l2 = math.sqrt(np.sum(u**2) * vol)
    grad = math.sqrt(solver._weighted_sq(grid.grad_weight, grid.fft(u)))
    if l2 == 0.0 or grad == 0.0:
        return None
    return lq / (l2 ** (1.0 - theta) * grad**theta)


def gn_verify(q, n, count=100, seed=0, grid_n=256, box=math.pi, width=0.5, cap=100.0):
    """Empirical Gagliardo-Nirenberg check on randomized smooth fields.

    Samples ``count`` seeded mean-zero mode mixes, computes the GN ratio
    R = ||u||_q / (||u||_2^(1-theta) ||grad u||_2^theta), and reports the
    max together with an amplitude-scaling residual (must vanish by
    homogeneity) and the drift of R under trigonometric grid refinement.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    theta = analysis.theta_gn(q, n)
    grid = solver.Grid(n=n, N=grid_n, L=box)
    ratios = []
    first_field = None
    for i in range(count):
        u, _ = solver.make_initial_data(grid, "mode_mix", amplitude=1.0,
                                        width=width, seed=seed + i)
        r = _gn_ratio(grid, u, q, theta)
        if r is None:
            continue
        if first_field is None:
            first_field = u
        ratios.append(r)
    if not ratios:
        raise DegenerateFitError("all sampled fields were zero")

    r1 = _gn_ratio(grid, first_field, q, theta)
    r5 = _gn_ratio(grid, 5.0 * first_field, q, theta)
    scale_resid = abs(r5 - r1) / r1

    fine = solver.Grid(n=n, N=2 * grid_n, L=box)
    uh = grid.fft(first_field)
    uh_fine = np.zeros(fine.spectral_shape, dtype=complex)
    sl = tuple(np.r_[0:grid.N // 2, -(grid.N // 2):0] for _ in range(n - 1))
    idx = np.ix_(*sl, np.arange(grid.N // 2 + 1)) if n > 1 else np.arange(grid.N // 2 + 1)
    uh_fine[idx] = uh * (fine.N / grid.N) ** n
    u_fine = fine.ifft(uh_fine)
    r_fine = _gn_ratio(fine, u_fine, q, theta)
    drift = abs(r_fine - r1) / r1

    return GNReport(q=q, n=n, theta=theta, count=len(ratios),
                    max_ratio=float(np.max(ratios)), mean_ratio=float(np.mean(ratios)),
                    scale_residual=float(scale_resid), refinement_drift=float(drift),
                    cap=cap)


@dataclass(frozen=True)
class CellResult:
    index: tuple
    params: dict
    outcome: str  # global_decay | blowup | undecided
    t_star: float | None = None
    alpha: float | None = None
    residual: float | None = None
    model: str | None = None
    at_threshold: bool = False
    reason: str = ""


@dataclass
class ScanResult:
    axes: dict
    cells: list
    metadata: dict
    monotonicity_flags: list
    series: dict = field(default_factory=dict, repr=False)

    def outcome_of(self, **params):
        for cell in self.cells:
            if all(cell.params.get(k) == v for k, v in params.items()):
                return cell
        raise KeyError(params)

    def write_dir(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "outcomes.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            axis_names = list(self.axes)
            writer.writerow(["index", *axis_names, "outcome", "t_star", "alpha",
                             "residual", "model", "at_threshold", "reason"])
            for cell in self.cells:
                writer.writerow([
                    ":".join(map(str, cell.index)),
                    *[_fmt(cell.params[a]) for a in axis_names],
                    cell.outcome,
                    "" if cell.t_star is None else _fmt(cell.t_star),
                    "" if cell.alpha is None else _fmt(cell.alpha),
                    "" if cell.residual is None else _fmt(cell.residual),
                    cell.model or "", int(cell.at_threshold), cell.reason])
        manifest = {"axes": self.axes, "metadata": self.metadata,
                    "monotonicity_flags": self.monotonicity_flags,
                    "cells": [{"index": list(c.index), "params": c.params,
                               "outcome": c.outcome, "t_star": c.t_star,
                               "reason": c.reason} for c in self.cells]}
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        for idx, series in self.series.items():
            name = "cell_" + "_".join(map(str, idx)) + ".csv"
            series.to_csv(os.path.join(outdir, name))


def _classify_cell(series, final, classify):
    if isinstance(final, solver.BlowupRecord):
        return dict(outcome="blowup", t_star=final.t_star, reason=final.reason)
    track = series.tracks.get("L2")
    if track is None:
        return dict(outcome="undecided", reason="no L2 track")
    if np.nanmax(track) <= 1e-300:
        return dict(outcome="global_decay", alpha=0.0, residual=0.0,
                    model="pure_power", reason="zero solution")
    try:
        fit = analysis.fit_decay(series, "L2", classify["window_fraction"])
    except (DegenerateFitError, FitWindowError) as exc:
        return dict(outcome="undecided", reason=f"fit failed: {exc}")
    lam = series.lambda_big
    last = lam >= lam[-1] / 10.0
    vals = track[last]
    grew = np.nanmax(vals) > classify["growth_tol"] * vals[0] if len(vals) > 1 else False
    if (fit.alpha >= classify["min_slope"] and fit.residual <= classify["max_residual"]
            and not grew):
        return dict(outcome="global_decay", alpha=fit.alpha,
                    residual=fit.residual, model=fit.model)
    reason = (f"slope {fit.alpha:.3g} / residual {fit.residual:.3g}"
              + (" / grew in last decade" if grew else ""))
    return dict(outcome="undecided", alpha=fit.alpha, residual=fit.residual,
                model=fit.model, reason=reason)


def _run_cell(args):
    """Run one scan cell; module-level so process pools can pickle it."""
    idx, params, raw_config, classify = args
    try:
        cfg = config.validate_config(raw_config)
        series, final = solver.simulate(cfg)
        verdict = _classify_cell(series, final, classify)
        return idx, params, verdict, series
    except (MemoryError, ResourceCapError):
        return idx, params, dict(outcome="undecided", reason="resource"), None
    except Exception as exc:  # per-cell failures never abort the scan
        return idx, params, dict(outcome="undecided", reason=f"{type(exc).__name__}: {exc}"), None


# scan axis -> (section of the run config, key); None is the top level
_SCAN_AXES = {"p": ("nonlinearity", "p"), "eps": ("data", "amplitude"),
              "mu": (None, "mu"), "gamma": ("nonlinearity", "gamma")}


def _apply_cell_params(raw, params):
    cfg = copy.deepcopy(raw)
    for axis, val in params.items():
        section, key = _SCAN_AXES[axis]
        (cfg if section is None else cfg.setdefault(section, {}))[key] = val
    return cfg


def _scan_params(scan_config):
    """(read config, axes, workers) of a scan config in ``config.SCAN_FORMAT``."""
    if not isinstance(scan_config, dict):
        raise ValidationError(["scan config must be a JSON object"])
    violations = []
    cfg = config.read(scan_config, config.SCAN_FORMAT, violations)
    # the axis names are checked here, not by the table, so that an unknown
    # name is reported as a scan axis
    named = cfg["axes"] or {}
    if cfg["axes"] == {}:
        violations.append("scan needs at least one axis")
    violations += [f"unknown scan axis {name!r}" for name in named if name not in _SCAN_AXES]
    axis = (list, config.REQUIRED, (lambda v: len(v) > 0, "non-empty"))
    axes = config.read(named, dict.fromkeys(named, axis), violations, "axes.")
    workers = cfg["workers"]
    if workers is None:
        env = os.environ.get("DAMPWAVE_THREADS", str(os.cpu_count() or 1))
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            violations.append(f"DAMPWAVE_THREADS must be an integer of at least 1, got {env!r}")
    base_mu = (cfg["base"] or {}).get("mu")
    mus = [("base.mu", base_mu)] + [("axes.mu", mu) for mu in axes.get("mu") or []]
    for where, mu in mus:
        try:
            if mu is not None:
                _check_orders(mu)
        except UnsupportedOrderError as exc:
            violations.append(f"{where}: {exc}")
    if violations:
        raise ValidationError(violations)
    return cfg, axes, workers


def run_scan(scan_config):
    """Run a parameter scan and classify each cell.

    ``scan_config`` keys (``config.SCAN_FORMAT``): base (a run config),
    axes (subset of p, eps, mu, gamma -> value lists), classify
    (thresholds), workers.  Results merge deterministically by cell index
    regardless of worker count.  The config, its base included, is
    validated (ValidationError) before any cell runs; a cell whose run
    config fails is classified undecided.
    """
    cfg, axes, workers = _scan_params(scan_config)
    classify = cfg["classify"]
    gamma0, n0 = cfg["base"]["nonlinearity"]["gamma"], cfg["base"]["grid"]["n"]

    axis_names = sorted(axes)
    jobs = []
    for idx in itertools.product(*(range(len(axes[a])) for a in axis_names)):
        params = {a: axes[a][i] for a, i in zip(axis_names, idx)}
        raw = _apply_cell_params(scan_config["base"], params)
        jobs.append((idx, params, raw, classify))

    workers = min(workers, len(jobs))
    outputs = None
    if workers > 1:
        try:
            with cf.ProcessPoolExecutor(max_workers=workers) as pool:
                outputs = list(pool.map(_run_cell, jobs))
        except OSError:  # no process pool here: run the cells in this process
            pass
    if outputs is None:
        outputs = [_run_cell(job) for job in jobs]
    results = {idx: (params, verdict) for idx, params, verdict, _ in outputs}
    series_by_index = {idx: series for idx, _, _, series in outputs if series is not None}

    cells = []
    for idx in sorted(results):
        params, verdict = results[idx]
        gamma_c = params.get("gamma", gamma0)
        p_crit = analysis._lm_critical_power(n0, classify["threshold_m"], gamma_c)
        at_thr = "p" in params and abs(params["p"] - p_crit) <= 1e-12
        cells.append(CellResult(index=idx, params=params,
                                at_threshold=at_thr, **verdict))

    flags = []
    if "p" in axes:
        other = [a for a in axis_names if a != "p"]
        p_pos = axis_names.index("p")
        groups = {}
        for cell in cells:
            key = tuple(cell.index[axis_names.index(a)] for a in other)
            groups.setdefault(key, []).append(cell)
        for key, group in groups.items():
            group.sort(key=lambda c: c.index[p_pos])
            streak = 0
            for cell in group:
                if cell.outcome == "global_decay":
                    streak += 1
                elif streak >= 2:
                    flags.append(
                        f"monotonicity violation at index {cell.index}: "
                        f"{cell.outcome!r} after {streak} global_decay cells")
                    streak = 0
                else:
                    streak = 0
    return ScanResult(axes=axes, cells=cells,
                      metadata={"base": scan_config["base"],
                                "classify": scan_config.get("classify", {})},
                      monotonicity_flags=flags, series=series_by_index)
