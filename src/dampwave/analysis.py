"""Decay-rate fitting, exponent catalog, GN checks and experiment scans.

Rates are always fitted against log(Lambda(t)), the natural decay clock of
the problem; the borderline cases carry an extra logarithmic factor, so the
fitter compares a pure power model with a power-times-log model:

    pure_power:  log y = a - alpha * log(Lambda)
    power_log:   log y = a - alpha * log(Lambda) + c_log * log(log(e + Lambda))

The log model is selected only when it beats the pure model's RMS residual
by at least 10% and its fitted log exponent is significant (|c_log| >=
0.25); log factors are weak signals, and this keeps the detector from
dressing quadrature noise up as a borderline rate.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFitError, DomainError, FitWindowError

_PREFERRED_COLUMNS = ("L1", "L2", "H1_seminorm", "energy", "Linf",
                      "weighted_L2", "blowup_flag")


def _fmt(v):
    return format(float(v), ".17g")


@dataclass
class NormSeries:
    """Time-stamped norm tracks along one run."""

    times: np.ndarray
    lambda_big: np.ndarray
    tracks: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.lambda_big = np.asarray(self.lambda_big, dtype=float)
        if self.times.shape != self.lambda_big.shape:
            raise DomainError("times and Lambda tracks must have equal length")
        for name, vals in self.tracks.items():
            self.tracks[name] = np.asarray(vals, dtype=float)
            if self.tracks[name].shape != self.times.shape:
                raise DomainError(f"track {name!r} length mismatch")
        if np.any(np.diff(self.lambda_big) <= 0.0):
            raise DomainError("Lambda(t) must be strictly increasing")

    def column_names(self):
        names = [c for c in _PREFERRED_COLUMNS if c in self.tracks]
        names += sorted(set(self.tracks) - set(names))
        return names

    def to_csv(self, path):
        names = self.column_names()
        with open(path, "w", newline="") as fh:
            fh.write("# dampwave-series v1\n")
            fh.write("# meta=" + json.dumps(self.metadata, sort_keys=True) + "\n")
            writer = csv.writer(fh)
            writer.writerow(["t", "Lambda_t", *names])
            for i in range(len(self.times)):
                writer.writerow([_fmt(self.times[i]), _fmt(self.lambda_big[i])]
                                + [_fmt(self.tracks[c][i]) for c in names])

    @classmethod
    def from_csv(cls, path):
        metadata = {}
        rows = []
        header = None
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if line.startswith("# meta="):
                        metadata = json.loads(line[len("# meta="):])
                    continue
                cells = next(csv.reader([line]))
                if header is None:
                    header = cells
                else:
                    rows.append([float(c) for c in cells])
        if header is None or not rows:
            raise DomainError(f"empty series file {path!r}")
        data = np.array(rows)
        tracks = {header[i]: data[:, i] for i in range(2, len(header))}
        return cls(times=data[:, 0], lambda_big=data[:, 1], tracks=tracks,
                   metadata=metadata)


@dataclass(frozen=True)
class DecayFit:
    alpha: float
    c_log: float
    model: str  # pure_power | power_log
    residual: float
    window: tuple


# the limit on a fit's trailing window, as a share of the samples (also a
# scan's classify.window_fraction)
WINDOW_FRACTION = (lambda f: 0.0 < f <= 1.0, "in (0, 1]")


def fit_decay(series, track, window_fraction=0.5,
              min_lambda_ratio=10.0, min_samples=10):
    """Least-squares decay fit of a track over the trailing window.

    Fits log(track) against log(Lambda(t)) with and without a log-factor
    regressor and applies the 10% / significance selection rule.  The fit
    is exactly invariant under scaling the track by a positive constant.
    """
    if track not in series.tracks:
        raise DomainError(f"no track named {track!r}")
    if not WINDOW_FRACTION[0](window_fraction):
        raise DomainError(f"window_fraction must be {WINDOW_FRACTION[1]}, "
                          f"got {window_fraction!r}")
    vals = series.tracks[track]
    n_all = len(vals)
    start = max(0, n_all - max(min_samples, int(math.ceil(window_fraction * n_all))))
    y = vals[start:]
    lam = series.lambda_big[start:]
    t_win = series.times[start:]
    good = np.isfinite(y) & (y > 0.0)
    if np.count_nonzero(good) == 0:
        raise DegenerateFitError(f"track {track!r} has no positive values in the window")
    y, lam, t_win = y[good], lam[good], t_win[good]
    if len(y) < min_samples:
        raise DegenerateFitError(f"need >= {min_samples} usable samples, got {len(y)}")
    if lam[-1] / lam[0] < min_lambda_ratio:
        raise FitWindowError(
            f"window spans Lambda ratio {lam[-1] / lam[0]:.2f} < {min_lambda_ratio:g}")

    x = np.log(lam)
    ly = np.log(y)
    one = np.ones_like(x)

    def lsq(cols):
        a_mat = np.column_stack(cols)
        coef, *_ = np.linalg.lstsq(a_mat, ly, rcond=None)
        resid = ly - a_mat @ coef
        return coef, float(np.sqrt(np.mean(resid**2)))

    coef_p, res_p = lsq([one, x])
    g = np.log(np.log(math.e + lam))
    coef_l, res_l = lsq([one, x, g])

    use_log = res_l < 0.9 * res_p and abs(coef_l[2]) >= 0.25
    if use_log:
        return DecayFit(alpha=float(-coef_l[1]), c_log=float(coef_l[2]),
                        model="power_log", residual=res_l,
                        window=(float(t_win[0]), float(t_win[-1])))
    return DecayFit(alpha=float(-coef_p[1]), c_log=0.0, model="pure_power",
                    residual=res_p, window=(float(t_win[0]), float(t_win[-1])))


def theta_gn(q, n):
    """Interpolation exponent theta(q) = n(1/2 - 1/q) of the GN inequality."""
    if n < 1:
        raise DomainError("n must be >= 1")
    hi = math.inf if n <= 2 else 2.0 * n / (n - 2.0)
    if not 2.0 <= q <= hi:
        raise DomainError(f"q={q:g} outside the admissible interval [2, {hi:g}]")
    return n * (0.5 - 1.0 / q)


@dataclass(frozen=True)
class ThresholdEntry:
    name: str
    kind: str  # existence | nonexistence | bound | parameter | open_gap
    value: float | None
    strict: bool
    applicable: bool
    condition: str
    lower_bound: float | None = None
    prange: tuple | None = None
    empty_range: bool | None = None
    note: str = ""

    def as_dict(self):
        d = {"name": self.name, "kind": self.kind, "value": self.value,
             "strict": self.strict, "applicable": self.applicable,
             "condition": self.condition}
        if self.lower_bound is not None:
            d["lower_bound"] = self.lower_bound
        if self.prange is not None:
            d["range"] = list(self.prange)
        if self.empty_range is not None:
            d["empty_range"] = self.empty_range
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class ExponentReport:
    n: int
    gamma: float
    m: float
    mu: float
    entries: list

    def get(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def as_dict(self):
        return {"params": {"n": self.n, "gamma": self.gamma, "m": self.m, "mu": self.mu},
                "entries": [e.as_dict() for e in self.entries]}


def _solution_border(n, m):
    """mu = n(2/m - 1), the L^m-data solution estimates' borderline damping."""
    return n * (2.0 / m - 1.0)


def _energy_border(n, m):
    """mu = 2 + n(2/m - 1), the L^m-data energy estimates' borderline damping."""
    return 2.0 + _solution_border(n, m)


def _lm_critical_power(n, m, gamma):
    """p = 1 + m(2 + gamma)/n, the critical power of the L^m-data route."""
    return 1.0 + m * (2.0 + gamma) / n


def exponent_catalog(n, gamma, m, mu):
    """Every closed-form exponent threshold with its validity condition.

    Inapplicable formulas are reported with ``applicable=False`` and the
    reason; nothing is silently dropped.  Nonexistence thresholds are
    formula evaluators only (the blow-up proofs live in the cited
    literature; this package merely observes blow-up numerically).
    """
    n = int(n)
    gamma = float(gamma)
    m = float(m)
    mu = float(mu)
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 1.0 <= m < 2.0:
        raise DomainError("m must lie in [1, 2)")
    if not (math.isfinite(mu) and math.isfinite(gamma)):
        raise DomainError(f"mu and gamma must be finite, got mu={mu!r}, gamma={gamma!r}")
    entries = []

    p_cap = 1.0 + 2.0 / (n - 2.0) if n >= 3 else math.inf
    entries.append(ThresholdEntry(
        name="energy_admissibility", kind="bound",
        value=(p_cap if n >= 3 else None), strict=False, applicable=n >= 3,
        condition="p <= 1 + 2/(n-2) required for n >= 3",
        note="" if n >= 3 else "no upper admissibility bound for n <= 2"))

    # L2-data route
    v = 1.0 + 2.0 * (2.0 + gamma) / n
    appl = mu >= 2.0
    if n >= 3:
        empty = not (v < p_cap)
    else:
        empty = False
    entries.append(ThresholdEntry(
        name="h1l2_existence", kind="existence", value=v, strict=True,
        applicable=appl, condition="mu >= 2; data small in H1 x L2",
        prange=(v, p_cap if n >= 3 else None), empty_range=empty))

    # Lm-data route at the requested m
    v = _lm_critical_power(n, m, gamma)
    mu_min = _energy_border(n, m)
    cond_dim = n <= 4.0 / (2.0 - m)
    gamma_ok = (gamma + 2.0) >= n * (2.0 - m) / (m * m)
    appl = cond_dim and mu >= mu_min
    lower = None if gamma_ok else 2.0 / m
    eff_lo = max(v, 2.0 / m) if not gamma_ok else v
    empty = (n >= 3 and not (eff_lo < p_cap or (not gamma_ok and 2.0 / m <= p_cap)))
    entries.append(ThresholdEntry(
        name="lm_existence", kind="existence", value=v, strict=gamma_ok,
        applicable=appl, lower_bound=lower,
        condition=(f"m in [1,2), n <= 4/(2-m), mu >= 2+n(2/m-1) = {mu_min:g}"
                   + ("" if gamma_ok else "; gamma+2 < n(2-m)/m^2 so p >= 2/m instead")),
        prange=(eff_lo, p_cap if n >= 3 else None), empty_range=empty))

    # Fujita-type nonexistence for m = 1 data (cited from the literature)
    entries.append(ThresholdEntry(
        name="fujita_nonexistence", kind="nonexistence",
        value=1.0 + (2.0 + gamma) / n, strict=False, applicable=True,
        condition="no global solution for p <= 1 + (2+gamma)/n, small L1 data",
        note="cited result; observed numerically only"))

    # minimal m = ell(n, mu) route
    ell_ok = 2.0 < mu < 2.0 + n
    ell = 2.0 * n / (n + mu - 2.0) if ell_ok else None
    entries.append(ThresholdEntry(
        name="ell_parameter", kind="parameter", value=ell, strict=False,
        applicable=ell_ok, condition="ell(n, mu) = 2n/(n+mu-2) for mu in (2, 2+n)"))
    if ell_ok:
        gamma_ok = gamma >= (mu - 2.0) * (n + mu - 2.0) / (2.0 * n) - 2.0
        v = 1.0 + 2.0 * (2.0 + gamma) / (n + mu - 2.0)
        entries.append(ThresholdEntry(
            name="ell_existence", kind="existence", value=v, strict=gamma_ok,
            applicable=True,
            lower_bound=None if gamma_ok else 1.0 + (mu - 2.0) / n,
            condition="mu in (2, 2+n); data small in D_ell"))
    else:
        entries.append(ThresholdEntry(
            name="ell_existence", kind="existence", value=None, strict=True,
            applicable=False, condition=f"needs mu in (2, {2 + n:g}); mu = {mu:g}"))

    # sub-threshold L2 route, mu in [1, 2)
    appl = 1.0 <= mu < 2.0
    entries.append(ThresholdEntry(
        name="subthreshold_l2_existence", kind="existence",
        value=(1.0 + 4.0 * (2.0 + gamma) / (mu * n) if appl else None), strict=True,
        applicable=appl, condition="mu in [1, 2); data small in H1 x L2",
        note="condition not expected optimal"))

    # one-dimensional refinements
    appl = n == 1 and 1.0 <= mu < 3.0
    entries.append(ThresholdEntry(
        name="onedim_mixed_existence", kind="existence",
        value=(1.0 + 4.0 * (2.0 + gamma) / (mu + 1.0) if appl else None),
        strict=True, applicable=appl, lower_bound=2.0 if appl else None,
        condition="n = 1, mu in [1, 3), p >= 2; data small in D_1"))

    appl = n == 1 and 0.0 < mu <= 1.0
    entries.append(ThresholdEntry(
        name="onedim_smallmu_existence", kind="existence",
        value=(1.0 + 2.0 * (2.0 + gamma) / mu if appl else None),
        strict=True, applicable=appl,
        lower_bound=(4.0 / (3.0 - mu) if appl else None),
        condition="n = 1, mu in (0, 1]; data small in D_kappa, kappa = 2/(3-mu)",
        note=(f"kappa = {2.0 / (3.0 - mu):.12g}" if appl else "")))

    appl = 0.0 < mu < 1.0 and n > 1.0 - mu
    entries.append(ThresholdEntry(
        name="smallmu_nonexistence", kind="nonexistence",
        value=(1.0 + (2.0 + gamma) / (n - (1.0 - mu)) if appl else None),
        strict=False, applicable=appl,
        condition="mu in (0, 1), data with positive average velocity",
        note="cited result; observed numerically only"))

    if n == 1 and 0.0 < mu <= 1.0:
        entries.append(ThresholdEntry(
            name="existence_gap", kind="open_gap", value=None, strict=False,
            applicable=True,
            condition="between onedim_smallmu_existence and smallmu_nonexistence",
            note="open problem; the scanner asserts nothing inside this region"))

    return ExponentReport(n=n, gamma=gamma, m=m, mu=mu, entries=entries)


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
    from . import solver  # local import; solver pulls in this module

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
    from . import solver

    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    theta = theta_gn(q, n)
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
    from .solver import BlowupRecord

    if isinstance(final, BlowupRecord):
        return dict(outcome="blowup", t_star=final.t_star, reason=final.reason)
    track = series.tracks.get("L2")
    if track is None:
        return dict(outcome="undecided", reason="no L2 track")
    if np.nanmax(track) <= 1e-300:
        return dict(outcome="global_decay", alpha=0.0, residual=0.0,
                    model="pure_power", reason="zero solution")
    try:
        fit = fit_decay(series, "L2", classify["window_fraction"])
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
    from .config import validate_config
    from .errors import ResourceCapError
    from .solver import simulate

    idx, params, raw_config, classify = args
    try:
        cfg = validate_config(raw_config)
        series, final = simulate(cfg)
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
    import copy

    cfg = copy.deepcopy(raw)
    for axis, val in params.items():
        section, key = _SCAN_AXES[axis]
        (cfg if section is None else cfg.setdefault(section, {}))[key] = val
    return cfg


def _scan_params(scan_config):
    """(read config, axes, workers) of a scan config in ``config.SCAN_FORMAT``."""
    from .config import REQUIRED, SCAN_FORMAT, read
    from .errors import UnsupportedOrderError, ValidationError
    from .multipliers import _check_orders

    if not isinstance(scan_config, dict):
        raise ValidationError(["scan config must be a JSON object"])
    violations = []
    cfg = read(scan_config, SCAN_FORMAT, violations)
    # the axis names are checked here, not by the table, so that an unknown
    # name is reported as a scan axis
    named = cfg["axes"] or {}
    if cfg["axes"] == {}:
        violations.append("scan needs at least one axis")
    violations += [f"unknown scan axis {name!r}" for name in named if name not in _SCAN_AXES]
    axis = (list, REQUIRED, (lambda v: len(v) > 0, "non-empty"))
    axes = read(named, dict.fromkeys(named, axis), violations, "axes.")
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
        import concurrent.futures as cf

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
        p_crit = _lm_critical_power(n0, classify["threshold_m"], gamma_c)
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
