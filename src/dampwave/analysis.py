"""Decay-rate fitting, the exponent catalog and the GN interpolation exponent.

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
import json
import math
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


def _regime(mu, border):
    """"above", "at" or "below": where mu lies against a damping border,
    within 1e-9.  The one comparison of mu with a border."""
    if mu > border + 1e-9:
        return "above"
    return "at" if abs(mu - border) <= 1e-9 else "below"


def predicted_decay_exponents(n, mu, m=1.0):
    """Decay rates in Lambda(t) of the linear flow for L^m data, keyed "L2"
    and "energy": above the norm's border (solution, energy) the effective
    rate n(1/m - 1/2) (plus 1 for the energy), mu/2 at the border, where a
    log factor joins it, and below."""
    base = n * (1.0 / m - 0.5)
    return {"L2": base if _regime(mu, _solution_border(n, m)) == "above" else mu / 2.0,
            "energy": base + 1.0 if _regime(mu, _energy_border(n, m)) == "above" else mu / 2.0}


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
