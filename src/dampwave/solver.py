"""Pseudospectral solver for the semilinear damped wave equation.

Simulates ``u_tt - lambda(t)^2 Lap u + b(t) u_t = f(t, u)`` on a periodic
box [-L, L)^n.  The linear flow is advanced exactly per Fourier mode by the
Hankel multipliers (multipliers.phi_values_grid); the nonlinearity enters
through one midpoint Duhamel quadrature per step (second order):

    u(t+dt) = M(t+dt, t) u(t) + dt * Phi1(t+dt, t+dt/2) fhat(t+dt/2),

where the midpoint value of u is predicted by the exact linear half step
and the full-step propagator is composed of the two exact half steps.
Power nonlinearities are evaluated pointwise in physical space and their
transform is truncated by the 2/3 rule every step.

Because data are compactly concentrated and the propagation speed is
lambda(t), solutions on a box with L >= R0 + (Lambda(T) - lambda0) + margin
coincide with the whole-space solutions; the domain-sizing rule in the
config layer enforces this, and the light-cone excess is monitored at every
output time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import multipliers
from .analysis import NormSeries
from .errors import DomainError

WEIGHT_SATURATION = 1.0e300


@dataclass(frozen=True)
class Grid:
    """Periodic grid on [-L, L)^n with N (a power of two) points per axis."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise DomainError("dimension n must be 1, 2 or 3")
        if self.N < 16 or self.N & (self.N - 1) != 0:
            raise DomainError("N must be a power of two >= 16")
        if not self.L > 0.0:
            raise DomainError("box half-width L must be positive")

    @property
    def h(self):
        return 2.0 * self.L / self.N

    @property
    def cell_volume(self):
        return self.h**self.n

    @property
    def shape(self):
        return (self.N,) * self.n

    @cached_property
    def axis(self):
        return -self.L + self.h * np.arange(self.N)

    @cached_property
    def radius(self):
        """|x| on the grid."""
        r2 = np.zeros(self.shape)
        for d in range(self.n):
            sh = [1] * self.n
            sh[d] = self.N
            r2 = r2 + (self.axis**2).reshape(sh)
        return np.sqrt(r2)

    @cached_property
    def wavenumbers(self):
        """Per-axis angular wavenumbers in rfftn layout."""
        ks = []
        for d in range(self.n):
            if d == self.n - 1:
                k = 2.0 * math.pi * np.fft.rfftfreq(self.N, d=self.h)
            else:
                k = 2.0 * math.pi * np.fft.fftfreq(self.N, d=self.h)
            sh = [1] * self.n
            sh[d] = len(k)
            ks.append(k.reshape(sh))
        return ks

    @cached_property
    def xi(self):
        """|xi| in rfftn layout."""
        mag2 = np.zeros(self.spectral_shape)
        for k in self.wavenumbers:
            mag2 = mag2 + k**2
        return np.sqrt(mag2)

    @property
    def spectral_shape(self):
        return (self.N,) * (self.n - 1) + (self.N // 2 + 1,)

    @cached_property
    def dealias_mask(self):
        """2/3-rule mask: keep |index| <= N//3 on every axis."""
        keep = np.ones(self.spectral_shape, dtype=bool)
        cut = self.N // 3
        for d in range(self.n):
            if d == self.n - 1:
                idx = np.arange(self.N // 2 + 1)
            else:
                idx = np.abs(np.fft.fftfreq(self.N, d=1.0 / self.N))
            sh = [1] * self.n
            sh[d] = len(idx)
            keep = keep & (idx.reshape(sh) <= cut)
        return keep

    def fft(self, u):
        return np.fft.rfftn(u)

    def ifft(self, uh):
        return np.fft.irfftn(uh, s=self.shape, axes=tuple(range(self.n)))


@dataclass(frozen=True)
class FieldState:
    """Solution pair (u, u_t) at time t; arrays are real on the grid.

    Spectra are always derived from the physical arrays on demand, so the
    two representations cannot fall out of sync.  ``blowup_t`` is set when
    a step produced a non-finite nonlinearity.
    """

    u: np.ndarray
    ut: np.ndarray
    t: float
    blowup_t: float | None = None


@dataclass(frozen=True)
class NonlinearitySpec:
    """Power nonlinearity f(t, u) = prefactor(t) * g(u)."""

    form: str = "zero"  # zero | signed_power (|u|^{p-1} u) | absolute_power (|u|^p)
    p: float = 2.0
    gamma: float = 0.0
    scaling: str = "plain"  # plain: (1+t)^gamma | structural: lambda^2 Lambda^gamma

    def __post_init__(self):
        if self.form not in ("zero", "signed_power", "absolute_power"):
            raise DomainError(f"unknown nonlinearity form {self.form!r}")
        if self.scaling not in ("plain", "structural"):
            raise DomainError(f"unknown scaling {self.scaling!r}")
        if self.form != "zero" and not self.p > 1.0:
            raise DomainError("nonlinearity exponent p must exceed 1")
        if self.gamma < -2.0:
            raise DomainError("gamma must be >= -2")

    def prefactor(self, profile, t):
        if self.form == "zero":
            return 0.0
        if self.scaling == "plain":
            return (1.0 + t) ** self.gamma
        lam = float(profile.lambda_at(t))
        return lam * lam * float(profile.Lambda_at(t)) ** self.gamma

    def g(self, u):
        if self.form == "zero":
            return np.zeros_like(u)
        # overflow here is a legitimate blow-up signal, flagged downstream
        with np.errstate(over="ignore", invalid="ignore"):
            au = np.abs(u)
            if self.form == "signed_power":
                return au ** (self.p - 1.0) * u
            return au**self.p


@dataclass(frozen=True)
class WeightedNormSpec:
    """Gaussian weight omega_t(x) = exp((mu/2)|x|^2 / Lambda(t)^2)."""

    enabled: bool = False
    mu: float | None = None  # None: use the damping mu


@dataclass(frozen=True)
class BlowupRecord:
    t_star: float
    reason: str
    peak: float


def make_initial_data(grid, kind, amplitude, width, seed=0):
    """Smooth compactly-concentrated data (u0, u1); u1 = 0 for all kinds.

    gaussian: u0 = amplitude * exp(-|x|^2/(2 width^2))
    bump:     C^inf bump supported in |x| < width, peak = amplitude
    mode_mix: seeded random mean-zero mix of low modes, Linf peak = amplitude
    """
    if kind in ("gaussian", "bump") and not width < grid.L / 4.0:
        raise DomainError("data width must stay below L/4")
    r = grid.radius
    if kind == "gaussian":
        u0 = amplitude * np.exp(-(r**2) / (2.0 * width**2))
    elif kind == "bump":
        u0 = np.zeros(grid.shape)
        inside = r < width
        s2 = (r[inside] / width) ** 2
        u0[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s2))
    elif kind == "mode_mix":
        rng = np.random.default_rng(seed)
        uh = np.zeros(grid.spectral_shape, dtype=complex)
        amp = rng.standard_normal(grid.spectral_shape) + 1j * rng.standard_normal(grid.spectral_shape)
        envelope = np.exp(-((grid.xi * width) ** 2) / 2.0)
        uh = amp * envelope * grid.dealias_mask
        flat_index = (0,) * grid.n
        uh[flat_index] = 0.0  # mean-zero
        u0 = grid.ifft(uh)
        peak = np.max(np.abs(u0))
        if peak > 0.0:
            u0 *= amplitude / peak
    else:
        raise DomainError(f"unknown data kind {kind!r}")
    return u0, np.zeros_like(u0)


@dataclass(frozen=True)
class NormSample:
    lm: dict
    l2: float
    linf: float
    h1_semi: float
    h1: float
    energy: float
    weighted_l2: float | None = None
    weighted_h1: float | None = None
    weighted_saturated: bool = False


def _gradient_norm_sq(grid, uh):
    vol = grid.cell_volume
    total = 0.0
    for k in grid.wavenumbers:
        total += np.sum(np.abs(grid.ifft(1j * k * uh)) ** 2) * vol
    return total


def norms(state, profile, mu, grid, m_list=(1.0,), weighted=None):
    """All tracked norms of the state; gradients are spectral."""
    vol = grid.cell_volume
    u, ut = state.u, state.ut
    lm = {}
    for m in m_list:
        lm[float(m)] = float((np.sum(np.abs(u) ** m) * vol) ** (1.0 / m))
    l2 = float(math.sqrt(np.sum(u**2) * vol))
    linf = float(np.max(np.abs(u)))
    uh = grid.fft(u)
    grad_sq = _gradient_norm_sq(grid, uh)
    ut_sq = float(np.sum(ut**2) * vol)
    lam = float(profile.lambda_at(state.t))
    h1_semi = math.sqrt(grad_sq)
    sample = {
        "lm": lm,
        "l2": l2,
        "linf": linf,
        "h1_semi": h1_semi,
        "h1": math.sqrt(l2**2 + grad_sq),
        "energy": math.sqrt(lam * lam * grad_sq + ut_sq),
    }
    if weighted is not None and weighted.enabled:
        w_mu = mu if weighted.mu is None else weighted.mu
        Lam = float(profile.Lambda_at(state.t))
        psi = 0.5 * w_mu * grid.radius**2 / Lam**2
        corner = 0.5 * w_mu * grid.n * grid.L**2 / Lam**2
        saturated = corner >= math.log(WEIGHT_SATURATION)
        with np.errstate(over="ignore"):
            omega = np.exp(psi)
            integrand = (u * omega) ** 2
            wl2_sq = np.sum(integrand) * vol
            wgrad_sq = 0.0
            for k in grid.wavenumbers:
                wgrad_sq += np.sum((grid.ifft(1j * k * uh) * omega) ** 2) * vol
        # flag values that are box-truncation artifacts: either the weight
        # overflows at the corner, or the weighted integrand has not decayed
        # by the edge of the box (divergent on R^n, finite on the box)
        edge = grid.radius >= grid.L - 2.0 * grid.h
        peak = float(np.max(integrand))
        if peak > 0.0 and np.any(edge):
            saturated = saturated or bool(
                float(np.max(integrand[edge])) > 1e-10 * peak)
        sample["weighted_l2"] = float(np.sqrt(wl2_sq))
        sample["weighted_h1"] = float(np.sqrt(wl2_sq + wgrad_sq))
        sample["weighted_saturated"] = bool(saturated)
    return NormSample(**sample)


def _propagate_spectra(mu, profile, s, t, grid, uh, uth):
    p0, p1, d0, d1 = multipliers.phi_values_grid(mu, profile, s, t, grid.xi)
    return p0 * uh + p1 * uth, d0 * uh + d1 * uth


def linear_step(state, profile, mu, grid, dt):
    """Advance (u, u_t) by the exact linear propagator over [t, t+dt]."""
    if dt < 0.0:
        raise DomainError("dt must be nonnegative")
    if dt == 0.0:
        return state
    uh = grid.fft(state.u)
    uth = grid.fft(state.ut)
    vh, vth = _propagate_spectra(mu, profile, state.t, state.t + dt, grid, uh, uth)
    return FieldState(u=grid.ifft(vh), ut=grid.ifft(vth), t=state.t + dt,
                      blowup_t=state.blowup_t)


def duhamel_step(state, profile, mu, grid, nonlin, dt):
    """One exact-linear + midpoint-Duhamel step (second order in dt)."""
    if dt < 0.0:
        raise DomainError("dt must be nonnegative")
    if dt == 0.0 or state.blowup_t is not None:
        return state
    if nonlin is None or nonlin.form == "zero":
        return linear_step(state, profile, mu, grid, dt)
    t0 = state.t
    tm = t0 + 0.5 * dt
    t1 = t0 + dt
    uh = grid.fft(state.u)
    uth = grid.fft(state.ut)
    # exact half step, nonlinearity sampled at the midpoint
    mh, mth = _propagate_spectra(mu, profile, t0, tm, grid, uh, uth)
    u_mid = grid.ifft(mh)
    fval = nonlin.prefactor(profile, tm) * nonlin.g(u_mid)
    if not np.all(np.isfinite(fval)):
        return replace(state, blowup_t=t1)
    fh = grid.fft(fval) * grid.dealias_mask
    # second exact half step of the homogeneous part
    p0, p1, d0, d1 = multipliers.phi_values_grid(mu, profile, tm, t1, grid.xi)
    vh = p0 * mh + p1 * mth + dt * (p1 * fh)
    vth = d0 * mh + d1 * mth + dt * (d1 * fh)
    return FieldState(u=grid.ifft(vh), ut=grid.ifft(vth), t=t1)


def cone_excess(state, grid, profile, r0, pad=0.0):
    """max |u| outside the light cone, relative to the current peak."""
    radius = r0 + float(profile.Lambda_at(state.t)) - profile.lambda0 + pad
    outside = grid.radius > radius
    if not np.any(outside):
        return 0.0
    peak = max(float(np.max(np.abs(state.u))), 1e-300)
    return float(np.max(np.abs(state.u[outside])) / peak)


@dataclass(frozen=True)
class WeightIdentityCheck:
    residual: float
    max_psi_t: float


def weight_identity_residual(profile, mu, grid, t):
    """Pointwise check of mu*(lambda/Lambda)*psi_t = -|lambda grad(psi)|^2.

    psi = (mu/2)|x|^2 / Lambda(t)^2; psi_t and grad(psi) are analytic.
    Returns the max absolute residual over the grid and max psi_t (<= 0).
    """
    lam = float(profile.lambda_at(t))
    Lam = float(profile.Lambda_at(t))
    r2 = grid.radius**2
    psi_t = -mu * r2 * lam / Lam**3
    grad_sq = (lam * mu / Lam**2) ** 2 * r2
    residual = float(np.max(np.abs(mu * (lam / Lam) * psi_t + grad_sq)))
    return WeightIdentityCheck(residual=residual, max_psi_t=float(np.max(psi_t)))


def output_times(T, samples_per_decade=20, t_first=0.1):
    """Log-spaced output times, 0 and T always included."""
    if T <= 0.0:
        return np.array([0.0])
    if T <= t_first * (1.0 + 1e-12):
        return np.array([0.0, T])
    n = max(2, int(samples_per_decade * math.log10(T / t_first)) + 1)
    times = np.geomspace(t_first, T, n)
    times[-1] = T
    return np.concatenate([[0.0], times])


def simulate(config):
    """Run the semilinear problem to T or blow-up, recording norm tracks.

    ``config`` provides: grid, profile, damping (mu), nonlin, data spec,
    T, dt_max, blowup_factor, m_list, weighted, samples_per_decade, r0,
    metadata.  Returns (NormSeries, FieldState | BlowupRecord).
    """
    grid = config.grid
    profile = config.profile
    mu = config.damping.mu
    nonlin = config.nonlin
    u0, u1 = make_initial_data(grid, config.data.kind, config.data.amplitude,
                               config.data.width, config.data.seed)
    state = FieldState(u=u0, ut=u1, t=0.0)
    peak0 = max(float(np.max(np.abs(u0))), float(np.max(np.abs(u1))), 1e-300)
    track_cone = config.data.kind in ("gaussian", "bump")

    times = output_times(config.T, config.samples_per_decade)
    rows = []
    blowup = None

    def record(st):
        ns = norms(st, profile, mu, grid, m_list=config.m_list, weighted=config.weighted)
        row = {
            "t": st.t,
            "Lambda_t": float(profile.Lambda_at(st.t)),
            "L1": ns.lm.get(1.0, float(np.sum(np.abs(st.u)) * grid.cell_volume)),
            "L2": ns.l2,
            "H1_seminorm": ns.h1_semi,
            "energy": ns.energy,
            "Linf": ns.linf,
        }
        for m, val in ns.lm.items():
            if m not in (1.0, 2.0):
                row[f"L{m:g}"] = val
        if ns.weighted_l2 is not None:
            row["weighted_L2"] = ns.weighted_l2
            row["weighted_saturated"] = float(ns.weighted_saturated)
        if track_cone:
            row["cone_excess"] = cone_excess(st, grid, profile, config.r0, pad=2.0 * grid.h)
        row["blowup_flag"] = 0.0
        rows.append(row)

    record(state)
    for t_out in times[1:]:
        while state.t < t_out and state.blowup_t is None:
            lam_now = float(profile.lambda_at(state.t))
            dt = min(config.dt_max, 0.25 * grid.h / lam_now, t_out - state.t)
            state = duhamel_step(state, profile, mu, grid, nonlin, dt)
        finite = bool(np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.ut)))
        over = finite and float(np.max(np.abs(state.u))) > config.blowup_factor * peak0
        if state.blowup_t is not None or not finite or over:
            reason = ("nonlinearity overflow" if state.blowup_t is not None
                      else "non-finite field" if not finite else "amplitude threshold")
            peak = float(np.max(np.abs(state.u[np.isfinite(state.u)]), initial=0.0))
            blowup = BlowupRecord(t_star=t_out, reason=reason, peak=peak)
            rows.append({"t": t_out, "Lambda_t": float(profile.Lambda_at(t_out)),
                         "L1": math.nan, "L2": math.nan, "H1_seminorm": math.nan,
                         "energy": math.nan, "Linf": math.nan, "blowup_flag": 1.0})
            break
        record(state)

    track_names = sorted({k for row in rows for k in row} - {"t", "Lambda_t"})
    tracks = {}
    for name in track_names:
        tracks[name] = np.array([row.get(name, math.nan) for row in rows])
    series = NormSeries(
        times=np.array([row["t"] for row in rows]),
        lambda_big=np.array([row["Lambda_t"] for row in rows]),
        tracks=tracks,
        metadata=dict(config.metadata),
    )
    return series, (blowup if blowup is not None else state)
