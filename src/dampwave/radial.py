"""Grid-free L2/energy norms of the linear flow for radial spectral data.

For data given as radial spectral profiles v0hat(|xi|), v1hat(|xi|), the
solution spectrum is vhat = Phi0 v0hat + Phi1 v1hat and Parseval turns the
norms into one-dimensional radial integrals

    ||v||_L2^2     = (2 pi)^-n area(S^{n-1}) Int |vhat|^2 xi^{n-1} dxi,
    energy^2       = ... Int (lambda^2 xi^2 |vhat|^2 + |vthat|^2) xi^{n-1} dxi.

No spatial grid appears, so late times (t ~ 1e4) cost only a denser
quadrature: the integrand oscillates on the scale 2 pi / Lambda(t) in xi,
and the composite Simpson rule below resolves it with a fixed number of
points per period plus a logarithmic grid across the low-frequency zones.
Every norm is computed at two resolutions; disagreement beyond the
tolerance raises QuadratureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .multipliers import DEFAULT_K, SPHERE_AREA, phi_values_grid


def gaussian_spectrum(amplitude=1.0, width=1.0):
    """Radial spectral profile A exp(-(w xi)^2 / 2); bounded at xi = 0."""

    def profile(xi):
        return amplitude * np.exp(-((width * xi) ** 2) / 2.0)

    return profile


@dataclass(frozen=True)
class RadialNorms:
    l2: float
    energy: float
    t: float


def _odd(n):
    return n if n % 2 == 1 else n + 1


def _simpson(y, dx):
    """Composite Simpson on a uniform grid with an odd number of points."""
    return (dx / 3.0) * float(y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2])
                              + 2.0 * np.sum(y[2:-2:2]))


def _grids(profile, t, xi_max, pts_per_period, log_pts_per_decade):
    """(log-zone grid, linear grid); either may be None.

    The log zone resolves the K/Lambda(t) structure at low frequency; it is
    capped at xi = 1 because spectra like Gaussians are steep on a log scale
    beyond that, where the uniform grid is the better tool.
    """
    Lam = float(profile.Lambda_at(t))
    xi_split = min(30.0 / Lam, 1.0, xi_max)  # tau < 30 and xi <= 1 below
    xi_lo = max(xi_max * 1e-12, (DEFAULT_K / Lam) * 1e-4, 1e-12)
    log_grid = None
    lin_grid = None
    if xi_split > xi_lo:
        n_log = _odd(max(65, int(log_pts_per_decade * math.log10(xi_split / xi_lo)) + 1))
        log_grid = np.geomspace(xi_lo, xi_split, n_log)
    if xi_max > xi_split * (1.0 + 1e-12):
        dxi = 2.0 * math.pi / (Lam * pts_per_period)
        n_lin = _odd(max(513, int(math.ceil((xi_max - xi_split) / dxi)) + 1))
        lin_grid = np.linspace(xi_split, xi_max, n_lin)
    return log_grid, lin_grid


def _norms_once(mu, profile, v0_hat, v1_hat, t, n, s, xi_max,
                pts_per_period, log_pts_per_decade):
    log_grid, lin_grid = _grids(profile, t, xi_max, pts_per_period,
                                log_pts_per_decade)
    lam = float(profile.lambda_at(t))
    l2_sq = 0.0
    en_sq = 0.0
    for xi, logspace in ((log_grid, True), (lin_grid, False)):
        if xi is None:
            continue
        p0, p1, d0, d1 = phi_values_grid(mu, profile, s, t, xi)
        a0 = v0_hat(xi)
        a1 = v1_hat(xi)
        vh = p0 * a0 + p1 * a1
        vth = d0 * a0 + d1 * a1
        meas = xi ** (n - 1)
        f_l2 = np.abs(vh) ** 2 * meas
        f_en = (lam**2 * xi**2 * np.abs(vh) ** 2 + np.abs(vth) ** 2) * meas
        if logspace:
            # int f dxi = int f * xi dln(xi), uniform in ln(xi)
            dlx = math.log(xi[-1] / xi[0]) / (len(xi) - 1)
            l2_sq += _simpson(f_l2 * xi, dlx)
            en_sq += _simpson(f_en * xi, dlx)
            # [0, xi_lo] remainder: the integrand tends to a constant, so
            # close the integral with f(xi_lo) * xi_lo^n / n
            l2_sq += f_l2[0] / meas[0] * xi[0] ** n / n
            en_sq += f_en[0] / meas[0] * xi[0] ** n / n
        else:
            dxi = (xi[-1] - xi[0]) / (len(xi) - 1)
            l2_sq += _simpson(f_l2, dxi)
            en_sq += _simpson(f_en, dxi)
    const = SPHERE_AREA[n] / (2.0 * math.pi) ** n
    return math.sqrt(max(const * l2_sq, 0.0)), math.sqrt(max(const * en_sq, 0.0))


def linear_norm_radial(mu, profile, v0_hat, v1_hat, t, n=1, s=0.0,
                       xi_max=None, rtol=1e-8, pts_per_period=24,
                       log_pts_per_decade=120):
    """L2 norm and energy of the linear solution at time t by radial quadrature.

    ``v0_hat``/``v1_hat`` are callables returning the radial spectral
    amplitudes.  ``xi_max`` defaults to where a Gaussian-type profile has
    decayed to ~1e-15 of its peak, probed numerically.
    """
    if xi_max is None:
        probe = np.geomspace(1e-3, 1e3, 400)
        mags = np.abs(v0_hat(probe)) + np.abs(v1_hat(probe))
        peak = float(np.max(mags))
        alive = probe[mags > 1e-15 * max(peak, 1e-300)]
        if len(alive) == 0:
            return RadialNorms(l2=0.0, energy=0.0, t=t)
        xi_max = float(alive[-1]) * 1.5

    coarse = _norms_once(mu, profile, v0_hat, v1_hat, t, n, s, xi_max,
                         pts_per_period, log_pts_per_decade)
    fine = _norms_once(mu, profile, v0_hat, v1_hat, t, n, s, xi_max,
                       2 * pts_per_period, 2 * log_pts_per_decade)
    # Simpson's error drops ~16x per refinement, so the coarse-fine gap may
    # legitimately reach ~16x the fine error; certify fine to ~2*rtol.
    for name, c, f in (("L2", coarse[0], fine[0]), ("energy", coarse[1], fine[1])):
        scale = max(abs(f), 1e-300)
        if abs(c - f) / scale > max(rtol, 1e-14) * 30.0:
            raise QuadratureError(
                f"radial quadrature for {name} did not converge at t={t:g}: "
                f"coarse={c!r}, fine={f!r}")
    return RadialNorms(l2=fine[0], energy=fine[1], t=t)


def linear_decay_series(mu, profile, v0_hat, v1_hat, times, n=1, s=0.0,
                        metadata=None, **kwargs):
    """NormSeries of the linear flow at the given output times.

    Slope fitting tolerates far larger point errors than the 1e-8 default
    of linear_norm_radial, so this helper runs lighter quadrature unless
    told otherwise.
    """
    from .analysis import NormSeries

    kwargs.setdefault("rtol", 1e-5)
    kwargs.setdefault("pts_per_period", 12)
    kwargs.setdefault("log_pts_per_decade", 60)
    rows = [linear_norm_radial(mu, profile, v0_hat, v1_hat, t, n=n, s=s, **kwargs)
            for t in times]
    meta = {"mu": mu, "n": n, "kind": profile.kind, "linear": True}
    meta.update(metadata or {})
    return NormSeries(
        times=np.asarray(times, dtype=float),
        lambda_big=np.array([float(profile.Lambda_at(t)) for t in times]),
        tracks={"L2": np.array([r.l2 for r in rows]),
                "energy": np.array([r.energy for r in rows])},
        metadata=meta)
