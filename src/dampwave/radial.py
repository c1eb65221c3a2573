"""Grid-free L2/energy norms of the linear flow for radial spectral data.

For data given as radial spectral profiles v0hat(|xi|), v1hat(|xi|), the
solution spectrum is vhat = Phi0 v0hat + Phi1 v1hat and Parseval turns the
norms into one-dimensional radial integrals

    ||v||_L2^2     = (2 pi)^-n area(S^{n-1}) Int |vhat|^2 xi^{n-1} dxi,
    energy^2       = ... Int (lambda^2 xi^2 |vhat|^2 + |vthat|^2) xi^{n-1} dxi.

No spatial grid appears, so late times (t ~ 1e4) cost only a denser
quadrature: the integrand oscillates on the scale 2 pi / Lambda(t) in xi.
Each output time has one node set, a log zone and then a uniform zone,
with a fine composite Simpson rule on every node and a coarse one on the
even-indexed nodes; a disagreement beyond the tolerance raises
QuadratureError.
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


def _simpson_rows(m):
    """(fine, coarse) Simpson weights, shape (2, m), for m = 1 mod 4 uniform
    points on [0, 1]; the coarse row uses the even-indexed points."""
    rows = np.zeros((2, m))
    for row, step in zip(rows, (1, 2)):
        nodes = row[::step]  # a view: 1, 4, 2, ..., 4, 1 times the step
        nodes[:] = 2.0 * step
        nodes[1::2] = 4.0 * step
        nodes[[0, -1]] = step
    return rows / (3.0 * (m - 1))


def _nodes(Lam, xi_max, pts_per_period, log_pts_per_decade):
    """Strictly increasing nodes and their zones [(lo, hi, m, geometric)].

    Each zone has m = 1 mod 4 nodes, so its even-indexed nodes form a
    Simpson grid too; the uniform zone shares its first node with the end of
    the log zone.  The log zone resolves the K/Lambda(t) structure at low
    frequency; it is capped at xi = 1 because spectra like Gaussians are
    steep on a log scale beyond that, where the uniform zone is the better
    tool.
    """
    xi_split = min(30.0 / Lam, 1.0, xi_max)  # tau < 30 and xi <= 1 below
    xi_lo = max(xi_max * 1e-12, (DEFAULT_K / Lam) * 1e-4, 1e-12)
    zones, parts = [], []
    if xi_split > xi_lo:
        count = max(65, int(2 * log_pts_per_decade * math.log10(xi_split / xi_lo)) + 1)
        zones.append((xi_lo, xi_split, count + (1 - count) % 4, True))
    if xi_max > xi_split * (1.0 + 1e-12):
        dxi = math.pi / (Lam * pts_per_period)
        count = max(513, int(math.ceil((xi_max - xi_split) / dxi)) + 1)
        zones.append((xi_split, xi_max, count + (1 - count) % 4, False))
    for lo, hi, m, geometric in zones:
        part = np.geomspace(lo, hi, m) if geometric else np.linspace(lo, hi, m)
        parts.append(part[1:] if parts else part)
    return (np.concatenate(parts) if parts else np.empty(0)), zones


def _weights(xi, zones, n):
    """(fine, coarse) weights on the nodes of ``_nodes``, shape (2, xi.size)."""
    w = np.empty((2, 0))
    for lo, hi, m, geometric in zones:
        w_zone = _simpson_rows(m)
        if geometric:
            # int f dxi = int f xi dln(xi); the integrand tends to a constant
            # below xi_lo, so [0, xi_lo] adds f(xi_lo) xi_lo / n
            w_zone *= math.log(hi / lo) * xi[:m]
            w_zone[:, 0] += lo / n
        else:
            w_zone *= hi - lo
        if w.shape[1]:  # the junction is the previous zone's last node
            w[:, -1] += w_zone[:, 0]
            w_zone = w_zone[:, 1:]
        w = np.concatenate([w, w_zone], axis=1)
    return w


def linear_norm_radial(mu, profile, v0_hat, v1_hat, t, n=1, s=0.0,
                       xi_max=None, rtol=1e-8, pts_per_period=24,
                       log_pts_per_decade=120):
    """L2 norm and energy of the linear solution at time t by radial quadrature.

    ``v0_hat``/``v1_hat`` are callables returning the (possibly complex)
    radial spectral amplitudes.  ``xi_max`` defaults to where a Gaussian-type
    profile has decayed to ~1e-15 of its peak, probed numerically.
    ``pts_per_period`` (per period 2 pi / Lambda(t)) and ``log_pts_per_decade``
    set the coarse rule; the fine rule, whose value is returned, has twice
    that density on the same nodes.
    """
    if xi_max is None:
        probe = np.geomspace(1e-3, 1e3, 400)
        mags = np.abs(v0_hat(probe)) + np.abs(v1_hat(probe))
        alive = probe[mags > 1e-15 * max(float(np.max(mags)), 1e-300)]
        xi_max = float(alive[-1]) * 1.5 if alive.size else 0.0
    xi, zones = _nodes(float(profile.Lambda_at(t)), xi_max, pts_per_period,
                       log_pts_per_decade)
    if xi.size == 0:
        return RadialNorms(l2=0.0, energy=0.0, t=t)
    lam = float(profile.lambda_at(t))
    p0, p1, d0, d1 = phi_values_grid(mu, profile, s, t, xi)
    # built after the multiplier call, where memory peaks
    weights = _weights(xi, zones, n)
    a0, a1 = v0_hat(xi), v1_hat(xi)
    vh2 = np.abs(p0 * a0 + p1 * a1) ** 2
    vth2 = np.abs(d0 * a0 + d1 * a1) ** 2
    meas = xi ** (n - 1)
    # rows (fine, coarse), columns (L2, energy)
    sq = weights @ np.stack([vh2 * meas, (lam**2 * xi**2 * vh2 + vth2) * meas], axis=1)
    const = SPHERE_AREA[n] / (2.0 * math.pi) ** n
    fine, coarse = np.sqrt(np.maximum(const * sq, 0.0)).tolist()
    # Simpson's error drops ~16x per refinement, so the coarse-fine gap may
    # legitimately reach ~16x the fine error; certify fine to ~2*rtol.
    for name, c, f in zip(("L2", "energy"), coarse, fine):
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
