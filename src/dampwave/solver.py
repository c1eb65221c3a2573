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

The state a step evolves is the pair of rfftn spectra (uh, uth).  A
nonlinear step transforms three times: the midpoint field to physical
space, the nonlinearity back, and the end field to physical space for the
blow-up check; a linear step transforms once, for that check.  u_t is
formed in physical space only when something reads it, and the norms take
the gradient and u_t by Parseval from the spectra, so recording a sample
needs no transform.

The multipliers of a pair (s, t) are cross products of Bessel values at
Lambda(s)|xi| and Lambda(t)|xi|.  ``simulate`` keeps them per time node in
one multipliers.NodeStore for the run: a step's midpoint serves both of its
half steps, and its end is the next step's start, so each step needs two
new node sets (tm and t1) instead of four.  The step times do not depend on
the solution, so the loop reads its step plan (``_step_plan``) in chunks and
has the store prefetch the pairs of each chunk's consecutive time nodes in
one Bessel call per precision before it takes the chunk's steps.  The store
also sorts the grid's |xi| once per run.  With a zero nonlinearity the
propagator is exact over any interval, so ``simulate`` takes one step per
output interval.
Blow-up (a non-finite value or max|u| above the threshold) is checked after
every step and dated by that step; in a linear run that is the output time
ending the step.

Because data are compactly concentrated and the propagation speed is
lambda(t), solutions on a box with L >= R0 + (Lambda(T) - lambda0) + margin
coincide with the whole-space solutions; the domain-sizing rule in the
config layer enforces this, and the light-cone excess is monitored at every
output time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import multipliers
from .analysis import NormSeries
from .errors import _ABOVE_ONE, DomainError, _check_fields

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
        if not (self.L > 0.0 and math.isfinite(self.h)):
            raise DomainError(f"box half-width L={self.L:g} must be positive, "
                              "with a finite grid spacing 2L/N")

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
        return np.sqrt(sum(np.ix_(*[self.axis**2] * self.n)))

    @cached_property
    def wavenumbers(self):
        """Per-axis angular wavenumbers in rfftn layout, as open meshes."""
        k = 2.0 * math.pi * np.fft.fftfreq(self.N, d=self.h)
        k_last = 2.0 * math.pi * np.fft.rfftfreq(self.N, d=self.h)
        return list(np.ix_(*[k] * (self.n - 1), k_last))

    @cached_property
    def xi(self):
        """|xi| in rfftn layout."""
        return np.sqrt(sum(k**2 for k in self.wavenumbers))

    @property
    def spectral_shape(self):
        return (self.N,) * (self.n - 1) + (self.N // 2 + 1,)

    @cached_property
    def dealias_mask(self):
        """2/3-rule mask: keep |index| <= N//3 on every axis."""
        idx = np.abs(np.fft.fftfreq(self.N, d=1.0 / self.N))
        meshes = np.ix_(*[idx] * (self.n - 1), np.arange(self.N // 2 + 1))
        return reduce(np.logical_and, (m <= self.N // 3 for m in meshes))

    @cached_property
    def l2_weight(self):
        """Parseval weights of the rfftn half spectrum, along its last axis:
        sum |v|^2 h^n is sum l2_weight |rfftn(v)|^2 for a real v.

        Off the planes j = 0 and j = N/2 of the last axis each stored mode
        stands for its mirror image as well, so it counts twice.
        """
        j = np.arange(self.N // 2 + 1)
        edge = (j == 0) | (j == self.N // 2)
        return np.where(edge, 1.0, 2.0) * (self.cell_volume / float(self.N) ** self.n)

    @cached_property
    def grad_weight(self):
        """l2_weight times |k|^2 as the spectral gradient ifft(i k_d vh) sees it.

        On the planes j = 0 and j = N/2 of the last axis the inverse real
        transform keeps only the Hermitian part of i k_d vh, which is zero at
        axis d's Nyquist index, so k_d counts as 0 there.
        """
        half = self.N // 2
        j = np.arange(half + 1)
        edge = (j == 0) | (j == half)
        k2 = np.zeros(self.spectral_shape)
        for d, k in enumerate(self.wavenumbers):
            index = np.arange(k.shape[d]).reshape(k.shape)
            k2 = k2 + np.where((index == half) & edge, 0.0, k**2)
        return self.l2_weight * k2

    def fft(self, u):
        return np.fft.rfftn(u)

    def ifft(self, uh):
        return np.fft.irfftn(uh, s=self.shape, axes=tuple(range(self.n)))


class FieldState:
    """Solution pair (u, u_t) at time t on a grid.

    Each of u and u_t is held in physical space, as its rfftn spectrum, or
    both.  A state is built from one representation of each (``u`` or
    ``uh``, ``ut`` or ``uth``); the other is derived through the grid's
    transforms the first time it is read and then kept, so the two cannot
    disagree.  A state built from a spectrum needs its ``grid``.  The steps
    return states built from spectra, whose ``u`` and ``ut`` are formed on
    first read.  ``blowup_t`` is set when a step produced a non-finite
    nonlinearity.
    """

    __slots__ = ("t", "blowup_t", "_grid", "_u", "_ut", "_uh", "_uth")

    def __init__(self, u=None, ut=None, *, t, blowup_t=None, uh=None, uth=None, grid=None):
        if (u is None) == (uh is None) or (ut is None) == (uth is None):
            raise ValueError("a state takes one of u, uh and one of ut, uth")
        if grid is None and (u is None or ut is None):
            raise ValueError("a state built from a spectrum needs its grid")
        self.t, self.blowup_t, self._grid = t, blowup_t, grid
        self._u, self._ut, self._uh, self._uth = u, ut, uh, uth

    @property
    def u(self):
        if self._u is None:
            self._u = self._grid.ifft(self._uh)
        return self._u

    @property
    def ut(self):
        if self._ut is None:
            self._ut = self._grid.ifft(self._uth)
        return self._ut

    def spectra(self, grid):
        """(uh, uth); physical arrays are transformed on ``grid``."""
        if self._uh is None:
            self._uh = grid.fft(self._u)
        if self._uth is None:
            self._uth = grid.fft(self._ut)
        return self._uh, self._uth


_GAMMA = (lambda v: -2.0 <= v < math.inf, "a finite number >= -2")


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
        gamma = [("gamma", self.gamma, _GAMMA)]
        _check_fields(gamma if self.form == "zero" else [("p", self.p, _ABOVE_ONE)] + gamma)

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
            if self.p == 2.0:
                # pow(x, 1) = x and pow(x, 2) = x*x exactly: same values, no pow
                return au * (u if self.form == "signed_power" else au)
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
    energy: float
    weighted_l2: float | None = None
    weighted_saturated: bool = False


def _weighted_sq(weight, vh):
    """sum weight |vh|^2: a squared L2 norm by Parseval (Grid.l2_weight,
    Grid.grad_weight)."""
    return float(np.sum(weight * (vh.real**2 + vh.imag**2)))


def norms(state, profile, mu, grid, m_list=(1.0,), weighted=None):
    """All tracked norms of the state; the gradient and u_t by Parseval."""
    vol = grid.cell_volume
    u = state.u
    uh, uth = state.spectra(grid)
    lm = {}
    for m in m_list:
        lm[float(m)] = float((np.sum(np.abs(u) ** m) * vol) ** (1.0 / m))
    l2 = float(math.sqrt(np.sum(u**2) * vol))
    linf = float(np.max(np.abs(u)))
    grad_sq = _weighted_sq(grid.grad_weight, uh)
    ut_sq = _weighted_sq(grid.l2_weight, uth)
    lam = float(profile.lambda_at(state.t))
    h1_semi = math.sqrt(grad_sq)
    sample = {
        "lm": lm,
        "l2": l2,
        "linf": linf,
        "h1_semi": h1_semi,
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
        # flag values that are box-truncation artifacts: either the weight
        # overflows at the corner, or the weighted integrand has not decayed
        # by the edge of the box (divergent on R^n, finite on the box)
        edge = grid.radius >= grid.L - 2.0 * grid.h
        peak = float(np.max(integrand))
        if peak > 0.0 and np.any(edge):
            saturated = saturated or bool(
                float(np.max(integrand[edge])) > 1e-10 * peak)
        sample["weighted_l2"] = float(np.sqrt(wl2_sq))
        sample["weighted_saturated"] = bool(saturated)
    return NormSample(**sample)


def _propagate_spectra(mu, profile, s, t, grid, uh, uth, store):
    p0, p1, d0, d1 = multipliers.phi_values_grid(mu, profile, s, t, grid.xi, store=store)
    return p0 * uh + p1 * uth, d0 * uh + d1 * uth


def linear_step(state, profile, mu, grid, dt, *, store=None):
    """Advance (u, u_t) by the exact linear propagator over [t, t+dt].

    ``store`` is a multipliers.NodeStore for (mu, profile, grid.xi) that
    carries Bessel values from one step to the next.
    """
    if dt < 0.0:
        raise DomainError("dt must be nonnegative")
    if dt == 0.0:
        return state
    uh, uth = state.spectra(grid)
    vh, vth = _propagate_spectra(mu, profile, state.t, state.t + dt, grid, uh, uth, store)
    return FieldState(uh=vh, uth=vth, t=state.t + dt, blowup_t=state.blowup_t, grid=grid)


def duhamel_step(state, profile, mu, grid, nonlin, dt, *, store=None):
    """One exact-linear + midpoint-Duhamel step (second order in dt).

    ``store`` is as for linear_step.
    """
    if dt < 0.0:
        raise DomainError("dt must be nonnegative")
    if dt == 0.0 or state.blowup_t is not None:
        return state
    if nonlin is None or nonlin.form == "zero":
        return linear_step(state, profile, mu, grid, dt, store=store)
    t0 = state.t
    tm, t1 = _step_times(t0, dt)
    uh, uth = state.spectra(grid)
    # exact half step, nonlinearity sampled at the midpoint
    mh, mth = _propagate_spectra(mu, profile, t0, tm, grid, uh, uth, store)
    fval = nonlin.prefactor(profile, tm) * nonlin.g(grid.ifft(mh))
    if not np.all(np.isfinite(fval)):
        return FieldState(uh=uh, uth=uth, t=t0, blowup_t=t1, grid=grid)
    fh = grid.fft(fval) * grid.dealias_mask
    # the midpoint rule kicks u_t by dt f, then the second exact half step
    # carries it: M(t1, tm) (mh, mth + dt fh)
    vh, vth = _propagate_spectra(mu, profile, tm, t1, grid, mh, mth + dt * fh, store)
    return FieldState(uh=vh, uth=vth, t=t1, grid=grid)


def _step_times(t0, dt):
    """Midpoint and end of a Duhamel step from t0."""
    return t0 + 0.5 * dt, t0 + dt


def _step_plan(config, times):
    """(t_out, dt) of every step ``simulate`` takes to the output times.

    A nonlinear run steps dt = min(dt_max, 0.25 h / lambda(t), t_out - t);
    the linear propagator is exact over any dt, so a linear run takes one
    step per output interval.  Neither depends on the solution.
    """
    t = times[0]
    for t_out in times[1:]:
        while t < t_out:
            dt = t_out - t
            if config.nonlin.form != "zero":
                lam = float(config.profile.lambda_at(t))
                dt = min(config.dt_max, 0.25 * config.grid.h / lam, dt)
            yield t_out, dt
            t = t + dt


def _node_times(t, steps, nonlinear):
    """The times at which ``steps``, taken from t, ask for multipliers, in
    order: t, then each step's midpoint (nonlinear steps only) and end."""
    times = [t]
    for _, dt in steps:
        tm, t = _step_times(t, dt)
        times += [tm, t] if nonlinear else [t]
    return times


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


def output_times(T, samples_per_decade, t_first=0.1):
    """Log-spaced output times, 0 and T always included."""
    if T <= 0.0:
        return np.array([0.0])
    if T <= t_first * (1.0 + 1e-12):
        return np.array([0.0, T])
    n = max(2, int(samples_per_decade * math.log10(T / t_first)) + 1)
    times = np.geomspace(t_first, T, n)
    times[-1] = T
    return np.concatenate([[0.0], times])


def _blowup(state, grid, threshold):
    """BlowupRecord if the step that produced ``state`` blew up, else None.

    A non-finite nonlinearity is dated by ``state.blowup_t``, the end of the
    step that met it; a non-finite u or uth, or max|u| above ``threshold``,
    by the time of the state.
    """
    if state.blowup_t is not None:
        reason, t_star = "nonlinearity overflow", state.blowup_t
    elif not (np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.spectra(grid)[1]))):
        reason, t_star = "non-finite field", state.t
    elif float(np.max(np.abs(state.u))) > threshold:
        reason, t_star = "amplitude threshold", state.t
    else:
        return None
    peak = float(np.max(np.abs(state.u[np.isfinite(state.u)]), initial=0.0))
    return BlowupRecord(t_star=t_star, reason=reason, peak=peak)


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
            "L1": ns.lm[1.0] if 1.0 in ns.lm else float(np.sum(np.abs(st.u)) * grid.cell_volume),
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
    store = multipliers.NodeStore(mu, profile, grid.xi)
    nonlinear = nonlin.form != "zero"
    # the step times are known in advance: each chunk of steps brings at most
    # batch_nodes new time nodes (at least one step's), which the store
    # evaluates in one Bessel call per precision before the steps ask for them
    chunk_steps = max(1, store.batch_nodes // (2 if nonlinear else 1))
    plan = _step_plan(config, times)
    threshold = config.blowup_factor * peak0
    while blowup is None and (chunk := list(itertools.islice(plan, chunk_steps))):
        store.prefetch(list(itertools.pairwise(_node_times(state.t, chunk, nonlinear))))
        for t_out, dt in chunk:
            state = duhamel_step(state, profile, mu, grid, nonlin, dt, store=store)
            blowup = _blowup(state, grid, threshold)
            if blowup is not None:
                t_star = blowup.t_star
                rows.append({"t": t_star, "Lambda_t": float(profile.Lambda_at(t_star)),
                             "L1": math.nan, "L2": math.nan, "H1_seminorm": math.nan,
                             "energy": math.nan, "Linf": math.nan, "blowup_flag": 1.0})
                break
            if state.t >= t_out:
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
