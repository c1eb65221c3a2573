"""Grid-free L2/energy norms of the linear flow for radial spectral data.

For data given as radial spectral profiles v0hat(|xi|), v1hat(|xi|), the
solution spectrum is vhat = Phi0 v0hat + Phi1 v1hat and Parseval turns the
norms into one-dimensional radial integrals

    ||v||_L2^2     = (2 pi)^-n area(S^{n-1}) Int |vhat|^2 xi^{n-1} dxi,
    energy^2       = ... Int (lambda^2 xi^2 |vhat|^2 + |vthat|^2) xi^{n-1} dxi.

No spatial grid appears.  The integrand oscillates like e^{2i Lambda(t) xi},
so each output time splits [0, xi_max] in two zones:

* a log zone up to tau = Lambda(t) xi = 16 (or xi = 1), where the
  propagator entries come from ``phi_values_grid`` and Simpson's rule in
  log(xi) integrates |vhat|^2;
* a Filon zone above it, on a lattice of nodes that does not depend on t.
  There ``phase_factors`` gives every entry as Im[W e^{i phi}] with W slowly
  varying and phi = (Lambda(t) - Lambda(s)) xi, so |vhat|^2 =
  E0 + Re(E2 e^{2i phi}) with E0, E2 smooth: Simpson's rule integrates E0
  and Filon's rule (Filon 1928; Iserles & Norsett 2005) integrates the
  oscillation in closed form.  The node count per output time is then
  bounded as t grows, instead of growing like Lambda(t).  Where tau has not
  passed the Bessel orders on the whole zone, or the phase advances too
  little per panel to need Filon's rule, the zone's nodes join the log
  zone's and Simpson's rule integrates |vhat|^2 itself.

Each zone carries a fine rule on every node and a coarse one on the
even-indexed nodes; a disagreement beyond the tolerance raises
QuadratureError.  ``linear_decay_series`` builds the lattice and its Bessel
values at s once, so each output time evaluates only the tau side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .multipliers import (DEFAULT_K, SPHERE_AREA, NodeStore, phase_factors, phi_values_grid,
                          rho_of)

# The log zone ends at tau = Lambda(t) xi = 16, where specfun's Hankel
# expansion takes over and H+(tau) e^{-i tau} is smooth in log(xi).  Ending
# it at tau = 30 leaves ~11 coarse log-zone nodes per period at its top,
# and their error decides the fine-coarse gap: mu = 3 at rtol 1e-8 then
# raised from t = 100 on, and the worst error against dense references
# over mu in {1.5, 3, 4} was 8e-8 (3.4e-8 with 16).
_TAU_SPLIT = 16.0

# Panels whose phase advances by less than this per step use Simpson's rule
# on the recombined integrand |vhat|^2, the rest Filon's rule on its
# oscillating part.  With little phase per panel the smooth part and the
# oscillating part err in opposite directions, and only Simpson's rule on
# their sum keeps that cancellation.  Against dense Simpson references
# (mu in {1.5, 3, 4}, 0.1 <= t <= 1e3, default settings) Filon's rule on
# every panel erred up to 4.8e-8 at t <= 1; every threshold from 0.1 to 0.3
# gave 3.1e-9 there and 3.4e-8 overall, while 0.5 and 1 let Simpson's rule
# miss the phase (7e-8 and 7e-7).
_SLOW_PHASE = 0.25

# The phase form is used once tau = Lambda(t)|xi| exceeds the larger Bessel
# order by this margin on the whole Filon zone.  Below the Hankel functions'
# turning point (tau < |order|) E0 and E2 exceed |vhat|^2 by orders of
# magnitude and their split loses the digits: on the zone from xi = 1,
# int E0 / int |vhat|^2 measured 7e14, 1e7 and 6e2 for mu = 19 (order 10) at
# Lambda(t) = 3, 5 and 7, and at most 3 from tau = order on, for mu = 4 to 19.
_TURNING_MARGIN = 2.0


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


def _split(Lam, xi_max):
    """Top of the log zone: tau < _TAU_SPLIT and xi <= 1 below it."""
    return min(_TAU_SPLIT / Lam, 1.0, xi_max)


def _zone_start(lattice, xi_split):
    """Index of the Filon zone's first node in an ascending lattice that ends
    at xi_max: the nearest node at or below xi_split whose distance from the
    top is a multiple of 4 nodes, so the even-indexed nodes nest."""
    above = lattice.size - int(np.searchsorted(lattice, xi_split, side="right"))
    return lattice.size - 1 - 4 * -(-above // 4)


def _lattice(xi_max, pts_per_period, log_pts_per_decade, xi_split):
    """The Filon zone's nodes, ascending, from ``_zone_start`` to xi_max.

    The lattice does not depend on t: above xi = 1 a uniform step of at most
    pi/(8 pts_per_period), below it 2 log_pts_per_decade nodes per decade
    down from min(1, xi_max).  A smaller xi_split extends it downward and
    leaves every node above unchanged, so a series builds it once for its
    latest time and each time uses a suffix.
    """
    if xi_max > 1.0:
        # a multiple of 4 steps puts xi = 1 on a panel edge of both rules
        steps = 4 * math.ceil((xi_max - 1.0) * 2.0 * pts_per_period / math.pi)
        top = np.linspace(1.0, xi_max, steps + 1)
    else:
        top = np.array([xi_max])
    per_decade = 2 * log_pts_per_decade
    below = max(0, math.ceil(per_decade * math.log10(top[0] / xi_split))) + 4
    tail = top[0] * 10.0 ** (-np.arange(below, 0, -1) / per_decade)
    lattice = np.concatenate([tail, top])
    return lattice[_zone_start(lattice, xi_split):]


def _nodes(Lam, xi_max, pts_per_period, log_pts_per_decade, lattice=None):
    """The nodes of one output time: (log_xi, lo, zone).

    ``zone`` = lattice[lo:] is the Filon zone (empty without one; ``lattice``
    is built here when None).  ``log_xi`` is the log zone, m = 1 mod 4 nodes
    from xi_lo up to the first Filon node or to xi_max; the junction node
    belongs to both zones.
    """
    xi_split = _split(Lam, xi_max)
    lo, zone = 0, np.empty(0)
    if xi_max > xi_split * (1.0 + 1e-12):
        if lattice is None:
            lattice = _lattice(xi_max, pts_per_period, log_pts_per_decade, xi_split)
        lo = _zone_start(lattice, xi_split)
        if lo < 0:
            raise ValueError("the lattice does not reach this time's split")
        zone = lattice[lo:]
    xi_hi = float(zone[0]) if zone.size else xi_split
    # the log zone resolves the K/Lambda(t) structure at low frequency
    xi_lo = max(xi_max * 1e-12, (DEFAULT_K / Lam) * 1e-4, 1e-12)
    if not xi_hi > xi_lo:
        return np.empty(0), lo, zone
    count = max(65, int(2 * log_pts_per_decade * math.log10(xi_hi / xi_lo)) + 1)
    return np.geomspace(xi_lo, xi_hi, count + (1 - count) % 4), lo, zone


def _lagrange(a, b, m0, m1, m2):
    """Integrals of the quadratic Lagrange polynomials of the nodes -a, 0, b
    against a weight whose moments over [-a, b] are m0, m1, m2."""
    return ((m2 - b * m1) / (a * (a + b)),
            -(m2 + (a - b) * m1 - a * b * m0) / (a * b),
            (m2 + a * m1) / (b * (a + b)))


def _filon_moments(a, b, omega):
    """int_{-a}^{b} u^k e^{i omega u} du for k = 0, 1, 2, by parts; each
    division by i omega costs ~1/(omega max(a, b)) digits, at most ~1.5
    digits on the panels that use it."""
    i_omega = 1j * omega
    e_b, e_a = np.exp(i_omega * b), np.exp(-i_omega * a)
    m0 = (e_b - e_a) / i_omega
    m1 = (b * e_b + a * e_a - m0) / i_omega
    m2 = (b * b * e_b - a * a * e_a - 2.0 * m1) / i_omega
    return m0, m1, m2


def _panel_rows(x, omega):
    """(smooth, wave): (fine, coarse) weights, each of shape (2, x.size), for
    the integrals of f(x) and of f(x) e^{i omega x} over [x[0], x[-1]], f
    smooth and x.size = 1 mod 4.

    Fine panels are consecutive node pairs, coarse ones pairs of the
    even-indexed nodes.  ``smooth`` is Simpson's rule on unequal steps.  In
    ``wave``, panels whose phase advances by at least _SLOW_PHASE per step get
    Filon's rule (Filon 1928): f quadratic through the panel's three nodes,
    times e^{i omega x}, integrated exactly; the others get Simpson's rule
    applied to f e^{i omega x}.
    """
    smooth = np.zeros((2, x.size))
    wave = np.zeros((2, x.size), dtype=complex)
    turns = np.exp(1j * omega * x)
    for smooth_row, wave_row, step in zip(smooth, wave, (1, 2)):
        ends = slice(None, -1, 2 * step), slice(step, None, 2 * step), slice(2 * step, None, 2 * step)
        x0, x1, x2 = (x[e] for e in ends)
        a, b = x1 - x0, x2 - x1
        # the moments of 1, u and u^2 over [-a, b]
        simpson = _lagrange(a, b, a + b, (b * b - a * a) / 2.0, (b**3 + a**3) / 3.0)
        weights = [w * turns[e] for w, e in zip(simpson, ends)]
        fast = abs(omega) * np.maximum(a, b) >= _SLOW_PHASE
        if np.any(fast):
            af, bf = a[fast], b[fast]
            turn = turns[ends[1]][fast]
            for w, filon in zip(weights, _lagrange(af, bf, *_filon_moments(af, bf, omega))):
                w[fast] = turn * filon
        for e, s_w, w_w in zip(ends, simpson, weights):
            smooth_row[e] += s_w
            wave_row[e] += w_w
    return smooth, wave


def _weights(log_xi, zone, n, omega):
    """(fine, coarse) weights of one output time: (log, smooth, wave).

    ``log`` weighs |vhat|^2 on the log nodes, the junction excluded when a
    Filon zone follows.  On the Filon nodes ``smooth`` (Simpson) weighs E0
    and ``wave`` (Filon, at frequency omega = 2 d(phi)/dxi) weighs E2, with
    the log zone's weight on the junction folded into both, as |vhat|^2 =
    E0 + Re(E2 e^{i omega xi}) there.  Where no panel's phase advances by
    _SLOW_PHASE, ``wave`` is None: every panel is Simpson's, and ``smooth``
    weighs |vhat|^2 itself.  The log zone's rule is Simpson's in log(xi):
    int f dxi = int f xi dlog(xi); the integrand tends to a constant below
    xi_lo = log_xi[0], so [0, xi_lo] adds f(xi_lo) xi_lo / n.
    """
    log = np.zeros((2, 0))
    if log_xi.size:
        log = _simpson_rows(log_xi.size) * (math.log(log_xi[-1] / log_xi[0]) * log_xi)
        log[:, 0] += log_xi[0] / n
    if not zone.size:
        return log, np.zeros((2, 0)), None
    smooth, wave = _panel_rows(zone, omega)
    if abs(omega) * float(np.max(np.diff(zone[::2]))) < _SLOW_PHASE:
        wave = None
    if log.size:
        smooth[:, 0] += log[:, -1]
        if wave is not None:
            wave[:, 0] += log[:, -1] * np.exp(1j * omega * zone[0])
        log = log[:, :-1]
    return log, smooth, wave


def _integrands(lam, xi, n, vh2, vth2):
    """Columns (L2, energy) of the radial integrand from |vhat|^2 and
    |vthat|^2, or from their smooth or oscillating parts."""
    meas = xi ** (n - 1)
    return np.stack([vh2 * meas, (lam**2 * xi**2 * vh2 + vth2) * meas], axis=1)


def _default_xi_max(v0_hat, v1_hat):
    """Where the spectra have decayed to ~1e-15 of their peak, times 1.5."""
    probe = np.geomspace(1e-3, 1e3, 400)
    mags = np.abs(v0_hat(probe)) + np.abs(v1_hat(probe))
    alive = probe[mags > 1e-15 * max(float(np.max(mags)), 1e-300)]
    return float(alive[-1]) * 1.5 if alive.size else 0.0


def linear_norm_radial(mu, profile, v0_hat, v1_hat, t, n=1, s=0.0,
                       xi_max=None, rtol=1e-8, pts_per_period=24,
                       log_pts_per_decade=120, *, _lattice_store=None):
    """L2 norm and energy of the linear solution at time t by radial quadrature.

    ``v0_hat``/``v1_hat`` are callables returning the (possibly complex)
    radial spectral amplitudes.  ``xi_max`` defaults to where a Gaussian-type
    profile has decayed to ~1e-15 of its peak, probed numerically.
    ``log_pts_per_decade`` sets the coarse rule's density in log(xi) and
    ``pts_per_period`` the Filon zone's uniform step above xi = 1,
    pi/(8 pts_per_period); the fine rule, whose value is returned, has twice
    that density on the same nodes.  ``_lattice_store`` is a NodeStore of
    (mu, profile) on a lattice from ``_lattice`` that reaches this time's
    split, shared by the times of a series.
    """
    if xi_max is None:
        xi_max = _default_xi_max(v0_hat, v1_hat)
    Lam = float(profile.Lambda_at(t))
    store = _lattice_store
    if store is not None and not (store.mu == mu and store.profile is profile):
        raise ValueError("the lattice store was built for another (mu, profile)")
    log_xi, lo, zone = _nodes(Lam, xi_max, pts_per_period, log_pts_per_decade,
                              None if store is None else store.nonzero)
    if not (log_xi.size or zone.size):
        return RadialNorms(l2=0.0, energy=0.0, t=t)
    omega = 2.0 * (Lam - float(profile.Lambda_at(s)))
    rho = rho_of(mu)
    phase = zone.size and Lam * zone[0] >= max(abs(rho), abs(rho - 1.0)) + _TURNING_MARGIN
    log_w, smooth_w, wave_w = _weights(log_xi, zone, n, omega if phase else 0.0)
    lam = float(profile.lambda_at(t))
    # without the phase form the Filon nodes join the log nodes, and
    # Simpson's rule integrates |vhat|^2 from the entries themselves
    xi, weights = log_xi[:log_w.shape[1]], log_w
    if wave_w is None:
        xi, weights = np.concatenate([xi, zone]), np.concatenate([log_w, smooth_w], axis=1)
    sq = np.zeros((2, 2))  # rows (fine, coarse), columns (L2, energy)
    if xi.size:
        p0, p1, d0, d1 = phi_values_grid(mu, profile, s, t, xi)
        a0, a1 = v0_hat(xi), v1_hat(xi)
        sq += weights @ _integrands(lam, xi, n, np.abs(p0 * a0 + p1 * a1) ** 2,
                                    np.abs(d0 * a0 + d1 * a1) ** 2)
    if wave_w is not None:
        factors = phase_factors(store or NodeStore(mu, profile, zone), s, t, lo)
        a0, a1 = v0_hat(zone), v1_hat(zone)
        # sum_e a_e Im[W_e e^{i phi}] = (A e^{i phi} - B e^{-i phi}) / 2i with
        # A = sum W_e a_e, B = sum conj(W_e) a_e, so its squared modulus is
        # E0 + Re(E2 e^{2i phi}): E0 = (|A|^2 + |B|^2)/4, E2 = -A conj(B)/2
        smooth, wave = [], []
        for w_0, w_1 in (factors[:2], factors[2:]):
            big_a = w_0 * a0 + w_1 * a1
            big_b = np.conj(w_0) * a0 + np.conj(w_1) * a1
            smooth.append((np.abs(big_a) ** 2 + np.abs(big_b) ** 2) / 4.0)
            wave.append(-0.5 * big_a * np.conj(big_b))
        sq += smooth_w @ _integrands(lam, zone, n, *smooth)
        sq += (wave_w @ _integrands(lam, zone, n, *wave)).real
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
    told otherwise.  The Filon lattice and its Bessel values at s are built
    once, for the latest time, and every time uses its own part of them.
    """
    from .analysis import NormSeries

    kwargs.setdefault("rtol", 1e-5)
    kwargs.setdefault("pts_per_period", 12)
    kwargs.setdefault("log_pts_per_decade", 60)
    if kwargs.get("xi_max") is None:
        kwargs["xi_max"] = _default_xi_max(v0_hat, v1_hat)
    xi_max = kwargs["xi_max"]
    xi_split = min((_split(float(profile.Lambda_at(t)), xi_max) for t in times),
                   default=xi_max)
    store = None
    if xi_max > xi_split * (1.0 + 1e-12):
        store = NodeStore(mu, profile, _lattice(xi_max, kwargs["pts_per_period"],
                                                kwargs["log_pts_per_decade"], xi_split))
        store.node(s).evaluate()
    rows = [linear_norm_radial(mu, profile, v0_hat, v1_hat, t, n=n, s=s,
                               _lattice_store=store, **kwargs)
            for t in times]
    meta = {"mu": mu, "n": n, "kind": profile.kind, "linear": True}
    meta.update(metadata or {})
    return NormSeries(
        times=np.asarray(times, dtype=float),
        lambda_big=np.array([float(profile.Lambda_at(t)) for t in times]),
        tracks={"L2": np.array([r.l2 for r in rows]),
                "energy": np.array([r.energy for r in rows])},
        metadata=meta)
