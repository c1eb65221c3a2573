"""Grid-free L2/energy norms of the linear flow for radial spectral data.

For data given as radial spectral profiles v0hat(|xi|), v1hat(|xi|), the
solution spectrum is vhat = Phi0 v0hat + Phi1 v1hat and Parseval turns the
norms into one-dimensional radial integrals

    ||v||_L2^2     = (2 pi)^-n area(S^{n-1}) Int |vhat|^2 xi^{n-1} dxi,
    energy^2       = ... Int (lambda^2 xi^2 |vhat|^2 + |vthat|^2) xi^{n-1} dxi.

No spatial grid appears.  Every output time integrates on a suffix of one
lattice of nodes that does not depend on t: 10 pts_per_period nodes per
decade below min(1, xi_max) down to its xi_lo, uniform above xi = 1.  The
integrand oscillates like e^{2i Lambda(t) xi}, so the suffix splits in two:

* below tau = Lambda(t) xi = 16 (or xi = 1) the propagator entries come
  from ``phi_values_grid`` and Simpson's rule on unequal steps integrates
  |vhat|^2;
* above it, the Filon zone, ``phase_factors`` gives every entry as
  Im[W e^{i phi}] with W slowly varying and phi = (Lambda(t) - Lambda(s)) xi,
  so |vhat|^2 = E0 + Re(E2 e^{2i phi}) with E0, E2 smooth: the same Simpson
  rule integrates E0 and Filon's rule (Filon 1928; Iserles & Norsett 2005)
  the oscillation e^{i omega xi}, omega xi = 2 phi to the bit, in closed
  form.  The node count per output time is then bounded as t grows.
  Where tau has not passed the Bessel orders on the whole zone, or the
  phase advances too little per panel to need Filon's rule, the zone takes
  no phase form and Simpson's rule integrates |vhat|^2 there too.

The rule is a fine one on every node and a coarse one on the even-indexed
nodes; a disagreement beyond the tolerance raises QuadratureError.  Both
zones of a time read one store on the lattice, the sigma side from its node
at s and the tau side from one node at t.  ``linear_decay_series`` builds
the lattice once and, between the calls, has the store prefetch the pairs
(s, t) of its times, each from the time's first node on, in batches of at
most BATCH_POINTS // 4 tau points, so that a call only reads values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import NormSeries
from .errors import DomainError, QuadratureError
from .multipliers import (_NON_NEGATIVE, _POSITIVE, BATCH_POINTS, DEFAULT_K, NodeStore,
                          _check_fields, _sphere_area, phase_factors, phi_values_grid, rho_of)
from .specfun import _SERIES_SWITCH

# The Filon zone starts at tau = Lambda(t) xi = 16, where specfun's Hankel
# expansion takes over and the phase factors are smooth in log(xi).
# Starting it at tau = 30 leaves ~11 coarse log-spaced nodes per period
# below it, and their error decides the fine-coarse gap: mu = 3 at rtol
# 1e-8 then raised from t = 100 on, and the worst error against dense
# references over mu in {1.5, 3, 4} was 8e-8 (3.4e-8 with 16; both measured
# with a per-time log grid of the same density).
_TAU_SPLIT = _SERIES_SWITCH

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


def _bounds(Lam, xi_max):
    """(xi_lo, xi_split) of an output time at Lambda(t) = Lam: its nodes
    start at or below xi_lo, its Filon zone at or below xi_split.  xi_lo
    lies 4 decades below K/Lambda(t), so the rule resolves the structure at
    low frequency, and at most at xi_split; xi_split is where tau =
    Lambda(t) xi = _TAU_SPLIT, at most 1 and xi_max."""
    xi_split = min(_TAU_SPLIT / Lam, 1.0, xi_max)
    xi_lo = max(xi_max * 1e-12, (DEFAULT_K / Lam) * 1e-4, 1e-12)
    return min(xi_lo, xi_split), xi_split


def _zone_start(lattice, xi):
    """Index of the nearest node at or below xi in an ascending lattice that
    ends at xi_max, whose distance from the top is a multiple of 4 nodes, so
    that the even-indexed nodes from it on nest."""
    above = lattice.size - int(np.searchsorted(lattice, xi, side="right"))
    return lattice.size - 1 - 4 * -(-above // 4)


def _lattice(xi_max, pts_per_period, xi_lo):
    """The rule's nodes, ascending, from ``_zone_start`` at xi_lo to xi_max.

    The lattice does not depend on t: above xi = 1 a uniform step of at most
    pi/(8 pts_per_period), below it 10 pts_per_period nodes per decade down
    from min(1, xi_max).  A smaller xi_lo extends it downward and
    leaves every node above unchanged, so a series builds it once for its
    latest time and each time uses a suffix.
    """
    if xi_max > 1.0:
        # a multiple of 4 steps puts xi = 1 on a panel edge of both rules
        steps = 4 * math.ceil((xi_max - 1.0) * 2.0 * pts_per_period / math.pi)
        top = np.linspace(1.0, xi_max, steps + 1)
    else:
        top = np.array([xi_max])
    per_decade = 10 * pts_per_period
    decades = math.log10(top[0] / xi_lo) if top[0] > xi_lo else 0.0
    below = math.ceil(per_decade * decades) + 4
    tail = top[0] * 10.0 ** (-np.arange(below, 0, -1) / per_decade)
    lattice = np.concatenate([tail, top])
    return lattice[_zone_start(lattice, xi_lo):]


def _rule_store(mu, profile, times, xi_max, pts_per_period):
    """NodeStore of (mu, profile) on the ``_lattice`` that reaches the xi_lo
    of each of ``times``."""
    xi_lo = min((_bounds(float(profile.Lambda_at(t)), xi_max)[0] for t in times),
                default=xi_max)
    return NodeStore(mu, profile, _lattice(xi_max, pts_per_period, xi_lo))


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


def _panel_rows(x, omega, start):
    """(smooth, wave): (fine, coarse) weights, each of shape (2, x.size), for
    the integrals of f(x) and of f(x) e^{i omega x} over [x[0], x[-1]], f
    smooth and x.size = 1 mod 4.

    Fine panels are consecutive node pairs, coarse ones pairs of the
    even-indexed nodes.  ``smooth`` is Simpson's rule on unequal steps.  In
    ``wave``, panels from node ``start`` on whose phase advances by at least
    _SLOW_PHASE per step get Filon's rule (Filon 1928): f quadratic through
    the panel's three nodes, times e^{i omega x}, integrated exactly; the
    others get Simpson's rule applied to f e^{i omega x}.
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
        fast = (abs(omega) * np.maximum(a, b) >= _SLOW_PHASE) & (
            np.arange(0, x.size - 1, 2 * step) >= start)
        if np.any(fast):
            af, bf = a[fast], b[fast]
            turn = turns[ends[1]][fast]
            for w, filon in zip(weights, _lagrange(af, bf, *_filon_moments(af, bf, omega))):
                w[fast] = turn * filon
        for e, s_w, w_w in zip(ends, simpson, weights):
            smooth_row[e] += s_w
            wave_row[e] += w_w
    return smooth, wave


def _weights(xi, k, n, omega):
    """(smooth, wave): the (fine, coarse) weights of one output time on its
    nodes xi, with the phase form on xi[k:] (none for k = xi.size).

    ``smooth`` (Simpson's rule on unequal steps) weighs |vhat|^2 on xi[:k]
    and E0 on xi[k:]; ``wave``, of shape (2, xi.size - k), weighs E2 (Filon's
    rule at frequency omega = 2 d(phi)/dxi).  The panels below xi[k] are
    Simpson's in both rows, which folds their weight on xi[k] into E0 and
    E2, as |vhat|^2 = E0 + Re(E2 e^{i omega xi}) there.  The integrand tends
    to f(xi[0]) (xi / xi[0])^(n-1) below xi[0], so [0, xi[0]] adds
    f(xi[0]) xi[0] / n.
    """
    smooth, wave = _panel_rows(xi, omega, k)
    smooth[:, 0] += xi[0] / n
    return smooth, wave[:, k:]


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


def _check_rule(n, xi_max, rtol, pts_per_period):
    """Raise DomainError unless n is 1, 2 or 3, xi_max and rtol are finite
    and >= 0, and pts_per_period is finite and > 0."""
    _sphere_area(n)
    _check_fields([("xi_max", xi_max, _NON_NEGATIVE), ("rtol", rtol, _NON_NEGATIVE),
                   ("pts_per_period", pts_per_period, _POSITIVE)])


def linear_norm_radial(mu, profile, v0_hat, v1_hat, t, n=1, s=0.0,
                       xi_max=None, rtol=1e-8, pts_per_period=24, *, _lattice_store=None):
    """L2 norm and energy of the linear solution at time t by radial quadrature.

    ``v0_hat``/``v1_hat`` are callables returning the (possibly complex)
    radial spectral amplitudes.  ``xi_max`` defaults to where a Gaussian-type
    profile has decayed to ~1e-15 of its peak, probed numerically.
    ``pts_per_period`` sets the lattice's density: a uniform step of at
    most pi/(8 pts_per_period) above xi = 1 and 10 pts_per_period nodes per
    decade of log(xi) below it.  The fine rule, whose value is returned,
    takes every node and the coarse rule every other one.  ``_lattice_store``
    is a series' ``_rule_store``, whose nodes its times share.  Raises
    DomainError unless n is 1, 2 or 3, xi_max and rtol are >= 0 and
    pts_per_period > 0, all finite.
    """
    if xi_max is None:
        xi_max = _default_xi_max(v0_hat, v1_hat)
    _check_rule(n, xi_max, rtol, pts_per_period)
    Lam = float(profile.Lambda_at(t))
    xi_lo, xi_split = _bounds(Lam, xi_max)
    if not xi_max > xi_lo:
        return RadialNorms(l2=0.0, energy=0.0, t=t)
    store = _lattice_store or _rule_store(mu, profile, [t], xi_max, pts_per_period)
    lattice = store.nonzero
    # this time's nodes are lattice[lo:], and the phase form takes
    # lattice[c:], the Filon zone, once tau has passed the Bessel orders there
    # and some coarse panel's phase advances by _SLOW_PHASE; below c the
    # entries themselves give |vhat|^2
    lo, c = _zone_start(lattice, xi_lo), lattice.size
    omega = 2.0 * (Lam - float(profile.Lambda_at(s)))
    if xi_max > xi_split * (1.0 + 1e-12):
        zone = lattice[_zone_start(lattice, xi_split):]
        rho = rho_of(mu)
        if (Lam * zone[0] >= max(abs(rho), abs(rho - 1.0)) + _TURNING_MARGIN
                and abs(omega) * float(np.max(np.diff(zone[::2]))) >= _SLOW_PHASE):
            c -= zone.size
    xi = lattice[lo:]
    smooth_w, wave_w = _weights(xi, c - lo, n, omega)
    lam = float(profile.lambda_at(t))
    p0, p1, d0, d1 = phi_values_grid(mu, profile, s, t, lattice[lo:c], store=store)
    a0, a1 = v0_hat(lattice[lo:c]), v1_hat(lattice[lo:c])
    smooth = [np.abs(p0 * a0 + p1 * a1) ** 2, np.abs(d0 * a0 + d1 * a1) ** 2]
    sq = np.zeros((2, 2))  # rows (fine, coarse), columns (L2, energy)
    if c < lattice.size:
        zone = lattice[c:]
        factors = phase_factors(store, s, t, c)
        a0, a1 = v0_hat(zone), v1_hat(zone)
        # sum_e a_e Im[W_e e^{i phi}] = (A e^{i phi} - B e^{-i phi}) / 2i with
        # A = sum W_e a_e, B = sum conj(W_e) a_e, so its squared modulus is
        # E0 + Re(E2 e^{2i phi}): E0 = (|A|^2 + |B|^2)/4, E2 = -A conj(B)/2
        wave = []
        for i, (w_0, w_1) in enumerate((factors[:2], factors[2:])):
            big_a = w_0 * a0 + w_1 * a1
            big_b = np.conj(w_0) * a0 + np.conj(w_1) * a1
            e0 = (np.abs(big_a) ** 2 + np.abs(big_b) ** 2) / 4.0
            smooth[i] = np.concatenate([smooth[i], e0])
            wave.append(-0.5 * big_a * np.conj(big_b))
        sq += (wave_w @ _integrands(lam, zone, n, *wave)).real
    sq += smooth_w @ _integrands(lam, xi, n, *smooth)
    const = _sphere_area(n) / (2.0 * math.pi) ** n
    fine, coarse = np.sqrt(np.maximum(const * sq, 0.0)).tolist()
    # Simpson's error drops ~16x per refinement, so the coarse-fine gap may
    # legitimately reach ~16x the fine error; certify fine to ~2*rtol.
    for name, rough, f in zip(("L2", "energy"), coarse, fine):
        scale = max(abs(f), 1e-300)
        if abs(rough - f) / scale > max(rtol, 1e-14) * 30.0:
            raise QuadratureError(
                f"radial quadrature for {name} did not converge at t={t:g}: "
                f"coarse={rough!r}, fine={f!r}")
    return RadialNorms(l2=fine[0], energy=fine[1], t=t)


def linear_decay_series(mu, profile, v0_hat, v1_hat, times, n=1, s=0.0,
                        metadata=None, **kwargs):
    """NormSeries of the linear flow at the given output times.

    Slope fitting tolerates far larger point errors than the 1e-8 default
    of linear_norm_radial, so this helper runs lighter quadrature unless
    told otherwise.  The lattice is built once, for the latest time, and
    every time uses a suffix of it.  The Bessel values of the times the
    calls read are evaluated between the calls, in batches of at most
    BATCH_POINTS // 4 tau points with one call per precision, the side at s
    once for all of them.  Raises DomainError as linear_norm_radial does, and
    for times that are not strictly increasing, before building anything.
    """
    kwargs = {"rtol": 1e-5, "pts_per_period": 12} | kwargs
    if kwargs.get("xi_max") is None:
        kwargs["xi_max"] = _default_xi_max(v0_hat, v1_hat)
    _check_rule(n, **kwargs)
    if not np.all(np.diff(times) > 0.0):
        raise DomainError("times must be strictly increasing")
    xi_max = kwargs["xi_max"]
    store = _rule_store(mu, profile, times, xi_max, kwargs["pts_per_period"])
    lattice = store.nonzero
    # the pairs (s, t) that the calls read, each from its first node on,
    # grouped by the time before whose call they are evaluated.  A batch
    # holds at most BATCH_POINTS // 4 tau points (and at least one time):
    # a specfun call peaks at ~270 B per point in longdouble and ~80 B in
    # float64 (tracemalloc).  On the radial_decay series (2-vCPU x86-64 VM)
    # with longdouble below sigma = 1, batches of 2^15 and 2^14 points
    # raised peak_rss_mb by 11% and 4%, while 2^13 and 2^12 kept it within
    # 0.3% at the same wall time; at its integer mu = 4 the calls are float64
    batches, points = {}, math.inf
    for t in times:
        xi_lo = _bounds(float(profile.Lambda_at(t)), xi_max)[0]
        if not (0.0 <= s < t and xi_max > xi_lo):
            continue
        lo = _zone_start(lattice, xi_lo)
        if points + lattice.size - lo > BATCH_POINTS // 4:
            batch, points = batches.setdefault(t, []), 0
        batch.append((s, t, lo))
        points += lattice.size - lo
    rows = []
    for t in times:
        store.prefetch(batches.get(t, []))
        rows.append(linear_norm_radial(mu, profile, v0_hat, v1_hat, t, n=n, s=s,
                                       _lattice_store=store, **kwargs))
    meta = {"mu": mu, "n": n, "kind": profile.kind, "linear": True}
    meta.update(metadata or {})
    return NormSeries(
        times=np.asarray(times, dtype=float),
        lambda_big=np.array([float(profile.Lambda_at(t)) for t in times]),
        tracks={"L2": np.array([r.l2 for r in rows]),
                "energy": np.array([r.energy for r in rows])},
        metadata=meta)
