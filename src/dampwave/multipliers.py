"""Exact Fourier-multiplier propagators of the damped linear flow.

For the parameter-dependent linear problem

    v_tt - lambda(t)^2 Lap v + b(t) v_t = 0,   v(s) = v0, v_t(s) = v1,

each spatial mode satisfies, in the stretched variable tau = Lambda(t)|xi|,
the universal equation ``w'' + w + (mu/tau) w' = 0``, which the substitution
``w = tau^rho y`` with ``rho = (1-mu)/2`` turns into Bessel's equation of
order rho.  Solving the two-point data problem with the Hankel pair gives
the four propagator entries

    phi0  = P * Psi(1, rho-1, +1)          dphi0 = lambda(t) * P * Psi(2, rho-1, 0)
    phi1  = -P/lambda(s) * Psi(0, rho, 0)  dphi1 = -lambda(t)/lambda(s) * P * Psi(1, rho, -1)

with prefactor ``P = Lambda(t)^rho / Lambda(s)^(rho-1)`` and the Hankel
cross determinant

    Psi(k, r, d) = (i pi/4) |xi|^k [H-_r(sigma) H+_{r+d}(tau) - H+_r(sigma) H-_{r+d}(tau)]
                 = -(pi/2) |xi|^k Im[conj(H+_r(sigma)) H+_{r+d}(tau)],

where sigma = Lambda(s)|xi|.  The Im-form is used throughout: it is exactly
real, which is also why all four entries carry zero imaginary part.
The entries are formed in two stages: J and Y at orders rho and rho - 1 at
one time node, for the sorted distinct |xi| (NodeStore), then the cross
products of the nodes at s and t.  ``phase_factors`` gives the same entries
in phase form, Im[W e^{i (Lambda(t) - Lambda(s))|xi|}] with W slowly varying
in |xi|, for quadratures that integrate the phase in closed form.

The module also provides a brute-force per-mode ODE oracle (independent of
the special functions), the frequency-zone classifier, and an empirical
certification of the zone bounds behind the linear decay estimates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import _ode
from .errors import DomainError, UnsupportedOrderError
from .specfun import _PI, MAX_ORDER, _jy, jy_extended

# Beyond this tau the Hankel phases lose the target accuracy even in
# extended precision; modes past it are rejected rather than approximated.
TAU_MAX = 1.0e7

DEFAULT_K = 0.5

# absolute error tolerance of the ODE oracle's adaptive step control
_ORACLE_ATOL = 1e-12

# surface area of the unit sphere S^{n-1} in R^n
SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def rho_of(mu):
    """Bessel order rho = (1 - mu)/2 attached to damping strength mu."""
    return (1.0 - mu) / 2.0


def _check_orders(mu):
    rho = rho_of(mu)
    if max(abs(rho), abs(rho - 1.0)) > MAX_ORDER:
        raise UnsupportedOrderError(
            f"mu={mu:g} needs Hankel orders {rho:g}, {rho - 1.0:g} beyond +-{MAX_ORDER:g}")
    return rho


# Below this sigma the cross products are assembled in extended precision:
# |H(sigma)| grows like sigma^-|order|, and the determinant cancellation
# would otherwise cost ~|H(sigma) H(tau)| * 1e-16 in absolute error.
_EXT_SIGMA = 1.0


@dataclass(frozen=True)
class MultiplierValues:
    """Propagator entries at one (t, s, |xi|); identity at t = s."""

    phi0: complex
    phi1: complex
    dphi0: complex
    dphi1: complex


def _zero_mode_values(mu, lam_s, lam_t, Lam_s, Lam_t):
    """Entries at xi = 0; phi1 is the integral of exp(-int b) in closed form."""
    g = 1.0 - mu
    big_l = math.log(Lam_t / Lam_s)
    if abs(g) < 1e-12:
        phi1 = Lam_s * big_l / lam_s
    else:
        phi1 = Lam_s * math.expm1(g * big_l) / (g * lam_s)
    dphi1 = (Lam_s / Lam_t) ** mu * lam_t / lam_s
    return 1.0, phi1, 0.0, dphi1


class _Node:
    """Bessel values on sigma = Lambda(t)|xi| at one time t, for sorted |xi| > 0.

    J and Y at orders rho and rho - 1 are kept in float64 on a suffix of the
    arguments and in longdouble on a prefix; a store with a schedule sets
    both for a batch of nodes at once, and each part grows when a pair of
    times asks for more of it.
    """

    def __init__(self, store, t):
        self.rho = store.rho
        self.lam = float(store.profile.lambda_at(t))
        self.Lam = float(store.profile.Lambda_at(t))
        self.args = self.Lam * store.nonzero
        # arguments below _EXT_SIGMA form a prefix, because |xi| is sorted
        self.n_ext = int(np.searchsorted(self.args, _EXT_SIGMA))
        self.lo = self.args.size
        self.double = [np.empty(0)] * 4
        self.hi = 0
        self.ext = [np.empty(0, dtype=np.longdouble)] * 4

    def double_from(self, lo):
        """Float64 (J_rho, Y_rho, J_{rho-1}, Y_{rho-1}) on args[lo:]."""
        if lo < self.lo:
            new = _jy(self.rho, self.args[lo:self.lo])
            self.double = [np.concatenate(p) for p in zip(new, self.double)]
            self.lo = lo
        return [v[lo - self.lo:] for v in self.double]

    def evaluate(self):
        """Values on every argument: longdouble below n_ext, float64 above."""
        self.extended_to(self.n_ext)
        self.double_from(self.n_ext)

    def extended_to(self, hi):
        """Longdouble (J_rho, Y_rho, J_{rho-1}, Y_{rho-1}) on args[:hi]."""
        if hi > self.hi:
            new = jy_extended(self.rho, self.args[self.hi:hi])
            self.ext = [np.concatenate(p) for p in zip(self.ext, new)]
            self.hi = hi
        return [v[:hi] for v in self.ext]


# Bessel points (distinct nonzero |xi| times nodes) that a NodeStore with a
# schedule evaluates in one float64 and one extended call
BATCH_POINTS = 2**15


def _batched(fn, rho, parts):
    """fn(rho, .)'s four arrays over the concatenated parts, split per part:
    one tuple of four per part, or None (and no call) when all are empty."""
    if not sum(p.size for p in parts):
        return None
    flat = np.concatenate(parts)
    cuts = np.cumsum([p.size for p in parts[:-1]])
    return zip(*(np.split(v, cuts) for v in fn(rho, flat)))


class NodeStore:
    """Bessel values per time node for one (mu, profile, xi).

    Holds the distinct values of xi, sorted, with the inverse that gathers
    them back to xi's shape, and the Bessel values at recent times.  A
    caller stepping through time passes one store to every phi_values_grid
    call, so a time shared by consecutive pairs (s, t) is evaluated once.

    Without a schedule the store evaluates each time on its own and keeps
    the last MAX_NODES of them.  ``schedule`` is an iterable of increasing
    times, the order in which the caller will ask for nodes; it is read
    lazily, never ahead of the batch in hand.  When the store misses on the
    next scheduled time, it evaluates that time and the scheduled times
    after it, up to BATCH_POINTS Bessel points, in one float64 and one
    extended call, and then holds that batch and the node before it.  Each
    node gets the values its pairs with both neighbours read.  A time off
    the schedule or asked out of order gets a node of its own, which
    replaces the oldest node held once MAX_NODES are held.
    """

    MAX_NODES = 3

    def __init__(self, mu, profile, xi, *, schedule=None):
        self.rho = _check_orders(mu)
        self.mu = mu
        self.profile = profile
        self.xi = xi
        arr = np.asarray(xi, dtype=float)
        self.shape = arr.shape
        self.values, self.inverse = np.unique(arr.ravel(), return_inverse=True)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("xi must be finite")
        if self.values.size and self.values[0] < 0.0:
            raise DomainError("xi must be nonnegative")
        self.n_zero = int(self.values.size > 0 and self.values[0] == 0.0)
        self.nonzero = self.values[self.n_zero:]
        self.nodes = {}  # t -> _Node, oldest first
        self.schedule = None if schedule is None else iter(schedule)
        self.batch_nodes = max(1, BATCH_POINTS // max(1, self.nonzero.size))
        self._held = []  # a schedule time read past the time asked for
        self._last = None  # the last schedule time taken

    def node(self, t):
        if t not in self.nodes:
            times = self._batch_times(t)
            if times:
                self._evaluate(times)
            else:
                if len(self.nodes) >= self.MAX_NODES:
                    del self.nodes[next(iter(self.nodes))]
                self.nodes[t] = _Node(self, t)
        return self.nodes[t]

    def _read(self):
        return self._held.pop() if self._held else next(self.schedule, None)

    def _batch_times(self, t):
        """t and the scheduled times after it, up to batch_nodes, when t is
        the next scheduled time; [] otherwise."""
        if self.schedule is None:
            return []
        head = self._read()
        while head is not None and head < t:
            self._last, head = head, self._read()
        if head != t:
            if head is not None:
                self._held.append(head)
            return []
        times = [t]
        while len(times) < self.batch_nodes and (head := self._read()) is not None:
            if head > times[-1]:  # a repeated time is the same node
                times.append(head)
        return times

    def _evaluate(self, times):
        """Nodes at ``times`` with the values of their pairs, in one call per
        precision.

        Pair (s, t) reads longdouble values below s's n_ext and float64
        values from there on, at both nodes, so a node between two pairs
        needs longdouble values below the larger n_ext of itself and the
        node before it, and float64 values from the smaller one on.  A node
        whose phases the pairs reject (above TAU_MAX or not finite) gets no
        values here, so the pair that reads it raises as without a schedule.
        """
        before = self.nodes.get(self._last)
        self.nodes = {} if before is None else {self._last: before}
        nodes = [_Node(self, t) for t in times]
        self.nodes.update(zip(times, nodes))
        self._last = times[-1]
        n_ext = nodes[0].n_ext if before is None else before.n_ext
        ready, ranges = [], []
        for nd in nodes:
            if nd.args.size and not nd.args[-1] <= TAU_MAX:
                break
            ready.append(nd)
            ranges.append(sorted((n_ext, nd.n_ext)))
            n_ext = nd.n_ext
        double = _batched(_jy, self.rho, [nd.args[lo:] for nd, (lo, _) in zip(ready, ranges)])
        ext = _batched(jy_extended, self.rho, [nd.args[:hi] for nd, (_, hi) in zip(ready, ranges)])
        for nd, (lo, hi) in zip(ready, ranges):
            if double is not None:
                nd.lo, nd.double = lo, list(next(double))
            if ext is not None:
                nd.hi, nd.ext = hi, list(next(ext))


def phi_values_grid(mu, profile, s, t, xi, *, store=None):
    """Vectorized propagator entries over an array of frequencies.

    Returns four float64 arrays (phi0, phi1, dphi0, dphi1) of xi's shape.
    Entries with xi == 0 use the closed-form zero mode.  Raises DomainError
    for a non-finite or negative xi and, when t > s, for a mode whose phase
    tau = Lambda(t)|xi| exceeds TAU_MAX.  The entries depend on |xi| alone,
    so they are evaluated once per distinct value of xi and gathered back.
    ``store`` is a NodeStore built for (mu, profile, xi), which keeps the
    Bessel values at each time for the next call; without it the call
    builds a store of its own.
    """
    if store is None:
        store = NodeStore(mu, profile, xi)
    elif not (store.mu == mu and store.profile is profile and store.xi is xi):
        raise ValueError("store was built for another (mu, profile, xi)")
    if not (0.0 <= s <= t):
        raise DomainError("need 0 <= s <= t")
    if t == s:
        # zero elapsed time: exactly the identity propagator
        return (np.ones(store.shape), np.zeros(store.shape),
                np.zeros(store.shape), np.ones(store.shape))
    entries = _assemble(store, store.node(s), store.node(t))
    return tuple(e[store.inverse].reshape(store.shape) for e in entries)


def _check_phases(tau):
    """Reject sorted phases whose largest value exceeds TAU_MAX."""
    if tau.size and tau[-1] > TAU_MAX:
        raise DomainError(
            f"phase Lambda(t)|xi| = {float(tau[-1]):g} exceeds "
            f"TAU_MAX = {TAU_MAX:g}, beyond which the Hankel route loses accuracy")


def _entry_terms(rho, lam_s, Lam_s, lam_t, Lam_t):
    """(scale, k, a, b) per entry (phi0, phi1, dphi0, dphi1): each entry is
    scale |xi|^k Im[conj(H+_{rho-a}(sigma)) H+_{rho-b}(tau)], where index a
    (or b) picks (J_rho, Y_rho) at 0 and (J_{rho-1}, Y_{rho-1}) at 1."""
    half_pi = float(_PI / 2.0)
    pref = Lam_t**rho / Lam_s ** (rho - 1.0)
    return ((-half_pi * pref, 1, 1, 0), (half_pi * pref / lam_s, 0, 0, 0),
            (-half_pi * lam_t * pref, 2, 1, 1), (half_pi * lam_t / lam_s * pref, 1, 0, 1))


def _assemble(store, at_s, at_t):
    """Propagator entries at the store's distinct |xi| from two time nodes."""
    _check_phases(at_t.args)
    entries = [np.empty_like(store.values) for _ in range(4)]
    z = store.n_zero
    if z:
        vals = _zero_mode_values(store.mu, at_s.lam, at_t.lam, at_s.Lam, at_t.Lam)
        for e, v in zip(entries, vals):
            e[0] = v

    # sigma = Lambda(s)|xi| < _EXT_SIGMA in extended precision, the rest in
    # float64; orders rho and rho - 1 come from one call per argument set
    k = at_s.n_ext
    n = store.nonzero.size
    parts = []
    if k:
        parts.append((0, k, at_s.extended_to(k), at_t.extended_to(k)))
    if k < n:
        parts.append((k, n, at_s.double_from(k), at_t.double_from(k)))
    terms = _entry_terms(store.rho, at_s.lam, at_s.Lam, at_t.lam, at_t.Lam)
    for lo, hi, at_sigma, at_tau in parts:
        xe = store.nonzero[lo:hi]
        out = slice(z + lo, z + hi)
        for entry, (scale, power, a, b) in zip(entries, terms):
            # Im[conj(J + iY) (J' + iY')] = J Y' - Y J'
            psi = at_sigma[2 * a] * at_tau[2 * b + 1] - at_sigma[2 * a + 1] * at_tau[2 * b]
            if power:
                psi = psi * xe**power
            entry[out] = scale * psi.astype(float)
    return tuple(entries)


def _stripped(jy, x):
    """H+_rho(x) e^{-ix} and H+_{rho-1}(x) e^{-ix}, complex128, from
    (J_rho, Y_rho, J_{rho-1}, Y_{rho-1}) at x, formed in x's precision."""
    turn = np.exp(-1j * x)
    return [((j + 1j * y) * turn).astype(complex) for j, y in (jy[:2], jy[2:])]


def phase_factors(store, s, t, lo=0):
    """Propagator entries in phase form on the store's nonzero |xi|, from
    index ``lo`` on.

    Returns complex factors (W0, W1, Wd0, Wd1) with each entry (phi0, phi1,
    dphi0, dphi1) = Im[W exp(i phi)], phi = (Lambda(t) - Lambda(s))|xi|:
    W = scale |xi|^k conj(C(sigma)) C(tau) with C(x) = H+(x) e^{-ix}, which
    carries none of the phase, so W varies slowly in |xi| once tau is past
    the order.  The store's node at s is kept and serves every t; the tau
    side is evaluated per call, with the precision split of ``_assemble``
    (longdouble where sigma < _EXT_SIGMA).  Raises DomainError unless
    0 <= s <= t, and for a phase beyond TAU_MAX.
    """
    if not (0.0 <= s <= t):
        raise DomainError("need 0 <= s <= t")
    xe = store.nonzero[lo:]
    at_s = store.node(s)
    lam_t = float(store.profile.lambda_at(t))
    Lam_t = float(store.profile.Lambda_at(t))
    tau = Lam_t * xe
    _check_phases(tau)
    n = store.nonzero.size
    k = max(lo, at_s.n_ext)
    parts = []
    if k > lo:
        parts.append((lo, k, [v[lo:] for v in at_s.extended_to(k)],
                      jy_extended(store.rho, tau[:k - lo])))
    if k < n:
        parts.append((k, n, at_s.double_from(k), _jy(store.rho, tau[k - lo:])))
    factors = [np.empty(xe.size, dtype=complex) for _ in range(4)]
    terms = _entry_terms(store.rho, at_s.lam, at_s.Lam, lam_t, Lam_t)
    for p_lo, p_hi, at_sigma, at_tau in parts:
        dt = at_sigma[0].dtype
        c_sigma = _stripped(at_sigma, at_s.args[p_lo:p_hi].astype(dt))
        c_tau = _stripped(at_tau, tau[p_lo - lo:p_hi - lo].astype(dt))
        x = store.nonzero[p_lo:p_hi]
        out = slice(p_lo - lo, p_hi - lo)
        for w, (scale, power, a, b) in zip(factors, terms):
            w[out] = (scale * x**power) * (np.conj(c_sigma[a]) * c_tau[b])
    return tuple(factors)


def phi_values(mu, profile, s, t, xi):
    """Propagator entries Phi0, Phi1, dtPhi0, dtPhi1 at one (t, s, |xi|)."""
    p0, p1, d0, d1 = phi_values_grid(mu, profile, s, t, np.asarray([float(xi)]))
    return MultiplierValues(phi0=complex(p0[0]), phi1=complex(p1[0]),
                            dphi0=complex(d0[0]), dphi1=complex(d1[0]))


def oracle_matrix_batch(mu, sigma, tau, lam_s_xi, lam_t_xi, rtol=1e-10):
    """Propagator entries (phi0, phi1, dphi0, dphi1) of a batch via the ODE oracle.

    Integrates the mode equation ``w'' + (mu/tau) w' + w = 0`` in the
    stretched variable tau = Lambda(t)|xi|, an exact change of variables of
    the time-domain mode equation, from sigma to tau.  The state is the
    real 2x2 fundamental matrix of every member, whose columns start at the
    unit data (1, 0) and (0, 1), so one integration gives all four entries.
    Members are mapped onto a unit interval and one shared adaptive step
    (driven by the hardest member) advances the whole batch; a member with
    tau == sigma gets (1, 0, 0, lam_t_xi/lam_s_xi), the identity when t == s.
    The relative tolerance is ``rtol``.  ``mu`` is a scalar or an array of the
    batch's length; all other arguments are arrays of that length.
    Independent of the special functions.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    per_span = np.asarray(tau, dtype=float) - sigma
    y0 = np.zeros((2, 2, per_span.size))
    y0[0, 0] = 1.0
    y0[1, 1] = 1.0 / np.asarray(lam_s_xi, dtype=float)

    def rhs(x, y):
        tau_x = sigma + x * per_span
        w, wp = y
        return np.stack([per_span * wp,
                         per_span * (-w - (mu / np.maximum(tau_x, 1e-300)) * wp)])

    if per_span.size == 0 or float(np.max(per_span)) == 0.0:
        yf = y0
    else:
        yf = _ode.integrate_batch(rhs, 0.0, 1.0, y0, rtol=rtol, atol=_ORACLE_ATOL)
    (phi0, phi1), (dphi0, dphi1) = yf[0], yf[1] * np.asarray(lam_t_xi, dtype=float)
    return phi0, phi1, dphi0, dphi1


def mode_ode_oracle(mu, profile, s, t, xi, w0, w1, rtol=1e-10):
    """Integrate one spatial mode of the linear problem from s to t.

    Solves v'' + lambda(t)^2 xi^2 v + b(t) v' = 0 with (v, v')(s) = (w0, w1)
    and returns (v, v')(t).  xi == 0 uses the closed-form zero mode;
    otherwise the entries come from a one-member oracle_matrix_batch
    (adaptive Runge-Kutta, relative tolerance ``rtol``), and
    the data (which may be complex) are combined with them by linearity.
    Independent of the Hankel-function route.
    """
    if t < s:
        raise DomainError("need t >= s")
    if xi < 0.0:
        raise DomainError("xi must be nonnegative")
    w0 = complex(w0)
    w1 = complex(w1)
    if t == s:
        return w0, w1
    lam_s = float(profile.lambda_at(s))
    lam_t = float(profile.lambda_at(t))
    Lam_s = float(profile.Lambda_at(s))
    Lam_t = float(profile.Lambda_at(t))
    if xi == 0.0:
        _, phi1, _, dphi1 = _zero_mode_values(mu, lam_s, lam_t, Lam_s, Lam_t)
        return w0 + w1 * phi1, w1 * dphi1
    phi0, phi1, dphi0, dphi1 = (float(e[0]) for e in oracle_matrix_batch(
        mu, [Lam_s * xi], [Lam_t * xi], [lam_s * xi], [lam_t * xi], rtol=rtol))
    return phi0 * w0 + phi1 * w1, dphi0 * w0 + dphi1 * w1


class Zone(enum.Enum):
    """Frequency zones cut by K/Lambda(s) and K/Lambda(t)."""

    I1 = "I1"
    I2 = "I2"
    I3 = "I3"


def classify_zone(K, profile, s, t, xi):
    """Zone of |xi|; boundary frequencies go to the lower-indexed zone."""
    if not 0.0 < K < 1.0:
        raise DomainError("K must lie in (0, 1)")
    if not (0.0 <= s <= t):
        raise DomainError("need 0 <= s <= t")
    if xi >= K / profile.Lambda_at(s):
        return Zone.I1
    if xi >= K / profile.Lambda_at(t):
        return Zone.I2
    return Zone.I3


@dataclass(frozen=True)
class ZoneSampleSpec:
    """Sampling grids for the zone-bound certification."""

    n: int = 1
    s_values: tuple = (0.0, 0.5, 2.0)
    t_min: float = 1.0
    t_max: float = 1.0e3
    t_per_decade: int = 8
    xi_per_decade: int = 40
    xi_cap: float = 50.0
    tau_cap: float = 2.0e4
    low_decades: float = 3.0
    K: float = DEFAULT_K


@dataclass
class FamilyReport:
    """Certified ratio family: empirical quantity / predicted rate."""

    name: str
    template: str
    samples: list = field(default_factory=list)  # (s, t, ratio)

    def max_ratio(self):
        return max(r for _, _, r in self.samples) if self.samples else float("nan")

    def last_decade_stats(self):
        if not self.samples:
            return float("nan"), float("nan")
        t_hi = max(t for _, t, _ in self.samples)
        dec = [r for _, t, r in self.samples if t >= t_hi / 10.0]
        return float(np.median(dec)), float(max(dec))

    def stable(self, factor=10.0):
        med, hi = self.last_decade_stats()
        return bool(hi <= factor * med)


@dataclass
class BoundReport:
    mu: float
    m: float
    n: int
    K: float
    families: dict
    notes: list

    def all_stable(self, factor=10.0):
        return all(f.stable(factor) for f in self.families.values())


def certify_zone_bounds(mu, profile, m, spec=None):
    """Empirically certify the frequency-zone multiplier bounds.

    For each (s, t) on log grids, measures the high-frequency sups (zone I1)
    and, for m < 2, the L^q integrals over I2 u I3 with q = (1/m - 1/2)^-1,
    of the solution and energy multipliers, each normalized by the predicted
    rate: the effective power rates, the log-corrected rate at the borderline
    mu = 2 + n(2/m - 1), and the sub-threshold rate
    lambda(t) Lambda(t)^(-mu/2) Lambda(s)^(mu/2) for mu < 2.
    Reports max ratios per family; a family certifies as stable when its max
    over the largest t-decade stays within 10x the decade median.
    """
    spec = spec or ZoneSampleSpec()
    if not 1.0 <= m <= 2.0:
        raise DomainError("m must lie in [1, 2]")
    n = spec.n
    K = spec.K
    q = math.inf if m == 2.0 else 1.0 / (1.0 / m - 0.5)
    notes = []
    families = {}

    def fam(name, template):
        if name not in families:
            families[name] = FamilyReport(name=name, template=template)
        return families[name]

    n_t = max(2, int(spec.t_per_decade * math.log10(spec.t_max / spec.t_min)) + 1)
    t_grid = np.geomspace(spec.t_min, spec.t_max, n_t)
    border_en = 2.0 + n * (2.0 / m - 1.0)
    border_sol = n * (2.0 / m - 1.0)

    for s in spec.s_values:
        lam_s = float(profile.lambda_at(s))
        Lam_s = float(profile.Lambda_at(s))
        for t in t_grid:
            if t <= s:
                continue
            lam_t = float(profile.lambda_at(t))
            Lam_t = float(profile.Lambda_at(t))
            ratio_st = Lam_s / Lam_t

            # ---- zone I1: sup over xi >= K/Lambda(s) ----
            xi_lo = K / Lam_s
            xi_hi = min(spec.xi_cap, spec.tau_cap / Lam_t)
            if xi_hi > xi_lo:
                npts = max(8, int(spec.xi_per_decade * math.log10(xi_hi / xi_lo)) + 1)
                xi = np.geomspace(xi_lo, xi_hi, npts)
                p0, p1, d0, d1 = phi_values_grid(mu, profile, s, t, xi)
                bracket = np.sqrt(1.0 + xi**2)
                base = ratio_st ** (mu / 2.0)
                fam("I1_sol_v0", "(Ls/Lt)^(mu/2)").samples.append(
                    (s, t, float(np.max(np.abs(p0)) / base)))
                fam("I1_sol_v1", "(Ls/Lt)^(mu/2) * Ls/ls").samples.append(
                    (s, t, float(np.max(np.abs(p1)) / (base * Lam_s / lam_s))))
                en0 = np.maximum(lam_t * xi * np.abs(p0), np.abs(d0)) / bracket
                en1 = np.maximum(lam_t * xi * np.abs(p1), np.abs(d1))
                fam("I1_en_v0", "lt*(Ls/Lt)^(mu/2)").samples.append(
                    (s, t, float(np.max(en0) / (lam_t * base))))
                fam("I1_en_v1", "lt*(Ls/Lt)^(mu/2)/ls").samples.append(
                    (s, t, float(np.max(en1) / (lam_t * base / lam_s))))

            # ---- zones I2 u I3: xi <= K/Lambda(s) ----
            xi_top = K / Lam_s
            xi_bot = (K / Lam_t) * 10.0 ** (-spec.low_decades)
            npts = max(16, int(spec.xi_per_decade * math.log10(xi_top / xi_bot)) + 1)
            xi = np.geomspace(xi_bot, xi_top, npts)
            p0, p1, d0, d1 = phi_values_grid(mu, profile, s, t, xi)
            en0 = np.maximum(lam_t * xi * np.abs(p0), np.abs(d0))
            en1 = np.maximum(lam_t * xi * np.abs(p1), np.abs(d1))
            log_corr = math.log(1.0 + Lam_t / Lam_s)

            if m == 2.0:
                fam("I23_sol_v0", "1").samples.append((s, t, float(np.max(np.abs(p0)))))
                fam("I23_sol_v1", "Ls/ls").samples.append(
                    (s, t, float(np.max(np.abs(p1)) / (Lam_s / lam_s))))
                if mu > 2.0 + 1e-9:
                    en_base = lam_t * Lam_s / Lam_t
                    tpl = "lt*Ls/Lt"
                elif abs(mu - border_en) <= 1e-9:
                    en_base = lam_t * Lam_t ** (-mu / 2.0) * Lam_s ** (mu / 2.0) * log_corr
                    tpl = "lt*Lt^(-mu/2)*Ls^(mu/2)*log(1+Lt/Ls)"
                else:
                    en_base = lam_t * ratio_st ** (mu / 2.0)
                    tpl = "lt*(Ls/Lt)^(mu/2)  [sub-threshold]"
                fam("I23_en_v0", tpl).samples.append((s, t, float(np.max(en0) / en_base)))
                fam("I23_en_v1", tpl + " / ls").samples.append(
                    (s, t, float(np.max(en1) / (en_base / lam_s))))
            else:
                area = SPHERE_AREA[n]

                def lq(vals):
                    integrand = np.abs(vals) ** q * xi ** (n - 1)
                    return (area * np.trapezoid(integrand * xi, np.log(xi))) ** (1.0 / q)

                if mu > border_sol + 1e-9:
                    sol_base = Lam_t ** (-n / q)
                    sol_tpl = "Lt^(-n/q)"
                elif abs(mu - border_sol) <= 1e-9:
                    sol_base = Lam_t ** (-mu / 2.0) * log_corr
                    sol_tpl = "Lt^(-mu/2)*log(1+Lt/Ls)"
                else:
                    sol_base = None
                if sol_base is not None:
                    fam("Lq_sol_v0", sol_tpl).samples.append((s, t, lq(p0) / sol_base))
                    fam("Lq_sol_v1", sol_tpl + " * Ls/ls").samples.append(
                        (s, t, lq(p1) / (sol_base * Lam_s / lam_s)))
                elif not notes or "solution" not in notes[-1]:
                    notes.append(f"mu={mu:g} < n(2/m-1): no L^q solution template")

                if mu > border_en + 1e-9:
                    en_base = lam_t * Lam_t ** (-n / q - 1.0)
                    en_tpl = "lt*Lt^(-n/q-1)"
                elif abs(mu - border_en) <= 1e-9:
                    en_base = lam_t * Lam_t ** (-mu / 2.0) * log_corr
                    en_tpl = "lt*Lt^(-mu/2)*log(1+Lt/Ls)  [borderline]"
                else:
                    en_base = None
                if en_base is not None:
                    fam("Lq_en_v0", en_tpl).samples.append((s, t, lq(en0) / en_base))
                    fam("Lq_en_v1", en_tpl + " * Ls/ls").samples.append(
                        (s, t, lq(en1) / (en_base * Lam_s / lam_s)))
                elif not notes or "energy" not in notes[-1]:
                    notes.append(f"mu={mu:g} < 2+n(2/m-1): no L^q energy template")

    return BoundReport(mu=mu, m=m, n=n, K=K, families=families, notes=notes)
