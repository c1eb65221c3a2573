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
one time node, for the sorted distinct |xi| (NodeStore) or a suffix of
them, then the cross products of the nodes at s and t in ``_cross``, which
reads the pair through ``NodeStore._read``.  Both stages run in float64,
except where sigma < 1 at non-integer mu: there the determinant cancels, and
they run in longdouble (see ``_EXT_SIGMA``); at integer mu nothing cancels
and every node is float64.  ``_fill`` evaluates the values
of any set of nodes in one call per precision, and ``NodeStore.prefetch``
has it fill what a list of pairs (s, t) will read.  ``phi_values_grid``
gives the entries on all of a store's |xi| or on a contiguous run of them.
``phase_factors`` gives the same entries in phase form, Im[W e^{i phi}]
with phi = (Lambda(t) - Lambda(s))|xi|, for quadratures that integrate the
phase in closed form: W is the whole complex cross product conj(H+(sigma))
H+(tau), from the same loop, turned by e^{-i phi}, and varies slowly in |xi|.

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
from .analysis import _energy_border, _regime, _solution_border
from .errors import (_NON_NEGATIVE, _POSITIVE, _UNIT, DomainError, UnsupportedOrderError,
                     _check_fields)
from .specfun import _PI, MAX_ORDER, _jy, jy_extended

# Beyond this tau the Hankel phases lose the target accuracy even in
# extended precision; modes past it are rejected rather than approximated.
TAU_MAX = 1.0e7

DEFAULT_K = 0.5

# absolute error tolerance of the ODE oracle's adaptive step control
_ORACLE_ATOL = 1e-12

# The largest dimension n of the radial norms and the zone certification:
# far beyond the dimensions the decay estimates are read at, and well within
# the n < 344 at which Gamma(n/2), and so the sphere area, leaves float range.
MAX_DIM = 100
_DIMENSION = (lambda n: 1 <= n <= MAX_DIM and n == int(n), f"an integer from 1 to {MAX_DIM}")


def _sphere_area(n):
    """Area 2 pi^(n/2) / Gamma(n/2) of the unit sphere S^{n-1} in R^n (2, 2 pi
    and 4 pi to the bit at n = 1, 2, 3); DomainError unless n is an integer
    from 1 to MAX_DIM."""
    _check_fields([("n", n, _DIMENSION)])
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def rho_of(mu):
    """Bessel order rho = (1 - mu)/2 attached to damping strength mu."""
    return (1.0 - mu) / 2.0


def _check_orders(mu):
    rho = rho_of(mu)
    if max(abs(rho), abs(rho - 1.0)) > MAX_ORDER:
        raise UnsupportedOrderError(
            f"mu={mu:g} needs Hankel orders {rho:g}, {rho - 1.0:g} beyond +-{MAX_ORDER:g}")
    return rho


# Below this sigma, at non-integer mu, the cross products are assembled in
# extended precision.  With a = rho or rho - 1 and b = a or a - 1, Y_a =
# cot(a pi) J_a - csc(a pi) J_{-a} puts the term cot(a pi) J_a(sigma) J_b(tau)
# into both products of J_a Y_b - Y_a J_b, where it cancels; |J_a(sigma)|
# grows like sigma^a at the negative orders, and in float64 the cancellation
# would cost ~|H(sigma) H(tau)| * 1e-16 against a far smaller result.  At
# integer mu the orders are integers or half-integers, and the term is absent
# (DLMF 10.2, 10.47): float64 keeps every entry within 5e-14 + 2e-16 tau of
# |scale| |xi|^k |H_a(sigma)| |H_b(tau)|, the error every pair with sigma >= 1
# carries, so no node there takes longdouble.
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
    """Bessel values on Lambda(t)|xi| at one time t, for the store's sorted
    nonzero |xi| from index ``start`` on, up to the last one whose phase is
    within TAU_MAX: J and Y at orders rho and rho - 1, in float64 on a suffix
    args[lo:] and in longdouble on a prefix args[:hi], both filled by
    ``_fill`` and only growing.  The one precision rule: a pair takes
    longdouble where its sigma is below ``n_ext``'s bound, _EXT_SIGMA at
    non-integer mu and none at integer mu, and float64 above.  So at
    non-integer mu a node that is t of one pair and s of the next holds the
    |xi| with Lambda(s)|xi| < _EXT_SIGMA <= Lambda(t)|xi| in both
    precisions: each pair's entries come from its own sigma alone, which
    keeps a prefetched pair bitwise equal to the same pair of a fresh store."""

    def __init__(self, store, t, start=0):
        self.lam = float(store.profile.lambda_at(t))
        self.Lam = float(store.profile.Lambda_at(t))
        self.start = start
        args = self.Lam * store.nonzero[start:]
        # no argument above TAU_MAX is evaluated; a read that reaches one raises
        self.args = args[:np.searchsorted(args, TAU_MAX, side="right")]
        # arguments below the bound form a prefix, because |xi| is sorted
        self.n_ext = (0 if float(store.mu).is_integer()
                      else int(np.searchsorted(self.args, _EXT_SIGMA)))
        self.lo, self.double = self.args.size, [np.empty(0)] * 4
        self.hi, self.ext = 0, [np.empty(0, dtype=np.longdouble)] * 4


def _batched(fn, rho, parts):
    """fn(rho, .)'s four arrays over the concatenated parts, split per part."""
    cuts = np.cumsum([p.size for p in parts[:-1]])
    return zip(*(np.split(v, cuts) for v in fn(rho, np.concatenate(parts))))


def _fill(rho, wants):
    """The one evaluator of node values: gives each (node, lo, hi) of
    ``wants`` the float64 values its node lacks on args[lo:] and the
    longdouble values it lacks on args[:hi], with at most one ``_jy`` and one
    ``jy_extended`` call for them all; a node asked for more than once gets
    the union of its ranges."""
    ranges = {}
    for nd, lo, hi in wants:
        have = ranges.get(nd, (nd.lo, nd.hi))
        ranges[nd] = min(have[0], lo), max(have[1], hi)
    double = [(nd, lo) for nd, (lo, _) in ranges.items() if lo < nd.lo]
    if double:
        new = _batched(_jy, rho, [nd.args[lo:nd.lo] for nd, lo in double])
        for (nd, lo), values in zip(double, new):
            nd.double, nd.lo = [np.concatenate(p) for p in zip(values, nd.double)], lo
    ext = [(nd, hi) for nd, (_, hi) in ranges.items() if hi > nd.hi]
    if ext:
        new = _batched(jy_extended, rho, [nd.args[nd.hi:hi] for nd, hi in ext])
        for (nd, hi), values in zip(ext, new):
            nd.ext, nd.hi = [np.concatenate(p) for p in zip(nd.ext, values)], hi


# Bessel points (distinct nonzero |xi| times nodes) that NodeStore.prefetch
# is given to evaluate in one float64 and one extended call
BATCH_POINTS = 2**15


class NodeStore:
    """Bessel values per time node for one (mu, profile, xi).

    Holds the distinct values of xi, sorted, with the inverse that gathers
    them back to xi's shape, and the Bessel values at the times of the
    latest pairs (s, t) it was given.  A caller stepping through time passes
    one store to every phi_values_grid call, so a time shared by
    consecutive pairs is evaluated once.

    A pair read that the held nodes do not cover makes the store hold that
    pair's nodes alone.  A caller that knows its pairs in advance hands them
    to ``prefetch``, which holds and evaluates their nodes together;
    ``batch_nodes`` is how many new nodes keep such a batch within
    BATCH_POINTS Bessel points.
    """

    def __init__(self, mu, profile, xi):
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
        self.nodes = {}  # t -> _Node, the nodes of the latest hold
        self.batch_nodes = max(1, BATCH_POINTS // max(1, self.nonzero.size))

    def _held(self, t, lo):
        """The node held at t if it starts at or below index lo, else None."""
        nd = self.nodes.get(t)
        return nd if nd is not None and nd.start <= lo else None

    def _hold(self, reads):
        """Hold only the nodes of ``reads``, pairs (s, t, lo) read on the
        nonzero |xi| from index lo on: the node at each s from index 0, the
        node at each other t from the smallest lo of its reads.  A held node
        that starts at or below that index keeps its values."""
        starts = {}
        for s, t, lo in reads:
            starts[s] = 0
            starts[t] = min(starts.get(t, lo), lo)
        self.nodes = {x: self._held(x, start) or _Node(self, x, start)
                      for x, start in starts.items()}

    def _requests(self, s, t, lo, hi):
        """The one precision split of the held pair (s, t) on nonzero |xi|
        indices lo:hi, from which both nodes start: longdouble on the node at
        s's ``n_ext`` prefix, float64 above.  Raises DomainError for a phase
        Lambda(t)|xi| above TAU_MAX, where the node at t ends, and returns
        the index at which float64 takes over and the pair's ``_fill``
        requests, which reach no further than the nodes do."""
        at_s, at_t = self.nodes[s], self.nodes[t]
        if hi > lo and hi - at_t.start > at_t.args.size:
            raise DomainError(
                f"phase Lambda(t)|xi| = {at_t.Lam * self.nonzero[hi - 1]:g} exceeds "
                f"TAU_MAX = {TAU_MAX:g}, beyond which the Hankel route loses accuracy")
        k = min(max(lo, at_s.start + at_s.n_ext), hi)
        return k, [(nd, k - nd.start if k < hi else nd.args.size, k - nd.start if k > lo else 0)
                   for nd in (at_s, at_t)]

    def _read(self, s, t, lo, hi):
        """The one read of a pair (s, t) on nonzero |xi| indices lo:hi: holds
        the pair's nodes unless both are held from lo or below, checks its
        phases, fills what it lacks, and returns its nodes at s and t and
        (p_lo, p_hi, values at sigma, values at tau) per precision part, each
        (J_rho, Y_rho, J_{rho-1}, Y_{rho-1}) on |xi| indices p_lo:p_hi."""
        if not (self._held(s, lo) and self._held(t, lo)):
            self._hold([(s, t, lo)])
        k, requests = self._requests(s, t, lo, hi)
        _fill(self.rho, requests)
        nodes = at_s, at_t = self.nodes[s], self.nodes[t]
        parts = []
        if k > lo:
            parts.append((lo, k, *([v[lo - nd.start:k - nd.start] for v in nd.ext]
                                   for nd in nodes)))
        if k < hi:
            parts.append((k, hi, *([v[k - nd.start - nd.lo:hi - nd.start - nd.lo]
                                    for v in nd.double] for nd in nodes)))
        return at_s, at_t, parts

    def prefetch(self, pairs):
        """Hold the nodes of the ``pairs`` the caller will read, in any
        order, and evaluate what those reads take in one call per precision;
        a node held already keeps its values.  No pairs change nothing.

        A pair is (s, t), read on all of the nonzero |xi|, or (s, t, lo),
        read from index lo on; nodes are held as ``_read`` holds a pair's.
        A pair whose phases are rejected (above TAU_MAX, overflowed ones
        included) gets no values here, nor do the pairs after it, so the
        read of it raises as without a prefetch.
        """
        if not pairs:
            return
        reads = [(s, t, lo[0] if lo else 0) for s, t, *lo in pairs]
        self._hold(reads)
        wants = []
        for s, t, lo in reads:
            try:
                wants += self._requests(s, t, lo, self.nonzero.size)[1]
            except DomainError:
                break
        _fill(self.rho, wants)


def phi_values_grid(mu, profile, s, t, xi, *, store=None):
    """Vectorized propagator entries over an array of frequencies.

    Returns four float64 arrays (phi0, phi1, dphi0, dphi1) of xi's shape.
    Entries with xi == 0 use the closed-form zero mode.  Raises DomainError
    for a non-finite or negative xi and, when t > s, for a mode whose phase
    tau = Lambda(t)|xi| exceeds TAU_MAX.  The entries depend on |xi| alone,
    so they are evaluated once per distinct value of xi and gathered back.
    ``store`` is a NodeStore for (mu, profile), which keeps the Bessel values
    at each time for the next call; it was built for this xi, or xi is a
    contiguous run of its ``nonzero`` |xi|, whose entries are read from the
    store's nodes.  Without it the call builds a store of its own.
    """
    if store is None:
        store = NodeStore(mu, profile, xi)
    elif not (store.mu == mu and store.profile is profile):
        raise ValueError("store was built for another (mu, profile, xi)")
    if not (0.0 <= s <= t):
        raise DomainError("need 0 <= s <= t")
    lo = None if xi is store.xi else _run_start(store, xi)
    if t == s:
        # zero elapsed time: exactly the identity propagator
        shape = np.shape(xi)
        return np.ones(shape), np.zeros(shape), np.zeros(shape), np.ones(shape)
    if lo is not None:
        return tuple(_cross(store, s, t, lo, lo + xi.size)[2])
    at_s, at_t, entries = _cross(store, s, t, 0, store.nonzero.size)
    if store.n_zero:
        zero = _zero_mode_values(store.mu, at_s.lam, at_t.lam, at_s.Lam, at_t.Lam)
        entries = [np.concatenate([[z], e]) for z, e in zip(zero, entries)]
    return tuple(e[store.inverse].reshape(store.shape) for e in entries)


def _run_start(store, xi):
    """Index at which the 1-D array xi runs through the store's nonzero |xi|;
    ValueError if it is not such a contiguous run."""
    if isinstance(xi, np.ndarray) and xi.ndim == 1:
        lo = int(np.searchsorted(store.nonzero, xi[0])) if xi.size else 0
        if np.array_equal(store.nonzero[lo:lo + xi.size], xi):
            return lo
    raise ValueError("store was built for another (mu, profile, xi)")


def _entry_terms(rho, lam_s, Lam_s, lam_t, Lam_t):
    """(scale, k, a, b) per entry (phi0, phi1, dphi0, dphi1): each entry is
    scale |xi|^k Im[conj(H+_{rho-a}(sigma)) H+_{rho-b}(tau)], where index a
    (or b) picks (J_rho, Y_rho) at 0 and (J_{rho-1}, Y_{rho-1}) at 1."""
    half_pi = float(_PI / 2.0)
    pref = Lam_t**rho / Lam_s ** (rho - 1.0)
    return ((-half_pi * pref, 1, 1, 0), (half_pi * pref / lam_s, 0, 0, 0),
            (-half_pi * lam_t * pref, 2, 1, 1), (half_pi * lam_t / lam_s * pref, 1, 0, 1))


def _cross(store, s, t, lo, hi, whole=False):
    """The one loop over a pair's cross products conj(H+_a(sigma))
    H+_b(tau), scaled per entry as ``_entry_terms`` gives them, on the
    store's nonzero |xi| indices lo:hi.  Returns the pair's nodes at s and t
    and, per entry, its values, the products' imaginary parts, or, if
    ``whole``, the complex products themselves."""
    at_s, at_t, parts = store._read(s, t, lo, hi)
    terms = _entry_terms(store.rho, at_s.lam, at_s.Lam, at_t.lam, at_t.Lam)
    out = [np.empty(hi - lo, dtype=complex if whole else float) for _ in range(4)]
    for p_lo, p_hi, at_sigma, at_tau in parts:
        x = store.nonzero[p_lo:p_hi]
        cut = slice(p_lo - lo, p_hi - lo)
        for o, (scale, power, a, b) in zip(out, terms):
            j, y, j_t, y_t = at_sigma[2 * a], at_sigma[2 * a + 1], at_tau[2 * b], at_tau[2 * b + 1]
            # conj(J + iY) (J' + iY') = (J J' + Y Y') + i (J Y' - Y J')
            psi = j * y_t - y * j_t
            if whole:
                o[cut] = (scale * x**power) * ((j * j_t + y * y_t).astype(float)
                                               + 1j * psi.astype(float))
            else:
                o[cut] = scale * (psi * x**power if power else psi).astype(float)
    return at_s, at_t, out


def phase_factors(store, s, t, lo=0):
    """Propagator entries in phase form on the store's nonzero |xi|, from
    index ``lo`` on.

    Returns complex factors (W0, W1, Wd0, Wd1) with each entry (phi0, phi1,
    dphi0, dphi1) = Im[W exp(i phi)], phi = (Lambda(t) - Lambda(s))|xi|:
    W = scale |xi|^k conj(H+_a(sigma)) H+_b(tau) e^{-i phi}, the whole cross
    products of ``_cross`` with the phase taken out, so W varies slowly in
    |xi| once tau is past the order.  The pair is read from the store's
    nodes at s and t as ``phi_values_grid`` reads a run.  Raises DomainError
    unless 0 <= s <= t, and for a phase beyond TAU_MAX.
    """
    if not (0.0 <= s <= t):
        raise DomainError("need 0 <= s <= t")
    at_s, at_t, cross = _cross(store, s, t, lo, store.nonzero.size, whole=True)
    turn = np.exp(-1j * (at_t.Lam - at_s.Lam) * store.nonzero[lo:])
    return tuple(w * turn for w in cross)


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
    _check_fields([("K", K, _UNIT)])
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

    def stable(self):
        med, hi = self.last_decade_stats()
        return bool(hi <= 10.0 * med)


@dataclass
class BoundReport:
    mu: float
    m: float
    n: int
    K: float
    families: dict
    notes: list

    def all_stable(self):
        return all(f.stable() for f in self.families.values())


def certify_zone_bounds(mu, profile, m, spec=None):
    """Empirically certify the frequency-zone multiplier bounds.

    For each (s, t) on log grids, measures the high-frequency sups (zone I1)
    and, for m < 2, the L^q integrals over I2 u I3 with q = (1/m - 1/2)^-1,
    of the solution and energy multipliers, each normalized by the predicted
    rate.  A family's rate in I2 u I3 follows ``analysis._regime`` of mu
    against its border, n(2/m - 1) for the solution and 2 + n(2/m - 1) for
    the energy: the effective power rate above it, the log-corrected rate at
    it, and below it the sub-threshold rate lambda(t) Lambda(t)^(-mu/2)
    Lambda(s)^(mu/2) for the m = 2 energy or, for an L^q family, no
    template, which a note names once.  Reports max ratios per family; a
    family certifies as stable when its max over the largest t-decade stays
    within 10x the decade median.  Raises DomainError before sampling for m
    outside [1, 2] and for a spec with n not an integer from 1 to MAX_DIM,
    K outside (0, 1), t_max <= t_min, or a field that is not finite or below
    its range: t_min, both densities and both caps > 0, low_decades and
    every s >= 0.
    """
    spec = spec or ZoneSampleSpec()
    if not 1.0 <= m <= 2.0:
        raise DomainError("m must lie in [1, 2]")
    n = spec.n
    area = _sphere_area(n)
    fields = [("K", spec.K, _UNIT), ("low_decades", spec.low_decades, _NON_NEGATIVE)]
    fields += [(name, getattr(spec, name), _POSITIVE) for name in (
        "t_min", "t_max", "t_per_decade", "xi_per_decade", "xi_cap", "tau_cap")]
    _check_fields(fields + [("s_values", s, _NON_NEGATIVE) for s in spec.s_values])
    if not spec.t_min < spec.t_max:
        raise DomainError(f"t_max must exceed t_min, got {spec.t_max!r} <= {spec.t_min!r}")
    K = spec.K
    q = math.inf if m == 2.0 else 1.0 / (1.0 / m - 0.5)
    sol, en = _regime(mu, _solution_border(n, m)), _regime(mu, _energy_border(n, m))
    notes = []
    if m < 2.0 and sol == "below":
        notes.append(f"mu={mu:g} < n(2/m-1): no L^q solution template")
    if m < 2.0 and en == "below":
        notes.append(f"mu={mu:g} < 2+n(2/m-1): no L^q energy template")
    families = {}

    def pair(name, templates, v0, base0, v1, base1):
        """Append the ratios v0/base0 and v1/base1 at the current (s, t) to
        the families name_v0 and name_v1, whose templates are given."""
        for suffix, tpl, ratio in zip(("_v0", "_v1"), templates, (v0 / base0, v1 / base1)):
            fam = families.setdefault(name + suffix, FamilyReport(name=name + suffix,
                                                                   template=tpl))
            fam.samples.append((s, t, float(ratio)))

    n_t = max(2, int(spec.t_per_decade * math.log10(spec.t_max / spec.t_min)) + 1)
    t_grid = np.geomspace(spec.t_min, spec.t_max, n_t)

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
                pair("I1_sol", ("(Ls/Lt)^(mu/2)", "(Ls/Lt)^(mu/2) * Ls/ls"),
                     np.max(np.abs(p0)), base, np.max(np.abs(p1)), base * Lam_s / lam_s)
                en0 = np.maximum(lam_t * xi * np.abs(p0), np.abs(d0)) / bracket
                en1 = np.maximum(lam_t * xi * np.abs(p1), np.abs(d1))
                pair("I1_en", ("lt*(Ls/Lt)^(mu/2)", "lt*(Ls/Lt)^(mu/2)/ls"),
                     np.max(en0), lam_t * base, np.max(en1), lam_t * base / lam_s)

            # ---- zones I2 u I3: xi <= K/Lambda(s) = xi_lo ----
            xi_bot = (K / Lam_t) * 10.0 ** (-spec.low_decades)
            npts = max(16, int(spec.xi_per_decade * math.log10(xi_lo / xi_bot)) + 1)
            xi = np.geomspace(xi_bot, xi_lo, npts)
            p0, p1, d0, d1 = phi_values_grid(mu, profile, s, t, xi)
            en0 = np.maximum(lam_t * xi * np.abs(p0), np.abs(d0))
            en1 = np.maximum(lam_t * xi * np.abs(p1), np.abs(d1))
            log_corr = math.log(1.0 + Lam_t / Lam_s)

            if m == 2.0:
                pair("I23_sol", ("1", "Ls/ls"),
                     np.max(np.abs(p0)), 1.0, np.max(np.abs(p1)), Lam_s / lam_s)
                if en == "above":
                    en_base, tpl = lam_t * Lam_s / Lam_t, "lt*Ls/Lt"
                elif en == "at":
                    en_base = lam_t * Lam_t ** (-mu / 2.0) * Lam_s ** (mu / 2.0) * log_corr
                    tpl = "lt*Lt^(-mu/2)*Ls^(mu/2)*log(1+Lt/Ls)"
                else:
                    en_base = lam_t * ratio_st ** (mu / 2.0)
                    tpl = "lt*(Ls/Lt)^(mu/2)  [sub-threshold]"
                pair("I23_en", (tpl, tpl + " / ls"),
                     np.max(en0), en_base, np.max(en1), en_base / lam_s)
                continue

            def lq(vals):
                integrand = np.abs(vals) ** q * xi ** (n - 1)
                return (area * np.trapezoid(integrand * xi, np.log(xi))) ** (1.0 / q)

            if sol != "below":
                sol_base, tpl = ((Lam_t ** (-n / q), "Lt^(-n/q)") if sol == "above" else
                                 (Lam_t ** (-mu / 2.0) * log_corr, "Lt^(-mu/2)*log(1+Lt/Ls)"))
                pair("Lq_sol", (tpl, tpl + " * Ls/ls"),
                     lq(p0), sol_base, lq(p1), sol_base * Lam_s / lam_s)
            if en != "below":
                en_base, tpl = ((lam_t * Lam_t ** (-n / q - 1.0), "lt*Lt^(-n/q-1)")
                                if en == "above" else
                                (lam_t * Lam_t ** (-mu / 2.0) * log_corr,
                                 "lt*Lt^(-mu/2)*log(1+Lt/Ls)  [borderline]"))
                pair("Lq_en", (tpl, tpl + " * Ls/ls"),
                     lq(en0), en_base, lq(en1), en_base * Lam_s / lam_s)

    return BoundReport(mu=mu, m=m, n=n, K=K, families=families, notes=notes)
