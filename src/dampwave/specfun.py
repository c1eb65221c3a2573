"""Bessel functions J, Y and the Hankel pair H+/- for real order.

Supported domain: order ``|nu| <= 10``, argument ``tau > 0``.  Against
40-digit references for ``tau`` in [1e-6, 1e4], the error relative to
max(|value|, sqrt(2/(pi*tau))) is at most ~4e-14 in float64 (the series
cancels toward tau = 7) and ~2e-17 in longdouble below tau = 16.  From
tau = 16 up the limiting factor is the phase ``tau mod 2*pi``, accurate to
~2e-16*tau in float64 (~1e-12 at 1e4); in longdouble it is the expansion
cut at 25 terms (~3e-15 at tau = 16).

Every evaluation returns both orders of a Hankel cross product,
``(J_nu, Y_nu, J_{nu-1}, Y_{nu-1})``, from one pass over the arguments.
``_jy`` (float64) and ``jy_extended`` (80-bit ``longdouble``) run the same
three branches; the precision is the dtype of the argument array, and the
shifted orders nu - 1 and 1 - nu are formed in it (Gamma comes from
Stirling's series in longdouble):

* ``tau < 7``: ascending power series (DLMF 10.2.2).  One term sequence at
  order a gives J_a and J_{a-1} = (2/tau) sum (k + a) t_k.  Non-integer
  orders run a = nu and a = 1 - nu from one power (tau/2)^nu and get Y from
  ``(J_nu*cos(nu*pi) - J_{-nu}) / sin(nu*pi)``; integer orders run one
  sequence and the logarithmic limit series with digamma terms, which is
  uniformly stable.  Each point stops where every later term is below
  1e-24 of an earlier one: 3 terms at tau = 1e-4, 13 at 1, 26 at 7.
* ``7 <= tau < 16``: Steed's method (Barnett, Feng, Steed & Goldfarb 1974;
  Numerical Recipes, bessjy).  Miller's downward recurrence (the first
  continued fraction, carried down) gives ``J'/J`` at an order
  ``|m| <= 1/2``, the second continued fraction gives
  ``(J' + iY')/(J + iY)`` there, the Wronskian fixes the scale and Y climbs
  back up by forward recurrence.  Both fractions are cut at depths fixed
  for this argument range.  Against 40-digit references for ``|nu| <= 10``
  the error is ~1e-15 of max(1, |value|) in float64 and ~1e-18 in
  ``longdouble``.  One pass at ``a >= 0`` yields orders ``a`` and
  ``a - 1``; negative orders come from the reflection identities.
* ``tau >= 16``: Hankel asymptotic expansion (DLMF 10.17; each point sums
  its terms down to 1e-25, at most 25) evaluated at the reduced order
  ``nu0 = nu - floor(nu)`` and ``nu0 + 1``, which share one cos/sin of the
  phase, lifted to ``nu`` by the three-term recurrence.  With
  ``|nu| <= 10 < tau`` the recurrence runs inside the oscillatory regime,
  where it is well conditioned; a plain asymptotic expansion at the full
  order would not converge for ``|nu| >~ 6`` until far larger ``tau``.
  Both orders share one ladder when their reduced orders agree.  Negative
  orders come from the reflection identities.

Every point does the work its own argument needs, whatever else is in the
batch: the branches take sorted arguments (``_jy_flat`` sorts unsorted
input once), so the points that still need term k of a series form one
slice.  A value is bitwise the same in any batch.

Orders within 1e-6 of an integer are snapped to the integer (with a
warning): below that distance the reflection cancellation exceeds even
extended precision.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedOrderError

MAX_ORDER = 10.0

_LD = np.longdouble
_PI = _LD("3.14159265358979323846264338327950288")
_EULER_GAMMA = _LD("0.577215664901532860606512090082402431")
_SNAP = 1e-6

# The alternating series cancels like exp(tau); from tau = 7 up Steed's
# method takes over, and from _SERIES_SWITCH up the asymptotic expansion
# (the benchmark's tracer reads that name to count non-asymptotic points).
_STEED_SWITCH = 7.0
_SERIES_SWITCH = 16.0

# Depths at which Steed's method cuts its fractions on [_STEED_SWITCH,
# _SERIES_SWITCH): Miller's recurrence starts this many orders above the
# pass order, and the second fraction keeps this many levels.  The slowest
# cases are tau -> 16 for the first and tau = 7 for the second.  For orders
# up to 12, truncation falls below float64 rounding at 32 and 12 (margins 8
# and 4).  In longdouble the first reaches rounding (~4e-19) at 36 (margin
# 4); the second leaves ~1.2e-18 at 16, which bounds the extended error.
_MILLER_DEPTH = 40
_CF2_DEPTH = 16

# A point's ascending series stops once every later term is below _TERM_TOL
# times an earlier one, far below longdouble rounding (~1e-19).  _MAX_TERMS
# covers arguments up to _SERIES_SWITCH at every supported order.
_TERM_TOL = 1e-24
_MAX_TERMS = 60

# A point's Hankel expansion sums term k while |a_k(nu)/tau^k| >= _ASYM_TOL
# (the leading term is 1), up to _ASYM_TERMS: at tau = 16 the terms stop
# shrinking near k = 32.
_ASYM_TOL = 1e-25
_ASYM_TERMS = 25

# Stirling's series for log Gamma: B_2k / (2k (2k - 1)), k = 1..9, used at
# arguments >= 15, where the first omitted term is below 1e-22
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360),
             (1, 156), (-3617, 122400), (43867, 244188))
_GAMMA_SHIFT = 24

# np.longdouble is IEEE double on some platforms (MSVC, arm64 macOS)
_LD_IS_DOUBLE = np.finfo(_LD).eps >= np.finfo(np.float64).eps
_ld_warned = False


def _check_args(nu, tau):
    nu = float(nu)
    if not math.isfinite(nu):
        raise DomainError("order must be finite")
    if abs(nu) > MAX_ORDER:
        raise UnsupportedOrderError(f"order |nu|={abs(nu):g} exceeds supported {MAX_ORDER:g}")
    arr = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("argument must be finite")
    if np.any(arr <= 0.0):
        raise DomainError("argument must be positive")
    return nu, arr


@functools.lru_cache(maxsize=256)
def _gamma1(a):
    """Gamma(a + 1) in longdouble for non-integer a > -10: Stirling's series
    at a + 1 + _GAMMA_SHIFT, brought back down by Gamma(v) = Gamma(v + 1) / v."""
    v = _LD(a) + _LD(1.0)
    y = v + _LD(_GAMMA_SHIFT)
    series = sum(_LD(num) / _LD(den) / y ** (2 * i + 1) for i, (num, den) in enumerate(_STIRLING))
    g = np.sqrt(_LD(2.0) * _PI) * y ** (y - _LD(0.5)) * np.exp(series - y)
    for j in range(_GAMMA_SHIFT):
        g = g / (v + _LD(j))
    return g


@functools.lru_cache(maxsize=256)
def _series_table(a):
    """Thresholds on z = (x/2)^2, nondecreasing: a point sums term k of the
    series pair at orders a, a - 1 when its z exceeds entry k - 1.

    J_a's terms are t_k ~ z^k exp(-L_k) with L_k = sum_{i<=k} log(i |i + a|),
    J_{a-1}'s are (k + a) t_k.  Term k exceeds _TERM_TOL times every earlier
    term j exactly when log z > max_j (log tol + L_k - L_j) / (k - j).  A
    point sums term k when it needs that term or a later one.
    """
    k = np.arange(_MAX_TERMS + 1.0)
    shift = np.abs(k + float(a))
    big_l = np.concatenate(([0.0], np.cumsum(np.log(k[1:] * shift[1:]))))
    gap = k[:, None] - k[None, :]
    log_z = np.full(_MAX_TERMS, np.inf)
    for seq in (big_l, big_l - np.log(shift)):
        with np.errstate(divide="ignore", invalid="ignore"):
            need = (math.log(_TERM_TOL) + seq[:, None] - seq[None, :]) / gap
        log_z = np.minimum(log_z, np.where(gap > 0.0, need, -np.inf).max(axis=1)[1:])
    return np.exp(np.minimum.accumulate(log_z[::-1])[::-1])


def _term_sums(a, z, t0, digamma=False):
    """Sums over J_a's ascending-series terms t_k = t0 (-z)^k / (k! (a+1)_k).

    z = (x/2)^2 sorted ascending and a (not a negative integer) in z's dtype.
    Returns [sum t_k, sum (k + a) t_k]: J_a and (x/2) J_{a-1} when
    t0 = (x/2)^a / Gamma(a + 1).  With ``digamma`` (integer a >= 1) it adds
    the logarithmic-series sums sum w_k t_k and sum w'_k (k + a) t_k, with
    w_k = psi(k+1) + psi(k+a+1) and w'_k = psi(k+1) + psi(k+a).  Each point
    sums only the terms its own z needs (``_series_table``); as z is sorted,
    those points form a suffix that shrinks as k grows.
    """
    dt = z.dtype.type
    neg_z = -z
    term = t0.copy()
    sums = [t0.copy(), a * t0]
    if digamma:
        # psi(j + 1) = H_j - gamma, with H_j the harmonic numbers
        gamma2 = dt(2.0) * dt(_EULER_GAMMA)
        h_k = dt(0.0)
        h_a = sum((dt(1.0) / dt(j) for j in range(1, int(a) + 1)), dt(0.0))
        h_am1 = h_a - dt(1.0) / a
        sums += [(h_a - gamma2) * t0, (h_am1 - gamma2) * sums[1]]
    for k, start in enumerate(np.searchsorted(z, _series_table(a), side="right"), start=1):
        if start == z.size:
            break
        ka = dt(k) + a
        t = term[start:]
        t *= neg_z[start:] * (dt(1.0) / (dt(k) * ka))
        sums[0][start:] += t
        kt = ka * t
        sums[1][start:] += kt
        if digamma:
            h_k += dt(1.0) / dt(k)
            h_am1 = h_a
            h_a += dt(1.0) / ka
            sums[2][start:] += (h_k + h_a - gamma2) * t
            sums[3][start:] += (h_k + h_am1 - gamma2) * kt
    return sums


def _finite_log_sum(m, pw, z):
    """sum_{k<m} (m-k-1)!/k! (x/2)^(2k-m), from pw = (x/2)^-m and z = (x/2)^2."""
    dt = z.dtype.type
    acc = np.zeros_like(z)
    for k in range(m):
        acc += (dt(math.factorial(m - k - 1)) / dt(math.factorial(k))) * pw
        pw = pw * z
    return acc


def _power(x, a):
    """x ** a in x's dtype.  At integer and half-integer a: repeated products
    and one sqrt, ~20 ns per longdouble point where powl takes ~500 ns (x86-64,
    80-bit longdouble)."""
    twice = 2.0 * float(a)
    if twice != round(twice):
        return x ** x.dtype.type(a)
    whole = int(abs(twice)) // 2
    p = np.sqrt(x) if twice % 2 else np.ones_like(x)
    for _ in range(whole):
        p = p * x
    return p if a >= 0 else x.dtype.type(1.0) / p


def _jy_series_typed(nu, x):
    """(J_nu, Y_nu, J_{nu-1}, Y_{nu-1}) by ascending series in x's dtype.

    x sorted ascending, below _SERIES_SWITCH.  One term sequence at order a
    gives J_a and J_{a-1}.  A non-integer order runs a = nu and a = 1 - nu
    from one power (x/2)^nu and gets Y from (J_v cos(v pi) - J_{-v}) /
    sin(v pi); an integer order runs a single sequence for J and Y at |n| and
    |n| - 1 (or 1 - n and -n), Y by the logarithmic limit series.
    """
    dt = x.dtype.type
    half = x * dt(0.5)
    z = half * half
    n = round(nu)
    if nu != n:
        a = dt(nu)
        b = dt(1.0) - a
        p = _power(half, a)
        j_a, half_j_lo = _term_sums(a, z, p / dt(_gamma1(a)))
        j_b, half_j_neg = _term_sums(b, z, (half / p) / dt(_gamma1(b)))
        j_lo, j_neg = half_j_lo / half, half_j_neg / half
        cospi, sinpi = _cospi_sinpi(nu, dt)
        # cos((nu - 1) pi) = -cos(nu pi), sin((nu - 1) pi) = -sin(nu pi)
        return j_a, (j_a * cospi - j_neg) / sinpi, j_lo, (j_lo * cospi + j_b) / sinpi
    a = n if n >= 1 else 1 - n
    p = _power(half, a)
    j_a, half_j_lo, dig_a, half_dig_lo = _term_sums(dt(a), z, p / dt(math.factorial(a)), True)
    j_lo = half_j_lo / half
    two_log = dt(2.0) * np.log(half)
    pi = dt(_PI)
    y_a = (two_log * j_a - _finite_log_sum(a, dt(1.0) / p, z) - dig_a) / pi
    y_lo = (two_log * j_lo - _finite_log_sum(a - 1, half / p, z) - half_dig_lo / half) / pi
    if n >= 1:
        return j_a, y_a, j_lo, y_lo
    # orders n = 1 - a and n - 1 = -a, by C_{-m} = (-1)^m C_m
    sign = dt(-1.0 if n % 2 else 1.0)
    return sign * j_lo, sign * y_lo, -sign * j_a, -sign * y_a


def _cospi_sinpi(v, dt):
    """(cos(v*pi), sin(v*pi)) in dtype dt; exact at integers and half-integers.

    cos(pi/2) rounds to ~6e-17 in float64 (~1e-20 in longdouble), which
    would leave a spurious J_v cos(v*pi) term in the series Y_v; at
    v = -n - 1/2 and small tau that term dominates.
    """
    n_round = round(v)
    delta = v - n_round
    sgn = dt(-1.0 if n_round % 2 != 0 else 1.0)
    if abs(delta) == 0.5:
        return sgn * dt(0.0), sgn * dt(math.copysign(1.0, delta))
    return sgn * np.cos(dt(_PI) * dt(delta)), sgn * np.sin(dt(_PI) * dt(delta))


def _reflect(v, j, y):
    """(J_{-v}, Y_{-v}) from (J_v, Y_v) by the reflection identities."""
    cospi, sinpi = _cospi_sinpi(v, j.dtype.type)
    return cospi * j - sinpi * y, sinpi * j + cospi * y


def _steed_pass(a, x):
    """(J_a, Y_a, J_{a-1}, Y_{a-1}) for a >= 0, x in [7, 16), in x's dtype."""
    nl = int(a + 0.5)
    # |m| <= 1/2, where the second fraction converges fast; m, and with it
    # every order m + n below, is held in x's dtype
    m = x.dtype.type(a) - nl
    xi2 = 2.0 / x
    # Miller: C_{k-1} = (2k/x) C_k - C_{k+1} down from J_{a+depth+1} = 0
    hi, j = np.zeros_like(x), np.ones_like(x)
    for n in range(nl + _MILLER_DEPTH, -1, -1):
        hi, j = j, ((m + n) * xi2) * j - hi
        if n == nl:
            j_a, j_am1 = hi, j
    # hi, j are J_m, J_{m-1} up to one factor; J'_m = J_{m-1} - (m/x) J_m
    f = j / hi - m / x
    # p + iq = (J'_m + iY'_m)/(J_m + iY_m)
    #        = i - 1/(2x) + (i/x) a_1/(b_1 + a_2/(b_2 + ...)),
    # a_k = (k - 1/2)^2 - m^2, b_k = 2(x + ik); evaluated from the tail
    two_x = 2.0 * x
    tr, ti = two_x, np.full_like(x, 2.0 * _CF2_DEPTH)
    for k in range(_CF2_DEPTH - 1, 0, -1):
        c = ((k + 0.5) ** 2 - m * m) / (tr * tr + ti * ti)
        tr, ti = two_x + c * tr, 2.0 * k - c * ti
    c = (0.25 - m * m) / (x * (tr * tr + ti * ti))
    p = c * ti - 0.5 / x
    q = 1.0 + c * tr
    # Wronskian J_m Y'_m - J'_m Y_m = 2/(pi x) with Y_m = gam J_m
    gam = (p - f) / q
    jm = np.copysign(np.sqrt((xi2 / x.dtype.type(_PI)) / ((p - f) * gam + q)), hi)
    scale = jm / hi
    y = jm * gam
    y_lo = y * (p + q / gam + m / x)  # Y_{m-1} = Y'_m + (m/x) Y_m
    for n in range(nl):
        y_lo, y = y, ((m + n) * xi2) * y - y_lo
    return j_a * scale, y, j_am1 * scale, y_lo


def _jy_steed(nu, x):
    """(J_nu, Y_nu, J_{nu-1}, Y_{nu-1}) for x in [7, 16), one pass in x's dtype."""
    if nu >= 0.0:
        return _steed_pass(nu, x)
    # orders nu - 1 and nu reflect a = 1 - nu and a - 1 = -nu
    a = 1.0 - x.dtype.type(nu)
    j_a, y_a, j_b, y_b = _steed_pass(a, x)
    return (*_reflect(-nu, j_b, y_b), *_reflect(a, j_a, y_a))


@functools.lru_cache(maxsize=256)
def _asym_table(nu):
    """Arguments below which a point sums term k of the Hankel expansion at
    order nu, nonincreasing: term k is a_k / tau^k with
    |a_k| = prod_{j<=k} |4 nu^2 - (2j - 1)^2| / (8j), and a point sums it when
    that term or a later one is at least _ASYM_TOL."""
    k = np.arange(1.0, _ASYM_TERMS + 1.0)
    with np.errstate(divide="ignore"):
        log_a = np.cumsum(np.log(np.abs(4.0 * nu * nu - (2.0 * k - 1.0) ** 2) / (8.0 * k)))
    log_tau = (log_a - math.log(_ASYM_TOL)) / k
    return np.exp(np.maximum.accumulate(log_tau[::-1])[::-1])


def _hankel_asym_pq(nu, tau):
    """(P, Q) of the Hankel expansion at order nu (|nu| <= 2) in tau's dtype,
    tau sorted ascending: J = amp (P cos w - Q sin w), Y = amp (P sin w + Q cos w)
    with amp = sqrt(2/(pi tau)), w = tau - (nu/2 + 1/4) pi.  Each point sums the
    terms its own tau needs (``_asym_table``); those points form a prefix."""
    dt = tau.dtype.type
    four_nu2 = dt(4.0) * dt(nu) * dt(nu)
    inv_8tau = dt(1.0) / (dt(8.0) * tau)
    c = np.ones_like(tau)
    p = np.ones_like(tau)
    q = np.zeros_like(tau)
    for k, end in enumerate(np.searchsorted(tau, _asym_table(float(nu)), side="right"), start=1):
        if end == 0:
            break
        ck = c[:end]
        ck *= ((four_nu2 - dt((2 * k - 1) ** 2)) / dt(k)) * inv_8tau[:end]
        # P = 1 - c_2 + c_4 - ..., Q = c_1 - c_3 + c_5 - ...
        target = q[:end] if k % 2 else p[:end]
        if k % 4 in (0, 1):
            target += ck
        else:
            target -= ck
    return p, q


def _asym_ladder(nu0, work, top):
    """[(J, Y)] at orders nu0, nu0 + 1, ..., nu0 + max(top, 1)."""
    dt = work.dtype.type
    pi = dt(_PI)
    omega = work - (dt(0.5) * nu0 + dt(0.25)) * pi
    amp = np.sqrt(dt(2.0) / (pi * work))
    cw, sw = amp * np.cos(omega), amp * np.sin(omega)
    # the ladder sets the branch's peak memory: hold one order's P, Q at a time
    del omega, amp
    p, q = _hankel_asym_pq(nu0, work)
    rungs = [(p * cw - q * sw, p * sw + q * cw)]
    # the phase of order nu0 + 1 is omega - pi/2
    p, q = _hankel_asym_pq(nu0 + 1.0, work)
    rungs.append((p * sw + q * cw, q * sw - p * cw))
    # C_{k+1} = (2k/tau) C_k - C_{k-1}; tau > |nu| keeps this well conditioned
    order = nu0 + 1.0
    for _ in range(top - 1):
        (j0, y0), (j1, y1) = rungs[-2], rungs[-1]
        rungs.append(((2.0 * order / work) * j1 - j0, (2.0 * order / work) * y1 - y0))
        order += 1.0
    return rungs


def _jy_large(nu, tau):
    """(J_nu, Y_nu, J_{nu-1}, Y_{nu-1}) for tau >= 16 via reduced-order
    asymptotics + upward recurrence; one ladder per distinct reduced order.
    The orders are formed in tau's dtype, so nu - 1 does not round in longdouble."""
    order = tau.dtype.type(nu)
    steps = [(v, abs(v), int(math.floor(abs(v)))) for v in (order, order - 1.0)]
    tops = {}
    for _, anu, n in steps:
        tops[anu - n] = max(tops.get(anu - n, 0), n)
    ladders = {nu0: _asym_ladder(nu0, tau, top) for nu0, top in tops.items()}
    out = []
    for v, anu, n in steps:
        j, y = ladders[anu - n][n]
        out += _reflect(anu, j, y) if v < 0.0 else (j, y)
    return out


def _snap_order(nu):
    if 0.0 < abs(nu - round(nu)) < _SNAP:
        warnings.warn(
            f"order {nu!r} within {_SNAP:g} of an integer: evaluating at the integer",
            RuntimeWarning, stacklevel=5)
        return float(round(nu))
    return nu


def _jy_flat(nu, flat):
    """[J_nu, Y_nu, J_{nu-1}, Y_{nu-1}] as arrays of flat's length and dtype.

    The branches take sorted arguments, so each is one slice; unsorted input
    is sorted once here and the values scattered back.
    """
    order = None
    if np.any(flat[1:] < flat[:-1]):
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
    cuts = (0, *np.searchsorted(flat, (_STEED_SWITCH, _SERIES_SWITCH)), flat.size)
    # one array per part, not one (4, n) block: with the block, glibc kept
    # the radial decay series 1.6 MB (3.5%) larger in resident memory
    out = [np.empty_like(flat) for _ in range(4)]
    for lo, hi, branch in zip(cuts, cuts[1:], (_jy_series_typed, _jy_steed, _jy_large)):
        if hi > lo:
            for o, part in zip(out, branch(nu, flat[lo:hi])):
                o[lo:hi] = part
    if order is not None:
        for o in out:
            o[order] = o.copy()
    return out


def _jy_shaped(nu, tau, dtype):
    """The four parts as dtype arrays of tau's shape."""
    nu, arr = _check_args(nu, tau)
    out = _jy_flat(_snap_order(nu), np.atleast_1d(arr).ravel().astype(dtype, copy=False))
    return tuple(v.reshape(arr.shape) for v in out)


def _jy(nu, tau):
    """(J_nu, Y_nu, J_{nu-1}, Y_{nu-1}) in float64, for both orders of a
    Hankel cross product at once.

    Arrays of tau's shape, or floats for a scalar tau.  ``nu`` is checked
    against MAX_ORDER; ``nu - 1`` is evaluated as a by-product.
    """
    out = _jy_shaped(nu, tau, np.float64)
    return tuple(float(v) for v in out) if np.ndim(tau) == 0 else out


def jy_extended(nu, tau):
    """(J_nu, Y_nu, J_{nu-1}, Y_{nu-1}) as longdouble arrays of tau's shape,
    for cancellation-sensitive combinations.

    The same branches as ``_jy``, run in extended precision.  For tau < 1
    each part is within a few longdouble rounding units of the exact value
    (~1e-18 relative against 40-digit references), which keeps downstream
    products of large small-argument values accurate.  Where longdouble is plain double the first call warns
    once: that accuracy is then not met.
    """
    global _ld_warned
    if _LD_IS_DOUBLE and not _ld_warned:
        _ld_warned = True
        warnings.warn("numpy.longdouble is plain double here: extended-precision "
                      "Bessel values lose their extra digits", RuntimeWarning, stacklevel=2)
    return _jy_shaped(nu, tau, _LD)


def bessel_j(nu, tau):
    """Bessel function of the first kind J_nu(tau), tau > 0, |nu| <= 10."""
    return _jy(nu, tau)[0]


def bessel_y(nu, tau):
    """Bessel function of the second kind Y_nu(tau), tau > 0, |nu| <= 10."""
    return _jy(nu, tau)[1]


def hankel_plus(nu, tau):
    """H+_nu(tau) = J_nu(tau) + i*Y_nu(tau); scalar or array argument."""
    j, y = _jy(nu, tau)[:2]
    return j + 1j * y


@dataclass(frozen=True)
class HankelPair:
    """Values of the Hankel pair at one point; h_minus = conj(h_plus)."""

    h_plus: complex
    h_minus: complex


def hankel_pair(nu, tau):
    """Both Hankel functions H+/-_nu(tau) for real order and argument."""
    hp = hankel_plus(nu, float(tau))
    return HankelPair(h_plus=hp, h_minus=hp.conjugate())


def selftest_rows(orders=(0.0, 0.3, 0.5, 1.0, 1.5, 2.5, 3.0, -0.5, -1.3, 7.0),
                  taus=None):
    """Identity-residual table used by the ``specfun-selftest`` CLI command.

    Columns: order, argument, Wronskian residual (vs 2/(pi*tau)), Bessel ODE
    residual for J, Hankel conjugacy residual, and the closed-form residual
    for half-integer orders (empty otherwise).
    """
    if taus is None:
        taus = np.geomspace(1e-4, 1e3, 15)
    rows = []
    for nu in orders:
        for tau in taus:
            tau = float(tau)
            # negative orders: the Wronskian combination is ill conditioned for
            # small tau (both solutions blow up like tau**-|nu|), so restrict
            # to the oscillatory regime where the residual is meaningful
            if nu < 0.0 and tau < max(1.0, 2.0 * abs(nu)):
                continue
            jv, yv, j1, y1 = _jy(nu, tau)
            j2 = _jy(nu - 1.0, tau)[2]
            # recurrence C' = C_{nu-1} - (nu/tau) C_nu
            jd = j1 - (nu / tau) * jv
            yd = y1 - (nu / tau) * yv
            wron = jv * yd - jd * yv - 2.0 / (math.pi * tau)
            # second derivative from differentiating the recurrence once more
            jdd = (j2 - ((nu - 1.0) / tau) * j1) - (nu / tau) * jd + (nu / tau**2) * jv
            ode = tau**2 * jdd + tau * jd + (tau**2 - nu**2) * jv
            pair = hankel_pair(nu, tau)
            conj_res = abs(pair.h_minus - pair.h_plus.conjugate())
            closed = ""
            if abs(nu - 0.5) < 1e-12:
                closed = abs(jv - math.sqrt(2.0 / (math.pi * tau)) * math.sin(tau))
            elif abs(nu + 0.5) < 1e-12:
                closed = abs(jv - math.sqrt(2.0 / (math.pi * tau)) * math.cos(tau))
            rows.append({
                "nu": nu, "tau": tau,
                "wronskian_residual": wron,
                "ode_residual": ode,
                "conjugacy_residual": conj_res,
                "halfint_residual": closed,
            })
    return rows
