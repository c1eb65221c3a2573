"""Bessel functions J, Y and the Hankel pair H+/- for real order.

Supported domain: order ``|nu| <= 10``, argument ``tau > 0``.  Relative
accuracy is ~1e-10 or better for ``tau`` in [1e-6, 1e4] away from zeros
(absolute ~1e-12 near zeros); beyond 1e4 the limiting factor is the phase
``tau mod 2*pi``, which stays accurate to ~2e-16*tau.

Every evaluation returns both orders of a Hankel cross product,
``(J_nu, Y_nu, J_{nu-1}, Y_{nu-1})``, from one pass over the arguments.
``_jy`` (float64) and ``jy_extended`` (80-bit ``longdouble``) run the same
three branches; the precision is the dtype of the argument array:

* ``tau < 7``: ascending power series.  Non-integer orders get Y from
  ``(J_nu*cos(nu*pi) - J_{-nu}) / sin(nu*pi)``; integer orders use the
  logarithmic limit series with digamma terms, which is uniformly stable.
* ``7 <= tau < 16``: Steed's method (Barnett, Feng, Steed & Goldfarb 1974;
  Numerical Recipes, bessjy).  Miller's downward recurrence (the first
  continued fraction, carried down) gives ``J'/J`` at an order
  ``|m| <= 1/2``, the second continued fraction gives
  ``(J' + iY')/(J + iY)`` there, the Wronskian fixes the scale and Y climbs
  back up by forward recurrence.  Both fractions are cut at depths fixed
  for this argument range, so every point does the same work whatever else
  is in the batch.  Against 40-digit references for ``|nu| <= 10`` the
  error is ~1e-15 of max(1, |value|) in float64 and ~1e-18 in
  ``longdouble``.  One pass at ``a >= 0`` yields orders ``a`` and
  ``a - 1``; negative orders come from the reflection identities.
* ``tau >= 16``: Hankel asymptotic expansion (10 to 25 terms, early exit at
  the minimal term) evaluated at the reduced order ``nu0 = nu - floor(nu)``
  and ``nu0 + 1``, lifted to ``nu`` by the three-term recurrence.  With
  ``|nu| <= 10 < tau`` the recurrence runs inside the oscillatory regime,
  where it is well conditioned; a plain asymptotic expansion at the full
  order would not converge for ``|nu| >~ 6`` until far larger ``tau``.
  Both orders share one ladder when their reduced orders agree.  Negative
  orders come from the reflection identities.

Orders within 1e-6 of an integer are snapped to the integer (with a
warning): below that distance the reflection cancellation exceeds even
extended precision.
"""

from __future__ import annotations

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

# np.longdouble is IEEE double on some platforms (MSVC, arm64 macOS)
_LD_IS_DOUBLE = np.finfo(_LD).eps >= np.finfo(np.float64).eps
_ld_warned = False


def _nterms(tau_max, nu_abs):
    return int(18 + 2.4 * tau_max + nu_abs)


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


def _j_series(nu, x):
    """J_nu by ascending series; x float64 or longdouble, nu not a negative integer."""
    dt = x.dtype.type
    one = dt(1.0)
    half = x * dt(0.5)
    z = -(half * half)
    term = half ** dt(nu) / dt(math.gamma(nu + 1.0))
    total = term.copy()
    for k in range(1, _nterms(float(x.max()), abs(nu)) + 1):
        # k + nu summed in the series dtype: a float64 sum would round it
        term = term * z * (one / (dt(k) * (dt(k) + dt(nu))))
        total = total + term
    return total


def _y_int_series(n, x):
    """Y_n for integer n >= 0 by the logarithmic limit series."""
    dt = x.dtype.type
    half = x * dt(0.5)
    quarter = half * half
    jn = _j_series(float(n), x)
    out = (dt(2.0) / dt(_PI)) * np.log(half) * jn
    if n > 0:
        # finite sum with (x/2)^{2k-n}
        acc = np.zeros_like(x)
        coeff = dt(math.factorial(n - 1))
        pw = half ** dt(-n)
        for k in range(n):
            acc = acc + coeff * pw
            if k + 1 < n:
                coeff = coeff / (dt(k + 1) * dt(n - k - 1))
                pw = pw * quarter
        out = out - acc / dt(_PI)
    # infinite sum with digamma weights psi(k+1) + psi(k+n+1)
    harm = dt(0.0)
    harm_n = dt(0.0)
    for j in range(1, n + 1):
        harm_n += dt(1.0) / dt(j)
    gamma2 = dt(2.0) * dt(_EULER_GAMMA)
    psi_sum = harm + harm_n - gamma2
    term = half ** dt(n) / dt(math.factorial(n))
    acc = psi_sum * term
    for k in range(1, _nterms(float(x.max()), n) + 1):
        term = term * (-quarter) / (dt(k) * dt(k + n))
        harm += dt(1.0) / dt(k)
        harm_n += dt(1.0) / dt(k + n)
        acc = acc + (harm + harm_n - gamma2) * term
    return out - acc / dt(_PI)


def _jy_series_typed(nu, x):
    """(J_nu, Y_nu, J_{nu-1}, Y_{nu-1}) by series in x's dtype; x < _STEED_SWITCH."""
    out = []
    for order in (nu, nu - 1.0):
        n = round(order)
        if order == n:
            sign = x.dtype.type(-1.0 if (n < 0 and n % 2 != 0) else 1.0)
            out += (sign * _j_series(float(abs(n)), x), sign * _y_int_series(abs(n), x))
        else:
            jp = _j_series(order, x)
            cospi, sinpi = _cospi_sinpi(order, x.dtype.type)
            out += (jp, (jp * cospi - _j_series(-order, x)) / sinpi)
    return out


def _cospi_sinpi(v, dt):
    """(cos(v*pi), sin(v*pi)) in dtype dt; exact at integers."""
    n_round = round(v)
    delta = v - n_round
    sgn = dt(-1.0 if n_round % 2 != 0 else 1.0)
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


def _hankel_asym_jy(nu, tau):
    """(J, Y) by the Hankel asymptotic expansion in tau's dtype (|nu| <= 2)."""
    dt = tau.dtype.type
    pi = dt(_PI)
    four_nu2 = dt(4.0) * dt(nu) * dt(nu)
    c = np.ones_like(tau)
    p = np.ones_like(tau)
    qsum = np.zeros_like(tau)
    sign_p, sign_q = -1.0, 1.0
    for k in range(1, 26):
        c = c * (four_nu2 - dt((2 * k - 1) ** 2)) / (dt(8.0 * k) * tau)
        if k % 2 == 1:
            qsum = qsum + dt(sign_q) * c
            sign_q = -sign_q
        else:
            p = p + dt(sign_p) * c
            sign_p = -sign_p
        if k >= 10 and np.all(np.abs(c) < 1e-25):
            break
    omega = tau - (dt(0.5) * dt(nu) + dt(0.25)) * pi
    amp = np.sqrt(dt(2.0) / (pi * tau))
    cw, sw = np.cos(omega), np.sin(omega)
    return amp * (p * cw - qsum * sw), amp * (p * sw + qsum * cw)


def _asym_ladder(nu0, work, top):
    """[(J, Y)] at orders nu0, nu0 + 1, ..., nu0 + max(top, 1)."""
    rungs = [_hankel_asym_jy(nu0, work), _hankel_asym_jy(nu0 + 1.0, work)]
    # C_{k+1} = (2k/tau) C_k - C_{k-1}; tau > |nu| keeps this well conditioned
    order = nu0 + 1.0
    for _ in range(top - 1):
        (j0, y0), (j1, y1) = rungs[-2], rungs[-1]
        rungs.append(((2.0 * order / work) * j1 - j0, (2.0 * order / work) * y1 - y0))
        order += 1.0
    return rungs


def _jy_large(nu, tau):
    """(J_nu, Y_nu, J_{nu-1}, Y_{nu-1}) for tau >= 16 via reduced-order
    asymptotics + upward recurrence; one ladder per distinct reduced order."""
    steps = [(order, abs(order), int(math.floor(abs(order)))) for order in (nu, nu - 1.0)]
    tops = {}
    for _, anu, n in steps:
        tops[anu - n] = max(tops.get(anu - n, 0), n)
    ladders = {nu0: _asym_ladder(nu0, tau, top) for nu0, top in tops.items()}
    out = []
    for order, anu, n in steps:
        j, y = ladders[anu - n][n]
        out += _reflect(anu, j, y) if order < 0.0 else (j, y)
    return out


def _snap_order(nu):
    if 0.0 < abs(nu - round(nu)) < _SNAP:
        warnings.warn(
            f"order {nu!r} within {_SNAP:g} of an integer: evaluating at the integer",
            RuntimeWarning, stacklevel=5)
        return float(round(nu))
    return nu


def _jy_flat(nu, flat):
    """[J_nu, Y_nu, J_{nu-1}, Y_{nu-1}] as arrays of flat's length and dtype."""
    out = [np.empty_like(flat) for _ in range(4)]
    lo, hi = flat < _STEED_SWITCH, flat >= _SERIES_SWITCH
    for mask, branch in ((lo, _jy_series_typed), (~(lo | hi), _jy_steed), (hi, _jy_large)):
        if np.any(mask):
            # one array per part, not one (4, n) block: with the block, glibc
            # kept the radial decay series 1.6 MB (3.5%) larger in resident memory
            for o, part in zip(out, branch(nu, flat[mask])):
                o[mask] = part
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

    The same branches as ``_jy``, run in extended precision, which keeps
    downstream products of large small-argument values accurate to ~1e-19
    relative.  Where longdouble is plain double the first call warns once:
    that accuracy is then not met.
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
