"""Bessel functions J, Y and the Hankel pair H+/- for real order.

Supported domain: order ``|nu| <= 10``, argument ``tau > 0``.  Relative
accuracy is ~1e-10 or better for ``tau`` in [1e-6, 1e4] away from zeros
(absolute ~1e-12 near zeros); beyond 1e4 the limiting factor is the phase
``tau mod 2*pi``, which stays accurate to ~2e-16*tau.

Evaluation strategy:

* ``tau < 16``: ascending power series accumulated in 80-bit extended
  precision (the alternating sum cancels up to ~7 digits near the switch
  point, which extended precision absorbs).  Non-integer orders get Y from
  ``(J_nu*cos(nu*pi) - J_{-nu}) / sin(nu*pi)``; integer orders use the
  logarithmic limit series with digamma terms, which is uniformly stable.
* ``tau >= 16``: Hankel asymptotic expansion (10 to 25 terms, early exit at
  the minimal term) evaluated at the reduced order ``nu0 = nu - floor(nu)``
  and ``nu0 + 1``, lifted to ``nu`` by the three-term recurrence.  With
  ``|nu| <= 10 < tau`` the recurrence runs inside the oscillatory regime,
  where it is well conditioned; a plain asymptotic expansion at the full
  order would not converge for ``|nu| >~ 6`` until far larger ``tau``.
  Negative orders come from the exact reflection identities.

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

# The alternating series cancels like exp(tau); extended precision is only
# needed once that exceeds double's headroom, around tau = 7.
_SERIES_SWITCH = 16.0
_LD_SWITCH = 7.0


def _nterms(tau_max, nu_abs):
    return min(180, int(18 + 2.4 * tau_max + nu_abs))


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
    one = x.dtype.type(1.0)
    half = x * x.dtype.type(0.5)
    z = -(half * half)
    term = half ** x.dtype.type(nu) / x.dtype.type(math.gamma(nu + 1.0))
    total = term.copy()
    for k in range(1, _nterms(float(x.max()), abs(nu)) + 1):
        term = term * z * (one / (x.dtype.type(k) * x.dtype.type(k + nu)))
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
    """(J, Y) by series in x's dtype; x in (0, _SERIES_SWITCH)."""
    n_round = round(nu)
    delta = nu - n_round
    if delta == 0.0:
        n = int(n_round)
        jn = _j_series(float(abs(n)), x)
        yn = _y_int_series(abs(n), x)
        sign = x.dtype.type(-1.0 if (n < 0 and n % 2 != 0) else 1.0)
        return sign * jn, sign * yn
    dt = x.dtype.type
    jp = _j_series(nu, x)
    jm = _j_series(-nu, x)
    sgn = dt(-1.0 if n_round % 2 != 0 else 1.0)
    cospi = sgn * np.cos(dt(_PI) * dt(delta))
    sinpi = sgn * np.sin(dt(_PI) * dt(delta))
    y = (jp * cospi - jm) / sinpi
    return jp, y


def _jy_series(nu, x64, extended=False):
    """(J, Y) on the series branch; float64 below the cancellation threshold
    unless ``extended`` forces full longdouble output."""
    if extended:
        return _jy_series_typed(nu, x64.astype(_LD))
    j = np.empty_like(x64)
    y = np.empty_like(x64)
    lo = x64 < _LD_SWITCH
    if np.any(lo):
        j[lo], y[lo] = _jy_series_typed(nu, x64[lo])
    if np.any(~lo):
        jh, yh = _jy_series_typed(nu, x64[~lo].astype(_LD))
        j[~lo] = jh.astype(float)
        y[~lo] = yh.astype(float)
    return j, y


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


def _jy_large(nu, tau, extended=False):
    """(J, Y) for tau >= 16 via reduced-order asymptotics + upward recurrence."""
    work = tau.astype(_LD) if extended else tau
    anu = abs(nu)
    nsteps = int(math.floor(anu))
    nu0 = anu - nsteps
    j0, y0 = _hankel_asym_jy(nu0, work)
    j1, y1 = _hankel_asym_jy(nu0 + 1.0, work)
    # C_{k+1} = (2k/tau) C_k - C_{k-1}; tau > |nu| keeps this well conditioned
    order = nu0 + 1.0
    for _ in range(nsteps - 1):
        j0, j1 = j1, (2.0 * order / work) * j1 - j0
        y0, y1 = y1, (2.0 * order / work) * y1 - y0
        order += 1.0
    if nsteps == 0:
        j, y = j0, y0
    else:
        j, y = j1, y1
    if nu < 0.0:
        # J_{-nu} = cos(nu*pi) J_nu - sin(nu*pi) Y_nu, and likewise for Y
        dt = work.dtype.type
        n_round = round(anu)
        delta = anu - n_round
        sgn = dt(-1.0 if n_round % 2 else 1.0)
        cospi = sgn * np.cos(dt(_PI) * dt(delta))
        sinpi = sgn * np.sin(dt(_PI) * dt(delta))
        j, y = cospi * j - sinpi * y, sinpi * j + cospi * y
    return j, y


def _snap_order(nu):
    if 0.0 < abs(nu - round(nu)) < _SNAP:
        warnings.warn(
            f"order {nu!r} within {_SNAP:g} of an integer: evaluating at the integer",
            RuntimeWarning, stacklevel=4)
        return float(round(nu))
    return nu


def _jy_flat(nu, flat, extended=False):
    dtype = _LD if extended else float
    j = np.empty(flat.shape, dtype=dtype)
    y = np.empty(flat.shape, dtype=dtype)
    m_ser = flat < _SERIES_SWITCH
    if np.any(m_ser):
        j[m_ser], y[m_ser] = _jy_series(nu, flat[m_ser], extended=extended)
    if np.any(~m_ser):
        j[~m_ser], y[~m_ser] = _jy_large(nu, flat[~m_ser], extended=extended)
    return j, y


def _jy(nu, tau):
    """Core dispatcher; returns (J, Y) float64 arrays of tau's shape."""
    nu, arr = _check_args(nu, tau)
    nu = _snap_order(nu)
    flat = np.atleast_1d(arr).ravel()
    j, y = _jy_flat(nu, flat)
    j = j.reshape(np.shape(arr))
    y = y.reshape(np.shape(arr))
    if np.ndim(tau) == 0:
        return float(j), float(y)
    return j, y


def jy_extended(nu, tau):
    """(J, Y) as longdouble arrays, for cancellation-sensitive combinations.

    Same algorithms as bessel_j/bessel_y but every branch accumulates and
    returns extended precision, keeping downstream products of large small-
    argument values accurate to ~1e-19 relative.
    """
    nu, arr = _check_args(nu, tau)
    nu = _snap_order(nu)
    flat = np.atleast_1d(arr).ravel()
    j, y = _jy_flat(nu, flat, extended=True)
    return j.reshape(np.shape(arr)), y.reshape(np.shape(arr))


def bessel_j(nu, tau):
    """Bessel function of the first kind J_nu(tau), tau > 0, |nu| <= 10."""
    return _jy(nu, tau)[0]


def bessel_y(nu, tau):
    """Bessel function of the second kind Y_nu(tau), tau > 0, |nu| <= 10."""
    return _jy(nu, tau)[1]


def hankel_plus(nu, tau):
    """H+_nu(tau) = J_nu(tau) + i*Y_nu(tau); scalar or array argument."""
    j, y = _jy(nu, tau)
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


def _derivative(fun, nu, tau):
    # recurrence C' = C_{nu-1} - (nu/tau) C_nu
    return fun(nu - 1.0, tau) - (nu / tau) * fun(nu, tau)


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
            jv = bessel_j(nu, tau)
            yv = bessel_y(nu, tau)
            jd = _derivative(bessel_j, nu, tau)
            yd = _derivative(bessel_y, nu, tau)
            wron = jv * yd - jd * yv - 2.0 / (math.pi * tau)
            # second derivative from differentiating the recurrence once more
            jdd = (_derivative(bessel_j, nu - 1.0, tau)
                   - (nu / tau) * jd + (nu / tau**2) * jv)
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
