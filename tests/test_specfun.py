"""Tests for the Bessel/Hankel module against independent oracles.

Oracles used here (never the implementation under test):
* closed forms for half-integer orders,
* a fresh 60-term ascending power series accumulated in extended precision,
* the leading Hankel asymptotic term,
* recurrence-based derivative identities (Wronskian, Bessel ODE).
"""

import math
import warnings

import numpy as np
import pytest

from dampwave import specfun
from dampwave.errors import DomainError, UnsupportedOrderError

LD = np.longdouble


def oracle_j_series(nu, tau, terms=60):
    """Independent ascending-series oracle for J_nu, extended precision."""
    half = LD(tau) / LD(2)
    term = half ** LD(nu) / LD(math.gamma(nu + 1.0))
    total = term
    for k in range(1, terms):
        term = term * (-(half * half)) / (LD(k) * LD(k + nu))
        total += term
    return float(total)


def oracle_y0_small(tau):
    """Small-argument expansion of Y_0 (two orders)."""
    g = 0.5772156649015328606
    j0 = oracle_j_series(0.0, tau)
    return (2.0 / math.pi) * ((math.log(tau / 2.0) + g) * j0 + tau * tau / 4.0)


def j_half(tau):
    return math.sqrt(2.0 / (math.pi * tau)) * math.sin(tau)


def y_half(tau):
    return -math.sqrt(2.0 / (math.pi * tau)) * math.cos(tau)


def test_j_half_integer_closed_forms():
    # includes the spec'd values J_{1/2}(pi) = 0 and J_{1/2}(1)
    assert abs(specfun.bessel_j(0.5, math.pi)) < 1e-12
    assert abs(specfun.bessel_j(0.5, 1.0) - math.sqrt(2.0 / math.pi) * math.sin(1.0)) < 1e-14
    for tau in [0.05, 0.7, 3.0, 15.9, 16.1, 77.0, 1234.5]:
        assert specfun.bessel_j(0.5, tau) == pytest.approx(j_half(tau), abs=1e-12, rel=1e-12)
        assert specfun.bessel_j(-0.5, tau) == pytest.approx(
            math.sqrt(2.0 / (math.pi * tau)) * math.cos(tau), abs=1e-12, rel=1e-12)


def test_y_half_integer_closed_forms():
    assert abs(specfun.bessel_y(0.5, math.pi / 2.0)) < 1e-12
    assert specfun.bessel_y(0.5, 1.0) == pytest.approx(
        -math.sqrt(2.0 / math.pi) * math.cos(1.0), abs=1e-14)
    for tau in [0.05, 0.7, 3.0, 15.9, 16.1, 77.0]:
        assert specfun.bessel_y(0.5, tau) == pytest.approx(y_half(tau), abs=1e-12, rel=1e-12)
        assert specfun.bessel_y(-0.5, tau) == pytest.approx(
            math.sqrt(2.0 / (math.pi * tau)) * math.sin(tau), abs=1e-12, rel=1e-12)


def test_j_matches_series_oracle():
    for nu in [0.0, 0.3, 1.0, 2.0, -1.3, 4.7, 9.5, -9.5]:
        for tau in [1e-6, 1e-3, 0.1, 1.0, 4.0, 9.0]:
            ref = oracle_j_series(nu, tau)
            got = specfun.bessel_j(nu, tau)
            assert got == pytest.approx(ref, rel=1e-11, abs=1e-13), (nu, tau)


def test_first_zero_of_j0():
    # locate the first zero with the oracle series, then check the module there
    lo, hi = 2.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if oracle_j_series(0.0, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    zero = 0.5 * (lo + hi)
    assert zero == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(specfun.bessel_j(0.0, zero)) < 1e-10


def test_y0_small_argument_log_growth():
    tau = 1e-6
    assert specfun.bessel_y(0.0, tau) == pytest.approx(oracle_y0_small(tau), rel=1e-9)
    # grows like -log(tau) toward 0+
    assert specfun.bessel_y(0.0, 1e-8) < specfun.bessel_y(0.0, 1e-4) < 0.0


def test_hankel_pair_conjugacy_and_composition():
    rng = np.random.default_rng(7)
    for _ in range(200):
        nu = rng.uniform(-9.0, 9.0)
        if abs(nu - round(nu)) < 1e-4:
            nu = round(nu) + 0.25
        tau = 10.0 ** rng.uniform(-5, 3.8)
        pair = specfun.hankel_pair(nu, tau)
        assert pair.h_minus == pair.h_plus.conjugate()
        j, y = specfun.bessel_j(nu, tau), specfun.bessel_y(nu, tau)
        assert pair.h_plus == pytest.approx(complex(j, y), rel=1e-14, abs=1e-300)


def test_hankel_half_integer_value():
    # H+_{1/2}(1) = -i sqrt(2/pi) e^{i}
    got = specfun.hankel_pair(0.5, 1.0).h_plus
    ref = -1j * math.sqrt(2.0 / math.pi) * complex(math.cos(1.0), math.sin(1.0))
    assert got == pytest.approx(ref, rel=1e-12)
    # H+_{-1/2}(2) = sqrt(2/(pi*2)) e^{2i}
    got = specfun.hankel_pair(-0.5, 2.0).h_plus
    ref = math.sqrt(1.0 / math.pi) * complex(math.cos(2.0), math.sin(2.0))
    assert got == pytest.approx(ref, rel=1e-12)


def test_hankel_asymptotic_magnitude():
    # |H+_0.3(50)| within 2% of sqrt(2/(pi*50))
    mag = abs(specfun.hankel_pair(0.3, 50.0).h_plus)
    assert mag == pytest.approx(math.sqrt(2.0 / (math.pi * 50.0)), rel=0.02)


def test_wronskian_identity():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 250:
        nu = rng.uniform(-8.9, 8.9)
        if abs(nu - round(nu)) < 1e-4 and nu != round(nu):
            continue
        # negative orders: stay in the oscillatory regime where the
        # difference of products is well conditioned
        lo = 1e-5 if nu >= 0 else max(1.0, 2.0 * abs(nu))
        tau = 10.0 ** rng.uniform(math.log10(lo), 4.0)
        j = specfun.bessel_j(nu, tau)
        y = specfun.bessel_y(nu, tau)
        jd = specfun.bessel_j(nu - 1.0, tau) - (nu / tau) * j
        yd = specfun.bessel_y(nu - 1.0, tau) - (nu / tau) * y
        ref = 2.0 / (math.pi * tau)
        assert (j * yd - jd * y) == pytest.approx(ref, rel=1e-8), (nu, tau)
        checked += 1


def test_bessel_ode_residual():
    rng = np.random.default_rng(13)
    for _ in range(250):
        # nu - 2 must stay within the supported order range
        nu = rng.uniform(-7.9, 8.5)
        if abs(nu - round(nu)) < 1e-4:
            nu = round(nu) + 0.5
        tau = 10.0 ** rng.uniform(-3, 4.0)
        j = specfun.bessel_j(nu, tau)
        jd = specfun.bessel_j(nu - 1.0, tau) - (nu / tau) * j
        jdd = (specfun.bessel_j(nu - 2.0, tau) - ((nu - 1.0) / tau) * specfun.bessel_j(nu - 1.0, tau)
               - (nu / tau) * jd + (nu / tau**2) * j)
        resid = tau**2 * jdd + tau * jd + (tau**2 - nu**2) * j
        scale = max(1.0, abs(j)) * max(1.0, tau**2)
        assert abs(resid) <= 1e-7 * scale, (nu, tau, resid)


def test_integer_order_reflection():
    for n in range(1, 10):
        for tau in [0.3, 2.0, 18.0, 200.0]:
            sign = (-1.0) ** n
            assert specfun.bessel_j(-float(n), tau) == pytest.approx(
                sign * specfun.bessel_j(float(n), tau), rel=1e-12, abs=1e-15)
            assert specfun.bessel_y(-float(n), tau) == pytest.approx(
                sign * specfun.bessel_y(float(n), tau), rel=1e-12, abs=1e-15)


def test_near_integer_order_snaps_with_warning():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        v = specfun.bessel_y(3.0 + 1e-8, 2.2)
    assert any("integer" in str(w.message) for w in rec)
    assert v == specfun.bessel_y(3.0, 2.2)


def test_domain_errors():
    with pytest.raises(DomainError):
        specfun.bessel_j(0.5, 0.0)
    with pytest.raises(DomainError):
        specfun.bessel_j(0.5, -1.0)
    with pytest.raises(DomainError):
        specfun.bessel_y(0.5, float("nan"))
    with pytest.raises(UnsupportedOrderError):
        specfun.bessel_j(10.5, 1.0)
    with pytest.raises(UnsupportedOrderError):
        specfun.hankel_pair(-11.0, 1.0)


def test_vectorized_matches_scalar():
    # a value must not depend on the other points of its batch
    taus = np.array([0.01, 1.0, 6.9, 7.0, 7.1, 12.5, 15.9, 15.999, 16.1, 300.0])
    for nu in [0.0, -1.5, 2.3, 0.3, -7.7, 10.0]:
        vec = specfun._jy(nu, taus)
        for part in vec:
            assert part.shape == taus.shape
        for i, t in enumerate(taus):
            assert specfun._jy(nu, float(t)) == tuple(float(part[i]) for part in vec)


STEED_ORDERS = [0.0, 0.3, -0.3, 1.0, -1.0, 1.5, -1.5, 2.5, -2.5, 7.7, -7.7, 10.0, -11.0]


def test_steed_branch_matches_extended_series():
    x = np.linspace(7.0, 16.0, 181, endpoint=False)
    xl = x.astype(LD)
    for nu in STEED_ORDERS:
        got = specfun._jy_steed(nu, x)
        ref = specfun._jy_series_typed(nu, xl)
        for g, r in zip(got, ref):
            r = r.astype(float)
            assert np.all(np.abs(g - r) <= 1e-13 * np.maximum(1.0, np.abs(r))), nu


def half_integer_jy_ld(x):
    """{order: (J, Y)} for orders -3.5..2.5 in longdouble: closed forms at
    +-1/2, carried to the other orders by the three-term recurrence."""
    pi = LD("3.14159265358979323846264338327950288")
    amp = np.sqrt(LD(2) / (pi * x))
    sin, cos = np.sin(x), np.cos(x)
    jy = {0.5: (amp * sin, -amp * cos), -0.5: (amp * cos, amp * sin)}
    for v in (0.5, 1.5):  # C_{v+1} = (2v/x) C_v - C_{v-1}
        jy[v + 1.0] = tuple(LD(2.0 * v) / x * c - d for c, d in zip(jy[v], jy[v - 1.0]))
    for v in (-0.5, -1.5, -2.5):  # C_{v-1} = (2v/x) C_v - C_{v+1}
        jy[v - 1.0] = tuple(LD(2.0 * v) / x * c - d for c, d in zip(jy[v], jy[v + 1.0]))
    return jy


def test_extended_steed_matches_half_integer_closed_forms():
    # the extended path on [7, 16) runs Steed's method in longdouble
    x = np.linspace(7.0, 16.0, 181, endpoint=False).astype(LD)
    ref = half_integer_jy_ld(x)
    for nu in (0.5, -0.5, 1.5, -1.5, 2.5, -2.5):
        got = specfun.jy_extended(nu, x)
        want = (*ref[nu], *ref[nu - 1.0])
        for g, r in zip(got, want):
            assert g.dtype == LD
            assert np.all(np.abs(g - r) <= 1e-17 * np.maximum(1.0, np.abs(r))), nu


def test_extended_negative_orders_match_reflection():
    # a negative order runs one pass at a = 1 - nu; formed in float64, a
    # would round and shift the order by up to ~1e-16
    x = np.linspace(7.0, 16.0, 91, endpoint=False).astype(LD)
    pi = LD("3.14159265358979323846264338327950288")
    for nu in (0.1, 0.3, 2.7, 7.7):
        j, y = specfun.jy_extended(nu, x)[:2]
        cos, sin = np.cos(pi * LD(nu)), np.sin(pi * LD(nu))
        got = specfun.jy_extended(-nu, x)[:2]
        for g, r in zip(got, (cos * j - sin * y, sin * j + cos * y)):
            assert np.all(np.abs(g - r) <= 1e-17 * np.maximum(1.0, np.abs(r))), nu


def test_derived_lower_order_matches_direct_pass():
    # the pass at order a also yields a - 1; compare with a pass at a - 1
    x = np.linspace(7.0, 16.0, 181, endpoint=False)
    for a in [1.0, 1.3, 1.5, 2.5, 7.7, 10.0, 11.0]:
        derived = specfun._steed_pass(a, x)[2:]
        direct = specfun._steed_pass(a - 1.0, x)[:2]
        for d, r in zip(derived, direct):
            assert np.all(np.abs(d - r) <= 1e-14 * np.maximum(1.0, np.abs(r))), a


def test_jy_returns_both_orders():
    taus = np.array([0.5, 6.0, 7.5, 14.0, 20.0, 900.0])
    for nu in [0.3, -1.5, 4.0]:
        both = specfun._jy(nu, taus)
        lower = specfun._jy(nu - 1.0, taus)[:2]
        for got, ref in zip(both[2:], lower):
            assert got == pytest.approx(ref, rel=1e-13, abs=1e-14)
        ext = specfun.jy_extended(nu, taus)
        assert len(ext) == 4 and all(part.dtype == LD for part in ext)
        for got, ref in zip(ext, both):
            assert got.astype(float) == pytest.approx(ref, rel=1e-13, abs=1e-14)


def test_plain_double_longdouble_warns_once(monkeypatch):
    monkeypatch.setattr(specfun, "_LD_IS_DOUBLE", True)
    monkeypatch.setattr(specfun, "_ld_warned", False)
    with pytest.warns(RuntimeWarning, match="longdouble"):
        specfun.jy_extended(0.5, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        specfun.jy_extended(0.5, 2.0)


def test_selftest_rows_are_small():
    rows = specfun.selftest_rows()
    assert len(rows) > 50
    for row in rows:
        assert abs(row["wronskian_residual"]) < 1e-8 * (2.0 / (math.pi * row["tau"])) + 1e-12
        assert abs(row["conjugacy_residual"]) == 0.0
        if row["halfint_residual"] != "":
            assert row["halfint_residual"] < 1e-12
