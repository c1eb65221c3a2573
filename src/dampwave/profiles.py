"""Time-dependent propagation speeds and the structural damping coefficient.

A speed profile bundles ``lambda(t)`` (the coefficient of the spatial
operator), its strictly increasing anti-derivative ``Lambda(t)`` with
``Lambda(0) = lambda0 > 0``, and the exponent ``alpha`` such that
``lambda'(t)/lambda(t) = alpha * lambda(t)/Lambda(t)`` for the built-in
families.  The damping coefficient has the structural form

    b(t) = mu * lambda(t)/Lambda(t) - lambda'(t)/lambda(t)

which for the built-ins collapses to ``(mu - alpha) * lambda(t)/Lambda(t)``.

Built-in families and their canonical normalizations:

==============  ==================  =====================  ==========
kind            lambda(t)           Lambda(t)              alpha
==============  ==================  =====================  ==========
constant        1                   lambda0 + t            0
polynomial      (1+t)**(q-1)        (1+t)**q / q           (q-1)/q
exponential     exp(r*t)            exp(r*t) / r           1
custom          tabulated           exact cubic integral   n/a
==============  ==================  =====================  ==========

Custom profiles are given as tabulated ``(t, lambda)`` pairs, interpolated
with a monotone (Fritsch-Carlson) cubic, so Lambda stays strictly increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import _FINITE, _POSITIVE, DomainError, _check_fields


def _check_time(t):
    if isinstance(t, (int, float)):
        # the scalar path: numpy's checks cost ~8 us a call
        t = float(t)
        if not math.isfinite(t):
            raise DomainError("time must be finite")
        if t < 0:
            raise DomainError("time must be nonnegative")
        return t
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("time must be finite")
    if np.any(arr < 0):
        raise DomainError("time must be nonnegative")
    return arr if arr.ndim else float(arr)


def _pchip_endpoint(h0, h1, d0, d1):
    # three-point one-sided estimate with the usual monotonicity clamps
    d = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if d * d0 <= 0.0:
        return 0.0
    if d0 * d1 < 0.0 and abs(d) > 3.0 * abs(d0):
        return 3.0 * d0
    return d


def _pchip_slopes(x, y):
    """Fritsch-Carlson monotone cubic slopes for strictly positive data."""
    h = np.diff(x)
    delta = np.diff(y) / h
    d = np.empty_like(y)
    if len(y) == 2:
        d[:] = delta[0]
        return d
    d[0] = _pchip_endpoint(h[0], h[1], delta[0], delta[1])
    d[-1] = _pchip_endpoint(h[-1], h[-2], delta[-1], delta[-2])
    for i in range(1, len(y) - 1):
        if delta[i - 1] * delta[i] <= 0.0:
            d[i] = 0.0
        else:
            w1 = 2.0 * h[i] + h[i - 1]
            w2 = h[i] + 2.0 * h[i - 1]
            d[i] = (w1 + w2) / (w1 / delta[i - 1] + w2 / delta[i])
    return d


@dataclass(frozen=True)
class _CubicTable:
    """Piecewise-cubic Hermite interpolant with exact antiderivative."""

    x: np.ndarray
    y: np.ndarray
    d: np.ndarray
    cum: np.ndarray  # integral of the interpolant from x[0] to each knot

    @classmethod
    def build(cls, x, y):
        if np.ndim(x) != 1 or np.shape(x) != np.shape(y) or len(x) < 2:
            raise DomainError("custom profile table needs matching 1-d arrays, length >= 2")
        _check_fields([("table_t", v, _FINITE) for v in x]
                      + [("table_lambda", v, _POSITIVE) for v in y])
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if np.any(np.diff(x) <= 0):
            raise DomainError("custom profile times must be strictly increasing")
        if x[0] != 0.0:
            raise DomainError("custom profile table must start at t = 0")
        d = _pchip_slopes(x, y)
        cum = np.zeros_like(x)
        for i in range(len(x) - 1):
            cum[i + 1] = cum[i] + cls._segment_integral(x, y, d, i, x[i + 1])
        return cls(x, y, d, cum)

    @staticmethod
    def _segment_integral(x, y, d, i, t):
        # exact integral of the Hermite cubic on [x[i], t]
        h = x[i + 1] - x[i]
        s = (t - x[i]) / h
        s2, s3, s4 = s * s, s**3, s**4
        # Hermite basis antiderivatives (times h)
        ih00 = s - s3 + s4 / 2.0
        ih10 = s2 / 2.0 - 2.0 * s3 / 3.0 + s4 / 4.0
        ih01 = s3 - s4 / 2.0
        ih11 = s4 / 4.0 - s3 / 3.0
        return h * (y[i] * ih00 + h * d[i] * ih10 + y[i + 1] * ih01 + h * d[i + 1] * ih11)

    def _locate(self, t):
        """(t as a 1-d array, the segment of each entry); t within the table."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr > self.x[-1] + 1e-12):
            raise DomainError("time beyond the end of the custom profile table")
        i = np.searchsorted(self.x, t_arr, side="right") - 1
        return t_arr, np.clip(i, 0, len(self.x) - 2)

    def value(self, t):
        t_arr, i = self._locate(t)
        h = self.x[i + 1] - self.x[i]
        s = (t_arr - self.x[i]) / h
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        out = self.y[i] * h00 + h * self.d[i] * h10 + self.y[i + 1] * h01 + h * self.d[i + 1] * h11
        return out if np.ndim(t) else float(out[0])

    def integral(self, t):
        t_arr, i = self._locate(t)
        out = np.array([self.cum[ii] + self._segment_integral(self.x, self.y, self.d, ii, tt)
                        for ii, tt in zip(i, t_arr)])
        return out if np.ndim(t) else float(out[0])


@dataclass(frozen=True)
class SpeedProfile:
    """Propagation speed family; construct via the factory functions below."""

    kind: str
    q: float | None = None
    r: float | None = None
    lambda0: float = 1.0
    alpha: float | None = None
    table: _CubicTable | None = field(default=None, repr=False, compare=False)

    def lambda_at(self, t):
        """Speed lambda(t); accepts scalars or arrays of nonnegative times."""
        t = _check_time(t)
        if self.kind == "constant":
            return np.ones_like(t) if np.ndim(t) else 1.0
        if self.kind == "polynomial":
            return (1.0 + t) ** (self.q - 1.0)
        if self.kind == "exponential":
            return np.exp(self.r * t)
        return self.table.value(t)

    def Lambda_at(self, t):
        """Anti-derivative Lambda(t) = lambda0 + integral of lambda on [0, t]."""
        t = _check_time(t)
        if self.kind == "constant":
            return self.lambda0 + t
        if self.kind == "polynomial":
            # lambda0 = 1/q gives the closed form (1+t)^q / q
            return self.lambda0 - 1.0 / self.q + (1.0 + t) ** self.q / self.q
        if self.kind == "exponential":
            return self.lambda0 - 1.0 / self.r + np.exp(self.r * t) / self.r
        return self.lambda0 + self.table.integral(t)

    def lambda_prime_at(self, t):
        """d(lambda)/dt; analytic for built-ins, central differences for custom."""
        t = _check_time(t)
        if self.kind == "constant":
            return np.zeros_like(t) if np.ndim(t) else 0.0
        if self.kind == "polynomial":
            return (self.q - 1.0) * (1.0 + t) ** (self.q - 2.0)
        if self.kind == "exponential":
            return self.r * np.exp(self.r * t)
        h = np.maximum(1e-6, 1e-8 * np.asarray(t, dtype=float))
        lo = np.maximum(np.asarray(t) - h, 0.0)
        hi = np.minimum(np.asarray(t) + h, self.table.x[-1])
        return (self.table.value(hi) - self.table.value(lo)) / (hi - lo)

    @property
    def t_max(self):
        """Largest time the profile can be evaluated at (inf for built-ins)."""
        return math.inf if self.table is None else float(self.table.x[-1])


def constant_profile(lambda0=1.0):
    """lambda(t) = 1, Lambda(t) = lambda0 + t."""
    _check_fields([("lambda0", lambda0, _POSITIVE)])
    return SpeedProfile(kind="constant", lambda0=lambda0, alpha=0.0)


def polynomial_profile(q, lambda0=None):
    """lambda(t) = (1+t)**(q-1); default lambda0 = 1/q matches Lambda = (1+t)**q/q."""
    _check_fields([("q", q, _POSITIVE)])
    lambda0 = 1.0 / q if lambda0 is None else lambda0
    _check_fields([("lambda0", lambda0, _POSITIVE)])
    return SpeedProfile(kind="polynomial", q=float(q), lambda0=float(lambda0),
                        alpha=(q - 1.0) / q)


def exponential_profile(r, lambda0=None):
    """lambda(t) = exp(r t); default lambda0 = 1/r matches Lambda = exp(rt)/r."""
    _check_fields([("r", r, _POSITIVE)])
    lambda0 = 1.0 / r if lambda0 is None else lambda0
    _check_fields([("lambda0", lambda0, _POSITIVE)])
    return SpeedProfile(kind="exponential", r=float(r), lambda0=float(lambda0), alpha=1.0)


def custom_profile(table_t, table_lambda, lambda0=1.0):
    """Tabulated speed, monotone-cubic interpolated; Lambda integrated exactly."""
    _check_fields([("lambda0", lambda0, _POSITIVE)])
    return SpeedProfile(kind="custom", lambda0=float(lambda0), alpha=None,
                        table=_CubicTable.build(table_t, table_lambda))


@dataclass(frozen=True)
class DampingSpec:
    """Structural damping strength mu."""

    mu: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu!r}")

    @classmethod
    def from_mu(cls, mu):
        return cls(mu=float(mu))

    @classmethod
    def from_nu(cls, nu, profile):
        """Translate a raw coefficient nu into mu for the profile's family.

        constant: mu = nu; polynomial: mu = (nu-1)/q + 1; exponential: mu = nu+1.
        """
        nu = float(nu)
        if profile.kind == "constant":
            mu = nu
        elif profile.kind == "polynomial":
            mu = (nu - 1.0) / profile.q + 1.0
        elif profile.kind == "exponential":
            mu = nu + 1.0
        else:
            raise DomainError("nu-form damping is defined only for the built-in families")
        return cls(mu=mu)


def lambda_at(profile, t):
    """Speed lambda(t) of the profile at time t >= 0."""
    return profile.lambda_at(t)


def Lambda_at(profile, t):
    """Anti-derivative Lambda(t) of the profile at time t >= 0."""
    return profile.Lambda_at(t)


def damping_at(profile, spec, t):
    """Structural damping b(t) = mu*lambda/Lambda - lambda'/lambda.

    For the built-in families with canonical lambda0 this equals
    (mu - alpha) * lambda(t)/Lambda(t).
    """
    t = _check_time(t)
    lam = profile.lambda_at(t)
    Lam = profile.Lambda_at(t)
    return spec.mu * lam / Lam - profile.lambda_prime_at(t) / lam


def dissipativity_check(profile, spec, t_max=None):
    """True iff lambda'/lambda + b(t) >= 0, i.e. mu >= 0.

    Built-ins are decided symbolically; custom profiles are sampled on a log
    grid over (0, t_max] since the sum equals mu*lambda/Lambda pointwise.
    """
    if profile.alpha is not None:
        return spec.mu >= 0.0
    hi = profile.t_max if t_max is None else min(t_max, profile.t_max)
    ts = np.concatenate([[0.0], np.geomspace(max(1e-3, hi * 1e-6), hi, 64)])
    lam = profile.lambda_at(ts)
    Lam = profile.Lambda_at(ts)
    return bool(np.all(spec.mu * lam / Lam >= -1e-12))
