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


def phi_values_grid(mu, profile, s, t, xi):
    """Vectorized propagator entries over an array of frequencies.

    Returns four float64 arrays (phi0, phi1, dphi0, dphi1) of xi's shape.
    Entries with xi == 0 use the closed-form zero mode.  Raises DomainError
    for a non-finite or negative xi and, when t > s, for a mode whose phase
    tau = Lambda(t)|xi| exceeds TAU_MAX.  The entries depend on |xi| alone,
    so they are evaluated once per distinct value of xi and gathered back.
    """
    xi = np.asarray(xi, dtype=float)
    values, inverse = np.unique(xi.ravel(), return_inverse=True)
    entries = _phi_values_flat(mu, profile, s, t, values)
    return tuple(e[inverse].reshape(xi.shape) for e in entries)


def _phi_values_flat(mu, profile, s, t, xi):
    """Propagator entries at every point of the 1-D array xi."""
    rho = _check_orders(mu)
    if not (0.0 <= s <= t):
        raise DomainError("need 0 <= s <= t")
    if not np.all(np.isfinite(xi)):
        raise DomainError("xi must be finite")
    if np.any(xi < 0.0):
        raise DomainError("xi must be nonnegative")
    if t == s:
        # zero elapsed time: exactly the identity propagator
        return (np.ones(xi.shape), np.zeros(xi.shape),
                np.zeros(xi.shape), np.ones(xi.shape))
    lam_s = float(profile.lambda_at(s))
    lam_t = float(profile.lambda_at(t))
    Lam_s = float(profile.Lambda_at(s))
    Lam_t = float(profile.Lambda_at(t))

    phi0, phi1, dphi0, dphi1 = (np.empty_like(xi) for _ in range(4))

    zero = xi == 0.0
    if np.any(zero):
        vals = _zero_mode_values(mu, lam_s, lam_t, Lam_s, Lam_t)
        phi0[zero], phi1[zero], dphi0[zero], dphi1[zero] = vals

    sigma = Lam_s * xi
    tau = Lam_t * xi
    if np.any(tau > TAU_MAX):
        raise DomainError(
            f"phase Lambda(t)|xi| = {float(np.max(tau)):g} exceeds "
            f"TAU_MAX = {TAU_MAX:g}, beyond which the Hankel route loses accuracy")
    half_pi = float(_PI / 2.0)
    for mask, jy in ((~zero & (sigma < _EXT_SIGMA), jy_extended),
                     (sigma >= _EXT_SIGMA, _jy)):
        if not np.any(mask):
            continue
        pref = Lam_t**rho / Lam_s ** (rho - 1.0)
        sg, tg, xe = sigma[mask], tau[mask], xi[mask]
        # orders rho and rho - 1 from one call per argument set
        js_r, ys_r, js_m, ys_m = jy(rho, sg)
        jt_r, yt_r, jt_m, yt_m = jy(rho, tg)
        # Im[conj(a) b] = Re(a) Im(b) - Im(a) Re(b)
        psi_1_rm1_p1 = (js_m * yt_r - ys_m * jt_r) * xe
        psi_0_r_0 = js_r * yt_r - ys_r * jt_r
        psi_2_rm1_0 = (js_m * yt_m - ys_m * jt_m) * xe**2
        psi_1_r_m1 = (js_r * yt_m - ys_r * jt_m) * xe
        phi0[mask] = (-half_pi * pref) * psi_1_rm1_p1.astype(float)
        phi1[mask] = (half_pi * pref / lam_s) * psi_0_r_0.astype(float)
        dphi0[mask] = (-half_pi * lam_t * pref) * psi_2_rm1_0.astype(float)
        dphi1[mask] = (half_pi * lam_t / lam_s * pref) * psi_1_r_m1.astype(float)

    return phi0, phi1, dphi0, dphi1


def phi_values(mu, profile, s, t, xi):
    """Propagator entries Phi0, Phi1, dtPhi0, dtPhi1 at one (t, s, |xi|)."""
    p0, p1, d0, d1 = phi_values_grid(mu, profile, s, t, np.asarray([float(xi)]))
    return MultiplierValues(phi0=complex(p0[0]), phi1=complex(p1[0]),
                            dphi0=complex(d0[0]), dphi1=complex(d1[0]))


def mode_ode_oracle_batch(mu, sigma, tau, lam_s_xi, lam_t_xi, w0, w1,
                          rtol=1e-10, atol=1e-12):
    """Integrate a batch of mode ODEs; all arguments are same-length arrays.

    The integration runs in the stretched variable tau = Lambda(t)|xi|, an
    exact change of variables of the time-domain mode equation under the
    structural damping; returns (v, v') at the final time.  Members are
    mapped onto a unit interval, so one shared adaptive step (driven by the
    hardest member) advances the whole batch.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    tau = np.asarray(tau, dtype=float)
    y0 = np.stack([np.asarray(w0, dtype=complex),
                   np.asarray(w1, dtype=complex) / lam_s_xi])
    per_span = tau - sigma

    def rhs(x, y):
        tau_x = sigma + x * per_span
        w, wp = y
        return np.stack([per_span * wp,
                         per_span * (-w - (mu / np.maximum(tau_x, 1e-300)) * wp)])

    if per_span.size == 0 or float(np.max(per_span)) == 0.0:
        yf = y0
    else:
        yf = _ode.integrate_batch(rhs, 0.0, 1.0, y0, rtol=rtol, atol=atol)
    return yf[0], yf[1] * lam_t_xi


def oracle_matrix_batch(mu, sigma, tau, lam_s_xi, lam_t_xi, rtol=1e-10):
    """Propagator entries (phi0, phi1, dphi0, dphi1) of a batch via the ODE oracle.

    Integrates the data (1, 0) and (0, 1) with mode_ode_oracle_batch; ``mu``
    is a scalar or an array of the batch's length.
    """
    ones = np.ones(len(sigma), dtype=complex)
    zeros = np.zeros(len(sigma), dtype=complex)
    v_a, vp_a = mode_ode_oracle_batch(mu, sigma, tau, lam_s_xi, lam_t_xi,
                                      ones, zeros, rtol=rtol)
    v_b, vp_b = mode_ode_oracle_batch(mu, sigma, tau, lam_s_xi, lam_t_xi,
                                      zeros, ones, rtol=rtol)
    return v_a.real, v_b.real, vp_a.real, vp_b.real


def mode_ode_oracle(mu, profile, s, t, xi, w0, w1, rtol=1e-10, atol=1e-12):
    """Integrate one spatial mode of the linear problem from s to t.

    Solves v'' + lambda(t)^2 xi^2 v + b(t) v' = 0 with (v, v')(s) = (w0, w1)
    by adaptive embedded Runge-Kutta (local tolerance ``rtol``); returns
    (v, v')(t).  Independent of the Hankel-function route.
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
    v, vp = mode_ode_oracle_batch(
        np.array([mu]), np.array([Lam_s * xi]), np.array([Lam_t * xi]),
        np.array([lam_s * xi]), np.array([lam_t * xi]),
        np.array([w0]), np.array([w1]), rtol=rtol, atol=atol)
    return complex(v[0]), complex(vp[0])


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
