"""Acceptance criteria AC-1 .. AC-9.

Each test prints one PASS line with its measured numbers (visible with
``pytest -rA``); the pytest verdict itself is the pass/fail line per
criterion.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from dampwave import analysis, multipliers, profiles, radial, scan
from dampwave import solver as sv
from dampwave.config import validate_config

SEED = 20260808


def _sample_profiles(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return profiles.constant_profile()
    if kind == 1:
        return profiles.polynomial_profile(q=float(rng.uniform(0.5, 2.5)))
    return profiles.exponential_profile(r=float(rng.uniform(0.1, 0.5)))


# --------------------------------------------------------------------------
# AC-1: multiplier exactness against the ODE oracle
# --------------------------------------------------------------------------

def test_ac1_multiplier_exactness():
    """>= 500 random tuples, rel err <= 1e-6 (abs 1e-9 near zeros), <= 2 min.

    Tuples are drawn from mu in [1,5], built-in profiles, s in [0,2],
    t-s in [0,50], xi in [1e-3, 50]; draws whose total phase
    Lambda(t)*xi exceeds 3000 are redrawn: the oracle's cost grows with
    the phase span, and beyond that it would blow the runtime budget.
    mu is kept 1e-3 away from odd integers, where the order snap makes
    1e-6 agreement unrepresentative of either route.
    """
    t_start = time.time()
    rng = np.random.default_rng(SEED)
    count = 504
    tuples = []
    while len(tuples) < count:
        prof = _sample_profiles(rng)
        mu = float(rng.uniform(1.0, 5.0))
        rho = multipliers.rho_of(mu)
        if abs(rho - round(rho)) < 1e-3 and rho != round(rho):
            continue
        s = float(rng.uniform(0.0, 2.0))
        t = s + float(rng.uniform(0.0, 50.0))
        xi = float(10.0 ** rng.uniform(-3.0, math.log10(50.0)))
        if float(prof.Lambda_at(t)) * xi > 3000.0:
            continue
        tuples.append((mu, prof, s, t, xi))

    mu_arr = np.array([tu[0] for tu in tuples])
    sigma = np.array([tu[1].Lambda_at(tu[2]) * tu[4] for tu in tuples])
    tau = np.array([tu[1].Lambda_at(tu[3]) * tu[4] for tu in tuples])
    ls_xi = np.array([tu[1].lambda_at(tu[2]) * tu[4] for tu in tuples])
    lt_xi = np.array([tu[1].lambda_at(tu[3]) * tu[4] for tu in tuples])
    o_p0, o_p1, o_d0, o_d1 = multipliers.oracle_matrix_batch(
        mu_arr, sigma, tau, ls_xi, lt_xi, rtol=1e-12)

    worst = 0.0
    failures = 0
    for i, (mu, prof, s, t, xi) in enumerate(tuples):
        got = multipliers.phi_values(mu, prof, s, t, xi)
        for g, o in ((got.phi0, o_p0[i]), (got.phi1, o_p1[i]),
                     (got.dphi0, o_d0[i]), (got.dphi1, o_d1[i])):
            err = abs(g.real - o)
            bound = 1e-9 + 1e-6 * abs(o)
            worst = max(worst, err / bound)
            if err > bound:
                failures += 1
    elapsed = time.time() - t_start
    assert failures == 0, f"{failures} tuple entries beyond tolerance"
    assert elapsed < 120.0, f"AC-1 runtime {elapsed:.0f}s exceeds 2 min"
    print(f"AC-1 PASS: {count} tuples, worst err/bound = {worst:.3f}, "
          f"{elapsed:.0f}s")


# --------------------------------------------------------------------------
# AC-2: mu = 2 closed form
# --------------------------------------------------------------------------

def test_ac2_mu2_closed_form():
    """Phi1(t,0,xi) = sin(t xi)/(xi (1+t)), max error <= 1e-8."""
    t_start = time.time()
    const = profiles.constant_profile()
    worst = 0.0
    xis = np.concatenate([np.geomspace(0.01, 1.0, 12), np.linspace(1.5, 20.0, 20)])
    for t in np.linspace(0.0, 100.0, 41):
        p0, p1, d0, d1 = multipliers.phi_values_grid(2.0, const, 0.0, t, xis)
        ref = np.sin(t * xis) / (xis * (1.0 + t))
        worst = max(worst, float(np.max(np.abs(p1 - ref))))
    assert worst <= 1e-8
    print(f"AC-2 PASS: max |Phi1 - closed form| = {worst:.2e}, "
          f"{time.time() - t_start:.1f}s")


# --------------------------------------------------------------------------
# AC-3 family: linear decay rates by radial quadrature up to t = 1e4
# --------------------------------------------------------------------------

V0 = radial.gaussian_spectrum(1.0, 1.0)
V1 = radial.gaussian_spectrum(0.7, 1.2)
TIMES = np.geomspace(1.0, 1.0e4, 81)


@pytest.fixture(scope="module")
def series_mu4():
    return radial.linear_decay_series(4.0, profiles.constant_profile(), V0, V1, TIMES)


def test_ac3_effective_linear_decay(series_mu4):
    """n=1, mu=4: L2 slope -0.5 +- 0.05, energy slope -1.5 +- 0.05, pure."""
    t_start = time.time()
    fit_l2 = analysis.fit_decay(series_mu4, "L2")
    fit_en = analysis.fit_decay(series_mu4, "energy")
    assert fit_l2.model == "pure_power"
    assert fit_l2.alpha == pytest.approx(0.5, abs=0.05)
    assert fit_en.model == "pure_power"
    assert fit_en.alpha == pytest.approx(1.5, abs=0.05)
    print(f"AC-3 PASS: L2 slope -{fit_l2.alpha:.4f} ({fit_l2.model}), "
          f"energy slope -{fit_en.alpha:.4f} ({fit_en.model}), "
          f"{time.time() - t_start:.0f}s")


def test_ac3b_subthreshold_rate():
    """n=1, mu=1.5: energy slope -0.75 +- 0.05."""
    t_start = time.time()
    series = radial.linear_decay_series(1.5, profiles.constant_profile(), V0, V1, TIMES)
    fit_en = analysis.fit_decay(series, "energy")
    assert fit_en.alpha == pytest.approx(0.75, abs=0.05)
    print(f"AC-3b PASS: energy slope -{fit_en.alpha:.4f} ({fit_en.model}), "
          f"{time.time() - t_start:.0f}s")


def test_ac3c_borderline_log_factor(series_mu4):
    """n=1, mu=3 (= n+2): power_log with alpha 1.5 +- 0.05; no log at mu=4."""
    t_start = time.time()
    series = radial.linear_decay_series(3.0, profiles.constant_profile(), V0, V1, TIMES)
    fit_en = analysis.fit_decay(series, "energy")
    assert fit_en.model == "power_log"
    assert fit_en.alpha == pytest.approx(1.5, abs=0.05)
    fit_mu4 = analysis.fit_decay(series_mu4, "energy")
    assert fit_mu4.model == "pure_power", "log flag must not trigger for mu=4"
    print(f"AC-3c PASS: mu=3 energy {fit_en.model} alpha={fit_en.alpha:.4f} "
          f"c_log={fit_en.c_log:.3f}; mu=4 model {fit_mu4.model}, "
          f"{time.time() - t_start:.0f}s")


# --------------------------------------------------------------------------
# AC-4: supercritical global decay of the full semilinear solver
# --------------------------------------------------------------------------

def test_ac4_supercritical_global_decay():
    """n=1, mu=4, p=4 > 3 = p_crit, eps=1e-3, N=4096, T=200: decays at -0.5."""
    t_start = time.time()
    raw = {"profile": {"kind": "constant"}, "mu": 4.0,
           "grid": {"n": 1, "N": 4096},
           "nonlinearity": {"form": "signed_power", "p": 4.0, "gamma": 0.0},
           "data": {"kind": "gaussian", "amplitude": 1e-3, "width": 1.0},
           "T": 200.0, "seed": 0}
    cfg = validate_config(raw)
    series, final = sv.simulate(cfg)
    assert not isinstance(final, sv.BlowupRecord), "unexpected blow-up flag"
    assert np.all(series.tracks["blowup_flag"] == 0.0)
    fit = analysis.fit_decay(series, "L2")
    assert fit.alpha == pytest.approx(0.5, abs=0.1)
    elapsed = time.time() - t_start
    assert elapsed < 600.0
    print(f"AC-4 PASS: no blow-up, L2 slope -{fit.alpha:.4f} ({fit.model}), "
          f"{elapsed:.0f}s")


# --------------------------------------------------------------------------
# AC-5: subcritical blow-up observation via the scanner
# --------------------------------------------------------------------------

def test_ac5_subcritical_blowup_scan():
    """p=2.2 < 3, positive data: finite t*, decreasing across 3 eps values."""
    t_start = time.time()
    scan_cfg = {
        "base": {
            "profile": {"kind": "constant"}, "mu": 4.0,
            "grid": {"n": 1, "N": 1024},
            "nonlinearity": {"form": "absolute_power", "p": 2.2, "gamma": 0.0},
            "data": {"kind": "gaussian", "amplitude": 0.5, "width": 1.0},
            "T": 60.0, "seed": 0,
        },
        "axes": {"eps": [0.3, 0.55, 1.0]},
        "workers": 1,
    }
    result = scan.run_scan(scan_cfg)
    stars = []
    for eps in (0.3, 0.55, 1.0):
        cell = result.outcome_of(eps=eps)
        assert cell.outcome == "blowup", f"eps={eps}: {cell.outcome} ({cell.reason})"
        assert cell.t_star is not None and math.isfinite(cell.t_star)
        stars.append(cell.t_star)
    assert stars[0] >= stars[1] >= stars[2], f"t* not monotone: {stars}"
    assert stars[0] > stars[2], f"t* did not decrease across eps: {stars}"
    elapsed = time.time() - t_start
    assert elapsed < 900.0
    print(f"AC-5 PASS: t* = {[f'{s:.2f}' for s in stars]} for eps = "
          f"[0.3, 0.55, 1.0], {elapsed:.0f}s")


# --------------------------------------------------------------------------
# AC-6: zone-bound certification
# --------------------------------------------------------------------------

def test_ac6_zone_bound_certification():
    """(mu, m) in {(4,2), (3,1), (1.5,2)}: all ratio families stable (<=10x)."""
    t_start = time.time()
    const = profiles.constant_profile()
    spec = multipliers.ZoneSampleSpec(n=1, s_values=(0.0, 0.5, 2.0),
                                      t_min=1.0, t_max=1.0e3, t_per_decade=8,
                                      xi_per_decade=40, xi_cap=50.0)
    lines = []
    for mu, m in ((4.0, 2.0), (3.0, 1.0), (1.5, 2.0)):
        report = multipliers.certify_zone_bounds(mu, const, m, spec)
        for name, fam in report.families.items():
            med, hi = fam.last_decade_stats()
            assert hi <= 10.0 * med, (
                f"(mu={mu}, m={m}) family {name}: last-decade max {hi:.3g} "
                f"> 10x median {med:.3g}")
        worst = max(f.max_ratio() for f in report.families.values())
        lines.append(f"(mu={mu:g},m={m:g}): {len(report.families)} families, "
                     f"max ratio {worst:.3g}")
    elapsed = time.time() - t_start
    assert elapsed < 300.0
    print("AC-6 PASS: " + "; ".join(lines) + f", {elapsed:.0f}s")


# --------------------------------------------------------------------------
# AC-7: weight identity
# --------------------------------------------------------------------------

def test_ac7_weight_identity():
    """Residual <= 1e-12 at 20 sampled (t, mu); max psi_t <= 0."""
    t_start = time.time()
    grid = sv.Grid(n=1, N=64, L=2.0)
    profs = [profiles.constant_profile(), profiles.polynomial_profile(2.0),
             profiles.exponential_profile(1.0)]
    rng = np.random.default_rng(SEED, )
    worst = 0.0
    for i in range(20):
        prof = profs[i % 3]
        mu = float(rng.uniform(0.0, 5.0))
        t = float(rng.uniform(0.0, 10.0))
        chk = sv.weight_identity_residual(prof, mu, grid, t)
        worst = max(worst, chk.residual)
        assert chk.residual <= 1e-12
        assert chk.max_psi_t <= 0.0
    print(f"AC-7 PASS: worst residual {worst:.2e} over 20 samples, "
          f"{time.time() - t_start:.2f}s")


# --------------------------------------------------------------------------
# AC-8: frozen exponent table
# --------------------------------------------------------------------------

def test_ac8_exponent_catalog_frozen_table():
    """20 hand-evaluated tuples, exact match."""
    cat = analysis.exponent_catalog
    checks = 0

    def eq(value, expected):
        nonlocal checks
        assert value == pytest.approx(expected, rel=1e-12)
        checks += 1

    eq(cat(1, 0.0, 1.0, 4.0).get("lm_existence").value, 3.0)            # 1
    eq(cat(3, 0.0, 1.0, 3.0).get("ell_parameter").value, 1.5)           # 2
    eq(analysis.theta_gn(4.0, 2), 0.5)                                  # 3
    entry = cat(4, 0.0, 1.0, 6.0).get("lm_existence")                   # 4: {p=2}
    eq(entry.prange[0], 2.0)
    eq(entry.prange[1], 2.0)
    assert entry.empty_range is False
    eq(cat(3, 0.0, 1.0, 2.0).get("h1l2_existence").value, 7.0 / 3.0)    # 5
    assert cat(3, 0.0, 1.0, 2.0).get("h1l2_existence").empty_range is False
    assert cat(4, 0.0, 1.0, 2.0).get("h1l2_existence").empty_range is True  # 6
    eq(cat(2, 0.0, 1.5, 3.0).get("lm_existence").value, 2.5)            # 7
    eq(cat(1, 0.0, 1.0, 2.5).get("ell_parameter").value, 4.0 / 3.0)     # 8
    eq(cat(1, 0.0, 1.0, 2.5).get("ell_existence").value, 1.0 + 4.0 / 1.5)  # 9
    eq(cat(1, 0.0, 1.0, 1.5).get("subthreshold_l2_existence").value,
       1.0 + 16.0 / 3.0)                                                # 10
    eq(cat(1, 0.0, 1.0, 2.0).get("onedim_mixed_existence").value,
       1.0 + 8.0 / 3.0)                                                 # 11
    eq(cat(1, 0.0, 1.0, 0.5).get("onedim_smallmu_existence").value, 9.0)  # 12
    eq(cat(1, 0.0, 1.0, 0.5).get("onedim_smallmu_existence").lower_bound, 1.6)
    eq(cat(1, 0.0, 1.0, 0.5).get("smallmu_nonexistence").value, 5.0)    # 13
    eq(cat(3, 0.0, 1.0, 4.0).get("energy_admissibility").value, 3.0)    # 14
    eq(cat(4, 0.0, 1.0, 4.0).get("energy_admissibility").value, 2.0)    # 15
    eq(analysis.theta_gn(2.0, 5), 0.0)                                  # 16
    eq(analysis.theta_gn(6.0, 3), 1.0)                                  # 17
    eq(cat(2, 1.0, 1.0, 4.0).get("lm_existence").value, 2.5)            # 18
    eq(cat(1, -2.0, 1.0, 3.0).get("lm_existence").value, 1.0)           # 19
    eq(cat(2, 0.0, 1.0, 4.0).get("fujita_nonexistence").value, 2.0)     # 20
    assert "kappa = 0.8" in cat(1, 0.0, 1.0, 0.5).get("onedim_smallmu_existence").note
    assert checks >= 20
    print(f"AC-8 PASS: {checks} frozen values matched exactly")


# --------------------------------------------------------------------------
# AC-9: seeded property-test harness, >= 200 cases per property
# --------------------------------------------------------------------------

def _prop_profiles_monotone(rng, n_cases):
    profs = [profiles.constant_profile(), profiles.polynomial_profile(1.7),
             profiles.exponential_profile(0.4)]
    for i in range(n_cases):
        prof = profs[i % 3]
        t1, t2 = np.sort(rng.uniform(0.0, 100.0, size=2))
        if t1 == t2:
            t2 += 1e-6
        assert prof.Lambda_at(t1) < prof.Lambda_at(t2)


def _prop_profiles_derivative(rng, n_cases):
    profs = [profiles.constant_profile(), profiles.polynomial_profile(1.7),
             profiles.exponential_profile(0.4)]
    for i in range(n_cases):
        prof = profs[i % 3]
        t = float(rng.uniform(0.0, 100.0))
        h = 1e-6 * max(1.0, t)
        lo = max(t - h, 0.0)
        num = (prof.Lambda_at(t + h) - prof.Lambda_at(lo)) / (t + h - lo)
        assert num == pytest.approx(prof.lambda_at(t), rel=1e-6)


def _prop_damping_structure(rng, n_cases):
    profs = [profiles.constant_profile(), profiles.polynomial_profile(1.7),
             profiles.exponential_profile(0.4)]
    for i in range(n_cases):
        prof = profs[i % 3]
        mu = float(rng.uniform(0.0, 5.0))
        spec = profiles.DampingSpec.from_mu(mu)
        t = float(rng.uniform(0.0, 50.0))
        lam = prof.lambda_at(t)
        lhs = profiles.damping_at(prof, spec, t) + prof.lambda_prime_at(t) / lam
        assert lhs == pytest.approx(mu * lam / prof.Lambda_at(t), rel=1e-12, abs=1e-15)


def _prop_wronskian(rng, n_cases):
    from dampwave import specfun

    done = 0
    while done < n_cases:
        nu = float(rng.uniform(-8.9, 8.9))
        if abs(nu - round(nu)) < 1e-4 and nu != round(nu):
            continue
        lo = 1e-5 if nu >= 0 else max(1.0, 2.0 * abs(nu))
        tau = float(10.0 ** rng.uniform(math.log10(lo), 4.0))
        j = specfun.bessel_j(nu, tau)
        y = specfun.bessel_y(nu, tau)
        jd = specfun.bessel_j(nu - 1.0, tau) - (nu / tau) * j
        yd = specfun.bessel_y(nu - 1.0, tau) - (nu / tau) * y
        assert j * yd - jd * y == pytest.approx(2.0 / (math.pi * tau), rel=1e-8)
        done += 1


def _prop_bessel_ode(rng, n_cases):
    from dampwave import specfun

    for _ in range(n_cases):
        nu = float(rng.uniform(-7.9, 8.5))
        if abs(nu - round(nu)) < 1e-4:
            nu = round(nu) + 0.5
        tau = float(10.0 ** rng.uniform(-3.0, 4.0))
        j = specfun.bessel_j(nu, tau)
        jd = specfun.bessel_j(nu - 1.0, tau) - (nu / tau) * j
        jdd = (specfun.bessel_j(nu - 2.0, tau)
               - ((nu - 1.0) / tau) * specfun.bessel_j(nu - 1.0, tau)
               - (nu / tau) * jd + (nu / tau**2) * j)
        resid = tau**2 * jdd + tau * jd + (tau**2 - nu**2) * j
        assert abs(resid) <= 1e-7 * max(1.0, abs(j)) * max(1.0, tau**2)


def _prop_hankel_conjugacy(rng, n_cases):
    from dampwave import specfun

    for _ in range(n_cases):
        nu = float(rng.uniform(-9.0, 9.0))
        if abs(nu - round(nu)) < 1e-4:
            nu = round(nu) + 0.3
        tau = float(10.0 ** rng.uniform(-5.0, 3.8))
        pair = specfun.hankel_pair(nu, tau)
        assert pair.h_minus == pair.h_plus.conjugate()


def _prop_halfint_reflection(rng, n_cases):
    from dampwave import specfun

    for _ in range(n_cases):
        tau = float(10.0 ** rng.uniform(-3.0, 3.0))
        amp = math.sqrt(2.0 / (math.pi * tau))
        assert specfun.bessel_j(0.5, tau) == pytest.approx(
            amp * math.sin(tau), abs=1e-12, rel=1e-12)
        assert specfun.bessel_y(-0.5, tau) == pytest.approx(
            amp * math.sin(tau), abs=1e-12, rel=1e-12)


def _prop_multiplier_identity(rng, n_cases):
    const = profiles.constant_profile()
    for _ in range(n_cases):
        mu = float(rng.uniform(1.0, 5.0))
        s = float(rng.uniform(0.0, 3.0))
        xi = float(10.0 ** rng.uniform(-3.0, 1.3))
        v = multipliers.phi_values(mu, const, s, s, xi)
        assert abs(v.phi0 - 1.0) < 1e-10 and abs(v.dphi1 - 1.0) < 1e-10
        assert abs(v.phi1) < 1e-10 and abs(v.dphi0) < 1e-10


def _prop_multiplier_realness(rng, n_cases):
    const = profiles.constant_profile()
    for _ in range(n_cases):
        mu = float(rng.uniform(1.0, 5.0))
        s = float(rng.uniform(0.0, 2.0))
        t = s + float(rng.uniform(0.0, 20.0))
        xi = float(10.0 ** rng.uniform(-3.0, 1.0))
        v = multipliers.phi_values(mu, const, s, t, xi)
        for entry in (v.phi0, v.phi1, v.dphi0, v.dphi1):
            assert abs(entry.imag) <= 1e-10 * max(1.0, abs(entry))


def _prop_mu2_closed_form(rng, n_cases):
    const = profiles.constant_profile()
    for _ in range(n_cases):
        t = float(rng.uniform(0.0, 100.0))
        xi = float(10.0 ** rng.uniform(-2.0, math.log10(20.0)))
        got = multipliers.phi_values(2.0, const, 0.0, t, xi).phi1.real
        assert got == pytest.approx(math.sin(t * xi) / (xi * (1.0 + t)), abs=1e-8)


def _prop_semigroup(rng, n_cases):
    const = profiles.constant_profile()
    for _ in range(n_cases):
        mu = float(rng.uniform(1.0, 5.0))
        s = float(rng.uniform(0.0, 2.0))
        r = s + float(rng.uniform(0.01, 5.0))
        t = r + float(rng.uniform(0.01, 5.0))
        xi = float(10.0 ** rng.uniform(-2.0, 0.7))

        def mat(a, b):
            v = multipliers.phi_values(mu, const, a, b, xi)
            return np.array([[v.phi0.real, v.phi1.real],
                             [v.dphi0.real, v.dphi1.real]])

        assert np.max(np.abs(mat(r, t) @ mat(s, r) - mat(s, t))) < 1e-8


def _prop_zone_boundaries(rng, n_cases):
    const = profiles.constant_profile()
    for _ in range(n_cases):
        K = float(rng.uniform(0.05, 0.95))
        s = float(rng.uniform(0.0, 3.0))
        t = s + float(rng.uniform(0.0, 30.0))
        xi = float(10.0 ** rng.uniform(-4.0, 1.0))
        zone = multipliers.classify_zone(K, const, s, t, xi)
        hi = K / const.Lambda_at(s)
        lo = K / const.Lambda_at(t)
        if xi >= hi:
            assert zone is multipliers.Zone.I1
        elif xi >= lo:
            assert zone is multipliers.Zone.I2
        else:
            assert zone is multipliers.Zone.I3


def _prop_oracle_agreement_small(rng, n_cases):
    tuples = []
    while len(tuples) < n_cases:
        prof = _sample_profiles(rng)
        mu = float(rng.uniform(1.0, 5.0))
        rho = multipliers.rho_of(mu)
        if abs(rho - round(rho)) < 1e-3 and rho != round(rho):
            continue
        s = float(rng.uniform(0.0, 2.0))
        t = s + float(rng.uniform(0.0, 10.0))
        xi = float(10.0 ** rng.uniform(-3.0, 0.7))
        if float(prof.Lambda_at(t)) * xi > 300.0:
            continue
        tuples.append((mu, prof, s, t, xi))
    mu_arr = np.array([tu[0] for tu in tuples])
    sigma = np.array([tu[1].Lambda_at(tu[2]) * tu[4] for tu in tuples])
    tau = np.array([tu[1].Lambda_at(tu[3]) * tu[4] for tu in tuples])
    ls_xi = np.array([tu[1].lambda_at(tu[2]) * tu[4] for tu in tuples])
    lt_xi = np.array([tu[1].lambda_at(tu[3]) * tu[4] for tu in tuples])
    oracle = multipliers.oracle_matrix_batch(mu_arr, sigma, tau, ls_xi, lt_xi,
                                             rtol=1e-12)
    for i, (mu, prof, s, t, xi) in enumerate(tuples):
        got = multipliers.phi_values(mu, prof, s, t, xi)
        for g, o in zip((got.phi0, got.phi1, got.dphi0, got.dphi1), oracle):
            assert abs(g.real - o[i]) <= 1e-9 + 1e-6 * abs(o[i])


def _prop_parseval(rng, n_cases):
    grid = sv.Grid(n=1, N=128, L=5.0)
    for _ in range(n_cases):
        u = rng.standard_normal(grid.shape)
        assert np.max(np.abs(grid.ifft(grid.fft(u)) - u)) < 1e-12 * np.max(np.abs(u))


def _prop_fit_scale_invariance(rng, n_cases):
    lam = np.geomspace(1.0, 1e3, 40)
    for _ in range(n_cases):
        alpha = float(rng.uniform(0.1, 2.0))
        noise = 1.0 + 0.01 * np.sin(rng.uniform(0, 9) * np.log(lam))
        track = lam**-alpha * noise
        series = analysis.NormSeries(times=lam - 1.0, lambda_big=lam,
                                     tracks={"L2": track}, metadata={})
        scale = float(10.0 ** rng.uniform(-3, 3))
        scaled = analysis.NormSeries(times=lam - 1.0, lambda_big=lam,
                                     tracks={"L2": scale * track}, metadata={})
        f1 = analysis.fit_decay(series, "L2")
        f2 = analysis.fit_decay(scaled, "L2")
        assert f2.alpha == pytest.approx(f1.alpha, abs=1e-10)


def _prop_gn_scale_invariance(rng, n_cases):
    grid = sv.Grid(n=1, N=128, L=math.pi)
    theta = analysis.theta_gn(4.0, 1)
    for i in range(n_cases):
        u, _ = sv.make_initial_data(grid, "mode_mix", amplitude=1.0, width=0.4,
                                    seed=int(rng.integers(0, 2**31)))
        r1 = scan._gn_ratio(grid, u, 4.0, theta)
        r2 = scan._gn_ratio(grid, 5.0 * u, 4.0, theta)
        assert r2 == pytest.approx(r1, rel=1e-12)


def _prop_duhamel_zero_is_linear(rng, n_cases):
    grid = sv.Grid(n=1, N=64, L=6.0)
    const = profiles.constant_profile()
    nl = sv.NonlinearitySpec(form="zero")
    for _ in range(n_cases):
        u = rng.standard_normal(grid.shape) * 0.1
        ut = rng.standard_normal(grid.shape) * 0.1
        st = sv.FieldState(u=u, ut=ut, t=float(rng.uniform(0.0, 3.0)))
        dt = float(rng.uniform(0.01, 0.3))
        mu = float(rng.uniform(1.0, 5.0))
        a = sv.duhamel_step(st, const, mu, grid, nl, dt)
        b = sv.linear_step(st, const, mu, grid, dt)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.ut, b.ut)


def _prop_energy_monotone(rng, n_cases):
    raw = {"profile": {"kind": "constant"}, "mu": 2.0,
           "grid": {"n": 1, "N": 512}, "T": 20.0,
           "samples_per_decade": 90,
           "data": {"kind": "gaussian", "amplitude": 0.1, "width": 1.0}}
    series, _ = sv.simulate(validate_config(raw))
    en = series.tracks["energy"]
    assert len(en) >= n_cases
    assert np.all(np.diff(en) <= 1e-10 * en[0])


def _prop_finite_propagation(rng, n_cases):
    raw = {"profile": {"kind": "constant"}, "mu": 3.0,
           "grid": {"n": 1, "N": 4096}, "T": 12.0,
           "samples_per_decade": 100,
           "data": {"kind": "gaussian", "amplitude": 0.2, "width": 1.0}}
    series, _ = sv.simulate(validate_config(raw))
    cone = series.tracks["cone_excess"]
    assert len(cone) >= n_cases
    assert np.nanmax(cone) <= 1e-8


def _prop_catalog_deterministic(rng, n_cases):
    for _ in range(n_cases):
        n = int(rng.integers(1, 5))
        gamma = float(rng.uniform(-2.0, 3.0))
        m = float(rng.uniform(1.0, 1.99))
        mu = float(rng.uniform(0.1, 6.0))
        a = analysis.exponent_catalog(n, gamma, m, mu).as_dict()
        b = analysis.exponent_catalog(n, gamma, m, mu).as_dict()
        assert a == b


PROPERTIES = [
    ("profiles.Lambda_monotone", _prop_profiles_monotone, 200),
    ("profiles.dLambda_is_lambda", _prop_profiles_derivative, 200),
    ("profiles.damping_structure", _prop_damping_structure, 200),
    ("specfun.wronskian", _prop_wronskian, 200),
    ("specfun.bessel_ode_residual", _prop_bessel_ode, 200),
    ("specfun.hankel_conjugacy", _prop_hankel_conjugacy, 200),
    ("specfun.halfint_reflection", _prop_halfint_reflection, 200),
    ("multipliers.identity_at_t_eq_s", _prop_multiplier_identity, 200),
    ("multipliers.realness", _prop_multiplier_realness, 200),
    ("multipliers.mu2_closed_form", _prop_mu2_closed_form, 200),
    ("multipliers.semigroup", _prop_semigroup, 200),
    ("multipliers.zone_boundaries", _prop_zone_boundaries, 200),
    ("multipliers.oracle_agreement", _prop_oracle_agreement_small, 200),
    ("solver.parseval_roundtrip", _prop_parseval, 200),
    ("solver.duhamel_zero_is_linear", _prop_duhamel_zero_is_linear, 200),
    ("solver.energy_monotone", _prop_energy_monotone, 200),
    ("solver.finite_propagation", _prop_finite_propagation, 200),
    ("analysis.fit_scale_invariance", _prop_fit_scale_invariance, 200),
    ("analysis.gn_scale_invariance", _prop_gn_scale_invariance, 200),
    ("analysis.catalog_deterministic", _prop_catalog_deterministic, 200),
]


@pytest.mark.parametrize("name,prop,cases", PROPERTIES,
                         ids=[p[0] for p in PROPERTIES])
def test_ac9_property_harness(name, prop, cases):
    """Seeded property suites, >= 200 cases per property, <= 10 min total."""
    import zlib

    rng = np.random.default_rng(zlib.crc32(name.encode()) ^ SEED)
    t_start = time.time()
    prop(rng, cases)
    print(f"AC-9 PASS [{name}]: {cases} cases, {time.time() - t_start:.1f}s")
