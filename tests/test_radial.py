"""Radial linear-norm quadrature tests against closed forms."""

import math

import numpy as np
import pytest

from dampwave import multipliers, profiles, radial, solver
from dampwave.config import validate_config
from dampwave.errors import DomainError, QuadratureError

CONST = profiles.constant_profile()


def zero_spec(xi):
    return np.zeros_like(xi)


def test_data_norm_reproduced_at_t_zero():
    g = radial.gaussian_spectrum(1.0, 1.0)
    # n = 1: ||v||^2 = (1/pi) int_0^inf e^{-xi^2} dxi = sqrt(pi)/(2 pi)
    r = radial.linear_norm_radial(4.0, CONST, g, zero_spec, 0.0, n=1)
    assert r.l2 == pytest.approx(math.sqrt(math.sqrt(math.pi) / (2.0 * math.pi)), rel=1e-8)
    # n = 2: (1/(2 pi)) int xi e^{-xi^2} dxi = 1/(4 pi)
    r = radial.linear_norm_radial(4.0, CONST, g, zero_spec, 0.0, n=2)
    assert r.l2 == pytest.approx(math.sqrt(1.0 / (4.0 * math.pi)), rel=1e-8)
    # n = 3: (1/(2 pi^2)) int xi^2 e^{-xi^2} dxi = sqrt(pi)/(8 pi^2)
    r = radial.linear_norm_radial(4.0, CONST, g, zero_spec, 0.0, n=3)
    assert r.l2 == pytest.approx(math.sqrt(math.sqrt(math.pi) / (8.0 * math.pi**2)), rel=1e-8)


def test_energy_at_t_zero():
    # with v1hat = g and v0hat = 0: energy^2 = (1/pi) int e^{-xi^2} dxi (n=1)
    g = radial.gaussian_spectrum(1.0, 1.0)
    r = radial.linear_norm_radial(3.0, CONST, zero_spec, g, 0.0, n=1)
    assert r.energy == pytest.approx(math.sqrt(math.sqrt(math.pi) / (2.0 * math.pi)), rel=1e-8)


def test_mu2_solution_norm_closed_form():
    # vhat(t) = sin(t xi)/(xi (1+t)) v1hat; compare with direct quadrature
    g = radial.gaussian_spectrum(1.0, 1.0)
    t = 9.0
    r = radial.linear_norm_radial(2.0, CONST, zero_spec, g, t, n=1)
    xi = np.linspace(1e-9, 12.0, 400001)
    integrand = (np.sin(t * xi) / (xi * (1.0 + t))) ** 2 * np.exp(-(xi**2))
    ref = math.sqrt(np.trapezoid(integrand, xi) / math.pi)
    assert r.l2 == pytest.approx(ref, rel=1e-6)


def test_zero_spectra():
    r = radial.linear_norm_radial(2.0, CONST, zero_spec, zero_spec, 3.0)
    assert r.l2 == 0.0 and r.energy == 0.0
    # a range below the smallest node leaves an empty rule
    g = radial.gaussian_spectrum(1.0, 1.0)
    r = radial.linear_norm_radial(2.0, CONST, g, g, 3.0, xi_max=1e-13)
    assert r.l2 == 0.0 and r.energy == 0.0


def test_too_coarse_rule_raises():
    g = radial.gaussian_spectrum(1.0, 1.0)
    with pytest.raises(QuadratureError, match="did not converge at t=1000"):
        radial.linear_norm_radial(4.0, CONST, g, radial.gaussian_spectrum(0.7, 1.2),
                                  1.0e3, pts_per_period=2)


@pytest.mark.parametrize("Lam, xi_max", [(5.0, 8.0), (1.0e3, 8.0), (1.0, 0.5), (1.0e-3, 8.0)])
def test_rule_nodes_and_nested_weights(Lam, xi_max):
    log_xi, lo, zone = radial._nodes(Lam, xi_max, 12, 60)
    log_w, smooth, wave = radial._weights(log_xi, zone, 1, 0.0)
    xi = np.concatenate([log_xi[:log_w.shape[1]], zone])
    fine, coarse = np.concatenate([log_w, smooth], axis=1)
    # one strictly increasing node set; the coarse rule lives on its even nodes
    assert np.all(np.diff(xi) > 0.0) and xi[-1] == xi_max
    assert np.all(coarse[1::2] == 0.0) and np.all(coarse[::2] > 0.0)
    # without phase every panel is Simpson's, on |vhat|^2 itself
    assert wave is None
    # both rules integrate 1 over [0, xi_max], Jacobian and [0, xi_lo]
    # included; only the log zone errs, and the coarse rule's twice longer
    # step makes its Simpson error 16 times the fine one
    fine_err, coarse_err = fine.sum() / xi_max - 1.0, coarse.sum() / xi_max - 1.0
    assert abs(fine_err) < 1e-9
    assert coarse_err == pytest.approx(16.0 * fine_err, rel=0.1)
    if zone.size:
        # the lattice: a uniform step of at most pi/(8 pts_per_period) above
        # xi = 1 and 2 log_pts_per_decade nodes per decade below
        steps = np.diff(zone[zone >= 1.0])
        assert steps.max() <= math.pi / 96.0 and np.ptp(steps) < 1e-12
        ratios = np.diff(np.log10(zone[zone <= 1.0]))
        assert np.allclose(ratios, 1.0 / 120.0, rtol=1e-9)
        # the Filon zone starts at the split, or at most 3 nodes below it
        split = min(16.0 / Lam, 1.0, xi_max)
        assert zone[0] <= split < zone[min(4, zone.size - 1)]


def test_lattice_does_not_depend_on_t():
    late = radial._lattice(8.0, 12, 60, 16.0 / 1.0e4)
    for Lam in (2.0, 30.0, 1.0e3, 1.0e4):
        log_xi, lo, zone = radial._nodes(Lam, 8.0, 12, 60)
        assert np.array_equal(zone, late[-zone.size:])
        assert radial._nodes(Lam, 8.0, 12, 60, late)[1] == late.size - zone.size
        # the fine and coarse rules nest on the zone: 1 mod 4 nodes
        assert zone.size % 4 == 1


def _antiderivative(x, omega):
    """Of (1 + x + x^2) e^{i omega x}, omega != 0."""
    iw = 1j * omega
    poly = (1.0 + x + x * x) / iw - (1.0 + 2.0 * x) / iw**2 + 2.0 / iw**3
    return np.exp(iw * x) * poly


@pytest.mark.parametrize("Lam", [30.0, 1.0e3, 1.0e4])
def test_filon_rows_integrate_quadratics_exactly(Lam):
    # at these rates every panel advances its phase by more than
    # _SLOW_PHASE, so both rows are Filon's rule and integrate a quadratic
    # times e^{i omega xi} exactly
    zone = radial._nodes(Lam, 8.0, 12, 60)[2]
    omega = 2.0 * (Lam - 1.0)
    steps = np.diff(zone)
    assert omega * steps.min() >= radial._SLOW_PHASE
    exact = _antiderivative(zone[-1], omega) - _antiderivative(zone[0], omega)
    for row in radial._panel_rows(zone, omega)[1]:
        # to the rounding of the phases omega xi, ~1e-11 at Lambda = 1e4
        terms = row * (1.0 + zone + zone**2)
        phase_eps = 4.0 * np.finfo(float).eps * omega * zone[-1]
        assert abs(terms.sum() - exact) <= phase_eps * np.abs(terms).sum()


def test_filon_moments_at_the_slow_phase_threshold():
    # by parts, each division by i omega loses digits as omega h -> 0; at the
    # threshold the moments still match their power series
    a, b = np.array([0.01, 0.02, 0.015]), np.array([0.01, 0.015, 0.02])
    omega = radial._SLOW_PHASE / 0.02
    series = np.zeros((3, 3), dtype=complex)
    coef = 1.0 + 0j
    for j in range(25):
        for k in range(3):
            m = k + j + 1
            series[k] += coef * (b**m - (-a) ** m) / m
        coef *= 1j * omega / (j + 1)
    moments = np.array(radial._filon_moments(a, b, omega))
    for k in range(3):
        assert np.all(np.abs(moments[k] - series[k]) <= 1e-12 * 0.02 ** (k + 1))


def _simpson_reference(mu, profile, v0_hat, v1_hat, t, n, s, xi_max,
                       pts_per_period=96, log_pts_per_decade=480):
    """The rule the Filon zone replaced, at 4 times its default density: a log
    zone to min(30/Lambda(t), 1, xi_max), then Simpson's rule with step
    pi/(Lambda(t) pts_per_period), at least 512 steps, on the oscillation."""
    Lam, lam = float(profile.Lambda_at(t)), float(profile.lambda_at(t))
    split = min(30.0 / Lam, 1.0, xi_max)
    xi_lo = max(xi_max * 1e-12, 0.5e-4 / Lam, 1e-12)
    m = int(2 * log_pts_per_decade * math.log10(split / xi_lo)) + 1
    log_xi = np.geomspace(xi_lo, split, m + (1 - m) % 4)
    log_w = radial._simpson_rows(log_xi.size)[0] * math.log(split / xi_lo) * log_xi
    log_w[0] += xi_lo / n
    m = max(513, math.ceil((xi_max - split) * Lam * pts_per_period / math.pi) + 1)
    uni_xi = np.linspace(split, xi_max, m + (1 - m) % 4)
    uni_w = radial._simpson_rows(uni_xi.size)[0] * (xi_max - split)
    sq = np.zeros(2)
    for xi, w in ((log_xi, log_w), (uni_xi, uni_w)):
        p0, p1, d0, d1 = radial.phi_values_grid(mu, profile, s, t, xi)
        a0, a1 = v0_hat(xi), v1_hat(xi)
        vh2, vth2 = np.abs(p0 * a0 + p1 * a1) ** 2, np.abs(d0 * a0 + d1 * a1) ** 2
        sq += w @ radial._integrands(lam, xi, n, vh2, vth2)
    return np.sqrt(multipliers.SPHERE_AREA[n] / (2.0 * math.pi) ** n * sq)


G, H = radial.gaussian_spectrum(1.0, 1.0), radial.gaussian_spectrum(0.7, 1.2)


def tilted_g(xi):
    return G(xi) * np.exp(0.3j)


def rotated_h(xi):
    return 1j * H(xi)


@pytest.mark.parametrize("mu, profile, n, s, t, data", [
    (4.0, CONST, 1, 0.0, 0.5, (tilted_g, rotated_h)),
    (4.0, CONST, 1, 0.0, 50.0, (tilted_g, rotated_h)),
    (3.0, CONST, 1, 2.0, 40.0, (G, H)),
    (1.5, CONST, 1, 0.5, 3.0, (G, H)),
    (3.0, profiles.polynomial_profile(2.0), 1, 0.0, 8.0, (G, H)),
    (1.5, profiles.polynomial_profile(0.5), 1, 0.0, 20.0, (tilted_g, H)),
    (1.5, CONST, 2, 0.0, 30.0, (G, H)),
    (4.0, CONST, 3, 0.0, 20.0, (tilted_g, rotated_h)),
    (3.0, CONST, 3, 1.0, 60.0, (G, rotated_h)),
    # no oscillation: Lambda(t)|xi| << 1, and t close to s
    (4.0, profiles.constant_profile(1e-2), 1, 0.0, 0.05, (G, H)),
    (3.0, CONST, 1, 5.0 - 1e-6, 5.0, (zero_spec, H)),
    # Bessel order 10: tau below the turning point at t = 6, past it at 30
    (19.0, CONST, 1, 0.0, 6.0, (G, H)),
    (19.0, CONST, 1, 0.0, 30.0, (G, H)),
])
def test_filon_route_matches_dense_simpson(mu, profile, n, s, t, data):
    v0_hat, v1_hat = data
    xi_max = radial._default_xi_max(v0_hat, v1_hat)
    ref = _simpson_reference(mu, profile, v0_hat, v1_hat, t, n, s, xi_max)
    # at rtol 1e-8 the log zone's own coarse error fails the gap check for
    # n = 2, 3 (as with the uniform zone); the rule certifies ~2 rtol
    r = radial.linear_norm_radial(mu, profile, v0_hat, v1_hat, t, n=n, s=s, rtol=1e-7)
    assert radial._nodes(float(profile.Lambda_at(t)), xi_max, 24, 120)[2].size
    assert r.l2 == pytest.approx(ref[0], rel=2e-7)
    assert r.energy == pytest.approx(ref[1], rel=2e-7)


def test_nodes_per_output_time_stay_bounded(bessel_points):
    # a standalone call evaluates every node once at sigma and once at tau
    points = []
    for t in (10.0, 1.0e4):
        before = bessel_points[0]
        radial.linear_norm_radial(4.0, CONST, G, H, t)
        points.append(bessel_points[0] - before)
    assert points[1] <= 2 * points[0]


def test_phase_beyond_tau_max_raises():
    with pytest.raises(DomainError, match="TAU_MAX"):
        radial.linear_norm_radial(4.0, CONST, G, H, 1.0e7)
    with pytest.raises(DomainError, match="TAU_MAX"):
        radial.linear_decay_series(4.0, CONST, G, H, [1.0, 1.0e7])


def test_series_evaluates_sigma_once_through_the_module_bindings(bessel_points, monkeypatch):
    # the benchmark times radial.linear_norm_radial and counts the Bessel
    # points of multipliers._jy / jy_extended: the series must call the
    # former by its module name once per time, and the Filon zone must get
    # its values through the latter
    times = list(np.geomspace(1.0, 1.0e3, 7))
    calls, phase_times, inside = [], [], [0]
    norm, phase_factors = radial.linear_norm_radial, radial.phase_factors

    def counted(*args, **kwargs):
        calls.append(args[4])
        before = bessel_points[0]
        try:
            return norm(*args, **kwargs)
        finally:
            inside[0] += bessel_points[0] - before

    def counted_phase(store, s, t, lo=0):
        phase_times.append(t)
        return phase_factors(store, s, t, lo)

    monkeypatch.setattr(radial, "linear_norm_radial", counted)
    monkeypatch.setattr(radial, "phase_factors", counted_phase)
    series = radial.linear_decay_series(4.0, CONST, G, H, times)
    assert calls == times
    # sigma on the whole lattice once, before the first time; per time the
    # log zone at sigma and tau, and the Filon zone at tau only, or, where
    # the phase form is not used, at sigma and tau with the log zone
    assert 0 < len(phase_times) < len(times)
    xi_max = radial._default_xi_max(G, H)
    lattice = radial._lattice(xi_max, 12, 60, 16.0 / CONST.Lambda_at(times[-1]))
    per_time = 0
    for t in times:
        log_xi, lo, zone = radial._nodes(CONST.Lambda_at(t), xi_max, 12, 60, lattice)
        per_time += 2 * (log_xi.size - 1) + (1 if t in phase_times else 2) * zone.size
    assert inside[0] == per_time and bessel_points[0] == lattice.size + per_time
    # the same numbers as standalone calls, which evaluate sigma themselves
    for t, l2, energy in zip(times, series.tracks["L2"], series.tracks["energy"]):
        r = norm(4.0, CONST, G, H, t, rtol=1e-5, pts_per_period=12, log_pts_per_decade=60)
        assert (r.l2, r.energy) == pytest.approx((l2, energy), rel=1e-14)


def test_grid_run_matches_radial_series():
    # a linear grid run takes one exact step per output interval; the radial
    # route integrates the same solution's spectrum, from T = 16 on mostly in
    # the Filon zone
    raw = {"profile": {"kind": "constant"}, "mu": 4.0, "grid": {"n": 1, "N": 2048},
           "nonlinearity": {"form": "zero"},
           "data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0}, "T": 50.0}
    cfg = validate_config(raw)
    grid_series, _ = solver.simulate(cfg)
    assert grid_series.times.size == 55
    v0 = radial.gaussian_spectrum(math.sqrt(2.0 * math.pi), 1.0)
    settings = {"rtol": 1e-9, "pts_per_period": 48, "log_pts_per_decade": 240}
    xi_max = radial._default_xi_max(v0, zero_spec)
    assert radial._nodes(51.0, xi_max, 48, 240)[2][0] < 0.5
    series = radial.linear_decay_series(4.0, cfg.profile, v0, zero_spec, grid_series.times,
                                        **settings)
    for name, bound in (("L2", 1e-9), ("energy", 5e-9)):
        gap = np.abs(series.tracks[name] / grid_series.tracks[name] - 1.0)
        assert gap.max() <= bound, (name, gap.max())


def test_series_builder_tracks_and_metadata():
    g = radial.gaussian_spectrum(1.0, 1.0)
    times = np.geomspace(1.0, 100.0, 11)
    series = radial.linear_decay_series(4.0, CONST, g, g, times, metadata={"tag": 7})
    assert set(series.tracks) == {"L2", "energy"}
    assert series.metadata["tag"] == 7
    assert series.metadata["mu"] == 4.0
    assert np.all(np.diff(series.lambda_big) > 0.0)
