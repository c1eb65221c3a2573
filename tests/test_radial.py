"""Radial linear-norm quadrature tests against closed forms."""

import math

import numpy as np
import pytest

from dampwave import analysis, multipliers, profiles, radial, solver
from dampwave.config import validate_config
from dampwave.errors import DomainError, QuadratureError

CONST = profiles.constant_profile()


def zero_spec(xi):
    return np.zeros_like(xi)


def _rule(Lam, xi_max, pts_per_period):
    """The lattice of a standalone call at Lambda(t) = Lam, the index of the
    call's first node and that of its Filon zone's first node."""
    xi_lo, xi_split = radial._bounds(Lam, xi_max)
    lattice = radial._lattice(xi_max, pts_per_period, xi_lo)
    return lattice, radial._zone_start(lattice, xi_lo), radial._zone_start(lattice, xi_split)


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
    r = radial.linear_norm_radial(2.0, CONST, g, g, 3.0, xi_max=0.0)
    assert r.l2 == 0.0 and r.energy == 0.0
    # a series on an empty range builds a lattice of xi = 0 alone
    series = radial.linear_decay_series(2.0, CONST, g, g, [1.0, 3.0], xi_max=0.0)
    assert not np.any(series.tracks["L2"]) and not np.any(series.tracks["energy"])


@pytest.mark.parametrize("call, kwargs, match", [
    ("norm", {"n": 2.5}, "n must be an integer from 1 to 100"),
    ("series", {"n": 0}, "n must be an integer from 1 to 100"),
    ("norm", {"xi_max": -1.0}, "xi_max must be a non-negative finite"),
    ("series", {"xi_max": math.inf}, "xi_max must be a non-negative finite"),
    ("norm", {"xi_max": math.nan}, "xi_max must be a non-negative finite"),
    ("norm", {"pts_per_period": 0}, "pts_per_period must be a positive finite"),
    ("series", {"pts_per_period": math.inf}, "pts_per_period must be a positive finite"),
    ("norm", {"rtol": math.nan}, "rtol must be a non-negative finite"),
    ("zones", {"n": 101}, "n must be an integer from 1 to 100"),
    ("series", {"times": [1.0e3, 10.0, 1.0]}, "times must be strictly increasing"),
    ("zones", {"t_min": 0.0}, "t_min must be a positive finite"),
    ("zones", {"low_decades": math.nan}, "low_decades must be a non-negative finite"),
    ("zones", {"K": 2.0}, r"K must be in \(0, 1\)"),
    ("zones", {"t_min": 20.0}, "t_max must exceed t_min"),
    ("zones", {"xi_per_decade": 0}, "xi_per_decade must be a positive finite"),
])
def test_bad_arguments_raise_before_a_lattice_is_built(call, kwargs, match, monkeypatch):
    def no_lattice(*args):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(radial, "_lattice", no_lattice)
    g = radial.gaussian_spectrum(1.0, 1.0)
    with pytest.raises(DomainError, match=match):
        if call == "norm":
            radial.linear_norm_radial(4.0, CONST, g, g, 10.0, **kwargs)
        elif call == "series":
            radial.linear_decay_series(4.0, CONST, g, g, **{"times": [1.0, 100.0]} | kwargs)
        else:
            spec = multipliers.ZoneSampleSpec(**{"t_max": 10.0} | kwargs)
            multipliers.certify_zone_bounds(4.0, CONST, 1.5, spec)


def test_too_coarse_rule_raises():
    g = radial.gaussian_spectrum(1.0, 1.0)
    with pytest.raises(QuadratureError, match="did not converge at t=1000"):
        radial.linear_norm_radial(4.0, CONST, g, radial.gaussian_spectrum(0.7, 1.2),
                                  1.0e3, pts_per_period=2)


@pytest.mark.parametrize("Lam, xi_max", [(5.0, 8.0), (1.0e3, 8.0), (1.0, 0.5), (1.0e-3, 8.0)])
def test_rule_nodes_and_nested_weights(Lam, xi_max):
    lattice, lo, c = _rule(Lam, xi_max, 12)
    xi = lattice[lo:]
    smooth, wave = radial._weights(xi, xi.size, 1, 0.0)
    fine, coarse = smooth
    # one strictly increasing node set; the coarse rule lives on its even nodes
    assert np.all(np.diff(xi) > 0.0) and xi[-1] == xi_max
    assert np.all(coarse[1::2] == 0.0) and np.all(coarse[::2] > 0.0)
    # without the phase form every panel is Simpson's, on |vhat|^2 itself
    assert wave.shape == (2, 0)
    # both rules integrate 1 over [0, xi_max], [0, xi[0]] included
    assert abs(fine.sum() / xi_max - 1.0) < 1e-9
    assert abs(coarse.sum() / xi_max - 1.0) < 1e-9
    # the coarse rule's twice longer step makes its Simpson error 16 times
    # the fine one on a smooth integrand over [xi[0], xi_max]
    exact = math.exp(-xi[0]) - math.exp(-xi_max)
    fine_err, coarse_err = radial._panel_rows(xi, 0.0, xi.size)[0] @ np.exp(-xi) - exact
    assert coarse_err == pytest.approx(16.0 * fine_err, rel=0.1)
    # the lattice: a uniform step of at most pi/(8 pts_per_period) above
    # xi = 1 and 10 pts_per_period nodes per decade below
    steps = np.diff(xi[xi >= 1.0])
    assert steps.size == 0 or (steps.max() <= math.pi / (8 * 12) and np.ptp(steps) < 1e-12)
    ratios = np.diff(np.log10(xi[xi <= 1.0]))
    assert np.allclose(ratios, 1.0 / (10 * 12), rtol=1e-9)
    # the nodes start at xi_lo, the Filon zone at the split, each at most 3
    # nodes below it
    xi_lo, split = radial._bounds(Lam, xi_max)
    assert xi[0] <= xi_lo < xi[4]
    if split < xi_max:
        assert lattice[c] <= split < lattice[min(c + 4, lattice.size - 1)]


def test_lattice_does_not_depend_on_t():
    late = radial._lattice(8.0, 12, radial._bounds(1.0e4, 8.0)[0])
    for Lam in (2.0, 30.0, 1.0e3, 1.0e4):
        lattice, lo, c = _rule(Lam, 8.0, 12)
        # a standalone call's lattice is its own nodes, a suffix of the latest
        assert lo == 0 and np.array_equal(lattice, late[-lattice.size:])
        xi_lo, xi_split = radial._bounds(Lam, 8.0)
        assert radial._zone_start(late, xi_lo) == late.size - lattice.size
        assert radial._zone_start(late, xi_split) == late.size - lattice.size + c
        # the fine and coarse rules nest on the nodes and on the Filon zone:
        # 1 mod 4 nodes each
        assert lattice.size % 4 == 1 and (lattice.size - c) % 4 == 1


def test_series_times_are_slices_of_one_lattice(monkeypatch):
    # each time hands phi_values_grid the nodes below its phase form and
    # phase_factors the index where that form starts, both on the series' store
    seen, stores = [], []
    grid, phase = radial.phi_values_grid, radial.phase_factors

    def grid_nodes(mu, profile, s, t, xi, *, store):
        seen.append([t, xi, None])
        stores.append(store)
        return grid(mu, profile, s, t, xi, store=store)

    def phase_start(store, s, t, lo=0):
        assert seen[-1][0] == t and seen[-1][2] is None and store is stores[-1]
        seen[-1][2] = (store.nonzero, lo)
        return phase(store, s, t, lo)

    monkeypatch.setattr(radial, "phi_values_grid", grid_nodes)
    monkeypatch.setattr(radial, "phase_factors", phase_start)
    times = list(np.geomspace(1.0, 1.0e3, 7))
    radial.linear_decay_series(4.0, CONST, G, H, times)
    assert [t for t, _, _ in seen] == times
    assert all(store is stores[0] for store in stores)
    xi_max = radial._default_xi_max(G, H)
    lattice = radial._lattice(xi_max, 12, radial._bounds(CONST.Lambda_at(times[-1]), xi_max)[0])
    phased = 0
    for t, low, at in seen:
        a = int(np.searchsorted(lattice, low[0]))
        c = a + low.size
        assert np.array_equal(low, lattice[a:c])
        if at is None:
            # without the phase form every node is below it; c is the top
            assert c == lattice.size
            c -= 1
        else:
            phased += 1
            assert np.array_equal(at[0], lattice) and at[1] == c
        assert (lattice.size - 1 - a) % 4 == 0 and (c - a) % 4 == 0
        assert lattice[a] <= radial._bounds(CONST.Lambda_at(t), xi_max)[0] < lattice[a + 4]
    # both routes occur: t = 1 is below the turning point
    assert 0 < phased < len(times)


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
    lattice, lo, c = _rule(Lam, 8.0, 12)
    zone = lattice[c:]
    omega = 2.0 * (Lam - 1.0)
    steps = np.diff(zone)
    assert omega * steps.min() >= radial._SLOW_PHASE
    exact = _antiderivative(zone[-1], omega) - _antiderivative(zone[0], omega)
    for row in radial._panel_rows(zone, omega, 0)[1]:
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


def _simpson_rows(m):
    """(fine, coarse) Simpson weights, shape (2, m), for m = 1 mod 4 uniform
    points on [0, 1]; the coarse row uses the even-indexed points."""
    rows = np.zeros((2, m))
    for row, step in zip(rows, (1, 2)):
        nodes = row[::step]  # a view: 1, 4, 2, ..., 4, 1 times the step
        nodes[:] = 2.0 * step
        nodes[1::2] = 4.0 * step
        nodes[[0, -1]] = step
    return rows / (3.0 * (m - 1))


def _simpson_reference(mu, profile, v0_hat, v1_hat, t, n, s, xi_max, pts_per_period=96):
    """The rule the Filon zone replaced, at 4 times its default density: a log
    zone of 10 pts_per_period nodes per decade to min(30/Lambda(t), 1,
    xi_max), then Simpson's rule with step pi/(Lambda(t) pts_per_period), at
    least 512 steps, on the oscillation."""
    Lam, lam = float(profile.Lambda_at(t)), float(profile.lambda_at(t))
    split = min(30.0 / Lam, 1.0, xi_max)
    xi_lo = max(xi_max * 1e-12, 0.5e-4 / Lam, 1e-12)
    m = int(10 * pts_per_period * math.log10(split / xi_lo)) + 1
    log_xi = np.geomspace(xi_lo, split, m + (1 - m) % 4)
    log_w = _simpson_rows(log_xi.size)[0] * math.log(split / xi_lo) * log_xi
    log_w[0] += xi_lo / n
    m = max(513, math.ceil((xi_max - split) * Lam * pts_per_period / math.pi) + 1)
    uni_xi = np.linspace(split, xi_max, m + (1 - m) % 4)
    uni_w = _simpson_rows(uni_xi.size)[0] * (xi_max - split)
    sq = np.zeros(2)
    for xi, w in ((log_xi, log_w), (uni_xi, uni_w)):
        p0, p1, d0, d1 = radial.phi_values_grid(mu, profile, s, t, xi)
        a0, a1 = v0_hat(xi), v1_hat(xi)
        vh2, vth2 = np.abs(p0 * a0 + p1 * a1) ** 2, np.abs(d0 * a0 + d1 * a1) ** 2
        sq += w @ radial._integrands(lam, xi, n, vh2, vth2)
    area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[n]
    return np.sqrt(area / (2.0 * math.pi) ** n * sq)


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
    lattice, lo, c = _rule(float(profile.Lambda_at(t)), xi_max, 24)
    assert c < lattice.size - 1
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


def test_phase_beyond_tau_max_raises(monkeypatch):
    with pytest.raises(DomainError, match="TAU_MAX"):
        radial.linear_norm_radial(4.0, CONST, G, H, 1.0e7)
    # a series evaluates no Bessel argument above TAU_MAX and none at a time
    # whose call reads none; the error comes from that time's own call
    args, calls = [], []
    norm = radial.linear_norm_radial
    for name in ("_jy", "jy_extended"):
        def recorded(nu, tau, fn=getattr(multipliers, name)):
            args.append(np.asarray(tau, dtype=float))
            return fn(nu, tau)
        monkeypatch.setattr(multipliers, name, recorded)

    def called(*a, **kwargs):
        calls.append(a[4])
        return norm(*a, **kwargs)

    monkeypatch.setattr(radial, "linear_norm_radial", called)

    def evaluated_at(t, times, xi_max=radial._default_xi_max(G, H)):
        lattice = radial._lattice(xi_max, 12, radial._bounds(CONST.Lambda_at(times[-1]),
                                                              xi_max)[0])
        return np.isin(CONST.Lambda_at(t) * lattice, np.concatenate(args)).any()

    # t = 1e7 reaches tau = 1.2e8 in its Filon zone, and 2e7 is never read
    times = [1.0, 1.0e7, 2.0e7]
    with pytest.raises(DomainError, match="TAU_MAX"):
        radial.linear_decay_series(4.0, CONST, G, H, times)
    assert calls == times[:2] and max(float(a.max()) for a in args) <= multipliers.TAU_MAX
    assert evaluated_at(1.0, times) and not evaluated_at(2.0e7, times)
    # a time before s raises in its call, before anything is evaluated
    args.clear()
    calls.clear()
    with pytest.raises(DomainError, match="0 <= s <= t"):
        radial.linear_decay_series(4.0, CONST, G, H, [1.0, 10.0], s=5.0)
    assert calls == [1.0] and args == []
    # with xi_max below xi_lo at t = 1, that time's norms are zero unread
    args.clear()
    times = [1.0, 100.0]
    series = radial.linear_decay_series(4.0, CONST, G, H, times, xi_max=1e-6)
    assert series.tracks["L2"][0] == 0.0 < series.tracks["L2"][1]
    assert evaluated_at(100.0, times, 1e-6) and not evaluated_at(1.0, times, 1e-6)


def test_series_evaluates_sigma_once_through_the_module_bindings(bessel_points, monkeypatch):
    _series_reads_sigma_once(4.0, bessel_points, monkeypatch)


def test_series_at_non_integer_mu_takes_both_precisions(bessel_points, monkeypatch):
    _series_reads_sigma_once(4.5, bessel_points, monkeypatch)


def _series_reads_sigma_once(mu, bessel_points, monkeypatch):
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
    series = radial.linear_decay_series(mu, CONST, G, H, times)
    assert calls == times
    # sigma on the whole lattice once and tau once on each time's nodes,
    # all of it between the calls: both zones of a time read the sigma side
    # from the series' node at s and share one node at t
    assert 0 < len(phase_times) < len(times)
    xi_max = radial._default_xi_max(G, H)
    lattice = radial._lattice(xi_max, 12, radial._bounds(CONST.Lambda_at(times[-1]), xi_max)[0])
    per_time = sum(lattice.size - radial._zone_start(lattice, radial._bounds(
        CONST.Lambda_at(t), xi_max)[0]) for t in times)
    assert inside[0] == 0 and bessel_points[0] == lattice.size + per_time
    # these times fit one batch: one call per precision, float64 alone at
    # integer mu; at non-integer mu longdouble where sigma = xi < 1, on the
    # node at s and on each time's nodes
    if mu.is_integer():
        assert bessel_points[1] == 1 and bessel_points[2] == 0
    else:
        below = [np.count_nonzero(lattice[radial._zone_start(lattice, radial._bounds(
            CONST.Lambda_at(t), xi_max)[0]):] < 1.0) for t in times]
        assert bessel_points[1] == 2
        assert bessel_points[2] == np.count_nonzero(lattice < 1.0) + sum(below)
    # the same numbers as standalone calls, which evaluate sigma themselves
    for t, l2, energy in zip(times, series.tracks["L2"], series.tracks["energy"]):
        r = norm(mu, CONST, G, H, t, rtol=1e-5, pts_per_period=12)
        assert (r.l2, r.energy) == (l2, energy)


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
    settings = {"rtol": 1e-9, "pts_per_period": 48}
    xi_max = radial._default_xi_max(v0, zero_spec)
    lattice, lo, c = _rule(51.0, xi_max, 48)
    assert lattice[c] < 0.5
    series = radial.linear_decay_series(4.0, cfg.profile, v0, zero_spec, grid_series.times,
                                        **settings)
    for name, bound in (("L2", 1e-9), ("energy", 5e-9)):
        gap = np.abs(series.tracks[name] / grid_series.tracks[name] - 1.0)
        assert gap.max() <= bound, (name, gap.max())


# measured gaps at eps = 0.01: 6.7e-7, 2.7e-7 and 7.8e-7 at p = 4 in the
# order below, 1.8e-4 at p = 3; a kick of 2 dt f doubles each
@pytest.mark.parametrize("profile, T, p, gap_bound", [
    ({"kind": "constant"}, 20.0, 4.0, 1.0e-6),
    ({"kind": "polynomial", "q": 1.5}, 10.0, 4.0, 1.0e-6),
    ({"kind": "exponential", "r": 0.2}, 10.0, 4.0, 1.0e-6),
    ({"kind": "constant"}, 20.0, 3.0, 2.0e-4)],
    ids=["constant", "polynomial", "exponential", "constant_p3"])
def test_small_nonlinear_runs_keep_the_linear_decay(profile, T, p, gap_bound):
    # small data decay like the linear flow: the L2 gap of a run to the
    # linear radial series is the first Duhamel correction, of order eps^(p-1)
    # relative, so doubling eps multiplies it by 2^(p-1) (8 at p = 4, measured
    # 7.9993, 7.9983 and 8.0014; 4 at p = 3, measured 4.0029).  This holds the
    # run's thousands of composed steps against the grid-free route.
    gaps = []
    for eps in (0.01, 0.02):
        cfg = validate_config({"profile": profile, "mu": 4.0, "grid": {"n": 1, "N": 1024},
                               "nonlinearity": {"form": "signed_power", "p": p},
                               "data": {"kind": "gaussian", "amplitude": eps, "width": 1.0},
                               "T": T})
        run, _ = solver.simulate(cfg)
        v0 = radial.gaussian_spectrum(eps * math.sqrt(2.0 * math.pi), 1.0)
        series = radial.linear_decay_series(4.0, cfg.profile, v0, zero_spec, run.times,
                                            rtol=1e-9, pts_per_period=48)
        gaps.append(np.abs(run.tracks["L2"] / series.tracks["L2"] - 1.0))
    assert gaps[1][-1] / gaps[0][-1] == pytest.approx(2.0 ** (p - 1.0), rel=1e-3)
    assert gaps[0].max() <= gap_bound


def test_series_builder_tracks_and_metadata():
    g = radial.gaussian_spectrum(1.0, 1.0)
    times = np.geomspace(1.0, 100.0, 11)
    series = radial.linear_decay_series(4.0, CONST, g, g, times, metadata={"tag": 7})
    assert set(series.tracks) == {"L2", "energy"}
    assert series.metadata["tag"] == 7
    assert series.metadata["mu"] == 4.0
    assert np.all(np.diff(series.lambda_big) > 0.0)


FIT_TIMES = np.geomspace(1.0, 1.0e4, 81)


def _decay_fits(n, mu):
    """L2 and energy fits of the linear flow in R^n, constant profile, from
    v0 = exp(-|x|^2/2) (transform (2 pi)^(n/2) exp(-xi^2/2)) and v1 = 0."""
    v0 = radial.gaussian_spectrum((2.0 * math.pi) ** (n / 2.0), 1.0)
    series = radial.linear_decay_series(mu, CONST, v0, radial.gaussian_spectrum(0.0), FIT_TIMES,
                                        n=n)
    return {track: analysis.fit_decay(series, track) for track in ("L2", "energy")}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_radial_decay_rates_in_any_dimension(n):
    # mu = n + 1, n + 2, n + 3 lie below, at and above the energy border
    # 2 + n (m = 1) and above the solution border n: at the border the fit
    # takes the log model, elsewhere the pure power
    for mu in (n + 1.0, n + 2.0, n + 3.0):
        fits, rates = _decay_fits(n, mu), analysis.predicted_decay_exponents(n, mu)
        at_border = analysis._regime(mu, analysis._energy_border(n, 1.0)) == "at"
        assert fits["energy"].model == ("power_log" if at_border else "pure_power"), mu
        assert fits["energy"].alpha == pytest.approx(rates["energy"], abs=0.05), mu
        assert fits["L2"].model == "pure_power", mu
        assert fits["L2"].alpha == pytest.approx(rates["L2"], abs=0.05), mu


# L2 at the solution border n = 1, mu = 1 is left out: its log factor bends
# the curve too little over this window for the fit to take the log model,
# and the pure power it fits (0.449) lies just outside 0.05 of mu/2 = 0.5
@pytest.mark.parametrize("n, mu, track, model", [
    (1, 0.5, "L2", "pure_power"),
    (2, 1.0, "L2", "pure_power"),
    (3, 2.0, "L2", "pure_power"),
    (2, 2.0, "L2", "power_log"),
    (3, 3.0, "L2", "power_log"),
    (1, 2.0, "energy", "pure_power"),
    (2, 3.0, "energy", "pure_power"),
])
def test_radial_decay_rates_at_and_below_the_border(n, mu, track, model):
    # below the border n(2/m - 1) (solution) or 2 + n(2/m - 1) (energy) the
    # rate is mu/2, not the effective n(1/m - 1/2) (+ 1); at it, mu/2 with a log
    fit = _decay_fits(n, mu)[track]
    assert fit.model == model
    assert fit.alpha == pytest.approx(analysis.predicted_decay_exponents(n, mu)[track], abs=0.05)
