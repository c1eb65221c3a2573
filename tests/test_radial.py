"""Radial linear-norm quadrature tests against closed forms."""

import math

import numpy as np
import pytest

from dampwave import profiles, radial
from dampwave.errors import QuadratureError

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
    xi, zones = radial._nodes(Lam, xi_max, 12, 60)
    fine, coarse = radial._weights(xi, zones, 1)
    # one strictly increasing node set; the coarse rule lives on its even nodes
    assert np.all(np.diff(xi) > 0.0) and xi[-1] == xi_max
    assert np.all(coarse[1::2] == 0.0) and np.all(coarse[::2] > 0.0)
    # both rules integrate 1 over [0, xi_max], Jacobian and [0, xi_lo]
    # included; only the log zone errs, and the coarse rule's twice longer
    # step makes its Simpson error 16 times the fine one
    fine_err, coarse_err = fine.sum() / xi_max - 1.0, coarse.sum() / xi_max - 1.0
    assert abs(fine_err) < 1e-9
    assert coarse_err == pytest.approx(16.0 * fine_err, rel=0.1)


def test_series_builder_tracks_and_metadata():
    g = radial.gaussian_spectrum(1.0, 1.0)
    times = np.geomspace(1.0, 100.0, 11)
    series = radial.linear_decay_series(4.0, CONST, g, g, times, metadata={"tag": 7})
    assert set(series.tracks) == {"L2", "energy"}
    assert series.metadata["tag"] == 7
    assert series.metadata["mu"] == 4.0
    assert np.all(np.diff(series.lambda_big) > 0.0)
