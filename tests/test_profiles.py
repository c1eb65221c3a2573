"""Speed-profile and damping-coefficient tests."""

import math

import numpy as np
import pytest

from dampwave import profiles
from dampwave.errors import DomainError


def built_ins():
    return [
        profiles.constant_profile(),
        profiles.polynomial_profile(q=2.0),
        profiles.polynomial_profile(q=0.5),
        profiles.exponential_profile(r=1.0),
        profiles.exponential_profile(r=0.25),
    ]


def test_lambda_examples():
    assert profiles.lambda_at(profiles.constant_profile(), 7.0) == 1.0
    assert profiles.lambda_at(profiles.polynomial_profile(q=2.0), 1.0) == 2.0
    assert profiles.lambda_at(profiles.exponential_profile(r=0.5), 2.0) == pytest.approx(math.e)


def test_Lambda_examples():
    assert profiles.Lambda_at(profiles.constant_profile(), 3.0) == 4.0
    assert profiles.Lambda_at(profiles.polynomial_profile(q=2.0), 1.0) == pytest.approx(2.0)
    assert profiles.Lambda_at(profiles.exponential_profile(r=1.0), 0.0) == pytest.approx(1.0)


def test_damping_examples():
    const = profiles.constant_profile()
    assert profiles.damping_at(const, profiles.DampingSpec.from_mu(2.0), 0.0) == pytest.approx(2.0)
    expo = profiles.exponential_profile(r=1.0)
    spec = profiles.DampingSpec.from_nu(3.0, expo)  # mu = nu + 1 = 4
    assert spec.mu == 4.0
    for t in [0.0, 1.0, 5.0]:
        assert profiles.damping_at(expo, spec, t) == pytest.approx(3.0)
    poly = profiles.polynomial_profile(q=2.0)
    assert profiles.damping_at(poly, profiles.DampingSpec.from_mu(1.0), 0.0) == pytest.approx(1.0)


def test_nu_to_mu_conversions():
    poly = profiles.polynomial_profile(q=2.0)
    assert profiles.DampingSpec.from_nu(3.0, poly).mu == pytest.approx((3.0 - 1.0) / 2.0 + 1.0)
    const = profiles.constant_profile()
    assert profiles.DampingSpec.from_nu(2.5, const).mu == 2.5
    # q = 1 polynomial degenerates to the constant-speed rule mu = nu
    q1 = profiles.polynomial_profile(q=1.0)
    assert profiles.DampingSpec.from_nu(2.5, q1).mu == pytest.approx(2.5)


def test_dissipativity():
    for prof in built_ins():
        assert profiles.dissipativity_check(prof, profiles.DampingSpec.from_mu(2.0))
        assert profiles.dissipativity_check(prof, profiles.DampingSpec.from_mu(0.0))
    assert not profiles.dissipativity_check(
        profiles.constant_profile(), profiles.DampingSpec.from_mu(-1.0))


def test_Lambda_monotone_property():
    rng = np.random.default_rng(3)
    for prof in built_ins():
        for _ in range(200):
            t1, t2 = sorted(rng.uniform(0.0, 100.0, size=2))
            if t1 == t2:
                continue
            assert profiles.Lambda_at(prof, t1) < profiles.Lambda_at(prof, t2)


def test_Lambda_derivative_matches_lambda():
    rng = np.random.default_rng(4)
    for prof in built_ins():
        for _ in range(200):
            t = rng.uniform(0.0, 100.0)
            h = 1e-6 * max(1.0, t)
            lo = max(t - h, 0.0)
            num = (profiles.Lambda_at(prof, t + h) - profiles.Lambda_at(prof, lo)) / (t + h - lo)
            assert num == pytest.approx(profiles.lambda_at(prof, t), rel=1e-6)


def test_structural_identity():
    # damping + lambda'/lambda = mu*lambda/Lambda to 1e-12 relative
    rng = np.random.default_rng(5)
    spec = profiles.DampingSpec.from_mu(3.0)
    for prof in built_ins():
        for _ in range(200):
            t = rng.uniform(0.0, 50.0)
            lam = profiles.lambda_at(prof, t)
            lhs = profiles.damping_at(prof, spec, t) + prof.lambda_prime_at(t) / lam
            rhs = spec.mu * lam / profiles.Lambda_at(prof, t)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_alpha_relation():
    # lambda'/lambda = alpha * lambda/Lambda for canonical built-ins
    rng = np.random.default_rng(6)
    for prof in built_ins():
        for _ in range(100):
            t = rng.uniform(0.0, 80.0)
            lam = profiles.lambda_at(prof, t)
            lhs = prof.lambda_prime_at(t) / lam
            rhs = prof.alpha * lam / profiles.Lambda_at(prof, t)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_expected_alpha_values():
    assert profiles.constant_profile().alpha == 0.0
    assert profiles.polynomial_profile(q=2.0).alpha == pytest.approx(0.5)
    assert profiles.exponential_profile(r=0.7).alpha == 1.0


def test_custom_profile_interpolation():
    # tabulate lambda(t) = 1 + t^2; monotone cubic interpolation is O(h^2)
    def build(npts):
        ts = np.linspace(0.0, 10.0, npts)
        return profiles.custom_profile(ts, 1.0 + ts**2)

    prof = build(201)
    checkpoints = [0.0, 0.37, 2.0, 7.7, 10.0]
    for t in checkpoints:
        assert prof.lambda_at(t) == pytest.approx(1.0 + t * t, rel=2e-4)
        assert prof.Lambda_at(t) == pytest.approx(1.0 + t + t**3 / 3.0, rel=2e-4)
        assert prof.lambda_prime_at(t) == pytest.approx(2.0 * t, rel=1e-2, abs=1e-2)
    # refining the table by 10x shrinks the error by ~100x (second order)
    fine = build(2001)
    for t in [0.37, 2.0, 7.7]:
        coarse_err = abs(prof.lambda_at(t) - (1.0 + t * t))
        fine_err = abs(fine.lambda_at(t) - (1.0 + t * t))
        assert fine_err < coarse_err / 20.0 + 1e-14
    assert profiles.dissipativity_check(prof, profiles.DampingSpec.from_mu(1.0))
    assert not profiles.dissipativity_check(prof, profiles.DampingSpec.from_mu(-0.5))


def test_custom_profile_validation():
    with pytest.raises(DomainError):
        profiles.custom_profile([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(DomainError):
        profiles.custom_profile([0.5, 1.0], [1.0, 1.0])  # must start at t = 0
    with pytest.raises(DomainError):
        profiles.custom_profile([0.0, 0.0], [1.0, 1.0])
    prof = profiles.custom_profile([0.0, 1.0, 2.0], [1.0, 2.0, 1.5])
    with pytest.raises(DomainError):
        prof.lambda_at(3.0)  # beyond table end


def test_time_domain_errors():
    prof = profiles.constant_profile()
    with pytest.raises(DomainError):
        profiles.lambda_at(prof, float("inf"))
    with pytest.raises(DomainError):
        profiles.Lambda_at(prof, -1.0)


@pytest.mark.parametrize("t, what", [(math.inf, "finite"), (-math.inf, "finite"),
                                     (math.nan, "finite"), (-1.0, "nonnegative"),
                                     (-1, "nonnegative"), (np.float64(-0.5), "nonnegative")])
def test_scalar_and_array_times_fail_alike(t, what):
    # scalars take a check of their own; it raises what the array check raises
    prof = profiles.constant_profile()
    for value in (t, np.array(t), np.array([0.5, t])):
        with pytest.raises(DomainError, match=f"^time must be {what}$"):
            prof.Lambda_at(value)


def test_scalar_times_give_floats():
    prof = profiles.polynomial_profile(2.0)
    for t in (3, 3.0, np.float64(3.0), np.array(3.0), -0.0):
        got = prof.Lambda_at(t)
        assert type(got) is float and got == prof.Lambda_at(np.array([float(t)]))[0]


def test_lambda0_override_keeps_definitions_consistent():
    prof = profiles.polynomial_profile(q=2.0, lambda0=3.0)
    assert profiles.Lambda_at(prof, 0.0) == pytest.approx(3.0)
    spec = profiles.DampingSpec.from_mu(2.0)
    # b must still satisfy its defining identity with the overridden Lambda
    t = 1.7
    lam = prof.lambda_at(t)
    assert profiles.damping_at(prof, spec, t) == pytest.approx(
        2.0 * lam / prof.Lambda_at(t) - prof.lambda_prime_at(t) / lam, rel=1e-14)
