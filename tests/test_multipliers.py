"""Multiplier-module tests: closed forms, ODE oracle, zones, certification."""

import itertools
import math

import numpy as np
import pytest

from dampwave import multipliers as mp
from dampwave import profiles
from dampwave.errors import DomainError, UnsupportedOrderError

CONST = profiles.constant_profile()
POLY = profiles.polynomial_profile(2.0)
EXPO = profiles.exponential_profile(0.3)


def test_rho_examples():
    assert mp.rho_of(2.0) == -0.5
    assert mp.rho_of(1.0) == 0.0
    assert mp.rho_of(4.0) == -1.5


def test_identity_at_equal_times():
    for prof in (CONST, POLY, EXPO):
        for xi in (1e-3, 0.3, 7.0):
            v = mp.phi_values(3.0, prof, 1.2, 1.2, xi)
            assert abs(v.phi0 - 1.0) < 1e-10
            assert abs(v.phi1) < 1e-10
            assert abs(v.dphi0) < 1e-10
            assert abs(v.dphi1 - 1.0) < 1e-10


def test_realness():
    rng = np.random.default_rng(0)
    for _ in range(50):
        mu = rng.uniform(1.0, 5.0)
        s = rng.uniform(0.0, 2.0)
        t = s + rng.uniform(0.0, 10.0)
        xi = 10.0 ** rng.uniform(-3, 1)
        v = mp.phi_values(mu, CONST, s, t, xi)
        for entry in (v.phi0, v.phi1, v.dphi0, v.dphi1):
            assert abs(entry.imag) <= 1e-10 * max(1.0, abs(entry))


def test_mu2_closed_form():
    # Phi1(t, 0, xi) = sin(t xi) / (xi (1+t)) for constant speed
    for t in (0.0, 0.4, 1.0, 3.0, 41.0):
        for xi in (0.01, 0.5, 1.0, 4.0, 19.0):
            got = mp.phi_values(2.0, CONST, 0.0, t, xi).phi1.real
            assert got == pytest.approx(math.sin(t * xi) / (xi * (1.0 + t)), abs=1e-10)


def test_mode_oracle_examples():
    # undamped oscillator: mu=0, (1,0) -> (cos, -sin)
    v, vp = mp.mode_ode_oracle(0.0, CONST, 0.0, math.pi, 1.0, 1.0, 0.0)
    assert v.real == pytest.approx(-1.0, abs=1e-9)
    assert vp.real == pytest.approx(0.0, abs=1e-9)
    # complex data combine with the real entries by linearity
    v, vp = mp.mode_ode_oracle(0.0, CONST, 0.0, math.pi, 1.0, 1j, 0.0)
    assert v == pytest.approx(-1j, abs=1e-9)
    # free-wave reduction: mu=2, (0,1) -> sin(t xi)/(xi (1+t))
    v, vp = mp.mode_ode_oracle(2.0, CONST, 0.0, 5.0, 1.0, 0.0, 1.0)
    assert v.real == pytest.approx(math.sin(5.0) / 6.0, rel=1e-8)
    # xi = 0 with (1, 0) stays constant
    v, vp = mp.mode_ode_oracle(3.0, CONST, 0.0, 7.0, 0.0, 1.0, 0.0)
    assert (v, vp) == (1.0 + 0.0j, 0.0 + 0.0j)


def test_oracle_batches_accept_empty_input():
    e = np.zeros(0)
    entries = mp.oracle_matrix_batch(2.0, e, e, e, e)
    assert [x.shape for x in entries] == [(0,)] * 4


def test_oracle_batch_zero_span_members_keep_identity():
    sigma = np.array([0.5, 2.0, 3.0, 7.0])
    tau = np.array([0.5, 6.0, 3.0, 9.0])
    ls_xi = np.array([0.4, 1.0, 1.5, 2.0])
    lt_xi = np.array([0.8, 1.3, 2.5, 2.0])
    phi0, phi1, dphi0, dphi1 = mp.oracle_matrix_batch(2.5, sigma, tau, ls_xi, lt_xi)
    for i in (0, 2):
        assert (phi0[i], phi1[i], dphi0[i]) == (1.0, 0.0, 0.0)
        assert dphi1[i] == pytest.approx(lt_xi[i] / ls_xi[i], rel=1e-15)
    # the nonzero spans moved: mu = 2.5 damps, so phi0 leaves 1
    assert abs(phi0[1] - 1.0) > 1e-3 and abs(phi0[3] - 1.0) > 1e-3


def test_oracle_batch_integrates_once(monkeypatch):
    calls = []
    integrate = mp._ode.integrate_batch

    def counted(*args, **kwargs):
        calls.append(args[3].shape)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(mp._ode, "integrate_batch", counted)
    n = 5
    sigma = np.linspace(0.5, 2.0, n)
    mp.oracle_matrix_batch(np.linspace(1.5, 4.0, n), sigma, sigma + 3.0,
                           np.full(n, 0.7), np.full(n, 0.9))
    assert calls == [(2, 2, n)]


def test_phi_matches_oracle_small_sample():
    rng = np.random.default_rng(42)
    profs = (CONST, POLY, EXPO)
    for i in range(24):
        prof = profs[i % 3]
        mu = rng.uniform(1.0, 5.0)
        if min(abs(mu - r) for r in (1.0, 3.0, 5.0)) < 1e-3:
            mu += 0.01
        s = rng.uniform(0.0, 2.0)
        t = s + rng.uniform(0.0, 5.0)
        xi = 10.0 ** rng.uniform(-3, 0.5)
        got = mp.phi_values(mu, prof, s, t, xi)
        for entry, data in (("phi0", (1.0, 0.0)), ("phi1", (0.0, 1.0))):
            v, vp = mp.mode_ode_oracle(mu, prof, s, t, xi, *data, rtol=1e-12)
            g = getattr(got, entry).real
            assert abs(g - v.real) <= 1e-9 + 1e-7 * abs(v.real), (prof.kind, mu, s, t, xi)


def test_negative_half_integer_orders_match_oracle():
    # mu = 6 has orders -2.5 and -3.5, whose small-argument Y values come
    # from the series branch with cos(nu pi) = 0
    xi = np.geomspace(1e-7, 0.1, 7)
    got = mp.phi_values_grid(6.0, CONST, 0.0, 10.0, xi)
    oracle = mp.oracle_matrix_batch(6.0, xi * float(CONST.Lambda_at(0.0)),
                                    xi * float(CONST.Lambda_at(10.0)),
                                    xi * float(CONST.lambda_at(0.0)),
                                    xi * float(CONST.lambda_at(10.0)), rtol=1e-12)
    for g, o in zip(got, oracle):
        assert np.all(np.abs(g - o) <= 1e-9 * np.abs(o))


def test_time_derivative_consistency():
    h = 1e-5
    for mu, xi in ((2.5, 0.7), (4.0, 2.0)):
        t = 3.0
        plus = mp.phi_values(mu, CONST, 0.0, t + h, xi)
        minus = mp.phi_values(mu, CONST, 0.0, t - h, xi)
        mid = mp.phi_values(mu, CONST, 0.0, t, xi)
        for f, df in (("phi0", "dphi0"), ("phi1", "dphi1")):
            num = (getattr(plus, f).real - getattr(minus, f).real) / (2.0 * h)
            ref = getattr(mid, df).real
            assert num == pytest.approx(ref, rel=1e-5, abs=1e-8)


def test_semigroup_composition():
    for mu, prof in ((3.0, CONST), (1.7, POLY), (2.2, EXPO)):
        for s, r, t, xi in ((0.0, 2.0, 5.0, 1.3), (0.5, 1.0, 4.0, 0.02)):
            def mat(a, b):
                v = mp.phi_values(mu, prof, a, b, xi)
                return np.array([[v.phi0.real, v.phi1.real],
                                 [v.dphi0.real, v.dphi1.real]])

            err = np.max(np.abs(mat(r, t) @ mat(s, r) - mat(s, t)))
            assert err < 1e-8


def test_zero_mode_continuity():
    for mu in (1.0, 2.5):
        vals0 = mp.phi_values(mu, CONST, 0.0, 4.0, 0.0)
        vals_eps = mp.phi_values(mu, CONST, 0.0, 4.0, 1e-7)
        assert vals0.phi0 == 1.0
        assert vals0.dphi0 == 0.0
        assert vals_eps.phi1.real == pytest.approx(vals0.phi1.real, rel=1e-5)
        assert vals_eps.dphi1.real == pytest.approx(vals0.dphi1.real, rel=1e-4)


def test_zero_mode_against_oracle():
    # closed form vs direct small-xi integration
    for mu in (1.0, 3.0):
        v0 = mp.phi_values(mu, POLY, 0.5, 6.0, 0.0)
        v, vp = mp.mode_ode_oracle(mu, POLY, 0.5, 6.0, 1e-9, 0.0, 1.0, rtol=1e-12)
        assert v0.phi1.real == pytest.approx(v.real, rel=1e-6)
        assert v0.dphi1.real == pytest.approx(vp.real, rel=1e-6)


def test_unsupported_order():
    with pytest.raises(UnsupportedOrderError):
        mp.phi_values(25.0, CONST, 0.0, 1.0, 1.0)  # rho - 1 = -13


def test_classify_zone_examples():
    assert mp.classify_zone(0.5, CONST, 1.0, 3.0, 1.0) is mp.Zone.I1
    assert mp.classify_zone(0.5, CONST, 0.0, 9.0, 0.01) is mp.Zone.I3
    assert mp.classify_zone(0.5, CONST, 0.0, 9.0, 0.2) is mp.Zone.I2
    # boundaries go to the lower-indexed zone
    assert mp.classify_zone(0.5, CONST, 1.0, 3.0, 0.25) is mp.Zone.I1
    assert mp.classify_zone(0.5, CONST, 0.0, 9.0, 0.05) is mp.Zone.I2
    with pytest.raises(DomainError):
        mp.classify_zone(1.5, CONST, 0.0, 1.0, 1.0)


def test_certify_zone_bounds_smoke():
    spec = mp.ZoneSampleSpec(s_values=(0.0, 1.0), t_min=1.0, t_max=100.0,
                             t_per_decade=4, xi_per_decade=20, xi_cap=20.0)
    report = mp.certify_zone_bounds(4.0, CONST, 2.0, spec)
    assert set(report.families) == {"I1_sol_v0", "I1_sol_v1", "I1_en_v0",
                                    "I1_en_v1", "I23_sol_v0", "I23_sol_v1",
                                    "I23_en_v0", "I23_en_v1"}
    assert report.all_stable()
    for fam in report.families.values():
        assert fam.max_ratio() < 1e3

    report = mp.certify_zone_bounds(3.0, CONST, 1.0, spec)
    assert any(name.startswith("Lq_") for name in report.families)
    assert report.all_stable()


def test_certify_zone_bounds_lists_each_note_once():
    # below both borders (n(2/m-1) = 1, 2 + 1 = 3) neither L^q template
    # applies; each says so once, however many (s, t) are sampled
    spec = mp.ZoneSampleSpec(s_values=(0.0,), t_min=1.0, t_max=10.0, t_per_decade=4,
                             xi_per_decade=10, xi_cap=10.0)
    report = mp.certify_zone_bounds(0.5, CONST, 1.0, spec)
    assert len(report.families["I1_sol_v0"].samples) == 5
    assert report.notes == ["mu=0.5 < n(2/m-1): no L^q solution template",
                            "mu=0.5 < 2+n(2/m-1): no L^q energy template"]


def _hankel_modulus_sq(order, z):
    """|H+_order(z)|^2 for |order| = 3/2 and 5/2, where the modulus
    expansion (DLMF 10.18.17) terminates."""
    tail = {1.5: 1.0 + 1.0 / z**2, 2.5: 1.0 + 3.0 / z**2 + 9.0 / z**4}[abs(order)]
    return 2.0 / (math.pi * z) * tail


def test_phase_factors_are_the_cross_products_turned_by_the_phase():
    # mu = 4 (orders -3/2 and -5/2); from index lo on, sigma = Lambda(s) xi
    # crosses 1, where a pair switches to longdouble, and tau reaches 168
    s, t, lo = 0.5, 20.0, 3
    xi = np.geomspace(0.05, 8.0, 241)
    store = mp.NodeStore(4.0, CONST, xi)
    Lam_s, Lam_t = CONST.Lambda_at(s), CONST.Lambda_at(t)
    x = xi[lo:]
    assert Lam_s * x[0] < 1.0 < Lam_s * x[-1] and Lam_t * x[-1] >= 16.0
    factors = mp.phase_factors(store, s, t, lo)
    entries = mp.phi_values_grid(4.0, CONST, s, t, xi)
    phase = (Lam_t - Lam_s) * x
    terms = mp._entry_terms(store.rho, CONST.lambda_at(s), Lam_s, CONST.lambda_at(t), Lam_t)
    for w, entry, (scale, k, a, b) in zip(factors, entries, terms):
        # Im[W e^{i phi}] is the entry, to 1e-15 of max |W|
        assert np.abs((w * np.exp(1j * phase)).imag - entry[lo:]).max() <= 1e-15 * np.abs(w).max()
        # |W| = |scale| xi^k |H+_a(sigma)| |H+_b(tau)|: W keeps the whole
        # cross product, its real part included
        modulus = abs(scale) * x**k * np.sqrt(_hankel_modulus_sq(store.rho - a, Lam_s * x)
                                              * _hankel_modulus_sq(store.rho - b, Lam_t * x))
        assert np.allclose(np.abs(w), modulus, rtol=1e-13, atol=0.0)


def test_phase_factors_keep_the_node_at_s(bessel_points):
    # every call holds the nodes of its pair; the node at s, held from
    # index 0 and read by every call, keeps its values, so sigma is
    # evaluated once
    xi = np.geomspace(0.01, 5.0, 200)
    store = mp.NodeStore(4.0, CONST, xi)
    for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        mp.phase_factors(store, 0.0, t)
    assert bessel_points[0] == 7 * xi.size
    assert set(store.nodes) == {0.0, 6.0}


def test_a_read_holds_its_node_at_s_from_index_0(bessel_points):
    # a read the store does not cover holds its node at s from index 0 and
    # its node at t from the index it reads from, so later reads of the same
    # s from lower indices keep the node at s: sigma is evaluated once
    xi = np.geomspace(0.01, 5.0, 200)
    store = mp.NodeStore(4.0, CONST, xi)
    reads = ((1.0, 150), (2.0, 100), (3.0, 0))
    for t, lo in reads:
        mp.phase_factors(store, 0.0, t, lo)
        assert store.nodes[0.0].start == 0 and store.nodes[t].start == lo
    assert bessel_points[0] == xi.size + sum(xi.size - lo for _, lo in reads)


def _undeduplicated(mu, prof, s, t, xi):
    """Reference: the Hankel assembly applied to every entry of xi, repeats
    included, with boolean precision masks and no reuse of Bessel values:
    longdouble where sigma < _EXT_SIGMA at non-integer mu, float64 elsewhere."""
    xi = np.asarray(xi, dtype=float).ravel()
    out = [np.ones(xi.shape), np.zeros(xi.shape), np.zeros(xi.shape), np.ones(xi.shape)]
    if t > s:
        rho = mp.rho_of(mu)
        lam_s, lam_t = float(prof.lambda_at(s)), float(prof.lambda_at(t))
        Lam_s, Lam_t = float(prof.Lambda_at(s)), float(prof.Lambda_at(t))
        zero = xi == 0.0
        for o, v in zip(out, mp._zero_mode_values(mu, lam_s, lam_t, Lam_s, Lam_t)):
            o[zero] = v
        sigma, tau = Lam_s * xi, Lam_t * xi
        pref = Lam_t**rho / Lam_s ** (rho - 1.0)
        half_pi = float(mp._PI / 2.0)
        ext_sigma = 0.0 if float(mu).is_integer() else mp._EXT_SIGMA
        for mask, jy in ((~zero & (sigma < ext_sigma), mp.jy_extended),
                         (~zero & (sigma >= ext_sigma), mp._jy)):
            if not np.any(mask):
                continue
            js_r, ys_r, js_m, ys_m = jy(rho, sigma[mask])
            jt_r, yt_r, jt_m, yt_m = jy(rho, tau[mask])
            xe = xi[mask]
            out[0][mask] = (-half_pi * pref) * ((js_m * yt_r - ys_m * jt_r) * xe).astype(float)
            out[1][mask] = (half_pi * pref / lam_s) * (js_r * yt_r - ys_r * jt_r).astype(float)
            out[2][mask] = (-half_pi * lam_t * pref) * (
                (js_m * yt_m - ys_m * jt_m) * xe**2).astype(float)
            out[3][mask] = (half_pi * lam_t / lam_s * pref) * (
                (js_r * yt_m - ys_r * jt_m) * xe).astype(float)
    return out


def _assert_exact(mu, prof, s, t, xi):
    got = mp.phi_values_grid(mu, prof, s, t, xi)
    ref = _undeduplicated(mu, prof, s, t, xi)
    for g, r in zip(got, ref):
        r = r.reshape(np.shape(xi))
        assert g.shape == np.shape(xi) and g.dtype == np.float64
        assert np.array_equal(g, r)
    return got


def test_dedup_exact_on_3d_grid():
    from dampwave.solver import Grid

    xi = Grid(n=3, N=32, L=10.0).xi
    assert np.count_nonzero(xi == 0.0) == 1
    assert len(np.unique(xi)) < xi.size
    for mu, prof, s, t in ((4.0, CONST, 0.0, 0.05), (2.3, POLY, 0.4, 1.1),
                           (0.6, EXPO, 1.0, 3.0)):
        _assert_exact(mu, prof, s, t, xi)


def test_dedup_exact_shuffled_with_fallback():
    rng = np.random.default_rng(7)
    xi = np.concatenate([rng.uniform(0.0, 4.0, 40), [0.0, 0.0, 1.5, 1.5]])
    xi = np.concatenate([xi, xi[:10]])
    rng.shuffle(xi)
    _assert_exact(3.0, CONST, 0.2, 1.3, xi)
    # the mode that once took the ODE fallback now makes the whole call raise
    xi = np.concatenate([xi, [2.0 * mp.TAU_MAX]])
    rng.shuffle(xi)
    with pytest.raises(DomainError, match="TAU_MAX"):
        mp.phi_values_grid(3.0, CONST, 0.2, 0.2 + 1e-7, xi)


@pytest.mark.parametrize("s, t, xi, match", [
    (0.0, 1.0, [np.nan], "finite"),
    (0.0, 1.0, [np.inf], "finite"),
    (0.0, 1.0, [1.0, np.nan], "finite"),
    # tau = 2 TAU_MAX over a short interval: the oracle's phase span would be ~2
    (0.2, 0.2 + 1e-7, [1.0, 2.0 * mp.TAU_MAX], "TAU_MAX"),
])
def test_non_finite_xi_and_phase_beyond_tau_max_raise(s, t, xi, match):
    with pytest.raises(DomainError, match=match):
        mp.phi_values_grid(4.0, CONST, s, t, np.array(xi))


@pytest.mark.parametrize("xi", [np.zeros(0), np.zeros((0, 3)), np.float64(0.7),
                                np.array([0.0]), np.array([2.5]), np.ones((1, 1))])
def test_dedup_exact_degenerate_shapes(xi):
    _assert_exact(2.5, CONST, 0.5, 2.0, xi)
    _assert_exact(2.5, CONST, 2.0, 2.0, xi)


@pytest.mark.parametrize("mu, prof", [(4.0, CONST), (3.0, POLY), (0.6, EXPO), (4.5, CONST)])
def test_store_matches_reference_across_pairs(mu, prof, bessel_points):
    # repeats, a zero mode, and |xi| crossing Lambda(t)|xi| = 1 between the
    # times, so nodes serve pairs with different extended prefixes
    xi = np.concatenate([[0.0], np.geomspace(0.05, 20.0, 300), [0.5, 0.5, 0.0]])
    store = mp.NodeStore(mu, prof, xi)
    times = [0.0, 0.3, 0.6, 0.6, 0.9, 1.5, 3.0, 3.5]
    for s, t in [*zip(times, times[1:]), (0.3, 3.5), (0.9, 1.5)]:
        calls = bessel_points[1]
        got = mp.phi_values_grid(mu, prof, s, t, xi, store=store)
        # what a pair's nodes lack, both of them fresh for the first pair,
        # costs at most one Bessel call per precision, and integer mu takes
        # float64 alone
        assert bessel_points[1] - calls <= (1 if mu.is_integer() else 2)
        for g, r in zip(got, _undeduplicated(mu, prof, s, t, xi)):
            assert np.array_equal(g, r)
        # a pair that reads a node the store lacks holds that pair's nodes
        if t > s:
            assert set(store.nodes) == {s, t}


def _ext_points(prof, xi, times):
    """Longdouble points of prefetching the pairs of consecutive ``times`` on
    xi at non-integer mu: each pair's nodes take the prefix sigma < 1 of its
    node at s, so each node the largest prefix of a pair it is in."""
    nonzero = np.unique(xi[xi > 0.0])
    prefix = [np.count_nonzero(prof.Lambda_at(s) * nonzero < mp._EXT_SIGMA) for s in times[:-1]]
    return prefix[0] + sum(prefix)


@pytest.mark.parametrize("mu, prof", [(4.0, CONST), (3.0, POLY), (4.5, CONST)])
def test_prefetched_nodes_serve_pairs_in_any_order(mu, prof, bessel_points):
    # the nodes of three Duhamel steps, with |xi| crossing Lambda(t)|xi| = 1
    # between the times, so that neighbours differ in extended prefix at
    # non-integer mu; integer mu takes float64 alone, one call per batch
    precisions = 1 if mu.is_integer() else 2
    xi = np.concatenate([[0.0], np.geomspace(0.05, 20.0, 300), [0.5, 0.5, 0.0]])
    store = mp.NodeStore(mu, prof, xi)
    times = [0.0, 0.15, 0.3, 0.6, 0.9, 1.5, 2.1]
    store.prefetch(list(itertools.pairwise(times)))
    assert bessel_points[1] == precisions
    assert bessel_points[2] == (0 if mu.is_integer() else _ext_points(prof, xi, times))
    # no pairs: nothing is evaluated and every node is kept
    held = dict(store.nodes)
    store.prefetch([])
    assert store.nodes == held and bessel_points[1] == precisions
    # a step's end before its midpoint, and two pairs taken in reverse
    pairs = [(0.15, 0.3), (0.0, 0.15), (1.5, 2.1), (0.9, 1.5), (0.6, 0.9), (0.3, 0.6)]
    got = [mp.phi_values_grid(mu, prof, s, t, xi, store=store) for s, t in pairs]
    assert bessel_points[1] == precisions
    # the next batch keeps the node it starts from and its values
    kept = store.nodes[2.1]
    store.prefetch([(2.1, 2.4), (2.4, 2.7)])
    assert store.nodes[2.1] is kept and list(store.nodes) == [2.1, 2.4, 2.7]
    pairs += [(2.4, 2.7), (2.1, 2.4)]
    got += [mp.phi_values_grid(mu, prof, s, t, xi, store=store) for s, t in pairs[-2:]]
    assert bessel_points[1] == 2 * precisions
    for (s, t), entries in zip(pairs, got):
        for g, r in zip(entries, mp.phi_values_grid(mu, prof, s, t, xi)):
            assert np.array_equal(g, r)


@pytest.mark.parametrize("mu, prof", [(4.0, CONST), (3.0, POLY), (4.5, CONST)])
def test_prefetched_store_off_batch_and_out_of_order(mu, prof):
    xi = np.concatenate([[0.0], np.geomspace(0.05, 20.0, 300), [0.5, 0.5, 0.0]])
    store = mp.NodeStore(mu, prof, xi)
    store.prefetch(list(itertools.pairwise([0.0, 0.3, 0.6, 0.9, 1.5, 3.0, 3.5])))
    # a pair in the batch, a time off it (0.45), which gets a node of its
    # own, one asked before a time it follows (0.6 after 0.9), a pair of
    # times that are not neighbours in the batch, then in order
    pairs = [(0.0, 0.3), (0.3, 0.45), (0.9, 1.5), (0.6, 0.9), (0.0, 3.5),
             (1.5, 3.0), (3.0, 3.5)]
    for s, t in pairs:
        got = mp.phi_values_grid(mu, prof, s, t, xi, store=store)
        for g, r in zip(got, mp.phi_values_grid(mu, prof, s, t, xi)):
            assert np.array_equal(g, r)


def test_prefetched_store_leaves_rejected_phases_to_the_pair():
    # the last node's phases overflow to inf: only the pair that reads it raises
    xi = np.array([0.5, 1.0, 2.0])
    store = mp.NodeStore(4.0, CONST, xi)
    with np.errstate(over="ignore"):
        store.prefetch([(0.0, 1.0), (1.0, 1e308)])
        mp.phi_values_grid(4.0, CONST, 0.0, 1.0, xi, store=store)
        with pytest.raises(DomainError, match="TAU_MAX"):
            mp.phi_values_grid(4.0, CONST, 1.0, 1e308, xi, store=store)


@pytest.mark.parametrize("mu", [4.0, 4.5])
def test_a_run_read_evaluates_no_phase_above_tau_max(mu, monkeypatch):
    # the run's own phases reach 9.8e5 and the store's 2e7: the read fills
    # its nodes' float64 suffixes up to TAU_MAX only, and returns the run's
    # values; a run that reaches past TAU_MAX raises
    args = []
    for name in ("_jy", "jy_extended"):
        def recorded(nu, tau, fn=getattr(mp, name)):
            args.append(np.asarray(tau, dtype=float))
            return fn(nu, tau)
        monkeypatch.setattr(mp, name, recorded)
    xi = np.geomspace(0.5, 20, 50)
    store = mp.NodeStore(mu, CONST, xi)
    got = mp.phi_values_grid(mu, CONST, 1.0, 1e6, xi[:10], store=store)
    assert max(float(a.max()) for a in args) <= mp.TAU_MAX
    for g, r in zip(got, mp.phi_values_grid(mu, CONST, 1.0, 1e6, xi[:10].copy())):
        assert np.array_equal(g, r)
    with pytest.raises(DomainError, match="TAU_MAX"):
        mp.phi_values_grid(mu, CONST, 1.0, 1e6, xi[:45], store=store)
    assert max(float(a.max()) for a in args) <= mp.TAU_MAX


def _longdouble_entries(mu, prof, s, t, x):
    """Per entry, its value with every Bessel value and cross product in
    longdouble, and its envelope |scale| x^k |H_a(sigma)| |H_b(tau)|."""
    rho = mp.rho_of(mu)
    Lam_s, Lam_t = float(prof.Lambda_at(s)), float(prof.Lambda_at(t))
    at_sigma, at_tau = mp.jy_extended(rho, Lam_s * x), mp.jy_extended(rho, Lam_t * x)
    out = []
    for scale, k, a, b in mp._entry_terms(rho, prof.lambda_at(s), Lam_s, prof.lambda_at(t), Lam_t):
        j, y, j_t, y_t = at_sigma[2 * a], at_sigma[2 * a + 1], at_tau[2 * b], at_tau[2 * b + 1]
        out.append(((scale * x**k * (j * y_t - y * j_t)).astype(float),
                    (abs(scale) * x**k * np.hypot(j, y) * np.hypot(j_t, y_t)).astype(float)))
    return out


@pytest.mark.parametrize("mu", range(1, 10))
def test_integer_mu_entries_are_float64_within_the_envelope(mu, bessel_points):
    # at integer mu the cross products do not cancel, and float64 keeps each
    # entry within 5e-14 + 2e-16 tau of its envelope: the series branch's
    # own error near tau = 7 (~4e-14) plus the phase's rounding, which grows
    # with tau (measured: 4e-14 + 8.5e-17 tau at most on these cases)
    x = np.geomspace(1e-6, 1.0, 400)
    for s in (0.0, 2.0):
        Lam_s = float(CONST.Lambda_at(s))
        for ratio in (1.001, 1.1, 3.0, 100.0, 1e4):
            t = ratio * Lam_s - CONST.lambda0
            tau = float(CONST.Lambda_at(t)) * x
            got = mp.phi_values_grid(float(mu), CONST, s, t, x)
            for g, (ref, envelope) in zip(got, _longdouble_entries(float(mu), CONST, s, t, x)):
                assert np.all(np.abs(g - ref) <= (5e-14 + 2e-16 * tau) * envelope), (s, ratio)
    # jy_extended was called only for the references, two calls per pair
    assert bessel_points[2] == 2 * 2 * 5 * x.size


def test_store_for_other_inputs_is_rejected():
    xi = np.linspace(0.0, 2.0, 9)
    store = mp.NodeStore(4.0, CONST, xi)
    for args in ((3.0, CONST, xi), (4.0, POLY, xi), (4.0, CONST, xi.copy())):
        with pytest.raises(ValueError, match="store"):
            mp.phi_values_grid(args[0], args[1], 0.0, 1.0, args[2], store=store)


def test_run_of_a_used_store_matches_its_own_store():
    # the run form reads a contiguous run of a store's nonzero |xi| from the
    # store's nodes; runs across sigma = Lambda(s)|xi| = 1, read from a
    # store that other pairs and runs have used, equal the same values
    # through a store of their own
    xi = np.concatenate([[0.0], np.geomspace(0.05, 20.0, 300), [0.5, 0.5, 0.0]])
    store = mp.NodeStore(4.0, CONST, xi)
    mp.phi_values_grid(4.0, CONST, 0.0, 0.3, xi, store=store)
    mp.phase_factors(store, 0.3, 0.6, 40)
    for s, t, a, b in ((0.0, 0.3, 0, 300), (0.3, 0.6, 40, 250), (0.3, 0.6, 10, 120),
                       (0.6, 3.5, 150, 151), (0.0, 3.5, 5, 290)):
        run = store.nonzero[a:b]
        got = mp.phi_values_grid(4.0, CONST, s, t, run, store=store)
        for g, r in zip(got, mp.phi_values_grid(4.0, CONST, s, t, run.copy())):
            assert g.shape == run.shape and g.dtype == np.float64
            assert np.array_equal(g, r)
    # a strided or shifted copy of a run is not a run of the store
    run = store.nonzero[10:50]
    for other in (store.nonzero[10:50:2], np.nextafter(run, np.inf), run + 1e-3):
        with pytest.raises(ValueError, match="store"):
            mp.phi_values_grid(4.0, CONST, 0.0, 1.0, other, store=store)
    # an empty run gives empty entries
    for e in mp.phi_values_grid(4.0, CONST, 0.0, 1.0, store.nonzero[:0], store=store):
        assert e.shape == (0,) and e.dtype == np.float64


def test_equal_xi_gives_equal_entries():
    from dampwave.solver import Grid

    xi = Grid(n=2, N=32, L=6.0).xi
    values, inverse = np.unique(xi.ravel(), return_inverse=True)
    for e in mp.phi_values_grid(4.0, CONST, 0.0, 0.3, xi):
        per_value = np.full(values.shape, np.nan)
        per_value[inverse] = e.ravel()
        assert np.array_equal(e.ravel(), per_value[inverse])


def test_public_names_resolve():
    import dampwave

    assert [name for name in dampwave.__all__ if not hasattr(dampwave, name)] == []
