"""Spectral-solver tests: data, norms, exact linear steps, Duhamel, weights."""

import itertools
import math

import numpy as np
import pytest

from dampwave import profiles
from dampwave import solver as sv
from dampwave.config import validate_config
from dampwave.errors import DomainError, ValidationError

CONST = profiles.constant_profile()


def grid1d(N=256, L=12.0):
    return sv.Grid(n=1, N=N, L=L)


def test_grid_validation():
    with pytest.raises(DomainError):
        sv.Grid(n=4, N=64, L=1.0)
    with pytest.raises(DomainError):
        sv.Grid(n=1, N=48, L=1.0)  # not a power of two
    with pytest.raises(DomainError):
        sv.Grid(n=1, N=8, L=1.0)
    # a box with an infinite grid spacing 2L/N
    for N, L in ((4096, 1e308), (256, 1.5e308), (64, math.inf)):
        with pytest.raises(DomainError, match="finite grid spacing"):
            sv.Grid(n=1, N=N, L=L)
    big = validate_config({"profile": {"kind": "constant"}, "mu": 4.0, "T": 1e300,
                           "grid": {"n": 1, "N": 4096}})
    assert big.grid.L == pytest.approx(1e300) and math.isfinite(big.grid.h)


@pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 16)])
def test_grid_arrays_match_per_axis_loops(n, N):
    # reference: each axis's 1-D array reshaped to broadcast along axis d,
    # summed or combined in axis order as the open meshes are
    grid = sv.Grid(n=n, N=N, L=7.0)

    def along(d, a):
        return a.reshape([a.size if e == d else 1 for e in range(n)])

    freq = [np.fft.fftfreq(N, d=grid.h)] * (n - 1) + [np.fft.rfftfreq(N, d=grid.h)]
    ks = [along(d, 2.0 * math.pi * f) for d, f in enumerate(freq)]
    index = [np.abs(np.fft.fftfreq(N, d=1.0 / N))] * (n - 1) + [np.arange(N // 2 + 1)]
    r2, mag2 = np.zeros(grid.shape), np.zeros(grid.spectral_shape)
    keep = np.ones(grid.spectral_shape, dtype=bool)
    for d in range(n):
        r2 = r2 + along(d, grid.axis**2)
        mag2 = mag2 + ks[d] ** 2
        keep = keep & (along(d, index[d]) <= N // 3)
    for got, ref in [(grid.radius, np.sqrt(r2)), (grid.xi, np.sqrt(mag2)),
                     (grid.dealias_mask, keep), *zip(grid.wavenumbers, ks)]:
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref)


def test_initial_data_norms():
    grid = grid1d(N=1024, L=16.0)
    u0, u1 = sv.make_initial_data(grid, "gaussian", amplitude=0.1, width=1.0)
    assert np.all(u1 == 0.0)
    l1 = np.sum(np.abs(u0)) * grid.cell_volume
    assert l1 == pytest.approx(0.1 * math.sqrt(2.0 * math.pi), abs=1e-6)
    l2 = math.sqrt(np.sum(u0**2) * grid.cell_volume)
    assert l2 == pytest.approx(0.1 * math.sqrt(math.sqrt(math.pi)), abs=1e-6)


def test_initial_data_zero_amplitude_and_width_check():
    grid = grid1d()
    u0, u1 = sv.make_initial_data(grid, "gaussian", amplitude=0.0, width=1.0)
    assert not np.any(u0) and not np.any(u1)
    with pytest.raises(DomainError):
        sv.make_initial_data(grid, "gaussian", amplitude=1.0, width=4.0)
    with pytest.raises(DomainError):
        sv.make_initial_data(grid, "nope", amplitude=1.0, width=1.0)


def test_bump_is_compact_and_mode_mix_mean_zero():
    grid = grid1d()
    u0, _ = sv.make_initial_data(grid, "bump", amplitude=0.5, width=2.0)
    assert np.max(np.abs(u0)) == pytest.approx(0.5, rel=1e-12)
    assert np.all(u0[grid.radius >= 2.0] == 0.0)
    um, _ = sv.make_initial_data(grid, "mode_mix", amplitude=0.3, width=0.5, seed=5)
    assert abs(np.mean(um)) < 1e-14
    assert np.max(np.abs(um)) == pytest.approx(0.3, rel=1e-12)
    um2, _ = sv.make_initial_data(grid, "mode_mix", amplitude=0.3, width=0.5, seed=5)
    assert np.array_equal(um, um2)  # deterministic given seed


def test_parseval_roundtrip_and_spectral_gradient():
    grid = grid1d()
    rng = np.random.default_rng(1)
    u = rng.standard_normal(grid.shape)
    back = grid.ifft(grid.fft(u))
    assert np.max(np.abs(back - u)) < 1e-12 * max(1.0, np.max(np.abs(u)))
    # single mode: ||grad u|| = k ||u||
    k = 2.0 * math.pi * 3 / (2 * grid.L)  # an exact grid mode
    u = np.sin(k * grid.axis)
    ns = sv.norms(sv.FieldState(u=u, ut=0 * u, t=0.0), CONST, 2.0, grid)
    assert ns["H1_seminorm"] == pytest.approx(k * ns["L2"], rel=1e-12)


def test_norms_constant_field():
    grid = grid1d(L=5.0)
    c = 0.37
    state = sv.FieldState(u=np.full(grid.shape, c), ut=np.zeros(grid.shape), t=0.0)
    ns = sv.norms(state, CONST, 2.0, grid, m_list=(1.0, 3.0))
    assert ns["L1"] == pytest.approx(c * 2.0 * grid.L, rel=1e-12)
    assert ns["L3"] == pytest.approx((c**3 * 2.0 * grid.L) ** (1.0 / 3.0), rel=1e-12)
    assert ns["Linf"] == pytest.approx(c)


@pytest.mark.parametrize("m_list", [[2.0000001], [3.0, 3.0000004], [1.0 + 1e-9, 5.0]])
def test_m_list_values_that_print_alike_are_rejected(m_list):
    grid = grid1d(N=64)
    state = sv.FieldState(u=np.sin(grid.axis), ut=np.zeros(grid.shape), t=0.0)
    with pytest.raises(DomainError, match="share the track name"):
        sv.norms(state, CONST, 2.0, grid, m_list=m_list)
    with pytest.raises(ValidationError, match="m_list values"):
        validate_config(dict(LINEAR_RUN, m_list=m_list))
    # one value given twice, or 1 and 2 given, still name one track each
    ns = sv.norms(state, CONST, 2.0, grid, m_list=[3, 3.0, 2.0, 1.0])
    assert sorted(ns) == ["H1_seminorm", "L1", "L2", "L3", "Linf", "energy"]


def test_linear_step_identity_and_composition():
    grid = grid1d()
    u0, _ = sv.make_initial_data(grid, "gaussian", amplitude=0.2, width=1.0)
    state = sv.FieldState(u=u0, ut=np.zeros_like(u0), t=0.0)
    assert sv.linear_step(state, CONST, 3.0, grid, 0.0) is state
    one = sv.linear_step(state, CONST, 3.0, grid, 2.0)
    two = sv.linear_step(sv.linear_step(state, CONST, 3.0, grid, 1.0),
                         CONST, 3.0, grid, 1.0)
    assert np.max(np.abs(one.u - two.u)) < 1e-9
    assert np.max(np.abs(one.ut - two.ut)) < 1e-9


def test_linear_step_single_mode_mu2():
    grid = grid1d(N=512, L=4.0 * math.pi)
    k = 2.0 * math.pi * 5 / (2.0 * grid.L)
    ut0 = np.sin(k * grid.axis)
    state = sv.FieldState(u=np.zeros_like(ut0), ut=ut0, t=0.0)
    out = sv.linear_step(state, CONST, 2.0, grid, 3.0)
    ref = math.sin(3.0 * k) / (k * (1.0 + 3.0)) * np.sin(k * grid.axis)
    assert np.max(np.abs(out.u - ref)) < 1e-8


def test_transformed_field_matches_free_wave():
    # mu=2, lambda=1: (1+t) u solves the free wave equation
    grid = grid1d(N=1024, L=24.0)
    u0, _ = sv.make_initial_data(grid, "gaussian", amplitude=0.3, width=1.0)
    state = sv.FieldState(u=u0, ut=np.zeros_like(u0), t=0.0)
    t = 7.0
    out = sv.linear_step(state, CONST, 2.0, grid, t)
    # free wave with v(0) = u0, v_t(0) = u1 + u0 = u0
    xi = grid.xi
    u0h = grid.fft(u0)
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(xi > 0.0, np.sin(t * xi) / np.where(xi > 0, xi, 1.0), t)
    vh = np.cos(t * xi) * u0h + sinc * u0h
    ref = grid.ifft(vh) / (1.0 + t)
    assert np.max(np.abs(out.u - ref)) < 1e-7


def test_duhamel_zero_nonlinearity_is_linear():
    grid = grid1d()
    u0, _ = sv.make_initial_data(grid, "gaussian", amplitude=0.2, width=1.0)
    state = sv.FieldState(u=u0, ut=np.zeros_like(u0), t=0.0)
    nl = sv.NonlinearitySpec(form="zero")
    a = sv.duhamel_step(state, CONST, 3.0, grid, nl, 0.5)
    b = sv.linear_step(state, CONST, 3.0, grid, 0.5)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.ut, b.ut)


def test_duhamel_self_convergence_second_order():
    grid = grid1d(N=512, L=16.0)
    u0, _ = sv.make_initial_data(grid, "gaussian", amplitude=0.5, width=1.0)
    nl = sv.NonlinearitySpec(form="signed_power", p=3.0, gamma=0.0)

    def advance(dt, steps):
        st = sv.FieldState(u=u0, ut=np.zeros_like(u0), t=0.0)
        for _ in range(steps):
            st = sv.duhamel_step(st, CONST, 2.0, grid, nl, dt)
        return st.u

    ref = advance(0.025, 64)
    err_big = np.max(np.abs(advance(0.2, 8) - ref))
    err_small = np.max(np.abs(advance(0.1, 16) - ref))
    assert err_big / err_small == pytest.approx(4.0, rel=0.5)


def test_duhamel_cubic_amplitude_scaling():
    grid = grid1d(N=512, L=16.0)
    nl = sv.NonlinearitySpec(form="signed_power", p=3.0, gamma=0.0)
    dt = 0.01

    def increment(amp):
        u0, _ = sv.make_initial_data(grid, "gaussian", amplitude=amp, width=1.0)
        st = sv.FieldState(u=u0, ut=np.zeros_like(u0), t=0.0)
        full = sv.duhamel_step(st, CONST, 2.0, grid, nl, dt)
        lin = sv.linear_step(st, CONST, 2.0, grid, dt)
        return np.max(np.abs(full.u - lin.u))

    ratio = increment(0.2) / increment(0.1)
    assert ratio == pytest.approx(8.0, rel=0.05)  # c^3 with c = 2


def test_duhamel_frozen_source_matches_quadrature():
    grid = grid1d(N=256, L=10.0)
    gx = np.exp(-grid.radius**2)

    class FrozenSource:
        form = "frozen"

        def prefactor(self, profile, t):
            return 1.0 + 0.5 * t

        def g(self, u):
            return gx

    mu = 2.5
    from dampwave.multipliers import phi_values_grid

    ghat = grid.fft(gx) * grid.dealias_mask
    st = sv.FieldState(u=np.zeros(grid.shape), ut=np.zeros(grid.shape), t=0.0)

    def defect(dt):
        stepped = sv.duhamel_step(st, CONST, mu, grid, FrozenSource(), dt)
        nodes = 161
        acc = np.zeros(grid.spectral_shape, dtype=complex)
        for i, s in enumerate(np.linspace(0.0, dt, nodes)):
            w = (0.5 if i in (0, nodes - 1) else 1.0) * dt / (nodes - 1)
            _, p1, _, _ = phi_values_grid(mu, CONST, s, dt, grid.xi)
            acc += w * p1 * (1.0 + 0.5 * s) * ghat
        ref = grid.ifft(acc)
        return np.max(np.abs(stepped.u - ref)), np.max(np.abs(ref))

    # dt within the resolved regime of the step-size rule (0.25 h / lambda)
    err_big, ref_big = defect(0.04)
    err_small, _ = defect(0.02)
    assert err_big < 0.02 * ref_big
    # the Duhamel integral itself is O(dt^2), so the one-step midpoint
    # defect is O(dt^3): halving dt shrinks it ~8x
    assert err_big / max(err_small, 1e-300) == pytest.approx(8.0, rel=0.6)


def test_energy_monotonic_constant_speed():
    raw = {"profile": {"kind": "constant"}, "mu": 2.0,
           "grid": {"n": 1, "N": 512}, "T": 20.0,
           "data": {"kind": "gaussian", "amplitude": 0.1, "width": 1.0}}
    cfg = validate_config(raw)
    series, _ = sv.simulate(cfg)
    en = series.tracks["energy"]
    assert np.all(np.diff(en) <= 1e-10 * en[0])


def test_finite_propagation():
    # the bump's spectrum decays like exp(-c sqrt(k)); N=4096 pushes the
    # spectral representation error below the 1e-8 cone threshold
    raw = {"profile": {"kind": "constant"}, "mu": 3.0,
           "grid": {"n": 1, "N": 4096}, "T": 15.0,
           "data": {"kind": "bump", "amplitude": 0.2, "width": 2.0}}
    cfg = validate_config(raw)
    series, _ = sv.simulate(cfg)
    assert np.nanmax(series.tracks["cone_excess"]) <= 1e-8


def test_simulate_zero_data():
    raw = {"profile": {"kind": "constant"}, "mu": 2.0,
           "grid": {"n": 1, "N": 256}, "T": 3.0,
           "data": {"kind": "gaussian", "amplitude": 0.0, "width": 1.0}}
    cfg = validate_config(raw)
    series, final = sv.simulate(cfg)
    assert np.all(series.tracks["L2"] == 0.0)
    assert not isinstance(final, sv.BlowupRecord)


BLOWUP_RUN = {"profile": {"kind": "constant"}, "mu": 4.0,
              "grid": {"n": 1, "N": 512}, "T": 30.0,
              "nonlinearity": {"form": "absolute_power", "p": 2.2, "gamma": 0.0},
              "data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0}}


def test_blowup_detection_and_record():
    cfg = validate_config(BLOWUP_RUN)
    series, final = sv.simulate(cfg)
    assert isinstance(final, sv.BlowupRecord)
    assert math.isfinite(final.t_star) and final.t_star < 30.0
    assert series.tracks["blowup_flag"][-1] == 1.0


@pytest.mark.parametrize("m_list, weighted, extra", [
    ([3.0], {}, ["L3"]),
    ([1.0, 2.0, 1.5], {"enabled": True, "mu": 2.5}, ["L1.5", "weighted_L2", "weighted_saturated"]),
])
def test_simulate_records_the_norms_it_is_given(m_list, weighted, extra):
    raw = {"profile": {"kind": "constant"}, "mu": 3.0, "grid": {"n": 1, "N": 256}, "T": 2.0,
           "nonlinearity": {"form": "signed_power", "p": 3.0},
           "data": {"kind": "gaussian", "amplitude": 0.2, "width": 1.0},
           "m_list": m_list, "weighted": weighted}
    cfg = validate_config(raw)
    series, final = sv.simulate(cfg)
    base = ["H1_seminorm", "L1", "L2", "Linf", "blowup_flag", "cone_excess", "energy"]
    assert sorted(series.tracks) == sorted(base + extra)
    ns = sv.norms(final, CONST, 3.0, cfg.grid, m_list=m_list, weighted=cfg.weighted)
    assert sorted(ns) == sorted(set(base + extra) - {"blowup_flag", "cone_excess"})
    for name, value in ns.items():
        assert series.tracks[name][-1] == value, name


def test_structural_scaling_is_lambda_squared_times_Lambda_to_gamma():
    poly = profiles.polynomial_profile(2.0)
    nl = sv.NonlinearitySpec(form="signed_power", p=3.0, gamma=0.5, scaling="structural")
    for t in (0.0, 0.3, 2.0, 17.0):
        ref = float(poly.lambda_at(t)) ** 2 * float(poly.Lambda_at(t)) ** 0.5
        assert nl.prefactor(poly, t) == pytest.approx(ref, rel=1e-15)
    # at constant speed with lambda0 = 1, lambda = 1 and Lambda = 1 + t: the
    # structural run is the plain run
    raw = {"profile": {"kind": "constant"}, "mu": 3.0, "grid": {"n": 1, "N": 256}, "T": 2.0,
           "data": {"kind": "gaussian", "amplitude": 0.3, "width": 1.0}}
    runs = [sv.simulate(validate_config(dict(raw, nonlinearity={
        "form": "signed_power", "p": 3.0, "gamma": 0.5, "scaling": scaling})))[0]
        for scaling in ("plain", "structural")]
    assert np.array_equal(runs[0].times, runs[1].times)
    assert runs[0].tracks.keys() == runs[1].tracks.keys()
    for name, track in runs[0].tracks.items():
        assert np.array_equal(track, runs[1].tracks[name]), name


@pytest.mark.parametrize("field", ["u", "uth"])
def test_blowup_flags_a_non_finite_field(field):
    grid = grid1d(N=64)
    u, uth = np.sin(grid.axis), np.zeros(grid.spectral_shape, dtype=complex)
    {"u": u, "uth": uth}[field][5] = np.inf
    record = sv._blowup(sv.FieldState(u=u, uth=uth, t=0.7, grid=grid), grid, 1e6)
    peak = float(np.max(np.abs(u[np.isfinite(u)])))
    assert record == sv.BlowupRecord(t_star=0.7, reason="non-finite field", peak=peak)


@pytest.mark.parametrize("factor, reason", [(1e6, "amplitude threshold"),
                                            (1e300, "nonlinearity overflow")])
def test_blowup_time_is_the_detecting_step(monkeypatch, factor, reason):
    steps = []
    duhamel_step = sv.duhamel_step

    def recorded(*args, **kwargs):
        out = duhamel_step(*args, **kwargs)
        steps.append(out.t if out.blowup_t is None else out.blowup_t)
        return out

    monkeypatch.setattr(sv, "duhamel_step", recorded)
    cfg = validate_config(dict(BLOWUP_RUN, blowup_factor=factor))
    series, final = sv.simulate(cfg)
    assert final.reason == reason
    # the run stops at the step that detected the blow-up and dates it there
    assert final.t_star == steps[-1] == series.times[-1]
    if reason == "amplitude threshold":
        # here that step lies between two output times
        assert final.t_star not in sv.output_times(cfg.T, cfg.samples_per_decade)


def test_realness_through_steps():
    grid = grid1d()
    u0, _ = sv.make_initial_data(grid, "mode_mix", amplitude=0.1, width=0.5, seed=3)
    st = sv.FieldState(u=u0, ut=np.zeros_like(u0), t=0.0)
    nl = sv.NonlinearitySpec(form="signed_power", p=2.5, gamma=0.0)
    for _ in range(5):
        st = sv.duhamel_step(st, CONST, 2.5, grid, nl, 0.05)
    assert st.u.dtype == np.float64 and st.ut.dtype == np.float64
    assert np.all(np.isfinite(st.u))


def test_weight_identity_residual():
    grid = sv.Grid(n=1, N=64, L=2.0)
    for prof in (CONST, profiles.polynomial_profile(2.0),
                 profiles.exponential_profile(1.0)):
        for mu in (0.0, 3.0):
            chk = sv.weight_identity_residual(prof, mu, grid, 2.0)
            assert chk.residual <= 1e-12
            assert chk.max_psi_t <= 0.0
    ts = np.linspace(0.0, 10.0, 401)
    custom = profiles.custom_profile(ts, 1.0 + 0.3 * ts)
    chk = sv.weight_identity_residual(custom, 3.0, grid, 2.0)
    assert chk.residual <= 1e-6


def test_weighted_norms_closed_form_and_flag():
    grid = sv.Grid(n=1, N=2048, L=8.0)
    eps, w = 0.1, 0.5
    u0 = eps * np.exp(-grid.radius**2 / (2.0 * w * w))
    state = sv.FieldState(u=u0, ut=np.zeros_like(u0), t=0.0)
    spec = sv.WeightedNormSpec(enabled=True, mu=2.0)
    ns = sv.norms(state, CONST, 2.0, grid, weighted=spec)
    # integrand exponent collapses to -(1/w^2 - mu) x^2 = -2 x^2 here, so
    # ||u0||_{L2(omega)}^2 = eps^2 sqrt(pi/2)
    ref = eps * math.sqrt(math.sqrt(math.pi / 2.0))
    assert ns["weighted_L2"] == pytest.approx(ref, rel=1e-10)
    assert not ns["weighted_saturated"]
    # width 1: divergent on the line, finite on the box -> flagged
    u0 = eps * np.exp(-grid.radius**2 / 2.0)
    state = sv.FieldState(u=u0, ut=np.zeros_like(u0), t=0.0)
    ns = sv.norms(state, CONST, 2.0, grid, weighted=spec)
    assert ns["weighted_saturated"]
    assert math.isfinite(ns["weighted_L2"])


def test_duhamel_step_evaluates_distinct_modes_once(bessel_points):
    grid = sv.Grid(n=3, N=32, L=10.0)
    u0, _ = sv.make_initial_data(grid, "gaussian", amplitude=0.1, width=1.0, seed=0)
    st = sv.FieldState(u=u0, ut=np.zeros_like(u0), t=0.0)
    nl = sv.NonlinearitySpec(form="signed_power", p=2.0, gamma=0.0)
    sv.duhamel_step(st, CONST, 4.0, grid, nl, 0.05)
    # two half-step multipliers, each one call (both orders) at sigma and at tau
    assert 0 < bessel_points[0] <= 4 * len(np.unique(grid.xi))


def test_radial_norm_evaluates_every_node(bessel_points, monkeypatch):
    _radial_norm_reads(4.0, bessel_points, monkeypatch)


def test_radial_norm_at_non_integer_mu_takes_both_precisions(bessel_points, monkeypatch):
    _radial_norm_reads(4.5, bessel_points, monkeypatch)


def _radial_norm_reads(mu, bessel_points, monkeypatch):
    from dampwave import radial

    nodes = {"log": 0, "filon": 0}
    log_xi = []
    calls = {"log": 0, "filon": 0}
    stores = []
    phi_values_grid, phase_factors = radial.phi_values_grid, radial.phase_factors

    def counted(mu, profile, s, t, xi, *, store):
        calls["log"] += 1
        nodes["log"] += np.size(xi)
        log_xi.append(xi)
        stores.append(store)
        return phi_values_grid(mu, profile, s, t, xi, store=store)

    def counted_phase(store, s, t, lo=0):
        calls["filon"] += 1
        nodes["filon"] += store.nonzero.size - lo
        stores.append(store)
        return phase_factors(store, s, t, lo)

    monkeypatch.setattr(radial, "phi_values_grid", counted)
    monkeypatch.setattr(radial, "phase_factors", counted_phase)
    radial.linear_norm_radial(mu, CONST, radial.gaussian_spectrum(1.0, 1.0),
                              radial.gaussian_spectrum(0.7, 1.2), 10.0, rtol=1e-5,
                              pts_per_period=12)
    # one multiplier evaluation per zone, both on one store, serves both
    # resolutions; quadrature nodes are distinct and the junction of the
    # zones is evaluated once, by the Filon zone; one Bessel point per node
    # at sigma and one at tau, each returning both orders
    assert calls == {"log": 1, "filon": 1} and stores[0] is stores[1]
    assert nodes["log"] > 0 and nodes["filon"] > 0
    assert bessel_points[0] == 2 * (nodes["log"] + nodes["filon"])
    # a zone evaluates sigma and tau together, in one call per precision:
    # float64 alone at integer mu; at non-integer mu, with s = 0, the log
    # zone's nodes below sigma = xi = 1 take longdouble, the rest float64
    if mu.is_integer():
        assert bessel_points[1] == 1 and bessel_points[2] == 0
    else:
        assert bessel_points[1] == 2
        assert bessel_points[2] == 2 * np.count_nonzero(log_xi[0] < 1.0) > 0


@pytest.mark.parametrize("mu, prof", [(4.0, CONST), (3.0, profiles.polynomial_profile(2.0))])
def test_node_store_steps_match_one_shot(mu, prof):
    from dampwave.multipliers import NodeStore

    grid = sv.Grid(n=2, N=32, L=10.0)
    steps = [0.04, 0.05, 0.03, 0.05, 0.02, 0.05, 0.04, 0.05]
    # some |xi| leave the extended range Lambda(t)|xi| < 1 during the run, so
    # a later node's extended prefix grows to the earlier time's mask and its
    # float64 part grows when it becomes the earlier time itself
    lam = [float(prof.Lambda_at(t)) for t in (0.0, sum(steps))]
    xi = np.unique(grid.xi)
    assert np.count_nonzero((xi * lam[1] >= 1.0) & (xi * lam[0] < 1.0)) > 0
    u0, _ = sv.make_initial_data(grid, "gaussian", amplitude=0.3, width=1.0)
    nl = sv.NonlinearitySpec(form="signed_power", p=2.0, gamma=0.0)
    store = NodeStore(mu, prof, grid.xi)
    plain = sv.FieldState(u=u0, ut=np.zeros_like(u0), t=0.0)
    stored = plain
    for i, dt in enumerate(steps):
        t0 = plain.t
        if i % 3 == 2:
            plain = sv.linear_step(plain, prof, mu, grid, dt)
            stored = sv.linear_step(stored, prof, mu, grid, dt, store=store)
            last_pair = {t0, plain.t}
        else:
            plain = sv.duhamel_step(plain, prof, mu, grid, nl, dt)
            stored = sv.duhamel_step(stored, prof, mu, grid, nl, dt, store=store)
            last_pair = {t0 + 0.5 * dt, plain.t}
        assert np.array_equal(plain.u, stored.u) and np.array_equal(plain.ut, stored.ut)
        # the store holds the nodes of the step's last pair, and only those
        assert set(store.nodes) == last_pair


def test_run_evaluates_two_node_sets_per_step(bessel_points, monkeypatch):
    steps = [0]
    duhamel_step = sv.duhamel_step

    def counted(*args, **kwargs):
        steps[0] += 1
        return duhamel_step(*args, **kwargs)

    monkeypatch.setattr(sv, "duhamel_step", counted)
    cfg = validate_config({"profile": {"kind": "constant"}, "mu": 4.0,
                           "grid": {"n": 3, "N": 32},
                           "nonlinearity": {"form": "signed_power", "p": 2.0},
                           "data": {"kind": "gaussian", "amplitude": 0.1, "width": 1.0},
                           "T": 0.3})
    sv.simulate(cfg)
    # each step shares its start with the previous step's end and evaluates
    # its midpoint once; every time shrinks the extended prefix at most once
    assert steps[0] > 2
    assert 0 < bessel_points[0] <= (2 * steps[0] + 2) * len(np.unique(cfg.grid.xi))


def _without_prefetch(monkeypatch):
    """Make simulate's node store evaluate each node when a step asks for
    it, as before batching."""
    from dampwave import multipliers

    monkeypatch.setattr(multipliers.NodeStore, "prefetch", lambda store, pairs: None)


def _counted_steps(monkeypatch):
    steps = [0]
    duhamel_step = sv.duhamel_step

    def counted(*args, **kwargs):
        steps[0] += 1
        return duhamel_step(*args, **kwargs)

    monkeypatch.setattr(sv, "duhamel_step", counted)
    return steps


def _assert_same_run(got_run, ref_run):
    (got, got_final), (ref, ref_final) = got_run, ref_run
    assert np.array_equal(got.times, ref.times)
    assert got.tracks.keys() == ref.tracks.keys()
    for name, track in got.tracks.items():
        assert np.array_equal(track, ref.tracks[name], equal_nan=True), name
    if isinstance(ref_final, sv.BlowupRecord):
        assert got_final == ref_final
    else:
        assert np.array_equal(got_final.u, ref_final.u)
        assert np.array_equal(got_final.ut, ref_final.ut)


SEMILINEAR_3D = {"profile": {"kind": "constant"}, "mu": 4.0, "grid": {"n": 3, "N": 32},
                 "nonlinearity": {"form": "signed_power", "p": 2.0},
                 "data": {"kind": "gaussian", "amplitude": 0.1, "width": 1.0}, "T": 0.5}
POLY_2D = {"profile": {"kind": "polynomial", "q": 0.5}, "mu": 3.0, "grid": {"n": 2, "N": 64},
           "nonlinearity": {"form": "signed_power", "p": 3.0},
           "data": {"kind": "gaussian", "amplitude": 0.2, "width": 1.0}, "T": 3.0}
# a non-integer mu, at which the store's nodes take longdouble below sigma = 1
POLY_2D_MU45 = dict(POLY_2D, mu=4.5)
LINEAR_RUN = {"profile": {"kind": "constant"}, "mu": 3.0,
              "grid": {"n": 1, "N": 512}, "T": 6.0,
              "data": {"kind": "gaussian", "amplitude": 0.2, "width": 1.0}}


@pytest.mark.parametrize("raw", [SEMILINEAR_3D, POLY_2D, BLOWUP_RUN],
                         ids=["constant", "polynomial", "blowup"])
def test_scheduled_run_is_bitwise_unscheduled(raw, monkeypatch):
    cfg = validate_config(raw)
    got = sv.simulate(cfg)
    _without_prefetch(monkeypatch)
    _assert_same_run(got, sv.simulate(cfg))


@pytest.mark.parametrize("raw", [SEMILINEAR_3D, POLY_2D], ids=["one_batch", "batches"])
def test_scheduled_run_batches_bessel_calls(raw, bessel_points, monkeypatch):
    from dampwave import multipliers

    steps = _counted_steps(monkeypatch)
    cfg = validate_config(raw)
    sv.simulate(cfg)
    points, calls, _ = bessel_points
    # a start, a midpoint and an end per step, shared with the next step
    nodes = 2 * steps[0] + 1
    n_xi = np.count_nonzero(np.unique(cfg.grid.xi))
    batch_nodes = max(1, multipliers.BATCH_POINTS // n_xi)
    assert steps[0] > 10 and calls <= 2 * math.ceil(nodes / batch_nodes)
    # batching evaluates the same points as one node at a time
    bessel_points[:] = [0, 0, 0]
    _without_prefetch(monkeypatch)
    sv.simulate(cfg)
    assert bessel_points[0] == points and bessel_points[1] > calls


@pytest.mark.parametrize("raw, nodes", [(SEMILINEAR_3D, 3), (LINEAR_RUN, 2)],
                         ids=["midpoint", "linear"])
def test_run_below_one_step_per_batch_takes_a_step_per_chunk(raw, nodes, monkeypatch):
    from dampwave import multipliers

    monkeypatch.setattr(multipliers, "BATCH_POINTS", 1)
    chunks = []
    prefetch = multipliers.NodeStore.prefetch

    def recorded(store, pairs):
        assert store.batch_nodes == 1
        chunks.append(len({t for pair in pairs for t in pair}))
        prefetch(store, pairs)

    monkeypatch.setattr(multipliers.NodeStore, "prefetch", recorded)
    steps = _counted_steps(monkeypatch)
    cfg = validate_config(raw)
    got = sv.simulate(cfg)
    # each chunk is one step: its start, its midpoint if it has one, its end
    assert steps[0] > 10 and chunks == [nodes] * steps[0]
    _without_prefetch(monkeypatch)
    _assert_same_run(got, sv.simulate(cfg))


@pytest.mark.parametrize("raw", [SEMILINEAR_3D, POLY_2D_MU45, BLOWUP_RUN, LINEAR_RUN],
                         ids=["constant", "polynomial_mu4.5", "blowup", "linear"])
def test_every_pair_a_step_reads_was_prefetched(raw, monkeypatch):
    from dampwave import multipliers

    hold, prefetch = multipliers.NodeStore._hold, multipliers.NodeStore.prefetch
    inside, prefetches, stray = [False], [0], []

    def held(store, reads):
        if not inside[0]:
            stray.append(reads)
        hold(store, reads)

    def prefetched(store, pairs):
        prefetches[0] += 1
        inside[0] = True
        try:
            prefetch(store, pairs)
        finally:
            inside[0] = False

    monkeypatch.setattr(multipliers.NodeStore, "_hold", held)
    monkeypatch.setattr(multipliers.NodeStore, "prefetch", prefetched)
    steps = _counted_steps(monkeypatch)
    sv.simulate(validate_config(raw))
    # a read the chunk's prefetch did not hold would hold its own pair
    assert steps[0] > 10 and prefetches[0] > 0 and stray == []


def test_run_reads_its_plan_one_chunk_ahead(bessel_points, monkeypatch):
    from dampwave import multipliers

    drawn = [0]

    def endless(config, times):
        while True:
            drawn[0] += 1
            # fail rather than hang if the loop reads the plan to its end
            assert drawn[0] <= 1000, "the plan was read far past one chunk"
            yield math.inf, 0.01

    held = []
    prefetch = multipliers.NodeStore.prefetch

    def recorded(store, pairs):
        prefetch(store, pairs)
        held.append((len(store.nodes), store.batch_nodes))

    class Stop(Exception):
        pass

    steps = [0]
    duhamel_step = sv.duhamel_step
    cfg = validate_config(SEMILINEAR_3D)
    chunk = multipliers.NodeStore(4.0, cfg.profile, cfg.grid.xi).batch_nodes // 2
    assert 1 < chunk < 100

    def stopped(*args, **kwargs):
        steps[0] += 1
        if steps[0] > chunk + 1:
            raise Stop
        return duhamel_step(*args, **kwargs)

    monkeypatch.setattr(sv, "_step_plan", endless)
    monkeypatch.setattr(sv, "duhamel_step", stopped)
    monkeypatch.setattr(multipliers.NodeStore, "prefetch", recorded)
    with pytest.raises(Stop):
        sv.simulate(cfg)
    # the second chunk is read when its first step is due, not before; each
    # chunk is one Bessel call, in float64 alone at mu = 4
    assert drawn[0] == 2 * chunk and bessel_points[1] == 2 and bessel_points[2] == 0
    assert all(n <= batch_nodes + 1 for n, batch_nodes in held)


def gradient_norm_sq_reference(grid, uh):
    """sum |grad v|^2 h^n with one inverse transform per axis (the former route)."""
    total = 0.0
    for k in grid.wavenumbers:
        total += np.sum(np.abs(grid.ifft(1j * k * uh)) ** 2) * grid.cell_volume
    return total


@pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 16)])
def test_parseval_norms_match_physical_sums(n, N):
    grid = sv.Grid(n=n, N=N, L=3.0)
    rng = np.random.default_rng(n)
    u, ut = rng.standard_normal((2,) + grid.shape)
    uh = grid.fft(u)
    ref = gradient_norm_sq_reference(grid, uh)
    assert sv._weighted_sq(grid.grad_weight, uh) == pytest.approx(ref, rel=1e-14)
    ref = np.sum(ut**2) * grid.cell_volume
    assert sv._weighted_sq(grid.l2_weight, grid.fft(ut)) == pytest.approx(ref, rel=1e-14)
    ns = sv.norms(sv.FieldState(u=u, ut=ut, t=0.0), CONST, 2.0, grid)
    assert ns["H1_seminorm"]**2 == pytest.approx(gradient_norm_sq_reference(grid, uh), rel=1e-14)


def test_state_keeps_one_representation_of_each_field():
    grid = grid1d(N=64)
    u = np.sin(grid.axis)
    with pytest.raises(ValueError):
        sv.FieldState(u=u, uh=grid.fft(u), ut=u, t=0.0)
    with pytest.raises(ValueError):
        sv.FieldState(u=u, t=0.0)
    with pytest.raises(ValueError, match="needs its grid"):
        sv.FieldState(uh=grid.fft(u), ut=u, t=0.0)
    st = sv.FieldState(uh=grid.fft(u), uth=grid.fft(2.0 * u), t=0.0, grid=grid)
    assert st.u is st.u and np.allclose(st.u, u, atol=1e-15)
    assert np.allclose(st.ut, 2.0 * u, atol=1e-15)


@pytest.fixture
def transforms(monkeypatch):
    """Count every Grid.fft and Grid.ifft call."""
    count = [0]
    for name in ("fft", "ifft"):
        fn = getattr(sv.Grid, name)

        def counted(self, arr, fn=fn):
            count[0] += 1
            return fn(self, arr)

        monkeypatch.setattr(sv.Grid, name, counted)
    return count


def test_step_and_norm_transform_counts(transforms):
    grid = sv.Grid(n=3, N=16, L=6.0)
    u0, u1 = sv.make_initial_data(grid, "gaussian", amplitude=0.1, width=1.0)
    nl = sv.NonlinearitySpec(form="signed_power", p=2.0)
    st = sv.duhamel_step(sv.FieldState(u=u0, ut=u1, t=0.0), CONST, 4.0, grid, nl, 0.05)
    st.u
    for step, args, expected in ((sv.duhamel_step, (nl, 0.05), 3), (sv.linear_step, (0.05,), 1)):
        transforms[0] = 0
        # a step, then the blow-up check's read of u
        st = step(st, CONST, 4.0, grid, *args)
        st.u
        assert transforms[0] == expected
        assert sv._blowup(st, grid, 1e6) is None and transforms[0] == expected
        sv.norms(st, CONST, 4.0, grid, m_list=(1.0, 3.0))
        assert transforms[0] == expected


def test_square_nonlinearity_matches_power_form():
    # p = 2 skips np.power; pow(x, 1) = x and pow(x, 2) = x*x, so the bits agree
    u = np.random.default_rng(5).standard_normal(4096) * np.logspace(-200.0, 200.0, 4096)
    u[:3] = (np.inf, -np.inf, np.nan)
    au = np.abs(u)
    with np.errstate(over="ignore", invalid="ignore"):
        refs = {"signed_power": au**1.0 * u, "absolute_power": au**2.0}
    for form, ref in refs.items():
        np.testing.assert_array_equal(sv.NonlinearitySpec(form=form, p=2.0).g(u), ref)


def test_linear_run_jumps_once_per_output_interval(monkeypatch):
    steps = []
    duhamel_step = sv.duhamel_step

    def counted(*args, **kwargs):
        steps.append(args[5])
        return duhamel_step(*args, **kwargs)

    monkeypatch.setattr(sv, "duhamel_step", counted)
    cfg = validate_config(LINEAR_RUN)
    series, _ = sv.simulate(cfg)
    times = sv.output_times(cfg.T, cfg.samples_per_decade)
    assert len(steps) == len(times) - 1
    assert np.array_equal(series.times, times)


def test_linear_jumps_match_composed_small_steps():
    from dampwave.multipliers import NodeStore

    cfg = validate_config(LINEAR_RUN)
    series, _ = sv.simulate(cfg)
    grid = cfg.grid
    u0, u1 = sv.make_initial_data(grid, "gaussian", 0.2, 1.0)
    st = sv.FieldState(u=u0, ut=u1, t=0.0)
    store = NodeStore(cfg.damping.mu, CONST, grid.xi)
    rows = []
    for t_out in series.times:
        while st.t < t_out:
            dt = min(cfg.dt_max, 0.25 * grid.h, t_out - st.t)
            st = sv.linear_step(st, CONST, cfg.damping.mu, grid, dt, store=store)
        ns = sv.norms(st, CONST, cfg.damping.mu, grid)
        rows.append((ns["L1"], ns["L2"], ns["H1_seminorm"], ns["energy"], ns["Linf"]))
    for name, ref in zip(("L1", "L2", "H1_seminorm", "energy", "Linf"), np.transpose(rows)):
        got = series.tracks[name]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("kwargs, name", [
    ({"form": "signed_power", "p": math.inf}, "p"),
    ({"form": "absolute_power", "p": 1.0}, "p"),
    ({"form": "signed_power", "p": "3"}, "p"),
    ({"gamma": math.nan}, "gamma"),
    ({"gamma": -2.5}, "gamma"),
])
def test_nonlinearity_needs_finite_p_above_one_and_gamma_from_minus_two(kwargs, name):
    with pytest.raises(DomainError, match=f"^{name} must be"):
        sv.NonlinearitySpec(**kwargs)


def _galerkin_reference(cfg, dt_frac, threshold=None):
    """u at cfg.T of a 1-d run by an independent Fourier-Galerkin method of
    lines on the run's grid: the same 2/3 dealiasing of f, and classical RK4
    in t with steps near dt_frac h / lambda(T) (lambda never decreases here).
    With a threshold, the time max|u| first exceeds it instead, interpolated
    in log max|u| between steps."""
    grid, prof, nl = cfg.grid, cfg.profile, cfg.nonlin
    ksq = (2.0 * math.pi * np.fft.rfftfreq(grid.N, d=grid.h)) ** 2
    keep = np.arange(grid.N // 2 + 1) <= grid.N // 3
    u0, u1 = sv.make_initial_data(grid, cfg.data.kind, cfg.data.amplitude, cfg.data.width)

    def rhs(t, y):
        u = np.fft.irfft(y[0], grid.N)
        f = np.abs(u) ** nl.p if nl.form == "absolute_power" else np.abs(u) ** (nl.p - 1.0) * u
        lam, b = float(prof.lambda_at(t)), float(profiles.damping_at(prof, cfg.damping, t))
        return np.array([y[1], -lam * lam * ksq * y[0] - b * y[1] + np.fft.rfft(f) * keep])

    steps = math.ceil(cfg.T * float(prof.lambda_at(cfg.T)) / (dt_frac * grid.h))
    dt = cfg.T / steps
    y, peak = np.array([np.fft.rfft(u0), np.fft.rfft(u1)]), np.max(np.abs(u0))
    for i in range(steps):
        t = i * dt
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + rhs(t + dt, y + dt * k3))
        if threshold is not None:
            last, peak = peak, np.max(np.abs(np.fft.irfft(y[0], grid.N)))
            if peak > threshold:
                return t + dt * math.log(threshold / last) / math.log(peak / last)
    return np.fft.irfft(y[0], grid.N)


@pytest.mark.parametrize("profile", [{"kind": "constant"}, {"kind": "polynomial", "q": 1.5},
                                     {"kind": "exponential", "r": 0.2}],
                         ids=["constant", "polynomial", "exponential"])
def test_runs_match_a_fourier_galerkin_reference(profile):
    # the step loop against a reference that shares no multiplier, step or
    # node code with it; bump data keep modes up to the 2/3 cut, so that
    # dropping the dealiasing shows
    raw = {"profile": profile, "mu": 3.0, "grid": {"n": 1, "N": 256}, "T": 5.0,
           "nonlinearity": {"form": "signed_power", "p": 2.0},
           "data": {"kind": "bump", "amplitude": 1.0, "width": 1.0}}
    cfg = validate_config(raw)
    ref = _galerkin_reference(cfg, 0.05)
    peak = np.max(np.abs(ref))
    # the reference's own error: measured 4.8e-7, 9.3e-7 and 1.7e-6 of the peak
    assert np.max(np.abs(_galerkin_reference(cfg, 0.1) - ref)) <= 5e-6 * peak
    # measured 6.4e-5, 2.3e-5 and 1.6e-4; a kick of dt/2 f gives 0.48-0.79
    _, final = sv.simulate(cfg)
    assert np.max(np.abs(final.u - ref)) <= 3e-4 * peak
    # with dt_max below the grid's cap 0.25 h / lambda everywhere, the error
    # is second order: measured ratios 3.93, 3.94 and 3.96; without the
    # dealiasing the last two are 1.06 and 1.19
    cap = 0.25 * cfg.grid.h / float(cfg.profile.lambda_at(cfg.T))
    errors = [np.max(np.abs(sv.simulate(validate_config(dict(raw, dt_max=f * cap)))[1].u - ref))
              for f in (0.8, 0.4)]
    assert 3.5 <= errors[0] / errors[1] <= 4.5

    # blow-up is dated by the end of the step in which the reference crosses
    # the threshold, here 10 times the initial peak
    cfg = validate_config(dict(raw, nonlinearity={"form": "absolute_power", "p": 2.0},
                               data={"kind": "bump", "amplitude": 3.0, "width": 1.0},
                               blowup_factor=10.0))
    _, record = sv.simulate(cfg)
    t_cross = _galerkin_reference(cfg, 0.05, threshold=30.0)
    ends = [0.0, *itertools.accumulate(dt for _, dt in sv._step_plan(
        cfg, sv.output_times(cfg.T, cfg.samples_per_decade)))]
    k = ends.index(record.t_star)
    assert ends[k - 1] < t_cross <= ends[k]
