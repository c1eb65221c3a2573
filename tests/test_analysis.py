"""Decay fitting, exponent catalog, GN verification and scan tests."""

import math
import warnings

import numpy as np
import pytest

from dampwave import analysis, profiles, scan
from dampwave.config import validate_config
from dampwave.errors import DegenerateFitError, DomainError, FitWindowError


def synthetic_series(fn, lam_lo=1.0, lam_hi=1e4, n=81, track="L2"):
    lam = np.geomspace(lam_lo, lam_hi, n)
    times = lam - lam[0]
    return analysis.NormSeries(times=times, lambda_big=lam,
                               tracks={track: fn(lam)}, metadata={})


def test_fit_pure_power():
    series = synthetic_series(lambda lam: 3.0 * lam**-1.0)
    fit = analysis.fit_decay(series, "L2")
    assert fit.model == "pure_power"
    assert fit.alpha == pytest.approx(1.0, abs=1e-6)


def test_fit_power_log():
    series = synthetic_series(lambda lam: lam**-1.5 * np.log(math.e + lam),
                              lam_lo=10.0, lam_hi=1e4)
    fit = analysis.fit_decay(series, "L2")
    assert fit.model == "power_log"
    assert fit.alpha == pytest.approx(1.5, abs=0.02)
    assert fit.c_log == pytest.approx(1.0, abs=0.05)


def test_fit_constant_track():
    series = synthetic_series(lambda lam: np.full_like(lam, 2.5))
    fit = analysis.fit_decay(series, "L2")
    assert fit.alpha == pytest.approx(0.0, abs=1e-9)


def test_fit_scale_invariance():
    series = synthetic_series(lambda lam: lam**-0.7 * (1.0 + 0.01 * np.sin(np.log(lam))))
    base = analysis.fit_decay(series, "L2")
    scaled = analysis.NormSeries(times=series.times, lambda_big=series.lambda_big,
                                 tracks={"L2": 137.0 * series.tracks["L2"]},
                                 metadata={})
    other = analysis.fit_decay(scaled, "L2")
    assert other.alpha == pytest.approx(base.alpha, abs=1e-12)
    assert other.model == base.model


def test_fit_errors():
    series = synthetic_series(lambda lam: np.zeros_like(lam))
    with pytest.raises(DegenerateFitError):
        analysis.fit_decay(series, "L2")
    with pytest.raises(DomainError):
        analysis.fit_decay(series, "nope")
    short = synthetic_series(lambda lam: lam**-1.0, lam_lo=1.0, lam_hi=5.0)
    with pytest.raises(FitWindowError):
        analysis.fit_decay(short, "L2")
    decaying = synthetic_series(lambda lam: lam**-1.0)
    for window in (0.0, -1.0, 1.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="window_fraction"):
            analysis.fit_decay(decaying, "L2", window)
    assert analysis.fit_decay(decaying, "L2", 1.0).alpha == pytest.approx(1.0, abs=1e-6)


def test_series_csv_roundtrip(tmp_path):
    series = synthetic_series(lambda lam: lam**-0.5)
    series.metadata.update({"n": 1, "mu": 4.0})
    path = tmp_path / "series.csv"
    series.to_csv(path)
    back = analysis.NormSeries.from_csv(path)
    assert np.array_equal(back.times, series.times)
    assert np.array_equal(back.tracks["L2"], series.tracks["L2"])
    assert back.metadata == {"n": 1, "mu": 4.0}


def test_theta_gn():
    assert analysis.theta_gn(2.0, 1) == 0.0
    assert analysis.theta_gn(4.0, 2) == pytest.approx(0.5)
    assert analysis.theta_gn(6.0, 3) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        analysis.theta_gn(1.5, 1)
    with pytest.raises(DomainError):
        analysis.theta_gn(7.0, 3)  # beyond 2n/(n-2) = 6


def test_exponent_catalog_fujita():
    rep = analysis.exponent_catalog(1, 0.0, 1.0, 4.0)
    assert rep.get("lm_existence").value == pytest.approx(3.0)
    assert rep.get("fujita_nonexistence").value == pytest.approx(3.0)
    assert rep.get("h1l2_existence").value == pytest.approx(5.0)
    assert not rep.get("ell_parameter").applicable  # mu=4 > 2+n=3


def test_exponent_catalog_ell():
    rep = analysis.exponent_catalog(3, 0.0, 1.0, 3.0)
    assert rep.get("ell_parameter").value == pytest.approx(1.5)
    assert rep.get("ell_existence").value == pytest.approx(1.0 + 4.0 / 4.0)


def test_exponent_catalog_remark_n4():
    # for n=4, gamma=0, m=1 the admissible set collapses to {p = 2}
    rep = analysis.exponent_catalog(4, 0.0, 1.0, 6.0)
    entry = rep.get("lm_existence")
    assert entry.lower_bound == 2.0  # gamma < n-2 switches to p >= 2
    assert entry.prange[0] == 2.0 and entry.prange[1] == pytest.approx(2.0)
    assert entry.empty_range is False
    # while the open-interval L2 route is empty there
    assert rep.get("h1l2_existence").empty_range is True


def test_exponent_catalog_small_mu():
    rep = analysis.exponent_catalog(1, 0.0, 1.0, 0.5)
    assert rep.get("onedim_smallmu_existence").value == pytest.approx(9.0)
    assert rep.get("onedim_smallmu_existence").lower_bound == pytest.approx(1.6)
    assert rep.get("smallmu_nonexistence").value == pytest.approx(5.0)
    assert rep.get("existence_gap").applicable
    rep = analysis.exponent_catalog(1, 0.0, 1.0, 1.5)
    assert rep.get("subthreshold_l2_existence").value == pytest.approx(1.0 + 16.0 / 3.0)
    assert rep.get("onedim_mixed_existence").value == pytest.approx(1.0 + 8.0 / 2.5)


# each entry's range of mu at m = 1, as (low, high, closed at low, closed at high)
_MU_RANGES = {
    "h1l2_existence": lambda n: (2.0, math.inf, True, False),
    "lm_existence": lambda n: (2.0 + n, math.inf, True, False),
    "ell_parameter": lambda n: (2.0, 2.0 + n, False, False),
    "subthreshold_l2_existence": lambda n: (1.0, 2.0, True, False),
    "onedim_mixed_existence": lambda n: (1.0, 3.0, True, False) if n == 1 else None,
    "onedim_smallmu_existence": lambda n: (0.0, 1.0, False, True) if n == 1 else None,
    "smallmu_nonexistence": lambda n: (0.0, 1.0, False, False),
    "existence_gap": lambda n: (0.0, 1.0, False, True) if n == 1 else None,
}


def _inside(mu, lo, hi, lo_closed, hi_closed):
    """Whether mu lies in the range, each end judged by analysis._regime."""
    low, high = analysis._regime(mu, lo), analysis._regime(mu, hi)
    return ((low == "above" or lo_closed and low == "at")
            and (high == "below" or hi_closed and high == "at"))


@pytest.mark.parametrize("offset", [-1e-3, -5e-10, 5e-10, 1e-3])
@pytest.mark.parametrize("n, border", [(1, 0.0), (1, 1.0), (1, 2.0), (1, 3.0), (2, 4.0)],
                         ids=["0", "1", "2", "3", "2+n"])
def test_every_border_reading_agrees_with_regime(n, border, offset):
    # a mu within 1e-9 of a border is at it for every reader: the catalog,
    # the config notes, the dissipativity check and the decay rates
    mu = border + offset
    report = analysis.exponent_catalog(n, 0.0, 1.0, mu)
    names = {e.name for e in report.entries}
    for name, bounds in _MU_RANGES.items():
        flag = report.get(name).applicable if name in names else False
        assert flag == (bounds(n) is not None and _inside(mu, *bounds(n))), (name, mu)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cfg = validate_config({"profile": {"kind": "constant"}, "mu": mu,
                               "grid": {"n": n, "N": 16},
                               "nonlinearity": {"form": "signed_power", "p": 3.0}, "T": 1.0})
    expected = [f"mu={mu!r} < {b:g}" for b in (2.0, 0.0) if analysis._regime(mu, b) == "below"]
    assert [note.split(":")[0] for note in cfg.warnings] == expected

    custom = profiles.custom_profile([0.0, 1.0, 2.0], [1.0, 2.0, 1.5])
    for prof in (profiles.constant_profile(), custom):
        assert (profiles.dissipativity_check(prof, profiles.DampingSpec.from_mu(mu))
                == (analysis._regime(mu, 0.0) != "below"))

    # the effective rates hold above the solution and energy borders n(2/m - 1)
    # and 2 + n(2/m - 1), mu/2 at and below them
    for m, base in ((1.0, n / 2.0), (2.0, 0.0)):
        sol, en = (analysis._regime(mu, b) == "above" for b in (n * (2.0 / m - 1.0),
                                                                2.0 + n * (2.0 / m - 1.0)))
        assert analysis.predicted_decay_exponents(n, mu, m) == {
            "L2": base if sol else mu / 2.0, "energy": base + 1.0 if en else mu / 2.0}


def test_gn_verify():
    rep = scan.gn_verify(4.0, 1, count=60, seed=3, grid_n=128)
    assert rep.theta == pytest.approx(0.25)
    assert rep.passed and rep.max_ratio <= 2.0
    assert rep.scale_residual <= 1e-12
    assert rep.refinement_drift <= 1e-6
    # determinism
    rep2 = scan.gn_verify(4.0, 1, count=60, seed=3, grid_n=128)
    assert rep2.max_ratio == rep.max_ratio


def test_gn_verify_2d():
    rep = scan.gn_verify(4.0, 2, count=20, seed=1, grid_n=64)
    assert rep.passed
    assert rep.scale_residual <= 1e-12


def scan_base(T=30.0, N=512):
    return {
        "profile": {"kind": "constant"},
        "mu": 4.0,
        "grid": {"n": 1, "N": N},
        "nonlinearity": {"form": "absolute_power", "p": 2.2, "gamma": 0.0},
        "data": {"kind": "gaussian", "amplitude": 0.5, "width": 1.0},
        "T": T,
        "samples_per_decade": 12,
    }


def test_run_scan_blowup_and_trivial_cells():
    scan_cfg = {
        "base": scan_base(),
        "axes": {"eps": [0.0, 0.9]},
        "workers": 1,
    }
    result = scan.run_scan(scan_cfg)
    zero_cell = result.outcome_of(eps=0.0)
    assert zero_cell.outcome == "global_decay"
    assert zero_cell.reason == "zero solution"
    hot_cell = result.outcome_of(eps=0.9)
    assert hot_cell.outcome == "blowup"
    assert hot_cell.t_star is not None and hot_cell.t_star < 30.0
    assert result.series[hot_cell.index].tracks["blowup_flag"][-1] == 1.0


def test_run_scan_threshold_marker_and_persistence(tmp_path):
    base = scan_base(T=5.0, N=256)
    base["data"]["amplitude"] = 1e-4
    scan_cfg = {"base": base, "axes": {"p": [2.0, 3.0, 4.0]}, "workers": 1}
    result = scan.run_scan(scan_cfg)
    marked = [c for c in result.cells if c.at_threshold]
    assert len(marked) == 1 and marked[0].params["p"] == 3.0  # p_crit = 1+2/1
    outdir = tmp_path / "scan"
    result.write_dir(outdir)
    assert (outdir / "outcomes.csv").exists()
    assert (outdir / "manifest.json").exists()
    assert len(list(outdir.glob("cell_*.csv"))) == 3


def test_run_scan_classifies_cells_by_their_decay_fit():
    base = dict(scan_base(T=200.0, N=256), dt_max=1.0)
    base["data"]["amplitude"] = 0.01
    result = scan.run_scan({"base": base, "axes": {"p": [2.0, 3.0]}, "workers": 1})
    # below the Fujita exponent 3 the solution grows; at it, it decays
    grows, decays = result.outcome_of(p=2.0), result.outcome_of(p=3.0)
    assert grows.outcome == "undecided" and grows.alpha < 0.0
    assert grows.reason.startswith("slope ")
    assert decays.outcome == "global_decay" and decays.model == "pure_power"
    assert decays.alpha == pytest.approx(0.5, abs=0.02) and decays.reason == ""


@pytest.mark.parametrize("outcomes, flagged", [
    (["global_decay", "global_decay", "blowup"], [(2,)]),
    (["global_decay", "blowup"], []),
])
def test_run_scan_flags_a_blowup_after_two_decaying_cells(monkeypatch, outcomes, flagged):
    def synthetic(args):
        idx, params, _, _ = args
        verdict = {"outcome": outcomes[idx[0]]}
        return idx, params, verdict, None

    monkeypatch.setattr(scan, "_run_cell", synthetic)
    ps = [2.0, 3.0, 4.0][:len(outcomes)]
    result = scan.run_scan({"base": scan_base(), "axes": {"p": ps}, "workers": 1})
    assert [c.outcome for c in result.cells] == outcomes
    assert result.monotonicity_flags == [
        f"monotonicity violation at index {idx}: 'blowup' after 2 global_decay cells"
        for idx in flagged]
