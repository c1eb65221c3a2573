"""CLI behavior: exit codes, determinism and artifact formats."""

import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dampwave import analysis, profiles, radial
from dampwave.cli import main


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def run_config(tmp_path, **overrides):
    cfg = {
        "profile": {"kind": "constant"},
        "mu": 2.0,
        "grid": {"n": 1, "N": 256},
        "nonlinearity": {"form": "zero"},
        "data": {"kind": "gaussian", "amplitude": 0.05, "width": 1.0},
        "T": 4.0,
        "seed": 1,
    }
    cfg.update(overrides)
    return write_json(tmp_path / "run.json", cfg)


def test_simulate_deterministic_bytes(tmp_path, capsys):
    cfg = run_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    blob = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert blob["outcome"] == "completed"


def test_simulate_blowup_outcome(tmp_path, capsys):
    cfg = run_config(tmp_path, mu=1.5, T=20.0,
                     nonlinearity={"form": "absolute_power", "p": 2.0},
                     data={"kind": "gaussian", "amplitude": 2.0, "width": 1.0})
    out = tmp_path / "blowup.csv"
    with pytest.warns(UserWarning, match="mu=1.5 < 2"):
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    blob = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert blob["outcome"] == "blowup" and blob["reason"] == "amplitude threshold"
    series = analysis.NormSeries.from_csv(out)
    assert blob["t_star"] == series.times[-1] < 20.0
    last = {name: track[-1] for name, track in series.tracks.items()}
    assert last.pop("blowup_flag") == 1.0
    assert "L2" in last and "cone_excess" in last and all(np.isnan(v) for v in last.values())


def test_simulate_prints_each_note_as_one_stderr_line(tmp_path):
    # from the command line a config note is one plain line, with mu exactly
    # as given; library callers of validate_config get a UserWarning
    cfg = run_config(tmp_path, mu=-0.4000001, T=0.5,
                     nonlinearity={"form": "absolute_power", "p": 2.0})
    code = "import sys; sys.path[:0] = ['src']\nfrom dampwave.cli import main\nsys.exit(main())"
    out = subprocess.run([sys.executable, "-c", code, "simulate", "--config", cfg,
                          "--out", str(tmp_path / "notes.csv")],
                         cwd=pathlib.Path(__file__).resolve().parents[1],
                         env={k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and json.loads(out.stdout)["outcome"] == "completed"
    assert out.stderr.splitlines() == [
        "warning: mu=-0.4000001 < 2: only the sub-threshold estimates apply",
        "warning: mu=-0.4000001 < 0: dissipativity fails"]


def test_simulate_validation_exit_code(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {
        "profile": {"kind": "constant"}, "mu": 2.0, "nu": 1.0, "T": 1.0})
    assert main(["simulate", "--config", bad, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "mu" in err


def test_simulate_negative_width_exit_code(tmp_path, capsys):
    cfg = run_config(tmp_path, data={"kind": "gaussian", "amplitude": 0.05,
                                     "width": -5})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "data.width" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, name", [
    ({"K": "x"}, "K"),
    ({"dt_max": "x"}, "dt_max"),
    ({"blowup_factor": [1]}, "blowup_factor"),
    ({"memory_cap_bytes": "x"}, "memory_cap_bytes"),
    ({"m_list": "x"}, "m_list"),
    ({"samples_per_decade": "x"}, "samples_per_decade"),
    ({"fit_window": "x"}, "fit_window"),
    ({"T": "x"}, "T"),
    ({"mu": "x"}, "mu"),
    ({"grid": {"n": 1, "N": "abc"}}, "grid.N"),
    ({"grid": {"n": 1, "N": 256, "L": "x"}}, "grid.L"),
    ({"grid": "x"}, "grid"),
    ({"nonlinearity": {"form": "signed_power", "p": "x"}}, "nonlinearity.p"),
    ({"profile": {"kind": "constant", "lambda0": "x"}}, "profile"),
    ({"T": True}, "T"),
    ({"T": None}, "T"),
    ({"seed": True}, "seed"),
    ({"grid": {"n": 1.7, "N": 256}}, "grid.n"),
    ({"m_list": [0]}, "m_list"),
    ({"m_list": [True]}, "m_list"),
    ({"data": {"kind": "gaussian", "amplitude": float("nan"), "width": 1.0}},
     "data.amplitude"),
    ({"blowup_factor": -1}, "blowup_factor"),
    ({"weighted": {"enabled": True, "mu": "x"}}, "weighted.mu"),
    ({"weighted": {"enabled": "yes"}}, "weighted.enabled"),
    ({"mu": float("nan")}, "mu"),
    ({"nonlinearity": {"form": "zero", "gamma": float("inf")}}, "nonlinearity.gamma"),
    ({"blowup_facter": 1e6}, "blowup_facter is not a config key"),
    ({"grid": {"n": 1, "N": 256, "l": 20.0}}, "grid.l is not a config key"),
    ({"mu": 30.0}, "mu=30 needs Hankel orders -14.5, -15.5 beyond +-10"),
    ({"T": 1e308}, "grid: box half-width L=1e+308"),
    ({"T": 1.0, "grid": {"n": 1, "N": 256, "L": 1.5e308}}, "grid: box half-width L=1.5e+308"),
    ({"profile": {"kind": "polynomial", "q": 1e308}}, "grid: sizing rule at T=4"),
    ({"samples_per_decade": 0}, "samples_per_decade must be at least 1"),
    ({"nonlinearity": {"form": "signed_power", "p": float("inf")},
      "data": {"kind": "gaussian", "amplitude": 0.5, "width": 1.0}}, "nonlinearity: p must be"),
    ({"profile": {"kind": "polynomial", "q": float("nan")}}, "profile: q must be"),
    ({"profile": {"kind": "exponential", "r": "fast"}}, "profile: r must be"),
    ({"profile": {"kind": "constant", "lambda0": float("inf")}}, "profile: lambda0 must be"),
    ({"profile": {"kind": "custom", "table_t": [0, 1, 2, 10],
                  "table_lambda": [1, float("nan"), 2, 3]}}, "profile: table_lambda must be"),
    ({"m_list": [2.0000001, 3.0, 3.0000004]},
     "m_list values 2.0 and 2.0000001 share the track name L2"),
])
def test_simulate_non_numeric_value_exit_code(tmp_path, capsys, overrides, name):
    cfg = run_config(tmp_path, **overrides)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert f"error: {name}" in capsys.readouterr().err


@pytest.mark.parametrize("dt_max", [0.0, -0.1, float("inf"), float("nan")])
def test_dt_max_must_be_positive_and_finite(dt_max):
    # validation only: a zero step would make simulate loop forever
    from dampwave.config import validate_config
    from dampwave.errors import ValidationError

    with pytest.raises(ValidationError, match="dt_max"):
        validate_config({"profile": {"kind": "constant"}, "mu": 2.0, "T": 1.0,
                         "grid": {"n": 1, "N": 64}, "dt_max": dt_max})


@pytest.mark.parametrize("damping", [{"mu": 30.0}, {"mu": -19.5},
                                     {"nu": 25.0}])
def test_mu_beyond_max_order_is_validation_error(damping):
    # rejected at validation, not later by the propagator
    from dampwave.config import validate_config
    from dampwave.errors import ValidationError

    with pytest.raises(ValidationError, match="Hankel orders"):
        validate_config({"profile": {"kind": "constant"}, "T": 1.0,
                         "grid": {"n": 1, "N": 64}, **damping})


def test_config_roundtrip_and_nested_damping(tmp_path):
    from dampwave.config import validate_config

    cfg = validate_config({
        "profile": {"kind": "exponential", "r": 0.5, "nu": 3.0},
        "grid": {"n": 1, "N": 256}, "T": 2.0})
    assert cfg.damping.mu == 4.0  # nu + 1, nested inside profile
    again = validate_config(cfg.canonical)
    assert again.run_id == cfg.run_id
    assert again.canonical == cfg.canonical


README_CONFIG = {"profile": {"kind": "constant"}, "mu": 4.0, "grid": {"n": 1, "N": 4096},
                 "nonlinearity": {"form": "signed_power", "p": 4.0, "gamma": 0.0},
                 "data": {"kind": "gaussian", "amplitude": 1e-3, "width": 1.0}, "T": 200.0}


@pytest.mark.parametrize("raw, run_id", [
    (README_CONFIG, "c96df58f0a3d59fc"),
    ({"profile": {"kind": "exponential", "r": 0.5, "nu": 3.0},
      "grid": {"n": 1, "N": 256}, "T": 2.0}, "43ae3256c4ab32f0"),
    ({"profile": {"kind": "polynomial", "q": 1.5}, "nu": 2.0,
      "grid": {"n": 2, "N": 64, "L": 40.0}, "T": 3.0, "seed": 5,
      "weighted": {"enabled": True, "mu": 2.5}, "m_list": [1, 3], "dt_max": 0.05,
      "blowup_factor": 1e3, "samples_per_decade": 7, "memory_cap_bytes": 10000000000,
      "data": {"kind": "mode_mix", "width": 0.5}}, "38c1f36d6dd16de1"),
    ({"profile": {"kind": "custom", "table_t": [0, 1, 5], "table_lambda": [1, 2, 1.5],
                  "lambda0": 2.0},
      "mu": 1.5, "T": 4.0,
      "nonlinearity": {"form": "absolute_power", "p": 2.2, "gamma": 1.0,
                       "scaling": "structural"},
      "data": {"kind": "bump", "seed": 3, "width": 2.0}}, "13cbc46a9699c26b"),
])
def test_run_id_is_pinned(raw, run_id):
    # the canonical form, and so every run id, must not drift with refactors
    from dampwave.config import validate_config

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert validate_config(raw).run_id == run_id


def test_simulate_resource_cap_exit_code(tmp_path):
    cfg = run_config(tmp_path, memory_cap_bytes=1000)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 4


def test_simulate_snapshots(tmp_path):
    cfg = run_config(tmp_path)
    snapdir = tmp_path / "snaps"
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s.csv"),
                 "--snapshots", str(snapdir)]) == 0
    sidecars = list(snapdir.glob("*.json"))
    assert sidecars
    meta = json.loads(sidecars[0].read_text())
    arr = np.fromfile(snapdir / meta["files"]["u"], dtype=meta["dtype"])
    assert arr.shape[0] == int(np.prod(meta["shape"]))
    assert meta["endianness"] in ("little", "big")


def test_decay_pipeline(tmp_path, capsys):
    cfg = run_config(tmp_path, T=60.0, mu=4.0)
    series_path = tmp_path / "series.csv"
    assert main(["simulate", "--config", cfg, "--out", str(series_path)]) == 0
    capsys.readouterr()
    assert main(["decay", "--in", str(series_path), "--track", "L2",
                 "--window", "0.5"]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["model"] in ("pure_power", "power_log")
    assert 0.0 < fit["alpha"] < 1.0


def test_decay_missing_track_is_validation_error(tmp_path, capsys):
    cfg = run_config(tmp_path)
    series_path = tmp_path / "series.csv"
    main(["simulate", "--config", cfg, "--out", str(series_path)])
    assert main(["decay", "--in", str(series_path), "--track", "nope"]) == 2


@pytest.mark.parametrize("argv, name", [
    (["decay", "--window", "nan"], "window_fraction"),
    (["decay", "--window", "inf"], "window_fraction"),
    (["decay", "--window", "-1"], "window_fraction"),
    (["decay", "--window", "0"], "window_fraction"),
    (["exponents", "--n", "1", "--mu", "nan"], "mu and gamma must be finite"),
    (["exponents", "--n", "1", "--mu", "inf"], "mu and gamma must be finite"),
    (["exponents", "--n", "1", "--mu", "4", "--gamma", "nan"], "mu and gamma must be finite"),
    (["gn", "--n", "1", "--q", "4", "--samples", "0"], "count must be >= 1"),
])
def test_bad_cli_number_exit_code(tmp_path, capsys, argv, name):
    from dampwave.analysis import NormSeries

    if argv[0] == "decay":
        lam = np.geomspace(1.0, 1e3, 40)
        series_path = tmp_path / "series.csv"
        NormSeries(times=lam - 1.0, lambda_big=lam, tracks={"L2": lam**-0.5}).to_csv(series_path)
        argv = argv + ["--in", str(series_path)]
    assert main(argv) == 2
    assert f"error: {name}" in capsys.readouterr().err


def test_exponents_json(capsys):
    assert main(["exponents", "--n", "1", "--gamma", "0", "--m", "1",
                 "--mu", "4"]) == 0
    blob = json.loads(capsys.readouterr().out)
    names = {e["name"]: e for e in blob["entries"]}
    assert names["lm_existence"]["value"] == 3.0


def test_gn_json(capsys):
    assert main(["gn", "--n", "1", "--q", "4", "--samples", "20", "--seed", "7"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["passed"] and blob["theta"] == 0.25


def test_specfun_selftest(tmp_path):
    out = tmp_path / "self.csv"
    assert main(["specfun-selftest", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("nu,tau,wronskian_residual")
    assert len(lines) > 50


def test_multiplier_check(tmp_path, capsys):
    cfg = write_json(tmp_path / "mc.json", _mc_config())
    out = tmp_path / "mc.csv"
    assert main(["multiplier-check", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["worst_rel_err"] < 1e-6
    header = out.read_text().splitlines()[0]
    assert header.split(",")[:6] == ["mu", "profile", "s", "t", "xi", "zone"]


def _mc_config(**overrides):
    cfg = {"mu": 3.5, "profile": {"kind": "constant"}, "samples": 12,
           "seed": 2, "dt_max": 5.0, "tau_cap": 100.0}
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize("cfg, name", [
    (_mc_config(mu="abc"), "mu"),
    (_mc_config(samples="x"), "samples"),
    (_mc_config(samples=0), "samples"),
    (_mc_config(xi_range=[0, 5]), "xi_range"),
    (_mc_config(xi_range=[5.0, 1.0]), "xi_range"),
    (_mc_config(xi_range=[1.0]), "xi_range"),
    (_mc_config(xi_range="x"), "xi_range"),
    (_mc_config(tau_cap=0.0), "tau_cap"),
    (_mc_config(mu=float("nan")), "every number must be finite"),
    (_mc_config(profile="x"), "profile"),
    ([1, 2], "config must be a JSON object"),
    (_mc_config(s_max=-1.0), "s_max"),
    (_mc_config(dt_max=-5.0), "dt_max"),
])
def test_multiplier_check_malformed_config_exit_code(tmp_path, capsys, cfg, name):
    path = write_json(tmp_path / "mc.json", cfg)
    assert main(["multiplier-check", "--config", path,
                 "--out", str(tmp_path / "mc.csv")]) == 2
    assert f"error: {name}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "mc.csv")


@pytest.mark.parametrize("command", ["simulate", "multiplier-check", "scan"])
def test_invalid_json_config_exit_code(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_text('{"profile": ')
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error: config is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, name", [
    ({"base": {}}, "missing required key 'axes'"),
    ({"axes": {"eps": [0.1]}}, "missing required key 'base'"),
    ({"base": {}, "axes": {"eps": ["x"]}}, "axes.eps"),
    ({"base": {}, "axes": {"eps": []}}, "axes.eps"),
    ({"base": {}, "axes": {}}, "scan needs at least one axis"),
    ({"base": {}, "axes": {"width": [1.0]}}, "unknown scan axis"),
    ({"base": {}, "axes": {"eps": [0.1]}, "workers": "x"}, "workers"),
    ({"base": {"data": "x"}, "axes": {"eps": [0.1]}}, "data"),
    ({"base": {"grid": {"n": 1.5}}, "axes": {"eps": [0.1]}}, "base.grid.n"),
    ({"base": {}, "axes": {"eps": [0.1]}, "classify": {"min_slope": "x"}},
     "classify.min_slope"),
    ([1, 2], "scan config must be a JSON object"),
    ({"base": {}, "axes": {"eps": [0.1]}, "workers": 0}, "workers must be at least 1"),
    ({"base": {"mu": 30.0}, "axes": {"eps": [0.1]}}, "base.mu: mu=30 needs Hankel orders"),
    ({"base": {"mu": 4.0}, "axes": {"mu": [2.0, 30.0]}}, "axes.mu: mu=30 needs Hankel orders"),
    ({"base": {"K": 0.5}, "axes": {"eps": [0.1]}}, "base.K is not a config key"),
    ({"base": {"grid": {"l": 10.0}}, "axes": {"eps": [0.1]}},
     "base.grid.l is not a config key"),
    ({"base": {}, "axes": {"eps": [0.1]}, "classify": {"window_fraction": float("nan")}},
     "classify.window_fraction must be in (0, 1]"),
])
def test_scan_malformed_config_exit_code(tmp_path, capsys, cfg, name):
    path = write_json(tmp_path / "scan.json", cfg)
    outdir = tmp_path / "scan"
    assert main(["scan", "--config", path, "--out", str(outdir)]) == 2
    assert f"error: {name}" in capsys.readouterr().err
    assert not outdir.exists()


def test_plotdata_loglog(tmp_path, capsys):
    cfg = run_config(tmp_path, T=60.0, mu=4.0)
    series_path = tmp_path / "series.csv"
    main(["simulate", "--config", cfg, "--out", str(series_path)])
    capsys.readouterr()
    prefix = str(tmp_path / "plot")
    assert main(["plotdata", "--in", str(series_path), "--style",
                 "loglog_decay", "--out", prefix]) == 0
    assert os.path.exists(prefix + ".dat")
    gp = open(prefix + ".gp").read()
    assert "logscale xy" in gp and "ref slope" in gp


def test_plotdata_reference_slopes_follow_the_regime(tmp_path, capsys):
    # n = 3, mu = 2 lies below both borders (3 and 5 for L^1 data): both
    # norms decay like Lambda^(-mu/2), which the L2 fit confirms
    series = radial.linear_decay_series(2.0, profiles.constant_profile(),
                                        radial.gaussian_spectrum((2.0 * np.pi) ** 1.5),
                                        radial.gaussian_spectrum(0.0),
                                        np.geomspace(1.0, 1.0e4, 81), n=3)
    assert analysis.fit_decay(series, "L2").alpha == pytest.approx(1.0, abs=0.05)
    series.to_csv(tmp_path / "series.csv")
    prefix = str(tmp_path / "plot")
    assert main(["plotdata", "--in", str(tmp_path / "series.csv"), "--style",
                 "loglog_decay", "--out", prefix]) == 0
    # one reference line per track, L2 then energy
    assert re.findall(r"title '(ref slope [^']*)'", open(prefix + ".gp").read()) == [
        "ref slope -1", "ref slope -1"]


def test_plotdata_phase_map(tmp_path, capsys):
    scan_cfg = write_json(tmp_path / "scan.json", {
        "base": {
            "profile": {"kind": "constant"}, "mu": 4.0,
            "grid": {"n": 1, "N": 256},
            "nonlinearity": {"form": "absolute_power", "p": 2.2, "gamma": 0.0},
            "data": {"kind": "gaussian", "amplitude": 0.5, "width": 1.0},
            "T": 10.0, "samples_per_decade": 10,
        },
        "axes": {"eps": [0.0, 1.0]},
        "workers": 1,
    })
    outdir = tmp_path / "scan"
    assert main(["scan", "--config", str(scan_cfg), "--out", str(outdir)]) == 0
    capsys.readouterr()
    prefix = str(tmp_path / "phase")
    assert main(["plotdata", "--in", str(outdir), "--style", "phase_map",
                 "--out", prefix]) == 0
    rows = open(prefix + ".dat").read().strip().splitlines()
    assert len(rows) == 3  # header + 2 cells


def test_plotdata_unknown_style_and_empty(tmp_path):
    assert main(["plotdata", "--in", str(tmp_path / "none.csv"),
                 "--style", "loglog_decay", "--out", str(tmp_path / "x")]) in (2, 3)
    assert not os.path.exists(str(tmp_path / "x") + ".dat")


@pytest.mark.parametrize("value", ["abc", "", "1.5", "0", "-2"])
def test_scan_malformed_thread_env_exit_code(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("DAMPWAVE_THREADS", value)
    path = write_json(tmp_path / "scan.json", {"base": {}, "axes": {"eps": [0.1]}})
    outdir = tmp_path / "scan"
    assert main(["scan", "--config", path, "--out", str(outdir)]) == 2
    assert "error: DAMPWAVE_THREADS" in capsys.readouterr().err
    assert not outdir.exists()


AC4_CONFIG = {"profile": {"kind": "constant"}, "mu": 4.0,
              "grid": {"n": 1, "N": 4096},
              "nonlinearity": {"form": "signed_power", "p": 4.0, "gamma": 0.0},
              "data": {"kind": "gaussian", "amplitude": 1e-3, "width": 1.0},
              "T": 200.0, "seed": 0}

_MUTANTS = ("x", True, False, None, float("nan"), 0, -3.5, 1e308, [1.0], {"a": 1},
            "delete")


def _leaves(obj, path=()):
    if isinstance(obj, dict) and obj:
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    else:
        yield path


def test_seeded_config_mutations_validate_or_raise_validation_error():
    import copy
    import random

    from dampwave.config import RunConfig, validate_config
    from dampwave.errors import ValidationError

    rng = random.Random(2012)
    leaves = list(_leaves(AC4_CONFIG))
    outcomes = {"valid": 0, "invalid": 0}
    for _ in range(300):
        cfg = copy.deepcopy(AC4_CONFIG)
        *parents, key = rng.choice(leaves)
        section = cfg
        for name in parents:
            section = section[name]
        mutant = rng.choice(_MUTANTS)
        if mutant == "delete":
            del section[key]
        else:
            section[key] = copy.deepcopy(mutant)
        try:
            assert isinstance(validate_config(cfg), RunConfig)
            outcomes["valid"] += 1
        except ValidationError:
            outcomes["invalid"] += 1
    assert min(outcomes.values()) > 0
