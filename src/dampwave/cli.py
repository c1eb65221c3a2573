"""Command-line entry point.

Subcommands: simulate, multiplier-check, specfun-selftest, decay, scan,
exponents, gn, plotdata.  Exit codes: 0 success (blow-up outcomes are
results, not errors), 2 validation error, 3 runtime/integration failure,
4 resource cap.  All floating-point output uses 17 significant digits and
every random choice is seeded, so identical invocations give identical
bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import analysis, multipliers, scan, specfun
from .analysis import _fmt
from .config import CHECK_FORMAT, build_profile, parse_json, read, validate_config
from .errors import (DampwaveError, DegenerateFitError, DomainError, FitWindowError,
                     ResourceCapError, ValidationError)
from .solver import BlowupRecord, simulate


def write_snapshot(directory, state, grid, tag):
    """Flat little/big-endian binary arrays plus a JSON sidecar."""
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, f"state_{tag}")
    state.u.astype(np.float64).tofile(base + "_u.bin")
    state.ut.astype(np.float64).tofile(base + "_ut.bin")
    sidecar = {
        "t": state.t,
        "dtype": "float64",
        "endianness": sys.byteorder,
        "shape": list(grid.shape),
        "n": grid.n, "N": grid.N, "L": grid.L,
        "files": {"u": os.path.basename(base + "_u.bin"),
                  "ut": os.path.basename(base + "_ut.bin")},
    }
    with open(base + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def _cmd_simulate(args):
    with open(args.config) as fh:
        cfg = validate_config(fh.read())
    series, final = simulate(cfg)
    series.to_csv(args.out)
    if args.snapshots and not isinstance(final, BlowupRecord):
        write_snapshot(args.snapshots, final, cfg.grid, f"{final.t:.6f}")
    if isinstance(final, BlowupRecord):
        print(json.dumps({"outcome": "blowup", "t_star": final.t_star,
                          "reason": final.reason, "run_id": cfg.run_id}))
    else:
        print(json.dumps({"outcome": "completed", "T": final.t,
                          "run_id": cfg.run_id}))
    return 0


def _multiplier_check_params(cfg):
    """Validated (profile, numbers) of a multiplier-check config."""
    if not isinstance(cfg, dict):
        raise ValidationError(["config must be a JSON object"])
    violations = []
    num = read(cfg, CHECK_FORMAT, violations)
    profile = build_profile(num.pop("profile"), violations)
    num["xi_lo"], num["xi_hi"] = num.pop("xi_range")
    if not all(math.isfinite(v) for v in num.values()):
        violations.append("every number must be finite")
    elif not violations:
        # every draw has tau >= Lambda(0) xi_lo; a smaller cap would redraw forever
        tau_min = float(profile.Lambda_at(0.0)) * num["xi_lo"]
        if not num["tau_cap"] > tau_min:
            violations.append(f"tau_cap must exceed Lambda(0) * xi_lo = {tau_min:g}")
    if violations:
        raise ValidationError(violations)
    return profile, num


def _cmd_multiplier_check(args):
    with open(args.config) as fh:
        cfg = parse_json(fh.read())
    profile, num = _multiplier_check_params(cfg)
    mu, count, K = num["mu"], num["samples"], num["K"]
    rng = np.random.default_rng(num["seed"])

    tuples = []
    while len(tuples) < count:
        s = rng.uniform(0.0, num["s_max"])
        t = s + rng.uniform(0.0, num["dt_max"])
        xi = 10.0 ** rng.uniform(math.log10(num["xi_lo"]), math.log10(num["xi_hi"]))
        if float(profile.Lambda_at(t)) * xi > num["tau_cap"]:
            continue
        tuples.append((s, t, xi))

    sigma = np.array([profile.Lambda_at(s) * xi for s, _, xi in tuples])
    tau = np.array([profile.Lambda_at(t) * xi for _, t, xi in tuples])
    ls_xi = np.array([profile.lambda_at(s) * xi for s, _, xi in tuples])
    lt_xi = np.array([profile.lambda_at(t) * xi for _, t, xi in tuples])
    oracle = multipliers.oracle_matrix_batch(mu, sigma, tau, ls_xi, lt_xi, rtol=1e-12)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "profile", "s", "t", "xi", "zone",
                         "phi0", "phi1", "dphi0", "dphi1",
                         "oracle_phi0", "oracle_phi1", "oracle_dphi0",
                         "oracle_dphi1", "rel_err"])
        worst = 0.0
        for i, (s, t, xi) in enumerate(tuples):
            vals = multipliers.phi_values(mu, profile, s, t, xi)
            zone = multipliers.classify_zone(K, profile, s, t, xi).value
            got = [vals.phi0.real, vals.phi1.real, vals.dphi0.real, vals.dphi1.real]
            ora = [entry[i] for entry in oracle]
            rel = max(abs(g - o) / max(abs(o), 1e-9) for g, o in zip(got, ora))
            worst = max(worst, rel)
            writer.writerow([_fmt(mu), profile.kind, _fmt(s), _fmt(t), _fmt(xi),
                             zone] + [_fmt(v) for v in got + ora] + [_fmt(rel)])
    print(json.dumps({"samples": count, "worst_rel_err": worst}))
    return 0


def _cmd_specfun_selftest(args):
    rows = specfun.selftest_rows()
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["nu", "tau", "wronskian_residual", "ode_residual",
                         "conjugacy_residual", "halfint_residual"])
        for row in rows:
            writer.writerow([
                _fmt(row["nu"]), _fmt(row["tau"]),
                _fmt(row["wronskian_residual"]), _fmt(row["ode_residual"]),
                _fmt(row["conjugacy_residual"]),
                "" if row["halfint_residual"] == "" else _fmt(row["halfint_residual"]),
            ])
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_decay(args):
    series = analysis.NormSeries.from_csv(args.infile)
    fit = analysis.fit_decay(series, args.track, args.window)
    print(json.dumps({
        "track": args.track, "alpha": fit.alpha, "c_log": fit.c_log,
        "model": fit.model, "residual": fit.residual,
        "window": list(fit.window)}, sort_keys=True))
    return 0


def _cmd_scan(args):
    with open(args.config) as fh:
        scan_cfg = parse_json(fh.read())
    result = scan.run_scan(scan_cfg)
    result.write_dir(args.out)
    summary = {"cells": len(result.cells),
               "outcomes": {o: sum(1 for c in result.cells if c.outcome == o)
                            for o in ("global_decay", "blowup", "undecided")},
               "monotonicity_flags": result.monotonicity_flags}
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_exponents(args):
    report = analysis.exponent_catalog(args.n, args.gamma, args.m, args.mu)
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_gn(args):
    report = scan.gn_verify(args.q, args.n, count=args.samples, seed=args.seed)
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_plotdata(args):
    if args.style == "loglog_decay":
        series = analysis.NormSeries.from_csv(args.infile)
        if len(series.times) < 2:
            raise DomainError("series too short to plot")
        names = [c for c in series.column_names() if c != "blowup_flag"]
        dat = args.out + ".dat"
        gp = args.out + ".gp"
        with open(dat, "w") as fh:
            fh.write("# Lambda_t " + " ".join(names) + "\n")
            for i in range(len(series.times)):
                fh.write(" ".join([_fmt(series.lambda_big[i])] +
                                  [_fmt(series.tracks[c][i]) for c in names]) + "\n")
        meta = series.metadata
        slopes = analysis.predicted_decay_exponents(int(meta.get("n", 1)),
                                                    float(meta.get("mu", 2.0)))
        with open(gp, "w") as fh:
            fh.write("set logscale xy\nset xlabel 'Lambda(t)'\n")
            fh.write("set ylabel 'norm'\nset key left bottom\n")
            plots = []
            for j, name in enumerate(names):
                plots.append(f"'{os.path.basename(dat)}' using 1:{j + 2} "
                             f"with lines title '{name}'")
            for track, slope in slopes.items():
                if track in names:
                    plots.append(f"x**(-{slope:g}) with lines dashtype 2 "
                                 f"title 'ref slope -{slope:g}'")
            fh.write("plot " + ", \\\n     ".join(plots) + "\n")
        print(json.dumps({"files": [dat, gp]}))
        return 0
    if args.style == "phase_map":
        path = os.path.join(args.infile, "outcomes.csv")
        if not os.path.exists(path):
            raise DomainError(f"no outcomes.csv under {args.infile!r}")
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            raise DomainError("empty scan outcomes")
        code = {"undecided": 0, "global_decay": 1, "blowup": 2}
        axes = [k for k in rows[0] if k not in
                ("index", "outcome", "t_star", "alpha", "residual", "model",
                 "at_threshold", "reason")]
        dat = args.out + ".dat"
        gp = args.out + ".gp"
        with open(dat, "w") as fh:
            fh.write("# " + " ".join(axes) + " outcome_code t_star\n")
            for row in rows:
                fh.write(" ".join([row[a] for a in axes]
                                  + [str(code[row["outcome"]]),
                                     row["t_star"] or "nan"]) + "\n")
        with open(gp, "w") as fh:
            fh.write("set palette defined (0 'gray', 1 'blue', 2 'red')\n")
            if len(axes) >= 2:
                fh.write(f"set xlabel '{axes[0]}'\nset ylabel '{axes[1]}'\n")
                fh.write(f"plot '{os.path.basename(dat)}' using 1:2:{len(axes) + 1} "
                         "with points pt 5 ps 3 palette notitle\n")
            else:
                fh.write(f"plot '{os.path.basename(dat)}' using 1:{len(axes) + 1} "
                         "with points pt 5 palette notitle\n")
        print(json.dumps({"files": [dat, gp]}))
        return 0
    raise DomainError(f"unknown plot style {args.style!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dampwave",
        description="Numerical laboratory for damped waves with "
                    "time-dependent propagation speed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the semilinear solver")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--snapshots", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("multiplier-check", help="propagator vs ODE oracle table")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_multiplier_check)

    p = sub.add_parser("specfun-selftest", help="special-function identity residuals")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_specfun_selftest)

    p = sub.add_parser("decay", help="fit a decay rate from a series CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--track", default="L2")
    p.add_argument("--window", type=float, default=0.5)
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("scan", help="classify a parameter grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("exponents", help="closed-form threshold table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--mu", type=float, required=True)
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("gn", help="empirical Gagliardo-Nirenberg check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gn)

    p = sub.add_parser("plotdata", help="gnuplot-ready data files")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--style", required=True,
                   choices=["loglog_decay", "phase_map"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DomainError, DegenerateFitError, FitWindowError) as exc:
        if isinstance(exc, ValidationError):
            for v in exc.violations:
                print(f"error: {v}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except (DampwaveError, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
