"""Run-configuration parsing, validation and canonical hashing.

A run config is a JSON object::

    {
      "profile": {"kind": "constant" | "polynomial" | "exponential" | "custom",
                   "q": ..., "r": ..., "lambda0": ...,
                   "table_t": [...], "table_lambda": [...]},
      "mu": ... | "nu": ...,             # exactly one
      "grid": {"n": 1, "N": 1024, "L": optional},
      "nonlinearity": {"form": "zero" | "signed_power" | "absolute_power",
                        "p": ..., "gamma": 0.0, "scaling": "plain"},
      "data": {"kind": "gaussian" | "bump" | "mode_mix",
                "amplitude": 1e-3, "width": 1.0, "seed": 0},
      "T": ...,
      "K": 0.5, "dt_max": 0.1, "blowup_factor": 1e6,
      "m_list": [1.0], "samples_per_decade": 20,
      "weighted": {"enabled": false, "mu": null},
      "seed": 0, "memory_cap_bytes": 2000000000
    }

Validation collects *all* violations before failing, fills defaults, and
enforces the domain-sizing rule L >= R0 + (Lambda(T) - lambda0) + 2 so the
periodic box never lets the light cone wrap around.  The canonical
serialized form (sorted keys, defaults filled) is hashed into the run id.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field

from . import profiles as _profiles
from .errors import DomainError, ResourceCapError, ValidationError
from .multipliers import DEFAULT_K
from .solver import Grid, NonlinearitySpec, WeightedNormSpec

DEFAULTS = {
    "K": DEFAULT_K,
    "dt_max": 0.1,
    "blowup_factor": 1.0e6,
    "m_list": [1.0],
    "samples_per_decade": 20,
    "seed": 0,
    "memory_cap_bytes": 2_000_000_000,
    "fit_window": 0.5,
}

# effective support radius of the data kinds, in units of the width
_R0_FACTOR = {"gaussian": 6.5, "bump": 1.0, "mode_mix": 0.0}


@dataclass(frozen=True)
class InitialDataSpec:
    kind: str = "gaussian"
    amplitude: float = 1e-3
    width: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    profile: object
    damping: object
    grid: Grid
    nonlin: NonlinearitySpec
    data: InitialDataSpec
    T: float
    K: float
    dt_max: float
    blowup_factor: float
    m_list: tuple
    samples_per_decade: int
    weighted: WeightedNormSpec
    seed: int
    fit_window: float
    r0: float
    run_id: str
    canonical: dict = field(repr=False)
    warnings: tuple = ()

    @property
    def metadata(self):
        nl = self.canonical["nonlinearity"]
        return {
            "config_hash": self.run_id,
            "n": self.grid.n,
            "mu": self.damping.mu,
            "gamma": nl["gamma"],
            "p": nl["p"] if nl["form"] != "zero" else None,
            "kind": self.canonical["profile"]["kind"],
        }


def config_hash(canonical):
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _build_profile(spec, violations):
    kind = spec.get("kind")
    lam0 = spec.get("lambda0")
    try:
        if kind == "constant":
            return _profiles.constant_profile(1.0 if lam0 is None else lam0)
        if kind == "polynomial":
            if "q" not in spec:
                violations.append("polynomial profile needs 'q'")
                return None
            return _profiles.polynomial_profile(spec["q"], lam0)
        if kind == "exponential":
            if "r" not in spec:
                violations.append("exponential profile needs 'r'")
                return None
            return _profiles.exponential_profile(spec["r"], lam0)
        if kind == "custom":
            if "table_t" not in spec or "table_lambda" not in spec:
                violations.append("custom profile needs 'table_t' and 'table_lambda'")
                return None
            return _profiles.custom_profile(spec["table_t"], spec["table_lambda"],
                                            1.0 if lam0 is None else lam0)
    except (DomainError, TypeError, ValueError) as exc:
        violations.append(f"profile: {exc}")
        return None
    violations.append(f"unknown profile kind {kind!r}")
    return None


def _is_number(value):
    """A JSON number: bools are ints to Python but not numbers here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(section, key, default, cast, violations, prefix=""):
    """``cast(section[key])``, or ``default`` with a violation if that fails.

    The value must be a number; with ``cast=int`` also an integral one.
    """
    value = section.get(key, default)
    try:
        if not _is_number(value):
            raise TypeError
        out = cast(value)
    except (TypeError, ValueError, OverflowError):
        violations.append(f"{prefix}{key} must be a number, got {value!r}")
        return default
    if cast is int and out != value:
        violations.append(f"{prefix}{key} must be an integer, got {value!r}")
        return default
    return out


def _section(raw, key, violations):
    """The JSON object ``raw[key]`` as a dict ({} if absent or not an object)."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        violations.append(f"{key} must be a JSON object, got {value!r}")
        return {}
    return dict(value)


def _number_list(section, key, default, violations, prefix=""):
    """``[float(v) for v in section[key]]``, or ``default`` with a violation."""
    value = section.get(key, default)
    if isinstance(value, (list, tuple)) and all(_is_number(v) for v in value):
        return [float(v) for v in value]
    violations.append(f"{prefix}{key} must be a list of numbers, got {value!r}")
    return list(default)


def parse_json(text):
    """Parse config text; malformed JSON is a ValidationError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError([f"config is not valid JSON: {exc}"]) from None


def validate_config(raw):
    """Parse and validate a raw config (dict or JSON string) into a RunConfig.

    Raises ValidationError listing every violation; attaches non-fatal
    admissibility warnings (Hypothesis-style p and mu range notes) to the
    returned config and emits them via warnings.warn.
    """
    if isinstance(raw, str):
        raw = parse_json(raw)
    if not isinstance(raw, dict):
        raise ValidationError(["config must be a JSON object"])
    violations = []
    notes = []

    for key in ("profile", "T"):
        if key not in raw:
            violations.append(f"missing required key {key!r}")

    # mu/nu may sit at top level or inside the profile object; exactly one
    # of the two names may be present overall
    profile_raw = _section(raw, "profile", violations)
    damping_keys = [(k, src[k]) for src in (raw, profile_raw)
                    for k in ("mu", "nu") if k in src]
    if len(damping_keys) != 1:
        violations.append("exactly one of 'mu'/'nu' must be present")
    profile_raw.pop("mu", None)
    profile_raw.pop("nu", None)

    profile = None
    if "profile" in raw:
        profile = _build_profile(profile_raw, violations)

    damping = None
    if profile is not None and len(damping_keys) == 1:
        key, value = damping_keys[0]
        value = _number({key: value}, key, None, float, violations)
        try:
            if value is not None:
                damping = (_profiles.DampingSpec.from_mu(value) if key == "mu"
                           else _profiles.DampingSpec.from_nu(value, profile))
        except DomainError as exc:
            violations.append(str(exc))

    T = _number(raw, "T", None, float, violations) if "T" in raw else None
    if T is not None and not 0.0 < T < math.inf:
        violations.append("T must be a positive finite number")
        T = None
    if profile is not None and T is not None and T > profile.t_max:
        violations.append(f"T={T:g} beyond the custom profile table end {profile.t_max:g}")

    grid_raw = _section(raw, "grid", violations)
    n = _number(grid_raw, "n", 1, int, violations, "grid.")
    N = _number(grid_raw, "N", 1024, int, violations, "grid.")
    data_raw = _section(raw, "data", violations)
    data = InitialDataSpec(
        kind=data_raw.get("kind", "gaussian"),
        amplitude=_number(data_raw, "amplitude", 1e-3, float, violations, "data."),
        width=_number(data_raw, "width", 1.0, float, violations, "data."),
        seed=_number(data_raw, "seed", raw.get("seed", DEFAULTS["seed"]), int,
                     violations, "data."))
    if data.kind not in _R0_FACTOR:
        violations.append(f"unknown data kind {data.kind!r}")
        r0 = 0.0
    else:
        r0 = _R0_FACTOR[data.kind] * data.width

    grid = None
    L = grid_raw.get("L")
    if L is not None:
        L = _number(grid_raw, "L", None, float, violations, "grid.")
    if profile is not None and T is not None:
        try:
            lam0 = profile.lambda0
            L_rule = r0 + (float(profile.Lambda_at(min(T, profile.t_max))) - lam0) + 2.0
            if L is None:
                L = L_rule
            elif L < L_rule - 1e-9:
                violations.append(
                    f"grid.L={L:g} below the domain-sizing rule {L_rule:g}"
                    " (light cone would wrap around)")
            if L is not None and L > 0 and not violations:
                grid = Grid(n=n, N=N, L=float(L))
        except DomainError as exc:
            violations.append(f"grid: {exc}")

    nl_raw = _section(raw, "nonlinearity", violations)
    nonlin = None
    nl_gamma = _number(nl_raw, "gamma", 0.0, float, violations, "nonlinearity.")
    try:
        nonlin = NonlinearitySpec(
            form=nl_raw.get("form", "zero"),
            p=_number(nl_raw, "p", 2.0, float, violations, "nonlinearity."),
            gamma=nl_gamma,
            scaling=nl_raw.get("scaling", "plain"))
    except DomainError as exc:
        violations.append(f"nonlinearity: {exc}")

    w_raw = _section(raw, "weighted", violations)
    enabled = w_raw.get("enabled", False)
    if not isinstance(enabled, bool):
        violations.append(f"weighted.enabled must be true or false, got {enabled!r}")
    w_mu = (None if w_raw.get("mu") is None
            else _number(w_raw, "mu", None, float, violations, "weighted."))
    weighted = WeightedNormSpec(enabled=enabled is True, mu=w_mu)

    K = _number(raw, "K", DEFAULTS["K"], float, violations)
    dt_max = _number(raw, "dt_max", DEFAULTS["dt_max"], float, violations)
    blowup_factor = _number(raw, "blowup_factor", DEFAULTS["blowup_factor"], float,
                            violations)
    m_list = _number_list(raw, "m_list", DEFAULTS["m_list"], violations)
    samples_per_decade = _number(raw, "samples_per_decade",
                                 DEFAULTS["samples_per_decade"], int, violations)
    seed = _number(raw, "seed", DEFAULTS["seed"], int, violations)
    fit_window = _number(raw, "fit_window", DEFAULTS["fit_window"], float, violations)

    for name, ok, need in (
            ("data.width", 0.0 < data.width < math.inf, "a positive finite number"),
            ("dt_max", 0.0 < dt_max < math.inf, "a positive finite number"),
            ("K", 0.0 < K < 1.0, "in (0, 1)"),
            ("blowup_factor", 1.0 < blowup_factor < math.inf, "a finite number above 1"),
            ("m_list", all(0.0 < m < math.inf for m in m_list), "positive finite numbers"),
            ("data.amplitude", math.isfinite(data.amplitude), "finite"),
            ("grid.L", L is None or math.isfinite(L), "finite"),
            ("nonlinearity.gamma", math.isfinite(nl_gamma), "finite"),
            ("weighted.mu", w_mu is None or math.isfinite(w_mu), "finite"),
            ("fit_window", math.isfinite(fit_window), "finite")):
        if not ok:
            violations.append(f"{name} must be {need}")

    mem = _number(raw, "memory_cap_bytes", DEFAULTS["memory_cap_bytes"], int,
                  violations)
    if grid is not None:
        est = 16 * 8 * N**n  # ~16 working arrays of float64
        if est > mem:
            raise ResourceCapError(
                f"grid memory estimate {est} bytes exceeds cap {mem}")

    if violations:
        raise ValidationError(violations)

    # non-fatal admissibility notes
    if nonlin.form != "zero":
        if n >= 3 and nonlin.p > 1.0 + 2.0 / (n - 2.0):
            notes.append(f"p={nonlin.p:g} exceeds the admissibility bound "
                         f"1+2/(n-2)={1.0 + 2.0 / (n - 2.0):g} for n={n}")
        if damping.mu < 2.0:
            notes.append(f"mu={damping.mu:g} < 2: only the sub-threshold "
                         "estimates apply")
    if damping.mu < 0.0:
        notes.append(f"mu={damping.mu:g} < 0: dissipativity fails")
    for msg in notes:
        warnings.warn(msg, UserWarning, stacklevel=2)

    canonical = {
        "profile": {k: profile_raw[k] for k in sorted(profile_raw)},
        "mu": damping.mu,
        "grid": {"n": n, "N": N, "L": float(L)},
        "nonlinearity": {"form": nonlin.form, "p": nonlin.p,
                         "gamma": nonlin.gamma, "scaling": nonlin.scaling},
        "data": {"kind": data.kind, "amplitude": data.amplitude,
                 "width": data.width, "seed": data.seed},
        "T": float(T),
        "K": K,
        "dt_max": dt_max,
        "blowup_factor": blowup_factor,
        "m_list": m_list,
        "samples_per_decade": samples_per_decade,
        "weighted": {"enabled": weighted.enabled, "mu": weighted.mu},
        "seed": seed,
        "fit_window": fit_window,
    }

    return RunConfig(
        profile=profile, damping=damping, grid=grid, nonlin=nonlin, data=data,
        T=float(T), K=K, dt_max=canonical["dt_max"],
        blowup_factor=canonical["blowup_factor"],
        m_list=tuple(canonical["m_list"]),
        samples_per_decade=canonical["samples_per_decade"],
        weighted=weighted, seed=canonical["seed"],
        fit_window=canonical["fit_window"], r0=r0,
        run_id=config_hash(canonical), canonical=canonical,
        warnings=tuple(notes))
