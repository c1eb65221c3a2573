"""Config formats: one table per format, one reader, run-config validation.

Every JSON config format is a table naming each key with its type, default
and limit; ``read`` applies a table and collects every violation (a key the
table does not name is one).  A run config follows ``RUN_FORMAT``:

* ``profile`` (required): ``kind`` (constant | polynomial | exponential |
  custom) and that family's numbers, checked by ``build_profile``;
* the damping strength as exactly one of ``mu`` or its raw form ``nu``,
  at top level or inside ``profile``;
* the sections ``grid``, ``nonlinearity``, ``data`` and ``weighted``, the
  final time ``T`` (required) and the top-level numbers, with the defaults
  and limits the table gives; ``data.seed`` defaults to ``seed``, and an
  absent or null ``grid.L`` to the domain-sizing rule
  L >= R0 + (Lambda(T) - lambda0) + 2, which keeps the light cone from
  wrapping around the periodic box (a smaller ``L`` is rejected).

The canonical serialized form (sorted keys, defaults filled, ``mu`` in
place of ``nu``, without ``memory_cap_bytes``) is hashed into the run id.
The scan format (``SCAN_FORMAT``, read by ``scan.run_scan``) and the
multiplier-check format (``CHECK_FORMAT``, read by the CLI) are tables here
too.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field

from . import profiles as _profiles
from .analysis import WINDOW_FRACTION
from .errors import (_ABOVE_ONE, _FINITE, _NON_NEGATIVE, _POSITIVE, DomainError,
                     ResourceCapError, ValidationError)
from .multipliers import DEFAULT_K, _check_orders
from .solver import Grid, NonlinearitySpec, WeightedNormSpec

# the default of a key that must be given
REQUIRED = object()

_AT_LEAST_ONE = (lambda v: v >= 1, "at least 1")

# effective support radius of the data kinds, in units of the width
_R0_FACTOR = {"gaussian": 6.5, "bump": 1.0, "mode_mix": 0.0}

# build_profile checks the profile's values; they are kept as given, and so
# hashed as written
PROFILE_FORMAT = {key: (object, None, None)
                  for key in ("kind", "q", "r", "lambda0", "table_t", "table_lambda")}
_DAMPING = {"mu": (float, None, None), "nu": (float, None, None)}

RUN_FORMAT = {
    "profile": (PROFILE_FORMAT | _DAMPING, REQUIRED, None),
    **_DAMPING,
    "grid": ({"n": (int, 1, None), "N": (int, 1024, None),
              "L": (float, None, _FINITE)}, {}, None),
    "nonlinearity": ({"form": (str, NonlinearitySpec.form, None),
                      "p": (float, NonlinearitySpec.p, None),
                      "gamma": (float, NonlinearitySpec.gamma, _FINITE),
                      "scaling": (str, NonlinearitySpec.scaling, None)}, {}, None),
    "data": ({"kind": (str, "gaussian", (_R0_FACTOR.__contains__,
                                         "one of " + ", ".join(_R0_FACTOR))),
              "amplitude": (float, 1e-3, _FINITE),
              "width": (float, 1.0, _POSITIVE),
              "seed": (int, None, None)}, {}, None),
    "T": (float, REQUIRED, _POSITIVE),
    "dt_max": (float, 0.1, _POSITIVE),
    "blowup_factor": (float, 1e6, _ABOVE_ONE),
    "m_list": (list, [1.0], (lambda v: all(0.0 < m < math.inf for m in v),
                             "positive finite numbers")),
    "samples_per_decade": (int, 20, _AT_LEAST_ONE),
    "weighted": ({"enabled": (bool, WeightedNormSpec.enabled, None),
                  "mu": (float, WeightedNormSpec.mu, _FINITE)}, {}, None),
    "seed": (int, 0, None),
    "memory_cap_bytes": (int, 2_000_000_000, None),
}

# base: a run config; axes: axis name -> values (see scan.run_scan);
# workers: None defers to DAMPWAVE_THREADS, then to the CPU count
SCAN_FORMAT = {
    "base": (RUN_FORMAT, REQUIRED, None),
    "axes": (dict, REQUIRED, None),
    "classify": ({"threshold_m": (float, 1.0, None),
                  "window_fraction": (float, 0.5, WINDOW_FRACTION),
                  "min_slope": (float, 0.05, None),
                  "max_residual": (float, 0.25, None),
                  "growth_tol": (float, 1.1, None)}, {}, None),
    "workers": (int, None, _AT_LEAST_ONE),
}

# the multiplier-check command's config
CHECK_FORMAT = {
    "profile": (PROFILE_FORMAT, {"kind": "constant"}, None),
    "mu": (float, 2.0, None),
    "samples": (int, 100, _AT_LEAST_ONE),
    "seed": (int, 0, None),
    "s_max": (float, 2.0, _NON_NEGATIVE),
    "dt_max": (float, 50.0, _NON_NEGATIVE),
    "tau_cap": (float, 3000.0, None),
    "K": (float, DEFAULT_K, None),
    "xi_range": (list, [1e-3, 50.0], (lambda v: len(v) == 2 and 0.0 < v[0] < v[1] < math.inf,
                                      "[xi_lo, xi_hi] with 0 < xi_lo < xi_hi")),
}

_WHAT = {float: "a number", int: "an integer", bool: "true or false", str: "a string",
         list: "a list of numbers", dict: "a JSON object"}


def _cast(kind, value):
    """``value`` as a ``kind`` of ``read``, or None if it is not one."""
    if kind is list:
        items = ([_cast(float, v) for v in value] if isinstance(value, (list, tuple))
                 else [None])
        return None if None in items else items
    if kind in (bool, str, dict):
        return value if isinstance(value, kind) else None
    # a JSON number: bools are ints to Python but not numbers here
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        out = kind(value)
    except (ValueError, OverflowError):  # int() of nan or inf, float() of a huge int
        return None
    return out if kind is float or out == value else None


def read(raw, fmt, violations, where=""):
    """The values of the JSON object ``raw`` under the format table ``fmt``.

    ``fmt`` maps each key to (type, default, limit).  The type is float,
    int, bool, str, list (of numbers), dict (a JSON object kept as given),
    object (any value kept as given, left out when absent) or the table of
    a nested section.  An absent key takes the default (REQUIRED: it must
    be given); a default of None lets null stand for an absent key.  The
    limit is None or (condition, what a valid value is).  Each violation
    is appended to ``violations`` under the key prefix ``where``, and the
    failing value is replaced by its default.
    """
    violations += [f"{where}{key} is not a config key" for key in raw if key not in fmt]
    out = {}
    for key, (kind, default, limit) in fmt.items():
        name = where + key
        value = raw.get(key, default)
        if kind is object:
            if key in raw:
                out[key] = value
            continue
        if value is REQUIRED:
            violations.append(f"missing required key {name!r}")
            out[key] = None
            continue
        if value is None and default is None:
            out[key] = None
            continue
        section, kind = (kind, dict) if isinstance(kind, dict) else (None, kind)
        cast = _cast(kind, value)
        if cast is None:
            # a section that is not an object is named by its own key
            violations.append(f"{name if section is None else key} must be {_WHAT[kind]}, "
                              f"got {value!r}")
        elif limit is not None and not limit[0](cast):
            violations.append(f"{name} must be {limit[1]}, got {value!r}")
        else:
            out[key] = cast if section is None else read(cast, section, violations, name + ".")
            continue
        out[key] = read({}, {key: fmt[key]}, [], where)[key]
    return out


@dataclass(frozen=True)
class InitialDataSpec:
    kind: str
    amplitude: float
    width: float
    seed: int


@dataclass(frozen=True)
class RunConfig:
    profile: object
    damping: object
    grid: Grid
    nonlin: NonlinearitySpec
    data: InitialDataSpec
    T: float
    dt_max: float
    blowup_factor: float
    m_list: tuple
    samples_per_decade: int
    weighted: WeightedNormSpec
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


def build_profile(spec, violations):
    """The speed profile of a ``PROFILE_FORMAT`` object, or None with a violation."""
    kind = spec.get("kind")
    lam0 = {} if spec.get("lambda0") is None else {"lambda0": spec["lambda0"]}
    try:
        if kind == "constant":
            return _profiles.constant_profile(**lam0)
        if kind == "polynomial":
            if "q" not in spec:
                violations.append("polynomial profile needs 'q'")
                return None
            return _profiles.polynomial_profile(spec["q"], **lam0)
        if kind == "exponential":
            if "r" not in spec:
                violations.append("exponential profile needs 'r'")
                return None
            return _profiles.exponential_profile(spec["r"], **lam0)
        if kind == "custom":
            if "table_t" not in spec or "table_lambda" not in spec:
                violations.append("custom profile needs 'table_t' and 'table_lambda'")
                return None
            return _profiles.custom_profile(spec["table_t"], spec["table_lambda"], **lam0)
    except (DomainError, TypeError, ValueError, OverflowError) as exc:
        violations.append(f"profile: {exc}")
        return None
    violations.append(f"unknown profile kind {kind!r}")
    return None


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
    cfg = read(raw, RUN_FORMAT, violations)

    # mu/nu may sit at top level or inside the profile object; exactly one
    # of the two names may be given overall
    spec = cfg["profile"]
    given = [(key, sec.pop(key, None)) for sec in (cfg, spec or {}) for key in ("mu", "nu")]
    given = [(key, value) for key, value in given if value is not None]
    if len(given) != 1:
        violations.append("exactly one of 'mu'/'nu' must be present")
    profile = None if spec is None else build_profile(spec, violations)

    damping = None
    if profile is not None and len(given) == 1:
        key, value = given[0]
        try:
            damping = (_profiles.DampingSpec.from_mu(value) if key == "mu"
                       else _profiles.DampingSpec.from_nu(value, profile))
            _check_orders(damping.mu)
        except DomainError as exc:
            violations.append(str(exc))

    T = cfg["T"]
    if profile is not None and T is not None and T > profile.t_max:
        violations.append(f"T={T:g} beyond the custom profile table end {profile.t_max:g}")

    if cfg["data"]["seed"] is None:
        cfg["data"]["seed"] = cfg["seed"]
    data = InitialDataSpec(**cfg["data"])
    r0 = _R0_FACTOR[data.kind] * data.width
    box = cfg["grid"]
    if profile is not None and T is not None:
        try:
            L_rule = r0 + (float(profile.Lambda_at(min(T, profile.t_max)))
                           - profile.lambda0) + 2.0
        except (DomainError, OverflowError) as exc:  # Lambda(T) beyond float range
            violations.append(f"grid: sizing rule at T={T:g}: {exc}")
        else:
            if box["L"] is None:
                box["L"] = L_rule
            elif box["L"] < L_rule - 1e-9:
                violations.append(
                    f"grid.L={box['L']:g} below the domain-sizing rule {L_rule:g}"
                    " (light cone would wrap around)")

    try:
        nonlin = NonlinearitySpec(**cfg["nonlinearity"])
    except DomainError as exc:
        violations.append(f"nonlinearity: {exc}")
    if not violations:
        try:
            grid = Grid(**box)
        except DomainError as exc:
            violations.append(f"grid: {exc}")
    if violations:
        raise ValidationError(violations)

    mem = cfg.pop("memory_cap_bytes")
    est = 16 * 8 * grid.N**grid.n  # ~16 working arrays of float64
    if est > mem:
        raise ResourceCapError(f"grid memory estimate {est} bytes exceeds cap {mem}")

    # non-fatal admissibility notes
    notes = []
    n = grid.n
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

    cfg["mu"] = damping.mu
    return RunConfig(
        profile=profile, damping=damping, grid=grid, nonlin=nonlin, data=data,
        T=T, dt_max=cfg["dt_max"], blowup_factor=cfg["blowup_factor"],
        m_list=tuple(cfg["m_list"]), samples_per_decade=cfg["samples_per_decade"],
        weighted=WeightedNormSpec(**cfg["weighted"]), r0=r0,
        run_id=config_hash(cfg), canonical=cfg, warnings=tuple(notes))
