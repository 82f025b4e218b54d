"""Experiment configuration: defaults, validation, hashing and assembly.

Configs are plain JSON.  DEFAULTS lists every key with its default, whose
type is the key's type; NO_DEFAULT lists the keys without one.  Validation is
strict: unknown keys are rejected by name, types are checked, every rule the
config alone decides is checked before any run, and the validated config is
echoed (with its hash) into every output artifact for provenance.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np

from .basis import Q_MIN, DomainSpec, SpectralBasis, build_basis
from .diagnostics import MIN_PATHS_PAIRED
from .finite_dim import _FD_FRICTIONS
from .limit import FORMS
from .models import (
    _DIFFUSION_FACTORS,
    FRICTIONS,
    REACTIONS,
    ModelSet,
    build_diffusion,
    build_model_set,
    friction_preset,
    load_friction_csv,
    reaction_preset,
)
from .noise import SEED_RANGE, _n_steps
from .wave import C_STAB, SCHEMES


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


DEFAULTS: dict[str, Any] = {
    "domain": {"length": 1.0, "n_modes": 32, "n_nodes": 64},
    "model": {
        "friction": "two_plus_sin",
        "reaction": "linear_decay",
        "diffusion": "cosine",
        "q_exponent": 1.0,
        "tol_inv": 1e-12,
    },
    "initial": {"kind": "bump", "amplitude": 1.0},
    "time": {"t_final": 0.5, "dt": 1e-4, "dt_limit": 1e-4, "c_stab": C_STAB, "n_output": 200},
    "wave": {"scheme": "eta_form", "newton_iters": 1},
    "limit": {"form": "u", "with_drift": True},
    "fd": {
        "friction": "two_plus_sin",
        "sigma": 1.0,
        "mu": 1e-3,
        "dt": 1e-4,
        "t_final": 1.0,
        "paths": 10000,
        "x0": 0.0,
        "v0": 0.0,
        "eta_transform": False,
    },
    "resolvent": {"n_pairs": 1000, "lam": 0.05, "lam_ladder": [0.1, 0.05, 0.02, 0.01], "n_smooth": 20},
    "ablation": {"mu": 0.01},
    "converge": {"ratio_max": 0.4, "allowed_inversions": 1},
    "mu_ladder": [0.2, 0.1, 0.05, 0.02, 0.01],
    "paths": 64,
    "seed": 12345,
    "jobs": 1,
}
# The keys without a default, and their types; every other key's type is its default's.
NO_DEFAULT: dict[str, type] = {
    "model.friction_csv": str, "model.friction_value": float, "model.gamma0": float,
    "model.gamma1": float, "model.clip_radius": float,
    "initial.coeffs": list, "initial.velocity_coeffs": list,
}


_TYPE_NAMES = {
    float: "a number", int: "an integer", bool: "a boolean", str: "a string", list: "a list"
}


def _check_type(path: str, value, expected) -> Any:
    """value if it has the key's type (a number comes back as a float; a bool is no number).

    A number must also be finite: JSON readers accept NaN, Infinity and
    integers beyond the float range.  Every list key is a list of numbers,
    and its element k is checked as the number path[k].
    """
    accepted = (int, float) if expected is float else expected
    if not isinstance(value, accepted) or (isinstance(value, bool) and expected is not bool):
        raise ConfigError(f"config key '{path}' must be {_TYPE_NAMES[expected]}, got {value!r}")
    if expected is list:
        return [_check_type(f"{path}[{k}]", x, float) for k, x in enumerate(value)]
    if expected is not float:
        return value
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"config key '{path}' must be finite, got {value!r}")
    return number


# The least value of each count key: fd_converge's standard errors take ddof=1, an eta_form
# step with no Newton iteration would leave u where it is, and no ladder has < 0 inversions.
_COUNTS = {
    "time.n_output": 1, "paths": 1, "jobs": 1, "resolvent.n_pairs": 1, "resolvent.n_smooth": 1,
    "fd.paths": MIN_PATHS_PAIRED, "wave.newton_iters": 1, "domain.n_modes": 1,
    "converge.allowed_inversions": 0,
}
INITIAL_KINDS = ("coeffs", "zero", "mode1", "bump")  # the initial states make_initial builds
# The keys that name one of a registry's choices, checked before any run reads them.
_CHOICES = {
    "wave.scheme": SCHEMES, "limit.form": FORMS, "model.friction": FRICTIONS,
    "model.reaction": REACTIONS, "model.diffusion": tuple(_DIFFUSION_FACTORS),
    "initial.kind": INITIAL_KINDS, "fd.friction": tuple(_FD_FRICTIONS),
}
# Values that must be positive; time.c_stab <= 0 would make the step bound c_stab * mu no step.
_POSITIVE = (
    "time.t_final", "time.dt", "time.dt_limit", "time.c_stab", "domain.length",
    "fd.mu", "fd.dt", "fd.t_final", "model.tol_inv", "converge.ratio_max",
)


def resolvent_lams(cfg: dict) -> dict[str, float]:
    """The audit's resolvent parameters by config key: resolvent.lam and resolvent.lam_ladder[k].

    The resolvent exists for 0 < lam < lambda_bar; validate_config checks the
    lower end, run_resolvent_audit the upper end once the operator is built.
    """
    r = cfg["resolvent"]
    ladder = {f"resolvent.lam_ladder[{k}]": lam for k, lam in enumerate(r["lam_ladder"])}
    return {"resolvent.lam": r["lam"], **ladder}


def validate_config(raw: dict) -> dict:
    """Strict-merge a raw dict over the defaults; unknown keys are errors.

    Every rule that the config alone decides fails here by key, so that
    make_basis, make_models and make_initial build from what this returns.
    A friction or reaction preset given options is built here once, so that
    an option or option value the chosen preset rejects fails here too,
    named by its key.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    for key, value in raw.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key '{key}'")
        if not isinstance(DEFAULTS[key], dict):
            cfg[key] = _check_type(key, value, type(DEFAULTS[key]))
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"config key '{key}' must be an object")
        for sub, sval in value.items():
            path = f"{key}.{sub}"
            expected = type(DEFAULTS[key][sub]) if sub in DEFAULTS[key] else NO_DEFAULT.get(path)
            if expected is None:
                raise ConfigError(f"unknown config key '{path}'")
            cfg[key][sub] = _check_type(path, sval, expected)
    ladder = cfg["mu_ladder"]
    if not ladder or min(ladder) <= 0:
        raise ConfigError("config key 'mu_ladder' must be a list of positive numbers")
    cfg["mu_ladder"] = sorted(ladder, reverse=True)
    if len(set(ladder)) < len(ladder):
        raise ConfigError(f"config key 'mu_ladder' repeats a mass: {cfg['mu_ladder']}")
    sections = {sec: d for sec, d in cfg.items() if isinstance(d, dict)}
    flat = {**cfg, **{f"{sec}.{k}": v for sec, d in sections.items() for k, v in d.items()}}
    for key, choices in _CHOICES.items():
        if flat[key] not in choices:
            raise ConfigError(f"config key '{key}' must be one of {choices}, got {flat[key]!r}")
    for key, least in _COUNTS.items():
        if flat[key] < least:
            raise ConfigError(f"config key '{key}' must be at least {least}, got {flat[key]}")
    n_modes = flat["domain.n_modes"]
    if flat["domain.n_nodes"] < 2 * n_modes:  # the least grid that keeps analysis alias-controlled
        raise ConfigError(
            f"config key 'domain.n_nodes' must be at least 2 * domain.n_modes = {2 * n_modes}, "
            f"got {flat['domain.n_nodes']}"
        )
    if flat["initial.kind"] == "coeffs" and "initial.coeffs" not in flat:
        raise ConfigError("config key 'initial.coeffs' must be set when initial.kind is 'coeffs'")
    for key in ("initial.coeffs", "initial.velocity_coeffs"):
        if key in flat and len(flat[key]) != n_modes:
            raise ConfigError(
                f"config key '{key}' must have length domain.n_modes = {n_modes}, "
                f"got {len(flat[key])}"
            )
    extra = ", ".join(f"model.{k}" for k in _FRICTION_OPTIONS if k in cfg["model"])
    if "model.friction_csv" in flat and extra:
        raise ConfigError(f"config key 'model.friction_csv' takes no friction options, got {extra}")
    # A preset given options is built once to check them; with its default options every
    # preset builds.
    if extra:
        _preset(cfg["model"], "friction", friction_preset, _FRICTION_OPTIONS)
    if "model.clip_radius" in flat:
        _preset(cfg["model"], "reaction", reaction_preset, _REACTION_OPTIONS)
    for key, value in {**{key: flat[key] for key in _POSITIVE}, **resolvent_lams(cfg)}.items():
        if not value > 0:
            raise ConfigError(f"config key '{key}' must be positive, got {value}")
    lams = cfg["resolvent"]["lam_ladder"]
    if len(set(lams)) < 2:  # else the audit's monotone check compares nothing
        raise ConfigError(
            f"config key 'resolvent.lam_ladder' needs at least 2 distinct values, got {lams}"
        )
    if not flat["model.q_exponent"] > Q_MIN:
        raise ConfigError(
            f"config key 'model.q_exponent' must exceed {Q_MIN}, got {flat['model.q_exponent']}"
        )
    for horizon, step in (("time.t_final", "time.dt"), ("time.t_final", "time.dt_limit"),
                          ("fd.t_final", "fd.dt")):
        try:  # the rule every run's path applies, checked here before any run
            _n_steps(flat[horizon], flat[step])
        except ValueError:
            raise ConfigError(
                f"config key '{horizon}' must be a positive whole number of steps of "
                f"config key '{step}', got {flat[horizon]} and {flat[step]}"
            ) from None
    # Path k of a study runs on seed + k, and a noise dump stores its seed signed in 64 bits.
    last = cfg["seed"] + cfg["paths"] - 1
    if not (SEED_RANGE[0] <= cfg["seed"] and last <= SEED_RANGE[1]):
        raise ConfigError(
            f"config key 'seed' must keep the path seeds seed .. seed + paths - 1 in "
            f"[{SEED_RANGE[0]}, {SEED_RANGE[1]}], got {cfg['seed']} .. {last}"
        )
    return cfg


def load_config(path, overrides: dict | None = None) -> dict:
    """Validate the JSON config file at path with the top-level keys of overrides set over it.

    A file that cannot be read as UTF-8 JSON is a ConfigError naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: UnicodeDecodeError and JSONDecodeError
        raise ConfigError(f"config file {path} cannot be read as JSON: {exc}") from exc
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return validate_config(raw)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


# -- assembly -----------------------------------------------------------------


def make_basis(cfg: dict) -> SpectralBasis:
    d = cfg["domain"]
    return build_basis(DomainSpec(length=d["length"], n_modes=d["n_modes"], n_nodes=d["n_nodes"]))


_FRICTION_OPTIONS = {"friction_value": "value", "gamma0": "gamma0", "gamma1": "gamma1"}
_REACTION_OPTIONS = {"clip_radius": "clip_radius"}


def _preset(m: dict, kind: str, build, options: dict):
    """build(m[kind], ...) on the model keys in options (key -> preset option) that m sets."""
    given = {key: m[key] for key in options if key in m}
    try:
        return build(m[kind], **{options[k]: v for k, v in given.items()})
    except ValueError as exc:  # the preset rejects an option or a value by its own name
        named = "".join(f", model.{k} = {v!r}" for k, v in given.items())
        raise ConfigError(f"model.{kind} = {m[kind]!r}{named}: {exc}") from exc


def make_models(cfg: dict, basis: SpectralBasis) -> ModelSet:
    m = cfg["model"]
    if "friction_csv" in m:
        path = m["friction_csv"]
        try:
            friction = load_friction_csv(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config key 'model.friction_csv' = {path!r}: {exc}") from exc
    else:
        friction = _preset(m, "friction", friction_preset, _FRICTION_OPTIONS)
    reaction = _preset(m, "reaction", reaction_preset, _REACTION_OPTIONS)
    diffusion = build_diffusion(basis, factor=m["diffusion"], q=m["q_exponent"])
    return build_model_set(basis, friction, reaction, diffusion, tol_inv=m["tol_inv"])


def make_initial(cfg: dict, basis: SpectralBasis) -> tuple[np.ndarray, np.ndarray]:
    """Initial (u0, v0) coefficient vectors of a validated config: a preset or explicit lists."""
    ic = cfg["initial"]
    kind, amp = ic["kind"], ic["amplitude"]
    if kind not in INITIAL_KINDS:
        raise ValueError(f"initial.kind must be one of {INITIAL_KINDS}, got {kind!r}")
    u0 = np.zeros(basis.n_modes)
    if kind == "coeffs":
        u0 = amp * np.asarray(ic["coeffs"], dtype=float)
    elif kind == "mode1":
        u0[0] = amp
    elif kind == "bump":
        u0 = amp * basis.analyze(basis.bump)
    v0 = np.asarray(ic.get("velocity_coeffs", np.zeros(basis.n_modes)), dtype=float)
    return u0, v0
