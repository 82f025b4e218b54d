"""Experiment configuration: JSON schema, validation, defaults, hashing.

Configs are plain JSON.  Validation is strict: unknown keys are rejected by
name, types are checked, and the validated config is echoed (with its hash)
into every output artifact for provenance.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .basis import DomainSpec, SpectralBasis, build_basis
from .models import (
    ModelSet,
    build_diffusion,
    build_model_set,
    friction_preset,
    load_friction_csv,
    reaction_preset,
)
from .wave import C_STAB


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


_SCHEMA: dict[str, dict[str, type | tuple]] = {
    "domain": {"length": float, "n_modes": int, "n_nodes": int},
    "model": {
        "friction": str,
        "friction_csv": str,
        "friction_value": float,
        "gamma0": float,
        "gamma1": float,
        "reaction": str,
        "clip_radius": float,
        "diffusion": str,
        "q_exponent": float,
        "tol_inv": float,
    },
    "initial": {"kind": str, "amplitude": float, "coeffs": list, "velocity_coeffs": list},
    "time": {"t_final": float, "dt": float, "dt_limit": float, "c_stab": float, "n_output": int},
    "wave": {"scheme": str, "newton_iters": int},
    "limit": {"form": str, "with_drift": bool},
    "fd": {
        "friction": str,
        "sigma": float,
        "mu": float,
        "dt": float,
        "t_final": float,
        "paths": int,
        "x0": float,
        "v0": float,
        "eta_transform": bool,
    },
    "resolvent": {"n_pairs": int, "lam": float, "lam_ladder": list, "n_smooth": int},
    "ablation": {"mu": float},
    "converge": {"ratio_max": float, "allowed_inversions": int},
}

_TOP_SCALARS: dict[str, type] = {
    "mu_ladder": list,
    "paths": int,
    "seed": int,
    "jobs": int,
}

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


_TYPE_NAMES = {
    float: "a number", int: "an integer", bool: "a boolean", str: "a string", list: "a list"
}


def _check_type(path: str, value, expected) -> Any:
    """value if it has the schema type (a number comes back as a float; a bool is no number)."""
    accepted = (int, float) if expected is float else expected
    if not isinstance(value, accepted) or (isinstance(value, bool) and expected is not bool):
        raise ConfigError(f"config key '{path}' must be {_TYPE_NAMES[expected]}, got {value!r}")
    return float(value) if expected is float else value


def validate_config(raw: dict) -> dict:
    """Strict-merge a raw dict over the defaults; unknown keys are errors."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    for key, value in raw.items():
        if key in _SCHEMA:
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{key}' must be an object")
            for sub, sval in value.items():
                if sub not in _SCHEMA[key]:
                    raise ConfigError(f"unknown config key '{key}.{sub}'")
                cfg.setdefault(key, {})[sub] = _check_type(f"{key}.{sub}", sval, _SCHEMA[key][sub])
        elif key in _TOP_SCALARS:
            cfg[key] = _check_type(key, value, _TOP_SCALARS[key])
        else:
            raise ConfigError(f"unknown config key '{key}'")
    ladder = cfg["mu_ladder"]
    if not ladder or any(
        isinstance(m, bool) or not isinstance(m, (int, float)) or m <= 0 for m in ladder
    ):
        raise ConfigError("config key 'mu_ladder' must be a list of positive numbers")
    cfg["mu_ladder"] = sorted((float(m) for m in ladder), reverse=True)
    counts = {
        "time.n_output": cfg["time"]["n_output"],
        "paths": cfg["paths"],
        "jobs": cfg["jobs"],
        "resolvent.n_pairs": cfg["resolvent"]["n_pairs"],
        "resolvent.n_smooth": cfg["resolvent"]["n_smooth"],
    }
    for key, value in counts.items():
        if value < 1:
            raise ConfigError(f"config key '{key}' must be at least 1, got {value}")
    c_stab = cfg["time"]["c_stab"]
    if not c_stab > 0:  # the step bound c_stab * mu would be no step at all
        raise ConfigError(f"config key 'time.c_stab' must be positive, got {c_stab}")
    return cfg


def load_config(path, overrides: dict | None = None) -> dict:
    """Validate the JSON config file at path with the top-level keys of overrides set over it."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
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
        extra = ", ".join(f"model.{k}" for k in _FRICTION_OPTIONS if k in m)
        if extra:
            raise ConfigError(f"model.friction_csv takes no friction options, got {extra}")
        friction = load_friction_csv(m["friction_csv"])
    else:
        friction = _preset(m, "friction", friction_preset, _FRICTION_OPTIONS)
    reaction = _preset(m, "reaction", reaction_preset, {"clip_radius": "clip_radius"})
    diffusion = build_diffusion(basis, factor=m["diffusion"], q=m["q_exponent"])
    return build_model_set(basis, friction, reaction, diffusion, tol_inv=m["tol_inv"])


def make_initial(cfg: dict, basis: SpectralBasis) -> tuple[np.ndarray, np.ndarray]:
    """Initial (u0, v0) coefficient vectors from the preset or explicit lists."""
    ic = cfg["initial"]
    kind = ic["kind"]
    amp = float(ic.get("amplitude", 1.0))
    if kind == "coeffs":
        coeffs = np.asarray(ic.get("coeffs", []), dtype=float)
        if coeffs.shape != (basis.n_modes,):
            raise ConfigError(
                f"initial.coeffs must have length n_modes = {basis.n_modes}"
            )
        u0 = amp * coeffs
    elif kind == "zero":
        u0 = np.zeros(basis.n_modes)
    elif kind == "mode1":
        u0 = np.zeros(basis.n_modes)
        u0[0] = amp
    elif kind == "bump":
        x, L = basis.x, basis.length
        profile = 4.0 * x * (L - x) / L**2  # parabolic bump, peak 1 at midpoint
        u0 = amp * basis.analyze(profile)
    else:
        raise ConfigError(f"unknown initial.kind '{kind}'")
    if "velocity_coeffs" in ic:
        v0 = np.asarray(ic["velocity_coeffs"], dtype=float)
        if v0.shape != (basis.n_modes,):
            raise ConfigError(
                f"initial.velocity_coeffs must have length n_modes = {basis.n_modes}"
            )
    else:
        v0 = np.zeros(basis.n_modes)
    return u0, v0
