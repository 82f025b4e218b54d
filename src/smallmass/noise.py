"""Seeded per-mode Brownian increments with refinement and cross-run coupling.

Each mode carries its own counter-based random stream keyed by
(seed, mode, refinement level), so

  * regenerating with the same seed gives bit-identical increments,
  * enlarging the number of modes leaves existing modes untouched, and
  * halving the time step (Brownian bridge midpoints) never reshuffles the
    randomness already consumed: summing paired fine increments recovers the
    coarse increments exactly.

The same path object can therefore drive a whole mass ladder and the limit
integrator; pathwise distances between runs estimate convergence in
probability by common random numbers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .basis import SpectralBasis
from .models import DiffusionModel

# Noise dump header: magic, format version, seed, dt, n_steps, n_modes, refinement level.
_MAGIC = b"SMNOISE\0"
_VERSION = 1
_FORMAT = f"smallmass noise dump (version {_VERSION})"
_HEADER = struct.Struct("<8sqqdqqq")


def _mode_generator(seed: int, mode: int, level: int) -> np.random.Generator:
    if not 0 <= mode < 2**32 or not 0 <= level < 2**32:
        raise ValueError("mode and refinement level must fit in 32 bits")
    key = [int(seed) & 0xFFFF_FFFF_FFFF_FFFF, (int(mode) << 32) | int(level)]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


@dataclass(frozen=True)
class NoisePath:
    """Increment table Delta beta_i(k) ~ N(0, dt) for modes i = 1..N."""

    seed: int
    dt: float
    n_steps: int
    n_modes: int
    level: int
    increments: np.ndarray  # shape (n_modes, n_steps), read-only

    def __post_init__(self) -> None:
        inc = np.asarray(self.increments, dtype=float)
        if inc.shape != (self.n_modes, self.n_steps):
            raise ValueError(
                f"increment table shape {inc.shape} != ({self.n_modes}, {self.n_steps})"
            )
        inc = inc.copy()
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @property
    def t_final(self) -> float:
        return self.dt * self.n_steps


def _n_steps(t_final: float, dt: float) -> int:
    """Number of steps of size dt in t_final; rejects a grid that does not fit exactly."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_final <= 0.0:
        raise ValueError(f"t_final must be positive, got {t_final}")
    n_steps = int(round(t_final / dt))
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError(f"t_final = {t_final} is not an integer multiple of dt = {dt}")
    return n_steps


def sample_path(seed: int, t_final: float, dt: float, n_modes: int) -> NoisePath:
    """Generate the level-0 increment table for a fixed (seed, T, dt, N)."""
    n_steps = _n_steps(t_final, dt)
    sd = np.sqrt(dt)
    inc = np.empty((n_modes, n_steps))
    for i in range(n_modes):
        inc[i] = _mode_generator(seed, i + 1, 0).normal(0.0, sd, n_steps)
    return NoisePath(seed=seed, dt=dt, n_steps=n_steps, n_modes=n_modes, level=0, increments=inc)


def refine(path: NoisePath) -> NoisePath:
    """Halve dt by conditional Brownian-bridge midpoint sampling.

    The midpoint noise comes from the streams of the next refinement level,
    so fine[2k] + fine[2k+1] == coarse[k] exactly and already-generated
    randomness is preserved.
    """
    half = 0.5 * np.sqrt(path.dt)  # std of the midpoint correction, sqrt(dt/4)
    fine = np.empty((path.n_modes, 2 * path.n_steps))
    for i in range(path.n_modes):
        xi = _mode_generator(path.seed, i + 1, path.level + 1).normal(0.0, half, path.n_steps)
        fine[i, 0::2] = 0.5 * path.increments[i] + xi
        fine[i, 1::2] = 0.5 * path.increments[i] - xi
    return NoisePath(
        seed=path.seed,
        dt=0.5 * path.dt,
        n_steps=2 * path.n_steps,
        n_modes=path.n_modes,
        level=path.level + 1,
        increments=fine,
    )


def refine_to(path: NoisePath | PathBatch, dt_max: float) -> NoisePath | PathBatch:
    """Refine until the path step is no larger than dt_max.

    A PathBatch is refined member by member, each from its own streams, so
    it equals the stack of its refined members.  dt_max must be positive:
    no number of halvings reaches a step of at most 0.
    """
    if not dt_max > 0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    if isinstance(path, PathBatch) and path.dt > dt_max * (1.0 + 1e-12):
        return stack_paths([refine_to(path.path(j), dt_max) for j in range(path.n_paths)])
    while path.dt > dt_max * (1.0 + 1e-12):
        path = refine(path)
    return path


def zero_path(t_final: float, dt: float, n_modes: int) -> NoisePath:
    """All-zero increment table, for deterministic runs on the same code path."""
    n_steps = _n_steps(t_final, dt)
    return NoisePath(
        seed=0,
        dt=dt,
        n_steps=n_steps,
        n_modes=n_modes,
        level=0,
        increments=np.zeros((n_modes, n_steps)),
    )


def apply_noise(
    u_nodal: np.ndarray,
    dbeta: np.ndarray | None,
    diffusion: DiffusionModel,
    basis: SpectralBasis,
    gam: np.ndarray | None = None,
):
    """Coefficients of x -> lambda_sigma(u(x)) * sum_i lam_i e_i(x) dbeta_i.

    The noise forcing of every integrator.  With gam, the friction at the
    nodes, the factor becomes lambda_sigma(u) / gamma(u), as in the limit
    u-form.  Returns 0.0 when there is no increment (dbeta is None) or no
    noise (sigma_sup == 0), so callers add the result unconditionally.
    """
    if dbeta is None or diffusion.sigma_sup == 0.0:
        return 0.0
    dbeta = np.asarray(dbeta, dtype=float)
    if dbeta.shape[-1] != basis.n_modes:
        raise ValueError(f"expected {basis.n_modes} mode increments, got {dbeta.shape[-1]}")
    forced = basis.synthesize(diffusion.q_spectrum * dbeta)
    weight = diffusion.lambda_sigma(np.asarray(u_nodal, dtype=float))
    return basis.analyze((weight if gam is None else weight / gam) * forced)


# -- batching across Monte Carlo paths ---------------------------------------


@dataclass(frozen=True)
class PathBatch:
    """Stack of equally shaped NoisePaths, all at one refinement level, for batched runs."""

    seeds: tuple[int, ...]
    dt: float
    n_steps: int
    n_modes: int
    increments: np.ndarray  # (n_paths, n_modes, n_steps)
    level: int = 0

    @property
    def n_paths(self) -> int:
        return len(self.seeds)

    def path(self, j: int) -> NoisePath:
        return NoisePath(
            seed=self.seeds[j],
            dt=self.dt,
            n_steps=self.n_steps,
            n_modes=self.n_modes,
            level=self.level,
            increments=self.increments[j],
        )


def stack_paths(paths: list[NoisePath]) -> PathBatch:
    if not paths:
        raise ValueError("need at least one path")
    first = paths[0]
    shared = (first.dt, first.n_steps, first.n_modes, first.level)
    if any((p.dt, p.n_steps, p.n_modes, p.level) != shared for p in paths[1:]):
        raise ValueError("paths in a batch must share dt, n_steps, n_modes and refinement level")
    return PathBatch(
        seeds=tuple(p.seed for p in paths),
        dt=first.dt,
        n_steps=first.n_steps,
        n_modes=first.n_modes,
        increments=np.stack([p.increments for p in paths]),
        level=first.level,
    )


def sample_batch(base_seed: int, n_paths: int, t_final: float, dt: float, n_modes: int) -> PathBatch:
    """Independent paths seeded base_seed, base_seed+1, ..."""
    return stack_paths(
        [sample_path(base_seed + j, t_final, dt, n_modes) for j in range(n_paths)]
    )


# -- binary dump/load ---------------------------------------------------------


def save_path(path: NoisePath, filename) -> None:
    """Write the increment table as little-endian float64 after a versioned header.

    The header carries the magic bytes, the format version, seed, dt,
    n_steps, n_modes and the refinement level, so a reloaded path refines
    from the streams of its own level.
    """
    with open(filename, "wb") as fh:
        fh.write(
            _HEADER.pack(
                _MAGIC, _VERSION, path.seed, path.dt, path.n_steps, path.n_modes, path.level
            )
        )
        fh.write(path.increments.astype("<f8").tobytes())


def load_path(filename) -> NoisePath:
    """Read a dump written by save_path; any other or truncated file raises ValueError."""
    with open(filename, "rb") as fh:
        raw, body = fh.read(_HEADER.size), fh.read()
    if not raw or not _MAGIC.startswith(raw[: len(_MAGIC)]):
        raise ValueError(f"{filename} is not a {_FORMAT}: its header is missing")
    if len(raw) != _HEADER.size:
        raise ValueError(f"truncated {_FORMAT} {filename}: incomplete header")
    _, version, seed, dt, n_steps, n_modes, level = _HEADER.unpack(raw)
    if version != _VERSION:
        raise ValueError(f"{filename} has noise dump version {version}, expected {_FORMAT}")
    if len(body) != 8 * n_modes * n_steps:
        raise ValueError(
            f"truncated or overlong {_FORMAT} {filename}: "
            f"{len(body)} table bytes, expected {8 * n_modes * n_steps}"
        )
    table = np.frombuffer(body, dtype="<f8")
    return NoisePath(
        seed=seed,
        dt=dt,
        n_steps=n_steps,
        n_modes=n_modes,
        level=level,
        increments=table.reshape(n_modes, n_steps).astype(float),
    )
