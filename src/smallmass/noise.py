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
probability by common random numbers.  A batch of Monte Carlo paths is a
NoisePath whose seed is a tuple, one seed per row of its (P, N, K) table;
it is sampled and refined from the same streams as its seeds' lone paths.
The ladder study keeps the batch and its refinement at every level its
masses need alive at once, as they all run in one drive, so each table is
built once, in place, and handed to its NoisePath without a copy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .basis import SpectralBasis
from .models import DiffusionModel

# Noise dump header: magic, format version, seed, dt, n_steps, n_modes, refinement level.
_MAGIC = b"SMNOISE\0"
_VERSION = 1
_FORMAT = f"smallmass noise dump (version {_VERSION})"
_HEADER = struct.Struct("<8sqqdqqq")
SEED_RANGE = (-(2**63), 2**63 - 1)  # the seeds the dump's signed 64-bit seed field holds


_WORD = 0xFFFF_FFFF_FFFF_FFFF  # a Philox key word: 64 bits


def _start_state(key) -> dict:
    """The Philox state at the start of the stream keyed by key (two 64-bit words).

    Its whole state: key, zero counter, empty buffer, no cached 32-bit half.
    The words are read when the state is set, so a caller may rewrite key
    in place and set the same dict again for the next stream.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def philox_stream(key: np.ndarray, gen: np.random.Generator | None = None) -> np.random.Generator:
    """The Philox generator keyed by key (two uint64 words), at the start of its stream.

    Given gen, a Philox generator, re-keys it in place and returns it: its
    whole state is set (`_start_state`), so it draws what a freshly built
    generator would, whatever it drew before.  Re-keying skips the OS
    entropy a new Philox pulls for a seed its key makes unused.
    """
    if gen is None:
        return np.random.Generator(np.random.Philox(key=key))
    gen.bit_generator.state = _start_state(key)
    return gen


def _check_stream(mode: int, level: int) -> None:
    """Mode and level share the second key word, 32 bits each."""
    if not 0 <= mode < 2**32 or not 0 <= level < 2**32:
        raise ValueError("mode and refinement level must fit in 32 bits")


def _mode_generator(
    seed: int, mode: int, level: int, gen: np.random.Generator | None = None
) -> np.random.Generator:
    """The Philox generator of stream (seed, mode, level), at the start of the stream.

    Its key is (seed mod 2^64, mode * 2^32 + level).  Given gen, re-keys it
    in place (philox_stream).  _stream_normals writes the same key words.
    """
    _check_stream(mode, level)
    key = np.array([int(seed) & _WORD, (int(mode) << 32) | int(level)], dtype=np.uint64)
    return philox_stream(key, gen)


def check_fields(what: str, **fields) -> None:
    """Raise ValueError "{what} field {name} = {value}" for the first field that breaks its rule.

    The one home of the noise types' field checks: dt must be positive and
    finite, a refinement level a non-negative integer, and a count (n_steps,
    n_modes, n_paths) at least 1.
    """
    for name, value in fields.items():
        if name == "dt":
            ok = np.isfinite(value) and value > 0.0
        elif name == "level":
            ok = isinstance(value, Integral) and not isinstance(value, bool) and value >= 0
        else:
            ok = value >= 1
        if not ok:
            raise ValueError(f"{what} field {name} = {value}")


@dataclass(frozen=True)
class NoisePath:
    """Increment table Delta beta_i(k) ~ N(0, dt) for modes i = 1..N.

    One path has an int seed and an (n_modes, n_steps) table; a batch has a
    tuple of seeds, one per row of its (n_paths, n_modes, n_steps) table.
    The path keeps a read-only copy of a table it is given writeable, or as
    a view; a read-only table that owns its data, as every constructor of
    this module hands over the one it just built, is kept as it is.  A
    field that breaks its rule (`check_fields`) raises ValueError naming it.
    """

    seed: int | tuple[int, ...]
    dt: float
    n_steps: int
    n_modes: int
    level: int
    increments: np.ndarray  # np.shape(seed) + (n_modes, n_steps), read-only

    def __post_init__(self) -> None:
        check_fields(
            "invalid NoisePath",
            dt=self.dt, n_steps=self.n_steps, n_modes=self.n_modes, level=self.level,
        )
        if np.size(self.seed) == 0:
            raise ValueError("a batch of paths needs at least one seed")
        inc = np.asarray(self.increments, dtype=float)
        shape = np.shape(self.seed) + (self.n_modes, self.n_steps)
        if inc.shape != shape:
            raise ValueError(f"increment table shape {inc.shape} != {shape}")
        if inc.flags.writeable or not inc.flags.owndata:
            inc = _frozen(inc.copy())
        object.__setattr__(self, "increments", inc)

    @property
    def t_final(self) -> float:
        return self.dt * self.n_steps


def _frozen(table: np.ndarray) -> np.ndarray:
    """table made read-only, so a NoisePath keeps it without a copy."""
    table.setflags(write=False)
    return table


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


def _stream_normals(seed, level: int, n_modes: int, n: int, scale: float) -> np.ndarray:
    """n normals of standard deviation scale from each stream (seed, mode, level).

    The one loop over the (path, mode) streams of a path or a batch.  One
    Philox generator and one start state serve the table; per stream only
    the key words `_mode_generator` gives it are rewritten, so each row is
    what that stream's fresh generator draws.  Returns
    np.shape(seed) + (n_modes, n).
    """
    _check_stream(n_modes, level)  # modes run 1..n_modes
    mode_words = [(mode << 32) | int(level) for mode in range(1, n_modes + 1)]
    out = np.empty(np.shape(seed) + (n_modes, n))
    key = [0, 0]
    state = _start_state(key)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    for row, s in zip(out.reshape(-1, n_modes, n), seed if np.ndim(seed) else (seed,)):
        key[0] = int(s) & _WORD
        for normals, word in zip(row, mode_words):
            key[1] = word
            bitgen.state = state
            normals[:] = gen.normal(0.0, scale, n)
    return out


def sample_path(seed: int | tuple[int, ...], t_final: float, dt: float, n_modes: int) -> NoisePath:
    """Generate the level-0 increment table for a fixed (seed, T, dt, N).

    A tuple of seeds gives a batch, one row per seed.
    """
    n_steps = _n_steps(t_final, dt)
    inc = _frozen(_stream_normals(seed, 0, n_modes, n_steps, np.sqrt(dt)))
    return NoisePath(seed=seed, dt=dt, n_steps=n_steps, n_modes=n_modes, level=0, increments=inc)


def sample_batch(
    base_seed: int, n_paths: int, t_final: float, dt: float, n_modes: int
) -> NoisePath:
    """Independent paths seeded base_seed, base_seed+1, ..., as one batch."""
    return sample_path(tuple(range(base_seed, base_seed + n_paths)), t_final, dt, n_modes)


def refine(path: NoisePath) -> NoisePath:
    """Halve dt by conditional Brownian-bridge midpoint sampling.

    The midpoint noise comes from the streams of the next refinement level,
    so fine[2k] + fine[2k+1] == coarse[k] exactly and already-generated
    randomness is preserved.  A batch is refined row by row from its seeds'
    streams, so it equals the stack of its refined rows.
    """
    half = 0.5 * np.sqrt(path.dt)  # std of the midpoint correction, sqrt(dt/4)
    xi = _stream_normals(path.seed, path.level + 1, path.n_modes, path.n_steps, half)
    fine = np.empty(path.increments.shape[:-1] + (2 * path.n_steps,))
    even = np.multiply(0.5, path.increments, out=fine[..., 0::2])  # in place: no temporaries
    np.subtract(even, xi, out=fine[..., 1::2])
    even += xi
    return NoisePath(
        seed=path.seed,
        dt=0.5 * path.dt,
        n_steps=2 * path.n_steps,
        n_modes=path.n_modes,
        level=path.level + 1,
        increments=_frozen(fine),
    )


def halvings(dt: float, dt_max: float) -> int:
    """How many halvings bring the step dt to at most dt_max (dt_max must be positive)."""
    if not dt_max > 0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    n = 0
    while dt > dt_max * (1.0 + 1e-12):
        dt *= 0.5
        n += 1
    return n


def refine_to(path: NoisePath, dt_max: float) -> NoisePath:
    """Refine until the path step is no larger than dt_max, `halvings(path.dt, dt_max)` times.

    dt_max must be positive: no number of halvings reaches a step of at most 0.
    """
    for _ in range(halvings(path.dt, dt_max)):
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
        increments=_frozen(np.zeros((n_modes, n_steps))),
    )


def apply_noise(
    weight: np.ndarray,
    dbeta: np.ndarray,
    diffusion: DiffusionModel,
    basis: SpectralBasis,
):
    """Coefficients of x -> weight(x) * sum_i lam_i e_i(x) dbeta_i.

    The noise forcing of every integrator.  weight is the factor at the
    nodes: lambda_sigma(u) for the wave and the rho-form, and
    lambda_sigma(u) / gamma(u) for the limit u-form, whose step evaluates
    lambda_sigma once for this and the drift H.  Returns 0.0 when there is
    no noise (sigma_sup == 0), so callers add the result unconditionally.
    """
    if diffusion.sigma_sup == 0.0:
        return 0.0
    dbeta = np.asarray(dbeta, dtype=float)
    if dbeta.shape[-1] != basis.n_modes:
        raise ValueError(f"expected {basis.n_modes} mode increments, got {dbeta.shape[-1]}")
    forced = basis.synthesize(diffusion.q_spectrum * dbeta)
    return basis.analyze(weight * forced)


# -- binary dump/load ---------------------------------------------------------


def save_path(path: NoisePath, filename) -> None:
    """Write the increment table as little-endian float64 after a versioned header.

    The header carries the magic bytes, the format version, seed, dt,
    n_steps, n_modes and the refinement level, so a reloaded path refines
    from the streams of its own level.  The format holds one path, so a
    batch is rejected.  The file's directory is made if it is missing, as
    the writers of `output` make theirs.
    """
    if np.ndim(path.seed):
        raise ValueError(f"a {_FORMAT} holds one path, got a batch of {len(path.seed)}")
    if not SEED_RANGE[0] <= path.seed <= SEED_RANGE[1]:
        raise ValueError(f"a {_FORMAT} holds a signed 64-bit seed, got {path.seed}")
    # packed before the file is opened, so a header that cannot be written leaves no file
    header = _HEADER.pack(
        _MAGIC, _VERSION, path.seed, path.dt, path.n_steps, path.n_modes, path.level
    )
    Path(filename).parent.mkdir(parents=True, exist_ok=True)
    with open(filename, "wb") as fh:
        fh.write(header)
        fh.write(path.increments.astype("<f8").tobytes())


def load_path(filename) -> NoisePath:
    """Read a dump written by save_path; any other, truncated or forged file raises ValueError.

    A header field that breaks its rule (`check_fields`, as in NoisePath) is
    rejected by name.
    """
    with open(filename, "rb") as fh:
        raw, body = fh.read(_HEADER.size), fh.read()
    if not raw or not _MAGIC.startswith(raw[: len(_MAGIC)]):
        raise ValueError(f"{filename} is not a {_FORMAT}: its header is missing")
    if len(raw) != _HEADER.size:
        raise ValueError(f"truncated {_FORMAT} {filename}: incomplete header")
    _, version, seed, dt, n_steps, n_modes, level = _HEADER.unpack(raw)
    if version != _VERSION:
        raise ValueError(f"{filename} has noise dump version {version}, expected {_FORMAT}")
    check_fields(
        f"{_FORMAT} {filename}: invalid header",
        dt=dt, n_steps=n_steps, n_modes=n_modes, level=level,
    )
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
        increments=_frozen(table.reshape(n_modes, n_steps).astype(float)),
    )
