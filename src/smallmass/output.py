"""Artifact writers: CSV, JSON reports, gnuplot data files.

Every file starts with provenance comments (config hash and seed) so a rerun
with the same config reproduces byte-identical numeric content.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _provenance_lines(cfg_hash: str, seed: int) -> list[str]:
    return [f"config_sha256={cfg_hash}", f"seed={seed}"]


def _write_table(path, columns: dict, cfg_hash: str, seed: int, sep: str, head: str) -> Path:
    """Provenance comments, a header line of column names, then one line per row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    # Each column as Python floats in one conversion; repr(float) prints them.
    cols = [np.atleast_1d(np.asarray(columns[n], dtype=float)).tolist() for n in names]
    if any(len(c) != len(cols[0]) for c in cols):
        raise ValueError("table columns must have equal length")
    with open(path, "w") as fh:
        for line in _provenance_lines(cfg_hash, seed):
            fh.write(f"# {line}\n")
        fh.write(head + sep.join(names) + "\n")
        for row in zip(*cols):
            fh.write(sep.join(map(repr, row)) + "\n")
    return path


def write_csv(path, columns: dict[str, np.ndarray], cfg_hash: str, seed: int) -> Path:
    return _write_table(path, columns, cfg_hash, seed, ",", "")


def write_gnuplot(path, columns: dict[str, np.ndarray], cfg_hash: str, seed: int) -> Path:
    """Whitespace-separated data block with commented header, gnuplot-ready."""
    return _write_table(path, columns, cfg_hash, seed, " ", "# ")


def write_json(path, payload: dict, cfg: dict, cfg_hash: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"config_sha256": cfg_hash, "config": cfg, **payload}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def trajectory_csv(path, times, coeffs, cfg_hash: str, seed: int) -> Path:
    """t plus one column per retained mode."""
    cols = {"t": np.asarray(times)}
    coeffs = np.asarray(coeffs)
    for i in range(coeffs.shape[-1]):
        cols[f"b{i + 1}"] = coeffs[:, i]
    return write_csv(path, cols, cfg_hash, seed)


_TRAJ_HEADER = "<qq"  # n_times, n_modes (little-endian), then times, then coefficients


def save_trajectory_bin(path, times, coeffs) -> Path:
    """Compact binary trajectory dump mirroring the noise-dump conventions."""
    import struct

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    times = np.asarray(times, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[0] != times.shape[0]:
        raise ValueError("expected an unbatched trajectory of shape (n_times, n_modes)")
    with open(path, "wb") as fh:
        fh.write(struct.pack(_TRAJ_HEADER, times.shape[0], coeffs.shape[1]))
        fh.write(times.astype("<f8").tobytes())
        fh.write(coeffs.astype("<f8").tobytes())
    return path


def load_trajectory_bin(path):
    import struct

    with open(path, "rb") as fh:
        head = fh.read(struct.calcsize(_TRAJ_HEADER))
        if len(head) != struct.calcsize(_TRAJ_HEADER):
            raise ValueError(f"truncated trajectory dump {path}")
        n_times, n_modes = struct.unpack(_TRAJ_HEADER, head)
        data = np.frombuffer(fh.read(), dtype="<f8")
    for field, value in (("n_times", n_times), ("n_modes", n_modes)):
        if value < 0:
            raise ValueError(f"trajectory dump {path}: negative header field {field} = {value}")
    if data.size != n_times * (1 + n_modes):
        raise ValueError(f"trajectory dump {path} has wrong table size")
    times = data[:n_times].astype(float)
    coeffs = data[n_times:].reshape(n_times, n_modes).astype(float)
    return times, coeffs
