"""Dirichlet sine eigenbasis on an interval, with nodal transforms and Sobolev norms.

The domain is the open interval (0, L).  The Laplacian with homogeneous
Dirichlet boundary conditions is diagonalized by

    e_i(x) = sqrt(2/L) * sin(i*pi*x/L),    alpha_i = (i*pi/L)**2,   i = 1, 2, ...

A field is represented by its first N sine coefficients.  The nodal grid is
the uniform interior grid x_j = j*L/(M+1), j = 1..M, on which the type-I
discrete sine transform gives exactly orthogonal analysis/synthesis (the
quadrature rule with constant weight L/(M+1) reproduces the L2 inner product
of band-limited fields to machine precision).

The fractional Sobolev scale is defined directly on coefficients:

    ||u||_{H^s}^2 = sum_i alpha_i^s b_i^2,

so s = 1, 0, -1 give the H^1, L^2 and H^-1 norms, and any real s (for
instance s = -1/n) is available for the weak-space metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dst


@dataclass(frozen=True)
class DomainSpec:
    """Interval (0, length) with n_modes retained modes and an interior nodal grid.

    n_nodes defaults to 2*n_modes; it must be at least 2*n_modes so that
    analysis of pointwise nonlinearities of band-limited fields is
    alias-controlled.
    """

    length: float
    n_modes: int
    n_nodes: int | None = None

    def __post_init__(self) -> None:
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError(f"domain length must be positive, got {self.length}")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.n_nodes is None:
            object.__setattr__(self, "n_nodes", 2 * self.n_modes)
        if self.n_nodes < 2 * self.n_modes:
            raise ValueError(
                f"n_nodes must be >= 2*n_modes = {2 * self.n_modes}, got {self.n_nodes}"
            )


class SpectralBasis:
    """Eigenpairs, nodal grid, quadrature and transforms for one DomainSpec.

    All array operations act along the last axis, so batched inputs of shape
    (..., N) coefficients or (..., M) nodal values are supported throughout.
    Instances are immutable after construction and safe to share between
    concurrent simulations.
    """

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        L, N, M = spec.length, spec.n_modes, spec.n_nodes
        self.n_modes = N
        self.n_nodes = M
        self.length = L
        i = np.arange(1, N + 1, dtype=float)
        self.alphas = (i * np.pi / L) ** 2
        self.x = L * np.arange(1, M + 1, dtype=float) / (M + 1)
        self.weight = L / (M + 1)
        self._synth_scale = np.sqrt(2.0 / L) / 2.0
        self._ana_scale = self.weight * np.sqrt(2.0 / L) / 2.0

    # -- transforms ---------------------------------------------------------

    def synthesize(self, f) -> np.ndarray:
        """Evaluate a coefficient vector on the nodal grid."""
        c = np.asarray(f, dtype=float)
        if c.shape[-1] != self.n_modes:
            raise ValueError(f"expected {self.n_modes} coefficients, got {c.shape[-1]}")
        pad = np.zeros(c.shape[:-1] + (self.n_nodes,), dtype=float)
        pad[..., : self.n_modes] = c
        return self._synth_scale * dst(pad, type=1, axis=-1)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Project nodal values onto the first N modes (exact for band-limited data)."""
        v = np.asarray(values, dtype=float)
        if v.shape[-1] != self.n_nodes:
            raise ValueError(f"expected {self.n_nodes} nodal values, got {v.shape[-1]}")
        return (self._ana_scale * dst(v, type=1, axis=-1))[..., : self.n_modes]

    def laplacian(self, f) -> np.ndarray:
        """Apply the Dirichlet Laplacian: coefficient-wise multiplication by -alpha_i."""
        return -self.alphas * np.asarray(f, dtype=float)

    def eigenfunction(self, i: int, x) -> np.ndarray:
        """Evaluate e_i (1-based index) at arbitrary points."""
        if not 1 <= i:
            raise ValueError("mode index is 1-based")
        x = np.asarray(x, dtype=float)
        return np.sqrt(2.0 / self.length) * np.sin(i * np.pi * x / self.length)

    # -- norms and quadrature -----------------------------------------------

    def sobolev_norm(self, f, s: float = 0.0):
        """H^s norm, (sum_i alpha_i^s b_i^2)^(1/2), for any real s."""
        c = np.asarray(f, dtype=float)
        return np.sqrt(np.sum(self.alphas**s * c * c, axis=-1))

    def inner(self, f, g, s: float = 0.0):
        """H^s inner product of two coefficient vectors."""
        f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
        return np.sum(self.alphas**s * f * g, axis=-1)

    def integrate(self, values: np.ndarray):
        """Quadrature of nodal values over the domain."""
        return self.weight * np.sum(np.asarray(values, dtype=float), axis=-1)

    def nodal_inner(self, a: np.ndarray, b: np.ndarray):
        """L2 inner product of two nodal-value arrays under the quadrature rule."""
        return self.integrate(np.asarray(a) * np.asarray(b))

    def mode_matrix(self) -> np.ndarray:
        """Matrix E[j, i] = e_{i+1}(x_j) of eigenfunction values on the grid."""
        i = np.arange(1, self.n_modes + 1, dtype=float)
        return np.sqrt(2.0 / self.length) * np.sin(
            np.outer(self.x, i) * np.pi / self.length
        )


def build_basis(spec: DomainSpec) -> SpectralBasis:
    """Construct the sine eigenbasis for a validated domain specification."""
    return SpectralBasis(spec)
