"""Dirichlet sine eigenbasis on an interval, with nodal transforms and Sobolev norms.

The domain is the open interval (0, L).  The Laplacian with homogeneous
Dirichlet boundary conditions is diagonalized by

    e_i(x) = sqrt(2/L) * sin(i*pi*x/L),    alpha_i = (i*pi/L)**2,   i = 1, 2, ...

A field is represented by its first N sine coefficients.  The nodal grid is
the uniform interior grid x_j = j*L/(M+1), j = 1..M, on which the
eigenfunctions are exactly orthogonal under the quadrature rule with constant
weight L/(M+1) (it reproduces the L2 inner product of band-limited fields to
machine precision).  `SpectralBasis(L, N, M)`, M = 2N by default, is the one
constructor and checks its own domain.

Transforms.  Synthesis and analysis are one matrix product each, against
matrices built once per basis from E[j, i] = e_i(x_j) (`mode_matrix`):
coefficients (..., N) times E^T give nodal values (..., M), and nodal values
times (L/(M+1)) E give coefficients.  Every input is flattened to rows, so a
batch of P paths, or a (T, P, N) stack, is one product.  A lone row is padded
with a zero row before the product: BLAS multiplies one row (gemv) with
other rounding than a block of rows (gemm), while gemm rows agree bit for bit
whatever the block size.  With the pad, each row transforms to the same bits
alone as inside any batch, which keeps batched runs equal to per-path runs
and parallel runs equal to sequential ones.  Against the type-I discrete
sine transform (scipy.fft.dst), measured per call with one OpenBLAS thread on
a 2-CPU Xeon host with M = 2N: at N = 32-128 the products are 2.6-5.7x faster
for one row and 5.7-18x for 64 rows; at N = 256 they are 0.7-1.1x, so the
dense form suits the sizes this package runs.

The fractional Sobolev scale is defined directly on coefficients:

    ||u||_{H^s}^2 = sum_i alpha_i^s b_i^2,

so s = 1, 0, -1 give the H^1, L^2 and H^-1 norms, and any real s (for
instance s = -1/n) is available for the weak-space metrics.

Geometry.  Only this module knows that the domain is an interval.  The basis
owns the mode index `wavenumbers` (k_i = i), behind `alphas` (read by their
min and max, whatever their order), the mode matrix E (built once, read-only)
and every spectrum |k_i|^-q; the unit bump 4x(L-x)/L^2 on the nodes (`bump`);
and Q_MIN = d/2, above which sum_k |k|^-2q is finite.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

Q_MIN = 0.5  # d/2 in d = 1: a noise spectrum |k|^-q is square-summable only above it


class SpectralBasis:
    """Eigenpairs, nodal grid, quadrature and transforms on (0, length).

    n_modes modes are retained on n_nodes interior nodes.  n_nodes defaults
    to 2*n_modes; it must be at least 2*n_modes so that analysis of
    pointwise nonlinearities of band-limited fields is alias-controlled.
    Bad input raises ValueError naming the argument.

    All array operations act along the last axis, so batched inputs of shape
    (..., N) coefficients or (..., M) nodal values are supported throughout.
    Instances are immutable after construction and safe to share between
    concurrent simulations.
    """

    def __init__(self, length: float, n_modes: int, n_nodes: int | None = None):
        if not (length > 0.0 and np.isfinite(length)):
            raise ValueError(f"domain length must be positive, got {length}")
        N = _count("n_modes", n_modes)
        if N < 1:
            raise ValueError(f"n_modes must be >= 1, got {N}")
        M = 2 * N if n_nodes is None else _count("n_nodes", n_nodes)
        if M < 2 * N:
            raise ValueError(f"n_nodes must be >= 2*n_modes = {2 * N}, got {M}")
        L = length
        self.length, self.n_modes, self.n_nodes = L, N, M
        self.wavenumbers = np.arange(1, N + 1, dtype=float)
        self.alphas = (self.wavenumbers * np.pi / L) ** 2
        self.x = L * np.arange(1, M + 1, dtype=float) / (M + 1)
        self.weight = L / (M + 1)
        self.bump = 4.0 * self.x * (L - self.x) / L**2
        self._modes = np.sqrt(2.0 / L) * np.sin(np.outer(self.x, self.wavenumbers) * np.pi / L)
        self._modes.flags.writeable = False
        self._synth = np.ascontiguousarray(self._modes.T)  # (N, M)
        self._ana = self.weight * self._modes  # (M, N)

    # -- transforms ---------------------------------------------------------

    def synthesize(self, f) -> np.ndarray:
        """Evaluate a coefficient vector on the nodal grid."""
        return _rows_times(f, self._synth, "coefficients")

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Project nodal values onto the first N modes (exact for band-limited data)."""
        return _rows_times(values, self._ana, "nodal values")

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
        """H^s norm, (sum_i alpha_i^s b_i^2)^(1/2), for any real s; s = 0 skips its unit weights."""
        c = np.asarray(f, dtype=float)
        return np.sqrt(np.sum(c * c if s == 0 else self.alphas**s * c * c, axis=-1))

    def inner(self, f, g, s: float = 0.0):
        """H^s inner product of two coefficient vectors; s = 0 skips its unit weights."""
        f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
        return np.sum(f * g if s == 0 else self.alphas**s * f * g, axis=-1)

    def integrate(self, values: np.ndarray):
        """Quadrature of nodal values over the domain."""
        return self.weight * np.sum(np.asarray(values, dtype=float), axis=-1)

    def mode_matrix(self) -> np.ndarray:
        """E[j, i] = e_{i+1}(x_j), the eigenfunctions on the grid: built once, read-only."""
        return self._modes


def _count(name: str, value) -> int:
    """value as an int; a bool or a non-integer raises ValueError naming the argument."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _rows_times(x, matrix: np.ndarray, what: str) -> np.ndarray:
    """x (..., n) times matrix (n, m) as one product of contiguous rows, a lone row padded.

    A float64 array is taken as it is, and a 1-D row or a C-contiguous block
    of rows is multiplied without a reshape.  The product is ndarray.dot,
    which gives the bits of matmul at less cost per call on a few rows.
    """
    a = x if type(x) is np.ndarray and x.dtype == np.float64 else np.asarray(x, dtype=float)
    n, m = matrix.shape
    if a.shape[-1:] != (n,):
        raise ValueError(f"expected {n} {what}, got {a.shape[-1] if a.ndim else 'a scalar'}")
    if a.size == n:  # a lone row: multiply it as the first of two, as gemm would
        pad = np.zeros((2, n))
        pad[0] = a
        row = pad.dot(matrix)[0]
        return row if a.ndim == 1 else row.reshape(a.shape[:-1] + (m,))
    rows = a if a.ndim == 2 and a.flags.c_contiguous else np.ascontiguousarray(a.reshape(-1, n))
    out = rows.dot(matrix)
    return out if rows is a else out.reshape(a.shape[:-1] + (m,))

