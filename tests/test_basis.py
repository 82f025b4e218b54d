import re

import numpy as np
import pytest

from smallmass.basis import SpectralBasis


def test_domain_spec_validation():
    with pytest.raises(ValueError, match="domain length must be positive, got -1.0"):
        SpectralBasis(length=-1.0, n_modes=4)
    with pytest.raises(ValueError, match="domain length must be positive, got inf"):
        SpectralBasis(length=np.inf, n_modes=4)
    with pytest.raises(ValueError, match="n_modes must be >= 1, got 0"):
        SpectralBasis(length=1.0, n_modes=0)
    with pytest.raises(ValueError, match=re.escape("n_nodes must be >= 2*n_modes = 16, got 10")):
        SpectralBasis(length=1.0, n_modes=8, n_nodes=10)  # below 2*n_modes
    # counts are integers, by name: a float or a bool is not read as one
    with pytest.raises(ValueError, match="n_modes must be an integer, got 8.0"):
        SpectralBasis(1.0, 8.0)
    with pytest.raises(ValueError, match="n_modes must be an integer, got True"):
        SpectralBasis(1.0, True)
    with pytest.raises(ValueError, match="n_nodes must be an integer, got 64.5"):
        SpectralBasis(1.0, 32, 64.5)
    with pytest.raises(ValueError, match="n_nodes must be an integer, got False"):
        SpectralBasis(1.0, 1, False)
    # the length is a real number, by name: a bool or a string is not read as one
    with pytest.raises(ValueError, match="domain length must be a real number, got True"):
        SpectralBasis(True, 4)
    with pytest.raises(ValueError, match="domain length must be a real number, got '1'"):
        SpectralBasis("1", 4)
    assert SpectralBasis(2, 4).length == SpectralBasis(np.float64(2.0), 4).length == 2.0
    b = SpectralBasis(length=1.0, n_modes=8)
    assert b.n_nodes == 16
    wide = SpectralBasis(1.0, np.int64(4), np.int64(9))
    assert (wide.n_modes, wide.n_nodes) == (4, 9) and type(wide.n_modes) is int


def test_closed_form_spectra():
    b = SpectralBasis(1.0, 3)
    assert np.allclose(b.alphas, [np.pi**2, 4 * np.pi**2, 9 * np.pi**2], atol=1e-12)
    assert np.all(np.diff(b.alphas) > 0)

    bpi = SpectralBasis(np.pi, 1)
    assert abs(bpi.alphas[0] - 1.0) < 1e-13
    x = np.linspace(0.1, 3.0, 7)
    assert np.allclose(bpi.eigenfunction(1, x), np.sqrt(2 / np.pi) * np.sin(x), atol=1e-14)

    b2 = SpectralBasis(2.0, 2)
    assert np.allclose(b2.alphas, [np.pi**2 / 4, np.pi**2], atol=1e-13)

    # the geometry each basis owns: mode index, eigenvalue range, mode matrix, bump
    odd = SpectralBasis(np.pi, 5, 11)  # node 6 of 11 is the midpoint
    for basis in (b, bpi, b2, odd):
        n = basis.n_modes
        assert np.array_equal(basis.wavenumbers, np.arange(1, n + 1, dtype=float))
        assert basis.alphas.min() == basis.alphas[0] and basis.alphas.max() == basis.alphas[-1]
        emat = basis.mode_matrix()
        assert emat is basis.mode_matrix() and not emat.flags.writeable
        assert emat.shape == (basis.n_nodes, n)
        with pytest.raises(ValueError):
            emat[0, 0] = 0.0
        # the bump is the parabola through its nodal values with 0 at the ends, 1 at the midpoint
        if basis.n_nodes >= 3:
            parabola = np.polyfit(basis.x, basis.bump, 2)
            ends_mid = np.polyval(parabola, [0.0, basis.length / 2, basis.length])
            assert np.allclose(ends_mid, [0.0, 1.0, 0.0], atol=1e-12)
    assert odd.bump[5] == 1.0


def test_quadrature_orthonormality_machine_precision():
    b = SpectralBasis(1.3, 12, 30)
    emat = b.mode_matrix()
    gram = b.weight * emat.T @ emat
    assert np.max(np.abs(gram - np.eye(12))) < 1e-12


def test_sobolev_norm_examples():
    b = SpectralBasis(1.0, 4)
    e1 = np.array([1.0, 0, 0, 0])
    assert abs(b.sobolev_norm(e1, 0.0) - 1.0) < 1e-14
    assert abs(b.sobolev_norm(e1, 1.0) - np.pi) < 1e-12
    e12 = np.array([1.0, 1.0, 0, 0])
    expected = np.sqrt(1 / np.pi**2 + 1 / (4 * np.pi**2))
    assert abs(b.sobolev_norm(e12, -1.0) - expected) < 1e-14
    # fractional scale is monotone in s for a unit H-norm multi-mode field
    f = np.array([0.5, 0.5, 0.5, 0.5])
    s_grid = [-1.0, -0.5, -0.25, 0.0, 0.5, 1.0]
    norms = [b.sobolev_norm(f, s) for s in s_grid]
    assert all(a < c for a, c in zip(norms, norms[1:]))


def test_poincare_inequality_random_fields():
    b = SpectralBasis(2.0, 16)
    rng = np.random.default_rng(3)
    inv_sqrt_a1 = 1.0 / np.sqrt(b.alphas[0])
    for _ in range(200):
        f = rng.normal(size=16) * rng.uniform(0, 3)
        assert b.sobolev_norm(f, 0.0) <= inv_sqrt_a1 * b.sobolev_norm(f, 1.0) + 1e-12
        assert b.sobolev_norm(f, -1.0) <= inv_sqrt_a1 * b.sobolev_norm(f, 0.0) + 1e-12
    # equality exactly on mode 1
    e1 = np.zeros(16)
    e1[0] = 2.7
    assert abs(b.sobolev_norm(e1, 0.0) - inv_sqrt_a1 * b.sobolev_norm(e1, 1.0)) < 1e-12


def test_transform_round_trip_and_pointwise():
    b = SpectralBasis(1.0, 8)
    rng = np.random.default_rng(11)
    f = rng.normal(size=8)
    assert np.max(np.abs(b.analyze(b.synthesize(f)) - f)) < 1e-10
    assert np.all(b.analyze(np.zeros(b.n_nodes)) == 0.0)
    # pointwise synthesis against direct eigenfunction evaluation
    vals = b.synthesize(f)
    direct = sum(f[i] * b.eigenfunction(i + 1, b.x) for i in range(8))
    assert np.max(np.abs(vals - direct)) < 1e-12
    # e2 at x = L/4 on a grid containing that point
    bq = SpectralBasis(1.0, 3, 15)
    assert abs(bq.synthesize(np.array([0.0, 1.0, 0.0]))[3] - np.sqrt(2.0)) < 1e-12


@pytest.mark.parametrize("n_modes, n_nodes", [(8, 16), (32, 64), (32, 70)])
def test_transforms_agree_with_the_type_one_sine_transform(n_modes, n_nodes):
    # An independent algorithm: the grid values are a DST-I of the zero-padded
    # coefficients.  The bound is in units of double eps times the sums of
    # absolute terms; the sine arguments of the matrix entries reach N*pi,
    # so an entry itself carries up to ~N*pi eps beside the n-term sum.
    from scipy.fft import dst

    b = SpectralBasis(1.3, n_modes, n_nodes)
    rng = np.random.default_rng(n_modes + n_nodes)
    coeffs = rng.normal(size=(5, n_modes))
    nodal = rng.normal(size=(5, n_nodes))
    pad = np.zeros((5, n_nodes))
    pad[:, :n_modes] = coeffs
    scale = np.sqrt(2.0 / 1.3) / 2.0
    ref_synth = scale * dst(pad, type=1, axis=-1)
    ref_ana = (b.weight * scale * dst(nodal, type=1, axis=-1))[:, :n_modes]
    eps = np.finfo(float).eps * (n_nodes + np.pi * n_modes)
    emat = np.abs(b.mode_matrix())
    assert np.all(np.abs(b.synthesize(coeffs) - ref_synth) <= eps * (np.abs(coeffs) @ emat.T))
    assert np.all(np.abs(b.analyze(nodal) - ref_ana) <= eps * b.weight * (np.abs(nodal) @ emat))


def test_transform_batched_matches_loop():
    b = SpectralBasis(1.0, 6)
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(4, 6))
    stacked = b.synthesize(batch)
    for j in range(4):
        assert np.allclose(stacked[j], b.synthesize(batch[j]), atol=1e-14)
    assert np.allclose(b.analyze(stacked), batch, atol=1e-12)


def test_transform_rows_alone_equal_rows_of_a_batch_at_production_shape():
    # N = 32, M = 64 as in the default config.  The ladder study transforms
    # one mass batch of n_mu * P rows at once: 320 rows at the default (5
    # masses x 64 paths), 160 per block at jobs = 2 and 40 at the benchmark's
    # tiny size (5 x 8); the limit and a lone mass take P = 64 rows.  Batched
    # runs equal per-path and per-mass runs bit for bit only if every row is
    # transformed alone exactly as inside any of these blocks.
    b = SpectralBasis(1.0, 32, 64)
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=(640, 32))
    nodal = rng.normal(size=(640, 64))
    synth, ana = b.synthesize(coeffs), b.analyze(nodal)
    for rows in (1, 2, 7, 40, 64, 160, 320):
        for start in (0, 101, 640 - rows):
            sl = slice(start, start + rows)
            assert np.array_equal(b.synthesize(coeffs[sl]), synth[sl]), rows
            assert np.array_equal(b.analyze(nodal[sl]), ana[sl]), rows
    assert np.array_equal(b.synthesize(coeffs[5]), synth[5])  # one unbatched row
    assert np.array_equal(b.analyze(nodal[5]), ana[5])


@pytest.mark.parametrize("n_modes, n_nodes", [(6, 12), (8, 16), (16, 32), (32, 64)])
def test_transform_rows_equal_rows_of_a_batch_whatever_the_input_shape(n_modes, n_nodes):
    # The shapes the tier-1 ladder and wave tests run, and the production one:
    # a row transforms to the same bits alone (1-D), in a block of rows, and
    # inside a (n_out, P, N) stack as the study's trajectories are.
    b = SpectralBasis(1.0, n_modes, n_nodes)
    rng = np.random.default_rng(n_modes)
    coeffs = rng.normal(size=(21, 6, n_modes))
    nodal = rng.normal(size=(21, 6, n_nodes))
    synth, ana = b.synthesize(coeffs), b.analyze(nodal)
    flat_s = b.synthesize(coeffs.reshape(-1, n_modes)).reshape(synth.shape)
    flat_a = b.analyze(nodal.reshape(-1, n_nodes)).reshape(ana.shape)
    assert np.array_equal(flat_s, synth) and np.array_equal(flat_a, ana)
    for t in (0, 20):
        for rows in (slice(0, 2), slice(2, 5), slice(0, 6)):
            assert np.array_equal(b.synthesize(coeffs[t, rows]), synth[t, rows])
            assert np.array_equal(b.analyze(nodal[t, rows]), ana[t, rows])
        for j in (0, 5):
            assert np.array_equal(b.synthesize(coeffs[t, j]), synth[t, j])
            assert np.array_equal(b.analyze(nodal[t, j]), ana[t, j])
            assert np.array_equal(b.synthesize(coeffs[t, j : j + 1]), synth[t, j : j + 1])
    # strided views transform as their contiguous copies
    assert np.array_equal(b.synthesize(coeffs[:, 3]), synth[:, 3])
    assert np.array_equal(b.analyze(nodal[::4, 1]), ana[::4, 1])


def test_parseval_under_quadrature():
    b = SpectralBasis(0.7, 10)
    rng = np.random.default_rng(13)
    u = rng.normal(size=10)
    v = rng.normal(size=10)
    nodal = b.integrate(b.synthesize(u) * b.synthesize(v))
    assert abs(nodal - b.inner(u, v, 0.0)) < 1e-10


def test_laplacian():
    b = SpectralBasis(1.0, 3)
    e12 = np.array([1.0, 1.0, 0.0])
    assert np.allclose(b.laplacian(e12), [-np.pi**2, -4 * np.pi**2, 0.0], atol=1e-9)
    assert np.all(b.laplacian(np.zeros(3)) == 0.0)
    assert np.allclose(b.laplacian([1, 0, 0]), [-np.pi**2, 0.0, 0.0], atol=1e-9)


def test_size_mismatch_rejected():
    b = SpectralBasis(1.0, 4)
    with pytest.raises(ValueError):
        b.synthesize(np.zeros(5))
    with pytest.raises(ValueError):
        b.analyze(np.zeros(7))
