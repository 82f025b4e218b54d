import numpy as np
import pytest

from smallmass.basis import DomainSpec, build_basis


def test_domain_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec(length=-1.0, n_modes=4)
    with pytest.raises(ValueError):
        DomainSpec(length=1.0, n_modes=0)
    with pytest.raises(ValueError):
        DomainSpec(length=1.0, n_modes=8, n_nodes=10)  # below 2*n_modes
    spec = DomainSpec(length=1.0, n_modes=8)
    assert spec.n_nodes == 16


def test_closed_form_spectra():
    b = build_basis(DomainSpec(1.0, 3))
    assert np.allclose(b.alphas, [np.pi**2, 4 * np.pi**2, 9 * np.pi**2], atol=1e-12)
    assert np.all(np.diff(b.alphas) > 0)

    bpi = build_basis(DomainSpec(np.pi, 1))
    assert abs(bpi.alphas[0] - 1.0) < 1e-13
    x = np.linspace(0.1, 3.0, 7)
    assert np.allclose(bpi.eigenfunction(1, x), np.sqrt(2 / np.pi) * np.sin(x), atol=1e-14)

    b2 = build_basis(DomainSpec(2.0, 2))
    assert np.allclose(b2.alphas, [np.pi**2 / 4, np.pi**2], atol=1e-13)


def test_quadrature_orthonormality_machine_precision():
    b = build_basis(DomainSpec(1.3, 12, 30))
    emat = b.mode_matrix()
    gram = b.weight * emat.T @ emat
    assert np.max(np.abs(gram - np.eye(12))) < 1e-12


def test_sobolev_norm_examples():
    b = build_basis(DomainSpec(1.0, 4))
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
    b = build_basis(DomainSpec(2.0, 16))
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
    b = build_basis(DomainSpec(1.0, 8))
    rng = np.random.default_rng(11)
    f = rng.normal(size=8)
    assert np.max(np.abs(b.analyze(b.synthesize(f)) - f)) < 1e-10
    assert np.all(b.analyze(np.zeros(b.n_nodes)) == 0.0)
    # pointwise synthesis against direct eigenfunction evaluation
    vals = b.synthesize(f)
    direct = sum(f[i] * b.eigenfunction(i + 1, b.x) for i in range(8))
    assert np.max(np.abs(vals - direct)) < 1e-12
    # e2 at x = L/4 on a grid containing that point
    bq = build_basis(DomainSpec(1.0, 3, 15))
    assert abs(bq.synthesize(np.array([0.0, 1.0, 0.0]))[3] - np.sqrt(2.0)) < 1e-12


def test_transform_batched_matches_loop():
    b = build_basis(DomainSpec(1.0, 6))
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(4, 6))
    stacked = b.synthesize(batch)
    for j in range(4):
        assert np.allclose(stacked[j], b.synthesize(batch[j]), atol=1e-14)
    assert np.allclose(b.analyze(stacked), batch, atol=1e-12)


def test_parseval_under_quadrature():
    b = build_basis(DomainSpec(0.7, 10))
    rng = np.random.default_rng(13)
    u = rng.normal(size=10)
    v = rng.normal(size=10)
    nodal = b.nodal_inner(b.synthesize(u), b.synthesize(v))
    assert abs(nodal - b.inner(u, v, 0.0)) < 1e-10


def test_laplacian():
    b = build_basis(DomainSpec(1.0, 3))
    e12 = np.array([1.0, 1.0, 0.0])
    assert np.allclose(b.laplacian(e12), [-np.pi**2, -4 * np.pi**2, 0.0], atol=1e-9)
    assert np.all(b.laplacian(np.zeros(3)) == 0.0)
    assert np.allclose(b.laplacian([1, 0, 0]), [-np.pi**2, 0.0, 0.0], atol=1e-9)


def test_size_mismatch_rejected():
    b = build_basis(DomainSpec(1.0, 4))
    with pytest.raises(ValueError):
        b.synthesize(np.zeros(5))
    with pytest.raises(ValueError):
        b.analyze(np.zeros(7))
