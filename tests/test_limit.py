import numpy as np
import pytest

from smallmass.basis import SpectralBasis
from smallmass.limit import LimitSolver
from smallmass.models import ModelSet, build_diffusion, friction_preset, reaction_preset
from smallmass.noise import refine, sample_batch, sample_path, zero_path
from smallmass.wave import g_coeffs


@pytest.fixture(scope="module")
def basis():
    return SpectralBasis(1.0, 16)


def models_for(basis, friction="two_plus_sin", reaction="linear_decay", diffusion="cosine", q=1.0):
    return ModelSet(
        friction_preset(friction),
        reaction_preset(reaction),
        build_diffusion(basis, factor=diffusion, q=q),
    )


def bump(basis, amp=1.0):
    return amp * basis.analyze(4.0 * basis.x * (basis.length - basis.x) / basis.length**2)


def test_heat_kernel_decay(basis):
    # gamma == gamma0, no reaction, no noise: exact decay exp(-a1 t / gamma0).
    m = models_for(basis, friction="constant", reaction="zero", diffusion="zero")
    u0 = np.zeros(16)
    u0[0] = 1.0
    traj = LimitSolver(basis, m, form="u").simulate(u0, zero_path(0.1, 1e-4, 16), n_output=10)
    exact = np.exp(-basis.alphas[0] * 0.1)
    assert abs(traj.coeffs[-1][0] - exact) < 1e-3
    assert np.max(np.abs(traj.coeffs[-1][1:])) < 1e-12


def test_constant_friction_reduces_to_fixed_coefficient_form(basis):
    # With gamma and the diffusion factor constant the drift term vanishes and
    # with_drift makes no difference.
    m = models_for(basis, friction="constant", diffusion="constant")
    path = sample_path(3, 0.05, 1e-3, 16)
    a = LimitSolver(basis, m, form="u", with_drift=True).simulate(bump(basis), path, n_output=10)
    b = LimitSolver(basis, m, form="u", with_drift=False).simulate(bump(basis), path, n_output=10)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_rho_form_scaling_for_constant_friction(basis):
    # gamma == c: rho = c u exactly, and the two integrators coincide after scaling.
    m = models_for(basis, friction="constant", diffusion="constant")
    path = sample_path(9, 0.05, 1e-3, 16)
    u0 = bump(basis)
    ut = LimitSolver(basis, m, form="u").simulate(u0, path, n_output=10)
    rt = LimitSolver(basis, m, form="rho").simulate(1.0 * u0, path, n_output=10)
    assert np.max(np.abs(rt.coeffs - 1.0 * ut.coeffs)) < 1e-10


def test_rho_decay_against_u_form_oracle(basis):
    # No reaction, no noise: the rho-form H-norm decays, and the u-form
    # integrator provides the reference trajectory.
    m = models_for(basis, reaction="zero", diffusion="zero")
    u0 = bump(basis)
    rho0 = basis.analyze(m.g_map.forward(basis.synthesize(u0)))
    path = zero_path(0.2, 1e-3, 16)
    rt = LimitSolver(basis, m, form="rho").simulate(rho0, path, n_output=40)
    norms = np.sqrt((rt.coeffs**2).sum(axis=-1))
    assert np.all(np.diff(norms) <= 1e-12)
    ut = LimitSolver(basis, m, form="u").simulate(u0, path, n_output=40)
    g_of_u = basis.analyze(m.g_map.forward(basis.synthesize(ut.coeffs)))
    assert np.max(np.sqrt(((g_of_u - rt.coeffs) ** 2).sum(axis=-1))) < 5e-3


def test_zero_noise_h_norm_monotone(basis):
    m = models_for(basis, reaction="zero", diffusion="zero")
    traj = LimitSolver(basis, m, form="u").simulate(bump(basis), zero_path(0.3, 1e-3, 16), n_output=60)
    norms = np.sqrt((traj.coeffs**2).sum(axis=-1))
    assert np.all(np.diff(norms) <= 1e-12)


def test_transform_round_trips(basis):
    # rho = g(u) is g_coeffs; u = g^-1(rho) is the nodal inverse, re-analyzed.
    m = models_for(basis)
    u = bump(basis)
    # nodal round trip is exact to inversion tolerance
    w = basis.synthesize(u)
    assert np.max(np.abs(m.g_map.inverse(m.g_map.forward(w)) - w)) < 10 * m.g_map.tol_inv
    zero = g_coeffs(np.zeros(16), basis, m)
    assert np.max(np.abs(zero)) < 1e-14
    const = models_for(basis, friction="constant")
    r2 = g_coeffs(u, basis, const)
    assert np.allclose(r2, u, atol=1e-12)
    back = basis.analyze(const.g_map.inverse(basis.synthesize(r2)))
    assert np.allclose(back, u, atol=1e-12)


def test_single_steps_and_validation(basis):
    m = models_for(basis)
    one_step = zero_path(1e-3, 1e-3, 16)
    for form in ("u", "rho"):
        traj = LimitSolver(basis, m, form=form).simulate(bump(basis), one_step, n_output=1)
        assert traj.coeffs.shape == (2, 16) and np.all(np.isfinite(traj.coeffs[-1]))
    with pytest.raises(ValueError):
        LimitSolver(basis, m, form="w")
    # with_drift is one bool or a 1-D sequence of them, and rows run on a batch of paths
    for bad in ((), [[True, False]], (1, 0), "yes"):
        with pytest.raises(ValueError, match="with_drift must be a bool or 1-D bools"):
            LimitSolver(basis, m, with_drift=bad)
    rows = LimitSolver(basis, m, with_drift=(True, False))
    with pytest.raises(ValueError, match="batch of paths"):
        rows.stepper(bump(basis), one_step)
    assert rows.stepper(bump(basis), sample_batch(5, 1, 1e-3, 1e-3, 16)).y.shape == (2, 1, 16)


def test_dual_form_consistency_ratio(basis):
    # transform(u-form) vs rho-form under a shared path: the gap halves when
    # dt halves (first-order deterministic splitting difference dominates at
    # this amplitude).
    m = models_for(basis)
    u0 = bump(basis, amp=2.0)
    rho0 = basis.analyze(m.g_map.forward(basis.synthesize(u0)))

    def sup_gap(batch):
        ut = LimitSolver(basis, m, form="u").simulate(u0, batch, n_output=50)
        rt = LimitSolver(basis, m, form="rho").simulate(rho0, batch, n_output=50)
        gu = basis.analyze(m.g_map.forward(basis.synthesize(ut.coeffs)))
        return np.sqrt(((gu - rt.coeffs) ** 2).sum(axis=-1)).max(axis=0)

    b1 = sample_batch(1234, 8, 0.256, 4e-3, 16)
    b2 = refine(b1)
    d1, d2 = sup_gap(b1), sup_gap(b2)
    ratio = d1.mean() / d2.mean()
    assert 1.6 <= ratio <= 2.6, f"dual-form ratio {ratio}"


def test_drift_ablation_guard(basis):
    # Removing the noise-induced drift must move the solution by much more
    # than the dual-form discretization gap at production resolution: dead
    # drift code would pass the dual-form test and fail here.
    m = models_for(basis)
    u0 = bump(basis)
    rho0 = basis.analyze(m.g_map.forward(basis.synthesize(u0)))
    batch = sample_batch(77, 4, 0.5, 2e-4, 16)
    with_h = LimitSolver(basis, m, form="u", with_drift=True).simulate(u0, batch, n_output=50)
    no_h = LimitSolver(basis, m, form="u", with_drift=False).simulate(u0, batch, n_output=50)
    rt = LimitSolver(basis, m, form="rho").simulate(rho0, batch, n_output=50)
    gu = basis.analyze(m.g_map.forward(basis.synthesize(with_h.coeffs)))
    dual_gap = np.sqrt(((gu - rt.coeffs) ** 2).sum(axis=-1)).max(axis=0).mean()
    ablation = np.sqrt(((with_h.coeffs - no_h.coeffs) ** 2).sum(axis=-1)).max(axis=0).mean()
    assert ablation > 5.0 * dual_gap


def test_batched_matches_per_path(basis):
    m = models_for(basis)
    paths = [sample_path(400 + j, 0.02, 5e-4, 16) for j in range(3)]
    batch = sample_batch(400, 3, 0.02, 5e-4, 16)
    for form in ("u", "rho"):
        solver = LimitSolver(basis, m, form=form)
        tb = solver.simulate(bump(basis), batch, n_output=10)
        for j, p in enumerate(paths):
            tj = solver.simulate(bump(basis), p, n_output=10)
            assert np.allclose(tb.coeffs[:, j], tj.coeffs, atol=1e-13)
            assert np.array_equal(tb.coeffs[:, j], tj.coeffs), form


def test_limit_u_step_takes_cos_once_per_nodal_state(basis, cos_per_state):
    # gamma'(u) = cos u and lambda_sigma(u) = cos u of the default presets
    # share one cos on the step's nodal state.
    solver = LimitSolver(basis, models_for(basis), form="u")
    solver.simulate(bump(basis), sample_batch(3, 2, 1e-3, 1e-3, 16), n_output=1)
    assert cos_per_state() == [1]


@pytest.mark.parametrize("form", ["u", "rho"])
def test_limit_divergence_is_reported_at_its_step(basis, monkeypatch, form):
    # A state that stops being finite on the 3rd step raises at step 3, t = 3 dt,
    # whatever the running sup of the H-norm does with it first.
    from smallmass.wave import SimulationDiverged

    name = f"_advance_{form}"
    real, calls = getattr(LimitSolver, name), []

    def blows_up(self, y, dt, dbeta):
        calls.append(dt)
        y = real(self, y, dt, dbeta)
        return np.full_like(y, np.nan) if len(calls) == 3 else y

    monkeypatch.setattr(LimitSolver, name, blows_up)
    solver = LimitSolver(basis, models_for(basis), form=form)
    with pytest.raises(SimulationDiverged) as err:
        solver.simulate(bump(basis), sample_batch(5, 2, 0.01, 1e-3, 16), n_output=5)
    assert calls == [1e-3] * 3
    assert (err.value.step, err.value.t) == (3, 3 * 1e-3)
