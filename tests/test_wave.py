import numpy as np
import pytest

from smallmass.basis import DomainSpec, build_basis
from smallmass.limit import LimitSolver
from smallmass.models import build_diffusion, build_model_set, friction_preset, reaction_preset
from smallmass.noise import refine, sample_path, stack_paths, zero_path
from smallmass.wave import SimulationDiverged, WaveSolver, WaveState, g_coeffs


@pytest.fixture(scope="module")
def basis():
    return build_basis(DomainSpec(1.0, 16))


def models_for(basis, friction="two_plus_sin", reaction="linear_decay", diffusion="constant", q=1.0):
    return build_model_set(
        basis,
        friction_preset(friction),
        reaction_preset(reaction),
        build_diffusion(basis, factor=diffusion, q=q),
    )


def bump(basis, amp=1.0):
    return amp * basis.analyze(4.0 * basis.x * (basis.length - basis.x) / basis.length**2)


def test_single_step_closed_form(basis):
    # gamma == 1, f == 0, no noise, u0 = e1, v0 = 0: the factorized update gives
    #   v1 = -dt a1 mu / ((mu + dt^2 a1)(mu + dt)),  u1 = u0 + dt v1.
    lin = models_for(basis, friction="constant", reaction="zero", diffusion="zero")
    mu, dt = 0.05, 1e-3
    u0 = np.zeros(16)
    u0[0] = 1.0
    state = WaveState(u=u0, v=np.zeros(16), mu=mu)
    out = WaveSolver(basis, lin, mu, scheme="semi_implicit").step(state, dt, None)
    a1 = basis.alphas[0]
    v1 = -dt * a1 * mu / ((mu + dt**2 * a1) * (mu + dt))
    assert abs(out.v[0] - v1) < 1e-15
    assert abs(out.u[0] - (1.0 + dt * v1)) < 1e-15
    # other modes stay at transform roundoff level
    assert np.max(np.abs(out.u[1:])) < 1e-15 and np.max(np.abs(out.v[1:])) < 1e-15
    assert out.t == dt


def test_zero_noise_energy_decay_semi_implicit(basis):
    # f == 0, no noise: K = ||u||_H1^2 + mu ||v||_H^2 is non-increasing at
    # every step of the factorized implicit scheme, for every friction preset.
    for friction in ("constant", "two_plus_sin"):
        m = models_for(basis, friction=friction, reaction="zero", diffusion="zero")
        mu = 0.05
        path = zero_path(0.5, 0.01, 16)
        solver = WaveSolver(basis, m, mu, scheme="semi_implicit")
        u, v = bump(basis), np.zeros(16)
        energy = basis.sobolev_norm(u, 1.0) ** 2 + mu * basis.sobolev_norm(v, 0.0) ** 2
        for _ in range(path.n_steps):
            u, v = solver._step_semi_implicit(u, v, path.dt, None)
            e_new = basis.sobolev_norm(u, 1.0) ** 2 + mu * basis.sobolev_norm(v, 0.0) ** 2
            assert e_new <= energy * (1.0 + 1e-12)
            energy = e_new


def test_zero_noise_energy_decay_eta_form(basis):
    # The staggered eta scheme reconstructs v off-phase by half a step, so K
    # carries an O(dt^2/mu) ripple; the envelope still decays and the run ends
    # far below the initial energy.
    for friction in ("constant", "two_plus_sin"):
        m = models_for(basis, friction=friction, reaction="zero", diffusion="zero")
        mu, dt = 0.05, 1e-3
        solver = WaveSolver(basis, m, mu, scheme="eta_form")
        u = bump(basis)
        second = basis.analyze(m.g_map.forward(basis.synthesize(u))) / mu
        k0 = basis.sobolev_norm(u, 1.0) ** 2
        energy = k0
        for _ in range(500):
            u, second = solver._step_eta(u, second, dt, None)
            v = second - basis.analyze(m.g_map.forward(basis.synthesize(u))) / mu
            e_new = basis.sobolev_norm(u, 1.0) ** 2 + mu * basis.sobolev_norm(v, 0.0) ** 2
            assert e_new <= energy + 2e-3 * k0
            energy = e_new
        assert energy < 0.5 * k0


def test_zero_data_zero_trajectory(basis):
    m = models_for(basis, reaction="zero", diffusion="zero")
    traj = WaveSolver(basis, m, 0.02).simulate(np.zeros(16), np.zeros(16), zero_path(0.1, 1e-3, 16))
    assert np.max(np.abs(traj.u)) == 0.0 and np.max(np.abs(traj.v)) == 0.0


def test_determinism(basis):
    m = models_for(basis)
    p = sample_path(31, 0.05, 5e-4, 16)
    t1 = WaveSolver(basis, m, 0.05).simulate(bump(basis), np.zeros(16), p, n_output=20)
    t2 = WaveSolver(basis, m, 0.05).simulate(bump(basis), np.zeros(16), p, n_output=20)
    assert np.array_equal(t1.u, t2.u) and np.array_equal(t1.v, t2.v)


def test_self_convergence_ratio(basis):
    # dt vs dt/2 with the same refined path, constant diffusion factor: first
    # order strong convergence, so halving dt roughly halves the distance.
    m = models_for(basis, diffusion="constant")
    mu, t_final, dt = 0.05, 0.2, 1e-3
    ratios = []
    for seed in range(8):
        p1 = sample_path(100 + seed, t_final, dt, 16)
        p2 = refine(p1)
        p4 = refine(p2)
        ref = WaveSolver(basis, m, mu).simulate(bump(basis), np.zeros(16), refine(p4), n_output=1)
        t1 = WaveSolver(basis, m, mu).simulate(bump(basis), np.zeros(16), p1, n_output=1)
        t2 = WaveSolver(basis, m, mu).simulate(bump(basis), np.zeros(16), p2, n_output=1)
        e1 = basis.sobolev_norm(t1.u[-1] - ref.u[-1], 0.0)
        e2 = basis.sobolev_norm(t2.u[-1] - ref.u[-1], 0.0)
        ratios.append(e1 / e2)
    mean_ratio = np.mean(ratios)
    assert 1.5 <= mean_ratio <= 3.0, f"self-convergence ratio {mean_ratio}"


def test_eta_and_wave_forms_consistent(basis):
    # Both schemes discretize the same system; their difference is O(dt) with
    # a constant estimated by the dt-halving ratio.
    m = models_for(basis, diffusion="constant")
    mu, t_final, dt = 0.05, 0.2, 2e-3
    p1 = sample_path(55, t_final, dt, 16)
    p2 = refine(p1)

    def diff_at(path):
        te = WaveSolver(basis, m, mu, scheme="eta_form").simulate(
            bump(basis), np.zeros(16), path, n_output=1
        )
        ts = WaveSolver(basis, m, mu, scheme="semi_implicit").simulate(
            bump(basis), np.zeros(16), path, n_output=1
        )
        return float(basis.sobolev_norm(te.u[-1] - ts.u[-1], 0.0))

    d1 = diff_at(p1)
    d2 = diff_at(p2)
    run_constant = d1 / dt
    assert d2 <= 5.0 * (dt / 2) * run_constant
    norm_scale = float(basis.sobolev_norm(bump(basis), 0.0))
    assert d1 < 0.1 * norm_scale


def test_eta_state_round_trip(basis):
    # eta = v + g(u)/mu and back, through the solver's one shift g_over_mu.
    m = models_for(basis)
    solver = WaveSolver(basis, m, 0.07)
    u, v = bump(basis), 0.3 * bump(basis)
    shift = solver.g_over_mu(u)
    assert np.array_equal(shift, g_coeffs(u, basis, m) / 0.07)
    back = (v + shift) - solver.g_over_mu(u)
    assert np.max(np.abs(back - v)) < 1e-10


def test_batched_simulation_matches_per_path(basis):
    # Bit for bit, for every wave scheme and both limit forms (with and
    # without the drift): a batch row is the same path run alone.
    m = models_for(basis)
    mu = 0.05
    paths = [sample_path(200 + j, 0.05, 5e-4, 16) for j in range(3)]
    batch = stack_paths(paths)
    for scheme in ("eta_form", "semi_implicit", "resolvent_implicit"):
        solver = WaveSolver(basis, m, mu, scheme=scheme)
        tb = solver.simulate(bump(basis), np.zeros(16), batch, n_output=10)
        for j, p in enumerate(paths):
            tj = solver.simulate(bump(basis), np.zeros(16), p, n_output=10)
            assert np.allclose(tb.u[:, j], tj.u, atol=1e-13)
            assert abs(tb.sup_v_h[j] - tj.sup_v_h) < 1e-12
            assert abs(tb.int_u_h1_sq[j] - tj.int_u_h1_sq) < 1e-12
            assert np.array_equal(tb.u[:, j], tj.u), scheme
            assert np.array_equal(tb.v[:, j], tj.v), scheme
            for f in ("sup_u_h", "sup_u_h1", "sup_v_h", "sup_energy", "int_u_h1_sq", "int_v_h_sq"):
                assert getattr(tb, f)[j] == getattr(tj, f), (scheme, f)
    for form, with_drift in (("u", True), ("u", False), ("rho", True)):
        solver = LimitSolver(basis, m, form=form, with_drift=with_drift)
        lb = solver.simulate(bump(basis), batch, n_output=10)
        for j, p in enumerate(paths):
            lj = solver.simulate(bump(basis), p, n_output=10)
            assert np.array_equal(lb.coeffs[:, j], lj.coeffs), (form, with_drift)
            assert lb.sup_h[j] == lj.sup_h, (form, with_drift)


def test_divergence_detection(basis):
    import warnings

    m = models_for(basis, reaction="zero", diffusion="zero")
    solver = WaveSolver(basis, m, 1e-8, scheme="eta_form", c_stab=1e12)
    u0 = np.zeros(16)
    u0[-1] = 1.0  # highest mode, far above the staggered-scheme CFL
    bad = zero_path(200.0, 1.0, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SimulationDiverged) as exc:
            solver.simulate(u0, np.zeros(16), bad, n_output=5)
    assert exc.value.step >= 1


def test_step_policy_warning(basis):
    m = models_for(basis)
    solver = WaveSolver(basis, m, 1e-3)
    p = zero_path(0.01, 1e-3, 16)  # dt = c_stab*mu would need 5e-4
    with pytest.warns(RuntimeWarning):
        solver.simulate(bump(basis), np.zeros(16), p, n_output=2)


def test_scheme_validation(basis):
    m = models_for(basis)
    with pytest.raises(ValueError):
        WaveSolver(basis, m, 0.1, scheme="not_a_scheme")
    with pytest.raises(ValueError):
        WaveSolver(basis, m, -0.1)
    with pytest.raises(ValueError):
        WaveSolver(basis, m, 0.1).step(WaveState(u=np.zeros(16), v=np.zeros(16), mu=0.1), -1e-3)


@pytest.mark.parametrize("scheme", ["semi_implicit", "eta_form", "resolvent_implicit"])
def test_step_rejects_a_state_of_another_mass(basis, scheme):
    solver = WaveSolver(basis, models_for(basis), 0.1, scheme=scheme)
    with pytest.raises(ValueError, match="mass"):
        solver.step(WaveState(u=np.zeros(16), v=np.zeros(16), mu=0.2), 1e-3)


def test_step_agrees_with_one_step_of_simulate(basis):
    # step() and simulate() share each scheme's step function.
    m = models_for(basis)
    p = sample_path(91, 1e-3, 1e-3, 16)
    for scheme in ("semi_implicit", "eta_form", "resolvent_implicit"):
        solver = WaveSolver(basis, m, 0.05, scheme=scheme)
        traj = solver.simulate(bump(basis), 0.2 * bump(basis), p, n_output=1)
        state = WaveState(u=bump(basis), v=0.2 * bump(basis), mu=0.05)
        st = solver.step(state, p.dt, p.increments[:, 0])
        assert np.array_equal(st.u, traj.u[-1]), scheme
        assert np.array_equal(st.v, traj.v[-1]), scheme


def test_sup_trackers_record_every_step(basis):
    m = models_for(basis)
    p = sample_path(77, 0.02, 1e-3, 16)
    traj = WaveSolver(basis, m, 0.05).simulate(bump(basis), np.zeros(16), p, n_output=2)
    # trackers run over every step, so they dominate the coarse output grid
    assert traj.sup_u_h >= np.max(np.sqrt((traj.u**2).sum(axis=-1))) - 1e-12
    assert traj.sup_v_h >= np.max(np.sqrt((traj.v**2).sum(axis=-1))) - 1e-12
    assert traj.int_v_h_sq > 0.0
