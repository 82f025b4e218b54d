import numpy as np
import pytest

from smallmass.basis import SpectralBasis
from smallmass.limit import LimitSolver
from smallmass.models import (
    ModelSet, Nodal, build_diffusion, friction_preset, reaction_preset,
)
from smallmass.noise import refine, sample_batch, sample_path, zero_path
from smallmass.wave import SimulationDiverged, WaveSolver, _output_indices, g_coeffs


@pytest.fixture(scope="module")
def basis():
    return SpectralBasis(1.0, 16)


def models_for(basis, friction="two_plus_sin", reaction="linear_decay", diffusion="constant", q=1.0):
    return ModelSet(
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
    solver = WaveSolver(basis, lin, mu, scheme="semi_implicit")
    traj = solver.simulate(u0, np.zeros(16), zero_path(dt, dt, 16), n_output=1)
    u, v = traj.u[-1], traj.v[-1]
    a1 = basis.alphas[0]
    v1 = -dt * a1 * mu / ((mu + dt**2 * a1) * (mu + dt))
    assert abs(v[0] - v1) < 1e-15
    assert abs(u[0] - (1.0 + dt * v1)) < 1e-15
    # other modes stay at transform roundoff level
    assert np.max(np.abs(u[1:])) < 1e-15 and np.max(np.abs(v[1:])) < 1e-15
    assert traj.times[-1] == dt


def energies(basis, traj):
    """K = ||u||_H1^2 + mu ||v||_H^2 at every output time."""
    return basis.sobolev_norm(traj.u, 1.0) ** 2 + traj.mu * basis.sobolev_norm(traj.v, 0.0) ** 2


def test_zero_noise_energy_decay_semi_implicit(basis):
    # f == 0, no noise: K = ||u||_H1^2 + mu ||v||_H^2 is non-increasing at
    # every step of the factorized implicit scheme, for every friction preset.
    for friction in ("constant", "two_plus_sin"):
        m = models_for(basis, friction=friction, reaction="zero", diffusion="zero")
        path = zero_path(0.5, 0.01, 16)
        solver = WaveSolver(basis, m, 0.05, scheme="semi_implicit")
        traj = solver.simulate(bump(basis), np.zeros(16), path, n_output=path.n_steps)
        energy = energies(basis, traj)
        assert len(energy) == path.n_steps + 1
        assert np.all(energy[1:] <= energy[:-1] * (1.0 + 1e-12))


def test_zero_noise_energy_decay_eta_form(basis):
    # The staggered eta scheme reconstructs v off-phase by half a step, so K
    # carries an O(dt^2/mu) ripple; the envelope still decays and the run ends
    # far below the initial energy.
    for friction in ("constant", "two_plus_sin"):
        m = models_for(basis, friction=friction, reaction="zero", diffusion="zero")
        path = zero_path(0.5, 1e-3, 16)
        solver = WaveSolver(basis, m, 0.05, scheme="eta_form")
        traj = solver.simulate(bump(basis), np.zeros(16), path, n_output=path.n_steps)
        energy = energies(basis, traj)
        k0 = energy[0]
        assert len(energy) == path.n_steps + 1
        assert np.all(energy[1:] <= energy[:-1] + 2e-3 * k0)
        assert energy[-1] < 0.5 * k0


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
    # The stepper shifts v0 to eta = v0 + g(u0)/mu and takes v0 back as
    # eta - g(u0)/mu, both through the one g(u0) it takes.
    m = models_for(basis)
    u, v = bump(basis), 0.3 * bump(basis)
    run = WaveSolver(basis, m, 0.07).stepper(u, v, zero_path(1e-3, 1e-3, 16))
    shift = g_coeffs(u, basis, m) / 0.07
    assert np.array_equal(run.second, v + shift)
    assert np.array_equal(run.v, (v + shift) - shift)
    assert np.max(np.abs(run.v - v)) < 1e-10


def test_batched_simulation_matches_per_path(basis):
    # Bit for bit, for every wave scheme and both limit forms (with and
    # without the drift): a batch row is the same path run alone.
    m = models_for(basis)
    mu = 0.05
    paths = [sample_path(200 + j, 0.05, 5e-4, 16) for j in range(3)]
    batch = sample_batch(200, 3, 0.05, 5e-4, 16)
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
            for f in ("sup_u_h", "sup_u_h1", "sup_v_h", "sup_energy", "int_u_h1_sq"):
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
    assert (exc.value.step, exc.value.t) == (95, 95.0)


def test_step_policy_warning(basis):
    m = models_for(basis)
    solver = WaveSolver(basis, m, 1e-3)
    p = zero_path(0.01, 1e-3, 16)  # dt = c_stab*mu would need 5e-4
    with pytest.warns(RuntimeWarning):
        solver.simulate(bump(basis), np.zeros(16), p, n_output=2)


def test_max_dt_per_scheme(basis):
    from smallmass.resolvent import OperatorA
    from smallmass.wave import C_STAB, RESOLVENT_FRACTION

    m = models_for(basis)
    # semi_implicit: the mass time scale only, with the shared default c_stab
    assert WaveSolver(basis, m, 0.1, scheme="semi_implicit").max_dt() == C_STAB * 0.1
    assert WaveSolver(basis, m, 0.1, scheme="semi_implicit", c_stab=0.2).max_dt() == 0.2 * 0.1
    # eta_form: 0.9 of the wave CFL 2 sqrt(mu / alpha_N) where that is below
    # c_stab * mu (larger masses), c_stab * mu at small masses
    cfl = 2.0 * np.sqrt(1e-2 / basis.alphas[-1])
    assert 0.9 * cfl < C_STAB * 1e-2
    assert WaveSolver(basis, m, 1e-2).max_dt() == pytest.approx(0.9 * cfl, rel=1e-14)
    assert WaveSolver(basis, m, 1e-3).max_dt() == C_STAB * 1e-3
    # resolvent_implicit: RESOLVENT_FRACTION of lambda_bar, which is below c_stab * mu
    lam_bar = OperatorA(basis, m, mass=1e-3).lambda_bar
    assert RESOLVENT_FRACTION < 1.0 and lam_bar < C_STAB * 1e-3
    bound = WaveSolver(basis, m, 1e-3, scheme="resolvent_implicit").max_dt()
    assert bound == RESOLVENT_FRACTION * lam_bar
    assert WaveSolver(basis, m, 1e-3, scheme="resolvent_implicit", c_stab=0.1).max_dt() == 0.1 * 1e-3


@pytest.mark.parametrize("scheme", ["semi_implicit", "eta_form", "resolvent_implicit"])
def test_simulate_warns_exactly_above_max_dt(basis, scheme):
    import warnings

    m = models_for(basis)
    solver = WaveSolver(basis, m, 1e-3, scheme=scheme)
    bound = solver.max_dt()
    for dt, warns in ((bound, False), (0.5 * bound, False), (1.01 * bound, True)):
        path = zero_path(3 * dt, dt, 16)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solver.simulate(bump(basis), np.zeros(16), path, n_output=3)
        steps = [w for w in caught if "max_dt()" in str(w.message)]
        assert len(steps) == (1 if warns else 0), (scheme, dt)


def test_scheme_validation(basis):
    m = models_for(basis)
    with pytest.raises(ValueError):
        WaveSolver(basis, m, 0.1, scheme="not_a_scheme")
    with pytest.raises(ValueError):
        WaveSolver(basis, m, -0.1)
    # every entry of a mass batch must be positive; NaN compares false both ways
    for mu in (np.nan, [0.1, np.nan], [0.1, 0.0], [0.1, -0.2], [], [[0.1]]):
        with pytest.raises(ValueError, match="mass must be positive"):
            WaveSolver(basis, m, mu)
    path = sample_path(1, 0.01, 1e-3, 16)
    with pytest.raises(ValueError, match="a batch of masses runs on a batch of paths"):
        WaveSolver(basis, m, [0.1, 0.05]).simulate(bump(basis), np.zeros(16), path)


@pytest.mark.parametrize("scheme", ["eta_form", "semi_implicit", "resolvent_implicit"])
def test_mass_batch_rows_equal_their_own_scalar_runs(basis, scheme):
    # A per-row mass takes the same IEEE operations as a scalar one, and the
    # transforms are row-stable, so row k of a mass batch is WaveSolver(mu[k])
    # run alone, bit for bit, under every scheme.
    m = models_for(basis, diffusion="cosine")
    batch = sample_batch(300, 3, 0.01, 2.5e-4, 16)
    masses = [0.2, 0.05, 0.01]
    solver = WaveSolver(basis, m, np.array(masses), scheme=scheme)
    assert solver.max_dt() == WaveSolver(basis, m, min(masses), scheme=scheme).max_dt()
    tb = solver.simulate(bump(basis), np.zeros(16), batch, n_output=8)
    assert tb.u.shape == (9, len(masses), 3, 16) and tb.sup_energy.shape == (len(masses), 3)
    for k, mu in enumerate(masses):
        alone = WaveSolver(basis, m, mu, scheme=scheme)
        tk = alone.simulate(bump(basis), np.zeros(16), batch, n_output=8)
        assert np.array_equal(tb.u[:, k], tk.u), (scheme, mu)
        assert np.array_equal(tb.v[:, k], tk.v), (scheme, mu)
        for f in ("sup_u_h", "sup_u_h1", "sup_v_h", "sup_energy", "int_u_h1_sq"):
            assert np.array_equal(getattr(tb, f)[k], getattr(tk, f)), (scheme, mu, f)


@pytest.mark.parametrize("newton_iters", [1, 3])
def test_eta_step_from_carried_nodal_values_equals_a_fresh_step(basis, newton_iters, monkeypatch):
    # simulate() starts each eta step from u and g(u) at the nodes, kept from
    # recovering v after the step before; they must be the bits a fresh
    # evaluation gives, and the step must be Newton on the carried (u, eta).
    m = models_for(basis)
    mu = 0.05
    solver = WaveSolver(basis, m, mu, newton_iters=newton_iters)
    steps = []

    def spy(u, eta, dt, dbeta, nodal):
        out = WaveSolver._step_eta(solver, u, eta, dt, dbeta, nodal)
        steps.append((u, eta, nodal, out))
        return out

    monkeypatch.setattr(solver, "_advance", spy)
    p = sample_batch(93, 3, 5e-3, 1e-3, 16)
    traj = solver.simulate(bump(basis), 0.2 * bump(basis), p, n_output=p.n_steps)

    def newton_u(u, eta, dt):  # Newton on w + (dt/mu) g(w) = u + dt eta at the nodes
        w = basis.synthesize(u)
        target = w + dt * basis.synthesize(eta)
        for _ in range(newton_iters):
            phi = w + (dt / mu) * m.g_map.forward(w) - target
            w = w - phi / (1.0 + (dt / mu) * m.friction.gamma(Nodal(w)))
        return basis.analyze(w)

    assert len(steps) == p.n_steps
    for k, (u, eta, (state, g_nodal), (u_new, eta_new)) in enumerate(steps):
        assert np.array_equal(u, traj.u[k])
        assert np.array_equal(state.u, basis.synthesize(u))
        assert np.array_equal(g_nodal, m.g_map.forward(state.u))
        assert np.array_equal(u_new, newton_u(u, eta, p.dt))
        assert np.array_equal(traj.u[k + 1], u_new)
        assert np.array_equal(traj.v[k + 1], eta_new - g_coeffs(u_new, basis, m) / mu)
        if k + 1 < p.n_steps:  # the next step starts from the eta this one produced
            assert steps[k + 1][1] is eta_new


@pytest.mark.parametrize("scheme", ["eta_form", "resolvent_implicit"])
def test_eta_schemes_shift_between_v_and_eta_once_per_run(basis, scheme, monkeypatch):
    # Both eta schemes carry eta from step to step: v0 is shifted to eta once,
    # by the g(u0) that also recovers v0, and v is recovered after each step
    # without another shift.  So g is taken once per state of u: before the
    # first step and after each.
    from smallmass import wave

    calls = []
    original = wave._g_nodal

    def spy(u, basis, models):
        calls.append(u.shape)
        return original(u, basis, models)

    monkeypatch.setattr(wave, "_g_nodal", spy)
    solver = WaveSolver(basis, models_for(basis), 0.05, scheme=scheme)
    path = sample_path(94, 0.01, 1e-3, 16)
    assert path.n_steps == 10
    solver.simulate(bump(basis), 0.2 * bump(basis), path, n_output=2)
    assert calls == [(16,)] * (1 + path.n_steps)


def test_sup_trackers_record_every_step(basis):
    m = models_for(basis)
    p = sample_path(77, 0.02, 1e-3, 16)
    traj = WaveSolver(basis, m, 0.05).simulate(bump(basis), np.zeros(16), p, n_output=2)
    # trackers run over every step, so they dominate the coarse output grid
    assert traj.sup_u_h >= np.max(np.sqrt((traj.u**2).sum(axis=-1))) - 1e-12
    assert traj.sup_v_h >= np.max(np.sqrt((traj.v**2).sum(axis=-1))) - 1e-12
    assert traj.int_u_h1_sq > 0.0


def test_default_eta_step_takes_cos_once_per_nodal_state(basis, cos_per_state):
    # With the default presets g(u) = 2u + 1 - cos u and lambda_sigma(u) = cos u
    # share one cos: the step forces at the nodal state whose g recovered v.
    m = models_for(basis, diffusion="cosine")
    solver = WaveSolver(basis, m, 0.05, scheme="eta_form")
    solver.simulate(bump(basis), np.zeros(16), sample_batch(3, 2, 1e-3, 1e-3, 16), n_output=1)
    # the state shifted to eta, which the step starts from, and the state after it
    assert cos_per_state() == [1, 1]


@pytest.mark.parametrize("scheme", ["eta_form", "resolvent_implicit"])
def test_eta_stepper_takes_one_nodal_state_before_its_first_step(basis, scheme, cos_per_state):
    # Shifting v0 to eta and recovering v0 share one nodal state of u0 and one cos.
    m = models_for(basis, diffusion="cosine")
    solver = WaveSolver(basis, m, 0.05, scheme=scheme)
    solver.stepper(bump(basis), np.zeros(16), sample_batch(3, 2, 1e-3, 1e-3, 16))
    assert cos_per_state() == [1]


def test_output_indices_drop_repeats_as_unique_does():
    # The rounded grid never decreases, so dropping each index equal to the one
    # before it is np.unique, also where n_output exceeds n_steps and repeats.
    pairs = [(n, m) for n in range(1, 41) for m in range(1, 101)]
    pairs += [(200, 200), (400, 200), (800, 200), (20000, 200), (199, 200), (3, 1000), (7919, 61)]
    for n_steps, n_output in pairs:
        idx = _output_indices(n_steps, n_output)
        ref = np.unique(np.round(np.linspace(0, n_steps, n_output + 1)).astype(int))
        assert idx.dtype == ref.dtype and np.array_equal(idx, ref), (n_steps, n_output)
