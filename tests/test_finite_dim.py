import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_lyapunov as scipy_lyapunov

from smallmass.finite_dim import (
    FD_N_OUTPUT,
    FDNoise,
    FDSystem,
    LyapunovError,
    _drift_S_batch,
    compare_endpoints,
    coupled_steppers,
    drift_S,
    drive_fd,
    fd_scalar_system,
    lyapunov_residual,
    simulate_fd,
    simulate_fd_limit,
    solve_lyapunov,
)
from smallmass.models import Nodal
from smallmass.wave import SimulationDiverged


def test_scalar_lyapunov_closed_form():
    j = solve_lyapunov(np.array([[2.0]]), np.array([[2.25]]))
    assert abs(j[0, 0] - 2.25 / 4.0) < 1e-12


def test_diagonal_lyapunov_closed_form():
    j = solve_lyapunov(np.diag([1.0, 4.0]), np.eye(2))
    assert np.allclose(j, np.diag([0.5, 0.125]), atol=1e-13)


def test_lyapunov_against_independent_solver():
    # independent route: scipy's Bartels-Stewart solver for a X + X a^T = q
    g = np.array([[2.0, 1.0], [0.0, 3.0]])
    c = np.eye(2)
    ours = solve_lyapunov(g, c)
    ref = scipy_lyapunov(g, c)
    assert np.allclose(ours, ref, atol=1e-12)
    assert lyapunov_residual(g, ours, c) <= 1e-10
    # symmetric PSD right-hand side gives a symmetric PSD solution
    rng = np.random.default_rng(2)
    for _ in range(25):
        d = rng.integers(1, 6)
        a = rng.normal(size=(d, d))
        g = a @ a.T + np.eye(d) * (0.5 + rng.uniform())  # elliptic
        s = rng.normal(size=(d, d))
        c = s @ s.T
        j = solve_lyapunov(g, c)
        assert np.allclose(j, j.T, atol=1e-9)
        assert np.min(np.linalg.eigvalsh((j + j.T) / 2)) > -1e-9
        assert lyapunov_residual(g, j, c) <= 1e-10


def test_lyapunov_rejects_bad_spectrum():
    with pytest.raises(LyapunovError):
        solve_lyapunov(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2))
    with pytest.raises(ValueError):
        solve_lyapunov(np.eye(9), np.eye(9))  # above the dense-solve cap


def test_scalar_drift_closed_form():
    # d = 1, gamma = 2 + sin x, sigma = s: S(x) = -gamma' s^2 / (2 gamma^3)
    system = fd_scalar_system(sigma_value=1.5)
    for xv in (-1.2, 0.0, 0.7, 2.3):
        s = drift_S(system, xv)[0]
        exact = -np.cos(xv) * 1.5**2 / (2.0 * (2.0 + np.sin(xv)) ** 3)
        assert abs(s - exact) < 1e-8


def test_constant_friction_no_drift():
    system = fd_scalar_system(friction="constant")
    assert abs(drift_S(system, 0.4)[0]) < 1e-10


@pytest.mark.parametrize("friction", ["two_plus_sin", "constant"])
def test_batched_scalar_S_matches_the_pointwise_solve(friction):
    # The limit step's closed form -gamma'/gamma^2 * sigma^2/(2 gamma) against
    # drift_S's Lyapunov solve and central-difference Jacobian at every point.
    system = fd_scalar_system(friction=friction, sigma_value=1.3)
    x = np.linspace(-3.0, 3.0, 61)
    batched = _drift_S_batch(system, x, system.friction.gamma(Nodal(x)))
    pointwise = np.concatenate([drift_S(system, xi) for xi in x])
    assert batched.shape == (61,)
    assert np.max(np.abs(batched - pointwise)) <= 1e-8
    if friction == "constant":
        assert np.array_equal(batched, np.zeros_like(x))
    else:
        assert np.min(np.abs(batched)) > 0.0


def test_scalar_preset_uses_the_friction_registry():
    from smallmass.models import AntiderivativeMap, friction_preset

    x = np.linspace(-3.0, 3.0, 13)
    for name, model in (
        ("two_plus_sin", friction_preset("two_plus_sin")),
        ("constant", friction_preset("constant", value=2.0)),
    ):
        friction = fd_scalar_system(friction=name, sigma_value=1.5).friction
        assert friction.name == model.name
        assert (friction.gamma0, friction.gamma1) == (model.gamma0, model.gamma1)
        assert np.array_equal(friction.gamma(Nodal(x)), model.gamma(Nodal(x)))
        assert np.array_equal(friction.gamma_prime(Nodal(x)), model.gamma_prime(Nodal(x)))
        # the G of the transformed integrator is the preset's closed form, unchanged
        assert np.array_equal(AntiderivativeMap(friction).forward(x), model.g_closed(Nodal(x)))
        system = fd_scalar_system(friction=name, sigma_value=1.5)
        assert system.b(x) == 0.0 and system.sigma(x) == 1.5
    # the same bits as the formulas the preset was written with
    assert np.array_equal(fd_scalar_system().friction.gamma(Nodal(x)), 2.0 + np.sin(x))
    assert np.array_equal(fd_scalar_system("constant").friction.gamma(Nodal(x)), np.full(13, 2.0))
    for bad in ("bell", "nope"):  # "bell" is a registry preset, not an fd one
        with pytest.raises(ValueError, match="unknown scalar friction"):
            fd_scalar_system(friction=bad)


def test_noise_determinism_and_prefix_stability():
    a = FDNoise(seed=5, dt=0.01, n_steps=3, n_paths=6)
    b = FDNoise(seed=5, dt=0.01, n_steps=3, n_paths=6)
    assert a.increments(1).shape == (6,)
    assert np.array_equal(a.increments(1), b.increments(1))
    wide = FDNoise(seed=5, dt=0.01, n_steps=3, n_paths=9)
    assert np.allclose(wide.increments(1)[:6], a.increments(1))


def test_noise_increments_equal_a_fresh_generator_per_step():
    # A run re-keys one generator per step; every step must still draw what a
    # Philox built on key (seed, k) draws, whatever steps were drawn before.
    noise = FDNoise(seed=2**64 + 7, dt=0.04, n_steps=50, n_paths=5)
    gen = np.random.Generator(np.random.Philox())
    for k in (3, 0, 41, 3, 17, 1, 0):
        key = np.array([7, k], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key)).normal(0.0, np.sqrt(0.04), 5)
        assert np.array_equal(noise.increments(k, gen), fresh)
        assert np.array_equal(noise.increments(k), fresh)


def test_zero_noise_relaxation():
    # sigma == 0, b == 0: the inertial system relaxes to a constant, the limit
    # stays put.
    zero_sigma = dataclasses.replace(fd_scalar_system(), sigma=lambda x: 0.0)
    noise = FDNoise(seed=0, dt=1e-4, n_steps=2000, n_paths=3)
    inert = simulate_fd(zero_sigma, 1e-3, noise, 0.5, 2.0, n_output=10)
    lim = simulate_fd_limit(zero_sigma, noise, 0.5, n_output=10)
    v_effective = np.abs(np.diff(inert.x[-2:], axis=0))
    assert np.max(v_effective) < 1e-5  # velocity has relaxed away
    assert np.allclose(lim.x[-1], 0.5, atol=1e-12)


def test_simulation_determinism():
    system = fd_scalar_system()
    noise = FDNoise(seed=11, dt=1e-4, n_steps=500, n_paths=16)
    a = simulate_fd(system, 1e-2, noise, 0.0, 0.0, n_output=5)
    b = simulate_fd(system, 1e-2, noise, 0.0, 0.0, n_output=5)
    assert np.array_equal(a.x, b.x)


def test_eta_transform_matches_plain_integrator():
    system = fd_scalar_system()
    dt, n, mu = 2e-5, 2000, 1e-2
    noise = FDNoise(seed=3, dt=dt, n_steps=n, n_paths=32)
    plain = simulate_fd(system, mu, noise, 0.0, 0.0, n_output=4)
    eta = simulate_fd(system, mu, noise, 0.0, 0.0, n_output=4, eta_transform=True)
    gap = np.abs(plain.x[-1] - eta.x[-1])
    spread = np.abs(plain.x[-1]).max() + 1.0
    assert np.max(gap) < 0.05 * spread


def test_coupled_comparison_statistics():
    system = fd_scalar_system()
    mu, dt, P = 2e-3, 1e-4, 400
    noise = FDNoise(seed=21, dt=dt, n_steps=5000, n_paths=P)
    inert = simulate_fd(system, mu, noise, 0.0, 0.0, n_output=4, eta_transform=True)
    lim = simulate_fd_limit(system, noise, 0.0, with_S=True, n_output=4)
    rep = compare_endpoints(inert.x[-1], lim.x[-1])
    assert rep.n_paths == P
    # coupling keeps the per-path endpoint gap far below the path spread
    assert abs(rep.diff_mean) < 0.1 * np.abs(inert.x[-1]).std()
    assert rep.diff_se < 0.05


def _read_table(path) -> dict:
    """A CSV artifact's columns by name, each cell read back with float()."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    names, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    return {n: np.array([float(r[k]) for r in rows]) for k, n in enumerate(names)}


@pytest.mark.parametrize("eta_transform", [False, True])
def test_fd_converge_streams_the_moments_of_the_trajectories(tmp_path, eta_transform):
    # 1001 paths: numpy's pairwise sums run whole 128-blocks and a remainder.
    from smallmass import runner
    from smallmass.config import validate_config
    from smallmass.noise import _n_steps

    raw = {"seed": 2007, "fd": {"paths": 1001, "t_final": 0.01, "eta_transform": eta_transform}}
    cfg = validate_config(raw)
    fd = cfg["fd"]
    result = runner.run_fd_converge(cfg, tmp_path)

    system = fd_scalar_system(friction=fd["friction"], sigma_value=fd["sigma"])
    n_steps = _n_steps(fd["t_final"], fd["dt"])
    fdnoise = FDNoise(seed=cfg["seed"], dt=fd["dt"], n_steps=n_steps, n_paths=1001)
    args = (system, fd["mu"], fdnoise, fd["x0"], fd["v0"], eta_transform)
    traj_times, outs = drive_fd(coupled_steppers(*args), fdnoise, FD_N_OUTPUT)
    trajs = [x for (x,) in outs]
    steppers = coupled_steppers(*args)
    times, moments = drive_fd([runner._PathMoments(s) for s in steppers], fdnoise, FD_N_OUTPUT)
    assert np.array_equal(times, traj_times)
    for x, stepper, (mean, se) in zip(trajs, steppers, moments):
        assert np.array_equal(mean, x.mean(axis=1))
        assert np.array_equal(se, x.std(axis=1, ddof=1) / np.sqrt(1001))
        assert np.array_equal(stepper.x, x[-1])

    table = _read_table(tmp_path / "fd_means.csv")
    assert np.array_equal(table["t"], traj_times)
    for name, x in zip(("inertial", "limit", "limit_noS"), trajs):
        assert np.array_equal(table[f"mean_{name}"], x.mean(axis=1))
        se = x.std(axis=1, ddof=1) / np.sqrt(1001)
        assert np.array_equal(table[f"se_{name}"], se)
    xa = trajs[0][-1]
    for side, x in (("with_S", trajs[1]), ("without_S", trajs[2])):
        xb = x[-1]
        ref = compare_endpoints(xa, xb)
        expected = {
            "mean_diff": [ref.diff_mean],
            "se": [ref.diff_se],
            "z": ref.z_score,
            "z_combined": ref.z_combined,
        }
        assert result["report"][side] == expected
        d = xa - xb
        assert ref.z_score == abs(d.mean()) / (d.std(ddof=1) / np.sqrt(1001))
        se_combined = np.sqrt(xa.var(ddof=1) / 1001 + xb.var(ddof=1) / 1001)
        assert ref.z_combined == abs(d.mean()) / se_combined


def _scalar_preset(system):
    """gamma, gamma' and G of a scalar preset, written out for one state."""
    if system.name == "scalar_constant":
        return (lambda x: 2.0), (lambda x: 0.0), (lambda x: 2.0 * x)
    return (lambda x: 2.0 + np.sin(x)), np.cos, (lambda x: 2.0 * x + 1.0 - np.cos(x))


def _reference_paths(noise, n_output, step):
    """Run step(state, dw) path by path over the scalar draws; keep the first state entry."""
    idx = np.unique(np.round(np.linspace(0, noise.n_steps, n_output + 1)).astype(int))
    dws = [noise.increments(k) for k in range(noise.n_steps)]
    x = np.empty((len(idx), noise.n_paths))
    for i in range(noise.n_paths):
        state, pos = step(None, None), 1
        x[0, i] = state[0]
        for k in range(noise.n_steps):
            state = step(state, dws[k][i])
            if k + 1 == idx[pos]:
                x[pos, i], pos = state[0], pos + 1
    return idx * noise.dt, x


def _reference_limit(system, noise, x0, with_S, n_output):
    """The limit step as a hand-written loop over one scalar state, one draw per step.

    b = 0 and a constant sigma, with every operation in the order of the
    stepper: drift = b / gamma (+ S), forcing = (1 / gamma) sigma dw.
    """
    gamma, gamma_prime, _ = _scalar_preset(system)
    dt, sig = noise.dt, system.sigma(0.0)

    def step(state, dw):
        if state is None:
            return (np.float64(x0),)
        (x,) = state
        g = gamma(x)
        ginv = 1.0 / g
        drift = ginv * 0.0
        if with_S:
            drift = drift + (-gamma_prime(x) / g**2) * ((sig * sig) / (2.0 * g))
        return (x + dt * drift + ginv * sig * dw,)

    return _reference_paths(noise, n_output, step)


def _reference_inertial(system, mu, noise, x0, v0, eta_transform, n_output):
    """The inertial step, in (x, v) or in (x, p = mu v + G(x)), as a hand-written scalar loop."""
    gamma, _, antideriv = _scalar_preset(system)
    dt, sig = noise.dt, system.sigma(0.0)

    def step(state, dw):
        if state is None:
            x, v = np.float64(x0), np.float64(v0)
            return (x, mu * v + antideriv(x)) if eta_transform else (x, v)
        x, w = state
        if eta_transform:  # w is p
            x_new = x + dt * (w - antideriv(x)) / mu / (1.0 + dt * gamma(x) / mu)
            return x_new, w + dt * 0.0 + sig * dw
        acc = 0.0 - gamma(x) * w  # w is v
        return x + dt * w, w + (dt / mu) * acc + sig * dw / mu

    return _reference_paths(noise, n_output, step)


@pytest.mark.parametrize("friction", ["two_plus_sin", "constant"])
@pytest.mark.parametrize("eta_transform", [False, True])
def test_inertial_steppers_equal_a_scalar_hand_loop(eta_transform, friction):
    # The stepper is elementwise over paths: path by path, it is the scalar loop, bit for bit.
    system = fd_scalar_system(friction=friction, sigma_value=1.2)
    noise = FDNoise(seed=8, dt=1e-3, n_steps=150, n_paths=5)
    run = simulate_fd(system, 1e-2, noise, 0.3, 0.1, n_output=6, eta_transform=eta_transform)
    times, x = _reference_inertial(system, 1e-2, noise, 0.3, 0.1, eta_transform, 6)
    assert np.array_equal(run.times, times)
    assert np.array_equal(run.x, x)


@pytest.mark.parametrize("with_S", [True, False])
def test_scalar_limit_matches_inverse_reference(with_S):
    system = fd_scalar_system()
    noise = FDNoise(seed=8, dt=1e-3, n_steps=200, n_paths=64)
    lim = simulate_fd_limit(system, noise, 0.3, with_S=with_S, n_output=10)
    times, x = _reference_limit(system, noise, 0.3, with_S, n_output=10)
    assert np.array_equal(lim.times, times)
    assert np.array_equal(lim.x, x)


def _assert_coupled_equals_separate(system, mu, noise, x0, eta_transform):
    """The coupled steppers in one drive_fd give each separate run's bits; returns their x."""
    steppers = coupled_steppers(system, mu, noise, x0, 0.0, eta_transform)
    times, outs = drive_fd(steppers, noise, 7)
    separate = (
        simulate_fd(system, mu, noise, x0, 0.0, n_output=7, eta_transform=eta_transform),
        simulate_fd_limit(system, noise, x0, with_S=True, n_output=7),
        simulate_fd_limit(system, noise, x0, with_S=False, n_output=7),
    )
    for (x,), traj in zip(outs, separate):
        assert np.array_equal(times, traj.times)
        assert np.array_equal(x, traj.x)
    assert separate[0].mu == mu and separate[1].mu is None
    return [x for (x,) in outs]


@pytest.mark.parametrize("eta_transform", [False, True])
def test_coupled_run_matches_separate_runs(eta_transform):
    noise = FDNoise(seed=13, dt=1e-4, n_steps=300, n_paths=64)
    _assert_coupled_equals_separate(fd_scalar_system(), 1e-2, noise, 0.1, eta_transform)


@pytest.mark.parametrize("eta_transform", [False, True])
def test_tabulated_friction_runs_the_coupled_route(eta_transform):
    # A table has neither a closed G nor a closed gamma': the models layer
    # supplies both (quadrature in AntiderivativeMap, a central difference of
    # the interpolant for gamma'), and the fd route runs on them as given.
    from smallmass.models import friction_from_table

    r = np.linspace(-4.0, 4.0, 161)
    friction = friction_from_table(r, 2.0 + np.sin(r))
    assert friction.g_closed is None
    system = FDSystem(b=lambda x: 0.0, friction=friction, sigma=lambda x: 1.2, name="tabulated")
    x = np.linspace(-3.0, 3.0, 61)
    S = _drift_S_batch(system, x, friction.gamma(Nodal(x)))
    assert np.all(np.isfinite(S)) and np.max(np.abs(S)) > 0.01
    noise = FDNoise(seed=13, dt=1e-3, n_steps=120, n_paths=32)
    inertial, limit_S, limit_noS = _assert_coupled_equals_separate(
        system, 1e-2, noise, 0.3, eta_transform
    )
    assert not np.array_equal(limit_S, limit_noS)
    assert np.all(np.isfinite(inertial))


def test_divergence_raises_simulation_diverged():
    # b(x) = 1e200 x with constant friction 2 and no noise: the limit state is
    # 5e197 after one step and overflows at step 2; the inertial state first
    # overflows at step 4 (x = 1, 1, 1e196, inf).
    system = dataclasses.replace(
        fd_scalar_system(friction="constant"),
        b=lambda x: 1e200 * x,
        sigma=lambda x: 0.0,
    )
    noise = FDNoise(seed=0, dt=1e-2, n_steps=10, n_paths=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationDiverged) as single_limit:
            simulate_fd_limit(system, noise, 1.0, n_output=5)
        with pytest.raises(SimulationDiverged) as single_inertial:
            simulate_fd(system, 1.0, noise, 1.0, 0.0, n_output=5)
        with pytest.raises(SimulationDiverged) as coupled:
            drive_fd(coupled_steppers(system, 1.0, noise, 1.0, 0.0), noise, 5)
    assert single_limit.value.step == 2 and single_limit.value.t == pytest.approx(0.02)
    assert single_inertial.value.step == 4 and single_inertial.value.t == pytest.approx(0.04)
    assert coupled.value.step == 2
    assert isinstance(coupled.value, RuntimeError)  # callers catching RuntimeError still work


def test_fd_converge_ok_is_the_coupled_verdict(tmp_path):
    # The benchmark's fd_mc workload runs this config, and bench/references.json
    # gates fd.ok on its seeds: ok must stay the coupled verdict.  A clause on
    # the combined z without S (criterion 3 judges it) would turn it false here.
    from smallmass import runner
    from smallmass.config import validate_config

    cfg = validate_config({"seed": 2000, "fd": {"t_final": 0.03}})
    result = runner.run_fd_converge(cfg, tmp_path)
    without_s = result["report"]["without_S"]
    assert result["ok"] is True
    assert without_s["z"] > 3.0 and without_s["z_combined"] < 3.0
