import numpy as np
import pytest

from smallmass.basis import DomainSpec, build_basis
from smallmass.models import build_diffusion, build_model_set, friction_preset, reaction_preset
from smallmass.noise import zero_path
from smallmass.resolvent import (
    OperatorA,
    ResolventError,
    audit_operator,
    implicit_step_via_resolvent,
    measure_contraction,
    resolvent_apply,
    sample_states,
    yosida_apply,
)
from smallmass.wave import WaveSolver, WaveState


@pytest.fixture(scope="module")
def basis():
    return build_basis(DomainSpec(1.0, 16))


def models_for(basis, friction="two_plus_sin", reaction="linear_decay", diffusion="zero"):
    return build_model_set(
        basis,
        friction_preset(friction),
        reaction_preset(reaction),
        build_diffusion(basis, factor=diffusion),
    )


@pytest.fixture(scope="module")
def op(basis):
    return OperatorA(basis, models_for(basis))


def test_linear_resolvent_closed_form(basis):
    # g(u) = gamma0 u, f = 0: the fixed point solves u(1 + lam g0 + lam^2 a1) = h1.
    m = models_for(basis, friction="constant", reaction="zero")
    o = OperatorA(basis, m)
    lam = 0.05
    h1 = np.zeros(16)
    h1[0] = 1.0
    z = resolvent_apply(o, (h1, np.zeros(16)), lam)
    expected = 1.0 / (1.0 + lam + lam**2 * basis.alphas[0])
    assert abs(z[0][0] - expected) < 1e-9
    # eta = h2 + lam (Lap u + f(u))
    assert abs(z[1][0] - lam * (-basis.alphas[0]) * expected) < 1e-8


def test_stacked_resolvent_solves_rows_alone(op, basis):
    # Every row stops on its own residual, so a stacked solve equals the rows
    # solved one at a time, bit for bit.
    rng = np.random.default_rng(4)
    h1 = rng.normal(size=(3, 16)) / np.arange(1, 17) ** 2
    h2 = rng.normal(size=(3, 16)) / np.arange(1, 17)
    h1[1] *= 1e-3  # converges in fewer iterations than its neighbours
    (u, eta), infos = resolvent_apply(op, (h1, h2), 0.05, return_info=True)
    assert len(infos) == 3
    for j in range(3):
        (uj, etaj), info = resolvent_apply(op, (h1[j], h2[j]), 0.05, return_info=True)
        assert np.array_equal(u[j], uj) and np.array_equal(eta[j], etaj)
        assert infos[j].iterations == info.iterations
    assert len({i.iterations for i in infos}) > 1


def test_iteration_cap_must_be_positive(op):
    with pytest.raises(ValueError, match="max_iter"):
        resolvent_apply(op, (np.ones(16), np.zeros(16)), 0.05, max_iter=0)


def test_resolvent_round_trip(op, basis):
    rng = np.random.default_rng(8)
    lam = 0.05
    for _ in range(5):
        z = (
            rng.normal(size=16) / np.arange(1, 17) ** 2,
            rng.normal(size=16) / np.arange(1, 17),
        )
        az = op.apply(z)
        h = (z[0] - lam * az[0], z[1] - lam * az[1])
        z_rec = resolvent_apply(op, h, lam)
        err = op.h_norm((z_rec[0] - z[0], z_rec[1] - z[1]))
        assert err < 10 * op.tol


def test_contraction_factor_bound(op):
    # measured contraction factor stays below the Lipschitz-constant bound
    # c * lam (1 + lam) with c = max(gamma1, lip_f).
    for lam in (0.05, 0.1):
        measured = measure_contraction(op, lam, seed=4)
        c = max(op.models.friction.gamma1, op.models.reaction.lipschitz_const)
        assert 0.0 < measured <= c * lam * (1.0 + lam) + 1e-9


def test_lambda_range_enforced(op):
    h = (np.zeros(16), np.zeros(16))
    with pytest.raises(ResolventError):
        resolvent_apply(op, h, op.lambda_bar * 1.01)
    with pytest.raises(ResolventError):
        resolvent_apply(op, h, 0.0)


def test_yosida_identity_and_equilibrium(basis):
    m = models_for(basis, friction="constant", reaction="zero")
    o = OperatorA(basis, m)
    lam = 0.05
    rng = np.random.default_rng(10)
    z = (rng.normal(size=16) / np.arange(1, 17) ** 2, rng.normal(size=16) / np.arange(1, 17))
    # difference quotient vs A(J_lam(z))
    y1 = yosida_apply(o, z, lam)
    jz = resolvent_apply(o, z, lam)
    y2 = o.apply(jz)
    assert o.h_norm((y1[0] - y2[0], y1[1] - y2[1])) < 1e-7
    # A(0) = 0 for this preset, so the Yosida approximant vanishes there
    zero = (np.zeros(16), np.zeros(16))
    assert o.h_norm(yosida_apply(o, zero, lam)) < 1e-9


def test_quasi_dissipativity_sampled(op):
    rng = np.random.default_rng(17)
    kd = op.kappa_d
    for _ in range(200):
        z1 = (rng.normal(size=16) / np.arange(1, 17), rng.normal(size=16))
        z2 = (rng.normal(size=16) / np.arange(1, 17), rng.normal(size=16))
        dz = (z1[0] - z2[0], z1[1] - z2[1])
        a1, a2 = op.apply(z1), op.apply(z2)
        da = (a1[0] - a2[0], a1[1] - a2[1])
        assert op.h_inner(da, dz) <= kd * op.h_inner(dz, dz) + 1e-10


def test_yosida_ladder_monotone(op):
    ladder = (0.1, 0.05, 0.02, 0.01)
    for z in sample_states(op.basis, 5, seed=23, decay=3.0):
        az = op.apply(z)
        errs = []
        for lam in ladder:
            y = yosida_apply(op, z, lam)
            errs.append(op.h_norm((y[0] - az[0], y[1] - az[1])))
        assert all(b < a for a, b in zip(errs, errs[1:]))


def test_audit_runs_and_passes(op):
    result = audit_operator(op, n_pairs=60, n_smooth=5, seed=3)
    assert all(result["flags"].values()), result
    assert result["identity_error"] < 1e-8  # ||J z - z|| = lam ||A^lam z|| definitional
    assert "calibrated" in result["note"]


def test_implicit_step_matches_exponential_decay(basis):
    # no noise, g(u) = u, f = 0, mu = 1, single mode: du = (eta - u)dt,
    # deta = Lap u dt; backward Euler tracks the damped oscillation to O(dt).
    m = models_for(basis, friction="constant", reaction="zero")
    o = OperatorA(basis, m)
    dt = 1e-3
    u = np.zeros(16)
    u[0] = 1.0
    state = WaveState(u=u, v=np.zeros(16), mu=1.0)
    for _ in range(200):
        state = implicit_step_via_resolvent(o, state, dt)
    # exact solution of u'' = -a1 u - u' from rest
    a1 = basis.alphas[0]
    om = np.sqrt(a1 - 0.25)
    t = 0.2
    exact = np.exp(-0.5 * t) * (np.cos(om * t) + 0.5 / om * np.sin(om * t))
    assert abs(state.u[0] - exact) < 30 * dt


def test_implicit_step_agrees_with_semi_implicit(basis):
    m = models_for(basis)  # nonlinear friction, linear reaction, no noise
    o = OperatorA(basis, m)
    dt = 1e-3
    u0 = basis.analyze(4.0 * basis.x * (1 - basis.x))
    s_res = WaveState(u=u0.copy(), v=np.zeros(16), mu=1.0)
    solver = WaveSolver(basis, m, 1.0, scheme="semi_implicit")
    s_semi = WaveState(u=u0.copy(), v=np.zeros(16), mu=1.0)
    for _ in range(100):
        s_res = implicit_step_via_resolvent(o, s_res, dt)
        s_semi = solver.step(s_semi, dt)
    gap = basis.sobolev_norm(s_res.u - s_semi.u, 0.0)
    assert gap < 50 * dt
    assert gap > 0  # genuinely different schemes


def test_dt_above_lambda_bar_rejected(basis):
    m = models_for(basis)
    o = OperatorA(basis, m)
    state = WaveState(u=np.zeros(16), v=np.zeros(16), mu=1.0)
    with pytest.raises(ResolventError):
        implicit_step_via_resolvent(o, state, o.lambda_bar * 1.1)


def test_resolvent_scheme_through_wave_solver(basis):
    m = models_for(basis)
    solver = WaveSolver(basis, m, 1.0, scheme="resolvent_implicit")
    u0 = basis.analyze(4.0 * basis.x * (1 - basis.x))
    traj = solver.simulate(u0, np.zeros(16), zero_path(0.05, 1e-3, 16), n_output=5)
    assert np.all(np.isfinite(traj.u))
    assert traj.sup_u_h1 <= basis.sobolev_norm(u0, 1.0) + 1e-9
