import numpy as np
import pytest

from smallmass.basis import SpectralBasis
from smallmass.models import (
    FrictionModel,
    ModelSet,
    Nodal,
    ReactionModel,
    build_diffusion,
    friction_preset,
    reaction_preset,
)
from smallmass import resolvent
from smallmass.noise import zero_path
from smallmass.resolvent import (
    MAX_ITER,
    TOL,
    OperatorA,
    ResolventError,
    audit_operator,
    resolvent_apply,
    sample_states,
    yosida_apply,
)
from smallmass.wave import WaveSolver


@pytest.fixture(scope="module")
def basis():
    return SpectralBasis(1.0, 16)


def models_for(basis, friction="two_plus_sin", reaction="linear_decay", diffusion="zero"):
    return ModelSet(
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


def test_operator_rejects_a_mass_that_is_not_positive(basis):
    # Such a mass gave a lambda_bar of 0, -0.344, NaN or -0.0003, and every
    # solve then failed on its lam; the operator names the mass as WaveSolver does.
    m = models_for(basis)
    for mass in (0.0, -1.0, np.nan, [0.01, -0.001]):
        with pytest.raises(ValueError, match="mass must be positive"):
            OperatorA(basis, m, mass=mass)


def _lone_reference(op, h1, h2, lam):
    """A lone solve that stacks g(u) and f(u) into a fresh array every sweep.

    Returns (u, eta, iterations, residual); the rows it solves contract.
    """
    b, g, f, mu = op.basis, op.models.g_map.forward, op.models.reaction.f, op.mass
    c_f = lam * lam / mu
    const, c_g, denom = h1 + lam * h2, -(lam / mu), 1.0 + c_f * b.alphas
    u, polish = h1, False
    for it in range(1, MAX_ITER + 1):
        s = Nodal(b.synthesize(u))
        g_u, f_u = b.analyze(np.stack((g(s), f(s))))
        u_next = (c_g * g_u + c_f * f_u + const) / denom
        res = float(b.sobolev_norm(u_next - u, 0.0))
        u = u_next
        if polish:
            break
        polish = res <= TOL
    eta = h2 + (lam / mu) * (b.laplacian(u) + b.analyze(f(Nodal(b.synthesize(u)))))
    return u, eta, it, res


def test_lone_solves_give_the_bits_of_a_fresh_sweep(basis):
    # A lone solve writes g(u) and f(u) into one array for all its sweeps.
    # Solves on two operators at two lams, interleaved, and a reaction whose
    # f returns its own nodal array, each give the bits of the same solve
    # with a fresh g/f stack per sweep.
    m = models_for(basis)
    echo = ModelSet(
        m.friction,
        ReactionModel(f=lambda s: s.u, lipschitz_const=1.0),
        build_diffusion(basis, factor="zero"),
    )
    ops = (OperatorA(basis, m), OperatorA(basis, m, mass=0.5), OperatorA(basis, echo))
    h1, h2 = sample_states(basis, 2, seed=9)
    for k in range(2):
        for op in ops:
            for lam in (0.05, 0.02):
                (u, eta), info = resolvent_apply(op, (h1[k], h2[k]), lam, return_info=True)
                ref = _lone_reference(op, h1[k], h2[k], lam)
                assert np.array_equal(u, ref[0]) and np.array_equal(eta, ref[1])
                assert (info.iterations, info.residual) == ref[2:]


def _solves_rows_alone(op, h1, h2, lam):
    """The infos of a stacked solve, after checking each row against its lone solve, bit for bit."""
    (u, eta), infos = resolvent_apply(op, (h1, h2), lam, return_info=True)
    n = h1.shape[-1]
    rows = h1.size // n
    assert u.shape == eta.shape == h1.shape and len(infos) == rows
    for j, (a, b) in enumerate(zip(h1.reshape(rows, n), h2.reshape(rows, n))):
        (uj, etaj), info = resolvent_apply(op, (a, b), lam, return_info=True)
        assert np.array_equal(u.reshape(rows, n)[j], uj)
        assert np.array_equal(eta.reshape(rows, n)[j], etaj)
        assert infos[j].iterations == info.iterations
        assert infos[j].residual == info.residual
        assert np.array_equal(infos[j].contraction_ratios, info.contraction_ratios)
    return infos


def test_stacked_resolvent_solves_rows_alone(op, basis):
    # The rows iterate in lock step, but every row stops on its own residual,
    # so a stacked solve equals the rows solved one at a time, bit for bit,
    # info included, whatever the leading axes.
    rng = np.random.default_rng(4)
    h1 = rng.normal(size=(2, 3, 16)) / np.arange(1, 17) ** 2
    h2 = rng.normal(size=(2, 3, 16)) / np.arange(1, 17)
    h1[0, 1] *= 1e-3  # converges in fewer iterations than its neighbours
    h1[1, 0], h2[1, 0] = 0.0, 0.0  # zero residual from the first sweep
    h1[1, 2] *= 40.0  # more iterations
    infos = _solves_rows_alone(op, h1, h2, 0.05)
    assert len({i.iterations for i in infos}) > 2


def test_stacked_resolvent_solves_rows_alone_at_production_shape():
    # single_path's resolvent scheme: N = 32 on 64 nodes, mass 1e-4 and lam
    # 2.5e-5, where the contraction factor is about 0.75 and a solve takes about
    # 47 sweeps.  The lone rows iterate on floats, the stack in lock step.
    basis = SpectralBasis(1.0, 32)
    op = OperatorA(basis, models_for(basis), mass=1e-4)
    h1, h2 = sample_states(basis, 64, seed=1)
    infos = _solves_rows_alone(op, h1, h2, 2.5e-5)
    assert 40 <= np.median([i.iterations for i in infos]) <= 55
    assert 0.7 < max(float(i.contraction_ratios.max()) for i in infos) < 0.8


def test_mass_column_solves_each_row_at_its_own_mass(basis):
    # An (n_mu, P, N) stack under OperatorA(mass=column) carries each row's
    # own coefficients through the lock step, so every (mass, path) row
    # equals its lone solve under a scalar-mass OperatorA, bit for bit.  At
    # lam = lambda_bar(1e-4) / 2 the rows finish at different sweeps, so the
    # coefficient rows are compacted as they leave.
    m = models_for(basis)
    masses = [1e-2, 1e-3, 1e-4]
    column = OperatorA(basis, m, mass=np.array(masses).reshape(-1, 1, 1))
    alone = [OperatorA(basis, m, mass=mu) for mu in masses]
    assert column.lambda_bar == alone[-1].lambda_bar
    lam = alone[-1].lambda_bar / 2
    h1, h2 = (x.reshape(3, 4, 16) for x in sample_states(basis, 12, seed=3))
    (u, eta), infos = resolvent_apply(column, (h1, h2), lam, return_info=True)
    for k, op in enumerate(alone):
        for p in range(4):
            (uk, etak), info = resolvent_apply(op, (h1[k, p], h2[k, p]), lam, return_info=True)
            assert np.array_equal(u[k, p], uk) and np.array_equal(eta[k, p], etak), (k, p)
            row = infos[4 * k + p]
            assert (row.iterations, row.residual) == (info.iterations, info.residual), (k, p)
            assert np.array_equal(row.contraction_ratios, info.contraction_ratios), (k, p)
    assert len({i.iterations for i in infos}) > 2


def _lying_friction_models(basis):
    # Declares gamma in [0.01, 0.01] while g(u) = 50 u, so lambda_bar admits
    # a lam at which the fixed point expands every nonzero row.
    friction = FrictionModel(
        gamma=lambda s: np.full_like(s.u, 50.0),
        gamma_prime=lambda s: np.zeros_like(s.u),
        gamma0=0.01,
        gamma1=0.01,
        g_closed=lambda s: 50.0 * s.u,
    )
    return ModelSet(
        friction, reaction_preset("linear_decay"), build_diffusion(basis, factor="zero")
    )


def test_stacked_resolvent_failure_returns_no_row(op, basis):
    # One bad row in a stack raises ResolventError naming lam: the other rows
    # converged, but no truncated stack is returned.
    rng = np.random.default_rng(6)
    h1 = rng.normal(size=(4, 16)) / np.arange(1, 17) ** 2
    h2 = rng.normal(size=(4, 16)) / np.arange(1, 17)
    h1[2, 5] = np.nan
    with pytest.raises(ResolventError, match=r"did not converge at lam = 0\.05 within 200") as stacked:
        resolvent_apply(op, (h1, h2), 0.05)
    with pytest.raises(ResolventError) as lone:  # the NaN row alone
        resolvent_apply(op, (h1[2], h2[2]), 0.05)
    assert str(lone.value) == str(stacked.value)
    lying = OperatorA(basis, _lying_friction_models(basis))
    lam = 0.9 * lying.lambda_bar
    stack = (np.zeros((3, 16)), np.zeros((3, 16)))
    stack[0][1, 0] = 1e-3  # the zero rows converge on the first sweeps
    with pytest.raises(ResolventError, match=f"not contracting at lam = {lam}"):
        resolvent_apply(lying, stack, lam)
    assert resolvent_apply(lying, (stack[0][0], stack[1][0]), lam)[0].shape == (16,)


@pytest.mark.parametrize("contracting, sweeps_to_raise", [(0.0, 4), (0.1, 6)])
def test_non_contraction_raises_on_the_third_increase(
    basis, monkeypatch, contracting, sweeps_to_raise
):
    # Mode 1 expands, mode 16 contracts: with mode 16 at 0 the residual rises
    # on sweeps 2, 3 and 4; at 0.1 it falls until sweep 3 and rises on
    # sweeps 4, 5 and 6.  The loop synthesizes once per sweep.
    lying = OperatorA(basis, _lying_friction_models(basis))
    lam = 0.9 * lying.lambda_bar
    sweeps = []
    synthesize = basis.synthesize
    monkeypatch.setattr(basis, "synthesize", lambda x: sweeps.append(x) or synthesize(x))
    h = (np.zeros(16), np.zeros(16))
    h[0][0], h[0][15] = 1e-6, contracting
    with pytest.raises(ResolventError, match=f"not contracting at lam = {lam}"):
        resolvent_apply(lying, h, lam)
    assert len(sweeps) == sweeps_to_raise


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
        assert err < 10 * TOL


def test_contraction_factor_bound(op):
    # measured contraction factor, the largest median iterate ratio over four
    # probes, stays below the Lipschitz-constant bound c * lam (1 + lam) with
    # c = max(gamma1, lip_f).
    n = op.basis.n_modes
    c = max(op.models.friction.gamma1, op.models.reaction.lipschitz_const)
    for lam in (0.05, 0.1):
        rng = np.random.default_rng(4)
        probes = [(rng.normal(size=n) / np.arange(1, n + 1), rng.normal(size=n)) for _ in range(4)]
        h1, h2 = (np.stack(part) for part in zip(*probes))
        _, infos = resolvent_apply(op, (h1, h2), lam, return_info=True)
        measured = max(float(np.median(info.contraction_ratios)) for info in infos)
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
    for z in zip(*sample_states(op.basis, 5, seed=23, decay=3.0)):
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


def _audit_reference(op, n_pairs, lam, ladder, n_smooth, seed):
    # The audit pair by pair on lone resolvent_apply calls, states drawn one at a time.
    def draw(n, seed, decay):
        rng = np.random.default_rng(seed)
        i = np.arange(1, 17, dtype=float)
        return [(rng.normal(size=16) * i**-decay, rng.normal(size=16) * i**-decay) for _ in range(n)]

    def diff(a, b):
        return (a[0] - b[0], a[1] - b[1])

    kd, pad = op.kappa_d, 100.0 * TOL
    lip, ykd = 1.0 / (1.0 - lam * kd), kd / (1.0 - lam * kd)
    states = draw(2 * n_pairs, seed, 1.5)
    worst = dict.fromkeys(("diss_A", "diss_yosida", "lipschitz", "yosida_norm"), -np.inf)
    ident = 0.0
    for z1, z2 in zip(states[0::2], states[1::2]):
        dz = diff(z1, z2)
        nd2 = float(op.h_inner(dz, dz))
        a1 = op.apply(z1)
        j1, j2 = resolvent_apply(op, z1, lam), resolvent_apply(op, z2, lam)
        y1 = ((j1[0] - z1[0]) / lam, (j1[1] - z1[1]) / lam)
        y2 = ((j2[0] - z2[0]) / lam, (j2[1] - z2[1]) / lam)
        margins = {
            "diss_A": float(op.h_inner(diff(a1, op.apply(z2)), dz)) - kd * nd2,
            "diss_yosida": float(op.h_inner(diff(y1, y2), dz)) - ykd * nd2 - pad,
            "lipschitz": float(op.h_norm(diff(j1, j2))) - lip * np.sqrt(nd2) - pad,
            "yosida_norm": float(op.h_norm(y1)) - lip * float(op.h_norm(a1)) - pad,
        }
        worst = {k: max(worst[k], margins[k]) for k in worst}
        ident = max(ident, abs(float(op.h_norm(diff(j1, z1))) - lam * float(op.h_norm(y1))))
    errors = []
    for z in draw(n_smooth, seed + 1, 3.0):
        az = op.apply(z)
        errors.append([float(op.h_norm(diff(yosida_apply(op, z, lv), az))) for lv in ladder])
    monotone = all(e2 < e1 + pad for errs in errors for e1, e2 in zip(errs, errs[1:]))
    return worst, ident, errors, monotone


@pytest.mark.parametrize(
    "n_pairs, n_smooth, seed", [(1, 1, 0), (7, 3, 3), (25, 5, 2024), (70, 2, 11)]
)
def test_audit_equals_a_pair_by_pair_reference(op, monkeypatch, n_pairs, n_smooth, seed):
    # The audit draws its states as one block and folds its margins over
    # blocks of pairs; it must give the bits of the states drawn one at a time
    # and audited pair by pair on lone solves.  70 pairs cross two block
    # boundaries and end on a part block.  The worst margins show only the
    # worst pair, so the states the audit applies and solves are checked too.
    ladder = (0.1, 0.05, 0.02, 0.01)
    worst, ident, errors, monotone = _audit_reference(op, n_pairs, 0.05, ladder, n_smooth, seed)
    applied, solved, apply = [], [], op.apply
    monkeypatch.setattr(op, "apply", lambda z: applied.append(z[0]) or apply(z))
    monkeypatch.setattr(
        resolvent, "resolvent_apply", lambda o, h, lam: solved.append(h[0]) or resolvent_apply(o, h, lam)
    )
    result = audit_operator(op, n_pairs=n_pairs, lam=0.05, lam_ladder=ladder, n_smooth=n_smooth, seed=seed)
    states = sample_states(op.basis, 2 * n_pairs, seed=seed)[0]
    for called in (applied, solved):  # each state once, one row per call, in order
        assert np.array_equal(called[: 2 * n_pairs], states)
    assert result["worst_margins"] == worst
    assert result["identity_error"] == ident
    assert result["ladder_errors"] == errors
    flags = {k: v <= 0.0 for k, v in worst.items()}
    assert result["flags"] == {**flags, "yosida_converges_monotone": monotone}


def test_audit_of_no_samples_is_rejected(op):
    # With no pairs or no smooth samples every worst margin stays -inf and
    # every flag would pass without checking anything.
    for n_pairs, n_smooth, name in ((0, 5, "n_pairs"), (5, 0, "n_smooth"), (-1, 5, "n_pairs")):
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            audit_operator(op, n_pairs=n_pairs, n_smooth=n_smooth)
    # a ladder of fewer than 2 distinct values passes the monotone check comparing nothing
    for ladder in ((), (0.05,), (0.05, 0.05)):
        with pytest.raises(ValueError, match="lam_ladder needs at least 2 distinct values"):
            audit_operator(op, n_pairs=2, lam_ladder=ladder, n_smooth=2)


def test_implicit_step_matches_exponential_decay(basis):
    # no noise, g(u) = u, f = 0, mu = 1, single mode: du = (eta - u)dt,
    # deta = Lap u dt; backward Euler tracks the damped oscillation to O(dt).
    m = models_for(basis, friction="constant", reaction="zero")
    solver = WaveSolver(basis, m, 1.0, scheme="resolvent_implicit")
    dt = 1e-3
    u = np.zeros(16)
    u[0] = 1.0
    traj = solver.simulate(u, np.zeros(16), zero_path(0.2, dt, 16), n_output=1)
    # exact solution of u'' = -a1 u - u' from rest
    a1 = basis.alphas[0]
    om = np.sqrt(a1 - 0.25)
    t = 0.2
    exact = np.exp(-0.5 * t) * (np.cos(om * t) + 0.5 / om * np.sin(om * t))
    assert traj.times[-1] == pytest.approx(t, rel=1e-12)
    assert abs(traj.u[-1][0] - exact) < 30 * dt


def test_implicit_step_agrees_with_semi_implicit(basis):
    m = models_for(basis)  # nonlinear friction, linear reaction, no noise
    resolvent_solver = WaveSolver(basis, m, 1.0, scheme="resolvent_implicit")
    dt = 1e-3
    u0 = basis.analyze(4.0 * basis.x * (1 - basis.x))
    solver = WaveSolver(basis, m, 1.0, scheme="semi_implicit")
    path = zero_path(0.1, dt, 16)
    t_res = resolvent_solver.simulate(u0, np.zeros(16), path, n_output=1)
    t_semi = solver.simulate(u0, np.zeros(16), path, n_output=1)
    gap = basis.sobolev_norm(t_res.u[-1] - t_semi.u[-1], 0.0)
    assert gap < 50 * dt
    assert gap > 0  # genuinely different schemes


def test_dt_above_lambda_bar_rejected(basis):
    m = models_for(basis)
    solver = WaveSolver(basis, m, 1.0, scheme="resolvent_implicit")
    dt = OperatorA(basis, m, mass=1.0).lambda_bar * 1.1
    with pytest.warns(RuntimeWarning, match="max_dt"), pytest.raises(ResolventError):
        solver.simulate(np.zeros(16), np.zeros(16), zero_path(dt, dt, 16), n_output=1)


def test_resolvent_scheme_through_wave_solver(basis):
    m = models_for(basis)
    solver = WaveSolver(basis, m, 1.0, scheme="resolvent_implicit")
    u0 = basis.analyze(4.0 * basis.x * (1 - basis.x))
    traj = solver.simulate(u0, np.zeros(16), zero_path(0.05, 1e-3, 16), n_output=5)
    assert np.all(np.isfinite(traj.u))
    assert traj.sup_u_h1 <= basis.sobolev_norm(u0, 1.0) + 1e-9
