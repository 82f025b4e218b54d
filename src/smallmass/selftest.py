"""Fast closed-form checks runnable from a fresh checkout (`smallmass selftest`).

Each check is a named predicate with an exact or closed-form expectation;
together they cover the basis identities, the coefficient models, noise
determinism, one-step integrator algebra, resolvent algebra, the scalar
Lyapunov solution, and the metric conventions.  Everything runs in well under
a second per check.  Acceptance criterion 7 reads five of these checks by
name (Poincare, heat decay, the drift identity, energy pinching and the
scalar Lyapunov solution), so they have this one implementation.
"""

from __future__ import annotations

import numpy as np

from .basis import SpectralBasis
from .diagnostics import lambda_functional, metric_distance
from .finite_dim import fd_scalar_system, lyapunov_sweep, solve_lyapunov
from .limit import LimitSolver
from .models import (
    AntiderivativeMap,
    ModelSet,
    Nodal,
    build_diffusion,
    combined_drift,
    friction_preset,
    nodal,
    noise_induced_drift,
    reaction_preset,
    stratonovich_correction,
)
from .noise import apply_noise, refine, sample_path, zero_path
from .resolvent import TOL, OperatorA, ResolventError, resolvent_apply, yosida_apply
from .wave import WaveSolver, g_coeffs


def _models(basis, friction="two_plus_sin", reaction="linear_decay", diffusion="cosine", q=1.0):
    return ModelSet(
        friction_preset(friction),
        reaction_preset(reaction),
        build_diffusion(basis, factor=diffusion, q=q),
    )


def _drift_h(u, models):
    """noise_induced_drift at nodal values u, from the model set's coefficients evaluated there."""
    f, d, s = models.friction, models.diffusion, nodal(u)
    return noise_induced_drift(f.gamma(s), f.gamma_prime(s), d.lambda_sigma(s), d.kappa)


def _drift_gap(u, models):
    """max |H + G - combined_drift| at nodal values u: the drift identity's analytic residual."""
    gap = (
        _drift_h(u, models)
        + stratonovich_correction(u, models.friction, models.diffusion)
        - combined_drift(u, models.friction, models.diffusion)
    )
    return np.max(np.abs(gap))


def _pinched(basis, friction, u) -> bool:
    """||u||_H^2 / 2 <= Lambda(u) <= 3 ||u||_H^2 / 2 to 1e-8: 2 + sin x lies in [1, 3]."""
    lam_val = lambda_functional(basis, friction, u)
    h_sq = basis.sobolev_norm(u, 0.0) ** 2
    return 0.5 * 1.0 * h_sq - 1e-8 <= lam_val <= 0.5 * 3.0 * h_sq + 1e-8


def run_selftest() -> list[tuple[str, bool, str]]:
    """Run every check; returns (name, passed, detail) triples."""
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, bool(ok), detail))

    # basis: closed-form Dirichlet spectrum
    b1 = SpectralBasis(1.0, 3)
    check(
        "dirichlet spectrum L=1",
        np.allclose(b1.alphas, [np.pi**2, 4 * np.pi**2, 9 * np.pi**2], rtol=0, atol=1e-12),
    )
    bpi = SpectralBasis(np.pi, 1)
    check(
        "dirichlet spectrum L=pi",
        abs(bpi.alphas[0] - 1.0) < 1e-12
        and abs(bpi.eigenfunction(1, 1.0) - np.sqrt(2 / np.pi) * np.sin(1.0)) < 1e-12,
    )
    b2 = SpectralBasis(2.0, 2)
    check(
        "dirichlet spectrum L=2",
        np.allclose(b2.alphas, [np.pi**2 / 4, np.pi**2], atol=1e-12),
    )

    # basis: norms of e_1 and e_1+e_2 on L=1
    e1 = np.array([1.0, 0.0, 0.0])
    e12 = np.array([1.0, 1.0, 0.0])
    check("||e1||_H = 1", abs(b1.sobolev_norm(e1, 0.0) - 1.0) < 1e-12)
    check("||e1||_H1 = pi", abs(b1.sobolev_norm(e1, 1.0) - np.pi) < 1e-12)
    check(
        "||e1+e2||_Hm1",
        abs(b1.sobolev_norm(e12, -1.0) - np.sqrt(1 / np.pi**2 + 1 / (4 * np.pi**2))) < 1e-12,
    )
    check(
        "poincare equality on mode 1",
        abs(b1.sobolev_norm(e1, 0.0) - b1.sobolev_norm(e1, 1.0) / np.sqrt(b1.alphas[0])) < 1e-14,
    )

    # basis: transforms
    basis = SpectralBasis(1.0, 8)
    bq = SpectralBasis(1.0, 3, 15)  # grid contains x = L/4 (j = 4 of 16)
    at_quarter = bq.synthesize(np.array([0.0, 1.0, 0.0]))[3]
    check(
        "synthesize e2 at L/4",
        abs(at_quarter - np.sqrt(2.0) * np.sin(np.pi / 2)) < 1e-12,
        f"value {at_quarter:.6f}",
    )
    rng = np.random.default_rng(7)
    f = rng.normal(size=8)
    check("analyze o synthesize = id", np.max(np.abs(basis.analyze(basis.synthesize(f)) - f)) < 1e-10)
    check("analyze of zeros", np.all(basis.analyze(np.zeros(basis.n_nodes)) == 0.0))
    check(
        "laplacian on e1+e2 (L=1)",
        np.allclose(
            b1.laplacian(e12), [-np.pi**2, -4 * np.pi**2, 0.0], atol=1e-9
        ),
    )
    check("laplacian of zero", np.all(b1.laplacian(np.zeros(3)) == 0.0))

    # models: antiderivative and inversion
    const = friction_preset("constant", value=2.0)
    gmap_c = AntiderivativeMap(const)
    check("constant friction g", abs(gmap_c.forward(1.7) - 3.4) < 1e-14)
    check("constant friction g inverse", abs(gmap_c.inverse(3.4) - 1.7) < 1e-14)
    tps = friction_preset("two_plus_sin")
    gmap = AntiderivativeMap(tps)
    check("g(2*pi) = 4*pi for 2+sin", abs(gmap.forward(2 * np.pi) - 4 * np.pi) < 1e-12)
    check("g inverse round trip", abs(gmap.inverse(gmap.forward(0.7)) - 0.7) < 1e-10)
    check("g(0) = 0", gmap.forward(0.0) == 0.0)

    # models: drift terms
    models = _models(basis)
    u_nodal = 0.3 * np.sin(basis.x * np.pi)
    const_models = _models(basis, friction="constant")
    h_const = _drift_h(u_nodal, const_models)
    check("H vanishes for constant friction", np.max(np.abs(h_const)) == 0.0)
    zero_diff = _models(basis, diffusion="zero")
    check("H vanishes without noise", np.max(np.abs(_drift_h(u_nodal, zero_diff))) == 0.0)
    check(
        "G vanishes without noise",
        np.max(np.abs(stratonovich_correction(u_nodal, zero_diff.friction, zero_diff.diffusion)))
        == 0.0,
    )
    const_sigma = _models(basis, diffusion="constant")
    hg = _drift_h(u_nodal, const_sigma) + stratonovich_correction(
        u_nodal, const_sigma.friction, const_sigma.diffusion
    )
    check("H+G = 0 for constant sigma factor", np.max(np.abs(hg)) < 1e-14)
    # the package defaults' basis and models, whose rough states come from their own generator
    head = SpectralBasis(1.0, 32, 64)
    head_models = _models(head)
    rng0 = np.random.default_rng(0)
    u_rough = head.synthesize(rng0.normal(size=head.n_modes) / head.wavenumbers)
    check(
        "combined drift identity (analytic)",
        max(_drift_gap(u_nodal, models), _drift_gap(u_rough, head_models)) < 1e-12,
    )
    rs = rng.normal(size=1000) * 3
    bvals = 1.0 / models.friction.gamma(Nodal(models.g_map.inverse(rs)))  # b = 1/gamma(g^-1)
    check(
        "b range [1/gamma1, 1/gamma0]",
        np.all(bvals >= 1 / 3 - 1e-12) and np.all(bvals <= 1.0 + 1e-12),
    )

    # noise: determinism, mode extension, refinement identity
    p1 = sample_path(99, 0.5, 0.01, 4)
    p2 = sample_path(99, 0.5, 0.01, 4)
    check("noise determinism", np.array_equal(p1.increments, p2.increments))
    p8 = sample_path(99, 0.5, 0.01, 8)
    check("mode extension preserves modes", np.array_equal(p8.increments[:4], p1.increments))
    fine = refine(p1)
    coarse_back = fine.increments[:, 0::2] + fine.increments[:, 1::2]
    check("refinement bridge identity", np.allclose(coarse_back, p1.increments, atol=1e-15))
    fine2 = refine(fine)
    back2 = fine2.increments[:, 0::2] + fine2.increments[:, 1::2]
    check("double refinement consistent", np.allclose(back2, fine.increments, atol=1e-15))
    db = np.zeros(basis.n_modes)
    db[0] = 0.37
    forced = apply_noise(np.ones(basis.n_nodes), db, const_sigma.diffusion, basis)
    expect = const_sigma.diffusion.q_spectrum[0] * 0.37
    check("single-mode forcing", abs(forced[0] - expect) < 1e-12 and np.max(np.abs(forced[1:])) < 1e-12)
    zd = apply_noise(np.ones(basis.n_nodes), db, zero_diff.diffusion, basis)
    check("zero factor forces nothing", np.max(np.abs(zd)) == 0.0)

    # wave: one-step closed form for the factorized scheme
    lin = _models(basis, friction="constant", reaction="zero", diffusion="zero")
    lin_models_value = 1.0
    mu, dt = 0.05, 1e-3
    u0 = np.zeros(basis.n_modes)
    u0[0] = 1.0
    v0 = np.zeros(basis.n_modes)
    solver = WaveSolver(basis, lin, mu, scheme="semi_implicit")
    st = solver.simulate(u0, v0, zero_path(dt, dt, basis.n_modes), n_output=1)
    u1, v1 = st.u[-1], st.v[-1]
    a1 = basis.alphas[0]
    v_expect = -dt * a1 * mu / ((mu + dt**2 * a1) * (mu + dt * lin_models_value))
    check(
        "one semi-implicit step closed form",
        abs(v1[0] - v_expect) < 1e-14 and abs(u1[0] - (1.0 + dt * v_expect)) < 1e-14,
        f"v1 = {v1[0]:.8e}",
    )
    zp = zero_path(0.02, 1e-3, basis.n_modes)
    traj = WaveSolver(basis, lin, 0.01, scheme="eta_form").simulate(
        np.zeros(basis.n_modes), np.zeros(basis.n_modes), zp, n_output=10
    )
    check("zero data stays zero", np.max(np.abs(traj.u)) == 0.0 and np.max(np.abs(traj.v)) == 0.0)
    t2 = WaveSolver(basis, models, 0.05, scheme="eta_form").simulate(
        u0, v0, sample_path(5, 0.02, 1e-3, basis.n_modes), n_output=10
    )
    t3 = WaveSolver(basis, models, 0.05, scheme="eta_form").simulate(
        u0, v0, sample_path(5, 0.02, 1e-3, basis.n_modes), n_output=10
    )
    check("wave determinism", np.array_equal(t2.u, t3.u) and np.array_equal(t2.v, t3.v))

    # limit: heat decay, transforms
    heat = _models(basis, friction="constant", reaction="zero", diffusion="zero")
    heat_value = 1.0
    zp_heat = zero_path(0.1, 1e-4, basis.n_modes)
    ltraj = LimitSolver(basis, heat, form="u").simulate(u0, zp_heat, n_output=10)
    exact = np.exp(-basis.alphas[0] * 0.1 / heat_value)
    check(
        "heat kernel decay to 1e-3",
        abs(ltraj.coeffs[-1][0] - exact) < 1e-3,
        f"got {ltraj.coeffs[-1][0]:.6f}, exact {exact:.6f}",
    )
    u_shift = 0.4 * u0 + 0.1
    rho = g_coeffs(u_shift, basis, const_models)
    check(
        "transform is multiplication by gamma for constant friction",
        np.allclose(rho, const_models.friction.gamma0 * u_shift, atol=1e-12),
    )
    w = rng.uniform(-2.0, 2.0, size=basis.n_nodes)
    back_nodal = models.g_map.inverse(models.g_map.forward(w))
    check(
        "nodal g round trip on random field",
        np.max(np.abs(back_nodal - w)) < 10 * models.g_map.tol_inv,
        f"max error {np.max(np.abs(back_nodal - w)):.2e}",
    )
    zfield = g_coeffs(np.zeros(basis.n_modes), basis, models)
    check("g(0 field) = 0 field", np.max(np.abs(zfield)) < 1e-14)

    # resolvent: closed linear form, round trip, Yosida identity
    lin_g = _models(basis, friction="constant", reaction="zero", diffusion="zero")
    op_lin = OperatorA(basis, lin_g)
    lam = 0.05
    h = (u0.copy(), np.zeros(basis.n_modes))
    z = resolvent_apply(op_lin, h, lam)
    u_expect = 1.0 / (1.0 + lam * 1.0 + lam**2 * basis.alphas[0])
    check(
        "linear resolvent closed form",
        abs(z[0][0] - u_expect) < 1e-9,
        f"got {z[0][0]:.8f}, expected {u_expect:.8f}",
    )
    op = OperatorA(basis, models)
    z0 = (
        rng.normal(size=basis.n_modes) / basis.wavenumbers**2,
        rng.normal(size=basis.n_modes) / basis.wavenumbers,
    )
    az = op.apply(z0)
    h_round = (z0[0] - lam * az[0], z0[1] - lam * az[1])
    z_rec = resolvent_apply(op, h_round, lam)
    err = op.h_norm((z_rec[0] - z0[0], z_rec[1] - z0[1]))
    check("resolvent round trip", err < 10 * TOL, f"error {err:.2e}")
    y_quot = yosida_apply(op_lin, z0, lam)
    jz = resolvent_apply(op_lin, z0, lam)
    y_aj = op_lin.apply(jz)
    ident = op_lin.h_norm((y_quot[0] - y_aj[0], y_quot[1] - y_aj[1]))
    check("yosida identity (linear)", ident < 1e-7, f"deviation {ident:.2e}")
    z_eq = (np.zeros(basis.n_modes), np.zeros(basis.n_modes))
    y0 = yosida_apply(op_lin, z_eq, lam)
    check("yosida vanishes at equilibrium", op_lin.h_norm(y0) < 1e-9)
    try:
        resolvent_apply(op, h, op.lambda_bar * 1.5)
        check("oversized lambda rejected", False)
    except ResolventError:
        check("oversized lambda rejected", True)

    # finite dimension
    j_scalar = solve_lyapunov(np.array([[2.0]]), np.array([[1.5**2]]))
    check("scalar Lyapunov closed form", abs(j_scalar[0, 0] - 1.5**2 / 4.0) < 1e-12)
    j_diag = solve_lyapunov(np.diag([1.0, 4.0]), np.eye(2))
    check(
        "diagonal Lyapunov closed form",
        np.allclose(j_diag, np.diag([0.5, 0.125]), atol=1e-12),
    )
    const_sys = fd_scalar_system(friction="constant")
    check("constant friction has no drift", abs(lyapunov_sweep(const_sys, [0.3])["S"][0]) < 1e-10)

    # diagnostics: metric conventions and energy bounds
    times = np.linspace(0, 0.5, 6)
    traj_a = np.zeros((6, 3))
    rep0 = metric_distance(times, traj_a, traj_a, b1)
    plain0 = rep0.sup_hm1 + rep0.l2_h
    check("identical trajectories at distance 0", plain0 == 0.0 and rep0.d_x1 == 0.0)
    eps = 0.25
    traj_b = np.zeros((6, 3))
    traj_b[:, 0] = eps
    rep = metric_distance(times, traj_a, traj_b, b1)
    check("constant-e1 offset sup-Hm1 = eps/pi", abs(rep.sup_hm1 - eps / np.pi) < 1e-12)
    huge = metric_distance(times, traj_a, traj_b + 1e6, b1)
    check("weighted metric capped at 1", huge.d_x1 <= 1.0 + 1e-12 and huge.d_x2 <= 1.0 + 1e-12)
    u_rand = rng.normal(size=basis.n_modes)
    rough = (rng0.normal(size=head.n_modes) * rng0.uniform(0.1, 2.0) for _ in range(100))
    check(
        "friction energy pinching",
        _pinched(basis, models.friction, u_rand)
        and all(_pinched(head, head_models.friction, u) for u in rough),
    )
    return checks


def format_results(checks: list[tuple[str, bool, str]]) -> str:
    lines = []
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        lines.append(f"[{status}] {name}{suffix}")
    n_fail = sum(1 for _, ok, _ in checks if not ok)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines)
