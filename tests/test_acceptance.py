"""Acceptance suite: one test per criterion, each at its stated tolerance.

The coupled mass-ladder study (the expensive part) runs once as a module
fixture and feeds criteria 1, 2 and 5.  Every test prints one PASS/FAIL line
through conftest.record_criterion; the figures are also echoed in the pytest
terminal summary.
"""

import numpy as np
import pytest

from conftest import record_criterion
from smallmass import noise
from smallmass.config import make_basis, make_initial, make_models, validate_config
from smallmass.diagnostics import (
    convergence_report,
    distance_rows,
    lambda_functional,
    plain_parts,
    scaling_audit,
)
from smallmass.finite_dim import (
    drift_S,
    fd_scalar_system,
    lyapunov_residual,
    point_coefficients,
    solve_lyapunov,
)
from smallmass.limit import LimitSolver
from smallmass.models import (
    combined_drift,
    noise_induced_drift,
    stratonovich_correction,
)
from smallmass.resolvent import OperatorA, audit_operator
from smallmass.runner import drift_necessity, run_fd_converge, run_ladder_study
from smallmass.wave import WaveSolver


@pytest.fixture(scope="module")
def headline():
    """Validated headline configuration: the package defaults."""
    return validate_config({})


@pytest.fixture(scope="module")
def setup(headline):
    basis = make_basis(headline)
    models = make_models(headline, basis)
    u0, v0 = make_initial(headline, basis)
    return basis, models, u0, v0


@pytest.fixture(scope="module")
def study(headline):
    """Coupled 64-path mass-ladder study with the drift ablation (criteria 1, 2 and 5 share it).

    Two jobs give the same bits as one (test_parallel_jobs_reproduce_sequential).
    """
    return run_ladder_study({**headline, "jobs": 2}, ablate_drift=True)


def test_criterion_1_small_mass_convergence(headline, study):
    report = convergence_report(
        study.ladder,
        study.per_path_distance,
        ratio_max=headline["converge"]["ratio_max"],
        allowed_inversions=headline["converge"]["allowed_inversions"],
    )
    ratio = report.mean[-1] / report.mean[0]
    detail = (
        f"distances {['%.4f' % d for d in report.mean]}, "
        f"ratio d(0.01)/d(0.2) = {ratio:.3f} (< 0.4), "
        f"inversions = {report.flags['inversions']}"
    )
    ok = report.flags["monotone"] and report.flags["ratio"]
    record_criterion(1, "small-mass convergence along the mass ladder", ok, detail)
    assert report.flags["monotone"], detail
    assert report.flags["ratio"], detail


def test_criterion_2_drift_necessity(headline, study):
    """Dropping H from the limit must move it measurably away from the wave.

    The theorem gives convergence without a rate, so no effect size at a
    fixed mass is asserted: the distances are judged on coupled paths by
    interval separation, the paired excess and the ratio's rise down the
    ladder (see `drift_necessity_report`).  The CLI's drift-ablation runs the
    same `runner.drift_necessity` on the same study.
    """
    mu = headline["ablation"]["mu"]
    rep = drift_necessity(headline, study)
    detail = (
        f"mean with-drift {rep.mean_with:.4f}+-{rep.se_with:.4f}, "
        f"without {rep.mean_without:.4f}+-{rep.se_without:.4f}, "
        f"ratio {rep.ratio:.3f} (<= 1 + D_H/d_with = {rep.ratio_bound:.3f}, D_H = {rep.d_h:.4f}), "
        f"paired excess {rep.excess_mean:.4f}+-{rep.excess_se:.5f}, z = {rep.z:.1f} (>= 3), "
        f"ratios down the ladder {['%.3f' % r for r in rep.ratios]} (must rise strictly), "
        f"flags {rep.flags}"
    )
    record_criterion(2, f"noise-induced drift necessity at mu = {mu}", rep.ok, detail)
    assert rep.flags["separated"], detail
    assert rep.flags["paired"], detail
    assert rep.flags["rising"], detail


@pytest.mark.parametrize("q", [1.0, 0.75])
def test_resolution_audit_at_the_ablation_mass(q):
    """Criteria 1 and 2 do not depend on the truncation N or the step dt.

    On 16 coupled paths at the ablation mass, the wave and the limit with H
    move by less than D_H / 10 when N doubles (a 2N-mode path's first N rows
    are the N-mode path) or dt halves (the refined path is its Brownian
    bridge), where D_H is the mean distance between the limits with and
    without H on the same paths.  The horizon is half the headline's, to fit
    the run in a few seconds; D_H grows with it faster than the gaps do.
    It holds for the default noise spectrum lam_i = i^-1 and for i^-0.75,
    whose kappa converges more slowly in N.
    """
    short = {"time": {"t_final": 0.25, "n_output": 100}, "model": {"q_exponent": q}}
    coarse = validate_config(short)
    fine_n = validate_config({**short, "domain": {"n_modes": 64, "n_nodes": 128}})
    mu, paths = coarse["ablation"]["mu"], 16

    def runs(cfg, halve_dt=False, drifts=(True,)):
        basis = make_basis(cfg)
        models = make_models(cfg, basis)
        u0, v0 = make_initial(cfg, basis)
        t = cfg["time"]
        batch = noise.sample_batch(cfg["seed"], paths, t["t_final"], t["dt"], basis.n_modes)
        if halve_dt:
            batch = noise.refine(batch)
        wave = WaveSolver(basis, models, mu).simulate(u0, v0, batch, n_output=t["n_output"])
        limits = [
            LimitSolver(basis, models, with_drift=h).simulate(u0, batch, n_output=t["n_output"])
            for h in drifts
        ]
        return basis, wave.times, [wave.u] + [lim.coeffs for lim in limits]

    def distance(times, a, b, basis):
        """Mean plain distance over the paths, the coarser run padded with zero modes."""
        n = basis.n_modes
        a, b = (np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, n - x.shape[-1])]) for x in (a, b))
        sup_hm1, l2_h = plain_parts(times, *distance_rows(a, b, basis))
        return float(np.mean(sup_hm1 + l2_h))

    basis, times, (wave, limit, limit_no_h) = runs(coarse, drifts=(True, False))
    basis_n, times_n, (wave_n, limit_n) = runs(fine_n)
    _, times_dt, (wave_dt, limit_dt) = runs(coarse, halve_dt=True)
    assert np.array_equal(times_n, times) and np.allclose(times_dt, times, rtol=0, atol=1e-12)
    d_h = distance(times, limit, limit_no_h, basis)
    gaps = {
        "wave, N = 32 vs 64": distance(times, wave, wave_n, basis_n),
        "limit, N = 32 vs 64": distance(times, limit, limit_n, basis_n),
        "wave, dt vs dt/2": distance(times, wave, wave_dt, basis),
        "limit, dt vs dt/2": distance(times, limit, limit_dt, basis),
    }
    detail = f"q = {q}, D_H = {d_h:.4g}; " + ", ".join(f"{k}: {v:.3g}" for k, v in gaps.items())
    assert all(gap < d_h / 10 for gap in gaps.values()), detail


def test_criterion_3_finite_dimensional_drift(tmp_path):
    # fd-converge's run: 10,000 coupled paths at mu = 1e-3 to t = 1, the
    # inertial run and the limits with and without S in lock step on one draw per step.
    cfg = validate_config({"seed": 42, "fd": {"dt": 5e-5, "eta_transform": True}})
    report = run_fd_converge(cfg, tmp_path)["report"]
    system = fd_scalar_system(sigma_value=1.0)
    with_s, without_s = report["with_S"], report["without_S"]
    z_with, z_with_coupled = with_s["z_combined"], with_s["z"]
    z_no, z_no_coupled = without_s["z_combined"], without_s["z"]

    # Lyapunov residual on every solve along the visited range, plus the
    # pipeline-vs-closed-form drift identity.
    worst_resid = 0.0
    worst_drift = 0.0
    for xv in np.linspace(-1.5, 1.5, 61):
        g, rhs = point_coefficients(system, xv)
        j = solve_lyapunov(g, rhs)
        worst_resid = max(worst_resid, lyapunov_residual(g, j, rhs))
        closed = -np.cos(xv) / (2.0 * (2.0 + np.sin(xv)) ** 3)
        worst_drift = max(worst_drift, abs(drift_S(system, xv)[0] - closed))

    ok = z_with <= 3.0 and z_no > 3.0 and worst_resid <= 1e-10 and z_with_coupled <= 3.0
    detail = (
        f"z with drift {z_with:.2f} (coupled {z_with_coupled:.2f}, <= 3), "
        f"z without {z_no:.2f} (coupled {z_no_coupled:.1f}, > 3), "
        f"max Lyapunov residual {worst_resid:.1e}, drift formula gap {worst_drift:.1e}"
    )
    record_criterion(3, "finite-dimensional drift at Monte Carlo precision", ok, detail)
    assert z_with <= 3.0, detail
    assert z_with_coupled <= 3.0, detail
    assert z_no > 3.0, detail
    assert worst_resid <= 1e-10, detail
    assert worst_drift <= 1e-8, detail


def test_criterion_4_resolvent_suite(setup):
    basis, models, _, _ = setup
    op = OperatorA(basis, models)
    result = audit_operator(
        op,
        n_pairs=1000,
        lam=0.05,
        lam_ladder=(0.1, 0.05, 0.02, 0.01),
        n_smooth=20,
        seed=2024,
    )
    flags = result["flags"]
    ok = all(flags.values())
    detail = (
        f"kappa_d = {result['kappa_d']:.4f} (calibrated), "
        + ", ".join(f"{k}={v}" for k, v in flags.items())
    )
    record_criterion(4, "resolvent and Yosida inequality suite", ok, detail)
    assert ok, detail


def test_criterion_5_scaling_audits(study):
    audit = scaling_audit(study.ladder, study.norms)
    ok = all(audit.flags.values())
    detail = (
        f"energy slope {audit.slope_energy:.3f} (>= -0.05), "
        f"velocity decay exponent {audit.slope_velocity:.3f} (>= 0.2), "
        f"displacement spread {100 * audit.spread_displacement:.1f}% (< 25%)"
    )
    record_criterion(5, "mass-scaling audits along the ladder", ok, detail)
    assert audit.flags["energy_bounded"], detail
    assert audit.flags["velocity_decay"], detail
    assert audit.flags["displacement_flat"], detail


def test_criterion_6_dual_form_consistency(setup):
    basis, models, _, _ = setup
    u0 = 2.0 * make_initial(validate_config({}), basis)[0]
    rho0 = basis.analyze(models.g_map.forward(basis.synthesize(u0)))
    t_final, dt0, n_paths = 0.256, 4e-3, 12

    def sup_gap(batch):
        ut = LimitSolver(basis, models, form="u").simulate(u0, batch, n_output=50)
        rt = LimitSolver(basis, models, form="rho").simulate(rho0, batch, n_output=50)
        gu = basis.analyze(models.g_map.forward(basis.synthesize(ut.coeffs)))
        return np.sqrt(((gu - rt.coeffs) ** 2).sum(axis=-1)).max(axis=0)

    coarse = noise.sample_batch(12345, n_paths, t_final, dt0, basis.n_modes)
    fine = noise.refine(coarse)
    d1 = sup_gap(coarse)
    d2 = sup_gap(fine)
    ratio = d1.mean() / d2.mean()
    ok = 1.6 <= ratio <= 2.6
    detail = f"gap {d1.mean():.5f} -> {d2.mean():.5f} when dt halves, ratio {ratio:.2f} in [1.6, 2.6]"
    record_criterion(6, "dual-form consistency under step halving", ok, detail)
    assert ok, detail


def test_criterion_7_exact_identities(setup):
    basis, models, _, _ = setup
    checks = []

    # Poincare equality on the first mode
    e1 = np.zeros(basis.n_modes)
    e1[0] = 1.7
    poincare = abs(
        basis.sobolev_norm(e1, 0.0) - basis.sobolev_norm(e1, 1.0) / np.sqrt(basis.alphas[0])
    )
    checks.append(("poincare", poincare < 1e-13))

    # heat-kernel decay matched to 1e-3
    from smallmass.models import build_diffusion, build_model_set, friction_preset, reaction_preset

    heat = build_model_set(
        basis,
        friction_preset("constant"),
        reaction_preset("zero"),
        build_diffusion(basis, factor="zero"),
    )
    u0 = np.zeros(basis.n_modes)
    u0[0] = 1.0
    traj = LimitSolver(basis, heat, form="u").simulate(
        u0, noise.zero_path(0.1, 1e-4, basis.n_modes), n_output=4
    )
    heat_err = abs(traj.coeffs[-1][0] - np.exp(-basis.alphas[0] * 0.1))
    checks.append(("heat_decay", heat_err < 1e-3))

    # drift identity with analytic derivatives
    rng = np.random.default_rng(0)
    u_nodal = basis.synthesize(rng.normal(size=basis.n_modes) / np.arange(1, basis.n_modes + 1))
    ident = np.max(
        np.abs(
            noise_induced_drift(
                models.friction.gamma(u_nodal),
                models.friction.gamma_prime(u_nodal),
                models.diffusion.lambda_sigma(u_nodal),
                models.diffusion.kappa,
            )
            + stratonovich_correction(u_nodal, models.friction, models.diffusion)
            - combined_drift(u_nodal, models.friction, models.diffusion)
        )
    )
    checks.append(("drift_identity", ident < 1e-6))

    # friction-energy pinching on random fields
    lam_ok = True
    for _ in range(100):
        u = rng.normal(size=basis.n_modes) * rng.uniform(0.1, 2.0)
        lam = lambda_functional(basis, models.friction, u)
        h2 = basis.sobolev_norm(u, 0.0) ** 2
        lam_ok = lam_ok and (0.5 * 1.0 * h2 - 1e-8 <= lam <= 0.5 * 3.0 * h2 + 1e-8)
    checks.append(("energy_pinching", lam_ok))

    # scalar Lyapunov closed form to 1e-12
    j = solve_lyapunov(np.array([[1.7]]), np.array([[0.81]]))
    checks.append(("scalar_lyapunov", abs(j[0, 0] - 0.81 / 3.4) < 1e-12))

    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks)
    record_criterion(7, "exact unit-scale identities", ok, detail)
    assert ok, detail
