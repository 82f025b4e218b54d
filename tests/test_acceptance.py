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
from smallmass.diagnostics import convergence_report, distance_rows, plain_parts, scaling_audit
from smallmass.finite_dim import fd_scalar_system, lyapunov_sweep
from smallmass.limit import LimitSolver
from smallmass.resolvent import OperatorA, audit_operator
from smallmass.runner import drift_necessity, run_fd_converge, run_ladder_study
from smallmass.selftest import run_selftest
from smallmass.wave import WaveSolver, g_coeffs


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


def test_criterion_2_fails_with_twice_the_drift(headline, monkeypatch):
    """Negative control: the judge of criterion 2 says no to a limit with 2 H.

    The limit's H is doubled where the u-step takes it, and the ablated
    study runs in this process (jobs = 1) so that the patch reaches it.
    """
    import smallmass.limit

    real = smallmass.limit.noise_induced_drift
    monkeypatch.setattr(smallmass.limit, "noise_induced_drift", lambda *a: 2.0 * real(*a))
    cfg = {**headline, "jobs": 1}
    rep = drift_necessity(cfg, run_ladder_study(cfg, ablate_drift=True))
    detail = f"z = {rep.z:.2f}, ratios {['%.3f' % r for r in rep.ratios]}, flags {rep.flags}"
    assert not rep.flags["separated"], detail
    assert not rep.flags["paired"], detail
    assert not rep.flags["rising"], detail


def test_semi_implicit_steps_longer_than_the_mass_land_nearer_the_limit_without_h():
    """Negative control of the step policy: semi_implicit bounded only by c_stab * mu.

    At c_stab = 1e6 the step at mu = 5e-4 is the coarse dt = 1e-3, twice the
    mass, and the wave sits nearer the limit without H (paired excess
    d_no - d_with at most -3 paired SE); at c_stab = 0.5 (a step of at most
    mu / 2) it sits nearer the limit with H (at least +3 paired SE).
    """
    short = {
        "wave": {"scheme": "semi_implicit"},
        "time": {"dt": 1e-3, "t_final": 0.25},
        "paths": 32,
        "seed": 12345,
        "mu_ladder": [1e-3, 5e-4],
        "ablation": {"mu": 5e-4},
    }
    z, detail = {}, []
    for c_stab in (1e6, 0.5):
        cfg = validate_config({**short, "time": {**short["time"], "c_stab": c_stab}})
        rep = drift_necessity(cfg, run_ladder_study(cfg, ablate_drift=True))
        z[c_stab] = rep.z
        detail.append(
            f"c_stab {c_stab:g}: excess {rep.excess_mean:.5f}+-{rep.excess_se:.5f}, z = {rep.z:.1f}"
        )
    detail = "; ".join(detail)
    assert z[1e6] <= -3.0, detail
    assert z[0.5] >= 3.0, detail


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
    sweep = lyapunov_sweep(system, np.linspace(-1.5, 1.5, 61))
    closed = -np.cos(sweep["x"]) / (2.0 * (2.0 + np.sin(sweep["x"])) ** 3)
    worst_resid = float(np.max(sweep["residual"]))
    worst_drift = float(np.max(np.abs(sweep["S"] - closed)))

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


def test_criterion_3_fails_with_twice_the_drift(tmp_path, monkeypatch):
    """Negative control: criterion 3's with-S rule says no to a scalar limit with 2 S.

    The fd limit steps the SPDE drift H at kappa = 1 (models.noise_induced_drift); doubled
    where the limit step takes it, the coupled endpoint gap to the inertial run must exceed
    3 SE, on a run short enough to repeat: 2,000 paths to t = 0.1.
    """
    import smallmass.finite_dim

    fd = {"t_final": 0.1, "paths": 2000, "dt": 5e-5, "eta_transform": True}
    cfg = validate_config({"seed": 42, "fd": fd})
    true_s = run_fd_converge(cfg, tmp_path / "true")
    real = smallmass.finite_dim.noise_induced_drift
    monkeypatch.setattr(smallmass.finite_dim, "noise_induced_drift", lambda *a: 2.0 * real(*a))
    twice_s = run_fd_converge(cfg, tmp_path / "twice")
    z_true, z_twice = true_s["report"]["with_S"]["z"], twice_s["report"]["with_S"]["z"]
    detail = f"coupled z with S {z_true:.2f}, with 2 S {z_twice:.2f}"
    assert z_true <= 3.0, detail
    assert z_twice > 3.0, detail
    assert not twice_s["ok"], detail


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
    rho0 = g_coeffs(u0, basis, models)
    t_final, dt0, n_paths = 0.256, 4e-3, 12

    def sup_gap(batch):
        ut = LimitSolver(basis, models, form="u").simulate(u0, batch, n_output=50)
        rt = LimitSolver(basis, models, form="rho").simulate(rho0, batch, n_output=50)
        gu = g_coeffs(ut.coeffs, basis, models)
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


def test_criterion_7_exact_identities():
    """Five closed-form facts the limit rests on, read by name from `smallmass selftest`."""
    results = {name: ok for name, ok, _ in run_selftest()}
    checks = {
        "poincare": results["poincare equality on mode 1"],
        "heat_decay": results["heat kernel decay to 1e-3"],
        "drift_identity": results["combined drift identity (analytic)"],
        "energy_pinching": results["friction energy pinching"],
        "scalar_lyapunov": results["scalar Lyapunov closed form"],
    }
    ok = all(checks.values())
    detail = ", ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks.items())
    record_criterion(7, "exact unit-scale identities", ok, detail)
    assert ok, detail
