"""Experiment orchestration: coupled ladder studies and the CLI work functions.

The coupled convergence study drives every mass in the ladder and the limit
integrator with the same Brownian paths (one seed per path, seeds
base_seed, base_seed+1, ...).  Paths are advanced as a vectorized batch;
results are identical to running them one at a time, and a process pool over
path blocks is available through jobs > 1 with order-independent (sorted)
aggregation.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import diagnostics, noise, output
from .config import config_hash, make_basis, make_initial, make_models
from .diagnostics import LadderPoint, ScalingAudit
# simulate_fd and simulate_fd_limit are not called here; bench/spans.py wraps them at this name.
from .finite_dim import (
    FDNoise,
    compare_endpoints,
    fd_scalar_system,
    simulate_fd,
    simulate_fd_coupled,
    simulate_fd_limit,
)
from .limit import LimitSolver, LimitTrajectory
from .resolvent import OperatorA, audit_operator
from .wave import WaveSolver, g_coeffs


@dataclass
class LadderStudy:
    """Raw material of one coupled mass-ladder run."""

    ladder: list[float]
    per_path_distance: np.ndarray  # (n_mu, n_paths): sup_Hm1 + L2(0,T;H)
    ladder_points: list[LadderPoint]
    limit_traj: LimitTrajectory | None  # batched; None when paths were split over jobs
    wave_trajs: dict  # mu -> WaveTrajectory (batched)


def _wave_solver(cfg: dict, basis, models, mu: float) -> WaveSolver:
    """The wave solver at mass mu with the configured scheme, c_stab and Newton count."""
    return WaveSolver(
        basis,
        models,
        mu,
        scheme=cfg["wave"]["scheme"],
        c_stab=cfg["time"]["c_stab"],
        newton_iters=cfg["wave"]["newton_iters"],
    )


def _simulate_wave(cfg: dict, basis, models, mu: float, u0, v0, batch):
    """Wave run at mass mu on the shared batch, refined to dt <= c_stab * mu."""
    t = cfg["time"]
    required = min(batch.dt, t["c_stab"] * mu)
    if required < batch.dt:  # refine the shared batch for this mass only
        batch = noise.stack_paths(
            [noise.refine_to(batch.path(j), required) for j in range(batch.n_paths)]
        )
    return _wave_solver(cfg, basis, models, mu).simulate(u0, v0, batch, n_output=t["n_output"])


def _study_block(cfg: dict, seed0: int, n_paths: int, keep_trajs: bool) -> LadderStudy:
    basis = make_basis(cfg)
    models = make_models(cfg, basis)
    u0, v0 = make_initial(cfg, basis)
    t = cfg["time"]
    ladder = cfg["mu_ladder"]
    batch = noise.sample_batch(seed0, n_paths, t["t_final"], t["dt"], basis.n_modes)

    limit_solver = LimitSolver(basis, models, form=cfg["limit"]["form"], with_drift=True)
    limit_traj = limit_solver.simulate(u0, batch, n_output=t["n_output"])

    per_mu = []
    points = []
    wave_trajs = {}
    for mu in ladder:
        traj = _simulate_wave(cfg, basis, models, mu, u0, v0, batch)
        if not np.allclose(traj.times, limit_traj.times, atol=1e-12):
            raise RuntimeError("wave and limit output grids are misaligned")
        rep = diagnostics.metric_distance(traj.times, traj.u, limit_traj.coeffs, basis, "plain")
        per_mu.append(rep.sup_hm1 + rep.l2_h)
        points.append(diagnostics.ladder_point(traj))
        if keep_trajs:
            wave_trajs[mu] = traj
    return LadderStudy(
        ladder=ladder,
        per_path_distance=np.stack(per_mu),
        ladder_points=points,
        limit_traj=limit_traj,
        wave_trajs=wave_trajs,
    )


def _merge_points(blocks: list[LadderStudy]) -> list[LadderPoint]:
    merged = []
    for k in range(len(blocks[0].ladder_points)):
        merged.append(
            LadderPoint(
                mu=blocks[0].ladder_points[k].mu,
                sup_energy=np.concatenate([b.ladder_points[k].sup_energy for b in blocks]),
                sup_v_h=np.concatenate([b.ladder_points[k].sup_v_h for b in blocks]),
                sup_u_h=np.concatenate([b.ladder_points[k].sup_u_h for b in blocks]),
                int_u_h1_sq=np.concatenate([b.ladder_points[k].int_u_h1_sq for b in blocks]),
            )
        )
    return merged


def run_ladder_study(cfg: dict, keep_trajs: bool = False) -> LadderStudy:
    """Run the coupled study, splitting paths over a process pool when jobs > 1."""
    n_paths = cfg["paths"]
    jobs = max(1, min(cfg["jobs"], n_paths, os.cpu_count() or 1))
    if jobs == 1:
        return _study_block(cfg, cfg["seed"], n_paths, keep_trajs)
    sizes = [n_paths // jobs + (1 if k < n_paths % jobs else 0) for k in range(jobs)]
    starts = np.concatenate([[0], np.cumsum(sizes)])[:-1] + cfg["seed"]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_study_block, cfg, int(s), int(n), False)
            for s, n in zip(starts, sizes)
        ]
        blocks = [f.result() for f in futures]
    return LadderStudy(
        ladder=blocks[0].ladder,
        per_path_distance=np.concatenate([b.per_path_distance for b in blocks], axis=1),
        ladder_points=_merge_points(blocks),
        limit_traj=None,
        wave_trajs={},
    )


# -- subcommand work functions ---------------------------------------------------


def run_converge(cfg: dict, out_dir) -> dict:
    study = run_ladder_study(cfg)
    report = diagnostics.convergence_report(
        study.ladder,
        study.per_path_distance,
        ratio_max=cfg["converge"]["ratio_max"],
        allowed_inversions=cfg["converge"]["allowed_inversions"],
    )
    audit = diagnostics.scaling_audit(study.ladder_points)
    h = config_hash(cfg)
    payload = {"report": report.as_dict(), "scaling_audit": _audit_dict(audit)}
    output.write_json(os.path.join(out_dir, "converge.json"), payload, cfg, h)
    cols = {"mu": np.array(report.ladder), "mean": np.array(report.mean), "se": np.array(report.se)}
    output.write_csv(os.path.join(out_dir, "distances.csv"), cols, h, cfg["seed"])
    output.write_gnuplot(os.path.join(out_dir, "distances.dat"), cols, h, cfg["seed"])
    base = noise.sample_path(cfg["seed"], cfg["time"]["t_final"], cfg["time"]["dt"], cfg["domain"]["n_modes"])
    noise.save_path(base, os.path.join(out_dir, "noise_path0.bin"))
    ok = report.flags["monotone"] and report.flags["ratio"]
    return {"ok": bool(ok), "report": payload}


def run_scaling_audit(cfg: dict, out_dir) -> dict:
    study = run_ladder_study(cfg)
    audit = diagnostics.scaling_audit(study.ladder_points)
    h = config_hash(cfg)
    payload = {"scaling_audit": _audit_dict(audit)}
    output.write_json(os.path.join(out_dir, "scaling_audit.json"), payload, cfg, h)
    output.write_gnuplot(
        os.path.join(out_dir, "scaling.dat"),
        {
            "mu": np.array(audit.mus),
            "sqrt_mu_sup_energy": np.array(audit.sqrt_mu_sup_energy),
            "mu_sup_v": np.array(audit.mu_sup_v),
            "sup_u_sq": np.array(audit.sup_u_sq),
        },
        h,
        cfg["seed"],
    )
    return {"ok": all(audit.flags.values()), "report": payload}


def run_drift_ablation(cfg: dict, out_dir) -> dict:
    """Distances to the limit with and without the noise-induced drift term.

    Passes by `diagnostics.drift_necessity_report` at the mass ablation.mu.
    """
    basis = make_basis(cfg)
    models = make_models(cfg, basis)
    u0, v0 = make_initial(cfg, basis)
    t = cfg["time"]
    mu = cfg["ablation"]["mu"]
    batch = noise.sample_batch(cfg["seed"], cfg["paths"], t["t_final"], t["dt"], basis.n_modes)
    wave = _simulate_wave(cfg, basis, models, mu, u0, v0, batch)
    with_h, no_h = (
        LimitSolver(basis, models, with_drift=d).simulate(u0, batch, n_output=t["n_output"])
        for d in (True, False)
    )

    def distance(a, b):
        rep = diagnostics.metric_distance(wave.times, a, b, basis, "plain")
        return rep.sup_hm1 + rep.l2_h

    report = diagnostics.drift_necessity_report(
        [mu],
        distance(wave.u, with_h.coeffs)[None],
        distance(wave.u, no_h.coeffs)[None],
        distance(with_h.coeffs, no_h.coeffs),
        mu,
    )
    stats = report.as_dict()
    h = config_hash(cfg)
    output.write_json(os.path.join(out_dir, "drift_ablation.json"), {"ablation": stats}, cfg, h)
    return {"ok": report.ok, "report": stats}


def run_simulate_wave(cfg: dict, out_dir) -> dict:
    basis = make_basis(cfg)
    models = make_models(cfg, basis)
    u0, v0 = make_initial(cfg, basis)
    t = cfg["time"]
    mu = cfg["mu_ladder"][0]
    dt = min(t["dt"], t["c_stab"] * mu)
    path = noise.refine_to(
        noise.sample_path(cfg["seed"], t["t_final"], t["dt"], basis.n_modes), dt
    )
    traj = _wave_solver(cfg, basis, models, mu).simulate(u0, v0, path, n_output=t["n_output"])
    h = config_hash(cfg)
    output.trajectory_csv(os.path.join(out_dir, "wave_u.csv"), traj.times, traj.u, h, cfg["seed"])
    output.trajectory_csv(os.path.join(out_dir, "wave_v.csv"), traj.times, traj.v, h, cfg["seed"])
    output.save_trajectory_bin(os.path.join(out_dir, "wave_u.bin"), traj.times, traj.u)
    recs = diagnostics.energy_records(basis, models, traj)
    output.write_csv(
        os.path.join(out_dir, "wave_energy.csv"),
        {
            "t": np.array([r.t for r in recs]),
            "energy": np.array([r.energy for r in recs]),
            "lambda": np.array([r.lam for r in recs]),
            "u_h": np.array([r.u_h for r in recs]),
            "u_h1": np.array([r.u_h1 for r in recs]),
            "v_h": np.array([r.v_h for r in recs]),
        },
        h,
        cfg["seed"],
    )
    noise.save_path(path, os.path.join(out_dir, "noise_path.bin"))
    return {
        "ok": True,
        "report": {
            "mu": mu,
            "dt": dt,
            "sup_u_h": float(traj.sup_u_h),
            "sup_u_h1": float(traj.sup_u_h1),
            "sup_v_h": float(traj.sup_v_h),
        },
    }


def run_simulate_limit(cfg: dict, out_dir) -> dict:
    basis = make_basis(cfg)
    models = make_models(cfg, basis)
    u0, _ = make_initial(cfg, basis)
    t = cfg["time"]
    form = cfg["limit"]["form"]
    path = noise.sample_path(cfg["seed"], t["t_final"], t["dt_limit"], basis.n_modes)
    initial = g_coeffs(u0, basis, models) if form == "rho" else u0
    traj = LimitSolver(basis, models, form=form, with_drift=cfg["limit"]["with_drift"]).simulate(
        initial, path, n_output=t["n_output"]
    )
    h = config_hash(cfg)
    output.trajectory_csv(
        os.path.join(out_dir, f"limit_{form}.csv"), traj.times, traj.coeffs, h, cfg["seed"]
    )
    output.save_trajectory_bin(os.path.join(out_dir, f"limit_{form}.bin"), traj.times, traj.coeffs)
    return {"ok": True, "report": {"form": form, "sup_h": float(traj.sup_h)}}


def run_resolvent_audit(cfg: dict, out_dir) -> dict:
    basis = make_basis(cfg)
    models = make_models(cfg, basis)
    r = cfg["resolvent"]
    op = OperatorA(basis, models)
    result = audit_operator(
        op,
        n_pairs=r["n_pairs"],
        lam=r["lam"],
        lam_ladder=tuple(r["lam_ladder"]),
        n_smooth=r["n_smooth"],
        seed=cfg["seed"],
    )
    h = config_hash(cfg)
    output.write_json(os.path.join(out_dir, "resolvent_audit.json"), {"audit": result}, cfg, h)
    return {"ok": all(result["flags"].values()), "report": result}


def run_lyapunov(cfg: dict, out_dir) -> dict:
    """Solve the Lyapunov equation along sampled states of the fd preset."""
    from .finite_dim import drift_S, lyapunov_residual, solve_lyapunov

    fd = cfg["fd"]
    system = fd_scalar_system(friction=fd["friction"], sigma_value=fd["sigma"])
    xs = np.linspace(-3.0, 3.0, 25)
    rows = {"x": xs, "J": [], "residual": [], "S": []}
    for xv in xs:
        x = np.array([xv])
        g = system.gamma(x[None])[0]
        sig = system.sigma(x[None])[0]
        j = solve_lyapunov(g, sig @ sig.T)
        rows["J"].append(j[0, 0])
        rows["residual"].append(lyapunov_residual(g, j, sig @ sig.T))
        rows["S"].append(drift_S(system, x)[0])
    h = config_hash(cfg)
    rows = {k: np.asarray(v) for k, v in rows.items()}
    output.write_csv(os.path.join(out_dir, "lyapunov.csv"), rows, h, cfg["seed"])
    worst = float(np.max(rows["residual"]))
    return {"ok": worst <= 1e-10, "report": {"max_residual": worst}}


def run_fd_converge(cfg: dict, out_dir) -> dict:
    fd = cfg["fd"]
    system = fd_scalar_system(friction=fd["friction"], sigma_value=fd["sigma"])
    n_steps = noise._n_steps(fd["t_final"], fd["dt"])
    fdnoise = FDNoise(
        seed=cfg["seed"], dt=fd["dt"], n_steps=n_steps, n_paths=fd["paths"], r_dim=system.r_dim
    )
    inertial, limit_s, limit_no = simulate_fd_coupled(
        system, fd["mu"], fdnoise, fd["x0"], fd["v0"], eta_transform=fd["eta_transform"]
    )
    rep_s = compare_endpoints(inertial, limit_s, fd["mu"])
    rep_no = compare_endpoints(inertial, limit_no, fd["mu"])
    stats = {
        "mu": fd["mu"],
        "paths": fd["paths"],
        "with_S": {
            "mean_diff": rep_s.diff_mean.tolist(),
            "se": rep_s.diff_se.tolist(),
            "z": rep_s.z_score,
        },
        "without_S": {
            "mean_diff": rep_no.diff_mean.tolist(),
            "se": rep_no.diff_se.tolist(),
            "z": rep_no.z_score,
        },
    }
    h = config_hash(cfg)
    output.write_json(os.path.join(out_dir, "fd_converge.json"), {"fd": stats}, cfg, h)
    root_n = np.sqrt(fd["paths"])
    output.write_csv(
        os.path.join(out_dir, "fd_means.csv"),
        {
            "t": inertial.times,
            "mean_inertial": inertial.x.mean(axis=1)[:, 0],
            "se_inertial": inertial.x.std(axis=1, ddof=1)[:, 0] / root_n,
            "mean_limit": limit_s.x.mean(axis=1)[:, 0],
            "se_limit": limit_s.x.std(axis=1, ddof=1)[:, 0] / root_n,
            "mean_limit_noS": limit_no.x.mean(axis=1)[:, 0],
            "se_limit_noS": limit_no.x.std(axis=1, ddof=1)[:, 0] / root_n,
        },
        h,
        cfg["seed"],
    )
    ok = rep_s.z_score <= 3.0 and rep_no.z_score > 3.0
    return {"ok": bool(ok), "report": stats}


def _audit_dict(audit: ScalingAudit) -> dict:
    return {
        "mus": audit.mus,
        "sqrt_mu_sup_energy": audit.sqrt_mu_sup_energy,
        "mu_sup_v": audit.mu_sup_v,
        "sup_u_sq": audit.sup_u_sq,
        "int_u_h1_sq": audit.int_u_h1_sq,
        "slope_energy": audit.slope_energy,
        "slope_velocity": audit.slope_velocity,
        "spread_displacement": audit.spread_displacement,
        "flags": audit.flags,
    }
