"""Experiment orchestration: coupled ladder studies and the CLI work functions.

The coupled convergence study drives every mass in the ladder and the limit
integrator with the same Brownian paths (one seed per path, seeds
base_seed, base_seed+1, ...).  Paths are advanced as a vectorized batch, and
the masses that share a refined step as one (n_mu, P, N) batch, under every
scheme, and the limits with and without H as the (k, P, N) rows of one run.
The limit and every mass batch run in one `wave.drive` on the coarse clock,
a batch refined L times taking 2**L steps of its refined path per coarse
step, and each batch is scored against every limit row at every output
time; the distances are folded as they come (`diagnostics.DistanceFold`),
so no trajectory of the waves or the limit is kept.  Results are identical
to running paths, masses and limits one at a time.
Every per-path result of the study (distances and the running norms the
scaling audit reads) is an array with one row per mass and the path on the
last axis, so a study split over jobs > 1 processes in path blocks is joined
along that axis in one place, in block order.

The finite-dimensional study of `fd-converge` likewise reduces as it runs:
its three coupled integrators record only the path mean and its standard
error at each output time, and the endpoint statistics read their final
states, so its memory does not grow with outputs x paths.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from . import diagnostics, noise, output
from .config import ConfigError, config_hash, make_basis, make_initial, make_models, resolvent_lams
from .diagnostics import DriftNecessityReport
# simulate_fd and simulate_fd_limit are not called here; bench/spans.py wraps them at this name.
from .finite_dim import (
    FD_N_OUTPUT,
    LYAPUNOV_RTOL,
    FDNoise,
    compare_endpoints,
    coupled_steppers,
    drive_fd,
    fd_scalar_system,
    lyapunov_sweep,
    simulate_fd,
    simulate_fd_limit,
)
from .limit import LimitSolver
from .resolvent import OperatorA, audit_operator
from .wave import WaveSolver, check_finite, drive, g_coeffs


@dataclass
class LadderStudy:
    """Per-path results of one coupled mass-ladder run, the path on the last axis of each."""

    ladder: list[float]
    per_path_distance: np.ndarray  # (n_mu, n_paths): sup_Hm1 + L2(0,T;H) to the limit with H
    norms: dict  # the running norms scaling_audit reads by name (AUDIT_NORMS), (n_mu, n_paths) each
    d_no: np.ndarray | None = None  # (n_mu, n_paths): the same to the limit without H
    d_h: np.ndarray | None = None  # (n_paths,): between the limits with and without H


def _wave_solver(cfg: dict, basis, models, mu) -> WaveSolver:
    """The configured wave solver at mass mu, one mass or a 1-D array of them."""
    return WaveSolver(
        basis,
        models,
        mu,
        scheme=cfg["wave"]["scheme"],
        c_stab=cfg["time"]["c_stab"],
        newton_iters=cfg["wave"]["newton_iters"],
    )


def _mass_groups(cfg: dict, basis, models) -> dict:
    """Ladder indices keyed by how often their step bound halves time.dt, in ladder order.

    The masses of a group share one refined path and advance as one batch,
    under every scheme.
    """
    groups: dict = {}
    for k, mu in enumerate(cfg["mu_ladder"]):
        level = noise.halvings(cfg["time"]["dt"], _wave_solver(cfg, basis, models, mu).max_dt())
        groups.setdefault(level, []).append(k)
    return groups


class _ScoredRun:
    """One run of the ladder study, a stepper of its drive() on the coarse clock.

    run is a wave or limit stepper on path, the study's batch refined
    path.level times.  Each coarse step takes the path's 2**level fine
    steps, each a whole step of the run, and raises SimulationDiverged with
    the fine step and time where the state stops being finite.  At each output
    index, record() folds the distance of the run's u (its first record) to
    target(), the current state of the run it is scored against, into a
    `diagnostics.DistanceFold`, at the time k * dt of the fine steps taken,
    and returns nothing for drive() to keep; a run without a target folds
    nothing.  Halving dt doubles k, so every run of the study reads the same
    coarse output time, bit for bit.
    """

    def __init__(self, run, path, basis, target=None):
        self.run, self.inc, self.dt, self.per_step = run, path.increments, path.dt, 1 << path.level
        self.basis, self.target = basis, target
        self.fold = diagnostics.DistanceFold()
        self.k = 0

    def step(self, _dbeta) -> tuple:
        for k in range(self.k, self.k + self.per_step):
            check_finite(self.run.step(self.inc[..., :, k]), k + 1, self.dt)
        self.k += self.per_step
        return ()

    def record(self) -> tuple:
        if self.target is not None:
            rows = diagnostics.distance_rows(self.run.record()[0], self.target(), self.basis)
            self.fold.add(self.k * self.dt, *rows)
        return ()

    def distance(self) -> np.ndarray:
        """sup_Hm1 + L2(0,T;H) to the target, one element per row pair scored."""
        return np.add(*self.fold.parts())


def _study_block(cfg: dict, seed0: int, n_paths: int, ablate_drift: bool) -> LadderStudy:
    """The ladder's waves against the u-form limit with H, all on one coupled batch.

    The masses run in batches that share a refined step (`_mass_groups`).
    Every batch and the limit advance in one drive() on the coarse clock, a
    batch refined L times taking 2**L fine steps per coarse step, and each
    batch is scored against the limit's current state at every coarse
    output time, at any refinement level, so no trajectory is kept.  With
    ablate_drift, the limit without H is the limit run's second row, scored
    against each wave (d_no) and against the row with H (d_h).
    """
    basis = make_basis(cfg)
    models = make_models(cfg, basis)
    u0, v0 = make_initial(cfg, basis)
    t = cfg["time"]
    ladder = cfg["mu_ladder"]
    n_steps = noise._n_steps(t["t_final"], t["dt"])
    groups = _mass_groups(cfg, basis, models)
    batch = noise.sample_batch(seed0, n_paths, t["t_final"], t["dt"], basis.n_modes)
    rows = (True, False) if ablate_drift else (True,)  # the limit with H, and the one without
    lim = LimitSolver(basis, models, with_drift=rows).stepper(u0, batch)  # (k, P, N)
    # the limit's rows scored against its row with H: d_h
    limit = _ScoredRun(lim, batch, basis, (lambda: lim.y[0]) if ablate_drift else None)
    paths, path = {}, batch
    # each refinement taken once; every level's path runs at once
    for level in sorted(groups):
        while path.level < level:
            path = noise.refine(path)
        paths[level] = path
    waves = []
    for level, idx in groups.items():  # each on its refined path: (k, n_mu, P) distance rows
        mus = np.array([ladder[k] for k in idx])
        run = _wave_solver(cfg, basis, models, mus).stepper(u0, v0, paths[level])
        waves.append(_ScoredRun(run, paths[level], basis, lambda: lim.y[:, None]))
    drive([limit] + waves, n_steps, t["dt"], lambda k: None, t["n_output"])

    d = np.empty((len(rows), len(ladder), n_paths))
    norms: dict = {}
    for idx, wave in zip(groups.values(), waves):
        d[:, idx] = wave.distance()
        for name in diagnostics.AUDIT_NORMS:
            norms.setdefault(name, np.empty((len(ladder), n_paths)))[idx] = wave.run.norms[name]
    if not ablate_drift:
        return LadderStudy(ladder, d[0], norms)
    return LadderStudy(ladder, d[0], norms, d_no=d[1], d_h=limit.distance()[1])


def drift_necessity(cfg: dict, study: LadderStudy) -> DriftNecessityReport:
    """`diagnostics.drift_necessity_report` over the study's ladder at ablation.mu."""
    if study.d_no is None:
        raise ValueError("drift necessity needs a ladder study run with ablate_drift=True")
    return diagnostics.drift_necessity_report(
        study.ladder, study.per_path_distance, study.d_no, study.d_h, cfg["ablation"]["mu"]
    )


def _join_paths(parts: list):
    """The blocks' values of one per-path field joined along the path axis, in block order.

    A dict is joined key by key, and a field that is None stays None.
    """
    if parts[0] is None:
        return None
    if isinstance(parts[0], dict):
        return {k: _join_paths([p[k] for p in parts]) for k in parts[0]}
    return np.concatenate(parts, axis=-1)


def run_ladder_study(cfg: dict, ablate_drift: bool = False) -> LadderStudy:
    """The coupled study of `_study_block`, its paths split over a process pool when jobs > 1."""
    n_paths = cfg["paths"]
    jobs = max(1, min(cfg["jobs"], n_paths, os.cpu_count() or 1))
    if jobs == 1:
        return _study_block(cfg, cfg["seed"], n_paths, ablate_drift)
    # imported here: multiprocessing and its imports cost every other run about 15 ms
    from concurrent.futures import ProcessPoolExecutor

    sizes = [n_paths // jobs + (1 if k < n_paths % jobs else 0) for k in range(jobs)]
    starts = np.concatenate([[0], np.cumsum(sizes)])[:-1] + cfg["seed"]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_study_block, cfg, int(s), int(n), ablate_drift)
            for s, n in zip(starts, sizes)
        ]
        blocks = [f.result() for f in futures]
    per_path = [name for name in vars(blocks[0]) if name != "ladder"]
    joined = {name: _join_paths([vars(b)[name] for b in blocks]) for name in per_path}
    return LadderStudy(ladder=blocks[0].ladder, **joined)


# -- subcommand work functions ---------------------------------------------------


def _require_ladder(cfg: dict, min_masses: int, min_paths: int) -> None:
    """Raise a ConfigError naming the key before a study too small to judge runs."""
    n_masses = len(cfg["mu_ladder"])
    if n_masses < min_masses:
        raise ConfigError(
            f"config key 'mu_ladder' needs at least {min_masses} masses, got {n_masses}"
        )
    if cfg["paths"] < min_paths:
        raise ConfigError(f"config key 'paths' must be at least {min_paths}, got {cfg['paths']}")


def run_converge(cfg: dict, out_dir) -> dict:
    _require_ladder(cfg, diagnostics.AUDIT_MIN_POINTS, diagnostics.AUDIT_MIN_PATHS)
    study = run_ladder_study(cfg)
    report = diagnostics.convergence_report(
        study.ladder,
        study.per_path_distance,
        ratio_max=cfg["converge"]["ratio_max"],
        allowed_inversions=cfg["converge"]["allowed_inversions"],
    )
    audit = diagnostics.scaling_audit(study.ladder, study.norms)
    h = config_hash(cfg)
    payload = {"report": report.as_dict(), "scaling_audit": asdict(audit)}
    output.write_json(os.path.join(out_dir, "converge.json"), payload, cfg, h)
    cols = {"mu": np.array(report.ladder), "mean": np.array(report.mean), "se": np.array(report.se)}
    output.write_csv(os.path.join(out_dir, "distances.csv"), cols, h, cfg["seed"])
    output.write_gnuplot(os.path.join(out_dir, "distances.dat"), cols, h, cfg["seed"])
    base = noise.sample_path(cfg["seed"], cfg["time"]["t_final"], cfg["time"]["dt"], cfg["domain"]["n_modes"])
    noise.save_path(base, os.path.join(out_dir, "noise_path0.bin"))
    ok = report.flags["monotone"] and report.flags["ratio"]
    return {"ok": bool(ok), "report": payload}


def run_scaling_audit(cfg: dict, out_dir) -> dict:
    _require_ladder(cfg, diagnostics.AUDIT_MIN_POINTS, diagnostics.AUDIT_MIN_PATHS)
    study = run_ladder_study(cfg)
    audit = diagnostics.scaling_audit(study.ladder, study.norms)
    h = config_hash(cfg)
    payload = {"scaling_audit": asdict(audit)}
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
    """The coupled ladder study with the drift ablation, judged by `drift_necessity`."""
    mu, ladder = cfg["ablation"]["mu"], cfg["mu_ladder"]
    if mu not in ladder:
        raise ConfigError(f"ablation.mu = {mu} is not on mu_ladder {ladder}")
    _require_ladder(cfg, 1, diagnostics.MIN_PATHS_PAIRED)
    report = drift_necessity(cfg, run_ladder_study(cfg, ablate_drift=True))
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
    path = noise.sample_path(cfg["seed"], t["t_final"], t["dt"], basis.n_modes)
    solver = _wave_solver(cfg, basis, models, mu)
    path = noise.refine_to(path, solver.max_dt())
    traj = solver.simulate(u0, v0, path, n_output=t["n_output"])
    h = config_hash(cfg)
    output.trajectory_csv(os.path.join(out_dir, "wave_u.csv"), traj.times, traj.u, h, cfg["seed"])
    output.trajectory_csv(os.path.join(out_dir, "wave_v.csv"), traj.times, traj.v, h, cfg["seed"])
    output.save_trajectory_bin(os.path.join(out_dir, "wave_u.bin"), traj.times, traj.u)
    output.write_csv(
        os.path.join(out_dir, "wave_energy.csv"),
        diagnostics.energy_records(basis, models, traj),
        h,
        cfg["seed"],
    )
    noise.save_path(path, os.path.join(out_dir, "noise_path.bin"))
    return {
        "ok": True,
        "report": {
            "mu": mu,
            "dt": path.dt,
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
    for key, lam in resolvent_lams(cfg).items():
        if lam >= op.lambda_bar:
            raise ConfigError(
                f"config key '{key}' must be below lambda_bar = {op.lambda_bar:.6g}, got {lam}"
            )
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
    fd = cfg["fd"]
    system = fd_scalar_system(friction=fd["friction"], sigma_value=fd["sigma"])
    rows = lyapunov_sweep(system, np.linspace(-3.0, 3.0, 25))
    h = config_hash(cfg)
    output.write_csv(os.path.join(out_dir, "lyapunov.csv"), rows, h, cfg["seed"])
    worst = float(np.max(rows["residual"]))
    return {"ok": worst <= LYAPUNOV_RTOL, "report": {"max_residual": worst}}


class _PathMoments:
    """An fd stepper for drive() whose records are its path mean and standard error.

    At each output index record() returns the mean over paths of the
    stepper's (P,) record and its standard error; no trajectory is kept.
    """

    def __init__(self, run):
        self.run, self.step = run, run.step

    def record(self) -> tuple:
        (x,) = self.run.record()
        return diagnostics.mean_se(x)


def run_fd_converge(cfg: dict, out_dir) -> dict:
    """Criterion 3's coupled fd study, kept as per-output path moments and final states."""
    fd = cfg["fd"]
    system = fd_scalar_system(friction=fd["friction"], sigma_value=fd["sigma"])
    n_steps = noise._n_steps(fd["t_final"], fd["dt"])
    fdnoise = FDNoise(seed=cfg["seed"], dt=fd["dt"], n_steps=n_steps, n_paths=fd["paths"])
    steppers = coupled_steppers(
        system, fd["mu"], fdnoise, fd["x0"], fd["v0"], eta_transform=fd["eta_transform"]
    )
    times, moments = drive_fd([_PathMoments(s) for s in steppers], fdnoise, FD_N_OUTPUT)
    inertial, limit_s, limit_no = (s.x for s in steppers)
    stats = {"mu": fd["mu"], "paths": fd["paths"]}
    for side, x in (("with_S", limit_s), ("without_S", limit_no)):
        rep = compare_endpoints(inertial, x)
        stats[side] = {
            "mean_diff": [rep.diff_mean],
            "se": [rep.diff_se],
            "z": rep.z_score,
            "z_combined": rep.z_combined,
        }
    h = config_hash(cfg)
    output.write_json(os.path.join(out_dir, "fd_converge.json"), {"fd": stats}, cfg, h)
    cols = {"t": times}
    for name, (mean, se) in zip(("inertial", "limit", "limit_noS"), moments):
        cols[f"mean_{name}"], cols[f"se_{name}"] = mean, se
    output.write_csv(os.path.join(out_dir, "fd_means.csv"), cols, h, cfg["seed"])
    # The coupled z alone: bench/references.json gates fd.ok; criterion 3 judges z_combined itself.
    ok = stats["with_S"]["z"] <= 3.0 and stats["without_S"]["z"] > 3.0
    return {"ok": bool(ok), "report": stats}
