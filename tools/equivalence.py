"""Parent-vs-change equivalence check: every route's arrays and artifacts, bit for bit.

    python tools/equivalence.py PARENT

PARENT names a commit (for example HEAD before committing a change, or
HEAD~1 after).  The script extracts that commit with `git archive` into a
temporary directory, then runs the route catalogue below twice, each time in
a fresh Python process with one BLAS thread: once on this checkout's `src`,
once on the parent's.  Both processes run the catalogue of this file, so a
route must only use names that exist on both sides.

Every route returns named arrays: trajectories, running norms, the flattened
report of a `runner.run_*` work function and each artifact file it writes (a
binary trajectory dump as its times and coefficients, any other file as its
bytes).  An item is equal when np.array_equal holds (NaNs equal); the
script prints a line for every item that is not, with two deviations (numbers
inside differing text artifacts are compared as numbers):

    rel dev      max |a - b| / max(|a|, |b|) element by element.  It reads
                 near 1 or 2 where an element is roundoff on both sides, for
                 instance a coefficient that is zero analytically.
    scaled dev   max |a - b| / max(|a|, |b|) over the whole item: the change
                 against the size of the item, which is what a change that
                 moves last bits is judged by.

It ends with the count of equal and differing items and a line naming the
three largest scaled deviations and their items (the runners-up show what a
residual that is roundoff on both sides would hide).  A route that raises on
one side is reported with the exception.  The exit status is 0 when every
item of every route is bitwise equal on both sides, else 1.

Route groups: the catalogue (3 wave schemes x path/batch x noisy/noise-free,
one and two wave steps, limit forms x drift x path/batch, single limit
steps, refinement of a path and a batch, fd coupled and single runs, every
`run_*` work function on small configs), the default config of every
`run_*` work function (about a minute), and the routes of the benchmark's
workloads (bench/workloads.py).  A step is `simulate` on a one- or two-step
path, noisy or from `noise.zero_path`.
"""

from __future__ import annotations

import argparse
import os
import pickle
import re
import subprocess
import sys
import tarfile
import tempfile
import traceback

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# -- the catalogue (runs in the child process, on either side) -------------------

SMALL = {"domain": {"n_modes": 16, "n_nodes": 32}, "seed": 7}


def _cfg(*overrides):
    from smallmass.config import validate_config

    merged = {}
    for o in (SMALL,) + overrides:
        for k, v in o.items():
            merged[k] = {**merged.get(k, {}), **v} if isinstance(v, dict) else v
    return validate_config(merged)


def _setup(diffusion="cosine"):
    from smallmass.config import make_basis, make_initial, make_models

    cfg = _cfg({"model": {"diffusion": diffusion}})
    basis = make_basis(cfg)
    return basis, make_models(cfg, basis), *make_initial(cfg, basis)


def _fields(obj) -> dict:
    return {k: v for k, v in vars(obj).items() if isinstance(v, (np.ndarray, float, int))}


def _wave_routes() -> dict:
    from smallmass import noise
    from smallmass.wave import WaveSolver

    routes = {}
    for diffusion in ("cosine", "zero"):
        for scheme in ("semi_implicit", "eta_form", "resolvent_implicit"):
            for mu in (0.05, 1e-3):
                for kind in ("path", "batch"):

                    def run(diffusion=diffusion, scheme=scheme, mu=mu, kind=kind):
                        basis, models, u0, v0 = _setup(diffusion)
                        if kind == "path":
                            path = noise.sample_path(3, 0.01, 2.5e-4, basis.n_modes)
                        else:
                            path = noise.sample_batch(3, 3, 0.01, 2.5e-4, basis.n_modes)
                        solver = WaveSolver(basis, models, mu, scheme=scheme)
                        return _fields(solver.simulate(u0, v0, path, n_output=8))

                    routes[f"wave.{scheme}.{diffusion}.mu={mu}.{kind}"] = run

        for scheme in ("semi_implicit", "eta_form", "resolvent_implicit"):

            def steps(diffusion=diffusion, scheme=scheme):
                basis, models, u0, v0 = _setup(diffusion)
                solver = WaveSolver(basis, models, 0.01, scheme=scheme)
                out = {}
                for label, path in (
                    ("noise", noise.sample_path(5, 2e-3, 1e-3, basis.n_modes)),
                    ("none", noise.zero_path(2e-3, 1e-3, basis.n_modes)),
                ):
                    traj = solver.simulate(u0, v0, path, n_output=2)
                    for k in range(2):
                        out[f"{label}.{k}.u"], out[f"{label}.{k}.v"] = traj.u[k + 1], traj.v[k + 1]
                return out

            routes[f"wave_step.{scheme}.{diffusion}"] = steps
    return routes


def _limit_routes() -> dict:
    from smallmass import noise
    from smallmass.limit import LimitSolver
    from smallmass.wave import g_coeffs

    routes = {}
    for form in ("u", "rho"):
        for drift in (True, False):
            for kind in ("path", "batch"):

                def run(form=form, drift=drift, kind=kind):
                    basis, models, u0, _ = _setup()
                    if kind == "path":
                        path = noise.sample_path(4, 0.02, 1e-3, basis.n_modes)
                    else:
                        path = noise.sample_batch(4, 3, 0.02, 1e-3, basis.n_modes)
                    initial = g_coeffs(u0, basis, models) if form == "rho" else u0
                    solver = LimitSolver(basis, models, form=form, with_drift=drift)
                    return _fields(solver.simulate(initial, path, n_output=8))

                routes[f"limit.{form}.drift={drift}.{kind}"] = run

            def step(form=form, drift=drift):
                basis, models, u0, _ = _setup()
                initial = g_coeffs(u0, basis, models) if form == "rho" else u0
                solver = LimitSolver(basis, models, form=form, with_drift=drift)
                paths = {
                    "noise": noise.sample_path(6, 1e-3, 1e-3, basis.n_modes),
                    "none": noise.zero_path(1e-3, 1e-3, basis.n_modes),
                }
                return {
                    label: solver.simulate(initial, path, n_output=1).coeffs[-1]
                    for label, path in paths.items()
                }

            routes[f"limit_step.{form}.drift={drift}"] = step
    return routes


def _noise_routes() -> dict:
    from smallmass import noise

    def run():
        path = noise.sample_path(8, 0.01, 1e-3, 5)
        batch = noise.sample_batch(8, 3, 0.01, 1e-3, 5)
        members = [noise.refine_to(batch.path(j), 3e-4) for j in range(batch.n_paths)]
        return {
            "path": noise.refine_to(path, 3e-4).increments,
            "batch_members": noise.stack_paths(members).increments,
        }

    return {"noise.refine_to": run}


def _fd_routes() -> dict:
    from smallmass import finite_dim as fdm

    def noise_for(system, paths=200):
        return fdm.FDNoise(seed=9, dt=1e-3, n_steps=60, n_paths=paths, r_dim=system.r_dim)

    routes = {}
    for eta in (False, True):
        for friction in ("two_plus_sin", "constant"):

            def coupled(eta=eta, friction=friction):
                system = fdm.fd_scalar_system(friction=friction, sigma_value=1.2)
                trajs = fdm.simulate_fd_coupled(
                    system, 1e-2, noise_for(system), 0.3, 0.1, n_output=10, eta_transform=eta
                )
                return {name: t.x for name, t in zip(("inertial", "limit_S", "limit_noS"), trajs)}

            routes[f"fd.coupled.{friction}.eta={eta}"] = coupled

    def single():
        out = {}
        for system in (fdm.fd_scalar_system(), fdm.fd_isotropic_2d()):
            nz = noise_for(system, 50)
            inertial = fdm.simulate_fd(system, 1e-2, nz, 0.3, 0.1, n_output=10)
            out[f"{system.name}.inertial"] = inertial.x
            for with_s in (True, False):
                out[f"{system.name}.limit_S={with_s}"] = fdm.simulate_fd_limit(
                    system, nz, 0.3, with_S=with_s, n_output=10
                ).x
            out[f"{system.name}.drift_S"] = fdm.drift_S(system, np.full(system.dim, 0.4))
        return out

    routes["fd.single"] = single
    return routes


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}", v, out)
    elif isinstance(obj, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in obj):
        for k, v in enumerate(obj):
            _flatten(f"{prefix}[{k}]", v, out)
    else:
        arr = np.asarray(obj)
        out[prefix] = arr if arr.dtype.kind in "biuf" else np.asarray(str(obj))


_TRAJECTORY_DUMP = re.compile(r"(wave|limit)_\w+\.bin")  # written by output.save_trajectory_bin


def _work(name: str, cfg: dict):
    """Route: the work function smallmass.runner.<name> on cfg, its report and its artifacts."""

    def run():
        from smallmass import output, runner

        with tempfile.TemporaryDirectory() as out_dir:
            result = getattr(runner, name)(cfg, out_dir)
            items = {}
            _flatten("result", result, items)
            for fn in sorted(os.listdir(out_dir)):
                path = os.path.join(out_dir, fn)
                if _TRAJECTORY_DUMP.fullmatch(fn):
                    items[f"{fn}.times"], items[f"{fn}.coeffs"] = output.load_trajectory_bin(path)
                    continue
                with open(path, "rb") as fh:
                    items[fn] = fh.read()
        return items

    return run


def _run_routes() -> dict:
    short = {"time": {"t_final": 0.01, "dt": 5e-4, "dt_limit": 5e-4, "n_output": 10}, "paths": 8}
    routes = {}
    for scheme in ("semi_implicit", "eta_form", "resolvent_implicit"):
        wave = {"wave": {"scheme": scheme}}
        routes[f"run_simulate_wave.{scheme}"] = _work(
            "run_simulate_wave", _cfg(short, wave, {"mu_ladder": [0.05]})
        )
        # dt 1e-3 refined twice to the bound c_stab * mu = 2.5e-4 on every scheme
        refined = {"mu_ladder": [1e-3], "time": {"dt": 1e-3, "c_stab": 0.25}}
        routes[f"run_simulate_wave.{scheme}.refined"] = _work(
            "run_simulate_wave", _cfg(short, wave, refined)
        )
        # the batch refined once at mu = 1e-3 (bound 2.5e-4)
        ladder = {"mu_ladder": [0.2, 0.1, 0.05, 1e-3], "time": {"c_stab": 0.25}}
        routes[f"run_converge.{scheme}"] = _work("run_converge", _cfg(short, wave, ladder))
    # c_stab * mu = 7.5e-5 is not the step 5e-5; the simulate-wave report's dt differs here
    bound_not_step = {"time": {"t_final": 2e-3, "dt": 1e-4, "n_output": 10}, "mu_ladder": [1.5e-4]}
    routes["run_simulate_wave.bound_not_step"] = _work("run_simulate_wave", _cfg(bound_not_step))
    # the resolvent below lambda_bar: raised ResolventError before the one step policy
    resolvent = {"wave": {"scheme": "resolvent_implicit"}, "mu_ladder": [1e-3]}
    routes["run_simulate_wave.resolvent_lambda_bar"] = _work(
        "run_simulate_wave", _cfg(short, resolvent)
    )
    for form in ("u", "rho"):
        for drift in (True, False):
            limit = {"limit": {"form": form, "with_drift": drift}}
            routes[f"run_simulate_limit.{form}.drift={drift}"] = _work(
                "run_simulate_limit", _cfg(short, limit)
            )
    routes["run_scaling_audit"] = _work("run_scaling_audit", _cfg(short))
    # the coupled study compares the wave with the u-form limit whatever limit.form is
    routes["run_converge.limit_rho"] = _work("run_converge", _cfg(short, {"limit": {"form": "rho"}}))
    ablation = {"ablation": {"mu": 0.01}}
    routes["run_drift_ablation"] = _work("run_drift_ablation", _cfg(short, ablation))
    # the study split over two processes (a parent that ignores jobs runs it in one)
    routes["run_drift_ablation.jobs=2"] = _work(
        "run_drift_ablation", _cfg(short, ablation, {"jobs": 2})
    )
    # one mass on the ladder: the judged ladder is the single ablation mass
    one_mass = {"mu_ladder": [0.01]}
    routes["run_drift_ablation.one_mass"] = _work(
        "run_drift_ablation", _cfg(short, ablation, one_mass)
    )
    for eta in (False, True):
        fd = {"fd": {"t_final": 0.02, "dt": 1e-3, "mu": 1e-2, "paths": 300, "eta_transform": eta}}
        routes[f"run_fd_converge.eta={eta}"] = _work("run_fd_converge", _cfg(fd))
    for friction in ("two_plus_sin", "constant"):
        routes[f"run_lyapunov.{friction}"] = _work(
            "run_lyapunov", _cfg({"fd": {"friction": friction}})
        )
    audit = {"resolvent": {"n_pairs": 30, "n_smooth": 4}}
    routes["run_resolvent_audit"] = _work("run_resolvent_audit", _cfg(audit))
    return routes


def _default_routes() -> dict:
    from smallmass.config import validate_config

    names = (
        "run_converge",
        "run_simulate_wave",
        "run_simulate_limit",
        "run_drift_ablation",
        "run_fd_converge",
        "run_resolvent_audit",
        "run_lyapunov",
    )
    return {f"default.{n}": _work(n, validate_config({})) for n in names}


def _bench_routes() -> dict:
    sys.path.insert(0, os.path.join(REPO, "bench"))
    from smallmass.config import validate_config

    import workloads

    routes = {}
    for w in workloads.WORKLOADS.values():
        seed = w.pool()[0]
        for route in w.sizes["full"]:
            cfg = validate_config({**route.overrides, "seed": seed})
            routes[f"bench.{w.name}.{route.name}"] = _work(route.work, cfg)
    return routes


def catalogue() -> dict:
    routes = {}
    groups = (_wave_routes, _limit_routes, _noise_routes, _fd_routes, _run_routes)
    for group in groups + (_default_routes, _bench_routes):
        routes.update(group())
    return routes


def collect(out_file: str) -> None:
    import warnings

    warnings.simplefilter("ignore")  # step-policy warnings are expected on some routes
    results = {}
    for name, run in catalogue().items():
        try:
            results[name] = run()
        except Exception:
            results[name] = traceback.format_exc(limit=1).strip().splitlines()[-1]
    with open(out_file, "wb") as fh:
        pickle.dump(results, fh)


# -- comparison (runs in the driving process) ------------------------------------

_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _deviations(a, b) -> tuple[float, float]:
    """Largest element-wise relative deviation, and the largest difference over the item's scale."""
    a, b = np.asarray(a, dtype=float).ravel(), np.asarray(b, dtype=float).ravel()
    if not a.size:
        return 0.0, 0.0
    tiny = np.finfo(float).tiny
    size = np.maximum(np.abs(a), np.abs(b))
    finite = size[np.isfinite(size)]
    with np.errstate(invalid="ignore"):  # inf - inf, inf / inf: NaN, as the deviation should read
        diff = np.abs(a - b)
        diff[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
        moved = diff != 0.0
        rel = float(np.max(diff[moved] / np.maximum(size[moved], tiny), initial=0.0))
    return rel, float(np.max(diff) / max(float(np.max(finite, initial=0.0)), tiny))


def _numeric_verdict(a, b) -> tuple[str, float]:
    rel, scaled = _deviations(a, b)
    return f"max rel dev {rel:.3g}, scaled dev {scaled:.3g}", scaled


def compare_item(a, b) -> tuple[str, float | None]:
    """'equal', or what differs; with the scaled deviation when both are numbers."""
    if isinstance(a, bytes) and isinstance(b, bytes):
        if a == b:
            return "equal", None
        na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
        if _NUMBER.sub(b"#", a) == _NUMBER.sub(b"#", b) and len(na) == len(nb):
            return _numeric_verdict([float(x) for x in na], [float(x) for x in nb])
        return f"bytes differ beyond numbers ({len(a)} vs {len(b)} bytes)", None
    if isinstance(a, bytes) or isinstance(b, bytes):
        return "type differs", None
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}", None
    if a.dtype.kind not in "biuf" or b.dtype.kind not in "biuf":
        return ("equal" if np.array_equal(a, b) else f"differs: {a} vs {b}"), None
    if np.array_equal(a, b, equal_nan=True):
        return "equal", None
    return _numeric_verdict(a, b)


def compare(change: dict, parent: dict) -> int:
    n_equal = n_diff = 0
    scaled_devs = []  # (scaled deviation, route/item) of every numeric difference
    for route in sorted(set(change) | set(parent)):
        c, p = change.get(route), parent.get(route)
        if isinstance(c, str) and c == p:  # the same exception on both sides
            n_equal += 1
            continue
        if not isinstance(c, dict) or not isinstance(p, dict):
            n_diff += 1
            print(f"DIFF  {route}: change {c if isinstance(c, str) else 'ran'}; "
                  f"parent {p if isinstance(p, str) else 'ran'}")
            continue
        for item in sorted(set(c) | set(p)):
            verdict, scaled = compare_item(c[item], p[item]) if item in c and item in p else (
                "only on the change" if item in c else "only on the parent", None)
            if verdict == "equal":
                n_equal += 1
                continue
            n_diff += 1
            print(f"DIFF  {route}/{item}: {verdict}")
            if scaled is not None:
                scaled_devs.append((scaled, f"{route}/{item}"))
    n_routes = len(set(change) | set(parent))
    print(f"{n_equal} items bitwise equal, {n_diff} differing, over {n_routes} routes")
    if scaled_devs:
        scaled_devs.sort(key=lambda d: np.inf if np.isnan(d[0]) else d[0], reverse=True)
        top = "; ".join(f"{d:.3g} at {item}" for d, item in scaled_devs[:3])
        print(f"largest scaled deviations: {top}")
    return 0 if n_diff == 0 else 1


def _extract(commit: str, dest: str) -> None:
    cmd = ["git", "-C", REPO, "archive", "--format=tar", commit]
    tar = subprocess.run(cmd, check=True, capture_output=True)
    with tempfile.TemporaryFile() as fh:
        fh.write(tar.stdout)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as archive:
            archive.extractall(dest, filter="data")


def _spawn(src: str, out_file: str) -> subprocess.Popen:
    cmd = [sys.executable, os.path.abspath(__file__), "--collect", out_file, "--src", src]
    env = {**os.environ, **THREADS, "PYTHONPATH": src}
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent", nargs="?", help="commit to compare this checkout with")
    ap.add_argument("--collect", help=argparse.SUPPRESS)
    ap.add_argument("--src", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect:
        sys.path.insert(0, args.src)
        collect(args.collect)
        return 0
    if not args.parent:
        ap.error("name the parent commit")
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = os.path.join(tmp, "parent")
        _extract(args.parent, parent_dir)
        sides = {"change": os.path.join(REPO, "src"), "parent": os.path.join(parent_dir, "src")}
        procs = {
            side: _spawn(src, os.path.join(tmp, f"{side}.pkl"))
            for side, src in sides.items()
        }
        results = {}
        for side, proc in procs.items():
            log = proc.communicate()[0].decode(errors="replace")
            if proc.returncode != 0:
                print(f"the {side} run failed:\n{log}", file=sys.stderr)
                return 2
            with open(os.path.join(tmp, f"{side}.pkl"), "rb") as fh:
                results[side] = pickle.load(fh)
    return compare(results["change"], results["parent"])


if __name__ == "__main__":
    sys.exit(main())
