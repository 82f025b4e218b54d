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
                 moves last bits is judged by.  A text artifact's size is
                 taken from its numbers outside the provenance (the `#`
                 lines of a CSV or .dat table, the config and config_sha256
                 entries of a JSON report), so a seed in a header sets no
                 scale.

It ends with the count of equal and differing items and a line naming the
three largest scaled deviations and their items (the runners-up show what a
residual that is roundoff on both sides would hide).  A route that raises on
one side is reported with the exception.  The exit status is 0 when every
item of every route is bitwise equal on both sides, else 1.

Route groups: the catalogue (3 wave schemes x path/batch x noisy/noise-free,
one and two wave steps, limit forms x drift x path/batch, single limit
steps, every friction model x diffusion factor through two steps of each
wave scheme and one step of each limit form, eta_form with two Newton
iterations per friction model, every coefficient of each friction preset, a
tabulated friction, each reaction and each diffusion factor on fixed nodal
values (gamma, gamma', g, g^-1 on its closed, Newton and bisection branches,
f, lambda_sigma, lambda_sigma', kappa and the limit's b_bar; the models.* routes),
the noise-induced drift H alone (models.noise_induced_drift) from the default models on one
nodal state and, at kappa = 1 as the fd limit steps it, on criterion 3's grid for each fd friction,
refinement of a path and a batch, fd coupled and single runs, the scalar Lyapunov solve, its
residual and the sweep's S on criterion 3's grid for each fd friction, every selftest check's name,
flag and detail, a stacked resolvent solve with
its per-row info, two lone solves that raise ResolventError (one that stops contracting, one
on a NaN row that never converges; each compared by its message, which names lam and the
last residual), the resolvent audit at criterion 4's size, every
`run_*` work function on small configs, the ladder study also with masses on three refinement
levels (converge with n_output below the step count, and the drift ablation), resolvent_implicit
ladders run one batch per level (the drift ablation on those levels, converge on the default
five masses, which share one level), fd-converge also
at 1001 paths and at criterion 3's config, three runs that diverge (an eta_form wave past its
CFL, an fd coupled run that overflows, a refined ladder batch given a NaN), each compared by
its SimulationDiverged message, which names the step and time), the default config of every
`run_*` work function (about a minute), the routes of the benchmark's
workloads (bench/workloads.py), and the basis's geometry: every initial kind and
the resolvent's constants at L = 1, 2 and pi, each scheme's max_dt where each of
its caps binds, the resolvent audit's states at decay 1.5 and 3, and the wave
schemes and u-form limit at L = 2, L = pi, q = 0.75 and N = 16 on 40 nodes.  A
step is `simulate` on a one- or two-step path, noisy or from `noise.zero_path`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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


def _model_set(basis, friction, reaction, diffusion):
    """A model set of a custom friction on either side: `models.build_model_set` where it
    exists, else `ModelSet`, which builds its own g_map."""
    from smallmass import models

    if hasattr(models, "build_model_set"):
        return models.build_model_set(basis, friction, reaction, diffusion)
    return models.ModelSet(friction, reaction, diffusion)


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


def _model_routes() -> dict:
    """Each friction model crossed with each diffusion factor: two steps of every wave scheme, a
    limit u-step and rho-step; and an eta_form run with two Newton iterations per friction."""
    from smallmass import noise
    from smallmass.config import make_basis, make_initial
    from smallmass.limit import LimitSolver
    from smallmass.models import (
        build_diffusion, friction_from_table, friction_preset, reaction_preset,
    )
    from smallmass.wave import SCHEMES, WaveSolver, g_coeffs

    table = np.linspace(-4.0, 4.0, 81)
    frictions = {
        "constant": lambda: friction_preset("constant", value=1.5),
        "two_plus_sin": lambda: friction_preset("two_plus_sin"),
        "bell": lambda: friction_preset("bell"),
        "tabulated": lambda: friction_from_table(table, 1.5 + np.cos(table) ** 2),
    }

    def setup(friction, diffusion):
        cfg = _cfg()
        basis = make_basis(cfg)
        u0, _ = make_initial(cfg, basis)
        models = _model_set(
            basis, frictions[friction](), reaction_preset("linear_decay"),
            build_diffusion(basis, factor=diffusion),
        )
        return basis, models, u0, 0.3 * u0

    routes = {}
    for friction in frictions:
        for diffusion in ("constant", "cosine", "zero"):

            def steps(friction=friction, diffusion=diffusion):
                basis, models, u0, v0 = setup(friction, diffusion)
                out = {}
                two = noise.sample_path(5, 2e-3, 1e-3, basis.n_modes)
                for scheme in SCHEMES:
                    traj = WaveSolver(basis, models, 0.01, scheme=scheme).simulate(u0, v0, two, n_output=2)
                    out[f"wave.{scheme}.u"], out[f"wave.{scheme}.v"] = traj.u, traj.v
                one = noise.sample_path(6, 1e-3, 1e-3, basis.n_modes)
                for form in ("u", "rho"):
                    initial = g_coeffs(u0, basis, models) if form == "rho" else u0
                    limit = LimitSolver(basis, models, form=form).simulate(initial, one, n_output=1)
                    out[f"limit.{form}"] = limit.coeffs[-1]
                return out

            routes[f"model_step.{friction}.{diffusion}"] = steps

        def newton(friction=friction):
            basis, models, u0, v0 = setup(friction, "cosine")
            batch = noise.sample_batch(3, 3, 0.01, 1e-3, basis.n_modes)
            solver = WaveSolver(basis, models, 0.01, scheme="eta_form", newton_iters=2)
            return _fields(solver.simulate(u0, v0, batch, n_output=5))

        routes[f"wave.eta_form.newton_iters=2.{friction}"] = newton
    return routes


def _coefficient_routes() -> dict:
    """Every coefficient of each friction, reaction and diffusion factor on fixed nodal values.

    Each model's coefficients are read through one Nodal of the values, as the
    integrators read them; g^-1 is taken at values that take its closed form,
    its Newton iteration and (where a Newton step leaves the bracket) its
    bisection fallback.
    """
    from smallmass.config import make_basis
    from smallmass.limit import LimitSolver
    from smallmass.models import (
        AntiderivativeMap, Nodal, build_diffusion, combined_drift,
        friction_from_table, friction_preset, reaction_preset, stratonovich_correction,
    )

    r = np.random.default_rng(21).normal(scale=3.0, size=(2, 33))
    table = np.linspace(-4.0, 4.0, 81)
    frictions = {
        "constant": (lambda: friction_preset("constant", value=1.5), {"closed": r}),
        "two_plus_sin": (lambda: friction_preset("two_plus_sin"),
                         {"newton": [0.3, -2.0, 40.0, -100.0], "bisection": [7.5]}),
        "bell": (lambda: friction_preset("bell"), {"newton": [0.3, -2.0, 7.5, 40.0]}),
        "bell_wide": (lambda: friction_preset("bell", gamma0=0.2, gamma1=5.0),
                      {"newton": [7.5, 40.0, -100.0], "bisection": [0.3, -2.0]}),
        "tabulated": (lambda: friction_from_table(table, 1.5 + np.cos(table) ** 2),
                      {"newton": [0.3, -2.0, 7.5, 40.0]}),
    }
    basis = make_basis(_cfg())  # L = 1, N = 16, M = 32

    def friction_route(build, inverse_at):
        def run():
            friction = build()
            g_map = AntiderivativeMap(friction)
            s = Nodal(r)
            out = {
                "gamma": friction.gamma(s), "gamma_prime": friction.gamma_prime(s),
                "g": g_map.forward(s), "g.values": g_map.forward(r),
            }
            for branch, y in inverse_at.items():
                out[f"g_inverse.{branch}"] = g_map.inverse(y)
            models = _model_set(
                basis, friction, reaction_preset("zero"), build_diffusion(basis, factor="cosine")
            )
            out["b_bar"] = LimitSolver(basis, models, form="rho").b_bar
            u = basis.synthesize(np.linspace(1.0, -0.5, 16))
            out["G"] = stratonovich_correction(u, friction, models.diffusion)
            out["H+G"] = combined_drift(Nodal(u), friction, models.diffusion)
            return out

        return run

    def reaction_route(name, options):
        def run():
            return {"f": reaction_preset(name, **options).f(Nodal(r))}

        return run

    def diffusion_route(factor, q):
        def run():
            diffusion = build_diffusion(basis, factor=factor, q=q)
            s = Nodal(r)
            out = {"lambda_sigma": diffusion.lambda_sigma(s),
                   "lambda_sigma_prime": diffusion.lambda_sigma_prime(s)}
            for name in ("kappa", "q_spectrum", "sigma_sup", "sigma_inf"):
                out[name] = getattr(diffusion, name)
            return out

        return run

    routes = {f"models.friction.{name}": friction_route(*spec) for name, spec in frictions.items()}
    reactions = (("zero", {}), ("linear_decay", {}), ("cubic_clipped", {}),
                 ("cubic_clipped", {"clip_radius": 0.3}))
    for name, options in reactions:
        label = name + "".join(f".{k}={v}" for k, v in options.items())
        routes[f"models.reaction.{label}"] = reaction_route(name, options)
    for factor in ("constant", "cosine", "zero"):
        for q in (1.0, 0.75):
            routes[f"models.diffusion.{factor}.q={q}"] = diffusion_route(factor, q)
    return routes


def _drift_routes() -> dict:
    """H alone: the SPDE limit's from the default models, the fd limit's S at kappa = 1."""
    from smallmass.config import make_basis, make_models, validate_config
    from smallmass.finite_dim import fd_scalar_system
    from smallmass.models import Nodal, noise_induced_drift

    def default():
        cfg = validate_config({})
        basis = make_basis(cfg)
        models = make_models(cfg, basis)
        f, d = models.friction, models.diffusion
        s = Nodal(basis.synthesize(np.linspace(1.0, -0.5, basis.n_modes)))
        return {"H": noise_induced_drift(f.gamma(s), f.gamma_prime(s), d.lambda_sigma(s), d.kappa)}

    def fd_grid(friction):
        def run():
            xs, out = np.linspace(-1.5, 1.5, 61), {}
            for sigma in (1.0, 1.3):
                system = fd_scalar_system(friction=friction, sigma_value=sigma)
                s = Nodal(xs)
                out[f"sigma={sigma}.S"] = noise_induced_drift(
                    system.friction.gamma(s), system.friction.gamma_prime(s), system.sigma(xs), 1.0
                )
            return out

        return run

    routes = {"models.noise_induced_drift.default": default}
    for friction in ("two_plus_sin", "constant"):
        routes[f"models.noise_induced_drift.fd.{friction}"] = fd_grid(friction)
    return routes


def _noise_routes() -> dict:
    from smallmass import noise

    def run():
        path = noise.sample_path(8, 0.01, 1e-3, 5)
        batch = noise.sample_batch(8, 3, 0.01, 1e-3, 5)
        members = [noise.sample_path(8 + j, 0.01, 1e-3, 5) for j in range(3)]
        return {
            "path": noise.refine_to(path, 3e-4).increments,
            "batch": noise.refine_to(batch, 3e-4).increments,
            "batch_members": np.stack([noise.refine_to(m, 3e-4).increments for m in members]),
            "odd_steps": noise.refine_to(noise.sample_path(8, 7e-3, 1e-3, 5), 3e-4).increments,
        }

    return {"noise.refine_to": run}


def _fd_routes() -> dict:
    from smallmass import finite_dim as fdm
    from smallmass.models import Nodal

    # Older commits draw (P, r_dim) increments and record (n_out, P, 1) trajectories.
    noise_fields = {f.name for f in dataclasses.fields(fdm.FDNoise)}
    r_dim = {"r_dim": 1} if "r_dim" in noise_fields else {}

    def noise_for(paths=200):
        return fdm.FDNoise(seed=9, dt=1e-3, n_steps=60, n_paths=paths, **r_dim)

    def x_of(traj):
        """The (n_out, P) trajectory, whichever shape the side records."""
        return traj.x.reshape(traj.x.shape[:2])

    routes = {}
    for eta in (False, True):
        for friction in ("two_plus_sin", "constant"):

            def coupled(eta=eta, friction=friction):
                system, nz = fdm.fd_scalar_system(friction=friction, sigma_value=1.2), noise_for()
                steppers = fdm.coupled_steppers(system, 1e-2, nz, 0.3, 0.1, eta_transform=eta)
                _, outs = fdm.drive_fd(steppers, nz, 10)
                names = ("inertial", "limit_S", "limit_noS")
                return {name: x for name, (x,) in zip(names, outs)}

            routes[f"fd.coupled.{friction}.eta={eta}"] = coupled

    def single():
        system, nz = fdm.fd_scalar_system(), noise_for(50)
        inertial = fdm.simulate_fd(system, 1e-2, nz, 0.3, 0.1, n_output=10)
        out = {f"{system.name}.inertial": x_of(inertial)}
        for with_s in (True, False):
            out[f"{system.name}.limit_S={with_s}"] = x_of(
                fdm.simulate_fd_limit(system, nz, 0.3, with_S=with_s, n_output=10)
            )
        out[f"{system.name}.drift_S"] = fdm.lyapunov_sweep(system, np.array([0.4]))["S"]
        return out

    routes["fd.single"] = single

    for friction in ("two_plus_sin", "constant"):

        def grid(friction=friction):
            """J and its residual from the 1x1 solve at each of criterion 3's 61 states, and the
            sweep's S there."""
            system, xs = fdm.fd_scalar_system(friction=friction), np.linspace(-1.5, 1.5, 61)
            out = {"J": [], "residual": []}
            for xv in xs:
                sig = system.sigma(xv)
                g = np.reshape(system.friction.gamma(Nodal(np.array([xv]))), (1, 1))
                rhs = np.reshape(sig * sig, (1, 1))
                j = fdm.solve_lyapunov(g, rhs)
                out["J"].append(j[0, 0])
                out["residual"].append(fdm.lyapunov_residual(g, j, rhs))
            return {**{k: np.array(v) for k, v in out.items()},
                    "drift_S": fdm.lyapunov_sweep(system, xs)["S"]}

        routes[f"lyapunov.grid.{friction}"] = grid
    return routes


def _selftest_routes() -> dict:
    """Every selftest check, by its index and name: its flag and its detail text."""

    def run():
        from smallmass.selftest import run_selftest

        out = {}
        for k, (name, ok, detail) in enumerate(run_selftest()):
            out[f"{k}.{name}.flag"], out[f"{k}.{name}.detail"] = np.asarray(ok), np.asarray(detail)
        return out

    return {"selftest": run}


def _resolvent_routes() -> dict:
    from smallmass.config import make_basis, make_models, validate_config
    from smallmass.resolvent import OperatorA, audit_operator, resolvent_apply

    def default_op():
        cfg = validate_config({})
        basis = make_basis(cfg)
        return OperatorA(basis, make_models(cfg, basis))

    def stacked():
        # rows that stop on different sweeps, one of them zero, on two leading axes
        basis, models, _, _ = _setup()
        op = OperatorA(basis, models)
        rng = np.random.default_rng(5)
        i = np.arange(1, basis.n_modes + 1)
        h1 = rng.normal(size=(2, 4, basis.n_modes)) / i**2 * np.array([1e-6, 1e-3, 1.0, 30.0])[:, None]
        h2 = rng.normal(size=(2, 4, basis.n_modes)) / i
        h1[1, 1], h2[1, 1] = 0.0, 0.0
        (u, eta), infos = resolvent_apply(op, (h1, h2), 0.05, return_info=True)
        out = {"u": u, "eta": eta}
        for k, info in enumerate(infos):
            out[f"{k}.iterations"], out[f"{k}.residual"] = info.iterations, info.residual
            out[f"{k}.contraction_ratios"] = info.contraction_ratios
        return out

    def audit():
        # criterion 4 of the acceptance suite
        result = audit_operator(default_op(), n_pairs=1000, lam=0.05,
                                lam_ladder=(0.1, 0.05, 0.02, 0.01), n_smooth=20, seed=2024)
        items = {}
        _flatten("audit", result, items)
        return items

    def lone_not_contracting():
        # g(u) = 50 u under a friction that declares gamma in [0.01, 0.01], so lambda_bar
        # admits a lam at which the fixed point expands: mode 1 grows, mode 16 first shrinks
        from smallmass.models import FrictionModel, build_diffusion, reaction_preset

        basis, _, _, _ = _setup()
        lying = FrictionModel(
            gamma=lambda s: np.full_like(s.u, 50.0), gamma_prime=lambda s: np.zeros_like(s.u),
            gamma0=0.01, gamma1=0.01, g_closed=lambda s: 50.0 * s.u,
        )
        models = _model_set(
            basis, lying, reaction_preset("linear_decay"), build_diffusion(basis, factor="zero")
        )
        op = OperatorA(basis, models)
        h1 = np.zeros(basis.n_modes)
        h1[0], h1[-1] = 1e-6, 0.1
        resolvent_apply(op, (h1, np.zeros(basis.n_modes)), 0.9 * op.lambda_bar)

    def lone_not_converging():
        basis, models, u0, v0 = _setup()
        h1 = u0.copy()
        h1[5] = np.nan
        resolvent_apply(OperatorA(basis, models), (h1, v0), 0.05)

    return {
        "resolvent.stacked_info": stacked,
        "resolvent.audit.criterion_4": audit,
        # each raises ResolventError: the same message on both sides means the same sweep
        "resolvent.lone.not_contracting": lone_not_contracting,
        "resolvent.lone.not_converging": lone_not_converging,
    }


def _divergence_routes() -> dict:
    """Runs that raise SimulationDiverged: the same message on both sides means the same step
    and time."""
    from smallmass import finite_dim as fdm, runner
    from smallmass.config import make_basis, make_models
    from smallmass.noise import zero_path
    from smallmass.wave import WaveSolver

    def eta_form():
        # the highest mode far above the staggered scheme's CFL
        cfg = _cfg({"model": {"friction": "two_plus_sin", "reaction": "zero", "diffusion": "zero"}})
        basis = make_basis(cfg)
        models = make_models(cfg, basis)
        u0 = np.zeros(16)
        u0[-1] = 1.0
        solver = WaveSolver(basis, models, 1e-8, scheme="eta_form", c_stab=1e12)
        solver.simulate(u0, np.zeros(16), zero_path(200.0, 1.0, 16), n_output=5)

    def fd_coupled():
        # b(x) = 1e200 x overflows the limit state at step 2
        system = dataclasses.replace(
            fdm.fd_scalar_system(friction="constant"), b=lambda x: 1e200 * x, sigma=lambda x: 0.0
        )
        nz = fdm.FDNoise(seed=0, dt=1e-2, n_steps=10, n_paths=3)
        fdm.drive_fd(fdm.coupled_steppers(system, 1.0, nz, 1.0, 0.0), nz, 5)

    def ladder_refined():
        # a NaN u on the 3rd fine step of a batch refined once
        real = WaveSolver._step_semi_implicit
        calls = []

        def blows_up(self, u, v, dt, dbeta):
            calls.append(dt)
            u, v = real(self, u, v, dt, dbeta)
            return (np.full_like(u, np.nan) if len(calls) == 3 else u), v

        cfg = _cfg({
            "domain": {"n_modes": 8, "n_nodes": 16},
            "time": {"t_final": 0.01, "dt": 5e-4, "n_output": 10, "c_stab": 0.25},
            "mu_ladder": [1e-3], "wave": {"scheme": "semi_implicit"}, "paths": 2,
        })
        WaveSolver._step_semi_implicit = blows_up
        try:
            runner.run_ladder_study(cfg)
        finally:
            WaveSolver._step_semi_implicit = real

    return {
        "diverged.wave.eta_form": eta_form,
        "diverged.fd.coupled": fd_coupled,
        "diverged.ladder.refined": ladder_refined,
    }


def _geometry_routes() -> dict:
    """What the basis's geometry feeds: initial states, step caps, the resolvent's constants and
    smooth states, and runs at other lengths, noise exponents and node counts."""
    from smallmass.config import make_basis, make_initial, make_models
    from smallmass.resolvent import OperatorA, sample_states
    from smallmass.wave import SCHEMES, WaveSolver

    lengths = (1.0, 2.0, np.pi)

    def setup(length):
        cfg = _cfg({"domain": {"length": length}})
        basis = make_basis(cfg)
        return basis, make_models(cfg, basis)

    def initial():
        out = {}
        for length in lengths:
            for kind in ("coeffs", "zero", "mode1", "bump"):
                ic = {"kind": kind, "amplitude": 0.7, "coeffs": list(np.linspace(1.0, -1.0, 16))}
                cfg = _cfg({"domain": {"length": length}, "initial": ic})
                out[f"L={length:.4g}.{kind}.u"], out[f"L={length:.4g}.{kind}.v"] = make_initial(
                    cfg, make_basis(cfg)
                )
        return out

    def max_dt():
        # c_stab binds at mu = 1e-3 and c_stab = 0.1, the wave CFL for eta_form at mu = 20, and
        # for resolvent_implicit lambda0 at c_stab = 0.5 and 1 / kappa_d at mu = 20 (L = 2, pi)
        out = {}
        for length in lengths:
            basis, models = setup(length)
            for scheme in SCHEMES:
                for mu in (1e-3, 0.05, 20.0):
                    for c_stab in (0.1, 0.5):
                        solver = WaveSolver(basis, models, mu, scheme=scheme, c_stab=c_stab)
                        out[f"L={length:.4g}.{scheme}.mu={mu}.c_stab={c_stab}"] = solver.max_dt()
        return out

    def operator():
        out = {}
        for length in lengths:
            basis, models = setup(length)
            for mass in (1e-3, 1.0, 20.0):
                op = OperatorA(basis, models, mass=mass)
                for name in ("kappa_d", "lambda0", "lambda_bar"):
                    out[f"L={length:.4g}.mass={mass}.{name}"] = getattr(op, name)
        return out

    def states():
        basis, _ = setup(1.0)
        return {f"decay={d}.{k}": z for d in (1.5, 3.0)
                for k, z in zip("ue", sample_states(basis, 5, seed=3, decay=d))}

    short = {"time": {"t_final": 0.01, "dt": 5e-4, "dt_limit": 5e-4, "n_output": 10}, "paths": 4,
             "mu_ladder": [0.05]}
    domains = {f"L={length:.4g}": {"domain": {"length": length}} for length in lengths[1:]}
    domains["q=0.75"] = {"model": {"q_exponent": 0.75}}
    domains["N=16.M=40"] = {"domain": {"n_modes": 16, "n_nodes": 40}}
    routes = {
        "geometry.make_initial": initial,
        "geometry.max_dt": max_dt,
        "geometry.operator_a": operator,
        "geometry.sample_states": states,
    }
    for label, domain in domains.items():
        for scheme in SCHEMES:
            routes[f"geometry.{label}.run_simulate_wave.{scheme}"] = _work(
                "run_simulate_wave", _cfg(short, domain, {"wave": {"scheme": scheme}})
            )
        routes[f"geometry.{label}.run_simulate_limit"] = _work(
            "run_simulate_limit", _cfg(short, domain)
        )
    audit = {"resolvent": {"n_pairs": 30, "n_smooth": 4}}
    routes["geometry.L=3.142.run_resolvent_audit"] = _work(
        "run_resolvent_audit", _cfg(audit, domains["L=3.142"])
    )
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
    from smallmass.config import validate_config

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
    routes["run_converge.jobs=2"] = _work("run_converge", _cfg(short, {"jobs": 2}))
    # resolvent_implicit mass batches, each joined across the two processes
    resolvent_jobs = {"wave": {"scheme": "resolvent_implicit"}, "jobs": 2}
    routes["run_scaling_audit.resolvent_implicit.jobs=2"] = _work(
        "run_scaling_audit", _cfg(short, resolvent_jobs)
    )
    # refined and unrefined masses on one ladder: 0.2 and 0.1 keep dt = 5e-4,
    # 1e-3 halves it once and 5e-4 twice
    two_levels = {"mu_ladder": [0.2, 0.1, 1e-3, 5e-4], "time": {"c_stab": 0.25}}
    resolvent_scheme = {"wave": {"scheme": "resolvent_implicit"}}
    routes["run_converge.two_levels"] = _work("run_converge", _cfg(short, two_levels))
    # records every fourth coarse step, so each record follows several refined sub-steps
    sparse = {"time": {"n_output": 5}}
    routes["run_converge.two_levels.n_output=5"] = _work(
        "run_converge", _cfg(short, two_levels, sparse)
    )
    # refined sub-steps scored against both limits, and the limits against each other
    routes["run_drift_ablation.two_levels"] = _work(
        "run_drift_ablation", _cfg(short, two_levels, {"ablation": {"mu": 1e-3}})
    )
    # resolvent_implicit ladders batched by level: 0.2 and 0.1 share one batch here,
    # and the default five masses share the coarse step on short
    routes["run_drift_ablation.resolvent_implicit.two_levels"] = _work(
        "run_drift_ablation",
        _cfg(short, two_levels, {"ablation": {"mu": 1e-3}}, resolvent_scheme),
    )
    routes["run_converge.resolvent_implicit.one_level"] = _work(
        "run_converge", _cfg(short, resolvent_scheme)
    )
    # one mass on the ladder: the judged ladder is the single ablation mass
    one_mass = {"mu_ladder": [0.01]}
    routes["run_drift_ablation.one_mass"] = _work(
        "run_drift_ablation", _cfg(short, ablation, one_mass)
    )
    for eta in (False, True):
        fd = {"fd": {"t_final": 0.02, "dt": 1e-3, "mu": 1e-2, "paths": 300, "eta_transform": eta}}
        routes[f"run_fd_converge.eta={eta}"] = _work("run_fd_converge", _cfg(fd))
        # an odd path count past numpy's 128-element pairwise-summation blocks
        routes[f"run_fd_converge.eta={eta}.paths=1001"] = _work(
            "run_fd_converge", _cfg(fd, {"fd": {"paths": 1001}})
        )
    # the run criterion 3 of the acceptance suite reads
    criterion_3 = validate_config({"seed": 42, "fd": {"dt": 5e-5, "eta_transform": True}})
    routes["run_fd_converge.criterion_3"] = _work("run_fd_converge", criterion_3)
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
    groups = (
        _wave_routes, _limit_routes, _model_routes, _coefficient_routes, _drift_routes,
        _noise_routes, _fd_routes, _resolvent_routes, _run_routes, _divergence_routes,
        _geometry_routes, _selftest_routes,
    )
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

# A number stands alone: the digits of a hex config hash ("ba5e48b8...") are no number 5e48.
_NUMBER = re.compile(rb"(?<![\w.])(?:[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])")


def _body(name: str, text: bytes) -> bytes:
    """A text artifact without its provenance: a table's # lines, a JSON report's config entries."""
    if name.endswith(".json"):
        doc = {k: v for k, v in json.loads(text).items() if k not in ("config", "config_sha256")}
        return json.dumps(doc).encode()
    if name.endswith((".csv", ".dat")):
        return b"\n".join(line for line in text.splitlines() if not line.startswith(b"#"))
    return text


def _deviations(a, b, body=None) -> tuple[float, float]:
    """Largest element-wise relative deviation, and the largest difference over the item's scale.

    The scale is the largest finite magnitude in body, by default in a and b.
    """
    a, b = np.asarray(a, dtype=float).ravel(), np.asarray(b, dtype=float).ravel()
    if not a.size:
        return 0.0, 0.0
    tiny = np.finfo(float).tiny
    size = np.maximum(np.abs(a), np.abs(b))
    scale = size if body is None else np.abs(np.asarray(body, dtype=float))
    finite = scale[np.isfinite(scale)]
    with np.errstate(invalid="ignore"):  # inf - inf, inf / inf: NaN, as the deviation should read
        diff = np.abs(a - b)
        diff[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
        moved = diff != 0.0
        rel = float(np.max(diff[moved] / np.maximum(size[moved], tiny), initial=0.0))
    return rel, float(np.max(diff) / max(float(np.max(finite, initial=0.0)), tiny))


def _numeric_verdict(a, b, body=None) -> tuple[str, float]:
    rel, scaled = _deviations(a, b, body)
    return f"max rel dev {rel:.3g}, scaled dev {scaled:.3g}", scaled


def compare_item(a, b, name: str = "") -> tuple[str, float | None]:
    """'equal', or what differs; with the scaled deviation when both are numbers.

    name is the item's name; a text artifact's suffix says where its provenance is.
    """
    if isinstance(a, bytes) and isinstance(b, bytes):
        if a == b:
            return "equal", None
        na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
        if _NUMBER.sub(b"#", a) == _NUMBER.sub(b"#", b) and len(na) == len(nb):
            body = _NUMBER.findall(_body(name, a)) + _NUMBER.findall(_body(name, b))
            return _numeric_verdict([float(x) for x in na], [float(x) for x in nb],
                                    [float(x) for x in body])
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
            if item in c and item in p:
                verdict, scaled = compare_item(c[item], p[item], item)
            else:
                verdict, scaled = "only on the change" if item in c else "only on the parent", None
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
