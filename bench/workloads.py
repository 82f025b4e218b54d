"""Workloads of the smallmass benchmark, their inputs and their correctness gate.

A workload is a list of routes; a route is one public work function of
`smallmass.runner` together with the JSON config overrides it runs on.  The
benchmark calls the routes from outside the package, exactly as the CLI does.

Inputs come from the workload seed only through the program seed, the `seed`
key of every route's config (the Monte Carlo noise realisation).  Program
seeds are drawn from a pool of POOL seeds per workload whose results were
recorded at the seed commit in `references.json`; every sample is compared
against its recorded reference, so the gate holds for any workload seed.

This module imports nothing from smallmass at import time, so the parent
process of a benchmark run can read workload names and seeds without paying
for the package import.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import struct
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(BENCH_DIR, "references.json")

POOL = 32
# BLAS/OpenMP threads of every sample: one, so that both sides of a comparison
# run the same arithmetic whatever the machine's CPU count.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Relative tolerance of the gate.  Recorded values are reproduced bit for bit
# on the recording machine; the slack absorbs last-digit differences of
# vectorised sin/cos and FFT code paths on other CPUs.
RTOL = 1e-8


@dataclass(frozen=True)
class Route:
    name: str  # label of the route's gated values
    work: str  # name of the smallmass.runner work function
    overrides: dict  # raw config overrides, validated at set-up


@dataclass(frozen=True)
class Workload:
    name: str
    seed_base: int
    seed_stride: int  # ladder64 uses paths seed..seed+63, so its pool seeds are 64 apart
    sizes: dict  # size name -> tuple of Routes

    def program_seed(self, workload_seed: int, sample: int) -> int:
        """Program seed of a run's sample: the pool in an order drawn from the workload seed."""
        order = random.Random(workload_seed).sample(range(POOL), POOL)
        return self.seed_base + self.seed_stride * order[sample % POOL]

    def pool(self) -> list[int]:
        return [self.seed_base + self.seed_stride * k for k in range(POOL)]


def _wave(scheme: str, t_final: float) -> dict:
    # mu = 1e-4 with c_stab = 0.25 forces two Brownian-bridge refinements
    # (dt 1e-4 -> 2.5e-5) and keeps dt below the resolvent range bound.
    return {
        "mu_ladder": [1e-4],
        "time": {"t_final": t_final, "c_stab": 0.25},
        "wave": {"scheme": scheme},
    }


def _single_path(wave_t: float, limit_t: float, audit: dict) -> tuple:
    return (
        Route("wave_eta", "run_simulate_wave", _wave("eta_form", wave_t)),
        Route("wave_semi", "run_simulate_wave", _wave("semi_implicit", wave_t)),
        Route("wave_resolvent", "run_simulate_wave", _wave("resolvent_implicit", wave_t)),
        Route("limit_u", "run_simulate_limit", {"time": {"t_final": limit_t}, "limit": {"form": "u"}}),
        Route("limit_rho", "run_simulate_limit", {"time": {"t_final": limit_t}, "limit": {"form": "rho"}}),
        Route("audit", "run_resolvent_audit", {"resolvent": audit}),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ladder64",
            seed_base=1000,
            seed_stride=64,
            sizes={
                "full": (Route("converge", "run_converge", {"time": {"t_final": 0.02}}),),
                "tiny": (Route("converge", "run_converge", {"time": {"t_final": 0.002}, "paths": 8}),),
            },
        ),
        Workload(
            name="fd_mc",
            seed_base=2000,
            seed_stride=1,
            sizes={
                "full": (Route("fd", "run_fd_converge", {"fd": {"t_final": 0.03}}),),
                "tiny": (Route("fd", "run_fd_converge", {"fd": {"t_final": 0.002, "paths": 200}}),),
            },
        ),
        Workload(
            name="single_path",
            seed_base=3000,
            seed_stride=1,
            sizes={
                "full": _single_path(0.005, 0.02, {"n_pairs": 200}),
                "tiny": _single_path(0.0005, 0.002, {"n_pairs": 10, "n_smooth": 4}),
            },
        ),
    )
}


# -- set-up and run phase (these import smallmass) ---------------------------------


def setup(workload: Workload, size: str, program_seed: int) -> list:
    """Set-up phase: import, config validation, basis/model construction.

    Returns the (route, validated config) pairs the run phase executes.  The
    work functions build their own basis and models again; that repeat is
    run time, as it is for every user call.
    """
    from smallmass import config

    prepared = []
    for route in workload.sizes[size]:
        cfg = config.validate_config({**route.overrides, "seed": program_seed})
        basis = config.make_basis(cfg)
        config.make_models(cfg, basis)
        config.make_initial(cfg, basis)
        prepared.append((route, cfg))
    return prepared


def run(prepared: list, out_dir: str) -> list:
    """Run phase: call each route's work function as smallmass.runner.<work>."""
    from smallmass import runner

    return [(route, cfg, getattr(runner, route.work)(cfg, out_dir)) for route, cfg in prepared]


def _refined_steps(t_final: float, dt: float, dt_max: float) -> int:
    """Steps of a path of step dt after halving until dt <= dt_max (as noise.refine_to)."""
    steps = int(round(t_final / dt))
    while dt > dt_max * (1.0 + 1e-12):
        dt *= 0.5
        steps *= 2
    return steps


def path_steps(route: Route, cfg: dict) -> int:
    """Paths x steps summed over the integrators one route runs."""
    t = cfg["time"]
    if route.work == "run_converge":
        steps = sum(
            _refined_steps(t["t_final"], t["dt"], min(t["dt"], t["c_stab"] * mu))
            for mu in cfg["mu_ladder"]
        )
        steps += int(round(t["t_final"] / t["dt"]))  # the limit integrator
        return cfg["paths"] * steps
    if route.work == "run_fd_converge":
        fd = cfg["fd"]
        return 3 * fd["paths"] * int(round(fd["t_final"] / fd["dt"]))
    if route.work == "run_simulate_wave":
        mu = cfg["mu_ladder"][0]
        return _refined_steps(t["t_final"], t["dt"], min(t["dt"], t["c_stab"] * mu))
    if route.work == "run_simulate_limit":
        return int(round(t["t_final"] / t["dt_limit"]))
    return 0  # the resolvent audit integrates nothing


# -- correctness gate ------------------------------------------------------------


def _last_row(csv_path: str) -> dict:
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return {k: float(v) for k, v in rows[-1].items()}


def _endpoint(bin_path: str) -> dict:
    """Final state of a trajectory dump: its coefficient norm and first two coefficients.

    The sup-norms of a decaying trajectory are often attained at t = 0, so
    the final state is what shows a change in the dynamics.  The dump format
    (header n_times, n_modes; times; coefficients) is parsed here rather than
    through the package, so the gate does not rely on the code it checks.
    """
    with open(bin_path, "rb") as fh:
        n_times, n_modes = struct.unpack("<qq", fh.read(16))
        fh.seek(16 + 8 * n_times + 8 * n_modes * (n_times - 1))
        last = struct.unpack(f"<{n_modes}d", fh.read(8 * n_modes))
    return {
        "end.norm": math.sqrt(sum(c * c for c in last)),
        "end.b1": last[0],
        "end.b2": last[1],
    }


def gated_values(route: Route, result: dict, out_dir: str) -> dict:
    """The values of one route's result that the gate compares with its reference."""
    rep = result["report"]
    out = {}
    if route.work == "run_converge":
        conv = rep["report"]
        for d in conv["distances"]:
            out[f"mean[mu={d['mu']!r}]"] = d["mean"]
        for k, v in conv["flags"].items():
            out[f"flag.{k}"] = v
        for k, v in rep["scaling_audit"]["flags"].items():
            out[f"scaling.{k}"] = v
    elif route.work == "run_fd_converge":
        for side in ("with_S", "without_S"):
            out[f"{side}.mean_diff"] = rep[side]["mean_diff"][0]
            out[f"{side}.z"] = rep[side]["z"]
        last = _last_row(os.path.join(out_dir, "fd_means.csv"))
        for k in ("mean_inertial", "mean_limit", "mean_limit_noS"):
            out[f"endpoint.{k}"] = last[k]
    elif route.work == "run_simulate_wave":
        for k in ("sup_u_h", "sup_u_h1", "sup_v_h"):
            out[k] = rep[k]
        out.update(_endpoint(os.path.join(out_dir, "wave_u.bin")))
    elif route.work == "run_simulate_limit":
        out["sup_h"] = rep["sup_h"]
        out.update(_endpoint(os.path.join(out_dir, f"limit_{rep['form']}.bin")))
    elif route.work == "run_resolvent_audit":
        for k, v in rep["flags"].items():
            out[f"flag.{k}"] = v
    else:
        raise ValueError(f"no gated values defined for {route.work}")
    out["ok"] = result["ok"]
    return {f"{route.name}.{k}": _plain(v) for k, v in out.items()}


def _plain(v):
    """JSON-native copy of a gated value (numpy scalars become Python ones)."""
    v = v.item() if hasattr(v, "item") else v
    return v if isinstance(v, (bool, int)) else float(v)


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def check(values: dict, reference: dict | None) -> tuple[bool, float, list]:
    """Compare gated values with their reference.

    Floats must agree to relative tolerance RTOL; flags and counts must be
    equal.  Returns (passed, worst relative deviation, mismatch descriptions);
    a flag mismatch or a missing value counts as relative deviation 1.
    """
    if reference is None:
        return False, 1.0, ["no reference recorded for this program seed"]
    worst = 0.0
    bad = []
    for key in sorted(set(values) | set(reference)):
        if key not in values or key not in reference:
            worst = max(worst, 1.0)
            bad.append(f"{key}: present in only one of result and reference")
            continue
        got, ref = values[key], reference[key]
        if isinstance(ref, float) and not isinstance(got, bool):
            dev = abs(got - ref) / max(abs(ref), 1e-300)
            if math.isnan(dev):
                dev = 1.0
        else:
            dev = 0.0 if (type(got) is type(ref) and got == ref) else 1.0
        worst = max(worst, dev)
        if dev > RTOL:
            bad.append(f"{key}: got {got!r}, reference {ref!r}")
    return not bad, worst, bad
