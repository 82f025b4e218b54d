"""Finite-dimensional small-mass theory: Lyapunov drift and coupled SDE runs.

For the scalar inertial system

    dx = v dt,        mu dv = [b(x) - gamma(x) v] dt + sigma(x) dW,

with friction gamma >= gamma0 > 0, the small-mass limit is

    dx = [ b(x) / gamma(x) + S(x) ] dt + sigma(x) / gamma(x) dW,

where the noise-induced drift is S(x) = d/dx[ 1/gamma(x) ] J(x) and J
solves the Lyapunov equation J gamma + gamma J = sigma^2, so
J = sigma^2 / (2 gamma) and S = -gamma' sigma^2 / (2 gamma^3) (the scalar
case of Hottovy, McDaniel, Volpe and Wehr, CMP 2015).

The friction is a `models.FrictionModel`: it gives gamma, gamma' and, through
`models.AntiderivativeMap`, the antiderivative G of gamma, all taken on one
`models.Nodal` of the state per step.  The Lyapunov solve takes a symmetric
positive definite gamma of any dimension through one eigendecomposition, with
the residual checked on every call.  `lyapunov_sweep` is the one route from
it to S: it runs a grid of states (`smallmass lyapunov`, criterion 3; a single
point is a one-state sweep) with one 1x1 solve per state, giving J, its
residual and S from that J times a relative central difference of 1/gamma
with step 1e-5.  The limit integrator's S is the SPDE limit's H at kappa = 1,
`models.noise_induced_drift` with sigma as lambda_sigma.

Monte Carlo runs step a (P,) state, one value per path, with elementwise
products, on (P,) increments from a counter-based generator keyed by (seed,
step): the inertial and limit integrators consume identical noise at the
same step size (common random numbers), and reruns are bit-identical.  The
one coupled route is `coupled_steppers` (the inertial system and the limit
with and without S) advanced in lock step on one draw per step by
`drive_fd`, through the package's one time loop `wave.drive`; wrapped in
steppers whose record() reduces over paths, as in `runner.run_fd_converge`,
the run keeps only what it reports, and `compare_endpoints` turns the final
states into the z-scores criterion 3 and `fd-converge` read.
`simulate_fd` and `simulate_fd_limit` run one integrator alone and return
its (n_out, P) trajectory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import mean_se
from .models import AntiderivativeMap, FrictionModel, Nodal, friction_preset, noise_induced_drift
from .noise import check_fields, philox_stream
from .wave import C_STAB, _initial_state, drive

FD_STEP_REL = 1e-5
FD_N_OUTPUT = 200  # output intervals of an fd run unless the caller names another count
LYAPUNOV_RTOL = 1e-10  # bound on solve_lyapunov's relative residual and gamma's asymmetry


class LyapunovError(RuntimeError):
    """Raised when gamma's spectrum is not positive or the residual check fails."""


@dataclass(frozen=True)
class FDSystem:
    """A scalar system: the drift b and noise sigma, and the friction model.

    b and sigma map a (P,) state to values that broadcast against it; the
    friction's gamma and gamma' do the same, and its antiderivative G
    (models.AntiderivativeMap) drives the transformed inertial integrator.
    """

    b: Callable[[np.ndarray], np.ndarray | float]
    friction: FrictionModel
    sigma: Callable[[np.ndarray], np.ndarray | float]
    name: str = "custom"


def solve_lyapunov(gamma_x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve J gamma + gamma J = rhs at any dimension: J = V [(V^T rhs V)_ij / (l_i + l_j)] V^T.

    gamma = V diag(l) V^T must be symmetric to LYAPUNOV_RTOL (relative Frobenius norm), else a
    ValueError; a spectrum that is not positive or a residual above it is a LyapunovError.
    """
    g = np.asarray(gamma_x, dtype=float)
    c = np.asarray(rhs, dtype=float)
    d = g.shape[0]
    if g.shape != (d, d) or c.shape != (d, d):
        raise ValueError("gamma and rhs must be square matrices of equal size")
    asym = np.linalg.norm(g - g.T) / max(np.linalg.norm(g), 1e-300)
    if asym > LYAPUNOV_RTOL:
        raise ValueError(f"gamma must be symmetric: relative asymmetry {asym:.3e}")
    lam, v = np.linalg.eigh(g)
    if not lam.min() > 0:
        raise LyapunovError(f"gamma spectrum not positive: least eigenvalue {lam.min():.3e}")
    j = v @ ((v.T @ c @ v) / (lam[:, None] + lam[None, :])) @ v.T
    residual = lyapunov_residual(g, j, c)
    if residual > LYAPUNOV_RTOL:
        raise LyapunovError(f"Lyapunov residual {residual:.3e} exceeds {LYAPUNOV_RTOL:.1e}")
    return j


def lyapunov_residual(gamma_x: np.ndarray, j: np.ndarray, rhs: np.ndarray) -> float:
    """Relative Frobenius residual of a candidate solution."""
    g = np.asarray(gamma_x, dtype=float)
    return float(
        np.linalg.norm(j @ g.T + g @ j - rhs) / max(np.linalg.norm(rhs), 1e-300)
    )


def lyapunov_sweep(system: FDSystem, xs) -> dict[str, np.ndarray]:
    """The columns x, J, residual and S at the states xs, from one Lyapunov solve per state.

    J solves J gamma + gamma J = sigma^2 on the 1x1 matrices at x, and S = d/dx[1/gamma] J
    takes that J and a relative central difference of 1/gamma.  A point x is the one-state
    sweep [x], whose S column is a (1,) array.
    """
    xs = np.asarray(xs, dtype=float)
    gamma = system.friction.gamma
    cols = {"J": [], "residual": [], "S": []}
    for x in xs.reshape(-1, 1):
        sig = system.sigma(x)
        g, rhs = np.reshape(gamma(Nodal(x)), (1, 1)), np.reshape(sig * sig, (1, 1))
        j = solve_lyapunov(g, rhs)
        h = FD_STEP_REL * max(1.0, abs(float(x[0])))
        slope = (1.0 / gamma(Nodal(x + h)) - 1.0 / gamma(Nodal(x - h))) / (2.0 * h)
        cols["J"].append(j[0, 0])
        cols["residual"].append(lyapunov_residual(g, j, rhs))
        cols["S"].append(slope[0] * j[0, 0])
    return {"x": xs, **{k: np.asarray(v) for k, v in cols.items()}}


# -- noise ---------------------------------------------------------------------


@dataclass(frozen=True)
class FDNoise:
    """Per-step standard-normal increments, keyed by (seed, step).

    increments(k) returns the same (n_paths,) draw for a given seed no
    matter which integrator consumes it, or in which order the steps are
    drawn; prefixes are stable under enlarging n_paths.
    """

    seed: int
    dt: float
    n_steps: int
    n_paths: int

    def __post_init__(self) -> None:
        check_fields("invalid FDNoise", dt=self.dt, n_steps=self.n_steps, n_paths=self.n_paths)

    def increments(self, k: int, gen: np.random.Generator | None = None) -> np.ndarray:
        """Step k's draw; given gen, a Philox generator, re-keys it instead of building one.

        A re-keyed generator draws what a freshly built one would
        (noise.philox_stream), so the draw does not depend on gen.
        """
        key = np.array(
            [np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(k)], dtype=np.uint64
        )
        return philox_stream(key, gen).normal(0.0, np.sqrt(self.dt), self.n_paths)


@dataclass
class FDTrajectory:
    times: np.ndarray  # (n_out,)
    x: np.ndarray  # (n_out, P)
    dt: float
    mu: float | None = None


class _FDStepper:
    """drive() protocol shared by the fd steppers: the (P,) position x is checked and recorded."""

    def record(self) -> tuple:
        return (self.x,)


class _InertialStepper(_FDStepper):
    """Euler-Maruyama for the inertial system in (x, v), or in (x, p) with eta_transform."""

    def __init__(self, system, mu, noise, x0, v0, eta_transform):
        if mu <= 0:
            raise ValueError("mass must be positive")
        if noise.dt > C_STAB * mu * (1.0 + 1e-12) and not eta_transform:
            warnings.warn(
                f"dt = {noise.dt:.3g} exceeds C_STAB*mu = {C_STAB * mu:.3g} for the inertial system",
                RuntimeWarning,
                stacklevel=3,
            )
        self.system, self.mu, self.dt, self.eta_transform = system, mu, noise.dt, eta_transform
        self.x = _initial_state(x0, (noise.n_paths,))
        self.v = _initial_state(v0, (noise.n_paths,))
        if eta_transform:
            self.g_antideriv = AntiderivativeMap(system.friction).forward
            self.p = mu * self.v + self.g_antideriv(self.x)

    def step(self, dw: np.ndarray) -> tuple:
        system, mu, dt, x = self.system, self.mu, self.dt, self.x
        s = Nodal(x)
        if self.eta_transform:
            gam = system.friction.gamma(s)
            x_new = x + dt * (self.p - self.g_antideriv(s)) / mu / (1.0 + dt * gam / mu)
            self.p = self.p + dt * system.b(x) + system.sigma(x) * dw
            self.x = x_new
        else:
            acc = system.b(x) - system.friction.gamma(s) * self.v
            forcing = system.sigma(x) * dw
            self.x = x + dt * self.v
            self.v = self.v + (dt / mu) * acc + forcing / mu
        return (self.x,)


class _LimitStepper(_FDStepper):
    """Euler-Maruyama for the limit SDE; with_S=False ablates the extra drift."""

    def __init__(self, system, noise, x0, with_S):
        self.system, self.dt, self.with_S = system, noise.dt, with_S
        self.x = _initial_state(x0, (noise.n_paths,))

    def step(self, dw: np.ndarray) -> tuple:
        system, x = self.system, self.x
        s = Nodal(x)
        g, sig = system.friction.gamma(s), system.sigma(x)
        ginv = 1.0 / g
        drift = ginv * system.b(x)
        if self.with_S:  # S = -gamma'/gamma^2 * sigma^2/(2 gamma): H at kappa = 1
            drift = drift + noise_induced_drift(g, system.friction.gamma_prime(s), sig, 1.0)
        forcing = ginv * sig * dw
        self.x = x + self.dt * drift + forcing
        return (self.x,)


def coupled_steppers(system: FDSystem, mu: float, noise: FDNoise, x0, v0, eta_transform=False):
    """The inertial stepper, the limit with S and the limit without S, on one noise.

    drive_fd advances them in lock step; each holds its current (P,)
    state as x.
    """
    return [
        _InertialStepper(system, mu, noise, x0, v0, eta_transform),
        _LimitStepper(system, noise, x0, with_S=True),
        _LimitStepper(system, noise, x0, with_S=False),
    ]


def drive_fd(steppers: list, noise: FDNoise, n_output: int) -> tuple[np.ndarray, list]:
    """drive() the steppers on noise.increments: the output times and each stepper's records.

    The run owns one Philox generator, re-keyed for every step.
    """
    gen = np.random.Generator(np.random.Philox())
    return drive(steppers, noise.n_steps, noise.dt, lambda k: noise.increments(k, gen), n_output)


def simulate_fd(
    system: FDSystem,
    mu: float,
    noise: FDNoise,
    x0,
    v0,
    n_output: int = FD_N_OUTPUT,
    eta_transform: bool = False,
) -> FDTrajectory:
    """Euler-Maruyama for the inertial system, vectorized over paths.

    eta_transform=True integrates the non-stiff pair (x, p) with
    p = mu v + G(x), G' = gamma (models.AntiderivativeMap), treating G implicitly
    through one Newton step in the x-update.
    """
    stepper = _InertialStepper(system, mu, noise, x0, v0, eta_transform)
    times, [(x,)] = drive_fd([stepper], noise, n_output)
    return FDTrajectory(times=times, x=x, dt=noise.dt, mu=mu)


def simulate_fd_limit(
    system: FDSystem,
    noise: FDNoise,
    x0,
    with_S: bool = True,
    n_output: int = FD_N_OUTPUT,
) -> FDTrajectory:
    """Euler-Maruyama for the limit SDE; with_S=False ablates the extra drift."""
    times, [(x,)] = drive_fd([_LimitStepper(system, noise, x0, with_S)], noise, n_output)
    return FDTrajectory(times=times, x=x, dt=noise.dt)


@dataclass
class FDCompareReport:
    """Endpoint statistics of a coupled inertial-vs-limit study."""

    n_paths: int
    diff_mean: float  # mean of per-path differences
    diff_se: float  # standard error of that mean (coupled)
    z_score: float  # |diff_mean| / diff_se
    z_combined: float  # |diff_mean| / sqrt(var_a/n + var_b/n), as if the runs were independent


def compare_endpoints(xa: np.ndarray, xb: np.ndarray) -> FDCompareReport:
    """Statistics of two coupled runs' (P,) final states, path by path and as two samples."""
    diff = xa - xb
    n = diff.shape[0]
    diff_mean, diff_se = map(float, mean_se(diff))
    se_combined = float(np.sqrt(xa.var(ddof=1) / n + xb.var(ddof=1) / n))
    return FDCompareReport(
        n_paths=n,
        diff_mean=diff_mean,
        diff_se=diff_se,
        z_score=abs(diff_mean) / max(diff_se, 1e-300),
        z_combined=abs(diff_mean) / max(se_combined, 1e-300),
    )


# -- presets ---------------------------------------------------------------------


# fd_scalar_system friction names and their options in models.friction_preset.
_FD_FRICTIONS = {"two_plus_sin": {}, "constant": {"value": 2.0}}


def fd_scalar_system(friction: str = "two_plus_sin", sigma_value: float = 1.0) -> FDSystem:
    """The system with zero drift, gamma(x) = 2 + sin x (or constant 2) and constant sigma.

    The friction is the registry preset's model (models.friction_preset).
    """
    if friction not in _FD_FRICTIONS:
        raise ValueError(f"unknown scalar friction {friction!r}")
    model = friction_preset(friction, **_FD_FRICTIONS[friction])
    sigma_value = float(sigma_value)
    return FDSystem(
        b=lambda x: 0.0, friction=model, sigma=lambda x: sigma_value, name=f"scalar_{friction}"
    )
