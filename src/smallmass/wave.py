"""Time integration of the damped stochastic wave system with mass mu.

The system is

    du = v dt,
    mu dv = (Lap u - gamma(u) v + f(u)) dt + sigma(u) dW,

integrated in sine coefficients.  Three first-order schemes are provided.

semi_implicit
    Solves the gamma-frozen coupled update through a factorized pair of
    implicit solves.  With r = mu*v_n + dt*(Lap u_n + f(u_n)) + sigma(u_n) dW,
    the velocity is

        v_{n+1} = [ mu * r_i / (mu + dt^2 alpha_i) ]  /  (mu + dt gamma(u_n))

    (diagonal spectral solve for the implicit Laplacian, then a per-node
    scalar solve for the implicit friction), and u_{n+1} = u_n + dt v_{n+1}.
    High modes are damped unconditionally, so the scheme tolerates stiff
    Laplacians at any mass.

eta_form (default)
    Evolves (u, eta) with eta = v + g(u)/mu, which absorbs the stiff
    gamma(u) v / mu coupling into the monotone map g.  The u-update treats g
    implicitly through Newton steps of u + (dt/mu) g(u) = u_n + dt eta_n
    (one step by default, matching first-order accuracy), after which the
    eta-update uses the Laplacian of the new u:

        eta_{n+1} = eta_n + (dt/mu)(Lap u_{n+1} + f(u_n)) + sigma(u_n) dW / mu.

    The staggered evaluation is subject to the wave CFL constraint
    dt <= 2 sqrt(mu / alpha_N).

resolvent_implicit
    Backward Euler through the nonlinear resolvent on z = (u, eta),
    z_{n+1} = J_dt(z_n + noise), with the noise added explicitly to the eta
    slot; J_dt is `resolvent.resolvent_apply`, which requires
    dt < lambda_bar of the operator.

Step policy.  `WaveSolver.max_dt()` is the one place that knows how large a
step the solver may take.  The eta drift carries a 1/mu factor, so every
scheme resolves the mass time scale: dt is at most c_stab times mu (C_STAB
by default, also the config default).  eta_form is further capped at 0.9 of
the wave CFL 2 sqrt(mu / alpha_N) of its staggered evaluation, and
resolvent_implicit at RESOLVENT_FRACTION of lambda_bar, where J_dt exists.
simulate() warns once when the driving path's step exceeds max_dt(); the
runner refines every wave path to it.

Every integrator of the package, wave, limit and finite-dimensional, runs on
the one time loop `drive`, defined here; the noise forcing of every scheme is
`noise.apply_noise`.  `g_coeffs` is the one conversion from u to g(u), and
`WaveSolver.g_over_mu` the one shift eta = v + g(u)/mu between v and eta.
An eta_form run recovers v after every step through u and g(u) at the nodes
and starts the next step from those values, which its first Newton iterate
needs, instead of computing them again; `step()` computes them afresh, with
the same bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import resolvent
from .basis import SpectralBasis
from .models import ModelSet
from .noise import NoisePath, PathBatch, apply_noise

SCHEMES = ("semi_implicit", "eta_form", "resolvent_implicit")
C_STAB = 0.5  # default c_stab: steps of at most C_STAB times mu resolve the mass time scale
RESOLVENT_FRACTION = 0.9  # resolvent_implicit steps stay below this fraction of lambda_bar


class SimulationDiverged(RuntimeError):
    """Raised when a state coefficient becomes non-finite."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite state at step {step} (t = {t:.6g})")
        self.step = step
        self.t = t


@dataclass
class WaveState:
    """Displacement/velocity pair in sine coefficients, with mass and clock."""

    u: np.ndarray
    v: np.ndarray
    mu: float
    t: float = 0.0


def g_coeffs(u: np.ndarray, basis: SpectralBasis, models: ModelSet) -> np.ndarray:
    """Sine coefficients of g(u), the friction antiderivative applied at the nodes."""
    return basis.analyze(_g_nodal(u, basis, models)[1])


def _g_nodal(u: np.ndarray, basis: SpectralBasis, models: ModelSet) -> tuple:
    """u and g(u) at the nodes, the values g_coeffs analyzes."""
    u_nodal = basis.synthesize(u)
    return u_nodal, models.g_map.forward(u_nodal)


@dataclass
class WaveTrajectory:
    """Output-grid samples plus running diagnostics of one (batched) run."""

    times: np.ndarray  # (n_out,)
    u: np.ndarray  # (n_out, ..., N)
    v: np.ndarray  # (n_out, ..., N)
    mu: float
    dt: float
    sup_u_h: np.ndarray  # running sup over every step, shape (...)
    sup_u_h1: np.ndarray
    sup_v_h: np.ndarray
    sup_energy: np.ndarray  # sup_t ( ||u||_{H1}^2 + mu ||v||_H^2 )
    int_u_h1_sq: np.ndarray  # int_0^T ||u||_{H1}^2 dt
    int_v_h_sq: np.ndarray  # int_0^T ||v||_H^2 dt


def _output_indices(n_steps: int, n_output: int) -> np.ndarray:
    return np.unique(np.round(np.linspace(0, n_steps, n_output + 1)).astype(int))


def drive(steppers: list, n_steps: int, dt: float, draw, n_output: int) -> tuple[np.ndarray, list]:
    """The time loop: advance the steppers in lock step, all on draw(k) at step k.

    A stepper's step(dbeta) advances its state in place and returns the state
    arrays, which must stay finite: SimulationDiverged is raised at the first
    step where one does not.  observe() then updates the stepper's running
    quantities, and record() returns the arrays kept on the output grid.
    Returns the output times and, per stepper, one (n_out, ...) array per
    recorded quantity.
    """
    idx = _output_indices(n_steps, n_output)
    outs = [[np.empty((len(idx),) + np.shape(a)) for a in s.record()] for s in steppers]

    def store(pos: int) -> None:
        for out, s in zip(outs, steppers):
            for o, a in zip(out, s.record()):
                o[pos] = a

    store(0)
    pos = 1
    for k in range(n_steps):
        dbeta = draw(k)
        for s in steppers:
            for a in s.step(dbeta):
                if not np.isfinite(a).all():
                    raise SimulationDiverged(step=k + 1, t=(k + 1) * dt)
            s.observe()
        if pos < len(idx) and k + 1 == idx[pos]:
            store(pos)
            pos += 1
    return idx * dt, outs


def _initial_state(value, shape: tuple) -> np.ndarray:
    """Own copy of an initial state broadcast to shape, e.g. one row per path of a batch."""
    return np.broadcast_to(np.asarray(value, dtype=float), shape).copy()


class WaveSolver:
    """Stepper bound to one basis/model set and one mass value.

    Stateless between calls apart from read-only precomputed arrays, so one
    instance may serve concurrent simulations.  All operations broadcast over
    leading batch axes of the coefficient arrays.
    """

    def __init__(
        self,
        basis: SpectralBasis,
        models: ModelSet,
        mu: float,
        scheme: str = "eta_form",
        c_stab: float = C_STAB,
        newton_iters: int = 1,
    ):
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        if mu <= 0:
            raise ValueError(f"mass must be positive, got {mu}")
        self.basis = basis
        self.models = models
        self.mu = mu
        self.scheme = scheme
        self.c_stab = c_stab
        self.newton_iters = newton_iters
        self._op = None
        if scheme == "resolvent_implicit":
            self._op = resolvent.OperatorA(basis, models, mass=mu)
        # The scheme step on (u, second), second being v, or eta for eta_form.
        self._advance = {
            "semi_implicit": self._step_semi_implicit,
            "eta_form": self._step_eta,
            "resolvent_implicit": self._step_resolvent,
        }[scheme]

    def max_dt(self) -> float:
        """The largest step this solver should take: c_stab * mu, capped by the scheme.

        eta_form is capped at 0.9 of the wave CFL 2 sqrt(mu / alpha_N), and
        resolvent_implicit at RESOLVENT_FRACTION of the resolvent range bound
        lambda_bar.
        """
        dt = self.c_stab * self.mu
        if self.scheme == "eta_form":
            dt = min(dt, 0.9 * 2.0 * np.sqrt(self.mu / self.basis.alphas[-1]))
        elif self.scheme == "resolvent_implicit":
            dt = min(dt, RESOLVENT_FRACTION * self._op.lambda_bar)
        return float(dt)

    def g_over_mu(self, u: np.ndarray) -> np.ndarray:
        """Coefficients of g(u)/mu, the shift between the velocity and eta = v + g(u)/mu."""
        return g_coeffs(u, self.basis, self.models) / self.mu

    # -- single steps ---------------------------------------------------------

    def _step_semi_implicit(self, u, v, dt, dbeta):
        b, m, mu = self.basis, self.models, self.mu
        u_nodal = b.synthesize(u)
        r = (
            mu * v
            + dt * (b.laplacian(u) + b.analyze(m.reaction.f(u_nodal)))
            + apply_noise(u_nodal, dbeta, m.diffusion, b)
        )
        w = mu * r / (mu + dt * dt * b.alphas)
        v_new = b.analyze(b.synthesize(w) / (mu + dt * m.friction.gamma(u_nodal)))
        return u + dt * v_new, v_new

    def _step_eta(self, u, eta, dt, dbeta, nodal=None):
        """The eta_form step; nodal is _g_nodal(u) when the caller holds it, else computed."""
        b, m, mu = self.basis, self.models, self.mu
        u_nodal, g_w = _g_nodal(u, b, m) if nodal is None else nodal
        target = u_nodal + dt * b.synthesize(eta)
        w = u_nodal
        for k in range(self.newton_iters):
            if k:
                g_w = m.g_map.forward(w)
            phi = w + (dt / mu) * g_w - target
            w = w - phi / (1.0 + (dt / mu) * m.friction.gamma(w))
        u_new = b.analyze(w)
        rhs = b.laplacian(u_new) + b.analyze(m.reaction.f(u_nodal))
        eta_new = eta + (dt / mu) * rhs + apply_noise(u_nodal, dbeta, m.diffusion, b) / mu
        return u_new, eta_new

    def _step_resolvent(self, u, v, dt, dbeta):
        b, m = self.basis, self.models
        eta = v + self.g_over_mu(u)
        if dbeta is not None and m.diffusion.sigma_sup != 0.0:  # spares synthesizing u
            eta = eta + apply_noise(b.synthesize(u), dbeta, m.diffusion, b) / self.mu
        # Called through the module, so a wrapper installed there (a tracer) sees it.
        u_new, eta_new = resolvent.resolvent_apply(self._op, (u, eta), dt)
        return u_new, eta_new - self.g_over_mu(u_new)

    def step(self, state: WaveState, dt: float, dbeta=None) -> WaveState:
        """Advance one step, accepting and returning the (u, v) representation."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if abs(state.mu - self.mu) > 1e-15 * max(1.0, self.mu):
            raise ValueError(f"state mass {state.mu} differs from the solver mass {self.mu}")
        if self.scheme == "eta_form":
            u, eta = self._step_eta(state.u, state.v + self.g_over_mu(state.u), dt, dbeta)
            v = eta - self.g_over_mu(u)
        else:
            u, v = self._advance(state.u, state.v, dt, dbeta)
        return WaveState(u=u, v=v, mu=state.mu, t=state.t + dt)

    # -- trajectories ---------------------------------------------------------

    def simulate(
        self,
        u0: np.ndarray,
        v0: np.ndarray,
        path: NoisePath | PathBatch,
        n_output: int = 200,
    ) -> WaveTrajectory:
        """Integrate over the full driving path, recording an output grid.

        For a PathBatch the leading axis of the state is the path index and
        the whole bundle advances in lock step; results are identical to
        running the member paths one at a time.
        """
        b, mu, dt = self.basis, self.mu, path.dt
        bound = self.max_dt()
        if dt > bound * (1.0 + 1e-12):
            warnings.warn(
                f"dt = {dt:.3g} exceeds the {self.scheme} step bound max_dt() = {bound:.3g}",
                RuntimeWarning,
                stacklevel=2,
            )
        inc = path.increments  # (N, K) or (P, N, K)
        shape = inc.shape[:-2] + (b.n_modes,)
        run = _WaveStepper(self, _initial_state(u0, shape), _initial_state(v0, shape), dt)
        times, [(u, v)] = drive([run], path.n_steps, dt, lambda k: inc[..., :, k], n_output)
        return WaveTrajectory(times=times, u=u, v=v, mu=mu, dt=dt, **run.norms)


class _WaveStepper:
    """One wave run for drive(): the scheme state, its velocity and the running norms."""

    def __init__(self, solver: WaveSolver, u: np.ndarray, v: np.ndarray, dt: float):
        self.solver, self.dt, self.u = solver, dt, u
        self.eta_mode = solver.scheme == "eta_form"
        self.second = v + solver.g_over_mu(u) if self.eta_mode else v
        nu, nu1, nv = self._norms()
        self.norms = {  # the running sups and time integrals of WaveTrajectory
            "sup_u_h": nu,
            "sup_u_h1": nu1,
            "sup_v_h": nv,
            "sup_energy": nu1**2 + solver.mu * nv**2,
            "int_u_h1_sq": np.zeros_like(nu),
            "int_v_h_sq": np.zeros_like(nu),
        }

    def _norms(self) -> tuple:
        """Set v, in eta mode keeping u and g(u) at the nodes for the next step.

        Returns ||u||_H, ||u||_H1 and ||v||_H.
        """
        s = self.solver
        if self.eta_mode:
            self.nodal = _g_nodal(self.u, s.basis, s.models)
            self.v = self.second - s.basis.analyze(self.nodal[1]) / s.mu
        else:
            self.v = self.second
        norm = s.basis.sobolev_norm
        return norm(self.u, 0.0), norm(self.u, 1.0), norm(self.v, 0.0)

    def step(self, dbeta) -> tuple:
        if self.eta_mode:
            step = self.solver._step_eta(self.u, self.second, self.dt, dbeta, self.nodal)
        else:
            step = self.solver._advance(self.u, self.second, self.dt, dbeta)
        self.u, self.second = step
        return step

    def observe(self) -> None:
        nu, nu1, nv = self._norms()
        n, mu, dt = self.norms, self.solver.mu, self.dt
        for key, new in (("sup_u_h", nu), ("sup_u_h1", nu1), ("sup_v_h", nv)):
            n[key] = np.maximum(n[key], new)
        n["sup_energy"] = np.maximum(n["sup_energy"], nu1**2 + mu * nv**2)
        n["int_u_h1_sq"] = n["int_u_h1_sq"] + dt * nu1**2
        n["int_v_h_sq"] = n["int_v_h_sq"] + dt * nv**2

    def record(self) -> tuple:
        return self.u, self.v
