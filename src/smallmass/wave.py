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
`WaveSolver.stepper` is the only way to step: `simulate` runs its stepper on
`drive` and records the trajectory, and the coupled ladder study runs it in
one drive with the limit, scoring it against the limit's state as it goes;
a single step is simulate on a one-step path (`noise.zero_path(dt, dt, N)`
without noise).  The stepper carries each scheme's own second variable, v
for semi_implicit and eta for eta_form and resolvent_implicit, and is the
one place v and eta are converted: it takes one nodal state of u0 and its
g, shifts v0 to eta by g(u0)/mu once, and after every step recovers v
through u and g(u) at the nodes.  Each step starts from the nodal state
(a `models.Nodal`) and g of its u: the first Newton iterate of eta_form
needs them, and both eta schemes take the noise factor lambda_sigma on that
state, so it reuses the cos that g took where the presets share one.  Every
scheme evaluates each coefficient once per nodal state; a Newton iterate is
a new state.

Mass batches.  The mass may be one number or a 1-D array of masses, one per
row of a (n_mu, P, N) state: the masses of a ladder that share a step then
advance together on one batch of paths, a NoisePath with a tuple of seeds
whose increments are (P, N, K).  The solver (and resolvent_implicit's
OperatorA) holds such a mass as shape (n_mu, 1, 1) against coefficient and
nodal arrays, and as (n_mu, 1) against per-path norms.  Under every scheme a
per-row mass takes a scalar's IEEE operations and every transform is
row-stable, so each mass of a batch equals its own scalar run bit for bit.

Recording.  A stepper is two methods: step() takes the whole step (it
advances the state, recovers v, updates the running norms and returns the
state), and `drive` calls record() once per output index, in order, from
index 0 before the first step, after every stepper has taken the step of
that index, allocating its outputs from that first record.  So record() may
read the other steppers' current state (the study folds each batch's
distance to the limit there and returns nothing to keep); its arrays must
keep their shapes.  `check_finite` is the one divergence test: drive applies
it to what step() returns, and a stepper of finer steps applies it to each.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import resolvent
from .basis import SpectralBasis
from .models import ModelSet, Nodal
from .noise import NoisePath, apply_noise

SCHEMES = ("semi_implicit", "eta_form", "resolvent_implicit")
C_STAB = 0.5  # default c_stab: steps of at most C_STAB times mu resolve the mass time scale
RESOLVENT_FRACTION = 0.9  # resolvent_implicit steps stay below this fraction of lambda_bar


class SimulationDiverged(RuntimeError):
    """Raised when a state coefficient becomes non-finite."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite state at step {step} (t = {t:.6g})")
        self.step = step
        self.t = t


def g_coeffs(u: np.ndarray, basis: SpectralBasis, models: ModelSet) -> np.ndarray:
    """Sine coefficients of g(u), the friction antiderivative applied at the nodes."""
    return basis.analyze(_g_nodal(u, basis, models)[1])


def _g_nodal(u: np.ndarray, basis: SpectralBasis, models: ModelSet) -> tuple:
    """The nodal state of u (a Nodal) and g(u) at the nodes, the values g_coeffs analyzes."""
    s = Nodal(basis.synthesize(u))
    return s, models.g_map.forward(s)


@dataclass
class WaveTrajectory:
    """Output-grid samples plus running diagnostics of one (batched) run."""

    times: np.ndarray  # (n_out,)
    u: np.ndarray  # (n_out, ..., N)
    v: np.ndarray  # (n_out, ..., N)
    mu: float | np.ndarray  # (n_mu, 1) for a mass batch
    dt: float
    sup_u_h: np.ndarray  # running sup over every step, shape (...)
    sup_u_h1: np.ndarray
    sup_v_h: np.ndarray
    sup_energy: np.ndarray  # sup_t ( ||u||_{H1}^2 + mu ||v||_H^2 )
    int_u_h1_sq: np.ndarray  # int_0^T ||u||_{H1}^2 dt


def _output_indices(n_steps: int, n_output: int) -> np.ndarray:
    """The steps drive() records after: n_output + 1 rounded even points of 0..n_steps, once each.

    The rounded grid never decreases, so keeping each index that differs from
    the one before it removes the repeats (np.unique would import numpy.ma).
    """
    idx = np.round(np.linspace(0, n_steps, n_output + 1)).astype(int)
    keep = np.ones(len(idx), dtype=bool)
    keep[1:] = idx[1:] != idx[:-1]
    return idx[keep]


def check_finite(arrays, step: int, dt: float) -> None:
    """Raise SimulationDiverged at step (time step * dt) unless every array is finite."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise SimulationDiverged(step=step, t=step * dt)


def drive(steppers: list, n_steps: int, dt: float, draw, n_output: int) -> tuple[np.ndarray, list]:
    """The time loop: advance the steppers in lock step, all on draw(k) at step k.

    A stepper's step(dbeta) takes the whole step and returns its state arrays:
    SimulationDiverged is raised at the first step where one is not finite.
    record() returns the arrays kept on the output grid (see "Recording" in
    the module docstring).  Returns the output times and, per stepper, one
    (n_out, ...) array per recorded quantity.
    """
    idx = _output_indices(n_steps, n_output)
    outs = []
    for s in steppers:
        first = s.record()
        outs.append([np.empty((len(idx),) + np.shape(a)) for a in first])
        for o, a in zip(outs[-1], first):
            o[0] = a

    pos = 1
    for k in range(n_steps):
        dbeta = draw(k)
        for s in steppers:
            check_finite(s.step(dbeta), k + 1, dt)
        if pos < len(idx) and k + 1 == idx[pos]:
            for out, s in zip(outs, steppers):
                for o, a in zip(out, s.record()):
                    o[pos] = a
            pos += 1
    return idx * dt, outs


def _initial_state(value, shape: tuple) -> np.ndarray:
    """Own copy of an initial state broadcast to shape, e.g. one row per path of a batch."""
    return np.broadcast_to(np.asarray(value, dtype=float), shape).copy()


class WaveSolver:
    """Stepper bound to one basis/model set and one mass, or one mass per batch row.

    Stateless between calls apart from read-only precomputed arrays, so one
    instance may serve concurrent simulations.  All operations broadcast over
    leading batch axes of the coefficient arrays.  A 1-D array of masses runs
    a (n_mu, P, N) batch, row k at mass mu[k], under every scheme (see the
    module docstring).
    """

    def __init__(
        self,
        basis: SpectralBasis,
        models: ModelSet,
        mu: float | np.ndarray,
        scheme: str = "eta_form",
        c_stab: float = C_STAB,
        newton_iters: int = 1,
    ):
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        masses = np.asarray(mu, dtype=float)
        if masses.ndim > 1 or masses.size == 0 or not np.all(masses > 0):
            raise ValueError(f"mass must be positive, got {mu}")
        if newton_iters < 1:
            raise ValueError(f"newton_iters must be at least 1, got {newton_iters}")
        self.basis = basis
        self.models = models
        # the mass against coefficient and nodal arrays, and against per-path norms
        self.mu = mu if masses.ndim == 0 else masses.reshape(-1, 1, 1)
        self.mu_paths = mu if masses.ndim == 0 else masses.reshape(-1, 1)
        self.scheme = scheme
        self.c_stab = c_stab
        self.newton_iters = newton_iters
        self._op = None
        if scheme == "resolvent_implicit":
            self._op = resolvent.OperatorA(basis, models, mass=self.mu)
        # The scheme step on (u, second, dt, dbeta[, nodal]): second is v for
        # semi_implicit and eta for the eta schemes, which also take nodal,
        # the nodal state of u and g(u) that _WaveStepper carries.
        self._advance = {
            "semi_implicit": self._step_semi_implicit,
            "eta_form": self._step_eta,
            "resolvent_implicit": self._step_resolvent,
        }[scheme]

    def max_dt(self) -> float:
        """The largest step this solver should take: c_stab * mu, capped by the scheme.

        eta_form is capped at 0.9 of the wave CFL 2 sqrt(mu / alpha_N), and
        resolvent_implicit at RESOLVENT_FRACTION of the resolvent range bound
        lambda_bar.  Every bound grows with mu, so a mass batch takes the
        bound of its smallest mass.
        """
        mu = np.min(self.mu)
        dt = self.c_stab * mu
        if self.scheme == "eta_form":
            dt = min(dt, 0.9 * 2.0 * np.sqrt(mu / self.basis.alphas.max()))
        elif self.scheme == "resolvent_implicit":
            dt = min(dt, RESOLVENT_FRACTION * self._op.lambda_bar)
        return float(dt)

    # -- single steps ---------------------------------------------------------

    def _step_semi_implicit(self, u, v, dt, dbeta):
        b, m, mu = self.basis, self.models, self.mu
        s = Nodal(b.synthesize(u))
        r = (
            mu * v
            + dt * (b.laplacian(u) + b.analyze(m.reaction.f(s)))
            + apply_noise(m.diffusion.lambda_sigma(s), dbeta, m.diffusion, b)
        )
        w = mu * r / (mu + dt * dt * b.alphas)
        v_new = b.analyze(b.synthesize(w) / (mu + dt * m.friction.gamma(s)))
        return u + dt * v_new, v_new

    def _step_eta(self, u, eta, dt, dbeta, nodal):
        b, m, mu = self.basis, self.models, self.mu
        s, g_w = nodal
        target = s.u + dt * b.synthesize(eta)
        w = s  # the Newton iterate; every iterate after the first is a new nodal state
        for k in range(self.newton_iters):
            if k:
                g_w = m.g_map.forward(w)
            phi = w.u + (dt / mu) * g_w - target
            w = Nodal(w.u - phi / (1.0 + (dt / mu) * m.friction.gamma(w)))
        u_new = b.analyze(w.u)
        rhs = b.laplacian(u_new) + b.analyze(m.reaction.f(s))
        noise = apply_noise(m.diffusion.lambda_sigma(s), dbeta, m.diffusion, b)
        eta_new = eta + (dt / mu) * rhs + noise / mu
        return u_new, eta_new

    def _step_resolvent(self, u, eta, dt, dbeta, nodal):
        m = self.models
        noise = apply_noise(m.diffusion.lambda_sigma(nodal[0]), dbeta, m.diffusion, self.basis)
        forced = eta + noise / self.mu
        # Called through the module, so a wrapper installed there (a tracer) sees it.
        return resolvent.resolvent_apply(self._op, (u, forced), dt)

    # -- trajectories ---------------------------------------------------------

    def stepper(self, u0: np.ndarray, v0: np.ndarray, path: NoisePath) -> _WaveStepper:
        """The run from (u0, v0) on path, for drive(): one row per path, and per mass of a batch.

        Warns once when the path's step exceeds max_dt().  A mass batch
        needs a batch of paths (a tuple seed): its state is (n_mu, P, N).
        """
        bound = self.max_dt()
        if path.dt > bound * (1.0 + 1e-12):
            warnings.warn(
                f"dt = {path.dt:.3g} exceeds the {self.scheme} step bound max_dt() = {bound:.3g}",
                RuntimeWarning,
                stacklevel=3,
            )
        inc = path.increments  # (N, K) or (P, N, K)
        if np.ndim(self.mu) and inc.ndim != 3:
            raise ValueError("a batch of masses runs on a batch of paths, one seed per row")
        shape = np.shape(self.mu)[:1] + inc.shape[:-2] + (self.basis.n_modes,)
        return _WaveStepper(self, _initial_state(u0, shape), _initial_state(v0, shape), path.dt)

    def simulate(
        self,
        u0: np.ndarray,
        v0: np.ndarray,
        path: NoisePath,
        n_output: int = 200,
    ) -> WaveTrajectory:
        """Integrate over the full driving path, recording an output grid.

        On a batch of paths (a tuple seed) the leading axis of the state is
        the path index and the whole bundle advances in lock step; results
        are identical to running each seed's path on its own.  A mass batch
        adds a leading mass axis, and equals its masses run one at a time.
        """
        run = self.stepper(u0, v0, path)
        inc = path.increments
        times, [(u, v)] = drive([run], path.n_steps, path.dt, lambda k: inc[..., :, k], n_output)
        return WaveTrajectory(times=times, u=u, v=v, mu=self.mu_paths, dt=path.dt, **run.norms)


def wave_norms(basis: SpectralBasis, u: np.ndarray, v: np.ndarray, mu) -> tuple:
    """||u||_H, ||u||_H1, ||v||_H and the energy K_mu = ||u||_H1^2 + mu ||v||_H^2."""
    norm = basis.sobolev_norm
    nu, nu1, nv = norm(u, 0.0), norm(u, 1.0), norm(v, 0.0)
    return nu, nu1, nv, nu1**2 + mu * nv**2


class _WaveStepper:
    """One wave run for drive(): the scheme state, its velocity and the running norms.

    The state is (u, v) for semi_implicit and (u, eta) for the eta schemes;
    the shift to eta happens once, here, from the g(u) that also recovers
    the initial v, and v is recovered after every step.
    """

    def __init__(self, solver: WaveSolver, u: np.ndarray, v: np.ndarray, dt: float):
        self.solver, self.dt, self.u = solver, dt, u
        self.eta_mode = solver.scheme != "semi_implicit"
        if self.eta_mode:  # eta = v + g(u)/mu, and v back through that one g(u)
            shift = self._shift()
            self.second = v + shift
            self.v = self.second - shift
        else:
            self.second = self.v = v
        nu, nu1, nv, energy = wave_norms(solver.basis, self.u, self.v, solver.mu_paths)
        self.norms = {  # the running sups and time integrals of WaveTrajectory
            "sup_u_h": nu,
            "sup_u_h1": nu1,
            "sup_v_h": nv,
            "sup_energy": energy,
            "int_u_h1_sq": np.zeros_like(nu),
        }

    def _shift(self) -> np.ndarray:
        """Coefficients of g(u)/mu, keeping the nodal state of u and g(u) for the next step."""
        s = self.solver
        self.nodal = _g_nodal(self.u, s.basis, s.models)
        return s.basis.analyze(self.nodal[1]) / s.mu

    def step(self, dbeta) -> tuple:
        if self.eta_mode:
            step = self.solver._advance(self.u, self.second, self.dt, dbeta, self.nodal)
            self.nodal = None  # spent: its u, g, sin and cos go before _shift() builds the next
        else:
            step = self.solver._advance(self.u, self.second, self.dt, dbeta)
        self.u, self.second = step
        self.v = self.second - self._shift() if self.eta_mode else self.second
        nu, nu1, nv, energy = wave_norms(self.solver.basis, self.u, self.v, self.solver.mu_paths)
        n = self.norms
        for key, new in (("sup_u_h", nu), ("sup_u_h1", nu1), ("sup_v_h", nv)):
            n[key] = np.maximum(n[key], new)
        n["sup_energy"] = np.maximum(n["sup_energy"], energy)
        n["int_u_h1_sq"] = n["int_u_h1_sq"] + self.dt * nu1**2
        return step

    def record(self) -> tuple:
        return self.u, self.v
