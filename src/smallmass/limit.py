"""Integrators for the limiting quasilinear parabolic equation.

Two equivalent formulations are integrated with the same stabilized
semi-implicit splitting.

u-form (the small-mass limit itself, the default for convergence studies):

    du = [ (1/gamma(u)) Lap u + f(u)/gamma(u) + H(u) ] dt + (sigma(u)/gamma(u)) dW,

where H is the noise-induced drift created by the state dependence of the
friction.  The diffusion coefficient 1/gamma(u) is split around the constant
b_bar = (1/gamma0 + 1/gamma1)/2: the b_bar part is treated implicitly
(diagonal spectral solve) and the remainder, whose magnitude never exceeds
(1/gamma0 - 1/gamma1)/2 < b_bar, explicitly.  That pinching gives
unconditional linear stability of the splitting.

rho-form (divergence form under the substitution rho = g(u)):

    d rho = [ Lap(g^-1(rho)) + F(rho) ] dt + sigma_g(rho) dW,

using div[b(rho) grad rho] = Lap(g^-1(rho)), with the same b_bar stabilizer:
implicit b_bar*Lap rho_{n+1} plus explicit (Lap g^-1(rho_n) - b_bar Lap rho_n).
No drift correction appears here; the quasilinear structure absorbs it, which
is what the dual-form consistency test exercises.

A solver advances the state of its own form, u or rho, in sine
coefficients, through its `stepper` only: `simulate` runs it on
`wave.drive` and records the trajectory, and the coupled ladder study runs
it in the same drive as the waves, scoring them against its current state
(a single step is simulate on a one-step path).  `wave.g_coeffs(u, basis,
models)` gives the rho0 that matches an initial u0.  Both forms take their
noise forcing from `noise.apply_noise`, the u-form with the 1/gamma weight.
A u-form step evaluates gamma, gamma' and lambda_sigma once each on one
nodal state of u (`models.Nodal`, so gamma' and lambda_sigma share a cos
where the presets do) and hands the values to the drift H and the noise; a
rho-form step takes f and lambda_sigma on the nodal state of g^-1(rho).

Drift rows.  with_drift is one bool, or a 1-D sequence of bools, one per
row of a (k, P, N) state on a batch of paths (the study's limits with and
without H), held as a (k, 1, 1) column as `wave.WaveSolver` holds masses;
the u-step computes H once and adds it in place to the rows with H only, so
a row without H keeps the bits of its other terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SpectralBasis
from .models import ModelSet, Nodal, noise_induced_drift
from .noise import NoisePath, apply_noise
from .wave import _initial_state, drive

FORMS = ("u", "rho")  # the state a solver advances: u itself, or rho = g(u)


@dataclass
class LimitTrajectory:
    times: np.ndarray
    coeffs: np.ndarray  # (n_out, ..., N) of u (form="u") or rho (form="rho")
    form: str
    dt: float
    sup_h: np.ndarray  # running sup_t ||.||_H over all steps


class LimitSolver:
    """Stepper for the limiting equation in either formulation.

    with_drift=False (a False drift row) drops the noise-induced drift H from
    the u-form; an ablation switch only, there is nothing to drop in the rho-form.
    """

    def __init__(
        self,
        basis: SpectralBasis,
        models: ModelSet,
        form: str = "u",
        with_drift: bool | tuple[bool, ...] = True,
    ):
        if form not in FORMS:
            raise ValueError(f"form must be one of {FORMS}, got {form!r}")
        rows = np.asarray(with_drift)
        if rows.dtype != bool or rows.ndim > 1 or rows.size == 0:
            raise ValueError(f"with_drift must be a bool or 1-D bools, got {with_drift!r}")
        self.basis = basis
        self.models = models
        self.form = form
        self.with_drift = with_drift
        self._drift = rows if rows.ndim == 0 else rows.reshape(-1, 1, 1)  # against nodal arrays
        self.b_bar = 0.5 * (1.0 / models.friction.gamma1 + 1.0 / models.friction.gamma0)
        self._advance = self._advance_u if form == "u" else self._advance_rho

    # -- steps ----------------------------------------------------------------

    def _advance_u(self, u: np.ndarray, dt: float, dbeta) -> np.ndarray:
        b, m = self.basis, self.models
        s = Nodal(b.synthesize(u))
        gam = m.friction.gamma(s)  # gamma and lambda_sigma once each, for every term
        ls = m.diffusion.lambda_sigma(s)
        lap_nodal = b.synthesize(b.laplacian(u))
        explicit = (1.0 / gam - self.b_bar) * lap_nodal + m.reaction.f(s) / gam
        if self._drift.any() and m.diffusion.sigma_sup != 0.0:
            h = noise_induced_drift(gam, m.friction.gamma_prime(s), ls, m.diffusion.kappa)
            np.add(explicit, h, out=explicit, where=self._drift)  # no-H rows keep their bits
        rhs = u + dt * b.analyze(explicit) + apply_noise(ls / gam, dbeta, m.diffusion, b)
        return rhs / (1.0 + dt * self.b_bar * b.alphas)

    def _advance_rho(self, rho: np.ndarray, dt: float, dbeta) -> np.ndarray:
        b, m = self.basis, self.models
        rho_nodal = b.synthesize(rho)
        s = Nodal(m.g_map.inverse(rho_nodal))
        lap_ginv = b.laplacian(b.analyze(s.u))
        explicit_sp = lap_ginv + self.b_bar * b.alphas * rho  # - b_bar*Lap rho_n
        rhs = (
            rho
            + dt * (explicit_sp + b.analyze(m.reaction.f(s)))
            + apply_noise(m.diffusion.lambda_sigma(s), dbeta, m.diffusion, b)
        )
        return rhs / (1.0 + dt * self.b_bar * b.alphas)

    # -- trajectories -----------------------------------------------------------

    def stepper(self, initial: np.ndarray, path: NoisePath) -> _SpdeLimitStepper:
        """The run from `initial` (u0 or rho0 per the form) on path, for drive(): one row per path."""
        if self._drift.ndim and path.increments.ndim != 3:
            raise ValueError("drift rows run on a batch of paths, one seed per row")
        shape = self._drift.shape[:1] + path.increments.shape[:-2] + (self.basis.n_modes,)
        return _SpdeLimitStepper(self, _initial_state(initial, shape), path.dt)

    def simulate(
        self,
        initial: np.ndarray,
        path: NoisePath,
        n_output: int = 200,
    ) -> LimitTrajectory:
        """Integrate over the driving path; `initial` is u0 or rho0 per the form."""
        run = self.stepper(initial, path)
        inc = path.increments
        times, [(out,)] = drive([run], path.n_steps, path.dt, lambda k: inc[..., :, k], n_output)
        return LimitTrajectory(times=times, coeffs=out, form=self.form, dt=path.dt, sup_h=run.sup_h)


class _SpdeLimitStepper:
    """One limit run for drive(): the state (u or rho) and its running sup of the H-norm."""

    def __init__(self, solver: LimitSolver, y: np.ndarray, dt: float):
        self.advance = solver._advance
        self.basis, self.y, self.dt = solver.basis, y, dt
        self.sup_h = self.basis.sobolev_norm(y, 0.0)

    def step(self, dbeta) -> tuple:
        self.y = self.advance(self.y, self.dt, dbeta)
        self.sup_h = np.maximum(self.sup_h, self.basis.sobolev_norm(self.y, 0.0))
        return (self.y,)

    def record(self) -> tuple:
        return (self.y,)
