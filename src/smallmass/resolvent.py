"""Nonlinear resolvent and Yosida approximation of the first-order-form operator.

With z = (u, eta) and mass mu, the drift operator of the transformed wave
system is

    A(u, eta) = ( -g(u)/mu + eta ,  (Lap u + f(u))/mu ),

considered on the product space with the H x H^-1 inner product

    <z1, z2> = <u1, u2>_H + <eta1, eta2>_{H^-1}.

A is quasi-dissipative: <A(z1)-A(z2), z1-z2> <= kappa_d ||z1-z2||^2.  The
constant is computed, not assumed, from the Young-inequality chain

    kappa_d = c_f^2 / (4 gamma0 alpha_1) + c_f / sqrt(alpha_1),

with c_f the reaction Lipschitz constant (the second term is slack kept for
the sampled audits).  The resolvent equation z - lam A(z) = h reduces to a
scalar fixed point for u:

    u = Gamma_lam(u) = (I - (lam^2/mu) Lap)^-1 [ -(lam/mu) g(u)
                         + (lam^2/mu) f(u) + h1 + lam h2 ],

a contraction with measured factor ~ (lam/mu)(gamma1 + lam c_f); afterwards
eta = h2 + (lam/mu)(Lap u + f(u)).  The Yosida approximant is
A^lam(z) = (J_lam(z) - z)/lam, which is Lipschitz, quasi-dissipative with
constant kappa_d/(1 - lam kappa_d), and converges to A(z) as lam -> 0.

The calibrated constants (kappa_d, lambda0) are implementation choices and
are flagged as calibrated in audit reports.

The backward-Euler wave scheme z_{n+1} = J_dt(z_n + noise) is the
"resolvent_implicit" scheme of `wave.WaveSolver`, which calls
`resolvent_apply`; this module does not depend on the wave module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SpectralBasis
from .models import ModelSet


TOL = 1e-10  # the fixed point stops when its H-norm update drops below TOL
MAX_ITER = 200  # iteration cap of the fixed point


class ResolventError(RuntimeError):
    """Fixed-point failure (non-contraction or iteration cap exceeded)."""


@dataclass
class SolveInfo:
    iterations: int
    residual: float
    contraction_ratios: np.ndarray


class OperatorA:
    """The drift operator with its dissipativity and resolvent-range constants."""

    def __init__(self, basis: SpectralBasis, models: ModelSet, mass: float = 1.0):
        self.basis = basis
        self.models = models
        self.mass = mass
        c_f = models.reaction.lipschitz_const
        g0 = models.friction.gamma0
        a1 = basis.alphas[0]
        self.kappa_d = c_f**2 / (4.0 * g0 * a1) + c_f / np.sqrt(a1)
        # Contraction threshold of Gamma_lam from the Lipschitz constants of g
        # and f: (lam/mu)(gamma1 + lam c_f) < 1.  lambda0 keeps a 10% margin.
        g1 = models.friction.gamma1
        disc = np.sqrt(g1**2 + 4.0 * c_f * mass) if c_f > 0 else g1
        lam_star = (2.0 * mass / (g1 + disc)) if c_f > 0 else mass / g1
        self.lambda0 = 0.9 * lam_star
        self.lambda_bar = min(self.lambda0, 1.0 / self.kappa_d) if self.kappa_d > 0 else self.lambda0

    # -- basic algebra ---------------------------------------------------------

    def apply(self, z: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate A(z) in coefficients."""
        u, eta = z
        b, m = self.basis, self.models
        u_nodal = b.synthesize(u)
        first = -b.analyze(m.g_map.forward(u_nodal)) / self.mass + eta
        second = (b.laplacian(u) + b.analyze(m.reaction.f(u_nodal))) / self.mass
        return first, second

    def h_inner(self, z1, z2):
        b = self.basis
        return b.inner(z1[0], z2[0], 0.0) + b.inner(z1[1], z2[1], -1.0)

    def h_norm(self, z):
        return np.sqrt(self.h_inner(z, z))


def resolvent_apply(
    op: OperatorA,
    h: tuple[np.ndarray, np.ndarray],
    lam: float,
    return_info: bool = False,
):
    """Solve z - lam A(z) = h by the contraction fixed point.

    The iteration is declared converged when the H-norm update drops below
    TOL within MAX_ITER iterations, then polished with one extra sweep so the
    reported residual is well inside the tolerance.  Three consecutive
    residual increases are treated as loss of contraction and raise
    ResolventError naming lam.  A stacked h (one leading batch axis) is
    solved row by row, so every row stops on its own residual and equals the
    same row solved alone; its info is then a list with one SolveInfo per row.
    """
    if not 0.0 < lam < op.lambda_bar:
        raise ResolventError(
            f"lam = {lam} outside the resolvent range (0, {op.lambda_bar:.6g})"
        )
    h1, h2 = np.asarray(h[0], dtype=float), np.asarray(h[1], dtype=float)
    if h1.ndim == 1:
        u, eta, info = _fixed_point(op, h1, h2, lam)
    else:  # row by row, so every row stops on its own residual
        pairs = zip(h1, np.broadcast_to(h2, h1.shape))
        u, eta, info = zip(*(_fixed_point(op, a, b, lam) for a, b in pairs))
        u, eta, info = np.array(u), np.array(eta), list(info)
    if return_info:
        return (u, eta), info
    return u, eta


def _fixed_point(op: OperatorA, h1, h2, lam: float):
    """resolvent_apply for one unstacked h = (h1, h2): returns (u, eta, SolveInfo)."""
    b, m, mu = op.basis, op.models, op.mass
    denom = 1.0 + (lam * lam / mu) * b.alphas
    const = h1 + lam * h2
    u = h1.copy()
    prev = np.inf
    grow = 0
    ratios = []
    converged = False
    for it in range(1, MAX_ITER + 1):
        u_nodal = b.synthesize(u)
        rhs = (
            -(lam / mu) * b.analyze(m.g_map.forward(u_nodal))
            + (lam * lam / mu) * b.analyze(m.reaction.f(u_nodal))
            + const
        )
        u_next = rhs / denom
        res = float(np.max(b.sobolev_norm(u_next - u, 0.0)))
        if np.isfinite(prev) and prev > 0:
            ratios.append(res / prev)
            grow = grow + 1 if res > prev else 0
            if grow >= 3:
                raise ResolventError(
                    f"fixed point is not contracting at lam = {lam} "
                    f"(residual grew over 3 iterations, last = {res:.3e})"
                )
        u = u_next
        if converged:
            break
        if res <= TOL:
            converged = True  # one polishing sweep, then exit
        prev = res
    else:
        raise ResolventError(
            f"resolvent fixed point did not converge at lam = {lam} "
            f"within {MAX_ITER} iterations (residual {res:.3e})"
        )
    u_nodal = b.synthesize(u)
    eta = h2 + (lam / mu) * (b.laplacian(u) + b.analyze(m.reaction.f(u_nodal)))
    return u, eta, SolveInfo(iterations=it, residual=res, contraction_ratios=np.array(ratios))


def yosida_apply(op: OperatorA, z: tuple[np.ndarray, np.ndarray], lam: float):
    """A^lam(z) = (J_lam(z) - z) / lam."""
    jz = resolvent_apply(op, z, lam)
    return ((jz[0] - z[0]) / lam, (jz[1] - z[1]) / lam)


def measure_contraction(op: OperatorA, lam: float, seed: int = 0, n_probe: int = 4) -> float:
    """Empirical contraction factor of Gamma_lam from iterate ratios."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probe):
        h = (
            rng.normal(size=op.basis.n_modes) / np.arange(1, op.basis.n_modes + 1),
            rng.normal(size=op.basis.n_modes),
        )
        _, info = resolvent_apply(op, h, lam, return_info=True)
        if info.contraction_ratios.size:
            worst = max(worst, float(np.median(info.contraction_ratios)))
    return worst


# -- sampled audits ------------------------------------------------------------


def sample_states(
    basis: SpectralBasis, n: int, seed: int = 0, decay: float = 1.5
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random states with power-law spectra; decay >= 3 gives smooth samples."""
    rng = np.random.default_rng(seed)
    i = np.arange(1, basis.n_modes + 1, dtype=float)
    return [
        (rng.normal(size=basis.n_modes) * i**-decay, rng.normal(size=basis.n_modes) * i**-decay)
        for _ in range(n)
    ]


def audit_operator(
    op: OperatorA,
    n_pairs: int = 1000,
    lam: float = 0.05,
    lam_ladder: tuple[float, ...] = (0.1, 0.05, 0.02, 0.01),
    n_smooth: int = 20,
    seed: int = 2024,
) -> dict:
    """Run the sampled inequality suite; returns per-inequality margins and flags.

    Checks, over n_pairs random state pairs:
      * quasi-dissipativity of A with the calibrated kappa_d,
      * quasi-dissipativity of A^lam with kappa_d/(1 - lam kappa_d),
      * the resolvent Lipschitz bound (1 - lam kappa_d)^-1,
      * the Yosida norm bound ||A^lam(z)|| <= (1 - lam kappa_d)^-1 ||A(z)||,
    plus the exact identity ||J_lam(z) - z|| = lam ||A^lam(z)|| and the
    monotone decrease of ||A^lam(z) - A(z)|| along the lam ladder for smooth
    samples.  n_pairs and n_smooth must be at least 1: an audit of no samples
    would pass with every margin at -inf.
    """
    for name, count in (("n_pairs", n_pairs), ("n_smooth", n_smooth)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    states = sample_states(op.basis, 2 * n_pairs, seed=seed, decay=1.5)
    tol_pad = 100.0 * TOL
    kd = op.kappa_d
    lip_bound = 1.0 / (1.0 - lam * kd)
    yosida_kd = kd / (1.0 - lam * kd)

    worst = {"diss_A": -np.inf, "diss_yosida": -np.inf, "lipschitz": -np.inf, "yosida_norm": -np.inf}
    max_identity_err = 0.0
    for j in range(n_pairs):
        z1, z2 = states[2 * j], states[2 * j + 1]
        dz = (z1[0] - z2[0], z1[1] - z2[1])
        nd2 = float(op.h_inner(dz, dz))
        a1, a2 = op.apply(z1), op.apply(z2)
        da = (a1[0] - a2[0], a1[1] - a2[1])
        worst["diss_A"] = max(worst["diss_A"], float(op.h_inner(da, dz)) - kd * nd2)

        j1 = resolvent_apply(op, z1, lam)
        j2 = resolvent_apply(op, z2, lam)
        djn = float(op.h_norm((j1[0] - j2[0], j1[1] - j2[1])))
        worst["lipschitz"] = max(worst["lipschitz"], djn - lip_bound * np.sqrt(nd2) - tol_pad)

        y1 = ((j1[0] - z1[0]) / lam, (j1[1] - z1[1]) / lam)
        y2 = ((j2[0] - z2[0]) / lam, (j2[1] - z2[1]) / lam)
        dy = (y1[0] - y2[0], y1[1] - y2[1])
        worst["diss_yosida"] = max(
            worst["diss_yosida"], float(op.h_inner(dy, dz)) - yosida_kd * nd2 - tol_pad
        )

        worst["yosida_norm"] = max(
            worst["yosida_norm"],
            float(op.h_norm(y1)) - lip_bound * float(op.h_norm(op.apply(z1))) - tol_pad,
        )
        err = abs(
            float(op.h_norm((j1[0] - z1[0], j1[1] - z1[1]))) - lam * float(op.h_norm(y1))
        )
        max_identity_err = max(max_identity_err, err)

    smooth = sample_states(op.basis, n_smooth, seed=seed + 1, decay=3.0)
    ladder = sorted(lam_ladder, reverse=True)
    monotone = True
    ladder_errors = []
    for z in smooth:
        az = op.apply(z)
        errs = []
        for lv in ladder:
            y = yosida_apply(op, z, lv)
            errs.append(float(op.h_norm((y[0] - az[0], y[1] - az[1]))))
        ladder_errors.append(errs)
        monotone = monotone and all(e2 < e1 + tol_pad for e1, e2 in zip(errs, errs[1:]))

    flags = {
        "diss_A": worst["diss_A"] <= 0.0,
        "diss_yosida": worst["diss_yosida"] <= 0.0,
        "lipschitz": worst["lipschitz"] <= 0.0,
        "yosida_norm": worst["yosida_norm"] <= 0.0,
        "yosida_converges_monotone": monotone,
    }
    return {
        "kappa_d": kd,
        "lambda0": op.lambda0,
        "lambda_bar": op.lambda_bar,
        "lam": lam,
        "lam_ladder": list(ladder),
        "worst_margins": worst,
        "identity_error": max_identity_err,
        "ladder_errors": ladder_errors,
        "flags": flags,
        "note": "kappa_d and lambda0 are calibrated implementation constants, not asserted sharp",
    }
