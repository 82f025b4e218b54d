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

Every sweep of the fixed point is one synthesis of u and one analysis of
g(u) and f(u), written as the two rows of one array (one array for all the
sweeps of a lone solve).  The loop around it depends on the input's shape.
A lone h (N,) iterates on 1-D arrays and keeps its residuals, stall test
and polish flag as Python floats.  A stacked h (the rows of a path or mass
batch) iterates in lock step, and each row stops on its own residual and
leaves the batch with its sweep coefficients, which hold its own mass when
the mass of `OperatorA` is the (n_mu, 1, 1) column of a mass batch.  Both loops take the same steps, and
the transforms round every row as they would alone, so every row gets the
bits, iteration count and residuals it gets solved alone.  lambda_bar is
that of the smallest mass.  The sampled audit applies and solves its states
one at a time, one row per call, and folds its margins with array
reductions over blocks of AUDIT_BLOCK pairs: each block's maxima, seeded
with the running ones, are the running maxima of a pair-by-pair loop, bit
for bit.

The calibrated constants (kappa_d, lambda0) are implementation choices and
are flagged as calibrated in audit reports.

The backward-Euler wave scheme z_{n+1} = J_dt(z_n + noise) is the
"resolvent_implicit" scheme of `wave.WaveSolver`, which calls
`resolvent_apply`; this module does not depend on the wave module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SpectralBasis
from .models import ModelSet, Nodal


TOL = 1e-10  # the fixed point stops when its H-norm update drops below TOL
MAX_ITER = 200  # iteration cap of the fixed point
AUDIT_BLOCK = 32  # pairs whose margins the sampled audit folds at once


class ResolventError(RuntimeError):
    """Fixed-point failure (non-contraction or iteration cap exceeded)."""


@dataclass
class SolveInfo:
    iterations: int
    residual: float
    contraction_ratios: np.ndarray


class OperatorA:
    """The drift operator with its dissipativity and resolvent-range constants.

    mass is a number or an array that broadcasts against the state; an entry
    that is not positive and finite raises ValueError.
    """

    def __init__(self, basis: SpectralBasis, models: ModelSet, mass: float | np.ndarray = 1.0):
        masses = np.asarray(mass, dtype=float)
        if masses.size == 0 or not np.all(np.isfinite(masses) & (masses > 0)):
            raise ValueError(f"mass must be positive, got {mass}")
        self.basis = basis
        self.models = models
        self.mass = mass
        c_f = models.reaction.lipschitz_const
        g0 = models.friction.gamma0
        a1 = basis.alphas.min()
        self.kappa_d = c_f**2 / (4.0 * g0 * a1) + c_f / np.sqrt(a1)
        # Contraction threshold of Gamma_lam from the Lipschitz constants of g and f,
        # (lam/mu)(gamma1 + lam c_f) < 1, at the smallest mass; lambda0 keeps a 10% margin.
        g1, mu = models.friction.gamma1, float(np.min(mass))
        disc = np.sqrt(g1**2 + 4.0 * c_f * mu) if c_f > 0 else g1
        lam_star = (2.0 * mu / (g1 + disc)) if c_f > 0 else mu / g1
        self.lambda0 = 0.9 * lam_star
        self.lambda_bar = min(self.lambda0, 1.0 / self.kappa_d) if self.kappa_d > 0 else self.lambda0

    # -- basic algebra ---------------------------------------------------------

    def apply(self, z: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate A(z) in coefficients."""
        u, eta = z
        b, m = self.basis, self.models
        s = Nodal(b.synthesize(u))
        first = -b.analyze(m.g_map.forward(s)) / self.mass + eta
        second = (b.laplacian(u) + b.analyze(m.reaction.f(s))) / self.mass
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

    h is a pair of arrays (..., N), which the operator's mass broadcasts
    against; every leading axis is a batch of rows, and a lone h (N,) is one
    row.  Each row stops on its own residual: it is declared converged when
    its H-norm update drops below TOL within MAX_ITER iterations, then
    polished with one extra sweep so the reported residual is well inside
    the tolerance.  Stacked rows iterate in lock step and leave the batch as
    they finish, so every row equals the same row solved alone at its own
    mass, bit for bit.  Three consecutive residual increases of
    any row are treated as loss of contraction, and a row still iterating
    after MAX_ITER sweeps as non-convergence; either raises ResolventError
    naming lam, and no row is returned.  With return_info the info of a lone
    h is its SolveInfo, and of a stacked h a list with one SolveInfo per
    row, in C order.
    """
    if not 0.0 < lam < op.lambda_bar:
        raise ResolventError(
            f"lam = {lam} outside the resolvent range (0, {op.lambda_bar:.6g})"
        )
    h1, h2 = np.asarray(h[0], dtype=float), np.asarray(h[1], dtype=float)
    if h2.shape != h1.shape:
        h2 = np.broadcast_to(h2, h1.shape)
    if h1.ndim == 1:
        u, eta, info = _fixed_point(op, op.mass, h1, h2, lam, return_info)
    else:  # rows (R, N), each with its own mass (R, 1)
        n, mu = h1.shape[-1], np.broadcast_to(op.mass, h1.shape[:-1] + (1,)).reshape(-1, 1)
        u, eta, info = _fixed_point(op, mu, h1.reshape(-1, n), h2.reshape(-1, n), lam, return_info)
        u, eta = u.reshape(h1.shape), eta.reshape(h1.shape)
    return ((u, eta), info) if return_info else (u, eta)


def _fixed_point(op: OperatorA, mu, h1: np.ndarray, h2: np.ndarray, lam: float, with_info: bool):
    """resolvent_apply on a lone row (N,) or on rows (R, N) of masses mu (R, 1): (u, eta, info).

    info is None unless with_info: then the SolveInfo of a lone row, or a
    list with one per row.  Each sweep takes g(u) and f(u) on one nodal
    state, writes them into the rows of one (2, ..., M) array (the same one
    for every sweep of a lone row) and analyses it as one product, whose
    rows round as they would alone.  A lone row iterates on 1-D arrays and
    keeps its residuals, stall test and polish flag as Python floats.  Rows
    iterate in lock step: the rows still iterating and their coef rows are
    kept contiguous and compacted only on a sweep where some finish and others go on.
    """
    b, g, f = op.basis, op.models.g_map.forward, op.models.reaction.f
    lone = h1.ndim == 1
    lone_g_f = np.empty((2, b.n_nodes)) if lone else None  # every sweep of a lone row writes here

    def sweep(u, coef):  # Gamma_lam(u)
        const, c_g, c_f, denom = coef
        s = Nodal(b.synthesize(u))
        g_f = lone_g_f if lone else np.empty((2,) + s.u.shape)  # g(u) and f(u) as rows
        g_f[0], g_f[1] = g(s), f(s)
        coeffs = b.analyze(g_f)
        u_next = c_g * coeffs[0]  # (c_g g_u + c_f f_u + const) / denom, in place
        u_next += c_f * coeffs[1]
        u_next += const
        u_next /= denom
        return u_next

    c_f = lam * lam / mu
    coef = (h1 + lam * h2, -(lam / mu), c_f, 1.0 + c_f * b.alphas)  # per row of stacked h1
    if lone:
        u, info = _lone_sweeps(sweep, h1, coef, lam, with_info)
    else:
        u, info = _lock_step_sweeps(sweep, h1, coef, lam, with_info)
    eta = h2 + (lam / mu) * (b.laplacian(u) + b.analyze(f(Nodal(b.synthesize(u)))))
    return u, eta, info


def _lone_sweeps(sweep, u, coef, lam, with_info):
    """The fixed point of a lone row u (N,) on floats: returns (u, its SolveInfo or None)."""
    history = []  # the residual of every sweep
    polish = False  # the last sweep converged: this one is the polish
    for it in range(1, MAX_ITER + 1):
        u_next = sweep(u, coef)
        d = u_next - u
        res = math.sqrt(np.add.reduce(d * d))  # sobolev_norm(d, 0.0)
        history.append(res)
        if len(history) > 3 and res > history[-2] > history[-3] > history[-4]:
            raise _not_contracting(lam, res)
        u = u_next
        if polish:
            break
        polish = res <= TOL
    else:
        raise _not_converged(lam, res)
    if not with_info:
        return u, None
    ratios, counted = _ratios(np.array(history))
    return u, SolveInfo(iterations=it, residual=res, contraction_ratios=ratios[counted])


def _lock_step_sweeps(sweep, u, coef, lam, with_info):
    """The fixed point of rows u (R, N) in lock step: returns (u, a SolveInfo per row or None)."""
    u_out = np.empty_like(u)
    infos: list | None = [None] * len(u) if with_info else None
    live = np.arange(len(u))  # input row of every row still iterating
    polish = np.zeros(len(u), dtype=bool)  # converged: the next sweep is its last
    history = []  # the live rows' residuals, one array per sweep
    for it in range(1, MAX_ITER + 1):
        u_next = sweep(u, coef)
        d = u_next - u
        res = np.sqrt(np.add.reduce(d * d, axis=-1))  # sobolev_norm(d, 0.0), row by row
        history.append(res)
        if len(history) > 3 and np.count_nonzero(res > history[-2]):
            last4 = np.array(history[-4:])
            stalled = np.logical_and.reduce(last4[1:] > last4[:-1])  # 3 increases in a row
            if np.count_nonzero(stalled):
                raise _not_contracting(lam, res[np.argmax(stalled)])
        u = u_next
        done, polish = polish, res <= TOL
        n_done = np.count_nonzero(done)
        if not n_done:
            continue
        u_out[live[done]] = u[done]
        if with_info:
            ratios, counted = _ratios(np.array(history)[:, done])
            for j, (row, r) in enumerate(zip(live[done].tolist(), res[done].tolist())):
                infos[row] = SolveInfo(
                    iterations=it, residual=r, contraction_ratios=ratios[:, j][counted[:, j]]
                )
        if n_done == len(live):
            break
        keep = ~done
        live, u, polish, coef = live[keep], u[keep], polish[keep], tuple(c[keep] for c in coef)
        history = [r[keep] for r in history]
    else:
        raise _not_converged(lam, res[0])
    return u_out, infos


def _ratios(history: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contraction ratios res / prev of residual histories (sweeps, ...), and which count.

    A sweep after a finite positive residual prev adds a ratio.
    """
    prev, last = history[:-1], history[1:]
    counted = (prev > 0) & (prev < np.inf)
    return last / np.where(counted, prev, 1.0), counted


def _not_contracting(lam: float, res: float) -> ResolventError:
    return ResolventError(
        f"fixed point is not contracting at lam = {lam} "
        f"(residual grew over 3 iterations, last = {res:.3e})"
    )


def _not_converged(lam: float, res: float) -> ResolventError:
    return ResolventError(
        f"resolvent fixed point did not converge at lam = {lam} "
        f"within {MAX_ITER} iterations (residual {res:.3e})"
    )


def yosida_apply(op: OperatorA, z: tuple[np.ndarray, np.ndarray], lam: float):
    """A^lam(z) = (J_lam(z) - z) / lam."""
    jz = resolvent_apply(op, z, lam)
    return ((jz[0] - z[0]) / lam, (jz[1] - z[1]) / lam)


# -- sampled audits ------------------------------------------------------------


def sample_states(
    basis: SpectralBasis, n: int, seed: int = 0, decay: float = 1.5
) -> tuple[np.ndarray, np.ndarray]:
    """n random states (u, eta), each (n, N), with power-law spectra; decay >= 3 gives smooth samples.

    Row k draws u then eta, so it is the k-th of n states drawn one at a time.
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2, basis.n_modes))
    z *= basis.wavenumbers**-decay
    return z[:, 0], z[:, 1]


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
    samples.  Pair j is states 2j and 2j + 1; every state is applied and
    solved alone, and the margins are running maxima over the pairs, folded
    over blocks of AUDIT_BLOCK pairs.  n_pairs and n_smooth
    must be at least 1, and lam_ladder hold 2 distinct values: an audit of no
    samples passes with every margin at -inf, and a ladder of one value
    passes the monotone check comparing nothing.
    """
    for name, count in (("n_pairs", n_pairs), ("n_smooth", n_smooth)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    if len(set(lam_ladder)) < 2:
        raise ValueError(f"lam_ladder needs at least 2 distinct values, got {list(lam_ladder)}")
    u, eta = sample_states(op.basis, 2 * n_pairs, seed=seed, decay=1.5)
    tol_pad = 100.0 * TOL
    kd = op.kappa_d
    lip_bound = 1.0 / (1.0 - lam * kd)
    yosida_kd = kd / (1.0 - lam * kd)

    def diff(w1, w2):
        return (w1[0] - w2[0], w1[1] - w2[1])

    def yosida(jz, z):  # A^lam(z) from J_lam(z)
        return ((jz[0] - z[0]) / lam, (jz[1] - z[1]) / lam)

    def pairs(w):  # the first and the second states of the pairs of stacked states w = (u, eta)
        return (w[0][0::2], w[1][0::2]), (w[0][1::2], w[1][1::2])

    worst = dict.fromkeys(("diss_A", "diss_yosida", "lipschitz", "yosida_norm"), -np.inf)
    identity_error = 0.0
    for start in range(0, 2 * n_pairs, 2 * AUDIT_BLOCK):
        z = (u[start : start + 2 * AUDIT_BLOCK], eta[start : start + 2 * AUDIT_BLOCK])
        az, jz = np.empty((2,) + z[0].shape), np.empty((2,) + z[0].shape)
        for i, state in enumerate(zip(*z)):  # every state alone: one row per call
            az[0, i], az[1, i] = op.apply(state)
            jz[0, i], jz[1, i] = resolvent_apply(op, state, lam)
        (z1, z2), (a1, a2), (j1, j2) = pairs(z), pairs(az), pairs(jz)
        y1, y2 = yosida(j1, z1), yosida(j2, z2)
        dz = diff(z1, z2)
        nd2 = op.h_inner(dz, dz)
        y1_norm = op.h_norm(y1)
        margins = {
            "diss_A": op.h_inner(diff(a1, a2), dz) - kd * nd2,
            "diss_yosida": op.h_inner(diff(y1, y2), dz) - yosida_kd * nd2 - tol_pad,
            "lipschitz": op.h_norm(diff(j1, j2)) - lip_bound * np.sqrt(nd2) - tol_pad,
            "yosida_norm": y1_norm - lip_bound * op.h_norm(a1) - tol_pad,
        }
        # fmax seeded with the running value is Python's running max: it skips a NaN margin
        worst = {name: np.fmax.reduce(m, initial=worst[name]) for name, m in margins.items()}
        identity = np.abs(op.h_norm(diff(j1, z1)) - lam * y1_norm)
        identity_error = float(np.fmax.reduce(identity, initial=identity_error))

    ladder = sorted(lam_ladder, reverse=True)
    errors = np.empty((n_smooth, len(ladder)))
    for i, z in enumerate(zip(*sample_states(op.basis, n_smooth, seed=seed + 1, decay=3.0))):
        az = op.apply(z)
        for k, lv in enumerate(ladder):
            errors[i, k] = op.h_norm(diff(yosida_apply(op, z, lv), az))
    monotone = bool(np.all(errors[:, 1:] < errors[:, :-1] + tol_pad))

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
        "identity_error": identity_error,
        "ladder_errors": errors.tolist(),
        "flags": flags,
        "note": "kappa_d and lambda0 are calibrated implementation constants, not asserted sharp",
    }
