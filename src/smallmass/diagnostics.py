"""Energy functionals, trajectory metrics, and mass-scaling audits.

Energy quantities along a wave run:

    K_mu(u, v)  = ||u||_{H^1}^2 + mu ||v||_H^2
    Lambda(u)   = int_domain Gamma(u(x)) dx,   Gamma(r) = int_0^r x gamma(x) dx,

with the pinching (gamma0/2) ||u||_H^2 <= Lambda(u) <= (gamma1/2) ||u||_H^2,
which the nodal quadrature preserves exactly because it holds pointwise.

Trajectory distances use the weighted weak-space metrics

    d_X1 = sum_{n<=n_max} 2^-n ( max_t ||diff(t)||_{H^{-1/n}} AND 1 )
    d_X2 = sum_{n<=n_max} 2^-n ( ||diff||_{L^n(0,T;H)} AND 1 )

truncated at n_max = 16; the truncation tail 2^-n_max is reported as explicit
uncertainty.  Plain variants report sup_t ||.||_{H^-1} and the L^2(0,T;H)
norm.  Time norms are taken over the common output grid, a controlled
underestimate for time-Hoelder trajectories.

The scaling audit fits log-log trends across a mass ladder: it checks that
sqrt(mu) * E sup_t K_mu does not grow as mu decreases, that mu * E sup_t ||v||_H
decays with a positive exponent, and that E sup_t ||u||_H^2 stays flat.  These
are trend tests; no sharp constants are asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import SpectralBasis
from .models import _GL_T, _GL_W, FrictionModel, ModelSet
from .wave import WaveTrajectory

N_MAX_METRIC = 16  # terms of the d_X1 and d_X2 sums

# Paired standard errors the drift-necessity excess must reach, and the paths a
# paired standard error needs.
Z_MIN_PAIRED = 3.0
MIN_PATHS_PAIRED = 2
# Scaling audit: the ladder points and paths per point it needs, and its trend bounds.
AUDIT_MIN_POINTS = 4
AUDIT_MIN_PATHS = 8
SLOPE_ENERGY_MIN = -0.05
SLOPE_VELOCITY_MIN = 0.2
SPREAD_MAX = 0.25


def friction_energy_density(friction: FrictionModel, r) -> np.ndarray:
    """Gamma(r) = r^2 int_0^1 t gamma(r t) dt, on the Gauss-Legendre rule of g in models."""
    r = np.asarray(r, dtype=float)
    vals = friction.gamma(r[..., None] * _GL_T) * _GL_T
    return r * r * (vals @ _GL_W)


def lambda_functional(basis: SpectralBasis, friction: FrictionModel, u_coeffs) -> np.ndarray:
    """Lambda(u) = int Gamma(u(x)) dx on the nodal grid."""
    u_nodal = basis.synthesize(u_coeffs)
    return basis.integrate(friction_energy_density(friction, u_nodal))


@dataclass(frozen=True)
class EnergyRecord:
    t: float
    energy: float  # K_mu
    lam: float  # Lambda(u)
    u_h: float
    u_h1: float
    v_h: float


def energy_records(
    basis: SpectralBasis, models: ModelSet, traj: WaveTrajectory
) -> list[EnergyRecord]:
    """Per-output-time energy diagnostics of a single-path trajectory."""
    if traj.u.ndim != 2:
        raise ValueError("energy_records expects an unbatched trajectory")
    recs = []
    for k, t in enumerate(traj.times):
        u, v = traj.u[k], traj.v[k]
        uh = float(basis.sobolev_norm(u, 0.0))
        uh1 = float(basis.sobolev_norm(u, 1.0))
        vh = float(basis.sobolev_norm(v, 0.0))
        recs.append(
            EnergyRecord(
                t=float(t),
                energy=uh1**2 + traj.mu * vh**2,
                lam=float(lambda_functional(basis, models.friction, u)),
                u_h=uh,
                u_h1=uh1,
                v_h=vh,
            )
        )
    return recs


# -- metrics --------------------------------------------------------------------


@dataclass(frozen=True)
class MetricReport:
    """Distances between two trajectories on a common time grid.

    All sums are per trailing batch element; scalars for unbatched input.
    d_x1 / d_x2 are None for a report computed with which="plain".
    """

    d_x1: np.ndarray | None
    d_x2: np.ndarray | None
    tail: float  # truncation tail bound 2^-N_MAX_METRIC, additive uncertainty
    sup_hm1: np.ndarray  # sup_t ||diff||_{H^-1}
    l2_h: np.ndarray  # (int_0^T ||diff||_H^2 dt)^(1/2)

    def value(self, which: str):
        if which == "plain":
            return self.sup_hm1 + self.l2_h
        if which not in ("x1", "x2"):
            raise ValueError(f"unknown metric selector {which!r}")
        d = self.d_x1 if which == "x1" else self.d_x2
        if d is None:
            raise ValueError(f"metric {which!r} was not computed for this report")
        return d


def metric_distance(
    times: np.ndarray,
    coeffs_a: np.ndarray,
    coeffs_b: np.ndarray,
    basis: SpectralBasis,
    which: str = "all",
) -> MetricReport:
    """Distance report between coefficient trajectories of shape (T, ..., N).

    which="all" computes the N_MAX_METRIC-term sums d_x1 and d_x2; "plain"
    skips them.  sup_hm1 and l2_h are computed for both.
    """
    a = np.asarray(coeffs_a, dtype=float)
    b = np.asarray(coeffs_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"trajectory shapes differ: {a.shape} vs {b.shape}")
    times = np.asarray(times, dtype=float)
    if len(times) != a.shape[0]:
        raise ValueError("time grid does not match trajectories")
    if which not in ("all", "plain"):
        raise ValueError(f"unknown metric selector {which!r}")
    diff_sq = (a - b) ** 2  # (T, ..., N)

    def h_norms(s: float) -> np.ndarray:
        # an elementwise product and a row sum, not a matrix-vector product:
        # BLAS rounds a row of a (T, P, N) stack differently for another P
        return np.sqrt(np.sum(diff_sq * basis.alphas**s, axis=-1))  # (T, ...)

    h_t = h_norms(0.0)
    d_x1 = d_x2 = None
    if which == "all":
        d_x1 = d_x2 = 0.0
        for n in range(1, N_MAX_METRIC + 1):
            w = 2.0**-n
            d_x1 = d_x1 + w * np.minimum(np.max(h_norms(-1.0 / n), axis=0), 1.0)
            ln = (np.trapezoid(h_t**n, times, axis=0)) ** (1.0 / n)
            d_x2 = d_x2 + w * np.minimum(ln, 1.0)
    sup_hm1 = np.max(h_norms(-1.0), axis=0)
    l2_h = np.sqrt(np.trapezoid(h_t**2, times, axis=0))
    tail = 2.0**-N_MAX_METRIC
    return MetricReport(d_x1=d_x1, d_x2=d_x2, tail=tail, sup_hm1=sup_hm1, l2_h=l2_h)


# -- scaling audit ----------------------------------------------------------------


@dataclass
class LadderPoint:
    """Per-mass Monte Carlo summaries (arrays over paths)."""

    mu: float
    sup_energy: np.ndarray  # sup_t K_mu per path
    sup_v_h: np.ndarray
    sup_u_h: np.ndarray
    int_u_h1_sq: np.ndarray


def ladder_point(traj: WaveTrajectory) -> LadderPoint:
    return LadderPoint(
        mu=traj.mu,
        sup_energy=np.atleast_1d(traj.sup_energy),
        sup_v_h=np.atleast_1d(traj.sup_v_h),
        sup_u_h=np.atleast_1d(traj.sup_u_h),
        int_u_h1_sq=np.atleast_1d(traj.int_u_h1_sq),
    )


@dataclass
class ScalingAudit:
    mus: list[float]
    sqrt_mu_sup_energy: list[float]
    mu_sup_v: list[float]
    sup_u_sq: list[float]
    int_u_h1_sq: list[float]
    slope_energy: float
    slope_velocity: float
    spread_displacement: float
    flags: dict = field(default_factory=dict)


def scaling_audit(points: list[LadderPoint]) -> ScalingAudit:
    """Trend tests across a mass ladder; diverged/non-finite input fails all flags."""
    if len(points) < AUDIT_MIN_POINTS:
        raise ValueError(f"need at least {AUDIT_MIN_POINTS} ladder points, got {len(points)}")
    n_paths = min(p.sup_energy.size for p in points)
    if n_paths < AUDIT_MIN_PATHS:
        raise ValueError(f"need at least {AUDIT_MIN_PATHS} paths per ladder point, got {n_paths}")
    points = sorted(points, key=lambda p: p.mu, reverse=True)
    mus = np.array([p.mu for p in points])
    e = np.array([np.sqrt(p.mu) * np.mean(p.sup_energy) for p in points])
    v = np.array([p.mu * np.mean(p.sup_v_h) for p in points])
    u2 = np.array([np.mean(p.sup_u_h**2) for p in points])
    iu = np.array([np.mean(p.int_u_h1_sq) for p in points])

    finite = np.all(np.isfinite(e)) and np.all(np.isfinite(v)) and np.all(np.isfinite(u2))
    positive = finite and np.all(e > 0) and np.all(v > 0) and np.all(u2 > 0)
    if positive:
        slope_e = float(np.polyfit(np.log(mus), np.log(e), 1)[0])
        slope_v = float(np.polyfit(np.log(mus), np.log(v), 1)[0])
        spread = float((u2.max() - u2.min()) / u2.mean())
    else:
        slope_e = np.nan
        slope_v = np.nan
        spread = np.inf
    flags = {
        "energy_bounded": positive and slope_e >= SLOPE_ENERGY_MIN,
        "velocity_decay": positive and slope_v >= SLOPE_VELOCITY_MIN,
        "displacement_flat": positive and spread < SPREAD_MAX,
    }
    return ScalingAudit(
        mus=list(map(float, mus)),
        sqrt_mu_sup_energy=list(map(float, e)),
        mu_sup_v=list(map(float, v)),
        sup_u_sq=list(map(float, u2)),
        int_u_h1_sq=list(map(float, iu)),
        slope_energy=slope_e,
        slope_velocity=slope_v,
        spread_displacement=spread,
        flags=flags,
    )


# -- convergence report -------------------------------------------------------------


@dataclass
class ConvergenceReport:
    """Coupled mass-ladder distances with trend flags."""

    ladder: list[float]
    mean: list[float]  # mean over paths of sup_Hm1 + L2(0,T;H) distance
    se: list[float]
    per_path: np.ndarray  # (n_mu, n_paths)
    slope: float  # log-log slope of mean distance vs mu
    flags: dict

    def as_dict(self) -> dict:
        return {
            "ladder": self.ladder,
            "distances": [
                {"mu": m, "mean": d, "se": s}
                for m, d, s in zip(self.ladder, self.mean, self.se)
            ],
            "slopes": {"distance_vs_mu": self.slope},
            "flags": self.flags,
        }


def convergence_report(
    ladder: list[float],
    per_path: np.ndarray,
    ratio_max: float = 0.4,
    allowed_inversions: int = 1,
) -> ConvergenceReport:
    """Assemble the report; the ladder must be sorted from largest mass down.

    Flags: `monotone` allows `allowed_inversions` increases that stay within
    one combined standard error; `ratio` compares the smallest-mass distance
    to ratio_max times the largest-mass one.
    """
    per_path = np.asarray(per_path, dtype=float)
    if per_path.shape[0] != len(ladder):
        raise ValueError("per-path matrix does not match the ladder")
    if sorted(ladder, reverse=True) != list(ladder):
        raise ValueError("ladder must be sorted from largest to smallest mass")
    mean = per_path.mean(axis=1)
    se = per_path.std(axis=1, ddof=1) / np.sqrt(per_path.shape[1])
    inversions = 0
    hard_violation = False
    for k in range(len(ladder) - 1):
        if mean[k + 1] >= mean[k]:
            inversions += 1
            if mean[k + 1] - mean[k] > np.sqrt(se[k] ** 2 + se[k + 1] ** 2):
                hard_violation = True
    monotone = (not hard_violation) and inversions <= allowed_inversions
    ratio_ok = bool(mean[-1] < ratio_max * mean[0])
    slope = float(np.polyfit(np.log(ladder), np.log(np.maximum(mean, 1e-300)), 1)[0])
    return ConvergenceReport(
        ladder=list(map(float, ladder)),
        mean=list(map(float, mean)),
        se=list(map(float, se)),
        per_path=per_path,
        slope=slope,
        flags={"monotone": monotone, "ratio": ratio_ok, "inversions": inversions},
    )


# -- drift-necessity report ----------------------------------------------------------


@dataclass
class DriftNecessityReport:
    """Wave-to-limit distances with and without the noise-induced drift H.

    Scalars describe the judged mass `mu`; `ratios` runs along the ladder.
    """

    ladder: list[float]
    mu: float
    paths: int
    mean_with: float
    se_with: float
    mean_without: float
    se_without: float
    ratio: float  # mean(d_no) / mean(d_with) at mu
    ratios: list[float]  # the same ratio at every mass of the ladder
    excess_mean: float  # paired excess e = d_no - d_with at mu
    excess_se: float
    z: float  # excess_mean / excess_se; 0 when excess_se is 0
    d_h: float  # mean distance between the limits with and without H
    ratio_bound: float  # 1 + d_h / mean_with, the triangle-inequality cap on ratio
    flags: dict

    @property
    def ok(self) -> bool:
        return all(self.flags.values())

    def as_dict(self) -> dict:
        return {
            "mu": self.mu,
            "paths": self.paths,
            "with_drift": {"mean": self.mean_with, "se": self.se_with},
            "without_drift": {"mean": self.mean_without, "se": self.se_without},
            "ratio": self.ratio,
            "ratio_bound": self.ratio_bound,
            "d_h": self.d_h,
            "excess": {"mean": self.excess_mean, "se": self.excess_se, "z": self.z},
            "ladder": self.ladder,
            "ratios": self.ratios,
            "flags": self.flags,
        }


def drift_necessity_report(
    ladder: list[float],
    d_with: np.ndarray,
    d_no: np.ndarray,
    d_h: np.ndarray,
    mu: float,
) -> DriftNecessityReport:
    """Judge, on coupled paths, whether the limit needs the drift H.

    d_with and d_no are per-path distances (n_mu, n_paths) from the wave to
    the limit with and without H; d_h (n_paths,) is the distance between the
    two limits.  The ladder must be sorted from largest mass down, and mu must
    be on it.  The theorem gives no rate, so no effect size at a fixed mass is
    asserted; the flags test what convergence to the limit with H implies:

    - `separated`: at mu, the 2-SE intervals of the two mean distances do not
      overlap;
    - `paired`: at mu, the mean paired excess d_no - d_with is at least
      Z_MIN_PAIRED paired standard errors; a zero standard error (identical
      runs) fails;
    - `rising`: mean(d_no) / mean(d_with) rises strictly at every step down
      the ladder, as d_with shrinks while d_no stays near d_h (true for a
      single mass).

    The distances are norms, so d_no <= d_with + d_h on every path and the
    ratio at mu cannot exceed `ratio_bound` = 1 + mean(d_h) / mean(d_with).
    """
    d_with = np.asarray(d_with, dtype=float)
    d_no = np.asarray(d_no, dtype=float)
    d_h = np.asarray(d_h, dtype=float)
    ladder = [float(m) for m in ladder]
    if d_with.shape != d_no.shape or d_with.shape[0] != len(ladder):
        raise ValueError("per-path distance matrices do not match the ladder")
    if d_h.shape != d_with.shape[1:]:
        raise ValueError("limit-to-limit distances do not match the paths")
    if d_with.shape[1] < MIN_PATHS_PAIRED:
        raise ValueError(f"a paired standard error needs at least {MIN_PATHS_PAIRED} paths")
    if sorted(ladder, reverse=True) != ladder:
        raise ValueError("ladder must be sorted from largest to smallest mass")
    if mu not in ladder:
        raise ValueError(f"judged mass mu = {mu} is not on the ladder {ladder}")
    row = ladder.index(mu)
    n = d_with.shape[1]

    def mean_se(x: np.ndarray) -> tuple[float, float]:
        return float(x.mean()), float(x.std(ddof=1) / np.sqrt(n))

    mean_with, se_with = mean_se(d_with[row])
    mean_without, se_without = mean_se(d_no[row])
    excess_mean, excess_se = mean_se(d_no[row] - d_with[row])
    z = excess_mean / excess_se if excess_se > 0 else 0.0
    ratios = (d_no.mean(axis=1) / d_with.mean(axis=1)).tolist()
    d_h_mean = float(d_h.mean())
    flags = {
        "separated": bool(mean_without - 2 * se_without > mean_with + 2 * se_with),
        "paired": bool(excess_se > 0 and z >= Z_MIN_PAIRED),
        "rising": bool(np.all(np.diff(ratios) > 0)),
    }
    return DriftNecessityReport(
        ladder=ladder,
        mu=float(mu),
        paths=n,
        mean_with=mean_with,
        se_with=se_with,
        mean_without=mean_without,
        se_without=se_without,
        ratio=ratios[row],
        ratios=ratios,
        excess_mean=excess_mean,
        excess_se=excess_se,
        z=float(z),
        d_h=d_h_mean,
        ratio_bound=1.0 + d_h_mean / mean_with,
        flags=flags,
    )
