"""Scalar coefficient models: friction, its antiderivative, reaction, diffusion.

The friction gamma is a strictly positive bounded C^1 function with
0 < gamma0 <= gamma(r) <= gamma1.  Its antiderivative g(r) = int_0^r gamma
is strictly increasing with (g(r1)-g(r2))(r1-r2) >= gamma0*(r1-r2)^2, and is
inverted numerically by a safeguarded Newton iteration.  g is the closed
form a preset gives, or else r int_0^1 gamma(r t) dt on a 32-point
Gauss-Legendre rule.  The rule is built on first use (`_gauss_legendre`):
importing the package, or a run on closed-form frictions, never builds it.

The diffusion operator has the diagonal multiplicative form

    [sigma(h) Q e_i](x) = lambda_sigma(h(x)) * lam_i * e_i(x),

with Q diagonal in the sine basis: Qe_i = lam_i e_i, lam_i = |k_i|^-q on the
basis's wavenumbers k_i, q > Q_MIN = d/2.  The mode sum sum_i (sigma(u) Q e_i)^2
then collapses to lambda_sigma(u(x))^2 * kappa(x) with the precomputed kernel
kappa(x) = sum_i lam_i^2 e_i(x)^2, which makes the noise-induced drift of
the small-mass limit computable in closed form (at kappa = 1, finite_dim's S):

    H(u)(x) = -gamma'(u(x)) / (2 gamma(u(x))^3) * lambda_sigma(u(x))^2 * kappa(x).

The Ito-to-Stratonovich correction G(u) is available for the consistency
identity H + G = -(1 / (2 gamma^2)) sum_i (sigma(u)Qe_i) d/du (sigma(u)Qe_i).

One problem's coefficients are one `ModelSet(friction, reaction, diffusion,
tol_inv)`, which builds the g-map of its own friction (`ModelSet.g_map`).

Nodal states.  Every coefficient, gamma, gamma', g (and g^-1 where closed),
f, lambda_sigma and lambda_sigma', is a function of one `Nodal`: the nodal
values u of a state, read as `s.u`, with `s.sin` and `s.cos`, the sin and cos
of u, taken on first use and kept.  An integrator builds one Nodal per state
and hands it to every coefficient it evaluates there, so coefficients that
share a transcendental take it once: for the default presets g(u) =
2u + 1 - cos u, gamma'(u) = cos u and lambda_sigma(u) = cos u share one cos,
and gamma(u) = 2 + sin u and lambda_sigma'(u) = -sin u one sin.  Only the
presets below know which values they share; a new state (a Newton iterate,
quadrature points r t) is a new Nodal, so nothing is reused across states.

One contract: a coefficient is a function of one Nodal, called directly.
Each callable a model holds (`friction.gamma` is the one the preset or the
user gave) takes a Nodal and returns the values at s.u, reading s.sin or
s.cos where it needs them; a callable that ignores them just reads s.u.
The functions of nodal values wrap plain values once, at entry:
g_map.forward, stratonovich_correction and combined_drift take a Nodal or
its values, and g_map.inverse and diagnostics.friction_energy_density take
values and build the Nodal of every state they evaluate a coefficient at.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import Q_MIN, SpectralBasis

_FD_STEP = 1e-6  # central-difference step for derivative fallbacks
MAX_ITER_INV = 100  # iteration cap of AntiderivativeMap.inverse


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-point Gauss-Legendre rule on [0, 1], built on first use.

    Exact to machine precision for the smooth coefficient functions used
    here.  Only g of a friction without a closed form and the energy density
    Gamma read it, so a run on closed-form frictions never builds it (nor
    imports numpy.polynomial).  The arrays are shared and read-only.
    """
    t, w = np.polynomial.legendre.leggauss(32)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


class InversionError(RuntimeError):
    """Raised when the monotone inversion of g fails to converge."""


class Nodal:
    """One state's nodal values u, with the sin and cos of u its coefficients share.

    u is a float array (or scalar) that the caller does not change while the
    Nodal is in use; sin and cos are taken on first use and kept.
    """

    __slots__ = ("u", "_sin", "_cos")

    def __init__(self, u):
        self.u = u
        self._sin = self._cos = None

    @property
    def sin(self):
        if self._sin is None:
            self._sin = np.sin(self.u)
        return self._sin

    @property
    def cos(self):
        if self._cos is None:
            self._cos = np.cos(self.u)
        return self._cos


def nodal(x) -> Nodal:
    """x if it is a Nodal, else the Nodal of the nodal values x."""
    return x if type(x) is Nodal else Nodal(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class FrictionModel:
    """State-dependent friction coefficient with certified bounds."""

    gamma: Callable[[Nodal], np.ndarray]
    gamma_prime: Callable[[Nodal], np.ndarray]
    gamma0: float
    gamma1: float
    name: str = "custom"
    g_closed: Callable[[Nodal], np.ndarray] | None = None
    g_inverse_closed: Callable[[Nodal], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma0 <= self.gamma1:
            raise ValueError(
                f"need 0 < gamma0 <= gamma1, got ({self.gamma0}, {self.gamma1})"
            )


@dataclass(frozen=True)
class AntiderivativeMap:
    """g(r) = int_0^r gamma and its monotone numerical inverse."""

    friction: FrictionModel
    tol_inv: float = 1e-12

    def forward(self, r) -> np.ndarray:
        """g at the nodal state r (a Nodal or its values), closed form or quadrature."""
        s = nodal(r)
        if self.friction.g_closed is not None:
            return self.friction.g_closed(s)
        # g(r) = r * int_0^1 gamma(r t) dt on a fixed Gauss-Legendre rule.
        t, w = _gauss_legendre()
        vals = self.friction.gamma(Nodal(s.u[..., None] * t))
        return s.u * (vals @ w)

    def inverse(self, y) -> np.ndarray:
        """Solve g(x) = y by safeguarded Newton with a bisection fallback.

        Every iterate x is one nodal state, at which g and gamma are taken.
        Raises InversionError instead of returning a truncated value when the
        residual tolerance is not met within MAX_ITER_INV iterations.
        """
        y = np.asarray(y, dtype=float)
        if self.friction.g_inverse_closed is not None:
            return self.friction.g_inverse_closed(Nodal(y))
        g0, g1 = self.friction.gamma0, self.friction.gamma1
        # gamma0 <= g(r)/r <= gamma1 brackets the root.
        lo = np.minimum(y / g0, y / g1)
        hi = np.maximum(y / g0, y / g1)
        s = Nodal(y / (0.5 * (g0 + g1)))
        res = self.forward(s) - y
        for _ in range(MAX_ITER_INV):
            x = s.u
            if np.all(np.abs(res) <= self.tol_inv):
                return x
            hi = np.where(res > 0.0, np.minimum(hi, x), hi)
            lo = np.where(res < 0.0, np.maximum(lo, x), lo)
            step = res / self.friction.gamma(s)
            x_new = x - step
            bad = ~np.isfinite(x_new) | (x_new < lo) | (x_new > hi)
            s = Nodal(np.where(bad, 0.5 * (lo + hi), x_new))
            res = self.forward(s) - y
        raise InversionError(
            f"g-inversion did not reach |residual| <= {self.tol_inv} "
            f"within {MAX_ITER_INV} iterations (max residual {np.max(np.abs(res)):.3e})"
        )


@dataclass(frozen=True)
class ReactionModel:
    """Lipschitz reaction term with declared growth certificate.

    The certificate states f(r)*r <= growth_lambda*r^2 + growth_c*(1 + |r|^(1+growth_delta)).
    """

    f: Callable[[Nodal], np.ndarray]
    lipschitz_const: float
    growth_lambda: float = 0.0
    growth_delta: float = 0.0
    growth_c: float = 0.0
    name: str = "custom"


@dataclass(frozen=True)
class DiffusionModel:
    """Diagonal multiplicative diffusion: pointwise factor times a mode spectrum."""

    lambda_sigma: Callable[[Nodal], np.ndarray]
    lambda_sigma_prime: Callable[[Nodal], np.ndarray]
    q_spectrum: np.ndarray  # lam_i, one entry per retained mode
    kappa: np.ndarray  # sum_i lam_i^2 e_i(x)^2 on the nodal grid
    sigma_sup: float  # sup_r |lambda_sigma(r)|
    sigma_inf: float  # Hilbert-Schmidt bound at the truncation
    name: str = "custom"


@dataclass(frozen=True)
class ModelSet:
    """Bundle of all coefficient models for one problem instance.

    g_map, the antiderivative of the set's own friction at tolerance tol_inv,
    is built here and is not an argument, so it always belongs to friction,
    also after dataclasses.replace.
    """

    friction: FrictionModel
    reaction: ReactionModel
    diffusion: DiffusionModel
    tol_inv: float = 1e-12
    g_map: AntiderivativeMap = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "g_map", AntiderivativeMap(self.friction, self.tol_inv))


# -- drift terms -------------------------------------------------------------


def noise_induced_drift(
    gam: np.ndarray, gam_prime: np.ndarray, ls: np.ndarray, kappa: np.ndarray
) -> np.ndarray:
    """Extra drift created by non-constant friction in the small-mass limit.

    H(u)(x) = -gamma'(u)/gamma(u)^2 * lambda_sigma(u)^2 kappa(x) / (2 gamma(u)), from
    gamma, gamma' and lambda_sigma evaluated at one nodal state of u and the
    kernel kappa = diffusion.kappa.  The limit u-step evaluates each of them
    once and shares gamma and lambda_sigma with its other terms.  At one mode
    with a unit spectrum, kappa = 1 and sigma as ls, it is the scalar drift
    S = d/dx[1/gamma] sigma^2 / (2 gamma) that the finite_dim limit steps.
    """
    return (-gam_prime / gam**2) * ((ls * ls * kappa) / (2.0 * gam))


def stratonovich_correction(
    u_nodal: np.ndarray, friction: FrictionModel, diffusion: DiffusionModel
) -> np.ndarray:
    """Ito-to-Stratonovich correction G(u) for the limiting equation.

    G(u) = -1/2 sum_i d/du(sigma(u)Qe_i / gamma(u)) * (sigma(u)Qe_i / gamma(u)),
    which under the diagonal diffusion structure collapses to
    -(lambda_sigma' gamma - lambda_sigma gamma') * lambda_sigma / (2 gamma^3) * kappa.
    """
    s = nodal(u_nodal)
    gam = friction.gamma(s)
    ls = diffusion.lambda_sigma(s)
    lsp = diffusion.lambda_sigma_prime(s)
    return -(lsp * gam - ls * friction.gamma_prime(s)) * ls / (2.0 * gam**3) * diffusion.kappa


def combined_drift(
    u_nodal: np.ndarray, friction: FrictionModel, diffusion: DiffusionModel
) -> np.ndarray:
    """The closed form of H + G: -(1/(2 gamma^2)) sum_i (sigma Q e_i) d/du (sigma Q e_i)."""
    s = nodal(u_nodal)
    gam = friction.gamma(s)
    ls = diffusion.lambda_sigma(s)
    lsp = diffusion.lambda_sigma_prime(s)
    return -ls * lsp / (2.0 * gam**2) * diffusion.kappa


# -- presets -----------------------------------------------------------------


def _fd_derivative(fun: Callable, h: float = _FD_STEP) -> Callable:
    """The central difference of the coefficient fun, at the new states u + h and u - h."""

    def deriv(s):
        return (fun(Nodal(s.u + h)) - fun(Nodal(s.u - h))) / (2.0 * h)

    return deriv


def _options(what: str, kw: dict, defaults: dict) -> list[float]:
    """A preset's option values in the order of defaults; an option it does not take is an error."""
    if set(kw) - set(defaults):
        raise ValueError(f"unknown options for {what}: {sorted(set(kw) - set(defaults))}")
    return [float(kw.get(k, v)) for k, v in defaults.items()]


FRICTIONS = ("constant", "two_plus_sin", "bell")


def friction_preset(name: str, **kw) -> FrictionModel:
    """Built-in friction models, one of FRICTIONS.

    "constant"      gamma == value (default 1.0)
    "two_plus_sin"  gamma(r) = 2 + sin r; g(r) = 2r + 1 - cos r and gamma'(r) = cos r share cos
    "bell"          gamma(r) = gamma0 + (gamma1 - gamma0)/(1 + r^2)
    """
    if name not in FRICTIONS:
        raise ValueError(f"friction preset must be one of {FRICTIONS}, got {name!r}")
    if name == "constant":
        (value,) = _options("constant friction", kw, {"value": 1.0})
        return FrictionModel(
            gamma=lambda s: np.full_like(s.u, value),
            gamma_prime=lambda s: np.zeros_like(s.u),
            gamma0=value,
            gamma1=value,
            name="constant",
            g_closed=lambda s: value * s.u,
            g_inverse_closed=lambda s: s.u / value,
        )
    if name == "two_plus_sin":
        _options("two_plus_sin friction", kw, {})
        return FrictionModel(
            gamma=lambda s: 2.0 + s.sin,
            gamma_prime=lambda s: s.cos,
            gamma0=1.0,
            gamma1=3.0,
            name="two_plus_sin",
            g_closed=lambda s: 2.0 * s.u + 1.0 - s.cos,
        )
    g0, g1 = _options("bell friction", kw, {"gamma0": 1.0, "gamma1": 2.0})
    return FrictionModel(
        gamma=lambda s: g0 + (g1 - g0) / (1.0 + s.u**2),
        gamma_prime=lambda s: -2.0 * s.u * (g1 - g0) / (1.0 + s.u**2) ** 2,
        gamma0=g0,
        gamma1=g1,
        name="bell",
        g_closed=lambda s: g0 * s.u + (g1 - g0) * np.arctan(s.u),
    )


def friction_from_table(r: np.ndarray, gamma_vals: np.ndarray) -> FrictionModel:
    """Piecewise-linear friction from tabulated (r, gamma(r)) samples.

    The table is clamped outside its range; the derivative falls back to a
    central difference of the interpolant.
    """
    r = np.asarray(r, dtype=float)
    gv = np.asarray(gamma_vals, dtype=float)
    if r.ndim != 1 or r.shape != gv.shape or r.size < 2:
        raise ValueError("need matching 1-d arrays with at least two samples")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(gv))):
        raise ValueError("tabulated r and gamma values must be finite")
    if np.any(np.diff(r) <= 0):
        raise ValueError("table abscissae must be strictly increasing")
    if np.any(gv <= 0):
        raise ValueError("tabulated gamma values must be positive")

    def gamma(s):
        return np.interp(s.u, r, gv)

    return FrictionModel(
        gamma=gamma,
        gamma_prime=_fd_derivative(gamma),
        gamma0=float(gv.min()),
        gamma1=float(gv.max()),
        name="tabulated",
    )


def load_friction_csv(path) -> FrictionModel:
    """Load a tabulated friction model from a two-column CSV (r, gamma)."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"expected two columns (r, gamma) in {path}")
    return friction_from_table(data[:, 0], data[:, 1])


REACTIONS = ("zero", "linear_decay", "cubic_clipped")


def reaction_preset(name: str, **kw) -> ReactionModel:
    """Built-in reaction terms, one of REACTIONS.

    "zero"           f == 0
    "linear_decay"   f(r) = -r
    "cubic_clipped"  f(r) = r - r^3 inside |r| <= clip_radius, linear continuation outside
    """
    if name not in REACTIONS:
        raise ValueError(f"reaction preset must be one of {REACTIONS}, got {name!r}")
    if name == "zero":
        _options("zero reaction", kw, {})
        return ReactionModel(
            f=lambda s: np.zeros_like(s.u),
            lipschitz_const=0.0,
            name="zero",
        )
    if name == "linear_decay":
        _options("linear_decay reaction", kw, {})
        return ReactionModel(
            f=lambda s: -s.u,
            lipschitz_const=1.0,
            growth_lambda=0.0,
            growth_delta=0.0,
            growth_c=0.0,
            name="linear_decay",
        )
    (radius,) = _options("cubic_clipped reaction", kw, {"clip_radius": 1.5})
    if radius <= 0:
        raise ValueError("clip_radius must be positive")
    edge = radius - radius**3
    slope = 1.0 - 3.0 * radius**2

    def f(s):
        r = s.u
        inside = r - r**3
        outside = np.sign(r) * edge + slope * (r - np.sign(r) * radius)
        return np.where(np.abs(r) <= radius, inside, outside)

    # Certificate in closed form: f(r)r = r^2 - r^4 <= 1/4 on |r| <= R and slope r^2 + 2R^3|r|
    # outside.  Once R^2 >= 1/2 the outside part peaks at |r| = R, so f(r)r <= 1/4; below,
    # the outside part is at most max(slope, 0) r^2 + 2R^3|r|.
    bounded = radius**2 >= 0.5
    return ReactionModel(
        f=f,
        lipschitz_const=max(1.0, abs(slope)),
        growth_lambda=0.0 if bounded else max(slope, 0.0),
        growth_delta=0.0,
        growth_c=0.25 if bounded else max(2.0 * radius**3, 0.25),
        name="cubic_clipped",
    )


# lambda_sigma, lambda_sigma' and sup |lambda_sigma| of each factor; "cosine"
# shares its cos with the two_plus_sin friction's g and gamma'.
_DIFFUSION_FACTORS = {
    "constant": (lambda s: np.ones_like(s.u), lambda s: np.zeros_like(s.u), 1.0),
    "cosine": (lambda s: s.cos, lambda s: -s.sin, 1.0),
    "zero": (lambda s: np.zeros_like(s.u), lambda s: np.zeros_like(s.u), 0.0),
}


def build_diffusion(basis: SpectralBasis, factor: str = "constant", q: float = 1.0) -> DiffusionModel:
    """Assemble the diagonal diffusion model with spectrum lam_i = |k_i|^-q, k the wavenumbers.

    q > Q_MIN = d/2 keeps sum_i lam_i^2 finite; the default q = 1 satisfies
    that with a comfortable margin on the equi-bounded 1-d eigenfunctions.
    Any other q is rejected: kappa and sigma_inf would grow without bound in N.
    """
    if factor not in _DIFFUSION_FACTORS:
        raise ValueError(f"unknown diffusion factor {factor!r}")
    if not q > Q_MIN:
        raise ValueError(f"noise spectrum exponent q must exceed {Q_MIN}, got {q}")
    ls, lsp, sup = _DIFFUSION_FACTORS[factor]
    lam = basis.wavenumbers ** (-q)
    kappa = basis.mode_matrix() ** 2 @ lam**2
    sigma_inf = sup * float(np.sqrt(np.sum(lam**2)))
    return DiffusionModel(
        lambda_sigma=ls,
        lambda_sigma_prime=lsp,
        q_spectrum=lam,
        kappa=kappa,
        sigma_sup=sup,
        sigma_inf=sigma_inf,
        name=factor,
    )

