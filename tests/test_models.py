import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smallmass
from smallmass.basis import DomainSpec, build_basis
from smallmass.diagnostics import lambda_functional
from smallmass.limit import LimitSolver
from smallmass.models import (
    AntiderivativeMap,
    FrictionModel,
    InversionError,
    Nodal,
    _gauss_legendre,
    build_diffusion,
    build_model_set,
    combined_drift,
    friction_from_table,
    friction_preset,
    noise_induced_drift,
    reaction_preset,
    stratonovich_correction,
)


@pytest.fixture(scope="module")
def basis():
    return build_basis(DomainSpec(1.0, 16))


def models_for(basis, friction="two_plus_sin", reaction="linear_decay", diffusion="cosine", q=1.0):
    return build_model_set(
        basis,
        friction_preset(friction),
        reaction_preset(reaction),
        build_diffusion(basis, factor=diffusion, q=q),
    )


# -- the nodal route -------------------------------------------------------------

_T, _W = np.polynomial.legendre.leggauss(32)
_T, _W = 0.5 * (_T + 1.0), 0.5 * _W  # the 32-point Gauss-Legendre rule of g on [0, 1]
_TABLE_R = np.linspace(-4.0, 4.0, 81)
_TABLE_G = 1.5 + np.cos(_TABLE_R) ** 2


def _table(x):
    return np.interp(x, _TABLE_R, _TABLE_G)


# Each friction model by name, with its gamma, gamma' and g as plain array formulas.
_FRICTIONS = {
    "constant": (
        lambda: friction_preset("constant", value=1.7),
        lambda r: np.full_like(r, 1.7),
        lambda r: np.zeros_like(r),
        lambda r: 1.7 * r,
    ),
    "two_plus_sin": (
        lambda: friction_preset("two_plus_sin"),
        lambda r: 2.0 + np.sin(r),
        np.cos,
        lambda r: 2.0 * r + 1.0 - np.cos(r),
    ),
    "bell": (
        lambda: friction_preset("bell", gamma0=0.5, gamma1=2.5),
        lambda r: 0.5 + 2.0 / (1.0 + r**2),
        lambda r: -2.0 * r * 2.0 / (1.0 + r**2) ** 2,
        lambda r: 0.5 * r + 2.0 * np.arctan(r),
    ),
    "tabulated": (
        lambda: friction_from_table(_TABLE_R, _TABLE_G),
        _table,
        lambda r: (_table(r + 1e-6) - _table(r - 1e-6)) / 2e-6,
        lambda r: r * (_table(r[..., None] * _T) @ _W),
    ),
}
# lambda_sigma and lambda_sigma' of each diffusion factor as plain array formulas.
_FACTORS = {
    "constant": (np.ones_like, np.zeros_like),
    "cosine": (np.cos, lambda r: -np.sin(r)),
    "zero": (np.zeros_like, np.zeros_like),
}


@pytest.mark.parametrize("factor", sorted(_FACTORS))
@pytest.mark.parametrize("friction", sorted(_FRICTIONS))
def test_coefficients_on_one_nodal_state_equal_the_array_formulas(basis, friction, factor):
    # Every coefficient read through one shared Nodal, in either order, and
    # through a Nodal of its own is the array formula bit for bit: a value one
    # coefficient took is the value another would take.  g, a function of nodal
    # values, also takes the plain values and wraps them once.
    build, gamma, gamma_prime, g = _FRICTIONS[friction]
    ls, ls_prime = _FACTORS[factor]
    fr, diff = build(), build_diffusion(basis, factor=factor)
    g_map = AntiderivativeMap(fr)
    r = np.random.default_rng(11).normal(scale=2.0, size=(3, 5, basis.n_nodes))
    expected = {
        "gamma": gamma(r), "gamma_prime": gamma_prime(r), "g": g(r),
        "lambda_sigma": ls(r), "lambda_sigma_prime": ls_prime(r),
    }
    coefficient = {
        "gamma": fr.gamma, "gamma_prime": fr.gamma_prime, "g": g_map.forward,
        "lambda_sigma": diff.lambda_sigma, "lambda_sigma_prime": diff.lambda_sigma_prime,
    }
    for order in (list(coefficient), list(coefficient)[::-1]):
        shared = Nodal(r)
        for name in order:
            got = coefficient[name](shared)
            assert got.shape == r.shape and np.array_equal(got, expected[name]), (name, order)
    for name, fn in coefficient.items():
        assert np.array_equal(fn(Nodal(r)), expected[name]), name
    assert np.array_equal(g_map.forward(r), expected["g"])


# -- g and its inverse ---------------------------------------------------------


def test_constant_friction_closed_forms():
    g = AntiderivativeMap(friction_preset("constant", value=0.5))
    assert g.forward(2.0) == 1.0
    assert g.inverse(1.0) == 2.0


def test_two_plus_sin_g_values():
    g = AntiderivativeMap(friction_preset("two_plus_sin"))
    assert abs(g.forward(2 * np.pi) - 4 * np.pi) < 1e-12
    assert abs(g.inverse(g.forward(0.7)) - 0.7) <= 1e-11
    assert g.forward(0.0) == 0.0


def test_quadrature_forward_matches_closed_form():
    fr = friction_preset("two_plus_sin")
    closed = AntiderivativeMap(fr)
    opaque = AntiderivativeMap(
        FrictionModel(
            gamma=fr.gamma,
            gamma_prime=fr.gamma_prime,
            gamma0=fr.gamma0,
            gamma1=fr.gamma1,
            name="no-closed-form",
        )
    )
    r = np.linspace(-6, 6, 41)
    assert np.max(np.abs(opaque.forward(r) - closed.forward(r))) < 1e-12
    assert np.max(np.abs(opaque.forward(opaque.inverse(r)) - r)) < 1e-11


@pytest.mark.parametrize("closed_g", [True, False])
def test_inverse_raises_instead_of_returning_a_truncated_value(closed_g):
    # two_plus_sin has a closed-form g and a Newton inverse; the opaque copy
    # takes g by quadrature.  A NaN target never meets the tolerance, and
    # tol_inv = 0 asks for an exact zero residual that roundoff does not give.
    fr = friction_preset("two_plus_sin")
    if not closed_g:
        fr = FrictionModel(fr.gamma, fr.gamma_prime, fr.gamma0, fr.gamma1, name="no-closed-form")
    cap = "within 100 iterations"
    with pytest.raises(InversionError, match=cap):
        AntiderivativeMap(fr).inverse(np.array([0.3, np.nan, -1.2]))
    with pytest.raises(InversionError, match=r"<= 0\.0 " + cap):
        AntiderivativeMap(fr, tol_inv=0.0).inverse(np.linspace(-6, 6, 41))


# The quadrature rule: imports, a tiny ladder study and a tiny fd Monte Carlo on
# the default presets (closed-form g), then g of a tabulated friction.
_FIRST_USE = """
import sys
from smallmass import config, models, runner
print("numpy.polynomial" in sys.modules)
cfg = config.validate_config({"time": {"t_final": 0.002}, "paths": 8})
runner.run_converge(cfg, sys.argv[1])
cfg = config.validate_config({"fd": {"t_final": 0.002, "paths": 200}})
runner.run_fd_converge(cfg, sys.argv[1])
print("numpy.polynomial" in sys.modules)
table = models.friction_from_table([0.0, 1.0], [1.0, 2.0])
models.AntiderivativeMap(table).forward([0.5])
print("numpy.polynomial" in sys.modules)
"""


def test_quadrature_rule_is_built_on_first_use(tmp_path):
    # Only g of a friction without a closed form and the energy density read
    # the rule, so a run on closed-form frictions never builds it: in a fresh
    # interpreter numpy.polynomial stays unimported until such a g is taken.
    src = str(Path(smallmass.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-c", _FIRST_USE, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "False", "True"]
    assert (tmp_path / "converge.json").exists() and (tmp_path / "fd_converge.json").exists()


def test_quadrature_rule_is_the_rule_built_here(basis):
    # The rule built on first use is _T, _W bit for bit, and so are g and
    # Lambda of a tabulated friction taken on it.
    t, w = _gauss_legendre()
    assert np.array_equal(t, _T) and np.array_equal(w, _W)
    assert _gauss_legendre()[0] is t and not t.flags.writeable and not w.flags.writeable
    friction = friction_from_table(_TABLE_R, _TABLE_G)
    r = np.linspace(-5.0, 5.0, 41)
    assert np.array_equal(AntiderivativeMap(friction).forward(r), r * (_table(r[..., None] * _T) @ _W))
    u = basis.analyze(3.0 * np.sin(2.0 * np.pi * basis.x))
    x = basis.synthesize(u)
    density = x * x * ((_table(x[..., None] * _T) * _T) @ _W)
    assert np.array_equal(lambda_functional(basis, friction, u), basis.integrate(density))


def test_monotonicity_certificate():
    g = AntiderivativeMap(friction_preset("two_plus_sin"))
    rng = np.random.default_rng(0)
    r1 = rng.uniform(-10, 10, 10_000)
    r2 = rng.uniform(-10, 10, 10_000)
    lhs = (g.forward(r1) - g.forward(r2)) * (r1 - r2)
    assert np.all(lhs >= 1.0 * (r1 - r2) ** 2 - 1e-9)


def test_bell_friction_bounds_and_derivative():
    fr = friction_preset("bell", gamma0=0.5, gamma1=2.5)
    r = np.linspace(-20, 20, 2001)
    g = fr.gamma(Nodal(r))
    assert np.all(g >= 0.5 - 1e-12) and np.all(g <= 2.5 + 1e-12)
    fd = (fr.gamma(Nodal(r + 1e-6)) - fr.gamma(Nodal(r - 1e-6))) / 2e-6
    assert np.max(np.abs(fd - fr.gamma_prime(Nodal(r)))) < 1e-5


def test_tabulated_friction():
    r = np.linspace(-5, 5, 201)
    table = friction_from_table(r, 2.0 + np.sin(r))
    assert abs(table.gamma(Nodal(0.3)) - (2 + np.sin(0.3))) < 1e-3
    assert table.gamma0 >= 1.0 - 1e-6 and table.gamma1 <= 3.0 + 1e-6
    # clamped outside the table
    assert table.gamma(Nodal(99.0)) == table.gamma(Nodal(5.0))
    with pytest.raises(ValueError):
        friction_from_table(r[::-1], 2.0 + np.sin(r))
    # unchecked, a NaN abscissa makes gamma NaN everywhere and an infinite gamma makes gamma1 inf
    for bad_r, bad_g in (([0.0, np.nan, 1.0], [2.0, 2.0, 2.0]),
                         ([0.0, 0.5, 1.0], [2.0, np.nan, 2.0]),
                         ([0.0, 0.5, 1.0], [2.0, np.inf, 2.0])):
        with pytest.raises(ValueError, match="tabulated r and gamma values must be finite"):
            friction_from_table(bad_r, bad_g)


def test_friction_csv_loader(tmp_path):
    from smallmass.models import load_friction_csv

    r = np.linspace(-2, 2, 81)
    path = tmp_path / "gamma.csv"
    np.savetxt(path, np.column_stack([r, 1.5 + 0.5 * np.tanh(r)]), delimiter=",")
    fr = load_friction_csv(path)
    assert abs(fr.gamma(Nodal(0.0)) - 1.5) < 1e-9
    g = AntiderivativeMap(fr)
    y = g.forward(1.3)
    assert abs(g.inverse(y) - 1.3) < 1e-9


# -- reaction -------------------------------------------------------------------


def test_reaction_lipschitz_audit():
    rng = np.random.default_rng(1)
    for name in ("linear_decay", "cubic_clipped"):
        model = reaction_preset(name)
        r1 = rng.uniform(-8, 8, 5000)
        r2 = rng.uniform(-8, 8, 5000)
        quot = np.abs(model.f(Nodal(r1)) - model.f(Nodal(r2))) / np.abs(r1 - r2)
        assert np.max(quot) <= model.lipschitz_const + 1e-9


def test_reaction_growth_certificate():
    # R <= 1/sqrt(3) leaves a non-negative outer slope, so f(r)r grows like r^2 far out
    rng = np.random.default_rng(2)
    r = np.concatenate([rng.uniform(-30, 30, 20_000), np.geomspace(1.0, 1e4, 2_000)])
    r = np.concatenate([r, -r])
    presets = [(name, {}) for name in ("linear_decay", "cubic_clipped", "zero")]
    presets += [("cubic_clipped", {"clip_radius": radius}) for radius in (0.3, 0.5, 1.5)]
    for name, options in presets:
        model = reaction_preset(name, **options)
        lhs = model.f(Nodal(r)) * r
        rhs = model.growth_lambda * r**2 + model.growth_c * (1 + np.abs(r) ** (1 + model.growth_delta))
        assert np.all(lhs <= rhs + 1e-9), (name, options)


def test_cubic_clipped_continuity():
    model = reaction_preset("cubic_clipped", clip_radius=1.5)
    eps = 1e-9
    assert abs(model.f(Nodal(1.5 - eps)) - model.f(Nodal(1.5 + eps))) < 1e-6
    assert model.f(Nodal(0.5)) == 0.5 - 0.125


# -- diffusion and drift terms ----------------------------------------------------


def test_diffusion_kernel_matches_mode_sum(basis):
    diff = build_diffusion(basis, factor="constant", q=1.0)
    i = np.arange(1, basis.n_modes + 1, dtype=float)
    direct = np.zeros(basis.n_nodes)
    for k, lam in enumerate(i**-1.0):
        direct += lam**2 * basis.eigenfunction(k + 1, basis.x) ** 2
    assert np.max(np.abs(diff.kappa - direct)) < 1e-12
    assert abs(diff.sigma_inf - np.sqrt(np.sum(i**-2))) < 1e-12


def _drift_h(u, m):
    """H at nodal values u, from the coefficients of the model set m evaluated there."""
    f, d, s = m.friction, m.diffusion, Nodal(u)
    return noise_induced_drift(f.gamma(s), f.gamma_prime(s), d.lambda_sigma(s), d.kappa)


def test_drift_identity_zero_cases(basis):
    m_const = models_for(basis, friction="constant")
    u = 0.4 * np.sin(np.pi * basis.x)
    assert np.all(_drift_h(u, m_const) == 0.0)
    m_zero = models_for(basis, diffusion="zero")
    assert np.all(_drift_h(u, m_zero) == 0.0)
    assert np.all(stratonovich_correction(u, m_zero.friction, m_zero.diffusion) == 0.0)
    m_sig = models_for(basis, diffusion="constant")
    total = _drift_h(u, m_sig) + stratonovich_correction(
        u, m_sig.friction, m_sig.diffusion
    )
    assert np.max(np.abs(total)) < 1e-14


def test_drift_against_mode_by_mode_oracle(basis):
    # direct summation over modes at a single grid point, constant factor
    m = models_for(basis, diffusion="constant")
    u = 0.3 * np.ones(basis.n_nodes)
    h = _drift_h(u, m)
    jx = 5
    acc = 0.0
    for i in range(1, basis.n_modes + 1):
        acc += (i**-1.0) ** 2 * basis.eigenfunction(i, basis.x[jx]) ** 2
    expected = -np.cos(0.3) / (2 * (2 + np.sin(0.3)) ** 3) * acc
    assert abs(h[jx] - expected) < 1e-12


def test_combined_drift_identity_analytic_and_fd(basis):
    m = models_for(basis)  # cosine factor, 2+sin friction
    u = 0.5 * np.ones(basis.n_nodes)
    total = _drift_h(u, m) + stratonovich_correction(
        u, m.friction, m.diffusion
    )
    closed = combined_drift(u, m.friction, m.diffusion)
    assert np.max(np.abs(total - closed)) < 1e-6  # analytic derivatives

    # finite-difference oracle for d/du (sigma(u) Q e_i), mode by mode
    h = 1e-6
    jx = 7
    x = basis.x[jx]
    uval = 0.5
    acc = 0.0
    for i in range(1, basis.n_modes + 1):
        lam = float(i) ** -1.0
        e = basis.eigenfunction(i, x)
        s_p = np.cos(uval + h) * lam * e
        s_m = np.cos(uval - h) * lam * e
        s_0 = np.cos(uval) * lam * e
        acc += s_0 * (s_p - s_m) / (2 * h)
    oracle = -acc / (2 * (2 + np.sin(uval)) ** 2)
    assert abs(total[jx] - oracle) < 1e-4

    # identity value at u = 0 for the cosine factor: derivative factor vanishes
    u0 = np.zeros(basis.n_nodes)
    t0 = _drift_h(u0, m) + stratonovich_correction(
        u0, m.friction, m.diffusion
    )
    assert np.max(np.abs(t0)) < 1e-14


def _b(m, r):
    """b(r) = 1/gamma(g^-1(r)), the rho-form's diffusion coefficient."""
    return 1.0 / m.friction.gamma(Nodal(m.g_map.inverse(r)))


def _F(m, r):
    """F(r) = f(g^-1(r)), the rho-form's reaction."""
    return m.reaction.f(Nodal(m.g_map.inverse(r)))


def test_transformed_coefficients_range(basis):
    m = models_for(basis)
    rng = np.random.default_rng(4)
    r = rng.uniform(-12, 12, 4000)
    b = _b(m, r)
    assert np.all(b >= 1 / 3 - 1e-12) and np.all(b <= 1.0 + 1e-12)
    assert abs(LimitSolver(basis, m, form="rho").b_bar - (1 / 3 + 1.0) / 2) < 1e-15
    # F = f o g^-1 audit against direct composition
    y = m.g_map.forward(r)
    assert np.max(np.abs(_F(m, y) - m.reaction.f(Nodal(r)))) < 1e-9


def test_lipschitz_audit_of_b_and_F(basis):
    m = models_for(basis)
    rng = np.random.default_rng(9)
    r1 = rng.uniform(-9, 9, 4000)
    r2 = rng.uniform(-9, 9, 4000)
    # b = 1/(gamma o g^-1) is Lipschitz with constant sup|gamma'| / gamma0^3
    lip_b = 1.0 / 1.0**3
    qb = np.abs(_b(m, r1) - _b(m, r2)) / np.abs(r1 - r2)
    assert np.max(qb) <= lip_b + 1e-9
    lip_f = m.reaction.lipschitz_const / m.friction.gamma0
    qf = np.abs(_F(m, r1) - _F(m, r2)) / np.abs(r1 - r2)
    assert np.max(qf) <= lip_f + 1e-9


def test_diffusion_factor_lipschitz_audit(basis):
    m = models_for(basis)  # cosine factor is 1-Lipschitz
    rng = np.random.default_rng(12)
    r1 = rng.uniform(-9, 9, 4000)
    r2 = rng.uniform(-9, 9, 4000)
    quot = np.abs(m.diffusion.lambda_sigma(Nodal(r1)) - m.diffusion.lambda_sigma(Nodal(r2)))
    quot /= np.abs(r1 - r2)
    assert np.max(quot) <= 1.0 + 1e-9


def test_hilbert_schmidt_norm_bounded(basis):
    # ||sigma(h)||_HS^2 = int lambda_sigma(h(x))^2 kappa(x) dx <= sigma_inf^2
    m = models_for(basis)
    rng = np.random.default_rng(14)
    for _ in range(20):
        h_nodal = basis.synthesize(rng.normal(size=basis.n_modes))
        hs_sq = basis.integrate(m.diffusion.lambda_sigma(Nodal(h_nodal)) ** 2 * m.diffusion.kappa)
        assert hs_sq <= m.diffusion.sigma_inf**2 + 1e-12


def test_preset_validation_errors():
    with pytest.raises(ValueError):
        friction_preset("unknown")
    with pytest.raises(ValueError):
        reaction_preset("unknown")
    with pytest.raises(ValueError):
        friction_preset("bell", gamma0=2.0, gamma1=1.0)
    with pytest.raises(ValueError):
        build_diffusion(build_basis(DomainSpec(1.0, 2)), factor="unknown")
