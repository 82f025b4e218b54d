import numpy as np
import pytest

from smallmass.basis import SpectralBasis
from smallmass.diagnostics import (
    convergence_report,
    distance_rows,
    drift_necessity_report,
    energy_records,
    friction_energy_density,
    lambda_functional,
    mean_se,
    metric_distance,
    plain_parts,
    scaling_audit,
)
from smallmass.models import ModelSet, build_diffusion, friction_preset, reaction_preset
from smallmass.noise import sample_path
from smallmass.wave import WaveSolver


@pytest.fixture(scope="module")
def basis():
    return SpectralBasis(1.0, 12)


@pytest.fixture(scope="module")
def models(basis):
    return ModelSet(
        friction_preset("two_plus_sin"),
        reaction_preset("linear_decay"),
        build_diffusion(basis, factor="cosine"),
    )


def test_friction_energy_density_closed_form():
    # gamma = 2 + sin: int_0^r x gamma(x) dx = r^2 + sin r - r cos r
    fr = friction_preset("two_plus_sin")
    r = np.linspace(-4, 4, 33)
    exact = r**2 + np.sin(r) - r * np.cos(r)
    assert np.max(np.abs(friction_energy_density(fr, r) - exact)) < 1e-12


def test_lambda_pinching_random_fields(basis, models):
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.normal(size=12) * rng.uniform(0.1, 3.0)
        lam = lambda_functional(basis, models.friction, u)
        h2 = basis.sobolev_norm(u, 0.0) ** 2
        assert 0.0 <= 0.5 * 1.0 * h2 - 1e-8 <= lam <= 0.5 * 3.0 * h2 + 1e-8


def test_lambda_pinching_along_trajectory(basis, models):
    path = sample_path(5, 0.02, 1e-3, 12)
    u0 = basis.analyze(4.0 * basis.x * (1 - basis.x))
    traj = WaveSolver(basis, models, 0.05).simulate(u0, np.zeros(12), path, n_output=10)
    rec = energy_records(basis, models, traj)
    assert list(rec) == ["t", "energy", "lambda", "u_h", "u_h1", "v_h"]
    assert all(col.shape == traj.times.shape for col in rec.values())
    assert np.all(0.5 * 1.0 * rec["u_h"] ** 2 - 1e-8 <= rec["lambda"])
    assert np.all(rec["lambda"] <= 0.5 * 3.0 * rec["u_h"] ** 2 + 1e-8)
    assert np.max(np.abs(rec["energy"] - (rec["u_h1"] ** 2 + 0.05 * rec["v_h"] ** 2))) < 1e-10


def test_metric_identical_and_offset(basis):
    times = np.linspace(0, 1, 9)
    a = np.zeros((9, 12))
    rep0 = metric_distance(times, a, a, basis)
    assert rep0.d_x1 == 0.0 and rep0.d_x2 == 0.0 and rep0.sup_hm1 + rep0.l2_h == 0.0
    b = a.copy()
    b[:, 0] = 0.3
    rep = metric_distance(times, a, b, basis)
    assert abs(rep.sup_hm1 - 0.3 / np.pi) < 1e-12
    assert abs(rep.l2_h - 0.3) < 1e-12  # constant-in-time offset of unit H-norm scale
    assert rep.tail == 2.0**-16


@pytest.mark.parametrize("n_modes", [8, 32])
def test_metric_rows_of_a_slice_equal_rows_of_the_batch(n_modes):
    # A split ladder study scores each block of paths on its own; every
    # per-path distance must be the same bits as in the one-block study,
    # also for a block of one path, which np.trapezoid would sum pairwise.
    b = SpectralBasis(1.0, n_modes)
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 0.05, 21)
    a, c = rng.normal(size=(2, 21, 6, n_modes))
    whole = metric_distance(times, a, c, b)
    for sl in (slice(0, 2), slice(2, 4), slice(4, 5), slice(5, 6)):
        part = metric_distance(times, a[:, sl], c[:, sl], b)
        for field in ("d_x1", "d_x2", "sup_hm1", "l2_h"):
            assert np.array_equal(getattr(part, field), getattr(whole, field)[sl]), (sl, field)


def test_metric_cap_and_tail(basis):
    times = np.linspace(0, 1, 5)
    a = np.zeros((5, 12))
    b = np.full((5, 12), 1e7)
    rep = metric_distance(times, a, b, basis)
    # each summand is capped at one, so the weighted sums stay below 1
    assert rep.d_x1 <= 1.0 and rep.d_x2 <= 1.0
    assert rep.d_x1 >= 1.0 - 2.0**-16 - 1e-12


def test_metric_symmetry_and_triangle(basis):
    rng = np.random.default_rng(7)
    times = np.linspace(0, 0.5, 11)
    x = rng.normal(size=(11, 12)) * 0.1
    y = rng.normal(size=(11, 12)) * 0.1
    z = rng.normal(size=(11, 12)) * 0.1
    distances = {
        "x1": lambda rep: rep.d_x1,
        "x2": lambda rep: rep.d_x2,
        "plain": lambda rep: rep.sup_hm1 + rep.l2_h,
    }
    for name, dist in distances.items():
        dxy = dist(metric_distance(times, x, y, basis))
        dyx = dist(metric_distance(times, y, x, basis))
        dxz = dist(metric_distance(times, x, z, basis))
        dzy = dist(metric_distance(times, z, y, basis))
        assert abs(dxy - dyx) < 1e-14, name
        assert dxy <= dxz + dzy + 1e-12, name


def test_metric_grid_mismatch_rejected(basis):
    with pytest.raises(ValueError):
        metric_distance(np.linspace(0, 1, 4), np.zeros((5, 12)), np.zeros((5, 12)), basis)
    with pytest.raises(ValueError):
        metric_distance(np.linspace(0, 1, 5), np.zeros((5, 12)), np.zeros((4, 12)), basis)


def _synthetic_points(c_e=1.0, c_v=1.0, c_u=1.0, exp_v=-0.5, n_paths=8):
    # sup K ~ c_e (bounded), sup v ~ mu^exp_v, sup u ~ c_u; one row per mass
    rng = np.random.default_rng(1)
    ladder = np.array([0.2, 0.1, 0.05, 0.02, 0.01])
    jitter = 1.0 + 0.01 * rng.normal(size=(len(ladder), n_paths))
    norms = {
        "sup_energy": c_e * jitter,
        "sup_v_h": c_v * ladder[:, None] ** exp_v * jitter,
        "sup_u_h": np.sqrt(c_u) * jitter,
        "int_u_h1_sq": c_u * jitter,
    }
    return ladder.tolist(), norms


def test_scaling_audit_flags_pass_on_theoretical_scalings():
    audit = scaling_audit(*_synthetic_points())
    assert audit.flags["energy_bounded"]  # slope of sqrt(mu)*const is +1/2
    assert audit.flags["velocity_decay"]  # mu * mu^-1/2 decays with exponent 1/2
    assert audit.flags["displacement_flat"]
    assert abs(audit.slope_energy - 0.5) < 0.05
    assert abs(audit.slope_velocity - 0.5) < 0.05


def test_scaling_audit_detects_violations():
    # energy growing like 1/mu breaks the boundedness flag
    ladder, growing = _synthetic_points()
    growing["sup_energy"] = growing["sup_energy"] / np.array(ladder)[:, None]
    audit = scaling_audit(ladder, growing)
    assert not audit.flags["energy_bounded"]
    # velocity failing to decay breaks the decay flag
    audit2 = scaling_audit(*_synthetic_points(exp_v=-1.0))
    assert not audit2.flags["velocity_decay"]
    # non-finite summaries fail everything
    ladder, broken = _synthetic_points()
    broken["sup_v_h"][2] = broken["sup_v_h"][2] * np.inf
    audit3 = scaling_audit(ladder, broken)
    assert not any(audit3.flags.values())


def test_scaling_audit_preconditions():
    ladder, norms = _synthetic_points()
    # AUDIT_MIN_POINTS masses are judged, one fewer is not
    first = {name: rows[:4] for name, rows in norms.items()}
    assert scaling_audit(ladder[:4], first).mus == ladder[:4]
    with pytest.raises(ValueError, match="ladder points"):
        scaling_audit(ladder[:3], {name: rows[:3] for name, rows in norms.items()})
    with pytest.raises(ValueError, match="paths per ladder point"):
        scaling_audit(*_synthetic_points(n_paths=4))
    with pytest.raises(ValueError, match="sorted"):
        scaling_audit(ladder[::-1], {name: rows[::-1] for name, rows in norms.items()})
    with pytest.raises(ValueError, match="do not match"):
        scaling_audit(ladder, first)


def test_scaling_audit_negative_control(basis, models):
    # Deliberately mis-scaled runs: a fixed step that does not resolve the
    # small masses (beyond the staggered-scheme CFL) wrecks the velocity
    # statistics, and the audit must notice.
    import warnings

    from smallmass.noise import sample_batch

    ladder = [0.04, 0.02, 0.01, 0.005]
    trajs = []
    u0 = basis.analyze(4.0 * basis.x * (1 - basis.x))
    batch = sample_batch(31, 8, 0.512, 8e-3, 12)  # dt fixed, not mass-resolved
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for mu in ladder:
            solver = WaveSolver(basis, models, mu, scheme="eta_form", c_stab=1e9)
            trajs.append(solver.simulate(u0, np.zeros(12), batch, n_output=20))
    names = ("sup_energy", "sup_v_h", "sup_u_h", "int_u_h1_sq")
    norms = {name: np.stack([getattr(t, name) for t in trajs]) for name in names}
    audit = scaling_audit(ladder, norms)
    assert not all(audit.flags.values()), audit.flags


def test_convergence_report_flags():
    ladder = [0.2, 0.1, 0.05, 0.02, 0.01]
    rng = np.random.default_rng(5)
    per_path = np.stack([0.4 * np.sqrt(mu) * (1 + 0.02 * rng.normal(size=16)) for mu in ladder])
    rep = convergence_report(ladder, per_path)
    assert rep.flags["monotone"] and rep.flags["ratio"]
    assert abs(rep.slope - 0.5) < 0.05
    d = rep.as_dict()
    assert set(d) == {"ladder", "distances", "slopes", "flags"}
    # a hard inversion (beyond one standard error) breaks monotonicity
    per_path_bad = per_path.copy()
    per_path_bad[3] = per_path_bad[1] * 2.0
    rep_bad = convergence_report(ladder, per_path_bad)
    assert not rep_bad.flags["monotone"]
    # saturation at the small end breaks the ratio flag
    per_path_flat = per_path.copy()
    per_path_flat[-1] = per_path_flat[0]
    rep_flat = convergence_report(ladder, per_path_flat)
    assert not rep_flat.flags["ratio"]
    with pytest.raises(ValueError):
        convergence_report([0.01, 0.2], per_path[:2])


def test_drift_necessity_report_rule():
    ladder = [0.2, 0.1, 0.05, 0.02, 0.01]
    rng = np.random.default_rng(11)
    d_with = np.stack([0.4 * np.sqrt(mu) * (1 + 0.05 * rng.normal(size=16)) for mu in ladder])
    d_h = 0.01 * (1 + 0.1 * rng.normal(size=16))
    # dropping H shifts every path by part of the limit-to-limit distance
    shifted = drift_necessity_report(ladder, d_with, d_with + 0.8 * d_h, d_h, 0.01)
    assert shifted.ok, shifted.flags
    assert shifted.ratio == shifted.ratios[-1] <= shifted.ratio_bound
    d = shifted.as_dict()
    assert {"ratio", "ratio_bound", "d_h", "excess", "ratios", "flags"} <= set(d)
    assert d["excess"]["z"] == shifted.z
    # identical distances (the drift was dropped from both limits) fail every clause
    same = drift_necessity_report(ladder, d_with, d_with.copy(), d_h, 0.01)
    assert same.excess_se == 0.0 and same.z == 0.0
    assert not any(same.flags.values())
    # a clear paired excess whose ratio falls down the ladder fails on `rising` alone
    falling = d_with * (1.5 - 0.05 * np.arange(len(ladder)))[:, None]
    rep = drift_necessity_report(ladder, d_with, falling, d_h, 0.01)
    assert rep.flags["separated"] and rep.flags["paired"]
    assert not rep.flags["rising"] and not rep.ok
    # a single mass has no ladder to rise along
    single = drift_necessity_report([0.01], d_with[-1:], d_with[-1:] + 0.8 * d_h, d_h, 0.01)
    assert single.flags["rising"] and single.ok
    with pytest.raises(ValueError, match="0.03"):
        drift_necessity_report(ladder, d_with, d_with + 0.8 * d_h, d_h, 0.03)
    with pytest.raises(ValueError):
        drift_necessity_report(ladder[::-1], d_with, d_with, d_h, 0.01)


@pytest.mark.parametrize(
    "shape", [(2,), (7,), (10000,), (10001,), (201, 2), (21, 7), (5, 10000), (3, 10001), (2, 3, 129)]
)
def test_mean_se_is_numpy_mean_and_std_bit_for_bit(shape):
    # One sum over the paths serves the mean and the standard error.
    x = np.random.default_rng(shape[-1]).normal(0.3, 2.0, size=shape)
    for arr in (x, np.ascontiguousarray(x.T).T):  # contiguous and strided along the paths
        mean, se = mean_se(arr)
        assert np.array_equal(mean, np.mean(arr, axis=-1))
        assert np.array_equal(se, np.std(arr, axis=-1, ddof=1) / np.sqrt(shape[-1]))
        assert np.shape(mean) == np.shape(se) == shape[:-1]
        assert type(mean) is type(np.mean(arr, axis=-1))


def test_plain_parts_fold_equals_the_stacked_reductions(basis):
    # plain_parts folds the rows in time order; on stacked rows that is the max
    # over time and the cumulative trapezoid sum, bit for bit.
    rng = np.random.default_rng(4)
    times = np.cumsum(rng.uniform(0.5, 1.5, 31)) * 1e-3
    a, b = rng.normal(size=(2, 31, 5, basis.n_modes))
    h, hm1 = distance_rows(a, b, basis)
    sup_hm1, l2_h = plain_parts(times, h, hm1)
    terms = np.diff(times)[:, None] * (h[1:] ** 2 + h[:-1] ** 2) / 2.0
    assert np.array_equal(sup_hm1, np.max(hm1, axis=0))
    assert np.array_equal(l2_h, np.sqrt(np.cumsum(terms, axis=0)[-1]))
    one = plain_parts(times[:1], h[:1], hm1[:1])
    assert np.array_equal(one[0], hm1[0]) and np.array_equal(one[1], np.zeros(5))
