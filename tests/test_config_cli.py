import json

import numpy as np
import pytest

from smallmass.cli import main
from smallmass.config import (
    ConfigError,
    config_hash,
    load_config,
    make_basis,
    make_initial,
    make_models,
    validate_config,
)


def test_defaults_are_valid_and_ladder_sorted():
    cfg = validate_config({})
    assert cfg["mu_ladder"] == [0.2, 0.1, 0.05, 0.02, 0.01]
    assert cfg["time"]["dt"] == 1e-4
    cfg2 = validate_config({"mu_ladder": [0.01, 0.2, 0.05]})
    assert cfg2["mu_ladder"] == [0.2, 0.05, 0.01]


def test_unknown_keys_rejected_by_name():
    with pytest.raises(ConfigError, match="bogus"):
        validate_config({"bogus": 1})
    with pytest.raises(ConfigError, match="time.stepsize"):
        validate_config({"time": {"stepsize": 0.1}})
    with pytest.raises(ConfigError, match="model.frictoin"):
        validate_config({"model": {"frictoin": "constant"}})
    with pytest.raises(ConfigError, match="ablation.ratio_min"):
        validate_config({"ablation": {"ratio_min": 2.0}})


def test_type_checking():
    with pytest.raises(ConfigError, match="paths"):
        validate_config({"paths": "many"})
    with pytest.raises(ConfigError, match="time.dt"):
        validate_config({"time": {"dt": "small"}})
    with pytest.raises(ConfigError, match="mu_ladder"):
        validate_config({"mu_ladder": [0.1, -0.2]})
    with pytest.raises(ConfigError, match="limit.with_drift"):
        validate_config({"limit": {"with_drift": 1}})


def test_config_hash_stable_and_sensitive():
    a = config_hash(validate_config({}))
    b = config_hash(validate_config({}))
    c = config_hash(validate_config({"seed": 1}))
    assert a == b and a != c


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"paths": 4, "domain": {"n_modes": 8, "n_nodes": 16}}))
    cfg = load_config(p)
    assert cfg["paths"] == 4 and cfg["domain"]["n_modes"] == 8
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_make_initial_variants():
    cfg = validate_config({"domain": {"n_modes": 8, "n_nodes": 16}})
    basis = make_basis(cfg)
    u0, v0 = make_initial(cfg, basis)  # default bump
    assert u0.shape == (8,) and np.all(v0 == 0.0)
    assert basis.sobolev_norm(u0, 0.0) > 0.1

    cfg_m = validate_config(
        {"domain": {"n_modes": 8, "n_nodes": 16}, "initial": {"kind": "mode1", "amplitude": 2.0}}
    )
    u0m, _ = make_initial(cfg_m, basis)
    assert u0m[0] == 2.0 and np.all(u0m[1:] == 0.0)

    cfg_c = validate_config(
        {
            "domain": {"n_modes": 8, "n_nodes": 16},
            "initial": {"kind": "coeffs", "coeffs": [1, 0, 0, 0, 0, 0, 0, 0.5]},
        }
    )
    u0c, _ = make_initial(cfg_c, basis)
    assert u0c[0] == 1.0 and u0c[-1] == 0.5

    with pytest.raises(ConfigError):
        make_initial(
            validate_config(
                {"domain": {"n_modes": 8, "n_nodes": 16}, "initial": {"kind": "coeffs", "coeffs": [1.0]}}
            ),
            basis,
        )
    with pytest.raises(ConfigError):
        make_initial(
            validate_config({"domain": {"n_modes": 8, "n_nodes": 16}, "initial": {"kind": "wiggle"}}),
            basis,
        )


def test_make_models_csv(tmp_path):
    r = np.linspace(-4, 4, 101)
    csv = tmp_path / "fric.csv"
    np.savetxt(csv, np.column_stack([r, 2.0 + np.sin(r)]), delimiter=",")
    cfg = validate_config(
        {"domain": {"n_modes": 8, "n_nodes": 16}, "model": {"friction_csv": str(csv)}}
    )
    models = make_models(cfg, make_basis(cfg))
    assert models.friction.name == "tabulated"
    assert abs(models.friction.gamma(0.5) - (2 + np.sin(0.5))) < 1e-3


def test_cli_selftest_exits_zero(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "[FAIL]" not in out


def test_cli_invalid_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tyme": {"dt": 0.1}}))
    code = main(["converge", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"]["type"] == "config"
    assert "tyme" in payload["error"]["message"]


def test_cli_lyapunov_reproducible_artifacts(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["lyapunov", "--out", str(out1)]) == 0
    assert main(["lyapunov", "--out", str(out2)]) == 0
    csv1 = (out1 / "lyapunov.csv").read_bytes()
    csv2 = (out2 / "lyapunov.csv").read_bytes()
    assert csv1 == csv2
    text = csv1.decode()
    assert text.startswith("# config_sha256=")
    assert "# seed=" in text


def test_cli_converge_small(tmp_path):
    cfg = {
        "domain": {"n_modes": 8, "n_nodes": 16},
        "time": {"t_final": 0.05, "dt": 5e-4, "dt_limit": 5e-4, "n_output": 20},
        "mu_ladder": [0.2, 0.1, 0.05, 0.02],
        "paths": 8,
        "seed": 3,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["converge", "--config", str(p), "--out", str(out)])
    assert (out / "converge.json").exists()
    assert (out / "distances.csv").exists()
    assert (out / "distances.dat").exists()
    assert (out / "noise_path0.bin").exists()
    doc = json.loads((out / "converge.json").read_text())
    assert doc["config"]["paths"] == 8
    assert {"ladder", "distances", "slopes", "flags"} <= set(doc["report"])
    assert {"slope_energy", "flags"} <= set(doc["scaling_audit"])
    assert code in (0, 1)


def test_cli_simulate_wave_and_limit(tmp_path):
    cfg = {
        "domain": {"n_modes": 8, "n_nodes": 16},
        "time": {"t_final": 0.02, "dt": 5e-4, "dt_limit": 5e-4, "n_output": 10},
        "mu_ladder": [0.05],
        "seed": 4,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["simulate-wave", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "wave_u.csv").exists() and (out / "wave_energy.csv").exists()
    assert (out / "noise_path.bin").exists()
    assert main(["simulate-limit", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "limit_u.csv").exists()
    header = (out / "wave_u.csv").read_text().splitlines()
    assert header[2].split(",")[0] == "t"
    # binary trajectory dump mirrors the CSV content
    from smallmass.output import load_trajectory_bin

    times, coeffs = load_trajectory_bin(out / "wave_u.bin")
    rows = [line.split(",") for line in header[3:]]
    assert np.allclose(times, [float(r[0]) for r in rows], atol=0)
    assert np.allclose(coeffs[:, 0], [float(r[1]) for r in rows], atol=0)


def test_table_writers_bytes_and_column_check(tmp_path):
    from smallmass.output import write_csv, write_gnuplot

    cols = {"a": np.array([1.0, 2.0]), "b": np.array([0.5, -1e-20])}
    csv = write_csv(tmp_path / "x.csv", cols, "h", 3).read_text()
    dat = write_gnuplot(tmp_path / "x.dat", cols, "h", 3).read_text()
    assert csv == "# config_sha256=h\n# seed=3\na,b\n1.0,0.5\n2.0,-1e-20\n"
    assert dat == "# config_sha256=h\n# seed=3\n# a b\n1.0 0.5\n2.0 -1e-20\n"
    for writer in (write_csv, write_gnuplot):
        with pytest.raises(ValueError, match="equal length"):
            writer(tmp_path / "bad", {"a": np.ones(2), "b": np.ones(3)}, "h", 3)


def test_trajectory_binary_round_trip(tmp_path):
    from smallmass.output import load_trajectory_bin, save_trajectory_bin

    rng = np.random.default_rng(0)
    times = np.linspace(0, 1, 7)
    coeffs = rng.normal(size=(7, 5))
    fn = tmp_path / "traj.bin"
    save_trajectory_bin(fn, times, coeffs)
    t2, c2 = load_trajectory_bin(fn)
    assert np.array_equal(t2, times) and np.array_equal(c2, coeffs)
    fn.write_bytes(fn.read_bytes()[:30])
    with pytest.raises(ValueError):
        load_trajectory_bin(fn)


def test_cli_seed_and_paths_overrides(tmp_path):
    cfg = {
        "domain": {"n_modes": 8, "n_nodes": 16},
        "time": {"t_final": 0.02, "dt": 5e-4, "dt_limit": 5e-4, "n_output": 10},
        "mu_ladder": [0.2, 0.1, 0.05, 0.02],
        "paths": 8,
        "seed": 3,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o1"
    main(["converge", "--config", str(p), "--out", str(out), "--seed", "99", "--paths", "9"])
    doc = json.loads((out / "converge.json").read_text())
    assert doc["config"]["seed"] == 99
    assert doc["config"]["paths"] == 9


def test_parallel_jobs_reproduce_sequential(tmp_path):
    from smallmass.runner import run_ladder_study

    raw = {
        "domain": {"n_modes": 8, "n_nodes": 16},
        "time": {"t_final": 0.05, "dt": 5e-4, "dt_limit": 5e-4, "n_output": 20},
        "mu_ladder": [0.2, 0.1, 0.05, 0.02],
        "paths": 6,
        "seed": 17,
    }
    seq = run_ladder_study(validate_config(raw))
    par = run_ladder_study(validate_config({**raw, "jobs": 3}))
    assert np.array_equal(seq.per_path_distance, par.per_path_distance)
    for a, b in zip(seq.ladder_points, par.ladder_points):
        assert np.array_equal(a.sup_energy, b.sup_energy)
    # split runs keep no limit trajectory, as they keep no wave trajectories
    assert seq.limit_traj is not None
    assert par.limit_traj is None and par.wave_trajs == {}


def test_cli_drift_ablation_small(tmp_path):
    cfg = {
        "domain": {"n_modes": 8, "n_nodes": 16},
        "time": {"t_final": 0.05, "dt": 5e-4, "dt_limit": 5e-4, "n_output": 20},
        "ablation": {"mu": 0.02},
        "paths": 6,
        "seed": 2,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["drift-ablation", "--config", str(p), "--out", str(out)])
    assert code in (0, 1)
    doc = json.loads((out / "drift_ablation.json").read_text())
    assert doc["ablation"]["paths"] == 6
    assert doc["ablation"]["ratio"] > 0
    excess = doc["ablation"]["excess"]
    assert set(excess) == {"mean", "se", "z"}
    assert excess["se"] > 0
    assert excess["z"] == excess["mean"] / excess["se"]
    assert doc["ablation"]["d_h"] > 0
    assert doc["ablation"]["ratio"] <= doc["ablation"]["ratio_bound"] + 1e-12
    assert set(doc["ablation"]["flags"]) == {"separated", "paired", "rising"}
    assert code == (0 if all(doc["ablation"]["flags"].values()) else 1)


def test_cli_fd_converge_small(tmp_path):
    cfg = {
        "fd": {"mu": 0.05, "dt": 1e-3, "t_final": 0.2, "paths": 200},
        "seed": 8,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["fd-converge", "--config", str(p), "--out", str(out)])
    assert code in (0, 1)
    doc = json.loads((out / "fd_converge.json").read_text())
    assert doc["fd"]["paths"] == 200
    assert (out / "fd_means.csv").exists()


def test_fd_time_grid_fails_by_name(tmp_path):
    # A dt that does not divide t_final, exceeds it, or is zero raises by name
    # instead of running to the wrong time (0.3 -> t = 0.9), running no step
    # (2.0) or dividing by zero.
    from smallmass.runner import run_fd_converge

    for dt in (0.3, 2.0, 0.0):
        cfg = validate_config({"fd": {"dt": dt, "t_final": 1.0, "paths": 10}})
        with pytest.raises(ValueError, match="dt"):
            run_fd_converge(cfg, tmp_path)
    assert not (tmp_path / "fd_converge.json").exists()


def test_cli_scaling_audit_small(tmp_path):
    cfg = {
        "domain": {"n_modes": 8, "n_nodes": 16},
        "time": {"t_final": 0.05, "dt": 5e-4, "dt_limit": 5e-4, "n_output": 20},
        "mu_ladder": [0.2, 0.1, 0.05, 0.02],
        "paths": 8,
        "seed": 3,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["scaling-audit", "--config", str(p), "--out", str(out)])
    assert code in (0, 1)
    assert (out / "scaling_audit.json").exists()
    assert (out / "scaling.dat").exists()


def test_cli_resolvent_audit_small(tmp_path):
    cfg = {
        "domain": {"n_modes": 8, "n_nodes": 16},
        "resolvent": {"n_pairs": 20, "n_smooth": 3},
        "seed": 5,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["resolvent-audit", "--config", str(p), "--out", str(out)]) == 0
    doc = json.loads((out / "resolvent_audit.json").read_text())
    assert doc["audit"]["flags"]["diss_A"] is True


def test_simulate_wave_uses_the_configured_newton_count(tmp_path):
    from smallmass import noise, runner
    from smallmass.output import load_trajectory_bin
    from smallmass.wave import WaveSolver

    def run(newton_iters):
        cfg = validate_config(
            {
                "domain": {"n_modes": 8, "n_nodes": 16},
                "time": {"t_final": 0.02, "dt": 5e-4, "n_output": 10},
                "mu_ladder": [0.01],
                "wave": {"newton_iters": newton_iters},
                "seed": 4,
            }
        )
        out = tmp_path / f"newton{newton_iters}"
        out.mkdir()
        runner.run_simulate_wave(cfg, out)
        return cfg, load_trajectory_bin(out / "wave_u.bin")[1]

    cfg, u3 = run(3)
    _, u1 = run(1)
    basis = make_basis(cfg)
    models = make_models(cfg, basis)
    u0, v0 = make_initial(cfg, basis)
    path = noise.sample_path(4, 0.02, 5e-4, 8)  # 5e-4 <= c_stab * mu: no refinement
    solver = WaveSolver(basis, models, 0.01, c_stab=cfg["time"]["c_stab"], newton_iters=3)
    assert np.array_equal(u3, solver.simulate(u0, v0, path, n_output=10).u)
    assert not np.array_equal(u3, u1)
