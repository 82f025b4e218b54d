import json
import re

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
    # a bool is neither an integer nor a number; an integer is a number
    with pytest.raises(ConfigError, match="'paths' must be an integer, got True"):
        validate_config({"paths": True})
    with pytest.raises(ConfigError, match="'time.dt' must be a number, got False"):
        validate_config({"time": {"dt": False}})
    t_final = validate_config({"time": {"t_final": 1}})["time"]["t_final"]
    assert isinstance(t_final, float) and t_final == 1.0


def test_n_output_below_one_fails_by_name():
    for n_output in (0, -3):
        with pytest.raises(ConfigError, match="time.n_output"):
            validate_config({"time": {"n_output": n_output}})
    assert validate_config({"time": {"n_output": 1}})["time"]["n_output"] == 1


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
    cfg["model"]["gamma1"] = 4.0
    with pytest.raises(ConfigError, match="model.friction_csv takes no friction options.*model.gamma1"):
        make_models(cfg, make_basis(cfg))


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


def test_path_and_job_counts_below_one_fail_by_name(tmp_path, capsys):
    for key in ("paths", "jobs"):
        for value in (0, -3):
            with pytest.raises(ConfigError, match=f"'{key}' must be at least 1, got {value}"):
                validate_config({key: value})
    # The --seed/--paths/--jobs flags are merged into the file's keys before validation.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"paths": 0, "jobs": 2}))
    for flags, key in (
        (["--config", str(bad)], "paths"),
        (["--config", str(bad), "--paths", "4", "--jobs", "0"], "jobs"),
        (["--config", str(bad), "--paths", "4", "--jobs", "-3"], "jobs"),
        (["--paths", "0"], "paths"),
        (["--jobs", "0"], "jobs"),
        (["--seed", "5", "--jobs", "-3"], "jobs"),
    ):
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["lyapunov", "--out", str(out), *flags]) == 2, flags
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "config" and f"config key '{key}'" in err["message"], flags
        assert not out.exists()
    # A flag replaces the file's key before it is checked, so a bad key can be overridden.
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"seed": "x"}))
    out = tmp_path / "ok"
    assert main(["lyapunov", "--config", str(typo), "--out", str(out), "--seed", "5"]) == 0
    assert "# seed=5" in (out / "lyapunov.csv").read_text()
    assert main(["lyapunov", "--config", str(bad), "--out", str(out), "--paths", "1"]) == 0


def test_step_bound_and_audit_sizes_fail_by_name(tmp_path, capsys):
    # time.c_stab <= 0 makes the step bound c_stab * mu no step at all, and an
    # audit of no samples passes with every margin at -inf.
    for raw, key, message in (
        ({"time": {"c_stab": 0.0}}, "time.c_stab", "must be positive, got 0.0"),
        ({"time": {"c_stab": -0.02}}, "time.c_stab", "must be positive, got -0.02"),
        ({"resolvent": {"n_pairs": 0}}, "resolvent.n_pairs", "must be at least 1, got 0"),
        ({"resolvent": {"n_smooth": 0}}, "resolvent.n_smooth", "must be at least 1, got 0"),
        ({"resolvent": {"n_smooth": -2}}, "resolvent.n_smooth", "must be at least 1, got -2"),
    ):
        with pytest.raises(ConfigError, match=f"'{key}' {message}"):
            validate_config(raw)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        command = "simulate-wave" if key == "time.c_stab" else "resolvent-audit"
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, raw
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "config" and f"config key '{key}'" in err["message"], raw
        assert not out.exists()
    ok = validate_config({"time": {"c_stab": 0.1}, "resolvent": {"n_pairs": 1, "n_smooth": 1}})
    assert ok["time"]["c_stab"] == 0.1
    assert ok["resolvent"]["n_pairs"] == ok["resolvent"]["n_smooth"] == 1


@pytest.mark.parametrize(
    "command, raw, key",
    [
        ("converge", {"paths": 7}, "'paths' must be at least 8"),
        ("converge", {"mu_ladder": [0.2, 0.1, 0.05]}, "'mu_ladder' needs at least 4 masses"),
        ("scaling-audit", {"paths": 4}, "'paths' must be at least 8"),
        ("scaling-audit", {"mu_ladder": [0.2]}, "'mu_ladder' needs at least 4 masses"),
        ("drift-ablation", {"paths": 1}, "'paths' must be at least 2"),
    ],
)
def test_study_too_small_to_judge_fails_before_any_run(
    tmp_path, capsys, monkeypatch, command, raw, key
):
    from smallmass import runner

    def no_study(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(runner, "run_ladder_study", no_study)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**raw, "ablation": {"mu": 0.2}}))
    out = tmp_path / "out"
    assert main([command, "--config", str(p), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and key in err["message"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("seed", [10, 11, 17])
def test_parallel_jobs_reproduce_sequential(tmp_path, seed):
    # Split blocks score their paths apart from the others, so this needs
    # every transform and distance to be row-stable.  Seeds 10 and 11 show a
    # distance that rounds a path by the number of paths beside it; 17 does not.
    from dataclasses import replace

    from smallmass.runner import drift_necessity, run_ladder_study

    raw = {
        "domain": {"n_modes": 8, "n_nodes": 16},
        "time": {"t_final": 0.05, "dt": 5e-4, "dt_limit": 5e-4, "n_output": 20},
        "mu_ladder": [0.2, 0.1, 0.05, 0.02],
        "paths": 6,
        "seed": seed,
    }
    seq = run_ladder_study(validate_config(raw), ablate_drift=True)
    par = run_ladder_study(validate_config({**raw, "jobs": 3}), ablate_drift=True)
    assert np.array_equal(seq.per_path_distance, par.per_path_distance)
    for a, b in zip(seq.ladder_points, par.ladder_points):
        assert np.array_equal(a.sup_energy, b.sup_energy)
    # the drift ablation's distances are per path too, so they split the same way
    assert seq.d_no.shape == (4, 6) and seq.d_h.shape == (6,)
    assert np.array_equal(seq.d_no, par.d_no)
    assert np.array_equal(seq.d_h, par.d_h)
    # a study run without the ablation cannot be judged
    with pytest.raises(ValueError, match="ablate_drift"):
        drift_necessity(validate_config(raw), replace(seq, d_no=None, d_h=None))


def test_cli_drift_ablation_small(tmp_path, capsys, monkeypatch):
    from smallmass import diagnostics, runner

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
    # The configured ladder is judged, one ratio per mass, and the rise decides `rising`.
    ladder, ratios = doc["ablation"]["ladder"], doc["ablation"]["ratios"]
    assert ladder == validate_config(cfg)["mu_ladder"]
    assert len(ratios) == len(ladder)
    assert doc["ablation"]["ratio"] == ratios[ladder.index(0.02)]
    assert doc["ablation"]["flags"]["rising"] == bool(np.all(np.diff(ratios) > 0))

    # --jobs 2 runs the study in two worker processes and writes the same bits.
    blocks = []

    class Pool(runner.ProcessPoolExecutor):
        def submit(self, fn, *args):
            blocks.append((fn, args[2]))  # the block function and its path count
            return super().submit(fn, *args)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    out2 = tmp_path / "out2"
    assert main(["drift-ablation", "--config", str(p), "--out", str(out2), "--jobs", "2"]) == code
    assert blocks == [(runner._study_block, 3), (runner._study_block, 3)]
    assert json.loads((out2 / "drift_ablation.json").read_text())["ablation"] == doc["ablation"]

    # The exit code follows each of the three flags.
    real = diagnostics.drift_necessity_report
    for flags in (
        {"separated": True, "paired": True, "rising": True},
        {"separated": False, "paired": True, "rising": True},
        {"separated": True, "paired": False, "rising": True},
        {"separated": True, "paired": True, "rising": False},
    ):

        def forced(*args, flags=flags):
            rep = real(*args)
            rep.flags = dict(flags)
            return rep

        monkeypatch.setattr(diagnostics, "drift_necessity_report", forced)
        code = main(["drift-ablation", "--config", str(p), "--out", str(out)])
        assert code == (0 if all(flags.values()) else 1), flags

    # A judged mass off the ladder fails by name before any run.
    capsys.readouterr()
    p.write_text(json.dumps({**cfg, "ablation": {"mu": 0.03}}))
    assert main(["drift-ablation", "--config", str(p), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config"
    assert "ablation.mu = 0.03" in err["message"]


def test_ladder_study_uses_the_u_form_limit_whatever_limit_form():
    from smallmass import runner

    base = {
        "domain": {"n_modes": 8, "n_nodes": 16},
        "time": {"t_final": 0.02, "dt": 5e-4, "n_output": 10},
        "mu_ladder": [0.1, 0.02],
        "paths": 3,
    }
    studies = [
        runner.run_ladder_study(validate_config({**base, "limit": {"form": form}}))
        for form in ("u", "rho")
    ]
    assert np.array_equal(studies[0].per_path_distance, studies[1].per_path_distance)


@pytest.mark.parametrize(
    "model, key",
    [
        ({"friction": "two_plus_sin", "gamma1": 5}, "model.gamma1"),
        ({"friction": "constant", "gamma0": 0.5}, "model.gamma0"),
        ({"friction": "bell", "friction_value": 3}, "model.friction_value"),
        ({"reaction": "linear_decay", "clip_radius": 0.5}, "model.clip_radius"),
        ({"friction": "bell", "gamma0": 3, "gamma1": 1}, "model.gamma0"),
        ({"friction": "wobbly"}, "model.friction = 'wobbly'"),
    ],
    ids=[
        "two_plus_sin-gamma1",
        "constant-gamma0",
        "bell-friction_value",
        "linear_decay-clip_radius",
        "bell-gamma0_above_gamma1",
        "unknown_friction",
    ],
)
def test_preset_options_the_preset_rejects_fail_by_name(model, key):
    cfg = validate_config({"domain": {"n_modes": 8, "n_nodes": 16}, "model": model})
    with pytest.raises(ConfigError, match=re.escape(key)):
        make_models(cfg, make_basis(cfg))


def test_preset_options_reach_the_preset():
    cfg = validate_config(
        {
            "domain": {"n_modes": 8, "n_nodes": 16},
            "model": {
                "friction": "bell",
                "gamma0": 0.5,
                "gamma1": 4,
                "reaction": "cubic_clipped",
                "clip_radius": 1.0,
            },
        }
    )
    models = make_models(cfg, make_basis(cfg))
    assert (models.friction.gamma0, models.friction.gamma1) == (0.5, 4.0)
    # radius 1: f(1) = 0 and slope 1 - 3 = -2 beyond it, so f(2) = -2
    assert models.reaction.f(np.array([2.0]))[0] == -2.0
    cfg = validate_config({"model": {"friction": "constant", "friction_value": 2.5}})
    assert make_models(cfg, make_basis(cfg)).friction.gamma0 == 2.5


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


def test_simulate_wave_reports_the_step_it_took(tmp_path):
    from smallmass import noise, runner

    # c_stab * mu = 7.5e-5 is a bound; halving 1e-4 once gives the step 5e-5.
    cfg = validate_config(
        {
            "domain": {"n_modes": 8, "n_nodes": 16},
            "time": {"t_final": 2e-3, "dt": 1e-4, "n_output": 10},
            "mu_ladder": [1.5e-4],
            "seed": 3,
        }
    )
    report = runner.run_simulate_wave(cfg, tmp_path)["report"]
    saved = noise.load_path(tmp_path / "noise_path.bin")
    assert (saved.dt, saved.n_steps) == (5e-5, 40)
    assert report["dt"] == saved.dt


def _spy_waves(monkeypatch) -> dict:
    """mu -> the last wave trajectory a ladder study ran at that mass."""
    from smallmass import runner

    waves = {}
    real = runner._simulate_wave

    def spy(cfg, basis, models, mu, u0, v0, path):
        traj, path = real(cfg, basis, models, mu, u0, v0, path)
        waves[mu] = traj
        return traj, path

    monkeypatch.setattr(runner, "_simulate_wave", spy)
    return waves


def test_resolvent_scheme_refines_below_lambda_bar(tmp_path, monkeypatch):
    # The resolvent exists only for dt < lambda_bar, about 0.3 mu under the
    # default friction, below the mass bound c_stab * mu = 0.5 mu.
    from smallmass import noise, runner
    from smallmass.resolvent import OperatorA

    base = {
        "domain": {"n_modes": 8, "n_nodes": 16},
        "time": {"t_final": 0.01, "dt": 5e-4, "n_output": 10},
        "wave": {"scheme": "resolvent_implicit"},
        "paths": 3,
    }
    cfg = validate_config({**base, "mu_ladder": [1e-3]})
    basis = make_basis(cfg)
    lam_bar = OperatorA(basis, make_models(cfg, basis), mass=1e-3).lambda_bar
    assert lam_bar < 5e-4 <= cfg["time"]["c_stab"] * 1e-3  # the mass bound alone would not refine

    report = runner.run_simulate_wave(cfg, tmp_path)["report"]
    assert report["dt"] == noise.load_path(tmp_path / "noise_path.bin").dt == 2.5e-4
    assert report["dt"] < lam_bar

    waves = _spy_waves(monkeypatch)
    study = runner.run_ladder_study(validate_config({**base, "mu_ladder": [0.2, 1e-3]}))
    assert waves[0.2].dt == 5e-4  # no refinement where the bound does not bind
    assert waves[1e-3].dt == 2.5e-4 < lam_bar
    assert np.all(np.isfinite(study.per_path_distance))

    # The same ladder at the default n_output = 200, on 200 coarse steps.
    long = {**base, "time": {"t_final": 0.1, "dt": 5e-4}, "paths": 2, "mu_ladder": [0.2, 1e-3]}
    study = runner.run_ladder_study(validate_config(long))
    assert waves[1e-3].dt == 2.5e-4
    # the unrefined wave at 0.2 outputs on the limit's grid, which _check_grids holds the other to
    assert waves[0.2].dt == 5e-4
    assert len(waves[1e-3].times) == len(waves[0.2].times) == 201
    assert np.all(np.isfinite(study.per_path_distance))


def test_misaligned_output_grids_fail_by_name(tmp_path):
    from smallmass import runner

    # 20 coarse steps: the default n_output = 200 gives 21 limit points but 41
    # wave points at the refined mass; 15 does not divide 20 and shifts them.
    for n_output in (200, 15):
        cfg = validate_config(
            {
                "domain": {"n_modes": 8, "n_nodes": 16},
                "time": {"t_final": 0.01, "dt": 5e-4, "n_output": n_output},
                "wave": {"scheme": "resolvent_implicit"},
                "paths": 2,
                "mu_ladder": [0.2, 1e-3],
                "ablation": {"mu": 1e-3},
            }
        )
        with pytest.raises(RuntimeError, match="misaligned.*divides the coarse step count 20"):
            runner.run_ladder_study(cfg)
        with pytest.raises(RuntimeError, match="misaligned.*divides the coarse step count 20"):
            runner.run_drift_ablation(cfg, tmp_path)


def test_eta_form_refines_to_the_wave_cfl(tmp_path, monkeypatch):
    from smallmass import noise, runner

    # N = 16, mu = 0.1: 0.9 of the wave CFL 2 sqrt(mu / alpha_N) is 1.13e-2, below
    # c_stab * mu = 5e-2, so the CFL alone halves dt = 2e-2 to 1e-2.
    base = {
        "domain": {"n_modes": 16, "n_nodes": 32},
        "time": {"t_final": 0.08, "dt": 2e-2, "n_output": 4},
        "mu_ladder": [0.1],
        "paths": 2,
    }
    cfg = validate_config(base)
    basis = make_basis(cfg)
    cfl = 2.0 * np.sqrt(0.1 / basis.alphas[-1])
    assert 1e-2 <= 0.9 * cfl < 2e-2 < cfg["time"]["c_stab"] * 0.1
    report = runner.run_simulate_wave(cfg, tmp_path)["report"]
    assert report["dt"] == noise.load_path(tmp_path / "noise_path.bin").dt == 1e-2
    waves = _spy_waves(monkeypatch)
    study = runner.run_ladder_study(cfg)
    assert waves[0.1].dt == 1e-2
    assert np.all(np.isfinite(study.per_path_distance))
