import json
import re

import numpy as np
import pytest

from smallmass.cli import main
from smallmass.config import (
    DEFAULTS,
    ConfigError,
    config_hash,
    load_config,
    make_basis,
    make_initial,
    make_models,
    validate_config,
)
from smallmass.models import Nodal


def test_defaults_are_valid_and_ladder_sorted():
    cfg = validate_config({})
    assert cfg["mu_ladder"] == [0.2, 0.1, 0.05, 0.02, 0.01]
    assert cfg["time"]["dt"] == 1e-4
    cfg2 = validate_config({"mu_ladder": [0.01, 0.2, 0.05]})
    assert cfg2["mu_ladder"] == [0.2, 0.05, 0.01]


def test_defaults_are_pinned():
    # Each key's type is its default's, so the defaults are the schema: pin them and their hash.
    assert validate_config({}) == DEFAULTS
    assert config_hash(validate_config({})) == "1340955d5e243a20"


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
    # an integer beyond the float range is no finite number
    with pytest.raises(ConfigError, match="'time.dt' must be finite"):
        validate_config({"time": {"dt": 10**400}})


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"]
)
def test_non_finite_numbers_fail_by_name(tmp_path, capsys, bad):
    # JSON readers accept NaN and Infinity; each used to run on (an infinite
    # mass gave a NaN sup_energy with "ok": true) or die unnamed in int(NaN).
    # Every element of a list key is a number checked by its index.
    finite = f"must be finite, got {bad!r}"
    for raw, key, message in (
        ({"mu_ladder": [0.2, bad]}, "mu_ladder[1]", finite),
        ({"time": {"dt": bad}}, "time.dt", finite),
        ({"time": {"t_final": bad}}, "time.t_final", finite),
        ({"ablation": {"mu": bad}}, "ablation.mu", finite),
        ({"fd": {"mu": bad}}, "fd.mu", finite),
        ({"fd": {"dt": bad}}, "fd.dt", finite),
        ({"fd": {"sigma": bad}}, "fd.sigma", finite),
        ({"domain": {"length": bad}}, "domain.length", finite),
        ({"initial": {"coeffs": [0.0, bad]}}, "initial.coeffs[1]", finite),
        ({"initial": {"velocity_coeffs": [bad]}}, "initial.velocity_coeffs[0]", finite),
        ({"resolvent": {"lam_ladder": [bad, 0.05]}}, "resolvent.lam_ladder[0]", finite),
        ({"resolvent": {"lam_ladder": ["x", 0.1]}}, "resolvent.lam_ladder[0]", "must be a number"),
        ({"initial": {"coeffs": ["a"]}}, "initial.coeffs[0]", "must be a number, got 'a'"),
    ):
        with pytest.raises(ConfigError, match=re.escape(f"'{key}' {message}")):
            validate_config(raw)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["simulate-wave", "--config", str(cfg), "--out", str(out)]) == 2, raw
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "config" and f"config key '{key}'" in err["message"], raw
        assert not out.exists()


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

    domain = {"n_modes": 8, "n_nodes": 16}
    cfg_v = validate_config({"domain": domain, "initial": {"velocity_coeffs": [0.5] * 8}})
    _, v0 = make_initial(cfg_v, basis)
    assert np.all(v0 == 0.5)

    # a wrong length or an unknown kind fails in validation, before any basis exists
    with pytest.raises(ConfigError, match="'initial.coeffs' must have length domain.n_modes = 8"):
        validate_config({"domain": domain, "initial": {"kind": "coeffs", "coeffs": [1.0]}})
    with pytest.raises(ConfigError, match="'initial.kind' must be one of .*, got 'wiggle'"):
        validate_config({"domain": domain, "initial": {"kind": "wiggle"}})
    # a library caller that skips validation still gets the kind named
    with pytest.raises(ValueError, match="initial.kind must be one of .*, got 'wiggle'"):
        make_initial({"initial": {"kind": "wiggle", "amplitude": 1.0}}, basis)


def test_make_models_csv(tmp_path):
    r = np.linspace(-4, 4, 101)
    csv = tmp_path / "fric.csv"
    np.savetxt(csv, np.column_stack([r, 2.0 + np.sin(r)]), delimiter=",")
    cfg = validate_config(
        {"domain": {"n_modes": 8, "n_nodes": 16}, "model": {"friction_csv": str(csv)}}
    )
    models = make_models(cfg, make_basis(cfg))
    assert models.friction.name == "tabulated"
    assert abs(models.friction.gamma(Nodal(0.5)) - (2 + np.sin(0.5))) < 1e-3
    with pytest.raises(ConfigError, match="'model.friction_csv' takes no friction options, got model.gamma1"):
        validate_config({"model": {"friction_csv": str(csv), "gamma1": 4.0}})


@pytest.mark.parametrize(
    "rows, message",
    [
        (None, "fric.csv not found"),
        ([[0.0, 2.0]], "need matching 1-d arrays with at least two samples"),
        ([[-1.0, 2.0], [0.0, 0.0], [1.0, 2.0]], "tabulated gamma values must be positive"),
        # non-finite tables fail here, not as SimulationDiverged at step 1 of the run
        ([[0.0, 2.0], [np.nan, 2.0], [1.0, 2.0]], "tabulated r and gamma values must be finite"),
        ([[0.0, 2.0], [0.5, np.nan], [1.0, 2.0]], "tabulated r and gamma values must be finite"),
        ([[0.0, 2.0], [0.5, np.inf], [1.0, 2.0]], "tabulated r and gamma values must be finite"),
    ],
)
def test_bad_friction_table_fails_by_key(tmp_path, capsys, rows, message):
    # A missing or unusable table used to exit 1 with the loader's error and no key.
    csv = tmp_path / "fric.csv"
    if rows is not None:
        np.savetxt(csv, np.array(rows), delimiter=",")
    raw = {"domain": {"n_modes": 8, "n_nodes": 16}, "model": {"friction_csv": str(csv)}}
    cfg = validate_config(raw)
    with pytest.raises(ConfigError, match=re.escape(f"'model.friction_csv' = '{csv}': ")):
        make_models(cfg, make_basis(cfg))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["simulate-wave", "--config", str(p), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and "config key 'model.friction_csv'" in err["message"]
    assert str(csv) in err["message"] and message in err["message"]
    assert not out.exists()  # the table is read before anything is written


def test_cli_selftest_exits_zero(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "[FAIL]" not in out


def test_cli_selftest_takes_no_run_flags(capsys):
    # selftest reads no config and writes nothing; it used to accept and ignore all five flags.
    for flags in (["--seed", "3"], ["--jobs", "0"], ["--config", "cfg.json"], ["--out", "o"]):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", *flags])
        assert exc.value.code == 2, flags
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8", "not_json"])
def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys, kind):
    # The first three used to exit 1 with FileNotFoundError, IsADirectoryError or
    # UnicodeDecodeError; a file that is not JSON exited 2 and still does.
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b'{"seed": "\xff"}')
    elif kind == "not_json":
        path.write_text('{"seed": 1,}')
    with pytest.raises(ConfigError, match=re.escape(f"config file {path} cannot be read as JSON")):
        load_config(path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["lyapunov", "--config", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and str(path) in err["message"]
    assert not out.exists()


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


def test_table_writers_print_each_cell_as_the_repr_of_its_float(tmp_path):
    from smallmass.output import write_csv, write_gnuplot

    cols = {
        "int": np.array([3, -2, 0, 7]),
        "bool": np.array([True, False, True, False]),
        "special": np.array([-0.0, np.nan, np.inf, -np.inf]),
        "extreme": np.array([5e-324, 1e16, 0.1, -1e-20]),
    }
    for writer, sep, head in ((write_csv, ",", ""), (write_gnuplot, " ", "# ")):
        text = writer(tmp_path / "t", cols, "h", 3).read_text()
        rows = [sep.join(repr(float(cols[n][k])) for n in cols) + "\n" for k in range(4)]
        assert text == "# config_sha256=h\n# seed=3\n" + head + sep.join(cols) + "\n" + "".join(rows)
        assert text.splitlines()[3] == sep.join(["3.0", "1.0", "-0.0", "5e-324"])


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


def test_seed_the_noise_dump_cannot_hold_fails_by_key_before_any_run(tmp_path, capsys):
    # The noise dump stores a path's seed as a signed 64-bit integer, and
    # path k of a study runs on seed + k: a seed past that range used to write
    # every other artifact, then fail unnamed and leave an empty noise_path.bin.
    top, bottom = 2**63 - 1, -(2**63)
    assert validate_config({"seed": top, "paths": 1})["seed"] == top
    assert validate_config({"seed": top - 63, "paths": 64})["seed"] == top - 63
    assert validate_config({"seed": bottom})["seed"] == bottom
    for raw in ({"seed": top + 1, "paths": 1}, {"seed": top - 62, "paths": 64}, {"seed": bottom - 1}):
        with pytest.raises(ConfigError, match="config key 'seed' must keep the path seeds"):
            validate_config(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": {"n_modes": 8, "n_nodes": 16}, "mu_ladder": [0.05]}))
    out = tmp_path / "out"
    capsys.readouterr()
    argv = ["simulate-wave", "--config", str(cfg), "--out", str(out), "--seed", "9223372036854775813"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and "config key 'seed'" in err["message"]
    assert not out.exists()


def test_step_bound_and_audit_sizes_fail_by_name(tmp_path, capsys):
    # time.c_stab <= 0 makes the step bound c_stab * mu no step at all, and an
    # audit of no samples passes with every margin at -inf.
    steps = "must be a positive whole number of steps of config key"
    for raw, key, message in (
        ({"time": {"c_stab": 0.0}}, "time.c_stab", "must be positive, got 0.0"),
        ({"time": {"c_stab": -0.02}}, "time.c_stab", "must be positive, got -0.02"),
        ({"resolvent": {"n_pairs": 0}}, "resolvent.n_pairs", "must be at least 1, got 0"),
        ({"resolvent": {"n_smooth": 0}}, "resolvent.n_smooth", "must be at least 1, got 0"),
        ({"resolvent": {"n_smooth": -2}}, "resolvent.n_smooth", "must be at least 1, got -2"),
        # each of these ran the whole study and exited 1, or passed the monotone check vacuously
        ({"converge": {"ratio_max": 0}}, "converge.ratio_max", "must be positive, got 0.0"),
        ({"converge": {"ratio_max": -0.4}}, "converge.ratio_max", "must be positive, got -0.4"),
        ({"converge": {"allowed_inversions": -1}}, "converge.allowed_inversions",
         "must be at least 0, got -1"),
        ({"resolvent": {"lam_ladder": []}}, "resolvent.lam_ladder",
         "needs at least 2 distinct values, got []"),
        ({"resolvent": {"lam_ladder": [0.05]}}, "resolvent.lam_ladder",
         "needs at least 2 distinct values, got [0.05]"),
        ({"resolvent": {"lam_ladder": [0.05, 0.05]}}, "resolvent.lam_ladder",
         "needs at least 2 distinct values, got [0.05, 0.05]"),
        # non-positive sizes used to run on or fail unnamed, and fd_converge
        # took a ddof=1 standard error of one path into NaN z-scores
        ({"fd": {"paths": 1}}, "fd.paths", "must be at least 2, got 1"),
        ({"fd": {"paths": 0}}, "fd.paths", "must be at least 2, got 0"),
        ({"fd": {"mu": -1e-3}}, "fd.mu", "must be positive, got -0.001"),
        ({"fd": {"dt": 0}}, "fd.dt", "must be positive, got 0.0"),
        ({"fd": {"t_final": -1}}, "fd.t_final", "must be positive, got -1.0"),
        ({"time": {"dt_limit": 0}}, "time.dt_limit", "must be positive, got 0.0"),
        ({"time": {"dt": -1e-4}}, "time.dt", "must be positive, got -0.0001"),
        ({"time": {"t_final": -1}}, "time.t_final", "must be positive, got -1.0"),
        ({"domain": {"length": 0}}, "domain.length", "must be positive, got 0.0"),
        # a g-inversion tolerance of 0 failed unnamed in the rho-form limit, and -1 ran on
        ({"model": {"tol_inv": 0.0}}, "model.tol_inv", "must be positive, got 0.0"),
        ({"model": {"tol_inv": -1}}, "model.tol_inv", "must be positive, got -1.0"),
        # an eta_form step without a Newton iteration never moved u, and simulate-wave said ok
        ({"wave": {"newton_iters": 0}}, "wave.newton_iters", "must be at least 1, got 0"),
        ({"wave": {"newton_iters": -2}}, "wave.newton_iters", "must be at least 1, got -2"),
        # for q <= 1/2 the noise spectrum is not square-summable: kappa grows with N
        ({"model": {"q_exponent": 0.5}}, "model.q_exponent", "must exceed 0.5, got 0.5"),
        ({"model": {"q_exponent": 0}}, "model.q_exponent", "must exceed 0.5, got 0.0"),
        ({"model": {"q_exponent": -1}}, "model.q_exponent", "must exceed 0.5, got -1.0"),
        # a step that does not divide its horizon used to fail unnamed after set-up
        ({"time": {"t_final": 1.5e-4}}, "time.t_final", f"{steps} 'time.dt', got 0.00015 and 0.0001"),
        ({"time": {"t_final": 1e-4, "dt": 2e-4}}, "time.t_final", f"{steps} 'time.dt', got 0.0001"),
        ({"time": {"dt_limit": 3e-4}}, "time.t_final", f"{steps} 'time.dt_limit', got 0.5 and 0.0003"),
        ({"fd": {"dt": 0.3}}, "fd.t_final", f"{steps} 'fd.dt', got 1.0 and 0.3"),
        # an unknown choice failed unnamed once a run reached it, and not at all in a
        # subcommand that never reads the key (limit.form here)
        ({"wave": {"scheme": "nope"}}, "wave.scheme",
         "must be one of ('semi_implicit', 'eta_form', 'resolvent_implicit'), got 'nope'"),
        ({"limit": {"form": "v"}}, "limit.form", "must be one of ('u', 'rho'), got 'v'"),
        ({"model": {"diffusion": "nope"}}, "model.diffusion",
         "must be one of ('constant', 'cosine', 'zero'), got 'nope'"),
        ({"fd": {"friction": "bell"}}, "fd.friction",
         "must be one of ('two_plus_sin', 'constant'), got 'bell'"),
        # model.friction, model.reaction and initial.kind were checked only when a run built
        # its models or initial state: lyapunov, which builds neither, said ok
        ({"model": {"friction": "wobbly"}}, "model.friction",
         "must be one of ('constant', 'two_plus_sin', 'bell'), got 'wobbly'"),
        ({"model": {"reaction": "nope"}}, "model.reaction",
         "must be one of ('zero', 'linear_decay', 'cubic_clipped'), got 'nope'"),
        ({"initial": {"kind": "wiggle"}}, "initial.kind",
         "must be one of ('coeffs', 'zero', 'mode1', 'bump'), got 'wiggle'"),
        ({"model": {"friction_csv": "fric.csv", "gamma0": 1.0}}, "model.friction_csv",
         "takes no friction options, got model.gamma0"),
        # a domain the basis rejects used to fail unnamed in converge, and not in lyapunov
        ({"domain": {"n_modes": 0}}, "domain.n_modes", "must be at least 1, got 0"),
        ({"domain": {"n_modes": -4, "n_nodes": 8}}, "domain.n_modes", "must be at least 1, got -4"),
        ({"domain": {"n_modes": 8, "n_nodes": 10}}, "domain.n_nodes",
         "must be at least 2 * domain.n_modes = 16, got 10"),
        ({"domain": {"n_modes": 40}}, "domain.n_nodes",
         "must be at least 2 * domain.n_modes = 80, got 64"),
        # so did initial lists of the wrong length, once the initial state was built
        ({"domain": {"n_modes": 4, "n_nodes": 8}, "initial": {"kind": "coeffs", "coeffs": [1.0]}},
         "initial.coeffs", "must have length domain.n_modes = 4, got 1"),
        ({"initial": {"kind": "coeffs"}}, "initial.coeffs",
         "must be set when initial.kind is 'coeffs'"),
        ({"initial": {"velocity_coeffs": [0.0, 1.0]}}, "initial.velocity_coeffs",
         "must have length domain.n_modes = 32, got 2"),
    ):
        with pytest.raises(ConfigError, match=re.escape(f"'{key}' {message}")):
            validate_config(raw)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        fd = key.startswith("fd.")
        for command in ["fd-converge"] if fd else ["simulate-wave", "lyapunov", "converge"]:
            capsys.readouterr()
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, (command, raw)
            err = json.loads(capsys.readouterr().err)["error"]
            assert err["type"] == "config" and f"config key '{key}'" in err["message"], (command, raw)
            assert not out.exists()
    # a preset option value the preset rejects was checked only when a run built its
    # models: lyapunov and fd-converge, which build none, said ok
    for model, key, message in (
        ({"friction": "constant", "friction_value": -1}, "model.friction_value",
         "model.friction = 'constant', model.friction_value = -1.0: "
         "need 0 < gamma0 <= gamma1, got (-1.0, -1.0)"),
        ({"reaction": "cubic_clipped", "clip_radius": -1}, "model.clip_radius",
         "model.reaction = 'cubic_clipped', model.clip_radius = -1.0: clip_radius must be positive"),
        ({"friction": "bell", "gamma0": 3, "gamma1": 1}, "model.gamma0",
         "model.friction = 'bell', model.gamma0 = 3.0, model.gamma1 = 1.0: "
         "need 0 < gamma0 <= gamma1, got (3.0, 1.0)"),
        ({"reaction": "linear_decay", "clip_radius": 0.5}, "model.clip_radius",
         "model.reaction = 'linear_decay', model.clip_radius = 0.5: "
         "unknown options for linear_decay reaction: ['clip_radius']"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config({"model": model})
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": model}))
        out = tmp_path / "out"
        for command in ("lyapunov", "fd-converge"):
            capsys.readouterr()
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, (command, model)
            err = json.loads(capsys.readouterr().err)["error"]
            assert err["type"] == "config" and err["message"] == message, (command, model)
            assert key in err["message"] and not out.exists()
    ok = validate_config(
        {"time": {"c_stab": 0.1}, "resolvent": {"n_pairs": 1, "n_smooth": 1}, "fd": {"paths": 2}}
    )
    assert ok["time"]["c_stab"] == 0.1 and ok["fd"]["paths"] == 2
    assert ok["resolvent"]["n_pairs"] == ok["resolvent"]["n_smooth"] == 1
    assert validate_config({"model": {"q_exponent": 0.75}})["model"]["q_exponent"] == 0.75
    assert validate_config({})["model"]["q_exponent"] == 1.0
    # the library routes a config does not reach fail by name too
    from smallmass.basis import SpectralBasis
    from smallmass.models import build_diffusion, friction_preset, reaction_preset
    from smallmass.wave import WaveSolver

    with pytest.raises(ValueError, match=re.escape("n_nodes must be >= 2*n_modes = 16, got 10")):
        SpectralBasis(1.0, 8, 10)
    with pytest.raises(ValueError, match="friction preset must be one of .*, got 'wobbly'"):
        friction_preset("wobbly")
    with pytest.raises(ValueError, match="reaction preset must be one of .*, got 'nope'"):
        reaction_preset("nope")
    basis = make_basis(ok)
    with pytest.raises(ValueError, match="exponent q must exceed 0.5, got 0.5"):
        build_diffusion(basis, q=0.5)
    with pytest.raises(ValueError, match="newton_iters must be at least 1, got 0"):
        WaveSolver(basis, make_models(ok, basis), 0.01, newton_iters=0)


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
    assert not out.exists()


@pytest.mark.parametrize(
    "command, ladder",
    [
        ("converge", [0.2, 0.1, 0.1, 0.05, 0.05]),
        ("drift-ablation", [0.2, 0.01, 0.01]),
        ("scaling-audit", [0.2, 0.1, 0.05, 0.02, 0.2]),
    ],
)
def test_ladder_with_a_repeated_mass_fails_by_key_before_any_run(
    tmp_path, capsys, monkeypatch, command, ladder
):
    # Equal rows would count as inversions of the ladder and give flat ratios.
    from smallmass import runner

    def no_study(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(runner, "run_ladder_study", no_study)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"mu_ladder": ladder, "ablation": {"mu": 0.2}}))
    out = tmp_path / "out"
    assert main([command, "--config", str(p), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and "config key 'mu_ladder' repeats a mass" in err["message"]
    assert not out.exists()
    with pytest.raises(ConfigError, match="'mu_ladder' repeats a mass"):
        validate_config({"mu_ladder": ladder})


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
    assert seq.norms.keys() == par.norms.keys()
    for name, rows in seq.norms.items():
        assert rows.shape == (4, 6) and np.array_equal(rows, par.norms[name]), name
    # the drift ablation's distances are per path too, so they split the same way
    assert seq.d_no.shape == (4, 6) and seq.d_h.shape == (6,)
    assert np.array_equal(seq.d_no, par.d_no)
    assert np.array_equal(seq.d_h, par.d_h)
    # a study run without the ablation cannot be judged
    with pytest.raises(ValueError, match="ablate_drift"):
        drift_necessity(validate_config(raw), replace(seq, d_no=None, d_h=None))


def test_cli_drift_ablation_small(tmp_path, capsys, monkeypatch):
    import concurrent.futures

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

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, *args):
            blocks.append((fn, args[2]))  # the block function and its path count
            return super().submit(fn, *args)

    # the runner imports the pool from concurrent.futures when jobs > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
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


def test_drift_necessity_rejects_constant_friction():
    # Negative control: constant friction has gamma' = 0, so H = 0 and the
    # limits with and without H take the same steps.  The judge must say no:
    # the paired excess has a zero standard error and the intervals coincide.
    from smallmass.runner import drift_necessity, run_ladder_study

    raw = {
        "domain": {"n_modes": 8, "n_nodes": 16},
        "model": {"friction": "constant"},
        "time": {"t_final": 0.02, "dt": 5e-4, "dt_limit": 5e-4, "n_output": 10},
        "mu_ladder": [0.2, 0.1, 0.05, 0.02],
        "ablation": {"mu": 0.02},
        "paths": 8,
        "seed": 3,
    }
    cfg = validate_config(raw)
    study = run_ladder_study(cfg, ablate_drift=True)
    assert np.array_equal(study.d_no, study.per_path_distance)
    assert np.all(study.d_h == 0.0)
    rep = drift_necessity(cfg, study)
    assert rep.flags["paired"] is False
    assert rep.flags["separated"] is False
    assert not rep.ok


@pytest.mark.parametrize(
    "model, key",
    [
        ({"friction": "two_plus_sin", "gamma1": 5}, "model.gamma1"),
        ({"friction": "constant", "gamma0": 0.5}, "model.gamma0"),
        ({"friction": "bell", "friction_value": 3}, "model.friction_value"),
        ({"reaction": "linear_decay", "clip_radius": 0.5}, "model.clip_radius"),
        ({"friction": "bell", "gamma0": 3, "gamma1": 1}, "model.gamma0"),
        # an unknown preset is named already by validate_config, before any model is built
        ({"friction": "wobbly"}, "'model.friction' must be one of ('constant', 'two_plus_sin', 'bell'), got 'wobbly'"),
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
    # validate_config builds the chosen presets, so no model or basis is needed
    with pytest.raises(ConfigError, match=re.escape(key)):
        validate_config({"domain": {"n_modes": 8, "n_nodes": 16}, "model": model})


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
    assert models.reaction.f(Nodal(np.array([2.0])))[0] == -2.0
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


def test_fd_time_grid_fails_by_name():
    # A dt that does not divide t_final, exceeds it, or is zero fails by key
    # before any run, instead of running to the wrong time (0.3 -> t = 0.9),
    # running no step (2.0) or dividing by zero.
    for dt in (0.3, 2.0):
        with pytest.raises(ConfigError, match="'fd.t_final' must be a positive whole number"):
            validate_config({"fd": {"dt": dt, "t_final": 1.0, "paths": 10}})
    with pytest.raises(ConfigError, match="'fd.dt' must be positive"):
        validate_config({"fd": {"dt": 0.0, "t_final": 1.0, "paths": 10}})
    assert validate_config({"fd": {"dt": 0.25, "t_final": 1.0}})["fd"]["dt"] == 0.25


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


@pytest.mark.parametrize(
    "resolvent, key, message",
    [
        ({"lam": 0}, "resolvent.lam", "must be positive, got 0.0"),
        ({"lam": -0.05}, "resolvent.lam", "must be positive, got -0.05"),
        ({"lam_ladder": [0.1, -0.02]}, "resolvent.lam_ladder[1]", "must be positive, got -0.02"),
        ({"lam_ladder": [0.0]}, "resolvent.lam_ladder[0]", "must be positive, got 0.0"),
    ],
)
def test_non_positive_resolvent_lam_fails_by_key(tmp_path, capsys, resolvent, key, message):
    # Both used to reach the audit and exit 1 with an unnamed ResolventError.
    raw = {"domain": {"n_modes": 8, "n_nodes": 16}, "resolvent": resolvent}
    with pytest.raises(ConfigError, match=re.escape(f"'{key}' {message}")):
        validate_config(raw)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["resolvent-audit", "--config", str(p), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and f"config key '{key}'" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "resolvent, key",
    [
        ({"lam": 0.5}, "resolvent.lam"),
        ({"lam_ladder": [0.1, 0.05, 3.0]}, "resolvent.lam_ladder[2]"),
    ],
)
def test_resolvent_lam_at_or_above_lambda_bar_fails_by_key(tmp_path, capsys, resolvent, key):
    from smallmass.resolvent import OperatorA

    raw = {"domain": {"n_modes": 8, "n_nodes": 16}, "resolvent": resolvent}
    cfg = validate_config(raw)
    basis = make_basis(cfg)
    lambda_bar = OperatorA(basis, make_models(cfg, basis)).lambda_bar
    assert lambda_bar < 0.5  # about 0.27 for the default models
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["resolvent-audit", "--config", str(p), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config"
    assert f"config key '{key}' must be below lambda_bar = {lambda_bar:.6g}" in err["message"]
    assert not (out / "resolvent_audit.json").exists()
    # lambda_bar itself is outside the open range (0, lambda_bar)
    at_bar = {"domain": {"n_modes": 8, "n_nodes": 16}, "resolvent": {"lam": lambda_bar}}
    p.write_text(json.dumps(at_bar))
    assert main(["resolvent-audit", "--config", str(p), "--out", str(out)]) == 2
    assert "'resolvent.lam' must be below" in capsys.readouterr().err


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


def test_wave_energy_column_is_the_running_sup_expression(tmp_path):
    # The benchmark's single_path wave_resolvent route: taken in Python floats
    # (libm pow), the column rounded apart from uh1**2 + mu * vh**2 at t = 0.003425.
    from smallmass import runner

    cfg = validate_config(
        {
            "mu_ladder": [1e-4],
            "time": {"t_final": 0.005, "c_stab": 0.25},
            "wave": {"scheme": "resolvent_implicit"},
            "seed": 3000,
        }
    )
    runner.run_simulate_wave(cfg, tmp_path)
    lines = (tmp_path / "wave_energy.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    col = {name: np.array([float(r[k]) for r in rows[1:]]) for k, name in enumerate(rows[0])}
    uh1, vh = col["u_h1"], col["v_h"]
    assert np.array_equal(col["energy"], uh1**2 + 1e-4 * vh**2)


def _spy_waves(monkeypatch, batches: list | None = None) -> dict:
    """mu -> the last mass batch a ladder study ran that mass in, with its dt and its folds.

    Each batch's masses are appended to batches, when given, as the study builds it.
    """
    from smallmass import runner

    waves = {}
    real = runner._ScoredRun

    def spy(run, *args):
        scored = real(run, *args)
        if hasattr(run, "solver"):  # a mass batch's wave run; a limit run holds no solver
            mus = np.ravel(run.solver.mu).tolist()
            waves.update(dict.fromkeys(mus, scored))
            if batches is not None:
                batches.append(mus)
        return scored

    monkeypatch.setattr(runner, "_ScoredRun", spy)
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
    from smallmass import diagnostics

    real_add = diagnostics.DistanceFold.add

    def add(fold, t, *rows):
        vars(fold).setdefault("times", []).append(t)
        real_add(fold, t, *rows)

    monkeypatch.setattr(diagnostics.DistanceFold, "add", add)
    long = {**base, "time": {"t_final": 0.1, "dt": 5e-4}, "paths": 2, "mu_ladder": [0.2, 1e-3]}
    study = runner.run_ladder_study(validate_config(long))
    assert waves[1e-3].dt == 2.5e-4
    assert waves[0.2].dt == 5e-4
    # the refined and the unrefined batch both fold at the limit's 201 output times
    limit_times = np.arange(201) * 5e-4
    for mu in (0.2, 1e-3):
        assert np.array_equal(waves[mu].fold.times, limit_times)
    assert np.all(np.isfinite(study.per_path_distance))


def test_refined_and_unrefined_masses_score_on_the_coarse_clock(tmp_path):
    # 20 coarse steps, and 40 fine ones at the refined mass 1e-3: n_output = 200
    # records every coarse step, and 15 does not divide 20.  Every run is scored
    # at the coarse output times, whatever its refinement level.
    from smallmass import diagnostics, noise, runner
    from smallmass.limit import LimitSolver
    from smallmass.wave import WaveSolver

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
        study = runner.run_ladder_study(cfg, ablate_drift=True)
        assert runner.run_drift_ablation(cfg, tmp_path)["report"]["mu"] == 1e-3

        # the reconstruction: every run recorded on its own, the waves at every fine step
        basis = make_basis(cfg)
        models = make_models(cfg, basis)
        u0, v0 = make_initial(cfg, basis)
        batch = noise.sample_batch(cfg["seed"], 2, 0.01, 5e-4, basis.n_modes)
        limits = [
            LimitSolver(basis, models, with_drift=h).simulate(u0, batch, n_output=n_output)
            for h in (True, False)
        ]
        times = limits[0].times  # the coarse output times
        coarse = np.rint(times / 5e-4).astype(int)
        assert len(times) == (21 if n_output == 200 else 16)

        def distance(a, b):
            return np.add(*diagnostics.plain_parts(times, *diagnostics.distance_rows(a, b, basis)))

        for k, mu in enumerate(cfg["mu_ladder"]):
            solver = WaveSolver(basis, models, mu, scheme="resolvent_implicit")
            fine = noise.refine_to(batch, solver.max_dt())
            assert fine.level == (0 if mu == 0.2 else 1)
            u = solver.simulate(u0, v0, fine, n_output=fine.n_steps).u[coarse << fine.level]
            assert np.array_equal(study.per_path_distance[k], distance(u, limits[0].coeffs))
            assert np.array_equal(study.d_no[k], distance(u, limits[1].coeffs))
        assert np.array_equal(study.d_h, distance(limits[1].coeffs, limits[0].coeffs))


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


@pytest.mark.parametrize("ablate_drift", [False, True])
def test_study_block_runs_one_limit_stepper(monkeypatch, ablate_drift):
    # The limits with and without H are the rows of one LimitSolver run, as the
    # masses that share a step are the rows of one wave run.
    from smallmass import runner

    rows = []
    real = runner.LimitSolver.stepper

    def stepper(solver, initial, path):
        rows.append(solver.with_drift)
        return real(solver, initial, path)

    monkeypatch.setattr(runner.LimitSolver, "stepper", stepper)
    cfg = validate_config(
        {
            "domain": {"n_modes": 8, "n_nodes": 16},
            "time": {"t_final": 0.01, "dt": 5e-4, "n_output": 10},
            "mu_ladder": [0.2, 1e-3],
            "paths": 2,
        }
    )
    study = runner.run_ladder_study(cfg, ablate_drift=ablate_drift)
    assert rows == [(True, False) if ablate_drift else (True,)]
    assert study.per_path_distance.shape == (2, 2)
    assert (study.d_h is None) != ablate_drift


@pytest.mark.parametrize("scheme", ["eta_form", "semi_implicit", "resolvent_implicit"])
def test_ladder_study_equals_its_masses_run_one_at_a_time(monkeypatch, scheme):
    # dt = 5e-4 with c_stab = 0.25: 0.2 and 0.05 share the coarse step, 1e-3 is
    # refined once and 5e-4 twice.  The study batches the masses that share a
    # step, under every scheme, and scores them as it runs; each mass must
    # equal its own scalar run scored afterwards.
    from smallmass import noise, runner
    from smallmass.diagnostics import metric_distance
    from smallmass.limit import LimitSolver
    from smallmass.wave import WaveSolver

    cfg = validate_config(
        {
            "domain": {"n_modes": 8, "n_nodes": 16},
            "time": {"t_final": 0.01, "dt": 5e-4, "n_output": 10, "c_stab": 0.25},
            "mu_ladder": [0.2, 0.05, 1e-3, 5e-4],
            "wave": {"scheme": scheme},
            "paths": 3,
            "seed": 21,
        }
    )
    batches = []
    waves = _spy_waves(monkeypatch, batches)
    study = runner.run_ladder_study(cfg, ablate_drift=True)
    assert [mu for mus in batches if len(mus) > 1 for mu in mus] == [0.2, 0.05]

    basis = make_basis(cfg)
    models = make_models(cfg, basis)
    u0, v0 = make_initial(cfg, basis)
    batch = noise.sample_batch(21, 3, 0.01, 5e-4, basis.n_modes)
    limits = [
        LimitSolver(basis, models, with_drift=drift).simulate(u0, batch, n_output=10).coeffs
        for drift in (True, False)
    ]
    for k, mu in enumerate(cfg["mu_ladder"]):
        solver = WaveSolver(basis, models, mu, scheme=scheme, c_stab=0.25)
        traj = solver.simulate(u0, v0, noise.refine_to(batch, solver.max_dt()), n_output=10)
        assert waves[mu].dt == traj.dt
        for d, limit in zip((study.per_path_distance, study.d_no), limits):
            rep = metric_distance(traj.times, traj.u, limit, basis)
            alone = rep.sup_hm1 + rep.l2_h
            assert np.array_equal(d[k], alone), (scheme, mu)
        # the study keeps the four running norms the scaling audit reads
        assert set(study.norms) == {"sup_energy", "sup_v_h", "sup_u_h", "int_u_h1_sq"}
        for name, rows in study.norms.items():
            assert np.array_equal(rows[k], getattr(traj, name)), (scheme, mu, name)


def test_study_block_keeps_no_wave_trajectories():
    # The study runs the limit and each mass batch in one drive and scores the
    # batch against the limit's current state at every output time, so its
    # traced peak stays below the (n_out, n_mu, P, N) u trajectory of its masses
    # (the per-mass runs it replaced peaked at 1.24 times it), and below the
    # noise table plus one (n_out, P, N) limit trajectory (0.82 of it here;
    # storing the limit trajectory and the distance rows peaked at 1.96 times it).
    import tracemalloc

    from smallmass import runner

    raw = {
        "domain": {"n_modes": 16, "n_nodes": 32},
        "time": {"t_final": 0.02, "dt": 1e-4},
        "paths": 32,
    }
    cfg = validate_config(raw)
    t, n_paths, n_modes = cfg["time"], cfg["paths"], cfg["domain"]["n_modes"]
    n_out, n_mu = t["n_output"] + 1, len(cfg["mu_ladder"])
    trajectory_bytes = 8 * n_out * n_mu * n_paths * n_modes
    table_bytes = 8 * n_paths * n_modes * round(t["t_final"] / t["dt"])
    limit_bytes = 8 * n_out * n_paths * n_modes
    warm = {**raw, "time": {"t_final": 2e-3, "dt": 1e-4, "n_output": 20}, "paths": 2}
    warm = validate_config(warm)
    runner._study_block(warm, 1, 2, ablate_drift=False)  # the first call's lazy imports
    tracemalloc.start()
    try:
        runner._study_block(cfg, cfg["seed"], n_paths, ablate_drift=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < trajectory_bytes, (peak, trajectory_bytes)
    assert peak < table_bytes + limit_bytes, (peak, table_bytes + limit_bytes)


def test_study_reports_a_diverged_refined_batch_at_its_fine_step(monkeypatch):
    # A mass batch refined once takes two fine steps per coarse step; a state that
    # stops being finite is reported at the fine step and time where it happened.
    from smallmass import runner
    from smallmass.wave import SimulationDiverged, WaveSolver

    calls = []
    real = WaveSolver._step_semi_implicit

    def blows_up(self, u, v, dt, dbeta):
        calls.append(dt)
        u, v = real(self, u, v, dt, dbeta)
        return (np.full_like(u, np.nan) if len(calls) == 3 else u), v

    monkeypatch.setattr(WaveSolver, "_step_semi_implicit", blows_up)
    cfg = validate_config(
        {
            "domain": {"n_modes": 8, "n_nodes": 16},
            "time": {"t_final": 0.01, "dt": 5e-4, "n_output": 10, "c_stab": 0.25},
            "mu_ladder": [1e-3],
            "wave": {"scheme": "semi_implicit"},
            "paths": 2,
        }
    )
    with pytest.raises(SimulationDiverged) as err:
        runner.run_ladder_study(cfg)
    assert calls == [2.5e-4] * 3
    assert (err.value.step, err.value.t) == (3, 3 * 2.5e-4)


def test_fd_converge_keeps_no_trajectories(tmp_path):
    # The run records each integrator's path moments at every output time, so
    # its traced peak stays below one (n_out, P) trajectory; the three
    # trajectories it kept before peaked at about four times that.
    import tracemalloc

    from smallmass import runner
    from smallmass.finite_dim import FD_N_OUTPUT

    cfg = validate_config({"fd": {"t_final": 0.03}})
    trajectory_bytes = 8 * (FD_N_OUTPUT + 1) * cfg["fd"]["paths"]
    warm = validate_config({"fd": {"t_final": 0.002, "paths": 200}})
    runner.run_fd_converge(warm, tmp_path)  # the first call's lazy imports
    tracemalloc.start()
    try:
        runner.run_fd_converge(cfg, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < trajectory_bytes, (peak, trajectory_bytes)
