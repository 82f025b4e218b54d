"""Names that code outside the package relies on: the benchmark tracer and the README."""

import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np

from smallmass import resolvent
from smallmass.basis import SpectralBasis
from smallmass.config import DEFAULTS, NO_DEFAULT
from smallmass.models import ModelSet, build_diffusion, friction_preset, reaction_preset
from smallmass.noise import sample_path, zero_path
from smallmass.wave import WaveSolver

ROOT = Path(__file__).resolve().parent.parent


def test_traced_names_exist_where_the_tracer_patches_them():
    # bench/spans.py replaces each name in its owner's namespace; a name that
    # moved or became an import elsewhere would leave its layer untraced.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, _ in spans.patch_points():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_resolvent_scheme_calls_resolvent_apply_through_its_module(monkeypatch):
    basis = SpectralBasis(1.0, 16)
    models = ModelSet(
        friction_preset("two_plus_sin"),
        reaction_preset("linear_decay"),
        build_diffusion(basis, factor="cosine"),
    )
    seen = []
    original = resolvent.resolvent_apply

    def spy(op, h, lam, *args, **kwargs):
        seen.append(lam)
        return original(op, h, lam, *args, **kwargs)

    monkeypatch.setattr(resolvent, "resolvent_apply", spy)
    solver = WaveSolver(basis, models, 1.0, scheme="resolvent_implicit")
    u0 = basis.analyze(4.0 * basis.x * (1 - basis.x))
    solver.simulate(u0, np.zeros(16), sample_path(3, 1e-3, 1e-3, 16), n_output=1)
    solver.simulate(u0, np.zeros(16), zero_path(2e-3, 2e-3, 16), n_output=1)
    assert seen == [1e-3, 2e-3]


def test_readme_library_sketch_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library sketch\s+```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert float(capsys.readouterr().out) > 0.0  # the coupled pathwise distance
    # the custom-coefficient block runs on the sketch's basis and state
    custom = re.search(
        r"A custom coefficient is a function of one nodal state.*?```python\n(.*?)```", readme, re.S
    ).group(1)
    exec(compile(custom, "README.md", "exec"), namespace)


def test_readme_config_names_exist():
    # A backticked `section.key` or `section.key[k]` whose section is a config
    # section and whose key is lowercase names a config key, or a name in the
    # smallmass module of that name (`wave.drive`, `resolvent.resolvent_apply`).
    sections = {sec for sec, value in DEFAULTS.items() if isinstance(value, dict)}
    keys = {f"{sec}.{key}" for sec in sections for key in DEFAULTS[sec]} | set(NO_DEFAULT)
    modules = {
        sec: importlib.import_module(f"smallmass.{sec}")
        for sec in sections
        if importlib.util.find_spec(f"smallmass.{sec}")
    }
    named = re.findall(r"`([a-z_]+)\.(\w+)(?:\[\w+\])?`", (ROOT / "README.md").read_text())
    stale = [
        f"{sec}.{key}"
        for sec, key in named
        if sec in sections and key == key.lower()
        and f"{sec}.{key}" not in keys and not hasattr(modules.get(sec), key)
    ]
    assert named and not stale
