"""Shared test utilities: acceptance-criterion reporting and a spy on np.cos per nodal state."""

import numpy as np
import pytest

_CRITERIA: list[tuple[int, str, bool, str]] = []


def record_criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    """Log one acceptance-criterion outcome; printed per-test and in the summary."""
    _CRITERIA.append((num, name, bool(ok), detail))
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num} [{status}] {name}" + (f" :: {detail}" if detail else ""))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok, detail in sorted(_CRITERIA):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {status}  {name}" + (f"  [{detail}]" if detail else ""))


_COS = np.cos  # the ufunc itself, kept before any test replaces np.cos


class _Watched(np.ndarray):
    """Nodal values a test watches: a ufunc called on them directly is logged.

    A model may hold np.cos itself instead of looking it up on numpy at call
    time; such a call reaches the values' __array_ufunc__.
    """

    log = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is _COS and method == "__call__":
            _Watched.log(inputs[0])
        plain = tuple(x.view(np.ndarray) if isinstance(x, _Watched) else x for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, _Watched) else o for o in kwargs["out"]
            )
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.fixture
def cos_per_state(monkeypatch):
    """Counts of np.cos evaluations on each nodal state that SpectralBasis.synthesize returns.

    Every synthesized array is kept alive and watched, and np.cos is spied
    both where it is looked up on numpy and where a model holds the ufunc;
    a state is its data address, so a plain view of it counts as the state.
    The fixture's value is a callable returning the counts of the states
    cos was taken on, in order of first use.
    """
    from smallmass.basis import SpectralBasis

    states, counts = [], {}
    synthesize = SpectralBasis.synthesize

    def watched_synthesize(self, f):
        out = synthesize(self, f).view(_Watched)
        states.append(out)  # kept alive, so no later array reuses its address
        return out

    def log(x):
        if isinstance(x, np.ndarray):
            key = x.__array_interface__["data"][0]
            if any(s.__array_interface__["data"][0] == key for s in states):
                counts[key] = counts.get(key, 0) + 1

    def spy_cos(x, *args, **kwargs):
        log(x)
        plain = x.view(np.ndarray) if isinstance(x, _Watched) else x
        return _COS(plain, *args, **kwargs)

    monkeypatch.setattr(SpectralBasis, "synthesize", watched_synthesize)
    monkeypatch.setattr(np, "cos", spy_cos)
    monkeypatch.setattr(_Watched, "log", staticmethod(log))
    return lambda: list(counts.values())
