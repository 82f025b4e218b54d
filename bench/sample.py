"""One benchmark sample: set-up, run phase and correctness gate in this process.

    python3 bench/sample.py '{"workload": "ladder64", "size": "full",
                              "program_seed": 1000, "trace": false,
                              "out_dir": ".bench_out/work", "spans_file": null}'

run.py starts one fresh process per sample, so set-up time and peak memory
belong to that sample alone.  The sample prints one JSON line:

    setup_s      import of smallmass (numpy, scipy), validate_config and
                 make_basis/make_models/make_initial for every route
    wall_s       the run phase: the work functions of smallmass.runner,
                 including Philox sampling and writing their artifacts
    probe_s      host_probe just before and just after the run phase
    host_speed   PROBE_REF_S over the mean of the two probes: the factor
                 that corrects this sample's times to the reference speed
    peak_rss_mb  peak resident memory of this process after the run phase
    path_steps   paths x steps integrated by the run phase
    ok, max_rel_dev, mismatches   the correctness gate against references.json
    layers       per-layer metrics (traced samples only)
    machine      versions and thread settings the sample ran with

Exit code 3 means the package could not be set up at all (it is missing or
does not import); run.py then stops without printing a result.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402  (needs BENCH_DIR on the path)


PROBE_ITERS = 1500
PROBE_REF_S = 0.1  # corrected times are in seconds of a host on which host_probe takes this long


class SetupFailed(RuntimeError):
    """The package could not be imported or a workload config did not validate."""


def import_package():
    """Import smallmass from this checkout's src/, never from anywhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import smallmass

    here = os.path.dirname(os.path.abspath(smallmass.__file__))
    if here != os.path.join(SRC, "smallmass"):
        raise SetupFailed(f"smallmass was imported from {here}, not from {SRC}")
    return smallmass


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def host_probe() -> float:
    """Seconds this host now takes for a fixed kernel: a measure of its current speed.

    On a shared host the speed of the machine drifts by a factor of up to
    two within minutes, and each of the two CPUs drifts on its own, so the
    probe runs in the sample's own process, right next to the run phase.
    The kernel is the benchmark's, not the package's: 64-row sine
    transforms and element-wise numpy on small and on 10,000-element arrays
    in a Python loop, the kinds of work the workloads spend their time on.
    """
    import numpy as np
    import scipy.fft

    x = np.linspace(0.0, 1.0, 64 * 32).reshape(64, 32)
    z = np.linspace(1.0, 2.0, 10_000)
    t = time.perf_counter()
    for _ in range(PROBE_ITERS):
        y = scipy.fft.dst(x, type=1, axis=-1, workers=1)
        x = np.sin(1e-3 * y) + 0.5 * x
        z = np.sqrt(z * z + 1e-3)
    return time.perf_counter() - t


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def run_sample(workload: str, size: str, program_seed: int, trace: bool, out_dir: str,
               spans_file: str | None = None) -> dict:
    """Set up, run and gate one sample in this process; returns the sample record."""
    wl = workloads.WORKLOADS[workload]
    t0 = time.perf_counter()
    try:
        import_package()
        prepared = workloads.setup(wl, size, program_seed)
    except SetupFailed:
        raise
    except Exception as exc:  # ImportError, ConfigError, ...: nothing can run
        raise SetupFailed(f"{type(exc).__name__}: {exc}") from exc
    setup_s = time.perf_counter() - t0

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    probe_s = [host_probe()]
    tracer = None
    if trace:
        import spans  # not at the top: its numpy import belongs to the timed set-up

        tracer = spans.Tracer()
        tracer.install()
    t1 = time.perf_counter()
    try:
        results = workloads.run(prepared, out_dir)
    finally:
        wall_s = time.perf_counter() - t1
        if tracer is not None:
            tracer.uninstall()
    probe_s.append(host_probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    values = {}
    for route, _, result in results:
        values.update(workloads.gated_values(route, result, out_dir))
    refs = workloads.load_references().get(workload, {}).get(size, {})
    ok, max_rel_dev, mismatches = workloads.check(values, refs.get(str(program_seed)))

    record = {
        "program_seed": program_seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "probe_s": probe_s,
        "host_speed": PROBE_REF_S / (sum(probe_s) / 2),
        "path_steps": sum(workloads.path_steps(route, cfg) for route, cfg, _ in results),
        "ok": ok,
        "max_rel_dev": max_rel_dev,
        "mismatches": mismatches,
        "values": values,
        "traced": trace,
    }
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer, wall_s, _dir_bytes(out_dir))
        if spans_file:
            os.makedirs(os.path.dirname(spans_file) or ".", exist_ok=True)
            with open(spans_file, "w") as fh:
                json.dump(tracer.span_records(), fh)
    return record


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    try:
        record = run_sample(
            spec["workload"], spec["size"], spec["program_seed"], spec["trace"],
            spec["out_dir"], spec.get("spans_file"),
        )
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a failed run phase is a failed sample, reported as data
        traceback.print_exc()
        record = {"program_seed": spec["program_seed"], "traced": spec["trace"], "ok": False,
                  "error": f"{type(exc).__name__}: {exc}"}
    record["machine"] = machine_info()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
