"""The smallmass benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload ladder64 --seed 1 --seconds 40 --trace 0

Runs samples of the workload one after another, each in a fresh process
(bench/sample.py), until --seconds have passed, and prints every metric by
name with its unit.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: path_steps_per_s (all path-steps
over all run-phase time), and wall_s (run-phase time), setup_s and
peak_rss_mb, each the median over the samples.  Times are corrected to a
reference host speed: each sample times a fixed kernel of the benchmark's
own just before and just after its run phase (sample.host_probe), and its
times are scaled by its host_speed, sample.PROBE_REF_S over the mean of the
two probes.  The times as measured are printed beside them.  --trace 1
alternates untraced and traced samples and reports the per-layer metrics of
the traced ones (bench/spans.py) and the tracing overhead.  Every sample passes through
the correctness gate; a sample that raises or fails the gate counts as
failed.  The full record of the run, with the machine and every sample, is
written to .bench_out/results/, the spans of traced samples to
.bench_out/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402
import workloads  # noqa: E402
from sample import PROBE_REF_S, SetupFailed  # noqa: E402

END_TO_END_UNITS = {"path_steps_per_s": "1/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_SAMPLES = 3  # per kind: untraced samples, and traced samples of a traced run
DEADLINE_S = 165.0  # no sample starts later, and none runs past it


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next(ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def run_child(spec: dict, env: dict, timeout: float) -> dict:
    """Run one sample in a fresh process and return its record."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "sample.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        error = f"timed out after {timeout:.0f} s"
    else:
        if proc.returncode == 3:
            raise SetupFailed(proc.stderr.strip())
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            error = f"exit {proc.returncode}: " + " | ".join(proc.stderr.strip().splitlines()[-3:])
    return {"program_seed": spec["program_seed"], "traced": spec["trace"], "ok": False, "error": error}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def end_to_end(samples: list[dict]) -> dict:
    """The end-to-end metrics of a run's untraced samples.

    Times are corrected to the reference host speed (see sample.host_probe).
    wall_s is the median sample; path_steps_per_s is the throughput of the
    whole run, all path-steps over all run-phase time, so slow samples count
    in it with their full weight.
    """
    wall = [s["wall_s"] * s["host_speed"] for s in samples]
    return {
        "path_steps_per_s": sum(s["path_steps"] for s in samples) / sum(wall),
        "wall_s": statistics.median(wall),
        "setup_s": statistics.median(s["setup_s"] * s["host_speed"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Counts from the first traced sample, times from the traced sample of median wall time.

    Counts then depend only on the workload seed; times all come from one
    sample, so its self times and unattributed time sum to its wall time.
    """
    first = traced[0]["layers"]
    by_wall = sorted(traced, key=lambda s: s["wall_s"])
    median = by_wall[(len(by_wall) - 1) // 2]["layers"]
    out = {}
    for name, value in first.items():
        is_time = spans.unit_of(name) in ("s", "s/step")
        out[name] = median[name] if is_time else value
    out["trace.overhead_ratio"] = statistics.median(
        s["wall_s"] * s["host_speed"] for s in traced
    ) / statistics.median(s["wall_s"] * s["host_speed"] for s in untraced)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the benchmark's own tests quickly; measurements use full")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "smallmass", "__init__.py")):
        print(f"no smallmass package under {ROOT}/src; nothing to measure", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = {**os.environ, **workloads.THREAD_ENV}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    records: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        traced = bool(args.trace) and len(records) % 2 == 1
        n_untraced = sum(1 for r in records if not r["traced"])
        n_traced = len(records) - n_untraced
        enough = n_untraced >= MIN_SAMPLES and (not args.trace or n_traced >= MIN_SAMPLES)
        if (elapsed >= args.seconds and enough) or elapsed >= DEADLINE_S:
            break
        i = len(records)
        spec = {
            "workload": args.workload,
            "size": args.size,
            "program_seed": wl.program_seed(args.seed, i),
            "trace": traced,
            "out_dir": os.path.join(OUT, "work", args.workload),
            "spans_file": os.path.join(OUT, "spans", f"{tag}-sample{i}.json") if traced else None,
        }
        try:
            records.append(run_child(spec, env, DEADLINE_S - elapsed + 10.0))
        except SetupFailed as exc:
            print(f"set-up failed, no result: {exc}", file=sys.stderr)
            return 3

    done = [r for r in records if "wall_s" in r]
    failed = sum(1 for r in records if not r["ok"])
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("no sample completed; no result", file=sys.stderr)
        for r in records:
            print(f"  seed {r['program_seed']}: {r.get('error')}", file=sys.stderr)
        return 1

    machine = records[0].get("machine", {})
    print(f"smallmass benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size} samples={len(records)} commit={git_commit()}")
    print("machine " + json.dumps(machine, sort_keys=True))
    e2e = end_to_end(untraced)
    if args.trace:
        metrics = per_layer(traced, untraced)
        units = {k: spans.unit_of(k) for k in metrics}
    else:
        metrics = e2e
        units = END_TO_END_UNITS
    for name in metrics:
        print(f"  {name:42s} {metrics[name]:.6g} {units[name]}")
    q1, q2, q3 = quartiles([r["wall_s"] * r["host_speed"] for r in untraced])
    print(f"  wall_s of untraced samples: median {q2:.6g} s, quartiles {q1:.6g} .. {q3:.6g} s, "
          f"{len(untraced)} samples")
    q1, q2, q3 = quartiles([r["wall_s"] for r in untraced])
    print(f"  as measured, uncorrected: wall_s median {q2:.6g} s, quartiles {q1:.6g} .. {q3:.6g} s; "
          f"setup_s median {statistics.median(r['setup_s'] for r in untraced):.6g} s")
    print(f"  host probe median {statistics.median(sum(r['probe_s']) / 2 for r in done):.6g} s "
          f"(reference {PROBE_REF_S:g} s)")
    print(f"  failed_frac {failed / len(records):.6g} ({failed} of {len(records)} samples)")
    print(f"  max_rel_dev {max(r.get('max_rel_dev', 1.0) for r in records):.3g} "
          f"(gate: relative tolerance {workloads.RTOL:g})")
    if args.trace:
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(f"  self times {self_sum:.6g} s + unattributed {metrics['trace.unattributed_s']:.6g} s"
              f" = traced wall {metrics['trace.wall_s']:.6g} s")
    for r in records:
        for line in r.get("mismatches", []) + ([r["error"]] if "error" in r else []):
            print(f"  FAILED seed {r['program_seed']}: {line}")

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w") as fh:
        json.dump({"args": vars(args), "commit": git_commit(), "machine": machine,
                   "end_to_end": e2e, "metrics": metrics, "samples": records}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
