"""Run two sets of the benchmark on one commit and record their steadiness.

    python3 bench/steadiness.py --out bench/BENCH_0.json

Each set runs every workload of BENCHMARK.json once per seed 1..10,
untraced, and once traced on seed 1.  The two sets are interleaved: for
each seed and workload one run of each set, the set that goes first
alternating with the seed, so that a drift of the host over the hour the
sets take lands on both alike.  For each end-to-end metric a set records
the ten values, their median and quartiles (statistics.quantiles, n=4) and
the spread, (q3 - q1) / median; the second set's median is compared with
the first's, as a share of the first, signed so that a positive number
means worse.  Every metric whose spread, or whose worsening, exceeds its
bound in BENCHMARK.json is printed as OVER.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = list(range(1, 11))
LABELS = ("set1", "set2")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_out", "results", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        record = json.load(fh)
    result["machine"], result["commit"] = record["machine"], record["commit"]
    return result


def in_turn(seed: int) -> tuple:
    """The order in which the two sets run for this seed: set1 first on odd seeds."""
    return LABELS if seed % 2 else LABELS[::-1]


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    results = {label: {name: [] for name in names} for label in LABELS}
    for seed in SEEDS:
        for name in names:
            for label in in_turn(seed):
                r = run_once(name, seed, seconds, 0)
                results[label][name].append(r)
                print(f"{label} {name:12s} seed {seed:2d} attempted {r['attempted']:3d} failed {r['failed']} "
                      + " ".join(f"{m} {r['metrics'][m]['value']:.6g}" for m in bounds), flush=True)
    traced = {label: {} for label in LABELS}
    for name in names:
        for label in in_turn(SEEDS[0]):
            traced[label][name] = run_once(name, SEEDS[0], seconds, 1)

    doc = {"started": started, "seeds": SEEDS, "run_seconds": seconds, "interleaved": True,
           "commit": results[LABELS[0]][names[0]][0]["commit"],
           "machine": results[LABELS[0]][names[0]][0]["machine"], "run_sets": []}
    for label in LABELS:
        run_set = {"label": label, "workloads": {}}
        for name in names:
            runs = results[label][name]
            e2e = {m: summary([r["metrics"][m]["value"] for r in runs]) for m in bounds}
            run_set["workloads"][name] = {
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "end_to_end": e2e,
                "per_layer": {k: v["value"] for k, v in traced[label][name]["metrics"].items()},
            }
            for m, s in e2e.items():
                over = "OVER" if s["spread"] > bounds[m]["bound"] else ""
                print(f"{label} {name:12s} {m:18s} median {s['median']:.6g} spread {s['spread']:.4f} "
                      f"(bound {bounds[m]['bound']}) {over}", flush=True)
        doc["run_sets"].append(run_set)

    a, b = doc["run_sets"]
    comparison = {}
    for name in names:
        comparison[name] = {}
        for m, spec in bounds.items():
            m1 = a["workloads"][name]["end_to_end"][m]["median"]
            m2 = b["workloads"][name]["end_to_end"][m]["median"]
            worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
            comparison[name][m] = {"first": m1, "second": m2, "worse_by": worse}
            over = "OVER" if worse > spec["bound"] else ""
            print(f"compare {name:12s} {m:18s} {m1:.6g} -> {m2:.6g} worse by {worse:+.4f} "
                  f"(bound {spec['bound']}) {over}")
    doc["comparison"] = {"first": a["label"], "second": b["label"], "workloads": comparison}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
