"""Record the correctness gate's reference values from the current commit.

    python3 bench/record_references.py

Runs every pool seed of every workload at both sizes in this process and
rewrites bench/references.json.  Run it only on a commit whose results are
known to be right (it was run on the seed commit of the benchmark); a change
that is meant to keep results must pass the gate against the file as it is.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import workloads

os.environ.update(workloads.THREAD_ENV)  # before numpy is imported

from sample import ROOT, import_package  # noqa: E402


def main() -> int:
    import_package()
    out_dir = os.path.join(ROOT, ".bench_out", "references")
    refs: dict = {}
    for name, wl in workloads.WORKLOADS.items():
        for size in wl.sizes:
            table = refs.setdefault(name, {}).setdefault(size, {})
            for seed in wl.pool():
                shutil.rmtree(out_dir, ignore_errors=True)
                os.makedirs(out_dir)
                values = {}
                for route, _, result in workloads.run(workloads.setup(wl, size, seed), out_dir):
                    values.update(workloads.gated_values(route, result, out_dir))
                table[str(seed)] = values
            print(f"{name} {size}: {len(table)} seeds", file=sys.stderr)
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
