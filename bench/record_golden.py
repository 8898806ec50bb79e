#!/usr/bin/env python3
"""Record the golden set: a digest of every job's --json stdout.

    python3 bench/record_golden.py

For each workload and each seed in SEEDS this runs the first instance of a
benchmark run with that seed (the one whose jobs get ``--seed <seed>``) and
stores the first 16 hex digits of the SHA-256 of each job's stdout in
bench/golden/<workload>.json.  It refuses to record when any job exits
non-zero or fails a cross-check.  Run it only on a commit whose outputs
are meant to become the reference.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run
import workloads

SEEDS = (*range(21), 42)


def main() -> int:
    if not run.use_source():
        return 2
    cli = run.load_program()
    run.GOLDEN.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        golden = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
                inst = workloads.build(workload, seed, workdir)
                results = run.run_pass(cli, inst)
            failures = run.check_pass(inst, results, {})
            if failures:
                print(f"{workload} seed {seed}: {failures}", file=sys.stderr)
                return 1
            golden[str(seed)] = {job.id: run.digest(results[job.id].stdout) for job in inst.jobs}
        with open(run.GOLDEN / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(golden)} seeds recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
