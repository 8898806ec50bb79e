#!/usr/bin/env python3
"""Benchmark of the abbvloc command line.

    python3 bench/run.py --workload toric-cones --seed 1 --seconds 42 --trace 0

Drives ``abbvloc.cli.main([..., "--json"])`` in-process, one job at a
time from a single thread (a closed loop with one client), over the seeded
job list of one workload (see workloads.py).  Every job's stdout is checked
for exactness.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over the same inputs
and reports the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Run it from the root
of a source checkout; it imports the program from ./src.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import geometric_mean, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
GOLDEN = BENCH / "golden"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# Cold launches per pass, each after a bare interpreter launch; the pass's
# sample is the lowest launch over the lowest bare launch.
COLD_LAUNCHES = 3
# The calibration loop and the seconds it takes on the machine the baseline
# was measured on; reported times are rescaled to that speed (see measure).
CALIBRATION_STEPS = 600
REFERENCE_CALIBRATION_S = 0.005
# Wall time of `python -c pass` on that machine; cold launches are rescaled
# to it (see measure).
REFERENCE_START_S = 0.065


@dataclass
class Result:
    code: object
    stdout: str
    seconds: float
    error: str = None
    scaled: float = None  # seconds at the reference speed, see calibrate()


def load_program():
    """Import abbvloc afresh (dropping any earlier import) and return its cli."""
    for name in [n for n in sys.modules if n == "abbvloc" or n.startswith("abbvloc.")]:
        del sys.modules[name]
    return importlib.import_module("abbvloc.cli")


def run_job(cli, job) -> Result:
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(job.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a job must not stop the run; the type is recorded
        code, error = None, f"uncaught {type(exc).__name__}: {exc}"
    return Result(code, out.getvalue(), time.perf_counter() - start, error)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()[:16]


def instance_seed(seed: int, index: int) -> int:
    """Seed of the index-th instance of a run; instance 0 uses the run's seed."""
    return seed if index == 0 else workloads.derived_seed(seed, index)


def load_golden(workload: str) -> dict:
    path = GOLDEN / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_pass(inst, results: dict, golden: dict) -> dict:
    """{job id: reason} for every job of the pass that fails the gate."""
    failures = {}
    docs = {}
    expected = golden.get(str(inst.seed))
    for job in inst.jobs:
        res = results[job.id]
        if res.error:
            failures[job.id] = res.error
            continue
        if res.code != 0:
            failures[job.id] = f"exit code {res.code}"
        try:
            docs[job.id] = json.loads(res.stdout)
        except ValueError:
            failures.setdefault(job.id, "stdout is not a JSON document")
        if expected is not None and expected.get(job.id) != digest(res.stdout):
            failures.setdefault(job.id, "stdout differs from the golden set")
    for job_id, reason in workloads.cross_check(inst, docs).items():
        failures.setdefault(job_id, reason)
    return failures


def run_pass(cli, inst, recorder=None, tag="", calibration=None):
    """Run every job of the instance once; returns {job id: Result}.

    Given ``calibration``, the time of the calibration loop just before the
    pass, the loop also runs after every job, and each Result's ``scaled``
    is its time rescaled by the calibrations on either side of it."""
    results = {}
    for job in inst.jobs:
        if recorder is not None:
            recorder.job = f"{tag}{job.id}"
        res = results[job.id] = run_job(cli, job)
        if calibration is not None:
            after = calibrate()
            res.scaled = rescale(res.seconds, calibration, after)
            calibration = after
    return results


def launch(args) -> Result:
    """Run ``python <args>`` in a new interpreter that imports from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    return Result(proc.returncode, proc.stdout, time.perf_counter() - start)


def cold_launches(job) -> tuple:
    """Launch ``job`` as `python -m abbvloc.cli` COLD_LAUNCHES times, each
    right after a bare `python -c pass`.  Returns (launch Results, the lowest
    launch time rescaled by the lowest bare launch time)."""
    bare, launches = [], []
    for _ in range(COLD_LAUNCHES):
        bare.append(launch(["-c", "pass"]).seconds)
        launches.append(launch(["-m", "abbvloc.cli", *job.argv]))
    return launches, min(res.seconds for res in launches) * REFERENCE_START_S / min(bare)


def setup(workload: str, seed: int, workdir: Path):
    """Import the program afresh, generate the instance of ``seed`` and warm
    up with the first job of each subcommand of the warm-up instance of
    ``seed``, which shares no input with the timed one.
    Returns (seconds, cli module, instance)."""
    start = time.perf_counter()
    cli = load_program()
    inst = workloads.build(workload, seed, str(workdir))
    warm_dir = workdir / "warm-up"
    warm_dir.mkdir(exist_ok=True)
    warm = workloads.build(workload, seed, str(warm_dir), warm_up=True)
    seen = set()
    for job in warm.jobs:
        if job.argv[0] not in seen:
            seen.add(job.argv[0])
            run_job(cli, job)
    return time.perf_counter() - start, cli, inst


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = {}

    def add(self, tag: str, jobs: int, failures: dict):
        self.attempted += jobs
        for job_id, reason in failures.items():
            self.failures[f"{tag}{job_id}"] = reason


def calibrate() -> float:
    """Seconds taken by a fixed loop of stdlib Fraction arithmetic (about
    5 ms at the reference speed).

    It runs no abbvloc code, so it measures only how fast the machine is at
    that moment; garbage collection is off so that the heap cannot move it."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, CALIBRATION_STEPS):
            total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        return time.perf_counter() - start
    finally:
        gc.enable()


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, judged by the calibrations timed
    just before and just after the step."""
    return seconds * 2 * REFERENCE_CALIBRATION_S / (before + after)


def measure(args, workdir: Path) -> dict:
    """Repeat (set-up, cold launch, pass) over fresh seeded instances until
    ``args.seconds`` have passed.  Set-ups and cold launches are spread over
    the run so that their samples see the same machine as the passes.

    The calibration loop runs between every two timed steps, and every time
    except the cold launches' is rescaled by the calibrations on either
    side: on a shared machine the speed of identical work drifts by tens of
    percent within seconds, and the rescaled times drift far less.  The
    in-process loop does not track the cost of starting an interpreter, so
    cold launches are rescaled instead by a bare interpreter launch timed
    next to them (cold_launches).  On a shared 2-vCPU Linux container that
    cut the spread (IQR over median) of eight 25-s medians from 16 % to 2 %."""
    golden = load_golden(args.workload)
    tally = Tally()
    setups, cold, pass_s, overhead, frontier, small, cal = [], [], [], [], [], [], []
    recorder = tracing.Recorder() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    index, last = 0, 0.0
    while index < MIN_PASSES or time.perf_counter() + last <= deadline:
        begin = time.perf_counter()
        cal.append(calibrate())
        seconds, cli, inst = setup(args.workload, instance_seed(args.seed, index), workdir)
        cal.append(calibrate())
        setups.append(rescale(seconds, cal[-2], cal[-1]))
        cold_job = next(job for job in inst.jobs if job.id == inst.cold)
        launches, scaled = cold_launches(cold_job)
        cal.append(calibrate())
        cold.append(scaled)

        results = run_pass(cli, inst, calibration=cal[-1])
        pass_s.append(sum(res.scaled for res in results.values()))
        frontier.append(results[inst.frontier].scaled)
        small.append(geometric_mean([results[job.id].scaled for job in inst.jobs if job.small]))
        failures = check_pass(inst, results, golden)
        for launched in launches:
            if launched.code != 0 or launched.stdout != results[cold_job.id].stdout:
                failures.setdefault(cold_job.id, f"cold launch exit {launched.code} or stdout differs")
        tally.add(f"pass{index}:", len(inst.jobs) + 1, failures)

        if recorder is not None:
            with recorder:
                traced = run_pass(cli, inst, recorder, tag=f"{index}:")
            overhead.append(sum(res.seconds for res in traced.values())
                            - sum(res.seconds for res in results.values()))
            failures = check_pass(inst, traced, golden)
            for job in inst.jobs:
                if traced[job.id].stdout != results[job.id].stdout:
                    failures.setdefault(job.id, "traced stdout differs from untraced stdout")
            tally.add(f"traced{index}:", len(inst.jobs), failures)
        last = time.perf_counter() - begin
        index += 1

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"samples-{args.workload}-{args.seed}-{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"calibration_s": cal, "setup_s": setups, "cli_cold_s": cold, "pass_s": pass_s,
                   "frontier_s": frontier, "small_job_s": small, "trace_overhead_s": overhead}, fh)
    summary = {
        "passes": len(pass_s),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failed_ratio": len(tally.failures) / tally.attempted,
        "failures": tally.failures,
    }
    if not args.trace:
        metrics = {
            "setup_s": (median(setups), "s", f"median of {len(setups)} set-ups"),
            "pass_s": (median(pass_s), "s", f"median of {len(pass_s)} passes"),
            "frontier_s": (median(frontier), "s", f"median of {len(frontier)} runs of {inst.frontier}"),
            "small_job_p50_ms": (1000 * median(small), "ms",
                                 f"median over {len(small)} passes of the small jobs' geometric mean"),
            "cli_cold_s": (median(cold), "s", f"median over {len(cold)} passes of the lowest of "
                                              f"{COLD_LAUNCHES} launches of {inst.cold}, rescaled"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                            "peak resident set of the benchmark process"),
        }
        summary["correct"] = not tally.failures
    else:
        spans = recorder.spans
        selfs = tracing.self_times(spans)
        total_self, total_main = tracing.check_self_time_sum(spans, selfs)
        layer = tracing.layer_metrics(spans, selfs, recorder.counts, len(overhead))
        layer["trace.overhead_s"] = {"value": median(overhead), "unit": "s"}
        metrics = {k: (v["value"], v["unit"], f"from {len(overhead)} traced passes")
                   for k, v in layer.items()}
        tracing.dump(OUT / f"trace-{args.workload}.jsonl.gz", spans, selfs)
        if total_self != total_main:
            summary["failures"]["trace"] = (f"self times add up to {total_self} ns, "
                                            f"the cli.main spans to {total_main} ns")
        summary["correct"] = not summary["failures"]
    summary["metrics"] = metrics
    summary["machine"] = (f"calibration median {1000 * median(cal):.3f} ms, reference "
                          f"{1000 * REFERENCE_CALIBRATION_S:.3f} ms")
    return summary


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_source() -> bool:
    """Put the checkout's src/ first on the import path; False if absent."""
    if not (SRC / "abbvloc" / "cli.py").is_file():
        print(f"bench: no program source under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_source():
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        summary = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for job_id, reason in sorted(summary["failures"].items()):
        print(f"FAILED {job_id}: {reason}")
    print(f"{args.workload} seed={args.seed} passes={summary['passes']} "
          f"failed_ratio={summary['failed']}/{summary['attempted']}={summary['failed_ratio']:.4g}")
    print(f"  {summary['machine']}")
    for name, (value, unit, note) in summary["metrics"].items():
        print(f"  {name} = {value:.6g} {unit} ({note})")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in summary["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
