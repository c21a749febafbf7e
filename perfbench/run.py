"""Run one workload of the irrvis benchmark and print its metrics.

    python3 perfbench/run.py --workload jackknife_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nowhere else.  The process pins BLAS/OpenMP to one thread,
builds the workload's inputs from ``--seed``, warms up, then repeats the
workload's operation until ``--seconds`` have passed, checks the outputs
and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``op_s``, ``setup_s`` and
``peak_rss_mb``; with ``--trace 1`` they are the per-module metrics of
``spans.py``, from spans recorded during the timed operations.  The two
times are rescaled to a machine of fixed speed by the reference kernel of
``pace.py``, timed after the imports, each set-up phase and each operation.
``--workload all`` runs every workload, each in its own process.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("jackknife_sweep", "cli_analyze", "study_cell", "limiting_fit")
# one thread for every numeric library the process may load
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "IRRVIS_THREADS")
# the input build and warm-up are repeated and their median reported, so
# that one slow build does not move setup_s
SETUP_REPEATS = 3


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(json.dumps({"workload": name, "returncode": child.returncode}))
            status = 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return status


def _run(args) -> int:
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    src = ROOT / "src"
    if not (src / "irrvis" / "__init__.py").is_file():
        print(f"benchmark: no package source at {src}/irrvis; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import irrvis
    import checks
    import pace
    import spans
    import workloads

    if Path(irrvis.__file__).resolve().parent != (src / "irrvis").resolve():
        print(f"benchmark: imported irrvis from {irrvis.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    import_s = time.perf_counter() - _T0

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    results = HERE / "results"
    speed = pace.Pace()
    try:
        speed.measure()
        phases = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            inputs = workload.build(args.seed, str(workdir))
            workload.warm(inputs)
            phases.append(time.perf_counter() - start)
            speed.measure()
        setup_wall_s = import_s + statistics.median(phases)

        times, failures = [], 0
        first = first_digest = None
        mismatched = 0
        tracer.active = bool(args.trace)
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            try:
                output = workload.op(inputs)
            except (irrvis.IrrvisError, workloads.OpFailed) as exc:
                failures += 1
                print(f"benchmark: operation failed: {exc}", file=sys.stderr)
            else:
                times.append(time.perf_counter() - start)
                digest = workload.digest(output)
                if first is None:
                    first, first_digest = output, digest
                elif digest != first_digest:
                    mismatched += 1
            speed.measure()
            if time.perf_counter() >= deadline:
                break
        tracer.active = False
        scale = pace.REFERENCE_S / statistics.median(speed.samples)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        correct = first is not None and mismatched == 0
        if mismatched:
            print(f"benchmark: {mismatched} operations differ from the first",
                  file=sys.stderr)
        if first is not None:
            try:
                workload.check(inputs, first)
            except checks.CheckFailed as exc:
                correct = False
                print(f"benchmark: check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's inputs are still there

    attempted = len(times) + failures
    if args.trace:
        units = spans.metric_units()
        values = tracer.metrics(attempted)
    else:
        units = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        values = {"op_s": statistics.median(times) * scale if times else float("nan"),
                  "setup_s": setup_wall_s * scale, "peak_rss_mb": peak_rss_mb}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failures,
              "metrics": metrics}
    results.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "import_s": import_s, "setup_phase_s": phases, "op_wall_s": times,
              "pace_s": speed.samples, "scale": scale, **result}
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = _arguments(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
