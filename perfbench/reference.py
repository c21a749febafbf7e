"""Reference figures too slow or too large to be workloads.

    python3 perfbench/reference.py            # every case, one process each
    python3 perfbench/reference.py --case jackknife:200

Cases: the jackknife ``sweep`` of ``jackknife_sweep`` at n = 50, 100 and
200 patients (its O(n^2) scaling), and ``limiting_phi`` at its default
``n_large`` = 100 000 (50 M grid rows), which ``run_study`` pays before
every ``s4_SF_transformedZ`` cell.  Each case runs once, in its own
process with one BLAS/OpenMP thread, on seed 1; it prints the wall time
of the call and the process's peak resident memory.  The limiting case
needs about 2 GB of memory.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = ("jackknife:50", "jackknife:100", "jackknife:200", "limiting:100000")


def _case(name: str) -> dict:
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from irrvis import inference, simlab

    kind, size = name.split(":")
    if kind == "jackknife":
        ds = workloads.panel(int(size), 1)
        config = workloads.sweep_config()
        start = time.perf_counter()
        inference.sweep(ds, config)
    else:
        cfg = workloads.scenario("continuous", 2, 1, name="s4_SF_transformedZ")
        start = time.perf_counter()
        simlab.limiting_phi(cfg, int(size))
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"case": name, "seconds": seconds, "peak_rss_mb": peak}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--case", choices=CASES)
    args = parser.parse_args()
    if args.case:
        print(json.dumps(_case(args.case)))
        return 0
    for name in CASES:
        child = subprocess.run([sys.executable, __file__, "--case", name],
                               stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout.strip() or json.dumps({"case": name,
                                                  "returncode": child.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
