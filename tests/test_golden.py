"""Golden outputs: fixed-seed sweeps, a study table and a limiting fit.

The files under ``tests/golden/`` were written by this module's
``write_goldens`` and pin the numbers the solvers produce.  Floats are
compared at relative 1e-10, so the test does not depend on the BLAS
build.  After a deliberate change of the numbers, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import math
from pathlib import Path

import pytest

from irrvis import (AnalysisConfig, MarginalModelSpec, ModelMatrixSpec,
                    Resampling, ScenarioConfig, generate, limiting_phi,
                    run_study, sweep)

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-10

Z_TERMS = ["z1", "z2", "z1*z2", "x"]
H_TERMS = ["1"] + Z_TERMS + ["t"] + [f"t*{z}" for z in Z_TERMS]


def cell(outcome, n, scenario="s3_SF_correctZ", n_reps=1, seed=1):
    return ScenarioConfig(outcome=outcome, gamma_z=1.25, phi_true=0.3, n=n,
                          scenario=scenario, n_reps=n_reps, seed=seed)


def write_sweep(weight_kind, path):
    # at n = 30 the ten balance terms are solvable on some seeds only;
    # seed 4 balances at every phi of the grid
    observed, _ = generate(cell("continuous", 30, seed=4), 0)
    config = AnalysisConfig(
        model=MarginalModelSpec(ModelMatrixSpec(["1", "x", "t"])),
        weight_kind=weight_kind, zspec=ModelMatrixSpec(Z_TERMS),
        hspec=ModelMatrixSpec(H_TERMS), phi_grid=(0.0, 0.15, 0.3),
        resampling=Resampling("jackknife"))
    sweep(observed, config).to_csv(path)


def write_study(path):
    run_study(cell("count", 100, n_reps=3), threads=1).to_csv(path)


def write_limiting(path):
    value = limiting_phi(cell("continuous", 2, "s4_SF_transformedZ"), n_large=200)
    Path(path).write_text(repr(value) + "\n")


WRITERS = {
    "sweep_mle.csv": lambda path: write_sweep("mle", path),
    "sweep_balancing.csv": lambda path: write_sweep("balancing", path),
    "study_count.csv": write_study,
    "limiting_phi.txt": write_limiting,
}


def _cells(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _same(want, got):
    try:
        a, b = float(want), float(got)
    except ValueError:
        return want == got
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * abs(a)


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_golden_output(name, tmp_path):
    path = tmp_path / name
    WRITERS[name](path)
    want, got = _cells(GOLDEN / name), _cells(path)
    assert [len(r) for r in got] == [len(r) for r in want]
    for i, (row_want, row_got) in enumerate(zip(want, got)):
        for j, (a, b) in enumerate(zip(row_want, row_got)):
            assert _same(a, b), f"{name} line {i + 1} field {j + 1}: {b} != {a}"


def write_goldens():
    GOLDEN.mkdir(exist_ok=True)
    for name, writer in WRITERS.items():
        writer(GOLDEN / name)


if __name__ == "__main__":
    write_goldens()
