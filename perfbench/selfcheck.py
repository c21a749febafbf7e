"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selfcheck.py

Builds small outputs of each workload, confirms that its checks accept
them, then perturbs one output at a time (one weight scaled by 1.01, one
estimate shifted, a file truncated, ...) and confirms that the check
meant to catch it rejects it.  It also confirms that ``BENCHMARK.json``
names exactly the metrics the benchmark prints, and that the traced run's
wrappers are rebound where the package calls them.  Exits 1 if any case
goes the wrong way.  Takes about a minute.
"""

import copy
import json
import math
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import checks
import spans
import workloads as W
from irrvis import balancing_weights, cox, inference, q_values

SEED = 1
failures = []


def expect_pass(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        failures.append(label)
        print(f"FAIL  {label}: rejected a correct output: {exc}")
    else:
        print(f"ok    {label}")


def expect_reject(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        print(f"ok    {label}: {exc}")
    else:
        failures.append(label)
        print(f"FAIL  {label}: accepted a perturbed output")


@contextmanager
def edited(path, edit):
    """Temporarily replace a text file's lines by ``edit(lines)``."""
    with open(path) as fh:
        original = fh.read()
    lines = original.splitlines(keepends=True)
    with open(path, "w") as fh:
        fh.write("".join(edit(lines)))
    try:
        yield
    finally:
        with open(path, "w") as fh:
            fh.write(original)


def edit_cell(line_no, column, change):
    """Edit one CSV cell of line ``line_no`` (0 is the header)."""
    def edit(lines):
        cells = lines[line_no].rstrip("\n").split(",")
        cells[column] = change(cells[column])
        return lines[:line_no] + [",".join(cells) + "\n"] + lines[line_no + 1:]
    return edit


def scale(factor):
    return lambda text: repr(float(text) * factor)


def line_of(path, prefix):
    with open(path) as fh:
        return next(i for i, line in enumerate(fh) if line.startswith(prefix))


def jackknife_sweep():
    inputs = W._sweep_build(SEED, None, n=W.WARM_N)
    result = W._sweep_op(inputs)
    expect_pass("jackknife_sweep: correct sweep", W._sweep_check, inputs, result)

    def with_row(j, **change):
        rows = [dict(r) for r in result.rows]
        rows[j].update(change)
        return inference.SweepResult(tuple(rows), result.names)

    row = result.rows[4]
    expect_reject("jackknife_sweep: one estimate shifted by 1e-6",
                  W._sweep_check, inputs,
                  with_row(4, estimate=row["estimate"] + 1e-6))
    expect_reject("jackknife_sweep: one SE not finite", W._sweep_check, inputs,
                  with_row(2, se=float("nan")))
    expect_reject("jackknife_sweep: one SE zero", W._sweep_check, inputs,
                  with_row(7, se=0.0))
    expect_reject("jackknife_sweep: weight median changed", W._sweep_check, inputs,
                  with_row(3, weight_median=row["weight_median"] * 1.01))

    ds, config = inputs["panel"], inputs["config"]
    rs = checks.EventRiskSets(ds)
    phi = 0.3
    q = checks.selection_factors(ds, phi)
    fit = cox.fit_cox(ds, config.zspec, cox.QValues(phi, q))
    score, inc = rs.visit_model(W.Z_TERMS, fit.gamma, q)
    expect_pass("visit-model score at the fitted gamma", checks.check_score_zero,
                score, "fit")
    moved = fit.gamma + np.array([0.0, 1e-4, 0.0, 0.0])
    expect_reject("visit-model score at gamma shifted by 1e-4",
                  checks.check_score_zero, rs.visit_model(W.Z_TERMS, moved, q)[0],
                  "shifted")
    w = balancing_weights(ds, config.balance, q_values(ds, config.selection, phi),
                          fit).weights
    expect_pass("balance at the returned weights", checks.check_balance,
                rs.balance_residual(W.H_TERMS, w, inc), "weights")
    w = w.copy()
    w[w.size // 2] *= 1.01
    expect_reject("balance with one weight scaled by 1.01", checks.check_balance,
                  rs.balance_residual(W.H_TERMS, w, inc), "scaled")


def cli_analyze(workdir):
    inputs = W._cli_build(SEED, str(workdir), n=W.WARM_N)
    files = W._cli_op(inputs)
    expect_pass("cli_analyze: correct artifacts", W._cli_check, inputs, files)
    out = files["out"]
    weights = os.path.join(out, "weights_phi0.3.csv")
    cox_file = os.path.join(out, "cox_phi0.15.csv")
    cases = [
        ("panel CSV with one covariate's last digit changed", files["csv"],
         edit_cell(7, 6, lambda s: s[:-1] + ("1" if s[-1] != "1" else "2"))),
        ("panel CSV truncated", files["csv"], lambda lines: lines[:-1]),
        ("weights file truncated", weights, lambda lines: lines[:-1]),
        ("one weight scaled by 1.01", weights, edit_cell(5, 2, scale(1.01))),
        ("one sweep.csv estimate shifted",
         os.path.join(out, "sweep.csv"), edit_cell(4, 2, scale(1.0 + 1e-7))),
        ("one visit-model coefficient shifted by 1e-4", cox_file,
         edit_cell(line_of(cox_file, "coef,x"), 2,
                   lambda s: repr(float(s) + 1e-4))),
        ("one Breslow increment scaled by 1.01", cox_file,
         edit_cell(line_of(cox_file, "breslow") + 3, 2, scale(1.01))),
        ("one balance_phi residual changed",
         os.path.join(out, "balance_phi0.csv"),
         edit_cell(2, 1, lambda s: repr(float(s) + 1e-6))),
        ("calibration phi_abs scaled by 1 + 1e-9",
         os.path.join(files["cal"], "calibration.csv"),
         lambda lines: [line if not line.startswith("phi_abs,") else
                        "phi_abs," + repr(float(line.split(",")[1]) * (1 + 1e-9)) + "\n"
                        for line in lines]),
    ]
    for label, path, edit in cases:
        with edited(path, edit):
            expect_reject(f"cli_analyze: {label}", W._cli_check, inputs, files)
    expect_pass("cli_analyze: restored artifacts", W._cli_check, inputs, files)


def study_cell():
    inputs = W._study_build(SEED, None)
    table = W._study_op(inputs)
    expect_pass("study_cell: correct table", W._study_check, inputs, table)

    def changed(edit):
        t = copy.deepcopy(table)
        edit(t)
        return t

    cases = [
        ("one estimator failure", lambda t: t.n_failed.update(mle=1)),
        ("max_balance_residual 1e-6",
         lambda t: setattr(t, "max_balance_residual", 1e-6)),
        ("one bias shifted by 1e-9", lambda t: t.rows[3].update(
            bias=t.rows[3]["bias"] + 1e-9)),
        ("one RMSE scaled by 1.01", lambda t: t.rows[6].update(
            rmse=t.rows[6]["rmse"] * 1.01)),
        ("one replicate estimate shifted", lambda t: t.estimates["naive"].__setitem__(
            (2, 0), t.estimates["naive"][2, 0] + 1e-3)),
    ]
    for label, edit in cases:
        expect_reject(f"study_cell: {label}", W._study_check, inputs, changed(edit))
    shifted = changed(lambda t: t.estimates["complete"].__iadd__(1.0))
    expect_reject("study_cell: complete-data estimates biased by 1.0",
                  checks.check_unbiased, shifted, checks.count_cell_truth())
    ulp = changed(lambda t: t.estimates["balancing"].__setitem__(
        (0, 1), np.nextafter(t.estimates["balancing"][0, 1], 0.0)))
    expect_reject("study_cell: repeated table differing by one ulp", lambda: checks.require(
        W._study_digest(ulp) == W._study_digest(table), "tables differ"))


def limiting_fit():
    inputs = W._limiting_build(SEED, None)
    W._limiting_warm(inputs)
    value = inputs["small"]
    expect_pass("limiting_fit: correct value", W._limiting_check, inputs, value)
    expect_reject("limiting_fit: NaN result", W._limiting_check, inputs, float("nan"))
    expect_reject("limiting_fit: repeated value differing by one ulp", lambda: checks.require(
        W._limiting_digest(value) == W._limiting_digest(np.nextafter(value, 1.0)),
        "values differ"))
    inputs["small"] = value + 1e-6
    expect_reject("limiting_fit: small-n value shifted by 1e-6 from fit_cox",
                  W._limiting_check, inputs, value)


def benchmark_json_and_tracing():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect_pass("BENCHMARK.json per_layer matches spans.metric_units",
                checks.require, per_layer == spans.metric_units(),
                f"per_layer differs: {set(per_layer) ^ set(spans.metric_units())}")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect_pass("BENCHMARK.json end_to_end names", checks.require,
                end_to_end == {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"},
                f"end_to_end is {end_to_end}")
    expect_pass("BENCHMARK.json workloads", checks.require,
                [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS),
                "workload names differ")

    original = cox.fit_cox
    tracer = spans.Tracer()
    tracer.install()
    rebound = [m for m in ("inference", "simlab", "calibration", "cli")
               if getattr(sys.modules[f"irrvis.{m}"], "fit_cox") is not original]
    expect_pass("fit_cox rebound in inference, simlab, calibration and cli",
                checks.require, len(rebound) == 4, f"rebound only in {rebound}")
    inputs = W._sweep_build(SEED, None, n=W.WARM_N)
    tracer.active = True
    W._sweep_warm(inputs)
    tracer.active = False
    values = tracer.metrics(1)
    expect_pass("traced sweep counts fit_cox once per analysis", checks.require,
                values["cox.fit_cox.calls_per_analysis"] == 1.0
                and values["inference.analyze_once.calls"] == 3.0
                and values["riskset.RiskStructure.builds_per_cox_fit"] == 2.0,
                f"traced values {values}")
    total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    expect_pass("self times add up to the sweep's duration", checks.require,
                math.isclose(total, tracer.spans[0][3] - tracer.spans[0][2],
                             rel_tol=1e-9),
                "self times do not partition the outermost span")


def main() -> int:
    workdir = HERE / "_work" / f"selfcheck-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        jackknife_sweep()
        cli_analyze(workdir)
        study_cell()
        limiting_fit()
        benchmark_json_and_tracing()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} cases went the wrong way" if failures else "all cases ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
