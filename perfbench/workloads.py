"""The benchmark's four workloads.

Each workload is five functions; its inputs follow from the seed alone:

* ``build(seed, workdir)`` makes the inputs (set-up, untimed);
* ``warm(inputs)`` runs the same code path on a small input (set-up);
* ``op(inputs)`` is one timed operation; it returns its output;
* ``digest(output)`` reduces an output to bytes, so every repeated
  operation can be held to be bit-identical to the first;
* ``check(inputs, output)`` validates the first operation's output against
  computations made apart from the package (see ``checks.py``).

The package is called through module attributes (``inference.sweep``,
``cli.main``, ...) so that the traced run's rebound wrappers are the ones
called.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from irrvis import cli, cox, data, inference, rng, simlab, weights
from irrvis.design import ModelMatrixSpec
from irrvis.gee import MarginalModelSpec

import checks

GAMMA_Z = 1.25
PHI_TRUE = 0.3
SWEEP_GRID = (0.0, 0.15, 0.3)
CLI_GRID = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
JACKKNIFE_N = 100
CLI_N = 400
STUDY_N = 400
STUDY_REPS = 20
LIMITING_N = 10_000
# patients in the warm-up inputs
WARM_N = 50
LIMITING_CHECK_N = 200

Z_TERMS = ["z1", "z2", "z1*z2", "x"]
H_TERMS = ["1"] + Z_TERMS + ["t"] + [f"t*{z}" for z in Z_TERMS]
X_TERMS = ["1", "x", "t"]


def labels(terms) -> list:
    """Column names the package gives term strings (``t*x`` is ``t:x``)."""
    return [term.replace("*", ":") for term in terms]


class OpFailed(RuntimeError):
    """An operation reported failure without raising a package error."""


@dataclass(frozen=True)
class Workload:
    build: Callable
    warm: Callable
    op: Callable
    digest: Callable
    check: Callable


def scenario(outcome: str, n: int, seed: int, name: str = "s3_SF_correctZ",
             n_reps: int = 1) -> simlab.ScenarioConfig:
    return simlab.ScenarioConfig(outcome=outcome, gamma_z=GAMMA_Z,
                                 phi_true=PHI_TRUE, n=n, scenario=name,
                                 n_reps=n_reps, seed=seed)


def panel(n: int, seed: int):
    """Observed continuous panel of the ``s3_SF_correctZ`` cell, n patients."""
    observed, _ = simlab.generate(scenario("continuous", n, seed), 0)
    return observed


# -- jackknife_sweep ---------------------------------------------------------


def sweep_config(grid=SWEEP_GRID, resampling="jackknife") -> inference.AnalysisConfig:
    return inference.AnalysisConfig(
        model=MarginalModelSpec(ModelMatrixSpec(X_TERMS)),
        weight_kind="balancing",
        zspec=ModelMatrixSpec(Z_TERMS),
        hspec=ModelMatrixSpec(H_TERMS),
        phi_grid=tuple(grid),
        resampling=inference.Resampling(resampling))


def _sweep_build(seed, workdir, n=JACKKNIFE_N):
    return {"panel": panel(n, seed), "config": sweep_config(),
            "warm_config": sweep_config(resampling="none")}


def _sweep_warm(inputs):
    inference.sweep(inputs["panel"], inputs["warm_config"])


def _sweep_op(inputs):
    return inference.sweep(inputs["panel"], inputs["config"])


def _sweep_digest(result) -> bytes:
    return repr(result.rows).encode()


def sweep_rows_by_phi(rows) -> dict:
    """``{phi: [row dicts in term order]}`` from sweep rows."""
    out: dict = {}
    for row in rows:
        out.setdefault(float(row["phi"]), []).append(row)
    return out


def _sweep_check(inputs, result) -> None:
    ds, config = inputs["panel"], inputs["config"]
    rs = checks.EventRiskSets(ds)
    visit_rows = rs.visit_rows
    x = checks.term_columns(ds, X_TERMS, visit_rows, ds.end[visit_rows])
    y = ds.outcome[visit_rows]
    by_phi = sweep_rows_by_phi(result.rows)
    checks.require(sorted(by_phi) == list(SWEEP_GRID),
                   f"sweep grid {sorted(by_phi)} is not {list(SWEEP_GRID)}")
    for phi in SWEEP_GRID:
        rows = by_phi[phi]
        context = f"phi={phi:g}"
        checks.require([r["term"] for r in rows] == X_TERMS
                       and all(r["converged"] for r in rows),
                       f"{context}: sweep rows missing or not converged")
        # the visit model and weights the sweep used, refitted outside the
        # timed region; each is then held to its defining equations
        q = checks.selection_factors(ds, phi)
        fit = cox.fit_cox(ds, config.zspec, cox.QValues(phi, q))
        score, inc = rs.visit_model(Z_TERMS, fit.gamma, q)
        checks.check_score_zero(score, context)
        w = weights.balancing_weights(
            ds, config.balance, weights.q_values(ds, config.selection, phi), fit).weights
        checks.check_balance(rs.balance_residual(H_TERMS, w, inc), context)
        summary = (float(w.min()), float(np.median(w)), float(w.max()))
        checks.require(summary == (rows[0]["weight_min"], rows[0]["weight_median"],
                                   rows[0]["weight_max"]),
                       f"{context}: weight summary differs from the weights")
        checks.check_estimates([r["estimate"] for r in rows],
                               checks.weighted_least_squares(x, y, w), context)
        checks.check_se([r["se"] for r in rows], context)


# -- cli_analyze -------------------------------------------------------------


def write_panel_csv(ds, path) -> None:
    """Write a panel in the package's CSV layout, floats by ``repr``."""
    names = ["patient_id", "start", "end", "at_risk", "visit", "outcome",
             *ds.covariate_names]
    pid = [str(ds.patient_ids[i]) for i in ds.patient_index.tolist()]
    start, end = ds.start.tolist(), ds.end.tolist()
    risk = ["1" if v else "0" for v in ds.at_risk.tolist()]
    visit = ds.visit.tolist()
    outcome = ds.outcome.tolist()
    cov = ds.covariates.tolist()
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(ds.n_rows):
            fh.write(",".join([pid[i], repr(start[i]), repr(end[i]), risk[i],
                               "1" if visit[i] else "0",
                               repr(outcome[i]) if visit[i] else "",
                               *map(repr, cov[i])]) + "\n")


def _cli_files(workdir: str, tag: str, ds) -> dict:
    csv_path = os.path.join(workdir, f"{tag}.csv")
    write_panel_csv(ds, csv_path)
    config = {
        "input": csv_path,
        "seed": 0,
        "calibrate": {"z_terms": Z_TERMS, "selection_transform": "identity"},
        "analyze": {"weight_kind": "balancing", "z_terms": Z_TERMS,
                    "h_terms": H_TERMS, "x_terms": X_TERMS, "link": "identity",
                    "variance": "constant", "selection_transform": "identity",
                    "phi_grid": CLI_GRID, "resampling": "none"},
    }
    config_path = os.path.join(workdir, f"{tag}.yml")
    with open(config_path, "w") as fh:
        yaml.safe_dump(config, fh, sort_keys=False)
    return {"csv": csv_path, "config": config_path,
            "cal": os.path.join(workdir, f"{tag}_cal"),
            "out": os.path.join(workdir, f"{tag}_out")}


def _cli_build(seed, workdir, n=CLI_N):
    ds = panel(n, seed)
    return {"panel": ds, "files": _cli_files(workdir, "panel", ds),
            "warm_files": _cli_files(workdir, "warm", panel(WARM_N, seed))}


def _cli_run(files) -> dict:
    base = ["--config", files["config"], "--threads", "1"]
    codes = {"calibrate": cli.main(["calibrate", *base, "--output", files["cal"]]),
             "analyze": cli.main(["analyze", *base, "--output", files["out"]])}
    if any(codes.values()):
        raise OpFailed(f"irrvis exit codes {codes}")
    return files


def _cli_warm(inputs):
    _cli_run(inputs["warm_files"])


def _cli_op(inputs):
    return _cli_run(inputs["files"])


def _cli_digest(files) -> bytes:
    h = hashlib.sha256()
    for key in ("cal", "out"):
        for name in sorted(os.listdir(files[key])):
            h.update(name.encode())
            with open(os.path.join(files[key], name), "rb") as fh:
                h.update(fh.read())
    return h.digest()


def _read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_cox(path):
    """``(gamma by term, event times, increments)`` from a ``cox_phi*.csv``."""
    gamma, times, inc = {}, [], []
    for row in _read_rows(path):
        if row["section"] == "coef":
            gamma[row["key"]] = float(row["value"])
        else:
            times.append(float(row["key"]))
            inc.append(float(row["value"]))
    return gamma, np.array(times), np.array(inc)


def read_weights(path, ds) -> np.ndarray:
    """Weights of a ``weights_phi*.csv``, checked to list the visit rows in order."""
    rows = _read_rows(path)
    visit_rows = np.flatnonzero(ds.visit)
    checks.require(len(rows) == visit_rows.size,
                   f"{os.path.basename(path)}: {len(rows)} rows for "
                   f"{visit_rows.size} visits")
    for r, i in zip(rows, visit_rows.tolist()):
        checks.require(r["patient_id"] == str(ds.patient_ids[ds.patient_index[i]])
                       and float(r["visit_time"]) == ds.end[i],
                       f"{os.path.basename(path)}: row does not match visit row {i}")
    return np.array([float(r["weight"]) for r in rows])


def _cli_check(inputs, files) -> None:
    ds = inputs["panel"]
    checks.check_bitwise_dataset(data.load_csv(files["csv"]), ds)
    items = {r["quantity"]: float(r["value"])
             for r in _read_rows(os.path.join(files["cal"], "calibration.csv"))}
    checks.check_calibration(items)

    rs = checks.EventRiskSets(ds)
    visit_rows = rs.visit_rows
    x = checks.term_columns(ds, X_TERMS, visit_rows, ds.end[visit_rows])
    y = ds.outcome[visit_rows]
    sweep_rows = sweep_rows_by_phi(_read_rows(os.path.join(files["out"], "sweep.csv")))
    checks.require(sorted(sweep_rows) == CLI_GRID,
                   f"sweep.csv grid {sorted(sweep_rows)} is not {CLI_GRID}")
    for phi in CLI_GRID:
        tag = format(phi, "g")
        context = f"phi={tag}"
        gamma, times, inc = read_cox(os.path.join(files["out"], f"cox_phi{tag}.csv"))
        checks.require(list(gamma) == labels(Z_TERMS) and np.array_equal(times, rs.times),
                       f"{context}: cox_phi{tag}.csv terms or event times differ")
        q = checks.selection_factors(ds, phi)
        score, own_inc = rs.visit_model(Z_TERMS, list(gamma.values()), q)
        checks.check_score_zero(score, context)
        checks.check_increments(inc, own_inc, context)
        w = read_weights(os.path.join(files["out"], f"weights_phi{tag}.csv"), ds)
        residual = rs.balance_residual(H_TERMS, w, inc)
        checks.check_balance(residual, context)
        reported = _read_rows(os.path.join(files["out"], f"balance_phi{tag}.csv"))
        checks.require([r["term"] for r in reported] == labels(H_TERMS) and np.allclose(
            [float(r["residual"]) for r in reported], residual, rtol=0.0,
            atol=checks.ROUNDING_SLACK),
            f"{context}: balance_phi{tag}.csv residuals differ from the recomputed ones")
        rows = sweep_rows[phi]
        checks.require([r["term"] for r in rows] == X_TERMS
                       and all(r["converged"] == "1" for r in rows),
                       f"{context}: sweep.csv rows missing or not converged")
        checks.check_estimates([float(r["estimate"]) for r in rows],
                               checks.weighted_least_squares(x, y, w), context)


# -- study_cell --------------------------------------------------------------


def _study_build(seed, workdir, n=STUDY_N, n_reps=STUDY_REPS):
    # the warm-up study is the operation's first replicate alone, which the
    # operation needs to succeed anyway; a smaller cell can fail to balance
    return {"cfg": scenario("count", n, seed, n_reps=n_reps),
            "warm_cfg": scenario("count", n, seed, n_reps=1)}


def _study_warm(inputs):
    simlab.run_study(inputs["warm_cfg"], threads=1)


def _study_op(inputs):
    return simlab.run_study(inputs["cfg"], threads=1)


def _study_digest(table) -> bytes:
    parts = [repr(table.rows), repr(table.n_failed), repr(table.max_balance_residual)]
    parts += [table.estimates[e].tobytes().hex() for e in sorted(table.estimates)]
    return "|".join(parts).encode()


def _study_check(inputs, table) -> None:
    truth = simlab.TRUE_BETA["count"]
    checks.check_metrics_table(table, truth, simlab.ESTIMATORS)
    checks.check_balance_residual_reported(table.max_balance_residual)
    # against the generator's exact marginal coefficients, not the package's
    # rounded TRUE_BETA
    checks.check_unbiased(table, checks.count_cell_truth(), "complete")


# -- limiting_fit ------------------------------------------------------------


def limiting_draws(cfg, n: int):
    """The draws ``limiting_phi`` fits for ``n <= 4000``, made apart from it.

    The generator's law for a continuous outcome, on the package's first
    limiting substream; columns a, b, a*b, x and S(Y) rounded to float32
    as the package stores them.
    """
    t = np.round(np.arange(1, 501) * 0.01, 2)
    g = rng.substream(cfg.seed, 1 << 32)
    x = (g.random(n) < 0.5).astype(np.float64)[:, None]
    z1 = g.normal(-x, 1.0, (n, 500))
    z2 = g.normal(-x, 1.0, (n, 500))
    y = 5.0 + z1 + z2 - 0.5 * z1 * z2 - 2.0 * x - 0.5 * t + g.normal(0.0, 0.5, (n, 500))
    log_pi = (-3.05 - 2.0 * t + cfg.gamma_z * z1 + cfg.gamma_z * z2
              + 0.5 * z1 * z2 + x + cfg.phi_true * y)
    visit = g.random((n, 500)) < np.minimum(1.0, np.exp(log_pi))
    a, b = z1 - z2, z2 + g.normal(0.0, 0.1, (n, 500))
    cols = [a, b, a * b, np.broadcast_to(x, (n, 500)), y]
    cov = np.column_stack([c.astype(np.float32).astype(np.float64).ravel()
                           for c in cols])
    rows = n * 500
    v = visit.ravel()
    return data.Dataset(list(range(n)), np.repeat(np.arange(n), 500),
                        np.tile(np.concatenate(([0.0], t[:-1])), n), np.tile(t, n),
                        np.ones(rows, dtype=bool), v, np.where(v, y.ravel(), np.nan),
                        cov, ("a", "b", "ab", "x", "s"), tau=5.0)


def _limiting_build(seed, workdir, n_large=LIMITING_N):
    return {"cfg": scenario("continuous", 2, seed, name="s4_SF_transformedZ"),
            "n_large": n_large}


def _limiting_warm(inputs):
    inputs["small"] = simlab.limiting_phi(inputs["cfg"], LIMITING_CHECK_N)


def _limiting_op(inputs):
    return simlab.limiting_phi(inputs["cfg"], inputs["n_large"])


def _limiting_digest(value) -> bytes:
    return float(value).hex().encode()


def _limiting_check(inputs, value) -> None:
    checks.require(math.isfinite(value), f"limiting_phi returned {value!r}")
    ds = limiting_draws(inputs["cfg"], LIMITING_CHECK_N)
    fit = cox.fit_cox(ds, ModelMatrixSpec(["a", "b", "ab", "x", "s"]))
    checks.check_close(inputs["small"], float(fit.gamma[-1]), 1e-7,
                       f"limiting_phi at n_large={LIMITING_CHECK_N} against fit_cox")


WORKLOADS = {
    "jackknife_sweep": Workload(_sweep_build, _sweep_warm, _sweep_op,
                                _sweep_digest, _sweep_check),
    "cli_analyze": Workload(_cli_build, _cli_warm, _cli_op, _cli_digest,
                            _cli_check),
    "study_cell": Workload(_study_build, _study_warm, _study_op, _study_digest,
                           _study_check),
    "limiting_fit": Workload(_limiting_build, _limiting_warm, _limiting_op,
                             _limiting_digest, _limiting_check),
}
