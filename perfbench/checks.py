"""Correctness checks on the outputs of the benchmark's operations.

Every check recomputes what it tests apart from the package: risk sets by
a loop over event times (not ``RiskStructure``), design columns from the
term strings (not ``BoundDesign``), least squares by ``numpy.linalg.lstsq``
(not the package's Cholesky solve).  A check raises :class:`CheckFailed`
with a message naming what disagreed; ``selfcheck.py`` feeds each check a
perturbed output to show that it can fail.
"""

from __future__ import annotations

import math

import numpy as np

# the package's solver tolerances: fit_cox stops at a score max-norm of
# 1e-8 (or a relative log-likelihood change of 1e-10), balancing_weights
# at a balance residual max-norm of 1e-8
SCORE_TOL = 1e-6
BALANCE_TOL = 1e-8
# slack for recomputing a 1e-8 residual in another summation order
ROUNDING_SLACK = 1e-10
# Cholesky normal equations against QR least squares on a 3-column design
WLS_RTOL = 1e-9


class CheckFailed(AssertionError):
    """An output disagrees with its independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def term_columns(ds, terms, rows, times) -> np.ndarray:
    """Design columns for term strings such as ``1``, ``x`` or ``t*z1*z2``."""
    rows = np.asarray(rows)
    out = np.empty((rows.size, len(terms)))
    for j, term in enumerate(terms):
        col = np.ones(rows.size)
        for factor in str(term).split("*"):
            if factor == "1":
                continue
            if factor == "t":
                col = col * times
            else:
                col = col * ds.covariates[rows, ds.covariate_names.index(factor)]
        out[:, j] = col
    return out


class EventRiskSets:
    """At-risk rows of each distinct visit time, found by a loop over times.

    Row ``i`` is at risk at time ``s`` when it is flagged at risk and
    ``start_i < s <= end_i``; tied visits are pooled at their time.
    """

    def __init__(self, ds):
        self.ds = ds
        self.n = ds.n_patients
        self.times = np.unique(ds.end[ds.visit])
        self.rows = [np.flatnonzero(ds.at_risk & (ds.start < s) & (s <= ds.end))
                     for s in self.times]
        self.visit_rows = np.flatnonzero(ds.visit)
        self.visit_event = np.searchsorted(self.times, ds.end[self.visit_rows])

    def visit_model(self, zterms, gamma, q):
        """Score ``(1/n) sum_v q [z - S1/S0]`` and Breslow increments ``A/S0``."""
        gamma = np.asarray(gamma, dtype=np.float64)
        a = np.bincount(self.visit_event, weights=q, minlength=self.times.size)
        s0 = np.empty(self.times.size)
        s1 = np.empty((self.times.size, len(zterms)))
        for k, (s, rows) in enumerate(zip(self.times, self.rows)):
            z = term_columns(self.ds, zterms, rows, np.full(rows.size, s))
            e = np.exp(z @ gamma)
            s0[k] = e.sum()
            s1[k] = z.T @ e
        z_visit = term_columns(self.ds, zterms, self.visit_rows,
                               self.ds.end[self.visit_rows])
        score = (q @ z_visit - a @ (s1 / s0[:, None])) / self.n
        return score, a / s0

    def balance_residual(self, hterms, weights, increments):
        """``(1/n) [sum_v w h - sum_k dLambda_k sum_{at risk} h]`` per term."""
        h_sum = np.empty((self.times.size, len(hterms)))
        for k, (s, rows) in enumerate(zip(self.times, self.rows)):
            h_sum[k] = term_columns(self.ds, hterms, rows,
                                    np.full(rows.size, s)).sum(axis=0)
        h_visit = term_columns(self.ds, hterms, self.visit_rows,
                               self.ds.end[self.visit_rows])
        return (h_visit.T @ weights - increments @ h_sum) / self.n


def selection_factors(ds, phi: float) -> np.ndarray:
    """``Q = exp(-phi * y)`` at the visit rows (identity selection)."""
    return np.exp(-phi * ds.outcome[np.flatnonzero(ds.visit)])


def check_score_zero(score, context: str) -> None:
    norm = float(np.max(np.abs(score)))
    require(np.isfinite(norm) and norm <= SCORE_TOL,
            f"{context}: visit-model score max-norm {norm:.3g} at the fitted "
            f"gamma exceeds {SCORE_TOL:g}")


def check_increments(increments, expected, context: str) -> None:
    increments = np.asarray(increments, dtype=np.float64)
    require(increments.shape == expected.shape
            and np.allclose(increments, expected, rtol=1e-9, atol=0.0),
            f"{context}: Breslow increments differ from A_k / S0_k")


def check_balance(residual, context: str) -> None:
    norm = float(np.max(np.abs(residual)))
    limit = BALANCE_TOL + ROUNDING_SLACK
    require(np.isfinite(norm) and norm <= limit,
            f"{context}: balance residual max-norm {norm:.3g} exceeds {limit:g}")


def weighted_least_squares(x, y, w) -> np.ndarray:
    root = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(x * root[:, None], y * root, rcond=None)
    return beta


def check_estimates(estimates, reference, context: str) -> None:
    estimates = np.asarray(estimates, dtype=np.float64)
    scale = np.maximum(np.abs(reference), 1.0)
    require(estimates.shape == reference.shape
            and bool(np.all(np.abs(estimates - reference) <= WLS_RTOL * scale)),
            f"{context}: estimates {estimates.tolist()} differ from weighted "
            f"least squares {reference.tolist()}")


def check_se(se, context: str) -> None:
    se = np.asarray(se, dtype=np.float64)
    require(se.size > 0 and bool(np.all(np.isfinite(se) & (se > 0.0))),
            f"{context}: standard errors {se.tolist()} are not all finite "
            "and positive")


def check_bitwise_dataset(loaded, panel) -> None:
    """``loaded`` holds exactly the panel's rows, labels written as text."""
    require(loaded.patient_ids == [str(p) for p in panel.patient_ids],
            "loaded patient ids differ from the panel's")
    require(loaded.covariate_names == panel.covariate_names,
            "loaded covariate names differ from the panel's")
    require(loaded.tau == panel.tau, "loaded tau differs from the panel's")
    for name in ("patient_index", "start", "end", "at_risk", "visit",
                 "outcome", "covariates"):
        a, b = getattr(loaded, name), getattr(panel, name)
        require(a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes(),
                f"loaded column {name!r} is not bit-identical to the panel's")


def check_calibration(items: dict) -> None:
    """``phi_abs`` equals the closed form of the reported chain."""
    rho2 = items["rho2_Z_given_t"]
    expected = math.sqrt(rho2 / (1.0 - rho2) * (items["var_log_lambda_dt_full"]
                                                + math.pi ** 2 / 3.0)) / items["sigma_r"]
    require(math.isfinite(expected) and expected > 0.0
            and abs(items["phi_abs"] - expected) <= 1e-12 * expected,
            f"calibration phi_abs {items['phi_abs']!r} differs from the closed "
            f"form {expected!r}")


def check_metrics_table(table, truth, estimators) -> None:
    """Bias, SD and RMSE recomputed from the replicate estimates."""
    by_key = {(r["estimator"], r["parameter"]): r for r in table.rows}
    for e in estimators:
        require(table.n_failed.get(e) == 0,
                f"estimator {e!r} failed on {table.n_failed.get(e)} replicates")
        est = np.asarray(table.estimates[e], dtype=np.float64)
        require(est.shape == (table.n_reps, 2) and bool(np.all(np.isfinite(est))),
                f"estimator {e!r}: replicate estimates are not all finite")
        for j, param in enumerate(("beta1", "beta2")):
            row = by_key.get((e, param))
            require(row is not None, f"no table row for {e}/{param}")
            err = est[:, j] - truth[j]
            expected = {"bias": err.mean(), "sd": est[:, j].std(ddof=1),
                        "rmse": math.sqrt((err ** 2).mean())}
            for key, value in expected.items():
                require(abs(row[key] - value) <= 1e-12 * abs(value) + 1e-15,
                        f"{e}/{param} {key} {row[key]!r} differs from "
                        f"{value!r} recomputed from the estimates")


def count_cell_truth() -> tuple:
    """Exact marginal coefficients of x and t in the count-outcome generator.

    The generator's mean is ``exp(1.69 + z1 + z2 - 0.5 z1 z2 + 0.67 x - 0.5 t)``
    with ``z1, z2 ~ N(-x, 1)`` independent.  For ``z ~ N(m, I)``,
    ``E exp(a'z - z'Bz/2) = det(I+B)^(-1/2) exp(-m'm/2 + (a+m)'(I+B)^(-1)(a+m)/2)``
    with ``a = (1, 1)`` and ``B = [[0, 1/2], [1/2, 0]]``, so the marginal
    mean is log-linear in x and t.
    """
    a = np.array([1.0, 1.0])
    m_plus_b = np.array([[1.0, 0.5], [0.5, 1.0]])

    def log_mean(m):
        m = np.full(2, m)
        v = a + m
        return (-0.5 * math.log(np.linalg.det(m_plus_b)) - 0.5 * m @ m
                + 0.5 * v @ np.linalg.solve(m_plus_b, v))

    return (float(0.67 + log_mean(-1.0) - log_mean(0.0)), -0.5)


def check_unbiased(table, truth, estimator: str = "complete",
                   n_se: float = 4.0) -> None:
    est = np.asarray(table.estimates[estimator], dtype=np.float64)
    for j, param in enumerate(("beta1", "beta2")):
        bias = float(est[:, j].mean() - truth[j])
        mc_se = float(est[:, j].std(ddof=1) / math.sqrt(est.shape[0]))
        require(abs(bias) <= n_se * mc_se,
                f"{estimator}/{param}: bias {bias:.4g} is more than {n_se:g} "
                f"Monte Carlo SEs ({mc_se:.3g}) from zero")


def check_balance_residual_reported(value) -> None:
    require(value is not None and math.isfinite(value)
            and 0.0 <= value <= BALANCE_TOL,
            f"max_balance_residual {value!r} exceeds the solver tolerance "
            f"{BALANCE_TOL:g}")


def check_close(value, reference, atol: float, context: str) -> None:
    require(math.isfinite(value) and abs(value - reference) <= atol,
            f"{context}: {value!r} differs from {reference!r} by more than {atol:g}")
