"""Reference implementations, independent of the package internals.

Everything here favors directness over speed: explicit loops over rows, CSV
records and event times, finite differences instead of analytic
derivatives, and derivative-free optimization from scipy.  The fitting code
is checked against these, never the other way around.
"""

import csv
import math

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln

from irrvis import Dataset, ValidationError


def _design_row(dataset, row, time, colnames):
    def factor(name):
        if name == "1":
            return 1.0
        if name == "t":
            return time
        return dataset.covariates[row, dataset.covariate_names.index(name)]

    out = np.empty(len(colnames))
    for j, name in enumerate(colnames):
        out[j] = math.prod(factor(f) for f in name.split("*"))
    return out


def _factor_values(dataset, f, rows, times):
    """One factor of a design term, before standardization."""
    if f.kind == "period":
        return ((times >= f.lo) & (times < f.hi)).astype(np.float64)
    if f.kind == "time":
        v = times
    else:
        v = dataset.covariates[rows, dataset.covariate_names.index(f.name)]
    return v if f.transform is None else getattr(np, f.transform)(v)


def design_matrix(dataset, terms, rows, times=None, binding_rows=None):
    """Design of ``terms`` on ``rows`` at ``times``, one term at a time.

    Every factor of every term is computed afresh.  Standardized factors
    use the mean and sample SD (ddof 1) of the factor over
    ``binding_rows``, each row at its own endpoint.  Interactions multiply
    their factors left to right.
    """
    rows = np.asarray(rows)
    times = dataset.end[rows] if times is None else np.asarray(times, dtype=float)

    def factor(f):
        v = _factor_values(dataset, f, rows, times)
        if f.standardize:
            ref = _factor_values(dataset, f, binding_rows, dataset.end[binding_rows])
            v = (v - float(ref.mean())) / (2.0 * float(ref.std(ddof=1)))
        return v

    out = np.empty((rows.size, len(terms)))
    for j, term in enumerate(terms):
        if term.kind == "const":
            out[:, j] = 1.0
        elif term.kind == "interaction":
            col = factor(term.factors[0])
            for f in term.factors[1:]:
                col = col * factor(f)
            out[:, j] = col
        else:
            out[:, j] = factor(term)
    return out


def cox_loglik(dataset, colnames, gamma, q=None):
    """Q-weighted pooled-ties partial log likelihood, by explicit loops."""
    gamma = np.asarray(gamma, dtype=float)
    visit_rows = np.flatnonzero(dataset.visit)
    q = np.ones(visit_rows.size) if q is None else np.asarray(q, dtype=float)
    total = 0.0
    for s in np.unique(dataset.end[dataset.visit]):
        a = 0.0
        for v, row in enumerate(visit_rows):
            if dataset.end[row] == s:
                total += q[v] * float(_design_row(dataset, row, s, colnames) @ gamma)
                a += q[v]
        s0 = 0.0
        for row in range(dataset.n_rows):
            if dataset.at_risk[row] and dataset.start[row] < s <= dataset.end[row]:
                s0 += math.exp(float(_design_row(dataset, row, s, colnames) @ gamma))
        total -= a * math.log(s0)
    return total


def _fd_grad(f, x, h=1e-6):
    g = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _fd_hess(f, x, h=1e-4):
    p = x.size
    hess = np.zeros((p, p))
    for i in range(p):
        for j in range(i, p):
            ei = np.zeros(p)
            ej = np.zeros(p)
            ei[i] = h
            ej[j] = h
            val = (f(x + ei + ej) - f(x + ei - ej)
                   - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h * h)
            hess[i, j] = hess[j, i] = val
    return hess


def cox_fit(dataset, colnames, q=None):
    """Maximize the explicit partial likelihood.

    Nelder-Mead gets close, then Newton steps on finite-difference
    derivatives tighten the optimum to ~1e-8, well inside the 1e-6
    agreement the fitting code is held to.
    """

    def f(g):
        return -cox_loglik(dataset, colnames, g, q)

    p = len(colnames)
    res = minimize(f, np.zeros(p), method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-12,
                            "maxiter": 20000, "maxfev": 20000})
    x = res.x
    for _ in range(25):
        g = _fd_grad(f, x)
        if np.max(np.abs(g)) < 1e-9:
            break
        step = np.linalg.solve(_fd_hess(f, x), -g)
        if np.max(np.abs(step)) > 1.0:
            step = step / np.max(np.abs(step))
        if f(x + step) > f(x) + 1e-12:
            break
        x = x + step
    return x


def breslow(dataset, colnames, gamma, q=None):
    """Baseline increments A_k / S0_k by explicit loops."""
    gamma = np.asarray(gamma, dtype=float)
    visit_rows = np.flatnonzero(dataset.visit)
    q = np.ones(visit_rows.size) if q is None else np.asarray(q, dtype=float)
    times = np.unique(dataset.end[dataset.visit])
    inc = np.empty(times.size)
    for k, s in enumerate(times):
        a = sum(q[v] for v, row in enumerate(visit_rows) if dataset.end[row] == s)
        s0 = sum(math.exp(float(_design_row(dataset, row, s, colnames) @ gamma))
                 for row in range(dataset.n_rows)
                 if dataset.at_risk[row] and dataset.start[row] < s <= dataset.end[row])
        inc[k] = a / s0
    return times, inc


def balance_target(h_cover, rs, increments):
    """Target of the balance conditions, pair by pair: the balance terms
    ``h_cover`` on the incidence pairs of ``rs``, each times its event's
    baseline increment and its pair weight, if any, summed over the pairs."""
    per_pair = np.repeat(increments, rs.event_counts)
    if rs.pair_weight is not None:
        per_pair = per_pair * rs.pair_weight
    return h_cover.T @ per_pair


def weight_derivative(fit, n, patient, eps=1e-3):
    """Central difference of ``fit(copies)``, a function of one weight per
    patient, in patient ``patient``'s weight at all ``n`` weights 1."""
    up, down = np.ones(n), np.ones(n)
    up[patient] += eps
    down[patient] -= eps
    return (fit(up) - fit(down)) / (2.0 * eps)


def wls(x, y, w):
    """Closed-form weighted least squares through a scaled lstsq."""
    sw = np.sqrt(np.asarray(w, dtype=float))
    beta, *_ = np.linalg.lstsq(np.asarray(x, dtype=float) * sw[:, None],
                               np.asarray(y, dtype=float) * sw, rcond=None)
    return beta


def glm_log_poisson(x, y, w):
    """Weighted log link with Poisson variance: the estimating equation is
    the gradient of the weighted Poisson deviance, minimized directly."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    w = np.asarray(w, float)

    def nll(beta):
        eta = x @ beta
        return float(w @ (np.exp(eta) - y * eta))

    def grad(beta):
        return x.T @ (w * (np.exp(x @ beta) - y))

    res = minimize(nll, np.zeros(x.shape[1]), jac=grad, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 2000})
    return res.x


def glm_log_negbin(x, y, w, theta):
    """Weighted log link with variance mu + theta*mu^2: same root as the
    weighted NB2 log likelihood with size 1/theta, maximized directly."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    w = np.asarray(w, float)
    r = 1.0 / theta

    def nll(beta):
        mu = np.exp(x @ beta)
        ll = (gammaln(y + r) - gammaln(r) - gammaln(y + 1.0)
              + r * np.log(r / (r + mu)) + y * np.log(mu / (r + mu)))
        return -float(w @ ll)

    start = np.zeros(x.shape[1])
    start[0] = math.log(max(float(np.average(y, weights=w)), 1e-8))
    res = minimize(nll, start, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-13,
                            "maxiter": 20000, "maxfev": 20000})
    return res.x


def nls_log(x, y, w):
    """Weighted log link with constant variance: nonlinear least squares,
    whose normal equations are the corresponding estimating equation."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    w = np.asarray(w, float)

    def obj(beta):
        resid = y - np.exp(x @ beta)
        return 0.5 * float(w @ (resid * resid))

    def grad(beta):
        mu = np.exp(x @ beta)
        return -x.T @ (w * (y - mu) * mu)

    start = np.zeros(x.shape[1])
    start[0] = math.log(max(float(np.average(y, weights=w)), 1e-8))
    res = minimize(obj, start, jac=grad, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 2000})
    return res.x


# -- simulation lab --------------------------------------------------------


def draw_panel(cfg, rng, n):
    """The simulation lab's per-patient-by-grid draws, one expression per
    formula: x, z1, z2, y, S(y), visit, z1s, z2s."""
    t = np.round(np.arange(1, 501) * 0.01, 2)
    x = (rng.random(n) < 0.5).astype(np.float64)[:, None]
    z1 = rng.normal(-x, 1.0, (n, 500))
    z2 = rng.normal(-x, 1.0, (n, 500))
    if cfg.outcome == "continuous":
        eps = rng.normal(0.0, 0.5, (n, 500))
        y = 5.0 + z1 + z2 - 0.5 * z1 * z2 - 2.0 * x - 0.5 * t + eps
        s_y = y
    else:
        mu = np.exp(1.69 + z1 + z2 - 0.5 * z1 * z2 + 0.67 * x - 0.5 * t)
        lam = rng.gamma(1.0 / 0.5, 0.5 * mu)
        y = rng.poisson(lam).astype(np.float64)
        s_y = np.log1p(y)
    log_pi = (-3.05 - 2.0 * t + cfg.gamma_z * z1 + cfg.gamma_z * z2
              + 0.5 * z1 * z2 + x + cfg.phi_true * s_y)
    visit = rng.random((n, 500)) < np.minimum(1.0, np.exp(log_pi))
    e = rng.normal(0.0, 0.1, (n, 500))
    return x, z1, z2, y, s_y, visit, z1 - z2, z2 + e


# -- CSV boundary ----------------------------------------------------------

STRUCTURAL_COLUMNS = ("patient_id", "start", "end", "at_risk", "visit", "outcome")


def _cell_bool(text, column, line):
    if text == "0":
        return False
    if text == "1":
        return True
    raise ValidationError(f"line {line}: column {column!r} must be 0 or 1, got {text!r}")


def _cell_float(text, column, line):
    try:
        if not text.strip().isascii() or "_" in text:
            raise ValueError(text)
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"line {line}: column {column!r} has non-numeric value {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"line {line}: column {column!r} is not finite")
    return value


def load_csv_rows(path, schema=None):
    """``load_csv`` by a ``csv.reader`` loop, one cell parsed at a time."""
    colmap = {k: k for k in STRUCTURAL_COLUMNS}
    for key, col in (schema or {}).items():
        if key not in STRUCTURAL_COLUMNS:
            raise ValidationError(f"schema maps unknown field {key!r}")
        colmap[key] = col
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("empty file: missing header row") from None
        if len(set(header)) != len(header):
            raise ValidationError("duplicate column names in header")
        positions = {}
        for key in STRUCTURAL_COLUMNS:
            if colmap[key] not in header:
                raise ValidationError(f"missing required column {colmap[key]!r}")
            positions[key] = header.index(colmap[key])
        cov_cols = [(name, j) for j, name in enumerate(header)
                    if j not in positions.values()]

        ids, id_pos = [], {}
        pidx, start, end, risk, visit, out, cov = [], [], [], [], [], [], []
        for line, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise ValidationError(f"line {line}: expected {len(header)} cells, got {len(rec)}")
            pid = rec[positions["patient_id"]]
            if pid not in id_pos:
                id_pos[pid] = len(ids)
                ids.append(pid)
            pidx.append(id_pos[pid])
            start.append(_cell_float(rec[positions["start"]], colmap["start"], line))
            end.append(_cell_float(rec[positions["end"]], colmap["end"], line))
            risk.append(_cell_bool(rec[positions["at_risk"]], colmap["at_risk"], line))
            visit.append(_cell_bool(rec[positions["visit"]], colmap["visit"], line))
            cell = rec[positions["outcome"]].strip()
            out.append(np.nan if cell == "" else _cell_float(cell, colmap["outcome"], line))
            cov.append([_cell_float(rec[j], name, line) for name, j in cov_cols])
    if not pidx:
        raise ValidationError("file has a header but no data rows")
    pidx = np.array(pidx, dtype=np.int32)
    start = np.array(start)
    cov = np.array(cov, dtype=np.float64).reshape(len(pidx), len(cov_cols))
    order = np.lexsort((start, pidx))
    return Dataset(ids, pidx[order], start[order], np.array(end)[order],
                   np.array(risk, dtype=bool)[order], np.array(visit, dtype=bool)[order],
                   np.array(out)[order], cov[order], [name for name, _ in cov_cols],
                   tau=float(np.max(end)))


def export_csv_rows(dataset, path):
    """``export_csv`` by a ``csv.writer`` row per dataset row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(STRUCTURAL_COLUMNS) + list(dataset.covariate_names))
        for i in range(dataset.n_rows):
            writer.writerow([
                dataset.patient_ids[dataset.patient_index[i]],
                repr(float(dataset.start[i])),
                repr(float(dataset.end[i])),
                "1" if dataset.at_risk[i] else "0",
                "1" if dataset.visit[i] else "0",
                repr(float(dataset.outcome[i])) if dataset.visit[i] else "",
                *(repr(float(v)) for v in dataset.covariates[i]),
            ])


def export_weights_rows(dataset, ws, path):
    """``export_weights`` by a ``csv.writer`` row per visit row."""
    visit_rows = np.flatnonzero(dataset.visit)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["patient_id", "visit_time", "weight", "kind"])
        for i, row in enumerate(visit_rows):
            writer.writerow([
                dataset.patient_ids[dataset.patient_index[row]],
                repr(float(dataset.end[row])),
                repr(float(ws.weights[i])),
                ws.kind,
            ])
