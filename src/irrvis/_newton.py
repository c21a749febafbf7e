"""Damped Newton ascent shared by every solver in the package.

A solver supplies ``evaluate(x) -> (f, g, H)``: a merit ``f`` to raise, a
vector ``g`` whose max-norm must fall to :data:`TOL`, and a symmetric
positive-definite ``H``; the Newton step is ``H^-1 g``.  A trial point is
accepted unless its evaluation overflows, raises a :class:`NumericError`
or lowers ``f`` by more than a rounding margin; a rejected step is halved.

Each merit is ascent-safe: ``g' H^-1 g > 0``, so ``f`` rises along a short
enough step and halving ends wherever ``f`` is smooth.

* Visit-intensity fits on ``cox._PartialLikelihood`` (``cox.fit_cox`` and
  ``simlab.limiting_phi``): ``f`` is the concave log partial likelihood,
  ``g`` its gradient (the score) and ``H`` its negated Hessian.
* Balance conditions (``weights.balancing_weights``): ``f = -c`` for the
  strictly convex dual objective ``c``, ``g = -grad c`` (the negated balance
  residual) and ``H`` the Hessian of ``c``; this is Newton descent on ``c``.
* Marginal fit (``gee.fit_weighted_gee``): ``f`` is minus the max-norm of
  the estimating equations ``u``, ``g = u`` and ``H`` the Fisher
  information, which is ``-du/dbeta`` for the log link with Poisson
  variance and agrees with it up to terms proportional to the residuals
  otherwise.  Then ``u(beta + t H^-1 u) = (1 - t) u + O(t^2)``: every
  component, and so the max-norm, shrinks along a short step.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, NumericError, RankDeficiencyError

TOL = 1e-8
MAX_ITER = 100
MAX_HALVINGS = 40


def solve_psd(a: np.ndarray, b: np.ndarray, message: str) -> np.ndarray:
    """``a^-1 b`` by Cholesky; a matrix that is not positive definite raises
    :class:`RankDeficiencyError` with ``message``."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(message) from None
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))


def is_positive_definite(a: np.ndarray) -> bool:
    """Whether ``a`` has a Cholesky factor."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def maximize(evaluate, x: np.ndarray, context: str, singular: str, check=None):
    """Damped Newton ascent from ``x``; returns ``(x, f, g, n_iter)``.

    Stops at the first iterate with ``max|g| <= TOL``.  ``check(x, g, H, k)``,
    if given, runs on every iterate ``x_k`` (the start is ``k = 0``) before
    that test and may raise.  A non-positive-definite ``H`` raises
    :class:`RankDeficiencyError` with the message ``singular``; running out
    of iterations or of step halvings raises :class:`ConvergenceError`
    prefixed by ``context``.
    """
    f, g, h = evaluate(x)
    if not np.isfinite(f):
        raise ConvergenceError(f"{context}: objective not finite at start")
    n_iter = 0
    while True:
        if check is not None:
            check(x, g, h, n_iter)
        norm = float(np.max(np.abs(g)))
        if norm <= TOL:
            return x, f, g, n_iter
        if n_iter >= MAX_ITER:
            raise ConvergenceError(
                f"{context}: no convergence in {MAX_ITER} iterations "
                f"(max-norm {norm:.3g})")
        step = solve_psd(h, g, singular)
        for _ in range(MAX_HALVINGS):
            trial = x + step
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    f_new, g_new, h_new = evaluate(trial)
            except (FloatingPointError, NumericError):
                # overflow along the trial step: reject it
                f_new = -np.inf
            if np.isfinite(f_new) and f_new >= f - 1e-14 * (abs(f) + 1.0):
                break
            step = step / 2.0
        else:
            raise ConvergenceError(f"{context}: step halving failed")
        x, f, g, h = trial, f_new, g_new, h_new
        n_iter += 1
