import numpy as np
import pytest

from irrvis import ConvergenceError, NumericError, RankDeficiencyError
from irrvis._newton import MAX_ITER, maximize

A = np.array([[2.0, 0.5], [0.5, 1.0]])
CENTER = np.array([1.5, -2.0])


def quadratic(x):
    d = x - CENTER
    return -0.5 * d @ A @ d, -A @ d, A


def test_concave_quadratic_solved_in_one_step():
    x, f, g, n_iter = maximize(quadratic, np.zeros(2), "quadratic", "singular")
    assert n_iter == 1
    assert np.allclose(x, CENTER, rtol=0, atol=1e-12)
    assert np.max(np.abs(g)) <= 1e-8
    assert f == pytest.approx(0.0, abs=1e-20)


def _reject_away_from_zero(how):
    def evaluate(x):
        if np.any(x != 0.0):
            if how == "numeric":
                raise NumericError("trial failed")
            if how == "overflow":
                np.exp(np.array([1e4]))
            if how == "lower":
                return -1.0, np.ones(2), np.eye(2)
        return 0.0, np.ones(2), np.eye(2)
    return evaluate


@pytest.mark.parametrize("how", ["numeric", "overflow", "lower"])
def test_rejecting_every_trial_fails_the_halving(how):
    with pytest.raises(ConvergenceError, match="toy solve: step halving failed"):
        maximize(_reject_away_from_zero(how), np.zeros(2), "toy solve", "singular")


def test_non_positive_definite_matrix_raises_the_callers_message():
    def evaluate(x):
        return 0.0, np.ones(2), np.array([[1.0, 2.0], [2.0, 1.0]])

    with pytest.raises(RankDeficiencyError, match="^toy solve: H is singular$"):
        maximize(evaluate, np.zeros(2), "toy solve", "toy solve: H is singular")


def test_unbounded_merit_runs_out_of_iterations():
    def evaluate(x):
        return float(x[0]), np.ones(1), np.eye(1)

    with pytest.raises(ConvergenceError,
                       match=f"toy solve: no convergence in {MAX_ITER} iterations"):
        maximize(evaluate, np.zeros(1), "toy solve", "singular")


def test_start_at_the_root_returns_it_after_checking_it():
    calls = []
    root = CENTER.copy()
    x, f, g, n_iter = maximize(quadratic, root, "quadratic", "singular",
                               lambda *args: calls.append(args))
    assert n_iter == 0
    assert np.array_equal(x, CENTER)
    assert f == 0.0 and not g.any()
    assert len(calls) == 1 and calls[0][3] == 0
    assert np.array_equal(calls[0][0], CENTER)
