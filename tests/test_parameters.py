"""One rule for real-valued parameters: every public entry point that takes
a weight, a penalty or a tolerance rejects NaN, inf and a value below its
range with the message of splr.core.check_finite."""

import math

import numpy as np
import pytest
import scipy.sparse

from splr.altmin import (alternating_minimization, iteration_bound,
                         multistart_alternating_minimization,
                         solve_lowrank_subproblem, solve_sparse_subproblem)
from splr.baselines import godec, scaled_gd, spcp
from splr.conic import Cone, ConicProblem, solve_conic
from splr.core import (ProblemInstance, check_finite, convexity_constants,
                       reverse_huber_penalty)
from splr.experiments import generate_instance
from splr.linalg import pseudoinverse
from splr.relaxations import (bound_gap, build_lee_zou_relaxation,
                              build_strengthened_relaxation,
                              solve_lowrank_sdp)


def _inst():
    return ProblemInstance(np.array([[2.0, 1.0], [1.0, 0.5]]), 1, 1, 1.0, 1.0)


def _tiny_program():
    return ConicProblem(c=np.array([1.0]),
                        A=scipy.sparse.csr_matrix([[-1.0]]),
                        b=np.array([-1.0]), cones=[Cone("nonneg", 1)])


def _solve_from_rho(rho):
    start = (np.zeros(1), np.zeros(1), np.zeros(1), rho)
    return solve_conic(_tiny_program(), start=start)


# (entry point with the parameter under test as its one argument, the
# parameter's name, whether zero is allowed); the comment above a group
# of rows says what a NaN did there before this rule
SITES = [
    # rejected
    (lambda v: ProblemInstance(np.eye(2), 1, 0, v, 1.0), "lam", False),
    (lambda v: ProblemInstance(np.eye(2), 1, 0, 1.0, v), "mu", False),
    # returned m = L = kappa = nan
    (lambda v: convexity_constants(v, 1.0), "lam", False),
    (lambda v: convexity_constants(1.0, v), "mu", False),
    # returned nan
    (lambda v: reverse_huber_penalty(1.0, v, 1.0), "mu", False),
    (lambda v: reverse_huber_penalty(1.0, 1.0, v), "rho", False),
    # rejected
    (lambda v: iteration_bound(v, 1.0, 0.1), "lam", False),
    (lambda v: iteration_bound(1.0, v, 0.1), "mu", False),
    (lambda v: iteration_bound(1.0, 1.0, v), "eps", False),
    # returned an all-NaN X
    (lambda v: solve_lowrank_subproblem(np.eye(2), 1, v), "lam", True),
    # returned NaN on the support
    (lambda v: solve_sparse_subproblem(np.eye(2), 1, v), "mu", True),
    # rejected, through iteration_bound
    (lambda v: alternating_minimization(_inst(), eps=v), "eps", False),
    (lambda v: multistart_alternating_minimization(_inst(), eps=v), "eps",
     False),
    # failed later: "problem data contains non-finite entries"
    (lambda v: build_strengthened_relaxation(_inst(), beta=v), "beta",
     False),
    (lambda v: build_strengthened_relaxation(_inst(), gamma=v), "gamma",
     False),
    (lambda v: build_lee_zou_relaxation(_inst(), beta=v), "beta", False),
    # the same; gamma = inf dropped the sparsity budget row
    (lambda v: build_lee_zou_relaxation(_inst(), gamma=v), "gamma", False),
    (lambda v: solve_lowrank_sdp(np.eye(2), 1, v), "lam", True),
    # returned nan
    (lambda v: bound_gap(v, 0.0), "upper", False),
    # LinAlgError from the SVD
    (lambda v: spcp(np.eye(2), v), "mu_pen", False),
    # returned a zero matrix
    (lambda v: pseudoinverse(np.eye(2), tol=v), "tol", False),
    # rejected
    (_solve_from_rho, "rho", False),
    # ran all 50,000 ADMM iterations, then returned max_iters
    (lambda v: solve_conic(_tiny_program(), tol=v), "tol", False),
    # ran all 1,000 iterations
    (lambda v: godec(np.eye(2), 1, 1, eps=v), "eps", False),
    # accepted
    (lambda v: spcp(np.eye(2), 1.0, tol=v), "tol", False),
    # LinAlgError from the SVD
    (lambda v: scaled_gd(np.eye(2), 1, step=v), "step", False),
    # ran all 500 iterations
    (lambda v: scaled_gd(np.eye(2), 1, eps=v), "eps", False),
    # returned a non-finite D
    (lambda v: generate_instance(5, 1, 2, v, 0), "sigma", True),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, "below"])
@pytest.mark.parametrize("call,name,zero_ok", SITES,
                         ids=[f"{i}-{s[1]}" for i, s in enumerate(SITES)])
def test_entry_point_rejects(call, name, zero_ok, bad):
    rng = "nonnegative" if zero_ok else "positive"
    if bad == "below":
        bad = -1.0 if zero_ok else 0.0
    # a start is checked for non-finite entries before its rho is
    expected = ("start contains non-finite entries"
                if call is _solve_from_rho and not math.isfinite(bad)
                else f"{name} must be finite and {rng}")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        call(bad)


def test_zero_passes_where_it_is_in_range():
    check_finite(positive=False, a=0.0, b=-0.0, c=5e-324)
    X = solve_lowrank_subproblem(np.diag([2.0, 1.0]), 1, 0.0)
    np.testing.assert_allclose(X, [[2.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_the_first_value_out_of_range_is_named():
    check_finite(a=5e-324, b=1e308, c=np.float64(2.0))
    with pytest.raises(ValueError, match="^b must be finite and positive$"):
        check_finite(a=1.0, b=-math.inf, c=math.nan)
