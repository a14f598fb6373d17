"""One rule for matrix inputs: every public entry point that takes a data
matrix, an iterate or a start rejects a 1-d array, a wrong shape and
non-finite entries with the messages of splr.core._as_matrix."""

import numpy as np
import pytest

from splr.altmin import (SparsityPattern, alternating_minimization,
                         fixed_pattern_certificate)
from splr.baselines import godec, scaled_gd, spcp
from splr.core import (ProblemInstance, matrix_completion_objective,
                       worst_case_perturbations)
from splr.experiments import cross_validate
from splr.relaxations import solve_lowrank_sdp

N = 4
_EYE = np.eye(N)


def _inst():
    return ProblemInstance(np.diag([4.0, 3.0, 2.0, 1.0]), 1, 2, 0.5, 0.5)


def _no_fit(*args):
    raise AssertionError("cross_validate fitted a model on bad input")


def _certify(X):
    pattern = SparsityPattern(N, I1={(0, 0), (1, 1)})
    return fixed_pattern_certificate(_inst(), pattern, X)


# (entry point with the matrix under test as its one argument, the
# argument's name, a valid value, the shape rule: "square", "shape" for
# exactly the valid value's shape, or "matrix" for any 2-d array); the
# comment above a row says what got through before this rule
SITES = [
    # rejected
    (lambda v: ProblemInstance(v, 1, 0, 1.0, 1.0), "D", _EYE, "square"),
    # a NaN X or Y returned NaN perturbations with degenerate=False
    (lambda v: worst_case_perturbations(_inst(), v, _EYE), "X", _EYE,
     "shape"),
    (lambda v: worst_case_perturbations(_inst(), _EYE, v), "Y", _EYE,
     "shape"),
    # a NaN X returned nan; a NaN Z was "Z must be binary"
    (lambda v: matrix_completion_objective(_inst(), v, _EYE), "X", _EYE,
     "shape"),
    (lambda v: matrix_completion_objective(_inst(), _EYE, v), "Z", _EYE,
     "shape"),
    # a NaN D was caught only inside the first fit
    (lambda v: cross_validate(v, _no_fit, [(1.0, 1.0)], folds=1), "D", _EYE,
     "square"),
    # a NaN Dbar was reported as "Dbar must be symmetric"
    (lambda v: solve_lowrank_sdp(v, 1, 1.0), "Dbar", _EYE, "square"),
    # a vector broadcast and was certified; a NaN Xstar raised LinAlgError
    (_certify, "Xstar", _EYE, "shape"),
    # a NaN Y0 was accepted and the trace started with nan
    (lambda v: alternating_minimization(_inst(), init=v), "init",
     np.stack([_EYE, _EYE]), "shape"),
    # NaN reached the SVD: "matrix contains non-finite entries" or, in
    # spcp, LinAlgError
    (lambda v: godec(v, 1, 2), "D", _EYE, "matrix"),
    (lambda v: spcp(v, 1.0), "D", _EYE, "matrix"),
    (lambda v: scaled_gd(v, 1), "D", _EYE, "matrix"),
]


def _bad(kind, valid, rule):
    """The bad value of a kind for an argument whose valid value is valid,
    and the start of the message it must raise."""
    shape_error = {"square": "{name} must be square, got shape",
                   "shape": "{name} must have shape",
                   "matrix": "expected a 2-d array, got shape"}[rule]
    if kind == "1-d":
        return np.zeros(valid.shape[-1]), shape_error
    if kind == "wrong shape":
        # any 2-d array is a valid matrix, so there a stack of one is wrong
        return (valid[None] if rule == "matrix" else valid[..., :-1]), \
            shape_error
    # NaN in the last entry (init's Y0), inf in the first (init's X0)
    bad = valid.copy()
    if kind == "nan":
        bad.flat[-1] = np.nan
    else:
        bad.flat[0] = np.inf
    return bad, "{name} contains non-finite entries$"


@pytest.mark.parametrize("kind", ["1-d", "wrong shape", "nan", "inf"])
@pytest.mark.parametrize("call,name,valid,rule", SITES,
                         ids=[f"{i}-{s[1]}" for i, s in enumerate(SITES)])
def test_entry_point_rejects(call, name, valid, rule, kind):
    bad, expected = _bad(kind, valid, rule)
    with pytest.raises(ValueError, match="^" + expected.format(name=name)):
        call(bad)


def test_init_is_not_written_to():
    init = np.stack([np.zeros((N, N)), np.zeros((N, N))])
    alternating_minimization(_inst(), init=init)
    assert not init.any()
