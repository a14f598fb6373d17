"""Certify a decomposition with convex lower bounds and branch-and-bound.

On a small instance, compares the heuristic upper bound from alternating
minimization against three convex relaxations, then closes the gap with
branch-and-bound over sparsity patterns.
"""

import numpy as np

from splr.altmin import alternating_minimization
from splr.bnb import branch_and_bound
from splr.core import ProblemInstance
from splr.relaxations import (bound_gap, build_lee_zou_relaxation,
                              build_perspective_relaxation,
                              build_strengthened_relaxation)

rng = np.random.default_rng(7)
n, k0, k1 = 4, 1, 2
D = rng.standard_normal((n, n))
inst = ProblemInstance(D, k0, k1, lam=1.0, mu=1.0)

sol, _ = alternating_minimization(inst, eps=1e-8)
print(f"heuristic upper bound: {sol.objective:.6f}")

bounds = {
    "perspective": build_perspective_relaxation(inst).solve(),
    "strengthened": build_strengthened_relaxation(inst).solve(),
    "nuclear/l1": build_lee_zou_relaxation(inst).solve(),
}
for name, res in bounds.items():
    # each model's certified bound at the solver's last iterate
    gap = bound_gap(sol.objective, res.certified_bound)
    print(f"{name:>13s} bound: {res.certified_bound:.6f} "
          f"(gap {100 * gap:.2f}%, {res.solver_status})")

res = branch_and_bound(inst, eps=0.01)
print(f"\nbranch-and-bound: ub {res.upper_bound:.6f}, "
      f"lb {res.lower_bound:.6f}, {res.nodes_explored} nodes")
print(f"stop reason {res.stop_reason}; {res.fathomed} node solves ended "
      "early, once their certified bound fathomed the node")
print(f"certified within {100 * bound_gap(res.upper_bound, res.lower_bound):.2f}%")
support = sorted((int(i), int(j)) for i, j in zip(*np.nonzero(res.incumbent.Y)))
print(f"sparse support found: {support}")
