"""Branch-and-bound over sparsity patterns.

Nodes carry partial patterns (forced-zero set I0, forced-support set I1).
Each explored node gets a lower bound from the pattern-constrained
perspective relaxation. Upper bounds come from alternating minimization:
once unconstrained at the root, then at each unpruned node whose pattern
is complete (the support is fixed). Branching fixes the most fractional
entry of the relaxation's support matrix Z. Best-bound node selection with
FIFO tie-breaking keeps the search deterministic.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .altmin import (SparsityPattern, alternating_minimization,
                     multistart_alternating_minimization)
from .core import ProblemInstance, SlrSolution
from .relaxations import bound_gap, build_perspective_relaxation


@dataclass
class BnbNode:
    pattern: SparsityPattern
    lower_bound: float
    depth: int


@dataclass
class BnbResult:
    incumbent: SlrSolution
    lower_bound: float
    upper_bound: float
    nodes_explored: int
    gap: float
    bound_history: list = field(default_factory=list)
    truncated: bool = False


def select_branch_entry(Z_fractional, pattern: SparsityPattern):
    """Most-fractional branching: the free index minimizing |Z_ij - 0.5|,
    ties broken in row-major order."""
    score = np.abs(np.asarray(Z_fractional, dtype=float) - 0.5)
    taken = pattern.I0 | pattern.I1
    if len(taken) == score.size:
        raise ValueError("pattern is complete; nothing to branch on")
    if taken:
        score[tuple(zip(*taken))] = np.inf
    return divmod(int(np.argmin(score)), score.shape[1])


def _solve_node_bound(instance, pattern, tol):
    model = build_perspective_relaxation(instance, pattern)
    res = model.solve(tol=tol)
    # shift down so pruning stays sound under inexact solves
    lb = res.lower_bound - tol * (1.0 + abs(res.lower_bound))
    return lb, res


def branch_and_bound(instance: ProblemInstance, eps: float = 0.05,
                     node_limit: int = 100000, solver_tol: float = 1e-5,
                     am_eps: float = 1e-6) -> BnbResult:
    """Certify a near-optimal decomposition by enumerating sparsity patterns.

    Terminates when (ub - lb)/ub <= eps, the tree is exhausted, or
    node_limit nodes have been explored (then truncated=True).
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    n = instance.n
    t0 = time.perf_counter()

    incumbent, _ = alternating_minimization(instance, eps=am_eps)
    ub = incumbent.objective

    root = BnbNode(SparsityPattern(n), -math.inf, 0)
    # heap entries: (inherited lower bound, insertion counter, node)
    heap = [(-math.inf, 0, root)]
    counter = 1
    settled_lbs = []   # lower bounds of fully solved (terminal) patterns
    nodes_explored = 0
    history = []
    truncated = False

    def global_lb():
        cands = [e[0] for e in heap] + settled_lbs
        return min(cands) if cands else ub

    while heap:
        lb_all = global_lb()
        if ub > 0 and bound_gap(ub, max(lb_all, 0.0)) <= eps:
            break
        if lb_all >= ub:
            break
        if nodes_explored >= node_limit:
            truncated = True
            break
        _, _, node = heapq.heappop(heap)
        nodes_explored += 1

        lb_node, res = _solve_node_bound(instance, node.pattern, solver_tol)
        lb_node = max(lb_node, node.lower_bound)
        node.lower_bound = lb_node
        if lb_node >= ub:
            history.append((nodes_explored, ub, global_lb(),
                            time.perf_counter() - t0))
            continue

        if node.pattern.is_complete(instance.k1):
            sol, _ = alternating_minimization(instance, eps=am_eps,
                                              pattern=node.pattern)
            if sol.objective < ub:
                ub = sol.objective
                incumbent = sol
                # drop queued nodes that can no longer help
                heap = [e for e in heap if e[0] < ub]
                heapq.heapify(heap)
                settled_lbs = [v for v in settled_lbs if v < ub]
            settled_lbs.append(lb_node)
        else:
            ij = select_branch_entry(res.Z_fractional, node.pattern)
            child0 = SparsityPattern(n, node.pattern.I0 | {ij},
                                     node.pattern.I1)
            child1 = SparsityPattern(n, node.pattern.I0,
                                     node.pattern.I1 | {ij})
            for child in (child0, child1):
                try:
                    child.check_against(instance.k1)
                except ValueError:
                    continue
                heapq.heappush(heap, (lb_node, counter,
                                      BnbNode(child, lb_node,
                                              node.depth + 1)))
                counter += 1
        history.append((nodes_explored, ub, global_lb(),
                        time.perf_counter() - t0))

    lb_final = min(global_lb(), ub)
    gap = bound_gap(ub, max(lb_final, 0.0)) if ub > 0 else 0.0
    return BnbResult(incumbent=incumbent, lower_bound=lb_final,
                     upper_bound=ub, nodes_explored=nodes_explored,
                     gap=gap, bound_history=history, truncated=truncated)


def exhaustive_oracle(instance: ProblemInstance, n_starts: int = 3,
                      am_eps: float = 1e-8, guard: int = 100000):
    """Brute-force reference: best alternating-minimization solution over
    every size-k1 support. Guarded against combinatorial blowup."""
    n, k1 = instance.n, instance.k1
    n2 = n * n
    if math.comb(n2, k1) > guard:
        raise ValueError(f"C({n2},{k1}) exceeds the enumeration guard {guard}")
    cells = [(i, j) for i in range(n) for j in range(n)]
    best = None
    for support in combinations(cells, k1):
        keep = frozenset(support)
        zero = frozenset(c for c in cells if c not in keep)
        pattern = SparsityPattern(n, zero, keep)
        sol, _ = multistart_alternating_minimization(
            instance, n_starts=n_starts, eps=am_eps, pattern=pattern)
        if best is None or sol.objective < best.objective:
            best = sol
    return best, best.objective
