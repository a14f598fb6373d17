"""Branch-and-bound over sparsity patterns.

Nodes carry partial patterns (forced-zero set I0, forced-support set I1).
Each explored node gets a certified lower bound from the pattern-constrained
perspective relaxation: the relaxation's Fenchel dual bound read at the
ADMM iterate (splr.relaxations), valid at any iterate, so every bound the
search prunes on, hands to a child, settles or returns holds whether or
not the solver converged. A node's solve stops as soon as that bound reaches
(1 - eps) times the incumbent value: the node is then fathomed, since it
is either pruned or its subtree can no longer keep the gap above eps.
Upper bounds come from alternating minimization: once unconstrained at the
root, then at each unpruned node whose pattern is complete (the support is
fixed). Branching fixes the most fractional entry of the relaxation's
support matrix Z. Best-bound node selection with FIFO tie-breaking keeps
the search deterministic. A queued node whose inherited bound is no longer
below the incumbent value is stale and is dropped when popped, so an
improved incumbent never filters the queue.

Every node's program has the same rows: one zero-cone row per entry of
Z, empty unless the pattern pins that entry. A child's program is its
parent's with the branched entry's row filled in, so each child's ADMM
solve starts from its parent's final iterate as it is; the root starts
cold, and so does a child whose parent ended with non-finite iterates.
The certificate holds at any iterate, so the start changes how soon a
node's bound is reached, never whether it is valid.
"""

from __future__ import annotations

import heapq
import math
import operator
import time
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .altmin import SparsityPattern, _multistart, alternating_minimization
from .core import ProblemInstance, SlrSolution
from .relaxations import bound_gap, build_perspective_relaxation

# the node solves' ADMM tolerance and the search's AM stopping decrease
_SOLVER_TOL = 1e-5
_AM_EPS = 1e-6

# matrix entries per stacked chunk of exhaustive_oracle's runs: each
# (B, n, n) float array of a chunk takes at most 8 MB
_STACK_ENTRIES = 1 << 20


@dataclass
class BnbResult:
    """stop_reason: 'gap' (the gap fell to eps), 'exhausted' (the queue
    emptied with the gap above eps) or 'node_limit'. fathomed counts the
    node solves ended by their stop target, uncertified the nodes whose
    bound was not finite (they keep their parent's bound)."""

    incumbent: SlrSolution
    lower_bound: float
    upper_bound: float
    nodes_explored: int
    gap: float
    stop_reason: str
    fathomed: int
    uncertified: int
    bound_history: list = field(default_factory=list)

    @property
    def truncated(self) -> bool:
        return self.stop_reason == "node_limit"


def select_branch_entry(Z_fractional, pattern: SparsityPattern):
    """Most-fractional branching: the free index minimizing |Z_ij - 0.5|,
    ties broken in row-major order."""
    score = np.abs(np.asarray(Z_fractional, dtype=float) - 0.5)
    taken = pattern.zero | pattern.keep
    if taken.all():
        raise ValueError("pattern is complete; nothing to branch on")
    score[taken] = np.inf
    return divmod(int(np.argmin(score)), score.shape[1])


def branch_and_bound(instance: ProblemInstance, eps: float = 0.05,
                     node_limit: int = 100000) -> BnbResult:
    """Certify a near-optimal decomposition by enumerating sparsity patterns.

    Terminates when (ub - lb)/ub <= eps, the tree is exhausted, or
    node_limit nodes have been explored (then truncated=True);
    stop_reason says which.
    """
    if not eps >= 0:
        raise ValueError(f"eps={eps!r} must be nonnegative")
    if (node_limit := operator.index(node_limit)) < 0:
        raise ValueError(f"node_limit={node_limit} must be nonnegative")
    n = instance.n
    t0 = time.perf_counter()

    incumbent, _ = alternating_minimization(instance, eps=_AM_EPS)
    ub = incumbent.objective

    # the whole search state: a best-bound heap of (inherited lower bound,
    # insertion counter, pattern, depth, parent's relaxation result or
    # None) and the least bound of an explored complete pattern that was
    # not pruned; both children share their parent's result
    heap = [(-math.inf, 0, SparsityPattern(n), 0, None)]
    counter = 1
    settled = math.inf
    nodes_explored = fathomed = uncertified = 0
    history = []

    def global_lb():
        # the heap top is its least key; an entry at or above ub is stale
        return min(heap[0][0] if heap else ub, settled, ub)

    while True:
        while heap and heap[0][0] >= ub:
            heapq.heappop(heap)
        # the objective is nonnegative, so 0 bounds it too
        lb_all = max(global_lb(), 0.0)
        if lb_all >= ub or (ub > 0 and bound_gap(ub, lb_all) <= eps):
            stop_reason = "gap"
            break
        if not heap:
            stop_reason = "exhausted"
            break
        if nodes_explored >= node_limit:
            stop_reason = "node_limit"
            break
        lb_parent, _, pattern, depth, parent = heapq.heappop(heap)
        nodes_explored += 1

        model = build_perspective_relaxation(instance, pattern)
        res = model.solve(tol=_SOLVER_TOL,
                          stop_at=(1.0 - eps) * ub if ub > 0 else None,
                          start=parent)
        fathomed += res.solver_status == "bound-reached"
        uncertified += not math.isfinite(res.certified_bound)
        # every relaxed point in this subtree has objective >= the
        # certificate
        lb_node = max(res.certified_bound, lb_parent)
        if lb_node >= ub:
            pass    # pruned
        elif pattern.is_complete(instance.k1):
            sol, _ = alternating_minimization(instance, eps=_AM_EPS,
                                              pattern=pattern)
            if sol.objective < ub:
                ub = sol.objective
                incumbent = sol
            settled = min(settled, lb_node)
        else:
            # an incomplete pattern has |I1| < k1 and |I0| < n^2 - k1, so
            # both children are valid
            ij = select_branch_entry(res.Z_fractional, pattern)
            warm = res if np.isfinite(np.hstack(res.iterate)).all() else None
            for child in (SparsityPattern(n, pattern.I0 | {ij}, pattern.I1),
                          SparsityPattern(n, pattern.I0, pattern.I1 | {ij})):
                heapq.heappush(heap, (lb_node, counter, child, depth + 1,
                                      warm))
                counter += 1
        history.append((nodes_explored, ub, global_lb(),
                        time.perf_counter() - t0))

    lb_final = max(global_lb(), 0.0)
    gap = bound_gap(ub, lb_final) if ub > 0 else 0.0
    return BnbResult(incumbent=incumbent, lower_bound=lb_final,
                     upper_bound=ub, nodes_explored=nodes_explored,
                     gap=gap, bound_history=history, stop_reason=stop_reason,
                     fathomed=fathomed, uncertified=uncertified)


def exhaustive_oracle(instance: ProblemInstance, n_starts: int = 3,
                      am_eps: float = 1e-8, guard: int = 100000):
    """Brute-force reference: the best alternating-minimization solution
    over every size-k1 support, each support's value being what
    multistart_alternating_minimization finds on its complete pattern; the
    first least one in enumeration order wins. Every support x start runs,
    with its support as its keep mask, in one stacked AM pass per chunk
    of _STACK_ENTRIES matrix entries. Guarded against combinatorial blowup."""
    n, k1 = instance.n, instance.k1
    n2 = n * n
    if math.comb(n2, k1) > guard:
        raise ValueError(f"C({n2},{k1}) exceeds the enumeration guard {guard}")
    supports = combinations(range(n2), k1)
    per_chunk = max(1, _STACK_ENTRIES // (n2 * max(1, n_starts)))
    best = None
    while chunk := list(islice(supports, per_chunk)):
        keep = np.zeros((len(chunk), n2), dtype=bool)
        keep[np.arange(len(chunk))[:, None],
             np.array(chunk, dtype=np.intp).reshape(len(chunk), k1)] = True
        keep = keep.reshape(-1, n, n)
        sol, _ = _multistart(instance, n_starts, am_eps, keep=keep)
        if best is None or sol.objective < best.objective:
            best = sol
    return best, best.objective
