"""Command-line interface.

Subcommands: decompose, bound, bnb, synth, cv, bench. Exit codes:
0 success, 1 solver failure, 2 input error. All randomness flows from an
explicit --seed flag (default 0).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import experiments, linalg
from .altmin import alternating_minimization
from .bnb import branch_and_bound
from .core import ProblemInstance
from .relaxations import (bound_gap, build_lee_zou_relaxation,
                          build_perspective_relaxation)

_RELAXATIONS = {"perspective": build_perspective_relaxation,
                "leezou": build_lee_zou_relaxation}


def _add_instance_args(p):
    p.add_argument("matrix", help="input matrix (headerless CSV)")
    p.add_argument("--k0", type=int, required=True, help="rank budget")
    p.add_argument("--k1", type=int, required=True, help="sparsity budget")
    p.add_argument("--lam", type=float, default=0.1,
                   help="ridge weight on the low-rank part")
    p.add_argument("--mu", type=float, default=0.1,
                   help="ridge weight on the sparse part")


def _load_instance(args) -> ProblemInstance:
    D = linalg.read_matrix_csv(args.matrix)
    return ProblemInstance(D, args.k0, args.k1, args.lam, args.mu)


def cmd_decompose(args) -> int:
    inst = _load_instance(args)
    sol, trace = alternating_minimization(
        inst, eps=args.eps,
        svd_mode="randomized" if args.mode == "accelerated" else "exact",
        seed=args.seed)
    linalg.write_matrix_csv(args.out + "_X.csv", sol.X)
    linalg.write_matrix_csv(args.out + "_Y.csv", sol.Y)
    summary = {
        "objective": sol.objective,
        "iterations": trace.iterations,
        "rank": sol.rank_of_X,
        "nnz": sol.nnz_of_Y,
        "converged_reason": trace.converged_reason,
    }
    with open(args.out + "_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"objective {sol.objective:.8g} after {trace.iterations} "
          f"iterations (rank {sol.rank_of_X}, nnz {sol.nnz_of_Y})")
    return 0


def cmd_bound(args) -> int:
    inst = _load_instance(args)
    # AM gives the upper bound; the relaxation certifies a lower bound at
    # the solver's last iterate
    sol, _ = alternating_minimization(inst, eps=1e-6)
    res = _RELAXATIONS[args.variant](inst).solve()
    if not math.isfinite(lower := res.certified_bound):
        print(f"solver did not converge (status {res.solver_status})",
              file=sys.stderr)
        return 1
    gap = bound_gap(sol.objective, lower) if sol.objective > 0 else 0.0
    print(f"lower bound {lower:.8g}")
    print(f"upper bound {sol.objective:.8g} (alternating minimization)")
    print(f"bound gap {gap:.6f}")
    print(f"solver status {res.solver_status}, bound certified")
    return 0


def cmd_bnb(args) -> int:
    inst = _load_instance(args)
    result = branch_and_bound(inst, eps=args.eps, node_limit=args.node_limit)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("node_index,ub,lb,time\n")
            for node_index, ub, lb, t in result.bound_history:
                fh.write(f"{node_index},{ub:.10g},{lb:.10g},{t:.6f}\n")
    print(f"incumbent {result.upper_bound:.8g}")
    print(f"lower bound {result.lower_bound:.8g}")
    print(f"gap {result.gap:.6f}")
    print(f"nodes explored {result.nodes_explored}"
          + (" (truncated)" if result.truncated else ""))
    print(f"stop reason {result.stop_reason}")
    return 0


def cmd_synth(args) -> int:
    inst = experiments.generate_instance(args.n, args.k0, args.k1,
                                         args.sigma, args.seed)
    linalg.write_matrix_csv(args.out + "_D.csv", inst.D)
    linalg.write_matrix_csv(args.out + "_L.csv", inst.L)
    linalg.write_matrix_csv(args.out + "_S.csv", inst.S)
    linalg.write_matrix_csv(args.out + "_N.csv", inst.N)
    print(f"wrote {args.out}_D.csv (+L, S, N), n={args.n}, seed={args.seed}")
    return 0


def cmd_cv(args) -> int:
    D = linalg.read_matrix_csv(args.matrix)
    grid = experiments.cv_grid(args.grid.split(","),
                               D.shape[0] if args.scale_by_sqrt_n else 1)
    fit = experiments.am_cv_fit(args.k0, args.k1, D.shape[0], args.eps)
    lam, mu, scores = experiments.cross_validate(
        D, fit, grid, folds=args.folds, seed=args.seed)
    print(f"best lam {lam:.8g}")
    print(f"best mu {mu:.8g}")
    for (a, b), s in sorted(scores.items()):
        print(f"  lam={a:.6g} mu={b:.6g} score={s:.6g}")
    return 0


def cmd_bench(args) -> int:
    rows = experiments.run_experiment(args.config, args.out)
    failures = sum(1 for r in rows if r[-1] != "ok")
    print(f"wrote {len(rows)} rows to {args.out} ({failures} failures)")
    if args.plot:
        experiments.plot_results(args.out, args.plot, x_param=args.plot_x,
                                 metric=args.plot_metric)
        print(f"wrote {args.plot}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="splr",
        description="sparse-plus-low-rank matrix decomposition toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="run alternating minimization")
    _add_instance_args(p)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--mode", choices=["exact", "accelerated"],
                   default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="decomposition",
                   help="output file prefix")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bound", help="solve a convex relaxation")
    _add_instance_args(p)
    p.add_argument("--variant", choices=list(_RELAXATIONS),
                   default="perspective")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("bnb", help="branch-and-bound certification")
    _add_instance_args(p)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--node-limit", type=int, default=100000)
    p.add_argument("--trace", default=None,
                   help="write bound history CSV here")
    p.set_defaults(func=cmd_bnb)

    p = sub.add_parser("synth", help="generate a synthetic instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k0", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="instance")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cv", help="cross-validate ridge weights")
    p.add_argument("matrix")
    p.add_argument("--k0", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--grid",
                   default=",".join(map(str, experiments.DEFAULT_CV_GRID)),
                   help="comma-separated candidate values for both weights")
    p.add_argument("--scale-by-sqrt-n", action="store_true",
                   help="divide grid values by sqrt(n)")
    p.add_argument("--folds", type=int, default=experiments.DEFAULT_CV_FOLDS)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("bench", help="run an experiment config")
    p.add_argument("config", help="JSON experiment description")
    p.add_argument("--out", default="results.csv")
    p.add_argument("--plot", default=None, help="optional SVG chart path")
    p.add_argument("--plot-x", default="n")
    p.add_argument("--plot-metric", default="l_error")
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # before ValueError, which LinAlgError subclasses
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
