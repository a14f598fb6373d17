"""Synthetic benchmark harness: instance generation, cross-validation,
metrics, and a seeded experiment runner with CSV output.

Ground-truth instances are D = L + S + N with L = V V' low rank,
S sparse with a symmetric support and U(-5, 5) values, and N symmetric
standard normal noise. Everything is deterministic given a seed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .altmin import alternating_minimization
from .baselines import godec, scaled_gd, spcp
from .core import ProblemInstance, _as_matrix, check_finite

DEFAULT_CV_GRID = [0.01, 0.1, 1.0, 10.0]
DEFAULT_CV_FOLDS = 30


@dataclass(frozen=True)
class SyntheticInstance:
    D: np.ndarray
    L: np.ndarray
    S: np.ndarray
    N: np.ndarray
    n: int
    k0: int
    k1: int
    sigma: float
    seed: int


@dataclass
class MetricsRow:
    l_error: float
    s_error: float
    discovery_rate: float
    runtime_seconds: float
    method: str
    n: int
    k0: int
    k1: int
    sigma: float


def _symmetric_support(n, k1, rng):
    """Sample a symmetric set of k1 cells: unordered off-diagonal pairs
    (two cells each) and diagonal cells (one cell each), uniformly without
    replacement. An odd k1 always includes a diagonal cell. Returns one
    representative per pair, (i, j) with i < j, and each diagonal cell; the
    support is these cells and their transposes."""
    if not 0 <= k1 <= n * n:
        raise ValueError(f"k1={k1} is outside [0, n^2={n * n}]")
    cells = []
    diag = list(range(n))
    if k1 % 2 == 1:
        i = int(rng.integers(n))
        cells.append((i, i))
        diag.remove(i)
    pool = [(i, i) for i in diag] + [(i, j) for i in range(n)
                                     for j in range(i + 1, n)]
    remaining = k1 - len(cells)
    # a diagonal pick flips parity, so keep diagonal cells paired: buffer
    # one and only commit when a second shows up. The pool always covers
    # an even remainder up to n^2, so the loop ends at remaining == 0
    pending_diag = None
    for idx in rng.permutation(len(pool)):
        if remaining == 0:
            break
        i, j = pool[idx]
        if i != j:
            cells.append((i, j))
            remaining -= 2
        elif pending_diag is None:
            pending_diag = (i, i)
        else:
            cells += [pending_diag, (i, i)]
            pending_diag = None
            remaining -= 2
    return cells


def generate_instance(n, k0, k1, sigma, seed) -> SyntheticInstance:
    """Draw one instance, deterministic in the seed; sigma finite and >= 0."""
    if n < 1 or k0 < 1 or k0 > n:
        raise ValueError("bad n/k0")
    check_finite(positive=False, sigma=sigma)
    rng = np.random.default_rng(seed)
    if sigma == 0:
        V = np.zeros((n, k0))
    else:
        V = rng.normal(0.0, sigma / math.sqrt(n), size=(n, k0))
    L = V @ V.T
    S = np.zeros((n, n))
    cells = _symmetric_support(n, k1, rng)
    i, j = np.array(cells, dtype=int).reshape(-1, 2).T
    S[i, j] = S[j, i] = rng.uniform(-5.0, 5.0, len(cells))
    G = rng.standard_normal((n, n))
    N = np.triu(G) + np.triu(G, 1).T
    D = L + S + N
    return SyntheticInstance(D=D, L=L, S=S, N=N, n=n, k0=k0, k1=k1,
                             sigma=float(sigma), seed=int(seed))


def cv_grid(values, n: int = 1) -> list:
    """Every (lam, mu) pair of the values, each divided by sqrt(n)."""
    vals = [float(v) / math.sqrt(n) for v in values]
    return [(a, b) for a in vals for b in vals]


def cross_validate(D, method, grid, folds=DEFAULT_CV_FOLDS, seed=0):
    """Pick (lam, mu) for a finite square D by Nystrom-style validation.

    Each fold holds out a random index subset of size l = floor(n(1-sqrt(0.7)));
    `method(D_train, lam, mu)` must return the low-rank estimate X on the
    training block, scored by

        ||D_val - D_UR pinv(X) D_LL||_2^2 / ||D_val||_2^2

    (spectral norms), averaged over folds. Ties go to the smaller (lam, mu)
    in lexicographic order. Returns (best_lam, best_mu, score_table).
    """
    D = _as_matrix(D, "D", "square")
    n = D.shape[0]
    if n < 4:
        raise ValueError("cross-validation needs n >= 4")
    if folds < 1:
        raise ValueError("folds must be at least 1")
    grid = sorted({(float(l), float(m)) for l, m in grid})
    if not grid:
        raise ValueError("empty hyperparameter grid")
    # holdout size floor(n*(1-sqrt(0.7))), clamped so the validation
    # block is never empty at small n
    l = max(1, int(n * (1.0 - math.sqrt(0.7))))
    rng = np.random.default_rng(seed)
    fold_sets = [rng.choice(n, size=l, replace=False) for _ in range(folds)]

    scores = {g: 0.0 for g in grid}
    for val_idx in fold_sets:
        val_idx = np.sort(val_idx)
        train_idx = np.setdiff1d(np.arange(n), val_idx)
        D_train = D[np.ix_(train_idx, train_idx)]
        D_val = D[np.ix_(val_idx, val_idx)]
        D_ur = D[np.ix_(val_idx, train_idx)]
        D_ll = D[np.ix_(train_idx, val_idx)]
        denom = np.linalg.norm(D_val, 2) ** 2
        for g in grid:
            X = method(D_train, g[0], g[1])
            pred = D_ur @ linalg.pseudoinverse(X) @ D_ll
            scores[g] += np.linalg.norm(D_val - pred, 2) ** 2 / max(denom, 1e-15)
    for g in scores:
        scores[g] /= folds
    best = min(grid, key=lambda g: (scores[g], g))
    return best[0], best[1], scores


def am_cv_fit(k0: int, k1: int, n: int, eps: float):
    """The cross_validate method that decomposes a training block by
    alternating minimization, with k0 clamped to the block size nt and k1
    scaled by (nt/n)^2 from the full n x n problem. k0 and k1 must be
    in range for that problem."""
    ProblemInstance(np.zeros((n, n)), k0, k1, 1.0, 1.0)   # range checks

    def fit(D_train, lam, mu):
        nt = D_train.shape[0]
        k1t = min(nt * nt, int(round(k1 * (nt / n) ** 2)))
        p = ProblemInstance(D_train, min(k0, nt), k1t, lam, mu)
        sol, _ = alternating_minimization(p, eps=eps)
        return sol.X
    return fit


def compute_metrics(solution, truth: SyntheticInstance, method: str = "",
                    runtime: float = 0.0) -> MetricsRow:
    """Relative squared errors of both parts plus support discovery rate."""
    Lh = np.asarray(solution.X, dtype=float)
    Sh = np.asarray(solution.Y, dtype=float)
    lden = float(np.sum(truth.L ** 2))
    sden = float(np.sum(truth.S ** 2))
    l_err = float(np.sum((Lh - truth.L) ** 2)) / lden if lden > 0 \
        else float(np.sum(Lh ** 2))
    s_err = float(np.sum((Sh - truth.S) ** 2)) / sden if sden > 0 \
        else float(np.sum(Sh ** 2))
    if truth.k1 > 0:
        idx = np.abs(truth.S) > 0
        disc = float(np.sum(Sh[idx] != 0)) / truth.k1
    else:
        disc = 1.0
    return MetricsRow(l_error=l_err, s_error=s_err, discovery_rate=disc,
                      runtime_seconds=runtime, method=method, n=truth.n,
                      k0=truth.k0, k1=truth.k1, sigma=truth.sigma)


CSV_HEADER = ("experiment,method,n,k0,k1,sigma,trial,seed,"
              "l_error,s_error,discovery_rate,objective,runtime_s,status")


def _run_method(method, inst: SyntheticInstance, eps, hyper):
    """Dispatch one method on one instance; returns (solution, objective)."""
    lam = float(hyper.get("lam", 0.1))
    mu = float(hyper.get("mu", 0.1))
    if hyper.get("cv"):
        grid = cv_grid(hyper.get("cv_grid", DEFAULT_CV_GRID), inst.n)
        fit = am_cv_fit(inst.k0, inst.k1, inst.n, eps)
        folds = int(hyper.get("cv_folds", DEFAULT_CV_FOLDS))
        lam, mu, _ = cross_validate(inst.D, fit, grid, folds=folds,
                                    seed=inst.seed)
    if method in ("am", "am_accelerated"):
        p = ProblemInstance(inst.D, inst.k0, inst.k1, lam, mu)
        mode = "randomized" if method == "am_accelerated" else "exact"
        sol, _ = alternating_minimization(p, eps=eps, svd_mode=mode,
                                          seed=inst.seed)
        return sol, sol.objective
    if method == "godec":
        sol, _ = godec(inst.D, inst.k0, inst.k1, eps=eps)
        return sol, sol.objective
    if method == "spcp":
        mu_pen = float(hyper.get("spcp_mu", 1.0))
        sol, _ = spcp(inst.D, mu_pen, tol=eps)
        return sol, sol.objective
    if method == "scaledgd":
        frac = float(hyper.get("scaledgd_alpha", 1.0)) * inst.k1 / inst.n ** 2
        sol, _ = scaled_gd(inst.D, inst.k0, gamma_frac=frac,
                           step=float(hyper.get("scaledgd_step", 0.5)),
                           eps=eps)
        return sol, sol.objective
    raise ValueError(f"unknown method {method!r}")


def run_experiment(config, out_csv):
    """Run the full (method x parameter x trial) grid of a config.

    `config` is a dict or a path to a JSON file with fields
    {experiment_name, methods[], n[], k0[], k1[], sigma[], trials,
    seed_base, epsilon, hyperparams{}}. Writes one CSV row per
    (parameter combination, trial, method); per-trial failures become
    status rows and the run continues. Returns the list of rows.
    """
    if not isinstance(config, dict):
        with open(config) as fh:
            config = json.load(fh)
    name = config["experiment_name"]
    methods = config["methods"]
    eps = float(config.get("epsilon", 0.001))
    trials = int(config["trials"])
    seed_base = int(config.get("seed_base", 0))
    hyper = config.get("hyperparams", {})

    rows = []
    for n, k0, k1, sigma, trial in itertools.product(
            config["n"], config["k0"], config["k1"], config["sigma"],
            range(trials)):
        seed = seed_base + trial
        inst = generate_instance(n, k0, k1, sigma, seed)
        for method in methods:
            t0 = time.perf_counter()
            try:
                sol, obj = _run_method(method, inst, eps, hyper)
                rt = time.perf_counter() - t0
                met = compute_metrics(sol, inst, method, rt)
                values = [f"{v:.10g}" for v in (met.l_error, met.s_error,
                                                met.discovery_rate, obj)]
                status = "ok"
            except Exception as exc:  # noqa: BLE001
                rt = time.perf_counter() - t0
                values, status = [""] * 4, f"error:{type(exc).__name__}"
            rows.append([name, method, n, k0, k1, sigma, trial, seed,
                         *values, f"{rt:.6f}", status])
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(rows)
    return rows


def plot_results(csv_path, out_svg, x_param: str = "n",
                 metric: str = "l_error"):
    """Write a minimal SVG line chart: metric vs swept parameter, one
    polyline per method, trials averaged. Display-only output."""
    with open(csv_path) as fh:
        reader = csv.DictReader(fh)
        data = {}
        for row in reader:
            if row["status"] != "ok" or row[metric] == "":
                continue
            key = (row["method"], float(row[x_param]))
            data.setdefault(key, []).append(float(row[metric]))
    series = {}
    for (method, xv), vals in sorted(data.items()):
        series.setdefault(method, []).append((xv, sum(vals) / len(vals)))
    width, height, pad = 640, 400, 50
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    if not xs:
        raise ValueError("no plottable rows in the CSV")
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0

    def sx(v):
        return pad + (v - xmin) / xspan * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - ymin) / yspan * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
             f'y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" '
             f'y2="{height - pad}" stroke="black"/>',
             f'<text x="{width // 2}" y="{height - 10}" '
             f'text-anchor="middle" font-size="13">{x_param}</text>',
             f'<text x="15" y="{height // 2}" font-size="13" '
             f'transform="rotate(-90 15 {height // 2})" '
             f'text-anchor="middle">{metric}</text>']
    for idx, (method, pts) in enumerate(sorted(series.items())):
        color = colors[idx % len(colors)]
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(pts))
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - pad + 5}" '
                     f'y="{pad + 18 * idx}" font-size="12" '
                     f'fill="{color}">{method}</text>')
    parts.append("</svg>")
    with open(out_svg, "w") as fh:
        fh.write("\n".join(parts))
