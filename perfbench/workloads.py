"""The benchmark's workloads: inputs made from a seed, CLI calls, checks.

Each workload is a closed loop with one caller: a pass makes its `splr`
CLI calls one after another, in this process, through ``splr.cli.main``.
Setup makes every input file and reference value before any call is
timed.  Checks use numpy and the files the CLI wrote, never splr code, so
a traced pass records spans of CLI work only.

Where the solver's work depends strongly on the instance drawn (ADMM
iterations of one relaxation vary 5x between random instances of one
size, BnB node counts 30x), the workload fixes its base instances and the
seed flips the signs of random rows and the matching columns of each,
D -> S D S.  That changes the input numbers but leaves the optimisation
problem, and the order in which BnB breaks ties, the same, so the spread
between seeds measures the code rather than the draw: every seed
explores the same 150 nodes per certify_small pass.  (A random
permutation as well made tie-breaking differ, and 128-152 nodes.)
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from splr import cli as splr_cli
from splr import experiments
from splr.bnb import exhaustive_oracle
from splr.core import ProblemInstance


@dataclass
class Op:
    """One timed CLI call and the check of its outputs."""

    label: str
    seconds: float
    errors: list


def call_cli(argv):
    """Run ``splr.cli.main(argv)`` in-process; returns (seconds, stdout,
    errors).  The name is looked up at call time so a traced run sees the
    wrapper."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = splr_cli.main([str(a) for a in argv])
    except Exception as exc:  # noqa: BLE001 - a crash is a failed op
        return (time.perf_counter() - t0, out.getvalue(),
                [f"raised {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - t0
    return seconds, out.getvalue(), [] if rc == 0 else [f"exit code {rc}"]


def printed(stdout, prefix):
    """The number after `prefix` on the first stdout line starting so."""
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    raise ValueError(f"no line starting {prefix!r} in output")


def write_csv(path, M):
    """Headerless CSV whose decimal form reads back to the same doubles."""
    np.savetxt(path, M, fmt="%.17g", delimiter=",")


def read_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def sign_flip(D, rng):
    """S D S for a random diagonal S of signs."""
    signs = rng.choice([-1.0, 1.0], size=D.shape[0])
    return signs[:, None] * D * signs[None, :]


def median_by_label(ops, label):
    return statistics.median(op.seconds for op in ops if op.label == label)


def mean(values):
    """Mean, or nan when a failed check left no value to average."""
    return statistics.fmean(values) if values else math.nan


def checked(check, *args):
    """Run a check; an output it cannot parse is a failed check too."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


class DecomposeLarge:
    """`splr decompose` at n=2000 from CSV, exact and accelerated."""

    name = "decompose_large"
    def __init__(self, n=2000, k0=5, k1=500, sigma=10.0):
        self.n, self.k0, self.k1, self.sigma = n, k0, k1, sigma
        self.objectives = {}
        self.l_errors = {}

    def setup(self, workdir, seed):
        inst = experiments.generate_instance(self.n, self.k0, self.k1,
                                             self.sigma, seed)
        self.L, self.seed = inst.L, seed
        self.workdir = workdir
        self.path = workdir / "D.csv"
        write_csv(self.path, inst.D)

    def run_pass(self):
        ops = []
        for mode in ("exact", "accelerated"):
            out = self.workdir / f"decomposition_{mode}"
            seconds, _, errors = call_cli(
                ["decompose", self.path, "--k0", self.k0, "--k1", self.k1,
                 "--mode", mode, "--seed", self.seed, "--out", out])
            ops.append(Op(mode, seconds,
                          errors or checked(self._check, mode, f"{out}")))
        return ops

    def _check(self, mode, out):
        with open(out + "_summary.json") as fh:
            summary = json.load(fh)
        errors = []
        if summary["rank"] > self.k0:
            errors.append(f"rank {summary['rank']} > k0={self.k0}")
        if summary["nnz"] > self.k1:
            errors.append(f"nnz {summary['nnz']} > k1={self.k1}")
        first = self.objectives.setdefault(mode, summary["objective"])
        if summary["objective"] != first:
            errors.append(f"objective {summary['objective']!r} differs "
                          f"from the first pass ({first!r})")
        X = read_csv(out + "_X.csv")
        self.l_errors[mode] = float(np.sum((X - self.L) ** 2)
                                    / np.sum(self.L ** 2))
        return errors

    def metrics(self, ops):
        return {"exact_s": (median_by_label(ops, "exact"), "s"),
                "accel_s": (median_by_label(ops, "accelerated"), "s"),
                "l_error": (max(self.l_errors.values(), default=math.nan),
                            "ratio")}


# the 20 instances of acceptance criterion 4: (lam = mu, sigma, seed)
CRITERION4 = [(lm, sigma, s) for lm in (0.5, 1.0) for sigma in (1, 10)
              for s in range(5)]


class CertifySmall:
    """`splr bnb --eps 0.01 --trace` on the criterion-4 instances."""

    name = "certify_small"
    solver_tol = 1e-5   # the BnB solver tolerance, as criterion 4 allows

    def __init__(self, instances=CRITERION4):
        self.instances = list(instances)
        self.gaps = []
        self.nodes = []

    def setup(self, workdir, seed):
        rng = np.random.default_rng(seed)
        self.cases = []
        for i, (lm, sigma, s) in enumerate(self.instances):
            D = sign_flip(
                experiments.generate_instance(4, 1, 2, sigma, s).D, rng)
            path = workdir / f"bnb_{i}.csv"
            write_csv(path, D)
            _, opt = exhaustive_oracle(ProblemInstance(D, 1, 2, lm, lm),
                                       n_starts=2)
            self.cases.append((f"lam{lm}_sigma{sigma}_seed{s}", path, lm,
                               opt, workdir / f"bnb_{i}_trace.csv"))

    def run_pass(self):
        ops = []
        for label, path, lm, opt, trace in self.cases:
            seconds, stdout, errors = call_cli(
                ["bnb", path, "--k0", 1, "--k1", 2, "--lam", lm, "--mu", lm,
                 "--eps", 0.01, "--trace", trace])
            ops.append(Op(label, seconds,
                          errors or checked(self._check, stdout, opt, trace)))
        return ops

    def _check(self, stdout, opt, trace):
        ub, lb = printed(stdout, "incumbent"), printed(stdout, "lower bound")
        nodes = int(printed(stdout, "nodes explored"))
        errors = []
        if ub > 1.01 * opt + 1e-9:
            errors.append(f"incumbent {ub!r} > 1.01 * optimum {opt!r}")
        if lb > opt + self.solver_tol * (1 + abs(opt)):
            errors.append(f"lower bound {lb!r} > optimum {opt!r}")
        with open(trace) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != nodes:
            errors.append(f"trace has {rows} rows for {nodes} nodes")
        self.gaps.append(printed(stdout, "gap"))
        self.nodes.append(nodes)
        return errors

    def metrics(self, ops):
        return {"instance_p50_s": (statistics.median(op.seconds
                                                     for op in ops), "s"),
                "cert_gap": (mean(self.gaps), "ratio"),
                "bnb_nodes_per_pass": (sum(self.nodes) * len(self.cases)
                                       / max(1, len(self.nodes)), "count")}


class BoundMedium:
    """`splr bound --variant perspective` at n=12 and n=16."""

    name = "bound_medium"
    base_seed = 0   # instance drawn before the seed's sign flip

    def __init__(self, sizes=(12, 16), sigma=10.0):
        self.sizes, self.sigma = tuple(sizes), sigma
        self.gaps = []

    def setup(self, workdir, seed):
        rng = np.random.default_rng(seed)
        self.cases = []
        for n in self.sizes:
            D = sign_flip(experiments.generate_instance(
                n, 2, 2 * n, self.sigma, self.base_seed).D, rng)
            path = workdir / f"bound_{n}.csv"
            write_csv(path, D)
            self.cases.append((f"n{n}", path, n))

    def run_pass(self):
        ops = []
        for label, path, n in self.cases:
            seconds, stdout, errors = call_cli(
                ["bound", path, "--k0", 2, "--k1", 2 * n, "--lam", 1,
                 "--mu", 1, "--variant", "perspective"])
            ops.append(Op(label, seconds,
                          errors or checked(self._check, stdout)))
        return ops

    def _check(self, stdout):
        lb = printed(stdout, "lower bound")
        ub = printed(stdout, "upper bound")
        self.gaps.append(printed(stdout, "bound gap"))
        if lb > ub:
            return [f"lower bound {lb!r} > AM upper bound {ub!r}"]
        return []

    def metrics(self, ops):
        return {"cert_gap": (mean(self.gaps), "ratio")}


class CvTable:
    """`splr bench` on the criterion-9 instance with CV'd AM and GoDec."""

    name = "cv_table"
    l_error_range = (0.005, 0.06)   # acceptance criterion 9

    def __init__(self, n=60, k0=9, k1=540, sigma=10.0, hyperparams=None):
        self.config = {
            "experiment_name": "cv_table", "methods": ["am", "godec"],
            "n": [n], "k0": [k0], "k1": [k1], "sigma": [sigma],
            "trials": 1, "epsilon": 0.001,
            "hyperparams": hyperparams or {"cv": True}}
        self.l_errors = []

    def setup(self, workdir, seed):
        self.config["seed_base"] = seed
        self.path = workdir / "cv_table.json"
        self.out = workdir / "cv_table.csv"
        with open(self.path, "w") as fh:
            json.dump(self.config, fh)

    def run_pass(self):
        seconds, _, errors = call_cli(["bench", self.path, "--out",
                                       self.out])
        return [Op("bench", seconds, errors or checked(self._check))]

    def _check(self):
        with open(self.out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        errors = []
        want = len(self.config["methods"]) * self.config["trials"]
        if len(rows) != want:
            errors.append(f"{len(rows)} rows, expected {want}")
        lo, hi = self.l_error_range
        for row in rows:
            if row["status"] != "ok":
                errors.append(f"{row['method']} status {row['status']}")
            elif row["method"] == "am":
                err = float(row["l_error"])
                self.l_errors.append(err)
                if not lo <= err <= hi:
                    errors.append(f"AM l_error {err!r} outside [{lo}, {hi}]")
        return errors

    def metrics(self, ops):
        return {"l_error": (mean(self.l_errors), "ratio")}


WORKLOADS = {w.name: w for w in (DecomposeLarge, CertifySmall, BoundMedium,
                                 CvTable)}
