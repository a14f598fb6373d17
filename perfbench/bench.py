"""Run one workload, check its outputs and report every metric.

Without tracing a run sets up its inputs SETUPS times (setup_s is the
median), then repeats whole passes until --seconds have gone by; wall_s
is the median pass, taken call by call: the sum over the pass's calls of
each call's median time.  With tracing it sets up once, makes one plain
pass and one traced pass, and reports the per-layer split of the traced
pass together with the traced-minus-plain wall time.  The last line of
standard output is the JSON result; a failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from . import tracing
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info():
    """(name, version, threads) of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name", "unknown"), blas.get("version", "")
    except (TypeError, KeyError):
        name, version = "unknown", ""
    return name, version, blas_threads()


def blas_threads():
    """Threads of the loaded OpenBLAS, else the environment's limit."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", 0)) or None


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    name, version, threads = blas_info()
    return {"cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": name, "blas_version": version,
            "blas_threads": threads, "commit": git_commit(ROOT)}


def host_steal_s():
    """CPU seconds the hypervisor gave to other guests, summed over this
    machine's CPUs since boot (the steal column of /proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return math.nan


def median_pass(passes):
    """Sum over a pass's calls of each call's median time over passes."""
    return sum(statistics.median(p[i].seconds for p in passes)
               for i in range(len(passes[0])))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name, seed, seconds, trace, import_s=0.0, workload=None):
    """Set up, measure and check one workload; returns the full report.

    `workload` replaces the default-size instance of the named workload
    (the benchmark's tests pass small ones).
    """
    workload = workload or WORKLOADS[name]()
    workdir = ROOT / "perfbench" / "work" / f"{name}-{seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(1 if trace else SETUPS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            t0 = time.perf_counter()
            workload.setup(workdir, seed)
            setup_times.append(time.perf_counter() - t0)
        steal0 = host_steal_s()
        t0 = time.perf_counter()
        passes = [workload.run_pass()]
        while not trace and time.perf_counter() - t0 < seconds:
            passes.append(workload.run_pass())
        steal_s = host_steal_s() - steal0
        spans = None
        if trace:
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                passes.append(workload.run_pass())
            spans = tracer.spans()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for p in passes for op in p]
    walls = [sum(op.seconds for op in p) for p in passes]
    report = {
        "workload": name, "seed": seed, "trace": int(trace),
        "environment": environment(),
        "passes": len(passes), "setups": len(setup_times),
        "host_steal_s": steal_s,
        "attempted": len(ops), "failed": sum(1 for op in ops if op.errors),
        "ops": [{"label": op.label, "seconds": op.seconds,
                 "errors": op.errors} for op in ops],
    }
    e2e = {"wall_s": (median_pass(passes[:1] if trace else passes), "s"),
           "setup_s": (import_s + statistics.median(setup_times), "s"),
           "peak_rss_mb": (peak_rss_mb(), "MB"),
           "error_rate": (report["failed"] / report["attempted"],
                          "fraction")}
    e2e.update(workload.metrics(ops[:len(passes[0])] if trace else ops))
    report["end_to_end"] = e2e
    if trace:
        layers = tracing.layer_metrics(spans, walls[1] - walls[0])
        units = dict(tracing.PER_LAYER)
        report["per_layer"] = {k: (v, units[k]) for k, v in layers.items()}
        report["spans"] = spans
    return report


def result_line(report):
    """The JSON object the benchmark's last output line carries."""
    if report["trace"]:
        chosen = report["per_layer"]
    else:
        chosen = {k: report["end_to_end"][k] for k, _ in END_TO_END}
    metrics = {k: {"value": v if math.isfinite(v) else None, "unit": u}
               for k, (v, u) in chosen.items()}
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}


def print_report(report):
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} passes={report['passes']} "
          f"setups={report['setups']} "
          f"host_steal_s={report['host_steal_s']:.2f}")
    env = report["environment"]
    print("environment " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    for op in report["ops"]:
        status = "ok" if not op["errors"] else "FAILED: " + "; ".join(
            op["errors"])
        print(f"op {op['label']} {op['seconds']:.4f} s {status}")
    for section in ("end_to_end", "per_layer"):
        for k, (v, unit) in report.get(section, {}).items():
            print(f"{section} {k} {v:.6g} {unit}")
    print(f"counts attempted={report['attempted']} "
          f"failed={report['failed']}")


def save(report, results_dir):
    """Keep the report, and the spans of a traced run, as files."""
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{report['workload']}-seed{report['seed']}"
            f"-trace{report['trace']}")
    spans = report.pop("spans", None)
    if spans is not None:
        np.savez_compressed(results_dir / f"{stem}-spans.npz",
                            names=np.array(spans.names),
                            name_id=spans.name_id, parent=spans.parent,
                            start=spans.start, end=spans.end)
    with open(results_dir / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)


def parse_args(argv):
    ap = argparse.ArgumentParser(
        prog="perfbench",
        description="end-to-end and per-layer benchmark of the splr CLI")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole passes until this much time passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def main(argv=None, import_s=0.0) -> int:
    args = parse_args(argv)
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), import_s)
    line = result_line(report)
    print_report(report)
    save(report, ROOT / "perfbench" / "results")
    print(json.dumps(line))
    return 0 if line["correct"] else 1
