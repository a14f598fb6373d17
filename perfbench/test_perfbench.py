"""Tests of the benchmark itself: small-size runs of every workload, the
self-time arithmetic, the put-back of traced functions and the contract
between BENCHMARK.json and what a run prints."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splr
from perfbench import bench, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "decompose_large": lambda: workloads.DecomposeLarge(n=40, k0=2, k1=20),
    "certify_small": lambda: workloads.CertifySmall(
        workloads.CRITERION4[:2]),
    "bound_medium": lambda: workloads.BoundMedium(sizes=(4, 5)),
    "cv_table": lambda: workloads.CvTable(
        n=24, k0=3, k1=80,
        hyperparams={"cv": True, "cv_folds": 2, "cv_grid": [0.1, 1.0]}),
}


def splr_bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "splr" or name.startswith("splr.")
            for attr, value in vars(module).items() if callable(value)}


def test_spec_names_every_workload_and_metric():
    # BENCHMARK.json lists a subset; the others are run by hand
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [name for name in bench.WORKLOADS if name in listed]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(tracing.PER_LAYER)


@pytest.mark.parametrize("name", list(TINY))
def test_small_run_passes_its_checks(name):
    report = bench.run_workload(name, 3, 0, False, workload=TINY[name]())
    line = bench.result_line(report)
    assert line["correct"], report["ops"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_layers_and_restores_functions(name):
    before = splr_bindings()
    report = bench.run_workload(name, 3, 0, True, workload=TINY[name]())
    after = splr_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    line = bench.result_line(report)
    assert line["correct"], report["ops"]
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    layers = {k: v["value"] for k, v in line["metrics"].items()}
    assert layers["cli.self_s"] > 0
    if name == "certify_small":
        assert layers["bnb.nodes"] >= 2
        assert layers["conic.calls"] >= layers["bnb.nodes"]
        assert layers["relaxations.build_calls"] == layers["bnb.nodes"]
    if name == "decompose_large":
        assert layers["linalg.randomized_svd_calls"] > 0
        assert layers["altmin.exact_in_randomized"] >= 1
        assert layers["linalg.csv_mb"] > 0
    if name == "cv_table":
        assert layers["experiments.cv_fits"] == 2 * 2 * 4   # 2 methods
        assert layers["baselines.godec_calls"] == 1


def test_traced_functions_are_restored_after_an_exception():
    before = splr_bindings()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert splr.altmin.objective is not before[("splr.altmin",
                                                        "objective")]
            raise RuntimeError("stop")
    after = splr_bindings()
    assert all(after[k] is before[k] for k in before)


def test_wrapper_patches_every_name_callers_look_up():
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert splr.altmin.objective is splr.core.objective
        assert splr.relaxations.solve_conic is splr.conic.solve_conic
        assert splr.bnb.build_perspective_relaxation is \
            splr.relaxations.build_perspective_relaxation
        assert splr.core.objective.__wrapped__ is not splr.core.objective


def test_self_times_on_hand_built_spans():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has c [6, 7]
    names = ["cli.main", "linalg.a", "altmin.b", "linalg.c"]
    spans = tracing.Spans(names, name_id=[0, 1, 2, 3],
                          parent=[-1, 0, 0, 2],
                          start=[0.0, 1.0, 5.0, 6.0],
                          end=[10.0, 4.0, 9.0, 7.0], attrs={})
    np.testing.assert_allclose(spans.self_time, [3.0, 3.0, 3.0, 1.0])
    assert spans.self_time.sum() == pytest.approx(10.0)
    assert spans.under(spans.named("altmin.b")).tolist() == \
        [False, False, False, True]
    linalg = spans.in_layer("linalg")
    assert spans.outermost_time(linalg) == pytest.approx(4.0)


def test_nested_calls_of_one_function_count_once():
    # f [0, 8] calls f [2, 5]: f was busy for 8, not 11
    spans = tracing.Spans(["core.f"], name_id=[0, 0], parent=[-1, 0],
                          start=[0.0, 2.0], end=[8.0, 5.0], attrs={})
    assert spans.outermost_time(spans.named("core.f")) == pytest.approx(8.0)
    np.testing.assert_allclose(spans.self_time, [5.0, 3.0])


def test_failed_check_fails_the_run():
    wl = TINY["cv_table"]()
    wl.l_error_range = (0.0, 0.0)
    report = bench.run_workload("cv_table", 3, 0, False, workload=wl)
    line = bench.result_line(report)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] == 1
    assert report["end_to_end"]["error_rate"][0] == 1.0


def test_median_pass_takes_each_calls_median():
    def op(seconds):
        return workloads.Op("call", seconds, [])
    # call a: 1, 5, 2 -> 2; call b: 4, 3, 9 -> 4
    passes = [[op(1.0), op(4.0)], [op(5.0), op(3.0)], [op(2.0), op(9.0)]]
    assert bench.median_pass(passes) == pytest.approx(6.0)
    assert bench.median_pass(passes[:1]) == pytest.approx(5.0)


def test_sign_flip_keeps_the_spectrum_and_the_pattern():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((6, 6))
    D = G + G.T
    F = workloads.sign_flip(D, np.random.default_rng(1))
    np.testing.assert_allclose(np.linalg.eigvalsh(F), np.linalg.eigvalsh(D))
    np.testing.assert_array_equal(np.abs(F), np.abs(D))
    assert not np.array_equal(F, D)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results",
                                                  "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv_table",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
