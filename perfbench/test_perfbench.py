"""Self-tests of the benchmark: the gate, failure counting, tracing, names.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out" / "selftest"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from streamfem import dg_time, linalg  # noqa: E402


@pytest.fixture
def out_dir(request):
    """A fresh scratch directory inside the benchmark's ignored output."""
    path = OUT / request.node.name.replace("/", "_")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _pin(workload, results, rtol=1e-12):
    """A reference that accepts exactly the rows of ``results``."""
    return {workload.name: {"rtol": rtol, "rows": {
        lv["level"]: {"values": lv["row"]} for lv in results
        if "row" in lv}}}


def _unpinned(workload):
    """A reference that pins nothing, so every level that returns passes."""
    return {workload.name: {"rtol": 0.0, "rows": {
        label: {"values": {}} for label, _ in workload.levels}}}


def _rep(results, checks=()):
    return {"levels": results, "checks": list(checks), "wall_s": 1.0,
            "peak_rss_mb": 1.0, "setup_s": 1.0}


def test_pinned_rows_pass_and_perturbed_reference_trips_gate():
    reference = workloads.load_reference()
    for name, entry in reference.items():
        for label, pinned in entry["rows"].items():
            rtol = pinned.get("rtol", entry["rtol"])
            row = dict(pinned["values"])
            assert workloads.gate(reference, name, label, row) == []
            key = "error" if "error" in row else "total_error"
            perturbed = json.loads(json.dumps(reference))
            perturbed[name]["rows"][label]["values"][key] *= 1 + 3 * rtol
            assert workloads.gate(perturbed, name, label, row) == [key]


def test_perturbed_reference_fails_a_real_level():
    tiny = workloads._stationary("tiny", 2, (4,))
    results = workloads.run_levels(tiny, tiny.setup(), {"tiny": {
        "rtol": 1e-12, "rows": {"n=4": {"values": {"error": 1.0}}}}})
    assert results[0]["status"] == "miss"
    assert results[0]["outside"] == ["error"]
    assert not run.end_to_end([_rep(results)], [1.0])["pass_frac"]


def test_failing_level_is_counted_and_next_level_runs():
    tiny = workloads._stationary("tiny", 2, (4, 8))

    def broken(state):
        raise linalg.SolverError("residual 2e-10 above rtol 1e-10",
                                 residual=2e-10)

    reference = _pin(tiny, workloads.run_levels(tiny, tiny.setup(),
                                                _unpinned(tiny)))
    tiny.levels[0] = ("n=4", broken)
    results = workloads.run_levels(tiny, tiny.setup(), reference)
    assert [lv["status"] for lv in results] == ["raised", "pass"]
    assert results[0]["error"].startswith("SolverError")
    assert run.end_to_end([_rep(results)], [1.0])["pass_frac"] == 0.5


@pytest.mark.parametrize("make", [
    lambda out: workloads._converge_k("tiny-k", 2, 1, 4, (2, 4)),
    lambda out: workloads._stationary("tiny-h", 3, (4, 6)),
    lambda out: workloads.make("diagnostics", out),
], ids=["converge-k", "stationary", "diagnostics"])
def test_tracing_leaves_outputs_bit_identical(make, out_dir):
    workload = make(out_dir)
    first = workloads.run_levels(workload, workload.setup(),
                                 _unpinned(workload))
    reference = _pin(workload, first, rtol=0.0)
    original = dg_time.dg_solve
    plain_state = workload.setup()
    plain = workloads.run_levels(workload, plain_state, reference)
    tracer = spans.Tracer().install()
    try:
        traced_state = workload.setup()
        traced = workloads.run_levels(workload, traced_state, reference)
    finally:
        tracer.uninstall()
    assert dg_time.dg_solve is original
    assert all(lv["status"] == "pass" for lv in traced)
    assert run.outputs(_rep(traced, traced_state.get("checks", []))) == \
        run.outputs(_rep(plain, plain_state.get("checks", [])))

    layers = tracer.layer_metrics()
    assert list(layers) == list(spans.LAYER_UNITS)
    assert layers["mesh.triangles"] > 0 and layers["cip.nnz"] > 0
    assert layers["linalg.lu_solves"] >= layers["linalg.solve_calls"] > 0
    assert layers["linalg.lu_fill_nnz"] > 0
    assert 0.0 <= layers["dg_time.solve_self_s"] <= layers["dg_time.solve_s"]
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)

    end_to_end = run.end_to_end([_rep([{"level": "a", "status": "pass"}])],
                                [1.0])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: run.END_TO_END[name] for name in end_to_end}

    layers = {name: 1.0 for name in spans.LAYER_UNITS}
    values, units = run.per_layer([_rep([])],
                                  [dict(_rep([]), layers=layers)])
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {name: units[name] for name in values}


def test_run_fails_without_the_program(out_dir):
    (out_dir / "perfbench").mkdir()
    for path in BENCH.iterdir():
        # the self-tests stay behind, or pytest would collect the copy
        if path.is_file() and not path.name.startswith("test_"):
            shutil.copy(path, out_dir / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", out_dir)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diagnostics",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=out_dir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
