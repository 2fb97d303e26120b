"""Smoke test of the benchmark: the smallest item of each workload passes the
correctness gate, the gate flags tampered outputs, and the tracer survives
names that no longer exist.

    PYTHONPATH=src python -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _build_d4(tmp_path):
    workload = wl.CliBuild(seed=0, workdir=tmp_path)
    workload.make_inputs()
    item = workload.items[0]
    assert item.label == "build.d4"
    return workload, item, workload.items[0].run(tmp_path, traced=False)


def test_cli_build_smallest_item_passes_and_tampering_is_flagged(tmp_path):
    workload, item, outcome = _build_d4(tmp_path)
    assert item.gate(outcome.result).problems == []

    reject = next(i for i in workload.items if i.label == "reject.reducible")
    assert reject.gate(reject.run(tmp_path, traced=False).result).problems == []

    data = json.loads(item.output.read_text())
    data["tetra"]["x"]["01"][0][0] = str(Fraction(data["tetra"]["x"]["01"][0][0]) + 1)
    item.output.write_text(json.dumps(data, indent=2))
    assert any("x_01 != A" in p for p in item.gate(outcome.result).problems)


def test_cli_verify_items_and_tampered_module(tmp_path):
    _, built, _ = _build_d4(tmp_path)
    clean = wl.CliItem("verify.d4", ["verify", str(built.output)], 0, wl.verify_checker(False, False, 0))
    outcome = clean.run(tmp_path, traced=False)
    assert clean.gate(outcome.result).problems == []

    data = json.loads(built.output.read_text())
    data["tetra"]["x"]["02"][1][2] = str(Fraction(data["tetra"]["x"]["02"][1][2]) + 1)
    tampered_path = tmp_path / "tampered.json"
    tampered_path.write_text(json.dumps(data))
    tampered = wl.CliItem("tampered.d4", ["verify", str(tampered_path)], 1, wl.verify_checker(False, True, 0))
    result = tampered.run(tmp_path, traced=False).result
    assert result.code == 1
    assert tampered.gate(result).problems == []
    # the same output, gated as if it were a clean module, is flagged
    assert clean.gate(result).problems != []


def test_lib_grid_smallest_items_and_tampered_result(tmp_path):
    workload = wl.LibGrid(seed=0, workdir=tmp_path)
    workload.make_inputs()
    smallest = [i for i in workload.items if i.label.endswith(".d2") or i.label.startswith("pair0")]
    assert len(smallest) == 5
    for item in smallest:
        outcome = item.run(tmp_path, traced=False)
        assert item.gate(outcome.result).problems == [], item.label
    item = smallest[0]
    outcome = item.run(tmp_path, traced=False)
    outcome.result["burnside"] = not outcome.result["burnside"]
    assert any("Burnside disagrees" in p for p in item.gate(outcome.result).problems)


def test_gate_flags_outputs_that_differ_between_passes():
    first = wl.Pass(1.0, [wl.Outcome("a", 1.0)], checked=[wl.Checked([], "x")])
    second = wl.Pass(1.0, [wl.Outcome("a", 1.0)], checked=[wl.Checked([], "y")])
    attempted, failed, problems, _ = wl.tally([first, second])
    assert (attempted, failed) == (2, 1)
    assert "differs between passes" in problems[0]


def test_tracer_reports_missing_names_as_absent():
    import tetrabox.classify

    original = tetrabox.classify.pair_generates_full_algebra
    tracer = tracing.Tracer()
    layers = tracing.LAYERS + (
        ("ghost", "tetrabox.classify", "_removed_helper", tracing.SPAN, None),
        ("ghost", "tetrabox.flags", "Flag.__removed_check__", tracing.SPAN, None),
        ("ghost", "tetrabox.no_such_module", "f", tracing.SPAN, None),
    )
    tracer.install(layers)
    try:
        spec = tetrabox.ModuleSpec.of([(1, 2), (1, 3)])
        tetrabox.build_tetra(tetrabox.build_from_spec(spec))
    finally:
        tracer.uninstall()
    assert tetrabox.classify.pair_generates_full_algebra is original
    snap = tracer.snapshot()
    assert len(snap["absent"]) == 3
    metrics = tracing.layer_metrics(snap)
    assert metrics["tetra.build_tetra.self_s"] > 0
    assert metrics["classify.burnside.calls"] == 1
    assert metrics["classify.modp_cert.hits"] == 1
    assert metrics["linalg.matrix_constructed"] > 0
    assert snap["total_s"]["tetra.build_tetra"] >= snap["self_s"]["tetra.build_tetra"]


def test_traced_cli_item_reports_child_spans(tmp_path):
    workload = wl.CliBuild(seed=0, workdir=tmp_path)
    workload.make_inputs()
    outcome = workload.items[0].run(tmp_path, traced=True)
    assert outcome.result.code == 0
    assert outcome.trace["calls"]["cli"] == 1
    assert outcome.trace["calls"]["tetra.build_tetra"] == 1
    assert 0 < outcome.trace["import_s"] < outcome.seconds


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in tracing.METRICS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(wl.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lib-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
