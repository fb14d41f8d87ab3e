"""Smoke check of the benchmark command: tiny inputs, every declared metric.

Runs each workload with ``--smoke`` untraced and traced, and asserts that the
last output line carries every metric BENCHMARK.json declares for that mode,
with its unit, and that every output check passed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Layers each workload must reach; a zero here means a wrapper missed a call site.
REACHED = {
    "study-a1": [
        "zestim.solve.iters", "zestim.empirical_risk.calls", "estfun.jac.bytes_computed",
        "ate.tau_model_based.self_s", "ate.adjusted_imputation.self_s",
        "finitepop.draw_assignment.s", "finitepop.observe.calls", "simlab.gen_population.s",
        "simlab.build_estimator.s", "simlab.estimate.ma_sq.s", "simlab.solves_per_rep",
    ],
    "estimate-large": [
        "cli.main.calls", "finitepop.read_dataset_csv.s", "ite.fit_normal_linear.s",
        "ite.fit_ternary.s", "ate.fit_optimal_adjustment.s", "estfun.jac.bytes_computed",
        "zestim.sandwich.calls",
    ],
    "enum-oracle": [
        "finitepop.enumerate_assignments.s", "finitepop.observe.calls",
        "ate.tau_unadjusted.s", "zestim.empirical_psi.calls", "estfun.psi.calls",
    ],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if trace:
        for name in REACHED[workload]:
            assert result["metrics"][name]["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enum-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
