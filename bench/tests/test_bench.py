"""Tests of the benchmark itself, on tiny workloads.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import record_references  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(workload, trace=False, reference=None):
    return run.run(workload, seed=3, seconds=0.0, trace=trace, size="tiny",
                   setup_reps=1, reference=reference)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    final = tiny(workload, trace)["final"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in final["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_traced_counts_repeat_and_rays_are_cast_twice():
    result = tiny("mapsim", trace=True)
    metrics = result["final"]["metrics"]
    assert result["record"]["counts_repeat"]
    assert metrics["heightmap.los_dup_ratio"]["value"] == 2.0
    assert metrics["heightmap.los_check.calls"]["value"] > 0


@pytest.fixture(scope="module")
def package():
    return run.load_package()


@pytest.mark.parametrize("workload,column", [("localize", -1),
                                             ("mapsim", 2)])
def test_corrupted_reference_row_fails(package, workload, column):
    ref = record_references.output_lines(package, workload, 3, size="tiny")
    clean = tiny(workload, reference=ref)
    assert clean["record"]["failed_frac"] == 0.0
    assert clean["record"]["check"] == "reference rows"

    key = next(k for k in sorted(ref) if k.endswith(".csv"))
    cells = ref[key][1].split(",")
    # 1e-9 relative is inside REL_TOL, so only the exact LOS column fails.
    cells[column] = repr(float(cells[column]) * (1 + 1e-9) + 1e-12)
    bad = dict(ref, **{key: [ref[key][0], ",".join(cells), *ref[key][2:]]})
    final = tiny(workload, reference=bad)["final"]
    if workload == "mapsim":
        assert final["failed"] == 1
    else:
        assert final["failed"] == 0
        cells[column] = repr(float(cells[column]) * 1.01)
        bad[key] = [ref[key][0], ",".join(cells), *ref[key][2:]]
        final = tiny(workload, reference=bad)["final"]
        assert final["failed"] == 1
    assert final["metrics"]["pass_frac"]["value"] < 1.0
    assert not final["correct"]


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "analytic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
