"""Tests of the benchmark harness itself, in smoke mode (tiny --nmax).

Run from the repository root: python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke", *extra)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_unit(workload, trace):
    _, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_environment_and_raw_means_are_recorded():
    proc, result = smoke("closed-form-n60", 0)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0])["environment"]
    assert env["seed"] == 5
    assert {"python", "nproc", "cpu_model", "commit", "source_sha256"} <= set(env)
    raw = json.loads(lines[-2])["raw_means"]
    assert raw["operations"] == result["attempted"]
    assert result["metrics"]["wall_rel"]["value"] == raw["wall_s"] / raw["reference_wall_s"]


def test_corrupted_golden_counts_as_failure(tmp_path, monkeypatch, capsys):
    golden = json.loads(run.GOLDEN.read_text())
    golden["p3-r1-n8"]["values"]["series"][2] += 1
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", corrupted)
    assert run.main(["--workload", "p3-r1-n8", "--seed", "5", "--seconds", "1",
                     "--trace", "0", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_trace_counts_match_macmahon():
    _, result = smoke("p2xp1-r2tw-n5", 1)
    misses = result["metrics"]["vertex.vertex_character.misses"]["value"]
    assert misses == run.expected_character_misses(6, 2, 2)


def test_self_check_fails_when_characters_are_not_built():
    stats = {"vertex.vertex_character.misses": 0}
    assert run.check_stats(stats, run.WORKLOADS["p3-r1-n8"], 1, 8) is not None


def test_tracer_refuses_a_lost_cache():
    code = ("import sys; import quotdt.vertex as v; "
            "v.chart_contribution = v.chart_contribution.__wrapped__; "
            "sys.path.insert(0, 'perfbench'); import tracer; "
            "tracer.main(['macmahon', '--nmax', '2'])")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode != 0
    assert "chart_contribution lost its lru_cache" in proc.stderr
    assert run.STATS_MARKER not in proc.stderr


def test_colored_partition_counts():
    assert run.colored_partition_counts(10, 1) == [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500]
    # The full-size self-check values.
    golden = json.loads(run.GOLDEN.read_text())
    wanted = {"p3-r1-n8": 1364, "p1cubed-r1-n7": 1448, "p2xp1-r2tw-n5": 1104}
    for name, misses in wanted.items():
        inputs = golden[name]["inputs"]
        charts = run.WORKLOADS[name].charts
        assert run.expected_character_misses(charts, inputs["rank"], inputs["nmax"]) == misses
    # The same counts at larger sizes: p3 to nmax 10, p1cubed to 8, p2xp1 at rank 2 to 6.
    assert run.expected_character_misses(4, 1, 10) == 4492
    assert run.expected_character_misses(8, 1, 8) == 2728
    assert run.expected_character_misses(6, 2, 6) == 2652


def test_expected_report_cuts_golden():
    golden = json.loads(run.GOLDEN.read_text())["closed-form-n60"]
    cut = run.expected_report(golden, 4)
    assert cut["inputs"]["nmax"] == 4
    assert cut["values"]["coefficients"] == [1, 20, 150, 400, -855]


def test_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "tracer.py", "golden.json"):
        (tmp_path / "perfbench" / name).write_bytes((HERE / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "p3-r1-n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
