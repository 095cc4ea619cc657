"""Checks of the benchmark itself.

    python -m pytest -q bench/checks.py

The file is not named test_*.py on purpose: each check starts benchmark
runs in subprocesses and takes tens of seconds, so the package's own test
suite does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload with the same seed."""
    out = {}
    for w in run.WORKLOADS:
        pair = []
        for _ in range(2):
            proc = _bench("--workload", w, "--seed", str(SEED), "--seconds", "1",
                          "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            report = next(
                json.loads(line.split("report: ", 1)[1])
                for line in proc.stdout.splitlines()
                if line.startswith("  report: ")
            )
            pair.append((_last_json(proc.stdout), report))
        out[w] = pair
    return out


def test_manifest_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert tuple(workloads.CYCLES) == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER
    ]


def test_scaling_follows_the_kernel_around_each_op():
    nominal = hostspeed.NOMINAL_S
    # the host runs at half speed for the last ten ops: their kernel takes
    # twice as long, so away from the switch their scaled times equal the
    # first ten
    walls = [0.1] * 10 + [0.2] * 10
    kernels = [nominal] * 10 + [2 * nominal] * 10
    scaled = hostspeed.scaled(walls, kernels)
    w = hostspeed.HALF_WINDOW
    assert scaled[:10 - w] == pytest.approx([0.1] * (10 - w))
    assert scaled[10 + w:] == pytest.approx([0.1] * (10 - w))
    assert hostspeed.time_kernel() > 0


def test_one_command_prints_every_metric_for_every_workload():
    proc = _bench("--workload", "all", "--seed", str(SEED), "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for w in run.WORKLOADS:
        for name, unit in run.END_TO_END:
            m = result["metrics"][f"{w}.{name}"]
            assert m["unit"] == unit
            assert m["value"] > 0
        assert f"== {w}  seed {SEED}" in proc.stdout
    failed_lines = [ln for ln in proc.stdout.splitlines() if ln.strip().startswith("failed_frac")]
    assert len(failed_lines) == len(run.WORKLOADS)
    assert all(ln.split()[1] == "0" for ln in failed_lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(traced, workload):
    (first, _), (second, _) = traced[workload]
    assert first["failed"] == 0 and second["failed"] == 0
    counts = [name for name, unit, _, _ in run.PER_LAYER if unit in ("count", "B")]
    a = {k: first["metrics"][k]["value"] for k in counts}
    b = {k: second["metrics"][k]["value"] for k in counts}
    assert a == b
    assert a["scalar_fields.evaluate.calls"] > 0
    assert a["scalar_fields.nodes_built"] > 0
    assert a["sampling.points"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_self_times_account_for_traced_wall_time(traced, workload):
    for result, report in traced[workload]:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        wall = metrics["trace.wall_s"]
        layers = [name for name, _, _, _ in run.PER_LAYER
                  if name.endswith(".self_s") and name.count(".") == 1]
        assert sum(metrics[name] for name in layers) == pytest.approx(wall, rel=1e-6)
        # no layer outside the reported ones took time
        assert sum(report["layer_self_s"].values()) == pytest.approx(wall, rel=1e-6)
        assert set(report["layer_self_s"]) <= {name.split(".")[0] for name in layers}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", run.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
