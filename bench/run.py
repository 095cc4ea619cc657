"""The orthonet benchmark: four seeded workloads against the public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is one of WORKLOADS; ``all`` runs each of them in turn. The program is
imported from ``src/`` of the checkout this script sits in.

With ``--trace 0`` a run starts ``SETUP_RUNS`` fresh worker processes, one
after another. Each imports orthonet, generates the inputs from the seed and
runs one untimed warm-up op; that set-up time is ``setup_s``. The middle one
then measures: a closed loop with one client and one thread runs whole
cycles of the workload's ops until ``--seconds`` have passed. Every op's
verdicts are checked. Times are reported at a fixed host speed: each is
scaled by a reference kernel timed beside it (see ``hostspeed.py``), and the
unscaled wall times are printed in the report line. The run prints the
end-to-end metrics by name and unit, the run environment and the op mix, and
as its last line one JSON object.

With ``--trace 1`` one worker runs a fixed number of untraced and traced
cycles (see ``layertrace.py``) and the run prints the per-layer metrics.

Exit code 0 when the run completed, even if some ops failed (``correct`` is
then false); 1 when a worker failed or ran out of time; 2 when the checkout
has no ``src/orthonet`` to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("classify_sweep", "oneshot_build", "codazzi_eigen", "factorize_quad")
SETUP_RUNS = 3
# tail percentiles to choose from: the highest with at least 10 ops beyond it
TAIL_LADDER = (75.0, 90.0, 99.0)
# wall-clock cap for one workload, workers included
BUDGET_S = 170.0

END_TO_END = (
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("points_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _calls(g):
    return lambda t: t["groups"].get(g, [0, 0.0, 0.0, 0])[0]


def _self(g):
    return lambda t: t["groups"].get(g, [0, 0.0, 0.0, 0])[2]


def _errors(g):
    return lambda t: t["groups"].get(g, [0, 0.0, 0.0, 0])[3]


def _layer_self(layer):
    return lambda t: t["layer_self_s"].get(layer, 0.0)


def _count(key):
    return lambda t: t["counts"].get(key, 0)


def _from_parent(g, layer):
    return lambda t: t["by_parent"].get(g, {}).get(layer, [0, 0.0])[0]


_SF = "scalar_fields"
_CC = "chart_calculus"

# (name, unit, better, value from the trace); see README.md for the
# workload each one is predicted to move
PER_LAYER = (
    (f"{_SF}.parse_expr.calls", "count", "lower", _calls(f"{_SF}.parse_expr")),
    (f"{_SF}.parse_expr.self_s", "s", "lower", _self(f"{_SF}.parse_expr")),
    (f"{_SF}.diff.calls", "count", "lower", _calls(f"{_SF}.diff")),
    (f"{_SF}.diff.self_s", "s", "lower", _self(f"{_SF}.diff")),
    (f"{_SF}.evaluate.calls", "count", "lower", _calls(f"{_SF}.evaluate")),
    (f"{_SF}.evaluate.self_s", "s", "lower", _self(f"{_SF}.evaluate")),
    (f"{_SF}.evaluate.errors", "count", "lower", _errors(f"{_SF}.evaluate")),
    (f"{_SF}.build.calls", "count", "lower", _count(f"{_SF}.build")),
    (f"{_SF}.nodes_built", "count", "lower", _count("nodes_built")),
    (f"{_SF}.self_s", "s", "lower", _layer_self(_SF)),
    (f"{_CC}.build.calls", "count", "lower", _calls(f"{_CC}.build")),
    (f"{_CC}.build.self_s", "s", "lower", _self(f"{_CC}.build")),
    (f"{_CC}.metric_at.calls", "count", "lower", _calls(f"{_CC}.metric_at")),
    (f"{_CC}.metric_at.self_s", "s", "lower", _self(f"{_CC}.metric_at")),
    (f"{_CC}.metric_at.errors", "count", "lower", _errors(f"{_CC}.metric_at")),
    (f"{_CC}.numeric.calls", "count", "lower", _calls(f"{_CC}.numeric")),
    (f"{_CC}.numeric.self_s", "s", "lower", _self(f"{_CC}.numeric")),
    (f"{_CC}.self_s", "s", "lower", _layer_self(_CC)),
    ("linalg.calls", "count", "lower", _calls("linalg")),
    ("linalg.self_s", "s", "lower", _layer_self("linalg")),
    ("nets.classify_net.calls", "count", "lower", _calls("nets.classify_net")),
    ("nets.self_s", "s", "lower", _layer_self("nets")),
    ("codazzi.eigen_two.calls", "count", "lower", _calls("codazzi.eigen_two")),
    ("codazzi.eigen_two.self_s", "s", "lower", _self("codazzi.eigen_two")),
    ("codazzi.codazzi_residual.calls", "count", "lower",
     _calls("codazzi.codazzi_residual")),
    ("codazzi.codazzi_residual.self_s", "s", "lower",
     _self("codazzi.codazzi_residual")),
    ("codazzi.self_s", "s", "lower", _layer_self("codazzi")),
    ("product_metrics.factorize_cwp.calls", "count", "lower",
     _calls("product_metrics.factorize_cwp")),
    ("product_metrics.self_s", "s", "lower", _layer_self("product_metrics")),
    ("product_metrics.evaluate_calls", "count", "lower",
     _from_parent(f"{_SF}.evaluate", "product_metrics")),
    ("product_metrics.build_metric.self_s", "s", "lower",
     _self("product_metrics.build_metric")),
    ("sampling.points", "count", "higher", _count("sampling.points")),
    ("sampling.self_s", "s", "lower", _layer_self("sampling")),
    ("cli.load_manifest.self_s", "s", "lower", _self("cli.load_manifest")),
    ("cli.run.self_s", "s", "lower", _self("cli.run")),
    ("cli.emit.self_s", "s", "lower", _self("cli.emit")),
    ("cli.emit.bytes", "B", "lower", _count("cli.emit.bytes")),
    ("cli.self_s", "s", "lower", _layer_self("cli")),
    ("bench.self_s", "s", "lower", _layer_self("bench")),
    ("trace.wall_s", "s", "lower", lambda t: t["wall_s"]),
    ("trace.overhead_frac", "ratio", "lower",
     lambda t: t["wall_s"] / t["untraced_s"] - 1.0),
)


class BenchError(Exception):
    pass


# --- workers ------------------------------------------------------------------


def _worker(workload: str, seed: int, mode: str, seconds: float, deadline: float):
    env = dict(os.environ)
    # one thread per workload process; fixed hashing so traced counts repeat
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: {mode} worker ran out of time") from e
    if proc.returncode != 0:
        raise BenchError(
            f"{workload}: {mode} worker exited with {proc.returncode}:\n"
            + proc.stderr[-4000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(sorted_vals, p: float) -> float:
    k = (len(sorted_vals) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (k - lo)


def _tail_percentile(n: int) -> float:
    return max((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0), default=50.0)


def _outcome(results, main) -> dict:
    """Ops attempted and failed over all workers of a run, and the op mix of
    the main one."""
    attempted = sum(s["ops"] for r in results for s in r["ops"].values())
    failed = sum(r["failed"] for r in results)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for r in results for f in r["failures"]][:10],
        "op_mix": main["ops"],
        "versions": main["versions"],
    }


def measure(workload: str, seed: int, seconds: float):
    """End-to-end metrics of one workload: (metrics, report)."""
    deadline = time.monotonic() + BUDGET_S
    results = []
    for i in range(SETUP_RUNS):
        mode = "measure" if i == SETUP_RUNS // 2 else "setup"
        results.append(_worker(workload, seed, mode, seconds, deadline))
    m = results[SETUP_RUNS // 2]
    op_s = hostspeed.scaled(m["op_s"], m["kernel_s"])
    times = sorted(op_s)
    n = len(times)
    tail_p = _tail_percentile(n)
    points = sum(s["points"] for s in m["ops"].values())
    setups = [r["setup_s"] * hostspeed.NOMINAL_S / statistics.median(r["setup_kernel_s"])
              for r in results]
    metrics = {
        "op_ms_p50": 1000.0 * _percentile(times, 50.0),
        "op_ms_tail": 1000.0 * _percentile(times, tail_p),
        "points_per_s": points / sum(op_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": m["peak_rss_mb"],
    }
    report = {
        "timed_ops": n,
        "tail_percentile": tail_p,
        "points": points,
        "loop_wall_s": m["wall_s"],
        "setup_runs_s": setups,
        # the same metrics in unscaled wall time, and the kernel's median time
        "wall": {
            "op_ms_p50": 1000.0 * statistics.median(m["op_s"]),
            "points_per_s": points / sum(m["op_s"]),
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "kernel_ms": 1000.0 * statistics.median(m["kernel_s"]),
        },
        **_outcome(results, m),
    }
    return metrics, report


def trace(workload: str, seed: int):
    """Per-layer metrics of one workload from one traced worker."""
    r = _worker(workload, seed, "trace", 0, time.monotonic() + BUDGET_S)
    t = r["trace"]
    metrics = {name: get(t) for name, _, _, get in PER_LAYER}
    report = {
        "rounds": t["rounds"],
        "spans": t["spans"],
        "spans_dropped": t["spans_dropped"],
        "spans_file": t["spans_file"],
        "layer_self_s": t["layer_self_s"],
        **_outcome([r], r),
    }
    return metrics, report


# --- environment --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="utf-8").strip()
        return head
    except OSError:
        return None


def _src_digest() -> str:
    """Short SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "orthonet").glob("*.*")):
        if path.suffix in (".py", ".json"):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# --- output -------------------------------------------------------------------


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _print_block(workload, seed, seconds, trace_mode, metrics, units, report):
    print(f"== {workload}  seed {seed}  "
          + ("traced" if trace_mode else f"{_fmt(seconds)} s closed loop, 1 client"))
    for name, value in metrics.items():
        print(f"  {name:38s} {_fmt(value):>14s} {units[name]}")
    print(f"  {'failed_frac':38s} {_fmt(report['failed_frac']):>14s} "
          f"({report['failed']} of {report['attempted']} ops)")
    if not trace_mode:
        print(f"  op_ms_tail is p{_fmt(report['tail_percentile'])} "
              f"of {report['timed_ops']} timed ops; setup_s is the median of "
              f"{[round(s, 4) for s in report['setup_runs_s']]}")
    for f in report["failures"]:
        print(f"  failure: {f}")
    print("  op mix: " + json.dumps(report["op_mix"], sort_keys=True))
    print("  report: " + json.dumps(
        {k: v for k, v in report.items()
         if k not in ("op_mix", "failures", "versions")}, sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "orthonet" / "__init__.py").is_file():
        print(f"error: no orthonet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        units = dict(END_TO_END)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out_metrics = {}
    attempted = failed = 0
    try:
        for w in names:
            if args.trace:
                metrics, report = trace(w, args.seed)
            else:
                metrics, report = measure(w, args.seed, args.seconds)
            _print_block(w, args.seed, args.seconds, args.trace, metrics, units, report)
            attempted += report["attempted"]
            failed += report["failed"]
            prefix = "" if len(names) == 1 else f"{w}."
            for name, value in metrics.items():
                out_metrics[prefix + name] = {"value": value, "unit": units[name]}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("env: " + json.dumps(environment(args.seed, report["versions"]), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
