"""One benchmark workload in one process: set up, then measure or trace.

    python3 bench/worker.py --workload NAME --seed N --mode MODE --seconds S

Modes:

* ``setup``: import orthonet, generate the inputs, run the warm-up op, and
  report the time that took (``setup_s``), then ``SETUP_KERNELS`` timings of
  the reference kernel in ``hostspeed.py``.
* ``measure``: after set-up, run whole op cycles in a closed loop with one
  client until ``--seconds`` have passed, checking every result, and report
  per-op wall times, points verified and peak resident memory. Each op is
  followed by one timing of the reference kernel.
* ``trace``: after set-up, run ``TRACE_ROUNDS`` rounds of one untraced and
  one traced cycle and report per-layer counts and self times. The work is
  fixed, so counts repeat exactly for a given seed; ``--seconds`` is unused.

Prints one JSON object on its last line of standard output. ``run.py``
starts this script; it is not meant to be called by hand.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

TRACE_ROUNDS = 3
SETUP_KERNELS = 25


def _run_op(op, stats, failures):
    """Run one op, record its time and outcome; returns the elapsed seconds."""
    t = time.perf_counter()
    try:
        points = op.run()
    except Exception as e:  # every failure is counted, none stops the run
        points = None
        failures.append(f"{op.label}: {type(e).__name__}: {e}")
    dt = time.perf_counter() - t
    s = stats.setdefault(op.label, {"ops": 0, "failed": 0, "points": 0})
    s["ops"] += 1
    if points is None:
        s["failed"] += 1
    else:
        s["points"] += points
    return dt


def _measure(ops, seconds, stats, failures):
    times = []
    kernels = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for op in ops:
            times.append(_run_op(op, stats, failures))
            kernels.append(hostspeed.time_kernel())
        if time.perf_counter() >= deadline:
            break
    return {"op_s": times, "kernel_s": kernels, "wall_s": time.perf_counter() - start}


def _trace(ops, stats, failures):
    import layertrace
    import workloads

    tracer = layertrace.Tracer()
    untraced = []

    def cycle():
        for op in ops:
            tracer.call(_run_op, layertrace.BENCH, "bench.op", (op, stats, failures))

    for _ in range(TRACE_ROUNDS):
        t = time.perf_counter()
        for op in ops:
            _run_op(op, stats, failures)
        untraced.append(time.perf_counter() - t)
        tracer.install(callers=(workloads,))
        try:
            tracer.run(cycle)
        finally:
            tracer.uninstall()
    return tracer, sum(untraced)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy
    import orthonet
    import scipy
    import workloads

    if Path(orthonet.__file__).resolve().parent != SRC / "orthonet":
        raise SystemExit(f"orthonet imported from {orthonet.__file__}, not {SRC}")
    if args.workload not in workloads.CYCLES:
        raise SystemExit(f"unknown workload {args.workload!r}")

    workdir = Path(tempfile.mkdtemp(prefix=".bench_work_", dir=ROOT))
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        stats: dict = {}
        failures: list = []
        _run_op(ops[0], stats, failures)  # warm-up, untimed
        out = {"setup_s": time.perf_counter() - T0}
        hostspeed.time_kernel()  # warm-up, untimed
        out["setup_kernel_s"] = [hostspeed.time_kernel() for _ in range(SETUP_KERNELS)]
        if args.mode == "measure":
            out.update(_measure(ops, args.seconds, stats, failures))
        elif args.mode == "trace":
            tracer, untraced_s = _trace(ops, stats, failures)
            spans_path = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl"
            spans_path.parent.mkdir(exist_ok=True)
            tracer.write_spans(spans_path)
            out["trace"] = {
                "groups": {k: v for k, v in tracer.groups.items()},
                "by_parent": {g: dict(v) for g, v in tracer.by_parent.items()},
                "layer_self_s": dict(tracer.layer_self),
                "counts": dict(tracer.counts),
                "wall_s": tracer.wall_s,
                "untraced_s": untraced_s,
                "rounds": TRACE_ROUNDS,
                "spans": len(tracer.spans),
                "spans_dropped": tracer.spans_dropped,
                "spans_file": str(spans_path.relative_to(ROOT)),
            }
        out["versions"] = {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "orthonet": orthonet.__version__,
        }
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["ops"] = stats
        out["failures"] = failures[:20]
        out["failed"] = sum(s["failed"] for s in stats.values())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
