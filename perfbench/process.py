"""One workload in a fresh process: set-up, one warm-up op, then timed closed-loop ops.

Run by ``run.py``; it writes its measurements as JSON to ``--result``.
Untraced (``--trace 0``) the process measures end-to-end numbers and
fails if any tracer wrapper is installed.  Traced (``--trace 1``) it runs
the first third of the time untraced and the rest with the tracer
installed, so the tracing overhead comes from one process.  Every op is
preceded by the calibration kernel of ``stats.py``; op and set-up times are
reported at reference speed, per-layer times as wall clock.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import hkxor  # noqa: E402
import tracer  # noqa: E402
from stats import Calibrator, at_reference_speed  # noqa: E402
from workloads import WORKLOADS, Outcome, load_reference  # noqa: E402

UNTRACED_SHARE = 1 / 3  # of a traced run's seconds, spent untraced for the overhead


def run_op(workload, i: int, rec=None) -> tuple[float, Outcome]:
    """Time op i (inside an "op" span when traced), then check its output untimed."""
    t0 = time.perf_counter()
    if rec is not None:
        rec.op = i
        span = rec.open(tracer.ROOT_SPAN)
    try:
        result = workload.op(i)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        return time.perf_counter() - t0, Outcome([f"op {i}: {type(exc).__name__}: {exc}"])
    finally:
        if rec is not None:
            rec.close(span)
    seconds = time.perf_counter() - t0
    try:
        return seconds, workload.check(i, result)
    except Exception as exc:  # a check that cannot run fails the op
        return seconds, Outcome([f"op {i} check: {type(exc).__name__}: {exc}"])


def closed_loop(workload, seconds: float, calibrate: Calibrator, rec=None) -> dict:
    """Run ops back to back until ``seconds`` have passed and a cycle is complete.

    Each op is preceded by the calibration kernel.  ``samples`` are op times,
    ``turns`` op plus check times, and ``scaled`` the op times at reference
    speed; ``elapsed`` is wall time, calibration included.
    """
    samples, turns, cals, outcomes = [], [], [], []
    start = time.perf_counter()
    i = 0
    while i % workload.cycle or time.perf_counter() - start < seconds:
        cals.append(calibrate())
        t0 = time.perf_counter()
        took, outcome = run_op(workload, i, rec)
        turns.append(time.perf_counter() - t0)
        samples.append(took)
        outcomes.append(outcome)
        i += 1
    scaled = [at_reference_speed(t, c) for t, c in zip(samples, cals)]
    scaled_turns = [at_reference_speed(t, c) for t, c in zip(turns, cals)]
    return {"samples": samples, "scaled": scaled, "scaled_busy": sum(scaled_turns),
            "cals": cals, "outcomes": outcomes, "elapsed": time.perf_counter() - start}


def failures(outcomes) -> tuple[int, list[str]]:
    bad = [o for o in outcomes if o.problems]
    return len(bad), [p for o in bad for p in o.problems][:20]


def trace_metrics(rec, traced: dict, untraced: dict) -> dict[str, float]:
    ops = len(traced["samples"])
    metrics = {name: 0.0 for name, _, _ in tracer.PER_LAYER}
    for name, total in tracer.layer_seconds(rec.spans).items():
        if name in metrics:
            metrics[name] = total / ops
    for name, total in rec.counts.items():
        metrics[name] = total / ops
    built = rec.counts["kikuchi_odd.edges_built"]
    metrics["kikuchi_odd.kept_frac"] = rec.counts["kikuchi_odd.edges_kept"] / built if built else 0.0
    traced_p50 = statistics.median(traced["scaled"])
    untraced_p50 = statistics.median(untraced["scaled"])
    op_total = sum(s.end - s.start for s in rec.spans if s.parent < 0)
    metrics.update({
        "trace.op_s.p50": traced_p50,
        "trace.untraced_op_s.p50": untraced_p50,
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1,
        "trace.accounted_frac": 1 - metrics["bench.self_s"] * ops / op_total,
        "trace.ops": float(ops),
        "trace.missing_targets": float(len(rec.missing)),
    })
    return metrics


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if Path(hkxor.__file__).resolve().parent != SRC / "hkxor":
        print(f"hkxor imported from {hkxor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.workdir, load_reference())
    workload.setup()
    warm_up = [run_op(workload, 0)[1]]
    ready_wall = time.time()
    calibrate = Calibrator()
    result = {"ready_wall": ready_wall,
              "setup_cal": statistics.median(calibrate() for _ in range(3))}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    leftover = tracer.wrapped_names()
    if leftover:
        print(f"tracer wrappers still installed: {leftover}", file=sys.stderr)
        return 2
    if args.trace:
        untraced = closed_loop(workload, args.seconds * UNTRACED_SHARE, calibrate)
        rec = tracer.Tracer()
        rec.install()
        try:
            run = closed_loop(workload, args.seconds * (1 - UNTRACED_SHARE), calibrate, rec)
        finally:
            rec.restore()
        result["metrics"] = trace_metrics(rec, run, untraced)
        result["missing_targets"] = rec.missing
        result["spans"] = [[s.name, s.start, s.end, s.parent, s.op] for s in rec.spans]
        outcomes = untraced["outcomes"] + run["outcomes"]
    else:
        run = closed_loop(workload, args.seconds, calibrate)
        if tracer.wrapped_names():
            print("tracer wrappers appeared during the untraced run", file=sys.stderr)
            return 2
        outcomes = run["outcomes"]
        samples = run["samples"]
        refuted = [o.refuted for o in outcomes if o.refuted is not None]
        slack = [o.slack for o in outcomes if o.slack is not None]
        result["metrics"] = {
            "ops_per_s": len(samples) / run["scaled_busy"],
            "op_s.p50": statistics.median(run["scaled"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["wall"] = {"ops_per_s": len(samples) / run["elapsed"],
                          "op_s.p50": statistics.median(samples),
                          "cal_s.p50": statistics.median(run["cals"])}
        result["samples"] = samples
        result["scaled"] = run["scaled"]
        result["slot_p50"] = [statistics.median(run["scaled"][j::workload.cycle])
                              for j in range(workload.cycle)]
        result["refuted_frac"] = sum(refuted) / len(refuted) if refuted else None
        result["slack.p50"] = statistics.median(slack) if slack else None

    outcomes = warm_up + outcomes
    failed, problems = failures(outcomes)
    result.update({"attempted": len(outcomes), "failed": failed, "problems": problems,
                   "env": environment()})
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
