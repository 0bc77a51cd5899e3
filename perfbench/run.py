"""hkxor benchmark: one workload per call, one JSON result line at the end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``src/`` there.
Each workload runs in a fresh process (``process.py``).  With ``--trace 0``
the last line carries the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run.  The lines before it print every metric
with its unit, the environment, and the first failed checks.  Full results,
spans included, go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stats import MIN_BEYOND, at_reference_speed, highest_reportable, percentile
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("even-sweep", "odd-slice", "verify")
BLAS_THREADS = 1  # for the workload processes; one is never more than nproc
SETUPS = 3  # fresh processes whose set-up time is measured; setup_s is their median
DEADLINE_S = 170  # the whole call stays under 180 s
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s.p50", "s"),
              ("peak_rss_mb", "MB"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONHASHSEED="0")
    return env


def host() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "git_commit": commit,
            "src_sha256": src.hexdigest()}


def spawn(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    """Run one workload process; returns its result with ``setup_s`` added."""
    workdir.mkdir()
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "process.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.time()
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready_wall"] - started
    return result


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        setups = [] if args.trace else [
            spawn(args, scratch / f"setup{i}", deadline, True) for i in range(SETUPS - 1)]
        result = spawn(args, scratch / "run", deadline, False)
    finally:
        shutil.rmtree(scratch)
    if not args.trace:
        setups.append(result)
        result["setup_samples"] = [s["setup_s"] for s in setups]
        result["metrics"]["setup_s"] = statistics.median(
            at_reference_speed(s["setup_s"], s["setup_cal"]) for s in setups)
        result["wall"]["setup_s"] = statistics.median(result["setup_samples"])
    result["env"].update(host())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(result, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the workload process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "hkxor" / "__init__.py").is_file():
        print(f"no hkxor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    result = measure(args)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit, *_ in units}
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:<14.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'error_rate':28s} {failed / attempted:<14.6g} ratio ({failed} of {attempted} ops)")
    if not args.trace:
        samples = result["scaled"]
        tail = highest_reportable(len(samples))
        if tail is None:
            note = (f"only {len(samples) // 2} samples beyond the median, "
                    f"fewer than {MIN_BEYOND}")
        elif tail == 50:
            note = "median is the highest percentile reported"
        else:
            note = f"p{tail:g}={percentile(samples, tail):.6g} s"
        print(f"op_s samples={len(samples)} ({note})")
        print("op_s.p50 per cycle slot: " + " ".join(f"{v:.6g}" for v in result["slot_p50"]))
        print("wall clock, unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in result["wall"].items()))
        for extra, unit in (("refuted_frac", "ratio"), ("slack.p50", "energy")):
            if result.get(extra) is not None:
                print(f"{extra:28s} {result[extra]:<14.6g} {unit}")
    else:
        print(f"trace targets missing: {result['missing_targets'] or 'none'}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
