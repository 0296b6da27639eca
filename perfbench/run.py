"""fiberqed benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload figures|sweep|trajectory \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``.
Inputs are generated from the seed, and the workload runs as a closed loop
in a worker process (``worker.py``) with FIBERQED_THREADS capped at the
number of usable CPUs.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give every
metric by name and unit, the run metadata and the largest check deviations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
WORKER_GRACE = 150  # seconds a worker may run past --seconds before it is stopped


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def program_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p)
    env["FIBERQED_THREADS"] = str(threads)
    return env


def tail(values):
    """(percentile, value): the highest 5 % step with >= 10 samples beyond it."""
    n = len(values)
    pct = 50
    while pct + 5 < 100 and n * (100 - pct - 5) / 100 >= 10:
        pct += 5
    return pct, float(np.percentile(values, pct))


def metadata(args, threads):
    src = sorted(Path("src").rglob("*.py"))
    # a benchmark checkout need not be a git repository; never look above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, env=env,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    src_digest = hashlib.sha256()
    for path in src:
        src_digest.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": src_digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": threads,
        "fiberqed_threads": threads,
        "cpu": cpu,
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (Path("src/fiberqed/cli.py").is_file() and Path("scenarios").is_dir()):
        fail("run from the root of a fiberqed checkout (src/fiberqed and scenarios/ needed)")
    sys.path.insert(0, str(HERE))
    import inputs  # needs scipy; imported after the checkout check

    if args.workload not in inputs.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(inputs.WORKLOADS)}")
    threads = len(os.sched_getaffinity(0))
    env = program_env(threads)
    meta = metadata(args, threads)

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "out").mkdir(parents=True)
    try:
        ops = inputs.WORKLOADS[args.workload](np.random.default_rng(args.seed), run_dir)
        (run_dir / "ops.json").write_text(json.dumps(ops))

        cmd = [sys.executable, str(HERE / "worker.py"), str(run_dir / "ops.json"),
               "--out", str(run_dir / "out"), "--seconds", str(args.seconds),
               "--seed", str(args.seed)]
        if args.trace:
            cmd += ["--spans", str(WORK / f"spans-{args.workload}-{args.seed}.json")]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=args.seconds + WORKER_GRACE)
        except subprocess.TimeoutExpired:
            fail("worker did not finish in time")
        if proc.returncode != 0:
            fail(f"worker failed:\n{proc.stderr.strip()}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    walls = res["walls"]
    print("# metadata " + json.dumps(meta))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
        overhead = statistics.median(res["traced_walls"]) / statistics.median(walls)
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        pct, tail_s = tail(walls)
        print(f"# wall_s: median of {len(walls)} passes; p{pct} = {tail_s:.6f} s "
              f"({len(walls) - int(np.ceil(len(walls) * pct / 100))} passes beyond it)")
        metrics = {
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "wall_s_tail": {"value": tail_s, "unit": "s"},
            "points_per_s": {"value": res["points_per_pass"] / statistics.median(walls),
                             "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    failed_share = res["failed"] / res["attempted"]
    print(f"# failed_ops = {failed_share:.6f} share ({res['failed']} of {res['attempted']} ops)")
    for kind, dev in sorted(res["max_dev"].items()):
        print(f"# largest deviation {kind} = {dev:.3e}")
    for problem in res["problems"]:
        print(f"# FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
