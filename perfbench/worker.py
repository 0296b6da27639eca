"""Run one workload as a closed loop in this process and print one JSON line.

One client issues one ``run_scenario`` call at a time, back to back.  A pass
runs every op of the workload once; its outputs are checked after the pass,
outside the timed region.  Between passes, spread over the run, fresh
interpreters time the set-up (import plus first parse); the worker waits for
each, so they never overlap a pass.  With --spans, passes alternate between untraced
and traced, so the tracing overhead is the ratio of their median walls, and
the spans are written to that file at the end.

    python perfbench/worker.py OPS.json --out DIR --seconds S --seed N [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from fiberqed import cli

from checks import Checker
from tracing import Tracer, pass_metrics

SETUP_CONFIG = "scenarios/fig6.cfg"
SETUP_RUNS = 21
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import fiberqed.cli
fiberqed.cli.parse_scenario(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""


def setup_probe():
    """Seconds a fresh interpreter takes to import fiberqed.cli and parse a config."""
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, SETUP_CONFIG],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
    return float(proc.stdout)


def run_pass(ops, out_dir):
    """Run every op once, back to back; returns (seconds, [(op, files, stdout, error)])."""
    done = []
    start = time.perf_counter()
    for op in ops:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                files = cli.run_scenario(op["config"], out_dir=out_dir)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            done.append((op, [], "", f"{op['config']}: {type(exc).__name__}: {exc}"))
        else:
            done.append((op, files, buf.getvalue(), None))
    return time.perf_counter() - start, done


def check_pass(done, checker):
    """(ops failed, problems) of one pass; each op writes files of its own."""
    failed, problems = 0, []
    for op, files, text, error in done:
        found = [error] if error else checker.check(op, files, text)
        failed += bool(found)
        problems += found
    return failed, problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("ops")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", help="trace the run and write the spans to this file")
    args = ap.parse_args(argv)

    ops = json.loads(Path(args.ops).read_text())
    checker = Checker(np.random.default_rng(args.seed))
    tracer = Tracer() if args.spans else None

    # the first pass (and probe) warm caches and lazy imports; checked, not timed
    failed, problems = check_pass(run_pass(ops, args.out)[1], checker)
    attempted = len(ops)
    probes = None if tracer else []
    if probes is not None:
        setup_probe()  # also writes the bytecode cache
    walls, traced_walls, layers, spans = [], [], [], []
    measured = 0.0  # seconds of passes and checks; set-up probes come on top
    n = 0
    while measured < args.seconds or n < 2:
        begin = time.monotonic()
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, done = run_pass(ops, args.out)
        finally:
            if traced:
                tracer.uninstall()
        bad, found = check_pass(done, checker)
        attempted += len(ops)
        failed += bad
        problems += found
        if traced:
            pass_spans, facts, read = tracer.take()
            layers.append(pass_metrics(pass_spans, facts, read, wall))
            spans += pass_spans
            traced_walls.append(wall)
        else:
            walls.append(wall)
        n += 1
        measured += time.monotonic() - begin
        if probes is not None and len(probes) < SETUP_RUNS * measured / args.seconds:
            probes.append(setup_probe())
    while probes is not None and len(probes) < SETUP_RUNS:
        probes.append(setup_probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "walls": walls,
        "points_per_pass": sum(op["points"] for op in ops),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "max_dev": dict(checker.max_dev),
        "peak_rss_mb": peak_rss_mb,
    }
    if probes is not None:
        result["setup_s"] = statistics.median(probes)
    else:
        result["traced_walls"] = traced_walls
        result["layers"] = {
            name: [statistics.median(p[name][0] for p in layers), layers[0][name][1]]
            for name in layers[0]
        }
        Path(args.spans).write_text(json.dumps(
            {"fields": ["id", "parent", "op", "name", "thread", "start", "end", "cpu"],
             "spans": spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
