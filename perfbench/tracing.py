"""Spans around the public entry points of each fiberqed layer.

The wrappers replace module attributes, so they see every call that goes
through a module-level name lookup; nothing under ``src/`` is edited.  Spans
are kept in memory as tuples and written out once at the end of a run.

Each span records wall time and the CPU time of its thread.  Sweep points
run in a thread pool, where a span's wall time also counts the time it
waited for the interpreter lock, so layer times are reported as busy (CPU)
seconds and the rest of a layer's self wall time as its wait.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter, thread_time

from fiberqed import cli, dynamics, eigen, spectra

ROOT = "cli.run_scenario"

# (module, attribute, span name); the span name's prefix is its layer.
# model runs only inside these layers and perturb is on no simulate path,
# so neither gets spans of its own.
ENTRY_POINTS = (
    (cli, "run_scenario", ROOT),
    (cli, "parse_scenario", "cli.parse_scenario"),
    (cli, "_run_point", "cli._run_point"),
    (cli, "_write_csv", "cli._write_csv"),
    (eigen, "full_decomposition", "eigen.full_decomposition"),
    (eigen, "symmetric_block", "eigen.symmetric_block"),
    (eigen, "antisymmetric_block", "eigen.antisymmetric_block"),
    (dynamics, "evolve_bare", "dynamics.evolve_bare"),
    (spectra, "channel_spectrum", "spectra.channel_spectrum"),
    (spectra, "integrated_spectrum", "spectra.integrated_spectrum"),
)
LAYERS = ("cli", "eigen", "dynamics", "spectra")


class Tracer:
    """Records (id, parent, op, name, thread, start, end, cpu) spans and call facts.

    Channel spectra are handed back with a subclass that notes when their
    arrays are read; in the CLI only the CSV writer reads them.
    """

    def __init__(self):
        self.spans = []
        self.facts = []  # (span name, args, kwargs, result), counted after the pass
        self.read = set()  # ids of spectra whose arrays were read
        self._watched = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._saved = []

    def install(self):
        for module, attr, name in ENTRY_POINTS:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name))

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _wrap(self, func, name):
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            if name == ROOT:
                self._op, parent = sid, 0
            else:
                # a pool thread starts with an empty stack: its parent is the op
                parent = stack[-1] if stack else self._op
            stack.append(sid)
            cpu = thread_time()
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                cpu = thread_time() - cpu
                stack.pop()
                self.spans.append((sid, parent, self._op, name, threading.get_ident(),
                                   start, end, cpu))
            self.facts.append((name, args, kwargs, result))
            if name == "spectra.channel_spectrum":
                result.__class__ = self._watch(type(result))
            return result

        traced.__wrapped__ = func
        return traced

    def _watch(self, cls):
        if cls not in self._watched:
            tracer = self

            class Watched(cls):
                def __getattribute__(obj, attr):
                    if attr in ("amplitude", "lorentzians", "interferences"):
                        tracer.read.add(id(obj))
                    return super().__getattribute__(attr)

            self._watched[cls] = Watched
        return self._watched[cls]

    def take(self):
        """Spans, facts and read-set of the pass so far; starts a new pass."""
        out = self.spans, self.facts, self.read
        self.spans, self.facts = [], []
        self.read = set()
        return out


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def pass_metrics(spans, facts, read, wall):
    """Per-layer metrics of one traced pass of wall seconds."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    children = defaultdict(list)
    for sid, parent, _, name, thread, start, end, cpu in spans:
        busy[name] += cpu
        calls[name] += 1
        children[parent].append((thread, start, end, cpu))
    self_s = dict.fromkeys(LAYERS, 0.0)
    wait_s = dict.fromkeys(LAYERS, 0.0)
    for sid, _, _, name, thread, start, end, cpu in spans:
        kids = children.get(sid, ())
        self_wall = (end - start) - _covered([(s, e) for _, s, e, _ in kids])
        # children in other threads spend their own thread's CPU time
        self_cpu = cpu - sum(c for t, _, _, c in kids if t == thread)
        layer = name.split(".")[0]
        self_s[layer] += self_cpu
        wait_s[layer] += self_wall - self_cpu

    write_bytes = steps = grid_points = dense = labeled = 0
    computed = []
    for name, args, kwargs, result in facts:
        if name == "cli._write_csv":
            write_bytes += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif name == "dynamics.evolve_bare":
            cfg = _arg(args, kwargs, 2, "cfg")
            steps += max(1, int(round(cfg.t_max / cfg.dt)))
        elif name == "eigen.full_decomposition":
            dense += result.basis == "bare"
            labeled += result.labels is not None
        elif name == "spectra.channel_spectrum":
            grid_points += result.omega_grid.size
            computed.append(id(result))

    decompositions = calls["eigen.full_decomposition"]
    write_s = busy["cli._write_csv"]
    evolve_s = busy["dynamics.evolve_bare"]
    point_s = busy["cli._run_point"]
    return {
        "cli.parse_s": (busy["cli.parse_scenario"], "s"),
        "cli.write_s": (write_s, "s"),
        "cli.write_bytes": (write_bytes, "bytes"),
        "cli.write_mb_per_s": (write_bytes / write_s / 1e6 if write_s else 0.0, "MB/s"),
        "cli.point_s": (point_s, "s"),
        "cli.points": (calls["cli._run_point"], "count"),
        "cli.concurrency": (point_s / wall, "ratio"),
        "eigen.decompose_s": (busy["eigen.full_decomposition"], "s"),
        "eigen.decompose_calls": (decompositions, "count"),
        "eigen.symmetric_s": (busy["eigen.symmetric_block"], "s"),
        "eigen.antisymmetric_s": (busy["eigen.antisymmetric_block"], "s"),
        "eigen.dense_calls": (dense, "count"),
        "eigen.labeled_ratio": (labeled / decompositions if decompositions else 0.0, "ratio"),
        "dynamics.evolve_s": (evolve_s, "s"),
        "dynamics.steps": (steps, "count"),
        "dynamics.steps_per_s": (steps / evolve_s if evolve_s else 0.0, "1/s"),
        "spectra.channel_s": (busy["spectra.channel_spectrum"], "s"),
        "spectra.channel_calls": (calls["spectra.channel_spectrum"], "count"),
        "spectra.grid_points": (grid_points, "count"),
        "spectra.useful_ratio": (
            sum(i in read for i in computed) / len(computed) if computed else 0.0, "ratio"),
        "spectra.integral_s": (busy["spectra.integrated_spectrum"], "s"),
        **{f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS},
        **{f"{layer}.wait_s": (wait_s[layer], "s") for layer in LAYERS},
    }
