"""Spans around calls into the hypershuffle package, recorded from outside.

The tracer wraps public functions at every module attribute of the package
that holds them, which is where the program looks them up (``cli.run_chain``,
``chains.acceptance_probability``, ``hypershuffle.run_chain``, ...), plus the
``DirectedHypergraph.replace_arcs`` method.  Each call records one span
(function, start, end, parent) in flat arrays kept in memory; leaving the
``with`` block puts the original functions back.  Private ``_`` functions are never wrapped,
so the trace does not depend on the package's internals.

A span's self time is its duration minus the durations of its children;
calls on one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


def _apply_outcome(counters, args, result) -> None:
    H, p, _ = args
    _, accepted = result
    if accepted:
        counters["shuffle.accepted"] += 1
        before = sorted((H.arcs[p.arc_i], H.arcs[p.arc_j]))
        after = sorted(((p.new_tail_i, p.new_head_i), (p.new_tail_j, p.new_head_j)))
        if before == after:
            counters["shuffle.noop_class"] += 1
    else:
        counters["shuffle.rejected_feature"] += 1


def _count(key: str, measure):
    def observe(counters, args, result) -> None:
        counters[key] += measure(result)
    return observe


def _entries(g) -> int:
    return sum(len(row) for row in g.rows)


# (layer, function, observer).  ``hypergraph.replace_arcs`` is the method of
# DirectedHypergraph; every other entry is a module-level function.
TARGETS = [
    ("cli", "main", None),
    ("dhg", "parse_dhg", None),
    ("dhg", "serialize_dhg", _count("dhg.serialize_dhg.bytes", lambda s: len(s.encode()))),
    ("hypergraph", "replace_arcs", None),
    ("shuffle", "propose", None),
    ("shuffle", "apply_shuffle", _apply_outcome),
    ("shuffle", "acceptance_probability", None),
    ("shuffle", "run_chain", None),
    ("replicas", "sample_replicas", None),
    ("enumeration", "enumerate_stub_space", _count("enumeration.enumerate_stub_space.states", len)),
    ("enumeration", "enumerate_vertex_space",
     _count("enumeration.enumerate_vertex_space.states", len)),
    ("enumeration", "count_stub_realizations", None),
    ("chains", "build_stub_chain", _count("chains.build_stub_chain.entries", _entries)),
    ("chains", "build_vertex_chain", _count("chains.build_vertex_chain.entries", _entries)),
    ("chains", "build_vertex_chain_lumped",
     _count("chains.build_vertex_chain_lumped.entries", _entries)),
    ("chains", "check_regular", None),
    ("chains", "check_doubly_stochastic", None),
    ("chains", "check_aperiodic", None),
    ("chains", "check_strongly_connected", None),
    ("chains", "is_exactly_uniform_stationary", None),
    ("validation", "find_digraph_disconnection", None),
    ("validation", "stub_pushforward_weights", None),
    ("validation", "uniformity_test", None),
]

# Functions called once per chain step: these get latency percentiles.
PER_STEP = ("hypergraph.replace_arcs", "shuffle.propose", "shuffle.apply_shuffle",
            "shuffle.acceptance_probability")

# A percentile is reported only when at least this many calls lie beyond it.
TAIL_SAMPLES = 10


class Tracer:
    """Install with ``with Tracer(): ...``; read ``metrics()`` afterwards."""

    def __init__(self) -> None:
        self.names = [f"{layer}.{fn}" for layer, fn, _ in TARGETS]
        self.func = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter[str] = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        import hypershuffle
        from hypershuffle.hypergraph import DirectedHypergraph

        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "hypershuffle" or name.startswith("hypershuffle.")]
        for fid, (layer, fn, observe) in enumerate(TARGETS):
            if fn == "replace_arcs":
                sites = [(DirectedHypergraph, fn)]
                original = DirectedHypergraph.__dict__[fn]
            else:
                original = getattr(getattr(hypershuffle, layer), fn)
                sites = [(mod, attr) for mod in modules
                         for attr, value in vars(mod).items() if value is original]
            wrapper = self._wrap(fid, original, observe)
            for owner, attr in sites:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fid: int, fn, observe):
        func, parent, start, end = self.func, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(end)
            func.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return wrapper

    def arrays(self):
        func = np.frombuffer(self.func, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return func, parent, dur

    def save(self, path: Path) -> None:
        """Write the spans out as ``.npz``: names, func, parent, start, end."""
        np.savez(
            path, names=np.array(self.names), func=np.frombuffer(self.func, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
        )

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-function calls, self time, percentiles, counters and ratios.

        ``wall_s`` is the traced repeat's wall time; what no root span
        covers is reported as ``trace.unattributed_s``.
        """
        func, parent, dur = self.arrays()
        child = np.zeros(len(dur))
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        self_time = dur - child

        out: dict[str, float] = {}
        for fid, name in enumerate(self.names):
            mine = func == fid
            calls = int(mine.sum())
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = float(self_time[mine].sum())
            if name in PER_STEP or name == "shuffle.run_chain":
                out[f"{name}.p50_us"] = float(np.median(dur[mine]) * 1e6) if calls else 0.0
            if name in PER_STEP:
                enough = calls * 0.01 >= TAIL_SAMPLES
                out[f"{name}.p99_us"] = (
                    float(np.percentile(dur[mine], 99) * 1e6) if enough else 0.0
                )
        for key in ("dhg.serialize_dhg.bytes", "enumeration.enumerate_stub_space.states",
                    "enumeration.enumerate_vertex_space.states",
                    "chains.build_stub_chain.entries", "chains.build_vertex_chain.entries",
                    "chains.build_vertex_chain_lumped.entries", "shuffle.accepted",
                    "shuffle.rejected_feature", "shuffle.noop_class"):
            out[key] = self.counters[key]

        # Every proposal either reaches apply_shuffle or was thinned by alpha:
        # propose and apply_shuffle are only called from shuffle.step.
        proposals = out["shuffle.propose.calls"]
        out["shuffle.rejected_alpha"] = proposals - out["shuffle.apply_shuffle.calls"]
        useful = out["shuffle.accepted"] - out["shuffle.noop_class"]
        out["shuffle.accept_ratio"] = out["shuffle.accepted"] / proposals if proposals else 0.0
        out["shuffle.useful_ratio"] = useful / proposals if proposals else 0.0

        out["trace.spans"] = len(dur)
        out["trace.unattributed_s"] = wall_s - float(dur[parent < 0].sum())
        return out
