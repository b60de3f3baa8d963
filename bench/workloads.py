"""The four benchmark workloads, their seeded inputs and their output checks.

Importing this module imports ``hypershuffle`` from the ``src`` directory
of the checkout it sits in (numpy and scipy come with it); the benchmark
counts that import as set-up time.  The package is only ever called through
its module attributes (``hs.run_chain``, ``cli.main``, ...), so the tracer
in ``tracer.py`` sees every call the workloads make.

Each workload has:

* ``setup(seed, workdir)``, which builds the inputs from the seed alone;
* ``parts(inputs)``, the timed calls of one repeat, in order; they look the
  package up at call time, so a tracer installed later sees them;
* ``work(inputs)``, the steps (or entries) one repeat performs;
* ``output(inputs, results)`` and ``checks(inputs, results)``, run untimed on
  the parts' results: the first turns them into bytes (compared across
  repeats and between traced and untraced repeats), the second returns
  ``(name, passed)`` pairs.
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hypershuffle as hs  # noqa: E402
import hypershuffle.cli as cli  # noqa: E402

if Path(hs.__file__).resolve().parent != ROOT / "src" / "hypershuffle":
    raise ImportError(f"hypershuffle was imported from {hs.__file__}, not from {ROOT / 'src'}")

# The repository's negative-control threshold: a correct sampler falls
# below it on one seed in 10^4, where p > 0.01 would fail one seed in 100.
FAIL_P = 1e-4


# ---------------------------------------------------------------------------
# Seeded instances


def random_instance(rng: random.Random, n: int, m: int, sizes: tuple[int, int]):
    """A hypergraph in the most restrictive space (no s, d or m features).

    Tails and heads are drawn without replacement (no degenerate arcs),
    with sizes uniform in ``sizes``; equal tail and head (self-loops) and
    repeated arcs (multi-arcs) are redrawn.
    """
    arcs: list = []
    seen: set = set()
    while len(arcs) < m:
        tail = tuple(sorted(rng.sample(range(n), rng.randint(*sizes))))
        head = tuple(sorted(rng.sample(range(n), rng.randint(*sizes))))
        if tail == head or (tail, head) in seen:
            continue
        seen.add((tail, head))
        arcs.append((tail, head))
    H = hs.hypergraph(n, arcs)
    if not hs.in_space(H, hs.SpaceSpec.from_string(""), hs.degree_sequence(H)):
        raise AssertionError("generated instance is outside the space ''")
    return H


def shape(H) -> dict:
    """Instance shape recorded with every result."""
    d = hs.degree_sequence(H)
    return {
        "n": H.n_vertices,
        "m": H.n_arcs,
        "tail_sizes": dict(sorted(Counter(len(t) for t, _ in H.arcs).items())),
        "head_sizes": dict(sorted(Counter(len(h) for _, h in H.arcs).items())),
        "total_stubs": d.total_stubs,
    }


def _rng(name: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, so the stream is stable across runs.
    return random.Random(f"{name}:{seed}")


def decode_canonical(key: bytes):
    """Inverse of ``hs.canonical_form``: ``n|t,t>h;...`` back to a hypergraph."""
    n_text, body = key.decode("ascii").split("|", 1)
    arcs = []
    for item in body.split(";") if body else []:
        tail, head = item.split(">")
        arcs.append(
            (tuple(int(v) for v in tail.split(",")), tuple(int(v) for v in head.split(",")))
        )
    return hs.hypergraph(int(n_text), arcs)


# ---------------------------------------------------------------------------
# Workloads


class SampleFig:
    """``hypershuffle sample`` in-process on the README worked example."""

    name = "sample-fig"
    why = (
        "the user's CLI path: scalar kernel at m=3 where per-step constant cost "
        "dominates, plus .dhg output and the chi-square report"
    )
    # README quickstart instance: 3 vertices, 3 arcs, 11 classes in sdm.
    ARCS = [((1, 1), (0,)), ((0,), (2,)), ((2,), (0,))]
    LABELS = ("u", "v", "x")

    def __init__(self, samples: int, steps: int):
        self.samples = samples
        self.steps = steps

    def setup(self, seed: int, workdir: Path) -> dict:
        H = hs.hypergraph(3, self.ARCS, self.LABELS)
        spec = hs.SpaceSpec.from_string("sdm")
        if not hs.in_space(H, spec, hs.degree_sequence(H)):
            raise AssertionError("worked example is outside the space sdm")
        path = workdir / "fig.dhg"
        path.write_text(hs.serialize_dhg(H), encoding="utf-8")
        H0 = hs.parse_dhg(path.read_text(encoding="utf-8"))
        out, report = workdir / "samples.dhg", workdir / "report.json"
        argv = [
            "sample", "--input", str(path), "--space", "sdm", "--labeling", "stub",
            "--steps", str(self.steps), "--samples", str(self.samples),
            "--seed", str(seed), "--out", str(out), "--report", str(report),
        ]
        return {
            "argv": argv, "H0": H0, "spec": spec, "out": out, "report": report,
            "shape": shape(H0),
        }

    def work(self, inputs) -> int:
        return self.samples * self.steps

    def parts(self, inputs) -> list:
        def sample():
            inputs["out"].unlink(missing_ok=True)
            inputs["report"].unlink(missing_ok=True)
            return cli.main(inputs["argv"])
        return [sample]

    def output(self, inputs, results) -> bytes:
        return inputs["out"].read_bytes() + b"\0" + inputs["report"].read_bytes()

    def checks(self, inputs, results) -> list[tuple[str, bool]]:
        d0 = hs.degree_sequence(inputs["H0"])
        docs = hs.split_dhg_stream(inputs["out"].read_text(encoding="utf-8"))
        samples = [hs.parse_dhg(doc) for doc in docs]
        report = json.loads(inputs["report"].read_text(encoding="utf-8"))
        return [
            ("cli exit code 0", results == [0]),
            ("sample count", len(samples) == self.samples),
            ("samples in space", all(hs.in_space(H, inputs["spec"], d0) for H in samples)),
            (f"chi-square p >= {FAIL_P}", report["p"] >= FAIL_P),
        ]


class ChainM200:
    """``run_chain`` on a seeded 100-vertex, 200-arc instance."""

    name = "chain-m200"
    why = (
        "scalar kernel at large m, where the per-step replace_arcs rebuild, "
        "the O(m) multi-arc scan and Fraction alpha dominate; no replicas or oracles"
    )

    def __init__(self, n: int, m: int, steps: int):
        self.n, self.m = n, m
        self.steps = steps

    def setup(self, seed: int, workdir: Path) -> dict:
        H0 = random_instance(_rng(self.name, seed), self.n, self.m, (1, 3))
        config = hs.ChainConfig(
            steps=self.steps, seed=seed, spec=hs.SpaceSpec.from_string("", "vertex")
        )
        return {"H0": H0, "config": config, "shape": shape(H0)}

    def work(self, inputs) -> int:
        return self.steps

    def parts(self, inputs) -> list:
        return [lambda: hs.run_chain(inputs["H0"], inputs["config"]).final]

    def output(self, inputs, results) -> bytes:
        return hs.canonical_form(results[0])

    def checks(self, inputs, results) -> list[tuple[str, bool]]:
        d0 = hs.degree_sequence(inputs["H0"])
        return [("final state in space", hs.in_space(results[0], inputs["config"].spec, d0))]


class Replicas40:
    """``sample_replicas`` on a seeded 40-vertex, 40-arc instance."""

    name = "replicas-40x40"
    why = (
        "replica engine: dense (R, m, n) matrices, per-vertex hypergeometric "
        "and per-arc loops, and the Python tally; bypasses shuffle.step"
    )

    def __init__(self, n: int, m: int, replicas: int, steps: int):
        self.n, self.m = n, m
        self.replicas, self.steps = replicas, steps

    def setup(self, seed: int, workdir: Path) -> dict:
        H0 = random_instance(_rng(self.name, seed), self.n, self.m, (1, 3))
        return {
            "H0": H0, "seed": seed,
            "spec": hs.SpaceSpec.from_string("", "vertex"), "shape": shape(H0),
        }

    def work(self, inputs) -> int:
        return self.replicas * self.steps

    def sample(self, inputs, steps: int):
        return hs.sample_replicas(
            inputs["H0"], inputs["spec"], steps, self.replicas, inputs["seed"]
        )

    def parts(self, inputs) -> list:
        return [lambda: self.sample(inputs, self.steps)]

    def output(self, inputs, results) -> bytes:
        tally = results[0]
        return b"\n".join(key + b" %d" % count for key, count in sorted(tally.items()))

    def checks(self, inputs, results) -> list[tuple[str, bool]]:
        d0 = hs.degree_sequence(inputs["H0"])
        tally = results[0]
        finals = [decode_canonical(key) for key in tally]
        return [
            ("replica count", sum(tally.values()) == self.replicas),
            ("finals in space", all(hs.in_space(H, inputs["spec"], d0) for H in finals)),
        ]


def _degrees(vertex, arcs):
    return (tuple(vertex), tuple(arcs))


# Degree sequences copied from the repository's verification batteries, so
# that growing those batteries leaves this workload unchanged.
WORKED_EXAMPLE = _degrees([(2, 1), (0, 2), (1, 1)], [(2, 1), (1, 1), (1, 1)])
THREE_TAIL_PAIRS = _degrees([(0, 2), (0, 2), (0, 2), (3, 0)], [(2, 1)] * 3)
DEGENERATE_VS_MULTI = _degrees([(0, 2), (0, 2), (2, 0)], [(2, 1), (2, 1)])
TWO_TAILS_THREE_ARCS = _degrees([(0, 2), (0, 1), (2, 0), (2, 0), (2, 0)], [(1, 2)] * 3)
TAILS_RECEIVE_TOO = _degrees([(1, 2), (1, 1), (2, 0), (2, 0)], [(1, 2)] * 3)
LOPSIDED_HEADS = _degrees([(0, 3), (0, 1), (3, 0), (3, 0), (2, 0)], [(1, 2)] * 4)

# (instance, degrees, features, expected verdicts).  Verdicts are
# (states, entries, regular, aperiodic, connected, uniform); they do not
# depend on the vertex and arc order the seed picks.
STUB_BATTERY = [
    ("worked-example", WORKED_EXAMPLE, "sdm", (36, 432, True, True, True, True)),
    ("worked-example", WORKED_EXAMPLE, "sm", (30, 312, True, True, True, True)),
    ("three-tail-pairs", THREE_TAIL_PAIRS, "sd", (54, 504, True, True, False, True)),
    ("two-tails-three-arcs", TWO_TAILS_THREE_ARCS, "s", (48, 480, True, True, True, True)),
    ("tails-receive-too", TAILS_RECEIVE_TOO, "s", (56, 648, True, True, True, True)),
]
# Verdicts are (classes, entries, routes-agree, doubly-stochastic,
# aperiodic, connected, uniform).
VERTEX_BATTERY = [
    ("worked-example", WORKED_EXAMPLE, "sdm", (11, 81, True, True, True, True, True)),
    ("degenerate-vs-multi", DEGENERATE_VS_MULTI, "sdm", (2, 4, True, True, True, True, True)),
]
DIGRAPH_EXPECTED = {
    "found": True, "vertex_degrees": [[1, 1], [1, 1], [1, 1]],
    "n_arcs": 3, "n_states": 2, "n_components": 2,
}


def _stub_verdicts(d, features: str) -> tuple:
    g = hs.build_stub_chain(d, hs.SpaceSpec.from_string(features))
    return (
        g.n_states, sum(len(row) for row in g.rows), hs.check_regular(g)[0],
        hs.check_aperiodic(g), hs.check_strongly_connected(g)[0],
        hs.is_exactly_uniform_stationary(g),
    )


def _vertex_verdicts(d, features: str) -> tuple:
    spec = hs.SpaceSpec.from_string(features, "vertex")
    direct = hs.build_vertex_chain(d, spec)
    lumped = hs.build_vertex_chain_lumped(d, spec)
    return (
        direct.n_states, sum(len(row) for row in direct.rows),
        direct.keys == lumped.keys and direct.rows == lumped.rows,
        hs.check_doubly_stochastic(direct)[0], hs.check_aperiodic(direct),
        hs.check_strongly_connected(direct)[0], hs.is_exactly_uniform_stationary(direct),
    )


class ExactVerify:
    """Exact oracles on a fixed battery, relabeled by the seed."""

    name = "exact-verify"
    why = (
        "exact oracles: stub and vertex enumeration, Fraction chain builds and "
        "their checks, and the digraph-disconnection search"
    )

    def __init__(self, stub_battery, vertex_battery, digraph_search: bool):
        self.stub_battery = stub_battery
        self.vertex_battery = vertex_battery
        self.digraph_search = digraph_search

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = _rng(self.name, seed)
        relabeled = {}
        for name, (vertex, arcs), *_ in self.stub_battery + self.vertex_battery:
            if name not in relabeled:
                vertex, arcs = list(vertex), list(arcs)
                rng.shuffle(vertex)
                rng.shuffle(arcs)
                relabeled[name] = hs.DegreeSequence(tuple(vertex), tuple(arcs))
        shapes = {
            name: {"n": d.n_vertices, "m": d.n_arcs, "arc_sizes": sorted(d.arc_degrees),
                   "total_stubs": d.total_stubs}
            for name, d in relabeled.items()
        }
        return {"degrees": relabeled, "shape": shapes}

    def work(self, inputs) -> int:
        """Exact transition entries built per repeat (fixed by the battery)."""
        return sum(v[1] for *_, v in self.stub_battery + self.vertex_battery)

    def parts(self, inputs) -> list:
        degrees = inputs["degrees"]
        parts = [lambda d=degrees[name], f=features: _stub_verdicts(d, f)
                 for name, _, features, _ in self.stub_battery]
        parts += [lambda d=degrees[name], f=features: _vertex_verdicts(d, f)
                  for name, _, features, _ in self.vertex_battery]
        if self.digraph_search:
            parts.append(lambda: hs.validation.find_digraph_disconnection(""))
        return parts

    def output(self, inputs, results) -> bytes:
        return repr(results).encode("ascii")

    def checks(self, inputs, results) -> list[tuple[str, bool]]:
        expected = [(f"stub {name} [{features}]", want)
                    for name, _, features, want in self.stub_battery]
        expected += [(f"vertex {name} [{features}]", want)
                     for name, _, features, want in self.vertex_battery]
        if self.digraph_search:
            expected.append(("digraph disconnection ['']", DIGRAPH_EXPECTED))
        return [(label, got == want) for (label, want), got in zip(expected, results)]


# ---------------------------------------------------------------------------
# Scaling sweep (traced run only)

# (label, n, m, arc sizes): how the step cost grows with m, n and arc size.
SWEEP_SCALAR = [("m3", 3, 3, (1, 3)), ("m40", 40, 40, (1, 3)), ("m200", 100, 200, (1, 3)),
                ("m40_arc6", 40, 40, (4, 6))]
SWEEP_REPLICA = [("n3", 3, 3, (1, 3)), ("n40", 40, 40, (1, 3)), ("n100", 100, 100, (1, 3)),
                 ("n40_arc6", 40, 40, (4, 6))]
# (label, degrees): stub enumeration at 9 and 12 stubs (432 states), timed
# once each; the 12-stub point is too slow for the end-to-end battery.
SWEEP_STUB_ENUM = [("stubs9", THREE_TAIL_PAIRS), ("stubs12", LOPSIDED_HEADS)]


def _fastest(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def scaling_sweep(seed: int, tiny: bool) -> dict[str, float]:
    """Per-step cost in µs, and stub enumeration time in s, by instance size.

    Step points use seeded instances in the vertex-labeled space ''.  Each
    times two public calls, at 1 step and at K steps (fastest of three
    scalar calls, of two replica calls), and divides the difference by
    K - 1; that leaves out the fixed cost of a call (start-state check,
    replica set-up and tally).
    """
    spec = hs.SpaceSpec.from_string("", "vertex")
    steps, replicas, replica_steps = (20, 10, 3) if tiny else (1000, 100, 30)
    out = {}
    for label, n, m, sizes in SWEEP_SCALAR:
        H = random_instance(_rng(f"sweep-scalar-{label}", seed), n, m, sizes)
        k = steps // 2 if m > 100 else steps
        t1, tk = (_fastest(lambda s=s: hs.run_chain(H, hs.ChainConfig(s, seed, spec)))
                  for s in (1, k))
        out[f"sweep.scalar_step_us.{label}"] = (tk - t1) / (k - 1) * 1e6
    for label, n, m, sizes in SWEEP_REPLICA:
        H = random_instance(_rng(f"sweep-replica-{label}", seed), n, m, sizes)
        t1, tk = (_fastest(lambda s=s: hs.sample_replicas(H, spec, s, replicas, seed), 2)
                  for s in (1, replica_steps))
        out[f"sweep.replica_step_us.{label}"] = (tk - t1) / ((replica_steps - 1) * replicas) * 1e6
    for label, (vertex, arcs) in SWEEP_STUB_ENUM:
        d = hs.DegreeSequence(vertex, arcs)
        t0 = time.perf_counter()
        hs.enumerate_stub_space(d, hs.SpaceSpec.from_string("s"))
        out[f"sweep.stub_enum_s.{label}"] = time.perf_counter() - t0
    return out


def make(name: str, tiny: bool = False):
    """The workload called ``name``, at full or smoke-test size."""
    if name == SampleFig.name:
        return SampleFig(samples=60, steps=30) if tiny else SampleFig(samples=200, steps=100)
    if name == ChainM200.name:
        return ChainM200(20, 20, 100) if tiny else ChainM200(100, 200, 1000)
    if name == Replicas40.name:
        return Replicas40(6, 6, 50, 10) if tiny else Replicas40(40, 40, 200, 30)
    if name == ExactVerify.name:
        if tiny:
            return ExactVerify(STUB_BATTERY[:1], VERTEX_BATTERY[:1], digraph_search=False)
        return ExactVerify(STUB_BATTERY, VERTEX_BATTERY, digraph_search=True)
    raise KeyError(name)
