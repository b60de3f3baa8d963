"""Statistical acceptance tests, the bipartite cross-check, the digraph search.

The chi-square harness compares sampled canonical forms against the
enumerated space: in stub mode the expected counts are proportional to each
class's stub realization count (the pushforward of the uniform stub
distribution), in vertex mode they are flat over classes.  Thresholds
(p > 0.01 to pass, p < 1e-4 for negative controls) are artifact choices and
are recorded in every report.  :func:`find_digraph_disconnection` searches
small digraph degree sequences for a disconnected walk; it is the one
function here that reads exact chains, and it imports :mod:`.chains`
itself.  ``reproduce thm3``, the failure catalogue, prints what it finds.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .enumeration import count_stub_realizations, enumerate_vertex_space
from .hypergraph import DegreeSequence, DirectedHypergraph, SpaceSpec, canonical_form

PASS_P = 0.01
FAIL_P = 1e-4
MIN_EXPECTED = 5.0


class SampleOutsideSpaceError(AssertionError):
    """A sample fell outside the enumerated space: that is a kernel bug."""


@dataclass
class UniformityReport:
    statistic: float
    p_value: float
    dof: int
    histogram: dict[str, int]
    pooled_cells: int
    verdict: str

    def to_json(self, **context) -> str:
        payload = dict(context)
        payload.update(
            {
                "histogram": self.histogram,
                "chi2": self.statistic,
                "p": self.p_value,
                "dof": self.dof,
                "pooled_cells": self.pooled_cells,
                "verdict": self.verdict,
                "thresholds": {"pass_p": PASS_P, "negative_control_p": FAIL_P},
            }
        )
        return json.dumps(payload, indent=2, sort_keys=True)


def uniformity_test(
    samples: Counter[bytes] | list[bytes],
    space: list[bytes],
    weights: list[int] | None = None,
) -> UniformityReport:
    """Pearson chi-square of sampled canonical forms against the space.

    ``weights`` gives expected counts proportional to the weight per state
    (stub realization counts for a stub-mode pushforward test); the default
    is flat.  Cells whose expected count falls below :data:`MIN_EXPECTED` are
    pooled into one bucket, the standard validity fix.

    The statistic and p-value are those of ``scipy.stats.chisquare``, from
    the same float64 operations and the same ``chdtrc`` survival function;
    numpy and ``scipy.special`` are imported only once a test can run, so
    importing the package loads neither.
    """
    counts = Counter(samples) if not isinstance(samples, Counter) else samples
    index = set(space)
    for key in counts:
        if key not in index:
            raise SampleOutsideSpaceError(
                f"sampled state not in the enumerated space: {key!r}"
            )
    n = sum(counts.values())
    if weights is None:
        weights = [1] * len(space)
    total_w = sum(weights)
    observed = [counts.get(key, 0) for key in space]
    expected = [n * w / total_w for w in weights]

    pooled_obs, pooled_exp = [], []
    spill_obs = spill_exp = 0.0
    for o, e in zip(observed, expected):
        if e < MIN_EXPECTED:
            spill_obs += o
            spill_exp += e
        else:
            pooled_obs.append(o)
            pooled_exp.append(e)
    pooled = 0
    if spill_exp > 0:
        pooled = len(observed) - len(pooled_obs)
        pooled_obs.append(spill_obs)
        pooled_exp.append(spill_exp)
    if len(pooled_obs) < 2:
        raise ValueError("not enough cells with adequate expected counts")

    import numpy as np
    from scipy.special import chdtrc

    obs = np.asarray(pooled_obs, dtype=np.float64)
    exp = np.asarray(pooled_exp, dtype=np.float64)
    dof = len(pooled_obs) - 1
    stat = ((obs - exp) ** 2 / exp).sum()
    p = chdtrc(float(dof), stat)
    histogram = {
        key.decode("ascii"): counts.get(key, 0) for key in space
    }
    return UniformityReport(
        statistic=float(stat),
        p_value=float(p),
        dof=dof,
        histogram=histogram,
        pooled_cells=pooled,
        verdict="pass" if p > PASS_P else "fail",
    )


# ---------------------------------------------------------------------------
# Bipartite incidence mapping


@dataclass(frozen=True)
class BipartiteIncidence:
    """One side of the incidence picture: vertex nodes joined to arc nodes.

    ``arcs`` maps (vertex_node, arc_node) to a multiplicity; a multiplicity
    of 2 or more is a multi-arc in the bipartite digraph.
    """

    vertex_nodes: tuple[str, ...]
    arc_nodes: tuple[str, ...]
    arcs: tuple[tuple[tuple[str, str], int], ...]

    @property
    def has_multi_arc(self) -> bool:
        return any(count >= 2 for _, count in self.arcs)


def map_to_bipartite(H: DirectedHypergraph) -> tuple[BipartiteIncidence, BipartiteIncidence]:
    """Split H into its tail incidence digraph and head incidence digraph.

    Every hyperarc becomes one arc-node per side; vertex v sends an arc to
    arc-node a with multiplicity equal to v's multiplicity in the tail
    (resp. head).  Multi-hyperarcs map to distinct arc-nodes and therefore
    never create bipartite multi-arcs; degenerate hyperarcs always do.
    """

    def side(which: str, pick) -> BipartiteIncidence:
        vertex_nodes = tuple(
            f"u_{which}_{H.vertex_name(v)}" for v in range(H.n_vertices)
        )
        arc_nodes = tuple(f"u_{'t' if which == 'out' else 'h'}_a{k}" for k in range(H.n_arcs))
        entries = []
        for k, a in enumerate(H.arcs):
            for v in sorted(set(pick(a))):
                entries.append(
                    ((vertex_nodes[v], arc_nodes[k]), pick(a).count(v))
                )
        return BipartiteIncidence(vertex_nodes, arc_nodes, tuple(entries))

    tail_graph = side("out", lambda a: a[0])
    head_graph = side("in", lambda a: a[1])
    return tail_graph, head_graph


def check_sm_equivalence(H: DirectedHypergraph) -> bool:
    """Degenerate-freeness of H, read off the bipartite image.

    Returns True iff neither incidence digraph has a multi-arc, which holds
    iff H has no degenerate hyperarc.  The agreement of the two readings is
    a structural fact; tests cross-check it against feature classification.
    """
    tail_graph, head_graph = map_to_bipartite(H)
    return not (tail_graph.has_multi_arc or head_graph.has_multi_arc)


# ---------------------------------------------------------------------------
# Digraph edge-swap disconnections


def find_digraph_disconnection(
    features: str, max_vertices: int = 4, max_arcs: int = 4
) -> dict:
    """Search small all-(1,1) degree sequences for a disconnected chain.

    Spaces without self-loops reduce to (multi)digraph spaces when every
    arc is a single edge; the search sweeps vertex degree sequences in
    increasing size and returns the first whose walk is disconnected.
    Connectivity is decided on canonical classes (:func:`class_components`);
    ``n_states`` counts the stub states of the instance found.  Relabeling
    vertices preserves connectivity, so a sequence whose sorted ``(in,
    out)`` pairs match one already decided is skipped: the first
    disconnected sequence in sweep order is the first of its orbit.  Past
    8 arcs the instances exceed :func:`enumerate_vertex_space`'s stub
    guard, which raises ``EnumerationLimitError``.
    """
    from .chains import class_components

    if "s" in features:
        raise ValueError("the reduction argument concerns no-self-loop spaces")
    spec = SpaceSpec.from_string(features)
    decided: set[tuple[tuple[int, int], ...]] = set()
    for n in range(2, max_vertices + 1):
        for k in range(2, max_arcs + 1):
            for in_deg in _degree_vectors(n, k):
                for out_deg in _degree_vectors(n, k):
                    vertex_degrees = tuple(zip(in_deg, out_deg))
                    orbit = tuple(sorted(vertex_degrees))
                    if orbit in decided:
                        continue
                    decided.add(orbit)
                    d = DegreeSequence(
                        vertex_degrees=vertex_degrees, arc_degrees=((1, 1),) * k
                    )
                    classes, components = class_components(d, spec)
                    if len(components) > 1:
                        return {
                            "found": True,
                            "vertex_degrees": [list(p) for p in d.vertex_degrees],
                            "n_arcs": k,
                            "n_states": sum(map(count_stub_realizations, classes)),
                            "n_components": len(components),
                        }
    return {"found": False}


def _degree_vectors(n: int, total: int):
    """Every length-``n`` vector of nonnegative integers summing to ``total``.

    Vectors come in lexicographic order, zeros and any ordering allowed.
    """
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _degree_vectors(n - 1, total - first):
            yield (first,) + rest


def stub_pushforward_weights(
    d: DegreeSequence, spec: SpaceSpec
) -> tuple[list[bytes], list[int]]:
    """Canonical class keys and their stub realization counts, aligned."""
    classes = enumerate_vertex_space(d, spec)
    keys = [canonical_form(H) for H in classes]
    return keys, [count_stub_realizations(H) for H in classes]
