"""Shared instances and independent oracles for the test suite.

The oracles here deliberately avoid the library's own computation paths:
degrees are recounted incidence by incidence, and acceptance probabilities
are checked against a brute-force enumeration of one-shuffle outcomes at
the stub level.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations

import pytest

from hypershuffle import (
    DegreeSequence,
    DirectedHypergraph,
    ShuffleProposal,
    SpaceSpec,
    canonical_form,
    classify_features,
    hypergraph,
    multiset,
    stub_state_to_hypergraph,
)

# The worked example with five arcs: a self-loop, a degenerate arc and a
# multi pair (vertices a..f mapped to 0..5).
WORKED_EXAMPLE = hypergraph(
    6,
    [
        ((0, 3), (0, 1)),
        ((3, 3), (4,)),
        ((1,), (2,)),
        ((1,), (2,)),
        ((2, 5), (2, 5)),
    ],
    labels=("a", "b", "c", "d", "e", "f"),
)

FIG_DEGREES = DegreeSequence(
    vertex_degrees=((2, 1), (0, 2), (1, 1)),
    arc_degrees=((2, 1), (1, 1), (1, 1)),
)

D1_DEGREES = DegreeSequence(
    vertex_degrees=((0, 2), (0, 2), (0, 2), (3, 0)),
    arc_degrees=((2, 1), (2, 1), (2, 1)),
)

D1_BLOCKED = hypergraph(4, [((0, 0), (3,)), ((1, 1), (3,)), ((2, 2), (3,))])
D1_SPREAD = hypergraph(4, [((0, 1), (3,)), ((0, 2), (3,)), ((1, 2), (3,))])

TWO_ARC_DISTINCT = hypergraph(4, [((0,), (2,)), ((1,), (3,))])


def recount_degrees(H: DirectedHypergraph):
    """Independent degree oracle: walk every (arc, vertex) incidence."""
    d_in = Counter()
    d_out = Counter()
    for tail, head in H.arcs:
        for v in tail:
            d_out[v] += 1
        for v in head:
            d_in[v] += 1
    vertex = tuple((d_in[v], d_out[v]) for v in range(H.n_vertices))
    arcs = tuple((len(t), len(h)) for t, h in H.arcs)
    return vertex, arcs


def random_instance(
    rng: random.Random,
    max_vertices: int = 4,
    max_arcs: int = 4,
    max_side: int = 3,
) -> DirectedHypergraph:
    """A random small hypergraph; features arbitrary."""
    n = rng.randint(2, max_vertices)
    m = rng.randint(2, max_arcs)
    arcs = []
    for _ in range(m):
        tail = [rng.randrange(n) for _ in range(rng.randint(1, max_side))]
        head = [rng.randrange(n) for _ in range(rng.randint(1, max_side))]
        arcs.append((tail, head))
    return hypergraph(n, arcs)


def stub_realization(H: DirectedHypergraph):
    """One concrete stub-labeled realization of H (stubs numbered per vertex)."""
    next_out = Counter()
    next_in = Counter()
    arcs = []
    for tail, head in H.arcs:
        t_stubs = []
        for v in tail:
            t_stubs.append((v, next_out[v]))
            next_out[v] += 1
        h_stubs = []
        for v in head:
            h_stubs.append((v, next_in[v]))
            next_in[v] += 1
        arcs.append((tuple(sorted(t_stubs)), tuple(sorted(h_stubs))))
    return arcs


def count_stub_outcomes_in_class(
    H: DirectedHypergraph, proposal: ShuffleProposal
) -> int:
    """Brute-force oracle for the acceptance probability.

    Number of distinct stub-labeled states, reachable in one shuffle from a
    fixed realization of H, whose vertex projection equals the proposal's
    target class.  The acceptance probability must be its reciprocal.
    """
    arcs = stub_realization(H)
    target_arcs = list(H.arcs)
    target_arcs[proposal.arc_i] = (proposal.new_tail_i, proposal.new_head_i)
    target_arcs[proposal.arc_j] = (proposal.new_tail_j, proposal.new_head_j)
    target_key = canonical_form(
        DirectedHypergraph(H.n_vertices, tuple(target_arcs))
    )

    outcomes = set()
    m = len(arcs)
    for i, j in combinations(range(m), 2):
        (tail_i, head_i), (tail_j, head_j) = arcs[i], arcs[j]
        pool_t = tuple(sorted(tail_i + tail_j))
        pool_h = tuple(sorted(head_i + head_j))
        for picked_t in combinations(range(len(pool_t)), len(tail_i)):
            sel_t = set(picked_t)
            for picked_h in combinations(range(len(pool_h)), len(head_i)):
                sel_h = set(picked_h)
                new_arcs = list(arcs)
                new_arcs[i] = (
                    tuple(pool_t[t] for t in picked_t),
                    tuple(pool_h[t] for t in picked_h),
                )
                new_arcs[j] = (
                    tuple(pool_t[t] for t in range(len(pool_t)) if t not in sel_t),
                    tuple(pool_h[t] for t in range(len(pool_h)) if t not in sel_h),
                )
                state = tuple(sorted(new_arcs))
                projected = DirectedHypergraph(
                    H.n_vertices,
                    tuple(
                        (multiset(v for v, _ in t), multiset(v for v, _ in h))
                        for t, h in state
                    ),
                )
                if canonical_form(projected) == target_key:
                    outcomes.add(state)
    return len(outcomes)


def _assignments(stubs, sizes, k=0):
    """Distribute distinct stubs over arc slots with fixed capacities."""
    if k == len(sizes):
        yield []
        return
    remaining = [s for s in stubs]
    for chosen in combinations(range(len(remaining)), sizes[k]):
        chosen_set = set(chosen)
        part = tuple(remaining[t] for t in chosen)
        rest = [remaining[t] for t in range(len(remaining)) if t not in chosen_set]
        for tail_rest in _assignments(rest, sizes, k + 1):
            yield [part] + tail_rest


@lru_cache(maxsize=None)
def brute_stub_states(d: DegreeSequence) -> frozenset:
    """Independent stub-state oracle, features unchecked.

    Every assignment of out-stubs to tails times every assignment of
    in-stubs to heads, deduplicated as arc sets: (k!)^2 assignments for k
    arcs of size (1, 1), against k! states.  Cached per degree sequence,
    because the product is the slow part and does not depend on the space.
    """
    out_stubs = [
        (v, k) for v, (_, d_out) in enumerate(d.vertex_degrees) for k in range(d_out)
    ]
    in_stubs = [
        (v, k) for v, (d_in, _) in enumerate(d.vertex_degrees) for k in range(d_in)
    ]
    t_sizes = [t for t, _ in d.arc_degrees]
    h_sizes = [h for _, h in d.arc_degrees]

    states = set()
    for tails in _assignments(out_stubs, t_sizes):
        for heads in _assignments(in_stubs, h_sizes):
            arcs = tuple(
                sorted(
                    (tuple(sorted(t)), tuple(sorted(h)))
                    for t, h in zip(tails, heads)
                )
            )
            states.add(arcs)
    return frozenset(states)


def brute_stub_space(d: DegreeSequence, spec: SpaceSpec) -> list:
    """Product-and-dedup stub space, filtered on the vertex projection."""
    return sorted(
        state
        for state in brute_stub_states(d)
        if not classify_features(
            stub_state_to_hypergraph(state, d.n_vertices), spec.overlap_self_loops
        ).forbidden_by(spec)
    )


@pytest.fixture
def rng():
    return random.Random(20260810)
