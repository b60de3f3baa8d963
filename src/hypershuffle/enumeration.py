"""Exhaustive ground truth for tiny instances.

Three oracles: enumerate every vertex-labeled hypergraph of a degree
sequence, enumerate every stub-labeled state, and count the stub-labeled
realizations of a single hypergraph in closed form.  The closed form is
plumbing, not a claim from the literature, so it is only trusted where the
brute-force enumerator confirms it; the test suite enforces that agreement
on every instance small enough to enumerate.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

from .hypergraph import (
    DegreeSequence,
    DirectedHypergraph,
    FeatureReport,
    Hyperarc,
    Multiset,
    SpaceSpec,
    canonical_form,
    canonicalize,
    classify_features,
    multiset,
)

# A stub is (vertex, slot_index); tails use out-stubs, heads use in-stubs.
Stub = tuple[int, int]
StubArc = tuple[tuple[Stub, ...], tuple[Stub, ...]]
StubState = tuple[StubArc, ...]

VERTEX_STUB_LIMIT = 16
STUB_STATE_LIMIT = 12


class EnumerationLimitError(ValueError):
    """Instance exceeds the exhaustive-search size guard."""


def _check_limit(d: DegreeSequence, limit: int) -> None:
    if d.total_stubs > limit:
        raise EnumerationLimitError(
            f"instance has {d.total_stubs} stubs, above the limit of {limit}"
        )


def _multisets_of_size(budget: list[int], size: int, start: int = 0):
    """All multisets of ``size`` vertices drawable from per-vertex budgets."""
    if size == 0:
        yield ()
        return
    for v in range(start, len(budget)):
        if budget[v] == 0:
            continue
        take_max = min(budget[v], size)
        for take in range(1, take_max + 1):
            budget[v] -= take
            for rest in _multisets_of_size(budget, size - take, v + 1):
                yield (v,) * take + rest
            budget[v] += take


def enumerate_vertex_space(
    d: DegreeSequence, spec: SpaceSpec, limit: int = VERTEX_STUB_LIMIT
) -> list[DirectedHypergraph]:
    """All vertex-labeled hypergraphs with degree sequence ``d`` in the space.

    Arcs are assigned slot by slot in a canonical order, with same-size arcs
    forced non-decreasing to avoid permuted duplicates; results are
    deduplicated on canonical form and returned in a deterministic order.
    """
    _check_limit(d, limit)
    n = d.n_vertices
    out_budget = [d_out for _, d_out in d.vertex_degrees]
    in_budget = [d_in for d_in, _ in d.vertex_degrees]
    slots = sorted(d.arc_degrees, reverse=True)

    found: dict[bytes, DirectedHypergraph] = {}
    arcs: list[Hyperarc] = []

    def extend(k: int) -> None:
        if k == len(slots):
            H = DirectedHypergraph(n, tuple(arcs))
            found.setdefault(canonical_form(H), canonicalize(H))
            return
        t_size, h_size = slots[k]
        same_size_prev = k > 0 and slots[k - 1] == slots[k]
        # The multiset generators keep their consumption subtracted from the
        # budgets while suspended, so nested loops see reduced budgets.
        for tail in _multisets_of_size(out_budget, t_size):
            for head in _multisets_of_size(in_budget, h_size):
                a: Hyperarc = (tail, head)
                if same_size_prev and a < arcs[-1]:
                    continue  # canonical order among equal-size slots
                if not _arc_admissible(a, arcs, same_size_prev, spec):
                    continue
                arcs.append(a)
                extend(k + 1)
                arcs.pop()

    extend(0)
    return [found[key] for key in sorted(found)]


def _arc_admissible(
    a: Hyperarc, prefix: list[Hyperarc], same_size_prev: bool, spec: SpaceSpec
) -> bool:
    tail, head = a
    if not spec.allow_self_loops:
        if spec.overlap_self_loops:
            if set(tail) & set(head):
                return False
        elif tail == head:
            return False
    if not spec.allow_degenerate and (_repeats(tail) or _repeats(head)):
        return False
    if not spec.allow_multi and same_size_prev and prefix and a == prefix[-1]:
        return False
    return True


def _repeats(ms: Multiset) -> bool:
    return any(ms[k] == ms[k + 1] for k in range(len(ms) - 1))


def _assignments(stubs: list[Stub], sizes: list[int], k: int = 0):
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


def stub_state_to_hypergraph(state: StubState, n_vertices: int) -> DirectedHypergraph:
    """Vertex-level projection of a stub-labeled state (the map to classes)."""
    arcs = tuple(
        (multiset(v for v, _ in tail), multiset(v for v, _ in head))
        for tail, head in state
    )
    return canonicalize(DirectedHypergraph(n_vertices, arcs))


def _state_features(state: StubState, n_vertices: int, spec: SpaceSpec) -> FeatureReport:
    # Features of a stub-labeled state are judged on vertex labels only.
    return classify_features(
        stub_state_to_hypergraph(state, n_vertices), spec.overlap_self_loops
    )


def enumerate_stub_space(
    d: DegreeSequence, spec: SpaceSpec, limit: int = STUB_STATE_LIMIT
) -> list[StubState]:
    """All stub-labeled states with degree sequence ``d`` in the space.

    A stub-labeled state is the set of arcs written as (tail stub set,
    head stub set); assignments that induce the same arc sets are one state.
    Feature constraints are applied on the vertex projection.
    """
    _check_limit(d, limit)
    out_stubs = [
        (v, k) for v, (_, d_out) in enumerate(d.vertex_degrees) for k in range(d_out)
    ]
    in_stubs = [
        (v, k) for v, (d_in, _) in enumerate(d.vertex_degrees) for k in range(d_in)
    ]
    t_sizes = [t for t, _ in d.arc_degrees]
    h_sizes = [h for _, h in d.arc_degrees]

    states: set[StubState] = set()
    for tails in _assignments(out_stubs, t_sizes):
        for heads in _assignments(in_stubs, h_sizes):
            arcs = tuple(
                sorted(
                    (tuple(sorted(t)), tuple(sorted(h)))
                    for t, h in zip(tails, heads)
                )
            )
            if arcs in states:
                continue
            if _state_features(arcs, d.n_vertices, spec).forbidden_by(spec):
                continue
            states.add(arcs)
    return sorted(states)


def count_stub_realizations(H: DirectedHypergraph) -> int:
    """Closed-form count of stub-labeled states projecting onto ``H``.

    Permute each vertex's in-stubs and out-stubs freely, quotient by the
    orderings of identical stubs inside each tail/head multiset, then
    quotient by permutations of identical arcs.  Validated against
    :func:`enumerate_stub_space` wherever that oracle can run.
    """
    from collections import Counter

    total = 1
    for v in range(H.n_vertices):
        d_in = sum(h.count(v) for _, h in H.arcs)
        d_out = sum(t.count(v) for t, _ in H.arcs)
        total *= factorial(d_in) * factorial(d_out)
    for tail, head in H.arcs:
        for side in (tail, head):
            for mult in Counter(side).values():
                total //= factorial(mult)
    for mult in Counter(H.arcs).values():
        total //= factorial(mult)
    return total

