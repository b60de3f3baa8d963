"""Exhaustive ground truth for tiny instances.

Three oracles: enumerate every vertex-labeled hypergraph of a degree
sequence, enumerate every stub-labeled state, and count the stub-labeled
realizations of a single hypergraph in closed form.  The closed form is
plumbing, not a claim from the literature, so it is only trusted where the
brute-force enumerator confirms it; the test suite enforces that agreement
on every instance small enough to enumerate.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import factorial
from operator import itemgetter

from .hypergraph import (
    DegreeSequence,
    DirectedHypergraph,
    Hyperarc,
    Multiset,
    SpaceSpec,
    _arc_ok,
    _canonical_bytes,
    _feature_ok,
    canonicalize,
    multiset,
)

# A stub is (vertex, slot_index); tails use out-stubs, heads use in-stubs.
Stub = tuple[int, int]
StubArc = tuple[tuple[Stub, ...], tuple[Stub, ...]]
StubState = tuple[StubArc, ...]
ProjectedState = tuple[Hyperarc, ...]  # sorted vertex projection of a state

# Size guards: total stubs for the vertex and stub enumerators, and
# states for an exact chain (``chains``).
VERTEX_STUB_LIMIT = 16
STUB_STATE_LIMIT = 12
STATE_LIMIT = 5000


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
    forced non-decreasing: slots of different sizes hold different arcs, so
    each arc multiset is reached once.  Each class is built once, with its
    arcs sorted, and the classes are returned sorted by canonical form.
    """
    _check_limit(d, limit)
    n = d.n_vertices
    out_budget = [d_out for _, d_out in d.vertex_degrees]
    in_budget = [d_in for d_in, _ in d.vertex_degrees]
    slots = sorted(d.arc_degrees, reverse=True)

    leaves: list[tuple[Hyperarc, ...]] = []
    arcs: list[Hyperarc] = []

    def extend(k: int) -> None:
        if k == len(slots):
            leaves.append(tuple(sorted(arcs)))
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
                if not _arc_ok(a, spec) or (
                    not spec.allow_multi and same_size_prev and a == arcs[-1]
                ):
                    continue
                arcs.append(a)
                extend(k + 1)
                arcs.pop()

    extend(0)
    leaves.sort(key=lambda leaf: _canonical_bytes(n, leaf))
    return [DirectedHypergraph(n, leaf) for leaf in leaves]


def stub_state_to_hypergraph(state: StubState, n_vertices: int) -> DirectedHypergraph:
    """Vertex-level projection of a stub-labeled state (the map to classes)."""
    arcs = tuple(
        (multiset(v for v, _ in tail), multiset(v for v, _ in head))
        for tail, head in state
    )
    return canonicalize(DirectedHypergraph(n_vertices, arcs))


def _vertices(stubs: tuple[Stub, ...]) -> Multiset:
    # Stubs are sorted by vertex first, so their vertices come out sorted.
    return tuple(map(itemgetter(0), stubs))


def _project(a: StubArc) -> Hyperarc:
    return _vertices(a[0]), _vertices(a[1])


def _allowed(
    projection: list[Hyperarc],
    spec: SpaceSpec,
    verdicts: dict[ProjectedState, bool],
) -> bool:
    """:func:`_feature_ok` of a state's vertex projection, memoised in ``verdicts``.

    Features of a stub-labeled state are judged on vertex labels only, so
    every state with one sorted projection shares one verdict.  The
    projection's arcs are taken as they are: stub states project onto
    sorted tails and heads of vertices in range.
    """
    key = tuple(sorted(projection))
    verdict = verdicts.get(key)
    if verdict is None:
        verdict = verdicts[key] = _feature_ok(key, spec)
    return verdict


def enumerate_stub_space(
    d: DegreeSequence, spec: SpaceSpec, limit: int = STUB_STATE_LIMIT
) -> list[StubState]:
    """All stub-labeled states with degree sequence ``d`` in the space.

    A stub-labeled state is the set of arcs written as (tail stub set,
    head stub set); assignments that induce the same arc sets are one state.
    Feature constraints are applied on the vertex projection.

    States are generated one per orbit of arc permutations, never as a
    product of assignments to be deduplicated.  The arc slots are sorted by
    (tail size, head size) and dealt in that order; inside each run of
    equal-size slots every tail must start with a larger stub than the tail
    before it, while heads are dealt freely.  Every size is at least 1, so
    the tails of a state are disjoint and nonempty and their first stubs
    are distinct: listing its arcs by size and then by first tail stub is
    the one dealing that reaches it.  Each state therefore comes out
    exactly once.  The feature verdict is taken once per vertex projection.
    """
    _check_limit(d, limit)
    verdicts: dict[ProjectedState, bool] = {}
    return sorted(
        state
        for state, projection in _stub_states(d)
        if _allowed(projection, spec, verdicts)
    )


def _stub_states(d: DegreeSequence):
    """Every stub-labeled state of ``d``, each once, features unchecked.

    Yields ``(state, projection)``, with each deal projected once.
    """
    out_stubs = tuple(
        (v, k) for v, (_, d_out) in enumerate(d.vertex_degrees) for k in range(d_out)
    )
    in_stubs = tuple(
        (v, k) for v, (d_in, _) in enumerate(d.vertex_degrees) for k in range(d_in)
    )
    slots = sorted(d.arc_degrees)
    # Inside a run of equal-size slots the tails' first stubs ascend.
    ascending = [k > 0 and slots[k - 1] == slots[k] for k in range(len(slots))]
    head_deals = [
        (heads, [_vertices(h) for h in heads])
        for heads in _deal(in_stubs, [h for _, h in slots], [False] * len(slots))
    ]
    for tails in _deal(out_stubs, [t for t, _ in slots], ascending):
        tails_v = [_vertices(t) for t in tails]
        for heads, heads_v in head_deals:
            yield tuple(sorted(zip(tails, heads))), list(zip(tails_v, heads_v))


def _deal(stubs: tuple[Stub, ...], sizes: list[int], ascending: list[bool]):
    """Deal sorted distinct stubs into parts of ``sizes``, slot by slot.

    Where ``ascending[k]`` is set, part ``k`` must start with a larger stub
    than part ``k - 1``.
    """
    parts: list[tuple[Stub, ...]] = []

    def deal(k: int, left: tuple[Stub, ...]):
        if k == len(sizes):
            yield tuple(parts)
            return
        for part, rest in _parts(left, sizes[k]):
            if ascending[k] and part[0] < parts[-1][0]:
                continue
            parts.append(part)
            yield from deal(k + 1, rest)
            parts.pop()

    yield from deal(0, stubs)


def _parts(stubs: tuple[Stub, ...], size: int):
    """``(part, rest)`` for every ``size``-subset of sorted distinct ``stubs``.

    Parts come in :func:`itertools.combinations` (lexicographic) order.
    Complementing reverses that order, so the rest of the i-th part is the
    i-th last subset of the other size.  Needs ``0 <= size <= len(stubs)``.
    """
    rests = list(combinations(stubs, len(stubs) - size))
    return zip(combinations(stubs, size), reversed(rests))


def count_stub_realizations(H: DirectedHypergraph) -> int:
    """Closed-form count of stub-labeled states projecting onto ``H``.

    Permute each vertex's in-stubs and out-stubs freely, quotient by the
    orderings of identical stubs inside each tail/head multiset, then
    quotient by permutations of identical arcs.  Validated against
    :func:`enumerate_stub_space` wherever that oracle can run.
    """
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

