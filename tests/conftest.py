"""Shared instances and independent oracles for the test suite.

The oracles here deliberately avoid the library's own computation paths:
degrees are recounted incidence by incidence, acceptance probabilities
are checked against a brute-force enumeration of one-shuffle outcomes at
the stub level, transition matrices are rebuilt by adding one
``Fraction`` per (arc pair, target) instead of integer shares over one
common denominator, and targets are judged by ``classify_features``
instead of the library's feature verdict.  The chain oracles take their
states from a brute-force product of stub assignments, judged the same way,
instead of from the library's enumerators, and deal each pair's splits with
the positional ``reference_parts`` instead of ``enumeration._parts``.
``with_perturbed_entry`` makes the negative controls: a chain with one
entry's mass moved to the diagonal.
"""

from __future__ import annotations

import os
import random
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, lcm
from pathlib import Path

import pytest

import hypershuffle
from hypershuffle import (
    DegreeSequence,
    DirectedHypergraph,
    ShuffleProposal,
    SpaceSpec,
    acceptance_probability,
    canonical_form,
    canonicalize,
    classify_features,
    hypergraph,
    multiset,
    stub_state_to_hypergraph,
)
from hypershuffle.chains import ChainGraph, _as_vertex, _multiset_splits

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


def src_env() -> dict[str, str]:
    """This environment with the imported package's tree first on PYTHONPATH.

    Tests that start a fresh interpreter pass it, so that the child imports
    the same ``hypershuffle`` in a checkout that is not installed.
    """
    env = dict(os.environ)
    src = str(Path(hypershuffle.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


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
    n = d.n_vertices
    verdicts = {}
    return sorted(
        state
        for state in brute_stub_states(d)
        if not forbidden(n, stub_state_to_hypergraph(state, n).arcs, spec, verdicts)
    )


def brute_classes(d: DegreeSequence, spec: SpaceSpec):
    """``(keys, classes)``: the sorted projections of :func:`brute_stub_space`.

    Each class is a canonical hypergraph, listed once, in canonical-form order.
    """
    by_key = {}
    for state in brute_stub_space(d, spec):
        H = stub_state_to_hypergraph(state, d.n_vertices)
        by_key[canonical_form(H)] = H
    keys = sorted(by_key)
    return keys, [by_key[key] for key in keys]


def reference_parts(stubs, size):
    """Positional reference for ``enumeration._parts``.

    Every ``size``-subset of ``stubs``, picked by index in ``combinations``
    order, with its complement.
    """
    for picked in combinations(range(len(stubs)), size):
        chosen = set(picked)
        yield (
            tuple(stubs[t] for t in picked),
            tuple(stubs[t] for t in range(len(stubs)) if t not in chosen),
        )


def reference_vertices(stubs):
    """Reference for ``enumeration._vertices``: the vertex of each stub."""
    return tuple(v for v, _ in stubs)


def reference_project(a):
    """Reference for ``enumeration._project``: a stub arc's vertex arc."""
    return reference_vertices(a[0]), reference_vertices(a[1])


def _fraction_stub_transitions(arcs):
    """``(i, j, denom, tail_splits, head_splits)`` per arc pair, unmemoised."""
    m = len(arcs)
    for i, j in combinations(range(m), 2):
        (tail_i, head_i), (tail_j, head_j) = arcs[i], arcs[j]
        tail_splits, head_splits = (
            [
                (a, b, reference_vertices(a), reference_vertices(b))
                for a, b in reference_parts(pool, k)
            ]
            for pool, k in (
                (tuple(sorted(tail_i + tail_j)), len(tail_i)),
                (tuple(sorted(head_i + head_j)), len(head_i)),
            )
        )
        denom = comb(m, 2) * len(tail_splits) * len(head_splits)
        yield i, j, denom, tail_splits, head_splits


def forbidden(n: int, arcs, spec: SpaceSpec, verdicts: dict) -> bool:
    """Whether ``spec`` forbids the vertex-level ``arcs``, memoised by sorted arcs.

    Judged by ``classify_features``, not by the library's own verdict
    (``hypergraph._feature_ok``), so the oracles below check that too.
    """
    key = tuple(sorted(arcs))
    if key not in verdicts:
        report = classify_features(DirectedHypergraph(n, key))
        verdicts[key] = report.forbidden_by(spec)
    return verdicts[key]


def fraction_stub_chain(d: DegreeSequence, spec: SpaceSpec):
    """``(keys, rows)`` of the stub chain, one ``Fraction`` per (pair, target)."""
    states = brute_stub_space(d, spec)
    index = {s: k for k, s in enumerate(states)}
    verdicts = {}
    rows = []
    for self_idx, state in enumerate(states):
        arcs = list(state)
        projected = [reference_project(a) for a in state]
        target_proj = list(projected)
        row = defaultdict(Fraction)
        if len(arcs) < 2:
            row[self_idx] += 1
        for i, j, denom, tail_splits, head_splits in _fraction_stub_transitions(arcs):
            hits = Counter()
            for (ti, tj, ti_v, tj_v), (hi, hj, hi_v, hj_v) in product(
                tail_splits, head_splits
            ):
                target_proj[i], target_proj[j] = (ti_v, hi_v), (tj_v, hj_v)
                if forbidden(d.n_vertices, target_proj, spec, verdicts):
                    hits[self_idx] += 1
                    continue
                arcs[i], arcs[j] = (ti, hi), (tj, hj)
                hits[index[tuple(sorted(arcs))]] += 1
            arcs[i], arcs[j] = state[i], state[j]
            target_proj[i], target_proj[j] = projected[i], projected[j]
            for target, count in hits.items():
                row[target] += Fraction(count, denom)
        rows.append(dict(row))
    return [repr(s).encode("ascii") for s in states], rows


def fraction_vertex_chain(d: DegreeSequence, spec: SpaceSpec):
    """``(keys, rows)`` of the vertex chain on classes, in ``Fraction`` terms."""
    spec = _as_vertex(spec)
    keys, states = brute_classes(d, spec)
    index = {key: k for k, key in enumerate(keys)}
    rows = []
    for self_idx, H in enumerate(states):
        row = defaultdict(Fraction)
        arcs = list(H.arcs)
        m = len(arcs)
        if m < 2:
            rows.append({self_idx: Fraction(1)})
            continue
        for i, j in combinations(range(m), 2):
            (tail_i, head_i), (tail_j, head_j) = arcs[i], arcs[j]
            pool_t = multiset(tail_i + tail_j)
            pool_h = multiset(head_i + head_j)
            denom = (
                comb(m, 2)
                * comb(len(pool_t), len(tail_i))
                * comb(len(pool_h), len(head_i))
            )
            for ta, tb, w_t in _multiset_splits(pool_t, len(tail_i)):
                for ha, hb, w_h in _multiset_splits(pool_h, len(head_i)):
                    mass = Fraction(w_t * w_h, denom)
                    alpha = acceptance_probability(
                        H, ShuffleProposal(i, j, ta, ha, tb, hb)
                    )
                    new_arcs = list(arcs)
                    new_arcs[i] = (ta, ha)
                    new_arcs[j] = (tb, hb)
                    target = canonicalize(H.replace_arcs(new_arcs))
                    row[self_idx] += mass * (1 - alpha)
                    report = classify_features(target)
                    if not report.forbidden_by(spec):
                        row[index[canonical_form(target)]] += mass * alpha
                    else:
                        row[self_idx] += mass * alpha
        rows.append({k: v for k, v in row.items() if v})
    return keys, rows


def fraction_lumped_chain(d: DegreeSequence, spec: SpaceSpec):
    """``(keys, rows)`` of the thinned stub walk collapsed onto classes."""
    spec = _as_vertex(spec)
    n = d.n_vertices
    stub_states = brute_stub_space(d, spec)
    projections = [stub_state_to_hypergraph(s, n) for s in stub_states]
    class_keys = sorted({canonical_form(H) for H in projections})
    class_of = {H.arcs: class_keys.index(canonical_form(H)) for H in projections}
    verdicts = {}
    lumped = {}
    for state, H_proj in zip(stub_states, projections):
        row = defaultdict(Fraction)
        src = class_of[H_proj.arcs]
        projected = [reference_project(a) for a in state]
        target_proj = list(projected)
        H_at = DirectedHypergraph(n, tuple(projected))
        if len(state) < 2:
            row[src] += 1
        for i, j, denom, tail_splits, head_splits in _fraction_stub_transitions(state):
            outcomes = Counter(
                ((ti_v, hi_v), (tj_v, hj_v))
                for (_, _, ti_v, tj_v), (_, _, hi_v, hj_v) in product(
                    tail_splits, head_splits
                )
            )
            for (new_a, new_b), count in outcomes.items():
                mass = Fraction(count, denom)
                prop = ShuffleProposal(i, j, new_a[0], new_a[1], new_b[0], new_b[1])
                alpha = acceptance_probability(H_at, prop)
                row[src] += mass * (1 - alpha)
                target_proj[i], target_proj[j] = new_a, new_b
                if not forbidden(n, target_proj, spec, verdicts):
                    row[class_of[tuple(sorted(target_proj))]] += mass * alpha
                else:
                    row[src] += mass * alpha
            target_proj[i], target_proj[j] = projected[i], projected[j]
        clean = {k: v for k, v in row.items() if v}
        assert lumped.setdefault(src, clean) == clean
    return class_keys, [lumped[k] for k in range(len(class_keys))]


def with_perturbed_entry(
    g: ChainGraph, i: int, j: int, eps: Fraction
) -> ChainGraph:
    """Negative-control copy: move ``eps`` mass from P[i][j] to P[i][i].

    Keeps the row stochastic while breaking symmetry and the column sums.
    """
    n = g.n_states
    if i not in range(n) or j not in range(n):
        raise ValueError(f"entry ({i}, {j}) is not in the chain's {n} states")
    if i == j:
        raise ValueError("perturb an off-diagonal entry")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    den = lcm(g.denominator, eps.denominator)
    rows = [{k: p * (den // g.denominator) for k, p in row.items()}
            for row in g.numerators]
    shift = int(eps * den)
    if rows[i].get(j, 0) < shift:
        raise ValueError("entry too small to perturb by eps")
    rows[i][j] -= shift
    rows[i][i] = rows[i].get(i, 0) + shift
    return ChainGraph(g.states, g.keys, rows, den)


@pytest.fixture
def rng():
    return random.Random(20260810)
