"""Exact analysis of the shuffle walk on an enumerated space.

The "graph of graphs": states are the hypergraphs of a space (stub-labeled
sets of linked stubs, or vertex-labeled canonical classes), edges carry the
one-step transition probability.  Matrix entries are exact rationals, held
as integer numerators over one common denominator per chain; the binomials
involved at desk scale are tiny, and regularity is an exact symmetry claim,
so no tolerance is acceptable there.  Floating point enters only for
stationary vectors and total-variation curves.

Every row accumulates mass per (arc pair, stub-level repartition): a
repartition contributes ``C(|A|,2)^-1 C(ta+tb,ta)^-1 C(ha+hb,ha)^-1`` to its
target, with rejected targets folded onto the diagonal.  Every builder adds
integer shares over one denominator that the arc sizes fix before its first
row: :func:`_stub_denominator` on stub states, and ``2 m!`` times it on
vertex-labeled rows, which acceptance probabilities ``num/den`` also thin
(:func:`_thinned_row`).  :class:`ChainGraph` checks the row sums and
reduces to the least denominator once.  The enumerated state list is the
space: each move looks its target up there once, and only a target outside
it gets a feature verdict (memoised per vertex projection), which must
refuse it, or the build raises.  The checks compare integers;
:attr:`ChainGraph.rows` gives the entries as ``Fraction`` dicts.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import comb, factorial, gcd, lcm
from typing import TYPE_CHECKING, Sequence

from .enumeration import (
    STATE_LIMIT,
    ProjectedState,
    Stub,
    StubArc,
    StubState,
    _allowed,
    _parts,
    _project,
    _vertices,
    enumerate_stub_space,
    enumerate_vertex_space,
)
from .hypergraph import (
    DegreeSequence,
    DirectedHypergraph,
    Hyperarc,
    Multiset,
    SpaceSpec,
    _Record,
    _canonical_bytes,
    canonical_form,
    multiset,
)
from .shuffle import _alpha_terms, _split_weight

if TYPE_CHECKING:
    import numpy as np

# Power iteration stops at this sup-norm change, or fails after the cap.
POWER_TOL = 1e-12
POWER_MAX_ITER = 1_000_000

Row = dict[int, Fraction]
# Integer numerators of one row, keyed by column; zero entries are not stored.
IntRow = dict[int, int]


class StateSpaceLimitError(ValueError):
    """Enumerated space is larger than the analysis guard allows."""


class ChainGraph:
    """Enumerated state space with its exact transition matrix.

    Entry ``(i, j)`` is ``numerators[i][j] / denominator``, and the
    denominator is the least common one: its gcd with every numerator is 1.
    ``rows`` are nonnegative integer numerators over ``denominator``; each
    must sum to it, or the constructor raises ``AssertionError``.  Zero
    entries are dropped, so every stored numerator is positive.
    """

    def __init__(
        self,
        states: list,  # StubState in stub mode, DirectedHypergraph in vertex mode
        keys: list[bytes],  # canonical key per state, defines the ordering
        rows: Sequence[IntRow],
        denominator: int,
    ) -> None:
        for i, row in enumerate(rows):
            if min(row.values(), default=0) < 0:
                j = next(j for j, p in row.items() if p < 0)
                raise AssertionError(f"row {i} has a negative entry in column {j}")
            if sum(row.values()) != denominator:
                raise AssertionError(
                    f"row {i} sums to {Fraction(sum(row.values()), denominator)}, not 1"
                )
        common = gcd(denominator, *(p for row in rows for p in row.values()))
        self.states = states
        self.keys = keys
        self.numerators = [{j: p // common for j, p in r.items() if p} for r in rows]
        self.denominator = denominator // common

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def rows(self) -> list[Row]:
        """The entries as ``Fraction`` dicts, one shared per distinct numerator."""
        values = {p for row in self.numerators for p in row.values()}
        shared = {p: Fraction(p, self.denominator) for p in values}
        return [{j: shared[p] for j, p in row.items()} for row in self.numerators]

    def to_dense(self) -> np.ndarray:
        import numpy as np

        P = np.zeros((self.n_states, self.n_states))
        den = self.denominator
        for i, row in enumerate(self.numerators):
            for j, p in row.items():
                P[i, j] = p / den  # correctly rounded, as float(Fraction(p, den))
        return P


def _stub_denominator(d: DegreeSequence) -> int:
    """A common denominator of every stub-level repartition's probability.

    A pair of slots of sizes ``(ta, ha)`` and ``(tb, hb)`` proposes each of
    its repartitions with probability ``1 / (C(m,2) C(ta+tb,ta)
    C(ha+hb,ha))``, and the slot sizes of every state are ``d``'s.
    """
    per_pair = {
        comb(ta + tb, ta) * comb(ha + hb, ha)
        for (ta, ha), (tb, hb) in combinations(d.arc_degrees, 2)
    }
    return max(comb(d.n_arcs, 2), 1) * lcm(*per_pair)


def build_stub_chain(
    d: DegreeSequence, spec: SpaceSpec, limit: int = STATE_LIMIT
) -> ChainGraph:
    """Exact transition matrix of the shuffle walk on the stub-labeled space.

    Shuffling arcs ``i < j`` keeps the state's other arcs, ``others``.  Every
    stub sits in every state, so the pools are the stubs missing from
    ``others`` and the slot sizes are ``d``'s arc degrees less theirs: every
    state holding ``others`` deals the same pools into the same sizes, at
    most in swapped slot order, which pairs the deals one to one.  So the
    targets, their multiplicities, the rejected count and the share are
    the block's, listed once per build as ``(moves, stay)``.  A target
    other than the state differs from it in both arcs of one pair (``m - 1``
    arcs fix the last), so a row merges its blocks' ``moves`` and sums
    their mass on its own diagonal, ``stay`` included; the
    :class:`ChainGraph` constructor would see lost mass.  Symmetry is not
    built in: :func:`check_regular` tests it.
    """
    states = enumerate_stub_space(d, spec)
    if len(states) > limit:
        raise StateSpaceLimitError(f"{len(states)} states exceed the cap {limit}")
    index = {s: k for k, s in enumerate(states)}
    verdicts: dict[ProjectedState, bool] = {}
    splits: dict[tuple, list[Split]] = {}
    denominator = _stub_denominator(d)
    npairs = comb(d.n_arcs, 2)

    def block(a: StubArc, b: StubArc, others: StubState) -> tuple[IntRow, int]:
        # Each repartition adds one share to its target; a rejection stays.
        tails = _memo_splits(a[0], b[0], splits)
        heads = _memo_splits(a[1], b[1], splits)
        share = denominator // (npairs * len(tails) * len(heads))
        arcs = [*others, a, b]
        others_v = [_project(x) for x in others]
        moves: IntRow = {}
        stay = 0
        for (ti, tj, ti_v, tj_v), (hi, hj, hi_v, hj_v) in product(tails, heads):
            arcs[-2:] = (ti, hi), (tj, hj)
            target = index.get(tuple(sorted(arcs)))
            if target is None:
                _check_outside([*others_v, (ti_v, hi_v), (tj_v, hj_v)], spec, verdicts)
                stay += share
            else:
                moves[target] = moves.get(target, 0) + share
        return moves, stay

    blocks: dict[StubState, tuple[IntRow, int]] = {}
    rows: list[IntRow] = []
    for self_idx, state in enumerate(states):
        row: IntRow = {}
        diagonal = 0 if len(state) > 1 else denominator
        for i, j in combinations(range(len(state)), 2):
            others = state[:i] + state[i + 1 : j] + state[j + 1 :]
            moves_stay = blocks.get(others)
            if moves_stay is None:
                moves_stay = blocks[others] = block(state[i], state[j], others)
            moves, stay = moves_stay
            row.update(moves)
            diagonal += moves.get(self_idx, 0) + stay
        row[self_idx] = diagonal
        rows.append(row)
    keys = [repr(s).encode("ascii") for s in states]
    return ChainGraph(list(states), keys, rows, denominator)


# A split of a pooled side: (stubs to arc i, stubs to arc j, and their vertices).
Split = tuple[tuple[Stub, ...], tuple[Stub, ...], Multiset, Multiset]


def _memo_splits(
    part_i: tuple[Stub, ...], part_j: tuple[Stub, ...], memo: dict[tuple, list[Split]]
) -> list[Split]:
    # Keyed by the two parts, not the sorted pool, to skip the sort on a hit.
    # Tails and heads share the memo: equal parts have equal splits.
    splits = memo.get((part_i, part_j))
    if splits is None:
        pool = tuple(sorted(part_i + part_j))
        splits = memo[part_i, part_j] = [
            (a, b, _vertices(a), _vertices(b)) for a, b in _parts(pool, len(part_i))
        ]
    return splits


def build_vertex_chain(
    d: DegreeSequence, spec: SpaceSpec, limit: int = STATE_LIMIT
) -> ChainGraph:
    """Exact vertex-labeled chain, built directly on canonical classes.

    Repartitions are enumerated at the multiset level, each weighted by the
    number of stub-level splits realizing it, and thinned by
    :func:`_thinned_row`.
    """
    spec = _as_vertex(spec)
    states = enumerate_vertex_space(d, spec)
    if len(states) > limit:
        raise StateSpaceLimitError(f"{len(states)} states exceed the cap {limit}")
    class_of = {H.arcs: k for k, H in enumerate(states)}
    verdicts: dict[ProjectedState, bool] = {}
    memo: dict[tuple, list] = {}
    denominator = 2 * factorial(d.n_arcs) * _stub_denominator(d)
    rows = []
    for k, H in enumerate(states):
        pairs = _class_outcomes(H.arcs, memo)
        moves = _class_moves(H.arcs, pairs, class_of, spec, verdicts)
        rows.append(_thinned_row(k, H.arcs, moves, denominator))
    keys = [canonical_form(H) for H in states]
    return ChainGraph(states, keys, rows, denominator)


def _as_vertex(spec: SpaceSpec) -> SpaceSpec:
    return SpaceSpec(spec.allow_self_loops, spec.allow_degenerate, spec.allow_multi, "vertex")


def _class_outcomes(arcs: Sequence[Hyperarc], memo: dict[tuple, list]):
    """Yield ``(i, j, denom, outcomes)`` per arc pair of a class.

    ``outcomes`` lists each vertex-level repartition ``(arc_a, arc_b)`` with
    its number of stub-level splits; each split is proposed with
    probability ``1/denom``.  ``memo`` keeps each ``(pool, k)``'s
    :func:`_multiset_splits` over one build: the same pools recur across
    classes.
    """
    m = len(arcs)
    npairs = comb(m, 2)
    for i, j in combinations(range(m), 2):
        (tail_i, head_i), (tail_j, head_j) = arcs[i], arcs[j]
        pool_t, pool_h = multiset(tail_i + tail_j), multiset(head_i + head_j)
        denom = (npairs * comb(len(pool_t), len(tail_i))
                 * comb(len(pool_h), len(head_i)))
        for key in ((pool_t, len(tail_i)), (pool_h, len(head_i))):
            if key not in memo:
                memo[key] = list(_multiset_splits(*key))
        tails, heads = memo[pool_t, len(tail_i)], memo[pool_h, len(head_i)]
        outcomes = [(((ta, ha), (tb, hb)), w_t * w_h)
                    for ta, tb, w_t in tails for ha, hb, w_h in heads]
        yield i, j, denom, outcomes


def _class_moves(
    arcs: Sequence[Hyperarc],
    pairs,
    class_of: dict[ProjectedState, int],
    spec: SpaceSpec,
    verdicts: dict[ProjectedState, bool],
):
    """Yield ``(i, j, denom, arc_a, arc_b, w, target)`` per move of a class.

    ``arcs`` are the state's vertex-level arcs in slot order; ``pairs``
    yields ``(i, j, denom, outcomes)`` as :func:`_class_outcomes` does.
    ``target`` is the index that ``class_of`` gives the sorted target arcs,
    or None for a target outside the space: ``class_of`` holds every
    allowed class, so the feature verdict is taken only on a miss, where
    an allowed target raises.
    """
    target_proj = list(arcs)
    for i, j, denom, outcomes in pairs:
        for (arc_a, arc_b), w in outcomes:
            target_proj[i], target_proj[j] = arc_a, arc_b
            target = class_of.get(tuple(sorted(target_proj)))
            if target is None:
                _check_outside(target_proj, spec, verdicts)
            yield i, j, denom, arc_a, arc_b, w, target
        target_proj[i], target_proj[j] = arcs[i], arcs[j]


def _check_outside(
    projection: list[Hyperarc], spec: SpaceSpec, verdicts: dict[ProjectedState, bool]
) -> None:
    """Raise if the space allows a target that its state list lacks."""
    if _allowed(projection, spec, verdicts):
        raise AssertionError("one-shuffle target missing from enumerated space")


def _thinned_row(src: int, arcs: Sequence[Hyperarc], moves, denominator: int) -> IntRow:
    """The vertex-labeled row of class ``src`` from one listing of its moves.

    ``arcs`` are the state's vertex-level arcs in slot order; ``moves``
    yields ``(i, j, denom, arc_a, arc_b, w, target)`` as
    :func:`_class_moves` does.  Alpha thins every proposal; the refused
    share stays on the diagonal, and so does the accepted share of a move
    whose target is None, outside the space.

    Every share is an integer over ``denominator``, ``2 m! S`` with ``S``
    the :func:`_stub_denominator`.  An outcome of ``w`` stub-level splits
    moves ``w num / (denom den)``, and alpha's ``den`` is ``pair_count *
    swap_forms * w``, so it moves ``num / (denom pair_count swap_forms)``:
    ``denom`` divides ``S``, ``pair_count`` (``m_a m_b`` with ``m_a + m_b
    <= m``, or ``C(m_a, 2)``) divides ``m!`` and ``swap_forms`` is 1 or 2.
    A remainder means a wrong ``w`` and raises: a floor would move mass
    between target and diagonal unseen by any row sum.
    """
    row: Counter[int] = Counter()
    if len(arcs) < 2:
        row[src] = denominator
    for i, j, denom, arc_a, arc_b, w, target in moves:
        a, b = arcs[i], arcs[j]
        # w recounted independently, so a wrong w leaves a remainder.
        weight = (_split_weight(arc_a[0], arc_b[0])
                  * _split_weight(arc_a[1], arc_b[1]))
        num, den = _alpha_terms(a, b, arc_a, arc_b, weight, arcs.count)
        moved, rem = divmod(denominator * w * num, denom * den)
        if rem:
            raise AssertionError("thinned share is not an integer over the chain")
        row[src] += denominator // denom * w - moved
        row[src if target is None else target] += moved
    return row


def class_components(
    d: DegreeSequence, spec: SpaceSpec
) -> tuple[list[DirectedHypergraph], list[list[int]]]:
    """The classes of a space and the components of the walk on them.

    Connectivity needs only the support of the chain, so no entry is
    computed: each class's moves are listed once by :func:`_class_moves`
    and every target in the space is joined to its source.  These
    components are those of the stub-labeled walk, read through the
    projection to classes:

    - a shuffle of two arcs that only trades two stubs of one vertex between
      them leaves the projection, and so the feature verdict, unchanged;
    - such trades connect every stub state of a class;
    - every move can be reversed, by shuffling the same two arcs back.

    So the stub chain's strongly connected components map one to one onto
    these components, and vertex-labeled chains share that support because
    alpha > 0.  Returns the classes in :func:`enumerate_vertex_space` order
    and their partition: each component sorted, components ordered by
    smallest member, as in :func:`check_strongly_connected`.
    """
    classes = enumerate_vertex_space(d, spec)
    class_of = {H.arcs: k for k, H in enumerate(classes)}
    parent = list(range(len(classes)))

    def root(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    verdicts: dict[ProjectedState, bool] = {}
    memo: dict[tuple, list] = {}
    for src, H in enumerate(classes):
        pairs = _class_outcomes(H.arcs, memo)
        for *_, target in _class_moves(H.arcs, pairs, class_of, spec, verdicts):
            if target is not None:
                parent[root(target)] = root(src)
    components: defaultdict[int, list[int]] = defaultdict(list)
    for k in range(len(classes)):
        components[root(k)].append(k)
    return classes, sorted(components.values())


def _multiset_splits(pool: tuple[int, ...], k: int):
    """Splits of a pooled multiset into sizes (k, rest) at the vertex level.

    Yields (part_a, part_b, weight) where weight is the number of
    stub-level token splits realizing the pair, i.e. the product over
    vertices of C(pool_count, part_a_count).  Part a's counts run in
    lexicographic order, vertex by vertex.
    """
    counts = Counter(pool)  # the pool is sorted, so its vertices ascend
    for takes in product(*(range(c + 1) for c in counts.values())):
        if sum(takes) != k:
            continue
        part_a: list[int] = []
        part_b: list[int] = []
        weight = 1
        for (v, c), t in zip(counts.items(), takes):
            part_a += [v] * t
            part_b += [v] * (c - t)
            weight *= comb(c, t)
        yield tuple(part_a), tuple(part_b), weight


def build_vertex_chain_lumped(
    d: DegreeSequence, spec: SpaceSpec, limit: int = STATE_LIMIT
) -> ChainGraph:
    """Vertex-labeled chain obtained by collapsing the stub-labeled walk.

    Independent construction route: build the alpha-thinned walk on stub
    states, then merge states with equal vertex projections.  Merging is
    only sound if every stub state of a class produces the same collapsed
    row; that is asserted exactly, and the result is comparable entry by
    entry with :func:`build_vertex_chain`.  ``limit`` caps the stub states
    enumerated, not the classes the chain keeps.

    A row is built once per slot order, the projection of a stub state in
    its own arc order.  :func:`_stub_outcomes` sees a state only through
    it: :func:`_memo_splits` sorts a pool by vertex first and
    :func:`_parts` deals by position, so the projected parts, and the
    order they come in, follow from the slot order alone.  Stub states
    sharing one therefore share the row, entries and their order alike;
    the assertion compares the different slot orders of each class.
    """
    spec = _as_vertex(spec)
    stub_states = enumerate_stub_space(d, spec)
    if len(stub_states) > limit:
        raise StateSpaceLimitError(
            f"{len(stub_states)} stub states exceed the cap {limit}"
        )

    n = d.n_vertices
    # Alpha reads arcs i and j by position, so each row gets the projection
    # in the stub state's arc order; the class is its sorted arcs.
    slot_orders = [tuple(map(_project, s)) for s in stub_states]
    projections = [tuple(sorted(order)) for order in slot_orders]
    classes = sorted(set(projections), key=lambda arcs: _canonical_bytes(n, arcs))
    class_of = {arcs: k for k, arcs in enumerate(classes)}
    verdicts: dict[ProjectedState, bool] = {}

    lumped_rows: dict[int, IntRow] = {}
    order_rows: dict[ProjectedState, IntRow] = {}
    splits: dict[tuple, list[Split]] = {}
    denominator = 2 * factorial(d.n_arcs) * _stub_denominator(d)
    for state, order, arcs in zip(stub_states, slot_orders, projections):
        src = class_of[arcs]
        row = order_rows.get(order)
        if row is None:
            moves = _class_moves(
                order, _stub_outcomes(state, splits), class_of, spec, verdicts
            )
            row = order_rows[order] = _thinned_row(src, order, moves, denominator)
            if src in lumped_rows and lumped_rows[src] != row:
                raise AssertionError(
                    "stub states of one class produced different collapsed rows"
                )
        lumped_rows[src] = row

    states = [DirectedHypergraph(n, arcs) for arcs in classes]
    keys = [_canonical_bytes(n, arcs) for arcs in classes]
    rows = [lumped_rows[k] for k in range(len(classes))]
    return ChainGraph(states, keys, rows, denominator)


def _stub_outcomes(state: StubState, splits: dict[tuple, list[Split]]):
    """:func:`_class_outcomes` of a stub state, from its stub-level splits.

    Every pairing of a tail split with a head split is one stub-level
    repartition of arcs i and j, proposed with probability ``1/denom``.
    Repartitions with one vertex-level outcome share its alpha, target
    class and feature verdict, so they are counted as one.
    """
    npairs = comb(len(state), 2)
    for i, j in combinations(range(len(state)), 2):
        (tail_i, head_i), (tail_j, head_j) = state[i], state[j]
        tail_splits = _memo_splits(tail_i, tail_j, splits)
        head_splits = _memo_splits(head_i, head_j, splits)
        denom = npairs * len(tail_splits) * len(head_splits)
        outcomes: Counter[tuple[Hyperarc, Hyperarc]] = Counter(
            ((ti_v, hi_v), (tj_v, hj_v))
            for (_, _, ti_v, tj_v), (_, _, hi_v, hj_v) in product(
                tail_splits, head_splits
            )
        )
        yield i, j, denom, outcomes.items()


def check_regular(g: ChainGraph) -> tuple[bool, tuple[int, int] | None]:
    """Exact symmetry of the matrix; returns a witness entry on failure.

    Scanning every stored entry covers missing mirrors too: a nonzero
    P[j][i] with zero P[i][j] is caught while scanning row j.
    """
    rows = g.numerators
    for i, row in enumerate(rows):
        for j, p in row.items():
            if rows[j].get(i, 0) != p:
                return False, (i, j)
    return True, None


def check_doubly_stochastic(g: ChainGraph) -> tuple[bool, int | None]:
    """Columns all sum to exactly 1 (rows always do); else a witness column."""
    totals = [0] * g.n_states
    for row in g.numerators:
        for j, p in row.items():
            totals[j] += p
    for j, total in enumerate(totals):
        if total != g.denominator:
            return False, j
    return True, None


def check_aperiodic(g: ChainGraph) -> bool:
    """Positive diagonal everywhere (identity shuffle mass)."""
    return all(row.get(i, 0) > 0 for i, row in enumerate(g.numerators))


def check_strongly_connected(g: ChainGraph) -> tuple[bool, list[list[int]]]:
    """Strong connectivity over edges with positive probability.

    Every stored entry is positive (:class:`ChainGraph`), so a row's
    columns are its successors.  Returns the verdict and the partition into
    strongly connected components (each sorted, components ordered by
    smallest member).
    """
    n = g.n_states
    succ = [list(row) for row in g.numerators]
    pred: list[list[int]] = [[] for _ in range(n)]
    for i, out in enumerate(succ):
        for j in out:
            pred[j].append(i)

    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        stack = [(root, iter(succ[root]))]
        seen[root] = True
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    comp = [-1] * n
    n_comp = 0
    for root in reversed(order):
        if comp[root] != -1:
            continue
        stack2 = [root]
        comp[root] = n_comp
        while stack2:
            node = stack2.pop()
            for nxt in pred[node]:
                if comp[nxt] == -1:
                    comp[nxt] = n_comp
                    stack2.append(nxt)
        n_comp += 1

    groups: list[list[int]] = [[] for _ in range(n_comp)]
    for node, c in enumerate(comp):
        groups[c].append(node)
    groups = sorted([sorted(grp) for grp in groups], key=lambda grp: grp[0])
    return n_comp == 1, groups


class StationaryResult(_Record):
    """Either one global distribution or one per closed component."""

    __slots__ = ("pi", "components")

    def __init__(
        self,
        pi: np.ndarray | None,
        components: list[tuple[list[int], np.ndarray]] | None,
    ) -> None:
        self._fill(pi, components)

    @property
    def is_global(self) -> bool:
        return self.pi is not None


def stationary_distribution(g: ChainGraph) -> StationaryResult:
    """Solve pi P = pi by power iteration to :data:`POWER_TOL` in sup norm.

    The chains built here always have positive diagonals, so power
    iteration converges on any strongly connected piece.  A reducible
    chain gets one stationary vector per closed component instead.
    """
    import numpy as np

    connected, components = check_strongly_connected(g)
    P = g.to_dense()
    if connected:
        return StationaryResult(_power_iterate(P), None)
    per_component = []
    for members in components:
        if _component_is_closed(g, members):
            sub = P[np.ix_(members, members)]
            per_component.append((members, _power_iterate(sub)))
    return StationaryResult(None, per_component)


def _component_is_closed(g: ChainGraph, members: list[int]) -> bool:
    inside = set(members)
    return all(j in inside for i in members for j in g.numerators[i])


def _power_iterate(P: np.ndarray) -> np.ndarray:
    import numpy as np

    n = P.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(POWER_MAX_ITER):
        nxt = x @ P
        if np.max(np.abs(nxt - x)) < POWER_TOL:
            return nxt
        x = nxt
    raise RuntimeError("power iteration did not converge")


def is_exactly_uniform_stationary(g: ChainGraph) -> bool:
    """Exact test that the uniform vector solves pi P = pi.

    Uniform is stationary iff every column sums to 1; together with strong
    connectivity and aperiodicity this pins the stationary distribution to
    uniform with zero error.
    """
    return check_doubly_stochastic(g)[0]


def tv_curve(g: ChainGraph, start: int, steps: int) -> list[float]:
    """Total variation distance to uniform after t = 0..steps steps."""
    import numpy as np

    n = g.n_states
    if not 0 <= start < n:
        raise ValueError(f"start state {start} is not one of the chain's {n} states")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    P = g.to_dense()
    x = np.zeros(n)
    x[start] = 1.0
    uniform = 1.0 / n
    curve = []
    for _ in range(steps + 1):
        curve.append(0.5 * float(np.sum(np.abs(x - uniform))))
        x = x @ P
    return curve


def chain_edge_list(g: ChainGraph) -> str:
    """Plain-text export: one ``i j num/den`` line per positive entry."""
    lines = []
    den = g.denominator
    for i, row in enumerate(g.numerators):
        for j in sorted(row):
            common = gcd(row[j], den)
            lines.append(f"{i} {j} {row[j] // common}/{den // common}")
    return "\n".join(lines) + "\n"


def tv_curve_csv(curve: Sequence[float]) -> str:
    lines = ["step,tv"]
    lines += [f"{t},{value:.17g}" for t, value in enumerate(curve)]
    return "\n".join(lines) + "\n"

