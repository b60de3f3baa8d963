"""Vectorized replica engine: many independent chains stepped together.

Mass experiments (10^5 chains of 10^3 steps) advance all replicas per step
with numpy, batching pairwise trades as in Carstens et al. (ESA 2018), under
the shuffle rule of :mod:`hypershuffle.shuffle`.  State is an ``(R, m)``
int64 array of arc ids, positional like ``DirectedHypergraph.arcs``, into a
per-run intern table (arc list plus arc-to-id dict), so a step's cost does
not grow with the vertex count.  Per step every replica draws, in order,
positions ``i < j`` as ``shuffle._draw_proposal`` does, a tail-split index
in ``[0, C(t_i + t_j, t_i))``, a head-split index likewise and, in vertex
mode, the thinning uniform.  One ``Generator.integers`` call draws both
split indices over a ``(2, R)`` bound array, the tail row then the head
row; numpy deals bounded integers one element at a time in C order, so
these are the integers of one call per row, and the stream is unchanged.
The bounds come from one gather in a table of split counts by the slots'
(tail size, head size) classes.  Each distinct outcome ``(id_i, id_j, tail
index, head index)`` is evaluated once and cached as ``(new_a, new_b, num,
den)``, by ``shuffle._split_at`` (the split the scalar kernel deals for the
same index, with its count of stub-level ways), ``_outcome_admissible``
(self-loop, degenerate, ``arc_a == arc_b``) and ``_alpha_outcome``
(alpha's outcome part, given the tail's ways times the head's).  Both new
arcs are interned either way; a refused outcome keeps the ids it drew, so
writing it changes nothing.  What depends on a replica's other arcs,
copies of a new arc among the ``m - 2`` that stay and alpha's pair
multiplicities, is compared per row as in ``_admissible`` and
``_alpha_terms``, and ``_alpha_rejects`` thins elementwise; a replica that
fails keeps its old ids.  Multiplicities are counted only where multi-arcs
are allowed.  Elsewhere the start repeats no arc and the copies check
writes a new arc only where the replaced ones were, so no row repeats an
id and alpha's pair count ``m_a * m_b`` is 1.  A step thus scans its rows
at most twice in every space.  Rows are read and written through their flat
view, at ``r * m + slot``.  Finals are tallied with ``np.unique`` over
sorted rows; ``_run_replicas`` returns the rows themselves, from which
``hypershuffle sample`` builds the samples.

Replicas find their outcomes one of two ways.  Where the outcome space is
small, each outcome packs into one code ``((head * T + tail) * K + id_j) *
K + id_i``, with ``T`` and ``H`` the largest tail and head split counts
and ``K`` a power of two at least the intern table's size, and a dense
table indexed by code mirrors the cache, one row per field of the cached
outcome: a step is one gather, and only the codes not yet in it (``den``
still 0) are evaluated.  The table is used while its
``K * K * T * H`` entries stay within ``_TABLE_PER_REPLICA`` per replica,
or within ``_TABLE_FLOOR`` for small runs; ``K`` doubles, re-packing the
cache, as the intern table grows past it.
Otherwise one ``np.lexsort`` groups the replicas by outcome and each group
looks the cache up; this is also the path for codes of ``2**63`` or more,
and it takes over mid-run when ``K`` outgrows the bound.  Ascending code
order is the lexsort order (head index, then tail index, then ``id_j``,
then ``id_i``), so both paths evaluate new outcomes, and intern new arcs,
in the same order, and give the same ids, rows and tallies.

When the intern table or the cache passes ``2 * R * m`` entries, the table
is compacted to the ids in use and the cache and the outcome table are
cleared, bounding memory over any number of steps; the path is then chosen
afresh.  Limits raise ``ValueError`` rather than round: a slot pair with
``2**63`` or more splits, past the int64 index draw (checked before
stepping), and in vertex mode an alpha denominator of ``2**53`` or more,
finer than the 53-bit thinning uniform (checked when drawn).

One step from a start can draw at most :func:`_outcome_count` outcomes,
``C(m, 2) * T * H``; ``hypershuffle sample`` routes here only with at
least that many samples.

Randomness comes from ``numpy.random.Generator`` (PCG64) seeded once, so a
given (start, spec, steps, replicas, seed) is reproducible bit for bit.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import TYPE_CHECKING

from .hypergraph import (
    DirectedHypergraph,
    Hyperarc,
    SpaceSpec,
    _canonical_bytes,
    _feature_ok,
    canonical_form,
)
from .shuffle import (
    _RANDOM_BITS,
    ChainConfigError,
    _alpha_outcome,
    _alpha_rejects,
    _count,
    _outcome_admissible,
    _split_at,
)

if TYPE_CHECKING:
    import numpy as np

_INDEX_LIMIT = 1 << 63
_ALPHA_DEN_LIMIT = 1 << _RANDOM_BITS
# Largest outcome table, in entries per replica, so that building or
# clearing it costs about as much as a few steps over all replicas.  Up to
# _TABLE_FLOOR entries a table is used however few the replicas: building
# one that small costs less than sorting every step (at 64 replicas on the
# worked example a run takes about two thirds of the time; README
# "Performance").
_TABLE_PER_REPLICA = 16
_TABLE_FLOOR = 4096


def sample_replicas(
    H0: DirectedHypergraph,
    spec: SpaceSpec,
    steps: int,
    replicas: int,
    seed: int,
) -> Counter[bytes]:
    """Run ``replicas`` chains of ``steps`` steps; count final canonical forms."""
    import numpy as np

    ids, arcs = _run_replicas(H0, spec, steps, replicas, seed)
    if replicas == 0:
        return Counter()
    if H0.n_arcs < 2 or steps == 0:
        return Counter({canonical_form(H0): len(ids)})
    finals, counts = np.unique(np.sort(ids, axis=1), axis=0, return_counts=True)
    return Counter(
        {
            _canonical_bytes(H0.n_vertices, [arcs[k] for k in row]): count
            for row, count in zip(finals.tolist(), counts.tolist())
        }
    )


def _run_replicas(
    H0: DirectedHypergraph,
    spec: SpaceSpec,
    steps: int,
    replicas: int,
    seed: int,
) -> tuple[np.ndarray, list[Hyperarc]]:
    """The chains of :func:`sample_replicas`, as final rows and their arc table.

    Row ``r`` of the ``(replicas, m)`` int64 array holds replica ``r``'s
    final arcs as ids into the returned list, in slot order, as
    ``run_chain`` keeps them.  With fewer than two arcs, no steps or no
    replicas, every row is the start.
    """
    import numpy as np

    steps, replicas = _count("steps", steps), _count("replicas", replicas)
    if not _feature_ok(H0.arcs, spec):
        raise ChainConfigError("start state is outside the configured space")
    m = H0.n_arcs
    arcs = list(dict.fromkeys(H0.arcs))
    index = {a: k for k, a in enumerate(arcs)}
    start = np.array([index[a] for a in H0.arcs], dtype=np.int64)
    ids = np.tile(start, (replicas, 1))
    if m < 2 or steps == 0 or replicas == 0:
        return ids, arcs

    kind, splits = _pair_splits(H0)
    tails, heads = int(splits[0].max()), int(splits[1].max())
    # Flat class-pair index: a slot pair (lo, hi) reads column kind_row[lo] + kind[hi].
    kind_row, splits = kind * splits.shape[1], splits.reshape(2, -1)
    thin = spec.labeling == "vertex"
    # Only the multi-arc check and alpha's pair multiplicities read a
    # replica's other arcs; without them every outcome is written as drawn.
    # Multiplicities are counted only where multi-arcs are allowed: the start
    # repeats no arc otherwise, and the copies check writes a new arc only
    # where the replaced ones were, so no row ever repeats an id.
    per_row = thin or not spec.allow_multi
    cache: dict[tuple[int, ...], tuple] = {}
    table: np.ndarray | None = None
    capacity = 0

    def evaluate(key) -> tuple:
        id_a, id_b, tail_index, head_index = key
        a, b = arcs[id_a], arcs[id_b]
        tail_a, tail_b, tail_ways = _split_at(sorted(a[0] + b[0]), len(a[0]), tail_index)
        head_a, head_b, head_ways = _split_at(sorted(a[1] + b[1]), len(a[1]), head_index)
        arc_a, arc_b = (tail_a, head_a), (tail_b, head_b)
        weight = tail_ways * head_ways
        num, den = _alpha_outcome(a, b, arc_a, arc_b, weight) if thin else (1, 1)
        # Intern arc_a, then arc_b: a new arc takes the next id.
        new_a = index.setdefault(arc_a, len(arcs))
        if new_a == len(arcs):
            arcs.append(arc_a)
        new_b = index.setdefault(arc_b, len(arcs))
        if new_b == len(arcs):
            arcs.append(arc_b)
        if _outcome_admissible(arc_a, arc_b, spec):
            id_a, id_b = new_a, new_b
        # A refused outcome keeps the ids it drew.  den is capped to fit
        # int64; a capped den fails the per-row limit.
        cache[key] = outcome = (id_a, id_b, num, min(den, _ALPHA_DEN_LIMIT))
        return outcome

    def pack(id_a, id_b, tail_index, head_index):
        return ((head_index * tails + tail_index) * capacity + id_b) * capacity + id_a

    def unpack(code: int) -> tuple[int, ...]:
        rest, id_a = divmod(code, capacity)
        rest, id_b = divmod(rest, capacity)
        head_index, tail_index = divmod(rest, tails)
        return id_a, id_b, tail_index, head_index

    def rebuild() -> None:
        """Size the table to the intern table and fill it from the cache.

        No table when it would pass both ``_TABLE_PER_REPLICA`` entries
        per replica and ``_TABLE_FLOOR``, or hold codes of ``2**63`` or more.
        """
        nonlocal table, capacity
        capacity = 1 << (len(arcs) - 1).bit_length()
        size = capacity * capacity * tails * heads
        table = None
        bound = max(_TABLE_PER_REPLICA * replicas, _TABLE_FLOOR)
        if size <= min(bound, _INDEX_LIMIT):
            table = np.zeros((4, size), dtype=np.int64)
            if cache:
                keys = np.array(list(cache), dtype=np.int64).T
                table[:, pack(*keys)] = np.array(list(cache.values()), dtype=np.int64).T

    def looked_up(id_a, id_b, tail_index, head_index) -> np.ndarray:
        code = pack(id_a, id_b, tail_index, head_index)
        columns = table.take(code, axis=1)
        # Every evaluated outcome has den >= 1.
        if np.count_nonzero(columns[3]) < len(code):
            new = np.unique(code[columns[3] == 0])
            table[:, new] = np.array([evaluate(unpack(c)) for c in new.tolist()]).T
            columns = table.take(code, axis=1)
            if len(arcs) > capacity:
                rebuild()
        return columns

    def lexsorted(id_a, id_b, tail_index, head_index) -> np.ndarray:
        keys = np.stack([id_a, id_b, tail_index, head_index])
        order = np.lexsort(keys)
        ordered = keys[:, order]
        first = np.ones(replicas, dtype=bool)
        first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
        group = np.empty(replicas, dtype=np.int64)
        group[order] = np.cumsum(first) - 1
        distinct = zip(*ordered[:, first].tolist())
        outcomes = [cache.get(key) or evaluate(key) for key in distinct]
        return np.array(outcomes, dtype=np.int64).T.take(group, axis=1)

    rebuild()
    rng = np.random.default_rng(seed)
    flat = ids.reshape(-1)
    row_start = np.arange(replicas) * m
    for _ in range(steps):
        i = rng.integers(0, m, replicas)
        j = rng.integers(0, m - 1, replicas)
        j += j >= i
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        # One call for both rows draws what one call per row would.
        bounds = splits.take(kind_row[lo] + kind[hi], axis=1)
        tail_index, head_index = rng.integers(0, bounds)
        u = rng.random(replicas) if thin else None
        at_a, at_b = row_start + lo, row_start + hi
        id_a, id_b = flat[at_a], flat[at_b]

        outcome = looked_up if table is not None else lexsorted
        new_a, new_b, num, den = outcome(id_a, id_b, tail_index, head_index)

        if per_row:
            accept = np.ones(replicas, dtype=bool)
            if not spec.allow_multi:
                for new in (new_a, new_b):
                    # A new arc's copies may sit only where the old arcs were.
                    copies = (ids == new[:, None]).sum(axis=1)
                    accept &= copies == (new == id_a).astype(np.int64) + (new == id_b)
            if thin:
                pair_count = 1  # without multi-arcs m_a = m_b = 1 (see per_row)
                if spec.allow_multi:
                    m_a = (ids == id_a[:, None]).sum(axis=1)
                    m_b = (ids == id_b[:, None]).sum(axis=1)
                    pair_count = np.where(id_a == id_b, m_a * (m_a - 1) // 2, m_a * m_b)
                if (pair_count > (_ALPHA_DEN_LIMIT - 1) // den).any():
                    raise ValueError(
                        f"an alpha denominator reaches 2**{_RANDOM_BITS}, "
                        "finer than the thinning draw can resolve"
                    )
                accept &= ~_alpha_rejects(u, num, pair_count * den)
            new_a, new_b = np.where(accept, new_a, id_a), np.where(accept, new_b, id_b)
        flat[at_a], flat[at_b] = new_a, new_b
        if max(len(arcs), len(cache)) > 2 * replicas * m:
            live, inverse = np.unique(ids, return_inverse=True)
            flat = inverse.reshape(-1)
            ids = flat.reshape(ids.shape)
            arcs[:] = [arcs[k] for k in live.tolist()]
            index.clear()
            index.update((a, k) for k, a in enumerate(arcs))
            cache.clear()
            rebuild()

    return ids, arcs


def _outcome_count(H0: DirectedHypergraph) -> int:
    """How many outcomes one step from ``H0`` can draw: ``C(m, 2) * T * H``.

    A step draws a pair of the ``m`` arc slots, then a tail and a head
    split; ``T`` and ``H`` are the largest tail and head split counts of two
    slots, the largest entries of :func:`_pair_splits`.  0 below two arcs.
    """
    if H0.n_arcs < 2:
        return 0
    tails = _largest_split_count([len(t) for t, _ in H0.arcs])
    heads = _largest_split_count([len(h) for _, h in H0.arcs])
    return comb(H0.n_arcs, 2) * tails * heads


def _largest_split_count(sizes: list[int]) -> int:
    """``C(s + t, s)`` for the two largest sizes: the most splits two slots pool to."""
    t, s = sorted(sizes)[-2:]
    return comb(s + t, s)


def _pair_splits(H0: DirectedHypergraph) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's size class, and the split counts of two classes' slots.

    Slots of equal (tail size, head size) share a class.  ``splits[:, a, b]``
    holds ``C(s + t, s)`` for the tail sizes ``s, t`` of classes ``a`` and
    ``b``, then the same for their head sizes: what a slot of class ``a``
    and one of class ``b`` pool to.  Pairs that no two slots make are 0, so
    ``splits[0].max()`` and ``splits[1].max()`` are the largest tail and
    head counts, :func:`_largest_split_count`.  ``ValueError`` at ``2**63``
    or more, past the int64 index draw.
    """
    import numpy as np

    sizes = [(len(t), len(h)) for t, h in H0.arcs]
    for side in zip(*sizes):
        largest = _largest_split_count(list(side))
        if largest >= _INDEX_LIMIT:
            raise ValueError(
                f"a {sum(sorted(side)[-2:])}-stub pool has {largest} splits, "
                "past the 2**63 the replica engine's index draw covers"
            )
    slots = Counter(sizes)
    classes = {size: k for k, size in enumerate(slots)}
    splits = np.zeros((2, len(classes), len(classes)), dtype=np.int64)
    for (t_a, h_a), a in classes.items():
        for (t_b, h_b), b in classes.items():
            if a != b or slots[t_a, h_a] > 1:
                splits[:, a, b] = comb(t_a + t_b, t_a), comb(h_a + h_b, h_a)
    return np.array([classes[size] for size in sizes]), splits
