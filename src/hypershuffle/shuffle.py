"""The double hyperarc shuffle kernel.

One step picks an unordered pair of arc positions uniformly among
``C(|A|, 2)`` choices, pools the two tails and the two heads separately,
and deals each pool back at random: the first arc slot receives a uniformly
random subset of the pooled *distinguishable* stubs of its original tail
size, the second slot the rest, and likewise for heads.  Every specific
stub-level split of a pool of ``n`` tokens into sizes ``(k, n-k)`` therefore
has probability ``1/C(n, k)``, which is what makes the stub-labeled walk
doubly stochastic.  Proposals that land outside the requested space are
undone: the chain stays put, and the rejection still counts as a step.

In vertex-labeled mode each proposal is additionally thinned by an
acceptance probability before the feature check (see
:func:`acceptance_probability`).

Draw order (fixed; fixed-seed traces depend on it): each step draws the arc
pair (two ``randrange`` calls), then the tail split, then the head split
(one ``randrange(C(n, k))`` each, the index of the split in
``itertools.combinations`` order, see :func:`_split_at`), and in
vertex-labeled mode one ``rng.random()`` for the thinning, whether or not
the proposal then breaks a feature rule.  One function, :func:`_move`,
draws and decides a step for both :func:`step` and :func:`run_chain`.

Chain state.  :func:`run_chain` does not build a :class:`DirectedHypergraph`
per step.  It keeps a private list of arcs, positional like
``DirectedHypergraph.arcs``, plus a plain ``dict`` of the multiplicities
of the arcs present, and updates both in place on acceptance.  The
multi-arc check and the pair multiplicities in alpha are then ``dict.get``
lookups, so a step costs O(arc size) rather than O(number of arcs).  The
list is frozen into a hypergraph once, at the end, without re-validating
arcs dealt from the start state's own.  The single-step functions
(:func:`propose`, :func:`apply_shuffle`, :func:`acceptance_probability`,
:func:`step`) share the same private helpers and look multiplicities up
with ``tuple.count`` on the frozen arcs, which is cheaper than building a
``dict`` for one call.  Only the two exact-probability functions build
``Fraction``s, and they import :mod:`fractions` themselves.

Exact alpha.  The acceptance probability is a ratio ``num/den`` of integers
(:func:`_alpha_terms`).  ``random.Random.random()`` returns ``k / 2**53``
for an integer ``k``, so the chain accepts iff ``k * den < num * 2**53``.
That is exactly the decision ``u < Fraction(num, den)`` with no float
rounding, and without building a ``Fraction`` per step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable, NamedTuple

from .hypergraph import (
    DirectedHypergraph,
    Hyperarc,
    Multiset,
    SpaceSpec,
    _arc_ok,
    _canonical_bytes,
    _feature_ok,
)


class ProposalError(ValueError):
    """Raised when no shuffle can be proposed (fewer than two arcs)."""


class ChainConfigError(ValueError):
    """Raised when a chain is started from a state outside its space."""


class ShuffleProposal(NamedTuple):
    """Chosen arc positions plus the proposed repartition of pooled stubs."""

    arc_i: int
    arc_j: int
    new_tail_i: Multiset
    new_head_i: Multiset
    new_tail_j: Multiset
    new_head_j: Multiset


# random.Random.random() returns k / 2**53 for an integer k.
_RANDOM_BITS = 53


def _draw_split(pool: list[int], k: int, rng: random.Random):
    """Split pool into a uniformly random size-k part and its complement."""
    return _split_at(pool, k, rng.randrange(comb(len(pool), k)))


def _split_at(pool: list[int], k: int, index: int):
    """Split ``index`` of ``pool`` in ``itertools.combinations`` order.

    Returns ``(picked, rest, ways)``.  Unranks the index directly: of the
    splits still left, the first ``C(n - x - 1, left - 1)`` pick token ``x``
    next.  The pool is sorted, and a subset of a sorted sequence taken in
    index order is sorted too, so both parts come back as valid multisets.
    ``ways`` is the number of stub-level splits realizing the vertex-level
    one, ``C(run, taken)`` multiplied over the runs of equal tokens: the
    :func:`_split_weight` of the two parts, counted in the same pass.
    """
    picked, rest = [], []
    ways = 1
    left = k
    last = None
    run = taken = 0
    after = len(pool)  # tokens after v, once decremented
    for v in pool:
        if v != last:
            if taken and taken != run:
                ways *= comb(run, taken)
            last, run, taken = v, 1, 0
        else:
            run += 1
        after -= 1
        skip = comb(after, left - 1) if left else 0
        if index < skip:
            picked.append(v)
            left -= 1
            taken += 1
        else:
            index -= skip
            rest.append(v)
    if taken and taken != run:
        ways *= comb(run, taken)
    return tuple(picked), tuple(rest), ways


def _draw_proposal(arcs, rng: random.Random):
    """Arc pair, then tail split, then head split: ``(i, j, arc_a, arc_b, weight)``.

    ``i < j``, and ``arc_a``, ``arc_b`` are the arcs proposed for slots
    ``i`` and ``j``; tail and head sizes stay attached to their slots.
    ``weight`` is the number of stub-level repartitions of the two pools
    that realize the dealt arcs, the tail split's ways times the head's.
    """
    m = len(arcs)
    if m < 2:
        raise ProposalError("need at least two hyperarcs to shuffle")
    i = rng.randrange(m)
    j = rng.randrange(m - 1)
    if j >= i:
        j += 1
    if i > j:
        i, j = j, i
    (tail_i, head_i), (tail_j, head_j) = arcs[i], arcs[j]
    tail_a, tail_b, tail_ways = _draw_split(sorted(tail_i + tail_j), len(tail_i), rng)
    head_a, head_b, head_ways = _draw_split(sorted(head_i + head_j), len(head_i), rng)
    return i, j, (tail_a, head_a), (tail_b, head_b), tail_ways * head_ways


def propose(H: DirectedHypergraph, rng: random.Random) -> ShuffleProposal:
    """Draw one double hyperarc shuffle proposal.

    Draw order (fixed for reproducibility): arc pair, tail split, head
    split.  Tail and head sizes stay attached to their original arc slots.
    """
    i, j, (tail_a, head_a), (tail_b, head_b), _ = _draw_proposal(H.arcs, rng)
    return ShuffleProposal(i, j, tail_a, head_a, tail_b, head_b)


def proposal_probability(H: DirectedHypergraph, p: ShuffleProposal) -> Fraction:
    """Probability of drawing exactly this stub-level repartition."""
    from fractions import Fraction

    (tail_i, head_i), (tail_j, head_j) = H.arcs[p.arc_i], H.arcs[p.arc_j]
    nt, kt = len(tail_i) + len(tail_j), len(tail_i)
    nh, kh = len(head_i) + len(head_j), len(head_i)
    return Fraction(1, comb(H.n_arcs, 2) * comb(nt, kt) * comb(nh, kh))


def proposed_arcs(p: ShuffleProposal) -> tuple[Hyperarc, Hyperarc]:
    return (p.new_tail_i, p.new_head_i), (p.new_tail_j, p.new_head_j)


def _outcome_admissible(arc_a: Hyperarc, arc_b: Hyperarc, spec: SpaceSpec) -> bool:
    """Self-loop, degenerate and (multi forbidden) ``arc_a == arc_b`` rules."""
    return (
        _arc_ok(arc_a, spec)
        and _arc_ok(arc_b, spec)
        and (spec.allow_multi or arc_a != arc_b)
    )


def _admissible(
    a: Hyperarc,
    b: Hyperarc,
    arc_a: Hyperarc,
    arc_b: Hyperarc,
    spec: SpaceSpec,
    count: Callable[[Hyperarc], int | None],
) -> bool:
    """Whether replacing arcs ``a, b`` by ``arc_a, arc_b`` stays in the space.

    Only the two new arcs can introduce a forbidden feature.  ``count(x)``
    is the multiplicity of ``x`` among all arcs before the move, ``a`` and
    ``b`` included, or None for an arc not among them (``dict.get``).
    """
    if not _outcome_admissible(arc_a, arc_b, spec):
        return False
    if spec.allow_multi:
        return True
    # Copies of a new arc left among the m - 2 arcs that stay.
    return (count(arc_a) or 0) <= (arc_a == a) + (arc_a == b) and (
        (count(arc_b) or 0) <= (arc_b == a) + (arc_b == b)
    )


def apply_shuffle(
    H: DirectedHypergraph, p: ShuffleProposal, spec: SpaceSpec
) -> tuple[DirectedHypergraph, bool]:
    """Apply a proposal, undoing it if the result leaves the space.

    Returns ``(H', True)`` on acceptance and ``(H, False)`` when the result
    contains a feature forbidden by ``spec``.  Degrees are preserved either
    way, by construction.
    """
    arc_a, arc_b = proposed_arcs(p)
    a, b = H.arcs[p.arc_i], H.arcs[p.arc_j]
    if not _admissible(a, b, arc_a, arc_b, spec, H.arcs.count):
        return H, False
    new_arcs = list(H.arcs)
    new_arcs[p.arc_i] = arc_a
    new_arcs[p.arc_j] = arc_b
    return H.replace_arcs(new_arcs), True


def acceptance_probability(H: DirectedHypergraph, p: ShuffleProposal) -> Fraction:
    """Vertex-labeled acceptance probability of a proposal.

    For a class-changing proposal this is one over the number of distinct
    stub-labeled one-shuffle outcomes that land in the proposal's target
    class, counted from any fixed stub-labeled realization of ``H``.
    Thinning each proposal by this factor collapses the stub-labeled walk
    onto canonical classes without skewing it, so the vertex-labeled kernel
    stays doubly stochastic.  (Class-preserving proposals keep the state
    whether accepted or not; their value never influences the walk.)

    When the two selected arcs are distinct and the two resulting arcs are
    distinct, this reduces to

        1 / ( m_a * m_b * prod_v C(cnt_ah(v)+cnt_bh(v), cnt_ah(v))
                               * C(cnt_at(v)+cnt_bt(v), cnt_at(v)) )

    with ``m_a``, ``m_b`` the multiplicities of the selected arcs in the arc
    multiset.  Selecting two copies of the same arc, or producing two equal
    arcs, changes the outcome count: ``m_a * m_b`` pair choices become
    ``C(m_a, 2)``, and equal-size repartitions collapse in pairs.
    """
    from fractions import Fraction

    arc_a, arc_b = proposed_arcs(p)
    a, b = H.arcs[p.arc_i], H.arcs[p.arc_j]
    weight = _split_weight(arc_a[0], arc_b[0]) * _split_weight(arc_a[1], arc_b[1])
    return Fraction(*_alpha_terms(a, b, arc_a, arc_b, weight, H.arcs.count))


def _alpha_outcome(
    a: Hyperarc, b: Hyperarc, arc_a: Hyperarc, arc_b: Hyperarc, weight: int
) -> tuple[int, int]:
    """Alpha's part fixed by the outcome: ``(coalesce, swap_forms * weight)``.

    ``weight`` is the number of stub-level repartitions realizing the
    outcome, as :func:`_draw_proposal` returns it.
    """
    sizes_equal = len(a[0]) == len(b[0]) and len(a[1]) == len(b[1])
    swap_forms = 2 if sizes_equal and arc_a != arc_b else 1
    coalesce = 2 if sizes_equal else 1
    return coalesce, swap_forms * weight


def _alpha_terms(
    a: Hyperarc,
    b: Hyperarc,
    arc_a: Hyperarc,
    arc_b: Hyperarc,
    weight: int,
    count: Callable[[Hyperarc], int | None],
) -> tuple[int, int]:
    """Alpha as ``(num, den)``; ``weight`` as in :func:`_alpha_outcome`.

    ``count`` is as in :func:`_admissible`; ``a`` and ``b`` are present.
    """
    num, den = _alpha_outcome(a, b, arc_a, arc_b, weight)
    pair_count = comb(count(a), 2) if a == b else count(a) * count(b)
    return num, pair_count * den


def _alpha_rejects(u, num, den):
    """``u >= num/den`` for ``u = rng.random()``, decided in integers.

    ``u * 2**53`` is the integer that ``random()`` drew; it rejects iff it
    reaches ``ceil(num * 2**53 / den)``.  Exact elementwise on numpy arrays
    too for ``num <= 2`` and int64 ``den < 2**53``: the ceiling is then at
    most ``2**53`` or exactly ``2**54``, both exact in float64.
    """
    return u * (1 << _RANDOM_BITS) >= -(-(num << _RANDOM_BITS) // den)


def _split_weight(part_a: Multiset, part_b: Multiset) -> int:
    """Number of stub-level splits of the pooled tokens realizing this split.

    Counted from the two parts alone; :func:`_split_at` counts the same
    number while it deals, and this stays its independent reference.
    """
    w = 1
    for v in set(part_a):
        if v in part_b:
            ca = part_a.count(v)
            w *= comb(ca + part_b.count(v), ca)
    return w


def _move(
    arcs,
    count: Callable[[Hyperarc], int | None],
    spec: SpaceSpec,
    rng: random.Random,
):
    """Draw a proposal on ``arcs`` and decide it: ``(i, j, arc_a, arc_b)`` or None.

    ``count`` is as in :func:`_admissible`.  In vertex mode the thinning
    uniform is drawn before the feature check, so a step consumes it
    whether or not the proposal is admissible.  None means the proposal
    broke a feature rule or was thinned out; the state stays put.
    """
    i, j, arc_a, arc_b, weight = _draw_proposal(arcs, rng)
    a, b = arcs[i], arcs[j]
    u = rng.random() if spec.labeling == "vertex" else None
    if not _admissible(a, b, arc_a, arc_b, spec, count):
        return None
    if u is not None and _alpha_rejects(
        u, *_alpha_terms(a, b, arc_a, arc_b, weight, count)
    ):
        return None
    return i, j, arc_a, arc_b


def step(
    H: DirectedHypergraph,
    spec: SpaceSpec,
    rng: random.Random,
) -> DirectedHypergraph:
    """One chain step: propose, thin by alpha in vertex mode, apply.

    Rejections of either kind leave the state unchanged but still consume
    exactly one step, so the chain keeps its self-loop mass.  The successor
    is built without re-validating its arcs, which the shuffle dealt from
    ``H``'s own; :func:`apply_shuffle` validates, for hand-built proposals.
    """
    move = _move(H.arcs, H.arcs.count, spec, rng)
    if move is None:
        return H
    i, j, arc_a, arc_b = move
    new_arcs = list(H.arcs)
    new_arcs[i] = arc_a
    new_arcs[j] = arc_b
    # _draw_proposal deals sorted tuples of this hypergraph's own vertices.
    return H._replace_normalized_arcs(tuple(new_arcs))


@dataclass(frozen=True)
class ChainConfig:
    """Run parameters: identical (seed, config, start) give identical runs."""

    steps: int
    seed: int
    spec: SpaceSpec
    record_trace: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", _count("steps", self.steps))


def _count(name: str, count) -> int:
    """``count`` as an ``int``, by ``operator.index``.

    A non-integer or negative count raises ``ValueError`` naming ``name``.
    """
    from operator import index

    try:
        count = index(count)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {count!r}") from None
    if count < 0:
        raise ValueError(f"{name} must be nonnegative")
    return count


@dataclass(frozen=True)
class ChainResult:
    final: DirectedHypergraph
    trace: tuple[bytes, ...] | None


def run_chain(H0: DirectedHypergraph, config: ChainConfig) -> ChainResult:
    """Run the shuffle chain for ``config.steps`` steps from ``H0``.

    The start state must lie in the configured space; every intermediate
    state then does too, and the degree sequence never changes.  The walk
    is the one :func:`step` takes from ``random.Random(config.seed)``, run
    on the private arc list and ``dict`` described in the module notes.
    """
    spec = config.spec
    if not _feature_ok(H0.arcs, spec):
        raise ChainConfigError("start state is outside the configured space")
    rng = random.Random(config.seed)
    n = H0.n_vertices
    arcs = list(H0.arcs)
    counts: dict[Hyperarc, int] = {}
    for a in arcs:
        counts[a] = counts.get(a, 0) + 1
    count = counts.get
    trace: list[bytes] | None = [] if config.record_trace else None
    if trace is not None:
        trace.append(_canonical_bytes(n, arcs))
    movable = len(arcs) >= 2
    for _ in range(config.steps):
        move = _move(arcs, count, spec, rng) if movable else None
        if move is not None:
            i, j, arc_a, arc_b = move
            a, b = arcs[i], arcs[j]
            arcs[i] = arc_a
            arcs[j] = arc_b
            counts[arc_a] = counts.get(arc_a, 0) + 1
            counts[arc_b] = counts.get(arc_b, 0) + 1
            for old in (a, b):
                left = counts[old] - 1
                if left:
                    counts[old] = left
                else:
                    del counts[old]
        if trace is not None:
            trace.append(_canonical_bytes(n, arcs))
    # Every arc was dealt from H0's own, as in step.
    final = H0._replace_normalized_arcs(tuple(arcs))
    return ChainResult(final=final, trace=tuple(trace) if trace is not None else None)


def spawn_seed(seed: int, index: int) -> int:
    """Derived seed for replica ``index``; stable across platforms."""
    import hashlib

    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def reverse_proposal(
    H: DirectedHypergraph, p: ShuffleProposal
) -> tuple[DirectedHypergraph, ShuffleProposal]:
    """The shuffled hypergraph together with the repartition that undoes it.

    Used to check proposal-level reversibility: the reverse repartition has
    the same pair, the same pooled stubs and the same binomials, hence the
    same proposal probability.
    """
    arc_a, arc_b = proposed_arcs(p)
    new_arcs = list(H.arcs)
    new_arcs[p.arc_i] = arc_a
    new_arcs[p.arc_j] = arc_b
    H2 = H.replace_arcs(new_arcs)
    (tail_i, head_i), (tail_j, head_j) = H.arcs[p.arc_i], H.arcs[p.arc_j]
    back = ShuffleProposal(p.arc_i, p.arc_j, tail_i, head_i, tail_j, head_j)
    return H2, back
