"""Directed hypergraphs with multiset tails and heads.

Vertices are dense integers ``0..n-1``; external names, when present, live in
a side table of labels.  A hyperarc is a pair of vertex multisets (tail,
head).  Multisets are stored as sorted tuples with repetition, which makes
equality and hashing multiplicity-exact and keeps small instances cheap.

The arc list is positional: the position of an arc in ``arcs`` is its
identity for the shuffle kernel, which must pick two arc *instances*.  Two
hypergraphs are equal as vertex-labeled objects iff their arc multisets are
equal, which is what :func:`canonical_form` captures.

A space fixes a degree sequence and allows or forbids each of three
features: self-loops (tail equal to head), degenerate arcs (a vertex
repeated in a tail or head) and multi-arcs (an arc listed twice).  With
stub or vertex labeling, :class:`SpaceSpec` names one of 16 spaces.

Every record type of the package (the hypergraph, its degree sequence, a
space, a feature report, and the run, result and report types of the other
layers) is a :class:`_Record`: its ``__slots__`` list its fields in order,
and one explicit ``__init__`` checks and stores them.  They are written by
hand, not by ``dataclasses``, to keep ``import hypershuffle`` cheap: that
module loads ``inspect`` and ``ast`` and compiles each class's methods
from source at import time, which costs more than the rest of the import.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Literal, Sequence

Multiset = tuple[int, ...]
Hyperarc = tuple[Multiset, Multiset]


def multiset(items: Iterable[int]) -> Multiset:
    """Build a multiset (sorted tuple with repetition) from vertex ids."""
    return tuple(sorted(items))


def arc(tail: Iterable[int], head: Iterable[int]) -> Hyperarc:
    return (multiset(tail), multiset(head))


class HypergraphError(ValueError):
    """Malformed hypergraph or degree-sequence input."""


class _Record:
    """An immutable value record whose fields are its ``__slots__``, in order.

    Records compare and hash by their field values, and only against the
    same class; ``repr`` lists the fields as a dataclass's does.  A field can
    be neither assigned nor deleted, so ``__init__`` stores them all through
    :meth:`_fill`.  Pickling and copying rebuild the record through its
    constructor, which checks the values again.
    """

    __slots__ = ()

    def _fill(self, *values: object) -> None:
        """Store ``values`` as the fields, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class DirectedHypergraph(_Record):
    """A vertex count plus an indexed list of hyperarcs.

    Arcs are normalized on construction (tails and heads sorted); the order
    of the arc list itself is preserved because it carries arc identity.
    The vertex count and every vertex must be integers (``operator.index``
    accepts them, so ``True`` and numpy integers pass and are stored as
    ``int``); anything else raises :class:`HypergraphError`.
    """

    __slots__ = ("n_vertices", "arcs", "labels")

    def __init__(
        self,
        n_vertices: int,
        arcs: Iterable[Hyperarc],
        labels: tuple[str, ...] | None = None,
    ) -> None:
        try:
            n_vertices = index(n_vertices)
        except TypeError:
            raise HypergraphError(f"vertex count {n_vertices!r} is not an integer") from None
        if n_vertices < 0:
            raise HypergraphError("vertex count must be nonnegative")
        if labels is not None and len(labels) != n_vertices:
            raise HypergraphError("label table length must equal n_vertices")
        normalized = []
        for k, pair in enumerate(arcs):
            try:
                tail, head = pair
                tail = multiset(map(index, tail))
                head = multiset(map(index, head))
            except (TypeError, ValueError):
                raise HypergraphError(
                    f"arc {k} is not a (tail, head) pair, or a vertex is not an integer"
                ) from None
            if not tail or not head:
                raise HypergraphError(f"arc {k} has an empty tail or head")
            for v in tail + head:
                if not (0 <= v < n_vertices):
                    raise HypergraphError(f"arc {k} uses unknown vertex {v}")
            normalized.append((tail, head))
        self._fill(n_vertices, tuple(normalized), labels)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    def vertex_name(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else f"v{v}"

    def replace_arcs(self, arcs: Sequence[Hyperarc]) -> "DirectedHypergraph":
        return DirectedHypergraph(self.n_vertices, tuple(arcs), self.labels)

    def _replace_normalized_arcs(
        self, arcs: tuple[Hyperarc, ...]
    ) -> "DirectedHypergraph":
        """:meth:`replace_arcs` without validation, for trusted arcs only.

        Every tail and head must already be a sorted tuple of vertices in
        range, as a shuffle of this hypergraph's own arcs deals them.
        """
        H = object.__new__(DirectedHypergraph)
        H._fill(self.n_vertices, arcs, self.labels)
        return H


def hypergraph(
    n_vertices: int,
    arcs: Iterable[tuple[Iterable[int], Iterable[int]]],
    labels: Sequence[str] | None = None,
) -> DirectedHypergraph:
    """Convenience constructor accepting unsorted tails/heads."""
    return DirectedHypergraph(n_vertices, arcs, tuple(labels) if labels else None)


class DegreeSequence(_Record):
    """Per-vertex (in, out) pairs plus per-arc (tail size, head size) pairs.

    This is the quantity conserved by every double hyperarc shuffle.  Vertex
    degrees are positional (vertex labels are fixed); arc degrees are a list
    whose order is an artifact, so use :meth:`compatible_with` to compare.
    Every degree and size must be an integer, as for the vertices of
    :class:`DirectedHypergraph`, and is stored as an ``int`` in tuples.
    """

    __slots__ = ("vertex_degrees", "arc_degrees")

    def __init__(
        self,
        vertex_degrees: Iterable[tuple[int, int]],
        arc_degrees: Iterable[tuple[int, int]],
    ) -> None:
        try:
            vertex_degrees = tuple((index(a), index(b)) for a, b in vertex_degrees)
            arc_degrees = tuple((index(a), index(b)) for a, b in arc_degrees)
        except (TypeError, ValueError):
            raise HypergraphError("degrees and arc sizes must be integers, in pairs") from None
        if any(d_in < 0 or d_out < 0 for d_in, d_out in vertex_degrees):
            raise HypergraphError("in- and out-degrees must be nonnegative")
        out_total = sum(d_out for _, d_out in vertex_degrees)
        in_total = sum(d_in for d_in, _ in vertex_degrees)
        if out_total != sum(t for t, _ in arc_degrees):
            raise HypergraphError("out-stub count does not match total tail size")
        if in_total != sum(h for _, h in arc_degrees):
            raise HypergraphError("in-stub count does not match total head size")
        if any(t < 1 or h < 1 for t, h in arc_degrees):
            raise HypergraphError("tail and head sizes must be at least 1")
        self._fill(vertex_degrees, arc_degrees)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_degrees)

    @property
    def n_arcs(self) -> int:
        return len(self.arc_degrees)

    @property
    def total_stubs(self) -> int:
        return sum(d_in + d_out for d_in, d_out in self.vertex_degrees)

    def compatible_with(self, other: "DegreeSequence") -> bool:
        """Equality with vertex degrees positional and arc degrees as a multiset."""
        return self.vertex_degrees == other.vertex_degrees and sorted(
            self.arc_degrees
        ) == sorted(other.arc_degrees)


def degree_sequence(H: DirectedHypergraph) -> DegreeSequence:
    """In/out degree per vertex and tail/head size per arc."""
    d_in = [0] * H.n_vertices
    d_out = [0] * H.n_vertices
    for tail, head in H.arcs:
        for v in tail:
            d_out[v] += 1
        for v in head:
            d_in[v] += 1
    return DegreeSequence(
        vertex_degrees=tuple(zip(d_in, d_out)),
        arc_degrees=tuple((len(t), len(h)) for t, h in H.arcs),
    )


Labeling = Literal["stub", "vertex"]


class SpaceSpec(_Record):
    """Which features a space admits, plus the labeling convention.

    The three booleans pick one of the 8 feature classes; ``labeling``
    doubles that to the 16 spaces, and any other labeling raises
    ``ValueError``.  An arc is a self-loop when its tail equals its head as
    a multiset (:func:`is_self_loop`).
    """

    __slots__ = ("allow_self_loops", "allow_degenerate", "allow_multi", "labeling")

    def __init__(
        self,
        allow_self_loops: bool,
        allow_degenerate: bool,
        allow_multi: bool,
        labeling: Labeling = "stub",
    ) -> None:
        if labeling not in ("stub", "vertex"):
            raise ValueError(f"labeling must be 'stub' or 'vertex', got {labeling!r}")
        self._fill(allow_self_loops, allow_degenerate, allow_multi, labeling)

    @classmethod
    def from_string(cls, features: str, labeling: Labeling = "stub") -> "SpaceSpec":
        """Parse a feature subset like ``""``, ``"s"``, ``"sm"`` or ``"sdm"``."""
        extra = set(features) - set("sdm")
        if extra:
            raise ValueError(f"unknown feature letters: {sorted(extra)}")
        return cls("s" in features, "d" in features, "m" in features, labeling)

    @property
    def feature_string(self) -> str:
        return (
            ("s" if self.allow_self_loops else "")
            + ("d" if self.allow_degenerate else "")
            + ("m" if self.allow_multi else "")
        )

    def __str__(self) -> str:
        return f"{self.labeling}[{self.feature_string}]"


ALL_FEATURE_SETS = ("", "s", "d", "m", "sd", "sm", "dm", "sdm")


def is_self_loop(a: Hyperarc) -> bool:
    tail, head = a
    return tail == head


def is_degenerate(a: Hyperarc) -> bool:
    tail, head = a
    return _has_repeat(tail) or _has_repeat(head)


def _has_repeat(ms: Multiset) -> bool:
    return len(set(ms)) < len(ms)


def _arc_ok(a: Hyperarc, spec: SpaceSpec) -> bool:
    """Whether ``a`` is free of the self-loop and degenerate features ``spec`` forbids.

    The tests of :func:`is_self_loop` and :func:`is_degenerate`, written out
    flat for the kernel's hot path; those two stay for
    :func:`classify_features`, the independent reference.
    """
    tail, head = a
    if not spec.allow_self_loops and tail == head:
        return False
    return spec.allow_degenerate or (
        len(set(tail)) == len(tail) and len(set(head)) == len(head)
    )


class FeatureReport(_Record):
    """Per-arc feature flags: indices of offending arcs, grouped for multis."""

    __slots__ = ("self_loops", "degenerate", "multi_groups")

    def __init__(
        self,
        self_loops: tuple[int, ...],
        degenerate: tuple[int, ...],
        multi_groups: tuple[tuple[int, ...], ...],
    ) -> None:
        self._fill(self_loops, degenerate, multi_groups)

    @property
    def has_self_loop(self) -> bool:
        return bool(self.self_loops)

    @property
    def has_degenerate(self) -> bool:
        return bool(self.degenerate)

    @property
    def has_multi(self) -> bool:
        return bool(self.multi_groups)

    def forbidden_by(self, spec: SpaceSpec) -> bool:
        return (
            (self.has_self_loop and not spec.allow_self_loops)
            or (self.has_degenerate and not spec.allow_degenerate)
            or (self.has_multi and not spec.allow_multi)
        )


def classify_features(H: DirectedHypergraph) -> FeatureReport:
    """Flag self-loops and degenerate arcs, and group identical arcs."""
    loops = tuple(k for k, a in enumerate(H.arcs) if is_self_loop(a))
    degen = tuple(k for k, a in enumerate(H.arcs) if is_degenerate(a))
    groups: dict[Hyperarc, list[int]] = {}
    for k, a in enumerate(H.arcs):
        groups.setdefault(a, []).append(k)
    multi = tuple(tuple(g) for g in groups.values() if len(g) >= 2)
    return FeatureReport(self_loops=loops, degenerate=degen, multi_groups=multi)


def in_space(H: DirectedHypergraph, spec: SpaceSpec, d: DegreeSequence) -> bool:
    """Membership in the space of degree sequence ``d`` under ``spec``.

    True iff the degree sequence matches (arc degrees as multisets) and no
    feature forbidden by ``spec`` is present.
    """
    return degree_sequence(H).compatible_with(d) and _feature_ok(H.arcs, spec)


def _feature_ok(arcs: Sequence[Hyperarc], spec: SpaceSpec) -> bool:
    """No feature forbidden by ``spec``: the feature half of :func:`in_space`.

    Every arc passes :func:`_arc_ok`, and unless ``spec`` allows multi-arcs
    no arc repeats.  :func:`classify_features` reaches the same verdict
    independently, through :meth:`FeatureReport.forbidden_by`.
    """
    return all(_arc_ok(a, spec) for a in arcs) and (
        spec.allow_multi or len(set(arcs)) == len(arcs)
    )


def canonical_form(H: DirectedHypergraph) -> bytes:
    """Deterministic byte string identifying H up to arc-list order.

    Two hypergraphs get equal canonical forms iff their arc multisets are
    equal under the fixed vertex labels.  No vertex permutation is applied.
    """
    return _canonical_bytes(H.n_vertices, H.arcs)


class _ArcFormats(dict):
    """``%d`` format string of an arc, by (tail size, head size), built once."""

    def __missing__(self, sizes: tuple[int, int]) -> str:
        tail, head = sizes
        self[sizes] = fmt = ",".join(["%d"] * tail) + ">" + ",".join(["%d"] * head)
        return fmt


_ARC_FORMATS = _ArcFormats()


def _canonical_bytes(n_vertices: int, arcs: Iterable[Hyperarc]) -> bytes:
    """:func:`canonical_form` of normalized arcs, without a hypergraph.

    Vertices render with ``%d``, so an equal ``bool`` or integer subclass
    renders as the integer it equals.
    """
    formats = _ARC_FORMATS
    body = ";".join([formats[len(t), len(h)] % (t + h) for t, h in sorted(arcs)])
    return f"{n_vertices}|{body}".encode("ascii")


def canonicalize(H: DirectedHypergraph) -> DirectedHypergraph:
    """Same hypergraph with arcs listed in canonical (sorted) order."""
    return H.replace_arcs(sorted(H.arcs))
