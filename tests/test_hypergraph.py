"""Core data model: degrees, features, membership, canonical forms."""

import random
from itertools import combinations_with_replacement

import numpy as np
import pytest

from hypershuffle import (
    DegreeSequence,
    DirectedHypergraph,
    HypergraphError,
    SpaceSpec,
    canonical_form,
    classify_features,
    degree_sequence,
    enumerate_vertex_space,
    hypergraph,
    in_space,
)
from hypershuffle.hypergraph import ALL_FEATURE_SETS, _arc_ok, is_degenerate, is_self_loop
from conftest import FIG_DEGREES, WORKED_EXAMPLE, random_instance, recount_degrees


class TestDegreeSequence:
    def test_worked_example_degrees(self):
        d = degree_sequence(WORKED_EXAMPLE)
        assert d.vertex_degrees == ((1, 1), (1, 2), (3, 1), (0, 3), (1, 0), (1, 1))
        assert d.arc_degrees == ((2, 2), (2, 1), (1, 1), (1, 1), (2, 2))

    def test_empty_hypergraph(self):
        H = hypergraph(3, [])
        d = degree_sequence(H)
        assert d.vertex_degrees == ((0, 0), (0, 0), (0, 0))
        assert d.arc_degrees == ()

    def test_matches_independent_recount(self):
        rng = random.Random(5)
        for _ in range(200):
            H = random_instance(rng, max_vertices=5, max_arcs=4)
            d = degree_sequence(H)
            vertex, arcs = recount_degrees(H)
            assert d.vertex_degrees == vertex
            assert d.arc_degrees == arcs

    def test_stub_conservation(self):
        rng = random.Random(6)
        for _ in range(100):
            d = degree_sequence(random_instance(rng))
            assert sum(o for _, o in d.vertex_degrees) == sum(
                t for t, _ in d.arc_degrees
            )
            assert sum(i for i, _ in d.vertex_degrees) == sum(
                h for _, h in d.arc_degrees
            )

    def test_inconsistent_sequence_rejected(self):
        with pytest.raises(HypergraphError):
            DegreeSequence(vertex_degrees=((1, 1),), arc_degrees=((2, 1),))

    def test_negative_degrees_rejected(self):
        # Stub totals balance (1 out, 1 in), so only the sign check catches it.
        with pytest.raises(HypergraphError, match="nonnegative"):
            DegreeSequence(
                vertex_degrees=((-1, 1), (1, -1), (1, 1)), arc_degrees=((1, 1),)
            )
        with pytest.raises(HypergraphError, match="nonnegative"):
            DegreeSequence(vertex_degrees=((0, -1), (1, 2)), arc_degrees=((1, 1),))

    def test_compatibility_ignores_arc_order(self):
        d1 = DegreeSequence(((1, 1), (1, 1)), ((1, 1), (1, 1)))
        d2 = DegreeSequence(((1, 1), (1, 1)), ((1, 1), (1, 1)))
        assert d1.compatible_with(d2)

    # A float degree once passed and then broke the enumerator with a bare
    # TypeError, a float arc size enumerated, and a string raised from ``<``.
    @pytest.mark.parametrize("bad", [1.0, "a"], ids=["float", "str"])
    def test_non_integer_degree_or_size_rejected(self, bad):
        for vertex, arcs in [
            (((bad, 1), (0, 0)), ((1, 1),)),
            (((1, 1), (0, bad)), ((1, 1),)),
            (((1, 1),), ((bad, 1),)),
            (((1, 1),), ((1, bad),)),
        ]:
            with pytest.raises(HypergraphError, match="must be integers"):
                DegreeSequence(vertex, arcs)

    # A pair of the wrong length once escaped as a bare ValueError from
    # tuple unpacking.
    @pytest.mark.parametrize(
        "vertex, arcs",
        [(((1, 2, 3),), ((1, 1),)), (((1, 1),), ((1,),)), (((1, 1),), (1,))],
        ids=["vertex-triple", "arc-single", "arc-int"],
    )
    def test_malformed_pair_rejected(self, vertex, arcs):
        with pytest.raises(HypergraphError, match="must be integers, in pairs"):
            DegreeSequence(vertex, arcs)

    def test_pairs_from_any_iterable(self):
        d = DegreeSequence([[1, 1], (0, 0)], iter([[1, 1]]))
        assert d == DegreeSequence(((1, 1), (0, 0)), ((1, 1),))

    @pytest.mark.parametrize("one", [np.int64(1), True], ids=["int64", "bool"])
    def test_integer_like_degree_accepted_as_int(self, one):
        d = DegreeSequence(((one, one), (0, 0)), [(one, one)])
        assert d == DegreeSequence(((1, 1), (0, 0)), ((1, 1),))
        assert all(type(v) is int for pairs in (d.vertex_degrees, d.arc_degrees)
                   for pair in pairs for v in pair)
        assert len(enumerate_vertex_space(d, SpaceSpec.from_string("sdm"))) == 1


class TestFeatures:
    def test_worked_example_features(self):
        report = classify_features(WORKED_EXAMPLE)
        assert report.self_loops == (4,)
        assert report.degenerate == (1,)
        assert report.multi_groups == ((2, 3),)

    def test_singleton_self_loop_not_degenerate(self):
        H = hypergraph(1, [((0,), (0,))])
        report = classify_features(H)
        assert report.self_loops == (0,)
        assert report.degenerate == ()

    def test_self_loop_is_order_free(self):
        H = hypergraph(2, [((0, 1), (1, 0))])
        assert classify_features(H).self_loops == (0,)

    def test_partial_overlap_is_not_a_self_loop(self):
        H = hypergraph(3, [((0, 1), (1, 2))])
        assert classify_features(H).self_loops == ()

    def test_degenerate_tail_or_head(self):
        assert classify_features(hypergraph(2, [((0, 0), (1,))])).degenerate == (0,)
        assert classify_features(hypergraph(2, [((1,), (0, 0))])).degenerate == (0,)

    @pytest.mark.parametrize("features", ALL_FEATURE_SETS)
    def test_arc_ok_is_the_composed_feature_tests(self, features):
        # Every arc with sides of 1-3 tokens over 3 vertices.
        sides = [side for size in (1, 2, 3)
                 for side in combinations_with_replacement(range(3), size)]
        spec = SpaceSpec.from_string(features)
        for a in ((tail, head) for tail in sides for head in sides):
            expected = (spec.allow_self_loops or not is_self_loop(a)) and (
                spec.allow_degenerate or not is_degenerate(a)
            )
            assert _arc_ok(a, spec) == expected


class TestInSpace:
    def test_unrestricted_space_accepts_everything(self):
        d = degree_sequence(WORKED_EXAMPLE)
        assert in_space(WORKED_EXAMPLE, SpaceSpec.from_string("sdm"), d)

    def test_feature_rejections_match_classification(self):
        rng = random.Random(7)
        for _ in range(150):
            H = random_instance(rng)
            # Each instance as drawn, and with its first arc doubled: a multi-arc.
            for G in (H, H.replace_arcs(H.arcs + H.arcs[:1])):
                d = degree_sequence(G)
                report = classify_features(G)
                for features in ALL_FEATURE_SETS:
                    spec = SpaceSpec.from_string(features)
                    assert in_space(G, spec, d) == (not report.forbidden_by(spec))

    def test_wrong_degree_sequence_rejected(self):
        H = hypergraph(3, [((0,), (1,)), ((1,), (2,))])
        other = degree_sequence(hypergraph(3, [((0,), (1,)), ((2,), (1,))]))
        assert not in_space(H, SpaceSpec.from_string("sdm"), other)

    def test_degenerate_only_space(self):
        # A degenerate, loop-free, multi-free hypergraph sits in {d} not {}.
        H = hypergraph(3, [((0, 0), (1,)), ((1,), (2,))])
        d = degree_sequence(H)
        assert in_space(H, SpaceSpec.from_string("d"), d)
        assert not in_space(H, SpaceSpec.from_string(""), d)

    def test_space_monotonicity(self):
        rng = random.Random(8)
        lattice = {
            "": ("s", "d", "m"),
            "s": ("sd", "sm"),
            "d": ("sd", "dm"),
            "m": ("sm", "dm"),
            "sd": ("sdm",),
            "sm": ("sdm",),
            "dm": ("sdm",),
        }
        for _ in range(80):
            H = random_instance(rng)
            d = degree_sequence(H)
            for small, bigger in lattice.items():
                ok_small = in_space(H, SpaceSpec.from_string(small), d)
                for big in bigger:
                    if ok_small:
                        assert in_space(H, SpaceSpec.from_string(big), d)

    def test_spec_spans_exactly_the_sixteen_spaces(self):
        # Three feature flags and a labeling: nothing else can tell two
        # specs apart, and each of the 16 prints differently.
        fields = list(SpaceSpec.__slots__)
        assert fields == ["allow_self_loops", "allow_degenerate", "allow_multi", "labeling"]
        specs = {
            SpaceSpec.from_string(features, labeling)
            for features in ALL_FEATURE_SETS
            for labeling in ("stub", "vertex")
        }
        assert len(specs) == 16
        assert len({str(spec) for spec in specs}) == 16

    @pytest.mark.parametrize("labeling", ["Vertex", "stubs", "", None])
    def test_spec_refuses_an_unknown_labeling(self, labeling):
        with pytest.raises(ValueError, match="labeling must be 'stub' or 'vertex'"):
            SpaceSpec(True, True, True, labeling)
        with pytest.raises(ValueError, match="labeling must be 'stub' or 'vertex'"):
            SpaceSpec.from_string("sdm", labeling)

    def test_sixteen_spaces(self):
        specs = {
            (feats, lab)
            for feats in ("", "s", "d", "m", "sd", "sm", "dm", "sdm")
            for lab in ("stub", "vertex")
        }
        assert len(specs) == 16
        for feats, lab in specs:
            spec = SpaceSpec.from_string(feats, lab)
            assert spec.feature_string == feats
            assert spec.labeling == lab


class TestCanonicalForm:
    def test_arc_order_irrelevant(self):
        H1 = hypergraph(3, [((1,), (2,)), ((0,), (2,))])
        H2 = hypergraph(3, [((0,), (2,)), ((1,), (2,))])
        assert canonical_form(H1) == canonical_form(H2)

    def test_figure_space_has_distinct_forms(self):
        space = enumerate_vertex_space(FIG_DEGREES, SpaceSpec.from_string("sdm"))
        forms = {canonical_form(H) for H in space}
        assert len(forms) == len(space) == 11

    def test_multiplicity_exact(self):
        H1 = hypergraph(3, [((0,), (1,)), ((0,), (1,))])
        H2 = hypergraph(3, [((0,), (1,)), ((0,), (2,))])
        assert canonical_form(H1) != canonical_form(H2)

    def test_equivalence_relation_on_permutations(self, rng):
        for _ in range(50):
            H = random_instance(rng)
            arcs = list(H.arcs)
            rng.shuffle(arcs)
            assert canonical_form(H.replace_arcs(arcs)) == canonical_form(H)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_join_rendering(self, seed):
        # The rendering with one ``str`` join per multiset, which the ``%d``
        # formats replaced, on int arcs of sizes 1-6 over up to 200 vertices.
        rng = random.Random(seed)
        n = rng.randint(1, 200)
        arcs = [
            (tuple(rng.choices(range(n), k=rng.randint(1, 6))),
             tuple(rng.choices(range(n), k=rng.randint(1, 6))))
            for _ in range(rng.randint(0, 300))
        ]
        H = hypergraph(n, arcs)
        body = ";".join(
            ",".join(map(str, t)) + ">" + ",".join(map(str, h)) for t, h in sorted(H.arcs)
        )
        assert canonical_form(H) == f"{n}|{body}".encode("ascii")

    def test_bool_vertex_renders_as_the_integer_it_equals(self):
        H_bool = hypergraph(2, [((True,), (False,))])
        H_int = hypergraph(2, [((1,), (0,))])
        assert H_bool == H_int
        assert canonical_form(H_bool) == canonical_form(H_int) == b"2|1>0"

    @pytest.mark.parametrize("vertex", [np.int64(1), True], ids=["int64", "bool"])
    def test_integer_like_vertex_accepted_as_int(self, vertex):
        H = hypergraph(np.int64(3), [((vertex,), (0,))])
        assert H.arcs == (((1,), (0,)),)
        assert all(type(v) is int for arc in H.arcs for side in arc for v in side)
        assert type(H.n_vertices) is int
        assert canonical_form(H) == b"3|1>0"
        assert degree_sequence(H) == degree_sequence(hypergraph(3, [((1,), (0,))]))


class TestValidation:
    def test_empty_tail_rejected(self):
        with pytest.raises(HypergraphError):
            DirectedHypergraph(2, (((), (0,)),))

    def test_unknown_vertex_rejected(self):
        with pytest.raises(HypergraphError):
            hypergraph(2, [((0,), (5,))])

    # 1.5 once passed the range check and rendered like vertex 1; a string
    # raised a bare TypeError.
    @pytest.mark.parametrize("vertex", [1.5, "a"], ids=["float", "str"])
    def test_non_integer_vertex_rejected(self, vertex):
        for arcs in ([((vertex,), (0,))], [((0,), (vertex, 0))]):
            with pytest.raises(HypergraphError, match="not an integer"):
                hypergraph(3, arcs)

    @pytest.mark.parametrize("n", [3.0, "3"])
    def test_non_integer_vertex_count_rejected(self, n):
        with pytest.raises(HypergraphError, match="vertex count .* is not an integer"):
            hypergraph(n, [((0,), (1,))])

    # An arc that is not a (tail, head) pair once escaped as a bare
    # ValueError from unpacking, or as a TypeError from the copy that
    # ``hypergraph`` made before constructing.
    @pytest.mark.parametrize(
        "bad", [((0,),), ((0,), (1,), (2,)), (0, 1), 0],
        ids=["one-side", "three-sides", "int-sides", "int"],
    )
    def test_malformed_arc_rejected(self, bad):
        for build in (lambda: DirectedHypergraph(3, (bad,)), lambda: hypergraph(3, [bad])):
            with pytest.raises(HypergraphError, match="arc 0 is not a \\(tail, head\\) pair"):
                build()

    def test_convenience_constructor_builds_the_same_hypergraph(self):
        arcs = [([2, 0], {1}), ((1,), range(2, 3))]
        H = DirectedHypergraph(3, (((0, 2), (1,)), ((1,), (2,))))
        assert hypergraph(3, arcs) == H
        assert hypergraph(3, iter(arcs)) == H
        assert hypergraph(3, (a for a in arcs), ["a", "b", "c"]).labels == ("a", "b", "c")

    def test_labels_length_checked(self):
        with pytest.raises(HypergraphError):
            hypergraph(2, [((0,), (1,))], labels=("only-one",))
