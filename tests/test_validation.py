"""Chi-square harness, bipartite cross-check, the digraph disconnection search."""

import json
import random
from collections import Counter

import pytest

from hypershuffle import (
    DegreeSequence,
    EnumerationLimitError,
    SampleOutsideSpaceError,
    SpaceSpec,
    canonical_form,
    check_sm_equivalence,
    classify_features,
    enumerate_vertex_space,
    hypergraph,
    map_to_bipartite,
    uniformity_test,
)
import hypershuffle.chains
from hypershuffle.chains import class_components
from hypershuffle.validation import (
    _degree_vectors,
    find_digraph_disconnection,
    stub_pushforward_weights,
)
from conftest import FIG_DEGREES, WORKED_EXAMPLE, random_instance

SDM = SpaceSpec.from_string("sdm")


class TestUniformityTest:
    def test_fair_multinomial_passes(self):
        rng = random.Random(1)
        space = [f"s{k}".encode() for k in range(8)]
        samples = Counter(rng.choice(space) for _ in range(8000))
        report = uniformity_test(samples, space)
        assert report.p_value > 0.01
        assert report.verdict == "pass"

    def test_biased_sample_fails_hard(self):
        rng = random.Random(2)
        space = [f"s{k}".encode() for k in range(8)]
        biased = space[:4] * 3 + space  # state weights 4,4,4,4,1,1,1,1
        samples = Counter(rng.choice(biased) for _ in range(8000))
        report = uniformity_test(samples, space)
        assert report.p_value < 1e-4

    def test_weighted_expectations(self):
        rng = random.Random(3)
        space = [b"a", b"b"]
        weights = [3, 1]
        samples = Counter(
            rng.choice([b"a", b"a", b"a", b"b"]) for _ in range(4000)
        )
        report = uniformity_test(samples, space, weights)
        assert report.p_value > 0.01

    def test_sample_outside_space_is_hard_failure(self):
        with pytest.raises(SampleOutsideSpaceError):
            uniformity_test(Counter({b"rogue": 1}), [b"a", b"b"])

    def test_small_cells_are_pooled(self):
        space = [b"a", b"b", b"c"]
        weights = [1000, 1000, 1]
        samples = Counter({b"a": 500, b"b": 501, b"c": 1})
        report = uniformity_test(samples, space, weights)
        assert report.pooled_cells >= 1

    def test_json_report_schema(self):
        space = [b"a", b"b"]
        samples = Counter({b"a": 50, b"b": 50})
        report = uniformity_test(samples, space)
        payload = json.loads(
            report.to_json(instance="x.dhg", spec="sdm", labeling="stub",
                           k=10, replicas=100, seed=1)
        )
        for field in ("instance", "spec", "labeling", "k", "replicas", "seed",
                      "histogram", "chi2", "p", "verdict"):
            assert field in payload


class TestBipartiteMap:
    def test_mapping_instance_classes(self):
        # Two arcs on vertices u,v,w: the incidence picture has one
        # vertex-side node per vertex and one arc-side node per arc.
        H = hypergraph(3, [((0, 1), (1, 2)), ((1,), (0,))],
                       labels=("u", "v", "w"))
        tail_graph, head_graph = map_to_bipartite(H)
        assert tail_graph.vertex_nodes == ("u_out_u", "u_out_v", "u_out_w")
        assert head_graph.vertex_nodes == ("u_in_u", "u_in_v", "u_in_w")
        assert tail_graph.arc_nodes == ("u_t_a0", "u_t_a1")
        assert head_graph.arc_nodes == ("u_h_a0", "u_h_a1")
        assert not tail_graph.has_multi_arc
        assert not head_graph.has_multi_arc

    def test_degenerate_arc_maps_to_double_arc(self):
        H = hypergraph(2, [((0, 0), (1,))])
        tail_graph, _ = map_to_bipartite(H)
        assert tail_graph.has_multi_arc
        assert not check_sm_equivalence(H)

    def test_multi_hyperarcs_do_not_create_multi_arcs(self):
        H = hypergraph(2, [((0,), (1,)), ((0,), (1,))])
        tail_graph, head_graph = map_to_bipartite(H)
        assert not tail_graph.has_multi_arc
        assert not head_graph.has_multi_arc
        assert check_sm_equivalence(H)

    def test_agreement_with_feature_classification(self):
        rng = random.Random(9)
        for _ in range(500):
            H = random_instance(rng)
            assert check_sm_equivalence(H) == (
                not classify_features(H).has_degenerate
            )

    def test_worked_example(self):
        # The worked example has a degenerate arc, so the bipartite image
        # carries a double arc and the membership verdict is negative.
        assert not check_sm_equivalence(WORKED_EXAMPLE)


class TestCounterexamples:
    def test_digraph_search_rejects_self_loop_spaces(self):
        with pytest.raises(ValueError):
            find_digraph_disconnection("s")

    def test_digraph_search_finds_three_cycle(self):
        found = find_digraph_disconnection("")
        assert found["found"]
        assert found["n_arcs"] == 3
        assert sorted(map(tuple, found["vertex_degrees"])) == [(1, 1)] * 3


# The search's results, recorded when it still built a stub chain per
# candidate: the two directed 3-cycles on three vertices, one stub state each.
THREE_CYCLES = {
    "found": True, "vertex_degrees": [[1, 1], [1, 1], [1, 1]],
    "n_arcs": 3, "n_states": 2, "n_components": 2,
}


class TestDigraphSearch:
    @pytest.mark.parametrize("features", ["", "d", "m", "dm"])
    def test_pinned_results(self, monkeypatch, features):
        # One sequence per orbit of vertex relabelings is decided.
        decided = []

        def counted(d, spec):
            decided.append(tuple(sorted(d.vertex_degrees)))
            return class_components(d, spec)

        monkeypatch.setattr(hypershuffle.chains, "class_components", counted)
        assert find_digraph_disconnection(features) == THREE_CYCLES
        assert len(decided) == len(set(decided)) == 53

    def test_builds_no_chain_and_enumerates_no_stub_state(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search must not build a stub chain")

        monkeypatch.setattr(hypershuffle.chains, "build_stub_chain", refuse)
        monkeypatch.setattr(hypershuffle.chains, "check_strongly_connected", refuse)
        monkeypatch.setattr(hypershuffle.chains, "enumerate_stub_space", refuse)
        assert find_digraph_disconnection("") == THREE_CYCLES

    @pytest.mark.parametrize("features", ["", "dm"])
    def test_relabeled_sequences_have_the_same_components(self, features):
        # What the search's skip relies on, over every sequence it sweeps
        # up to three vertices and three arcs.
        spec = SpaceSpec.from_string(features)
        components, members = {}, Counter()
        for n in (2, 3):
            for k in (2, 3):
                for in_deg in _degree_vectors(n, k):
                    for out_deg in _degree_vectors(n, k):
                        d = DegreeSequence(tuple(zip(in_deg, out_deg)), ((1, 1),) * k)
                        count = len(class_components(d, spec)[1])
                        orbit = tuple(sorted(d.vertex_degrees))
                        assert components.setdefault(orbit, count) == count
                        members[orbit] += 1
        assert components[((1, 1),) * 3] == 2
        assert members[((1, 1),) * 3] == 1 and max(members.values()) == 6

    def test_two_vertices_stay_connected_up_to_the_stub_guard(self):
        # Two vertices without self-loops have one class per degree
        # sequence, so the search runs to its last arc count.
        assert find_digraph_disconnection("m", max_vertices=2, max_arcs=8) == {
            "found": False
        }

    def test_past_the_stub_guard_raises(self):
        # Nine (1,1) arcs have 18 stubs, past the vertex enumerator's 16.
        with pytest.raises(EnumerationLimitError):
            find_digraph_disconnection("m", max_vertices=2, max_arcs=9)


def test_pushforward_weights_align():
    keys, weights = stub_pushforward_weights(FIG_DEGREES, SDM)
    space = enumerate_vertex_space(FIG_DEGREES, SDM)
    assert keys == [canonical_form(H) for H in space]
    assert len(weights) == 11
    assert sum(weights) == 36
