"""Enumeration oracles: vertex spaces, stub spaces, realization counts."""

import random
from collections import Counter

import pytest

from hypershuffle import (
    ChainConfig,
    DegreeSequence,
    EnumerationLimitError,
    SpaceSpec,
    canonical_form,
    count_stub_realizations,
    degree_sequence,
    enumerate_stub_space,
    enumerate_vertex_space,
    hypergraph,
    in_space,
    run_chain,
    stub_state_to_hypergraph,
)
from hypershuffle.enumeration import _parts, _stub_states, _vertices
from hypershuffle.hypergraph import ALL_FEATURE_SETS
from hypershuffle.reproduce import THM1_BATTERY, THM2_BATTERY, THM4_BATTERY
from conftest import (
    D1_BLOCKED,
    D1_DEGREES,
    D1_SPREAD,
    FIG_DEGREES,
    brute_stub_space,
    brute_stub_states,
    random_instance,
    reference_parts,
    reference_project,
    reference_vertices,
)

SDM = SpaceSpec.from_string("sdm")

BATTERIES = dict(THM1_BATTERY + THM2_BATTERY + THM4_BATTERY)

ALL_SPECS = [SpaceSpec.from_string(features) for features in ALL_FEATURE_SETS]


def mixed_size_degrees(rng: random.Random, max_stubs: int = 10) -> DegreeSequence:
    """A random degree sequence with arc sides of 1-3 stubs.

    The first two arcs share a tail size and differ in head size, so slots
    of one tail size fall into different orbit runs.
    """
    while True:
        n = rng.randint(2, 4)
        t = rng.randint(1, 2)
        arcs = [(t, 1), (t, 2)] + [
            (rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))
        ]
        rng.shuffle(arcs)
        if sum(a + b for a, b in arcs) <= max_stubs:
            break
    d_out, d_in = [0] * n, [0] * n
    for _ in range(sum(a for a, _ in arcs)):
        d_out[rng.randrange(n)] += 1
    for _ in range(sum(b for _, b in arcs)):
        d_in[rng.randrange(n)] += 1
    return DegreeSequence(tuple(zip(d_in, d_out)), tuple(arcs))


class TestVertexSpace:
    def test_figure_counts(self):
        expected = {"sdm": 11, "sm": 8, "d": 5, "": 4}
        for features, want in expected.items():
            space = enumerate_vertex_space(FIG_DEGREES, SpaceSpec.from_string(features))
            assert len(space) == want

    def test_forced_single_arc_instance(self):
        d = DegreeSequence(vertex_degrees=((0, 1), (1, 0)), arc_degrees=((1, 1),))
        for features in ("", "s", "d", "m", "sd", "sm", "dm", "sdm"):
            space = enumerate_vertex_space(d, SpaceSpec.from_string(features))
            assert len(space) == 1
            assert space[0].arcs == (((0,), (1,)),)

    def test_counterexample_space_contains_both_states(self):
        space = enumerate_vertex_space(D1_DEGREES, SpaceSpec.from_string("sd"))
        keys = {canonical_form(H) for H in space}
        assert canonical_form(D1_BLOCKED) in keys
        assert canonical_form(D1_SPREAD) in keys
        assert len(space) == 2

    def test_members_are_in_space_and_complete(self, rng):
        for features in ("", "sm", "sdm"):
            spec = SpaceSpec.from_string(features)
            space = enumerate_vertex_space(FIG_DEGREES, spec)
            keys = {canonical_form(H) for H in space}
            for H in space:
                assert in_space(H, spec, FIG_DEGREES)
            # random in-space states found by chain walking must be listed
            if space:
                start = space[0]
                for seed in range(5):
                    result = run_chain(
                        start, ChainConfig(steps=60, seed=seed, spec=spec)
                    )
                    assert canonical_form(result.final) in keys

    def test_space_nesting(self):
        small = enumerate_vertex_space(FIG_DEGREES, SpaceSpec.from_string("d"))
        big = enumerate_vertex_space(FIG_DEGREES, SDM)
        small_keys = {canonical_form(H) for H in small}
        big_keys = {canonical_form(H) for H in big}
        assert small_keys <= big_keys

    @pytest.mark.parametrize(
        "d",
        [BATTERIES[name] for name in sorted(BATTERIES)]
        + [mixed_size_degrees(random.Random(seed)) for seed in range(30)],
    )
    def test_each_class_once_in_canonical_order(self, d):
        # The slot-by-slot search keeps no dedup table, so a repeated leaf
        # would show here as a repeated key.
        for spec in ALL_SPECS:
            space = enumerate_vertex_space(d, spec)
            keys = [canonical_form(H) for H in space]
            assert keys == sorted(set(keys)), spec
            assert all(H.arcs == tuple(sorted(H.arcs)) for H in space)
            projections = {
                canonical_form(stub_state_to_hypergraph(s, d.n_vertices))
                for s in enumerate_stub_space(d, spec)
            }
            assert set(keys) == projections, spec

    def test_deterministic_order(self):
        a = enumerate_vertex_space(FIG_DEGREES, SDM)
        b = enumerate_vertex_space(FIG_DEGREES, SDM)
        assert [canonical_form(H) for H in a] == [canonical_form(H) for H in b]

    def test_limit_guard(self):
        d = DegreeSequence(
            vertex_degrees=((5, 5), (5, 5)),
            arc_degrees=((2, 2),) * 5,
        )
        with pytest.raises(EnumerationLimitError):
            enumerate_vertex_space(d, SDM, limit=16)


class TestStubSpace:
    def test_single_arc_single_state(self):
        d = DegreeSequence(vertex_degrees=((0, 1), (1, 0)), arc_degrees=((1, 1),))
        assert len(enumerate_stub_space(d, SDM)) == 1

    def test_two_in_stubs_two_states(self):
        # Arcs ({u},{w}), ({v},{w}) with d_w_in = 2: which in-stub of w
        # serves which arc gives exactly two stub-labeled states.
        d = DegreeSequence(
            vertex_degrees=((0, 1), (0, 1), (2, 0)),
            arc_degrees=((1, 1), (1, 1)),
        )
        states = enumerate_stub_space(d, SDM)
        assert len(states) == 2

    def test_partition_identity(self, rng):
        # |stub space| equals the sum of realization counts over classes.
        seen = 0
        while seen < 12:
            H = random_instance(rng, max_vertices=3, max_arcs=3, max_side=2)
            d = degree_sequence(H)
            if d.total_stubs > 10:
                continue
            seen += 1
            for features in ("", "sm", "sdm"):
                spec = SpaceSpec.from_string(features)
                stubs = enumerate_stub_space(d, spec)
                classes = enumerate_vertex_space(d, spec)
                assert len(stubs) == sum(
                    count_stub_realizations(H_k) for H_k in classes
                )

    def test_fibers_match_projection(self):
        spec = SDM
        stubs = enumerate_stub_space(FIG_DEGREES, spec)
        fibers = Counter(
            canonical_form(stub_state_to_hypergraph(s, FIG_DEGREES.n_vertices))
            for s in stubs
        )
        for H in enumerate_vertex_space(FIG_DEGREES, spec):
            assert fibers[canonical_form(H)] == count_stub_realizations(H)

    def test_feature_filter_uses_vertex_labels(self):
        # Two copies of (u -> x): a multi pair at the vertex level even
        # though all stubs are distinct.
        d = DegreeSequence(
            vertex_degrees=((0, 2), (2, 0)),
            arc_degrees=((1, 1), (1, 1)),
        )
        assert len(enumerate_stub_space(d, SDM)) == 2
        assert len(enumerate_stub_space(d, SpaceSpec.from_string(""))) == 0

    @pytest.mark.parametrize("name", sorted(BATTERIES))
    def test_matches_brute_force_on_batteries(self, name):
        d = BATTERIES[name]
        for spec in ALL_SPECS:
            assert enumerate_stub_space(d, spec) == brute_stub_space(d, spec), spec

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force_on_mixed_sizes(self, seed):
        d = mixed_size_degrees(random.Random(seed))
        for spec in ALL_SPECS:
            assert enumerate_stub_space(d, spec) == brute_stub_space(d, spec), spec

    @pytest.mark.parametrize(
        "d",
        [BATTERIES[name] for name in sorted(BATTERIES)]
        + [mixed_size_degrees(random.Random(seed)) for seed in range(30)],
    )
    def test_generator_yields_each_state_once(self, d):
        dealt = list(_stub_states(d))
        states = [state for state, _ in dealt]
        assert len(states) == len(set(states))
        assert set(states) == brute_stub_states(d)
        # Each state comes with its own vertex projection, in some arc order.
        for state, projection in dealt:
            assert sorted(projection) == sorted(map(reference_project, state))

    def test_limit_guard(self):
        d = DegreeSequence(
            vertex_degrees=((4, 4), (4, 4)),
            arc_degrees=((2, 2),) * 4,
        )
        with pytest.raises(EnumerationLimitError):
            enumerate_stub_space(d, SDM)


def stub_pools(n_stubs):
    """Sorted distinct stub pools of ``n_stubs`` stubs: packed and scattered."""
    rng = random.Random(n_stubs)
    everything = [(v, k) for v in range(5) for k in range(4)]
    pools = [tuple((v, 0) for v in range(n_stubs)), tuple(everything[:n_stubs])]
    pools += [tuple(sorted(rng.sample(everything, n_stubs))) for _ in range(3)]
    return pools


class TestStubPrimitives:
    """The stub-level helpers agree with the positional references."""

    @pytest.mark.parametrize("n_stubs", range(11))
    def test_parts_match_the_reference_in_order(self, n_stubs):
        for pool in stub_pools(n_stubs):
            for size in range(n_stubs + 1):
                assert list(_parts(pool, size)) == list(reference_parts(pool, size))

    @pytest.mark.parametrize("n_stubs", range(11))
    def test_vertices_match_the_reference(self, n_stubs):
        for pool in stub_pools(n_stubs):
            assert _vertices(pool) == reference_vertices(pool)
            assert type(_vertices(pool)) is tuple


class TestRealizationCounts:
    def test_no_stub_freedom(self):
        H = hypergraph(3, [((0,), (1,)), ((1,), (2,))])
        assert count_stub_realizations(H) == 1

    def test_two_in_stubs(self):
        H = hypergraph(3, [((0,), (2,)), ((1,), (2,))])
        assert count_stub_realizations(H) == 2

    def test_multi_pair_divides_by_factorial(self):
        # Doubled arc (u -> x): the two stub assignments coincide as arc
        # sets, so the count is 2! * 2! / 2! = 2.
        H = hypergraph(2, [((0,), (1,)), ((0,), (1,))])
        assert count_stub_realizations(H) == 2
        d = degree_sequence(H)
        assert len(enumerate_stub_space(d, SDM)) == 2

    def test_degenerate_arc_divides_by_multiplicity(self):
        H = hypergraph(2, [((0, 0), (1,)), ((0,), (1,))])
        # out-stubs of u: 3! orders, in-stubs of v: 2!; tail {u,u} divides
        # by 2!; arcs distinct.
        assert count_stub_realizations(H) == 6
        assert len(enumerate_stub_space(degree_sequence(H), SDM)) == 6
