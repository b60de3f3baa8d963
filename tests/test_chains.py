"""Exact chain analysis: matrices, chain properties, stationary behavior."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

import numpy as np
import pytest

from hypershuffle import (
    DegreeSequence,
    enumerate_stub_space,
    SpaceSpec,
    build_stub_chain,
    build_vertex_chain,
    build_vertex_chain_lumped,
    canonical_form,
    check_aperiodic,
    check_doubly_stochastic,
    check_regular,
    check_strongly_connected,
    is_exactly_uniform_stationary,
    stationary_distribution,
    tv_curve,
)
from hypershuffle import chains
from hypershuffle.chains import (
    ChainGraph,
    StateSpaceLimitError,
    chain_edge_list,
    class_components,
    tv_curve_csv,
)
from hypershuffle.enumeration import (
    _allowed,
    count_stub_realizations,
    stub_state_to_hypergraph,
)
from hypershuffle.hypergraph import ALL_FEATURE_SETS, degree_sequence
from hypershuffle.reproduce import THM1_BATTERY, THM2_BATTERY, THM4_BATTERY
from hypershuffle.validation import _degree_vectors
from conftest import (
    D1_BLOCKED,
    D1_DEGREES,
    FIG_DEGREES,
    fraction_lumped_chain,
    fraction_stub_chain,
    fraction_vertex_chain,
    random_instance,
    with_perturbed_entry,
)

SDM = SpaceSpec.from_string("sdm")

TWO_ARC_D = DegreeSequence(
    vertex_degrees=((0, 1), (0, 1), (1, 0), (1, 0)),
    arc_degrees=((1, 1), (1, 1)),
)

BATTERY = [
    FIG_DEGREES,
    D1_DEGREES,
    TWO_ARC_D,
    DegreeSequence(((1, 1), (1, 1)), ((1, 1), (1, 1))),
    DegreeSequence(((0, 2), (0, 2), (2, 0)), ((2, 1), (2, 1))),
]


class TestStubChainConstruction:
    def test_two_arc_instance_exact_row(self):
        # Arcs ({u},{x}), ({v},{y}): each stub-level repartition carries
        # C(2,2)^-1 C(2,1)^-1 C(2,1)^-1 = 1/4; the two repartitions hitting
        # the swapped state coalesce, so the off-diagonal entry is 1/2.
        g = build_stub_chain(TWO_ARC_D, SDM)
        assert g.n_states == 2
        for i in range(2):
            assert g.rows[i][i] == Fraction(1, 2)
            assert g.rows[i][1 - i] == Fraction(1, 2)

    def test_counterexample_rows_are_unit_diagonal_at_class_level(self):
        gv = build_vertex_chain(D1_DEGREES, SpaceSpec.from_string("sd", "vertex"))
        blocked = gv.keys.index(canonical_form(D1_BLOCKED))
        assert gv.rows[blocked] == {blocked: Fraction(1)}

    def test_rows_sum_to_one_exactly(self):
        for d in BATTERY:
            for features in ("", "sm", "sdm"):
                g = build_stub_chain(d, SpaceSpec.from_string(features))
                assert all(sum(row.values()) == g.denominator for row in g.numerators)

    def test_state_space_guard(self):
        with pytest.raises(StateSpaceLimitError):
            build_stub_chain(FIG_DEGREES, SDM, limit=10)


class TestChainProperties:
    def test_stub_chains_are_symmetric(self):
        for d in BATTERY:
            for features in ("sm", "sdm"):
                g = build_stub_chain(d, SpaceSpec.from_string(features))
                symmetric, witness = check_regular(g)
                assert symmetric, witness

    def test_corrupted_matrix_fails_symmetry_with_witness(self):
        g = build_stub_chain(FIG_DEGREES, SDM)
        i, j = next(
            (i, j)
            for i, row in enumerate(g.rows)
            for j in row
            if i != j and row[j] >= Fraction(1, 100)
        )
        bad = with_perturbed_entry(g, i, j, Fraction(1, 1000))
        symmetric, witness = check_regular(bad)
        assert not symmetric
        assert witness is not None

    @pytest.mark.parametrize("eps", [Fraction(-1), Fraction(0)])
    def test_perturbation_must_be_positive(self, eps):
        g = build_stub_chain(FIG_DEGREES, SDM)
        j = next(j for j in g.numerators[0] if j != 0)
        with pytest.raises(ValueError, match=f"eps must be positive, got {eps}"):
            with_perturbed_entry(g, 0, j, eps)

    @pytest.mark.parametrize("i, j", [(2, 0), (0, 2), (-1, 1), (1, -1)])
    def test_perturbation_outside_the_chain(self, i, j):
        g = build_stub_chain(TWO_ARC_D, SDM)
        with pytest.raises(ValueError, match=r"is not in the chain's 2 states"):
            with_perturbed_entry(g, i, j, Fraction(1, 8))

    def test_perturbation_larger_than_the_entry(self):
        g = build_stub_chain(TWO_ARC_D, SDM)
        with pytest.raises(ValueError, match="entry too small to perturb by eps"):
            with_perturbed_entry(g, 0, 1, Fraction(3, 4))
        bad = with_perturbed_entry(g, 0, 1, Fraction(1, 2))
        assert bad.numerators == [{0: 2}, {0: 1, 1: 1}] and bad.denominator == 2

    def test_vertex_chain_doubly_stochastic(self):
        for d in BATTERY:
            g = build_vertex_chain(d, SpaceSpec.from_string("sdm", "vertex"))
            ok, witness = check_doubly_stochastic(g)
            assert ok, witness

    def test_perturbed_vertex_chain_fails_with_a_column_witness(self):
        g = build_vertex_chain(FIG_DEGREES, SpaceSpec.from_string("sdm", "vertex"))
        i, j = next((i, j) for i, row in enumerate(g.rows) for j in row if i != j)
        bad = with_perturbed_entry(g, i, j, g.rows[i][j] / 2)
        # Column j lost mass and column i gained it; the scan meets the
        # smaller index first.  Every row still sums to 1.
        assert check_doubly_stochastic(bad) == (False, min(i, j))
        assert not is_exactly_uniform_stationary(bad)
        assert all(sum(row.values()) == bad.denominator for row in bad.numerators)

    def test_aperiodic_everywhere(self):
        for d in BATTERY:
            g = build_stub_chain(d, SDM)
            assert check_aperiodic(g)

    def test_zero_diagonal_detected(self):
        g = build_stub_chain(TWO_ARC_D, SDM)
        rows = [dict(r) for r in g.numerators]
        rows[0][1] += rows[0].pop(0)
        bad = ChainGraph(g.states, g.keys, rows, g.denominator)
        assert not check_aperiodic(bad)

    def test_single_state_space(self):
        d = DegreeSequence(vertex_degrees=((0, 1), (1, 0)), arc_degrees=((1, 1),))
        g = build_stub_chain(d, SDM)
        assert g.n_states == 1
        assert check_aperiodic(g)
        connected, comps = check_strongly_connected(g)
        assert connected and comps == [[0]]
        result = stationary_distribution(g)
        assert result.is_global and result.pi[0] == pytest.approx(1.0)
        assert tv_curve(g, 0, 5) == [0.0] * 6


class TestConnectivity:
    def test_counterexample_disconnected(self):
        g = build_stub_chain(D1_DEGREES, SpaceSpec.from_string("sd"))
        connected, comps = check_strongly_connected(g)
        assert not connected
        assert len(comps) == 2

    def test_good_spaces_connected(self):
        for d in BATTERY:
            for features in ("sm", "sdm"):
                g = build_stub_chain(d, SpaceSpec.from_string(features))
                connected, _ = check_strongly_connected(g)
                assert connected

    def test_restricted_class_connected(self):
        # tail size 1, head size 2, two tail vertices
        d = DegreeSequence(
            vertex_degrees=((0, 1), (0, 1), (1, 0), (1, 0), (1, 0), (1, 0)),
            arc_degrees=((1, 2), (1, 2)),
        )
        g = build_stub_chain(d, SpaceSpec.from_string("s"))
        connected, _ = check_strongly_connected(g)
        assert connected


def assert_class_partition(d: DegreeSequence, spec: SpaceSpec) -> int:
    """``class_components`` against the stub chain's strong components.

    Each stub state is mapped to its class through its projection; the
    images of the stub components must be the class components, in the
    same order.  The classes' realization counts must add up to the stub
    space.  Returns the number of components.
    """
    classes, components = class_components(d, spec)
    g = build_stub_chain(d, spec)
    _, stub_components = check_strongly_connected(g)
    class_of = {H.arcs: k for k, H in enumerate(classes)}
    image = sorted(
        sorted({class_of[stub_state_to_hypergraph(g.states[s], d.n_vertices).arcs]
                for s in comp})
        for comp in stub_components
    )
    assert image == components, (d, spec)
    assert sum(map(count_stub_realizations, classes)) == g.n_states, (d, spec)
    return len(components)


def mixed_degrees(seed: int):
    """A random degree sequence of at most 10 stubs with two arc sizes or more."""
    rng = random.Random(seed)
    while True:
        d = degree_sequence(random_instance(rng, max_vertices=4, max_arcs=4, max_side=2))
        if d.total_stubs <= 10 and len(set(d.arc_degrees)) > 1:
            return d


BATTERY_DEGREES = {
    name: d for name, d in THM1_BATTERY + THM2_BATTERY + THM4_BATTERY
}


class TestClassComponents:
    """The support-only oracle against ``build_stub_chain``, partition by partition."""

    @pytest.mark.parametrize("d", BATTERY_DEGREES.values(), ids=BATTERY_DEGREES.keys())
    def test_batteries(self, d):
        for features in ALL_FEATURE_SETS:
            assert_class_partition(d, SpaceSpec.from_string(features))

    def test_three_tail_pairs(self):
        assert assert_class_partition(D1_DEGREES, SpaceSpec.from_string("sd")) == 2
        assert assert_class_partition(D1_DEGREES, SpaceSpec.from_string("sdm")) == 1

    # With every arc (1,1) no arc is degenerate, so adding ``d`` changes no
    # space.  Disconnected sequences per space, of 2,169 with 1-4 vertices
    # and 1-4 arcs.
    @pytest.mark.parametrize("features, disconnected",
                             [("", 5), ("m", 35), ("s", 0), ("sm", 0)])
    def test_every_small_digraph_sequence(self, features, disconnected):
        spec = SpaceSpec.from_string(features)
        found = 0
        for n in range(1, 5):
            for k in range(1, 5):
                for in_deg in _degree_vectors(n, k):
                    for out_deg in _degree_vectors(n, k):
                        d = DegreeSequence(tuple(zip(in_deg, out_deg)), ((1, 1),) * k)
                        found += assert_class_partition(d, spec) > 1
        assert found == disconnected

    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_size_sequences(self, seed):
        d = mixed_degrees(8300 + seed)
        for features in ALL_FEATURE_SETS:
            stub = SpaceSpec.from_string(features, "stub")
            assert_class_partition(d, stub)
            # The vertex chain lists the same classes in the same order.
            vertex = SpaceSpec.from_string(features, "vertex")
            _, components = class_components(d, vertex)
            assert check_strongly_connected(build_vertex_chain(d, vertex))[1] == components

    def test_empty_space_has_no_component(self):
        # The one arc these degrees allow is degenerate.
        d = DegreeSequence(((0, 2), (1, 0)), ((2, 1),))
        assert class_components(d, SpaceSpec.from_string("")) == ([], [])

    # Spaces that reject moves, recorded before the oracle took the class
    # list as the in-space test.
    @pytest.mark.parametrize("d, features, n_classes, partition", [
        (D1_DEGREES, "sd", 2, [[0], [1]]),
        (FIG_DEGREES, "", 4, [[0, 1, 2, 3]]),
    ], ids=["three-tail-pairs-sd", "worked-example-none"])
    def test_pinned_partitions(self, d, features, n_classes, partition):
        for labeling in ("stub", "vertex"):
            spec = SpaceSpec.from_string(features, labeling)
            classes, components = class_components(d, spec)
            assert len(classes) == n_classes
            assert components == partition


class TestStationary:
    def test_uniform_exact_and_by_power_iteration(self):
        for d in BATTERY[:3]:
            g = build_stub_chain(d, SDM)
            assert is_exactly_uniform_stationary(g)
            result = stationary_distribution(g)
            assert result.is_global
            assert np.max(np.abs(result.pi - 1.0 / g.n_states)) < 1e-10

    def test_reducible_chain_reports_components(self):
        g = build_stub_chain(D1_DEGREES, SpaceSpec.from_string("sd"))
        result = stationary_distribution(g)
        assert not result.is_global
        assert len(result.components) == 2
        for members, pi in result.components:
            assert pi.sum() == pytest.approx(1.0)

    def test_counterexample_tv_stays_away_from_zero(self):
        gv = build_vertex_chain(D1_DEGREES, SpaceSpec.from_string("sd", "vertex"))
        blocked = gv.keys.index(canonical_form(D1_BLOCKED))
        curve = tv_curve(gv, blocked, 50)
        assert all(value == pytest.approx(curve[0]) for value in curve)
        assert curve[0] >= 0.25

    @pytest.mark.parametrize("start", [-1, 2])
    def test_tv_curve_rejects_a_start_outside_the_chain(self, start):
        g = build_stub_chain(TWO_ARC_D, SDM)
        with pytest.raises(ValueError, match="not one of the chain's 2 states"):
            tv_curve(g, start, 5)

    def test_tv_curve_decays_on_connected_chain(self):
        g = build_stub_chain(FIG_DEGREES, SDM)
        curve = tv_curve(g, 0, 200)
        assert curve[0] > 0.9
        assert curve[-1] < 1e-6


class TestVertexRoutes:
    def test_direct_equals_lumped(self):
        for d in BATTERY:
            spec = SpaceSpec.from_string("sdm", "vertex")
            direct = build_vertex_chain(d, spec)
            lumped = build_vertex_chain_lumped(d, spec)
            assert direct.keys == lumped.keys
            assert direct.rows == lumped.rows

    def test_direct_equals_lumped_restricted_space(self):
        spec = SpaceSpec.from_string("sm", "vertex")
        direct = build_vertex_chain(FIG_DEGREES, spec)
        lumped = build_vertex_chain_lumped(FIG_DEGREES, spec)
        assert direct.keys == lumped.keys
        assert direct.rows == lumped.rows

    @pytest.mark.parametrize(
        "d",
        [
            DegreeSequence(((2, 3), (2, 1)), ((1, 1), (2, 2), (1, 1))),
            DegreeSequence(((2, 3), (1, 3), (1, 0)), ((2, 1), (2, 2), (2, 1))),
        ],
    )
    def test_direct_equals_lumped_when_stub_order_differs(self, d):
        # Sorting arcs by stubs and by vertices disagrees here: stub tails
        # ((0,0),(1,0)) and ((0,1),(0,2)) sort in that order, their vertex
        # tails (0,1) and (0,0) the other way.  Alpha must read the selected
        # arcs in the stub state's order.
        spec = SpaceSpec.from_string("sdm", "vertex")
        direct = build_vertex_chain(d, spec)
        lumped = build_vertex_chain_lumped(d, spec)
        assert direct.keys == lumped.keys
        assert direct.rows == lumped.rows

    def test_naive_alpha_breaks_uniformity_on_multi_instance(self):
        # Applying the two-distinct-arcs formula to identical selections
        # skews the stationary law toward realization-rich classes; the
        # corrected thinning keeps the chain doubly stochastic.  This pins
        # the need for the identical-arc cases.
        from hypershuffle import hypergraph

        d = DegreeSequence(((0, 2), (0, 2), (2, 0)), ((2, 1), (2, 1)))
        g = build_vertex_chain(d, SpaceSpec.from_string("sdm", "vertex"))
        ok, _ = check_doubly_stochastic(g)
        assert ok
        mult_key = canonical_form(hypergraph(3, [((0, 1), (2,)), ((0, 1), (2,))]))
        deg_key = canonical_form(hypergraph(3, [((0, 0), (2,)), ((1, 1), (2,))]))
        i, j = g.keys.index(mult_key), g.keys.index(deg_key)
        assert g.rows[i][j] == g.rows[j][i] == Fraction(1, 6)


# SHA-256 of chain_edge_list, recorded before the stub oracles generated one
# state per orbit and memoised feature verdicts; the exact rows must not move.
THM2 = dict(THM2_BATTERY)
EDGE_LIST_PINS = [
    ("worked-example", FIG_DEGREES, "sdm", build_stub_chain,
     "af00e4b15c9bbecf8ecb07865c17370737ffe169af30ba0c9014dc33e9c24acb"),
    ("worked-example", FIG_DEGREES, "sm", build_stub_chain,
     "fc6577602c45ee0fa02b1f08185dc688c395aee06ea7998801e08cc6884bd315"),
    ("three-tail-pairs", D1_DEGREES, "sd", build_stub_chain,
     "6e1b0034a987c0d6b9d59240be1e7997bdd55398b351094f46656bc5f7582358"),
    ("two-tails-three-arcs", THM2["two-tails-three-arcs"], "s", build_stub_chain,
     "0013b8ec5413baa857429b154db600acf70d19ebb56776ab7b299aaf800dbd8c"),
    ("lopsided-heads", THM2["lopsided-heads"], "s", build_stub_chain,
     "5e36d1de7259debe9c0f9b43d3e866129f79c3554ae0f0fcb41b2d86b4f7ac60"),
    ("worked-example-lumped", FIG_DEGREES, "sdm", build_vertex_chain_lumped,
     "42a09476bb2778488168a3d5cf29a9fe214315503db2ee77e9fbcf04220f07a1"),
    # Vertex chains in spaces that reject moves, recorded before the builders
    # took the state list as the in-space test.
    ("three-tail-pairs-vertex", D1_DEGREES, "sd", build_vertex_chain,
     "c4e640b626fe0471cc3f49640622205be0bbf4ffd7d7f17f0fa8826dd0a8793e"),
    ("worked-example-vertex", FIG_DEGREES, "", build_vertex_chain,
     "5cf2bbfc43c50602f7fb198fd9d0c377e7394c8a659ba876bf7e2a1a853bb1be"),
]


@pytest.mark.parametrize(
    "d, features, build, digest",
    [case[1:] for case in EDGE_LIST_PINS],
    ids=[f"{case[0]}-{case[2]}" for case in EDGE_LIST_PINS],
)
def test_chain_edge_list_pins(d, features, build, digest):
    labeling = "stub" if build is build_stub_chain else "vertex"
    g = build(d, SpaceSpec.from_string(features, labeling))
    text = chain_edge_list(g)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


def assert_matches_oracle(build, oracle, d, spec):
    """Same keys and exact rows as the oracle, over the least denominator."""
    g = build(d, spec)
    keys, rows = oracle(d, spec)
    assert g.keys == keys
    assert g.rows == rows
    assert gcd(g.denominator, *(p for row in g.numerators for p in row.values())) == 1


VERTEX_ROUTES = [
    (build_vertex_chain, fraction_vertex_chain),
    (build_vertex_chain_lumped, fraction_lumped_chain),
]


def small_degrees(seed: int):
    """A random degree sequence of at most 9 stubs, from ``random_instance``."""
    rng = random.Random(seed)
    while True:
        H = random_instance(rng, max_vertices=3, max_arcs=3, max_side=2)
        if degree_sequence(H).total_stubs <= 9:
            return degree_sequence(H)


def size(arc) -> tuple[int, int]:
    return len(arc[0]), len(arc[1])


def pair_blocks(states) -> dict:
    """Per ``others``, the slot sizes of the pair beside it, in state order."""
    blocks: dict = {}
    for state in states:
        for i, j in combinations(range(len(state)), 2):
            others = state[:i] + state[i + 1 : j] + state[j + 1 :]
            blocks.setdefault(others, set()).add((size(state[i]), size(state[j])))
    return blocks


def block_degrees(seed: int) -> DegreeSequence:
    """A random degree sequence of 10-12 stubs in 2-3 arcs of sides 1-3.

    Its slots come in two sizes or more, and some pair block of its stub
    space is reached with the two slot sizes in both orders.  The space has
    at most 450 states, to keep the ``Fraction`` oracle quick.
    """
    rng = random.Random(seed)
    while True:
        arcs = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
        if not 10 <= sum(map(sum, arcs)) <= 12 or len(set(arcs)) < 2:
            continue
        n = rng.randint(2, 4)
        d_out, d_in = [0] * n, [0] * n
        for _ in range(sum(t for t, _ in arcs)):
            d_out[rng.randrange(n)] += 1
        for _ in range(sum(h for _, h in arcs)):
            d_in[rng.randrange(n)] += 1
        d = DegreeSequence(tuple(zip(d_in, d_out)), tuple(arcs))
        states = enumerate_stub_space(d, SDM)
        if len(states) <= 450 and any(
            len(orders) > 1 for orders in pair_blocks(states).values()
        ):
            return d


def count_deals(monkeypatch) -> list[int]:
    """Record, per block ``build_stub_chain`` deals, its number of repartitions.

    A block deals its tail splits times its head splits as one ``product``;
    nothing else in ``build_stub_chain`` calls it.
    """
    deals: list[int] = []

    def counted(*splits):
        deals.append(len(splits[0]) * len(splits[1]))
        return product(*splits)

    monkeypatch.setattr(chains, "product", counted)
    return deals


def count_allowed(monkeypatch) -> Counter:
    """Count the feature verdicts ``chains`` asks for, by answer."""
    calls: Counter = Counter()

    def counted(*args):
        verdict = _allowed(*args)
        calls[verdict] += 1
        return verdict

    monkeypatch.setattr(chains, "_allowed", counted)
    return calls


# Four (1,1) arcs: others of two arcs with the same stubs can pair them
# differently, so stub pools alone do not name a block.
FOUR_EDGES = DegreeSequence(((1, 2), (2, 1), (1, 1)), ((1, 1),) * 4)
TWO_SIZES_D = DegreeSequence(((0, 2), (1, 1), (2, 0)), ((1, 2), (2, 1)))


class TestPairBlocks:
    """``build_stub_chain`` lists each pair block once, keyed by ``others``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_swapped_slot_sizes_match_oracle(self, seed):
        d = block_degrees(8500 + seed)
        for features in ALL_FEATURE_SETS:
            spec = SpaceSpec.from_string(features, "stub")
            assert_matches_oracle(build_stub_chain, fraction_stub_chain, d, spec)

    @pytest.mark.parametrize("features", ["sdm", ""])
    def test_two_arc_chain_is_one_block(self, features, monkeypatch):
        # Every state holds the same, empty, others: each row is the one
        # block's moves plus its own stay, so each column is one positive
        # value off the diagonal.
        deals = count_deals(monkeypatch)
        spec = SpaceSpec.from_string(features)
        assert_matches_oracle(build_stub_chain, fraction_stub_chain, TWO_SIZES_D, spec)
        g = build_stub_chain(TWO_SIZES_D, spec)
        assert g.n_states > 2
        for t in range(g.n_states):
            column = {row.get(t, 0) for s, row in enumerate(g.numerators) if s != t}
            assert len(column) == 1 and column.pop() > 0
        # Two builds, each dealing the one block's C(3,1) C(3,2) repartitions once.
        assert deals == [9, 9]

    @pytest.mark.parametrize(
        "d, features",
        [(D1_DEGREES, "sd"), (FIG_DEGREES, ""), (FOUR_EDGES, "m"), (TWO_SIZES_D, "")],
    )
    def test_space_with_rejections(self, d, features, monkeypatch):
        # Rejected deals stay on each member's own diagonal.
        calls = count_allowed(monkeypatch)
        spec = SpaceSpec.from_string(features)
        assert_matches_oracle(build_stub_chain, fraction_stub_chain, d, spec)
        assert calls[False] > 0
        g = build_stub_chain(d, spec)
        assert check_regular(g)[0]

    @pytest.mark.parametrize(
        "d", [TWO_ARC_D, TWO_SIZES_D, FIG_DEGREES, D1_DEGREES, FOUR_EDGES,
              block_degrees(8500)],
    )
    def test_targets_listed_once_per_distinct_others(self, d, monkeypatch):
        # A block deals C(|tail pool|, ta) C(|head pool|, ha) repartitions,
        # once per build.
        g = build_stub_chain(d, SDM)
        expected = {}
        for state in g.states:
            for i, j in combinations(range(len(state)), 2):
                others = state[:i] + state[i + 1 : j] + state[j + 1 :]
                (ta, ha), (tb, hb) = size(state[i]), size(state[j])
                expected[others] = comb(ta + tb, ta) * comb(ha + hb, ha)
        deals = count_deals(monkeypatch)
        build_stub_chain(d, SDM)
        assert Counter(deals) == Counter(expected.values())


def drop_first_state(monkeypatch, name: str, key) -> None:
    """Make ``chains``' enumerator ``name`` drop its first state.

    Every state with the first one's ``key`` goes, so the lumped route,
    whose states are the projections of stub states, loses one class.
    """
    enumerate_space = getattr(chains, name)

    def dropped(d, spec):
        states = enumerate_space(d, spec)
        return [s for s in states if key(s) != key(states[0])]

    monkeypatch.setattr(chains, name, dropped)


def fig_class(state) -> bytes:
    """The canonical form of a worked-example stub state's class."""
    return canonical_form(stub_state_to_hypergraph(state, FIG_DEGREES.n_vertices))


# Per reader: the builder, the enumerator it reads, and a state's identity.
READERS = {
    "stub": (build_stub_chain, "enumerate_stub_space", lambda state: state),
    "vertex": (build_vertex_chain, "enumerate_vertex_space", canonical_form),
    "lumped": (build_vertex_chain_lumped, "enumerate_stub_space", fig_class),
    "components": (class_components, "enumerate_vertex_space", canonical_form),
}


class TestStateListIsTheSpace:
    """Each exact reader takes its state list as the space, and checks it."""

    @pytest.mark.parametrize("features", ["sdm", ""])
    @pytest.mark.parametrize("reader", READERS)
    def test_dropped_allowed_state_raises(self, reader, features, monkeypatch):
        # A move into the dropped state misses the list, and the feature
        # verdict, taken on a miss, allows it.
        build, name, key = READERS[reader]
        spec = SpaceSpec.from_string(features)
        build(FIG_DEGREES, spec)
        drop_first_state(monkeypatch, name, key)
        with pytest.raises(AssertionError, match="one-shuffle target missing"):
            build(FIG_DEGREES, spec)


class TestIntegerRowsMatchFractionOracle:
    """Integer builders against the ``Fraction``-accumulating ones in conftest."""

    @pytest.mark.parametrize("d", [d for _, d in THM1_BATTERY],
                             ids=[name for name, _ in THM1_BATTERY])
    def test_thm1_battery(self, d):
        for features in ("sdm", "sm"):
            spec = SpaceSpec.from_string(features)
            assert_matches_oracle(build_stub_chain, fraction_stub_chain, d, spec)

    @pytest.mark.parametrize("d", [d for _, d in THM4_BATTERY],
                             ids=[name for name, _ in THM4_BATTERY])
    def test_thm4_battery(self, d):
        spec = SpaceSpec.from_string("sdm", "vertex")
        for build, oracle in VERTEX_ROUTES:
            assert_matches_oracle(build, oracle, d, spec)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_degree_sequences(self, seed):
        d = small_degrees(8100 + seed)
        for features in ALL_FEATURE_SETS:
            stub = SpaceSpec.from_string(features, "stub")
            assert_matches_oracle(build_stub_chain, fraction_stub_chain, d, stub)
            vertex = SpaceSpec.from_string(features, "vertex")
            for build, oracle in VERTEX_ROUTES:
                assert_matches_oracle(build, oracle, d, vertex)

    # Two arcs of these can coincide, so every space without ``m`` has
    # moves into multi-arcs to reject.
    @pytest.mark.parametrize("name", ["worked-example", "three-tail-pairs",
                                      "degenerate-vs-multi", "four-edges"])
    def test_multi_arc_instances(self, name):
        d = {**BATTERY_DEGREES, "four-edges": FOUR_EDGES}[name]
        for features in ALL_FEATURE_SETS:
            stub = SpaceSpec.from_string(features)
            assert_matches_oracle(build_stub_chain, fraction_stub_chain, d, stub)
            vertex = SpaceSpec.from_string(features, "vertex")
            for build, oracle in VERTEX_ROUTES:
                assert_matches_oracle(build, oracle, d, vertex)

    def test_scaled_rows_give_the_same_integers(self):
        vertex = SpaceSpec.from_string("sdm", "vertex")
        stub_chain = build_stub_chain(FIG_DEGREES, SDM)
        for g in (stub_chain, build_vertex_chain(FIG_DEGREES, vertex)):
            for k in (2, 6, 35):
                rows = [{j: k * p for j, p in row.items()} for row in g.numerators]
                again = ChainGraph(g.states, g.keys, rows, k * g.denominator)
                assert again.numerators == g.numerators
                assert again.denominator == g.denominator

    def test_row_off_its_denominator_raises(self):
        g = build_stub_chain(TWO_ARC_D, SDM)
        rows = [dict(r) for r in g.numerators]
        rows[1][0] += 1
        with pytest.raises(AssertionError, match="row 1 sums to 3/2, not 1"):
            ChainGraph(g.states, g.keys, rows, g.denominator)

    def test_negative_numerator_raises(self):
        # The row sums to its denominator, so only the sign check sees it.
        rows = [{0: 2, 1: -1}, {1: 1}]
        with pytest.raises(AssertionError, match="row 0 has a negative entry in column 1"):
            ChainGraph(["a", "b"], [b"a", b"b"], rows, 1)

    def test_empty_space_has_denominator_one(self):
        # The one arc these degrees allow is degenerate.
        d = DegreeSequence(((0, 2), (1, 0)), ((2, 1),))
        g = build_stub_chain(d, SpaceSpec.from_string(""))
        assert g.n_states == 0 and g.denominator == 1


class TestExports:
    def test_edge_list_format(self):
        g = build_stub_chain(TWO_ARC_D, SDM)
        text = chain_edge_list(g)
        assert "0 0 1/2" in text
        assert "0 1 1/2" in text

    def test_tv_csv(self):
        text = tv_curve_csv([0.5, 0.25])
        assert text.splitlines()[0] == "step,tv"
        assert text.splitlines()[1] == "0,0.5"


class TestResultsTable:
    """Connectivity verdicts across all eight feature sets.

    The two all-friendly rows (features containing s and m) must always be
    connected; the restricted single-tail class must be connected in {s};
    the designated counterexamples must reproduce their negative verdicts.
    No universal claim is asserted for the remaining rows.
    """

    def test_yes_rows_never_contradicted(self):
        for d in BATTERY:
            for features in ("sm", "sdm"):
                g = build_stub_chain(d, SpaceSpec.from_string(features))
                connected, _ = check_strongly_connected(g)
                assert connected, (d, features)

    def test_symmetry_holds_on_every_feature_set(self):
        # Regularity of the stub kernel does not depend on which features
        # are forbidden: rejection folds mass onto the diagonal only.
        for d in BATTERY:
            for features in ("", "s", "d", "m", "sd", "sm", "dm", "sdm"):
                g = build_stub_chain(d, SpaceSpec.from_string(features))
                symmetric, witness = check_regular(g)
                assert symmetric, (d, features, witness)
                assert all(sum(row.values()) == g.denominator for row in g.numerators)

    def test_no_rows_have_witnesses(self):
        from hypershuffle.reproduce import D1_DEGREES as d1

        g = build_stub_chain(d1, SpaceSpec.from_string("sd"))
        connected, _ = check_strongly_connected(g)
        assert not connected
        # the all-size-one reduction disconnects the four no-self-loop rows
        three_cycle = DegreeSequence(
            vertex_degrees=((1, 1), (1, 1), (1, 1)),
            arc_degrees=((1, 1), (1, 1), (1, 1)),
        )
        for features in ("", "d", "m", "dm"):
            g = build_stub_chain(three_cycle, SpaceSpec.from_string(features))
            connected, comps = check_strongly_connected(g)
            assert not connected and len(comps) >= 2
