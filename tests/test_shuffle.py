"""Shuffle kernel: proposals, rejection, acceptance probability, chains."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypershuffle import (
    ChainConfig,
    ChainConfigError,
    ProposalError,
    ShuffleProposal,
    SpaceSpec,
    acceptance_probability,
    apply_shuffle,
    canonical_form,
    classify_features,
    degree_sequence,
    hypergraph,
    in_space,
    proposal_probability,
    propose,
    run_chain,
    spawn_seed,
    step,
)
from hypershuffle.hypergraph import ALL_FEATURE_SETS
from hypershuffle.shuffle import _draw_split, _split_at, _split_weight, reverse_proposal
from conftest import (
    D1_BLOCKED,
    TWO_ARC_DISTINCT,
    WORKED_EXAMPLE,
    count_stub_outcomes_in_class,
    random_instance,
)

SDM = SpaceSpec.from_string("sdm")


class TestPropose:
    def test_two_arc_proposals_are_uniform_quarters(self):
        # Two arcs ({u},{x}), ({v},{y}): C(2,1)*C(2,1) = 4 stub-level
        # proposals, each with probability 1/4; vertex-level results are
        # identity, tails swapped, heads swapped, both swapped.
        H = TWO_ARC_DISTINCT
        rng = random.Random(11)
        seen = Counter()
        trials = 40000
        for _ in range(trials):
            p = propose(H, rng)
            assert proposal_probability(H, p) == Fraction(1, 4)
            seen[(p.new_tail_i, p.new_head_i)] += 1
        assert set(seen) == {
            ((0,), (2,)),
            ((0,), (3,)),
            ((1,), (2,)),
            ((1,), (3,)),
        }
        for count in seen.values():
            # binomial bound: p=1/4, 4 sigma
            sigma = sqrt(0.25 * 0.75 * trials)
            assert abs(count - trials / 4) < 4 * sigma

    def test_identical_pooled_tails_are_deterministic_at_vertex_level(self):
        H = hypergraph(3, [((0,), (1,)), ((0,), (2,))])
        rng = random.Random(3)
        for _ in range(200):
            p = propose(H, rng)
            assert p.new_tail_i == (0,)
            assert p.new_tail_j == (0,)

    def test_pair_choice_uniform_on_three_arcs(self):
        H = hypergraph(3, [((0,), (1,)), ((1,), (2,)), ((2,), (0,))])
        rng = random.Random(17)
        trials = 1_000_000
        seen = Counter()
        for _ in range(trials):
            p = propose(H, rng)
            seen[(p.arc_i, p.arc_j)] += 1
        assert set(seen) == {(0, 1), (0, 2), (1, 2)}
        sigma = sqrt((1 / 3) * (2 / 3) * trials)
        for count in seen.values():
            assert abs(count - trials / 3) < 3 * sigma

    def test_single_arc_raises(self):
        H = hypergraph(2, [((0,), (1,))])
        with pytest.raises(ProposalError):
            propose(H, random.Random(0))

    def test_degree_sizes_stay_attached_to_slots(self, rng):
        for _ in range(300):
            H = random_instance(rng)
            p = propose(H, rng)
            (t_i, h_i), (t_j, h_j) = H.arcs[p.arc_i], H.arcs[p.arc_j]
            assert len(p.new_tail_i) == len(t_i)
            assert len(p.new_tail_j) == len(t_j)
            assert len(p.new_head_i) == len(h_i)
            assert len(p.new_head_j) == len(h_j)
            assert sorted(p.new_tail_i + p.new_tail_j) == sorted(t_i + t_j)
            assert sorted(p.new_head_i + p.new_head_j) == sorted(h_i + h_j)


class TestApply:
    def test_blocked_counterexample_never_moves(self):
        # Mixing two doubled tails yields a multi pair, forbidden in {s,d}.
        spec = SpaceSpec.from_string("sd")
        rng = random.Random(23)
        key = canonical_form(D1_BLOCKED)
        for _ in range(2000):
            p = propose(D1_BLOCKED, rng)
            H2, accepted = apply_shuffle(D1_BLOCKED, p, spec)
            assert canonical_form(H2) == key

    def test_identity_proposal_is_accepted(self):
        H = TWO_ARC_DISTINCT
        p = ShuffleProposal(0, 1, (0,), (2,), (1,), (3,))
        H2, accepted = apply_shuffle(H, p, SpaceSpec.from_string(""))
        assert accepted
        assert H2.arcs == H.arcs

    def test_degrees_preserved_by_any_step(self, rng):
        for _ in range(200):
            H = random_instance(rng)
            d = degree_sequence(H)
            p = propose(H, rng)
            H2, _ = apply_shuffle(H, p, SDM)
            assert degree_sequence(H2).compatible_with(d)

    def test_rejection_returns_same_object(self):
        spec = SpaceSpec.from_string("sd")
        p = ShuffleProposal(0, 1, (0, 1), (3,), (0, 1), (3,))
        H2, accepted = apply_shuffle(D1_BLOCKED, p, spec)
        assert not accepted
        assert H2 is D1_BLOCKED


class TestAcceptanceProbability:
    def test_all_distinct_gives_one(self):
        H = TWO_ARC_DISTINCT
        p = ShuffleProposal(0, 1, (0,), (2,), (1,), (3,))
        assert acceptance_probability(H, p) == 1

    def test_shared_head_vertex_gives_half(self):
        # Result heads {v,w} and {v,u}: vertex v contributes C(2,1) = 2.
        H = hypergraph(5, [((0,), (2, 3)), ((1,), (2, 4))])
        p = ShuffleProposal(0, 1, (0,), (2, 3), (1,), (2, 4))
        assert acceptance_probability(H, p) == Fraction(1, 2)

    def test_reciprocal_is_a_positive_integer(self, rng):
        for _ in range(300):
            H = random_instance(rng)
            p = propose(H, rng)
            alpha = acceptance_probability(H, p)
            assert 0 < alpha <= 1
            assert (1 / alpha).denominator == 1

    def test_generic_case_matches_multiplicity_binomial_formula(self, rng):
        # When selected arcs differ and resulting arcs differ, the value is
        # (m_a m_b)^-1 times the inverse product of per-vertex binomials,
        # so 1/(m_a m_b alpha) is exactly that integer product.
        from math import comb

        checked = 0
        while checked < 200:
            H = random_instance(rng)
            p = propose(H, rng)
            a, b = H.arcs[p.arc_i], H.arcs[p.arc_j]
            res_a = (p.new_tail_i, p.new_head_i)
            res_b = (p.new_tail_j, p.new_head_j)
            if a == b or res_a == res_b:
                continue
            checked += 1
            m_a = H.arcs.count(a)
            m_b = H.arcs.count(b)
            weight = 1
            for side in (0, 1):
                for v in set(res_a[side] + res_b[side]):
                    ca = res_a[side].count(v)
                    cb = res_b[side].count(v)
                    weight *= comb(ca + cb, ca)
            alpha = acceptance_probability(H, p)
            assert Fraction(1, m_a * m_b * weight) == alpha

    def test_matches_brute_force_outcome_count(self, rng):
        # The defining property: for a class-changing proposal, alpha is the
        # reciprocal of the number of stub-labeled one-shuffle outcomes
        # landing in the target class.  Class-preserving proposals stay put
        # whether accepted or rejected, so only sanity is asserted there.
        checked = 0
        while checked < 120:
            H = random_instance(rng, max_vertices=3, max_arcs=3, max_side=2)
            p = propose(H, rng)
            alpha = acceptance_probability(H, p)
            new_arcs = list(H.arcs)
            new_arcs[p.arc_i] = (p.new_tail_i, p.new_head_i)
            new_arcs[p.arc_j] = (p.new_tail_j, p.new_head_j)
            target = H.replace_arcs(new_arcs)
            if canonical_form(target) == canonical_form(H):
                assert 0 < alpha <= 1
                continue
            outcomes = count_stub_outcomes_in_class(H, p)
            assert alpha == Fraction(1, outcomes)
            checked += 1

    def test_identical_selected_arcs_cases(self):
        # Two copies of ({u,v},{x}); splitting into ({u,u},{x}),({v,v},{x})
        # is reachable as one class from C(2,2) pair choices and collapses
        # complementary repartitions, giving 1/2 rather than the naive 1/8.
        H = hypergraph(3, [((0, 1), (2,)), ((0, 1), (2,))])
        p = ShuffleProposal(0, 1, (0, 0), (2,), (1, 1), (2,))
        assert acceptance_probability(H, p) == Fraction(1, 2)
        assert count_stub_outcomes_in_class(H, p) == 2

    def test_identical_result_arcs_cases(self):
        H = hypergraph(3, [((0, 0), (2,)), ((1, 1), (2,))])
        p = ShuffleProposal(0, 1, (0, 1), (2,), (0, 1), (2,))
        assert acceptance_probability(H, p) == Fraction(1, 4)
        assert count_stub_outcomes_in_class(H, p) == 4


class TestStepAndChain:
    def test_zero_steps_returns_start(self):
        config = ChainConfig(steps=0, seed=1, spec=SDM)
        result = run_chain(TWO_ARC_DISTINCT, config)
        assert result.final.arcs == TWO_ARC_DISTINCT.arcs

    def test_blocked_start_is_frozen_for_any_k(self):
        spec = SpaceSpec.from_string("sd")
        key = canonical_form(D1_BLOCKED)
        for seed in (1, 2, 3):
            config = ChainConfig(steps=400, seed=seed, spec=spec, record_trace=True)
            result = run_chain(D1_BLOCKED, config)
            assert canonical_form(result.final) == key
            assert set(result.trace) == {key}

    def test_closure_every_visited_state_in_space(self, rng):
        for features in ("", "s", "sm", "sdm"):
            spec = SpaceSpec.from_string(features)
            found = None
            for _ in range(200):
                H = random_instance(rng)
                if H.n_arcs >= 2 and in_space(H, spec, degree_sequence(H)):
                    found = H
                    break
            assert found is not None
            d = degree_sequence(found)
            chain_rng = random.Random(99)
            H = found
            for _ in range(300):
                H = step(H, spec, chain_rng)
                assert in_space(H, spec, d)

    def test_reproducible_traces(self):
        config = ChainConfig(steps=250, seed=777, spec=SDM, record_trace=True)
        r1 = run_chain(TWO_ARC_DISTINCT, config)
        r2 = run_chain(TWO_ARC_DISTINCT, config)
        assert r1.trace == r2.trace
        other = run_chain(
            TWO_ARC_DISTINCT,
            ChainConfig(steps=250, seed=778, spec=SDM, record_trace=True),
        )
        assert other.trace != r1.trace

    def test_start_outside_space_is_an_error(self):
        spec = SpaceSpec.from_string("")  # D1_BLOCKED has degenerate arcs
        with pytest.raises(ChainConfigError):
            run_chain(D1_BLOCKED, ChainConfig(steps=10, seed=0, spec=spec))

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            ChainConfig(steps=-1, seed=0, spec=SDM)

    # A float was accepted and then failed inside ``range``; a string
    # raised a bare TypeError from ``<``.
    @pytest.mark.parametrize("steps", [1.5, "3", None], ids=["float", "str", "none"])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer"):
            ChainConfig(steps=steps, seed=0, spec=SDM)

    @pytest.mark.parametrize("steps", [np.int64(7), True], ids=["int64", "bool"])
    def test_integer_like_steps_accepted(self, steps):
        config = ChainConfig(steps=steps, seed=5, spec=SDM)
        assert type(config.steps) is int
        run = run_chain(WORKED_EXAMPLE, config)
        same = run_chain(WORKED_EXAMPLE, ChainConfig(steps=int(steps), seed=5, spec=SDM))
        assert run.final == same.final

    def test_vertex_mode_rejection_keeps_state(self):
        # Force alpha rejection by conditioning on a seed that rejects.
        H = hypergraph(3, [((0, 1), (2,)), ((0, 1), (2,))])
        spec = SpaceSpec.from_string("sdm", "vertex")
        seen_stay = False
        seen_move = False
        rng = random.Random(4)
        for _ in range(500):
            H2 = step(H, spec, rng)
            if canonical_form(H2) == canonical_form(H):
                seen_stay = True
            else:
                seen_move = True
        assert seen_stay and seen_move


class TestReversibility:
    def test_reverse_repartition_has_equal_probability(self, rng):
        for _ in range(300):
            H = random_instance(rng, max_arcs=3)
            p = propose(H, rng)
            H2, back = reverse_proposal(H, p)
            assert proposal_probability(H, p) == proposal_probability(H2, back)
            H3, accepted = apply_shuffle(H2, back, SDM)
            assert accepted
            assert canonical_form(H3) == canonical_form(H)


def test_spawn_seed_is_stable():
    assert spawn_seed(7, 0) == spawn_seed(7, 0)
    assert spawn_seed(7, 0) != spawn_seed(7, 1)
    assert spawn_seed(8, 0) != spawn_seed(7, 0)


def test_alpha_is_one_for_disjoint_simple_results(rng):
    # Multiplicity-1 pair, non-degenerate results, no vertex shared on the
    # same side: every binomial is trivial and the thinning vanishes.
    from collections import Counter as _Counter

    checked = 0
    while checked < 150:
        H = random_instance(rng)
        p = propose(H, rng)
        a, b = H.arcs[p.arc_i], H.arcs[p.arc_j]
        if H.arcs.count(a) != 1 or H.arcs.count(b) != 1:
            continue
        res_a = (p.new_tail_i, p.new_head_i)
        res_b = (p.new_tail_j, p.new_head_j)
        degenerate = any(
            side.count(v) > 1 for arc_ in (res_a, res_b) for side in arc_ for v in side
        )
        shared = (set(res_a[0]) & set(res_b[0])) or (set(res_a[1]) & set(res_b[1]))
        if degenerate or shared:
            continue
        assert acceptance_probability(H, p) == 1
        checked += 1


# ---------------------------------------------------------------------------
# Fixed-seed pins.  Each digest is the SHA-256 of a recorded trace (canonical
# forms joined by newlines), taken from the reference implementation before
# the chain runner kept its own incremental state.  Any change to the draw
# order, the feature checks or the acceptance decision changes a digest.

README_EXAMPLE = hypergraph(3, [((1, 1), (0,)), ((0,), (2,)), ((2,), (0,))])


def _forty_arc_instance():
    """40 arcs on 30 vertices with no self-loop, degenerate arc or multi-arc."""
    rng = random.Random(4040)
    arcs, seen = [], set()
    while len(arcs) < 40:
        tail = tuple(sorted(rng.sample(range(30), rng.randint(1, 3))))
        head = tuple(sorted(rng.sample(range(30), rng.randint(1, 3))))
        if tail == head or (tail, head) in seen:
            continue
        seen.add((tail, head))
        arcs.append((tail, head))
    return hypergraph(30, arcs)


PIN_INSTANCES = {
    "readme": README_EXAMPLE,
    "worked": WORKED_EXAMPLE,
    "forty": _forty_arc_instance(),
}

# (instance, features, labeling, steps, seed, digest)
TRACE_PINS = [
    ("readme", "d", "stub", 300, 2024,
     "d666aedd00567b0e47d2e023a3bf1cc09ea088d71e355ab02fd219d4cd5d9e99"),
    ("readme", "d", "vertex", 300, 2024,
     "a9c2aa7abd1608b5ba444e4085b184e3ffd5b4345560dfdb370e389fc7a70ec1"),
    ("readme", "sd", "stub", 300, 2024,
     "5049e163882c6db7d24250150b102e82bdc37e639ec1f280eb0ffbb1d4f350e5"),
    ("readme", "sd", "vertex", 300, 2024,
     "4795d942a62d8303607911d0ea7e0c30bc9a929d935e0f18a177962e4b511790"),
    ("readme", "dm", "stub", 300, 2024,
     "230d1078b76f418ad2bb8f38fcbec31547e34857bd67978bfdd2f5ecf3e704c2"),
    ("readme", "dm", "vertex", 300, 2024,
     "ad86ee107f97fa385e3409232b5fd00cb385d621e2f83fd443e696f276a28fef"),
    ("readme", "sdm", "stub", 300, 2024,
     "b319df72e0a7e957612860adb715236244ac613f92c9b0286e97ca005ec60a1b"),
    ("readme", "sdm", "vertex", 300, 2024,
     "14a792c7f26364f80c1978e7ead1535555f08b5d0bef7ec2117b9e2a02a5b15d"),
    ("worked", "sdm", "stub", 300, 2025,
     "362ec7d19ffe1eb2effb6c6625fbe673a5f7794e696235ebc9b826b896a038da"),
    ("worked", "sdm", "vertex", 300, 2025,
     "e7872fcc3ab215c179faa5a99f5d803afb070cc8fc4716ca625b4f7108b5b0f2"),
    ("forty", "", "stub", 400, 2026,
     "9d2c3cfba694c482e176d31dff27f0a7c273806d89840f887a851a76be6ed92b"),
    ("forty", "", "vertex", 400, 2026,
     "b025a75797bba532774778a2bd6d541e7d04d27aea44d938bb3f7d41e1fc10a6"),
    ("forty", "sdm", "stub", 400, 2026,
     "9f34d5235042e5fe39b16dd7322e50f22608bda3beade8b72b91a89120ec3c40"),
    ("forty", "sdm", "vertex", 400, 2026,
     "09c1c14ede3d703a257df928258445a4a3221b91ed1ae5180778c10fce74e674"),
]


@pytest.mark.parametrize(
    "name,features,labeling,steps,seed,digest",
    TRACE_PINS,
    # "strict": the self-loop rule every space uses, a tail equal to its head.
    ids=[f"{p[0]}-{p[1] or 'none'}-{p[2]}-strict" for p in TRACE_PINS],
)
def test_fixed_seed_trace_pins(name, features, labeling, steps, seed, digest):
    spec = SpaceSpec.from_string(features, labeling)
    config = ChainConfig(steps=steps, seed=seed, spec=spec, record_trace=True)
    trace = run_chain(PIN_INSTANCES[name], config).trace
    assert len(trace) == steps + 1
    assert hashlib.sha256(b"\n".join(trace)).hexdigest() == digest


# Two 8-stub tails pool to C(16, 8) = 12,870 splits; the third arc can turn
# into a self-loop, which the empty space rejects.
LARGE_POOLS = hypergraph(18, [(range(8), (16,)), (range(8, 16), (17,)), ((16,), (0,))])

LARGE_POOL_PINS = [
    ("stub", 300, 2027,
     "626865aadfadc693c6af4a24c2c7e69aaa929d2a0dcd550ff2b394d12bbf6765"),
    ("vertex", 300, 2027,
     "a47a393cb7b094c666bee096db10535d6813cef8eeadbb808ecf1dd57fb04486"),
]


@pytest.mark.parametrize("labeling,steps,seed,digest", LARGE_POOL_PINS,
                         ids=[p[0] for p in LARGE_POOL_PINS])
def test_trace_pins_on_large_pools(labeling, steps, seed, digest):
    spec = SpaceSpec.from_string("", labeling)
    config = ChainConfig(steps=steps, seed=seed, spec=spec, record_trace=True)
    trace = run_chain(LARGE_POOLS, config).trace
    assert hashlib.sha256(b"\n".join(trace)).hexdigest() == digest
    assert len(set(trace)) > 1
    d, H, rng = degree_sequence(LARGE_POOLS), LARGE_POOLS, random.Random(seed)
    for key in trace[1:]:
        H = step(H, spec, rng)
        assert canonical_form(H) == key
        assert in_space(H, spec, d)


@pytest.mark.parametrize("n,k", [(3, 1), (6, 3), (12, 6), (16, 8), (20, 7)])
def test_draw_split_deals_split_at_of_the_drawn_index(n, k):
    # From C(3, 1) = 3 splits to C(20, 7) = 77,520.
    pool = sorted(random.Random(n).choices(range(5), k=n))
    for seed in range(50):
        index = random.Random(seed).randrange(comb(n, k))
        assert _draw_split(pool, k, random.Random(seed)) == _split_at(pool, k, index)


@pytest.mark.parametrize("seed", range(4))
def test_split_at_ways_is_the_split_weight(seed):
    # Every split of seeded pools of up to 10 tokens on 1-4 vertices, so
    # that tokens repeat, in runs of 3 or more too.
    rng = random.Random(7000 + seed)
    longest_run = 0
    for _ in range(25):
        n = rng.randint(1, 10)
        pool = sorted(rng.choices(range(rng.randint(1, 4)), k=n))
        longest_run = max(longest_run, max(map(pool.count, pool)))
        for k in range(n + 1):
            for index in range(comb(n, k)):
                picked, rest, ways = _split_at(pool, k, index)
                assert ways == _split_weight(picked, rest)
    assert longest_run >= 3


@st.composite
def _chain_starts(draw):
    """A hypergraph with at least two arcs plus a space that contains it."""
    n = draw(st.integers(2, 5))
    vertex = st.integers(0, n - 1)
    side = st.lists(vertex, min_size=1, max_size=3)
    arcs = draw(st.lists(st.tuples(side, side), min_size=2, max_size=6))
    H = hypergraph(n, arcs)
    report = classify_features(H)
    required = (
        ("s" if report.has_self_loop else "")
        + ("d" if report.has_degenerate else "")
        + ("m" if report.has_multi else "")
    )
    extra = draw(st.sampled_from(ALL_FEATURE_SETS))
    features = "".join(f for f in "sdm" if f in required or f in extra)
    labeling = draw(st.sampled_from(("stub", "vertex")))
    return H, SpaceSpec.from_string(features, labeling)


@given(_chain_starts(), st.integers(0, 2**32 - 1), st.integers(0, 30))
@settings(max_examples=200, deadline=None)
def test_run_chain_equals_iterated_step(start, seed, k):
    H0, spec = start
    result = run_chain(H0, ChainConfig(steps=k, seed=seed, spec=spec))
    rng = random.Random(seed)
    H = H0
    for _ in range(k):
        H = step(H, spec, rng)
    assert result.final.arcs == H.arcs
    assert result.final.labels == H0.labels
