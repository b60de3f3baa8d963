"""Property-based tests over randomly generated instances."""

import random

from hypothesis import given, settings, strategies as st

from hypershuffle import (
    ChainConfig,
    SpaceSpec,
    acceptance_probability,
    apply_shuffle,
    canonical_form,
    check_sm_equivalence,
    classify_features,
    degree_sequence,
    hypergraph,
    in_space,
    parse_dhg,
    proposal_probability,
    propose,
    run_chain,
    serialize_dhg,
)
from hypershuffle.shuffle import reverse_proposal

FEATURES = ("", "s", "d", "m", "sd", "sm", "dm", "sdm")


@st.composite
def hypergraphs(draw, max_vertices=4, max_arcs=4, max_side=3):
    n = draw(st.integers(2, max_vertices))
    m = draw(st.integers(1, max_arcs))
    vertex = st.integers(0, n - 1)
    side = st.lists(vertex, min_size=1, max_size=max_side)
    arcs = draw(st.lists(st.tuples(side, side), min_size=m, max_size=m))
    return hypergraph(n, arcs)


@st.composite
def hypergraphs_with_rng(draw):
    H = draw(hypergraphs())
    seed = draw(st.integers(0, 2**32 - 1))
    return H, random.Random(seed)


@given(hypergraphs())
@settings(max_examples=300, deadline=None)
def test_stub_conservation(H):
    d = degree_sequence(H)
    assert sum(o for _, o in d.vertex_degrees) == sum(t for t, _ in d.arc_degrees)
    assert sum(i for i, _ in d.vertex_degrees) == sum(h for _, h in d.arc_degrees)


@given(hypergraphs())
@settings(max_examples=300, deadline=None)
def test_membership_matches_feature_report(H):
    # Each instance as drawn, and with its first arc doubled: a multi-arc.
    for G in (H, H.replace_arcs(H.arcs + H.arcs[:1])):
        d = degree_sequence(G)
        report = classify_features(G)
        for features in FEATURES:
            spec = SpaceSpec.from_string(features)
            assert in_space(G, spec, d) == (not report.forbidden_by(spec))


@given(hypergraphs(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_canonical_form_ignores_arc_order(H, shuffler):
    arcs = list(H.arcs)
    shuffler.shuffle(arcs)
    assert canonical_form(H.replace_arcs(arcs)) == canonical_form(H)


@given(hypergraphs())
@settings(max_examples=300, deadline=None)
def test_dhg_round_trip(H):
    text = serialize_dhg(H)
    back = parse_dhg(text)
    assert canonical_form(back) == canonical_form(H)
    assert serialize_dhg(back) == text


@given(hypergraphs_with_rng())
@settings(max_examples=400, deadline=None)
def test_shuffle_preserves_degrees_and_reverses(pair):
    H, rng = pair
    if H.n_arcs < 2:
        return
    d = degree_sequence(H)
    p = propose(H, rng)
    alpha = acceptance_probability(H, p)
    assert 0 < alpha <= 1
    H2, back = reverse_proposal(H, p)
    assert degree_sequence(H2).compatible_with(d)
    assert proposal_probability(H, p) == proposal_probability(H2, back)
    H3, accepted = apply_shuffle(H2, back, SpaceSpec.from_string("sdm"))
    assert accepted and canonical_form(H3) == canonical_form(H)


@given(hypergraphs_with_rng(), st.sampled_from(FEATURES))
@settings(max_examples=300, deadline=None)
def test_chain_closure(pair, features):
    H, rng = pair
    spec = SpaceSpec.from_string(features)
    d = degree_sequence(H)
    if not in_space(H, spec, d):
        return
    result = run_chain(
        H, ChainConfig(steps=25, seed=rng.randrange(2**31), spec=spec)
    )
    assert in_space(result.final, spec, d)


@given(hypergraphs())
@settings(max_examples=300, deadline=None)
def test_bipartite_equivalence(H):
    assert check_sm_equivalence(H) == (not classify_features(H).has_degenerate)
