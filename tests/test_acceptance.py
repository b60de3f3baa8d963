"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Every expected value here is either the worked
example's enumerated count, an exact rational identity, or a quantity
recomputed by an independent oracle inside the test.
"""

import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.stats import chisquare

from hypershuffle import (
    SpaceSpec,
    acceptance_probability,
    apply_shuffle,
    build_stub_chain,
    build_vertex_chain,
    build_vertex_chain_lumped,
    canonical_form,
    check_aperiodic,
    check_doubly_stochastic,
    check_regular,
    check_sm_equivalence,
    check_strongly_connected,
    classify_features,
    count_stub_realizations,
    degree_sequence,
    enumerate_stub_space,
    enumerate_vertex_space,
    hypergraph,
    in_space,
    parse_dhg,
    propose,
    proposal_probability,
    sample_replicas,
    serialize_dhg,
    stationary_distribution,
    step,
    stub_state_to_hypergraph,
)
from hypershuffle.chains import _multiset_splits
from hypershuffle.reproduce import (
    FIG_DEGREES,
    THM1_BATTERY,
    THM2_BATTERY,
    THM4_BATTERY,
    thm3,
)
from hypershuffle.shuffle import ShuffleProposal, reverse_proposal
from conftest import random_instance, src_env, with_perturbed_entry

SDM = SpaceSpec.from_string("sdm")

FIG_START = hypergraph(3, [((1, 1), (0,)), ((0,), (2,)), ((2,), (0,))])


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def lumped_class_row(g, n_vertices, start_key):
    """Exact one-step class law of the stub walk started in a class."""
    src = next(
        idx
        for idx, state in enumerate(g.states)
        if canonical_form(stub_state_to_hypergraph(state, n_vertices)) == start_key
    )
    out: dict[bytes, Fraction] = {}
    for j, p in g.rows[src].items():
        key = canonical_form(stub_state_to_hypergraph(g.states[j], n_vertices))
        out[key] = out.get(key, Fraction(0)) + p
    return out


def test_criterion_1_enumeration_ground_truth():
    t0 = time.time()
    got = {
        features: len(enumerate_vertex_space(FIG_DEGREES, SpaceSpec.from_string(features)))
        for features in ("sdm", "sm", "d", "")
    }
    elapsed = time.time() - t0
    want = {"sdm": 11, "sm": 8, "d": 5, "": 4}
    report(
        1,
        got == want and elapsed < 1.0,
        f"worked-example counts {got} (expected {want}) in {elapsed:.3f}s",
    )


def test_criterion_2_exact_uniformity_on_good_classes():
    t0 = time.time()
    failures = []
    features_seen = {"self_loop": False, "degenerate": False, "multi": False}
    for name, d in THM1_BATTERY:
        for features in ("sdm", "sm"):
            spec = SpaceSpec.from_string(features)
            g = build_stub_chain(d, spec)
            for state in g.states:
                rep = classify_features(
                    stub_state_to_hypergraph(state, d.n_vertices)
                )
                features_seen["self_loop"] |= rep.has_self_loop
                features_seen["degenerate"] |= rep.has_degenerate
                features_seen["multi"] |= rep.has_multi
            symmetric, _ = check_regular(g)
            diagonal = check_aperiodic(g)
            connected, _ = check_strongly_connected(g)
            pi = stationary_distribution(g).pi
            sup_err = float(np.max(np.abs(pi - 1.0 / g.n_states)))
            if not (symmetric and diagonal and connected and sup_err < 1e-10):
                failures.append((name, features, symmetric, diagonal, connected, sup_err))
    elapsed = time.time() - t0
    ok = (
        not failures
        and len(THM1_BATTERY) >= 5
        and all(features_seen.values())
        and elapsed < 60.0
    )
    report(
        2,
        ok,
        f"{len(THM1_BATTERY)} degree sequences x (sdm, sm): symmetric, positive "
        f"diagonal, connected, uniform (features covered: {features_seen}) in "
        f"{elapsed:.1f}s; failures={failures}",
    )


def test_criterion_3_sampled_uniformity_at_scale():
    t0 = time.time()
    replicas, steps = 100_000, 1_000
    counts = sample_replicas(FIG_START, SDM, steps=steps, replicas=replicas, seed=20260810)
    classes = enumerate_vertex_space(FIG_DEGREES, SDM)
    keys = [canonical_form(H) for H in classes]
    weights = [count_stub_realizations(H) for H in classes]
    assert set(counts) <= set(keys)
    total_w = sum(weights)
    observed = [counts.get(k, 0) for k in keys]
    expected = [replicas * w / total_w for w in weights]
    stat, p = chisquare(observed, expected)
    elapsed = time.time() - t0
    report(
        3,
        p > 0.01 and elapsed < 300.0,
        f"{replicas} chains of {steps} steps: chi2={stat:.2f} p={p:.4f} "
        f"against stub-realization weights, in {elapsed:.1f}s",
    )


def test_criterion_4_restricted_class_connectivity():
    results = []
    for name, d in THM2_BATTERY:
        assert all(t == 1 and h == 2 for t, h in d.arc_degrees)
        assert sum(1 for _, out in d.vertex_degrees if out > 0) == 2
        g = build_stub_chain(d, SpaceSpec.from_string("s"))
        connected, _ = check_strongly_connected(g)
        results.append((name, g.n_states, connected))
    ok = len(results) >= 3 and all(conn for _, _, conn in results)
    report(4, ok, f"single-tail two-source instances: {results}")


def test_criterion_5_counterexamples_and_exit_code():
    # thm3 passes only if every failure it catalogues is reproduced: the
    # frozen start (isolated class, unit row, closed stub fibre, stub walk
    # disconnected), the unreached spread state, the [sdm] control, and a
    # disconnected edge-swap instance in each space without self-loops.
    passed, lines = thm3()
    proc = subprocess.run(
        [sys.executable, "-m", "hypershuffle.cli", "reproduce", "thm3"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    report(
        5,
        passed and proc.returncode == 0,
        "; ".join(lines) + f"; reproduce thm3 exit code {proc.returncode}",
    )


def _has_nontrivial_alpha(d) -> bool:
    for H in enumerate_vertex_space(d, SDM):
        arcs = H.arcs
        for i in range(len(arcs)):
            for j in range(i + 1, len(arcs)):
                pool_t = tuple(sorted(arcs[i][0] + arcs[j][0]))
                pool_h = tuple(sorted(arcs[i][1] + arcs[j][1]))
                for ta, tb, _ in _multiset_splits(pool_t, len(arcs[i][0])):
                    for ha, hb, _ in _multiset_splits(pool_h, len(arcs[i][1])):
                        p = ShuffleProposal(i, j, ta, ha, tb, hb)
                        if acceptance_probability(H, p) < 1:
                            return True
    return False


def test_criterion_6_vertex_labeled_correction():
    results = []
    for name, d in THM4_BATTERY:
        spec = SpaceSpec.from_string("sdm", "vertex")
        direct = build_vertex_chain(d, spec)
        lumped = build_vertex_chain_lumped(d, spec)
        routes = direct.keys == lumped.keys and direct.rows == lumped.rows
        doubly, _ = check_doubly_stochastic(direct)
        pi = stationary_distribution(direct).pi
        sup_err = float(np.max(np.abs(pi - 1.0 / direct.n_states)))

        stub = build_stub_chain(d, SDM)
        stub_pi = stationary_distribution(stub).pi
        push: Counter[bytes] = Counter()
        for weight, state in zip(stub_pi, stub.states):
            key = canonical_form(stub_state_to_hypergraph(state, d.n_vertices))
            push[key] += weight
        classes = enumerate_vertex_space(d, SDM)
        weights = [count_stub_realizations(H) for H in classes]
        total = sum(weights)
        push_err = max(
            abs(push[canonical_form(H)] - w / total)
            for H, w in zip(classes, weights)
        )
        nontrivial = _has_nontrivial_alpha(d)
        results.append(
            (name, routes, doubly, sup_err < 1e-10, bool(push_err < 1e-10), nontrivial)
        )
    ok = len(results) >= 3 and all(all(flags[1:]) for flags in results)
    report(6, ok, f"(name, routes-agree, doubly, uniform<1e-10, pushforward<1e-10, "
                  f"nontrivial-alpha): {results}")


def test_criterion_7_realization_count_concordance():
    rng = random.Random(777)
    battery = {}
    # hand-picked shapes that stress multis, degeneracy and self-loops
    picked = [
        hypergraph(2, [((0,), (1,)), ((0,), (1,))]),
        hypergraph(2, [((0, 0), (1,)), ((0,), (1, 1))]),
        hypergraph(1, [((0,), (0,)), ((0,), (0,))]),
        hypergraph(3, [((0, 1), (2,)), ((0, 1), (2,))]),
        hypergraph(2, [((0, 0), (1, 1)), ((0,), (1,))]),
    ]
    for H in picked:
        battery[canonical_form(H)] = degree_sequence(H)
    while len(battery) < 50:
        H = random_instance(rng, max_vertices=4, max_arcs=3, max_side=2)
        d = degree_sequence(H)
        if d.total_stubs <= 12:
            battery.setdefault(canonical_form(H), d)
    mismatches = 0
    for d in battery.values():
        stubs = enumerate_stub_space(d, SDM)
        fibers: Counter[bytes] = Counter(
            canonical_form(stub_state_to_hypergraph(s, d.n_vertices)) for s in stubs
        )
        for H in enumerate_vertex_space(d, SDM):
            if fibers.get(canonical_form(H), 0) != count_stub_realizations(H):
                mismatches += 1
    report(
        7,
        mismatches == 0 and len(battery) >= 50,
        f"{len(battery)} instances (<=12 stubs): closed-form realization counts "
        f"match brute-force fiber sizes exactly, {mismatches} mismatches",
    )


def test_criterion_8_kernel_row_concordance():
    t0 = time.time()
    # exact one-step class law from the figure start, stub mode
    g = build_stub_chain(FIG_DEGREES, SDM)
    exact = lumped_class_row(g, 3, canonical_form(FIG_START))
    keys = sorted(exact)

    rng = random.Random(4242)
    observed = Counter()
    trials = 1_000_000
    for _ in range(trials):
        observed[canonical_form(step(FIG_START, SDM, rng))] += 1
    assert set(observed) <= set(exact)
    obs = [observed.get(k, 0) for k in keys]
    exp = [trials * float(exact[k]) for k in keys]
    stat, p_good = chisquare(obs, exp)

    # negative control 1: the same samples against a corrupted row
    src = next(
        idx
        for idx, state in enumerate(g.states)
        if canonical_form(stub_state_to_hypergraph(state, 3))
        == canonical_form(FIG_START)
    )
    j_big = max(
        (j for j in g.rows[src] if j != src), key=lambda j: g.rows[src][j]
    )
    corrupted = with_perturbed_entry(g, src, j_big, Fraction(1, 50))
    bad_row: dict[bytes, Fraction] = {}
    for j, p in corrupted.rows[src].items():
        key = canonical_form(stub_state_to_hypergraph(g.states[j], 3))
        bad_row[key] = bad_row.get(key, Fraction(0)) + p
    exp_bad = [trials * float(bad_row[k]) for k in keys]
    _, p_corrupted = chisquare(obs, exp_bad)

    # negative control 2: vertex mode with the acceptance test disabled
    spec_v = SpaceSpec.from_string("sdm", "vertex")
    gv = build_vertex_chain(FIG_DEGREES, spec_v)
    vsrc = gv.keys.index(canonical_form(FIG_START))
    vkeys = sorted(gv.keys)
    biased = Counter()
    biased_trials = 200_000
    for _ in range(biased_trials):
        p = propose(FIG_START, rng)
        H2, _ = apply_shuffle(FIG_START, p, spec_v)  # alpha forced to 1
        biased[canonical_form(H2)] += 1
    obs_b = [biased.get(k, 0) for k in vkeys]
    exp_b = [biased_trials * float(gv.rows[vsrc].get(gv.keys.index(k), 0)) for k in vkeys]
    pooled = [(o, e) for o, e in zip(obs_b, exp_b) if e >= 5]
    spill = (
        sum(o for o, e in zip(obs_b, exp_b) if e < 5),
        sum(e for o, e in zip(obs_b, exp_b) if e < 5),
    )
    if spill[1] > 0:
        pooled.append(spill)
    _, p_biased = chisquare([o for o, _ in pooled], [e for _, e in pooled])

    elapsed = time.time() - t0
    ok = p_good > 0.01 and p_corrupted < 1e-4 and p_biased < 1e-4
    report(
        8,
        ok,
        f"10^6 seeded steps vs exact row: p={p_good:.4f}; corrupted-matrix "
        f"control p={p_corrupted:.2e}; alpha-forced-to-1 control "
        f"p={p_biased:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_9_invariant_suite():
    t0 = time.time()
    rng = random.Random(99991)
    cases = 10_000
    failures = 0
    all_features = ("", "s", "d", "m", "sd", "sm", "dm", "sdm")
    for _ in range(cases):
        H = random_instance(rng, max_vertices=4, max_arcs=3, max_side=2)
        d = degree_sequence(H)
        try:
            # .dhg round trip
            back = parse_dhg(serialize_dhg(H))
            assert canonical_form(back) == canonical_form(H)
            # bipartite equivalence
            assert check_sm_equivalence(H) == (
                not classify_features(H).has_degenerate
            )
            # proposal reversibility and degree invariance
            p = propose(H, rng)
            H2, back_p = reverse_proposal(H, p)
            assert proposal_probability(H, p) == proposal_probability(H2, back_p)
            assert degree_sequence(H2).compatible_with(d)
            # space closure on one admissible spec
            rep = classify_features(H)
            admissible = [
                f for f in all_features
                if not rep.forbidden_by(SpaceSpec.from_string(f))
            ]
            spec = SpaceSpec.from_string(rng.choice(admissible))
            H3 = step(H, spec, rng)
            assert in_space(H3, spec, d)
            assert degree_sequence(H3).compatible_with(d)
        except AssertionError:
            failures += 1
    elapsed = time.time() - t0
    report(
        9,
        failures == 0,
        f"{cases} randomized cases x 5 invariants, {failures} failures "
        f"({elapsed:.1f}s)",
    )
