"""Vectorized replica engine: agreement with the exact kernel law."""

import hashlib
import random
from collections import Counter
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from scipy.stats import chisquare

from hypershuffle import replicas as engine
from hypershuffle import (
    ChainConfigError,
    SpaceSpec,
    build_stub_chain,
    build_vertex_chain,
    canonical_form,
    degree_sequence,
    enumerate_vertex_space,
    hypergraph,
    in_space,
    sample_replicas,
    stub_state_to_hypergraph,
)
from hypershuffle.hypergraph import ALL_FEATURE_SETS, _canonical_bytes
from hypershuffle.shuffle import (
    _admissible,
    _alpha_rejects,
    _alpha_terms,
    _split_at,
)
from conftest import D1_BLOCKED, FIG_DEGREES, random_instance

SDM = SpaceSpec.from_string("sdm")
DOUBLED_ARC = hypergraph(3, [((0, 1), (2,)), ((0, 1), (2,)), ((2,), (0,))])


def lumped_class_row(g, n_vertices, start_key):
    """Exact one-step class distribution of the stub walk from a class."""
    fibers = {}
    for idx, state in enumerate(g.states):
        key = canonical_form(stub_state_to_hypergraph(state, n_vertices))
        fibers.setdefault(key, []).append(idx)
    src = fibers[start_key][0]
    out = {}
    for j, p in g.rows[src].items():
        key = canonical_form(stub_state_to_hypergraph(g.states[j], n_vertices))
        out[key] = out.get(key, 0.0) + float(p)
    return out


def chi2_against(counts, expected_probs):
    keys = sorted(expected_probs)
    n = sum(counts.values())
    observed = [counts.get(k, 0) for k in keys]
    expected = [n * expected_probs[k] for k in keys]
    # all expected counts are large here by construction
    return chisquare(observed, expected)


class TestSingleStepAgreement:
    def test_stub_mode_matches_exact_row(self):
        space = enumerate_vertex_space(FIG_DEGREES, SDM)
        H0 = space[0]
        g = build_stub_chain(FIG_DEGREES, SDM)
        expected = lumped_class_row(g, 3, canonical_form(H0))
        counts = sample_replicas(H0, SDM, steps=1, replicas=200_000, seed=901)
        assert set(counts) <= set(expected)
        stat, p = chi2_against(counts, expected)
        assert p > 0.01

    # Forbidden features exercise the per-row multi check and the per-arc
    # self-loop and degenerate tests.  The "dm" starts hold a multi-arc, so
    # alpha's pair multiplicities exceed 1; picking both copies of the
    # doubled 2-tail arc takes the comb(m_a, 2) branch.
    @pytest.mark.parametrize(
        "degrees, features, start",
        [
            (FIG_DEGREES, "sdm", 2),
            (FIG_DEGREES, "", 1),
            (FIG_DEGREES, "s", 3),
            (FIG_DEGREES, "d", 1),
            (FIG_DEGREES, "dm", 3),
            (degree_sequence(DOUBLED_ARC), "dm", 5),
        ],
        ids=["sdm", "none", "s", "d", "dm-multi", "dm-doubled-arc"],
    )
    def test_vertex_mode_matches_exact_row(self, degrees, features, start):
        spec = SpaceSpec.from_string(features, "vertex")
        g = build_vertex_chain(degrees, spec)
        H0 = g.states[start]
        expected = {
            g.keys[j]: float(p) for j, p in g.rows[g.keys.index(canonical_form(H0))].items()
        }
        counts = sample_replicas(H0, spec, steps=1, replicas=200_000, seed=902)
        assert set(counts) <= set(expected)
        stat, p = chi2_against(counts, expected)
        assert p > 0.01

    def test_feature_rejection_path(self):
        # {sd} on the frozen instance: every replica must stay.
        spec = SpaceSpec.from_string("sd")
        counts = sample_replicas(D1_BLOCKED, spec, steps=5, replicas=5_000, seed=903)
        assert counts == {canonical_form(D1_BLOCKED): 5_000}

    def test_restricted_space_single_steps(self):
        # no-multi space on the worked example: compare against the exact
        # lumped row of the {sm} stub chain.
        spec = SpaceSpec.from_string("sm")
        space = enumerate_vertex_space(FIG_DEGREES, spec)
        H0 = space[0]
        g = build_stub_chain(FIG_DEGREES, spec)
        expected = lumped_class_row(g, 3, canonical_form(H0))
        counts = sample_replicas(H0, spec, steps=1, replicas=150_000, seed=904)
        assert set(counts) <= set(expected)
        stat, p = chi2_against(counts, expected)
        assert p > 0.01

    def test_no_multi_stub_single_steps(self):
        # Stub labeling without multi-arcs: the per-row copy check alone
        # refuses a step that would double an arc.
        spec = SpaceSpec.from_string("sd")
        H0 = enumerate_vertex_space(FIG_DEGREES, spec)[0]
        expected = lumped_class_row(build_stub_chain(FIG_DEGREES, spec), 3, canonical_form(H0))
        counts = sample_replicas(H0, spec, steps=1, replicas=150_000, seed=908)
        assert set(counts) <= set(expected)
        stat, p = chi2_against(counts, expected)
        assert p > 0.01


class TestEngineBasics:
    def test_deterministic_under_seed(self):
        space = enumerate_vertex_space(FIG_DEGREES, SDM)
        a = sample_replicas(space[0], SDM, steps=20, replicas=2_000, seed=7)
        b = sample_replicas(space[0], SDM, steps=20, replicas=2_000, seed=7)
        assert a == b
        c = sample_replicas(space[0], SDM, steps=20, replicas=2_000, seed=8)
        assert a != c

    def test_zero_steps_returns_start(self):
        space = enumerate_vertex_space(FIG_DEGREES, SDM)
        counts = sample_replicas(space[0], SDM, steps=0, replicas=123, seed=1)
        assert counts == {canonical_form(space[0]): 123}

    def test_zero_replicas_count_nothing(self):
        one_arc = hypergraph(2, [((0,), (1,))])
        for start in (enumerate_vertex_space(FIG_DEGREES, SDM)[0], one_arc):
            counts = sample_replicas(start, SDM, steps=5, replicas=0, seed=1)
            # Counter equality ignores zero counts; a zero-count key is a final.
            assert counts == Counter() and len(counts) == 0

    # A float count once failed late with a bare TypeError.
    @pytest.mark.parametrize(
        "steps, replicas, name",
        [(2.0, 2, "steps"), ("2", 2, "steps"), (2, 2.0, "replicas"), (2, None, "replicas")],
        ids=["float-steps", "str-steps", "float-replicas", "none-replicas"],
    )
    def test_non_integer_counts_rejected(self, steps, replicas, name):
        start = enumerate_vertex_space(FIG_DEGREES, SDM)[0]
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sample_replicas(start, SDM, steps, replicas, 0)

    def test_integer_like_counts_accepted(self):
        start = enumerate_vertex_space(FIG_DEGREES, SDM)[0]
        counts = sample_replicas(start, SDM, np.int64(3), np.int64(40), 0)
        assert counts == sample_replicas(start, SDM, 3, 40, 0)
        assert sample_replicas(start, SDM, True, True, 0) == sample_replicas(start, SDM, 1, 1, 0)

    # The count of a run that makes no step once was the caller's object.
    @pytest.mark.parametrize("replicas", [True, np.int64(3)], ids=["bool", "int64"])
    @pytest.mark.parametrize("shortcut", ["no-steps", "one-arc"])
    def test_unstepped_count_is_an_int(self, shortcut, replicas):
        if shortcut == "no-steps":
            start, steps = enumerate_vertex_space(FIG_DEGREES, SDM)[0], 0
        else:
            start, steps = hypergraph(2, [((0,), (1,))]), 5
        counts = sample_replicas(start, SDM, steps, replicas, 0)
        [count] = counts.values()
        assert type(count) is int and count == replicas

    @pytest.mark.parametrize("steps, replicas", [(-1, 10), (1, -1)])
    def test_negative_counts_rejected(self, steps, replicas):
        space = enumerate_vertex_space(FIG_DEGREES, SDM)
        with pytest.raises(ValueError, match="must be nonnegative"):
            sample_replicas(space[0], SDM, steps=steps, replicas=replicas, seed=1)

    def test_split_count_past_int64_rejected(self):
        # C(68, 34) splits of the pooled tails exceed 2**63.
        H = hypergraph(2, [((0,) * 34, (1,)), ((1,) * 34, (0,))])
        with pytest.raises(ValueError, match="past the 2\\*\\*63"):
            sample_replicas(H, SDM, steps=1, replicas=10, seed=1)

    def test_alpha_denominator_past_2_53_rejected(self):
        # Every outcome keeps the two equal arcs; alpha's split weight
        # C(58, 29) * C(2, 1) exceeds 2**53.
        H = hypergraph(2, [((0,) * 29, (1,)), ((0,) * 29, (1,))])
        spec = SpaceSpec.from_string("sdm", "vertex")
        with pytest.raises(ValueError, match="alpha denominator reaches 2\\*\\*53"):
            sample_replicas(H, spec, steps=1, replicas=10, seed=1)

    def test_out_of_space_start_rejected(self):
        with pytest.raises(ChainConfigError):
            sample_replicas(
                D1_BLOCKED, SpaceSpec.from_string(""), steps=1, replicas=10, seed=1
            )

    def test_biased_alpha_control_changes_the_law(self):
        # With alpha forced to 1 the vertex walk converges to realization
        # weights instead of uniform; a long-run histogram must differ.
        spec = SpaceSpec.from_string("sdm", "vertex")
        space = enumerate_vertex_space(FIG_DEGREES, spec)
        fair = sample_replicas(space[0], spec, steps=60, replicas=30_000, seed=11)
        biased = sample_replicas(
            space[0], SpaceSpec.from_string("sdm"), steps=60, replicas=30_000, seed=11
        )
        keys = sorted({*fair, *biased})
        fair_vec = np.array([fair.get(k, 0) for k in keys], dtype=float)
        biased_vec = np.array([biased.get(k, 0) for k in keys], dtype=float)
        tv = 0.5 * np.abs(fair_vec / fair_vec.sum() - biased_vec / biased_vec.sum()).sum()
        assert tv > 0.05


class TestSampledUniformity:
    def test_vertex_mode_samples_uniformly_over_classes(self):
        # Long-run vertex-labeled walk on the worked example: flat over the
        # 11 canonical classes.
        from hypershuffle import uniformity_test

        spec = SpaceSpec.from_string("sdm", "vertex")
        space = enumerate_vertex_space(FIG_DEGREES, SDM)
        keys = [canonical_form(H) for H in space]
        counts = sample_replicas(space[0], spec, steps=300, replicas=33_000, seed=5150)
        report = uniformity_test(counts, keys)
        assert report.p_value > 0.01

    def test_alpha_free_sampler_fails_flat_uniformity(self):
        # Negative control: without the acceptance probability the walk
        # lands proportional to stub realization counts, far from flat.
        from hypershuffle import uniformity_test

        spec = SpaceSpec.from_string("sdm", "vertex")
        space = enumerate_vertex_space(FIG_DEGREES, SDM)
        keys = [canonical_form(H) for H in space]
        counts = sample_replicas(
            space[0], SpaceSpec.from_string("sdm"), steps=300, replicas=33_000,
            seed=5151,
        )
        report = uniformity_test(counts, keys)
        assert report.p_value < 1e-4


class TestLargePoolsAndCompaction:
    def test_unrank_split_matches_combinations_order(self):
        # Every split of every pool up to 10 tokens, and all 12,870 of C(16, 8).
        # The tokens are distinct, so each split has one stub-level way.
        sizes = [(n, k) for n in range(11) for k in range(n + 1)] + [(16, 8)]
        for n, k in sizes:
            pool = list(range(n))
            for index, picked in enumerate(combinations(pool, k)):
                rest = tuple(t for t in pool if t not in picked)
                assert _split_at(pool, k, index) == (picked, rest, 1)

    def test_pools_past_4096_splits_stay_in_space(self):
        # Two 8-stub tails pool to C(16, 8) = 12,870 splits.
        H = hypergraph(18, [(range(8), (16,)), (range(8, 16), (17,))])
        spec = SpaceSpec.from_string("")
        counts = sample_replicas(H, spec, steps=20, replicas=500, seed=905)
        assert sum(counts.values()) == 500
        assert len(counts) > 1
        d = degree_sequence(H)
        for key in counts:
            assert in_space(decode(key), spec, d)

    def test_compacting_run_is_deterministic(self, monkeypatch):
        first, compactions = compacting_run(monkeypatch, seed=906)
        again, _ = compacting_run(monkeypatch, seed=906)
        assert compactions >= 2
        assert first == again

    def test_compacting_run_finals_in_space(self, monkeypatch):
        counts, compactions = compacting_run(monkeypatch, seed=907)
        assert compactions >= 2
        assert sum(counts.values()) == COMPACTING_REPLICAS
        d = degree_sequence(FORTY_ARCS)
        for key in counts:
            assert in_space(decode(key), COMPACTING_SPEC, d)


# 40 distinct arcs on 40 vertices, no self-loops or degenerate arcs.
FORTY_ARCS = hypergraph(
    40, [((k, (k + 1) % 40), ((k + 2) % 40, (k + 5) % 40)) for k in range(40)]
)
COMPACTING_SPEC = SpaceSpec.from_string("", "vertex")
COMPACTING_REPLICAS = 10


def compacting_run(monkeypatch, seed):
    """A run long enough to pass the 2 * R * m compaction point, and the
    number of compactions it made (its ``np.unique`` calls with an inverse)."""
    unique, compactions = np.unique, []

    def counting_unique(*args, **kwargs):
        compactions.append(kwargs.get("return_inverse", False))
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    counts = sample_replicas(
        FORTY_ARCS, COMPACTING_SPEC, steps=300, replicas=COMPACTING_REPLICAS, seed=seed
    )
    monkeypatch.setattr(np, "unique", unique)
    return counts, sum(compactions)


def decode(key: bytes):
    """The hypergraph behind a canonical form."""
    n, body = key.decode("ascii").split("|")
    arcs = [
        tuple(tuple(int(v) for v in side.split(",")) for side in arc.split(">"))
        for arc in body.split(";")
    ]
    H = hypergraph(int(n), arcs)
    assert _canonical_bytes(H.n_vertices, H.arcs) == key
    return H


# SHA-256 of repr(list(tally.items())), recorded before the step loop moved
# into a private function: keys, counts and their order are all pinned.
TWELVE_ARCS = hypergraph(
    12, [((k, (k + 1) % 12), ((k + 3) % 12,)) for k in range(12)]
)
TALLY_PINS = [
    ("fig-sdm-stub", "sdm", "stub", 20, 2000, 7,
     "31ce829a27b3d4d218c850886445821069dda578d50f91bebd956948f41c83e2"),
    ("fig-sm-stub", "sm", "stub", 15, 300, 3,
     "3d29f50c00df5b077ffa08e6386b437be9ec005d925f35d232306a03067dc433"),
    ("fig-dm-vertex", "dm", "vertex", 30, 500, 11,
     "47044fae75d8892011aaeda3e347d6ae8606293f02ec3b704fefc9609c05fb01"),
    ("doubled-dm-vertex", "dm", "vertex", 30, 500, 12,
     "c450b4c7e81f11612cfc2b7dc2aab303fae2cf8d7271a14b1797fd4470ae5975"),
    ("twelve-none-vertex", "", "vertex", 40, 100, 13,
     "6deb7284559f8a110a1774277e4b078f85877cee095b16a1e22fa9c56d3a6881"),
]


def pin_start(name):
    """The start of a pinned run; the ``dm`` ones hold a multi-arc."""
    dm = SpaceSpec.from_string("dm", "vertex")
    if name.startswith("fig-dm"):
        return build_vertex_chain(FIG_DEGREES, dm).states[3]
    if name.startswith("doubled"):
        return build_vertex_chain(degree_sequence(DOUBLED_ARC), dm).states[5]
    if name.startswith("twelve"):
        return TWELVE_ARCS
    return enumerate_vertex_space(FIG_DEGREES, SDM)[0]


@pytest.mark.parametrize(
    "name, features, labeling, steps, replicas, seed, digest",
    TALLY_PINS, ids=[pin[0] for pin in TALLY_PINS],
)
def test_fixed_seed_tally_pins(name, features, labeling, steps, replicas, seed, digest):
    spec = SpaceSpec.from_string(features, labeling)
    counts = sample_replicas(pin_start(name), spec, steps, replicas, seed)
    tally = repr(list(counts.items())).encode()
    assert hashlib.sha256(tally).hexdigest() == digest


# The outcome table and the lexsort path must give the same rows, arc table
# and tally order; ``_TABLE_PER_REPLICA`` and ``_TABLE_FLOOR`` pick between
# them, so setting the pair forces a path: (0, 0) never builds a table, a
# large bound always does.
LEXSORT_ONLY, TABLE_ALWAYS = (0, 0), (1 << 30, 0)
DEFAULT_BOUND = engine._TABLE_PER_REPLICA, engine._TABLE_FLOOR


def engine_run(monkeypatch, bound, start, spec, steps, replicas, seed):
    """Rows, arcs and tally items of one run, and its per-step ``np.lexsort``
    and compaction (``np.unique`` with an inverse) call counts.

    ``bound`` is ``(_TABLE_PER_REPLICA, _TABLE_FLOOR)`` for the run."""
    lexsort, unique, calls = np.lexsort, np.unique, Counter()

    def counting_lexsort(*args, **kwargs):
        calls["lexsort"] += 1
        return lexsort(*args, **kwargs)

    def counting_unique(*args, **kwargs):
        calls["compaction"] += bool(kwargs.get("return_inverse"))
        return unique(*args, **kwargs)

    monkeypatch.setattr(engine, "_TABLE_PER_REPLICA", bound[0])
    monkeypatch.setattr(engine, "_TABLE_FLOOR", bound[1])
    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    monkeypatch.setattr(np, "unique", counting_unique)
    ids, arcs = engine._run_replicas(start, spec, steps, replicas, seed)
    run_calls = Counter(calls)
    tally = sample_replicas(start, spec, steps, replicas, seed)
    monkeypatch.undo()
    return (ids.tolist(), arcs, list(tally.items())), run_calls


def sweep_cases():
    """Seeded runs, two in each of the 16 spaces (8 feature sets x 2 labelings)."""
    rng = random.Random(920)
    cases = []
    for features in ALL_FEATURE_SETS:
        for labeling in ("stub", "vertex"):
            spec = SpaceSpec.from_string(features, labeling)
            for _ in range(2):
                start = random_instance(rng, max_vertices=3, max_arcs=5, max_side=2)
                while not in_space(start, spec, degree_sequence(start)):
                    start = random_instance(rng, max_vertices=3, max_arcs=5, max_side=2)
                steps, replicas = rng.randint(1, 30), rng.choice([1, 3, 40, 200])
                cases.append((start, spec, steps, replicas, rng.randrange(10**6)))
    return cases


SWEEP_CASES = sweep_cases()


class TestOutcomeTable:
    @pytest.mark.parametrize("case", range(len(SWEEP_CASES)))
    def test_both_paths_agree(self, monkeypatch, case):
        start, spec, steps, replicas, seed = SWEEP_CASES[case]
        runs = [
            engine_run(monkeypatch, bound, start, spec, steps, replicas, seed)
            for bound in (LEXSORT_ONLY, TABLE_ALWAYS, DEFAULT_BOUND)
        ]
        (lexsorted, lexsort_calls), (tabled, table_calls), (default, _) = runs
        assert lexsort_calls["lexsort"] == steps
        assert table_calls["lexsort"] == 0
        assert tabled == lexsorted
        assert default == lexsorted

    def test_hand_over_to_lexsort_mid_run(self, monkeypatch):
        # At 32 entries per replica the twelve-arc start's 16-id table fits;
        # its intern table then passes 16 arcs and the table would not.
        spec = SpaceSpec.from_string("", "vertex")
        args = (TWELVE_ARCS, spec, 40, 100, 13)
        handed, calls = engine_run(monkeypatch, (32, 0), *args)
        lexsorted, _ = engine_run(monkeypatch, LEXSORT_ONLY, *args)
        assert 0 < calls["lexsort"] < 40
        assert handed == lexsorted

    def test_compaction_on_the_table_path(self, monkeypatch):
        # Two replicas compact past 2 * 2 * 3 outcomes, over and over.
        spec = SpaceSpec.from_string("sdm", "vertex")
        args = (enumerate_vertex_space(FIG_DEGREES, SDM)[0], spec, 300, 2, 921)
        tabled, calls = engine_run(monkeypatch, TABLE_ALWAYS, *args)
        lexsorted, _ = engine_run(monkeypatch, LEXSORT_ONLY, *args)
        assert calls["lexsort"] == 0
        assert calls["compaction"] >= 2
        assert tabled == lexsorted

    # The 1,536-entry table is within 16 per replica at 200 replicas, and
    # within the floor at 64 or 1.
    @pytest.mark.parametrize(
        "labeling, replicas",
        [("stub", 200), ("vertex", 200), ("stub", 64), ("vertex", 64), ("stub", 1)],
        ids=["stub", "vertex", "stub-64", "vertex-64", "stub-1"],
    )
    def test_worked_example_never_sorts(self, monkeypatch, labeling, replicas):
        spec = SpaceSpec.from_string("sdm", labeling)
        start = enumerate_vertex_space(FIG_DEGREES, SDM)[0]
        args = (start, spec, 100, replicas, 922)
        tabled, calls = engine_run(monkeypatch, DEFAULT_BOUND, *args)
        assert calls["lexsort"] == 0
        assert tabled == engine_run(monkeypatch, LEXSORT_ONLY, *args)[0]

    def test_codes_past_int64_stay_on_lexsort(self, monkeypatch):
        # C(66, 33) tail splits times 2 head splits times 2 * 2 arc-id
        # pairs reach 2**63, so even an unbounded table is not built.
        H = hypergraph(3, [((0,) * 33, (2,)), ((1,) * 33, (2,))])
        args = (H, SDM, 3, 10, 923)
        (rows, arcs, tally), calls = engine_run(monkeypatch, (1 << 64, 0), *args)
        assert calls["lexsort"] == 3
        assert sum(count for _, count in tally) == 10
        d = degree_sequence(H)
        for row in rows:
            assert in_space(H.replace_arcs([arcs[k] for k in row]), SDM, d)


class TestDrawStream:
    def test_class_pair_table_gives_every_slot_pair_its_split_counts(self):
        rng = random.Random(932)
        for _ in range(200):
            H = random_instance(rng, max_vertices=5, max_arcs=7, max_side=4)
            kind, splits = engine._pair_splits(H)
            sizes = [(len(t), len(h)) for t, h in H.arcs]
            for x, y in permutations(range(H.n_arcs), 2):
                (t_x, h_x), (t_y, h_y) = sizes[x], sizes[y]
                expected = [comb(t_x + t_y, t_x), comb(h_x + h_y, h_x)]
                assert splits[:, kind[x], kind[y]].tolist() == expected

    # ``_run_replicas`` draws a step's tail-split and head-split indices in
    # one ``Generator.integers`` call over a (2, R) bound array, relying on
    # numpy to deal bounded integers one element at a time in C order.
    def test_one_call_over_two_rows_draws_what_two_calls_would(self):
        rng = random.Random(930)
        highs = {"small": 20, "32-bit": 1 << 32, "64-bit": (1 << 63) - 1}
        for replicas in range(1, 301):
            for kind, high in highs.items():
                seed = rng.randrange(1 << 32)
                joint, split = np.random.default_rng(seed), np.random.default_rng(seed)
                for step in range(2):
                    bounds = np.array(
                        [[rng.randint(1, high) for _ in range(replicas)] for _ in range(2)],
                        dtype=np.int64,
                    )
                    drawn = joint.integers(0, bounds)
                    rows = [split.integers(0, bounds[0]), split.integers(0, bounds[1])]
                    assert np.array_equal(drawn, rows), (
                        f"numpy {np.__version__}: one integers call over a (2, {replicas}) "
                        f"bound array ({kind} bounds, step {step}) no longer draws what one "
                        "call per row does; replicas._run_replicas draws both split "
                        "indices that way, so its stream and every pinned digest change"
                    )
                    assert np.array_equal(joint.random(replicas), split.random(replicas))

    # Stub labeling draws i, j and both split indices; vertex labeling adds
    # the thinning uniform.
    @pytest.mark.parametrize("bound", [LEXSORT_ONLY, TABLE_ALWAYS], ids=["lexsort", "table"])
    @pytest.mark.parametrize(
        "labeling, per_step", [("stub", {"integers": 3}), ("vertex", {"integers": 3, "random": 1})]
    )
    def test_draw_calls_per_step(self, monkeypatch, bound, labeling, per_step):
        spec = SpaceSpec.from_string("sdm", labeling)
        args = (enumerate_vertex_space(FIG_DEGREES, SDM)[0], spec, 25, 200, 931)
        default_rng, generators = np.random.default_rng, []

        class CountingGenerator:
            def __init__(self, seed):
                self.rng, self.calls = default_rng(seed), Counter()
                generators.append(self)

            def integers(self, *a, **k):
                self.calls["integers"] += 1
                return self.rng.integers(*a, **k)

            def random(self, *a, **k):
                self.calls["random"] += 1
                return self.rng.random(*a, **k)

        monkeypatch.setattr(engine, "_TABLE_PER_REPLICA", bound[0])
        monkeypatch.setattr(engine, "_TABLE_FLOOR", bound[1])
        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        ids, arcs = engine._run_replicas(*args)
        monkeypatch.setattr(np.random, "default_rng", default_rng)
        assert [g.calls for g in generators] == [{k: 25 * n for k, n in per_step.items()}]
        again, again_arcs = engine._run_replicas(*args)
        assert np.array_equal(ids, again) and arcs == again_arcs


def replay_cases():
    """Three seeded starts in each of the 16 spaces, for the per-replica replay.

    Every start in a space that allows multi-arcs doubles its first arc, so
    alpha's pair multiplicities there exceed 1.
    """
    rng = random.Random(2540)
    cases = []
    for features in ALL_FEATURE_SETS:
        for labeling in ("stub", "vertex"):
            spec = SpaceSpec.from_string(features, labeling)
            for k in range(3):
                while True:
                    start = random_instance(rng, max_vertices=5, max_arcs=6, max_side=3)
                    if spec.allow_multi:
                        start = hypergraph(start.n_vertices, [start.arcs[0], *start.arcs[:-1]])
                    if in_space(start, spec, degree_sequence(start)):
                        break
                steps, replicas = rng.randint(1, 25), rng.choice([1, 5, 40])
                case = (start, spec, steps, replicas, rng.randrange(10**6))
                cases.append(pytest.param(*case, id=f"{features or 'none'}-{labeling}-{k}"))
    return cases


def replayed_rows(start, spec, steps, replicas, seed):
    """Each replica's slot-ordered arcs, walked alone on the engine's draws.

    The draws are the engine's calls in its order; each replica then takes
    its move through the scalar kernel's helpers, with multiplicities from
    ``tuple.count`` on its own arcs.
    """
    rng = np.random.default_rng(seed)
    m = start.n_arcs
    rows = [list(start.arcs) for _ in range(replicas)]
    for _ in range(steps):
        i = rng.integers(0, m, replicas)
        j = rng.integers(0, m - 1, replicas)
        j += j >= i
        lo, hi = np.minimum(i, j).tolist(), np.maximum(i, j).tolist()
        bounds = [
            [comb(len(row[x][side]) + len(row[y][side]), len(row[x][side]))
             for row, x, y in zip(rows, lo, hi)]
            for side in (0, 1)
        ]
        tail_index, head_index = rng.integers(0, np.array(bounds, dtype=np.int64)).tolist()
        u = rng.random(replicas).tolist() if spec.labeling == "vertex" else None
        for r, row in enumerate(rows):
            a, b = row[lo[r]], row[hi[r]]
            tail_a, tail_b, tail_ways = _split_at(sorted(a[0] + b[0]), len(a[0]), tail_index[r])
            head_a, head_b, head_ways = _split_at(sorted(a[1] + b[1]), len(a[1]), head_index[r])
            arc_a, arc_b = (tail_a, head_a), (tail_b, head_b)
            count = tuple(row).count
            if not _admissible(a, b, arc_a, arc_b, spec, count):
                continue
            weight = tail_ways * head_ways
            if u is not None and _alpha_rejects(
                u[r], *_alpha_terms(a, b, arc_a, arc_b, weight, count)
            ):
                continue
            row[lo[r]], row[hi[r]] = arc_a, arc_b
    return rows


class TestPerReplicaReference:
    @pytest.mark.parametrize("bound", [LEXSORT_ONLY, TABLE_ALWAYS], ids=["lexsort", "table"])
    @pytest.mark.parametrize("start, spec, steps, replicas, seed", replay_cases())
    def test_rows_match_a_per_replica_replay(
        self, monkeypatch, bound, start, spec, steps, replicas, seed
    ):
        monkeypatch.setattr(engine, "_TABLE_PER_REPLICA", bound[0])
        monkeypatch.setattr(engine, "_TABLE_FLOOR", bound[1])
        ids, arcs = engine._run_replicas(start, spec, steps, replicas, seed)
        rows = [[arcs[k] for k in row] for row in ids.tolist()]
        assert rows == replayed_rows(start, spec, steps, replicas, seed)
