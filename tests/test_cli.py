"""Command-line behavior: verdicts, exit codes, deterministic output."""

import errno
import hashlib
import json
import os
import random
import subprocess
import sys
from math import comb

import pytest

from hypershuffle import (
    SpaceSpec,
    __version__,
    degree_sequence,
    hypergraph,
    in_space,
    parse_dhg,
    serialize_dhg,
    split_dhg_stream,
)
from hypershuffle import chains, cli, enumeration, replicas, reproduce, shuffle
from hypershuffle.cli import main
from hypershuffle.replicas import _outcome_count, _pair_splits
from conftest import D1_BLOCKED, random_instance, src_env

FIG_INSTANCE = """\
vertices a b c
arc b b -> a
arc a -> c
arc c -> a
"""


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.dhg"
    path.write_text(FIG_INSTANCE)
    return str(path)


@pytest.fixture
def blocked_file(tmp_path):
    path = tmp_path / "blocked.dhg"
    path.write_text(serialize_dhg(D1_BLOCKED))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_enumerate_prints_eleven(fig_file, capsys):
    code = run_cli("enumerate", "--input", fig_file, "--space", "sdm")
    assert code == 0
    assert capsys.readouterr().out.strip() == "11"


def test_enumerate_all_figure_spaces(fig_file, capsys):
    for features, want in (("sdm", 11), ("sm", 8), ("d", 5), ("", 4)):
        code = run_cli("enumerate", "--input", fig_file, "--space", features)
        assert code == 0
        assert capsys.readouterr().out.strip() == str(want)


def test_enumerate_verbose_lists_the_space_with_the_input_names(fig_file, capsys):
    code = run_cli("enumerate", "--input", fig_file, "--space", "sm", "--verbose")
    assert code == 0
    count, listing = capsys.readouterr().out.split("\n", 1)
    docs = split_dhg_stream(listing)
    assert len(docs) == int(count) == 8
    H0 = parse_dhg(FIG_INSTANCE)
    d, spec = degree_sequence(H0), SpaceSpec.from_string("sm")
    listed = [parse_dhg(doc) for doc in docs]
    for H in listed:
        assert H.labels == H0.labels == ("a", "b", "c")
        assert in_space(H, spec, d)
    assert len({H.arcs for H in listed}) == len(listed)


def test_sample_zero_steps_emits_input(fig_file, capsys):
    code = run_cli(
        "sample", "--input", fig_file, "--space", "sdm",
        "--steps", "0", "--samples", "3", "--seed", "7",
    )
    assert code == 0
    out = capsys.readouterr().out
    docs = split_dhg_stream(out)
    assert len(docs) == 3
    original = serialize_dhg(parse_dhg(FIG_INSTANCE))
    for doc in docs:
        assert serialize_dhg(parse_dhg(doc)) == original


def test_sample_is_byte_deterministic(fig_file, tmp_path):
    out1, out2 = tmp_path / "a.out", tmp_path / "b.out"
    for out in (out1, out2):
        code = run_cli(
            "sample", "--input", fig_file, "--steps", "50",
            "--samples", "5", "--seed", "123", "--out", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_report_schema(fig_file, tmp_path):
    report = tmp_path / "report.json"
    code = run_cli(
        "sample", "--input", fig_file, "--steps", "60", "--samples", "400",
        "--seed", "5", "--out", str(tmp_path / "s.dhg"),
        "--report", str(report),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["k"] == 60
    assert payload["replicas"] == 400
    assert payload["labeling"] == "stub"
    assert payload["version"] == __version__
    assert payload["engine"] == "replicas"
    assert "p" in payload and "chi2" in payload and "verdict" in payload


def test_chain_verify_passes_on_good_space(fig_file, capsys, tmp_path):
    edges = tmp_path / "chain.txt"
    curve = tmp_path / "tv.csv"
    code = run_cli(
        "chain-verify", "--input", fig_file, "--space", "sdm",
        "--export-chain", str(edges), "--export-tv", str(curve),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "states 36" in out
    assert "strongly-connected true" in out
    assert edges.read_text().splitlines()[0].count(" ") == 2
    assert curve.read_text().startswith("step,tv")


def test_chain_verify_fails_on_counterexample(blocked_file, capsys):
    code = run_cli("chain-verify", "--input", blocked_file, "--space", "sd")
    assert code == 1
    assert "strongly-connected false" in capsys.readouterr().out


def test_check_accepts_and_rejects(blocked_file, capsys):
    assert run_cli("check", "--input", blocked_file, "--space", "sd") == 0
    assert "in-space true" in capsys.readouterr().out
    assert run_cli("check", "--input", blocked_file, "--space", "s") == 1
    assert "in-space false" in capsys.readouterr().out


def test_reproduce_fig_target(capsys):
    assert run_cli("reproduce", "fig-fixed-degrees") == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run_cli("sample")  # missing --input
    assert err.value.code == 2


def test_unknown_target_exit_code():
    with pytest.raises(SystemExit) as err:
        run_cli("reproduce", "thm99")
    assert err.value.code == 2


@pytest.mark.parametrize("flag", ["--steps", "--samples"])
def test_negative_count_is_a_usage_error(fig_file, capsys, flag):
    with pytest.raises(SystemExit) as err:
        run_cli("sample", "--input", fig_file, flag, "-1")
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: hypershuffle sample")
    assert f"argument {flag}: must be nonnegative, got -1" in stderr


def test_non_integer_env_seed_is_a_usage_error(fig_file, capsys, monkeypatch):
    monkeypatch.setenv("HYPERSHUFFLE_SEED", "seven")
    with pytest.raises(SystemExit) as err:
        run_cli("sample", "--input", fig_file, "--steps", "1")
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: hypershuffle ")
    assert "HYPERSHUFFLE_SEED must be an integer, got 'seven'" in stderr


def test_missing_file_is_reported(capsys):
    assert run_cli("check", "--input", "/nonexistent.dhg", "--space", "sdm") == 1


def is_a_directory(path):
    return f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{path}'\n"


def test_directory_as_input_is_reported(tmp_path, capsys):
    assert run_cli("check", "--input", str(tmp_path)) == 1
    assert capsys.readouterr().err == is_a_directory(tmp_path)


def test_directory_as_output_is_reported(fig_file, tmp_path, capsys):
    code = run_cli("sample", "--input", fig_file, "--steps", "5", "--out", str(tmp_path))
    assert code == 1
    assert capsys.readouterr().err == is_a_directory(tmp_path)


def test_non_utf8_input_is_reported(tmp_path, capsys):
    path = tmp_path / "latin1.dhg"
    path.write_bytes(FIG_INSTANCE.replace("a", "\xe9").encode("latin-1"))
    assert run_cli("check", "--input", str(path)) == 1
    assert capsys.readouterr().err == (
        "error: 'utf-8' codec can't decode byte 0xe9 in position 9: "
        "invalid continuation byte\n"
    )


def test_env_seed_applies(fig_file, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.dhg", tmp_path / "b.dhg"
    monkeypatch.setenv("HYPERSHUFFLE_SEED", "99")
    run_cli("sample", "--input", fig_file, "--steps", "30", "--samples", "2",
            "--out", str(out1))
    monkeypatch.delenv("HYPERSHUFFLE_SEED")
    run_cli("sample", "--input", fig_file, "--steps", "30", "--samples", "2",
            "--seed", "99", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hypershuffle.cli", "reproduce", "fig-fixed-degrees"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 4


def test_chain_verify_vertex_labeling(fig_file, capsys):
    code = run_cli(
        "chain-verify", "--input", fig_file, "--space", "sdm",
        "--labeling", "vertex",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "states 11" in out
    assert "uniform-stationary true" in out


def test_sample_vertex_mode_report(fig_file, tmp_path):
    report = tmp_path / "report.json"
    code = run_cli(
        "sample", "--input", fig_file, "--labeling", "vertex",
        "--steps", "80", "--samples", "300", "--seed", "3",
        "--out", str(tmp_path / "s.dhg"), "--report", str(report),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["labeling"] == "vertex"
    assert payload["verdict"] in ("pass", "fail")


def test_sample_report_without_enough_cells(blocked_file, tmp_path):
    # One sample: every expected count is below 5, so all cells pool into
    # one and no chi-square test can run.
    report = tmp_path / "report.json"
    code = run_cli(
        "sample", "--input", blocked_file, "--space", "sd", "--steps", "10",
        "--samples", "1", "--seed", "1", "--out", str(tmp_path / "s.dhg"),
        "--report", str(report),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["verdict"] == (
        "no chi-square test: not enough cells with adequate expected counts"
    )
    assert payload["replicas"] == 1
    assert payload["version"] == __version__
    assert payload["engine"] == "scalar"


def test_unknown_space_letter_is_a_usage_error(fig_file, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("sample", "--input", fig_file, "--space", "sdx")
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: hypershuffle sample")
    assert "argument --space: unknown feature letters: ['x']" in stderr


@pytest.mark.parametrize("limit", ["3", "0"])
def test_chain_verify_state_limit_exits_1(fig_file, capsys, limit):
    # 0 is a limit like any other, not a request for the default.
    assert run_cli("chain-verify", "--input", fig_file, "--limit", limit) == 1
    assert capsys.readouterr().err == f"error: 36 states exceed the cap {limit}\n"


def test_chain_verify_limit_does_not_lift_the_stub_guard(tmp_path, capsys):
    # --limit caps chain states; the 12-stub enumeration guard stays.
    path = tmp_path / "fourteen.dhg"
    path.write_text(
        "vertices a b c d e f g\n"
        + "".join(f"arc {u} -> {w}\n" for u, w in zip("abcdefg", "bcdefga"))
    )
    code = run_cli("chain-verify", "--input", str(path), "--space", "s",
                   "--limit", "100000")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: instance has 14 stubs, above the limit of 12\n"
    )


@pytest.mark.parametrize("command", ["sample", "check"])
def test_limit_is_not_an_option_where_nothing_is_capped(fig_file, capsys, command):
    with pytest.raises(SystemExit) as err:
        run_cli(command, "--input", fig_file, "--limit", "5")
    assert err.value.code == 2
    assert "unrecognized arguments: --limit 5" in capsys.readouterr().err


def test_chain_verify_zero_steps_exports_the_start(fig_file, tmp_path):
    curve = tmp_path / "tv.csv"
    code = run_cli(
        "chain-verify", "--input", fig_file, "--steps", "0",
        "--export-tv", str(curve),
    )
    assert code == 0
    lines = curve.read_text().splitlines()
    assert lines[0] == "step,tv"
    assert [line.split(",")[0] for line in lines[1:]] == ["0"]


@pytest.mark.parametrize("labeling", ["stub", "vertex"])
def test_chain_verify_tv_export_on_an_empty_space(tmp_path, capsys, labeling):
    # The one arc these degrees allow is degenerate, so space '' is empty.
    path = tmp_path / "empty.dhg"
    path.write_text("vertices u v\narc u u -> v\n")
    code = run_cli("chain-verify", "--input", str(path), "--space", "",
                   "--labeling", labeling, "--export-tv", str(tmp_path / "tv.csv"))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "states 0\nregular true\naperiodic true\n"
        "strongly-connected false (0 components)\nuniform-stationary true\n"
    )
    assert captured.err == (
        f"error: space {labeling}[] has no states, so no TV curve to export\n"
    )


@pytest.mark.parametrize("flag", ["--steps", "--limit"])
def test_chain_verify_negative_count_is_a_usage_error(fig_file, capsys, tmp_path, flag):
    curve = tmp_path / "tv.csv"
    with pytest.raises(SystemExit) as err:
        run_cli("chain-verify", "--input", fig_file, flag, "-3",
                "--export-tv", str(curve))
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: hypershuffle chain-verify")
    assert f"argument {flag}: must be nonnegative, got -3" in stderr
    assert not curve.exists()


# One step draws one of C(12, 2) * C(4, 2) * C(2, 1) = 792 outcomes.
TWELVE_ARCS = hypergraph(
    12, [((k, (k + 1) % 12), ((k + 3) % 12,)) for k in range(12)]
)
# A digraph: C(5, 2) * 2 * 2 = 40 outcomes, below the sample floor.
CYCLE_CHORD = hypergraph(4, [((k,), ((k + 1) % 4,)) for k in range(4)] + [((0,), (2,))])
# Two equal 29-stub tails: a vertex-mode alpha denominator can pass 2**53.
WIDE_TAILS = hypergraph(2, [((0,) * 29, (1,)), ((0,) * 29, (1,))])
INSTANCES = {
    "fig": parse_dhg(FIG_INSTANCE),
    "twelve": TWELVE_ARCS,
    "cycle": CYCLE_CHORD,
    "wide": WIDE_TAILS,
    "one": hypergraph(2, [((0,), (1,))]),
}


@pytest.fixture
def instance_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.dhg"
        path.write_text(FIG_INSTANCE if name == "fig" else serialize_dhg(INSTANCES[name]))
        return str(path)
    return write


class TestRouting:
    """``_use_replicas`` at each of its boundaries."""

    floor = cli._MIN_REPLICAS
    steps = cli._MIN_STEPS_WITHOUT_REPORT

    def test_sample_floor(self):
        fig = INSTANCES["fig"]
        assert not cli._use_replicas(fig, self.floor - 1, 10**6, "r.json")
        assert cli._use_replicas(fig, self.floor, 0, "r.json")
        assert not cli._use_replicas(fig, self.floor - 1, 10**6, None)
        assert cli._use_replicas(fig, self.floor, 10**6, None)

    def test_outcome_count(self):
        outcomes = 792
        assert outcomes > self.floor
        assert not cli._use_replicas(TWELVE_ARCS, outcomes - 1, 10**6, "r.json")
        assert cli._use_replicas(TWELVE_ARCS, outcomes, 10**6, "r.json")

    def test_steps_without_report(self):
        fig, samples = INSTANCES["fig"], 2 * self.floor
        steps = -(-self.steps // samples)
        assert not cli._use_replicas(fig, samples, steps - 1, None)
        assert cli._use_replicas(fig, samples, steps, None)
        assert cli._use_replicas(fig, samples, 0, "r.json")

    def test_outcome_count_is_the_engine_largest_split_counts(self):
        rng = random.Random(913)
        for _ in range(300):
            H = random_instance(rng, max_vertices=5, max_arcs=6, max_side=5)
            tails, heads = _pair_splits(H)[1].max(axis=(1, 2))
            outcomes = comb(H.n_arcs, 2) * int(tails) * int(heads)
            assert _outcome_count(H) == outcomes
            floor = max(self.floor, outcomes)
            assert cli._use_replicas(H, floor, 0, "r.json")
            assert not cli._use_replicas(H, floor - 1, 0, "r.json")

    def test_fewer_than_two_arcs(self):
        assert cli._use_replicas(INSTANCES["one"], self.floor, 0, "r.json")

    def test_engine_integer_range(self):
        # 2 * C(58, 29) outcomes: more than any sample count that fits in memory.
        assert not cli._use_replicas(WIDE_TAILS, 2**40, 10**6, "r.json")


# SHA-256 of the `sample --out` bytes.  The scalar cases were recorded
# before `sample` could route to the replica engine and must not change;
# the replica cases pin that engine's fixed-seed stream.
SAMPLE_PINS = [
    ("scalar", "fig", ["--steps", "50", "--samples", "5", "--seed", "123"], False,
     "e0a4cf5a8fac7a6af7a198e3a028dfae4bccf0fd0951dc8811b5a72d7cc8b775"),
    ("scalar", "fig", ["--labeling", "vertex", "--steps", "40", "--samples", "63",
                       "--seed", "7"], True,
     "3e0da951275c0ef6b7574a8ce3212cf1d11159603e0bdb5bb602f292b87cf7fe"),
    ("scalar", "fig", ["--steps", "10", "--samples", "100", "--seed", "-3"], False,
     "fcbe5df6f1039f2f9401657d86678463d61ddcdcfeb40ccf838ade7734416ab4"),
    ("scalar", "twelve", ["--labeling", "vertex", "--space", "", "--steps", "300",
                          "--samples", "65", "--seed", "11"], False,
     "6b2af51685c605eff35ab74498dcc29e2c768034c41cdc8f69e46d156c721dfe"),
    ("replicas", "fig", ["--steps", "300", "--samples", "64", "--seed", "5"], False,
     "1ea95d2ce4c3231a19dbe1f8e16e59d6fb1b073805fb4e9b11932b83f3becf49"),
    ("replicas", "fig", ["--labeling", "vertex", "--steps", "20", "--samples", "100",
                         "--seed", "9"], True,
     "8045c173d0e1e20062d775cc5d4ea6fc44bf69010e44566152b70a3f3a6b0741"),
    ("replicas", "fig", ["--samples", "100", "--seed", "-3"], False,
     "6f2418fb5768f0c6d32281cc188e098182ac44460b5125aa54384deab238cb9b"),
    ("replicas", "cycle", ["--labeling", "vertex", "--space", "", "--steps", "40",
                           "--samples", "80", "--seed", "2"], True,
     "8601d6449afd7413a3117d8ed5e905461285795af2e23d372aad64b58b34374b"),
]


@pytest.mark.parametrize(
    "engine, name, argv, report, digest", SAMPLE_PINS,
    ids=[f"{engine}-{name}-{' '.join(argv)}{' --report' if report else ''}"
         for engine, name, argv, report, _ in SAMPLE_PINS],
)
def test_sample_output_pins(instance_file, tmp_path, engine, name, argv, report, digest):
    opts = dict(zip(argv[::2], argv[1::2]))
    routed = cli._use_replicas(INSTANCES[name], int(opts["--samples"]),
                               int(opts.get("--steps", 1000)), "r.json" if report else None)
    assert routed == (engine == "replicas")
    out, report_path = tmp_path / "s.dhg", tmp_path / "r.json"
    extra = ["--report", str(report_path)] if report else []
    assert run_cli("sample", "--input", instance_file(name), "--out", str(out),
                   *argv, *extra) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_negative_seed_on_the_replica_route(fig_file, tmp_path, monkeypatch):
    # numpy rejects negative seeds; the route derives a nonnegative one.
    argv = ["sample", "--input", fig_file, "--samples", "100"]
    assert cli._use_replicas(INSTANCES["fig"], 100, 1000, None)
    outputs = []
    for k, seed_args in enumerate((["--seed", "-3"], ["--seed", "-3"], [])):
        out = tmp_path / f"{k}.dhg"
        if not seed_args:
            monkeypatch.setenv("HYPERSHUFFLE_SEED", "-3")
        assert run_cli(*argv, *seed_args, "--out", str(out)) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(split_dhg_stream(outputs[0].decode())) == 100


# Nothing moves with no steps, or with one arc: every sample is the input.
@pytest.mark.parametrize("name, steps", [("fig", 0), ("one", 20)])
def test_replica_route_without_moves_emits_input(instance_file, tmp_path, name, steps):
    out, report = tmp_path / "s.dhg", tmp_path / "r.json"
    samples = cli._MIN_REPLICAS
    path = instance_file(name)
    code = run_cli("sample", "--input", path, "--steps", str(steps),
                   "--samples", str(samples), "--out", str(out),
                   "--report", str(report))
    assert code == 0
    assert json.loads(report.read_text())["engine"] == "replicas"
    docs = split_dhg_stream(out.read_text())
    assert len(docs) == samples
    original = serialize_dhg(INSTANCES[name])
    assert all(serialize_dhg(parse_dhg(doc)) == original for doc in docs)


@pytest.mark.parametrize("name, labeling, features", [
    ("fig", "stub", "sdm"), ("fig", "vertex", "d"), ("cycle", "vertex", ""),
])
def test_replica_route_samples_are_in_space(instance_file, tmp_path, name,
                                            labeling, features):
    out, report = tmp_path / "s.dhg", tmp_path / "r.json"
    code = run_cli("sample", "--input", instance_file(name), "--labeling", labeling,
                   "--space", features, "--steps", "50", "--samples", "70",
                   "--seed", "4", "--out", str(out), "--report", str(report))
    assert code == 0
    assert json.loads(report.read_text())["engine"] == "replicas"
    spec = SpaceSpec.from_string(features, labeling)
    d = degree_sequence(INSTANCES[name])
    docs = split_dhg_stream(out.read_text())
    assert len(docs) == 70
    assert all(in_space(parse_dhg(doc), spec, d) for doc in docs)


def test_instance_past_the_engine_range_stays_scalar(instance_file, tmp_path):
    report = tmp_path / "r.json"
    code = run_cli("sample", "--input", instance_file("wide"), "--labeling", "vertex",
                   "--steps", "1", "--samples", str(cli._MIN_REPLICAS),
                   "--out", str(tmp_path / "s.dhg"), "--report", str(report))
    assert code == 0
    assert json.loads(report.read_text())["engine"] == "scalar"


def refuse(*args, **kwargs):
    raise AssertionError("ran before the output paths were checked")


@pytest.mark.parametrize("samples", ["5", "200"])
@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_sample_checks_output_paths_first(fig_file, tmp_path, capsys, monkeypatch,
                                          flag, samples):
    monkeypatch.setattr(shuffle, "run_chain", refuse)
    monkeypatch.setattr(replicas, "_run_replicas", refuse)
    other = "--report" if flag == "--out" else "--out"
    code = run_cli("sample", "--input", fig_file, "--samples", samples,
                   other, str(tmp_path / "other"), flag, str(tmp_path))
    assert code == 1
    assert capsys.readouterr().err == is_a_directory(tmp_path)


@pytest.mark.parametrize("flag", ["--out", "--export-chain", "--export-tv"])
def test_chain_verify_checks_output_paths_first(fig_file, tmp_path, capsys,
                                                monkeypatch, flag):
    monkeypatch.setattr(chains, "build_stub_chain", refuse)
    code = run_cli("chain-verify", "--input", fig_file, flag, str(tmp_path))
    assert code == 1
    assert capsys.readouterr().err == is_a_directory(tmp_path)


@pytest.mark.parametrize("command", ["enumerate", "reproduce", "check"])
def test_other_commands_check_output_path_first(fig_file, tmp_path, capsys,
                                                monkeypatch, command):
    monkeypatch.setattr(enumeration, "enumerate_vertex_space", refuse)
    monkeypatch.setitem(reproduce.TARGETS, "thm1", refuse)
    monkeypatch.setattr(cli, "classify_features", refuse)
    argv = {
        "enumerate": ["enumerate", "--input", fig_file],
        "reproduce": ["reproduce", "thm1"],
        "check": ["check", "--input", fig_file],
    }[command]
    assert run_cli(*argv, "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == is_a_directory(tmp_path)
