"""Imports: each layer, and numpy and scipy, load only when first used.

The subprocess tests run fresh interpreters, since the test process itself
has numpy, scipy and every layer loaded; they also check that the light
commands never load ``dataclasses``, ``inspect`` or ``json``.  The public
names resolve through one table in ``__init__``.  The chi-square tests pin
``uniformity_test`` to ``scipy.stats.chisquare``, bit for bit.  No module
imports a name it never uses.
"""

import ast
import random
import subprocess
import sys
from collections import Counter

from pathlib import Path

import pytest
from scipy.stats import chisquare

import hypershuffle
from hypershuffle import serialize_dhg, uniformity_test
from hypershuffle.cli import _use_replicas
from hypershuffle.validation import MIN_EXPECTED
from conftest import D1_BLOCKED, WORKED_EXAMPLE, src_env

HEAVY = """
import sys
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
assert not heavy, heavy
"""
# Neither the exact oracles nor the statistics layer: only ``reproduce``
# targets and ``sample --report`` need them.
NO_CHAINS_NOR_VALIDATION = """
import sys
for name in ("hypershuffle.chains", "hypershuffle.validation"):
    assert name not in sys.modules, (name, sorted(sys.modules))
"""


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=src_env()
    )


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_found():
    source = "from math import comb, gcd\nimport os.path\nprint(gcd(2, 4))\n"
    assert unused_imports(source) == ["comb (line 1)", "os (line 2)"]


PACKAGE = Path(hypershuffle.__file__).parent


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_package_import_loads_neither_numpy_nor_scipy():
    proc = run_python("-c", "import hypershuffle, hypershuffle.cli\n" + HEAVY)
    assert proc.returncode == 0, proc.stderr


def test_package_and_cli_import_load_only_hypergraph():
    code = (
        "import sys\n"
        "import hypershuffle, hypershuffle.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'hypershuffle')\n"
        "assert loaded == ['hypershuffle', 'hypershuffle.cli', 'hypershuffle.hypergraph'], loaded\n"
        # A submodule and a public name load their layer on first use.
        "assert hypershuffle.validation is sys.modules['hypershuffle.validation']\n"
        "assert hypershuffle.build_stub_chain.__module__ == 'hypershuffle.chains'\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_check_and_scalar_sample_leave_chains_unloaded(tmp_path):
    path = tmp_path / "blocked.dhg"
    path.write_text(serialize_dhg(D1_BLOCKED))
    check = ["check", "--input", str(path), "--space", "sd"]
    sample = ["sample", "--input", str(path), "--space", "sd", "--samples", "3",
              "--out", str(tmp_path / "s.dhg")]
    code = (
        "from hypershuffle.cli import main\n"
        f"assert main({check!r}) == 0\n" + NO_CHAINS_NOR_VALIDATION
        + f"assert main({sample!r}) == 0\n" + NO_CHAINS_NOR_VALIDATION
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "s.dhg").read_text().count("# sample ") == 3


def test_reproduce_help_lists_the_targets_without_loading_chains():
    code = (
        "import sys\n"
        "from hypershuffle.cli import main\n"
        "try:\n"
        "    main(['reproduce', '--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n" + NO_CHAINS_NOR_VALIDATION
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "{fig-fixed-degrees,thm1,thm2,thm3,thm4}" in proc.stdout


def test_check_and_enumerate_load_neither_numpy_nor_scipy(tmp_path):
    path = tmp_path / "worked.dhg"
    path.write_text(serialize_dhg(WORKED_EXAMPLE))
    code = (
        "from hypershuffle.cli import main\n"
        f"assert main(['check', '--input', {str(path)!r}]) == 0\n"
        f"assert main(['enumerate', '--input', {str(path)!r}]) == 0\n" + HEAVY
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "42300"


def test_commands_load_neither_dataclasses_nor_inspect_nor_json(tmp_path):
    # The records are written out by hand and only ``--report`` writes JSON,
    # so no light command pays for these modules' import time.
    worked, blocked = tmp_path / "worked.dhg", tmp_path / "blocked.dhg"
    worked.write_text(serialize_dhg(WORKED_EXAMPLE))
    blocked.write_text(serialize_dhg(D1_BLOCKED))
    runs = [
        (["check", "--input", str(worked)], 0),
        (["enumerate", "--input", str(worked)], 0),
        (["chain-verify", "--input", str(blocked), "--space", "sd"], 1),
        (["sample", "--input", str(blocked), "--space", "sd", "--samples", "3",
          "--out", str(tmp_path / "s.dhg")], 0),
    ]
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "def loaded():\n"
        "    return sorted({'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before))\n"
        "import hypershuffle, hypershuffle.cli\n"
        "assert loaded() == [], ('import', loaded())\n"
        f"for argv, status in {runs!r}:\n"
        "    assert hypershuffle.cli.main(argv) == status, argv\n"
        "    assert loaded() == [], (argv[0], loaded())\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "s.dhg").read_text().count("# sample ") == 3


def test_report_without_a_test_loads_neither_numpy_nor_scipy(tmp_path):
    # One sample leaves fewer than two cells to compare: no chi-square runs.
    path, report = tmp_path / "blocked.dhg", tmp_path / "report.json"
    path.write_text(serialize_dhg(D1_BLOCKED))
    argv = ["sample", "--input", str(path), "--space", "sd", "--samples", "1",
            "--out", str(tmp_path / "s.dhg"), "--report", str(report)]
    code = f"from hypershuffle.cli import main\nassert main({argv!r}) == 0\n" + HEAVY
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "no chi-square test" in report.read_text()


def test_sample_kept_on_the_scalar_engine_loads_neither_numpy_nor_scipy(tmp_path):
    # Enough samples for the replica engine, but too few steps in all to
    # repay importing numpy, and no report.
    assert _use_replicas(D1_BLOCKED, 100, 1000, None)
    assert not _use_replicas(D1_BLOCKED, 100, 10, None)
    path = tmp_path / "blocked.dhg"
    path.write_text(serialize_dhg(D1_BLOCKED))
    argv = ["sample", "--input", str(path), "--space", "sd", "--samples", "100",
            "--steps", "10", "--out", str(tmp_path / "s.dhg")]
    code = f"from hypershuffle.cli import main\nassert main({argv!r}) == 0\n" + HEAVY
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "s.dhg").read_text().count("# sample ") == 100


def test_python_m_hypershuffle_help():
    proc = run_python("-m", "hypershuffle", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hypershuffle ")
    # The same module body, run where the loaded modules can be listed.
    code = (
        "import sys\n"
        "sys.argv = ['hypershuffle', '--help']\n"
        "try:\n"
        "    import hypershuffle.__main__\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n" + HEAVY
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def reference_chisquare(counts, space, weights):
    """Pool the cells as ``uniformity_test`` documents, then ask scipy."""
    n = sum(counts.values())
    total_w = sum(weights)
    obs, exp, spill_obs, spill_exp = [], [], 0.0, 0.0
    for key, w in zip(space, weights):
        e = n * w / total_w
        if e < MIN_EXPECTED:
            spill_obs += counts.get(key, 0)
            spill_exp += e
        else:
            obs.append(counts.get(key, 0))
            exp.append(e)
    if spill_exp > 0:
        obs.append(spill_obs)
        exp.append(spill_exp)
    stat, p = chisquare(obs, exp)
    return float(stat), float(p), len(obs) - 1


@pytest.mark.parametrize("seed", range(30))
def test_uniformity_test_matches_scipy_chisquare(seed):
    rng = random.Random(seed)
    cells = rng.randint(2, 30)
    space = [f"1|{k}>0".encode() for k in range(cells)]
    weights = [rng.randint(1, 20) for _ in range(cells)]
    samples = Counter(rng.choices(space, weights, k=rng.choice([200, 1000, 5000])))
    report = uniformity_test(samples, space, weights)
    stat, p, dof = reference_chisquare(samples, space, weights)
    assert (report.statistic, report.p_value, report.dof) == (stat, p, dof)


def test_uniformity_test_matches_scipy_with_a_spill_cell():
    # Expected counts 50, 30, 15, 3, 1.5, 0.5: the last three pool into one.
    space = [f"1|{k}>0".encode() for k in range(6)]
    weights = [100, 60, 30, 6, 3, 1]
    samples = Counter(dict(zip(space, [47, 33, 12, 5, 2, 1])))
    report = uniformity_test(samples, space, weights)
    assert report.pooled_cells == 3 and report.dof == 3
    stat, p, dof = reference_chisquare(samples, space, weights)
    assert (report.statistic, report.p_value, report.dof) == (stat, p, dof)


@pytest.mark.parametrize("weights", [[1, 1], [10, 1, 1]])
def test_uniformity_test_matches_scipy_with_one_degree_of_freedom(weights):
    # Two adequate cells, or one adequate cell plus a spill cell.
    space = [f"1|{k}>0".encode() for k in range(len(weights))]
    samples = Counter(dict(zip(space, [9, 3, 0][: len(weights)])))
    report = uniformity_test(samples, space, weights)
    assert report.dof == 1
    stat, p, dof = reference_chisquare(samples, space, weights)
    assert (report.statistic, report.p_value, report.dof) == (stat, p, dof)


# ---------------------------------------------------------------------------
# The public API table


def test_every_public_name_resolves_to_its_defining_module():
    listed = dir(hypershuffle)
    assert len(set(hypershuffle.__all__)) == len(hypershuffle.__all__) == 52
    for name in hypershuffle.__all__:
        obj = getattr(hypershuffle, name)
        assert name in listed
        assert obj.__module__.startswith("hypershuffle.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hypershuffle import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hypershuffle.__all__)
    assert all(namespace[name] is getattr(hypershuffle, name) for name in namespace)


def test_public_name_is_looked_up_on_every_access(monkeypatch):
    # Nothing is copied into the package, so a patch of the defining
    # module (as bench/tracer.py installs) is what the package returns.
    from hypershuffle import shuffle

    def patched(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(shuffle, "run_chain", patched)
    assert hypershuffle.run_chain is patched


def test_hypergraph_stays_the_function_after_every_submodule_loads():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py")
                     if p.stem not in ("__init__", "__main__"))
    code = (
        "import importlib, sys\n"
        "import hypershuffle\n"
        "import hypershuffle.hypergraph\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module('hypershuffle.' + name)\n"
        "from hypershuffle import hypergraph\n"
        "assert hypergraph is sys.modules['hypershuffle.hypergraph'].hypergraph\n"
        "assert hypershuffle.hypergraph is hypergraph\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["no_such_name", "_run_replicas", "__wrapped__"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(hypershuffle, name)
