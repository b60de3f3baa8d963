"""Every named verification target passes, each well under its time box."""

import time

import pytest

from hypershuffle.reproduce import TARGETS, THM4_BATTERY


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_passes_quickly(name):
    t0 = time.time()
    passed, lines = TARGETS[name]()
    elapsed = time.time() - t0
    assert passed, "\n".join(lines)
    assert elapsed < 60.0
    assert lines
    gating = [line for line in lines if not line.startswith("INFO")]
    assert all(line.startswith("PASS") for line in gating)


def test_thm2_reports_near_class_verdicts():
    _, lines = TARGETS["thm2"]()
    info = [line for line in lines if line.startswith("INFO")]
    assert len(info) >= 2


def test_thm4_reports_exact_symmetry_per_instance():
    _, lines = TARGETS["thm4"]()
    info = [line for line in lines if line.startswith("INFO")]
    assert info == [f"INFO {name}: symmetric=True" for name, _ in THM4_BATTERY]


def test_thm2_near_class_lines():
    _, lines = TARGETS["thm2"]()
    assert [line for line in lines if line.startswith("INFO")] == [
        "INFO outside the proven class, three-tail-vertices: 48 states, "
        "connected=True (1 component(s))",
        "INFO outside the proven class, head-size-three: 8 states, "
        "connected=True (1 component(s))",
    ]


def test_thm3_lines():
    _, lines = TARGETS["thm3"]()
    edge_swap = [
        f"PASS [{name}] disconnected edge-swap instance: vertex degrees "
        "[[1, 1], [1, 1], [1, 1]], 3 arcs, 2 states in 2 components"
        for name in ("none", "d", "m", "dm")
    ]
    assert lines == [
        "PASS [sd] three-tail-pairs: frozen start is an isolated class with unit "
        "diagonal (2 classes, 54 stub states, stub walk disconnected)",
        "PASS [sd] second state present in the space",
        "PASS [sdm] control: allowing multi-arcs reconnects the instance",
    ] + edge_swap
