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


# Every line of every target, recorded from the CLI before the exact
# builders took the state list as the in-space test.
TARGET_LINES = {
    "fig-fixed-degrees": [
        "PASS space [sdm]: 11 vertex-labeled hypergraphs (expected 11)",
        "PASS space [sm]: 8 vertex-labeled hypergraphs (expected 8)",
        "PASS space [d]: 5 vertex-labeled hypergraphs (expected 5)",
        "PASS space [none]: 4 vertex-labeled hypergraphs (expected 4)",
    ],
    "thm1": [
        "PASS worked-example [sdm]: 36 states, symmetric=True, aperiodic=True, "
        "connected=True, uniform-stationary=True",
        "PASS worked-example [sm]: 30 states, symmetric=True, aperiodic=True, "
        "connected=True, uniform-stationary=True",
        "PASS three-tail-pairs [sdm]: 90 states, symmetric=True, aperiodic=True, "
        "connected=True, uniform-stationary=True",
        "PASS three-tail-pairs [sm]: 48 states, symmetric=True, aperiodic=True, "
        "connected=True, uniform-stationary=True",
        "PASS degenerate-vs-multi [sdm]: 6 states, symmetric=True, "
        "aperiodic=True, connected=True, uniform-stationary=True",
        "PASS degenerate-vs-multi [sm]: 4 states, symmetric=True, aperiodic=True, "
        "connected=True, uniform-stationary=True",
        "PASS two-loops [sdm]: 2 states, symmetric=True, aperiodic=True, "
        "connected=True, uniform-stationary=True",
        "PASS two-loops [sm]: 2 states, symmetric=True, aperiodic=True, "
        "connected=True, uniform-stationary=True",
        "PASS mixed-sizes [sdm]: 9 states, symmetric=True, aperiodic=True, "
        "connected=True, uniform-stationary=True",
        "PASS mixed-sizes [sm]: 9 states, symmetric=True, aperiodic=True, "
        "connected=True, uniform-stationary=True",
        "PASS shared-heads [sdm]: 6 states, symmetric=True, aperiodic=True, "
        "connected=True, uniform-stationary=True",
        "PASS shared-heads [sm]: 4 states, symmetric=True, aperiodic=True, "
        "connected=True, uniform-stationary=True",
    ],
    "thm2": [
        "PASS two-tails-four-heads: 6 states, connected=True (1 component(s))",
        "PASS two-tails-three-arcs: 48 states, connected=True (1 component(s))",
        "PASS tails-receive-too: 56 states, connected=True (1 component(s))",
        "PASS lopsided-heads: 432 states, connected=True (1 component(s))",
        "INFO outside the proven class, three-tail-vertices: 48 states, "
        "connected=True (1 component(s))",
        "INFO outside the proven class, head-size-three: 8 states, connected=True "
        "(1 component(s))",
    ],
    "thm3": [
        "PASS [sd] three-tail-pairs: frozen start is an isolated class with unit "
        "diagonal (2 classes, 54 stub states, stub walk disconnected)",
        "PASS [sd] second state present in the space",
        "PASS [sdm] control: allowing multi-arcs reconnects the instance",
        "PASS [none] disconnected edge-swap instance: vertex degrees [[1, 1], [1, "
        "1], [1, 1]], 3 arcs, 2 states in 2 components",
        "PASS [d] disconnected edge-swap instance: vertex degrees [[1, 1], [1, "
        "1], [1, 1]], 3 arcs, 2 states in 2 components",
        "PASS [m] disconnected edge-swap instance: vertex degrees [[1, 1], [1, "
        "1], [1, 1]], 3 arcs, 2 states in 2 components",
        "PASS [dm] disconnected edge-swap instance: vertex degrees [[1, 1], [1, "
        "1], [1, 1]], 3 arcs, 2 states in 2 components",
    ],
    "thm4": [
        "PASS worked-example: 11 classes, doubly-stochastic=True, "
        "uniform-stationary=True, routes-agree=True, connected=True, "
        "pushforward-counts=True",
        "INFO worked-example: symmetric=True",
        "PASS degenerate-vs-multi: 2 classes, doubly-stochastic=True, "
        "uniform-stationary=True, routes-agree=True, connected=True, "
        "pushforward-counts=True",
        "INFO degenerate-vs-multi: symmetric=True",
        "PASS shared-heads: 4 classes, doubly-stochastic=True, "
        "uniform-stationary=True, routes-agree=True, connected=True, "
        "pushforward-counts=True",
        "INFO shared-heads: symmetric=True",
        "PASS three-tail-pairs: 5 classes, doubly-stochastic=True, "
        "uniform-stationary=True, routes-agree=True, connected=True, "
        "pushforward-counts=True",
        "INFO three-tail-pairs: symmetric=True",
    ],
}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_lines(name):
    assert TARGETS[name]() == (True, TARGET_LINES[name])
