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
