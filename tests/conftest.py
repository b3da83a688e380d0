"""Shared strategies and the acceptance-summary terminal hook."""

import multiprocessing

import pytest
from hypothesis import strategies as st

from partycover import lab
from partycover.graphs import from_red_mask, num_edges

# one line per acceptance criterion, filled in by test_acceptance.py
ACCEPTANCE_LINES: list[str] = []


@st.composite
def colorings(draw, min_n=2, max_n=10):
    """Random ColoredCocktail with even n in [min_n, max_n]."""
    n = 2 * draw(st.integers(min_value=min_n // 2, max_value=max_n // 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << num_edges(n)) - 1))
    return from_red_mask(n, mask)


@st.composite
def colorings_with_subset(draw, min_n=2, max_n=10):
    """(g, S) with S an arbitrary vertex mask of g."""
    g = draw(colorings(min_n=min_n, max_n=max_n))
    members = draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
    return g, members


@pytest.fixture
def started(monkeypatch):
    """The processes started during the test, appended as each starts."""
    procs = []
    real = multiprocessing.process.BaseProcess.start

    def start(self):
        procs.append(self)
        real(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return procs


@pytest.fixture
def small_blocks(monkeypatch, started):
    """Scan blocks of 2**8 exhaustive and 16 random colorings, so small
    scans fork their workers: n = 6 is 16 blocks, and 64 and 300 samples
    are 4 and 20.  Only the caller is patched; a child gets the plan in
    its arguments, whatever start method made it.  Returns started."""
    monkeypatch.setattr(lab, "_LANE_BITS", 8)
    monkeypatch.setattr(lab, "_RANDOM_LANES", 16)
    return started


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
