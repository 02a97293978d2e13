from __future__ import annotations

from importlib.resources import files
from itertools import combinations

import pytest

from sdpcolor.fixtures import load_corpus, load_figure
from sdpcolor.graphs import Graph


def fixture_path(name: str) -> str:
    """The path of the shipped fixture file name."""
    return str(files("sdpcolor.fixtures") / name)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(1, n + 1), 2))


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_join_k2() -> Graph:
    """C_5 joined with K_2: vertices 6 and 7 adjacent to each other and to the
    5-cycle 1..5. It has five K_4 but no 4-coloring, and its clique face is not
    {0} but holds no feasible point."""
    apexes = [(6, 7)] + [(v, i) for v in (6, 7) for i in range(1, 6)]
    return Graph.from_edges(7, cycle_graph(5).edge_list() + apexes)


@pytest.fixture(scope="session")
def fig1():
    return load_figure("fig1")


@pytest.fixture(scope="session")
def fig3():
    return load_figure("fig3")


@pytest.fixture(scope="session")
def fig4():
    return load_figure("fig4")


@pytest.fixture(scope="session")
def fig5():
    return load_figure("fig5")


@pytest.fixture(scope="session")
def corpora():
    return {n: load_corpus(n) for n in range(5, 11)}
