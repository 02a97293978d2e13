"""Shipped fixture graphs: the four figure graphs and plantri corpora n=5..11.

The figure graphs were transcribed from the source drawings; the corpora list
every maximal planar graph (sphere triangulation) on n vertices, one per line
in plantri ascii format, regenerable with tools/generate_corpora.py.
"""

from __future__ import annotations

from importlib.resources import files
from pathlib import Path

from ..graphs import Graph, parse_edge_list, parse_plantri_ascii

FIGURES = ("fig1.edges", "fig3.edges", "fig4.edges", "fig5.edges")
CORPUS_RANGE = range(5, 12)


def fixture_text(name: str) -> str:
    return (files(__package__) / name).read_text()


def path_or_fixture_text(name: str) -> str:
    """The text of the file at path name, or else of the shipped fixture name.

    A figure's name may leave out its ".edges" suffix (fig5).
    """
    if Path(name).is_file():
        return Path(name).read_text()
    for fixture in (name, name + ".edges"):
        if (files(__package__) / fixture).is_file():
            return fixture_text(fixture)
    raise FileNotFoundError(f"no such file or shipped fixture: {name}")


def load_figure(name: str) -> Graph:
    if not name.endswith(".edges"):
        name += ".edges"
    return parse_edge_list(fixture_text(name))


def corpus_name(n: int) -> str:
    return f"planar_n{n:02d}.txt"


def load_corpus(n: int) -> list:
    return parse_plantri_ascii(fixture_text(corpus_name(n)))
