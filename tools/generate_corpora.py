#!/usr/bin/env python3
"""Regenerate the maximal-planar corpora (plantri ascii): the shipped n = 5..11, or n = 12, 13.

Enumerates every sphere triangulation on n vertices by breadth-first search
over diagonal flips, starting from a stacked triangulation. Flip connectivity
at fixed n is Wagner's theorem; triangulations with n >= 5 are 3-connected, so
the embedding is unique up to isomorphism and graph-level deduplication is
sound. Faces are carried along explicitly, so no planarity code is needed to
flip; networkx is used only for isomorphism rejection and a final planarity
sanity check.

Usage: python tools/generate_corpora.py [outdir [n ...]]

Without n it writes the shipped corpora, n = 5..11 (into the fixtures directory
when no outdir is given). n = 12 and 13 are not shipped: name them after an outdir.
n = 11 takes about 15 s, n = 12 about 160 s and n = 13 about 25 minutes.

Expected class counts (triangulations of the sphere, OEIS A000109): 1, 2, 5, 14,
50, 233, 1249, 7595, 49566 for n = 5..13. The run aborts if the enumeration disagrees.
"""

from __future__ import annotations

import sys
from collections import deque
from itertools import combinations
from pathlib import Path

import networkx as nx

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sdpcolor.graphs import Graph, plantri_line  # noqa: E402

EXPECTED = {5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249, 12: 7595, 13: 49566}
SHIPPED = range(5, 12)


def stacked_triangulation(n):
    """K_4 plus repeated vertex insertion into the first face."""
    edges = {frozenset(e) for e in combinations(range(1, 5), 2)}
    faces = {frozenset(f) for f in combinations(range(1, 5), 3)}
    for v in range(5, n + 1):
        face = sorted(faces, key=sorted)[0]
        faces.remove(face)
        a, b, c = sorted(face)
        edges |= {frozenset((v, a)), frozenset((v, b)), frozenset((v, c))}
        faces |= {frozenset((v, a, b)), frozenset((v, a, c)), frozenset((v, b, c))}
    return frozenset(edges), frozenset(faces)


def flips(edges, faces):
    """All triangulations one diagonal flip away."""
    by_edge = {}
    for face in faces:
        for pair in combinations(sorted(face), 2):
            by_edge.setdefault(frozenset(pair), []).append(face)
    out = []
    for edge, pair_faces in by_edge.items():
        if len(pair_faces) != 2:
            raise AssertionError("edge not on exactly two faces")
        f1, f2 = pair_faces
        (c,) = f1 - edge
        (d,) = f2 - edge
        new_edge = frozenset((c, d))
        if new_edge in edges:
            continue  # flip would create a multi-edge
        a, b = sorted(edge)
        new_faces = (faces - {f1, f2}) | {frozenset((a, c, d)), frozenset((b, c, d))}
        out.append((frozenset((edges - {edge}) | {new_edge}), frozenset(new_faces)))
    return out


def to_nx(edges):
    g = nx.Graph()
    g.add_edges_from(tuple(sorted(e)) for e in edges)
    return g


def enumerate_triangulations(n):
    """One representative (edges, faces) per isomorphism class."""
    start = stacked_triangulation(n)
    buckets = {}  # WL hash -> list of (edge frozenset, nx graph)

    def register(edges):
        g = to_nx(edges)
        key = nx.weisfeiler_lehman_graph_hash(g, iterations=4)
        for known_edges, known_g in buckets.get(key, []):
            if nx.is_isomorphic(g, known_g):
                return False
        buckets.setdefault(key, []).append((edges, g))
        return True

    register(start[0])
    queue = deque([start])
    reps = [start]
    while queue:
        state = queue.popleft()
        for nxt in flips(*state):
            if register(nxt[0]):
                queue.append(nxt)
                reps.append(nxt)
    return reps


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "sdpcolor" / "fixtures"
    )
    sizes = [int(arg) for arg in sys.argv[2:]] or list(SHIPPED)
    unknown = [n for n in sizes if n not in EXPECTED]
    if unknown:
        raise SystemExit(f"no expected count for n = {unknown}; choose from {sorted(EXPECTED)}")
    outdir.mkdir(parents=True, exist_ok=True)
    for n in sizes:
        expected = EXPECTED[n]
        reps = enumerate_triangulations(n)
        if len(reps) != expected:
            raise SystemExit(
                f"n={n}: found {len(reps)} triangulations, expected {expected}"
            )
        lines = []
        for edges, faces in reps:
            if len(edges) != 3 * n - 6 or len(faces) != 2 * n - 4:
                raise SystemExit(f"n={n}: malformed triangulation")
            ok, _ = nx.check_planarity(to_nx(edges))
            if not ok:
                raise SystemExit(f"n={n}: non-planar graph generated")
            g = Graph.from_edges(n, (tuple(sorted(e)) for e in edges))
            lines.append(plantri_line(g))
        lines.sort()
        path = outdir / f"planar_n{n:02d}.txt"
        path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path} ({len(lines)} graphs)")


if __name__ == "__main__":
    main()
