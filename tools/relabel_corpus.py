#!/usr/bin/env python3
"""Write seeded random relabelings of a plantri corpus, one file per labeling.

Both heuristics depend on the vertex labels: the anchors are the first K_4 that
find_clique returns and the scan runs 1..n. A relabeled corpus shows which
failures belong to a graph and which to one labeling of it.

Usage: python tools/relabel_corpus.py CORPUS SEED L OUTDIR

CORPUS is a plantri-ascii path or the name of a shipped corpus (planar_n11.txt).
OUTDIR gets L files, <stem>_seed<SEED>_l<k>.txt for k = 0..L-1, and line i of
each is corpus graph i. One random.Random(SEED) serves the whole corpus: graphs
go in corpus order with labelings inner, and each labeling of a graph with a K_4
draws perm = list(range(1, n + 1)); rng.shuffle(perm), so that vertex i becomes
perm[i - 1]. A graph without a K_4 draws nothing and is copied unchanged.
`sdpcolor batch` runs each file as it is; its checkpoint header hashes the
corpus, so every labeling gets its own checkpoint.
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import ExitStack
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sdpcolor.fixtures import path_or_fixture_text  # noqa: E402
from sdpcolor.graphs import Graph, find_clique, iter_plantri_ascii, plantri_line  # noqa: E402


def relabel_lines(lines, seed: int, labelings: int):
    """Per corpus graph, the tuple of its `labelings` relabeled plantri lines."""
    rng = random.Random(seed)
    for g in iter_plantri_ascii(lines):
        if find_clique(g, 4) is None:
            yield (plantri_line(g),) * labelings
            continue
        out = []
        for _ in range(labelings):
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            out.append(plantri_line(
                Graph.from_edges(g.n, ((perm[i - 1], perm[j - 1]) for i, j in g.edges))))
        yield tuple(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("corpus", help="plantri-ascii path or shipped corpus name")
    parser.add_argument("seed", type=int)
    parser.add_argument("labelings", type=int, metavar="L")
    parser.add_argument("outdir", type=Path)
    args = parser.parse_args()
    if args.labelings < 1:
        parser.error(f"L must be at least 1, not {args.labelings}")
    path = Path(args.corpus)
    text = path_or_fixture_text(args.corpus)
    args.outdir.mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        names = (f"{path.stem}_seed{args.seed}_l{k}.txt" for k in range(args.labelings))
        files = [stack.enter_context(open(args.outdir / name, "w")) for name in names]
        for relabeled in relabel_lines(text.splitlines(), args.seed, args.labelings):
            for fh, line in zip(files, relabeled):
                fh.write(line + "\n")
    print(f"wrote {args.labelings} labelings of {path.stem} to {args.outdir}")


if __name__ == "__main__":
    main()
