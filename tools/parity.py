#!/usr/bin/env python3
"""Print the observable outputs of the heuristics and certificates, one run per block.

For each corpus file and figure it runs both heuristics on every graph with a K_4
and prints the status, solve count, final rank, coloring, classes, the cause and
vertex of a failure, and format_log.
It can also print certify_cost on every K_4 graph of a corpus (with the oracle's
coloring), certify_ktree on the 200 (k, n, seed) triples of acceptance
criterion 3, and the SVCN solves of fig1 and of the 4-trees on 60, 80 and 100
vertices (the benchmark's svcn_large items) and on 150 and 400 vertices, where a
solver stall at scale shows: objective repr, primal and dual rank, status,
iterations and pivoted steps. The output depends only on the code under src/ next to
this file, so checking two commits for parity is one diff:

    python tools/parity.py > a.txt        # in one checkout
    python tools/parity.py > b.txt        # in the other
    diff a.txt b.txt

Usage: python tools/parity.py [--corpus FILE]... [--figure NAME]...
                              [--certify-cost FILE]... [--certify-ktree] [--svcn]

A corpus FILE is a plantri-ascii path or the name of a shipped corpus
(planar_n10.txt). With no arguments it prints the standard set: both heuristics on
every shipped corpus (n = 5..11) and on fig3, fig4 and fig5, certify_cost on
planar_n10.txt, the certify_ktree triples and the six SVCN solves.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sdpcolor.certificates import certify_cost, certify_ktree  # noqa: E402
from sdpcolor.fixtures import CORPUS_RANGE, corpus_name, load_figure, path_or_fixture_text  # noqa: E402
from sdpcolor.formulations import solve_svcn  # noqa: E402
from sdpcolor.graphs import chromatic_oracle, find_clique, generate_ktree, iter_plantri_ascii  # noqa: E402
from sdpcolor.heuristics import format_log, heuristic1, heuristic2  # noqa: E402

CRITERION3_SEED = 20240811
FIGURES = ("fig3", "fig4", "fig5")
# (n, seed) of the 4-trees: svcn_large's, then two at scale
SVCN_TREES = ((60, CRITERION3_SEED), (80, CRITERION3_SEED), (100, CRITERION3_SEED),
              (150, CRITERION3_SEED), (400, 7))


def k4_graphs(name: str):
    """(label, graph) for every graph of the corpus that has a K_4, by corpus index.

    The graphs are parsed as they are drawn, so the corpus is never held as graphs.
    """
    text = path_or_fixture_text(name)
    for index, g in enumerate(iter_plantri_ascii(text.splitlines())):
        if find_clique(g, 4) is not None:
            yield f"{Path(name).name}#{index}", g


def print_runs(label: str, g) -> None:
    for algo, run in ((1, heuristic1), (2, heuristic2)):
        out = run(g)
        coloring = "-" if out.coloring is None else ",".join(map(str, out.coloring.assignment))
        classes = " ".join("(" + ",".join(map(str, cls)) + ")" for cls in out.classes)
        print(f"run {label} h{algo} status={out.status} solves={out.solve_count}"
              f" rank={out.final_rank} coloring={coloring} classes={classes}"
              f" cause={out.cause or '-'} cause_vertex={out.cause_vertex}")
        if out.log:
            print(format_log(out.log))


def print_report(header: str, report) -> None:
    print(f"{header} verdict={report.verdict}")
    print(report.to_text())


def print_svcn(label: str, g) -> None:
    summary = solve_svcn(g)
    sol = summary.solution
    print(f"svcn {label} objective={summary.objective!r}"
          f" rank={summary.rank_primal}/{summary.rank_dual} status={sol.status}"
          f" iterations={sol.iterations} pivoted_steps={sol.pivoted_steps}")


def criterion3_triples() -> list:
    rng = random.Random(CRITERION3_SEED)
    triples = []
    for k in (2, 3, 4, 5):
        triples += [(k, rng.randint(k, 25), rng.randint(0, 10**6)) for _ in range(50)]
    return triples


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--corpus", action="append", default=[],
                        help="run both heuristics on this corpus's K_4 graphs")
    parser.add_argument("--figure", action="append", default=[],
                        help="run both heuristics on this shipped figure")
    parser.add_argument("--certify-cost", action="append", default=[], metavar="FILE",
                        help="certify_cost on this corpus's K_4 graphs")
    parser.add_argument("--certify-ktree", action="store_true",
                        help="certify_ktree on acceptance criterion 3's 200 triples")
    parser.add_argument("--svcn", action="store_true",
                        help="SVCN on fig1 and the 4-trees on 60, 80, 100, 150 and 400 vertices")
    args = parser.parse_args()
    if not (args.corpus or args.figure or args.certify_cost or args.certify_ktree
            or args.svcn):
        args.corpus = [corpus_name(n) for n in CORPUS_RANGE]
        args.figure = list(FIGURES)
        args.certify_cost = [corpus_name(10)]
        args.certify_ktree = True
        args.svcn = True

    for name in args.corpus:
        for label, g in k4_graphs(name):
            print_runs(label, g)
    for name in args.figure:
        print_runs(name, load_figure(name))
    for name in args.certify_cost:
        for label, g in k4_graphs(name):
            print_report(f"cost {label}", certify_cost(g, chromatic_oracle(g)[1]))
    if args.certify_ktree:
        for k, n, seed in criterion3_triples():
            g, _ = generate_ktree(k, n, seed)
            print_report(f"ktree k={k} n={n} seed={seed}", certify_ktree(g, k))
    if args.svcn:
        print_svcn("fig1", load_figure("fig1"))
        for n, seed in SVCN_TREES:
            print_svcn(f"tree k=4 n={n} seed={seed}", generate_ktree(4, n, seed)[0])


if __name__ == "__main__":
    main()
