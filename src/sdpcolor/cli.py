"""Command-line front end: certificates, heuristics, oracles, and batches.

Exit codes: 0 = success / verdict true, 1 = verdict false or heuristic
failure, 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import sys

from .batch import emit_report, run_batch
from .certificates import (
    OBJ_TOL,
    PSD_SLACK,
    blend_colorings,
    certify_cost,
    certify_ktree,
    independent_cost,
)
from .fixtures import path_or_fixture_text
from .formulations import reference_solution, solve_svcn
from .graphs import (
    GraphParseError,
    chromatic_oracle,
    count_colorings,
    edge_list_text,
    enumerate_cliques,
    enumerate_colorings,
    find_clique,
    generate_ktree,
    parse_edge_list,
    parse_plantri_ascii,
)
from .heuristics import COLORED, format_log, heuristic1, heuristic2
from .linalg import min_eigenvalue, numerical_rank

import numpy as np


def _read_graph(path: str):
    """Load a graph from a file path or a shipped fixture name."""
    text = path_or_fixture_text(path)
    first = next(
        (ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")),
        "",
    )
    if "," in first:
        graphs = parse_plantri_ascii(text)
        if len(graphs) != 1:
            raise GraphParseError("expected exactly one graph in plantri input")
        return graphs[0]
    return parse_edge_list(text)


def _cmd_svcn(args) -> int:
    g = _read_graph(args.graph)
    summary = solve_svcn(g)
    sol = summary.solution
    print(
        f"objective={summary.objective:.6f} primal_rank={summary.rank_primal}"
        f" dual_rank={summary.rank_dual} status={sol.status}"
        f" iterations={sol.iterations} pivoted_steps={sol.pivoted_steps}"
    )
    return 0 if sol.optimal else 1


def _cmd_certify_ktree(args) -> int:
    if args.graph is not None:
        g = _read_graph(args.graph)
    else:
        if args.n is None:
            raise ValueError("certify-ktree needs --graph or --n")
        g, _ = generate_ktree(args.k, args.n, args.seed)
    report = certify_ktree(g, args.k)
    print(report.to_text())
    return 0 if report.verdict else 1


def _cmd_certify_cost(args) -> int:
    g = _read_graph(args.graph)
    if args.colors is not None:
        if args.colors < 2:
            raise ValueError("palette size must be at least 2")
        colorings = enumerate_colorings(g, args.colors, limit=1)
        if not colorings:
            print(f"graph is not {args.colors}-colorable", file=sys.stderr)
            return 1
        coloring = colorings[0]
    else:
        _, coloring = chromatic_oracle(g)
    report = certify_cost(g, coloring)
    print(report.to_text())
    return 0 if report.verdict else 1


def _cmd_color(args) -> int:
    g = _read_graph(args.graph)
    runner = heuristic1 if args.algo == 1 else heuristic2
    outcome = runner(g)
    if args.log:
        print(format_log(outcome.log))
    if outcome.status == COLORED:
        palette = ",".join(str(c) for c in outcome.coloring.assignment)
        print(f"COLORED solves={outcome.solve_count} rank={outcome.final_rank}")
        print(f"coloring={palette}")
        if args.certify:
            report = certify_cost(g, outcome.coloring)
            print(report.to_text())
            return 0 if report.verdict else 1
        return 0
    cause = f" cause={outcome.cause}" if outcome.cause else ""
    if outcome.cause_vertex:
        cause += f" vertex={outcome.cause_vertex}"
    print(f"{outcome.status.upper()} solves={outcome.solve_count}"
          f" colored={sorted(outcome.colored_vertices)}{cause}")
    return 1


def _cmd_batch(args) -> int:
    text = path_or_fixture_text(args.corpus)
    report = run_batch(text, args.algo, jobs=args.jobs, max_solves=args.budget,
                       checkpoint=args.checkpoint)
    sys.stdout.write(emit_report(report, args.format))
    return 0 if report.failure_count == 0 else 1


def _cmd_oracle(args) -> int:
    g = _read_graph(args.graph)
    chi, coloring = chromatic_oracle(g)
    count = count_colorings(g, chi, limit=args.count_limit)
    palette = ",".join(str(c) for c in coloring.assignment)
    print(f"chromatic_number={chi} colorings={count}")
    print(f"witness={palette}")
    return 0


def _cmd_gen_ktree(args) -> int:
    g, _ = generate_ktree(args.k, args.n, args.seed)
    text = edge_list_text(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_blend(args) -> int:
    g = _read_graph(args.graph)
    k = args.colors
    if k < 2:
        raise ValueError("palette size must be at least 2")
    clique = find_clique(g, k)
    if clique is None:
        print(f"graph has no K_{k}", file=sys.stderr)
        return 1
    colorings = enumerate_colorings(g, k, limit=2)
    if not colorings:
        print(f"graph is not {k}-colorable", file=sys.stderr)
        return 1
    if len(colorings) < 2:
        print("graph is uniquely colorable; nothing to blend", file=sys.stderr)
        return 1
    x = blend_colorings(g, colorings[0], colorings[1], clique, args.alpha)
    rank = numerical_rank(x)
    lam = min_eigenvalue(x)
    print(f"blend_rank={rank} lambda_min={lam:.3e} target_rank_gt={k - 1}")
    return 0 if rank > k - 1 else 1


def _cmd_independent_cost(args) -> int:
    g = _read_graph(args.graph)
    k = args.colors
    cost, assignment = independent_cost(g, k)
    chi, coloring = chromatic_oracle(g)
    if chi > k:
        print(f"graph is not {k}-colorable", file=sys.stderr)
        return 1
    lam = min_eigenvalue(assignment.S)
    x_ref = reference_solution(g, coloring)
    gap = abs(float(np.sum(cost * x_ref)) - assignment.dual_obj)
    cliques = len(enumerate_cliques(g, k))
    ok = lam >= -PSD_SLACK and gap <= OBJ_TOL
    print(
        f"cliques={cliques} lambda_min={lam:.3e}"
        f" objective_gap={gap:.3e} rank={numerical_rank(assignment.S)}"
        f" verdict={ok}"
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdpcolor",
        description="SDP certificates and heuristics for graph coloring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("svcn", help="solve the strict vector chromatic number SDP")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_svcn)

    p = sub.add_parser("certify-ktree", help="closed-form certificate for a (k-1)-tree")
    p.add_argument("--graph")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_certify_ktree)

    p = sub.add_parser("certify-cost", help="coloring-dependent cost certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--colors", type=int)
    p.set_defaults(func=_cmd_certify_cost)

    p = sub.add_parser("color", help="run a four-coloring heuristic")
    p.add_argument("--algo", type=int, choices=(1, 2), required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--log", action="store_true", help="print the heuristic's step log")
    p.add_argument("--certify", action="store_true",
                   help="re-certify the coloring through the dual construction")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("batch", help="run a heuristic over a plantri corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--algo", type=int, choices=(1, 2), required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int, help="per-graph solve budget")
    p.add_argument("--checkpoint", help="resumable progress file")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("oracle", help="exact chromatic number by backtracking")
    p.add_argument("--graph", required=True)
    p.add_argument("--count-limit", type=int)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen-ktree", help="generate a random (k-1)-tree")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_ktree)

    p = sub.add_parser("blend", help="rank-blowup witness from two colorings")
    p.add_argument("--graph", required=True)
    p.add_argument("--colors", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(func=_cmd_blend)

    p = sub.add_parser("independent-cost", help="structure-only cost certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--colors", type=int, default=4)
    p.set_defaults(func=_cmd_independent_cost)

    return parser


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (GraphParseError, ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
