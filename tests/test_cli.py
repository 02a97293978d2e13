from __future__ import annotations

import argparse
import hashlib
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import complete_graph, cycle_join_k2, fixture_path
from sdpcolor import batch, fixtures
from sdpcolor.batch import BatchReport, BatchRow, emit_report, run_batch
from sdpcolor.cli import build_parser, cli_main
from sdpcolor.fixtures import corpus_name, fixture_text, load_corpus, load_figure
from sdpcolor.graphs import (
    GraphParseError,
    edge_list_text,
    find_clique,
    parse_edge_list,
    plantri_line,
)
from sdpcolor.heuristics import CYCLE, EXHAUSTED, FAILED
from test_heuristics import CYCLING

README = Path(__file__).resolve().parent.parent / "README.md"


class TestExitCodes:
    def test_svcn_on_clique(self, capsys, tmp_path):
        path = tmp_path / "k4.edges"
        path.write_text("4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
        code = cli_main(["svcn", "--graph", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "objective=-0.333333" in out
        assert " pivoted_steps=0" in out

    def test_color_failure_exit_one(self, capsys):
        code = cli_main(["color", "--algo", "1", "--graph", fixture_path("fig3.edges")])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[-1] == (
            "FAILED solves=22 colored=[1, 2, 5, 6, 7] cause=exhausted vertex=9")

    def test_color_success_exit_zero(self, capsys):
        code = cli_main(["color", "--algo", "2", "--graph", fixture_path("fig4.edges")])
        out = capsys.readouterr().out
        assert code == 0
        assert "COLORED" in out

    def test_color_certify_runs_certify_cost(self, capsys):
        code = cli_main(["color", "--algo", "1", "--graph", "fig4", "--certify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certificate cost(k=4, n=12)" in out
        assert out.splitlines()[-1].strip() == "verdict: True"

    def test_color_cycle_names_its_cause(self, capsys, tmp_path):
        path = tmp_path / "cycle.txt"
        path.write_text(CYCLING["n11#1186/l2"][0] + "\n")
        code = cli_main(["color", "--algo", "2", "--graph", str(path)])
        assert code == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "FAILED solves=41 colored=[1, 2, 3, 8, 9, 10] cause=cycle")

    @pytest.mark.parametrize("argv", [
        ["svcn"],  # unbounded: nothing bounds z_00
        ["certify-cost"],  # the oracle's coloring uses k = 1 color
        ["independent-cost", "--colors", "1"],
    ])
    def test_graph_without_edges_refused(self, capsys, tmp_path, argv):
        path = tmp_path / "empty.edges"
        path.write_text("3 0\n")
        assert cli_main(argv + ["--graph", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("algo", ["1", "2"])
    def test_color_on_k5_names_the_empty_face(self, capsys, tmp_path, algo):
        path = tmp_path / "k5.edges"
        path.write_text(edge_list_text(complete_graph(5)))
        assert cli_main(["color", "--algo", algo, "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "clique face is {0}" in err

    @pytest.mark.parametrize("algo", ["1", "2"])
    def test_color_on_cycle_join_k2_names_the_infeasible_face(self, capsys, tmp_path, algo):
        path = tmp_path / "c5k2.edges"
        path.write_text(edge_list_text(cycle_join_k2()))
        assert cli_main(["color", "--algo", algo, "--graph", str(path)]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "no feasible point" in line
        assert captured.out == ""

    def test_usage_error_exit_two(self):
        assert cli_main(["no-such-command"]) == 2

    def test_parse_error_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("2 1\n1 1\n")
        assert cli_main(["svcn", "--graph", str(path)]) == 2
        assert "self-loop" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert cli_main(["svcn", "--graph", "/nonexistent/g.edges"]) == 2

    def test_certify_ktree_generated(self, capsys):
        code = cli_main(["certify-ktree", "--k", "3", "--n", "8", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: True" in out

    def test_oracle(self, capsys):
        code = cli_main(["oracle", "--graph", fixture_path("fig5.edges")])
        out = capsys.readouterr().out
        assert code == 0
        assert "chromatic_number=4" in out

    def test_gen_ktree_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "tree.edges"
        code = cli_main(["gen-ktree", "--k", "4", "--n", "10", "--seed", "3",
                         "--out", str(out_path)])
        assert code == 0
        g = parse_edge_list(out_path.read_text())
        assert g.n == 10 and len(g.edges) == (2 * 10 - 4) * 3 // 2

    def test_blend_on_non_unique_fixture(self, capsys):
        code = cli_main(["blend", "--graph", fixture_path("fig5.edges")])
        out = capsys.readouterr().out
        assert code == 0
        assert "blend_rank=" in out

    @pytest.mark.parametrize("colors", ["2", "3"])
    def test_blend_without_a_coloring(self, capsys, colors):
        # fig5 has chromatic number 4: no 2- or 3-coloring, so none to blend
        code = cli_main(["blend", "--graph", "fig5", "--colors", colors])
        assert code == 1
        assert capsys.readouterr().err == f"graph is not {colors}-colorable\n"

    def test_blend_with_one_coloring(self, capsys, tmp_path):
        path = tmp_path / "k4.edges"
        path.write_text("4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
        code = cli_main(["blend", "--graph", str(path)])
        assert code == 1
        assert "uniquely colorable" in capsys.readouterr().err

    def test_independent_cost(self, capsys):
        code = cli_main(["independent-cost", "--graph", fixture_path("fig3.edges")])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict=True" in out

    @pytest.mark.parametrize("graph", [complete_graph(5), cycle_join_k2()],
                             ids=["k5", "c5-join-k2"])
    def test_independent_cost_without_a_k_coloring(self, capsys, tmp_path, graph):
        # both have a K_4 but chromatic number 5: no objective gap to measure
        path = tmp_path / "g.edges"
        path.write_text(edge_list_text(graph))
        assert cli_main(["independent-cost", "--graph", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "graph is not 4-colorable\n"

    def test_certify_cost(self, capsys):
        code = cli_main(["certify-cost", "--graph", fixture_path("fig4.edges")])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: True" in out

    @pytest.mark.parametrize("argv", [
        ["oracle", "--count-limit", "0"],  # would count no partition at all
        ["certify-cost", "--colors", "1"],
        ["certify-cost", "--colors", "0"],
        ["blend", "--colors", "1"],
    ])
    def test_unusable_count_refused(self, capsys, argv):
        assert cli_main(argv + ["--graph", "fig4"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


class TestBatchCommand:
    def test_batch_text_output(self, capsys):
        code = cli_main([
            "batch", "--corpus", fixture_path(corpus_name(7)), "--algo", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "failures" in out
        assert " 7 " in out.splitlines()[1]

    def test_batch_zero_budget_is_a_usage_error(self, capsys):
        code = cli_main([
            "batch", "--corpus", fixture_path(corpus_name(7)), "--algo", "1",
            "--budget", "0",
        ])
        assert code == 2
        assert "max_solves" in capsys.readouterr().err

    def test_batch_zero_budget_leaves_no_checkpoint(self, capsys, tmp_path):
        ck = tmp_path / "progress"
        code = cli_main([
            "batch", "--corpus", fixture_path(corpus_name(7)), "--algo", "1",
            "--budget", "0", "--checkpoint", str(ck),
        ])
        assert code == 2
        assert "max_solves" in capsys.readouterr().err
        assert not ck.exists()

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_batch_jobs_below_one_is_a_usage_error(self, capsys, tmp_path, jobs):
        ck = tmp_path / "progress"
        code = cli_main([
            "batch", "--corpus", fixture_path(corpus_name(7)), "--algo", "1",
            "--jobs", jobs, "--checkpoint", str(ck),
        ])
        assert code == 2
        assert "jobs" in capsys.readouterr().err
        assert not ck.exists()

    def test_pool_starts_no_more_workers_than_graphs_left(self, monkeypatch, tmp_path):
        started = []

        class RecordingPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, tasks, chunksize=1):
                return map(func, tasks)

        monkeypatch.setattr(batch, "Pool", RecordingPool)
        text = fixture_text(corpus_name(7))  # five graphs, four with a K_4
        ck = tmp_path / "progress"
        run_batch(text, 1, jobs=64, checkpoint=str(ck))
        run_batch(text, 1, jobs=3)
        run_batch(text, 1, jobs=64, checkpoint=str(ck))  # nothing left to run
        assert started == [5, 3]
        ck.write_text("".join(ck.read_text().splitlines(keepends=True)[:3]))
        run_batch(text, 1, jobs=64, checkpoint=str(ck))  # two rows kept, three left
        assert started == [5, 3, 3]

    def test_batch_corpus_by_shipped_name(self, capsys):
        argv = ["--algo", "1"]
        assert cli_main(["batch", "--corpus", fixture_path(corpus_name(6)), *argv]) == 0
        by_path = capsys.readouterr().out
        assert cli_main(["batch", "--corpus", corpus_name(6), *argv]) == 0
        assert capsys.readouterr().out == by_path

    def test_batch_csv_row_count(self, capsys):
        code = cli_main([
            "batch", "--corpus", fixture_path(corpus_name(7)), "--algo", "2",
            "--format", "csv",
        ])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out) == 1 + 4  # header + one row per graph with a K_4

    def test_checkpoint_resume(self, tmp_path):
        text = fixture_text(corpus_name(7))
        ck = tmp_path / "progress"
        first = run_batch(text, 1, checkpoint=str(ck))
        stored = ck.read_text()
        assert len(stored.splitlines()) == 1 + 4  # header + one row per graph with a K_4
        resumed = run_batch(text, 1, checkpoint=str(ck))
        assert ck.read_text() == stored  # nothing re-run
        assert resumed.rows == first.rows

    def test_checkpoint_resume_after_kill(self, tmp_path):
        # A killed run leaves two finished rows and a torn third line.
        text = fixture_text(corpus_name(7))
        ck = tmp_path / "progress"
        first = run_batch(text, 1, checkpoint=str(ck))
        header, *lines = ck.read_text().splitlines()
        ck.write_text("\n".join([header, *lines[:2], lines[2][:3]]))
        resumed = run_batch(text, 1, checkpoint=str(ck))
        # the stored rows come back as written, seconds included; a rerun
        # would time them anew
        assert resumed.rows[:2] == first.rows[:2]
        assert [replace(r, seconds=0.0) for r in resumed.rows[2:]] == [
            replace(r, seconds=0.0) for r in first.rows[2:]
        ]
        rerun = [r.to_csv() for r in resumed.rows[2:]]
        assert ck.read_text().splitlines() == [header, *lines[:2], *rerun]

    def test_checkpoint_lines_are_the_csv_rows(self, tmp_path):
        text = fixture_text(corpus_name(8))
        ck = tmp_path / "progress"
        report = run_batch(text, 2, checkpoint=str(ck))
        header, *body = ck.read_text().splitlines()
        columns, *rows = emit_report(report, "csv").splitlines()
        assert body == rows
        assert header.endswith(f" columns={columns}")

    def test_checkpoint_header_mismatch(self, tmp_path):
        text = fixture_text(corpus_name(5))
        ck = tmp_path / "progress"
        run_batch(text, 1, checkpoint=str(ck))
        for other in (dict(algo=2), dict(max_solves=3),
                      dict(corpus_text=fixture_text(corpus_name(6)))):
            args = dict(corpus_text=text, algo=1, checkpoint=str(ck)) | other
            with pytest.raises(ValueError):
                run_batch(**args)

    def test_checkpoint_in_the_old_format_refused_and_kept(self, tmp_path):
        # a checkpoint whose header names no columns, with a space-separated row
        text = fixture_text(corpus_name(5))
        digest = hashlib.sha256(text.encode()).hexdigest()
        ck = tmp_path / "progress"
        old = f"sdpcolor-batch algo=1 budget=none corpus={digest}\n0 colored 1 0.01\n"
        ck.write_text(old)
        with pytest.raises(ValueError):
            run_batch(text, 1, checkpoint=str(ck))
        assert ck.read_text() == old

    def test_parse_error_on_last_line_raises_before_any_run(self, tmp_path):
        ck = tmp_path / "progress"
        with pytest.raises(GraphParseError):
            run_batch(fixture_text(corpus_name(7)) + "3 bc,ac,az\n", 1, checkpoint=str(ck))
        assert not ck.exists()

    def test_pool_keeps_every_row_in_file_order(self):
        # two of the 14 graphs have no K_4: their workers return no row
        text = fixture_text(corpus_name(8))
        serial = run_batch(text, 1)
        pooled = run_batch(text, 1, jobs=2)
        with_k4 = [i for i, g in enumerate(load_corpus(8)) if find_clique(g, 4)]
        assert len(with_k4) == 12
        assert [r.index for r in pooled.rows] == with_k4
        assert [replace(r, seconds=0.0) for r in pooled.rows] == [
            replace(r, seconds=0.0) for r in serial.rows
        ]

    def test_failed_row_names_its_cause(self):
        # fig3 has 12 vertices: larger graphs need no opt-in
        (row,) = run_batch(plantri_line(load_figure("fig3")), 1).rows
        assert (row.n, row.status, row.solves) == (12, FAILED, 22)
        assert (row.cause, row.cause_vertex) == (EXHAUSTED, 9)

    def test_cycle_row_round_trips(self):
        line, solves, _ = CYCLING["n11#1186/l2"]
        for algo in (1, 2):
            (row,) = run_batch(line, algo).rows
            assert (row.status, row.solves, row.cause, row.cause_vertex) == (
                FAILED, solves, CYCLE, 0)
            assert BatchRow.from_csv(row.to_csv()) == row

    def test_deterministic_reports(self):
        text = fixture_text(corpus_name(7))
        a = run_batch(text, 1)
        b = run_batch(text, 1)
        assert [(r.index, r.status, r.solves) for r in a.rows] == [
            (r.index, r.status, r.solves) for r in b.rows
        ]


class TestPathOrFixture:
    def test_a_path_comes_before_a_shipped_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("fig5.edges").write_text("2 1\n1 2\n")
        assert fixtures.path_or_fixture_text("fig5.edges") == "2 1\n1 2\n"
        assert fixtures.path_or_fixture_text("fig5") == fixture_text("fig5.edges")

    def test_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError, match="no_such_graph"):
            fixtures.path_or_fixture_text("no_such_graph")


class TestEmitReport:
    def test_empty_report_header_only(self):
        report = BatchReport(1, ())
        text = emit_report(report, "text")
        assert len(text.strip().splitlines()) == 1

    def test_csv_contains_status(self, corpora):
        text = fixture_text(corpus_name(5))
        report = run_batch(text, 1)
        csv = emit_report(report, "csv")
        assert csv.splitlines() == [
            "index,n,algo,status,solves,seconds,cause,cause_vertex",
            f"0,5,1,colored,1,{report.rows[0].seconds!r},,0",
        ]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(BatchReport(1, ()), "xml")

    def test_aggregates_match_rows(self):
        text = fixture_text(corpus_name(8))
        report = run_batch(text, 1)
        agg = report.aggregates()
        assert sum(g for _, g, _, _ in agg) == len(report.rows)
        assert sum(f for _, _, f, _ in agg) == report.failure_count


def readme_commands() -> list:
    """The arguments of every `sdpcolor` command line in README.md's code blocks."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.S | re.M)
    commands = []
    for block in blocks:
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["sdpcolor"]:
                commands.append(words[1:])
    return commands


# every subcommand that takes --graph, with the options it requires besides
SWEEP = (["svcn"], ["certify-ktree"], ["certify-cost"], ["color", "--algo", "1"],
         ["color", "--algo", "2"], ["oracle"], ["blend"], ["independent-cost"])


def test_sweep_covers_every_graph_subcommand():
    (subparsers,) = (a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    takes_graph = {name for name, p in subparsers.choices.items()
                   if any("--graph" in a.option_strings for a in p._actions)}
    assert {argv[0] for argv in SWEEP} == takes_graph


@pytest.mark.parametrize("text", [edge_list_text(complete_graph(5)), "1 0\n",
                                  edge_list_text(cycle_join_k2())],
                         ids=["k5", "one-vertex", "c5-join-k2"])
@pytest.mark.parametrize("argv", SWEEP, ids=" ".join)
def test_graph_subcommand_sweep(capsys, tmp_path, argv, text):
    # a guard against crashes: a verdict or a refusal, never a traceback
    path = tmp_path / "g.edges"
    path.write_text(text)
    code = cli_main(argv + ["--graph", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: sdpcolor {shlex.join(argv)}")
