"""Batch heuristic runs over plantri corpora, mirroring the experiment table."""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path

from .graphs import find_clique, iter_plantri_ascii, parse_plantri_ascii
from .heuristics import COLORED, heuristic1, heuristic2

COLUMNS = "index,n,algo,status,solves,seconds,cause,cause_vertex"


@dataclass(frozen=True)
class BatchRow:
    index: int  # 0-based position in the corpus file
    n: int
    algo: int
    status: str
    solves: int
    seconds: float
    cause: str = ""  # heuristics.EXHAUSTED, NO_ADMISSIBLE, CYCLE or BUDGET when failed
    cause_vertex: int = 0  # the exhausted vertex; 0 for any other cause

    def to_csv(self) -> str:
        """One CSV line under COLUMNS; seconds in repr, so from_csv gives the row back."""
        return (f"{self.index},{self.n},{self.algo},{self.status},{self.solves},"
                f"{self.seconds!r},{self.cause},{self.cause_vertex}")

    @classmethod
    def from_csv(cls, line: str) -> BatchRow:
        index, n, algo, status, solves, seconds, cause, vertex = line.split(",")
        return cls(int(index), int(n), int(algo), status, int(solves), float(seconds),
                   cause, int(vertex))


@dataclass(frozen=True)
class BatchReport:
    algo: int
    rows: tuple

    def aggregates(self) -> list:
        """Per-n (n, graphs, failures, rate) in ascending n; row sums by design."""
        by_n: dict = {}
        for row in self.rows:
            graphs, failures = by_n.get(row.n, (0, 0))
            by_n[row.n] = (graphs + 1, failures + (row.status != COLORED))
        out = []
        for n in sorted(by_n):
            graphs, failures = by_n[n]
            out.append((n, graphs, failures, failures / graphs))
        return out

    @property
    def failure_count(self) -> int:
        return sum(1 for row in self.rows if row.status != COLORED)


def _run_one(args):
    """The row of one corpus line, or None when its graph has no K_4."""
    index, line, algo, max_solves = args
    (g,) = parse_plantri_ascii(line)
    if find_clique(g, 4) is None:
        return None
    start = time.perf_counter()
    runner = heuristic1 if algo == 1 else heuristic2
    outcome = runner(g, max_solves=max_solves)
    elapsed = time.perf_counter() - start
    return BatchRow(index, g.n, algo, outcome.status, outcome.solve_count, elapsed,
                    outcome.cause or "", outcome.cause_vertex)


def _checkpoint_header(corpus_text: str, algo: int, max_solves: int | None) -> str:
    digest = hashlib.sha256(corpus_text.encode()).hexdigest()
    budget = "none" if max_solves is None else max_solves
    return f"sdpcolor-batch algo={algo} budget={budget} corpus={digest} columns={COLUMNS}"


def _resume(path: str, header: str) -> dict:
    """Stored rows {index: BatchRow} of a checkpoint file.

    Creates the file with its header when it is missing or holds no complete
    line. Only newline-terminated lines count: a torn last line, left by a
    killed run, is cut off so that appends start on a fresh line. A header
    written for another corpus, algo, budget or column list raises ValueError.
    """
    file = Path(path)
    data = file.read_bytes() if file.exists() else b""
    cut = data.rfind(b"\n") + 1
    lines = data[:cut].decode().splitlines()
    if not lines:
        file.write_text(header + "\n")
        return {}
    if lines[0] != header:
        raise ValueError(f"checkpoint {path} was written for {lines[0]!r}, not {header!r}")
    if cut < len(data):
        os.truncate(file, cut)
    done: dict = {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            row = BatchRow.from_csv(line)
        except ValueError:
            raise ValueError(f"checkpoint {path} line {lineno}: {line!r}") from None
        done[row.index] = row
    return done


def _collect(rows, checkpoint: str | None) -> list:
    """Drain the rows of K_4 graphs as they arrive, appending each to the checkpoint at once."""
    rows = (row for row in rows if row is not None)
    if not checkpoint:
        return list(rows)
    out = []
    with open(checkpoint, "a") as fh:
        for row in rows:
            fh.write(row.to_csv() + "\n")
            fh.flush()
            out.append(row)
    return out


def run_batch(corpus_text: str, algo: int, jobs: int = 1,
              max_solves: int | None = None,
              checkpoint: str | None = None) -> BatchReport:
    """Run one heuristic over every graph with a K_4 of a plantri corpus.

    Graphs without a K_4 get no row: the experiment counts cover only graphs
    with one. Row order follows file order regardless of the worker pool, so
    reports are deterministic. Every line is parsed before any run, so a
    malformed line raises first; each task then carries its line, and the
    worker parses it again, so the corpus is never held as graphs.

    A checkpoint file starts with a header naming algo, max_solves, the
    corpus's sha256 and the columns, then holds the CSV line (BatchRow.to_csv)
    of each finished graph, written and flushed as each arrives. A rerun with
    the same file keeps the stored rows and runs only the missing graphs. A
    max_solves or jobs below 1 raises ValueError before the checkpoint is
    touched. At most one worker process runs per graph left to run.
    """
    if algo not in (1, 2):
        raise ValueError("algo must be 1 or 2")
    if max_solves is not None and max_solves < 1:
        raise ValueError(f"max_solves must be at least 1, not {max_solves}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    lines = corpus_text.splitlines()
    for _ in iter_plantri_ascii(lines):  # a malformed line raises before any run
        pass
    done = {}
    if checkpoint:
        done = _resume(checkpoint, _checkpoint_header(corpus_text, algo, max_solves))
    graph_lines = (line for line in lines if line.strip())
    tasks = [(index, line, algo, max_solves) for index, line in enumerate(graph_lines)
             if index not in done]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with Pool(processes=workers) as pool:
            fresh = _collect(pool.imap(_run_one, tasks, chunksize=1), checkpoint)
    else:
        fresh = _collect(map(_run_one, tasks), checkpoint)
    rows = tuple(sorted([*done.values(), *fresh], key=lambda r: r.index))
    return BatchReport(algo, rows)


def emit_report(report: BatchReport, format: str = "text") -> str:
    """Render a batch report; text mirrors the experiment table, csv is per row."""
    if format == "csv":
        return "\n".join([COLUMNS, *(r.to_csv() for r in report.rows)]) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    header = f"{'n':>3} {'graphs':>7} {'failures':>9} {'rate':>8}   (heuristic {report.algo})"
    lines = [header]
    total_graphs = total_failures = 0
    for n, graphs, failures, rate in report.aggregates():
        lines.append(f"{n:>3} {graphs:>7} {failures:>9} {rate:>8.4f}")
        total_graphs += graphs
        total_failures += failures
    if total_graphs:
        lines.append(
            f"{'all':>3} {total_graphs:>7} {total_failures:>9}"
            f" {total_failures / total_graphs:>8.4f}"
        )
    return "\n".join(lines) + "\n"
