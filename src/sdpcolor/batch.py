"""Batch heuristic runs over plantri corpora, mirroring the experiment table."""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path

from .graphs import Graph, find_clique, iter_plantri_ascii
from .heuristics import COLORED, FAILED, heuristic1, heuristic2

LONG_MODE_THRESHOLD = 11  # corpora with larger graphs require explicit opt-in
NO_K4 = "no-k4"


@dataclass(frozen=True)
class BatchRow:
    index: int  # 0-based position in the corpus file
    n: int
    has_k4: bool
    algo: int
    status: str
    solves: int
    seconds: float


@dataclass(frozen=True)
class BatchReport:
    algo: int
    filter_k4: bool
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
    index, n, edges, algo, max_solves = args
    g = Graph(n, frozenset(edges))
    start = time.perf_counter()
    runner = heuristic1 if algo == 1 else heuristic2
    outcome = runner(g, max_solves=max_solves)
    elapsed = time.perf_counter() - start
    return BatchRow(index, n, True, algo, outcome.status, outcome.solve_count, elapsed)


def _checkpoint_header(corpus_text: str, algo: int, max_solves: int | None) -> str:
    digest = hashlib.sha256(corpus_text.encode()).hexdigest()
    budget = "none" if max_solves is None else max_solves
    return f"sdpcolor-batch algo={algo} budget={budget} corpus={digest}"


def _resume(path: str, header: str) -> dict:
    """Stored rows {index: (status, solves, seconds)} of a checkpoint file.

    Creates the file with its header when it is missing or holds no complete
    line. Only newline-terminated lines count: a torn last line, left by a
    killed run, is cut off so that appends start on a fresh line. A header
    written for another corpus, algo or budget raises ValueError.
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
            index, status, solves, seconds = line.split()
            done[int(index)] = (status, int(solves), float(seconds))
        except ValueError:
            raise ValueError(f"checkpoint {path} line {lineno}: {line!r}") from None
    return done


def _collect(rows, checkpoint: str | None) -> list:
    """Drain rows as they arrive, appending each one to the checkpoint at once."""
    if not checkpoint:
        return list(rows)
    out = []
    with open(checkpoint, "a") as fh:
        for row in rows:
            fh.write(f"{row.index} {row.status} {row.solves} {row.seconds!r}\n")
            fh.flush()
            out.append(row)
    return out


def run_batch(corpus_text: str, algo: int, filter_k4: bool = True,
              jobs: int = 1, long_mode: bool = False,
              max_solves: int | None = None,
              checkpoint: str | None = None) -> BatchReport:
    """Run one heuristic over every graph of a plantri corpus.

    Graphs without a K_4 are dropped when filter_k4 is set (the experiment
    counts cover only graphs with one); otherwise they appear with status
    "no-k4". Row order follows file order regardless of the worker pool, so
    reports are deterministic. Corpora containing graphs with more than 11
    vertices are refused unless long_mode is set. The corpus is parsed twice:
    a first pass checks every line, so a malformed line or a refused graph
    raises before any run, and the second builds each graph and its task only
    as the runs draw them, so the corpus is never held as graphs.

    A checkpoint file starts with a header naming algo, max_solves and the
    corpus's sha256, then holds one line "index status solves seconds" per
    finished graph, written and flushed as each arrives. A rerun with the
    same file keeps the stored rows and runs only the missing graphs. A
    max_solves below 1 raises ValueError before the checkpoint is touched.
    """
    if algo not in (1, 2):
        raise ValueError("algo must be 1 or 2")
    if max_solves is not None and max_solves < 1:
        raise ValueError(f"max_solves must be at least 1, not {max_solves}")
    lines = corpus_text.splitlines()
    largest = max((g.n for g in iter_plantri_ascii(lines)), default=0)
    if not long_mode and largest > LONG_MODE_THRESHOLD:
        raise ValueError(
            f"corpus has graphs with n > {LONG_MODE_THRESHOLD}; pass long_mode"
        )
    done = {}
    if checkpoint:
        done = _resume(checkpoint, _checkpoint_header(corpus_text, algo, max_solves))

    skipped_rows = []

    def tasks():
        for index, g in enumerate(iter_plantri_ascii(lines)):
            if find_clique(g, 4) is None:
                if not filter_k4:
                    skipped_rows.append(BatchRow(index, g.n, False, algo, NO_K4, 0, 0.0))
            elif index in done:
                status, solves, seconds = done[index]
                skipped_rows.append(BatchRow(index, g.n, True, algo, status, solves, seconds))
            else:
                yield index, g.n, tuple(g.edges), algo, max_solves

    # Under a pool, the pool's feeder thread draws tasks() and appends to
    # skipped_rows; imap ends only after that generator is exhausted, so the
    # list is complete once _collect returns.
    if jobs > 1:
        with Pool(processes=jobs) as pool:
            fresh = _collect(pool.imap(_run_one, tasks(), chunksize=1), checkpoint)
    else:
        fresh = _collect(map(_run_one, tasks()), checkpoint)

    rows = tuple(sorted(skipped_rows + fresh, key=lambda r: r.index))
    return BatchReport(algo, filter_k4, rows)


def emit_report(report: BatchReport, format: str = "text") -> str:
    """Render a batch report; text mirrors the experiment table, csv is per row."""
    if format == "csv":
        lines = ["index,n,has_k4,algo,status,solves,seconds"]
        for r in report.rows:
            lines.append(
                f"{r.index},{r.n},{int(r.has_k4)},{r.algo},{r.status},"
                f"{r.solves},{r.seconds:.3f}"
            )
        return "\n".join(lines) + "\n"
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
