"""Graphs, colorings, k-tree machinery, and brute-force coloring oracles.

Vertices are labeled 1..n throughout, matching the usual figure labels for
the fixture graphs. All types are immutable after construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator


class GraphParseError(ValueError):
    """Malformed graph text. Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _normalize_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a set of (i, j) pairs, i < j."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i < j <= self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, frozenset(_normalize_edge(i, j) for i, j in edges))

    @cached_property
    def neighbors(self) -> tuple:
        """neighbors[v] is the frozenset N(v); index 0 is unused."""
        adj = [set() for _ in range(self.n + 1)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def _adj_bits(self) -> tuple:
        """Neighborhoods as bitmasks (bit v-1 set for neighbor v)."""
        bits = [0] * (self.n + 1)
        for i, j in self.edges:
            bits[i] |= 1 << (j - 1)
            bits[j] |= 1 << (i - 1)
        return tuple(bits)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, i: int, j: int) -> bool:
        return _normalize_edge(i, j) in self.edges

    def edge_list(self) -> list:
        return sorted(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class Coloring:
    """Assignment of vertices 1..n to colors 1..k. Unused colors are allowed."""

    k: int
    assignment: tuple

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("palette size must be positive")
        for c in self.assignment:
            if not (1 <= c <= self.k):
                raise ValueError(f"color {c} outside palette 1..{self.k}")

    @property
    def n(self) -> int:
        return len(self.assignment)

    def color(self, v: int) -> int:
        return self.assignment[v - 1]

    def classes(self) -> list:
        """Color classes as sorted vertex lists, one per used color, ordered by color."""
        buckets: dict[int, list] = {}
        for v, c in enumerate(self.assignment, start=1):
            buckets.setdefault(c, []).append(v)
        return [buckets[c] for c in sorted(buckets)]

    def partition(self) -> frozenset:
        """The induced vertex partition, the color-permutation-invariant view."""
        return frozenset(frozenset(cls) for cls in self.classes())


def validate_coloring(g: Graph, c: Coloring) -> bool:
    """True iff c assigns every vertex of g a color and no edge is monochromatic."""
    if c.n != g.n:
        return False
    return all(c.color(i) != c.color(j) for i, j in g.edges)


@dataclass(frozen=True)
class KTreeTrace:
    """Construction order for a (k-1)-tree: initial K_k, then attachments."""

    k: int
    order: tuple
    attach_sets: tuple  # one frozenset of k-1 earlier vertices per added vertex

    def __post_init__(self):
        if len(self.order) < self.k:
            raise ValueError("order shorter than the initial clique")
        if len(self.attach_sets) != len(self.order) - self.k:
            raise ValueError("one attach set required per added vertex")


def validate_trace(g: Graph, trace: KTreeTrace) -> bool:
    """Check that trace describes a valid (k-1)-tree construction of g."""
    k = trace.k
    if sorted(trace.order) != list(g.vertices()):
        return False
    base = trace.order[:k]
    placed = set(base)
    if any(not g.has_edge(u, v) for u, v in combinations(base, 2)):
        return False
    edges = {_normalize_edge(u, v) for u, v in combinations(base, 2)}
    for v, attach in zip(trace.order[k:], trace.attach_sets):
        if len(attach) != k - 1 or not attach <= placed:
            return False
        if any(not g.has_edge(a, b) for a, b in combinations(sorted(attach), 2)):
            return False
        placed.add(v)
        edges.update(_normalize_edge(v, a) for a in attach)
    return edges == set(g.edges)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def parse_plantri_ascii(text: str) -> list:
    """Every graph of plantri ascii text, in order (see iter_plantri_ascii)."""
    return list(iter_plantri_ascii(text.splitlines()))


def iter_plantri_ascii(lines) -> Iterator[Graph]:
    """Parse plantri ascii output lazily, one graph per non-blank line.

    Line format: "<n> <adj_1>,<adj_2>,...,<adj_n>" where each adj_i is a
    string of lowercase letters and 'a' denotes vertex 1. Adjacency must be
    symmetric; asymmetry is a parse error, not silently repaired. Each graph
    is yielded as its line is read, so a corpus is never held as graphs.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2 or not parts[0].isdigit():
            raise GraphParseError("expected '<n> <adjacency lists>'", lineno)
        n = int(parts[0])
        if not (1 <= n <= 26):
            raise GraphParseError(f"vertex count {n} outside 1..26", lineno)
        groups = parts[1].split(",")
        if len(groups) != n:
            raise GraphParseError(
                f"expected {n} adjacency lists, found {len(groups)}", lineno
            )
        adj = [set() for _ in range(n + 1)]
        for v, group in enumerate(groups, start=1):
            for ch in group:
                w = ord(ch) - ord("a") + 1
                if not ("a" <= ch <= "z") or w > n:
                    raise GraphParseError(f"bad vertex letter {ch!r}", lineno)
                if w == v:
                    raise GraphParseError(f"self-loop at vertex {v}", lineno)
                adj[v].add(w)
        for v in range(1, n + 1):
            for w in adj[v]:
                if v not in adj[w]:
                    raise GraphParseError(
                        f"asymmetric adjacency between {v} and {w}", lineno
                    )
        edges = {(v, w) for v in range(1, n + 1) for w in adj[v] if v < w}
        yield Graph.from_edges(n, edges)


def plantri_line(g: Graph) -> str:
    """Encode a graph as one plantri ascii line (neighbors in sorted order)."""
    if g.n > 26:
        raise ValueError("plantri ascii encoding handles at most 26 vertices")
    groups = [
        "".join(chr(ord("a") + w - 1) for w in sorted(g.neighbors[v]))
        for v in g.vertices()
    ]
    return f"{g.n} {','.join(groups)}"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: "n m" header, then m "i j" lines.

    Lines starting with '#' are comments. Duplicate edges collapse; self-loops,
    out-of-range indices, and a wrong edge count are errors.
    """
    header = None
    edges = set()
    count = 0
    n = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphParseError("expected header 'n m'", lineno)
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphParseError("expected integer header 'n m'", lineno)
            if n < 1 or m < 0:
                raise GraphParseError(f"bad header values n={n} m={m}", lineno)
            header = lineno
            continue
        if len(fields) != 2:
            raise GraphParseError("expected edge line 'i j'", lineno)
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError("expected integer edge line 'i j'", lineno)
        if i == j:
            raise GraphParseError(f"self-loop at vertex {i}", lineno)
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphParseError(f"edge ({i},{j}) out of range for n={n}", lineno)
        count += 1
        if count > m:
            raise GraphParseError(f"more than the declared {m} edges", lineno)
        edges.add(_normalize_edge(i, j))
    if header is None:
        raise GraphParseError("empty input, expected header 'n m'", 1)
    if count != m:
        raise GraphParseError(f"header declared {m} edges, found {count}", header)
    return Graph(n, frozenset(edges))


def edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{i} {j}" for i, j in g.edge_list())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cliques
# ---------------------------------------------------------------------------

def find_clique(g: Graph, k: int):
    """Lexicographically smallest k-clique (as a sorted tuple), or None.

    Deterministic: the DFS extends by ascending labels, so the first clique
    found is the smallest under sorted-tuple order.
    """
    return next(_cliques(g, k), None)


def enumerate_cliques(g: Graph, k: int) -> list:
    """All k-cliques as sorted tuples, in lexicographic order."""
    return list(_cliques(g, k))


def _cliques(g: Graph, k: int):
    """Generator of the k-cliques as sorted tuples, in lexicographic order."""
    if k < 1:
        raise ValueError("clique size must be positive")
    bits = g._adj_bits

    def extend(chosen: list, cand: int):
        # cand: labels > chosen[-1] adjacent to every chosen vertex
        if len(chosen) == k:
            yield tuple(chosen)
            return
        while cand:
            if bin(cand).count("1") < k - len(chosen):
                return
            v = (cand & -cand).bit_length()
            cand &= cand - 1
            yield from extend(chosen + [v], cand & bits[v])

    return extend([], (1 << g.n) - 1)


# ---------------------------------------------------------------------------
# (k-1)-trees
# ---------------------------------------------------------------------------

def generate_ktree(k: int, n: int, seed: int):
    """Random (k-1)-tree on n vertices, built from K_k by repeated attachment.

    Each new vertex attaches to a (k-1)-subset of an existing k-clique: pick a
    uniformly random k-clique from the running list, drop one uniformly random
    member. Reproducible from seed. Returns (Graph, KTreeTrace).
    """
    if not (n >= k >= 2):
        raise ValueError("need n >= k >= 2")
    rng = random.Random(seed)
    base = tuple(range(1, k + 1))
    edges = {(i, j) for i, j in combinations(base, 2)}
    cliques = [base]
    attach_sets = []
    for v in range(k + 1, n + 1):
        clique = cliques[rng.randrange(len(cliques))]
        drop = clique[rng.randrange(k)]
        attach = tuple(u for u in clique if u != drop)
        edges.update(_normalize_edge(v, u) for u in attach)
        cliques.append(tuple(sorted(attach + (v,))))
        attach_sets.append(frozenset(attach))
    g = Graph(n, frozenset(edges))
    trace = KTreeTrace(k, tuple(range(1, n + 1)), tuple(attach_sets))
    return g, trace


def is_ktree(g: Graph, k: int):
    """Recognize a (k-1)-tree by simplicial elimination.

    Repeatedly removes the smallest-labeled vertex of degree k-1 whose
    neighborhood is a clique; succeeds iff the remainder is K_k. Returns a
    KTreeTrace (construction order, reverse of elimination) or None.
    """
    if k < 2 or g.n < k:
        return None
    adj = {v: set(g.neighbors[v]) for v in g.vertices()}
    removed = []
    while len(adj) > k:
        pick = None
        for v in sorted(adj):
            nb = adj[v]
            if len(nb) == k - 1 and all(
                b in adj[a] for a, b in combinations(sorted(nb), 2)
            ):
                pick = v
                break
        if pick is None:
            return None
        removed.append((pick, frozenset(adj[pick])))
        for u in adj[pick]:
            adj[u].discard(pick)
        del adj[pick]
    rest = sorted(adj)
    if any(b not in adj[a] for a, b in combinations(rest, 2)):
        return None
    order = tuple(rest) + tuple(v for v, _ in reversed(removed))
    attach = tuple(s for _, s in reversed(removed))
    return KTreeTrace(k, order, attach)


# ---------------------------------------------------------------------------
# Brute-force coloring oracles
# ---------------------------------------------------------------------------

def _search_order(g: Graph) -> list:
    """Vertex order for backtracking: a K_4 or K_3 first if present, then BFS.

    Putting a clique first makes infeasible k fail immediately and anchors the
    restricted-growth enumeration; BFS keeps later vertices constrained.
    """
    start = find_clique(g, 4) or find_clique(g, 3) or (1,)
    order: list = []
    seen: set = set()
    queue: list = []

    def push(v):
        if v not in seen:
            seen.add(v)
            order.append(v)
            queue.append(v)

    for root in list(start) + list(g.vertices()):
        push(root)
        while queue:
            v = queue.pop(0)
            for w in sorted(g.neighbors[v]):
                push(w)
    return order


def _color_search(g: Graph, k: int, order: list, limit, collect):
    """Restricted-growth backtracking over proper colorings.

    Colors are numbered in order of first use along `order`, so each proper
    partition into at most k independent sets is visited exactly once. Stops
    after `limit` partitions when limit is not None. Returns the count.
    """
    n = g.n
    pos = {v: i for i, v in enumerate(order)}
    earlier = [
        [pos[w] for w in g.neighbors[order[i]] if pos[w] < i] for i in range(n)
    ]
    colors = [0] * n
    found = 0

    def walk(i: int, used: int):
        nonlocal found
        if limit is not None and found >= limit:
            return
        if i == n:
            found += 1
            if collect is not None:
                assignment = [0] * n
                for j, v in enumerate(order):
                    assignment[v - 1] = colors[j]
                collect(Coloring(k, tuple(assignment)))
            return
        banned = {colors[j] for j in earlier[i]}
        top = min(used + 1, k)
        for c in range(1, top + 1):
            if c in banned:
                continue
            colors[i] = c
            walk(i + 1, max(used, c))
            colors[i] = 0
            if limit is not None and found >= limit:
                return

    walk(0, 0)
    return found


def count_colorings(g: Graph, k: int, limit: int | None = None) -> int:
    """Number of proper k-colorings up to color permutation (vertex partitions).

    1 means uniquely k-colorable. `limit` stops early once that many partitions
    are found, which keeps "is it unique?" checks cheap; a limit below 1
    raises ValueError.
    """
    if k < 1:
        raise ValueError("palette size must be positive")
    if limit is not None and limit < 1:
        raise ValueError(f"count limit must be at least 1, not {limit}")
    return _color_search(g, k, _search_order(g), limit, None)


def enumerate_colorings(g: Graph, k: int, limit: int | None = None) -> list:
    """Proper k-colorings, one canonical representative per partition."""
    out: list = []
    _color_search(g, k, _search_order(g), limit, out.append)
    return out


def chromatic_oracle(g: Graph) -> tuple:
    """Exact chromatic number with a witness coloring, by iterative deepening."""
    order = _search_order(g)
    k = 1 if not g.edges else 2
    while True:
        witness: list = []
        if _color_search(g, k, order, 1, witness.append):
            return k, witness[0]
        k += 1
