"""Directed weighted student interaction graph and shortest-path primitives.

Edge u -> v with weight w means student u replied to messages authored by
student v a total of w times.  The graph is immutable once built; every
metric and simulation in the package reads from it concurrently without
locks.  :meth:`SocialGraph.index` keys the out-, in- and tie-adjacency by
node position; the metric table, diffusion and rewiring read its rows.
Hop distances come from a BFS from one source (:func:`geodesic_distances`)
and one bit-parallel pass over all sources (:func:`hop_sums`), which reads
position rows: the index for :func:`distance_sums`, or rewiring's own.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DataFormatError, MissingNodeError, ParameterError

StudentId = str


class GraphIndex(NamedTuple):
    """Adjacency by node position: ``out[i]`` holds node i's out-neighbour
    positions and ``out_weights[i]`` their weights, in canonical order; the
    ``into`` and ``ties`` rows do the same for in-neighbours and ties."""

    position: Mapping[StudentId, int]
    out: tuple[tuple[int, ...], ...]
    out_weights: tuple[tuple[int, ...], ...]
    into: tuple[tuple[int, ...], ...]
    in_weights: tuple[tuple[int, ...], ...]
    ties: tuple[tuple[int, ...], ...]
    tie_weights: tuple[tuple[int, ...], ...]


class SocialGraph:
    """Directed graph with positive integer edge weights and no self-loops.

    Adjacency is indexed in both directions so out- and in-neighbor scans
    are O(degree).  Node and edge counts are O(1).  Every neighbour map
    (out, in, and the symmetrized ties w(u,v) + w(v,u), built once here)
    iterates in canonical (sorted) order, whatever the order of ``edges``.
    """

    __slots__ = ("_out", "_in", "_ties", "_nodes", "_edge_count", "_weight_total",
                 "_index")

    def __init__(self, edges: Mapping[tuple[StudentId, StudentId], int] | None = None,
                 nodes: Iterable[StudentId] = ()):
        self._out: dict[StudentId, dict[StudentId, int]] = {}
        self._in: dict[StudentId, dict[StudentId, int]] = {}
        self._edge_count = 0
        self._weight_total = 0
        # sorted (src, dst) insertion puts every neighbour map in canonical order
        for (u, v), w in sorted((edges or {}).items()):
            if u == v:
                raise ParameterError(f"self-loop on {u!r} not allowed")
            if not isinstance(w, int) or w < 1:
                raise ParameterError(f"edge {u!r}->{v!r} weight must be a positive integer, got {w!r}")
            self._out.setdefault(u, {})[v] = w
            self._in.setdefault(v, {})[u] = w
            self._edge_count += 1
            self._weight_total += w
        self._nodes: tuple[StudentId, ...] = tuple(sorted(set(nodes).union(self._out, self._in)))
        self._ties: dict[StudentId, dict[StudentId, int]] = {}
        for n in self._nodes:
            out = self._out.setdefault(n, {})
            into = self._in.setdefault(n, {})
            self._ties[n] = {v: out.get(v, 0) + into.get(v, 0)
                             for v in sorted(out.keys() | into.keys())}

    # -- queries ---------------------------------------------------------

    @property
    def nodes(self) -> tuple[StudentId, ...]:
        """All students in canonical (sorted) order."""
        return self._nodes

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def total_weight(self) -> int:
        """Sum of all edge weights (total reply interactions)."""
        return self._weight_total

    def index(self) -> GraphIndex:
        """The integer adjacency, built on first request and cached; it is
        immutable, so a concurrent first build is harmless."""
        index = getattr(self, "_index", None)
        if index is None:
            position = {u: i for i, u in enumerate(self._nodes)}
            rows = []
            for adjacency in (self._out, self._in, self._ties):
                maps = [adjacency[u] for u in self._nodes]
                rows += (tuple(tuple(map(position.__getitem__, m)) for m in maps),
                         tuple(tuple(m.values()) for m in maps))
            index = self._index = GraphIndex(MappingProxyType(position), *rows)
        return index

    def __contains__(self, u: StudentId) -> bool:
        return u in self._out

    def out_neighbors(self, u: StudentId) -> dict[StudentId, int]:
        """Mapping of v -> weight for edges u -> v, canonical order.  Do not mutate."""
        try:
            return self._out[u]
        except KeyError:
            raise MissingNodeError(u) from None

    def in_neighbors(self, u: StudentId) -> dict[StudentId, int]:
        """Mapping of v -> weight for edges v -> u, canonical order.  Do not mutate."""
        try:
            return self._in[u]
        except KeyError:
            raise MissingNodeError(u) from None

    def ties(self, u: StudentId) -> dict[StudentId, int]:
        """Mapping of v -> w(u,v) + w(v,u) for every neighbor, canonical order.  Do not mutate."""
        try:
            return self._ties[u]
        except KeyError:
            raise MissingNodeError(u) from None

    def neighbors(self, u: StudentId) -> set[StudentId]:
        """Union of in- and out-neighbors, self excluded."""
        return set(self.ties(u))

    def weight(self, u: StudentId, v: StudentId) -> int:
        """Weight of edge u -> v, or 0 when absent."""
        return self._out.get(u, {}).get(v, 0)

    def mutual_weight(self, u: StudentId, v: StudentId) -> int:
        """Symmetrized tie strength w(u,v) + w(v,u)."""
        return self._ties.get(u, {}).get(v, 0)

    def edges(self) -> Iterator[tuple[StudentId, StudentId, int]]:
        """All edges as (src, dst, weight), canonically ordered."""
        for u in self._nodes:
            for v, w in self._out[u].items():
                yield u, v, w

    def degree(self, u: StudentId) -> int:
        """Unweighted total degree (in-neighbor count + out-neighbor count)."""
        return len(self.out_neighbors(u)) + len(self.in_neighbors(u))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        return self._nodes == other._nodes and self._out == other._out

    def __hash__(self):
        raise TypeError("SocialGraph is not hashable")

    def __repr__(self) -> str:
        return f"SocialGraph(nodes={self.node_count}, edges={self.edge_count})"


def geodesic_distances(g: SocialGraph, source: StudentId) -> dict[StudentId, int | None]:
    """BFS hop counts from ``source`` along edge direction: every node maps
    to its hop count, or to None when no directed path reaches it.

    Edge weights express interaction intensity, not length, so they are
    ignored here.
    """
    if source not in g:
        raise MissingNodeError(source)
    dist: dict[StudentId, int | None] = dict.fromkeys(g.nodes)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.out_neighbors(u):
            if dist[v] is None:
                dist[v] = du + 1
                queue.append(v)
    return dist


def hop_sums(out: Sequence[Iterable[int]]) -> list[tuple[int, int]]:
    """For each position u of ``out`` (u's out-neighbour positions): the sum
    of hop counts from u to the positions it reaches, and how many it reaches.
    All sources advance together (multi-source bit-parallel BFS): bit t of
    u's int is set once u reaches t; a hop ORs in u's out-neighbours' frontiers.
    """
    n = len(out)
    seen = [1 << u for u in range(n)]
    frontier = seen[:]
    totals = [0] * n
    hop = 0
    while any(frontier):
        hop += 1
        reached = [0] * n
        for u, row in enumerate(out):
            new = 0
            for v in row:
                new |= frontier[v]
            new &= ~seen[u]
            if new:
                reached[u] = new
                seen[u] |= new
                totals[u] += hop * new.bit_count()
        frontier = reached
    return [(total, bits.bit_count() - 1) for total, bits in zip(totals, seen)]


def distance_sums(g: SocialGraph) -> dict[StudentId, tuple[int, int]]:
    """:func:`hop_sums` keyed by node: (hop total, nodes reached) for each."""
    return dict(zip(g.nodes, hop_sums(g.index().out)))


def finite_distance_total(g: SocialGraph) -> tuple[int, int]:
    """Sum of hop counts over ordered pairs s != v joined by a directed path,
    and the number of such pairs."""
    sums = distance_sums(g).values()
    return sum(total for total, _ in sums), sum(reached for _, reached in sums)


# -- serialization --------------------------------------------------------

CSV_HEADER = ["src", "dst", "weight"]


def write_graph_csv(g: SocialGraph, stream: io.TextIOBase) -> None:
    """Edge list as ``src,dst,weight`` rows with a header, canonical order.

    Isolated nodes are kept as rows with an empty dst and weight 0 so the
    node set round-trips.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    linked = set()
    for u, v, w in g.edges():
        writer.writerow([u, v, w])
        linked.add(u)
        linked.add(v)
    for n in g.nodes:
        if n not in linked:
            writer.writerow([n, "", 0])


def read_graph_csv(stream: io.TextIOBase) -> SocialGraph:
    """Inverse of :func:`write_graph_csv`."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("empty graph CSV") from None
    if [h.strip() for h in header] != CSV_HEADER:
        raise DataFormatError(f"expected header {CSV_HEADER}, got {header}")
    edges: dict[tuple[StudentId, StudentId], int] = {}
    isolated: set[StudentId] = set()
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise DataFormatError(f"bad graph CSV row: {row}")
        src, dst, w = row[0], row[1], row[2]
        if dst == "":
            isolated.add(src)
            continue
        try:
            weight = int(w)
        except ValueError:
            raise DataFormatError(f"non-integer weight in row {row}") from None
        if (src, dst) in edges:
            raise DataFormatError(f"repeated edge {src!r}->{dst!r} in row {row}")
        edges[(src, dst)] = weight
    return SocialGraph(edges, nodes=isolated)
