"""Directed weighted student interaction graph and shortest-path primitives.

Edge u -> v with weight w means student u replied to messages authored by
student v a total of w times.  The graph is immutable once built; every
metric and simulation in the package reads from it concurrently without
locks.  It is stored once, as the out-, in- and tie-rows of
:class:`GraphIndex` keyed by node position, which every metric, diffusion
and rewiring read.  Hop distances come from a BFS from one source
(:func:`hop_counts`) and from the reach levels of all sources at once
(:func:`reach_levels`), over position rows: the graph's own, or rewiring's.
Farness reduces the levels to hop sums (:func:`hop_sums`); rewiring keeps
them and repairs them after each swap.
"""

from __future__ import annotations

from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .errors import DataFormatError, MissingNodeError, ParameterError
from .formats import read_csv, write_csv

StudentId = str


class _Positions(dict):
    """Node -> position; looking up an unknown node raises MissingNodeError."""

    def __missing__(self, node):
        raise MissingNodeError(node)


class GraphIndex(NamedTuple):
    """Adjacency by node position: ``out[i]`` holds node i's out-neighbour
    positions and ``out_weights[i]`` their weights, in ascending position
    order; the ``into`` and ``ties`` rows do the same for in-neighbours and
    ties.  Diffusion relies on that order: on a PATH, the rank of a head's
    bit among a row's head bits is its index in the row."""

    position: Mapping[StudentId, int]
    out: tuple[tuple[int, ...], ...]
    out_weights: tuple[tuple[int, ...], ...]
    into: tuple[tuple[int, ...], ...]
    in_weights: tuple[tuple[int, ...], ...]
    ties: tuple[tuple[int, ...], ...]
    tie_weights: tuple[tuple[int, ...], ...]


class SocialGraph:
    """Directed graph with positive integer edge weights and no self-loops.

    The one adjacency is the :class:`GraphIndex` built here: out-, in- and
    tie-rows (ties symmetrized as w(u,v) + w(v,u)), each in canonical
    (sorted) order whatever the order of ``edges``, so neighbour scans are
    O(degree) and node and edge counts O(1).  The id-keyed accessors build a
    new dict from a row on each call; writing into it leaves the graph as is.
    """

    __slots__ = ("_nodes", "_edge_count", "_weight_total", "_index")

    def __init__(self, edges: Mapping[tuple[StudentId, StudentId], int] | None = None,
                 nodes: Iterable[StudentId] = ()):
        items = sorted((edges or {}).items())
        self._nodes: tuple[StudentId, ...] = tuple(sorted(set(nodes).union(*(e for e, _ in items))))
        self._edge_count = len(items)
        self._weight_total = sum(w for _, w in items)
        position = _Positions((u, i) for i, u in enumerate(self._nodes))
        out, out_w, into, in_w = ([[] for _ in self._nodes] for _ in range(4))
        # sorted (src, dst) order puts every out- and in-row in canonical order
        for (u, v), w in items:
            if u == v:
                raise ParameterError(f"self-loop on {u!r} not allowed")
            if not isinstance(w, int) or w < 1:
                raise ParameterError(f"edge {u!r}->{v!r} weight must be a positive integer, got {w!r}")
            i, j = position[u], position[v]
            out[i].append(j)
            out_w[i].append(w)
            into[j].append(i)
            in_w[j].append(w)
        ties, tie_w = [], []
        for row, weights, back, back_weights in zip(out, out_w, into, in_w):
            tie = dict(zip(row, weights))
            tie.update((j, tie.get(j, 0) + w) for j, w in zip(back, back_weights))
            ties.append(tuple(sorted(tie)))
            tie_w.append(tuple(map(tie.__getitem__, ties[-1])))
        self._index = GraphIndex(MappingProxyType(position), *(
            tuple(map(tuple, rows)) for rows in (out, out_w, into, in_w)), tuple(ties), tuple(tie_w))

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
        """The integer adjacency: the graph itself, immutable."""
        return self._index

    def __contains__(self, u: StudentId) -> bool:
        return u in self._index.position

    def _by_id(self, u: StudentId, rows, weights) -> dict[StudentId, int]:
        """Node u's row as a new id -> weight dict; MissingNodeError if absent."""
        i = self._index.position[u]
        return dict(zip(map(self._nodes.__getitem__, rows[i]), weights[i]))

    def out_neighbors(self, u: StudentId) -> dict[StudentId, int]:
        """New mapping of v -> weight for edges u -> v, canonical order."""
        return self._by_id(u, self._index.out, self._index.out_weights)

    def in_neighbors(self, u: StudentId) -> dict[StudentId, int]:
        """New mapping of v -> weight for edges v -> u, canonical order."""
        return self._by_id(u, self._index.into, self._index.in_weights)

    def ties(self, u: StudentId) -> dict[StudentId, int]:
        """New mapping of v -> w(u,v) + w(v,u) for every neighbor, canonical order."""
        return self._by_id(u, self._index.ties, self._index.tie_weights)

    def weight(self, u: StudentId, v: StudentId) -> int:
        """Weight of edge u -> v, or 0 when absent."""
        i, j = map(self._index.position.get, (u, v))
        row = () if i is None else self._index.out[i]
        return self._index.out_weights[i][row.index(j)] if j in row else 0

    def edges(self) -> Iterator[tuple[StudentId, StudentId, int]]:
        """All edges as (src, dst, weight), canonically ordered."""
        nodes = self._nodes
        for u, row, weights in zip(nodes, self._index.out, self._index.out_weights):
            for v, w in zip(row, weights):
                yield u, nodes[v], w

    def degree(self, u: StudentId) -> int:
        """Unweighted total degree (in-neighbor count + out-neighbor count)."""
        i = self._index.position[u]
        return len(self._index.out[i]) + len(self._index.into[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        return self._index[:3] == other._index[:3]  # positions, out-rows and weights

    def __hash__(self):
        raise TypeError("SocialGraph is not hashable")

    def __repr__(self) -> str:
        return f"SocialGraph(nodes={self.node_count}, edges={self.edge_count})"


def hop_counts(out: Sequence[Sequence[int]], source: int) -> list[int | None]:
    """BFS hop counts from position ``source`` along ``out`` (each position's
    out-neighbour positions), None where no directed path reaches."""
    dist: list[int | None] = [None] * len(out)
    dist[source] = 0
    queue = [source]
    for u in queue:  # the loop reaches what it appends: first in, first out
        for v in out[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def geodesic_distances(g: SocialGraph, source: StudentId) -> dict[StudentId, int | None]:
    """:func:`hop_counts` from ``source`` keyed by node, None where unreachable;
    edge weights express interaction intensity, not length, so hops ignore them."""
    index = g.index()
    return dict(zip(g.nodes, hop_counts(index.out, index.position[source])))


def reach_step(level: Sequence[int], x: int, row: Iterable[int]) -> int:
    """Position x's entry in the level after ``level``: x's own entry ORed
    with those of its out-neighbour positions ``row``."""
    bits = level[x]
    for v in row:
        bits |= level[v]
    return bits


def reach_levels(out: Sequence[Iterable[int]]) -> Iterator[list[int]]:
    """Reach levels of ``out`` (each position's out-neighbour positions), each
    a new list: bit t of position x's int in level k is set when x reaches t
    in at most k hops.  Level 0 is ``1 << x``; each later level is
    :func:`reach_step` of the one before at every position.  The last level
    yielded is the closed one, the first that the next would equal, so no
    two consecutive levels are equal.
    """
    level = [1 << x for x in range(len(out))]
    while True:
        yield level
        grown = [reach_step(level, x, row) for x, row in enumerate(out)]
        if grown == level:
            return
        level = grown


def hop_sums(out: Sequence[Iterable[int]]) -> list[tuple[int, int]]:
    """For each position u of ``out`` (u's out-neighbour positions): the sum
    of hop counts from u to the positions it reaches, and how many it reaches.
    With S_k the set of u's level k in :func:`reach_levels` and K the closed
    level, a target d hops away lies in S_d .. S_K, so the hop total is
    K * |S_K| - (sum of |S_k| over k < K) and the count |S_K| - 1; only the
    running sums of |S_k| are kept.
    """
    counted = [0] * len(out)
    for depth, level in enumerate(reach_levels(out)):
        counted = [c + bits.bit_count() for c, bits in zip(counted, level)]
    # counted also holds |S_K|, hence depth + 1 = K + 1 copies of it
    return [((depth + 1) * size - c, size - 1)
            for c, size in zip(counted, (bits.bit_count() for bits in level))]


def distance_sums(g: SocialGraph) -> dict[StudentId, tuple[int, int]]:
    """:func:`hop_sums` keyed by node: (hop total, nodes reached) for each."""
    return dict(zip(g.nodes, hop_sums(g.index().out)))


# -- serialization --------------------------------------------------------

CSV_HEADER = ["src", "dst", "weight"]


def write_graph_csv(g: SocialGraph, stream: TextIO) -> None:
    """Edge list as ``src,dst,weight`` rows with a header, canonical order.

    Isolated nodes are kept as rows with an empty dst and weight 0 so the
    node set round-trips.
    """
    isolated = ((n, "", 0) for n, tie in zip(g.nodes, g.index().ties) if not tie)
    write_csv(stream, CSV_HEADER, chain(g.edges(), isolated))


def read_graph_csv(stream: TextIO) -> SocialGraph:
    """Inverse of :func:`write_graph_csv`."""
    edges: dict[tuple[StudentId, StudentId], int] = {}
    isolated: set[StudentId] = set()
    for row in read_csv(stream, CSV_HEADER, "graph"):
        src, dst, w = row
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
