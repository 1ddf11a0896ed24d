"""Per-student network metrics over the reply graph.

Rank scores (PageRank, HITS authority/hub, eigenvector centrality),
positional costs (farness, directed clustering), structural-hole measures
(constraint, effective size), and brokerage-role counts over directed
2-paths.  Every metric reads the position rows of :meth:`SocialGraph.index`,
the graph's one adjacency.  The metric table takes every
student's farness from one all-pairs distance pass, and constraint and
effective size from one walk over the student's 2-paths; :func:`farness`,
:func:`burt_constraint` and :func:`effective_size` answer for one student
with the same formulas.  All functions are pure reads of an immutable
graph and safe to call concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from operator import mul, sub
from typing import Iterable, Mapping, Sequence, TextIO

from .errors import (ConvergenceWarning, DataFormatError, MissingNodeError,
                     ParameterError, UndefinedMetricError)
from .formats import read_csv, write_csv
from .graph import (GraphIndex, SocialGraph, StudentId, distance_sums,
                    geodesic_distances)

#: Student -> group label; must cover every graph node.
GroupPartition = Mapping[StudentId, str]


class ScoreMap(dict):
    """Node -> score mapping carrying solver convergence info."""

    def __init__(self, data, converged: bool = True, iterations: int = 0):
        super().__init__(data)
        self.converged = converged
        self.iterations = iterations


# -- rank scores -----------------------------------------------------------

#: Solver settings, declared once; HITS and eigenvector centrality share RANK_*.
DAMPING = 0.85
PAGERANK_TOL = 1e-10
PAGERANK_MAX_ITER = 200
RANK_TOL = 1e-12
RANK_MAX_ITER = 5000
#: What each unreachable student adds to farness; None stands for the node count.
FARNESS_PENALTY: float | None = None


def _iterate(step, x, tol: float, max_iter: int) -> tuple[object, bool, int]:
    """The power iterations' one stopping rule: apply ``step`` (iterate ->
    next iterate and its L1 change) until the change drops below ``tol`` or
    ``max_iter`` steps have run.  Returns (last iterate, converged, steps)."""
    if not 0.0 < tol < math.inf or max_iter < 1:
        raise ParameterError("tol must be positive and finite, and max_iter >= 1")
    for iterations in range(1, max_iter + 1):
        x, delta = step(x)
        if delta < tol:
            return x, True, iterations
    return x, False, max_iter


def pagerank(g: SocialGraph, damping: float = DAMPING, tol: float = PAGERANK_TOL,
             max_iter: int = PAGERANK_MAX_ITER) -> ScoreMap:
    """Power iteration on the weighted out-degree-normalized walk.

    Mass from dangling students (no out-edges) is redistributed uniformly,
    so the result always sums to 1.  Convergence is declared when the L1
    change drops below ``tol``; otherwise the map is returned with its
    ``converged`` flag cleared.
    """
    if not 0.0 < damping < 1.0:
        raise ParameterError(f"damping must lie strictly in (0, 1), got {damping}")
    n = g.node_count
    if n == 0:
        raise ParameterError("pagerank is undefined on an empty graph")
    index = g.index()
    rows = list(zip(index.out, index.out_weights, map(sum, index.out_weights)))

    def step(x: list) -> tuple[list, float]:
        nxt = [0.0] * n
        dangling = 0.0
        for xu, (row, weights, s) in zip(x, rows):
            if s == 0:
                dangling += xu
                continue
            share = xu / s
            for v, w in zip(row, weights):
                nxt[v] += share * w
        base = (1.0 - damping) / n + damping * dangling / n
        nxt = [base + damping * t for t in nxt]
        return nxt, sum(map(abs, map(sub, nxt, x)))

    x, converged, iterations = _iterate(step, [1.0 / n] * n, tol, max_iter)
    return ScoreMap(zip(g.nodes, x), converged, iterations)


def _l2_normalized(vec: list) -> list:
    norm = math.sqrt(sum(map(mul, vec, vec)))
    return [t / norm for t in vec] if norm > 0.0 else vec


def _weighted_sums(rows: list, x: list) -> list:
    """For each (positions, weights) row, sum() of weight * x[position]."""
    get = x.__getitem__
    return [sum(map(mul, weights, map(get, row))) for row, weights in rows]


def hits(g: SocialGraph, tol: float = RANK_TOL,
         max_iter: int = RANK_MAX_ITER) -> tuple[ScoreMap, ScoreMap]:
    """Authority and hub scores via alternating weighted updates.

    Both updates read the previous iterate (authority from old hubs, hubs
    from old authorities) and are L2-normalized each step, which makes
    edge reversal swap the two vectors exactly.
    """
    if g.edge_count == 0:
        raise UndefinedMetricError("HITS scores are undefined on an edgeless graph")
    index = g.index()
    into = list(zip(index.into, index.in_weights))
    out = list(zip(index.out, index.out_weights))

    def step(pair: tuple[list, list]) -> tuple[tuple[list, list], float]:
        auth, hub = pair
        new_auth = _l2_normalized(_weighted_sums(into, hub))
        new_hub = _l2_normalized(_weighted_sums(out, auth))
        delta = sum(abs(a - b) + abs(c - d)
                    for a, b, c, d in zip(new_auth, auth, new_hub, hub))
        return (new_auth, new_hub), delta

    start = [1.0 / math.sqrt(g.node_count)] * g.node_count
    (auth, hub), converged, iterations = _iterate(step, (start, start), tol, max_iter)
    return (ScoreMap(zip(g.nodes, auth), converged, iterations),
            ScoreMap(zip(g.nodes, hub), converged, iterations))


def eigencentrality(g: SocialGraph, tol: float = RANK_TOL,
                    max_iter: int = RANK_MAX_ITER) -> ScoreMap:
    """Power iteration on the symmetrized weighted adjacency.

    Symmetrization (w(u,v) + w(v,u)) guarantees a non-negative dominant
    eigenvector and stable convergence regardless of edge direction.
    """
    if g.edge_count == 0:
        raise UndefinedMetricError("eigenvector centrality is undefined on an edgeless graph")
    rows = list(zip(g.index().ties, g.index().tie_weights))

    def step(x: list) -> tuple[list, float]:
        nxt = []
        for row, weights in rows:
            total = 0.0
            for u, w in zip(row, weights):
                total += w * x[u]
            nxt.append(total)
        nxt = _l2_normalized(nxt)
        return nxt, sum(map(abs, map(sub, nxt, x)))

    start = [1.0 / math.sqrt(g.node_count)] * g.node_count
    x, converged, iterations = _iterate(step, start, tol, max_iter)
    return ScoreMap(zip(g.nodes, x), converged, iterations)


# -- positional costs ------------------------------------------------------

def farness(g: SocialGraph, node: StudentId, penalty: float | None = FARNESS_PENALTY) -> float:
    """Sum of hop distances from ``node`` to every other student.

    Each unreachable student contributes ``penalty`` (default: the node
    count), keeping the sum finite and monotone in disconnectedness.
    """
    hops = [d for d in geodesic_distances(g, node).values() if d]  # not self, not None
    return _farness(sum(hops), len(hops), g.node_count, penalty)


def _farness(total: int, reached: int, n: int, penalty: float | None) -> float:
    """Hop ``total`` over the ``reached`` students, plus ``penalty`` (default
    ``n``) for each of the other n - 1 students that is out of reach."""
    return total + float(n if penalty is None else penalty) * (n - 1 - reached)


def clustering_coefficient(g: SocialGraph, node: StudentId) -> float:
    """Directed clustering: realized fraction of ordered neighbor pairs.

    The neighborhood is the union of in- and out-neighbors; the numerator
    counts directed edges among them, the denominator is k(k-1).  Nodes
    with fewer than two neighbors score 0.
    """
    index = g.index()
    nbrs = set(index.ties[index.position[node]])
    return clustering_ratio(tie_links(nbrs, index.out), len(nbrs))


def tie_links(nbrs: set[int], out: Sequence[Iterable[int]]) -> int:
    """Ordered pairs of the positions ``nbrs`` joined by an out-edge: each
    j's out-row targets ``out[j]`` in ``nbrs``; an exact int, so order-free."""
    return sum(len(nbrs.intersection(out[j])) for j in nbrs)


def clustering_ratio(links: int, k: int) -> float:
    """Clustering of a neighbourhood of k positions with ``links`` of its
    k(k-1) ordered pairs joined: 0 when k < 2."""
    return links / (k * (k - 1)) if k > 1 else 0.0


# -- structural holes ------------------------------------------------------

def burt_constraint(g: SocialGraph, node: StudentId) -> float:
    """Constraint of the ego: sum over alters of (direct + indirect share)^2.

    Ties are symmetrized; the indirect term routes through the ego's other
    alters using each intermediary's own tie shares.  Low constraint means
    the ego bridges otherwise-disconnected contacts.
    """
    return _ego_structural_holes(g, node, "constraint")[0]


def effective_size(g: SocialGraph, node: StudentId) -> float:
    """Alter count discounted by redundancy among the ego's contacts.

    Redundancy of alter j is the ego-share-weighted overlap with the other
    alters, each overlap scaled by j's strongest tie.
    """
    return _ego_structural_holes(g, node, "effective size")[1]


def _ego_structural_holes(g: SocialGraph, node: StudentId,
                          name: str) -> tuple[float, float]:
    index = g.index()
    ego = index.position[node]
    if not index.ties[ego]:
        raise UndefinedMetricError(f"{name} undefined for isolated student {node!r}")
    near = {q: index.tie_weights[q] for q in (ego, *index.ties[ego])}
    return _structural_holes(index, ego, {q: float(sum(w)) for q, w in near.items()},
                             {q: max(w) for q, w in near.items()})


def _structural_holes(index: GraphIndex, ego: int, tie_total, tie_max) -> tuple[float, float]:
    """(constraint, effective size) of a non-isolated ego, from each node q's
    tie total ``tie_total[q]`` (a float) and strongest tie ``tie_max[q]``.

    One walk over the 2-paths ego -> q -> j, q in canonical order, adds
    p(ego,q) p(q,j) to alter j's indirect share and p(ego,q) w(q,j) / tie_max[j]
    to its redundancy, p(u,v) being w(u,v) / tie_total[u].  The alter pairs
    it skips (q not tied to j) would add exact zeros to non-negative sums, so
    each float equals the literal double loop's.
    """
    alters = index.ties[ego]
    slot = {j: k for k, j in enumerate(alters)}
    shares = [w / tie_total[ego] for w in index.tie_weights[ego]]
    indirect = [0.0] * len(alters)
    redundancy = [0.0] * len(alters)
    for q, p in zip(alters, shares):
        q_total = tie_total[q]
        for j, w in zip(index.ties[q], index.tie_weights[q]):
            k = slot.get(j)
            if k is not None:
                indirect[k] += p * (w / q_total)
                redundancy[k] += p * (w / tie_max[j])
    constraint = size = 0.0
    for p, c, r in zip(shares, indirect, redundancy):
        constraint += (p + c) ** 2
        size += 1.0 - r
    return constraint, size


# -- brokerage roles -------------------------------------------------------

@dataclass
class BrokerageCounts:
    """How often a student brokers each kind of directed 2-path."""

    coordinator: int = 0
    gatekeeper: int = 0
    representative: int = 0
    consultant: int = 0
    liaison: int = 0

    def total(self) -> int:
        return (self.coordinator + self.gatekeeper + self.representative
                + self.consultant + self.liaison)

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.coordinator, self.gatekeeper, self.representative,
                self.consultant, self.liaison)


ROLE_NAMES = ("coordinator", "gatekeeper", "representative", "consultant", "liaison")


def classify_two_path(g_src: str, g_broker: str, g_dst: str) -> str:
    """Role of the middle node on a directed 2-path, by group membership."""
    if g_src == g_broker == g_dst:
        return "coordinator"
    if g_src != g_broker and g_broker == g_dst:
        return "gatekeeper"
    if g_src == g_broker:
        return "representative"
    if g_src == g_dst:
        return "consultant"
    return "liaison"


def brokerage_counts(g: SocialGraph,
                     partition: GroupPartition) -> dict[StudentId, BrokerageCounts]:
    """Count every directed 2-path i -> b -> k (i != k) at its broker b.

    Each 2-path is classified exactly once, so the counts summed over all
    brokers equal the number of such paths in the graph.
    """
    for node in g.nodes:
        if node not in partition:
            raise MissingNodeError(node, context="partition")
    group = [partition[node] for node in g.nodes]
    counts = [BrokerageCounts() for _ in g.nodes]
    for gb, c, into, out in zip(group, counts, g.index().into, g.index().out):
        for i in into:
            gi = group[i]
            for k in out:
                if i != k:
                    role = classify_two_path(gi, gb, group[k])
                    setattr(c, role, getattr(c, role) + 1)
    return dict(zip(g.nodes, counts))


# -- assembled per-node table ----------------------------------------------

@dataclass
class NodeMetrics:
    """One student's full metric record.

    ``constraint`` and ``effective_size`` are NaN for isolated students,
    where the measures are undefined; downstream scoring treats NaN
    constraint as maximally unconstrained.
    """

    student: StudentId
    pagerank: float
    authority: float
    hub: float
    farness: float
    clustering: float
    eigencentrality: float
    constraint: float
    effective_size: float
    brokerage: BrokerageCounts = field(default_factory=BrokerageCounts)


def compute_metrics_without_brokerage(g: SocialGraph,
                                      damping: float = DAMPING,
                                      pagerank_tol: float = PAGERANK_TOL,
                                      farness_penalty: float | None = FARNESS_PENALTY,
                                      ) -> dict[StudentId, NodeMetrics]:
    """Every metric that needs no group partition; brokerage counts are 0.

    On an edgeless graph the rank scores that need at least one edge
    (authority, hub, eigenvector centrality) are reported as 0.  A solver
    that stops at its ``max_iter`` issues a :class:`ConvergenceWarning`
    and its last iterate goes into the table.
    """
    if g.node_count == 0:
        return {}
    pr = pagerank(g, damping=damping, tol=pagerank_tol)
    if g.edge_count > 0:
        auth, hub = hits(g)
        eig = eigencentrality(g)
    else:
        auth = hub = eig = ScoreMap({n: 0.0 for n in g.nodes})
    for name, scores in (("pagerank", pr), ("hits", auth), ("eigencentrality", eig)):
        if not scores.converged:
            warnings.warn(f"{name} did not converge in {scores.iterations} "
                          "iterations", ConvergenceWarning, stacklevel=2)
    sums = distance_sums(g)
    index = g.index()
    tie_total = [float(sum(row)) for row in index.tie_weights]
    tie_max = [max(row, default=0) for row in index.tie_weights]
    table: dict[StudentId, NodeMetrics] = {}
    for ego, node in enumerate(g.nodes):
        if index.ties[ego]:
            constraint, eff = _structural_holes(index, ego, tie_total, tie_max)
        else:
            constraint = eff = math.nan
        table[node] = NodeMetrics(
            student=node,
            pagerank=pr[node],
            authority=auth[node],
            hub=hub[node],
            farness=_farness(*sums[node], g.node_count, farness_penalty),
            clustering=clustering_coefficient(g, node),
            eigencentrality=eig[node],
            constraint=constraint,
            effective_size=eff,
        )
    return table


def compute_node_metrics(g: SocialGraph,
                         partition: GroupPartition | None = None,
                         damping: float = DAMPING,
                         pagerank_tol: float = PAGERANK_TOL,
                         farness_penalty: float | None = FARNESS_PENALTY,
                         ) -> dict[StudentId, NodeMetrics]:
    """Compute the full metric table for every student.

    :func:`compute_metrics_without_brokerage` followed by
    :func:`brokerage_counts`.  With no partition given, all students are
    treated as one group.
    """
    table = compute_metrics_without_brokerage(
        g, damping=damping, pagerank_tol=pagerank_tol,
        farness_penalty=farness_penalty)
    if partition is None:
        partition = {n: "all" for n in g.nodes}
    roles = brokerage_counts(g, partition)
    for node, record in table.items():
        record.brokerage = roles[node]
    return table


METRICS_HEADER = ["student", "pagerank", "authority", "hub", "farness",
                  "clustering", "eigencentrality", "constraint",
                  "effective_size", *ROLE_NAMES]


def write_metrics_csv(table: Mapping[StudentId, NodeMetrics],
                      stream: TextIO) -> None:
    """One row per student, reals at 9 significant digits."""
    write_csv(stream, METRICS_HEADER, (
        [node,
         *(f"{v:.9g}" for v in (m.pagerank, m.authority, m.hub, m.farness,
                                m.clustering, m.eigencentrality,
                                m.constraint, m.effective_size)),
         *m.brokerage.as_tuple()]
        for node, m in sorted(table.items())))


def read_metrics_csv(stream: TextIO) -> dict[StudentId, NodeMetrics]:
    """Inverse of :func:`write_metrics_csv` (up to float formatting)."""
    table: dict[StudentId, NodeMetrics] = {}
    for row in read_csv(stream, METRICS_HEADER, "metrics"):
        node = row[0]
        try:
            reals = [float(v) for v in row[1:9]]
            roles = [int(v) for v in row[9:]]
        except ValueError:
            raise DataFormatError(f"non-numeric cell in metrics row: {row}") from None
        table[node] = NodeMetrics(node, *reals, brokerage=BrokerageCounts(*roles))
    return table
