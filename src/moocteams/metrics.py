"""Per-student network metrics over the reply graph.

Rank scores (PageRank, HITS authority/hub, eigenvector centrality),
positional costs (farness, directed clustering), structural-hole measures
(constraint, effective size), and brokerage-role counts over directed
2-paths.  All functions are pure reads of an immutable graph and safe to
call concurrently.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import (DataFormatError, MissingNodeError, ParameterError,
                     UndefinedMetricError)
from .graph import SocialGraph, StudentId, geodesic_distances

#: Student -> group label; must cover every graph node.
GroupPartition = Mapping[StudentId, str]


class ScoreMap(dict):
    """Node -> score mapping carrying solver convergence info."""

    def __init__(self, data, converged: bool = True, iterations: int = 0):
        super().__init__(data)
        self.converged = converged
        self.iterations = iterations


# -- rank scores -----------------------------------------------------------

def pagerank(g: SocialGraph, damping: float = 0.85,
             tol: float = 1e-10, max_iter: int = 200) -> ScoreMap:
    """Power iteration on the weighted out-degree-normalized walk.

    Mass from dangling students (no out-edges) is redistributed uniformly,
    so the result always sums to 1.  Convergence is declared when the L1
    change drops below ``tol``; otherwise the map is returned with its
    ``converged`` flag cleared.
    """
    if not 0.0 < damping < 1.0:
        raise ParameterError(f"damping must lie strictly in (0, 1), got {damping}")
    if tol <= 0 or max_iter < 1:
        raise ParameterError("tol must be positive and max_iter >= 1")
    nodes = g.nodes
    n = len(nodes)
    if n == 0:
        raise ParameterError("pagerank is undefined on an empty graph")
    out_strength = {u: sum(g.out_neighbors(u).values()) for u in nodes}
    x = {u: 1.0 / n for u in nodes}
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        nxt = {u: 0.0 for u in nodes}
        dangling = 0.0
        for u in nodes:
            s = out_strength[u]
            if s == 0:
                dangling += x[u]
                continue
            share = x[u] / s
            for v, w in g.out_neighbors(u).items():
                nxt[v] += share * w
        base = (1.0 - damping) / n + damping * dangling / n
        for u in nodes:
            nxt[u] = base + damping * nxt[u]
        delta = sum(abs(nxt[u] - x[u]) for u in nodes)
        x = nxt
        if delta < tol:
            converged = True
            break
    return ScoreMap(x, converged=converged, iterations=iterations)


def _l2_normalize(vec: dict[StudentId, float], nodes) -> None:
    norm = math.sqrt(sum(vec[u] * vec[u] for u in nodes))
    if norm > 0.0:
        for u in nodes:
            vec[u] /= norm


def hits(g: SocialGraph, tol: float = 1e-12,
         max_iter: int = 1000) -> tuple[ScoreMap, ScoreMap]:
    """Authority and hub scores via alternating weighted updates.

    Both updates read the previous iterate (authority from old hubs, hubs
    from old authorities) and are L2-normalized each step, which makes
    edge reversal swap the two vectors exactly.
    """
    if g.edge_count == 0:
        raise UndefinedMetricError("HITS scores are undefined on an edgeless graph")
    if tol <= 0 or max_iter < 1:
        raise ParameterError("tol must be positive and max_iter >= 1")
    nodes = g.nodes
    init = 1.0 / math.sqrt(len(nodes))
    auth = {u: init for u in nodes}
    hub = {u: init for u in nodes}
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        new_auth = {}
        new_hub = {}
        for v in nodes:
            new_auth[v] = sum(w * hub[u] for u, w in g.in_neighbors(v).items())
        for u in nodes:
            new_hub[u] = sum(w * auth[v] for v, w in g.out_neighbors(u).items())
        _l2_normalize(new_auth, nodes)
        _l2_normalize(new_hub, nodes)
        delta = sum(abs(new_auth[u] - auth[u]) + abs(new_hub[u] - hub[u]) for u in nodes)
        auth, hub = new_auth, new_hub
        if delta < tol:
            converged = True
            break
    return (ScoreMap(auth, converged=converged, iterations=iterations),
            ScoreMap(hub, converged=converged, iterations=iterations))


def eigencentrality(g: SocialGraph, tol: float = 1e-12,
                    max_iter: int = 1000) -> ScoreMap:
    """Power iteration on the symmetrized weighted adjacency.

    Symmetrization (w(u,v) + w(v,u)) guarantees a non-negative dominant
    eigenvector and stable convergence regardless of edge direction.
    """
    if g.edge_count == 0:
        raise UndefinedMetricError("eigenvector centrality is undefined on an edgeless graph")
    if tol <= 0 or max_iter < 1:
        raise ParameterError("tol must be positive and max_iter >= 1")
    nodes = g.nodes
    x = {u: 1.0 / math.sqrt(len(nodes)) for u in nodes}
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        nxt = {}
        for v in nodes:
            total = 0.0
            for u, w in g.ties(v).items():
                total += w * x[u]
            nxt[v] = total
        _l2_normalize(nxt, nodes)
        delta = sum(abs(nxt[u] - x[u]) for u in nodes)
        x = nxt
        if delta < tol:
            converged = True
            break
    return ScoreMap(x, converged=converged, iterations=iterations)


# -- positional costs ------------------------------------------------------

def farness(g: SocialGraph, node: StudentId, penalty: float | None = None) -> float:
    """Sum of hop distances from ``node`` to every other student.

    Each unreachable student contributes ``penalty`` (default: the node
    count), keeping the sum finite and monotone in disconnectedness.
    """
    if node not in g:
        raise MissingNodeError(node)
    if penalty is None:
        penalty = float(g.node_count)
    row = geodesic_distances(g, node)
    total = 0.0
    for v, d in row.dist.items():
        if v == node:
            continue
        total += penalty if d is None else d
    return total


def clustering_coefficient(g: SocialGraph, node: StudentId) -> float:
    """Directed clustering: realized fraction of ordered neighbor pairs.

    The neighborhood is the union of in- and out-neighbors; the numerator
    counts directed edges among them, the denominator is k(k-1).  Nodes
    with fewer than two neighbors score 0.
    """
    nbrs = g.ties(node)
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = 0
    for j in nbrs:
        links += sum(1 for t in g.out_neighbors(j) if t in nbrs)
    return links / (k * (k - 1))


# -- structural holes ------------------------------------------------------

def _tie_shares(g: SocialGraph, u: StudentId) -> dict[StudentId, float]:
    """Proportion of u's symmetrized tie strength invested in each contact."""
    ties = g.ties(u)
    total = float(sum(ties.values()))
    return {k: w / total for k, w in ties.items()}


def burt_constraint(g: SocialGraph, node: StudentId) -> float:
    """Constraint of the ego: sum over alters of (direct + indirect share)^2.

    Ties are symmetrized; the indirect term routes through the ego's other
    alters using each intermediary's own tie shares.  Low constraint means
    the ego bridges otherwise-disconnected contacts.
    """
    p_ego = _tie_shares(g, node)
    if not p_ego:
        raise UndefinedMetricError(f"constraint undefined for isolated student {node!r}")
    shares_of = {q: _tie_shares(g, q) for q in p_ego}
    total = 0.0
    for j in p_ego:
        indirect = 0.0
        for q in p_ego:
            if q == j:
                continue
            indirect += p_ego[q] * shares_of[q].get(j, 0.0)
        total += (p_ego[j] + indirect) ** 2
    return total


def effective_size(g: SocialGraph, node: StudentId) -> float:
    """Alter count discounted by redundancy among the ego's contacts.

    Redundancy of alter j is the ego-share-weighted overlap with the other
    alters, each overlap scaled by j's strongest tie.
    """
    p_ego = _tie_shares(g, node)
    if not p_ego:
        raise UndefinedMetricError(f"effective size undefined for isolated student {node!r}")
    total = 0.0
    for j in p_ego:
        ties_j = g.ties(j)
        max_tie = max(ties_j.values())
        redundancy = 0.0
        for q in p_ego:
            if q == j:
                continue
            redundancy += p_ego[q] * (ties_j.get(q, 0) / max_tie)
        total += 1.0 - redundancy
    return total


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
    counts = {node: BrokerageCounts() for node in g.nodes}
    for b in g.nodes:
        gb = partition[b]
        c = counts[b]
        for i in g.in_neighbors(b):
            gi = partition[i]
            for k in g.out_neighbors(b):
                if i == k:
                    continue
                role = classify_two_path(gi, gb, partition[k])
                setattr(c, role, getattr(c, role) + 1)
    return counts


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
                                      damping: float = 0.85,
                                      pagerank_tol: float = 1e-10,
                                      pagerank_max_iter: int = 200,
                                      tol: float = 1e-12,
                                      max_iter: int = 1000,
                                      farness_penalty: float | None = None,
                                      ) -> dict[StudentId, NodeMetrics]:
    """Every metric that needs no group partition; brokerage counts are 0.

    On an edgeless graph the rank scores that need at least one edge
    (authority, hub, eigenvector centrality) are reported as 0.
    """
    if g.node_count == 0:
        return {}
    pr = pagerank(g, damping=damping, tol=pagerank_tol, max_iter=pagerank_max_iter)
    if g.edge_count > 0:
        auth, hub = hits(g, tol=tol, max_iter=max_iter)
        eig = eigencentrality(g, tol=tol, max_iter=max_iter)
    else:
        auth = hub = eig = ScoreMap({n: 0.0 for n in g.nodes})
    table: dict[StudentId, NodeMetrics] = {}
    for node in g.nodes:
        try:
            constraint = burt_constraint(g, node)
            eff = effective_size(g, node)
        except UndefinedMetricError:
            constraint = math.nan
            eff = math.nan
        table[node] = NodeMetrics(
            student=node,
            pagerank=pr[node],
            authority=auth[node],
            hub=hub[node],
            farness=farness(g, node, penalty=farness_penalty),
            clustering=clustering_coefficient(g, node),
            eigencentrality=eig[node],
            constraint=constraint,
            effective_size=eff,
        )
    return table


def compute_node_metrics(g: SocialGraph,
                         partition: GroupPartition | None = None,
                         damping: float = 0.85,
                         pagerank_tol: float = 1e-10,
                         pagerank_max_iter: int = 200,
                         tol: float = 1e-12,
                         max_iter: int = 1000,
                         farness_penalty: float | None = None,
                         ) -> dict[StudentId, NodeMetrics]:
    """Compute the full metric table for every student.

    :func:`compute_metrics_without_brokerage` followed by
    :func:`brokerage_counts`.  With no partition given, all students are
    treated as one group.
    """
    table = compute_metrics_without_brokerage(
        g, damping=damping, pagerank_tol=pagerank_tol,
        pagerank_max_iter=pagerank_max_iter, tol=tol, max_iter=max_iter,
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
                      stream: io.TextIOBase) -> None:
    """One row per student, reals at 9 significant digits."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(METRICS_HEADER)
    for node in sorted(table):
        m = table[node]
        writer.writerow([
            node,
            *(f"{v:.9g}" for v in (m.pagerank, m.authority, m.hub, m.farness,
                                   m.clustering, m.eigencentrality,
                                   m.constraint, m.effective_size)),
            *m.brokerage.as_tuple(),
        ])


def read_metrics_csv(stream: io.TextIOBase) -> dict[StudentId, NodeMetrics]:
    """Inverse of :func:`write_metrics_csv` (up to float formatting)."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != METRICS_HEADER:
        raise DataFormatError(f"expected metrics header {METRICS_HEADER}, got {header}")
    table: dict[StudentId, NodeMetrics] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != len(METRICS_HEADER):
            raise DataFormatError(f"bad metrics row: {row}")
        node = row[0]
        try:
            reals = [float(v) for v in row[1:9]]
            roles = [int(v) for v in row[9:]]
        except ValueError:
            raise DataFormatError(f"non-numeric cell in metrics row: {row}") from None
        table[node] = NodeMetrics(node, *reals, brokerage=BrokerageCounts(*roles))
    return table
