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
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, fields
from operator import add, attrgetter, mul, sub
from typing import Iterable, Mapping, Sequence, TextIO

from .errors import (ConvergenceWarning, DataFormatError, ParameterError,
                     UndefinedMetricError, require_count, require_known, require_real)
from .formats import read_csv, refused_as, write_csv
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
    tol = check_tol(tol)
    max_iter = require_count(max_iter, "max_iter")
    for iterations in range(1, max_iter + 1):
        x, delta = step(x)
        if delta < tol:
            return x, True, iterations
    return x, False, max_iter


def check_tol(tol, name: str = "tol") -> float:
    """``tol`` as a float; ParameterError unless it is positive and finite."""
    return require_real(tol, name, 0.0, low_open=True)


def check_damping(damping) -> float:
    """``damping`` as a float; ParameterError unless it lies in (0, 1)."""
    return require_real(damping, "damping", 0.0, 1.0, low_open=True, high_open=True)


def pagerank(g: SocialGraph, damping: float = DAMPING, tol: float = PAGERANK_TOL,
             max_iter: int = PAGERANK_MAX_ITER) -> ScoreMap:
    """Power iteration on the weighted out-degree-normalized walk.

    Mass from dangling students (no out-edges) is redistributed uniformly,
    so the result always sums to 1.  Convergence is declared when the L1
    change drops below ``tol``; otherwise the map is returned with its
    ``converged`` flag cleared.
    """
    damping = check_damping(damping)
    n = g.node_count
    if n == 0:
        raise ParameterError("pagerank is undefined on an empty graph")
    index = g.index()
    into = list(zip(index.into, _unit_rows_marked(index.in_weights)))
    strength = list(map(sum, index.out_weights))
    # the dangling positions, summed as one more row of unit weights
    dangling = [([u for u, s in enumerate(strength) if s == 0], None)]

    def step(x: list) -> tuple[list, float]:
        shares = [xu / s if s else 0.0 for xu, s in zip(x, strength)]
        base = (1.0 - damping) / n + damping * _weighted_sums(dangling, x)[0] / n
        nxt = [base + damping * t for t in _weighted_sums(into, shares)]
        return nxt, left_sum(map(abs, map(sub, nxt, x)))

    x, converged, iterations = _iterate(step, [1.0 / n] * n, tol, max_iter)
    return ScoreMap(zip(g.nodes, x), converged, iterations)


def _l2_normalized(vec: list) -> list:
    norm = math.sqrt(left_sum(map(mul, vec, vec)))
    return [t / norm for t in vec] if norm > 0.0 else vec


def _unit_rows_marked(weight_rows: Sequence[tuple[int, ...]]) -> list:
    """Each weight row, or None where every weight in it is 1.

    A solver sums x[u] over a None row where it sums w * x[u] over another:
    a float times 1 is that float, so the same floats are added in the same
    order and every score is bit for bit what the weighted sum gives."""
    return [None if weights.count(1) == len(weights) else weights
            for weights in weight_rows]


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0: the package's one float sum.

    The builtin ``sum`` is not used for floats because from CPython 3.12 on
    it compensates them, so its last bits depend on the Python that ran it;
    this loop rounds after each addition, the same on every version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _weighted_sums(rows: list, x: list) -> list:
    """The rank solvers' one neighbour-row sum: for each (positions, weights)
    row, weight * x[position], or x[position] where weights is None (all 1),
    added by :func:`left_sum`'s rule.  The loop is written inline, fused
    with the products: a :func:`left_sum` per row gives the same floats in
    about twice the time (1.1 against 0.6 ms per call on the 1x synthetic
    corpus, 2-vCPU Xeon), and the solvers make 180 calls on that corpus."""
    sums = []
    for row, weights in rows:
        total = 0.0
        if weights is None:
            for u in row:
                total += x[u]
        else:
            for u, w in zip(row, weights):
                total += w * x[u]
        sums.append(total)
    return sums


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
    into = list(zip(index.into, _unit_rows_marked(index.in_weights)))
    out = list(zip(index.out, _unit_rows_marked(index.out_weights)))

    def step(pair: tuple[list, list]) -> tuple[tuple[list, list], float]:
        auth, hub = pair
        new_auth = _l2_normalized(_weighted_sums(into, hub))
        new_hub = _l2_normalized(_weighted_sums(out, auth))
        delta = left_sum(map(add, map(abs, map(sub, new_auth, auth)),
                             map(abs, map(sub, new_hub, hub))))
        return (new_auth, new_hub), delta

    start = [1.0 / math.sqrt(g.node_count)] * g.node_count
    (auth, hub), converged, iterations = _iterate(step, (start, start), tol, max_iter)
    return (ScoreMap(zip(g.nodes, auth), converged, iterations),
            ScoreMap(zip(g.nodes, hub), converged, iterations))


def eigencentrality(g: SocialGraph, tol: float = RANK_TOL,
                    max_iter: int = RANK_MAX_ITER) -> ScoreMap:
    """Power iteration on the symmetrized weighted adjacency.

    Symmetrization (w(u,v) + w(v,u)) makes the scores blind to edge
    direction, but not convergent: on a bipartite tie graph (a star, an even
    cycle) the iterate swings between two vectors until ``max_iter`` and the
    map is returned with its ``converged`` flag cleared.
    """
    if g.edge_count == 0:
        raise UndefinedMetricError("eigenvector centrality is undefined on an edgeless graph")
    index = g.index()
    rows = list(zip(index.ties, _unit_rows_marked(index.tie_weights)))

    def step(x: list) -> tuple[list, float]:
        nxt = _l2_normalized(_weighted_sums(rows, x))
        return nxt, left_sum(map(abs, map(sub, nxt, x)))

    start = [1.0 / math.sqrt(g.node_count)] * g.node_count
    x, converged, iterations = _iterate(step, start, tol, max_iter)
    return ScoreMap(zip(g.nodes, x), converged, iterations)


# -- positional costs ------------------------------------------------------

def farness(g: SocialGraph, node: StudentId, penalty: float | None = FARNESS_PENALTY) -> float:
    """Sum of hop distances from ``node`` to every other student.

    Each unreachable student contributes ``penalty`` (default: the node
    count), keeping the sum finite and monotone in disconnectedness.
    """
    cost = _penalty(penalty, g.node_count)
    hops = [d for d in geodesic_distances(g, node).values() if d]  # not self, not None
    return sum(hops) + cost * (g.node_count - 1 - len(hops))


def _penalty(penalty: float | None, n: int) -> float:
    """Farness per student out of reach: ``penalty`` (finite, >= 0), or ``n`` for None."""
    return float(n) if penalty is None else require_real(penalty, "farness penalty", 0.0)


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
                             {q: max(w) for q, w in near.items()})[:2]


def _structural_holes(index: GraphIndex, ego: int, tie_total,
                      tie_max) -> tuple[float, float, int]:
    """(constraint, effective size, clustering link count) of ``ego``, from
    each node q's tie total ``tie_total[q]`` (a float) and strongest tie
    ``tie_max[q]``; an isolated ego gives (0.0, 0.0, 0).

    One walk over the 2-paths ego -> q -> j between alters, q in canonical
    order, adds p(ego,q) p(q,j) to alter j's indirect share and
    p(ego,q) w(q,j) / tie_max[j] to its redundancy, p(u,v) being
    w(u,v) / tie_total[u].  Each of j's sums gets one term per q, in q's
    order, and the alter pairs it skips (q not tied to j) would add exact
    zeros to non-negative sums, so each float equals the literal double
    loop's.  The link count adds up the alters each alter's out-row reaches,
    an exact int, as :func:`tie_links` does.
    """
    alters = index.ties[ego]
    slot = {j: k for k, j in enumerate(alters)}
    among = slot.keys()
    shares = [w / tie_total[ego] for w in index.tie_weights[ego]]
    indirect = [0.0] * len(alters)
    redundancy = [0.0] * len(alters)
    links = 0
    for q, p in zip(alters, shares):
        q_total = tie_total[q]
        row, weights = index.ties[q], index.tie_weights[q]
        # the alters q is tied to, found in C; a row is sorted, so bisect finds w
        for j in among & row:
            w = weights[bisect_left(row, j)]
            k = slot[j]
            indirect[k] += p * (w / q_total)
            redundancy[k] += p * (w / tie_max[j])
        links += len(among & index.out[q])
    constraint = size = 0.0
    for p, c, r in zip(shares, indirect, redundancy):
        constraint += (p + c) ** 2
        size += 1.0 - r
    return constraint, size, links


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
        return sum(self.as_tuple())

    def as_tuple(self) -> tuple[int, ...]:
        """The counts in ``ROLE_NAMES`` order."""
        return _role_counts(self)


ROLE_NAMES = tuple(f.name for f in fields(BrokerageCounts))
_role_counts = attrgetter(*ROLE_NAMES)


def brokerage_counts(g: SocialGraph,
                     partition: GroupPartition) -> dict[StudentId, BrokerageCounts]:
    """Count every directed 2-path i -> b -> k (i != k) at its broker b.

    Each 2-path counts in exactly one role, so the counts summed over all
    brokers equal the number of such paths in the graph.  A broker's counts
    are products of its in- and out-neighbours tallied by group, less the
    round trips i -> b -> i through its mutual neighbours: exact ints.
    ``partition`` must label each student of ``g`` and no one else.
    """
    require_known(g.nodes, partition, context="partition")
    require_known(partition, g)
    labels: dict[str, int] = {}
    group = [labels.setdefault(partition[node], len(labels)) for node in g.nodes]
    of = group.__getitem__
    counts = []
    for gb, into, out in zip(group, g.index().into, g.index().out):
        ins, outs = Counter(map(of, into)), Counter(map(of, out))
        in_b, out_b = ins.pop(gb, 0), outs.pop(gb, 0)
        in_other, out_other = len(into) - in_b, len(out) - out_b
        # pairs through b with i, k outside b's group and in one group
        same = sum(n * outs[gi] for gi, n in ins.items())
        coordinator, consultant = in_b * out_b, same
        for m in set(into).intersection(out):
            if group[m] == gb:
                coordinator -= 1
            else:
                consultant -= 1
        counts.append(BrokerageCounts(coordinator, in_other * out_b, in_b * out_other,
                                      consultant, in_other * out_other - same))
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
    cost = _penalty(farness_penalty, g.node_count)
    # checked here too, since an empty graph never reaches pagerank
    damping, pagerank_tol = check_damping(damping), check_tol(pagerank_tol, "pagerank_tol")
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
    index = g.index()
    tie_total = [float(sum(row)) for row in index.tie_weights]
    tie_max = [max(row, default=0) for row in index.tie_weights]
    table: dict[StudentId, NodeMetrics] = {}
    for ego, (node, (total, reached)) in enumerate(distance_sums(g).items()):
        constraint, eff, links = _structural_holes(index, ego, tie_total, tie_max)
        if not index.ties[ego]:
            constraint = eff = math.nan
        table[node] = NodeMetrics(
            student=node,
            pagerank=pr[node],
            authority=auth[node],
            hub=hub[node],
            farness=total + cost * (g.node_count - 1 - reached),
            clustering=clustering_ratio(links, len(index.ties[ego])),
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


#: The metric table's reals: the NodeMetrics fields between the student and
#: the brokerage counts, in column order.
_REALS = tuple(f.name for f in fields(NodeMetrics))[1:-1]
_real_values = attrgetter(*_REALS)
METRICS_HEADER = ["student", *_REALS, *ROLE_NAMES]


def write_metrics_csv(table: Mapping[StudentId, NodeMetrics],
                      stream: TextIO) -> None:
    """One row per student, reals at 9 significant digits."""
    write_csv(stream, METRICS_HEADER, (
        [node, *(f"{v:.9g}" for v in _real_values(m)), *m.brokerage.as_tuple()]
        for node, m in sorted(table.items())))


def read_metrics_csv(stream: TextIO) -> dict[StudentId, NodeMetrics]:
    """Inverse of :func:`write_metrics_csv` (up to float formatting).  A second
    row for a student, or a value that is negative, infinite, or NaN outside
    constraint and effective size (isolated students), is a DataFormatError."""
    table: dict[StudentId, NodeMetrics] = {}
    for row in read_csv(stream, METRICS_HEADER, "metrics"):
        node = row[0]
        if node in table:
            raise DataFormatError(f"metrics table has two rows for {node!r}")
        with refused_as("non-numeric cell in metrics row: {}", row):
            reals = [float(v) for v in row[1:1 + len(_REALS)]]
            roles = [int(v) for v in row[1 + len(_REALS):]]
        for name, v in zip(METRICS_HEADER[1:], (*reals, *roles)):
            if (math.isinf(v) or math.isnan(v) and name not in ("constraint", "effective_size")
                    or v < 0):
                raise DataFormatError(f"metrics row {node!r}: {name} {v} is out of range")
        table[node] = NodeMetrics(node, *reals, brokerage=BrokerageCounts(*roles))
    return table
