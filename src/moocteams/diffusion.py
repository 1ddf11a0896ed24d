"""Token-based information flow simulation.

A flow spec pairs a duplication mechanism (item moves, is copied to one
neighbor per step, or to all eligible neighbors) with a trajectory
constraint (shortest-path-only, no repeated nodes, no repeated edges, or
unrestricted).  Every copy carries its own route history inherited from
its parent at copy time; a sender's send-marks are part of its history,
so later copies avoid routes the item already took.  Random hops are
weight-proportional by default.  Parallel duplication draws no random
numbers, so its replications are identical and are computed once.

Replications run on node positions from :meth:`SocialGraph.index`, over a
hop table made once per :func:`simulate` call, whose hop options for a node
are built the first time a token stands there; ids come back only in the
outcome of each replication.  A route is an immutable ``int`` bitset: one
bit per node position on a PATH, one per edge id on a TRAIL, and 0 on the
other trajectories.  A sender sets the bit of each send-mark before it
spawns the copy, so the copy holds the sender's route object itself and
nothing is copied.  A hop never rebuilds its holder's options: the route
gives the local indices of the options it excludes, and the pick steps
over them in the shared edge list and running totals.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import accumulate, product
from typing import Mapping, Sequence

from .errors import (DataFormatError, InsufficientDataError, MissingNodeError,
                     ParameterError)
from .formats import read_csv, write_csv
from .graph import SocialGraph, StudentId, hop_counts
from .metrics import NodeMetrics

#: CSV literal for nodes the flow never reached.
NEVER = "NEVER"


class _ParsedEnum(Enum):
    @classmethod
    def parse(cls, value):
        """The member named ``value`` (any case); members pass through."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            raise ParameterError(
                f"unknown {cls.__name__.lower()} {value!r}; expected one of "
                f"{[m.value for m in cls]}") from None


class Mechanism(_ParsedEnum):
    TRANSFER = "TRANSFER"
    SERIAL_DUP = "SERIAL_DUP"
    PARALLEL_DUP = "PARALLEL_DUP"


class Trajectory(_ParsedEnum):
    GEODESIC = "GEODESIC"
    PATH = "PATH"
    TRAIL = "TRAIL"
    WALK = "WALK"


@dataclass(frozen=True)
class FlowSpec:
    """Parameters of one diffusion experiment."""

    mechanism: Mechanism
    trajectory: Trajectory
    sources: tuple[StudentId, ...]
    target: StudentId | None = None
    max_steps: int = 20
    replications: int = 1
    seed: int = 0
    copy_cap: int | None = None
    uniform: bool = False

    def __post_init__(self):
        object.__setattr__(self, "mechanism", Mechanism.parse(self.mechanism))
        object.__setattr__(self, "trajectory", Trajectory.parse(self.trajectory))
        object.__setattr__(self, "sources", tuple(sorted(set(self.sources))))

    def resolved_cap(self, g: SocialGraph) -> int:
        return self.copy_cap if self.copy_cap is not None else 10 * g.node_count

    def validate(self, g: SocialGraph) -> None:
        if not self.sources:
            raise ParameterError("flow spec needs at least one source")
        missing = [s for s in (*self.sources, self.target) if s is not None and s not in g]
        if missing:
            raise MissingNodeError(missing[0])
        if self.max_steps < 1:
            raise ParameterError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.replications < 1:
            raise ParameterError(
                f"replications must be >= 1, got {self.replications}")
        if self.resolved_cap(g) < len(self.sources):
            raise ParameterError(
                f"copy_cap {self.resolved_cap(g)} cannot hold "
                f"{len(self.sources)} source tokens")


@dataclass
class DiffusionTrace:
    """Replication-merged outcome of one flow spec.

    ``first_arrival`` is the earliest step any replication delivered to
    the node (None = never); ``receipts`` totals every delivery event,
    initial source placement included.  ``arrival_sum``/``arrival_count``
    accumulate per-replication first arrivals so the mean is available.
    ``spawns_dropped`` counts the copies the copy cap refused, totalled
    and scaled like ``receipts``.
    """

    spec: FlowSpec
    first_arrival: dict[StudentId, int | None]
    receipts: dict[StudentId, int]
    arrival_sum: dict[StudentId, int]
    arrival_count: dict[StudentId, int]
    steps_run: int
    truncated: bool
    spawns_dropped: int = 0

    def mean_first_arrival(self, node: StudentId) -> float | None:
        count = self.arrival_count[node]
        if count == 0:
            return None
        return self.arrival_sum[node] / count


class _Token:
    __slots__ = ("holder", "options", "lineage", "route")

    def __init__(self, holder, options, lineage, route):
        self.holder = holder
        # the hop options of the lineage's source, spec.sources[lineage]
        self.options = options
        self.lineage = lineage
        # an int bitset, never mutated, so a copy shares its sender's: bit v
        # for each visited node position on a PATH, bit e for each used edge
        # id on a TRAIL, 0 on a GEODESIC or WALK
        self.route = route


@dataclass
class TokenRecord:
    """Final state of one token, for route audits in tests."""

    origin: StudentId
    holder: StudentId
    visited: frozenset[StudentId]
    used_edges: frozenset[tuple[StudentId, StudentId]]


@dataclass
class _RepOutcome:
    arrival: dict[StudentId, int]
    receipts: dict[StudentId, int]
    steps: int
    truncated: bool
    dropped: int
    histories: list[TokenRecord] = field(default_factory=list)


class _HopOptions(dict):
    """One source's hop options by node position, each built on first read.

    ``self[u]`` holds the edge ids a token may take out of u before route
    exclusions (all of them, or with ``dist``, the source's hop counts, those
    into the next distance shell), their running weight totals, and the mask
    the route is tested against: on a PATH the bits of their heads, which a
    row holds in ascending position order, so the rank of a head's bit in
    the mask is its option's local index; on a TRAIL the option's k local
    bits, tested against the route shifted down by ``base[u]``, since u's
    edge ids are consecutive; 0 otherwise.
    """

    def __init__(self, base: list[int], head: list[int], weight: list[int],
                 trajectory: Trajectory, dist: Sequence[int | None] | None = None):
        super().__init__()
        self.base, self.head, self.weight = base, head, weight
        self.trajectory, self.dist = trajectory, dist

    def __missing__(self, u: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        edges = range(self.base[u], self.base[u + 1])
        dist = self.dist
        if dist is not None:
            d = dist[u]
            edges = () if d is None else [e for e in edges if dist[self.head[e]] == d + 1]
        edges = tuple(edges)
        mask = 0
        if self.trajectory is Trajectory.PATH:
            for e in edges:
                mask |= 1 << self.head[e]
        elif self.trajectory is Trajectory.TRAIL:
            mask = (1 << len(edges)) - 1
        totals = tuple(accumulate(map(self.weight.__getitem__, edges)))
        option = self[u] = edges, totals, mask
        return option


class _HopTable:
    """The graph's out-edges as ints, and each source's :class:`_HopOptions`.

    Out-edge k of node u has id ``base[u] + k``, end ``head[e]`` and weight
    ``weight[e]``; ``options[s]`` holds source s's hop options, shared by
    every source unless the trajectory is GEODESIC.
    """

    def __init__(self, g: SocialGraph, spec: FlowSpec):
        index = g.index()
        self.nodes, self.position, self.out = g.nodes, index.position, index.out
        self.cap = spec.resolved_cap(g)
        self.base = list(accumulate(map(len, index.out), initial=0))
        self.head = [v for nbrs in index.out for v in nbrs]
        self.weight = [w for weights in index.out_weights for w in weights]
        options = partial(_HopOptions, self.base, self.head, self.weight, spec.trajectory)
        sources = [self.position[s] for s in spec.sources]
        if spec.trajectory is not Trajectory.GEODESIC:
            self.options = dict.fromkeys(sources, options())
            return
        self.options = {s: options(hop_counts(self.out, s)) for s in sources}


def _pick(rng: random.Random, edges: Sequence[int], totals: Sequence[int],
          uniform: bool, gone: Sequence[int] = ()) -> int:
    """One of ``edges`` but those at the local indices ``gone`` (ascending),
    weight-proportional (``totals`` holds the running weight totals of all
    of ``edges``) unless ``uniform``, with the RNG calls a pick over the
    remaining edges alone makes, and the edge a linear scan adding up their
    weights would pick from the same draw, down to the scan's fallthrough.

    An int total exceeds a non-negative draw exactly when it exceeds the
    draw's floor ``q``, so the edge picked is the first remaining one whose
    total, less the excluded weight before it, exceeds ``q``: bisect for
    ``q`` and, for each excluded edge at or before the answer, add its
    weight to ``q`` and bisect again."""
    k = len(edges)
    left = k - len(gone)
    if uniform or left == 1:
        i = rng.randrange(left) if left > 1 else 0
        for g in gone:
            if g > i:
                break
            i += 1
        return edges[i]
    remaining = totals[-1]
    for g in gone:
        remaining -= totals[g] - totals[g - 1] if g else totals[0]
    q = int(rng.random() * remaining)
    i = bisect_right(totals, q)
    for g in gone:
        if g > i:
            break
        q += totals[g] - totals[g - 1] if g else totals[0]
        i = bisect_right(totals, q, i)
    if i == k:
        # the scan's fallthrough: the last remaining edge
        i -= 1
        for g in reversed(gone):
            if g < i:
                break
            i -= 1
    return edges[i]


def replicate_once(g: SocialGraph, spec: FlowSpec, rep_index: int,
                   collect_histories: bool = False) -> _RepOutcome:
    """Run a single replication; exposed so tests can audit token routes."""
    spec.validate(g)
    return _replicate(_HopTable(g, spec), spec, rep_index, collect_histories)


def _replicate(hops: _HopTable, spec: FlowSpec, rep_index: int,
               collect_histories: bool = False) -> _RepOutcome:
    rng = random.Random(spec.seed + rep_index)
    parallel = spec.mechanism is Mechanism.PARALLEL_DUP
    transfer = spec.mechanism is Mechanism.TRANSFER
    cap, uniform = hops.cap, spec.uniform
    track_nodes = spec.trajectory is Trajectory.PATH
    track_edges = spec.trajectory is Trajectory.TRAIL
    target = -1 if spec.target is None else hops.position[spec.target]
    base, head = hops.base, hops.head

    arrival: list[int | None] = [None] * len(hops.nodes)
    receipts = [0] * len(hops.nodes)
    tokens: list[_Token] = []
    dead: set[int] = set()
    for lineage, source in enumerate(spec.sources):
        s = hops.position[source]
        tokens.append(_Token(s, hops.options[s], lineage, 1 << s if track_nodes else 0))
        arrival[s] = 0
        receipts[s] = 1
        if s == target:
            dead.add(lineage)
    # filled only for route histories: it keeps every spawned token alive
    all_tokens = tokens[:] if collect_histories else []
    tokens = [t for t in tokens if t.lineage not in dead]
    steps = copies = 0

    for step in range(1, spec.max_steps + 1):
        if not tokens:
            break
        steps = step
        live = len(tokens)
        survivors: list[_Token] = []
        spawned: list[_Token] = []
        for token in tokens:
            lineage = token.lineage
            if lineage in dead:
                live -= 1
                continue
            u = token.holder
            route = token.route
            edges, totals, mask = token.options[u]
            if not edges:
                live -= 1
                continue
            # the options the route excludes, as bits: of heads on a PATH,
            # of local indices on a TRAIL
            taken = route >> base[u] & mask if track_edges else route & mask
            if not taken:
                chosen = edges if parallel else (_pick(rng, edges, totals, uniform),)
            elif taken == mask:
                live -= 1
                continue
            elif parallel:
                if track_nodes:
                    chosen = [e for e in edges if not taken >> head[e] & 1]
                else:
                    chosen = [e for k, e in enumerate(edges) if not taken >> k & 1]
            else:
                gone = []
                while taken:
                    low = taken & -taken
                    gone.append((mask & low - 1).bit_count() if track_nodes
                                else low.bit_length() - 1)
                    taken ^= low
                chosen = (_pick(rng, edges, totals, uniform, gone),)
            for e in chosen:
                v = head[e]
                receipts[v] += 1
                if arrival[v] is None:
                    arrival[v] = step
                if track_nodes:
                    route |= 1 << v
                elif track_edges:
                    route |= 1 << e
                # at the cap the delivery above still counts, but the copy
                # is dropped, so the item cannot travel onward from v
                if not transfer and live < cap:
                    child = _Token(v, token.options, lineage, route)
                    spawned.append(child)
                    if collect_histories:
                        all_tokens.append(child)
                    live += 1
                if v == target:
                    dead.add(lineage)
                    break
            token.route = route
            if transfer:
                token.holder = v
            if lineage in dead:
                live -= 1
                continue
            survivors.append(token)
        copies += len(spawned)
        tokens = [t for t in survivors if t.lineage not in dead]
        tokens += [t for t in spawned if t.lineage not in dead]
        if target >= 0 and len(dead) == len(spec.sources):
            break

    # every delivery of a duplicating mechanism after the sources' own is a
    # copy made or a copy dropped
    dropped = 0 if transfer else sum(receipts) - len(spec.sources) - copies
    nodes = hops.nodes
    outcome = _RepOutcome(
        arrival={nodes[v]: a for v, a in enumerate(arrival) if a is not None},
        receipts={nodes[v]: c for v, c in enumerate(receipts) if c},
        steps=steps,
        truncated=bool(dropped) or (steps == spec.max_steps and bool(tokens)),
        dropped=dropped,
    )
    if collect_histories:
        tail = [u for u, nbrs in enumerate(hops.out) for _ in nbrs]
        outcome.histories = [TokenRecord(
            spec.sources[t.lineage], nodes[t.holder],
            frozenset(nodes[v] for v in _bits(t.route)) if track_nodes else frozenset(),
            frozenset((nodes[tail[e]], nodes[head[e]]) for e in _bits(t.route))
            if track_edges else frozenset()) for t in all_tokens]
    return outcome


def _bits(route: int) -> list[int]:
    """The positions of the set bits of ``route``, lowest first."""
    out = []
    while route:
        low = route & -route
        out.append(low.bit_length() - 1)
        route ^= low
    return out


def simulate(g: SocialGraph, spec: FlowSpec) -> DiffusionTrace:
    """Run all replications of a flow spec and merge the outcomes.

    Merging is order-independent: first arrivals take the minimum,
    receipts and arrival sums add up.  Replication i draws from
    ``random.Random(spec.seed + i)``.  The spec is validated and the hop
    table built once for all replications.
    """
    spec.validate(g)
    hops = _HopTable(g, spec)

    # parallel duplication is deterministic: one replication, scaled
    if spec.mechanism is Mechanism.PARALLEL_DUP:
        reps_to_run, scale = 1, spec.replications
    else:
        reps_to_run, scale = spec.replications, 1

    nodes = g.nodes
    first_arrival: dict[StudentId, int | None] = {v: None for v in nodes}
    receipts = {v: 0 for v in nodes}
    arrival_sum = {v: 0 for v in nodes}
    arrival_count = {v: 0 for v in nodes}
    steps_run = dropped = 0
    truncated = False
    for rep in range(reps_to_run):
        outcome = _replicate(hops, spec, rep)
        for v, step in outcome.arrival.items():
            prior = first_arrival[v]
            if prior is None or step < prior:
                first_arrival[v] = step
            arrival_sum[v] += step * scale
            arrival_count[v] += scale
        for v, count in outcome.receipts.items():
            receipts[v] += count * scale
        steps_run = max(steps_run, outcome.steps)
        truncated = truncated or outcome.truncated
        dropped += outcome.dropped * scale
    return DiffusionTrace(spec, first_arrival, receipts, arrival_sum,
                          arrival_count, steps_run, truncated, dropped)


# -- rank correlation --------------------------------------------------------

def _average_ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = mid
        i = j + 1
    return ranks


def rank_correlation(x: Mapping[StudentId, float] | Sequence[float],
                     y: Mapping[StudentId, float] | Sequence[float]) -> float:
    """Spearman correlation with average ranks for ties.

    Zero variance on either side yields 0.0 rather than an error, which
    is the conventional no-signal reading.
    """
    if isinstance(x, Mapping) != isinstance(y, Mapping):
        raise ParameterError("x and y must both be mappings or both sequences")
    if isinstance(x, Mapping):
        if set(x) != set(y):
            raise ParameterError("x and y must cover the same node set")
        keys = sorted(x)
        xs = [x[k] for k in keys]
        ys = [y[k] for k in keys]
    else:
        xs = list(x)
        ys = list(y)
        if len(xs) != len(ys):
            raise ParameterError("x and y must have equal length")
    if len(xs) < 2:
        raise InsufficientDataError("need at least 2 observations")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return cov / math.sqrt(vx * vy)


def flow_centrality_correlation(trace: DiffusionTrace,
                                metric: Mapping[StudentId, float]) -> float:
    """Spearman between a centrality and how early the flow arrived.

    Arrival is the per-node mean first-arrival step, negated so that
    earlier arrival pairs with higher centrality; never-reached nodes
    rank last (below every finite arrival).
    """
    if set(metric) != set(trace.first_arrival):
        raise ParameterError("trace and metric must cover the same node set")
    finite = sum(1 for v in trace.first_arrival.values() if v is not None)
    if finite < 3:
        raise InsufficientDataError(
            f"need at least 3 reached nodes, got {finite}")
    keys = sorted(metric)
    xs = [float(metric[k]) for k in keys]
    ys = []
    for k in keys:
        mean = trace.mean_first_arrival(k)
        ys.append(-math.inf if mean is None else -mean)
    return rank_correlation(xs, ys)


# -- typology aggregation ----------------------------------------------------

TYPOLOGY_COLUMNS = ("closeness", "eigencentrality", "pagerank", "degree")


@dataclass(frozen=True)
class TypologyMatrix:
    """Correlation of each run mechanism x trajectory cell with centralities."""

    rows: tuple[tuple[str, str], ...]
    columns: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]


def full_typology_specs(sources: Sequence[StudentId], max_steps: int = 15,
                        replications: int = 50, seed: int = FlowSpec.seed,
                        copy_cap: int | None = FlowSpec.copy_cap,
                        uniform: bool = FlowSpec.uniform) -> list[FlowSpec]:
    """One spec per mechanism x trajectory cell, with decorrelated seeds.

    Each cell defaults to 15 steps and 50 replications.  ``moocteams diffuse
    --typology`` passes its ``--steps`` and ``--replications`` instead,
    which default to FlowSpec's ``max_steps`` (20) and ``replications`` (1),
    so the two run different typologies unless both are given.
    """
    return [FlowSpec(mechanism=mechanism, trajectory=trajectory,
                     sources=tuple(sources), max_steps=max_steps,
                     replications=replications, seed=seed + index,
                     copy_cap=copy_cap, uniform=uniform)
            for index, (mechanism, trajectory)
            in enumerate(product(Mechanism, Trajectory))]


def typology_report(g: SocialGraph, specs: Sequence[FlowSpec],
                    metrics: Mapping[StudentId, NodeMetrics]) -> TypologyMatrix:
    """Run every spec and correlate arrivals with four centralities.

    Columns are closeness (negated farness), eigenvector centrality,
    PageRank, and total degree.  Cells where fewer than 3 nodes were
    reached are NaN.
    """
    if not specs:
        raise ParameterError("typology report needs at least one flow spec")
    columns = {
        "closeness": {v: -metrics[v].farness for v in g.nodes},
        "eigencentrality": {v: metrics[v].eigencentrality for v in g.nodes},
        "pagerank": {v: metrics[v].pagerank for v in g.nodes},
        "degree": {v: float(g.degree(v)) for v in g.nodes},
    }
    rows = []
    values = []
    for spec in specs:
        trace = simulate(g, spec)
        cells = []
        for name in TYPOLOGY_COLUMNS:
            try:
                cells.append(flow_centrality_correlation(trace, columns[name]))
            except InsufficientDataError:
                cells.append(math.nan)
        rows.append((spec.mechanism.value, spec.trajectory.value))
        values.append(tuple(cells))
    return TypologyMatrix(tuple(rows), TYPOLOGY_COLUMNS, tuple(values))


# -- serialization -----------------------------------------------------------

TRACE_HEADER = ["student", "first_arrival", "receipts"]


def write_trace_csv(trace: DiffusionTrace, stream) -> None:
    write_csv(stream, TRACE_HEADER, (
        [v, NEVER if arrival is None else arrival, trace.receipts[v]]
        for v, arrival in sorted(trace.first_arrival.items())))


def read_trace_csv(stream) -> dict[StudentId, tuple[int | None, int]]:
    out: dict[StudentId, tuple[int | None, int]] = {}
    for row in read_csv(stream, TRACE_HEADER, "trace"):
        student, arrival, receipts = row
        try:
            out[student] = (None if arrival == NEVER else int(arrival),
                            int(receipts))
        except ValueError as exc:
            raise DataFormatError(f"bad trace row: {row}") from exc
    return out


def write_typology_csv(matrix: TypologyMatrix, stream) -> None:
    write_csv(stream, ["mechanism", "trajectory", *matrix.columns], (
        [mechanism, trajectory, *(f"{c:.9g}" for c in cells)]
        for (mechanism, trajectory), cells in zip(matrix.rows, matrix.values)))
