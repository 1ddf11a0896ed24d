"""Token-based information flow simulation.

A flow spec pairs a duplication mechanism (item moves, is copied to one
neighbor per step, or to all eligible neighbors) with a trajectory
constraint (shortest-path-only, no repeated nodes, no repeated edges, or
unrestricted).  Every copy carries its own route history inherited from
its parent at copy time; a sender's send-marks are part of its history,
so later copies avoid routes the item already took.  Random hops are
weight-proportional by default.  Parallel duplication draws no random
numbers, so its replications are identical and are computed once.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .errors import (DataFormatError, InsufficientDataError, MissingNodeError,
                     ParameterError)
from .graph import SocialGraph, StudentId, geodesic_distances
from .metrics import NodeMetrics

#: CSV literal for nodes the flow never reached.
NEVER = "NEVER"


class Mechanism(Enum):
    TRANSFER = "TRANSFER"
    SERIAL_DUP = "SERIAL_DUP"
    PARALLEL_DUP = "PARALLEL_DUP"

    @classmethod
    def parse(cls, value: "Mechanism | str") -> "Mechanism":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            raise ParameterError(
                f"unknown mechanism {value!r}; expected one of "
                f"{[m.value for m in cls]}") from None


class Trajectory(Enum):
    GEODESIC = "GEODESIC"
    PATH = "PATH"
    TRAIL = "TRAIL"
    WALK = "WALK"

    @classmethod
    def parse(cls, value: "Trajectory | str") -> "Trajectory":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            raise ParameterError(
                f"unknown trajectory {value!r}; expected one of "
                f"{[t.value for t in cls]}") from None


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
        for s in self.sources:
            if s not in g:
                raise MissingNodeError(s)
        if self.target is not None and self.target not in g:
            raise MissingNodeError(self.target)
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
    """

    spec: FlowSpec
    first_arrival: dict[StudentId, int | None]
    receipts: dict[StudentId, int]
    arrival_sum: dict[StudentId, int]
    arrival_count: dict[StudentId, int]
    steps_run: int
    truncated: bool

    def mean_first_arrival(self, node: StudentId) -> float | None:
        count = self.arrival_count[node]
        if count == 0:
            return None
        return self.arrival_sum[node] / count


class _Token:
    __slots__ = ("holder", "origin", "lineage", "visited", "used")

    def __init__(self, holder, origin, lineage, visited, used):
        self.holder = holder
        self.origin = origin
        self.lineage = lineage
        self.visited = visited
        self.used = used


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
    histories: list[TokenRecord] = field(default_factory=list)


def _weighted_choice(rng: random.Random, cands: dict[StudentId, int],
                     uniform: bool) -> StudentId:
    if len(cands) == 1:
        return next(iter(cands))
    if uniform:
        return list(cands)[rng.randrange(len(cands))]
    x = rng.random() * sum(cands.values())
    acc = 0.0
    for v, w in cands.items():
        acc += w
        if x < acc:
            return v
    return v


def replicate_once(g: SocialGraph, spec: FlowSpec, rep_index: int,
                   distances: Mapping[StudentId, Mapping[StudentId, int | None]] | None = None,
                   collect_histories: bool = False) -> _RepOutcome:
    """Run a single replication; exposed so tests can audit token routes."""
    spec.validate(g)
    rng = random.Random(spec.seed + rep_index)
    mechanism = spec.mechanism
    trajectory = spec.trajectory
    cap = spec.resolved_cap(g)
    if trajectory is Trajectory.GEODESIC and distances is None:
        distances = {s: geodesic_distances(g, s).dist for s in spec.sources}
    track_nodes = trajectory is Trajectory.PATH
    track_edges = trajectory is Trajectory.TRAIL

    arrival: dict[StudentId, int] = {}
    receipts: dict[StudentId, int] = {}
    tokens: list[_Token] = []
    all_tokens: list[_Token] = []
    dead: set[int] = set()
    for lineage, s in enumerate(spec.sources):
        token = _Token(s, s, lineage,
                       {s} if track_nodes else None,
                       set() if track_edges else None)
        tokens.append(token)
        all_tokens.append(token)
        arrival[s] = 0
        receipts[s] = 1
        if spec.target is not None and s == spec.target:
            dead.add(lineage)
    tokens = [t for t in tokens if t.lineage not in dead]
    truncated = False
    steps = 0

    def candidates(token: _Token) -> dict[StudentId, int]:
        out = g.out_neighbors(token.holder)
        if trajectory is Trajectory.WALK:
            return out
        if trajectory is Trajectory.PATH:
            return {v: w for v, w in out.items() if v not in token.visited}
        if trajectory is Trajectory.TRAIL:
            h = token.holder
            return {v: w for v, w in out.items() if (h, v) not in token.used}
        row = distances[token.origin]
        nxt = row[token.holder] + 1
        return {v: w for v, w in out.items() if row[v] == nxt}

    for step in range(1, spec.max_steps + 1):
        if not tokens:
            break
        steps = step
        live = len(tokens)
        survivors: list[_Token] = []
        spawned: list[_Token] = []

        def deliver(v: StudentId) -> None:
            receipts[v] = receipts.get(v, 0) + 1
            if v not in arrival:
                arrival[v] = step

        def spawn(parent: _Token, v: StudentId) -> None:
            nonlocal live, truncated
            if live >= cap:
                # the delivery above still counts; only the copy record
                # is dropped, so the item cannot travel onward from v
                truncated = True
                return
            child = _Token(
                v, parent.origin, parent.lineage,
                set(parent.visited) | {v} if track_nodes else None,
                set(parent.used) | {(parent.holder, v)} if track_edges else None)
            spawned.append(child)
            all_tokens.append(child)
            live += 1

        for token in tokens:
            if token.lineage in dead:
                live -= 1
                continue
            cands = candidates(token)
            if not cands:
                live -= 1
                continue
            if mechanism is Mechanism.PARALLEL_DUP:
                chosen = cands
            else:
                chosen = (_weighted_choice(rng, cands, spec.uniform),)
            for v in chosen:
                deliver(v)
                if mechanism is not Mechanism.TRANSFER:
                    spawn(token, v)
                if track_nodes:
                    token.visited.add(v)
                if track_edges:
                    token.used.add((token.holder, v))
                if spec.target is not None and v == spec.target:
                    dead.add(token.lineage)
                    break
            if mechanism is Mechanism.TRANSFER:
                token.holder = v
            if token.lineage in dead:
                live -= 1
                continue
            survivors.append(token)
        tokens = [t for t in survivors if t.lineage not in dead]
        tokens += [t for t in spawned if t.lineage not in dead]
        if spec.target is not None and len(dead) == len(spec.sources):
            break

    outcome = _RepOutcome(
        arrival=arrival,
        receipts=receipts,
        steps=steps,
        truncated=truncated or (steps == spec.max_steps and bool(tokens)),
    )
    if collect_histories:
        outcome.histories = [
            TokenRecord(
                origin=t.origin,
                holder=t.holder,
                visited=frozenset(t.visited) if t.visited is not None else frozenset(),
                used_edges=frozenset(t.used) if t.used is not None else frozenset())
            for t in all_tokens
        ]
    return outcome


def simulate(g: SocialGraph, spec: FlowSpec) -> DiffusionTrace:
    """Run all replications of a flow spec and merge the outcomes.

    Merging is order-independent: first arrivals take the minimum,
    receipts and arrival sums add up.  Replication i draws from
    ``random.Random(spec.seed + i)``.
    """
    spec.validate(g)
    distances = None
    if spec.trajectory is Trajectory.GEODESIC:
        distances = {s: geodesic_distances(g, s).dist for s in spec.sources}

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
    steps_run = 0
    truncated = False
    for rep in range(reps_to_run):
        outcome = replicate_once(g, spec, rep, distances=distances)
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
    return DiffusionTrace(spec, first_arrival, receipts, arrival_sum,
                          arrival_count, steps_run, truncated)


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
                        replications: int = 50, seed: int = 0,
                        copy_cap: int | None = None,
                        uniform: bool = False) -> list[FlowSpec]:
    """One spec per mechanism x trajectory cell, with decorrelated seeds."""
    specs = []
    index = 0
    for mechanism in Mechanism:
        for trajectory in Trajectory:
            specs.append(FlowSpec(
                mechanism=mechanism, trajectory=trajectory,
                sources=tuple(sources), max_steps=max_steps,
                replications=replications, seed=seed + index,
                copy_cap=copy_cap, uniform=uniform))
            index += 1
    return specs


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
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for v in sorted(trace.first_arrival):
        arrival = trace.first_arrival[v]
        writer.writerow([v, NEVER if arrival is None else arrival,
                         trace.receipts[v]])


def read_trace_csv(stream) -> dict[StudentId, tuple[int | None, int]]:
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != TRACE_HEADER:
        raise DataFormatError(f"expected trace header {TRACE_HEADER}, got {header}")
    out: dict[StudentId, tuple[int | None, int]] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise DataFormatError(f"bad trace row: {row}")
        student, arrival, receipts = row
        try:
            out[student] = (None if arrival == NEVER else int(arrival),
                            int(receipts))
        except ValueError as exc:
            raise DataFormatError(f"bad trace row: {row}") from exc
    return out


def write_typology_csv(matrix: TypologyMatrix, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["mechanism", "trajectory", *matrix.columns])
    for (mechanism, trajectory), cells in zip(matrix.rows, matrix.values):
        writer.writerow([mechanism, trajectory,
                         *(f"{c:.9g}" for c in cells)])
