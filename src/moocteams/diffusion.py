"""Token-based information flow simulation.

A flow spec pairs a duplication mechanism (item moves, is copied to one
neighbor per step, or to all eligible neighbors) with a trajectory
constraint (shortest-path-only, no repeated nodes, no repeated edges, or
unrestricted).  Every copy carries its own route history inherited from
its parent at copy time; a sender's send-marks are part of its history,
so later copies avoid routes the item already took.  Random hops are
weight-proportional by default.  Parallel duplication draws no random
numbers, so its replications are identical and are computed once.  Replication
i draws from ``random.Random(seed + i)`` alone and the merge takes minima and int
sums, so forked workers (:data:`POOL_MIN_HOPS`) give the same bytes.

Replications run on node positions from :meth:`SocialGraph.index`, over a
hop table made once per :func:`simulate` call, whose hop options for a node
are built from its out-row the first time a token stands there.  A token is
its holder, its route and its exclusions, kept in parallel lists.  The
exclusions are the holder's options the token may not take, as bits of their
indices: derived from the route at its first hop from the holder, then
updated with its sends.  A PATH route is an ``int`` over node positions
(about 100 bytes at 771 students), which a sender marks each send in and a
copy shares.  A TRAIL sender marks its exclusions only.  A moving token keeps
them in a dict by holder, read at each holder, where a chain would be walked
anew.  A copy gets a link ``(route, holder, marks)`` to its sender's chain,
ending in 0, so its marks are shared and not copied.  Other routes are 0.
The pick steps over the excluded indices.
"""

from __future__ import annotations

import math
import os
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, compress, product
from typing import Mapping, Sequence

from .errors import (DataFormatError, InsufficientDataError, ParameterError, ParsedEnum,
                     require_count, require_known)
from .formats import read_csv, refused_as, write_csv
from .graph import SocialGraph, StudentId, hop_counts
from .metrics import NodeMetrics, left_sum

#: CSV literal for nodes the flow never reached.
NEVER = "NEVER"


class Mechanism(ParsedEnum):
    TRANSFER = "TRANSFER"
    SERIAL_DUP = "SERIAL_DUP"
    PARALLEL_DUP = "PARALLEL_DUP"


class Trajectory(ParsedEnum):
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

    def validate(self, g: SocialGraph) -> int:
        """The copy cap (default: 10 per student); ParameterError unless the spec
        can run on ``g``.  The counts are stored back as plain ints."""
        if not self.sources:
            raise ParameterError("flow spec needs at least one source")
        require_known((s for s in (*self.sources, self.target) if s is not None), g)
        for name, least in (("max_steps", 1), ("replications", 1), ("seed", 0)):
            object.__setattr__(self, name, require_count(getattr(self, name), name, least))
        return require_count(10 * g.node_count if self.copy_cap is None else self.copy_cap,
                             "copy_cap", least=len(self.sources))


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
        return self.arrival_sum[node] / count if count else None


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

    ``self[u]`` holds the positions a token may hop to from u before route
    exclusions (u's out-row itself, or with ``dist``, the source's hop counts,
    the part of it in the next distance shell), the indices of those options,
    their running weight totals, a mask and ``full``, the bits of all k
    indices.  A token's exclusions and a sender's marks at u are bits of
    option indices.  On a PATH they are derived from the route: the mask holds
    the bits of the heads, which a row holds in ascending position order, so
    the rank of a visited head's bit in the mask is its option's index.  On a
    TRAIL (mask 0) they are the marks made at u: a moving token's dict holds
    them by holder, a chain in its latest link at u.
    """

    def __init__(self, out: Sequence[Sequence[int]], weights: Sequence[Sequence[int]],
                 trajectory: Trajectory, dist: Sequence[int | None] | None = None):
        super().__init__()
        self.out, self.weights, self.trajectory, self.dist = out, weights, trajectory, dist

    def __missing__(self, u: int) -> tuple[Sequence[int], tuple[int, ...], tuple[int, ...], int, int]:
        heads, weights, dist = self.out[u], self.weights[u], self.dist
        if dist is not None:
            d = dist[u]
            shell = () if d is None else [k for k, v in enumerate(heads) if dist[v] == d + 1]
            heads, weights = (tuple(row[k] for k in shell) for row in (heads, weights))
        mask = sum(1 << v for v in heads) if self.trajectory is Trajectory.PATH else 0
        option = self[u] = (heads, tuple(range(len(heads))), tuple(accumulate(weights)),
                            mask, (1 << len(heads)) - 1)
        return option


class _HopTable:
    """The graph's out-rows and each source's :class:`_HopOptions`.

    ``options[s]`` holds source s's hop options, shared by every source
    unless the trajectory is GEODESIC.  Building one validates ``spec`` on
    ``g``.
    """

    def __init__(self, g: SocialGraph, spec: FlowSpec):
        self.cap = spec.validate(g)
        index = g.index()
        self.nodes, self.position, self.out = g.nodes, index.position, index.out
        options = partial(_HopOptions, index.out, index.out_weights, spec.trajectory)
        sources = [self.position[s] for s in spec.sources]
        if spec.trajectory is not Trajectory.GEODESIC:
            self.options = dict.fromkeys(sources, options())
            return
        self.options = {s: options(hop_counts(self.out, s)) for s in sources}


def _pick(rng: random.Random, totals: Sequence[int], uniform: bool,
          gone: Sequence[int] = ()) -> int:
    """The local index of an edge but those at the local indices ``gone``
    (ascending), weight-proportional (``totals`` holds the running weight
    totals of all the edges) unless ``uniform``, with the RNG calls a pick
    over the remaining edges alone makes, and the edge a linear scan adding
    up their weights would pick from the same draw, down to its fallthrough.

    An int total exceeds a non-negative draw exactly when it exceeds the
    draw's floor ``q``, so the edge picked is the first remaining one whose
    total, less the excluded weight before it, exceeds ``q``: bisect for
    ``q`` and, for each excluded edge at or before the answer, add its
    weight to ``q`` and bisect again."""
    k = len(totals)
    left = k - len(gone)
    if uniform or left == 1:
        i = rng.randrange(left) if left > 1 else 0
        for g in gone:
            if g > i:
                break
            i += 1
        return i
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
    return i


def replicate_once(g: SocialGraph, spec: FlowSpec, rep_index: int,
                   collect_histories: bool = False) -> _RepOutcome:
    """Run a single replication; exposed so tests can audit token routes."""
    return _replicate(_HopTable(g, spec), spec, rep_index, collect_histories)


def _replicate(hops: _HopTable, spec: FlowSpec, rep_index: int,
               collect_histories: bool = False) -> _RepOutcome:
    rng = random.Random(spec.seed + rep_index)
    draw = rng.random
    parallel = spec.mechanism is Mechanism.PARALLEL_DUP
    transfer = spec.mechanism is Mechanism.TRANSFER
    cap, uniform = hops.cap, spec.uniform
    track_nodes = spec.trajectory is Trajectory.PATH
    track_edges = spec.trajectory is Trajectory.TRAIL
    # a token's exclusions, None until its first hop from its holder
    fresh = None if track_nodes or track_edges else 0
    # a sender excludes each option it sends on
    marking = track_edges or track_nodes
    # a moving TRAIL token keeps its send-marks in a dict by holder
    carries = track_edges and transfer
    # a duplicating one's route is a chain of (route, holder, marks) links
    chains = track_edges and not transfer
    target = -1 if spec.target is None else hops.position[spec.target]
    starts = [hops.position[s] for s in spec.sources]
    options = [hops.options[s] for s in starts]

    arrival: list[int | None] = [None] * len(hops.nodes)
    receipts = [0] * len(hops.nodes)
    for s in starts:
        arrival[s], receipts[s] = 0, 1
    dead = {lineage for lineage, s in enumerate(starts) if s == target}
    # the live tokens as columns: holder position, route, the local indices
    # of the holder's options it excludes (as bits), lineage and its
    # [lineage, holder, route] record, kept for route histories only
    lineages = [lineage for lineage in range(len(starts)) if lineage not in dead]
    at = [starts[lineage] for lineage in lineages]
    routes = [1 << s if track_nodes else {} if carries else 0 for s in at]
    excluded = [fresh] * len(at)
    made = [[lineage, s, 1 << s if track_nodes else 0]
            for lineage, s in enumerate(starts)] if collect_histories else []
    records = [made[lineage] for lineage in lineages] if collect_histories else []
    steps = copies = 0

    for step in range(1, spec.max_steps + 1):
        if not at:
            break
        steps = step
        live = len(at)
        kept = 0
        copy_at, copy_routes, copy_lineages, copy_records = [], [], [], []
        # without histories the holders stand in for the records column
        for u, route, local, lineage, record in zip(
                at, routes, excluded, lineages, records if collect_histories else at):
            if target >= 0 and lineage in dead:
                live -= 1
                continue
            heads, indices, totals, mask, full = options[lineage][u]
            if local is None:
                if carries:
                    local = route.get(u, 0)
                elif chains:
                    # the latest link made at u holds every mark made there
                    link = route
                    while link and link[1] != u:
                        link = link[0]
                    local = link[2] if link else 0
                else:
                    # the rank of a head's bit in the mask is its local index
                    local = 0
                    taken = route & mask
                    while taken:
                        low = taken & -taken
                        local |= 1 << (mask & low - 1).bit_count()
                        taken ^= low
            if local == full:
                # every option is excluded, or there are none
                live -= 1
                continue
            if parallel:
                chosen = indices if not local else [i for i in indices if not local >> i & 1]
            elif local or uniform or full == 1:
                chosen = (_pick(rng, totals, uniform, _bits(local)),)
            else:
                i = bisect_right(totals, int(draw() * totals[-1]))
                # past the end is the scan's fallthrough: the last option
                chosen = indices[i:i + 1] or indices[-1:]
            for i in chosen:
                v = heads[i]
                receipts[v] += 1
                if arrival[v] is None:
                    arrival[v] = step
                if track_nodes:
                    route |= 1 << v
                if marking:
                    local |= 1 << i
                # at the cap the delivery above still counts, but the copy
                # is dropped, so the item cannot travel onward from v
                if not transfer and live < cap:
                    # a TRAIL copy gets a link to its sender's route and marks
                    copy_route = (route, u, local) if chains else route
                    copy_at.append(v)
                    copy_routes.append(copy_route)
                    copy_lineages.append(lineage)
                    if collect_histories:
                        copy_records.append([lineage, v, copy_route])
                    live += 1
                if v == target:
                    dead.add(lineage)
                    break
            if carries:
                route[u] = local
            if collect_histories:
                record[1:] = v if transfer else u, (route, u, local) if chains else route
                records[kept] = record
            if transfer:
                u, local = v, fresh
            if target >= 0 and lineage in dead:
                # dropped with the rest of its lineage after the step
                live -= 1
            # the survivors are compacted in place, ahead of the tokens read
            at[kept], routes[kept], excluded[kept], lineages[kept] = u, route, local, lineage
            kept += 1
        for column, spawned in ((at, copy_at), (routes, copy_routes),
                                (excluded, [fresh] * len(copy_at)),
                                (lineages, copy_lineages), (records, copy_records)):
            column[kept:] = spawned
        copies += len(copy_at)
        made += copy_records
        if dead:
            keep = [lineage not in dead for lineage in lineages]
            at, routes, excluded, lineages, records = (list(compress(column, keep)) for column
                                                       in (at, routes, excluded, lineages, records))

    # every delivery of a duplicating mechanism after the sources' own is a
    # copy made or a copy dropped
    dropped = 0 if transfer else sum(receipts) - len(spec.sources) - copies
    nodes = hops.nodes
    outcome = _RepOutcome(
        arrival={nodes[v]: a for v, a in enumerate(arrival) if a is not None},
        receipts={nodes[v]: c for v, c in enumerate(receipts) if c},
        steps=steps,
        truncated=bool(dropped) or (steps == spec.max_steps and bool(at)),
        dropped=dropped,
    )
    if collect_histories:
        outcome.histories = [TokenRecord(
            spec.sources[lineage], nodes[u],
            frozenset(nodes[v] for v in _bits(route)) if track_nodes else frozenset(),
            frozenset((nodes[u], nodes[v]) for u, v in _used_edges(route, hops.out))
            if track_edges else frozenset()) for lineage, u, route in made]
    return outcome


def _used_edges(route: int | tuple | dict,
                out: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The edges of a TRAIL route, a chain of links ending in 0 or a dict of
    marks by holder, as pairs of positions."""
    holders = []
    while isinstance(route, tuple):
        route, u, marks = route
        holders.append((u, marks))
    holders += route.items() if route else ()
    return [(u, out[u][i]) for u, marks in holders for i in _bits(marks)]


def _bits(route: int) -> list[int]:
    """The positions of the set bits of ``route``, lowest first."""
    out = []
    while route:
        low = route & -route
        out.append(low.bit_length() - 1)
        route ^= low
    return out


#: Replications x hops per replication (bound) from which ``simulate`` forks its
#: workers.  On 2 vCPUs 2 workers start and join in 6-7 ms (27 MB process), and the
#: 4 SERIAL_DUP cells of 20 replications took 0.89x of serial at 93 000, 0.70x at 186 000.
POOL_MIN_HOPS = 200_000


def _pool_size(reps: int, bound: int) -> int:
    """The processes for ``reps`` replications of at most ``bound`` hops each."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 1 if reps * bound < POOL_MIN_HOPS else min(reps, cpus or 1)


def _fork_context():
    """The fork start method's context, or None where this process may not fork
    safely: a child forked beside other threads may deadlock on their locks."""
    import multiprocessing as mp  # 11 ms and 1.3 MB, paid only where workers may run
    import threading
    tasks = os.listdir("/proc/self/task") if os.path.isdir("/proc/self/task") else ()
    safe = ("fork" in mp.get_all_start_methods() and not mp.current_process().daemon
            and threading.active_count() == 1 and len(tasks) < 2)
    return mp.get_context("fork") if safe else None


def _on_workers(context, processes: int, hops: _HopTable, spec: FlowSpec) -> list[_RepOutcome]:
    """Every replication's outcome, worker k of ``processes`` forked in ``context``
    running replications k, k + processes, ...; all joined here, killed first on an error."""
    def stripe(reps: range, send) -> None:  # a worker's body
        try:
            send.send([_replicate(hops, spec, rep) for rep in reps])
        except Exception as error:  # raised again in the parent
            send.send(error)

    workers, outcomes = [], []
    try:
        for k in range(processes):
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=stripe, args=(range(k, spec.replications, processes), send))
            worker.start()
            workers.append((worker, receive))
            send.close()  # so the pipe ends where the worker does
        for worker, receive in workers:
            try:
                result = receive.recv()
            except EOFError:
                worker.join()
                raise ChildProcessError(f"a worker exited with code {worker.exitcode}") from None
            if isinstance(result, Exception):
                raise result
            outcomes += result
    except BaseException:
        for worker, _ in workers:
            worker.kill()
        raise
    finally:
        for worker, receive in workers:
            worker.join()
            receive.close()
    return outcomes


def simulate(g: SocialGraph, spec: FlowSpec) -> DiffusionTrace:
    """Run all replications of a flow spec and merge the outcomes.

    Merging is order-independent: first arrivals take the minimum, receipts and
    arrival sums add up.  Replication i draws from ``random.Random(spec.seed + i)``
    alone, so the trace has the same bytes on forked workers, one per CPU this process
    may use, from :data:`POOL_MIN_HOPS` on where forking is safe (PARALLEL_DUP runs
    once).  Each worker ends here; one that dies raises ChildProcessError.
    """
    hops = _HopTable(g, spec)

    # parallel duplication is deterministic: one replication, scaled
    parallel = spec.mechanism is Mechanism.PARALLEL_DUP
    reps_to_run, scale = (1, spec.replications) if parallel else (spec.replications, 1)
    bound = spec.max_steps * (1 if spec.mechanism is Mechanism.TRANSFER else hops.cap)
    processes = _pool_size(reps_to_run, bound)
    context = _fork_context() if processes > 1 else None

    first_arrival: dict[StudentId, int | None] = dict.fromkeys(g.nodes)
    receipts, arrival_sum, arrival_count = (dict.fromkeys(g.nodes, 0) for _ in range(3))
    steps_run, dropped, truncated = 0, 0, False
    for outcome in (_on_workers(context, processes, hops, spec) if context
                    else (_replicate(hops, spec, rep) for rep in range(reps_to_run))):
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
        x, y = [x[k] for k in keys], [y[k] for k in keys]
    xs, ys = list(x), list(y)
    if len(xs) != len(ys):
        raise ParameterError("x and y must have equal length")
    if len(xs) < 2:
        raise InsufficientDataError("need at least 2 observations")
    rx, ry = _average_ranks(xs), _average_ranks(ys)
    n = len(rx)
    mx, my = left_sum(rx) / n, left_sum(ry) / n
    cov = left_sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = left_sum((a - mx) ** 2 for a in rx)
    vy = left_sum((b - my) ** 2 for b in ry)
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
    means = {k: trace.mean_first_arrival(k) for k in metric}
    return rank_correlation({k: float(v) for k, v in metric.items()},
                            {k: -math.inf if m is None else -m for k, m in means.items()})


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
    """One spec per mechanism x trajectory cell, with decorrelated seeds."""
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
    require_known(g.nodes, metrics, context="metrics table")
    require_known(metrics, g)
    columns = {
        "closeness": {v: -metrics[v].farness for v in g.nodes},
        "eigencentrality": {v: metrics[v].eigencentrality for v in g.nodes},
        "pagerank": {v: metrics[v].pagerank for v in g.nodes},
        "degree": {v: float(g.degree(v)) for v in g.nodes},
    }
    values = []
    for spec in specs:
        trace = simulate(g, spec)
        try:  # too few students reached: every column is NaN
            values.append(tuple(flow_centrality_correlation(trace, columns[name])
                                for name in TYPOLOGY_COLUMNS))
        except InsufficientDataError:
            values.append((math.nan,) * len(TYPOLOGY_COLUMNS))
    rows = tuple((spec.mechanism.value, spec.trajectory.value) for spec in specs)
    return TypologyMatrix(rows, TYPOLOGY_COLUMNS, tuple(values))


# -- serialization -----------------------------------------------------------

TRACE_HEADER = ["student", "first_arrival", "receipts"]


def write_trace_csv(trace: DiffusionTrace, stream) -> None:
    write_csv(stream, TRACE_HEADER, (
        [v, NEVER if arrival is None else arrival, trace.receipts[v]]
        for v, arrival in sorted(trace.first_arrival.items())))


def read_trace_csv(stream) -> dict[StudentId, tuple[int | None, int]]:
    """Inverse of :func:`write_trace_csv`; a second row of one student, a negative
    count, receipts with no arrival or an arrival with none is an error."""
    out: dict[StudentId, tuple[int | None, int]] = {}
    for row in read_csv(stream, TRACE_HEADER, "trace"):
        student, arrival, receipts = row
        with refused_as("bad trace row: {}", row):
            first, count = None if arrival == NEVER else int(arrival), int(receipts)
            if student in out:
                raise DataFormatError(f"a second row of {student!r}")
            if (first is None) != (count == 0) or min(first or 0, count) < 0:
                raise DataFormatError("arrival and receipts disagree")
            out[student] = (first, count)
    return out


def write_typology_csv(matrix: TypologyMatrix, stream) -> None:
    write_csv(stream, ["mechanism", "trajectory", *matrix.columns], (
        [mechanism, trajectory, *(f"{c:.9g}" for c in cells)]
        for (mechanism, trajectory), cells in zip(matrix.rows, matrix.values)))
