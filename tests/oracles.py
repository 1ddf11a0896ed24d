"""Independent reference implementations the tests compare against.

Everything here is written the dumb, direct way (dense matrices, literal
formulas, triple loops) precisely so it shares no code with the library.
"""

from __future__ import annotations

import math
import random
from collections import deque

import numpy as np

from moocteams.graph import SocialGraph, StudentId


def random_digraph(n: int, p: float, seed: int, max_w: int = 4) -> SocialGraph:
    rng = random.Random(seed)
    nodes = [f"n{i:03d}" for i in range(n)]
    edges = {}
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < p:
                edges[(u, v)] = rng.randint(1, max_w)
    return SocialGraph(edges, nodes=nodes)


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


def bfs_hops(g: SocialGraph, source: StudentId) -> dict[StudentId, int]:
    """Hop count from ``source`` to every node it reaches."""
    hops = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.out_neighbors(u):
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def reference_replicate(g: SocialGraph, spec, rep_index: int) -> dict:
    """One replication of a flow spec with id-keyed candidate dicts, set
    routes and the linear-scan :func:`_weighted_choice`.

    A token is a dict holding its node, source, lineage, the nodes its
    route has visited and the edges it has used.  On a send the copy gets
    the sender's sets plus the new mark, and the sender keeps the mark
    too.  ``live`` counts this step's tokens not yet retired plus the
    copies made so far; a copy is refused while it is at the cap.  Returns
    the replication's arrivals, receipts, steps, truncation, refused
    copies and, for every token ever made in order, its (source, holder,
    visited, used edges) with the sets its trajectory keeps.
    """
    mechanism, trajectory = spec.mechanism.value, spec.trajectory.value
    cap = 10 * g.node_count if spec.copy_cap is None else spec.copy_cap
    rng = random.Random(spec.seed + rep_index)
    hops = {s: bfs_hops(g, s) for s in spec.sources}
    arrival, receipts = {}, {}
    dead, made = set(), []
    for lineage, s in enumerate(spec.sources):
        made.append({"at": s, "source": s, "lineage": lineage,
                     "visited": {s}, "used": set()})
        arrival[s], receipts[s] = 0, 1
        if s == spec.target:
            dead.add(lineage)
    tokens = [t for t in made if t["lineage"] not in dead]
    steps = dropped = 0
    for step in range(1, spec.max_steps + 1):
        if not tokens:
            break
        steps = step
        live, kept, copies = len(tokens), [], []
        for token in tokens:
            if token["lineage"] in dead:
                live -= 1
                continue
            u = token["at"]
            cands = {}
            for v, w in g.out_neighbors(u).items():
                if trajectory == "GEODESIC" and hops[token["source"]].get(v) != hops[token["source"]][u] + 1:
                    continue
                if trajectory == "PATH" and v in token["visited"]:
                    continue
                if trajectory == "TRAIL" and (u, v) in token["used"]:
                    continue
                cands[v] = w
            if not cands:
                live -= 1
                continue
            if mechanism == "PARALLEL_DUP":
                chosen = list(cands)
            else:
                chosen = [_weighted_choice(rng, cands, spec.uniform)]
            for v in chosen:
                receipts[v] = receipts.get(v, 0) + 1
                arrival.setdefault(v, step)
                if mechanism != "TRANSFER":
                    if live >= cap:
                        dropped += 1
                    else:
                        copy = {"at": v, "source": token["source"],
                                "lineage": token["lineage"],
                                "visited": token["visited"] | {v},
                                "used": token["used"] | {(u, v)}}
                        copies.append(copy)
                        made.append(copy)
                        live += 1
                token["visited"].add(v)
                token["used"].add((u, v))
                if v == spec.target:
                    dead.add(token["lineage"])
                    break
            if mechanism == "TRANSFER":
                token["at"] = v
            if token["lineage"] in dead:
                live -= 1
                continue
            kept.append(token)
        tokens = [t for t in kept + copies if t["lineage"] not in dead]
        if spec.target is not None and len(dead) == len(spec.sources):
            break
    return {
        "arrival": arrival,
        "receipts": receipts,
        "steps": steps,
        "truncated": dropped > 0 or (steps == spec.max_steps and bool(tokens)),
        "dropped": dropped,
        "histories": [(t["source"], t["at"],
                       frozenset(t["visited"]) if trajectory == "PATH" else frozenset(),
                       frozenset(t["used"]) if trajectory == "TRAIL" else frozenset())
                      for t in made],
    }


def strongly_connected_digraph(n: int, p: float, seed: int,
                               max_w: int = 4) -> SocialGraph:
    """Random digraph with a directed ring added, so it is strongly connected."""
    rng = random.Random(seed)
    nodes = [f"n{i:03d}" for i in range(n)]
    edges = {}
    for i, u in enumerate(nodes):
        edges[(u, nodes[(i + 1) % n])] = rng.randint(1, max_w)
    for u in nodes:
        for v in nodes:
            if u != v and (u, v) not in edges and rng.random() < p:
                edges[(u, v)] = rng.randint(1, max_w)
    return SocialGraph(edges, nodes=nodes)


def adjacency(g: SocialGraph) -> tuple[list[str], np.ndarray]:
    nodes = list(g.nodes)
    index = {u: i for i, u in enumerate(nodes)}
    w = np.zeros((len(nodes), len(nodes)))
    for u, v, weight in g.edges():
        w[index[u], index[v]] = weight
    return nodes, w


def floyd_warshall(g: SocialGraph) -> dict[str, dict[str, int | None]]:
    nodes, w = adjacency(g)
    n = len(nodes)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    dist[w > 0] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    out: dict[str, dict[str, int | None]] = {}
    for i, u in enumerate(nodes):
        out[u] = {v: (None if np.isinf(dist[i, j]) else int(dist[i, j]))
                  for j, v in enumerate(nodes)}
    return out


def dense_pagerank(g: SocialGraph, damping: float = 0.85,
                   iterations: int = 500) -> dict[str, float]:
    nodes, w = adjacency(g)
    n = len(nodes)
    out_strength = w.sum(axis=1)
    p = np.zeros((n, n))
    dangling = out_strength == 0
    nz = ~dangling
    p[nz] = w[nz] / out_strength[nz, None]
    p[dangling] = 1.0 / n
    x = np.full(n, 1.0 / n)
    for _ in range(iterations):
        x = (1 - damping) / n + damping * (p.T @ x)
    return {u: float(x[i]) for i, u in enumerate(nodes)}


def push_pagerank(g: SocialGraph, damping: float = 0.85, tol: float = 1e-10,
                  max_iter: int = 200) -> tuple[dict[str, float], int]:
    """PageRank the textbook way: each student in turn pushes its share of
    rank along its out-edges, dangling mass is spread evenly, and the walk
    stops when the L1 change is under ``tol``.  Returns (scores, steps)."""
    nodes = list(g.nodes)
    n = len(nodes)
    x = {u: 1.0 / n for u in nodes}
    for step in range(1, max_iter + 1):
        nxt = {v: 0.0 for v in nodes}
        dangling = 0.0
        for u in nodes:
            out = g.out_neighbors(u)
            strength = sum(out.values())
            if strength == 0:
                dangling += x[u]
            for v, w in out.items():
                nxt[v] += x[u] / strength * w
        base = (1.0 - damping) / n + damping * dangling / n
        nxt = {v: base + damping * nxt[v] for v in nodes}
        change = sum(abs(nxt[v] - x[v]) for v in nodes)
        x = nxt
        if change < tol:
            break
    return x, step


def dense_hits(g: SocialGraph,
               iterations: int = 2000) -> tuple[dict[str, float], dict[str, float]]:
    nodes, w = adjacency(g)
    n = len(nodes)
    a = np.full(n, 1.0 / np.sqrt(n))
    h = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(iterations):
        a_new = w.T @ h
        h_new = w @ a
        na = np.linalg.norm(a_new)
        nh = np.linalg.norm(h_new)
        a = a_new / na if na > 0 else a_new
        h = h_new / nh if nh > 0 else h_new
    return ({u: float(a[i]) for i, u in enumerate(nodes)},
            {u: float(h[i]) for i, u in enumerate(nodes)})


def dense_eigencentrality(g: SocialGraph,
                          iterations: int = 2000) -> dict[str, float]:
    nodes, w = adjacency(g)
    s = w + w.T
    x = np.full(len(nodes), 1.0 / np.sqrt(len(nodes)))
    for _ in range(iterations):
        x = s @ x
        norm = np.linalg.norm(x)
        if norm > 0:
            x = x / norm
    return {u: float(x[i]) for i, u in enumerate(nodes)}


def _perron(vec: np.ndarray) -> np.ndarray:
    """A unit eigen/singular vector with the sign that makes it non-negative."""
    return -vec if vec.sum() < 0 else vec


def eigh_eigencentrality(g: SocialGraph) -> dict[str, float]:
    """Dominant eigenvector of W + W^T from a symmetric eigensolver."""
    nodes, w = adjacency(g)
    _, vecs = np.linalg.eigh(w + w.T)
    x = _perron(vecs[:, -1])
    return {u: float(x[i]) for i, u in enumerate(nodes)}


def svd_hits(g: SocialGraph) -> tuple[dict[str, float], dict[str, float]]:
    """Authorities and hubs as W's leading right and left singular vectors."""
    nodes, w = adjacency(g)
    u, _, vt = np.linalg.svd(w)
    a, h = _perron(vt[0]), _perron(u[:, 0])
    return ({v: float(a[i]) for i, v in enumerate(nodes)},
            {v: float(h[i]) for i, v in enumerate(nodes)})


def brute_links(g: SocialGraph, node: str) -> int:
    """Ordered pairs of the node's in- and out-neighbours joined by an edge."""
    nbrs = set(g.out_neighbors(node)) | set(g.in_neighbors(node))
    return sum(1 for a in nbrs for b in nbrs if a != b and g.weight(a, b) > 0)


def brute_clustering(g: SocialGraph, node: str) -> float:
    k = len(set(g.out_neighbors(node)) | set(g.in_neighbors(node)))
    if k < 2:
        return 0.0
    return brute_links(g, node) / (k * (k - 1))


_ROLE_TABLE = {
    # (src==broker, broker==dst, src==dst) group equality pattern
    (True, True, True): "coordinator",
    (False, True, False): "gatekeeper",
    (True, False, False): "representative",
    (False, False, True): "consultant",
    (False, False, False): "liaison",
}


def brute_brokerage(g: SocialGraph, partition) -> dict[str, dict[str, int]]:
    counts = {b: {r: 0 for r in
                  ("coordinator", "gatekeeper", "representative",
                   "consultant", "liaison")} for b in g.nodes}
    for i in g.nodes:
        for b in g.out_neighbors(i):
            for k in g.out_neighbors(b):
                if i == k:
                    continue
                key = (partition[i] == partition[b],
                       partition[b] == partition[k],
                       partition[i] == partition[k])
                counts[b][_ROLE_TABLE[key]] += 1
    return counts


def count_two_paths(g: SocialGraph) -> int:
    total = 0
    for i in g.nodes:
        for b in g.out_neighbors(i):
            total += sum(1 for k in g.out_neighbors(b) if k != i)
    return total


def brute_constraint(g: SocialGraph, ego: str) -> float:
    def mutual(u, v):
        return g.weight(u, v) + g.weight(v, u)

    def share(u, v):
        nbrs = set(g.out_neighbors(u)) | set(g.in_neighbors(u))
        return mutual(u, v) / sum(mutual(u, k) for k in nbrs)

    alters = set(g.out_neighbors(ego)) | set(g.in_neighbors(ego))
    total = 0.0
    for j in alters:
        term = share(ego, j)
        for q in alters:
            if q != j:
                term += share(ego, q) * share(q, j)
        total += term * term
    return total


def brute_effective_size(g: SocialGraph, ego: str) -> float:
    def mutual(u, v):
        return g.weight(u, v) + g.weight(v, u)

    alters = set(g.out_neighbors(ego)) | set(g.in_neighbors(ego))
    denom = sum(mutual(ego, k) for k in alters)
    total = 0.0
    for j in alters:
        j_nbrs = set(g.out_neighbors(j)) | set(g.in_neighbors(j))
        j_max = max(mutual(j, k) for k in j_nbrs)
        redundancy = sum((mutual(ego, q) / denom) * (mutual(j, q) / j_max)
                         for q in alters if q != j)
        total += 1.0 - redundancy
    return total


def pairwise_structural_holes(g: SocialGraph, ego: str) -> tuple[float, float]:
    """Constraint and effective size summed the literal way, over every
    ordered alter pair (j, q) with q in canonical order, zero terms included,
    so the result is float-for-float what a summation in that order gives."""
    def share(u, v):
        return g.ties(u).get(v, 0) / float(sum(g.ties(u).values()))

    alters = list(g.ties(ego))
    constraint = size = 0.0
    for j in alters:
        indirect = redundancy = 0.0
        for q in alters:
            if q != j:
                indirect += share(ego, q) * share(q, j)
                redundancy += share(ego, q) * (g.ties(j).get(q, 0) / max(g.ties(j).values()))
        constraint += (share(ego, j) + indirect) ** 2
        size += 1.0 - redundancy
    return constraint, size


def _cosine(a: dict[str, float], b: dict[str, float]) -> float:
    """Cosine of two term vectors, with the library's float operations in
    the library's order, so that equal inputs give equal floats."""
    if len(b) < len(a):
        a, b = b, a
    dot = sum(w * b[t] for t, w in a.items() if t in b)
    if dot == 0.0:
        return 0.0
    return dot / (math.sqrt(sum(w * w for w in a.values()))
                  * math.sqrt(sum(w * w for w in b.values())))


def reference_skill_partition(profiles, n_groups: int) -> dict[str, str]:
    """Bucket students by dominant term, then merge the most similar pair of
    buckets, recomputing every pair's cosine each round, until ``n_groups``
    remain.  Ties go to the pair of smallest (key, key).  Only for n_groups
    up to the number of buckets, where no bucket is split."""
    partition, buckets = {}, {}
    for p in sorted(profiles, key=lambda p: p.student):
        if not p.terms:
            partition[p.student] = "unobserved"
            continue
        members, vector = buckets.setdefault(p.terms[0][0], ([], {}))
        members.append(p.student)
        for t, w in p.terms:
            vector[t] = vector.get(t, 0.0) + w
    clusters = [(key, *buckets[key]) for key in sorted(buckets)]
    assert n_groups <= len(clusters)
    while len(clusters) > n_groups:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                cand = (-_cosine(clusters[i][2], clusters[j][2]),
                        clusters[i][0], clusters[j][0], i, j)
                if best is None or cand < best:
                    best = cand
        _, members, vector = clusters[best[3]]
        _, more, other = clusters.pop(best[4])
        members.extend(more)
        for t, w in other.items():
            vector[t] = vector.get(t, 0.0) + w
    clusters.sort(key=lambda c: min(c[1]))
    for idx, (_, members, _) in enumerate(clusters):
        for s in members:
            partition[s] = f"g{idx:02d}"
    return partition


def reference_hill_climb(teams, table, weights, n, s_min, s_max, allow_oversize,
                         iterations, rng):
    """The team search's climb with each proposed team scored from scratch:
    its cost and hole terms summed over the members in order, and its role
    counts pooled over the members again.  Same signature, random draws,
    acceptance rule and result as ``moocteams.teams._hill_climb``: the teams,
    and each one's balance term, pooled from scratch too."""
    def balance(members):
        pooled = [sum(table[s][2][r] for s in members) for r in range(5)]
        total = sum(pooled)
        if not total:
            return 0.0
        entropy = 0.0
        for v in pooled:
            if v:
                p = v / total
                entropy -= p * math.log(p)
        return entropy / math.log(5.0)

    def score(members):
        cost = hole = 0.0
        for s in members:
            cost += table[s][0]
            hole += table[s][1]
        return (weights.w_hole * (hole / len(members)) + weights.w_balance * balance(members)
                - weights.w_cost * (cost / len(members)))

    def off(size):
        return not s_min <= size <= s_max

    k = len(teams)
    if k < 2:
        return teams, [balance(t) for t in teams]
    scores = [score(t) for t in teams]
    for _ in range(iterations):
        i = rng.randrange(k)
        j = rng.randrange(k - 1)
        if j >= i:
            j += 1
        if rng.random() < 0.5:
            a = rng.randrange(len(teams[i]))
            b = rng.randrange(len(teams[j]))
            ti, tj = teams[i][:], teams[j][:]
            ti[a], tj[b] = tj[b], ti[a]
        else:
            if len(teams[i]) <= 2:
                continue
            sizes = [len(t) for t in teams]
            sizes[i] -= 1
            sizes[j] += 1
            outside = [s for s in sizes if off(s)]
            if len(outside) > 1 or (outside and not (
                    outside[0] < s_min
                    or (allow_oversize and outside[0] <= s_max + n % s_max))):
                continue
            a = rng.randrange(len(teams[i]))
            ti = teams[i][:a] + teams[i][a + 1:]
            tj = teams[j] + [teams[i][a]]
        si, sj = score(ti), score(tj)
        if si + sj > scores[i] + scores[j]:
            teams[i], teams[j] = ti, tj
            scores[i], scores[j] = si, sj
    return teams, [balance(t) for t in teams]
