"""Independent reference implementations the tests compare against.

Everything here is written the dumb, direct way (dense matrices, literal
formulas, triple loops) precisely so it shares no code with the library.
"""

from __future__ import annotations

import random

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


def brute_clustering(g: SocialGraph, node: str) -> float:
    nbrs = set(g.out_neighbors(node)) | set(g.in_neighbors(node))
    k = len(nbrs)
    if k < 2:
        return 0.0
    realized = 0
    for a in nbrs:
        for b in nbrs:
            if a != b and g.weight(a, b) > 0:
                realized += 1
    return realized / (k * (k - 1))


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
