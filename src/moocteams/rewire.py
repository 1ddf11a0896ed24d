"""Degree-preserving rewiring toward small-world structure.

Anneals over double-edge swaps, which keep every student's in- and
out-degree fixed while reshaping who talks to whom.  The objective
rewards clustering and penalizes long finite geodesics; proposals are
applied to and undone from one mutable swap state over node positions,
and only the best state becomes a :class:`SocialGraph`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ParameterError
from .graph import SocialGraph, hop_sums
from .metrics import neighbourhood_clustering


@dataclass(frozen=True)
class RewireResult:
    """Outcome of an annealing run; ``graph`` is the best state visited."""

    graph: SocialGraph
    initial_score: float
    final_score: float
    iterations: int
    accepted: int

    @property
    def improvement(self) -> float:
        return self.final_score - self.initial_score


class _SwapState:
    """Out-neighbour position lists and tie-neighbour sets that swaps edit in
    place, and each node's clustering coefficient; scores equal those of the
    equivalent graph."""

    def __init__(self, g: SocialGraph, alpha: float, beta: float):
        if not (0.0 <= alpha < math.inf and 0.0 <= beta < math.inf):
            raise ParameterError("alpha and beta must be non-negative and finite")
        self.alpha, self.beta = alpha, beta
        self.out = [list(row) for row in g.index().out]
        self.ties = [set(row) for row in g.index().ties]
        self.coef = [self._clustering(v) for v in range(len(self.out))]

    def _clustering(self, v: int) -> float:
        return neighbourhood_clustering(self.ties[v], self.out)

    def swap(self, a: int, b: int, c: int, d: int,
             restore: dict[int, float] | None = None) -> dict[int, float]:
        """Replace edges (a,b),(c,d) with (a,d),(c,b); recompute the clustering
        entries this can change, or set them from ``restore`` to undo a swap,
        and return their old values.  Beyond a, b, c and d, those are the
        common neighbours of a removed or added edge's ends."""
        out, ties = self.out, self.ties
        ta, tb, tc, td = (ties[x] for x in (a, b, c, d))
        touched = {a, b, c, d} | (ta & tb) | (tc & td) | (ta & td) | (tc & tb)
        for x, old, new in ((a, b, d), (c, d, b)):
            out[x].remove(old)
            out[x].append(new)
            if x not in out[old]:
                ties[x].remove(old)
                ties[old].remove(x)
            ties[x].add(new)
            ties[new].add(x)
        saved = {v: self.coef[v] for v in touched}
        for v in touched:
            self.coef[v] = restore[v] if restore else self._clustering(v)
        return saved

    def score(self) -> float:
        # left to right on every Python: 3.12+ sum() compensates float sums
        clustering = 0.0
        for c in self.coef:
            clustering += c
        clustering /= len(self.coef)
        total, pairs = map(sum, zip(*hop_sums(self.out)))
        return self.alpha * clustering - self.beta * (total / pairs if pairs else 0.0)


def graph_objective(g: SocialGraph, alpha: float = 1.0, beta: float = 1.0) -> float:
    """Clustering-vs-distance objective used by :func:`rewire_optimize`."""
    if g.node_count == 0:
        raise ParameterError("objective undefined on an empty graph")
    return _SwapState(g, alpha, beta).score()


def rewire_optimize(g: SocialGraph, alpha: float = 1.0, beta: float = 1.0,
                    iterations: int = 2000, seed: int = 0,
                    initial_temperature: float = 1.0,
                    cooling: float = 0.995) -> RewireResult:
    """Anneal double-edge swaps, returning the best graph encountered.

    A swap replaces edges (a,b),(c,d) with (a,d),(c,b) when neither target
    edge exists and no self-loop would form; weights travel with their
    source endpoint, so weighted out-strength is preserved along with both
    degree sequences.  Worsening swaps are accepted with Boltzmann
    probability under a geometric cooling schedule.  Because the best
    state is tracked separately, the final score never falls below the
    initial one.
    """
    if iterations < 0:
        raise ParameterError("iterations must be non-negative")
    if not 0.0 < cooling <= 1.0:
        raise ParameterError("cooling must lie in (0, 1]")
    if not 0.0 <= initial_temperature < math.inf:
        raise ParameterError("initial_temperature must be non-negative and finite")
    if g.edge_count < 2:
        raise ParameterError("rewiring needs at least two edges")

    # one (src, dst) position slot per edge, in canonical edge order; a swap
    # rewrites two slots' targets, and each weight stays with its slot
    slots = [(u, v) for u, row in enumerate(g.index().out) for v in row]
    wts = [w for row in g.index().out_weights for w in row]
    rng = random.Random(seed)
    m = len(slots)

    state = _SwapState(g, alpha, beta)
    current = initial = best = state.score()
    best_slots = None
    accepted = 0
    temperature = initial_temperature

    for _ in range(iterations):
        e1 = rng.randrange(m)
        e2 = rng.randrange(m)
        temperature *= cooling
        if e1 == e2:
            continue
        (a, b), (c, d) = slots[e1], slots[e2]
        if a == d or c == b or d in state.out[a] or b in state.out[c]:
            continue
        saved = state.swap(a, b, c, d)
        candidate = state.score()
        delta = candidate - current
        if delta > 0 or (temperature > 0
                         and rng.random() < math.exp(delta / temperature)):
            accepted += 1
            slots[e1], slots[e2] = (a, d), (c, b)
            current = candidate
            if candidate > best:
                best = candidate
                best_slots = slots[:]
        else:
            state.swap(a, d, c, b, restore=saved)

    nodes = g.nodes
    return RewireResult(
        graph=g if best_slots is None else SocialGraph(
            {(nodes[u], nodes[v]): w for (u, v), w in zip(best_slots, wts)}, nodes=nodes),
        initial_score=initial,
        final_score=best,
        iterations=iterations,
        accepted=accepted,
    )
