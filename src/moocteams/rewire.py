"""Degree-preserving rewiring toward small-world structure.

Anneals over double-edge swaps, which keep every student's in- and
out-degree fixed while reshaping who talks to whom.  The objective
rewards clustering and penalizes long finite geodesics; each proposal is
a :class:`SocialGraph`, scored by the metrics layer's
``clustering_coefficient`` and the graph's own hop distances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ParameterError
from .graph import SocialGraph, finite_distance_total
from .metrics import clustering_coefficient


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


def _score(g: SocialGraph, alpha: float, beta: float) -> float:
    clustering = sum(clustering_coefficient(g, v) for v in g.nodes) / g.node_count
    total, pairs = finite_distance_total(g)
    return alpha * clustering - beta * (total / pairs if pairs else 0.0)


def graph_objective(g: SocialGraph, alpha: float = 1.0, beta: float = 1.0) -> float:
    """Clustering-vs-distance objective used by :func:`rewire_optimize`."""
    if alpha < 0 or beta < 0:
        raise ParameterError("alpha and beta must be non-negative")
    if g.node_count == 0:
        raise ParameterError("objective undefined on an empty graph")
    return _score(g, alpha, beta)


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
    if alpha < 0 or beta < 0:
        raise ParameterError("alpha and beta must be non-negative")
    if iterations < 0:
        raise ParameterError("iterations must be non-negative")
    if not 0.0 < cooling <= 1.0:
        raise ParameterError("cooling must lie in (0, 1]")
    if initial_temperature < 0.0:
        raise ParameterError("initial_temperature must be non-negative")
    if g.edge_count < 2:
        raise ParameterError("rewiring needs at least two edges")

    # one (src, dst) slot per edge; a swap rewrites two slots' targets,
    # and each weight stays with its slot
    slots = [(u, v) for u, v, _ in g.edges()]
    wts = [w for _, _, w in g.edges()]
    rng = random.Random(seed)
    m = len(slots)

    graph = best_graph = g
    current = initial = best = _score(g, alpha, beta)
    accepted = 0
    temperature = initial_temperature

    for _ in range(iterations):
        e1 = rng.randrange(m)
        e2 = rng.randrange(m)
        temperature *= cooling
        if e1 == e2:
            continue
        (sa, sb), (sc, sd) = slots[e1], slots[e2]
        if sa == sd or sc == sb or graph.weight(sa, sd) or graph.weight(sc, sb):
            continue
        slots[e1], slots[e2] = (sa, sd), (sc, sb)
        proposal = SocialGraph(dict(zip(slots, wts)), nodes=g.nodes)
        candidate = _score(proposal, alpha, beta)
        delta = candidate - current
        if delta > 0 or (temperature > 0
                         and rng.random() < math.exp(delta / temperature)):
            accepted += 1
            graph = proposal
            current = candidate
            if candidate > best:
                best = candidate
                best_graph = proposal
        else:
            slots[e1], slots[e2] = (sa, sb), (sc, sd)

    return RewireResult(
        graph=best_graph,
        initial_score=initial,
        final_score=best,
        iterations=iterations,
        accepted=accepted,
    )
