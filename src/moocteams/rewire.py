"""Degree-preserving rewiring toward small-world structure.

Anneals over double-edge swaps, which keep every student's in- and
out-degree fixed while reshaping who talks to whom.  The objective
rewards clustering and penalizes long finite geodesics; proposals are
applied to and undone from one mutable swap state over node positions,
and only the best state becomes a :class:`SocialGraph`.  The state updates
each student's clustering link count from the four edges a swap changes,
and repairs the graph's reach levels (:func:`~moocteams.graph.reach_levels`)
at the entries the two rewritten out-rows can change, so no proposal
recounts a neighbourhood or reruns the all-pairs BFS.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ParameterError, require_count, require_real
from .graph import SocialGraph, reach_levels, reach_step
from .metrics import clustering_ratio, left_sum, tie_links

#: Objective weights on mean clustering (alpha) and mean hop distance (beta).
ALPHA = 1.0
BETA = 1.0


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
    """Out-neighbour position lists and in- and tie-neighbour sets that swaps
    edit in place; each node's link count (ordered pairs of its tie
    neighbours joined by an out-edge) and the clustering coefficient read
    from it; and the reach levels with each level's total bit count.  Scores
    equal those of the equivalent graph."""

    def __init__(self, g: SocialGraph, alpha: float, beta: float):
        self.alpha, self.beta = require_real(alpha, "alpha", 0.0), require_real(beta, "beta", 0.0)
        index = g.index()
        self.out = [list(row) for row in index.out]
        self.into = [set(row) for row in index.into]
        self.ties = [set(row) for row in index.ties]
        self.links = [tie_links(nbrs, self.out) for nbrs in self.ties]
        self.coef = [clustering_ratio(n, len(nbrs))
                     for n, nbrs in zip(self.links, self.ties)]
        self.levels = list(reach_levels(self.out))
        self.sizes = [sum(bits.bit_count() for bits in level) for level in self.levels]

    def _rewrite(self, a: int, b: int, c: int, d: int) -> None:
        """Replace edges (a,b),(c,d) with (a,d),(c,b), one edge at a time,
        and recompute the clustering of every position whose link count or
        tie set this changed."""
        touched = {a, b, c, d}
        for x, y, sign in ((a, b, -1), (a, d, 1), (c, d, -1), (c, b, 1)):
            touched |= self._edge(x, y, sign)
        for v in touched:
            self.coef[v] = clustering_ratio(self.links[v], len(self.ties[v]))

    def _edge(self, x: int, y: int, sign: int) -> set[int]:
        """Remove (sign -1) or add (+1) the edge x->y and update the link
        counts; return the common tie neighbours of x and y, whose counts
        the edge itself changes.  Without y->x, the tie {x, y} goes or comes
        with the edge, and x's count changes by the edges between y and x's
        other tie neighbours, y's likewise."""
        out, into, ties, links = self.out, self.into, self.ties, self.links
        common = ties[x] & ties[y]
        for w in common:
            links[w] += sign
        if x not in out[y]:
            links[x] += sign * (len(ties[x].intersection(out[y])) + len(ties[x] & into[y]))
            links[y] += sign * (len(ties[y].intersection(out[x])) + len(ties[y] & into[x]))
            if sign > 0:
                ties[x].add(y)
                ties[y].add(x)
            else:
                ties[x].remove(y)
                ties[y].remove(x)
        if sign > 0:
            out[x].append(y)
            into[y].add(x)
        else:
            out[x].remove(y)
            into[y].remove(x)
        return common

    def swap(self, a: int, b: int, c: int, d: int) -> tuple:
        """Swap as :meth:`_rewrite` does, bring the reach levels up to date,
        and return what :meth:`undo` needs."""
        self._rewrite(a, b, c, d)
        levels, sizes = self.levels[:], self.sizes[:]
        return levels, sizes, self._repair(a, c)

    def undo(self, a: int, b: int, c: int, d: int, saved: tuple) -> None:
        """Take back ``swap(a, b, c, d)``, which returned ``saved``; the
        inverse rewrite restores every link count exactly."""
        self._rewrite(a, d, c, b)
        self.levels, self.sizes, log = saved
        for level, x, bits in log:
            level[x] = bits

    def _repair(self, a: int, c: int) -> list[tuple[list[int], int, int]]:
        """Bring the reach levels and their bit counts up to date after a swap
        rewrote the out-rows of a and c; return each overwritten entry as
        (level, position, old bits).  Level k can change only at a, c and
        the in-neighbours of positions whose level k-1 entry changed.  Past
        the closed level, a position can grow only if it is one of those or
        its own entry changed; a closure that came sooner leaves equal levels
        at the end, which are dropped."""
        levels, sizes, into = self.levels, self.sizes, self.into
        log = []
        changed = []
        for k in range(1, len(levels)):
            dirty = {a, c}.union(*(into[x] for x, _ in changed))
            changed, delta = self._recompute(levels[k - 1], levels[k], dirty)
            log += ((levels[k], x, old) for x, old in changed)
            sizes[k] += delta
        dirty = {a, c}.union(*(into[x] for x, _ in changed), (x for x, _ in changed))
        while True:
            level = levels[-1][:]
            grown, delta = self._recompute(levels[-1], level, dirty)
            if not grown:
                break
            levels.append(level)
            sizes.append(sizes[-1] + delta)
            dirty = set().union(*(into[x] for x, _ in grown))
        # each level holds the one before, so equal bit counts mean equal levels
        while len(sizes) > 1 and sizes[-1] == sizes[-2]:
            sizes.pop()
            levels.pop()
        return log

    def _recompute(self, prev: list[int], level: list[int],
                   dirty: set[int]) -> tuple[list[tuple[int, int]], int]:
        """Set ``level``'s entries at ``dirty`` to :func:`reach_step` of
        ``prev``; return (position, old bits) for each that changed, and the
        change in the level's bit count."""
        changed, delta = [], 0
        for x in dirty:
            bits = reach_step(prev, x, self.out[x])
            old = level[x]
            if bits != old:
                changed.append((x, old))
                level[x] = bits
                delta += bits.bit_count() - old.bit_count()
        return changed, delta

    def distances(self) -> tuple[int, int]:
        """Sum of hop counts over ordered pairs joined by a directed path, and
        the number of such pairs: :func:`~moocteams.graph.hop_sums`'
        reduction summed over all sources, read from the levels' bit counts
        (level 0 counts each source once)."""
        sizes = self.sizes
        return (len(sizes) - 1) * sizes[-1] - sum(sizes[:-1]), sizes[-1] - sizes[0]

    def score(self) -> float:
        clustering = left_sum(self.coef) / len(self.coef)
        total, pairs = self.distances()
        return self.alpha * clustering - self.beta * (total / pairs if pairs else 0.0)


def graph_objective(g: SocialGraph, alpha: float = ALPHA, beta: float = BETA) -> float:
    """Clustering-vs-distance objective used by :func:`rewire_optimize`."""
    if g.node_count == 0:
        raise ParameterError("objective undefined on an empty graph")
    return _SwapState(g, alpha, beta).score()


def rewire_optimize(g: SocialGraph, alpha: float = ALPHA, beta: float = BETA,
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
    iterations = require_count(iterations, "iterations", least=0)
    seed = require_count(seed, "seed", least=0)
    cooling = require_real(cooling, "cooling", 0.0, 1.0, low_open=True)
    initial_temperature = require_real(initial_temperature, "initial_temperature", 0.0)
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
            state.undo(a, b, c, d, saved)

    nodes = g.nodes
    return RewireResult(
        graph=g if best_slots is None else SocialGraph(
            {(nodes[u], nodes[v]): w for (u, v), w in zip(best_slots, wts)}, nodes=nodes),
        initial_score=initial,
        final_score=best,
        iterations=iterations,
        accepted=accepted,
    )
