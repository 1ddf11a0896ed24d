"""Team scoring and partition search.

Teams are scored on three per-team terms: collaboration cost (farness
and clustering based, lower is better), structural-hole richness
(inverse constraint), and brokerage-role balance (entropy of pooled
role counts).  A weighted mean over teams is maximized by seeded
multi-restart hill climbing; an exhaustive enumerator serves as the
small-instance oracle.

What a roster may be is stated once, here: :func:`check_size_bounds` and
:func:`check_roster`, which the search, the objective, the roster reader
and ``RunConfig.validate`` all call, and ``_sizes_feasible``, the size rule
the search keeps and the roster reader applies.  Whether any roster fits a
cohort is :func:`team_sizes`' answer alone: the search, the exhaustive
oracle and the pipeline's teams stage ask it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import asdict, dataclass
from functools import partial
from operator import add, sub
from typing import Iterable, Mapping, Sequence

from .errors import (DataFormatError, ParameterError, require_count, require_distinct,
                     require_known, require_real)
from .formats import json_field, read_json, refused_as, write_json
from .graph import SocialGraph, StudentId
from .metrics import ROLE_NAMES, BrokerageCounts, NodeMetrics, left_sum

_LOG5 = math.log(len(ROLE_NAMES))
_Terms = tuple[float, float, tuple[int, int, int, int, int]]

#: Search defaults: size bounds, climbs per team count, proposals per climb.
S_MIN = 3
S_MAX = 5
RESTARTS = 8
ITERATIONS = 300
ALLOW_OVERSIZE = False


@dataclass(frozen=True)
class ObjectiveWeights:
    """Convex weights for the cost, hole, and balance terms."""

    w_cost: float = 1.0 / 3.0
    w_hole: float = 1.0 / 3.0
    w_balance: float = 1.0 / 3.0

    def validate(self) -> ObjectiveWeights:
        """Store each weight back as a float; ParameterError unless all lie in [0, 1]
        and sum to 1.  Returns these weights."""
        for name in ("w_cost", "w_hole", "w_balance"):
            object.__setattr__(self, name, require_real(getattr(self, name), name, 0.0, 1.0))
        total = left_sum((self.w_cost, self.w_hole, self.w_balance))
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"objective weights must sum to 1, got {total}")
        return self


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Mean per-team term values behind an assignment's objective."""

    cost_term: float
    hole_term: float
    balance_term: float


@dataclass(frozen=True)
class TeamAssignment:
    """A scored partition of students into bounded-size teams."""

    teams: tuple[tuple[StudentId, ...], ...]
    objective: float
    breakdown: ObjectiveBreakdown
    weights: ObjectiveWeights
    s_min: int
    s_max: int
    allow_oversize: bool
    seed: int


# -- size feasibility --------------------------------------------------------

def check_size_bounds(s_min: int, s_max: int) -> tuple[int, int]:
    """``(s_min, s_max)`` as ints; ParameterError unless ``2 <= s_min <= s_max``."""
    s_min = require_count(s_min, "s_min", least=2)
    return s_min, require_count(s_max, "s_max", least=s_min)


def check_roster(teams: Sequence[Sequence[StudentId]]) -> None:
    """Raise ParameterError unless there is a team, each of 2 or more students, none twice."""
    if min(map(len, teams), default=0) < 2:
        raise ParameterError("a roster needs at least one team, each of at least 2 students")
    require_distinct(itertools.chain.from_iterable(teams), "the roster")


def _sizes_feasible(sizes: Sequence[int], n: int, s_min: int, s_max: int,
                    allow_oversize: bool) -> bool:
    # at most one team may fall outside [s_min, s_max]: either a small
    # remainder team (>= 2) or, behind the flag, one oversize team
    if sum(sizes) != n or any(s < 2 for s in sizes):
        return False
    outside = [s for s in sizes if not s_min <= s <= s_max]
    if not outside:
        return True
    if len(outside) > 1:
        return False
    return _lone_outsider_ok(outside[0], n, s_min, s_max, allow_oversize)


def _lone_outsider_ok(s: int, n: int, s_min: int, s_max: int,
                      allow_oversize: bool) -> bool:
    """Whether a team of s (>= 2) may be the one outside [s_min, s_max]."""
    return s < s_min or (allow_oversize and s <= s_max + n % s_max)


def team_sizes(n: int, s_min: int, s_max: int,
               allow_oversize: bool = ALLOW_OVERSIZE) -> list[int]:
    """Canonical team-size profile for n students.

    Fills teams of s_max; a residue becomes one smaller final team of at
    least 2 (borrowing a member when the residue is 1), or with
    ``allow_oversize`` is absorbed into one enlarged team.  ParameterError
    where no roster fits: the bounds are bad, or the cohort cannot fill one
    team or leaves a student over from every split.
    """
    s_min, s_max = check_size_bounds(s_min, s_max)
    if n < s_min:
        raise ParameterError(f"{n} students cannot fill a team of size {s_min}")
    q, r = divmod(n, s_max)
    if r == 0:
        return [s_max] * q
    if q == 0:
        return [n]
    if allow_oversize:
        return [s_max] * (q - 1) + [s_max + r]
    if r == 1:
        if s_max - 1 < s_min:
            raise ParameterError(
                f"no feasible team sizes for n={n} within [{s_min}, {s_max}]")
        return [s_max] * (q - 1) + [s_max - 1, 2]
    return [s_max] * q + [r]


def _initial_sizes(n: int, k: int, s_min: int, s_max: int,
                   allow_oversize: bool) -> list[int] | None:
    """A k-team split that ``_sizes_feasible`` accepts, or None if none exists."""
    q, r = divmod(n, k)
    balanced = [q + 1] * r + [q] * (k - r)
    if _sizes_feasible(balanced, n, s_min, s_max, allow_oversize):
        return balanced
    # balanced sizes fit whenever k * s_min <= n <= k * s_max; otherwise one
    # team must take the shortfall or the excess, every other at that bound
    if n < k * s_min:
        sizes = [s_min] * (k - 1) + [n - (k - 1) * s_min]
    else:
        sizes = [n - (k - 1) * s_max] + [s_max] * (k - 1)
    return sizes if _sizes_feasible(sizes, n, s_min, s_max, allow_oversize) else None


def _feasible_team_counts(n: int, s_min: int, s_max: int,
                          allow_oversize: bool) -> list[int]:
    return [k for k in range(1, n // 2 + 1)
            if _initial_sizes(n, k, s_min, s_max, allow_oversize) is not None]


def _candidate_team_counts(n: int, s_min: int, s_max: int,
                           allow_oversize: bool) -> list[int]:
    """The three feasible team counts nearest ``team_sizes``' count, the
    smaller first on a tie, scanned outward from it.  Where ``team_sizes``
    refuses the cohort its ParameterError propagates: no count is feasible
    there, and where it answers, its own count is."""
    anchor = len(team_sizes(n, s_min, s_max, allow_oversize))
    outward = sorted(range(1, n // 2 + 1), key=lambda k: (abs(k - anchor), k))
    return sorted(itertools.islice(
        (k for k in outward
         if _initial_sizes(n, k, s_min, s_max, allow_oversize) is not None), 3))


# -- per-team scoring --------------------------------------------------------

def _term_table(g: SocialGraph,
                metrics: Mapping[StudentId, NodeMetrics]) -> dict[StudentId, _Terms]:
    """Each student's cost term, hole term and brokerage role counts.

    Cost is (farness / graph-wide max farness + 1 - clustering) / 2; the
    hole term is 1 / (1 + constraint), or 1 where constraint is NaN.  The
    table must hold a row for each student of ``g`` and for no one else.
    """
    require_known(g.nodes, metrics, context="metrics table")
    require_known(metrics, g)
    max_far = max((m.farness for m in metrics.values()), default=0.0)
    table = {}
    for s, m in metrics.items():
        far_norm = m.farness / max_far if max_far > 0 else 0.0
        c = m.constraint
        table[s] = ((far_norm + (1.0 - m.clustering)) / 2.0,
                    1.0 if math.isnan(c) else 1.0 / (1.0 + c),
                    m.brokerage.as_tuple())
    return table


def _pool(role_rows: Iterable[Sequence[int]]) -> list[int]:
    """Role counts summed column by column: exact ints, so order-free."""
    return [sum(column) for column in zip(*role_rows)]


def _entropy(pooled: Sequence[int]) -> float:
    """Normalized entropy of pooled role counts; 0 when they are all 0."""
    total = sum(pooled)
    if total == 0:
        return 0.0
    entropy = 0.0
    for v in pooled:
        if v:
            p = v / total
            entropy -= p * math.log(p)
    return entropy / _LOG5


def _mean_terms(members: Sequence[StudentId],
                table: Mapping[StudentId, _Terms]) -> tuple[float, float]:
    """Mean cost and hole terms, each summed over the members in order by
    :func:`~moocteams.metrics.left_sum`'s rule.  The two sums share one loop,
    written inline: a pipeline run on the 1x synthetic corpus calls this
    about 15 000 times."""
    cost = hole = 0.0
    for s in members:
        c, h, _ = table[s]
        cost += c
        hole += h
    return cost / len(members), hole / len(members)


def _value(weights: ObjectiveWeights, cost: float, hole: float,
           balance: float) -> float:
    return weights.w_hole * hole + weights.w_balance * balance - weights.w_cost * cost


def collaboration_cost(g: SocialGraph, team: Iterable[StudentId],
                       metrics: Mapping[StudentId, NodeMetrics]) -> float:
    """Mean of (normalized farness + (1 - clustering)) / 2 over members.

    Farness is normalized by the graph-wide maximum; lower cost means
    the team sits closer to everyone and in denser neighborhoods.
    """
    members = list(team)
    if len(members) < 2:
        raise ParameterError("collaboration cost needs a team of at least 2")
    require_known(members, g)
    return _mean_terms(members, _term_table(g, metrics))[0]


def structural_hole_score(g: SocialGraph, team: Iterable[StudentId],
                          metrics: Mapping[StudentId, NodeMetrics]) -> float:
    """Mean of 1/(1 + constraint); isolated members count as 1."""
    members = list(team)
    if not members:
        raise ParameterError("structural hole score needs a non-empty team")
    require_known(members, g)
    return _mean_terms(members, _term_table(g, metrics))[1]


def brokerage_balance(team: Iterable[StudentId],
                      brokerage: Mapping[StudentId, BrokerageCounts]) -> float:
    """Normalized entropy of the team's pooled brokerage-role counts."""
    members = list(team)
    if not members:
        raise ParameterError("brokerage balance needs a non-empty team")
    require_known(members, brokerage, context="brokerage table")
    return _entropy(_pool(brokerage[s].as_tuple() for s in members))


def _balances(teams: Iterable[Iterable[StudentId]],
              table: Mapping[StudentId, _Terms]) -> list[float]:
    """Each team's balance term: the entropy of its pooled role counts."""
    return [_entropy(_pool(table[s][2] for s in team)) for team in teams]


def _evaluate(teams: Sequence[Sequence[StudentId]], balances: Iterable[float],
              table: Mapping[StudentId, _Terms],
              weights: ObjectiveWeights) -> tuple[float, ObjectiveBreakdown]:
    """The objective and its breakdown: each term's mean over ``teams``, a
    team's cost and hole means summed over its members in order, and its
    balance term ``balances[i]``; every sum by :func:`left_sum`."""
    costs, holes = zip(*[_mean_terms(team, table) for team in teams])
    terms = tuple(left_sum(column) / len(teams) for column in (costs, holes, balances))
    return _value(weights, *terms), ObjectiveBreakdown(*terms)


def objective(g: SocialGraph, teams: Iterable[Iterable[StudentId]],
              weights: ObjectiveWeights,
              metrics: Mapping[StudentId, NodeMetrics]) -> float:
    """Weighted hole/balance/cost objective, averaged over teams."""
    weights.validate()
    team_lists = [list(t) for t in teams]
    check_roster(team_lists)
    require_known(itertools.chain.from_iterable(team_lists), g)
    table = _term_table(g, metrics)
    value, _ = _evaluate(team_lists, _balances(team_lists, table), table, weights)
    return value


def _assignment(teams: Sequence[Sequence[StudentId]], balances: Sequence[float],
                table: Mapping[StudentId, _Terms],
                weights: ObjectiveWeights, s_min: int, s_max: int,
                allow_oversize: bool, seed: int) -> TeamAssignment:
    """The roster in canonical order, scored; ``balances[i]`` is the balance
    term of ``teams[i]``, which its member order cannot change: the entropy
    of exact int role counts."""
    # disjoint teams are distinct, so the sort never compares two balances
    canonical, balances = zip(*sorted(
        (tuple(sorted(t)), b) for t, b in zip(teams, balances)))
    value, breakdown = _evaluate(canonical, balances, table, weights)
    return TeamAssignment(canonical, value, breakdown, weights,
                          s_min, s_max, allow_oversize, seed)


def _rank(assignment: TeamAssignment) -> tuple:
    """Search order: higher objective (negated exactly) first, then the smaller roster."""
    return -assignment.objective, assignment.teams


# -- search ------------------------------------------------------------------

def form_teams(g: SocialGraph, metrics: Mapping[StudentId, NodeMetrics],
               s_min: int = S_MIN, s_max: int = S_MAX,
               weights: ObjectiveWeights = ObjectiveWeights(),
               restarts: int = RESTARTS, iterations: int = ITERATIONS, seed: int = 0,
               allow_oversize: bool = ALLOW_OVERSIZE) -> TeamAssignment:
    """Seeded multi-restart hill climbing over swaps and moves.

    Every feasible team count near the canonical profile is tried;
    ``restarts`` applies per candidate count.  Climb j takes the counts in
    turn (count j mod their number), shuffles with ``random.Random(seed + j)``
    and cuts the shuffle at that count's initial sizes, so it depends on j
    alone and climbs can be distributed without changing the result.  The
    best climb wins by objective, then by the lexicographically smaller roster.
    """
    weights.validate()
    restarts = require_count(restarts, "restarts")
    iterations = require_count(iterations, "iterations", least=0)
    seed = require_count(seed, "seed", least=0)
    nodes = list(g.nodes)
    n = len(nodes)
    s_min, s_max = check_size_bounds(s_min, s_max)
    counts = _candidate_team_counts(n, s_min, s_max, allow_oversize)
    table = _term_table(g, metrics)
    cuts = [list(itertools.accumulate(
        _initial_sizes(n, k, s_min, s_max, allow_oversize), initial=0)) for k in counts]

    def climb(j: int) -> TeamAssignment:
        rng = random.Random(seed + j)
        shuffled = nodes[:]
        rng.shuffle(shuffled)
        teams = [shuffled[a:b] for a, b in itertools.pairwise(cuts[j % len(cuts)])]
        teams, balances = _hill_climb(teams, table, weights, n, s_min, s_max,
                                      allow_oversize, iterations, rng)
        return _assignment(teams, balances, table, weights, s_min, s_max,
                           allow_oversize, seed)

    return min(map(climb, range(restarts * len(counts))), key=_rank)


def _hill_climb(teams: list[list[StudentId]],
                table: Mapping[StudentId, _Terms],
                weights: ObjectiveWeights, n: int,
                s_min: int, s_max: int, allow_oversize: bool,
                iterations: int, rng: random.Random,
                ) -> tuple[list[list[StudentId]], list[float]]:
    """The climbed teams and each one's balance term."""
    k = len(teams)
    if k < 2:
        return teams, _balances(teams, table)

    def score(members: Sequence[StudentId], balance: float) -> float:
        return _value(weights, *_mean_terms(members, table), balance)

    def off(size: int) -> bool:
        return not s_min <= size <= s_max

    # each team's pooled role counts, adjusted by the rows a proposal moves,
    # and their entropy, its balance term
    pools = [_pool(table[s][2] for s in t) for t in teams]
    balances = list(map(_entropy, pools))
    scores = list(map(score, teams, balances))
    # sizes always pass _sizes_feasible, so a move is decided by the two it changes
    sizes = [len(t) for t in teams]
    outside = sum(map(off, sizes))
    for _ in range(iterations):
        i = rng.randrange(k)
        j = rng.randrange(k - 1)
        if j >= i:
            j += 1
        if rng.random() < 0.5:
            a = rng.randrange(len(teams[i]))
            b = rng.randrange(len(teams[j]))
            ti = teams[i][:]
            tj = teams[j][:]
            ti[a], tj[b] = tj[b], ti[a]
            leaves_i, leaves_j = table[tj[b]][2], table[ti[a]][2]
            pi = [p - x + y for p, x, y in zip(pools[i], leaves_i, leaves_j)]
            pj = [p + x - y for p, x, y in zip(pools[j], leaves_i, leaves_j)]
            count = outside
        else:
            if sizes[i] <= 2:
                continue
            moved = [s for s in (sizes[i] - 1, sizes[j] + 1) if off(s)]
            count = outside - off(sizes[i]) - off(sizes[j]) + len(moved)
            if count > 1 or (moved and not _lone_outsider_ok(
                    moved[0], n, s_min, s_max, allow_oversize)):
                continue
            a = rng.randrange(len(teams[i]))
            ti = teams[i][:a] + teams[i][a + 1:]
            tj = teams[j] + [teams[i][a]]
            row = table[teams[i][a]][2]
            pi = list(map(sub, pools[i], row))
            pj = list(map(add, pools[j], row))
        bi, bj = _entropy(pi), _entropy(pj)
        si, sj = score(ti, bi), score(tj, bj)
        if si + sj > scores[i] + scores[j]:
            teams[i], teams[j] = ti, tj
            pools[i], pools[j] = pi, pj
            balances[i], balances[j] = bi, bj
            scores[i], scores[j] = si, sj
            sizes[i], sizes[j] = len(ti), len(tj)
            outside = count
    return teams, balances


# -- exhaustive oracle -------------------------------------------------------

def enumerate_partitions(nodes: Sequence[StudentId],
                         sizes: Sequence[int]):
    """Yield each set partition of ``nodes`` with the given size multiset once.

    The smallest remaining node anchors the next team, which makes the
    enumeration duplicate-free even with repeated sizes.
    """
    if sum(sizes) != len(nodes):
        raise ParameterError("sizes must sum to the number of nodes")

    pool = sorted(nodes)

    def gen(pool: list[StudentId], sizes: tuple[int, ...]):
        if not sizes:
            yield []
            return
        anchor = pool[0]
        rest = pool[1:]
        seen: set[int] = set()
        for idx, size in enumerate(sizes):
            if size in seen:
                continue
            seen.add(size)
            remaining_sizes = sizes[:idx] + sizes[idx + 1:]
            for combo in itertools.combinations(rest, size - 1):
                team = (anchor, *combo)
                taken = set(combo)
                leftover = [x for x in rest if x not in taken]
                for tail in gen(leftover, remaining_sizes):
                    yield [team, *tail]

    yield from gen(pool, tuple(sizes))


def _feasible_size_vectors(n: int, k: int, s_min: int, s_max: int,
                           allow_oversize: bool):
    def gen(remaining: int, slots: int, limit: int):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for size in range(min(limit, remaining), 1, -1):
            if remaining - size < 2 * (slots - 1):
                continue
            for tail in gen(remaining - size, slots - 1, size):
                yield (size, *tail)

    for vec in gen(n, k, n):
        if _sizes_feasible(vec, n, s_min, s_max, allow_oversize):
            yield vec


def brute_force_teams(g: SocialGraph, metrics: Mapping[StudentId, NodeMetrics],
                      s_min: int, s_max: int,
                      weights: ObjectiveWeights = ObjectiveWeights(),
                      allow_oversize: bool = ALLOW_OVERSIZE) -> TeamAssignment:
    """Exhaustive optimum over every size-feasible partition.

    Guarded to 10 nodes; ties break by lexicographically smallest
    canonical roster.
    """
    weights.validate()
    nodes = list(g.nodes)
    n = len(nodes)
    if n > 10:
        raise ParameterError(f"brute force is limited to 10 nodes, got {n}")
    s_min, s_max = check_size_bounds(s_min, s_max)
    team_sizes(n, s_min, s_max, allow_oversize)  # refuses a cohort no roster fits
    table = _term_table(g, metrics)
    return min((_assignment(partition, _balances(partition, table), table, weights,
                            s_min, s_max, allow_oversize, 0)
                for k in _feasible_team_counts(n, s_min, s_max, allow_oversize)
                for sizes in _feasible_size_vectors(n, k, s_min, s_max, allow_oversize)
                for partition in enumerate_partitions(nodes, sizes)),
               key=_rank)


# -- serialization -----------------------------------------------------------

def write_roster_json(assignment: TeamAssignment, stream) -> None:
    write_json({
        "seed": assignment.seed,
        "objective": assignment.objective,
        "breakdown": asdict(assignment.breakdown),
        "params": {
            "s_min": assignment.s_min,
            "s_max": assignment.s_max,
            "allow_oversize": assignment.allow_oversize,
            "weights": asdict(assignment.weights),
        },
        "teams": [list(team) for team in assignment.teams],
    }, stream)


def read_roster_json(stream) -> TeamAssignment:
    """Inverse of :func:`write_roster_json`; a field not of the JSON type
    written there, a roster :func:`check_roster` or form_teams refuses, or team
    sizes that break the roster's own bounds, is an error."""
    payload = read_json(stream, "roster")
    with refused_as("bad roster JSON structure"):
        teams = payload["teams"]
        if not isinstance(teams, list) or not all(
                isinstance(team, list) and all(isinstance(s, str) for s in team)
                for team in teams):
            raise DataFormatError("roster teams must be lists of student ids")
        field = partial(json_field, payload)
        floats = {name: {key: field(f"{name}.{key}", float) for key in field(name, dict)}
                  for name in ("breakdown", "params.weights")}
        assignment = TeamAssignment(
            teams=tuple(map(tuple, teams)),
            objective=field("objective", float),
            breakdown=ObjectiveBreakdown(**floats["breakdown"]),
            weights=ObjectiveWeights(**floats["params.weights"]),
            s_min=field("params.s_min", int), s_max=field("params.s_max", int),
            allow_oversize=field("params.allow_oversize", bool), seed=field("seed", int))
        assignment.weights.validate()
        s_min, s_max = check_size_bounds(assignment.s_min, assignment.s_max)
        check_roster(assignment.teams)
        sizes = [len(team) for team in assignment.teams]
        if not _sizes_feasible(sizes, sum(sizes), s_min, s_max, assignment.allow_oversize):
            raise ParameterError(f"team sizes {sizes} break the roster's own params")
    return assignment
