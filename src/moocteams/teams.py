"""Team scoring and partition search.

Teams are scored on three per-team terms: collaboration cost (farness
and clustering based, lower is better), structural-hole richness
(inverse constraint), and brokerage-role balance (entropy of pooled
role counts).  A weighted mean over teams is maximized by seeded
multi-restart hill climbing; an exhaustive enumerator serves as the
small-instance oracle.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DataFormatError, MissingNodeError, ParameterError
from .graph import SocialGraph, StudentId
from .metrics import BrokerageCounts, NodeMetrics

_LOG5 = math.log(5.0)


@dataclass(frozen=True)
class ObjectiveWeights:
    """Convex weights for the cost, hole, and balance terms."""

    w_cost: float = 1.0 / 3.0
    w_hole: float = 1.0 / 3.0
    w_balance: float = 1.0 / 3.0

    def validate(self) -> None:
        for name, value in (("w_cost", self.w_cost), ("w_hole", self.w_hole),
                            ("w_balance", self.w_balance)):
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {value}")
        total = self.w_cost + self.w_hole + self.w_balance
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"objective weights must sum to 1, got {total}")


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

    def team_of(self, student: StudentId) -> tuple[StudentId, ...]:
        for team in self.teams:
            if student in team:
                return team
        raise MissingNodeError(student, context="assignment")


# -- size feasibility --------------------------------------------------------

def _validate_bounds(n: int, s_min: int, s_max: int) -> None:
    if s_min < 2:
        raise ParameterError(f"s_min must be at least 2, got {s_min}")
    if s_max < s_min:
        raise ParameterError(f"s_max ({s_max}) must be >= s_min ({s_min})")
    if n < s_min:
        raise ParameterError(f"{n} students cannot fill a team of size {s_min}")


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
    s = outside[0]
    if s < s_min:
        return True
    return allow_oversize and s <= s_max + n % s_max


def team_sizes(n: int, s_min: int, s_max: int,
               allow_oversize: bool = False) -> list[int]:
    """Canonical team-size profile for n students.

    Fills teams of s_max; a residue becomes one smaller final team of at
    least 2 (borrowing a member when the residue is 1), or with
    ``allow_oversize`` is absorbed into one enlarged team.
    """
    _validate_bounds(n, s_min, s_max)
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


def _feasible_team_counts(n: int, s_min: int, s_max: int,
                          allow_oversize: bool) -> list[int]:
    counts = []
    for k in range(1, n // 2 + 1):
        if k * s_min <= n <= k * s_max:
            counts.append(k)
            continue
        if s_min > 2 and k >= 2:
            lo = max(2, n - (k - 1) * s_max)
            hi = min(s_min - 1, n - (k - 1) * s_min)
            if lo <= hi:
                counts.append(k)
                continue
        if allow_oversize and n % s_max:
            lo = max(s_max + 1, n - (k - 1) * s_max)
            hi = min(s_max + n % s_max, n - (k - 1) * s_min)
            if lo <= hi:
                counts.append(k)
    return counts


def _candidate_team_counts(n: int, s_min: int, s_max: int,
                           allow_oversize: bool) -> list[int]:
    feasible = _feasible_team_counts(n, s_min, s_max, allow_oversize)
    if not feasible:
        raise ParameterError(
            f"no feasible team sizes for n={n} within [{s_min}, {s_max}]")
    if len(feasible) <= 3:
        return feasible
    try:
        anchor = len(team_sizes(n, s_min, s_max, allow_oversize))
    except ParameterError:
        anchor = feasible[len(feasible) // 2]
    return sorted(sorted(feasible, key=lambda k: (abs(k - anchor), k))[:3])


def _initial_sizes(n: int, k: int, s_min: int, s_max: int,
                   allow_oversize: bool) -> list[int]:
    q, r = divmod(n, k)
    balanced = [q + 1] * r + [q] * (k - r)
    if _sizes_feasible(balanced, n, s_min, s_max, allow_oversize):
        return balanced
    if n < k * s_min:
        sizes = [s_min] * (k - 1) + [n - (k - 1) * s_min]
    else:
        sizes = [s_min] * k
        extra = n - k * s_min
        for i in range(k):
            add = min(extra, s_max - s_min)
            sizes[i] += add
            extra -= add
        sizes[0] += extra
    if not _sizes_feasible(sizes, n, s_min, s_max, allow_oversize):
        raise ParameterError(
            f"no feasible split of {n} students into {k} teams "
            f"within [{s_min}, {s_max}]")
    return sizes


# -- per-team scoring --------------------------------------------------------

def _require_members(team: Iterable[StudentId],
                     metrics: Mapping[StudentId, NodeMetrics]) -> list[StudentId]:
    members = list(team)
    for m in members:
        if m not in metrics:
            raise MissingNodeError(m, context="metrics table")
    return members


def _max_farness(metrics: Mapping[StudentId, NodeMetrics]) -> float:
    return max((m.farness for m in metrics.values()), default=0.0)


def _cost_of(members: Sequence[StudentId],
             metrics: Mapping[StudentId, NodeMetrics], max_far: float) -> float:
    total = 0.0
    for s in members:
        m = metrics[s]
        far_norm = m.farness / max_far if max_far > 0 else 0.0
        total += (far_norm + (1.0 - m.clustering)) / 2.0
    return total / len(members)


def _hole_of(members: Sequence[StudentId],
             metrics: Mapping[StudentId, NodeMetrics]) -> float:
    total = 0.0
    for s in members:
        c = metrics[s].constraint
        total += 1.0 if math.isnan(c) else 1.0 / (1.0 + c)
    return total / len(members)


def _balance_of(members: Sequence[StudentId],
                brokerage: Mapping[StudentId, BrokerageCounts]) -> float:
    pooled = [0, 0, 0, 0, 0]
    for s in members:
        for i, v in enumerate(brokerage[s].as_tuple()):
            pooled[i] += v
    total = sum(pooled)
    if total == 0:
        return 0.0
    entropy = 0.0
    for v in pooled:
        if v:
            p = v / total
            entropy -= p * math.log(p)
    return entropy / _LOG5


def collaboration_cost(g: SocialGraph, team: Iterable[StudentId],
                       metrics: Mapping[StudentId, NodeMetrics]) -> float:
    """Mean of (normalized farness + (1 - clustering)) / 2 over members.

    Farness is normalized by the graph-wide maximum; lower cost means
    the team sits closer to everyone and in denser neighborhoods.
    """
    members = _require_members(team, metrics)
    if len(members) < 2:
        raise ParameterError("collaboration cost needs a team of at least 2")
    for s in members:
        if s not in g:
            raise MissingNodeError(s)
    return _cost_of(members, metrics, _max_farness(metrics))


def structural_hole_score(g: SocialGraph, team: Iterable[StudentId],
                          metrics: Mapping[StudentId, NodeMetrics]) -> float:
    """Mean of 1/(1 + constraint); isolated members count as 1."""
    members = _require_members(team, metrics)
    if not members:
        raise ParameterError("structural hole score needs a non-empty team")
    return _hole_of(members, metrics)


def brokerage_balance(team: Iterable[StudentId],
                      brokerage: Mapping[StudentId, BrokerageCounts]) -> float:
    """Normalized entropy of the team's pooled brokerage-role counts."""
    members = list(team)
    if not members:
        raise ParameterError("brokerage balance needs a non-empty team")
    for s in members:
        if s not in brokerage:
            raise MissingNodeError(s, context="brokerage table")
    return _balance_of(members, brokerage)


def _team_terms(members: Sequence[StudentId],
                metrics: Mapping[StudentId, NodeMetrics],
                max_far: float) -> tuple[float, float, float]:
    brokerage = {s: metrics[s].brokerage for s in members}
    return (_cost_of(members, metrics, max_far),
            _hole_of(members, metrics),
            _balance_of(members, brokerage))


def _evaluate(teams: Sequence[Sequence[StudentId]],
              metrics: Mapping[StudentId, NodeMetrics],
              weights: ObjectiveWeights,
              max_far: float) -> tuple[float, ObjectiveBreakdown]:
    cost = hole = balance = 0.0
    for team in teams:
        c, h, b = _team_terms(team, metrics, max_far)
        cost += c
        hole += h
        balance += b
    k = len(teams)
    breakdown = ObjectiveBreakdown(cost / k, hole / k, balance / k)
    value = (weights.w_hole * breakdown.hole_term
             + weights.w_balance * breakdown.balance_term
             - weights.w_cost * breakdown.cost_term)
    return value, breakdown


def objective(g: SocialGraph, teams: Iterable[Iterable[StudentId]],
              weights: ObjectiveWeights,
              metrics: Mapping[StudentId, NodeMetrics]) -> float:
    """Weighted hole/balance/cost objective, averaged over teams."""
    weights.validate()
    team_lists = [list(t) for t in teams]
    if not team_lists:
        raise ParameterError("objective needs at least one team")
    seen: set[StudentId] = set()
    for team in team_lists:
        if len(team) < 2:
            raise ParameterError("every team must have at least 2 members")
        for s in team:
            if s in seen:
                raise ParameterError(f"student {s!r} appears in two teams")
            seen.add(s)
        _require_members(team, metrics)
    value, _ = _evaluate(team_lists, metrics, weights, _max_farness(metrics))
    return value


def _canonical(teams: Iterable[Iterable[StudentId]]) -> tuple[tuple[StudentId, ...], ...]:
    return tuple(sorted(tuple(sorted(t)) for t in teams))


def _assignment(teams: Sequence[Sequence[StudentId]],
                metrics: Mapping[StudentId, NodeMetrics],
                weights: ObjectiveWeights, s_min: int, s_max: int,
                allow_oversize: bool, seed: int, max_far: float) -> TeamAssignment:
    canonical = _canonical(teams)
    value, breakdown = _evaluate(canonical, metrics, weights, max_far)
    return TeamAssignment(canonical, value, breakdown, weights,
                          s_min, s_max, allow_oversize, seed)


# -- search ------------------------------------------------------------------

def form_teams(g: SocialGraph, metrics: Mapping[StudentId, NodeMetrics],
               s_min: int = 3, s_max: int = 5,
               weights: ObjectiveWeights | None = None,
               restarts: int = 8, iterations: int = 300, seed: int = 0,
               allow_oversize: bool = False) -> TeamAssignment:
    """Seeded multi-restart hill climbing over swaps and moves.

    Every feasible team count near the canonical profile is tried;
    ``restarts`` applies per candidate count, and run j draws from
    ``random.Random(seed + j)``, so restarts can be distributed without
    changing the result.  Ties between runs break toward the
    lexicographically smallest roster.
    """
    if weights is None:
        weights = ObjectiveWeights()
    weights.validate()
    if restarts < 1 or iterations < 0:
        raise ParameterError("restarts must be >= 1 and iterations >= 0")
    nodes = list(g.nodes)
    n = len(nodes)
    _validate_bounds(n, s_min, s_max)
    for u in nodes:
        if u not in metrics:
            raise MissingNodeError(u, context="metrics table")
    counts = _candidate_team_counts(n, s_min, s_max, allow_oversize)
    max_far = _max_farness(metrics)

    best: TeamAssignment | None = None
    run_index = 0
    for _ in range(restarts):
        for k in counts:
            rng = random.Random(seed + run_index)
            run_index += 1
            sizes = _initial_sizes(n, k, s_min, s_max, allow_oversize)
            shuffled = nodes[:]
            rng.shuffle(shuffled)
            teams: list[list[StudentId]] = []
            start = 0
            for size in sizes:
                teams.append(shuffled[start:start + size])
                start += size
            teams = _hill_climb(teams, metrics, weights, max_far, n,
                                s_min, s_max, allow_oversize, iterations, rng)
            cand = _assignment(teams, metrics, weights, s_min, s_max,
                               allow_oversize, seed, max_far)
            if (best is None or cand.objective > best.objective
                    or (cand.objective == best.objective
                        and cand.teams < best.teams)):
                best = cand
    return best


def _hill_climb(teams: list[list[StudentId]],
                metrics: Mapping[StudentId, NodeMetrics],
                weights: ObjectiveWeights, max_far: float, n: int,
                s_min: int, s_max: int, allow_oversize: bool,
                iterations: int, rng: random.Random) -> list[list[StudentId]]:
    k = len(teams)
    if k < 2:
        return teams

    def score(members: Sequence[StudentId]) -> float:
        c, h, b = _team_terms(members, metrics, max_far)
        return weights.w_hole * h + weights.w_balance * b - weights.w_cost * c

    scores = [score(t) for t in teams]
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
        else:
            if len(teams[i]) <= 2:
                continue
            sizes = [len(t) for t in teams]
            sizes[i] -= 1
            sizes[j] += 1
            if not _sizes_feasible(sizes, n, s_min, s_max, allow_oversize):
                continue
            a = rng.randrange(len(teams[i]))
            ti = teams[i][:a] + teams[i][a + 1:]
            tj = teams[j] + [teams[i][a]]
        si, sj = score(ti), score(tj)
        if si + sj > scores[i] + scores[j]:
            teams[i], teams[j] = ti, tj
            scores[i], scores[j] = si, sj
    return teams


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
    cap = s_max + (n % s_max if allow_oversize and n % s_max else 0)

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

    for vec in gen(n, k, cap):
        if _sizes_feasible(vec, n, s_min, s_max, allow_oversize):
            yield vec


def brute_force_teams(g: SocialGraph, metrics: Mapping[StudentId, NodeMetrics],
                      s_min: int, s_max: int,
                      weights: ObjectiveWeights | None = None,
                      allow_oversize: bool = False) -> TeamAssignment:
    """Exhaustive optimum over every size-feasible partition.

    Guarded to 10 nodes; ties break by lexicographically smallest
    canonical roster.
    """
    if weights is None:
        weights = ObjectiveWeights()
    weights.validate()
    nodes = list(g.nodes)
    n = len(nodes)
    if n > 10:
        raise ParameterError(f"brute force is limited to 10 nodes, got {n}")
    _validate_bounds(n, s_min, s_max)
    max_far = _max_farness(metrics)
    best: TeamAssignment | None = None
    for k in _feasible_team_counts(n, s_min, s_max, allow_oversize):
        for sizes in _feasible_size_vectors(n, k, s_min, s_max, allow_oversize):
            for partition in enumerate_partitions(nodes, sizes):
                cand = _assignment(partition, metrics, weights, s_min, s_max,
                                   allow_oversize, 0, max_far)
                if (best is None or cand.objective > best.objective
                        or (cand.objective == best.objective
                            and cand.teams < best.teams)):
                    best = cand
    if best is None:
        raise ParameterError(
            f"no feasible team sizes for n={n} within [{s_min}, {s_max}]")
    return best


# -- serialization -----------------------------------------------------------

def write_roster_json(assignment: TeamAssignment, stream) -> None:
    payload = {
        "seed": assignment.seed,
        "objective": assignment.objective,
        "breakdown": {
            "cost_term": assignment.breakdown.cost_term,
            "hole_term": assignment.breakdown.hole_term,
            "balance_term": assignment.breakdown.balance_term,
        },
        "params": {
            "s_min": assignment.s_min,
            "s_max": assignment.s_max,
            "allow_oversize": assignment.allow_oversize,
            "weights": {
                "w_cost": assignment.weights.w_cost,
                "w_hole": assignment.weights.w_hole,
                "w_balance": assignment.weights.w_balance,
            },
        },
        "teams": [list(team) for team in assignment.teams],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def read_roster_json(stream) -> TeamAssignment:
    try:
        payload = json.load(stream)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid roster JSON: {exc}") from exc
    try:
        weights = ObjectiveWeights(**payload["params"]["weights"])
        breakdown = ObjectiveBreakdown(**payload["breakdown"])
        return TeamAssignment(
            teams=tuple(tuple(team) for team in payload["teams"]),
            objective=float(payload["objective"]),
            breakdown=breakdown,
            weights=weights,
            s_min=int(payload["params"]["s_min"]),
            s_max=int(payload["params"]["s_max"]),
            allow_oversize=bool(payload["params"]["allow_oversize"]),
            seed=int(payload["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad roster JSON structure: {exc}") from exc
