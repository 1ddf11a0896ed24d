import dataclasses
import io
import itertools
import math
import random
import statistics

import pytest

from moocteams import teams as teams_module
from moocteams.errors import DataFormatError, MissingNodeError, ParameterError
from moocteams.graph import SocialGraph
from moocteams.metrics import ROLE_NAMES, compute_node_metrics
from moocteams.teams import (
    ObjectiveWeights,
    _candidate_team_counts,
    _feasible_size_vectors,
    _feasible_team_counts,
    _initial_sizes,
    brokerage_balance,
    brute_force_teams,
    collaboration_cost,
    enumerate_partitions,
    form_teams,
    objective,
    structural_hole_score,
    team_sizes,
    write_roster_json,
    read_roster_json,
)

from oracles import random_digraph, reference_hill_climb


def _prepared(n, p, seed, groups=3):
    g = random_digraph(n, p, seed=seed)
    partition = {v: f"g{i % groups}" for i, v in enumerate(g.nodes)}
    return g, compute_node_metrics(g, partition)


def test_team_sizes_profiles():
    assert team_sizes(10, 3, 5) == [5, 5]
    assert team_sizes(7, 3, 4) == [4, 3]
    assert team_sizes(9, 3, 5) == [5, 4]
    # remainder 1 borrows one seat rather than stranding a singleton
    assert team_sizes(11, 3, 5) == [5, 4, 2]
    assert team_sizes(11, 3, 5, allow_oversize=True) == [5, 6]
    assert team_sizes(4, 4, 4) == [4]
    with pytest.raises(ParameterError):
        team_sizes(3, 4, 5)
    with pytest.raises(ParameterError):
        team_sizes(10, 1, 5)
    with pytest.raises(ParameterError):
        team_sizes(10, 5, 3)


def test_team_sizes_sum_to_n():
    for n in range(4, 40):
        for s_min, s_max in ((3, 5), (3, 4), (4, 6), (2, 3)):
            if n < s_min:
                continue
            try:
                sizes = team_sizes(n, s_min, s_max)
            except ParameterError:
                continue
            assert sum(sizes) == n
            assert sum(1 for s in sizes if not s_min <= s <= s_max) <= 1


def test_enumerate_partition_counts():
    # 4 students into two pairs: 3 distinct pairings
    assert sum(1 for _ in enumerate_partitions(list("abcd"), [2, 2])) == 3
    # 6 students into two triples: 10 distinct splits
    assert sum(1 for _ in enumerate_partitions(list("abcdef"), [3, 3])) == 10
    assert sum(1 for _ in enumerate_partitions(list("abcde"), [3, 2])) == 10
    with pytest.raises(ParameterError, match="sum to the number of nodes"):
        next(enumerate_partitions(list("abcde"), [3, 3]))


def test_enumerate_partitions_are_exhaustive_and_distinct():
    seen = set()
    for part in enumerate_partitions(list("abcdef"), [2, 2, 2]):
        canon = tuple(sorted(tuple(sorted(t)) for t in part))
        assert canon not in seen
        seen.add(canon)
    assert len(seen) == 15


def test_collaboration_cost_dyad():
    g = SocialGraph({("a", "b"): 1, ("b", "a"): 1})
    metrics = compute_node_metrics(g)
    # both members: farness 1 (= max), clustering 0 -> (1 + 1) / 2 each
    assert collaboration_cost(g, ("a", "b"), metrics) == pytest.approx(1.0)


def test_collaboration_cost_prefers_tight_teams():
    edges = {(u, v): 1 for u in "abc" for v in "abc" if u != v}
    edges[("c", "d")] = 1
    edges[("d", "e")] = 1
    g = SocialGraph(edges)
    metrics = compute_node_metrics(g)
    assert collaboration_cost(g, ("a", "b", "c"), metrics) < \
        collaboration_cost(g, ("c", "d", "e"), metrics)


def test_structural_hole_score_uses_constraint():
    g = SocialGraph({("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1}, nodes=["a", "b", "c", "lone"])
    metrics = compute_node_metrics(g)
    # closed triad: constraint 1.125 each -> 1 / 2.125
    assert structural_hole_score(g, ("a", "b", "c"), metrics) == \
        pytest.approx(1 / 2.125)
    # members with undefined constraint count as unconstrained (score 1)
    assert structural_hole_score(g, ("a", "lone"), metrics) == \
        pytest.approx((1 / 2.125 + 1.0) / 2)


def test_team_terms_refuse_too_small_a_team():
    g = SocialGraph({("a", "b"): 1, ("b", "a"): 1})
    metrics = compute_node_metrics(g)
    for team in ((), ("a",)):
        with pytest.raises(ParameterError, match="at least 2"):
            collaboration_cost(g, team, metrics)
    with pytest.raises(ParameterError, match="non-empty team"):
        structural_hole_score(g, (), metrics)
    with pytest.raises(ParameterError, match="non-empty team"):
        brokerage_balance((), {v: metrics[v].brokerage for v in g.nodes})


def test_brokerage_balance_entropy():
    g = SocialGraph({("a", "b"): 2, ("b", "c"): 1, ("c", "d"): 1, ("d", "a"): 1})
    partition = {"a": "g0", "b": "g1", "c": "g0", "d": "g1"}
    metrics = compute_node_metrics(g, partition)
    pooled = [0, 0, 0, 0, 0]
    for v in g.nodes:
        for i, c in enumerate(metrics[v].brokerage.as_tuple()):
            pooled[i] += c
    total = sum(pooled)
    want = -sum((c / total) * math.log(c / total) for c in pooled if c) / math.log(5)
    assert brokerage_balance(g.nodes, {v: metrics[v].brokerage for v in g.nodes}) == \
        pytest.approx(want)


def test_brokerage_balance_two_equal_roles():
    from moocteams.metrics import BrokerageCounts
    brok = {"a": BrokerageCounts(2, 2, 0, 0, 0)}
    assert brokerage_balance(("a",), brok) == pytest.approx(
        math.log(2) / math.log(5), abs=1e-12)


def test_objective_is_mean_of_team_scores():
    g, metrics = _prepared(9, 0.3, seed=6)
    weights = ObjectiveWeights()
    nodes = list(g.nodes)
    teams = [tuple(nodes[:3]), tuple(nodes[3:6]), tuple(nodes[6:])]
    per_team = []
    for team in teams:
        per_team.append(
            weights.w_hole * structural_hole_score(g, team, metrics)
            + weights.w_balance * brokerage_balance(
                team, {v: metrics[v].brokerage for v in team})
            - weights.w_cost * collaboration_cost(g, team, metrics))
    assert objective(g, teams, weights, metrics) == pytest.approx(statistics.mean(per_team))


def _oracle_terms(team, metrics):
    """(cost, hole, balance) of one team, straight from the documented formulas."""
    max_far = max(m.farness for m in metrics.values())
    cost = statistics.fmean(
        ((metrics[s].farness / max_far if max_far > 0 else 0.0)
         + 1.0 - metrics[s].clustering) / 2.0 for s in team)
    hole = statistics.fmean(
        1.0 if math.isnan(metrics[s].constraint) else 1.0 / (1.0 + metrics[s].constraint)
        for s in team)
    pooled = [sum(getattr(metrics[s].brokerage, role) for s in team) for role in ROLE_NAMES]
    total = sum(pooled)
    balance = (-math.fsum(c / total * math.log(c / total) for c in pooled if c) / math.log(5)
               if total else 0.0)
    return cost, hole, balance


def _oracle_cases():
    for seed in range(9):
        g = random_digraph(6 + seed, 0.15 + 0.03 * seed, seed=400 + seed)
        if seed % 3 == 0:
            # two students who never post: constraint is NaN for both
            g = SocialGraph({(u, v): w for u, v, w in g.edges()},
                            nodes=[*g.nodes, "z_lone_a", "z_lone_b"])
        partition = {v: f"g{i % 3}" for i, v in enumerate(g.nodes)}
        yield g, compute_node_metrics(g, partition)
    # edgeless: with no penalty every farness, hence the maximum, is 0
    g = SocialGraph({}, nodes=[f"n{i:03d}" for i in range(7)])
    yield g, compute_node_metrics(g, farness_penalty=0.0)


@pytest.mark.parametrize("weights", [ObjectiveWeights(), ObjectiveWeights(0.5, 0.2, 0.3)])
def test_objective_and_terms_match_independent_oracle(weights):
    saw_nan = saw_zero_max = False
    for case, (g, metrics) in enumerate(_oracle_cases()):
        saw_nan |= any(math.isnan(m.constraint) for m in metrics.values())
        saw_zero_max |= max(m.farness for m in metrics.values()) == 0
        nodes = list(g.nodes)
        random.Random(case).shuffle(nodes)
        teams = [nodes[i:i + 3] for i in range(0, len(nodes) - len(nodes) % 3, 3)]
        teams[-1] += nodes[len(nodes) - len(nodes) % 3:]
        brokerage = {v: metrics[v].brokerage for v in g.nodes}
        per_team = []
        for team in teams:
            cost, hole, balance = _oracle_terms(team, metrics)
            assert collaboration_cost(g, team, metrics) == pytest.approx(cost, abs=1e-12)
            assert structural_hole_score(g, team, metrics) == pytest.approx(hole, abs=1e-12)
            assert brokerage_balance(team, brokerage) == pytest.approx(balance, abs=1e-12)
            per_team.append(weights.w_hole * hole + weights.w_balance * balance
                            - weights.w_cost * cost)
        assert objective(g, teams, weights, metrics) == pytest.approx(
            statistics.fmean(per_team), abs=1e-12)
    assert saw_nan and saw_zero_max


def test_searched_team_counts_match_the_size_enumerator():
    for n in range(2, 17):
        for s_min in range(2, min(n, 6) + 1):
            for s_max in range(s_min, 9):
                for oversize in (False, True):
                    vectors = {k: set(_feasible_size_vectors(n, k, s_min, s_max, oversize))
                               for k in range(1, n // 2 + 1)}
                    want = [k for k, vecs in vectors.items() if vecs]
                    assert _feasible_team_counts(n, s_min, s_max, oversize) == want
                    for k, vecs in vectors.items():
                        sizes = _initial_sizes(n, k, s_min, s_max, oversize)
                        assert (sizes is None) == (not vecs)
                        if sizes is not None:
                            assert tuple(sorted(sizes, reverse=True)) in vecs
                    if not want:
                        with pytest.raises(ParameterError):
                            _candidate_team_counts(n, s_min, s_max, oversize)
                    else:
                        searched = _candidate_team_counts(n, s_min, s_max, oversize)
                        assert set(searched) <= set(want)
                        assert len(searched) == min(3, len(want))


def _full_scan_team_counts(n, s_min, s_max, oversize):
    """The three feasible counts nearest team_sizes' count, from every k."""
    feasible = _feasible_team_counts(n, s_min, s_max, oversize)
    if not feasible:
        raise ParameterError("no feasible team count")
    try:
        anchor = len(team_sizes(n, s_min, s_max, oversize))
    except ParameterError:
        anchor = feasible[len(feasible) // 2]
    return sorted(sorted(feasible, key=lambda k: (abs(k - anchor), k))[:3])


def test_outward_team_count_search_matches_the_full_scan():
    def outcome(search, *args):
        try:
            return search(*args)
        except ParameterError:
            return "raises"

    for n in [*range(1, 41), 97, 131, 259, 260]:
        for s_min in range(1, 9):
            for s_max in range(1, 14):
                for oversize in (False, True):
                    args = (n, s_min, s_max, oversize)
                    if s_min < 2 or s_max < s_min or n < s_min:
                        # form_teams refuses these bounds before it asks for counts
                        with pytest.raises(ParameterError):
                            _candidate_team_counts(*args)
                    else:
                        assert outcome(_candidate_team_counts, *args) == \
                            outcome(_full_scan_team_counts, *args), args


def test_objective_validates():
    g, metrics = _prepared(6, 0.4, seed=2)
    weights = ObjectiveWeights()
    nodes = list(g.nodes)
    with pytest.raises(ParameterError):
        objective(g, [nodes[:1], nodes[1:]], weights, metrics)  # singleton team
    with pytest.raises(ParameterError):
        objective(g, [nodes[:3], nodes[2:]], weights, metrics)  # overlap
    with pytest.raises(ParameterError):
        objective(g, [nodes[:3], nodes[3:]], ObjectiveWeights(0.5, 0.5, 0.5), metrics)
    with pytest.raises(ParameterError):
        objective(g, [nodes[:3], nodes[3:]], ObjectiveWeights(-0.2, 0.6, 0.6), metrics)


def test_form_teams_matches_brute_force_on_small_instances():
    hits = 0
    for seed in range(8):
        g, metrics = _prepared(6, 0.35, seed=200 + seed)
        best = brute_force_teams(g, metrics, s_min=3, s_max=3)
        found = form_teams(g, metrics, s_min=3, s_max=3, restarts=12,
                           iterations=200, seed=seed)
        assert found.objective <= best.objective + 1e-12
        if abs(found.objective - best.objective) <= 1e-9:
            hits += 1
    assert hits >= 7


def test_form_teams_is_deterministic():
    g, metrics = _prepared(12, 0.25, seed=31)
    a = form_teams(g, metrics, s_min=3, s_max=5, restarts=6, seed=9)
    b = form_teams(g, metrics, s_min=3, s_max=5, restarts=6, seed=9)
    assert a.teams == b.teams
    assert a.objective == b.objective


def test_equal_objectives_go_to_the_smaller_roster():
    # on a directed 9-cycle every student's metric row is the same, so every
    # roster of three teams of 3 scores the same float
    nodes = "abcdefghi"
    g = SocialGraph({(u, v): 1 for u, v in zip(nodes, nodes[1:] + nodes[0])},
                    nodes=list(nodes))
    metrics = compute_node_metrics(g)
    assert brute_force_teams(g, metrics, 3, 3).teams == (
        ("a", "b", "c"), ("d", "e", "f"), ("g", "h", "i"))
    winners = {}
    for seed in range(3):
        found = [form_teams(g, metrics, s_min=3, s_max=3, restarts=r, seed=seed).teams
                 for r in range(1, 7)]
        assert found == list(itertools.accumulate(found, min))
        winners[seed] = found
    # a later climb's roster does win, so the first climb is not kept by default
    assert winners[0][0] != winners[0][1]


@pytest.mark.parametrize("seed", range(3))
def test_more_restarts_return_the_best_of_fewer(seed):
    # climb j depends only on j, so restarts=R runs the climbs of every r < R
    g, metrics = _prepared(14, 0.2, seed=900 + seed)
    found = [form_teams(g, metrics, restarts=r, seed=seed) for r in range(1, 6)]
    for r in range(1, len(found) + 1):
        smallest_first = sorted(found[:r], key=lambda a: a.teams)
        assert found[r - 1] == max(smallest_first, key=lambda a: a.objective)


def test_form_teams_covers_everyone_once():
    g, metrics = _prepared(17, 0.2, seed=8)
    result = form_teams(g, metrics, s_min=3, s_max=5, restarts=4, seed=0)
    flat = [v for team in result.teams for v in team]
    assert sorted(flat) == list(g.nodes)
    sizes = sorted((len(t) for t in result.teams), reverse=True)
    assert sum(1 for s in sizes if not 3 <= s <= 5) <= 1
    # canonical form: members sorted within teams, teams sorted
    assert all(tuple(sorted(t)) == t for t in result.teams)
    assert list(result.teams) == sorted(result.teams)


def test_form_teams_objective_self_consistent():
    g, metrics = _prepared(10, 0.3, seed=77)
    result = form_teams(g, metrics, s_min=3, s_max=5, restarts=4, seed=3)
    assert result.objective == pytest.approx(
        objective(g, result.teams, result.weights, metrics))


def test_brute_force_refuses_sizes_no_partition_fits():
    # 7 students in teams of 3: 3 + 3 + 1 leaves a lone student, and every
    # other split puts two teams, or one larger team, outside [3, 3]
    g, metrics = _prepared(7, 0.4, seed=1)
    with pytest.raises(ParameterError, match="no feasible team sizes"):
        brute_force_teams(g, metrics, s_min=3, s_max=3)


@pytest.mark.parametrize("teams", [[], [["n000"], ["n001", "n002"]],
                                   [["n000", "n001"], ["n001", "n002"]],
                                   [["n000", "n001", "n000"]]],
                         ids=["no team", "lone student", "two teams", "twice in one"])
def test_objective_and_the_roster_reader_refuse_the_same_rosters(teams):
    g, metrics = _prepared(6, 0.4, seed=2)
    with pytest.raises(ParameterError):
        objective(g, teams, ObjectiveWeights(), metrics)
    roster = form_teams(g, metrics, s_min=2, s_max=3, restarts=1, iterations=0)
    buf = io.StringIO()
    write_roster_json(dataclasses.replace(roster, teams=teams), buf)
    with pytest.raises(DataFormatError, match="^bad roster JSON structure: "):
        read_roster_json(io.StringIO(buf.getvalue()))


def test_brute_force_refuses_large_instances():
    g, metrics = _prepared(11, 0.2, seed=0)
    with pytest.raises(ParameterError):
        brute_force_teams(g, metrics, s_min=3, s_max=5)


@pytest.mark.parametrize("search", [form_teams, brute_force_teams])
@pytest.mark.parametrize("edit", ["missing", "extra"])
def test_searches_refuse_a_table_that_does_not_match_the_graph(search, edit):
    # unchecked, a missing row reaches a bare KeyError in the brute-force
    # search, and an extra row rescales every farness by an outsider's
    g, metrics = _prepared(6, 0.4, seed=1)
    table = dict(metrics)
    if edit == "missing":
        student = g.nodes[0]
        table.pop(student)
    else:
        student = "zz_other"
        table[student] = dataclasses.replace(metrics[g.nodes[0]], student=student,
                                             farness=900.0)
    with pytest.raises(MissingNodeError, match=repr(student)):
        search(g, table, s_min=3, s_max=3)


def test_roster_json_round_trip(tmp_path):
    g, metrics = _prepared(8, 0.3, seed=5)
    result = form_teams(g, metrics, s_min=3, s_max=5, restarts=4, seed=2)
    path = tmp_path / "teams.json"
    with open(path, "w", encoding="utf-8") as fh:
        write_roster_json(result, fh)
    with open(path, encoding="utf-8") as fh:
        back = read_roster_json(fh)
    assert back == result


@pytest.mark.parametrize("allow_oversize", [False, True])
@pytest.mark.parametrize("weights", [ObjectiveWeights(), ObjectiveWeights(0.5, 0.2, 0.3)])
def test_form_teams_matches_the_re_pooling_reference_climb(monkeypatch, allow_oversize,
                                                          weights):
    for seed in range(4):
        # 17, 23, 29 and 35 students: remainders 2, 3, 4 and 0 of s_max
        g, metrics = _prepared(17 + 6 * seed, 0.15, seed=600 + seed, groups=4)
        search = dict(s_min=3, s_max=5, weights=weights, restarts=3, iterations=300,
                      seed=seed, allow_oversize=allow_oversize)
        got = form_teams(g, metrics, **search)
        with monkeypatch.context() as patch:
            patch.setattr(teams_module, "_hill_climb", reference_hill_climb)
            want = form_teams(g, metrics, **search)
        assert (got.teams, got.objective) == (want.teams, want.objective)


def test_form_teams_matches_brute_force_when_one_team_can_hold_everyone(monkeypatch):
    # compare objectives, not rosters: at n=4, seeds 3 and 5, the two searches
    # reach the same objective with different rosters
    sizes = []

    def spy(teams, *args):
        sizes.append(len(teams))
        return climb(teams, *args)

    climb = teams_module._hill_climb
    monkeypatch.setattr(teams_module, "_hill_climb", spy)
    for n in (3, 4, 5):
        for seed in range(6):
            g = random_digraph(n, 0.5, seed=seed)
            metrics = compute_node_metrics(g)
            for s_max in range(n, 6):
                best = brute_force_teams(g, metrics, s_min=2, s_max=s_max)
                found = form_teams(g, metrics, s_min=2, s_max=s_max, seed=seed)
                assert found.objective == best.objective, (n, seed, s_max)
    assert 1 in sizes  # the single-team climb ran
