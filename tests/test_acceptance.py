"""Acceptance suite: one test per release criterion.

Each criterion gets exactly one test function, so a verbose pytest run
prints one pass/fail line per criterion.  Thresholds marked as frozen
were established by the independent oracles in oracles.py (or, for the
flow-centrality floor, by a Monte-Carlo study run before this suite was
written) and must not be relaxed to make a regression pass.
"""

import json
import random
import statistics
import time

import pytest

from moocteams.diffusion import FlowSpec, rank_correlation, replicate_once, simulate
from moocteams.errors import UndefinedMetricError
from moocteams.graph import SocialGraph, geodesic_distances
from moocteams.ingest import SynthParams, build_reply_graph, synth_corpus, write_jsonl
from moocteams.metrics import (
    ROLE_NAMES,
    brokerage_counts,
    burt_constraint,
    clustering_coefficient,
    compute_node_metrics,
    eigencentrality,
    hits,
    pagerank,
)
from moocteams.pipeline import RunConfig, run_pipeline
from moocteams.rewire import rewire_optimize
from moocteams.teams import brute_force_teams, form_teams

from oracles import (
    brute_brokerage,
    brute_clustering,
    count_two_paths,
    dense_eigencentrality,
    dense_hits,
    dense_pagerank,
    floyd_warshall,
    random_digraph,
)


def test_criterion_1_metric_oracle_equivalence():
    # 100 seeded digraphs, n <= 40, edge prob swept over [0.1, 0.4]:
    # exact clustering/brokerage/geodesics, 1e-8 rank metrics, < 60 s.
    start = time.perf_counter()
    for seed in range(100):
        n = 10 + seed % 31
        p = 0.1 + 0.3 * (seed / 99.0)
        g = random_digraph(n, p, seed=seed)
        rng = random.Random(seed)
        partition = {v: f"g{rng.randrange(4)}" for v in g.nodes}

        for v in g.nodes:
            assert clustering_coefficient(g, v) == brute_clustering(g, v)

        got = brokerage_counts(g, partition)
        want = brute_brokerage(g, partition)
        for v in g.nodes:
            assert {r: getattr(got[v], r) for r in ROLE_NAMES} == want[v]

        fw = floyd_warshall(g)
        for v in g.nodes:
            row = geodesic_distances(g, v)
            assert all(row[u] == fw[v][u] for u in g.nodes)

        pr = pagerank(g)
        dpr = dense_pagerank(g)
        assert max(abs(pr[v] - dpr[v]) for v in g.nodes) < 1e-8

        try:
            auth, hub = hits(g)
        except UndefinedMetricError:
            assert g.edge_count == 0
            continue
        dauth, dhub = dense_hits(g)
        assert max(abs(auth[v] - dauth[v]) for v in g.nodes) < 1e-8
        assert max(abs(hub[v] - dhub[v]) for v in g.nodes) < 1e-8

        eig = eigencentrality(g)
        deig = dense_eigencentrality(g)
        assert max(abs(eig[v] - deig[v]) for v in g.nodes) < 1e-8
    assert time.perf_counter() - start < 60.0


def test_criterion_2_closed_form_spot_checks():
    dyad = SocialGraph({("a", "b"): 2, ("b", "a"): 3})
    assert burt_constraint(dyad, "a") == 1.0
    assert burt_constraint(dyad, "b") == 1.0

    triad = SocialGraph({(u, v): 1 for u in "abc" for v in "abc" if u != v})
    for v in "abc":
        assert burt_constraint(triad, v) == pytest.approx(1.125, abs=1e-12)
        assert clustering_coefficient(triad, v) == 1.0

    cycle = SocialGraph({("a", "b"): 1, ("b", "a"): 1})
    pr = pagerank(cycle)
    assert pr["a"] == pytest.approx(0.5, abs=1e-9)
    assert pr["b"] == pytest.approx(0.5, abs=1e-9)


def test_criterion_3_brokerage_conservation():
    # every directed 2-path i->b->k (i != k) lands in exactly one role
    for seed in range(40):
        g = random_digraph(8 + seed % 25, 0.1 + 0.3 * (seed / 39.0), seed=7000 + seed)
        rng = random.Random(seed)
        for groups in (1, 2, 5):
            partition = {v: f"g{rng.randrange(groups)}" for v in g.nodes}
            counts = brokerage_counts(g, partition)
            assert sum(c.total() for c in counts.values()) == count_two_paths(g)


def test_criterion_4_optimizer_matches_brute_force():
    # 25 seeded instances, 6-8 nodes, team sizes 3-4, 20 restarts:
    # >= 24 must reach the exhaustive optimum within 1e-9, deterministically.
    optimal = 0
    for i in range(25):
        n = 6 + i % 3
        g = random_digraph(n, 0.3 + 0.02 * (i % 5), seed=400 + i)
        metrics = compute_node_metrics(
            g, {v: f"g{j % 3}" for j, v in enumerate(g.nodes)})
        best = brute_force_teams(g, metrics, s_min=3, s_max=4)
        found = form_teams(g, metrics, s_min=3, s_max=4, restarts=20,
                           iterations=250, seed=1000 + i)
        again = form_teams(g, metrics, s_min=3, s_max=4, restarts=20,
                           iterations=250, seed=1000 + i)
        assert found.teams == again.teams
        assert found.objective == again.objective
        assert found.objective <= best.objective + 1e-12
        if best.objective - found.objective <= 1e-9:
            optimal += 1
    assert optimal >= 24


def _directed_path(n):
    return SocialGraph({(f"v{i}", f"v{i + 1}"): 1 for i in range(n - 1)})


def _bidirectional_path(n):
    edges = {}
    for i in range(n - 1):
        edges[(f"v{i}", f"v{i + 1}")] = 1
        edges[(f"v{i + 1}", f"v{i}")] = 1
    return SocialGraph(edges)


def test_criterion_5_diffusion_exactness():
    # geodesic flows on path graphs arrive exactly at hop distance; the
    # copy cap must admit one frontier spawn per step, and parallel
    # duplication doubles its record count each step, so 2^12 covers n <= 10
    for n in range(2, 11):
        g = _directed_path(n)
        for mechanism in ("TRANSFER", "PARALLEL_DUP"):
            trace = simulate(g, FlowSpec(mechanism, "GEODESIC", ("v0",),
                                         max_steps=n + 2, replications=3,
                                         copy_cap=4096))
            for i in range(n):
                assert trace.first_arrival[f"v{i}"] == i

    # assertion sweep: 10^4 replications each for PATH and TRAIL on
    # bidirectional paths (n <= 10); a moving token's receipt stream
    # detects any node revisit or edge reuse exactly
    reps_per_graph = 1250
    for n in range(3, 11):
        g = _bidirectional_path(n)
        start = f"v{n // 2}"
        path_spec = FlowSpec("TRANSFER", "PATH", (start,), max_steps=2 * n, seed=n)
        trail_spec = FlowSpec("TRANSFER", "TRAIL", (start,), max_steps=2 * n, seed=n)
        for rep in range(reps_per_graph):
            out = replicate_once(g, path_spec, rep, collect_histories=True)
            assert all(c == 1 for c in out.receipts.values())
            assert sum(out.receipts.values()) == len(out.histories[0].visited)

            out = replicate_once(g, trail_spec, rep, collect_histories=True)
            hops = sum(out.receipts.values()) - 1
            assert len(out.histories[0].used_edges) == hops


def _reciprocal_graph(n, p, seed):
    rng = random.Random(seed)
    nodes = [f"n{i:03d}" for i in range(n)]
    edges = {}
    for i in range(n):
        edges[(nodes[i], nodes[(i + 1) % n])] = 1
        edges[(nodes[(i + 1) % n], nodes[i])] = 1
    for i in range(n):
        for j in range(i + 1, n):
            u, v = nodes[i], nodes[j]
            if (u, v) not in edges and rng.random() < p:
                edges[(u, v)] = 1
                edges[(v, u)] = 1
    return SocialGraph(edges, nodes=nodes)


def test_criterion_6_flow_tracks_eigencentrality():
    # frozen floor 0.7: the generator/cap pairing below measured a median
    # of 0.94 (min 0.87) across these exact 20 seeds before freezing
    corrs = []
    for i in range(20):
        g = _reciprocal_graph(30, 0.15, seed=900 + i)
        eig = eigencentrality(g)
        spec = FlowSpec("PARALLEL_DUP", "WALK", (min(g.nodes),), max_steps=10,
                        replications=500, seed=77 + i, copy_cap=9000)
        trace = simulate(g, spec)
        corrs.append(rank_correlation(dict(trace.receipts), dict(eig)))
    assert statistics.median(corrs) >= 0.7


def test_criterion_7_full_scale_pipeline(tmp_path):
    params = SynthParams(students=771, threads=665, posts=1800,
                         comments=7000, seed=20260825)
    messages = synth_corpus(params)
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        write_jsonl(messages, fh)

    graph, _ = build_reply_graph(messages)
    assert graph.node_count >= 771
    assert sum(1 for m in messages if m.parent_id is None) >= 1503
    assert sum(1 for m in messages if m.parent_id is not None) >= 1100
    assert graph.edge_count >= 3848

    out = tmp_path / "run"
    config = RunConfig(str(corpus), str(out), seed=20260825)
    start = time.perf_counter()
    result = run_pipeline(config)
    assert time.perf_counter() - start < 30.0
    assert result.manifest["status"] == "complete"

    artifacts = sorted(p.name for p in out.iterdir() if p.name != "timings.json")
    first = {name: (out / name).read_bytes() for name in artifacts}
    run_pipeline(config)
    second = {name: (out / name).read_bytes() for name in artifacts}
    assert "manifest.json" in first
    assert first == second


def _ring_lattice(n, k=2):
    edges = {}
    for i in range(n):
        for step in range(1, k + 1):
            edges[(f"v{i:02d}", f"v{(i + step) % n:02d}")] = 1
    return SocialGraph(edges)


def _degree_profile(g):
    out_deg = {v: len(g.out_neighbors(v)) for v in g.nodes}
    in_deg = {v: len(g.in_neighbors(v)) for v in g.nodes}
    return out_deg, in_deg


def test_criterion_8_rewiring_improves_objective():
    cases = [
        _ring_lattice(20),
        _ring_lattice(36),
        random_digraph(33, 0.15, seed=83),
        random_digraph(50, 0.1, seed=84),
    ]
    for g in cases:
        result = rewire_optimize(g, alpha=1.0, beta=1.0, iterations=5000, seed=17)
        assert result.final_score >= result.initial_score
        assert _degree_profile(result.graph) == _degree_profile(g)
        assert sorted(w for _, _, w in result.graph.edges()) == \
            sorted(w for _, _, w in g.edges())
    repeat = rewire_optimize(cases[0], alpha=1.0, beta=1.0, iterations=5000, seed=17)
    baseline = rewire_optimize(cases[0], alpha=1.0, beta=1.0, iterations=5000, seed=17)
    assert repeat.graph == baseline.graph
    assert repeat.final_score == baseline.final_score
