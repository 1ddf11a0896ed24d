"""The metric table pinned byte for byte, and its per-node entry points.

The digests are of ``write_metrics_csv(compute_node_metrics(g))``, recorded
with every solver looping over the graph's neighbour dicts and every
structural-hole measure built from per-node tie shares.  Values are written
at 9 significant digits, and the digests are the same on CPython 3.10, 3.11
and 3.12.  Two were re-pinned when ``RANK_MAX_ITER`` rose from 1 000 to
5 000 iterations: on 15-0.1-6 HITS now converges (1 368 iterations), and
on 20-0.05-8 four eigenvector scores that do not converge decay from
1.6e-308 to 0.
"""

import hashlib
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import moocteams
from moocteams.errors import ConvergenceWarning
from moocteams.graph import SocialGraph, write_graph_csv
from moocteams.ingest import SynthParams, build_reply_graph, synth_corpus
from moocteams.metrics import (burt_constraint, compute_metrics_without_brokerage,
                               compute_node_metrics, effective_size,
                               eigencentrality, write_metrics_csv)

from oracles import pairwise_structural_holes, random_digraph

#: (students, edge probability) per seed, seeds 0-19 in order.
RANDOM_CASES = [(2, 0.5), (3, 0.5), (5, 0.3), (8, 0.2), (10, 0.15), (12, 0.3),
                (15, 0.1), (16, 0.25), (20, 0.05), (20, 0.2), (25, 0.2),
                (25, 0.4), (30, 0.08), (30, 0.15), (35, 0.1), (40, 0.05),
                (40, 0.12), (50, 0.06), (60, 0.04), (60, 0.1)]

EDGE_CASES = {
    "isolated": SocialGraph({("a", "b"): 2, ("b", "c"): 1, ("c", "a"): 3},
                            nodes=["x", "y"]),
    "dangling": SocialGraph({("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 1,
                             ("d", "a"): 1}),
    "star": SocialGraph({("c", f"l{i}"): 1 for i in range(4)}),
    "two": SocialGraph({("a", "b"): 3}),
    "edgeless": SocialGraph(nodes=["a", "b", "c"]),
}

PINNED = {
    "2-0.5-0": "1b0a5a9d2f27091e862d8d0859f024cbc4add775acdbb5a1a122285c5c6c2253",
    "3-0.5-1": "a59c4f0cfd4ae08d1a950a55fe331a3b8738b26e4dcc5537da5e9cae9bfe98f1",
    "5-0.3-2": "c028d0472f048039768efd51d2fe2e18f5131a0080ad9486fe8892bdafab1899",
    "8-0.2-3": "5423320836e4ad1b60800ca806712bf575e882eccad10daf162646609630bf46",
    "10-0.15-4": "03c5bdc6dc490583f3f27d68fae8b8b9a4d417faf5cdae3490df9a4801d3c45c",
    "12-0.3-5": "c8ed6787d64a8ca0e6b9a78e0bee3f8bf11e9ada8bb7c2910c6f9fcf68ac43a0",
    "15-0.1-6": "e8f788d4e1c656d51e596ece2e2a24da3b73910b332af5c6088c40c85c74765b",
    "16-0.25-7": "2dc8ed11d6563018c788a9261eb70442a61d0b4f7fef659545d749b0c3224c64",
    "20-0.05-8": "0ec6e84fb36a020b65858c59092086b687efa7c7bb2cb7c111925d03c1cb2164",
    "20-0.2-9": "a43c341dbad809041174d2ebf2142d75b0167ac7a44761b1d51021fc15583a57",
    "25-0.2-10": "f1d73d22d0a5876ca164e0d263bb6387ac673ef375db7061c3acf7f17e10c499",
    "25-0.4-11": "93bebb8a0de6286cd6c70ace522ac1ec50af36c5c68d7cacdbdce64ddb1f1bb1",
    "30-0.08-12": "6f849bb5a9ba8eb6c07a5d746a83580878f62b2526cf5f7c54a193ed0db8d7a6",
    "30-0.15-13": "fe949b46979702d7888bbf44dfed25730173eac6d450d7de640f21d9bfb27d68",
    "35-0.1-14": "58ed191c4e99d5d7328343f7155fd7f00fee2257ef5c972d6232f12b91280da7",
    "40-0.05-15": "8bfa7e9d0448cc6aee2e58f1748c1e2ade1308d2e7eea4aac8cae6632e58be15",
    "40-0.12-16": "d3081fdf624e7e97228f301ba80c6d8f83ba2a5ff18879c280022446e38e460d",
    "50-0.06-17": "85fd3dc9695ac3f59350d9474ff00a80d314c312246ca8f1560c32651b5b779c",
    "60-0.04-18": "c850ccc2436cf491bec363c66e567765771a31d3a7499ebaccd2223aa9def5f7",
    "60-0.1-19": "f73b34aeff3664cf4828180099395d971ad8811a45ad47e4bd1d30825de89c65",
    "isolated": "4e26c57c932dc9ddfa7909f1e655050cdaba10f640cd2a904c4ea693bb30d999",
    "dangling": "293c7697d9515926acf34c075c81f4312b1fe850c204c9ee200233130173db1a",
    "star": "625cbd162e82cf9d726680eddbeac247abe463bbf60c508fc5de77ef159911fd",
    "two": "98e8fd0104a65cb00247d89f072bd141ff5dbc66163b3c53143118204480efbf",
    "edgeless": "d30eaed6ed37be8d2df20f95e73d81db17dca24dbfb915dd73e792c227c96c7a",
}

#: The 1x synthetic corpus (the benchmark's pipeline-1x counts) at seeds 1, 7.
PINNED_CORPUS = {
    1: "faab9a3bdc7e718f58e2fa3fbfc8845daf4a861b559ae666c77150f21f08de2d",
    7: "ada68c7b9858df7bd568df7e1387dc8a4150ec1108129efd784089b473bf584b",
}


def _random_graphs():
    return {f"{n}-{p}-{seed}": random_digraph(n, p, seed=seed)
            for seed, (n, p) in enumerate(RANDOM_CASES)}


def _csv_digest(g):
    buf = io.StringIO()
    write_metrics_csv(compute_node_metrics(g), buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_metric_table_matches_pinned_digests():
    graphs = {**_random_graphs(), **EDGE_CASES}
    assert {name: _csv_digest(g) for name, g in graphs.items()} == PINNED


def test_corpus_metric_table_matches_pinned_digests():
    got = {}
    for seed in PINNED_CORPUS:
        messages = synth_corpus(SynthParams(students=771, threads=665, posts=1800,
                                            comments=7000, seed=seed))
        got[seed] = _csv_digest(build_reply_graph(messages)[0])
    assert got == PINNED_CORPUS


def test_per_node_structural_holes_equal_the_table():
    for g in [*_random_graphs().values(), *EDGE_CASES.values()]:
        table = compute_node_metrics(g)
        for v in g.nodes:
            if g.degree(v) == 0:
                assert math.isnan(table[v].constraint)
                assert math.isnan(table[v].effective_size)
                continue
            assert burt_constraint(g, v) == table[v].constraint
            assert effective_size(g, v) == table[v].effective_size


def test_structural_holes_equal_the_pairwise_sums_exactly():
    for g in [*_random_graphs().values(), *EDGE_CASES.values()]:
        for v in g.nodes:
            if g.degree(v):
                assert (burt_constraint(g, v), effective_size(g, v)) == \
                    pairwise_structural_holes(g, v)


def test_solver_stopping_at_max_iter_warns():
    star = EDGE_CASES["star"]
    assert not eigencentrality(star).converged
    with pytest.warns(ConvergenceWarning,
                      match="eigencentrality did not converge in 5000 iterations"):
        compute_metrics_without_brokerage(star)


def test_converged_solvers_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        compute_metrics_without_brokerage(EDGE_CASES["two"])


def test_cli_metrics_reports_non_convergence_on_stderr(tmp_path):
    graph, table = tmp_path / "star.csv", tmp_path / "metrics.csv"
    with open(graph, "w", encoding="utf-8", newline="") as fh:
        write_graph_csv(EDGE_CASES["star"], fh)
    src = str(Path(moocteams.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "moocteams.cli", "metrics",
                          "--graph", str(graph), "--output", str(table)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0
    assert "ConvergenceWarning: eigencentrality did not converge" in run.stderr
    assert run.stdout == "students=5\n"
    with open(table, encoding="utf-8") as fh:
        assert hashlib.sha256(fh.read().encode()).hexdigest() == PINNED["star"]
