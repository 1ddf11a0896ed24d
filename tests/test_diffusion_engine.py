"""The diffusion engine against fixed outputs, the linear-scan hop pick (with
and without excluded edges) and a set-based reference replication.

The digests below are the sha256 of ``write_trace_csv`` for each spec of
``_pinned_specs``, recorded with the dict-keyed engine that preceded the
integer hop table.  Any change to candidate order or to RNG use moves
them.
"""

import hashlib
import io
import math
import random
from itertools import accumulate, product

import pytest

from moocteams.diffusion import (FlowSpec, _pick, full_typology_specs,
                                 replicate_once, simulate, write_trace_csv)

from oracles import _weighted_choice, random_digraph, reference_replicate

PINNED = [
    ("TRANSFER", "GEODESIC", "755e9474a2f75418395c543549ad7ee38dd36c15e52cb4afb74b62be651c496d"),
    ("TRANSFER", "PATH", "b7afad8b4561be8e190775c46fca8b9d0189474cfcecaa5335450141ecc3bbc8"),
    ("TRANSFER", "TRAIL", "afa1343cda8e695ab25ef7adc71b7be10df74ac5947987818c477241f6cb8470"),
    ("TRANSFER", "WALK", "4b6b117c008393513cfd0e81b5be6b27fa92eb4eee530bb835b9f2f0a71f3034"),
    ("SERIAL_DUP", "GEODESIC", "f02e9194a9998bd838e47ab02740ac13aa45d262c3d72b0b4ef43a554e750f1b"),
    ("SERIAL_DUP", "PATH", "c2c6d3b6174b6145a41dcfb84bdc787567b6eed3eaca2f960e7239dac333e335"),
    ("SERIAL_DUP", "TRAIL", "db557313321bc5433f02db2d03691f8f184d613a5391f64c094b22bc6320dd46"),
    ("SERIAL_DUP", "WALK", "0c3062f6fc58aecb2574a30041d75573bcd52a8a8482d27e95f1eaf26ccb965d"),
    ("PARALLEL_DUP", "GEODESIC", "ee2804a76c62ef6b36ff88730876bbdcb008cd85e48e611ab7729648262ee205"),
    ("PARALLEL_DUP", "PATH", "9eec9bba027720204161389481785d8686243da118e976fa5277598fc8632c7c"),
    ("PARALLEL_DUP", "TRAIL", "3cd10cff47c55c1c3e7076fcdddcc56c505e3701d00635af7596f657caacf46d"),
    ("PARALLEL_DUP", "WALK", "046210a654fe2bdaab3509cdf613c67d2feddb2978c6d3a487326b8f5676df0f"),
    # with a target, with two sources, with uniform hops
    ("SERIAL_DUP", "PATH", "bfc520add14cefcd47123d03f4512d95fa8300af296bac83228bf7bd0f70989c"),
    ("SERIAL_DUP", "GEODESIC", "bc3fcc6d014ae16eb0b5845f0c3b405848a93a7703c6b927501f0e20369acc14"),
    ("SERIAL_DUP", "WALK", "7a40ef7712542f82d5981f8b52de5f9950b311933e3a76ec0d707279b51cbb30"),
]


def _pinned_specs(g):
    src = g.nodes[0]
    specs = full_typology_specs((src,), max_steps=8, replications=6, seed=21)
    return specs + [
        FlowSpec("SERIAL_DUP", "PATH", (src,), target=g.nodes[17],
                 max_steps=10, replications=6, seed=5),
        FlowSpec("SERIAL_DUP", "GEODESIC", (src, g.nodes[23]),
                 max_steps=12, replications=6, seed=9),
        FlowSpec("SERIAL_DUP", "WALK", (g.nodes[5],), max_steps=8,
                 replications=6, seed=13, uniform=True),
    ]


def test_traces_match_pinned_digests():
    g = random_digraph(40, 0.12, seed=4)
    specs = _pinned_specs(g)
    assert len(specs) == len(PINNED)
    for spec, (mechanism, trajectory, digest) in zip(specs, PINNED):
        assert (spec.mechanism.value, spec.trajectory.value) == (mechanism, trajectory)
        buf = io.StringIO()
        write_trace_csv(simulate(g, spec), buf)
        got = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert got == digest, (mechanism, trajectory, spec.target, spec.sources)


@pytest.mark.parametrize("uniform", [False, True])
def test_pick_matches_linear_scan(uniform):
    gen = random.Random(1 + uniform)
    checked = 0
    for _ in range(4000):
        k = gen.randint(1, 18)
        weights = [gen.randint(1, 50) for _ in range(k)]
        excluded = {i for i in range(k) if gen.random() < 0.3}
        kept = [i for i in range(k) if i not in excluded]
        if not kept:
            continue
        seed = gen.getrandbits(32)
        scan_rng, pick_rng = random.Random(seed), random.Random(seed)
        expected = _weighted_choice(
            scan_rng, {f"v{i:02d}": weights[i] for i in kept}, uniform)
        got = _pick(pick_rng, kept, list(accumulate(weights[i] for i in kept)),
                    uniform)
        assert f"v{got:02d}" == expected
        assert pick_rng.getstate() == scan_rng.getstate()
        checked += 1
    assert checked > 3000


class _FixedDraw(random.Random):
    """A generator whose every draw is ``value``."""

    def __init__(self, value):
        super().__init__(0)
        self.value = value

    def random(self):
        return self.value


def test_pick_matches_linear_scan_on_boundary_draws():
    # a draw equal to a running total belongs to the next candidate, since
    # the scan compares strictly; a draw of the full total falls through
    # the scan to the last candidate, and the bisection is clamped there
    weights = {"a": 3, "b": 1, "c": 5, "d": 7}  # totals t / 16 are exact
    totals = list(accumulate(weights.values()))
    for value in [t / totals[-1] for t in [0, *totals]]:
        expected = _weighted_choice(_FixedDraw(value), weights, False)
        got = _pick(_FixedDraw(value), [0, 1, 2, 3], totals, False)
        assert "abcd"[got] == expected
    assert _pick(_FixedDraw(1.0), [0, 1, 2, 3], totals, False) == 3


def _exclusion_cases(gen, count):
    """(weights, gone) pairs: random weights, and a random ascending set of
    excluded indices that leaves at least one edge."""
    for _ in range(count):
        k = gen.randint(2, 18)
        weights = [gen.randint(1, 50) for _ in range(k)]
        share = gen.choice((0.2, 0.5, 0.8))
        gone = [i for i in range(k) if gen.random() < share]
        if gone and len(gone) < k:
            yield weights, gone


def _kept(weights, gone):
    return {f"v{i:02d}": w for i, w in enumerate(weights) if i not in gone}


@pytest.mark.parametrize("uniform", [False, True])
def test_pick_with_exclusions_matches_linear_scan_over_kept_edges(uniform):
    gen = random.Random(11 + uniform)
    checked = 0
    for weights, gone in _exclusion_cases(gen, 6000):
        seed = gen.getrandbits(32)
        scan_rng, pick_rng = random.Random(seed), random.Random(seed)
        expected = _weighted_choice(scan_rng, _kept(weights, gone), uniform)
        got = _pick(pick_rng, range(len(weights)), tuple(accumulate(weights)),
                    uniform, gone)
        assert f"v{got:02d}" == expected, (weights, gone)
        assert pick_rng.getstate() == scan_rng.getstate()
        checked += 1
    assert checked > 3000


def test_pick_with_exclusions_on_boundary_draws():
    # draws at, just below and just above each running total of the kept
    # edges, and a draw of 1.0, which falls through the scan to the last
    # kept edge even when the last edge is excluded
    gen = random.Random(5)
    checked = 0
    last_excluded = False
    for weights, gone in _exclusion_cases(gen, 2000):
        kept = _kept(weights, gone)
        remaining = sum(kept.values())
        values = {1.0}
        for t in accumulate(kept.values(), initial=0):
            value = t / remaining
            values.update((value, math.nextafter(value, 0.0), math.nextafter(value, 2.0)))
        for value in sorted(values):
            expected = _weighted_choice(_FixedDraw(value), kept, False)
            got = _pick(_FixedDraw(value), range(len(weights)),
                        tuple(accumulate(weights)), False, gone)
            assert f"v{got:02d}" == expected, (weights, gone, value)
            checked += 1
        got = _pick(_FixedDraw(1.0), range(len(weights)), tuple(accumulate(weights)),
                    False, gone)
        assert f"v{got:02d}" == list(kept)[-1]
        last_excluded |= gone[-1] == len(weights) - 1 and len(kept) > 1
    assert checked > 10000 and last_excluded


def _reference_specs(g):
    src = g.nodes[3]
    specs = full_typology_specs((src,), max_steps=11, replications=2, seed=30)
    return specs + [
        FlowSpec("SERIAL_DUP", "TRAIL", (src,), target=g.nodes[40],
                 max_steps=11, seed=31),
        FlowSpec("PARALLEL_DUP", "PATH", (src, g.nodes[70]), target=g.nodes[55],
                 max_steps=6, seed=32),
        FlowSpec("TRANSFER", "TRAIL", (src,), target=g.nodes[12],
                 max_steps=40, seed=33),
        FlowSpec("SERIAL_DUP", "PATH", (src, g.nodes[88]), max_steps=11,
                 seed=34, copy_cap=7),
        FlowSpec("PARALLEL_DUP", "TRAIL", (src,), max_steps=5, copy_cap=7),
        FlowSpec("SERIAL_DUP", "GEODESIC", (src,), max_steps=11, seed=35,
                 copy_cap=7, uniform=True),
    ]


def _replicate_like_reference(g, spec, rep):
    """One replication with route histories, asserted equal to
    ``reference_replicate``'s."""
    got = replicate_once(g, spec, rep, collect_histories=True)
    want = reference_replicate(g, spec, rep)
    case = (spec.mechanism.value, spec.trajectory.value, spec.target, rep)
    assert got.arrival == want["arrival"], case
    assert got.receipts == want["receipts"], case
    assert (got.steps, got.truncated, got.dropped) == (
        want["steps"], want["truncated"], want["dropped"]), case
    assert [(r.origin, r.holder, r.visited, r.used_edges)
            for r in got.histories] == want["histories"], case
    return got


@pytest.mark.parametrize("graph_seed", [2, 8])
def test_replications_match_the_set_based_reference(graph_seed):
    # over 64 nodes and 1 000 edges, so node and edge routes span many
    # int digits; every dup cell reaches the 10 * n cap within 11 steps
    g = random_digraph(90, 0.14, seed=graph_seed)
    assert g.node_count > 64 and g.edge_count > 1000
    seen = set()
    for spec in _reference_specs(g):
        for rep in range(2):
            got = _replicate_like_reference(g, spec, rep)
            seen.add((spec.mechanism.value, spec.copy_cap is None, got.dropped > 0))
    # the default cap and the small one both refuse copies somewhere
    assert {("SERIAL_DUP", True, True), ("PARALLEL_DUP", True, True),
            ("SERIAL_DUP", False, True), ("PARALLEL_DUP", False, True)} <= seen


@pytest.mark.parametrize("graph_seed", [2, 8])
def test_uniform_route_cells_match_the_set_based_reference(graph_seed):
    # uniform hops over the route-constrained cells; with 7 live tokens at
    # most, a token that stays put spends its holder's edges and dies
    g = random_digraph(90, 0.14, seed=graph_seed)
    src = g.nodes[3]
    exhausted = set()
    for index, (mechanism, trajectory) in enumerate(product(
            ("SERIAL_DUP", "TRANSFER", "PARALLEL_DUP"), ("PATH", "TRAIL"))):
        spec = FlowSpec(mechanism, trajectory, (src, g.nodes[60]), max_steps=30,
                        seed=40 + index, copy_cap=7, uniform=True)
        for rep in range(2):
            for token in _replicate_like_reference(g, spec, rep).histories:
                out = g.out_neighbors(token.holder)
                if out and (token.visited >= set(out) if trajectory == "PATH" else
                            token.used_edges >= {(token.holder, v) for v in out}):
                    exhausted.add((mechanism, trajectory))
    assert {("SERIAL_DUP", "PATH"), ("SERIAL_DUP", "TRAIL"),
            ("PARALLEL_DUP", "PATH"), ("PARALLEL_DUP", "TRAIL")} <= exhausted
