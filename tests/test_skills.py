import io
import math

import pytest

from moocteams.errors import DataFormatError, ParameterError
from moocteams.ingest import TOPIC_VOCABULARY, ForumMessage, SynthParams, synth_corpus
from moocteams.skills import (
    build_skill_profiles,
    default_stopwords,
    read_partition_json,
    read_skills_json,
    refine_skills,
    skill_partition,
    term_distribution,
    tokenize,
    top_k_skills,
    write_partition_json,
    write_skills_json,
)

STOP = frozenset({"the", "and", "for"})


def _msg(author, body, i=[0]):
    i[0] += 1
    return ForumMessage(id=f"m{i[0]}", thread_id="t1", timestamp=i[0],
                        body=body, author=author)


def test_tokenize_lowercase_stopwords_min_length():
    got = tokenize("The RECURSION and DP, dp; for graphs2!", STOP)
    assert got == ["recursion", "graphs2"]
    assert tokenize("a dp ox", STOP, min_len=2) == ["dp", "ox"]


def test_default_stopwords_are_common_words():
    stop = default_stopwords()
    assert {"the", "and", "with", "this"} <= stop
    assert "recursion" not in stop


def test_term_distribution_counts_and_normalizes():
    msgs = [_msg("a", "graphs graphs sorting"), _msg("a", "graphs the")]
    dist = term_distribution(msgs, STOP)
    assert dist == pytest.approx({"graphs": 0.75, "sorting": 0.25})
    assert math.fsum(dist.values()) == pytest.approx(1.0)


def test_top_k_breaks_ties_alphabetically():
    dist = {"beta": 0.25, "alpha": 0.25, "zeta": 0.5}
    assert top_k_skills(dist, 2) == (("zeta", 0.5), ("alpha", 0.25))
    assert top_k_skills(dist, 10) == (("zeta", 0.5), ("alpha", 0.25), ("beta", 0.25))


def test_build_profiles_groups_by_author():
    msgs = [
        _msg("ann", "graphs graphs hashing"),
        _msg("bob", "poetry sonnets"),
        _msg("ann", "graphs sorting"),
        _msg(None, "ignored anonymous text"),
    ]
    profiles = build_skill_profiles(msgs, k=2, stopwords=STOP)
    assert set(profiles) == {"ann", "bob"}
    assert profiles["ann"].dominant_term() == "graphs"
    assert profiles["ann"].weight_of("graphs") == pytest.approx(0.6)
    assert not profiles["ann"].refined


def test_build_profiles_idf_downweights_ubiquitous_terms():
    # "common" appears for everyone, each specialty is author-specific
    msgs = [_msg(a, f"common common common {t} {t}")
            for a, t in (("u1", "alpha"), ("u2", "beta"), ("u3", "gamma"))]
    plain = build_skill_profiles(msgs, k=1, stopwords=STOP)
    weighted = build_skill_profiles(msgs, k=1, stopwords=STOP, use_idf=True)
    assert plain["u1"].dominant_term() == "common"
    assert weighted["u1"].dominant_term() == "alpha"


def test_refine_boosts_uniformly():
    msgs = [_msg("a", "graphs graphs graphs sorting sorting")]
    profile = build_skill_profiles(msgs, k=2, stopwords=STOP)["a"]
    refined = refine_skills(profile, rank_score=1.0, beta=1.0)
    assert refined.refined
    # factor (1 + beta * rank) applies to every weight; ranking is unchanged
    for (t, w), (rt, rw) in zip(profile.terms, refined.terms):
        assert rt == t
        assert rw == pytest.approx(2.0 * w)
    assert refine_skills(profile, rank_score=0.0).terms == profile.terms
    with pytest.raises(ParameterError):
        refine_skills(profile, rank_score=1.5)
    with pytest.raises(ParameterError):
        refine_skills(profile, rank_score=0.5, beta=-1.0)


def test_partition_recovers_planted_topics():
    params = SynthParams(students=30, threads=10, posts=60, comments=140, seed=12,
                         anonymous_fraction=0.0)
    msgs = synth_corpus(params)
    profiles = build_skill_profiles(msgs)
    partition = skill_partition(profiles.values(), n_groups=5, seed=3)
    planted = {f"s{i:05d}": i % len(TOPIC_VOCABULARY) for i in range(30)}
    # same planted topic -> same group, different topic -> different group
    agree = mismatched = 0
    students = sorted(planted)
    for i, u in enumerate(students):
        for v in students[i + 1:]:
            same_topic = planted[u] == planted[v]
            same_group = partition[u] == partition[v]
            if same_topic == same_group:
                agree += 1
            else:
                mismatched += 1
    assert agree / (agree + mismatched) >= 0.9


def test_partition_covers_all_profiles_and_is_deterministic():
    msgs = synth_corpus(SynthParams(students=20, threads=6, posts=40, comments=80, seed=5))
    profiles = build_skill_profiles(msgs)
    p1 = skill_partition(profiles.values(), n_groups=4, seed=9)
    p2 = skill_partition(profiles.values(), n_groups=4, seed=9)
    assert p1 == p2
    assert set(p1) == set(profiles)
    assert len(set(p1.values())) <= 4


def test_partition_validates_inputs():
    msgs = [_msg("a", "graphs"), _msg("b", "poetry")]
    profiles = build_skill_profiles(msgs, stopwords=STOP)
    with pytest.raises(ParameterError):
        skill_partition(profiles.values(), n_groups=0)
    with pytest.raises(ParameterError):
        skill_partition(profiles.values(), n_groups=3)
    dup = list(profiles.values()) + [profiles["a"]]
    with pytest.raises(ParameterError):
        skill_partition(dup, n_groups=2)


def test_skills_json_round_trip(tmp_path):
    msgs = synth_corpus(SynthParams(students=8, threads=3, posts=12, comments=20, seed=2))
    profiles = build_skill_profiles(msgs)
    path = tmp_path / "skills.json"
    with open(path, "w", encoding="utf-8") as fh:
        write_skills_json(profiles, fh)
    with open(path, encoding="utf-8") as fh:
        assert read_skills_json(fh) == profiles


def test_skills_json_rejects_non_numeric_weight():
    # no subcommand reads skills JSON, so the reader is called directly
    text = '[{"student": "a", "terms": [{"term": "x", "weight": "heavy"}], "k": 5, "refined": false}]'
    with pytest.raises(DataFormatError):
        read_skills_json(io.StringIO(text))


def test_partition_json_round_trip(tmp_path):
    partition = {"a": "g00", "b": "g01", "c": "g00"}
    path = tmp_path / "partition.json"
    with open(path, "w", encoding="utf-8") as fh:
        write_partition_json(partition, fh)
    with open(path, encoding="utf-8") as fh:
        assert read_partition_json(fh) == partition
