import io
import math
import random

import pytest

from moocteams.errors import DataFormatError, ParameterError
from moocteams.ingest import TOPIC_VOCABULARY, ForumMessage, SynthParams, synth_corpus
from moocteams.skills import (
    UNOBSERVED_GROUP,
    SkillProfile,
    build_skill_profiles,
    default_stopwords,
    read_partition_json,
    read_skills_json,
    refine_by_rank,
    refine_skills,
    skill_partition,
    term_distribution,
    tokenize,
    top_k_skills,
    write_partition_json,
    write_skills_json,
)

from oracles import reference_skill_partition

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
    assert dict(profiles["ann"].terms)["graphs"] == pytest.approx(0.6)
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
    for beta in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            refine_skills(profile, rank_score=0.5, beta=beta)
    with pytest.raises(ParameterError):
        refine_skills(profile, rank_score=0.0, beta=math.inf)


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


@pytest.mark.parametrize("n_groups", [4, 7])
def test_partition_splits_buckets_when_dominant_terms_run_short(n_groups):
    """Two dominant terms (five students on graphs, two on poetry) and one
    student with no terms: the buckets are split until there are
    ``n_groups`` groups, each inside one bucket."""
    profiles = [SkillProfile(f"g{i}", (("graphs", 0.6), ("poetry", 0.1 * i)), k=2)
                for i in range(5)]
    profiles += [SkillProfile(f"p{i}", (("poetry", 0.7), ("graphs", 0.2)), k=2)
                 for i in range(2)]
    profiles.append(SkillProfile("quiet", (), k=2))
    partition = skill_partition(profiles, n_groups=n_groups, seed=4)
    assert set(partition) == {p.student for p in profiles}
    assert partition["quiet"] == UNOBSERVED_GROUP
    groups = {}
    for student, label in partition.items():
        groups.setdefault(label, set()).add(student)
    del groups[UNOBSERVED_GROUP]
    assert len(groups) == n_groups
    dominant = {p.student: p.dominant_term() for p in profiles}
    for members in groups.values():
        assert len({dominant[s] for s in members}) == 1, members
    assert skill_partition(profiles, n_groups=n_groups, seed=4) == partition


def _random_profiles(seed):
    """Profiles over a small vocabulary with weights from {1, 0.5, 0.25},
    plus six students whose terms no one else uses, all at one weight.  Two
    hold "kappa" and "lambda" in the two orders, so their buckets' vectors
    are identical.  Four make the crossed tie cos(mu, xi) == cos(nu, omicron)."""
    rng = random.Random(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    profiles = []
    for i in range(rng.randint(6, 30)):
        terms = rng.sample(vocab, rng.randint(0, 4))
        weights = sorted((rng.choice([1.0, 0.5, 0.25]) for _ in terms), reverse=True)
        profiles.append(SkillProfile(f"s{i:03d}", tuple(zip(terms, weights)), k=4))
    w = rng.choice([1.0, 0.5])
    for i, terms in enumerate([("kappa", "lambda"), ("lambda", "kappa"), ("mu", "omega"),
                               ("xi", "omega"), ("nu", "psi"), ("omicron", "psi")]):
        profiles.append(SkillProfile(f"t{i:03d}", tuple((t, w) for t in terms), k=4))
    return profiles


def test_partition_matches_the_recompute_every_pair_reference():
    saw_twins = False
    for seed in range(30):
        profiles = _random_profiles(seed)
        vectors = {}
        for p in profiles:
            if p.terms:
                vector = vectors.setdefault(p.dominant_term(), {})
                for t, w in p.terms:
                    vector[t] = vector.get(t, 0.0) + w
        saw_twins |= len({tuple(sorted(v.items())) for v in vectors.values()}) < len(vectors)
        for n_groups in range(1, len(vectors) + 1):
            assert skill_partition(profiles, n_groups, seed=seed) == \
                reference_skill_partition(profiles, n_groups), (seed, n_groups)
    assert saw_twins


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


@pytest.mark.parametrize("k, use_idf, beta", [(1, False, 0.0), (5, True, 1.0), (40, True, 2.5)])
def test_refined_skills_json_reads_back_equal(k, use_idf, beta):
    msgs = synth_corpus(SynthParams(students=30, threads=6, posts=40, comments=120, seed=4))
    profiles = build_skill_profiles(msgs, k=k, use_idf=use_idf)
    ranks = {s: random.Random(s).random() for s in profiles}
    profiles = refine_by_rank(profiles, ranks, beta)
    buf = io.StringIO()
    write_skills_json(profiles, buf)
    assert read_skills_json(io.StringIO(buf.getvalue())) == profiles


def test_skills_json_rejects_non_numeric_weight():
    # no subcommand reads skills JSON, so the reader is called directly
    text = '[{"student": "a", "terms": [{"term": "x", "weight": "heavy"}], "k": 5, "refined": false}]'
    with pytest.raises(DataFormatError):
        read_skills_json(io.StringIO(text))


@pytest.mark.parametrize("k, weight", [("Infinity", "0.5"), ("5", "9" * 400)])
def test_skills_json_rejects_a_number_too_large_to_convert(k, weight):
    text = ('[{"student": "a", "terms": [{"term": "x", "weight": %s}], "k": %s, '
            '"refined": false}]' % (weight, k))
    with pytest.raises(DataFormatError, match="bad skill profile entry"):
        read_skills_json(io.StringIO(text))


@pytest.mark.parametrize("reader, text, message", [
    (read_skills_json, '{"student": "a"}', "must be an array"),
    (read_partition_json, '[["a", "g00"]]', "must map student ids"),
    (read_partition_json, '{"a": 0}', "must map student ids")])
def test_skills_and_partition_readers_refuse_the_wrong_container(reader, text, message):
    with pytest.raises(DataFormatError, match=message):
        reader(io.StringIO(text))


def test_partition_json_round_trip(tmp_path):
    partition = {"a": "g00", "b": "g01", "c": "g00"}
    path = tmp_path / "partition.json"
    with open(path, "w", encoding="utf-8") as fh:
        write_partition_json(partition, fh)
    with open(path, encoding="utf-8") as fh:
        assert read_partition_json(fh) == partition
