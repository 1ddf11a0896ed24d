"""Skill profiles mined from post text.

Each student gets a ranked list of their most frequent non-stopword
terms, optionally boosted by a network rank score, plus a grouping of
students by skill similarity that feeds the brokerage analysis.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping

from .errors import DataFormatError, ParameterError, require_count, require_distinct, require_real
from .formats import json_field, read_json, refused_as, write_json
from .graph import StudentId
from .ingest import ForumMessage
from .metrics import left_sum

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Group label for students whose posts yield no usable terms.
UNOBSERVED_GROUP = "unobserved"

#: Profiling defaults: skills per student, shortest token, rank boost, IDF.
SKILL_K = 5
MIN_LEN = 3
SKILL_BETA = 1.0
USE_IDF = False


def default_stopwords() -> frozenset[str]:
    """English stopword list shipped with the package."""
    text = resources.files("moocteams.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def tokenize(text: str, stopwords: frozenset[str] | set[str],
             min_len: int = MIN_LEN) -> list[str]:
    """Lowercase alphanumeric tokens, stopwords and short tokens removed."""
    return _tokens(text, stopwords, require_count(min_len, "min_len"))


def _tokens(text: str, stopwords: frozenset[str] | set[str], min_len: int) -> list[str]:
    """:func:`tokenize` with ``min_len`` already checked."""
    return [t for t in _TOKEN_RE.findall(text.lower())
            if len(t) >= min_len and t not in stopwords]


def term_distribution(messages: Iterable[ForumMessage],
                      stopwords: frozenset[str] | set[str],
                      min_len: int = MIN_LEN) -> dict[str, float]:
    """Relative frequency of each retained term across one author's posts.

    Returns an empty mapping when nothing survives filtering; otherwise
    the probabilities sum to 1.
    """
    return _distribution(Counter(tokenize(_joined(messages), stopwords, min_len)))


def _joined(messages: Iterable[ForumMessage]) -> str:
    """The bodies joined by a space: a token never spans the space, so the
    join has each body's tokens."""
    return " ".join([msg.body for msg in messages])


def _distribution(counts: Counter[str]) -> dict[str, float]:
    """Each term's share of ``counts``, in term order; empty when nothing was counted."""
    total = sum(counts.values())
    if total == 0:
        return {}
    return {term: count / total for term, count in sorted(counts.items())}


def top_k_skills(dist: Mapping[str, float], k: int) -> tuple[tuple[str, float], ...]:
    """The k largest-probability terms, ties broken alphabetically."""
    k = require_count(k, "k")
    ranked = sorted(dist.items(), key=lambda item: (-item[1], item[0]))
    return tuple(ranked[:k])


@dataclass(frozen=True)
class SkillProfile:
    """Ranked (term, weight) skills for one student.

    ``terms`` is non-increasing in weight; before refinement the weights
    are probabilities and sum to at most 1.
    """

    student: StudentId
    terms: tuple[tuple[str, float], ...]
    k: int
    refined: bool = False

    def dominant_term(self) -> str | None:
        return self.terms[0][0] if self.terms else None


def check_beta(beta, name: str = "beta") -> float:
    """``beta`` as a float; ParameterError unless it is finite and non-negative."""
    return require_real(beta, name, 0.0)


def refine_skills(profile: SkillProfile, rank_score: float,
                  beta: float = SKILL_BETA) -> SkillProfile:
    """Boost every weight by (1 + beta * rank_score).

    ``rank_score`` is a graph rank (PageRank or authority) normalized to
    [0,1] by the graph maximum.  The boost is uniform, so the term
    ordering never changes; boosted weights may exceed 1.
    """
    beta, rank_score = check_beta(beta), require_real(rank_score, "rank_score", 0.0, 1.0)
    return _boosted(profile, 1.0 + beta * rank_score)


def _boosted(profile: SkillProfile, factor: float) -> SkillProfile:
    return SkillProfile(profile.student, tuple((t, w * factor) for t, w in profile.terms),
                        profile.k, refined=True)


def refine_by_rank(profiles: Mapping[StudentId, SkillProfile],
                   ranks: Mapping[StudentId, float],
                   beta: float = SKILL_BETA) -> dict[StudentId, SkillProfile]:
    """:func:`refine_skills` every profile with its rank over the top rank.

    The score is 0 for a student without a rank, and for everyone when the
    top rank is not positive.  A ``beta`` of 0 boosts nothing, so the
    profiles come back unchanged and unrefined.  ``beta`` is checked once.
    """
    beta = check_beta(beta)
    if beta == 0:
        return dict(profiles)
    top = max(ranks.values(), default=0.0)
    refined = {}
    for s, p in profiles.items():
        score = require_real(ranks.get(s, 0.0) / top if top > 0 else 0.0,
                             "rank_score", 0.0, 1.0)
        refined[s] = _boosted(p, 1.0 + beta * score)
    return refined


def build_skill_profiles(messages: Iterable[ForumMessage], k: int = SKILL_K,
                         min_len: int = MIN_LEN,
                         stopwords: frozenset[str] | set[str] | None = None,
                         use_idf: bool = USE_IDF) -> dict[StudentId, SkillProfile]:
    """Profile every named author appearing in ``messages``.

    With ``use_idf`` the raw counts are weighted by log inverse document
    frequency (document = message) before normalization, damping terms
    common to the whole corpus.
    """
    k, min_len = require_count(k, "k"), require_count(min_len, "min_len")
    if stopwords is None:
        stopwords = default_stopwords()
    msgs = [m for m in messages if m.author is not None]
    by_author: dict[StudentId, list[ForumMessage]] = {}
    for m in msgs:
        by_author.setdefault(m.author, []).append(m)
    idf: dict[str, float] = {}
    if use_idf:
        # each body is tokenized once: its term set goes to the document
        # frequencies, its tokens to its author's
        doc_terms: list[str] = []
        tokens_of: dict[StudentId, list[str]] = {author: [] for author in by_author}
        for m in msgs:
            tokens = _tokens(m.body, stopwords, min_len)
            doc_terms += set(tokens)
            tokens_of[m.author] += tokens
        n_docs = len(msgs)
        idf = {t: math.log((1 + n_docs) / (1 + df)) + 1.0
               for t, df in Counter(doc_terms).items()}
    profiles: dict[StudentId, SkillProfile] = {}
    for author in sorted(by_author):
        dist = _distribution(Counter(tokens_of.pop(author) if use_idf
                                     else _tokens(_joined(by_author[author]), stopwords, min_len)))
        if use_idf and dist:
            weighted = {t: p * idf[t] for t, p in dist.items()}
            total = left_sum(weighted.values())
            dist = {t: w / total for t, w in sorted(weighted.items())}
        profiles[author] = SkillProfile(author, top_k_skills(dist, k) if dist else (),
                                        k=k)
    return profiles


# -- partitioning ------------------------------------------------------------

def _cosine(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    dot = left_sum(w * b[t] for t, w in a.items() if t in b)
    if dot == 0.0:
        return 0.0
    na = math.sqrt(left_sum(w * w for w in a.values()))
    nb = math.sqrt(left_sum(w * w for w in b.values()))
    return dot / (na * nb)


@dataclass
class _Cluster:
    key: str
    members: list[StudentId]
    vector: dict[str, float]


def skill_partition(profiles: Iterable[SkillProfile], n_groups: int,
                    seed: int = 0) -> dict[StudentId, str]:
    """Group students by skill-term similarity into at most ``n_groups``.

    Students are first bucketed by dominant term, then buckets are
    greedily merged by cosine similarity of their aggregated term
    vectors until ``n_groups`` remain.  When there are fewer buckets
    than groups, the largest buckets are split with a seeded shuffle.
    Students with empty profiles land in the "unobserved" group, which
    does not count against ``n_groups``.  Deterministic per seed.
    """
    profiles = list(profiles)
    n_groups, seed = require_count(n_groups, "n_groups"), require_count(seed, "seed", least=0)
    if n_groups > len(profiles):
        raise ParameterError(
            f"cannot form {n_groups} groups from {len(profiles)} students")
    require_distinct((p.student for p in profiles), "the skill profiles")

    partition: dict[StudentId, str] = {}
    buckets: dict[str, _Cluster] = {}
    for p in sorted(profiles, key=lambda p: p.student):
        dom = p.dominant_term()
        if dom is None:
            partition[p.student] = UNOBSERVED_GROUP
            continue
        cluster = buckets.get(dom)
        if cluster is None:
            cluster = buckets[dom] = _Cluster(dom, [], {})
        cluster.members.append(p.student)
        for t, w in p.terms:
            cluster.vector[t] = cluster.vector.get(t, 0.0) + w

    clusters = [buckets[k] for k in sorted(buckets)]
    target = min(n_groups, sum(len(c.members) for c in clusters))

    # Each pair's cosine, keyed (smaller key, larger key) and computed with
    # the smaller-keyed vector first.  A merge keeps the smaller key, so the
    # keys stay unique and only the merged cluster's pairs change.
    sims = {(a.key, b.key): _cosine(a.vector, b.vector)
            for i, a in enumerate(clusters) for b in clusters[i + 1:]}
    while len(clusters) > target:
        _, key_a, key_b = min((-sim, ka, kb) for (ka, kb), sim in sims.items())
        a, b = buckets[key_a], buckets[key_b]
        a.members.extend(b.members)
        for t, w in b.vector.items():
            a.vector[t] = a.vector.get(t, 0.0) + w
        clusters.remove(b)
        sims = {pair: sim for pair, sim in sims.items() if key_b not in pair}
        for c in clusters:
            if c.key < key_a:
                sims[c.key, key_a] = _cosine(c.vector, a.vector)
            elif c.key > key_a:
                sims[key_a, c.key] = _cosine(a.vector, c.vector)

    rng = random.Random(seed)
    while len(clusters) < target:
        # occurs only when distinct dominant terms undershoot n_groups
        splittable = max(clusters, key=lambda c: (len(c.members), c.key))
        members = sorted(splittable.members)
        rng.shuffle(members)
        half = len(members) // 2
        splittable.members = sorted(members[:half])
        splittable.key = splittable.members[0]
        moved = sorted(members[half:])
        clusters.append(_Cluster(moved[0], moved, dict(splittable.vector)))

    clusters.sort(key=lambda c: min(c.members))
    for idx, cluster in enumerate(clusters):
        label = f"g{idx:02d}"
        for student in cluster.members:
            partition[student] = label
    return partition


# -- serialization -----------------------------------------------------------

def write_skills_json(profiles: Mapping[StudentId, SkillProfile], stream) -> None:
    """The profiles in student order, each entry built as it is written."""
    write_json(({"student": s, "k": profiles[s].k, "refined": profiles[s].refined,
                 "terms": [{"term": t, "weight": w} for t, w in profiles[s].terms]}
                for s in sorted(profiles)), stream)


def read_skills_json(stream) -> dict[StudentId, SkillProfile]:
    payload = read_json(stream, "skills")
    if not isinstance(payload, list):
        raise DataFormatError("skills JSON must be an array of profiles")
    profiles: dict[StudentId, SkillProfile] = {}
    for entry in payload:
        with refused_as("bad skill profile entry: {!r}", entry):
            student = json_field(entry, "student", str)
            terms = tuple((json_field(d, "term", str), json_field(d, "weight", float))
                          for d in json_field(entry, "terms", list))
            k, weights = json_field(entry, "k", int), [w for _, w in terms]
            if student in profiles:
                raise DataFormatError(f"a second profile of {student!r}")
            if k < 1 or len(terms) > k:
                raise DataFormatError(f"{len(terms)} terms for k={k}")
            if min(weights, default=0.0) < 0 or weights != sorted(weights, reverse=True):
                raise DataFormatError(f"weights {weights} are negative or rise")
            profiles[student] = SkillProfile(student, terms, k,
                                             json_field(entry, "refined", bool))
    return profiles


def write_partition_json(partition: Mapping[StudentId, str], stream) -> None:
    write_json(dict(partition), stream)


def read_partition_json(stream) -> dict[StudentId, str]:
    payload = read_json(stream, "partition")
    if not isinstance(payload, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in payload.items()):
        raise DataFormatError("partition JSON must map student ids to group labels")
    return dict(payload)
