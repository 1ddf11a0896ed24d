"""Skill profiles mined from post text.

Each student gets a ranked list of their most frequent non-stopword
terms, optionally boosted by a network rank score, plus a grouping of
students by skill similarity that feeds the brokerage analysis.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, replace
from importlib import resources
from typing import Iterable, Mapping

from .errors import DataFormatError, ParameterError
from .graph import StudentId
from .ingest import ForumMessage

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Group label for students whose posts yield no usable terms.
UNOBSERVED_GROUP = "unobserved"


def default_stopwords() -> frozenset[str]:
    """English stopword list shipped with the package."""
    text = resources.files("moocteams.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def tokenize(text: str, stopwords: frozenset[str] | set[str],
             min_len: int = 3) -> list[str]:
    """Lowercase alphanumeric tokens, stopwords and short tokens removed."""
    return [t for t in _TOKEN_RE.findall(text.lower())
            if len(t) >= min_len and t not in stopwords]


def term_distribution(messages: Iterable[ForumMessage],
                      stopwords: frozenset[str] | set[str],
                      min_len: int = 3) -> dict[str, float]:
    """Relative frequency of each retained term across one author's posts.

    Returns an empty mapping when nothing survives filtering; otherwise
    the probabilities sum to 1.
    """
    counts: dict[str, int] = {}
    for msg in messages:
        for token in tokenize(msg.body, stopwords, min_len=min_len):
            counts[token] = counts.get(token, 0) + 1
    total = sum(counts.values())
    if total == 0:
        return {}
    return {term: count / total for term, count in sorted(counts.items())}


def top_k_skills(dist: Mapping[str, float], k: int) -> tuple[tuple[str, float], ...]:
    """The k largest-probability terms, ties broken alphabetically."""
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
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

    def weight_of(self, term: str) -> float:
        for t, w in self.terms:
            if t == term:
                return w
        return 0.0


def refine_skills(profile: SkillProfile, rank_score: float,
                  beta: float = 1.0) -> SkillProfile:
    """Boost every weight by (1 + beta * rank_score).

    ``rank_score`` is a graph rank (PageRank or authority) normalized to
    [0,1] by the graph maximum.  The boost is uniform, so the term
    ordering never changes; boosted weights may exceed 1.
    """
    if beta < 0:
        raise ParameterError(f"beta must be non-negative, got {beta}")
    if not 0.0 <= rank_score <= 1.0:
        raise ParameterError(f"rank_score must lie in [0, 1], got {rank_score}")
    factor = 1.0 + beta * rank_score
    boosted = tuple((t, w * factor) for t, w in profile.terms)
    return replace(profile, terms=boosted, refined=True)


def build_skill_profiles(messages: Iterable[ForumMessage], k: int = 5,
                         min_len: int = 3,
                         stopwords: frozenset[str] | set[str] | None = None,
                         use_idf: bool = False) -> dict[StudentId, SkillProfile]:
    """Profile every named author appearing in ``messages``.

    With ``use_idf`` the raw counts are weighted by log inverse document
    frequency (document = message) before normalization, damping terms
    common to the whole corpus.
    """
    if stopwords is None:
        stopwords = default_stopwords()
    msgs = [m for m in messages if m.author is not None]
    by_author: dict[StudentId, list[ForumMessage]] = {}
    for m in msgs:
        by_author.setdefault(m.author, []).append(m)
    idf: dict[str, float] = {}
    if use_idf:
        doc_freq: dict[str, int] = {}
        for m in msgs:
            for term in set(tokenize(m.body, stopwords, min_len=min_len)):
                doc_freq[term] = doc_freq.get(term, 0) + 1
        n_docs = len(msgs)
        idf = {t: math.log((1 + n_docs) / (1 + df)) + 1.0
               for t, df in doc_freq.items()}
    profiles: dict[StudentId, SkillProfile] = {}
    for author in sorted(by_author):
        dist = term_distribution(by_author[author], stopwords, min_len=min_len)
        if use_idf and dist:
            weighted = {t: p * idf[t] for t, p in dist.items()}
            total = sum(weighted.values())
            dist = {t: w / total for t, w in sorted(weighted.items())}
        profiles[author] = SkillProfile(author, top_k_skills(dist, k) if dist else (),
                                        k=k)
    return profiles


# -- partitioning ------------------------------------------------------------

def _cosine(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    dot = sum(w * b[t] for t, w in a.items() if t in b)
    if dot == 0.0:
        return 0.0
    na = math.sqrt(sum(w * w for w in a.values()))
    nb = math.sqrt(sum(w * w for w in b.values()))
    return dot / (na * nb)


class _Cluster:
    __slots__ = ("key", "members", "vector")

    def __init__(self, key: str, members: list[StudentId],
                 vector: dict[str, float]):
        self.key = key
        self.members = members
        self.vector = vector


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
    if n_groups < 1:
        raise ParameterError(f"n_groups must be at least 1, got {n_groups}")
    if n_groups > len(profiles):
        raise ParameterError(
            f"cannot form {n_groups} groups from {len(profiles)} students")
    seen: set[StudentId] = set()
    for p in profiles:
        if p.student in seen:
            raise ParameterError(f"duplicate profile for student {p.student!r}")
        seen.add(p.student)

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

    while len(clusters) > target:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                sim = _cosine(clusters[i].vector, clusters[j].vector)
                cand = (-sim, clusters[i].key, clusters[j].key, i, j)
                if best is None or cand < best:
                    best = cand
        _, _, _, i, j = best
        a, b = clusters[i], clusters[j]
        a.members.extend(b.members)
        for t, w in b.vector.items():
            a.vector[t] = a.vector.get(t, 0.0) + w
        a.key = min(a.key, b.key)
        del clusters[j]

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
    payload = [
        {
            "student": s,
            "terms": [{"term": t, "weight": w} for t, w in profiles[s].terms],
            "k": profiles[s].k,
            "refined": profiles[s].refined,
        }
        for s in sorted(profiles)
    ]
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def read_skills_json(stream) -> dict[StudentId, SkillProfile]:
    try:
        payload = json.load(stream)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid skills JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise DataFormatError("skills JSON must be an array of profiles")
    profiles: dict[StudentId, SkillProfile] = {}
    for entry in payload:
        try:
            terms = tuple((d["term"], float(d["weight"])) for d in entry["terms"])
            profiles[entry["student"]] = SkillProfile(
                entry["student"], terms, k=int(entry["k"]),
                refined=bool(entry["refined"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"bad skill profile entry: {entry!r}") from exc
    return profiles


def write_partition_json(partition: Mapping[StudentId, str], stream) -> None:
    json.dump(dict(sorted(partition.items())), stream, indent=2, sort_keys=True)
    stream.write("\n")


def read_partition_json(stream) -> dict[StudentId, str]:
    try:
        payload = json.load(stream)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid partition JSON: {exc}") from exc
    if not isinstance(payload, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in payload.items()):
        raise DataFormatError("partition JSON must map student ids to group labels")
    return dict(payload)
