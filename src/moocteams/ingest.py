"""Forum export parsing, reply-graph construction, and synthetic corpora.

The ingestion atom is one post or comment.  Posts start or continue a
thread (no parent), comments reply to a specific earlier message.  The
reply graph draws an edge from the replier to the author of the message
replied to.
"""

from __future__ import annotations

import json
import json.scanner
import random
from dataclasses import dataclass
from typing import IO, Iterable

from .errors import DataFormatError, ParameterError, ParsedEnum, require_count, require_real
from .graph import SocialGraph, StudentId


@dataclass(frozen=True, slots=True)
class ForumMessage:
    """One post or comment from a forum export.  A corpus holds thousands of
    these until its skill profiles are built, so they keep their fields in
    slots, without a per-instance dict."""

    id: str
    thread_id: str
    timestamp: int
    body: str = ""
    parent_id: str | None = None   # absent for thread-level posts
    author: str | None = None      # absent for anonymous messages


@dataclass
class ParseResult:
    """Outcome of parsing a JSON-Lines export."""

    messages: list[ForumMessage]
    skipped: int = 0
    anonymous: int = 0

    @property
    def parsed(self) -> int:
        return len(self.messages)


def _coerce_message(obj: object, names: dict[str, str]) -> ForumMessage | None:
    """Validate one decoded JSONL record, its names drawn from ``names``; None if malformed."""
    if not isinstance(obj, dict):
        return None
    msg_id = obj.get("id")
    thread_id = obj.get("thread_id")
    timestamp = obj.get("timestamp")
    if not isinstance(msg_id, str) or not msg_id:
        return None
    if not isinstance(thread_id, str) or not thread_id:
        return None
    if isinstance(timestamp, bool) or not isinstance(timestamp, int) or timestamp < 0:
        return None
    parent_id = obj.get("parent_id")
    if parent_id is not None and not isinstance(parent_id, str):
        return None
    author = obj.get("author")
    if author is not None and not isinstance(author, str):
        return None
    body = obj.get("body", "")
    if not isinstance(body, str):
        return None
    return ForumMessage(id=names.setdefault(msg_id, msg_id), timestamp=timestamp, body=body,
                        thread_id=names.setdefault(thread_id, thread_id),
                        parent_id=parent_id and names.setdefault(parent_id, parent_id),
                        author=author and names.setdefault(author, author) or None)


def parse_forum_export(stream: IO[str] | IO[bytes] | Iterable[str]) -> ParseResult:
    """Parse a JSON-Lines forum export, one object per line.

    Malformed lines (bad JSON, JSON nested too deep to decode, a number
    too long to read, missing/ill-typed required fields, or a duplicate
    message id) are skipped and counted.  More than half the non-blank
    lines being malformed is treated as the wrong file and raises
    :class:`DataFormatError`.

    Each stripped line is decoded by one call of json's scanner, the C call
    behind ``json.loads``, which accepts the same lines: the strip has
    removed the whitespace ``json.loads`` would skip, the scanner finds no
    value at a BOM, which ``json.loads`` refuses, and trailing data leaves
    the value's end short of the line's.

    Each distinct id, thread id, parent id or author is held as one string
    object, so a ``parent_id`` is the ``id`` object of the message it names.
    """
    scan = json.scanner.make_scanner(json.JSONDecoder())
    result = ParseResult(messages=[])
    seen_ids: set[str] = set()
    names: dict[str, str] = {}
    total = 0
    for raw in stream:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8", errors="replace")
        line = raw.strip()
        if not line:
            continue
        total += 1
        try:
            obj, end = scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = None  # no value at 0; or JSONDecodeError, a ValueError
        if end != len(line):
            result.skipped += 1
            continue
        msg = _coerce_message(obj, names)
        if msg is None or msg.id in seen_ids:
            result.skipped += 1
            continue
        seen_ids.add(msg.id)
        if msg.author is None:
            result.anonymous += 1
        result.messages.append(msg)
    if total > 0 and result.skipped * 2 > total:
        raise DataFormatError(
            f"{result.skipped} of {total} lines malformed; input does not look like a forum export")
    return result


def write_jsonl(messages: Iterable[ForumMessage], stream: IO[str]) -> None:
    """Serialize messages back to the JSONL export schema."""
    for m in messages:
        stream.write(json.dumps({
            "id": m.id, "thread_id": m.thread_id, "parent_id": m.parent_id,
            "author": m.author, "timestamp": m.timestamp, "body": m.body,
        }, sort_keys=True) + "\n")


class ReplyPolicy(ParsedEnum):
    """How a thread-level post (no parent_id) resolves its reply target."""

    #: A non-starter post replies to the thread starter's author.
    STARTER_FALLBACK = "STARTER_FALLBACK"
    #: Thread-level posts produce no edge; only explicit parents count.
    COMMENTS_ONLY = "COMMENTS_ONLY"


REPLY_POLICY = ReplyPolicy.STARTER_FALLBACK  #: the default policy


@dataclass
class BuildReport:
    """Diagnostics from reply-graph construction."""

    interactions: int = 0            # resolved non-anonymous, non-self replies
    dropped_missing_parent: int = 0  # parent_id not found in the corpus
    dropped_anonymous: int = 0       # either endpoint posted anonymously
    dropped_self_reply: int = 0


def build_reply_graph(messages: Iterable[ForumMessage],
                      policy: ReplyPolicy = REPLY_POLICY,
                      ) -> tuple[SocialGraph, BuildReport]:
    """Build the directed weighted reply graph.

    Edge u -> v accumulates one unit of weight per reply by u to a message
    authored by v.  Anonymous endpoints and self-replies never produce
    edges.  Every non-anonymous author becomes a node even when none of
    their interactions survive, so lurk-free participants are retained
    with degree 0.  Construction is order-independent: shuffling the
    message list yields an identical graph.
    """
    msgs = list(messages)
    by_id = {m.id: m for m in msgs}
    # Thread starter: earliest parentless post per thread, ties broken by id.
    starters: dict[str, ForumMessage] = {}
    for m in msgs:
        if m.parent_id is None:
            cur = starters.get(m.thread_id)
            if cur is None or (m.timestamp, m.id) < (cur.timestamp, cur.id):
                starters[m.thread_id] = m

    report = BuildReport()
    weights: dict[tuple[StudentId, StudentId], int] = {}
    authors = {m.author for m in msgs if m.author is not None}
    for m in msgs:
        if m.parent_id is not None:
            parent = by_id.get(m.parent_id)
            if parent is None:
                report.dropped_missing_parent += 1
                continue
        elif policy is ReplyPolicy.STARTER_FALLBACK:
            starter = starters.get(m.thread_id)
            if starter is None or starter.id == m.id:
                continue  # the starter itself replies to nobody
            parent = starter
        else:
            continue
        if m.author is None or parent.author is None:
            report.dropped_anonymous += 1
            continue
        if m.author == parent.author:
            report.dropped_self_reply += 1
            continue
        weights[(m.author, parent.author)] = weights.get((m.author, parent.author), 0) + 1
        report.interactions += 1
    return SocialGraph(weights, nodes=authors), report


# -- synthetic fixtures ----------------------------------------------------

#: Topic vocabularies planted into synthetic bodies so that downstream
#: skill profiling has recoverable structure.
TOPIC_VOCABULARY: tuple[tuple[str, ...], ...] = (
    ("recursion", "graphs", "complexity", "automata", "compilers",
     "hashing", "sorting", "heaps", "parsing", "lambda"),
    ("calculus", "integrals", "derivatives", "limits", "series",
     "matrices", "eigenvalues", "vectors", "topology", "proofs"),
    ("poetry", "novels", "metaphor", "narrative", "sonnets",
     "criticism", "drama", "satire", "allegory", "rhetoric"),
    ("kinetics", "thermodynamics", "entropy", "optics", "quantum",
     "momentum", "circuits", "waves", "relativity", "plasma"),
    ("genetics", "proteins", "enzymes", "neurons", "ecology",
     "evolution", "cells", "membranes", "mitosis", "synapse"),
)

_FILLER_WORDS = ("the", "and", "this", "that", "with", "very", "have",
                 "about", "just", "really", "also", "think", "would")


@dataclass(frozen=True)
class SynthParams:
    """Knobs for the synthetic forum generator."""

    students: int
    threads: int
    posts: int
    comments: int
    seed: int = 0
    anonymous_fraction: float = 0.05

    def validate(self) -> None:
        for name in ("students", "threads", "posts", "comments", "seed"):
            object.__setattr__(self, name, require_count(getattr(self, name), name, least=0))
        if self.comments > 0 and self.posts == 0:
            raise ParameterError("comments require at least one post to attach to")
        object.__setattr__(self, "anonymous_fraction",
                           require_real(self.anonymous_fraction, "anonymous_fraction", 0.0, 1.0))


def synth_corpus(params: SynthParams) -> list[ForumMessage]:
    """Deterministically generate a forum corpus at the requested scale.

    Thread starters carry no parent; comments attach to a random earlier
    message in the corpus.  When there are at least as many non-anonymous
    messages as students, every student authors at least one message.
    Each student leans on one planted topic vocabulary so skill structure
    is recoverable from the text.
    """
    params.validate()
    rng = random.Random(params.seed)
    n = params.students
    students = [f"s{idx:05d}" for idx in range(n)]
    topic_of = {s: idx % len(TOPIC_VOCABULARY) for idx, s in enumerate(students)}

    total = params.posts + params.comments
    anon_flags = [rng.random() < params.anonymous_fraction for _ in range(total)]
    named_slots = total - sum(anon_flags)
    author_pool: list[str | None] = []
    if n > 0 and named_slots > 0:
        author_pool = list(students[:named_slots])
        if named_slots > n:
            author_pool += rng.choices(students, k=named_slots - n)
        rng.shuffle(author_pool)
    pool_iter = iter(author_pool)

    def next_author(i: int) -> str | None:
        if anon_flags[i] or n == 0:
            return None
        return next(pool_iter)

    def body_for(author: str | None) -> str:
        topic = TOPIC_VOCABULARY[topic_of[author]] if author is not None \
            else TOPIC_VOCABULARY[rng.randrange(len(TOPIC_VOCABULARY))]
        words = rng.choices(topic, k=rng.randint(4, 9)) + \
            rng.choices(_FILLER_WORDS, k=rng.randint(2, 5))
        rng.shuffle(words)
        return " ".join(words)

    base_ts = 1_600_000_000
    messages: list[ForumMessage] = []
    effective_threads = min(params.threads, params.posts)
    thread_ids = [f"t{idx:04d}" for idx in range(max(effective_threads, 1 if params.posts else 0))]
    for i in range(params.posts):
        if i < effective_threads:
            thread = thread_ids[i]          # starter
        else:
            thread = thread_ids[rng.randrange(len(thread_ids))]
        author = next_author(i)
        messages.append(ForumMessage(
            id=f"p{i:06d}", thread_id=thread, timestamp=base_ts + 60 * i,
            body=body_for(author), author=author))
    for j in range(params.comments):
        i = params.posts + j
        parent = messages[rng.randrange(len(messages))]
        author = next_author(i)
        messages.append(ForumMessage(
            id=f"c{j:06d}", thread_id=parent.thread_id, timestamp=base_ts + 60 * i,
            body=body_for(author), parent_id=parent.id, author=author))
    return messages
