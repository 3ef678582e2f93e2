"""Hashed 3-gram counts and the integer span scorer."""

import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restate import similarity
from restate.datagen import build_corpus, model_record
from restate.flags import SatisfierConfig, replay_flags
from restate.similarity import (EmptyInput, HashedNgramEmbedder,
                                SpanSimilarity, ZeroVector)


# Independent re-implementation of the hash embedding, used as an oracle:
# {bucket: count} over the 256 buckets, no zero entries.
def ref_embed(tokens, dim=256):
    s = " " + " ".join(tokens).lower() + " "
    counts = {}
    for i in range(len(s) - 2):
        h = 14695981039346656037
        for b in s[i:i + 3].encode("utf-8"):
            h ^= b
            h = (h * 1099511628211) & ((1 << 64) - 1)
        counts[h % dim] = counts.get(h % dim, 0) + 1
    return counts


def count_cosine(u, v, dim=256):
    """The cosine of two count dicts, over dense bucket lists: the dot
    product and both squared norms are exact integers."""
    u = [u.get(b, 0) for b in range(dim)]
    v = [v.get(b, 0) for b in range(dim)]
    dot = sum(x * y for x, y in zip(u, v))
    return dot / math.sqrt(sum(x * x for x in u) * sum(y * y for y in v))


def test_embed_deterministic():
    e = HashedNgramEmbedder()
    assert e.embed(["cat"]) == e.embed(["cat"])


def test_embed_counts_every_3gram():
    e = HashedNgramEmbedder()
    for toks in (["abc"], ["have", "a", "camera"], [""], ["", ""], ["İ"]):
        s = " " + " ".join(toks).lower() + " "
        counts = e.embed(toks)
        assert sum(counts.values()) == len(s) - 2
        assert all(type(c) is int and c > 0 for c in counts.values())
        assert all(0 <= b < similarity.EMBED_DIM for b in counts)


def test_embed_empty_raises():
    with pytest.raises(EmptyInput):
        HashedNgramEmbedder().embed([])


def test_embed_matches_reference_bit_exact():
    e = HashedNgramEmbedder()
    for toks in (["cat"], ["have", "a", "camera"], ["Dell", "XPS", "13"]):
        assert e.embed(toks) == ref_embed(toks)


def test_paraphrase_scores_higher_than_unrelated():
    e = HashedNgramEmbedder()
    base = e.embed(["have", "a", "camera"])
    near = count_cosine(base, e.embed(["has", "a", "camera"]))
    far = count_cosine(base, e.embed(["ship", "to", "brazil"]))
    assert near > far
    # frozen from the reference implementation run before the build
    assert near == pytest.approx(0.7454, abs=1e-3)


def test_span_similarity_exact_match_hits_one():
    sim = SpanSimilarity(HashedNgramEmbedder())
    score = sim.score("c0", ("a", "camera"), ["has", "a", "camera"])
    assert score == pytest.approx(1.0, abs=1e-9)


def test_span_similarity_window_limits_span_length():
    sim = SpanSimilarity(HashedNgramEmbedder())
    # only suffix spans of length <= 2 are scored; "x a camera" is not a span
    low = sim.score("c1", ("a", "camera"), ["a", "camera", "x"])
    assert low < 0.9


def test_span_similarity_empty_prefix_is_zero():
    sim = SpanSimilarity(HashedNgramEmbedder())
    assert sim.score("c0", ("a", "camera"), []) == 0.0


class CountingEmbedder(HashedNgramEmbedder):
    """The hashed embedder, recording the tokens of every embed call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def embed(self, tokens):
        self.calls.append(tuple(tokens))
        return super().embed(tokens)


class RecordingSimilarity(SpanSimilarity):
    """SpanSimilarity recording the (constraint, prefix) of every score."""

    def __init__(self, embedder):
        super().__init__(embedder)
        self.asked = []

    def score(self, constraint_id, constraint_tokens, prefix_tokens):
        self.asked.append((tuple(constraint_tokens), tuple(prefix_tokens)))
        return super().score(constraint_id, constraint_tokens, prefix_tokens)


WORDS = ["a", "camera", "has", "it", "the", "timer", "Dell", "xps", "13"]


class LookupRecordingSimilarity(SpanSimilarity):
    """SpanSimilarity recording every token tuple it looks up, memo hits
    included."""

    def __init__(self, embedder):
        super().__init__(embedder)
        self.looked_up = []

    def _embed(self, tokens):
        self.looked_up.append(tokens)
        return super()._embed(tokens)


@settings(max_examples=60, deadline=None)
@given(prefix=st.lists(st.sampled_from(WORDS), min_size=1, max_size=12),
       constraint=st.lists(st.sampled_from(WORDS), min_size=1, max_size=6),
       before=st.lists(st.sampled_from(WORDS), max_size=6))
def test_score_reads_only_its_window(prefix, constraint, before):
    sim = LookupRecordingSimilarity(HashedNgramEmbedder())
    score = sim.score("c0", constraint, prefix)
    assert sim.looked_up[0] == tuple(constraint)
    spans = sim.looked_up[1:]
    # one span per length 1..min(t, len(constraint)), longest first,
    # each ending at the newest token
    assert [len(s) for s in spans] == list(
        range(min(len(prefix), len(constraint)), 0, -1))
    assert all(s == tuple(prefix[len(prefix) - len(s):]) for s in spans)
    # once the window is full, the tokens before it do not change the score
    if len(prefix) >= len(constraint):
        window = prefix[len(prefix) - len(constraint):]
        fresh = SpanSimilarity(HashedNgramEmbedder())
        assert (repr(fresh.score("c0", constraint, before + window))
                == repr(score))


@settings(max_examples=60, deadline=None)
@given(stream=st.lists(st.sampled_from(WORDS), min_size=1, max_size=10),
       constraints=st.lists(st.lists(st.sampled_from(WORDS), min_size=1,
                                     max_size=4), min_size=1, max_size=3),
       cap=st.integers(1, 6))
def test_memoized_score_equals_fresh_scorer(stream, constraints, cap):
    # the cap is patched small, so both memos are cleared mid-stream
    embedder = HashedNgramEmbedder()
    sim = SpanSimilarity(embedder)
    with mock.patch.object(similarity, "MEMO_CAP", cap):
        # the stream twice over: the second pass is served by the memos
        for prefix in [stream[:t] for t in range(len(stream) + 1)] * 2:
            for tokens in constraints:
                got = sim.score("c0", tokens, prefix)
                want = SpanSimilarity(embedder).score("c0", tokens, prefix)
                assert repr(got) == repr(want)
                assert len(sim._bags) <= cap
                assert len(sim._scores) <= cap


def test_embed_runs_once_per_distinct_tuple():
    # a semantic replay whose output repeats itself, as a search's
    # hypotheses do: each span and constraint tuple is embedded once
    x = ["does", "it", "have", "a", "timer", "?", "yes", "it", "has", "a",
         "timer"]
    rows = [(2, 3, 4), (4,), (8, 9, 10)]
    out = ["yes", "it", "has", "a", "camera", "and", "it", "has", "a",
           "camera", "and", "a", "timer", "."]
    config = SatisfierConfig(mode="semantic")
    embedder = CountingEmbedder()
    sim = RecordingSimilarity(embedder)
    first = replay_flags(x, rows, out, config, scorer=sim)
    wanted = set()
    for tokens, prefix in sim.asked:
        wanted.add(tokens)
        t = len(prefix)
        wanted.update(prefix[k:] for k in range(max(0, t - len(tokens)), t))
    assert sorted(embedder.calls) == sorted(wanted)
    assert (len(sim.asked), len(embedder.calls)) == (41, 28)
    # a second replay on the same scorer is served by the memos alone
    again = replay_flags(x, rows, out, config, scorer=sim)
    assert len(embedder.calls) == 28
    assert np.array_equal(again.matrix(), first.matrix())
    fresh = replay_flags(x, rows, out, config,
                         scorer=SpanSimilarity(HashedNgramEmbedder()))
    assert np.array_equal(fresh.matrix(), first.matrix())
    assert fresh.sim_prev == first.sim_prev


def oracle_score(constraint, prefix):
    """The maximum cosine over the suffixes of prefix no longer than the
    constraint, longest first, spans without a 3-gram skipped."""
    if not prefix:
        return 0.0
    counts = ref_embed(constraint)
    best = 0.0
    t = len(prefix)
    for k in range(max(0, t - len(constraint)), t):
        span = ref_embed(prefix[k:])
        if span:
            if not counts:
                raise ZeroVector("constraint has no 3-gram")
            best = max(best, min(count_cosine(span, counts), 1.0))
    return best


def float_score(constraint, prefix):
    """oracle_score on L2-normalized float64 bucket vectors through numpy,
    the scorer's arithmetic before it counted in integers."""
    def unit(tokens):
        v = np.zeros(256)
        for b, c in ref_embed(tokens).items():
            v[b] = c
        norm = float(np.linalg.norm(v))
        return v / norm if norm else v

    if not prefix:
        return 0.0
    cvec = unit(constraint)
    cnorm = float(np.linalg.norm(cvec))
    best = 0.0
    t = len(prefix)
    for k in range(max(0, t - len(constraint)), t):
        vec = unit(prefix[k:])
        if vec.any():
            sim = float(vec @ cvec) / (float(np.linalg.norm(vec)) * cnorm)
            best = max(best, min(max(sim, -1.0), 1.0))
    return best


# any text, the empty string, punctuation and non-ASCII letters included
TOKENS = st.one_of(st.text(max_size=4), st.sampled_from(
    ["", " ", ",", "?!", "...", "Ünïcödé", "İ", "日本", "ß", "a", "camera"]))


@settings(max_examples=80, deadline=None)
@given(stream=st.lists(TOKENS, min_size=1, max_size=8),
       constraints=st.lists(st.lists(TOKENS, min_size=1, max_size=4),
                            min_size=1, max_size=3),
       cap=st.integers(1, 6))
def test_score_and_embed_match_the_reference(stream, constraints, cap):
    embedder = HashedNgramEmbedder()
    sim = SpanSimilarity(embedder)
    with mock.patch.object(similarity, "MEMO_CAP", cap):
        for prefix in [stream[:t] for t in range(len(stream) + 1)] * 2:
            for tokens in constraints:
                try:
                    want = repr(oracle_score(tokens, prefix))
                except ZeroVector:
                    want = "ZeroVector"
                try:
                    got = repr(sim.score("c0", tokens, prefix))
                except ZeroVector:
                    got = "ZeroVector"
                assert got == want
            assert len(embedder._buckets) <= cap
        for tokens in constraints + [stream]:
            assert embedder.embed(tokens) == ref_embed(tokens)


@settings(max_examples=200, deadline=None)
@given(prefix=st.lists(st.sampled_from(WORDS) | TOKENS, min_size=1,
                       max_size=12),
       constraint=st.lists(st.sampled_from(WORDS) | TOKENS, min_size=1,
                           max_size=6))
def test_score_is_the_float_cosine_within_1e_15(prefix, constraint):
    # the integer scorer moves a score by at most 1e-15 from the float
    # cosine it replaced, so a flag can move only where a score or a jump
    # sits that close to its threshold
    sim = SpanSimilarity(HashedNgramEmbedder())
    try:
        got = sim.score("c0", constraint, prefix)
    except ZeroVector:
        assert not ref_embed(constraint)
        return
    assert 0.0 <= got <= 1.0
    assert abs(got - float_score(constraint, prefix)) <= 1e-15


def test_recipe_replays_are_pinned():
    # every semantic replay of the benchmark recipe's training split, one
    # digest over repr(sim_prev) and the matrix bytes; the scorer runs on
    # integers, one square root and one divide, so no SIMD level or BLAS
    # kernel can move the digest
    config = SatisfierConfig(threshold_a=0.8, threshold_b=0.3,
                             mode="semantic")
    scorer = SpanSimilarity(HashedNgramEmbedder())
    digest = hashlib.sha256()
    for inst in build_corpus(0, (300, 100, 400)):
        if inst.split == "train":
            rec = model_record(inst)
            tracker = replay_flags(rec["x_tokens"], rec["constraint_rows"],
                                   rec["target_tokens"], config,
                                   scorer=scorer)
            digest.update(repr(tracker.sim_prev).encode())
            digest.update(tracker.matrix().tobytes())
    assert digest.hexdigest() == ("dba62e7f3e2e55f81c09328704300a1e"
                                  "ab62d7dc0000550559d69db795522f13")


class TableEmbedder:
    """Returns fixed bucket counts per token tuple."""

    def __init__(self, table):
        self.table = table

    def embed(self, tokens):
        return dict(self.table[tuple(tokens)])


def test_score_raises_what_cosine_raises():
    # the cosine against a constraint with no 3-gram is undefined
    sim = SpanSimilarity(TableEmbedder({("c",): {}, ("x",): {0: 1, 1: 2}}))
    with pytest.raises(ZeroVector):
        sim.score("c0", ["c"], ["x"])
    # a span with no 3-gram is skipped before the check
    sim = SpanSimilarity(TableEmbedder({("c",): {}, ("x",): {}}))
    assert sim.score("c0", ["c"], ["x"]) == 0.0


def test_memo_stays_under_its_ceiling():
    # more distinct one-token spans than MEMO_CAP: the memos are cleared
    # when full, the scores do not change, and the memory held stays
    # under the SpanSimilarity docstring's ceiling
    embedder = HashedNgramEmbedder()
    sim = SpanSimilarity(embedder)
    n = 2 * similarity.MEMO_CAP + 100
    prefixes = [["w%d" % i] for i in range(n)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = 0
        for i, prefix in enumerate(prefixes):
            got = sim.score("c0", ("w1",), prefix)
            assert len(sim._bags) <= similarity.MEMO_CAP
            assert len(sim._scores) <= similarity.MEMO_CAP
            if i % 97 == 0:
                want = SpanSimilarity(embedder).score("c0", ("w1",), prefix)
                assert repr(got) == repr(want)
            held = max(held, tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    assert 0 < len(sim._bags) < similarity.MEMO_CAP
    assert held < 3e6
    assert sim.score("c0", ("w1",), ["w1"]) == pytest.approx(1.0, abs=1e-12)
