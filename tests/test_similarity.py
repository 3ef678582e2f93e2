"""Embedding backends and cosine scoring."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restate import similarity
from restate.flags import SatisfierConfig, replay_flags
from restate.similarity import (DimensionMismatch, EmptyInput,
                                HashedNgramEmbedder, SpanSimilarity,
                                ZeroVector, cosine)


# Independent re-implementation of the hash embedding, used as an oracle.
# The counts and their sum of squares are exact integers, so it gives the
# embedder's bytes, not just its values.
def ref_embed(tokens, dim=256):
    s = " " + " ".join(tokens).lower() + " "
    v = [0.0] * dim
    for i in range(len(s) - 2):
        h = 14695981039346656037
        for b in s[i:i + 3].encode("utf-8"):
            h ^= b
            h = (h * 1099511628211) & ((1 << 64) - 1)
        v[h % dim] += 1.0
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v] if n else v


def test_cosine_identity():
    v = np.array([0.3, -1.2, 4.0])
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_cosine_hand_value():
    # dot = 32, norms sqrt(14) and sqrt(77)
    got = cosine([1, 2, 3], [4, 5, 6])
    assert got == pytest.approx(0.9746, abs=1e-4)
    assert got == pytest.approx(32.0 / math.sqrt(14 * 77), abs=1e-12)


def test_cosine_errors():
    with pytest.raises(DimensionMismatch):
        cosine([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ZeroVector):
        cosine([0.0, 0.0], [1.0, 2.0])


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8),
       st.floats(0.01, 100.0))
def test_cosine_symmetry_and_scale(xs, alpha):
    u = np.array(xs) + 0.1  # keep away from the zero vector
    v = np.linspace(1.0, 2.0, len(xs))
    assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
    assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-9)


def test_embed_deterministic():
    e = HashedNgramEmbedder()
    a = e.embed(["cat"])
    b = e.embed(["cat"])
    assert np.array_equal(a, b)


def test_embed_unit_norm():
    e = HashedNgramEmbedder()
    assert np.linalg.norm(e.embed(["abc"])) == pytest.approx(1.0, abs=1e-12)


def test_embed_empty_raises():
    with pytest.raises(EmptyInput):
        HashedNgramEmbedder().embed([])


def test_embed_matches_reference_bit_exact():
    e = HashedNgramEmbedder()
    for toks in (["cat"], ["have", "a", "camera"], ["Dell", "XPS", "13"]):
        assert np.array_equal(e.embed(toks), np.array(ref_embed(toks)))


def test_paraphrase_scores_higher_than_unrelated():
    e = HashedNgramEmbedder()
    base = e.embed(["have", "a", "camera"])
    near = cosine(base, e.embed(["has", "a", "camera"]))
    far = cosine(base, e.embed(["ship", "to", "brazil"]))
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
                assert len(sim._vectors) <= cap
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
    constraint, longest first, zero-vector spans skipped."""
    if not prefix:
        return 0.0
    cvec = np.array(ref_embed(constraint))
    best = 0.0
    t = len(prefix)
    for k in range(max(0, t - len(constraint)), t):
        vec = np.array(ref_embed(prefix[k:]))
        if vec.any():
            best = max(best, cosine(vec, cvec))
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
            assert (embedder.embed(tokens).tobytes()
                    == np.array(ref_embed(tokens)).tobytes())


class TableEmbedder:
    """Returns fixed vectors per token tuple."""

    def __init__(self, table):
        self.table = table

    def embed(self, tokens):
        return np.array(self.table[tuple(tokens)], dtype=np.float64)


def test_score_raises_what_cosine_raises():
    sim = SpanSimilarity(TableEmbedder({("c",): [1.0, 1.0, 1.0],
                                        ("x",): [1.0, 2.0]}))
    with pytest.raises(DimensionMismatch):
        sim.score("c0", ["c"], ["x"])
    sim = SpanSimilarity(TableEmbedder({("c",): [0.0, 0.0],
                                        ("x",): [1.0, 2.0]}))
    with pytest.raises(ZeroVector):
        sim.score("c0", ["c"], ["x"])
    # a zero-vector span is skipped before either check
    sim = SpanSimilarity(TableEmbedder({("c",): [0.0, 0.0],
                                        ("x",): [0.0, 0.0, 0.0]}))
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
            assert len(sim._vectors) <= similarity.MEMO_CAP
            assert len(sim._scores) <= similarity.MEMO_CAP
            if i % 97 == 0:
                want = SpanSimilarity(embedder).score("c0", ("w1",), prefix)
                assert repr(got) == repr(want)
            held = max(held, tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    assert 0 < len(sim._vectors) < similarity.MEMO_CAP
    assert held < 12e6
    assert sim.score("c0", ("w1",), ["w1"]) == pytest.approx(1.0, abs=1e-12)
