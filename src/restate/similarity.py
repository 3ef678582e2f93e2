"""Sentence similarity behind semantic constraint satisfaction.

One scorer, SpanSimilarity: the cosine of two bags of hashed character
3-grams, computed from their integer counts (fully self-contained and
deterministic). Any object with its score method can stand in for it.
"""

from __future__ import annotations

import math


class EmptyInput(ValueError):
    """Raised when an embedder receives an empty token sequence."""


class ZeroVector(ValueError):
    """Raised by SpanSimilarity.score for a constraint with no 3-gram."""


_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_MASK = (1 << 64) - 1

# HashedNgramEmbedder's number of buckets and character n-gram length.
EMBED_DIM = 256
NGRAM = 3


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK
    return h


# Entries each of the scorer's and the embedder's memos holds before it
# is cleared.
MEMO_CAP = 4096


class HashedNgramEmbedder:
    """Bag of hashed character 3-grams, as {bucket: count}.

    Tokens are joined with single spaces and padded with one leading and
    trailing space; each 3-gram is hashed with FNV-1a 64-bit into one of
    EMBED_DIM buckets. embed returns the count of every bucket hit, a
    plain integer, so it is bit-exact on every platform. Each distinct
    3-gram's bucket is memoized, at most MEMO_CAP of them.
    """

    def __init__(self):
        self._buckets: dict[str, int] = {}

    def embed(self, tokens) -> dict[int, int]:
        if not tokens:
            raise EmptyInput("cannot embed an empty token sequence")
        s = " " + " ".join(tokens).lower() + " "
        buckets = self._buckets
        counts: dict[int, int] = {}
        for i in range(len(s) - NGRAM + 1):
            gram = s[i:i + NGRAM]
            b = buckets.get(gram)
            if b is None:
                if len(buckets) >= MEMO_CAP:
                    buckets.clear()
                b = buckets[gram] = _fnv1a(gram.encode("utf-8")) % EMBED_DIM
            counts[b] = counts.get(b, 0) + 1
        return counts


class SpanSimilarity:
    """Scores a constraint against a decoded prefix.

    The score of a prefix of t tokens is the maximum cosine between the
    constraint's 3-gram counts and those of any span in its window: the
    suffixes prefix[k:t] for max(0, t - len(constraint)) <= k < t, each
    ending at the newest token and no longer than the constraint. The
    constraint id plays no part, so one scorer instance can safely serve
    many inputs whose constraint ids collide.

    A span's cosine is dot / sqrt(span_sq * constraint_sq), where the dot
    product and both sums of squared counts are exact integers; only the
    square root and the divide round, and IEEE rounds them the same on
    every host. A span with no 3-gram is skipped; a constraint with none
    raises ZeroVector. The upper clamp at 1.0 covers products past 2**53,
    whose conversion to float can round.

    The window looks back no further than the constraint's length, so a
    score depends only on the constraint's tokens and the last
    len(constraint) prefix tokens: score is memoized on that pair. One
    cache, keyed by token tuple, holds (counts, sum of squared counts)
    for constraints and spans alike; the embedder must be a pure function
    of its tokens. Each memo holds at most MEMO_CAP entries and is
    cleared when full, which is exact because score is pure. With the
    hashed embedder, both memos at the cap and the embedder's bucket
    memo hold under 3 MB (2.1 MB measured with tracemalloc for 4,096
    one-token spans).
    """

    def __init__(self, embedder):
        self.embedder = embedder
        self._bags: dict[tuple, tuple] = {}
        self._scores: dict[tuple, float] = {}

    def _embed(self, tokens: tuple) -> tuple:
        """(bucket counts, sum of squared counts) of a token tuple."""
        entry = self._bags.get(tokens)
        if entry is None:
            counts = self.embedder.embed(list(tokens))
            entry = (counts, sum(c * c for c in counts.values()))
            if len(self._bags) >= MEMO_CAP:
                self._bags.clear()
            self._bags[tokens] = entry
        return entry

    def score(self, constraint_id: str, constraint_tokens, prefix_tokens) -> float:
        if not prefix_tokens:
            return 0.0
        t = len(prefix_tokens)
        clen = len(constraint_tokens)
        key = (tuple(constraint_tokens),
               tuple(prefix_tokens[max(0, t - clen):]))
        best = self._scores.get(key)
        if best is None:
            ccounts, csq = self._embed(key[0])
            best = 0.0
            for k in range(max(0, t - clen), t):  # longest span first
                counts, sq = self._embed(tuple(prefix_tokens[k:]))
                if not sq:
                    continue
                if not csq:
                    raise ZeroVector("no 3-gram in constraint %r" % (key[0],))
                dot = sum(c * ccounts.get(b, 0) for b, c in counts.items())
                best = max(best, min(dot / math.sqrt(sq * csq), 1.0))
            if len(self._scores) >= MEMO_CAP:
                self._scores.clear()
            self._scores[key] = best
        return best
