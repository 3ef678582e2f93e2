"""Sentence similarity behind semantic constraint satisfaction.

One scorer, SpanSimilarity, over a hashed character-3-gram bag (fully
self-contained and deterministic). Any object with its score method
can stand in for it.
"""

from __future__ import annotations

import numpy as np


class EmptyInput(ValueError):
    """Raised when an embedder receives an empty token sequence."""


class ZeroVector(ValueError):
    """Raised by cosine when either vector has zero norm."""


class DimensionMismatch(ValueError):
    """Raised by cosine on vectors of different lengths."""


_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_MASK = (1 << 64) - 1

# HashedNgramEmbedder's output dimension and character n-gram length.
EMBED_DIM = 256
NGRAM = 3


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK
    return h


def cosine(u, v) -> float:
    """dot(u, v) / (|u| |v|), clamped into [-1, 1].

    The reference for SpanSimilarity, which runs the same operations
    inline on cached vectors and norms.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch("%s vs %s" % (u.shape, v.shape))
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine undefined for zero-norm vector")
    return float(np.clip(float(u @ v) / (nu * nv), -1.0, 1.0))


# Entries each of the scorer's and the embedder's memos holds before it
# is cleared.
MEMO_CAP = 4096


class HashedNgramEmbedder:
    """L2-normalized bag of hashed character 3-grams.

    Tokens are joined with single spaces and padded with one leading and
    trailing space; each 3-gram is hashed with FNV-1a 64-bit and bucketed
    modulo the output dimension, EMBED_DIM. Bit-exact across platforms
    by construction. Each distinct 3-gram's bucket is memoized, at most
    MEMO_CAP of them; the counts are small integers, so counting them in
    one bincount gives the same vector as adding them up one by one.
    """

    def __init__(self):
        self._buckets: dict[str, int] = {}

    def embed(self, tokens) -> np.ndarray:
        if not tokens:
            raise EmptyInput("cannot embed an empty token sequence")
        s = " " + " ".join(tokens).lower() + " "
        buckets = self._buckets
        idx = []
        for i in range(len(s) - NGRAM + 1):
            gram = s[i:i + NGRAM]
            b = buckets.get(gram)
            if b is None:
                if len(buckets) >= MEMO_CAP:
                    buckets.clear()
                b = buckets[gram] = _fnv1a(gram.encode("utf-8")) % EMBED_DIM
            idx.append(b)
        v = np.bincount(np.array(idx, dtype=np.intp),
                        minlength=EMBED_DIM).astype(np.float64)
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            v /= norm
        return v


class SpanSimilarity:
    """Scores a constraint against a decoded prefix.

    The score of a prefix of t tokens is the maximum cosine between the
    constraint's embedding and the embedding of any span in its window:
    the suffixes prefix[k:t] for max(0, t - len(constraint)) <= k < t,
    each ending at the newest token and no longer than the constraint.
    The constraint id plays no part, so one scorer instance can safely
    serve many inputs whose constraint ids collide.

    The window looks back no further than the constraint's length, so a
    score depends only on the constraint's tokens and the last
    len(constraint) prefix tokens: score is memoized on that pair. One
    embedding cache, keyed by token tuple, serves constraint and span
    vectors alike; it keeps each vector with its norm and whether it is
    non-zero. A miss computes each span's cosine inline, with cosine's
    checks and operations on the cached float64 vectors and norms, so a
    score is the same float as the maximum of cosine's; the embedder
    must be a pure function of its tokens. Each
    memo holds at most MEMO_CAP entries and is cleared when full, which
    is exact because score is pure. With the EMBED_DIM = 256 hashed
    embedder a cached vector takes about 2.2 KB (2,160 bytes of array,
    88 of norm and entry tuple), so both memos at the cap, with the
    embedder's bucket memo, hold about 11 MB (10.4-10.9 MB measured).
    """

    def __init__(self, embedder):
        self.embedder = embedder
        self._vectors: dict[tuple, tuple] = {}
        self._scores: dict[tuple, float] = {}

    def _embed(self, tokens: tuple) -> tuple:
        """(vector, its norm, whether it is non-zero) of a token tuple."""
        entry = self._vectors.get(tokens)
        if entry is None:
            vec = np.asarray(self.embedder.embed(list(tokens)),
                             dtype=np.float64)
            entry = (vec, float(np.linalg.norm(vec)), bool(vec.any()))
            if len(self._vectors) >= MEMO_CAP:
                self._vectors.clear()
            self._vectors[tokens] = entry
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
            cvec, cnorm, _ = self._embed(key[0])
            best = 0.0
            for k in range(max(0, t - clen), t):  # longest span first
                vec, norm, nonzero = self._embed(tuple(prefix_tokens[k:]))
                if not nonzero:
                    continue
                # cosine(vec, cvec), check for check and operation for
                # operation
                if vec.shape != cvec.shape:
                    raise DimensionMismatch("%s vs %s"
                                            % (vec.shape, cvec.shape))
                if norm == 0.0 or cnorm == 0.0:
                    raise ZeroVector("cosine undefined for zero-norm vector")
                sim = float(vec @ cvec) / (norm * cnorm)
                best = max(best, min(max(sim, -1.0), 1.0))
            if len(self._scores) >= MEMO_CAP:
                self._scores.clear()
            self._scores[key] = best
        return best
