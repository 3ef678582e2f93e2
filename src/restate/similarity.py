"""Sentence similarity behind semantic constraint satisfaction.

Two interchangeable scorers: SpanSimilarity over a hashed
character-3-gram bag (fully self-contained), and an injected lookup
table for replaying fixed similarity sequences in tests. Both are
deterministic.
"""

from __future__ import annotations

import json

import numpy as np

from .flags import candidate_spans


class EmptyInput(ValueError):
    """Raised when an embedder receives an empty token sequence."""


class ZeroVector(ValueError):
    """Raised by cosine when either vector has zero norm."""


class DimensionMismatch(ValueError):
    """Raised by cosine on vectors of different lengths."""


class MissingEntry(KeyError):
    """Raised when an injected similarity table lacks a requested key."""


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
    """dot(u, v) / (|u| |v|), clamped into [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch("%s vs %s" % (u.shape, v.shape))
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine undefined for zero-norm vector")
    return float(np.clip(float(u @ v) / (nu * nv), -1.0, 1.0))


class HashedNgramEmbedder:
    """L2-normalized bag of hashed character 3-grams.

    Tokens are joined with single spaces and padded with one leading and
    trailing space; each 3-gram is hashed with FNV-1a 64-bit and bucketed
    modulo the output dimension, EMBED_DIM. Bit-exact across platforms
    by construction.
    """

    def embed(self, tokens) -> np.ndarray:
        if not tokens:
            raise EmptyInput("cannot embed an empty token sequence")
        s = " " + " ".join(tokens).lower() + " "
        v = np.zeros(EMBED_DIM, dtype=np.float64)
        for i in range(len(s) - NGRAM + 1):
            gram = s[i:i + NGRAM]
            v[_fnv1a(gram.encode("utf-8")) % EMBED_DIM] += 1.0
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            v /= norm
        return v


# Entries each of SpanSimilarity's two memos holds before it is cleared.
MEMO_CAP = 4096


class SpanSimilarity:
    """Scores a constraint against a decoded prefix.

    The score at step t is the maximum cosine between the constraint's
    embedding and the embedding of any candidate span (suffixes of the
    prefix no longer than the constraint). The constraint id plays no
    part, so one scorer instance can safely serve many inputs whose
    constraint ids collide.

    candidate_spans looks back no further than the constraint's length,
    so a score depends only on the constraint's tokens and the last
    len(constraint) prefix tokens: score is memoized on that pair. One
    embedding cache, keyed by token tuple, serves constraint and span
    vectors alike. Every miss still goes through embedder.embed and
    cosine, so a memoized score is the same float as a fresh one; the
    embedder must be a pure function of its tokens. Each memo holds at
    most MEMO_CAP entries and is cleared when full, which is exact
    because score is pure. With the EMBED_DIM = 256 hashed embedder
    both memos at the cap hold about 11 MB.
    """

    def __init__(self, embedder):
        self.embedder = embedder
        self._vectors: dict[tuple, np.ndarray] = {}
        self._scores: dict[tuple, float] = {}

    def _embed(self, tokens: tuple) -> np.ndarray:
        vec = self._vectors.get(tokens)
        if vec is None:
            vec = self.embedder.embed(list(tokens))
            if len(self._vectors) >= MEMO_CAP:
                self._vectors.clear()
            self._vectors[tokens] = vec
        return vec

    def score(self, constraint_id: str, constraint_tokens, prefix_tokens) -> float:
        if not prefix_tokens:
            return 0.0
        t = len(prefix_tokens)
        clen = len(constraint_tokens)
        key = (tuple(constraint_tokens),
               tuple(prefix_tokens[max(0, t - clen):]))
        best = self._scores.get(key)
        if best is None:
            cvec = self._embed(key[0])
            best = 0.0
            for k, l in sorted(candidate_spans(t, clen)):
                span_vec = self._embed(tuple(prefix_tokens[k:l]))
                if not span_vec.any():
                    continue
                best = max(best, cosine(span_vec, cvec))
            if len(self._scores) >= MEMO_CAP:
                self._scores.clear()
            self._scores[key] = best
        return best


class InjectedTableSimilarity:
    """Replay scorer: similarity values come from a fixture table keyed
    by "constraint_id:prefix_len"."""

    def __init__(self, table: dict):
        self.table = {str(k): float(v) for k, v in table.items()}

    @classmethod
    def from_json(cls, path) -> "InjectedTableSimilarity":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def sim_lookup(self, constraint_id: str, prefix_len: int) -> float:
        key = "%s:%d" % (constraint_id, prefix_len)
        if key not in self.table:
            raise MissingEntry(key)
        return self.table[key]

    def score(self, constraint_id: str, constraint_tokens, prefix_tokens) -> float:
        return self.sim_lookup(constraint_id, len(prefix_tokens))
