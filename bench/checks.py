"""Output checks and digests, run outside the timed region.

Every decoded output must agree with an independent recomputation:
its score with teacher-forced rescoring, its flag matrix with an
offline replay, and (for a finished constrained search) its tokens with
every constraint. A digest of the outputs makes any change visible even
when the quality metrics do not move.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from restate import flags
from restate.similarity import HashedNgramEmbedder, SpanSimilarity

SCORE_TOLERANCE = 1e-9


@dataclass
class Output:
    """The parts of a DecodeResult that the checks and the digest read."""

    id: str
    tokens: list
    score: float
    normalized_score: float
    finished: bool
    unsatisfiable: bool
    flag_matrix: np.ndarray

    @classmethod
    def of(cls, rec_id, result):
        return cls(rec_id, list(result.tokens), result.score,
                   result.normalized_score, result.finished,
                   result.unsatisfiable, result.flag_matrix)

    def chosen_tokens(self):
        """Tokens whose log-probabilities the score sums (stop included)."""
        return len(self.tokens) + (1 if self.finished else 0)


class Checker:
    """Checks outputs of one model under one satisfier configuration."""

    def __init__(self, model, config, constrained):
        self.model = model
        self.config = config
        self.constrained = constrained
        # a scorer of its own, so the replay shares no cache with decoding
        self.scorer = (SpanSimilarity(HashedNgramEmbedder())
                       if config.mode == "semantic" else None)

    def rescore(self, rec, out):
        probs = self.model.forward(rec["x_tokens"], out.tokens,
                                   out.flag_matrix)
        vocab = self.model.vocab
        ids = vocab.encode(out.tokens)
        if out.finished:
            ids.append(vocab.eos_id)
        with np.errstate(divide="ignore"):
            return float(sum(float(np.log(probs[t, i]))
                             for t, i in enumerate(ids)))

    def failures(self, rec, out):
        """Names of the checks this output fails; empty when it is valid."""
        failed = []
        if not (math.isfinite(out.score)
                and math.isfinite(out.normalized_score)):
            failed.append("score_not_finite")
        rows = [tuple(r) for r in rec["constraint_rows"]]
        replay = flags.replay_flags(rec["x_tokens"], rows, out.tokens,
                                    self.config, scorer=self.scorer)
        expected = replay.matrix()
        if not np.array_equal(expected, out.flag_matrix):
            failed.append("flags_differ_from_replay")
        # rescoring needs one flag column per decoder position
        if (np.shape(out.flag_matrix) == expected.shape
                and not abs(self.rescore(rec, out) - out.score)
                <= SCORE_TOLERANCE):
            failed.append("score_differs_from_rescoring")
        if self.constrained and out.finished and not out.unsatisfiable:
            x = rec["x_tokens"]
            for row in rows:
                if not flags.contains_contiguous(out.tokens,
                                                 [x[i] for i in row]):
                    failed.append("constraint_missing")
                    break
        return failed


def digest(outputs):
    """SHA-256 over the exact outputs: tokens, stop state, score, flags."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(json.dumps({
            "id": out.id, "tokens": out.tokens, "score": repr(out.score),
            "finished": out.finished, "unsatisfiable": out.unsatisfiable,
            "flags": np.asarray(out.flag_matrix).tolist(),
        }, sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
