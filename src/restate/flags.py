"""Mention flags over the concatenated input sequence (after Wang et
al. 2021, "Mention Flags").

Each input position carries a flag in {0, 1, 2}: 0 = not part of any
constraint, 1 = constraint not yet satisfied, 2 = satisfied. Style
(first-person) positions run the opposite direction: they start at 2
and drop to 1 once the output emits a trigger-lexicon token.

FlagTracker holds the whole state for one input and advances it one
output token at a time. It records one column per emitted token, so
its matrix has shape (input length) x (1 + output length); the leading
column is the initialization state that accompanies the start symbol.
The search clones a tracker for every surviving hypothesis, and
replay_flags rebuilds a finished output's matrix offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

FIRST_PERSON = frozenset(
    {"i", "me", "my", "mine", "we", "us", "our", "ours", "myself", "ourselves"})
SECOND_PERSON = frozenset({"you", "your", "yours", "yourself", "yourselves"})

START_COLUMN_HEADER = "<sep>"


class IndexOutOfRange(ValueError):
    """Raised when a constraint index set points outside the input."""


@dataclass(frozen=True)
class SatisfierConfig:
    """Thresholds and switches governing flag updates.

    mode 'semantic' flips constraints on windowed-similarity gates,
    'lexical' on verbatim containment, 'off' disables flags entirely
    (the matrix stays all-zero). style_trigger picks which pronoun
    lexicon flips style flags from 2 to 1 when emitted.
    """

    threshold_a: float = 0.8
    threshold_b: float = 0.3
    mode: str = "semantic"
    style_enabled: bool = False
    style_trigger: str = "first_person"

    def __post_init__(self):
        if not (0.0 <= self.threshold_a <= 1.0):
            raise ValueError("threshold_a outside [0, 1]")
        if not (0.0 <= self.threshold_b <= 1.0):
            raise ValueError("threshold_b outside [0, 1]")
        if self.mode not in ("semantic", "lexical", "off"):
            raise ValueError("mode must be semantic, lexical or off")
        if self.style_trigger not in ("first_person", "second_person"):
            raise ValueError("style_trigger must be first_person or second_person")

    def trigger_lexicon(self) -> frozenset:
        if self.style_trigger == "first_person":
            return FIRST_PERSON
        return SECOND_PERSON


def contains_contiguous(prefix, tokens) -> bool:
    """True if tokens appear verbatim and contiguously inside prefix."""
    k = len(tokens)
    if k == 0 or k > len(prefix):
        return False
    target = list(tokens)
    return any(list(prefix[i:i + k]) == target for i in range(len(prefix) - k + 1))


def trace(tracker: FlagTracker, fmt: str = "tsv") -> str:
    """Dump the matrix: header = start symbol plus output tokens, one row
    per input token, cells 0/1/2."""
    grid = tracker.matrix()
    headers = [START_COLUMN_HEADER] + list(tracker.output_tokens)
    if fmt == "tsv":
        lines = ["\t".join(["x\\y"] + headers)]
        for i, tok in enumerate(tracker.x_tokens):
            lines.append("\t".join([tok] + [str(int(v)) for v in grid[i]]))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "x_tokens": tracker.x_tokens,
            "output_tokens": list(tracker.output_tokens),
            "columns": headers,
            "matrix": [[int(v) for v in row] for row in grid],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    raise ValueError("fmt must be 'tsv' or 'json'")


class FlagTracker:
    """Flag state for one input, advanced one output token at a time.

    constraint_index maps each input position to the index of the single
    constraint that owns it (or None). When constraint spans overlap,
    the earliest-listed constraint owns the shared cells; a later
    constraint still has its satisfaction tracked, it just flips fewer
    (possibly zero) cells. Style positions are first-person-lexicon
    tokens outside every constraint span.

    scorer must expose score(constraint_id, constraint_tokens,
    prefix_tokens) -> float, where constraint i is named 'c<i>'; it is
    only consulted in semantic mode.
    """

    def __init__(self, x_tokens, constraint_rows, config: SatisfierConfig,
                 scorer=None):
        n = len(x_tokens)
        rows = [tuple(r) for r in constraint_rows]
        for row in rows:
            for p in row:
                if p < 0 or p >= n:
                    raise IndexOutOfRange("position %d outside input of length %d" % (p, n))
        if config.mode == "semantic" and rows and scorer is None:
            raise ValueError("semantic mode needs a similarity scorer")
        self.x_tokens = list(x_tokens)
        self.config = config
        self.scorer = scorer
        self.constraint_index: list[int | None] = [None] * n
        self.owned: list[tuple[int, ...]] = []
        self.constraint_tokens: list[tuple[str, ...]] = []
        for cid, row in enumerate(rows):
            own = []
            for p in row:
                if self.constraint_index[p] is None:
                    self.constraint_index[p] = cid
                    own.append(p)
            self.owned.append(tuple(own))
            self.constraint_tokens.append(tuple(x_tokens[p] for p in row))
        self.satisfied = [False] * len(rows)
        # per constraint, the similarity one step earlier (semantic mode)
        self.sim_prev = [0.0] * len(rows)
        self.current = np.zeros(n, dtype=np.int8)
        self.style_positions: tuple[int, ...] = ()
        if config.mode != "off":
            for row in rows:
                self.current[list(row)] = 1
            if config.style_enabled:
                self.style_positions = tuple(
                    i for i, tok in enumerate(x_tokens)
                    if tok.lower() in FIRST_PERSON
                    and self.constraint_index[i] is None)
                self.current[list(self.style_positions)] = 2
        self.output_tokens: list[str] = []
        self.history: list[np.ndarray] = [self.current.copy()]

    def step(self, token: str) -> None:
        """Advance one output token: flip newly satisfied constraints to
        2, drop style positions to 1 on a trigger token, then snapshot
        the column. Both flips are permanent."""
        self.output_tokens.append(token)
        if self.config.mode != "off":
            for cid, tokens in enumerate(self.constraint_tokens):
                if not self.satisfied[cid] and self._met(cid, tokens):
                    self.satisfied[cid] = True
                    self.current[list(self.owned[cid])] = 2
        if (self.style_positions
                and token.lower() in self.config.trigger_lexicon()):
            self.current[list(self.style_positions)] = 1
        self.history.append(self.current.copy())

    def _met(self, cid: int, tokens) -> bool:
        """Does the newest token satisfy unsatisfied constraint cid?

        Lexical: the constraint occurs verbatim. Every earlier prefix
        was checked, so a new match must end at the newest token.
        Semantic: the best windowed similarity sim_now (see
        SpanSimilarity) exceeds threshold_a and jumped by more than
        threshold_b since the previous step.
        """
        out = self.output_tokens
        if self.config.mode == "lexical":
            return tuple(out[-len(tokens):]) == tokens
        sim_now = float(self.scorer.score("c%d" % cid, tokens, out))
        jump = sim_now - self.sim_prev[cid]
        self.sim_prev[cid] = sim_now
        return (sim_now > self.config.threshold_a
                and jump > self.config.threshold_b)

    def column(self) -> np.ndarray:
        return self.current.copy()

    def matrix(self) -> np.ndarray:
        """Full history, shape (input length, 1 + output length)."""
        return np.stack(self.history, axis=1)

    def clone(self) -> "FlagTracker":
        """An independent copy; the input-derived fields are shared."""
        t = object.__new__(FlagTracker)
        t.__dict__.update(self.__dict__)
        t.satisfied = list(self.satisfied)
        t.sim_prev = list(self.sim_prev)
        t.current = self.current.copy()
        t.output_tokens = list(self.output_tokens)
        t.history = list(self.history)
        return t


def replay_flags(x_tokens, constraint_rows, output_tokens,
                 config: SatisfierConfig, scorer=None) -> FlagTracker:
    """Reconstruct the flags offline for a finished output."""
    tracker = FlagTracker(x_tokens, constraint_rows, config, scorer=scorer)
    for tok in output_tokens:
        tracker.step(tok)
    return tracker
