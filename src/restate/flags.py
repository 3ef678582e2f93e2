"""Mention-flag state machine over the concatenated input sequence.

Each input position carries a flag in {0, 1, 2}: 0 = not part of any
constraint, 1 = constraint not yet satisfied, 2 = satisfied. Style
(first-person) positions run the opposite direction: they start at 2
and drop to 1 once the output emits a trigger-lexicon token. One column
is recorded per emitted output token, so the full matrix has shape
(input length) x (1 + output length); the leading column is the
initialization state that accompanies the start symbol.
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
    first_person_lexicon: frozenset = FIRST_PERSON
    second_person_lexicon: frozenset = SECOND_PERSON

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
            return self.first_person_lexicon
        return self.second_person_lexicon


def candidate_spans(t: int, clen: int) -> set[tuple[int, int]]:
    """Window of output spans checked at step t for a constraint of clen tokens.

    Every span ends at the newest token (position t) and is at most clen
    tokens long: intervals [k, t) for max(0, t - clen) <= k < t.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if clen < 1:
        raise ValueError("clen must be >= 1")
    return {(k, t) for k in range(max(0, t - clen), t)}


class MentionFlagMatrix:
    """Current flag column plus the per-step history.

    constraint_index maps each input position to the id of the single
    constraint that owns it (or None). When constraint spans overlap,
    the earliest-listed constraint owns the shared cells; a later
    constraint still has its satisfaction tracked, it just flips fewer
    (possibly zero) cells. Style positions are first-person-lexicon
    tokens outside every constraint span.
    """

    def __init__(self, x_tokens: list[str], constraint_rows, config: SatisfierConfig):
        n = len(x_tokens)
        self.x_tokens = list(x_tokens)
        self.config = config
        self.constraint_rows = [tuple(r) for r in constraint_rows]
        for row in self.constraint_rows:
            for p in row:
                if p < 0 or p >= n:
                    raise IndexOutOfRange("position %d outside input of length %d" % (p, n))
        self.constraint_index: list[int | None] = [None] * n
        self.owned: list[tuple[int, ...]] = []
        self.constraint_tokens: list[tuple[str, ...]] = []
        for cid, row in enumerate(self.constraint_rows):
            own = []
            for p in row:
                if self.constraint_index[p] is None:
                    self.constraint_index[p] = cid
                    own.append(p)
            self.owned.append(tuple(own))
            self.constraint_tokens.append(tuple(x_tokens[p] for p in row))
        self.satisfied = [False] * len(self.constraint_rows)
        self.current = np.zeros(n, dtype=np.int8)
        self.style_positions: tuple[int, ...] = ()
        self.style_active = False
        if config.mode != "off":
            for row in self.constraint_rows:
                for p in row:
                    self.current[p] = 1
            if config.style_enabled:
                style = [i for i, tok in enumerate(x_tokens)
                         if tok.lower() in config.first_person_lexicon
                         and self.constraint_index[i] is None]
                self.style_positions = tuple(style)
                self.style_active = True
                for p in style:
                    self.current[p] = 2
        self.output_tokens: list[str] = []
        self.history: list[np.ndarray] = [self.current.copy()]

    # -- queries ---------------------------------------------------------
    def n_constraints(self) -> int:
        return len(self.constraint_rows)

    def satisfied_count(self) -> int:
        return sum(self.satisfied)

    def matrix(self) -> np.ndarray:
        """Full history, shape (input length, 1 + output length)."""
        return np.stack(self.history, axis=1)

    def column(self) -> np.ndarray:
        return self.current.copy()

    def record_step(self, token: str) -> None:
        """Close the column for one emitted token (call after updates)."""
        self.output_tokens.append(token)
        self.history.append(self.current.copy())

    def clone(self) -> "MentionFlagMatrix":
        m = object.__new__(MentionFlagMatrix)
        m.x_tokens = self.x_tokens
        m.config = self.config
        m.constraint_rows = self.constraint_rows
        m.constraint_index = self.constraint_index
        m.owned = self.owned
        m.constraint_tokens = self.constraint_tokens
        m.satisfied = list(self.satisfied)
        m.current = self.current.copy()
        m.style_positions = self.style_positions
        m.style_active = self.style_active
        m.output_tokens = list(self.output_tokens)
        m.history = list(self.history)
        return m


def init_flags(x_tokens: list[str], constraint_rows,
               config: SatisfierConfig) -> MentionFlagMatrix:
    """Build the step-0 matrix: constraint positions 1, style positions 2,
    everything else 0. With mode 'off' the whole column is 0 and stays so."""
    return MentionFlagMatrix(x_tokens, constraint_rows, config)


def update_semantic(m: MentionFlagMatrix, cid: int, sim_now: float,
                    sim_prev: float, config: SatisfierConfig) -> MentionFlagMatrix:
    """Flip constraint cid to satisfied when both similarity gates pass.

    sim_now is the max cosine over candidate_spans at the current step,
    sim_prev the same quantity one step earlier (0 before the first
    step). The flip needs sim_now > threshold_a and a jump
    (sim_now - sim_prev) > threshold_b; it is permanent.
    """
    if config.mode == "off" or m.satisfied[cid]:
        return m
    if sim_now > config.threshold_a and (sim_now - sim_prev) > config.threshold_b:
        m.satisfied[cid] = True
        for p in m.owned[cid]:
            m.current[p] = 2
    return m


def contains_contiguous(prefix, tokens) -> bool:
    """True if tokens appear verbatim and contiguously inside prefix."""
    k = len(tokens)
    if k == 0 or k > len(prefix):
        return False
    target = list(tokens)
    return any(list(prefix[i:i + k]) == target for i in range(len(prefix) - k + 1))


def update_lexical(m: MentionFlagMatrix, cid: int,
                   decoded_prefix) -> MentionFlagMatrix:
    """Exact-match flip: constraint cid must occur verbatim in the prefix."""
    if m.config.mode == "off" or m.satisfied[cid]:
        return m
    if contains_contiguous(decoded_prefix, m.constraint_tokens[cid]):
        m.satisfied[cid] = True
        for p in m.owned[cid]:
            m.current[p] = 2
    return m


def update_style(m: MentionFlagMatrix, newest_output_token: str,
                 config: SatisfierConfig) -> MentionFlagMatrix:
    """Drop style positions from 2 to 1 when a trigger-lexicon token is emitted."""
    if not m.style_active or config.mode == "off":
        return m
    if newest_output_token.lower() in config.trigger_lexicon():
        for p in m.style_positions:
            if m.current[p] == 2:
                m.current[p] = 1
    return m


def trace(m: MentionFlagMatrix, fmt: str = "tsv") -> str:
    """Dump the matrix: header = start symbol plus output tokens, one row
    per input token, cells 0/1/2."""
    grid = m.matrix()
    headers = [START_COLUMN_HEADER] + list(m.output_tokens)
    if fmt == "tsv":
        lines = ["\t".join(["x\\y"] + headers)]
        for i, tok in enumerate(m.x_tokens):
            lines.append("\t".join([tok] + [str(int(v)) for v in grid[i]]))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "x_tokens": m.x_tokens,
            "output_tokens": list(m.output_tokens),
            "columns": headers,
            "matrix": [[int(v) for v in row] for row in grid],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    raise ValueError("fmt must be 'tsv' or 'json'")


class FlagTracker:
    """Drives a MentionFlagMatrix token by token during decoding.

    scorer must expose score(constraint_id, constraint_tokens,
    prefix_tokens) -> float; it is only consulted in semantic mode.
    constraint_ids name the constraints for scorer lookups (defaults to
    'c0', 'c1', ...).
    """

    def __init__(self, x_tokens, constraint_rows, config: SatisfierConfig,
                 scorer=None, constraint_ids=None):
        self.m = init_flags(x_tokens, constraint_rows, config)
        self.config = config
        self.scorer = scorer
        n = self.m.n_constraints()
        if constraint_ids is None:
            constraint_ids = ["c%d" % i for i in range(n)]
        if len(constraint_ids) != n:
            raise ValueError("constraint_ids count mismatch")
        self.constraint_ids = list(constraint_ids)
        self.prefix: list[str] = []
        self.sim_prev = [0.0] * n
        if config.mode == "semantic" and n > 0 and scorer is None:
            raise ValueError("semantic mode needs a similarity scorer")

    def step(self, token: str) -> None:
        """Advance one output token: update constraints, then style, then
        snapshot the column."""
        self.prefix.append(token)
        if self.config.mode == "semantic":
            for cid in range(self.m.n_constraints()):
                if self.m.satisfied[cid]:
                    continue
                sim_now = float(self.scorer.score(
                    self.constraint_ids[cid],
                    self.m.constraint_tokens[cid],
                    self.prefix))
                update_semantic(self.m, cid, sim_now, self.sim_prev[cid], self.config)
                self.sim_prev[cid] = sim_now
        elif self.config.mode == "lexical":
            # every earlier prefix was checked and a flip is permanent, so
            # a new match must end at the newest token
            for cid, tokens in enumerate(self.m.constraint_tokens):
                update_lexical(self.m, cid, self.prefix[-len(tokens):])
        update_style(self.m, token, self.config)
        self.m.record_step(token)

    def column(self) -> np.ndarray:
        return self.m.column()

    def matrix(self) -> np.ndarray:
        return self.m.matrix()

    def clone(self) -> "FlagTracker":
        t = object.__new__(FlagTracker)
        t.m = self.m.clone()
        t.config = self.config
        t.scorer = self.scorer
        t.constraint_ids = self.constraint_ids
        t.prefix = list(self.prefix)
        t.sim_prev = list(self.sim_prev)
        return t


def replay_flags(x_tokens, constraint_rows, output_tokens,
                 config: SatisfierConfig, scorer=None,
                 constraint_ids=None) -> MentionFlagMatrix:
    """Reconstruct the full matrix offline for a finished output."""
    tracker = FlagTracker(x_tokens, constraint_rows, config,
                          scorer=scorer, constraint_ids=constraint_ids)
    for tok in output_tokens:
        tracker.step(tok)
    return tracker.m
