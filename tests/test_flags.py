"""Flag tracker initialization, updates, clones, traces, and invariants,
replayed through a fixture table of similarities."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from restate.flags import (FIRST_PERSON, FlagTracker, IndexOutOfRange,
                           SatisfierConfig, contains_contiguous, replay_flags,
                           trace)
from restate.similarity import HashedNgramEmbedder, SpanSimilarity

SCREEN_X = ["The", "screen", "has", "full", "touchscreen", "function"]
SCREEN_ROW = [(2, 3, 4, 5)]
SCREEN_OUT = ["Dell", "Laptop", "comes", "with", "full", "touchscreen", "."]
SCREEN_SIMS = [0.21, 0.26, 0.28, 0.26, 0.37, 0.85, 0.76]

SHIP_X = ["We", "can", "ship", "to", "Brazil"]
SHIP_OUT = ["Dell", "XPS", "can", "be", "shipped", "by", "us", "to", "Brazil", "."]


class MissingEntry(KeyError):
    """Raised when an injected similarity table lacks a requested key."""


class InjectedTableSimilarity:
    """Replay scorer: similarity values come from a fixture table keyed
    by "constraint_id:prefix_len"."""

    def __init__(self, table: dict):
        self.table = {str(k): float(v) for k, v in table.items()}

    def sim_lookup(self, constraint_id: str, prefix_len: int) -> float:
        key = "%s:%d" % (constraint_id, prefix_len)
        if key not in self.table:
            raise MissingEntry(key)
        return self.table[key]

    def score(self, constraint_id: str, constraint_tokens, prefix_tokens) -> float:
        return self.sim_lookup(constraint_id, len(prefix_tokens))


def screen_table():
    return InjectedTableSimilarity(
        {"c0:%d" % (i + 1): s for i, s in enumerate(SCREEN_SIMS)})


def semantic_cfg(**kw):
    return SatisfierConfig(mode="semantic", **kw)


# -------------------------------------------------------------------- table

def test_injected_table_lookup_and_missing():
    t = InjectedTableSimilarity({"c0:6": 0.85, "c0:7": 0.76})
    assert t.sim_lookup("c0", 6) == 0.85
    assert t.score("c0", ("any",), ["a"] * 7) == 0.76
    with pytest.raises(MissingEntry):
        t.sim_lookup("c0", 1)


# ------------------------------------------------------------------- init

def test_init_constraint_column():
    tracker = FlagTracker(SCREEN_X, SCREEN_ROW, semantic_cfg(),
                          scorer=screen_table())
    assert tracker.column().tolist() == [0, 0, 1, 1, 1, 1]


def test_init_style_column():
    cfg = semantic_cfg(style_enabled=True)
    tracker = FlagTracker(SHIP_X, [], cfg)
    assert tracker.column().tolist() == [2, 0, 0, 0, 0]


def test_init_no_constraints_all_zero():
    tracker = FlagTracker(["a", "b", "c"], [], semantic_cfg())
    assert tracker.column().tolist() == [0, 0, 0]


def test_init_mode_off_zeroes_everything():
    cfg = SatisfierConfig(mode="off", style_enabled=True)
    tracker = FlagTracker(SHIP_X, [(1, 2)], cfg)
    assert tracker.column().tolist() == [0, 0, 0, 0, 0]


def test_init_out_of_range():
    with pytest.raises(IndexOutOfRange):
        FlagTracker(["a", "b"], [(1, 2)], semantic_cfg(),
                    scorer=screen_table())


def test_constraint_membership_beats_style_at_init():
    # a first-person token inside a constraint span starts at 1, not 2
    cfg = semantic_cfg(style_enabled=True)
    tracker = FlagTracker(["ship", "to", "us"], [(1, 2)], cfg,
                          scorer=screen_table())
    assert tracker.column().tolist() == [0, 1, 1]
    assert tracker.style_positions == ()


def test_config_validation():
    with pytest.raises(ValueError):
        SatisfierConfig(threshold_a=1.5)
    with pytest.raises(ValueError):
        SatisfierConfig(threshold_b=-0.1)
    with pytest.raises(ValueError):
        SatisfierConfig(mode="fuzzy")
    with pytest.raises(ValueError):
        SatisfierConfig(style_trigger="third_person")


# ----------------------------------------------------------------- semantic

def test_screen_replay_flips_at_touchscreen():
    tracker = FlagTracker(SCREEN_X, SCREEN_ROW, semantic_cfg(),
                          scorer=screen_table())
    for tok in SCREEN_OUT:
        tracker.step(tok)
    grid = tracker.matrix()
    assert grid.shape == (6, 8)
    expected = np.array([[0] * 8,
                         [0] * 8,
                         [1, 1, 1, 1, 1, 1, 2, 2],
                         [1, 1, 1, 1, 1, 1, 2, 2],
                         [1, 1, 1, 1, 1, 1, 2, 2],
                         [1, 1, 1, 1, 1, 1, 2, 2]])
    assert np.array_equal(grid, expected)


def _stepped(sims):
    """SCREEN tracker stepped once per entry of sims, the similarity the
    constraint scores after that step."""
    table = InjectedTableSimilarity(
        {"c0:%d" % (i + 1): s for i, s in enumerate(sims)})
    tracker = FlagTracker(SCREEN_X, SCREEN_ROW, semantic_cfg(), scorer=table)
    for tok in SCREEN_OUT[:len(sims)]:
        tracker.step(tok)
    return tracker


def test_constant_high_sim_never_flips():
    # first step: 0.9 > 0.8 and the jump from 0 is 0.9 > 0.3, so it flips
    assert _stepped([0.9]).satisfied == [True]
    # both gates are required: 0.9 after 0.7 jumps only 0.2, and a
    # constant 0.9 after that jumps 0
    tracker = _stepped([0.7, 0.9, 0.9])
    assert tracker.satisfied == [False]
    assert tracker.column().tolist() == [0, 0, 1, 1, 1, 1]


def test_semantic_already_satisfied_unchanged():
    tracker = _stepped([0.85])
    col = tracker.column()
    # the table has no entry for step 2: a satisfied constraint is never
    # scored again, so it cannot revert
    tracker.step(SCREEN_OUT[1])
    assert np.array_equal(tracker.column(), col)


# ------------------------------------------------------------------ lexical

def test_contains_contiguous():
    assert contains_contiguous(["x", "a", "camera"], ("a", "camera"))
    assert not contains_contiguous(["has", "cameras"], ("a", "camera"))
    assert not contains_contiguous(["a", "camera", "have"], ("have", "a", "camera"))


def test_lexical_exact_containment():
    cfg = SatisfierConfig(mode="lexical")
    x = ["q", "<sep>", "a", "camera"]
    tracker = replay_flags(x, [(2, 3)], ["has", "a", "camera"], cfg)
    assert tracker.satisfied[0]
    assert tracker.column().tolist() == [0, 0, 2, 2]


def test_lexical_no_partial_credit():
    cfg = SatisfierConfig(mode="lexical")
    tracker = replay_flags(["a", "camera"], [(0, 1)], ["has", "cameras"], cfg)
    assert not tracker.satisfied[0]


# -------------------------------------------------------------------- style

def test_ship_replay_style_row():
    cfg = semantic_cfg(style_enabled=True)
    tracker = FlagTracker(SHIP_X, [], cfg)
    for tok in SHIP_OUT:
        tracker.step(tok)
    grid = tracker.matrix()
    assert grid.shape == (5, 11)
    assert grid[0].tolist() == [2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1]
    assert np.array_equal(grid[1:], np.zeros((4, 11), dtype=grid.dtype))


def test_second_person_output_keeps_style_flags():
    cfg = semantic_cfg(style_enabled=True)
    tracker = FlagTracker(SHIP_X, [], cfg)
    for tok in ["you", "can", "ship", "to", "brazil", "."]:
        tracker.step(tok)
    assert all(c == 2 for c in tracker.matrix()[0])


def test_two_style_positions_flip_together():
    cfg = semantic_cfg(style_enabled=True)
    tracker = FlagTracker(["We", "ship", "our", "boxes"], [], cfg)
    tracker.step("shipped")
    tracker.step("us")
    grid = tracker.matrix()
    assert grid[0].tolist() == [2, 2, 1]
    assert grid[2].tolist() == [2, 2, 1]


def test_style_trigger_switch_honors_second_person():
    cfg = semantic_cfg(style_enabled=True, style_trigger="second_person")
    tracker = FlagTracker(SHIP_X, [], cfg)
    tracker.step("us")
    assert tracker.matrix()[0].tolist() == [2, 2]
    tracker.step("you")
    assert tracker.matrix()[0].tolist() == [2, 2, 1]


# -------------------------------------------------------------------- trace

def test_trace_tsv_grid():
    tracker = FlagTracker(SCREEN_X, SCREEN_ROW, semantic_cfg(),
                          scorer=screen_table())
    for tok in SCREEN_OUT:
        tracker.step(tok)
    tsv = trace(tracker, fmt="tsv")
    lines = tsv.strip().split("\n")
    assert lines[0].split("\t") == ["x\\y", "<sep>"] + SCREEN_OUT
    row = lines[3].split("\t")  # input token "has"
    assert row[0] == "has"
    assert row[1:] == ["1", "1", "1", "1", "1", "1", "2", "2"]


def test_trace_empty_output_single_column():
    tracker = FlagTracker(SCREEN_X, SCREEN_ROW, semantic_cfg(),
                          scorer=screen_table())
    tsv = trace(tracker, fmt="tsv")
    lines = tsv.strip().split("\n")
    assert lines[0].split("\t") == ["x\\y", "<sep>"]
    assert all(len(l.split("\t")) == 2 for l in lines[1:])


def test_trace_json_roundtrip():
    import json
    tracker = FlagTracker(SCREEN_X, SCREEN_ROW, semantic_cfg(),
                          scorer=screen_table())
    for tok in SCREEN_OUT:
        tracker.step(tok)
    payload = json.loads(trace(tracker, fmt="json"))
    assert payload["x_tokens"] == SCREEN_X
    assert payload["columns"] == ["<sep>"] + SCREEN_OUT
    assert payload["matrix"][2] == [1, 1, 1, 1, 1, 1, 2, 2]


def test_lexical_trace_flips_at_exact_match_column():
    cfg = SatisfierConfig(mode="lexical")
    x = ["have", "a", "camera"]
    tracker = FlagTracker(x, [(0, 1, 2)], cfg)
    for tok in ["yes", "it", "can", "have", "a", "camera", "."]:
        tracker.step(tok)
    grid = tracker.matrix()
    # column 6 closes the verbatim occurrence (after emitting "camera")
    assert grid[0].tolist() == [1, 1, 1, 1, 1, 1, 2, 2]


# --------------------------------------------------------------- invariants

def test_replay_matches_tracker():
    tracker = FlagTracker(SCREEN_X, SCREEN_ROW, semantic_cfg(),
                          scorer=screen_table())
    for tok in SCREEN_OUT:
        tracker.step(tok)
    replayed = replay_flags(SCREEN_X, SCREEN_ROW, SCREEN_OUT, semantic_cfg(),
                            scorer=screen_table())
    assert np.array_equal(tracker.matrix(), replayed.matrix())


@st.composite
def _forked_streams(draw):
    words = st.sampled_from(["a", "b", "i", "us"])  # few words: many repeats
    x = draw(st.lists(words, min_size=1, max_size=5))
    span = st.tuples(st.integers(0, len(x) - 1), st.integers(1, 3)).map(
        lambda s: tuple(range(s[0], min(len(x), s[0] + s[1]))))
    return (x, draw(st.lists(span, max_size=3)),
            draw(st.lists(words, max_size=8)),
            draw(st.lists(words, min_size=1, max_size=6)),
            draw(st.lists(words, min_size=1, max_size=6)),
            draw(st.sampled_from(["lexical", "semantic"])),
            draw(st.booleans()))


@given(_forked_streams())
def test_clone_isolates_state(case):
    x, rows, shared, tail, fork_tail, mode, style = case
    assume(tail != fork_tail)
    cfg = SatisfierConfig(mode=mode, style_enabled=style)
    scorer = SpanSimilarity(HashedNgramEmbedder())
    tracker = FlagTracker(x, rows, cfg, scorer=scorer)
    for tok in shared:
        tracker.step(tok)
    fork = tracker.clone()
    # interleave the steps, so state either one shares leaks into the other
    for i in range(max(len(tail), len(fork_tail))):
        if i < len(tail):
            tracker.step(tail[i])
        if i < len(fork_tail):
            fork.step(fork_tail[i])
    for got, stream in ((tracker, shared + tail), (fork, shared + fork_tail)):
        want = replay_flags(x, rows, stream, cfg, scorer=scorer)
        assert np.array_equal(got.matrix(), want.matrix())
        assert got.satisfied == want.satisfied
        assert got.output_tokens == want.output_tokens


def test_semantic_flips_no_later_than_exact_match():
    # verbatim copy reaches sim 1.0, so semantic mode with a < 1 must flip
    from restate.similarity import HashedNgramEmbedder, SpanSimilarity
    cfg = semantic_cfg()
    x = ["has", "a", "timer"]
    scorer = SpanSimilarity(HashedNgramEmbedder())
    tracker = FlagTracker(x, [(0, 1, 2)], cfg, scorer=scorer)
    for tok in ["yes", "it", "has", "a", "timer"]:
        tracker.step(tok)
    assert tracker.satisfied[0]


def test_overlapping_constraints_share_cells_by_ownership():
    cfg = SatisfierConfig(mode="lexical")
    x = ["install", "app", "on", "phone"]
    # first constraint owns all four cells; second owns none but is tracked
    tracker = FlagTracker(x, [(0, 1, 2, 3), (2, 3)], cfg)
    for tok in ["you", "can", "install", "app", "on", "phone"]:
        tracker.step(tok)
    assert tracker.satisfied == [True, True]
    assert tracker.constraint_index == [0, 0, 0, 0]
    assert tracker.matrix()[:, -1].tolist() == [2, 2, 2, 2]


def test_step_reports_no_change_for_a_constraint_owning_no_cells():
    cfg = SatisfierConfig(mode="lexical")
    # the second constraint's cells belong to the first, which stays unmet
    tracker = FlagTracker(["install", "app", "on", "phone"],
                          [(0, 1, 2, 3), (2, 3)], cfg)
    assert [tracker.step(tok) for tok in ["on", "phone"]] == [False, False]
    assert tracker.satisfied == [False, True]
    assert tracker.step("install") is False
    assert tracker.matrix()[:, -1].tolist() == [1, 1, 1, 1]


@given(_forked_streams(), st.sampled_from(["semantic", "lexical", "off"]))
def test_step_reports_whether_the_column_changed(case, mode):
    x, rows, shared, tail, _, _, style = case
    cfg = SatisfierConfig(mode=mode, style_enabled=style)
    tracker = FlagTracker(x, rows, cfg,
                          scorer=SpanSimilarity(HashedNgramEmbedder()))
    for tok in shared + tail:
        before = tracker.column()
        changed = tracker.step(tok)
        assert changed is (not np.array_equal(tracker.current, before))


def _full_prefix_matrix(x, rows, stream, config):
    """Lexical flags by the whole-prefix rule: after t tokens a
    constraint cell is 2 once its earliest-listed constraint occurs
    anywhere in them, and a style cell is 1 once any of them is a
    trigger token."""
    owner = {}
    for row in rows:
        for p in row:
            owner.setdefault(p, row)
    columns = []
    for t in range(len(stream) + 1):
        prefix = stream[:t]
        column = []
        for i, tok in enumerate(x):
            if i in owner:
                met = contains_contiguous(prefix, [x[p] for p in owner[i]])
                column.append(2 if met else 1)
            elif config.style_enabled and tok.lower() in FIRST_PERSON:
                hit = any(y.lower() in config.trigger_lexicon()
                          for y in prefix)
                column.append(1 if hit else 2)
            else:
                column.append(0)
        columns.append(column)
    return np.array(columns).T


@st.composite
def _lexical_streams(draw):
    words = st.sampled_from(["a", "b", "i"])  # few words: many repeats
    x = draw(st.lists(words, min_size=1, max_size=5))
    span = st.tuples(st.integers(0, len(x) - 1), st.integers(1, 3)).map(
        lambda s: tuple(range(s[0], min(len(x), s[0] + s[1]))))
    return (x, draw(st.lists(span, max_size=3)),
            draw(st.lists(words, max_size=12)), draw(st.booleans()),
            draw(st.integers(0, 12)))


@given(_lexical_streams())
def test_lexical_tracker_equals_full_prefix_rule(case):
    x, rows, stream, style, fork_at = case
    cfg = SatisfierConfig(mode="lexical", style_enabled=style)
    want = _full_prefix_matrix(x, rows, stream, cfg)
    assert np.array_equal(replay_flags(x, rows, stream, cfg).matrix(), want)
    # a clone taken mid-stream, as the search takes them, carries on alike
    tracker = FlagTracker(x, rows, cfg)
    for t, tok in enumerate(stream):
        if t == fork_at:
            tracker = tracker.clone()
        tracker.step(tok)
    assert np.array_equal(tracker.matrix(), want)


def test_invariant_fuzz_small():
    rng = np.random.default_rng(7)
    vocab = ["red", "box", "ship", "to", "us", "you", "we", "a", "lid", "."]
    for _ in range(200):
        n = int(rng.integers(3, 10))
        x = [vocab[i] for i in rng.integers(0, len(vocab), n)]
        rows = []
        if rng.random() < 0.8 and n >= 2:
            s = int(rng.integers(0, n - 1))
            e = int(rng.integers(s + 1, n))
            rows.append(tuple(range(s, e + 1)))
        cfg = SatisfierConfig(mode="lexical", style_enabled=bool(rng.random() < 0.5))
        tracker = FlagTracker(x, rows, cfg)
        steps = int(rng.integers(1, 12))
        for _ in range(steps):
            tracker.step(vocab[int(rng.integers(0, len(vocab)))])
        grid = tracker.matrix()
        assert set(np.unique(grid)).issubset({0, 1, 2})
        for i in range(n):
            col = grid[i]
            if col[0] == 0:
                assert np.all(col == 0)
            elif col[0] == 1:
                assert np.all(np.diff(col) >= 0)  # 1 -> 2 only
            else:
                assert np.all(np.diff(col) <= 0)  # 2 -> 1 only


class TestSemanticFlipOnVerbatimCopies:
    """The jump gate makes verbatim-copy behavior length-dependent: short
    constraints clear both thresholds at the completion step, while long
    ones creep (the span ending one token earlier already scores high),
    so the delta gate blocks the flip. Both behaviors are pinned here."""

    def run_verbatim(self, phrase):
        toks = phrase.split()
        x = ["filler"] * 2 + toks
        rows = [tuple(range(2, 2 + len(toks)))]
        cfg = SatisfierConfig(mode="semantic")
        scorer = SpanSimilarity(HashedNgramEmbedder())
        tracker = FlagTracker(x, rows, cfg, scorer=scorer)
        for t in ["it", "has"] + toks + ["."]:
            tracker.step(t)
        return tracker

    def test_short_constraint_flips_at_completion_step(self):
        for phrase in ("a camera", "a touchscreen", "wireless charging",
                       "bluetooth"):
            tracker = self.run_verbatim(phrase)
            n = len(phrase.split())
            row = tracker.matrix()[2]
            # columns: init, "it", "has", then one per constraint token
            assert row[2 + n] == 2, phrase
            assert row[1 + n] == 1, phrase  # not before the last token

    def test_long_constraint_creep_is_blocked_by_delta_gate(self):
        # by the penultimate token the best span already scores > 1 - b,
        # so the completion jump stays under the delta threshold and the
        # flag honestly remains unsatisfied (lexical mode would flip)
        tracker = self.run_verbatim("the samsung galaxy a20 phone")
        assert tracker.satisfied == [False]
        assert set(tracker.matrix()[2].tolist()) == {1}
        lex = FlagTracker(["filler", "filler"] + "the samsung galaxy a20 phone".split(),
                          [(2, 3, 4, 5, 6)],
                          SatisfierConfig(mode="lexical"))
        for t in ["it", "has"] + "the samsung galaxy a20 phone".split() + ["."]:
            lex.step(t)
        assert lex.satisfied == [True]
