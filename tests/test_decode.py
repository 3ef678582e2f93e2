"""Decoder tests: greedy/beam equivalences, an exhaustive-enumeration
oracle on hand-set logits and on a trained model, the banked search's
containment guarantee, its constraint pointers, its early stop,
flag-trace consistency, and the drafted argmax loop against one
decoder call per token."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from restate import decode
from restate.decode import DecodeResult, Hypothesis, _advance, run_decoder
from restate.flags import (FlagTracker, IndexOutOfRange, SatisfierConfig,
                           contains_contiguous, replay_flags)
from restate.model import (ModelConfig, NonFiniteLogProbs, Seq2SeqModel,
                           TrainingConfig, train)
from restate.model.training import TrainingExample
from restate.similarity import HashedNgramEmbedder, SpanSimilarity
from restate.vocab import SPECIALS, Vocabulary
from test_model import teacher_forced_logprobs

OFF = SatisfierConfig(mode="off")
LEX = SatisfierConfig(mode="lexical")

SENTENCES = [["the", "cat", "sat"],
             ["the", "dog", "ran"],
             ["on", "the", "mat"]]


@pytest.fixture(scope="module")
def copy_model():
    """Tiny model overfit to copy three sentences; 'brazil' is in the
    vocabulary but never appears in any training target."""
    vocab = Vocabulary(sorted({t for s in SENTENCES for t in s} | {"brazil"}))
    cfg = ModelConfig(dim=16, heads=2, enc_layers=2, dec_layers=2, ff=24,
                      max_len=32, seed=4)
    model = Seq2SeqModel(cfg, vocab)
    examples = []
    for s in SENTENCES:
        m = replay_flags(s, [(1,)], s, LEX).matrix()
        examples.append(TrainingExample(list(s), list(s), m))
    train(model, examples, TrainingConfig(lr=3e-3, batch_size=3, epochs=150,
                                          seed=2))
    return model


def exhaustive_best(model, x_tokens, max_len, alpha):
    """Enumerate every token sequence up to max_len, close each with the
    stop token, rank exactly like the beam (normalized, then ids)."""
    vocab = model.vocab
    banned = {*vocab.never_emitted, vocab.eos_id}
    ext = [i for i in range(len(vocab)) if i not in banned]
    out = []

    def rec(prefix, score):
        m = np.zeros((len(x_tokens), len(prefix) + 1), dtype=int)
        lp = teacher_forced_logprobs(model, x_tokens, prefix, m)
        total = score + float(lp[vocab.eos_id])
        norm = total / max(1, len(prefix) + 1) ** alpha
        out.append((norm, tuple(prefix), total))
        if len(prefix) < max_len:
            for t in ext:
                rec(prefix + [t], score + float(lp[t]))

    rec([], 0.0)
    out.sort(key=lambda e: (-e[0], e[1]))
    return out[0]


class StubLM:
    """Hand-set next-token distributions keyed by the decoded prefix."""

    def __init__(self, table, default=None, floor=-40.0):
        self.vocab = Vocabulary(["a", "b", "c"])
        self.table = {tuple(k): v for k, v in table.items()}
        self.default = default or {"a": 0.25, "b": 0.25, "c": 0.25,
                                   "<eos>": 0.25}
        # log-probability of every token a distribution leaves out
        self.floor = floor

    def encode(self, x_tokens):
        return np.zeros((len(x_tokens), 1))

    def next_logprobs(self, prefix_ids):
        toks = tuple(self.vocab.tokens[i] for i in prefix_ids)
        probs = self.table.get(toks, self.default)
        lp = np.full(len(self.vocab), self.floor)
        for tok, p in probs.items():
            tid = self.vocab.index[tok] if tok != "<eos>" else self.vocab.eos_id
            lp[tid] = math.log(p)
        return lp

    def logits_batch(self, src, tgt_in, m_batch):
        # teacher forcing of one example, read only at its last position
        return self.next_logprobs(tgt_in[0, 1:].tolist())[None, None]

    # the decoder interface: the cache is each row's decoded prefix
    def begin_decode(self, henc):
        return None

    def decode_step(self, cache, parents, last_ids, columns, draft=()):
        if cache is None:
            rows = [() for _ in last_ids]
        else:
            rows = [cache[p] + (i,) for p, i in zip(parents, last_ids)]
        # a draft extends the one row by consecutive tokens
        rows += [rows[0] + tuple(draft[:r + 1]) for r in range(len(draft))]
        lp = np.stack([self.next_logprobs(r) for r in rows])
        return lp, StubCache(rows[-1:] if draft else rows)


class StubCache(list):
    """StubLM's cache: the decoded prefix of each row of the last call."""

    def cut(self, length):
        # the one row of a drafted call; position 0 holds the start symbol
        return StubCache([self[0][:length - 1]])


def stub_adversarial():
    # greedy grabs "b" (0.36) but the best finished sequence is "a" +
    # stop (0.30 * 0.70); width 2 keeps both openings and finds it
    return StubLM({
        (): {"a": 0.30, "b": 0.36, "c": 0.30, "<eos>": 0.04},
        ("a",): {"a": 0.10, "b": 0.10, "c": 0.10, "<eos>": 0.70},
        ("b",): {"a": 0.25, "b": 0.25, "c": 0.20, "<eos>": 0.30},
        ("c",): {"a": 0.30, "b": 0.30, "c": 0.30, "<eos>": 0.10},
    })


class TestGreedy:
    def test_overfit_model_emits_memorized_target(self, copy_model):
        for s in SENTENCES:
            res = run_decoder("greedy", copy_model, s, [], OFF)
            assert res.tokens == s
            assert res.finished

    def test_max_len_one_gives_one_token(self, copy_model):
        res = run_decoder("greedy", copy_model, SENTENCES[0], [], OFF,
                          max_len=1)
        assert len(res.tokens) == 1
        assert not res.finished

    def test_deterministic(self, copy_model):
        a = run_decoder("greedy", copy_model, SENTENCES[0], [(1,)], LEX)
        b = run_decoder("greedy", copy_model, SENTENCES[0], [(1,)], LEX)
        assert a.tokens == b.tokens
        assert a.score == b.score
        assert np.array_equal(a.flag_matrix, b.flag_matrix)

    def test_score_sums_chosen_logps(self, copy_model):
        res = run_decoder("greedy", copy_model, SENTENCES[0], [], OFF)
        # finished: one logp per emitted token plus the stop token
        assert res.finished
        assert res.score <= 0.0
        assert res.normalized_score == pytest.approx(
            res.score / (len(res.tokens) + 1) ** 0.7)

    def test_semantic_mode_requires_scorer(self, copy_model):
        with pytest.raises(ValueError):
            run_decoder("greedy", copy_model, SENTENCES[0], [(1,)],
                        SatisfierConfig(mode="semantic"))

    def test_alpha_that_underflows_the_normalization_is_named(self):
        # (48 + 1) ** 182 is finite, so the budget check lets alpha
        # -182 through, but 48 ** -182 is below the smallest float and
        # the budget-length score -221.05 normalizes to -inf
        stub = StubLM({}, {"a": 0.01, "b": 0.01, "c": 0.01, "<eos>": 1e-9})
        with pytest.raises(ValueError, match="alpha -182"):
            run_decoder("greedy", stub, ["x"], [], OFF, alpha=-182, max_len=48)


class TestBeam:
    def test_width_one_equals_greedy_tokens(self, copy_model):
        inputs = SENTENCES + [["the", "cat", "brazil"], ["mat", "mat"]]
        for x in inputs:
            g = run_decoder("greedy", copy_model, x, [], OFF)
            b = run_decoder("beam", copy_model, x, [], OFF, beam_size=1)
            assert b.tokens == g.tokens, x

    def test_width_one_matches_greedy_score_when_finished(self, copy_model):
        g = run_decoder("greedy", copy_model, SENTENCES[1], [], OFF)
        b = run_decoder("beam", copy_model, SENTENCES[1], [], OFF, beam_size=1)
        assert g.finished
        assert b.score == pytest.approx(g.score, abs=1e-12)
        assert b.normalized_score == pytest.approx(g.normalized_score,
                                                   abs=1e-12)

    def test_returned_score_floor_is_greedy(self, copy_model):
        for x in SENTENCES + [["brazil", "cat"]]:
            g = run_decoder("greedy", copy_model, x, [], OFF)
            for width in (1, 2, 4):
                b = run_decoder("beam", copy_model, x, [], OFF,
                                beam_size=width)
                assert b.normalized_score >= g.normalized_score - 1e-12

    def test_monotone_in_width(self, copy_model):
        for x in SENTENCES:
            scores = [run_decoder("beam", copy_model, x, [], OFF,
                                  beam_size=w).normalized_score
                      for w in (1, 2, 4)]
            assert scores[0] <= scores[1] + 1e-12
            assert scores[1] <= scores[2] + 1e-12

    def test_beam2_matches_exhaustive_oracle_on_handset_logits(self):
        stub = stub_adversarial()
        norm, ids, total = exhaustive_best(stub, ["x"], 3, 0.7)
        res = run_decoder("beam", stub, ["x"], [], OFF, beam_size=2, max_len=3)
        assert tuple(stub.vocab.encode(res.tokens)) == ids
        assert res.normalized_score == pytest.approx(norm, abs=1e-12)
        # and the point of the test: greedy alone gets this wrong
        g = run_decoder("greedy", stub, ["x"], [], OFF, max_len=3)
        assert g.tokens != res.tokens
        assert res.tokens == ["a"]

    @pytest.mark.parametrize("late, max_len, tokens, rows", [
        # "b a" and "b b" can only stop, so the beam runs dry and
        # greedy's "a a a" + stop finishes alone
        ({("b", "a"): {"<eos>": 1.0}, ("b", "b"): {"<eos>": 1.0},
          ("a", "a"): {"a": 1.0}, ("a", "a", "a"): {"<eos>": 1.0}}, 5,
         ["a", "a", "a"], [1, 2, 3, 1]),
        # the budget ends all three, and greedy's "a a" is closed in the
        # beam's closing call
        ({("b", "a"): {"a": 0.9, "<eos>": 0.1},
          ("b", "b"): {"a": 0.9, "<eos>": 0.1},
          ("a", "a"): {"<eos>": 1.0}}, 2, ["a", "a"], [1, 2, 3]),
    ], ids=["beam-runs-dry", "closed-at-budget"])
    def test_greedy_floor_outlives_the_beam(self, late, max_len, tokens,
                                            rows):
        # the beam drops greedy's "a a" for "b a" and "b b", whose
        # endings score worse than greedy's own
        stub = StubLM({(): {"a": 0.4, "b": 0.35, "c": 0.25},
                       ("a",): {"a": 0.34, "b": 0.33, "c": 0.33},
                       ("b",): {"a": 0.5, "b": 0.5}, **late}, floor=-np.inf)
        g = run_decoder("greedy", stub, ["a"], [(0,)], LEX, max_len=max_len)
        calls = []
        step = stub.decode_step

        def counting(cache, parents, last_ids, columns, draft=()):
            calls.append(len(last_ids))
            return step(cache, parents, last_ids, columns, draft)

        stub.decode_step = counting
        res = run_decoder("beam", stub, ["a"], [(0,)], LEX, beam_size=2,
                          max_len=max_len)
        assert res.tokens == g.tokens == tokens
        assert repr(res.score) == repr(g.score)
        assert np.array_equal(res.flag_matrix, g.flag_matrix)
        # greedy rides along: in the beam's rows, then as an extra row
        # beside them, then (when the beam has run dry) alone
        assert calls == rows

    def test_wide_beam_matches_exhaustive_oracle_on_trained_model(
            self, copy_model):
        for x in (SENTENCES[0], ["brazil", "the"]):
            norm, ids, total = exhaustive_best(copy_model, x, 2, 0.7)
            res = run_decoder("beam", copy_model, x, [], OFF, beam_size=150,
                              max_len=2)
            assert tuple(copy_model.vocab.encode(res.tokens)) == ids, x
            assert res.normalized_score == pytest.approx(norm, abs=1e-12)

    def test_rejects_zero_width(self, copy_model):
        for name in ("beam", "cbs"):
            with pytest.raises(ValueError, match="beam_size"):
                run_decoder(name, copy_model, SENTENCES[0], [], OFF,
                            beam_size=0)
        # greedy has no width to check
        res = run_decoder("greedy", copy_model, SENTENCES[0], [], OFF,
                          beam_size=0)
        assert res.tokens == SENTENCES[0]


class TestConstrainedBeam:
    def test_forces_token_model_never_emits(self, copy_model):
        x = ["the", "cat", "brazil"]
        g = run_decoder("greedy", copy_model, x, [(2,)], LEX)
        assert "brazil" not in g.tokens  # the model alone skips it
        res = run_decoder("cbs", copy_model, x, [(2,)], LEX,
                          beam_size=2)
        assert "brazil" in res.tokens
        assert res.finished
        assert not res.unsatisfiable
        assert res.tracker.satisfied == [True]

    def test_multi_token_constraint_in_order(self, copy_model):
        x = ["on", "the", "mat"]
        res = run_decoder("cbs", copy_model, x, [(1, 2)], LEX,
                          beam_size=2)
        assert res.finished
        joined = " ".join(res.tokens)
        assert "the mat" in joined

    def test_empty_constraints_identical_to_beam(self, copy_model):
        for x in SENTENCES:
            a = run_decoder("cbs", copy_model, x, [], OFF, beam_size=3)
            b = run_decoder("beam", copy_model, x, [], OFF, beam_size=3)
            assert a.tokens == b.tokens
            assert a.score == b.score

    def test_unsatisfiable_budget_returns_flagged_partial(self, copy_model):
        res = run_decoder("cbs", copy_model, ["the", "cat", "sat"],
                          [(0,), (1,)], LEX, beam_size=2,
                          max_len=1)
        assert res.unsatisfiable
        assert not res.finished
        assert res.warnings and "partial" in res.warnings[0]
        assert len(res.tokens) == 1

    def test_finished_results_always_contain_constraints(self, copy_model):
        # several inputs x constraint choices; every finished result must
        # contain each constraint verbatim and in order
        cases = [(["the", "cat", "sat"], [(0,), (2,)]),
                 (["the", "dog", "ran"], [(1, 2)]),
                 (["on", "the", "mat"], [(0, 1, 2)]),
                 (["the", "cat", "brazil"], [(2,), (0,)])]
        for x, rows in cases:
            res = run_decoder("cbs", copy_model, x, rows, LEX,
                              beam_size=2)
            if not res.finished:
                continue
            joined = " " + " ".join(res.tokens) + " "
            for row in rows:
                phrase = " " + " ".join(x[i] for i in row) + " "
                assert phrase in joined, (x, row, res.tokens)

    def test_repeated_first_token_reaches_full_bank(self):
        # "a a b" ends "a a a b"; a pointer reset to 1 after the third "a"
        # never sees it complete, so only "a a b" + stop could finish
        stub = StubLM({
            (): {"a": 0.9, "b": 0.04, "c": 0.04, "<eos>": 0.02},
            ("a",): {"a": 0.9, "b": 0.04, "c": 0.04, "<eos>": 0.02},
            ("a", "a"): {"a": 0.9, "b": 0.05, "c": 0.03, "<eos>": 0.02},
            ("a", "a", "a"): {"a": 0.04, "b": 0.9, "c": 0.04, "<eos>": 0.02},
            ("a", "a", "a", "b"): {"a": 0.04, "b": 0.04, "c": 0.02,
                                   "<eos>": 0.9},
            ("a", "a", "b"): {"a": 0.5, "b": 0.2, "c": 0.25, "<eos>": 0.05},
        })
        res = run_decoder("cbs", stub, ["a", "a", "b"], [(0, 1, 2)],
                          LEX, beam_size=1, max_len=5)
        assert res.tokens == ["a", "a", "a", "b"]
        assert res.finished and not res.unsatisfiable

    def test_out_of_vocabulary_constraint_returns_flagged_partial(
            self, copy_model):
        # "zebra" can never be emitted; once the single beam's only
        # continuation is the stop token, the search ends with a partial
        res = run_decoder("cbs", copy_model, ["the", "zebra"], [(1,)],
                          LEX, beam_size=1)
        assert res.unsatisfiable and not res.finished
        assert "partial (0/1" in res.warnings[0]


class TestFlagConsistency:
    def test_offline_replay_reproduces_carried_matrix(self, copy_model):
        cfg = SatisfierConfig(mode="semantic")
        for decoder in ("greedy", "beam", "cbs"):
            scorer = SpanSimilarity(HashedNgramEmbedder())
            res = run_decoder(decoder, copy_model, SENTENCES[0], [(1,)],
                              cfg, scorer=scorer, beam_size=2)
            replay = replay_flags(SENTENCES[0], [(1,)], res.tokens, cfg,
                                  scorer=SpanSimilarity(HashedNgramEmbedder()))
            assert np.array_equal(res.flag_matrix, replay.matrix()), decoder

    def test_copy_output_satisfies_semantic_constraint(self, copy_model):
        scorer = SpanSimilarity(HashedNgramEmbedder())
        res = run_decoder("greedy", copy_model, SENTENCES[0], [(1,)],
                          SatisfierConfig(mode="semantic"), scorer=scorer)
        assert res.tokens == SENTENCES[0]
        assert res.tracker.satisfied == [True]
        # row 1 flips exactly after "cat" is emitted (column 2)
        assert res.flag_matrix[1].tolist() == [1, 1, 2, 2]

    def test_matrix_has_one_column_per_emitted_token(self, copy_model):
        res = run_decoder("greedy", copy_model, SENTENCES[2], [(0,)], LEX)
        assert res.flag_matrix.shape == (3, len(res.tokens) + 1)


_TOKENS = st.integers(5, 6)  # two ids, so targets often overlap themselves


@settings(max_examples=300)
@given(st.lists(st.lists(_TOKENS, min_size=1, max_size=4), min_size=1,
                max_size=3), st.lists(_TOKENS, max_size=12))
def test_pointer_is_longest_prefix_ending_output(targets, stream):
    pointers = [0] * len(targets)
    for t in range(1, len(stream) + 1):
        pointers = _advance(pointers, targets, stream[t - 1])
        out = stream[:t]
        for target, p in zip(targets, pointers):
            if contains_contiguous(out, target):
                assert p == len(target)
            else:
                assert p == max(q for q in range(min(len(target), t) + 1)
                                if out[t - q:] == target[:q])


@st.composite
def _search_inputs(draw):
    words = sorted({t for s in SENTENCES for t in s} | {"brazil"})
    x = draw(st.lists(st.sampled_from(words), min_size=1, max_size=4))
    span = st.tuples(st.integers(0, len(x) - 1), st.integers(1, 2)).map(
        lambda s: tuple(range(s[0], min(len(x), s[0] + s[1]))))
    rows = draw(st.lists(span, max_size=2))
    return x, rows, draw(st.integers(1, 3)), draw(st.integers(1, 8))


@settings(max_examples=30, deadline=None)
@given(_search_inputs())
def test_finished_cbs_contains_every_constraint(copy_model, case):
    x, rows, width, max_len = case
    res = run_decoder("cbs", copy_model, x, rows, LEX, beam_size=width,
                      max_len=max_len)
    assert res.finished != res.unsatisfiable
    if res.finished:
        for row in rows:
            assert contains_contiguous(res.tokens, [x[i] for i in row])


@settings(max_examples=30, deadline=None)
@given(_search_inputs())
def test_beam_score_is_at_least_greedy(copy_model, case):
    x, rows, width, max_len = case
    g = run_decoder("greedy", copy_model, x, rows, LEX, max_len=max_len)
    if not g.finished:  # greedy left out the stop token the beam must pay
        g = run_decoder("beam", copy_model, x, rows, LEX, beam_size=1,
                        max_len=max_len)
        assert g.finished
    b = run_decoder("beam", copy_model, x, rows, LEX, beam_size=width,
                    max_len=max_len)
    assert b.normalized_score >= g.normalized_score


def _fields(res):
    """Every field of a result the early stop must keep."""
    return (res.tokens, repr(res.score), repr(res.normalized_score),
            res.finished, res.unsatisfiable, res.warnings,
            res.flag_matrix.tolist())


def _same_without_stop(model, x, rows, width, alpha, max_len):
    for name in ("beam", "cbs"):
        got = run_decoder(name, model, x, rows, LEX, beam_size=width,
                          alpha=alpha, max_len=max_len)
        with mock.patch.object(decode, "_decided", lambda *args: False):
            full = run_decoder(name, model, x, rows, LEX, beam_size=width,
                               alpha=alpha, max_len=max_len)
        assert _fields(got) == _fields(full), name


# next-token distributions with exact ties and certain (logp 0) tokens,
# the cases where a stop on >= or on a one-sided length bound goes wrong
_PALETTE = [{"a": 0.5, "b": 0.5}, {"<eos>": 1.0}, {"c": 1.0},
            {"a": 0.25, "b": 0.5, "c": 0.25}, {"c": 0.5, "<eos>": 0.5},
            {"a": 0.25, "b": 0.25, "c": 0.25, "<eos>": 0.25},
            {"a": 0.39, "b": 0.41, "<eos>": 0.2},
            {"c": 0.6, "<eos>": 0.4}]
_PREFIXES = [()] + [(t,) for t in "abc"] + [(t, u) for t in "abc"
                                            for u in "abc"]
_ALPHAS = st.sampled_from([-0.5, 0, 0.7, 1.5])


@st.composite
def _stub_cases(draw):
    """A StubLM table over every prefix of up to two tokens, an input
    over its tokens and constraint rows, a width, alpha and budget."""
    picks = draw(st.lists(st.integers(0, len(_PALETTE) - 1),
                          min_size=len(_PREFIXES) + 1,
                          max_size=len(_PREFIXES) + 1))
    table = {p: _PALETTE[i] for p, i in zip(_PREFIXES, picks)}
    x = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3))
    span = st.tuples(st.integers(0, len(x) - 1), st.integers(1, 2)).map(
        lambda s: tuple(range(s[0], min(len(x), s[0] + s[1]))))
    rows = draw(st.lists(span, max_size=2))
    return (table, _PALETTE[picks[-1]], x, rows, draw(st.integers(1, 5)),
            draw(_ALPHAS), draw(st.integers(1, 6)))


@settings(max_examples=300, deadline=None)
@given(_stub_cases())
# constrained: "b c" finishes at log 1/2 a step before "a c c" ties it
# and wins on its smaller ids, so a stop on >= returns "b c"
@example(({(): {"a": 0.5, "b": 0.5}, ("a",): {"c": 1.0},
           ("b",): {"c": 1.0}, ("a", "c"): {"c": 1.0},
           ("b", "c"): {"<eos>": 1.0}}, {"<eos>": 1.0}, ["c"], [(0,)], 2,
          0, 4))
# alpha < 0 makes longer results pay more, so "a" + stop one step on
# beats the empty result; a bound that assumes a finish at budget stops
# before it
@example(({(): {"a": 0.39, "b": 0.41, "<eos>": 0.2}, ("a",): {"<eos>": 1.0}},
          {"c": 0.6, "<eos>": 0.4}, ["a"], [], 2, -0.5, 6))
def test_early_stop_keeps_stub_results(case):
    table, default, x, rows, width, alpha, max_len = case
    _same_without_stop(StubLM(table, default), x, rows, width, alpha,
                       max_len)


@settings(max_examples=30, deadline=None)
@given(_search_inputs(), st.integers(1, 5), _ALPHAS, st.integers(1, 48))
def test_early_stop_keeps_model_results(copy_model, case, width, alpha,
                                        max_len):
    x, rows, _, _ = case
    _same_without_stop(copy_model, x, rows, width, alpha, max_len)


# Every field of beam and constrained beam results on the copy model,
# recorded from the two-pass search (a separate greedy pass, then the
# beam) before the argmax trajectory moved into the beam's own steps.
# (decoder, sentence, width, mode, max_len) -> tokens, finished,
# unsatisfiable, flag matrix rows, score, normalized score.
_PINNED_ROWS = [(2,), (0, 1)]
_PINNED = {
    ("beam", 0, 2, "lexical", 48):
        ("the cat sat", True, False, "1122/1122/1112",
         -0.09609710613832398, -0.03641399394189143),
    ("beam", 0, 2, "lexical", 2):
        ("the cat", True, False, "112/112/111",
         -5.739478096918407, -2.6600360630735724),
    ("beam", 0, 2, "off", 48):
        ("the cat sat", True, False, "0000/0000/0000",
         -0.09537511034959169, -0.036140408697408366),
    ("beam", 0, 2, "off", 2):
        ("the cat", True, False, "000/000/000",
         -5.749836719461629, -2.6648369019414013),
    ("beam", 0, 4, "lexical", 48):
        ("the cat sat", True, False, "1122/1122/1112",
         -0.09609710613832398, -0.03641399394189143),
    ("beam", 0, 4, "lexical", 2):
        ("the mat", True, False, "111/111/111",
         -5.576615804896822, -2.58455540738036),
    ("beam", 0, 4, "off", 48):
        ("the cat sat", True, False, "0000/0000/0000",
         -0.09537511034959169, -0.036140408697408366),
    ("beam", 0, 4, "off", 2):
        ("the mat", True, False, "000/000/000",
         -5.333507509584468, -2.4718836937082735),
    ("beam", 1, 2, "lexical", 48):
        ("the dog ran", True, False, "1122/1122/1112",
         -0.09763155801689372, -0.03699544247510672),
    ("beam", 1, 2, "lexical", 2):
        ("the dog", True, False, "112/112/111",
         -5.771166944293143, -2.6747226731434486),
    ("beam", 1, 2, "off", 48):
        ("the dog ran", True, False, "0000/0000/0000",
         -0.09741566406858568, -0.03691363396659176),
    ("beam", 1, 2, "off", 2):
        ("the dog", True, False, "000/000/000",
         -5.773889882912262, -2.675984654599268),
    ("beam", 1, 4, "lexical", 48):
        ("the dog ran", True, False, "1122/1122/1112",
         -0.09763155801689372, -0.03699544247510672),
    ("beam", 1, 4, "lexical", 2):
        ("the mat", True, False, "111/111/111",
         -5.500443909689138, -2.5492525479872925),
    ("beam", 1, 4, "off", 48):
        ("the dog ran", True, False, "0000/0000/0000",
         -0.09741566406858568, -0.03691363396659176),
    ("beam", 1, 4, "off", 2):
        ("the mat", True, False, "000/000/000",
         -5.351156117365625, -2.480063171418298),
    ("beam", 2, 2, "lexical", 48):
        ("on the mat", True, False, "1122/1122/1112",
         -0.09478968417011172, -0.03591857365773169),
    ("beam", 2, 2, "lexical", 2):
        ("on the", True, False, "112/112/111",
         -5.630431422543687, -2.6094969580370475),
    ("beam", 2, 2, "off", 48):
        ("on the mat", True, False, "0000/0000/0000",
         -0.09451088029595682, -0.03581292674501573),
    ("beam", 2, 2, "off", 2):
        ("on the", True, False, "000/000/000",
         -5.654628774539588, -2.6207115367588547),
    ("beam", 2, 4, "lexical", 48):
        ("on the mat", True, False, "1122/1122/1112",
         -0.09478968417011172, -0.03591857365773169),
    ("beam", 2, 4, "lexical", 2):
        ("on the", True, False, "112/112/111",
         -5.630431422543687, -2.6094969580370475),
    ("beam", 2, 4, "off", 48):
        ("on the mat", True, False, "0000/0000/0000",
         -0.09451088029595682, -0.03581292674501573),
    ("beam", 2, 4, "off", 2):
        ("on the", True, False, "000/000/000",
         -5.654628774539588, -2.6207115367588547),
    ("cbs", 0, 2, "lexical", 48):
        ("the cat sat", True, False, "1122/1122/1112",
         -0.09609710613832398, -0.03641399394189143),
    ("cbs", 0, 2, "lexical", 2):
        ("the cat", False, True, "112/112/111",
         -0.04819955064768554, -0.029670303752816696),
    ("cbs", 0, 2, "off", 48):
        ("the cat sat", True, False, "0000/0000/0000",
         -0.09537511034959169, -0.036140408697408366),
    ("cbs", 0, 2, "off", 2):
        ("the cat", False, True, "000/000/000",
         -0.0474933407000533, -0.02923558053697868),
    ("cbs", 0, 4, "lexical", 48):
        ("the cat sat", True, False, "1122/1122/1112",
         -0.09609710613832398, -0.03641399394189143),
    ("cbs", 0, 4, "lexical", 2):
        ("the cat", False, True, "112/112/111",
         -0.04819955064768554, -0.029670303752816696),
    ("cbs", 0, 4, "off", 48):
        ("the cat sat", True, False, "0000/0000/0000",
         -0.09537511034959169, -0.036140408697408366),
    ("cbs", 0, 4, "off", 2):
        ("the cat", False, True, "000/000/000",
         -0.0474933407000533, -0.02923558053697868),
    ("cbs", 1, 2, "lexical", 48):
        ("the dog ran", True, False, "1122/1122/1112",
         -0.09763155801689372, -0.03699544247510672),
    ("cbs", 1, 2, "lexical", 2):
        ("the dog", False, True, "112/112/111",
         -0.04935217261195643, -0.030379825798822074),
    ("cbs", 1, 2, "off", 48):
        ("the dog ran", True, False, "0000/0000/0000",
         -0.09741566406858568, -0.03691363396659176),
    ("cbs", 1, 2, "off", 2):
        ("the dog", False, True, "000/000/000",
         -0.049157577173633255, -0.03026003825544508),
    ("cbs", 1, 4, "lexical", 48):
        ("the dog ran", True, False, "1122/1122/1112",
         -0.09763155801689372, -0.03699544247510672),
    ("cbs", 1, 4, "lexical", 2):
        ("the dog", False, True, "112/112/111",
         -0.04935217261195643, -0.030379825798822074),
    ("cbs", 1, 4, "off", 48):
        ("the dog ran", True, False, "0000/0000/0000",
         -0.09741566406858568, -0.03691363396659176),
    ("cbs", 1, 4, "off", 2):
        ("the dog", False, True, "000/000/000",
         -0.049157577173633255, -0.03026003825544508),
    ("cbs", 2, 2, "lexical", 48):
        ("on the mat", True, False, "1122/1122/1112",
         -0.09478968417011172, -0.03591857365773169),
    ("cbs", 2, 2, "lexical", 2):
        ("on the", False, True, "112/112/111",
         -0.04483897535506665, -0.02760162700425035),
    ("cbs", 2, 2, "off", 48):
        ("on the mat", True, False, "0000/0000/0000",
         -0.09451088029595682, -0.03581292674501573),
    ("cbs", 2, 2, "off", 2):
        ("on the", False, True, "000/000/000",
         -0.04448243382878468, -0.027382149950146588),
    ("cbs", 2, 4, "lexical", 48):
        ("on the mat", True, False, "1122/1122/1112",
         -0.09478968417011172, -0.03591857365773169),
    ("cbs", 2, 4, "lexical", 2):
        ("on the", False, True, "112/112/111",
         -0.04483897535506665, -0.02760162700425035),
    ("cbs", 2, 4, "off", 48):
        ("on the mat", True, False, "0000/0000/0000",
         -0.09451088029595682, -0.03581292674501573),
    ("cbs", 2, 4, "off", 2):
        ("on the", False, True, "000/000/000",
         -0.04448243382878468, -0.027382149950146588),
}


@pytest.mark.parametrize("case", list(_PINNED),
                         ids=lambda case: "-".join(map(str, case)))
def test_results_are_pinned_to_the_byte(copy_model, case):
    decoder, sentence, width, mode, max_len = case
    res = run_decoder(decoder, copy_model, SENTENCES[sentence], _PINNED_ROWS,
                      SatisfierConfig(mode=mode), beam_size=width,
                      max_len=max_len)
    matrix = "/".join("".join(map(str, row))
                      for row in res.flag_matrix.tolist())
    tokens, finished, unsatisfiable, rows, score, normalized = _PINNED[case]
    assert (" ".join(res.tokens), res.finished, res.unsatisfiable, matrix,
            repr(res.score), repr(res.normalized_score)) == (
        tokens, finished, unsatisfiable, rows, repr(score), repr(normalized))


# Every field of greedy results on the copy model, recorded before the
# one-row decoder step moved its layer-norm statistics to Python floats
# and stopped gathering the cache of an identity step.
# (sentence, mode, max_len) -> tokens, finished, flag matrix rows,
# score, normalized score; the constraint rows are _PINNED_ROWS.
_PINNED_GREEDY = {
    (0, "semantic", 48):
        ("the cat sat", True, "1122/1122/1112",
         -0.09609710613832398, -0.03641399394189143),
    (0, "semantic", 2):
        ("the cat", False, "112/112/111",
         -0.04819955064768554, -0.029670303752816696),
    (0, "lexical", 48):
        ("the cat sat", True, "1122/1122/1112",
         -0.09609710613832398, -0.03641399394189143),
    (0, "lexical", 2):
        ("the cat", False, "112/112/111",
         -0.04819955064768554, -0.029670303752816696),
    (0, "off", 48):
        ("the cat sat", True, "0000/0000/0000",
         -0.09537511034959169, -0.036140408697408366),
    (0, "off", 2):
        ("the cat", False, "000/000/000",
         -0.0474933407000533, -0.02923558053697868),
    (1, "semantic", 48):
        ("the dog ran", True, "1122/1122/1112",
         -0.09763155801689372, -0.03699544247510672),
    (1, "semantic", 2):
        ("the dog", False, "112/112/111",
         -0.04935217261195643, -0.030379825798822074),
    (1, "lexical", 48):
        ("the dog ran", True, "1122/1122/1112",
         -0.09763155801689372, -0.03699544247510672),
    (1, "lexical", 2):
        ("the dog", False, "112/112/111",
         -0.04935217261195643, -0.030379825798822074),
    (1, "off", 48):
        ("the dog ran", True, "0000/0000/0000",
         -0.09741566406858568, -0.03691363396659176),
    (1, "off", 2):
        ("the dog", False, "000/000/000",
         -0.049157577173633255, -0.03026003825544508),
    (2, "semantic", 48):
        ("on the mat", True, "1122/1122/1112",
         -0.09478968417011172, -0.03591857365773169),
    (2, "semantic", 2):
        ("on the", False, "112/112/111",
         -0.04483897535506665, -0.02760162700425035),
    (2, "lexical", 48):
        ("on the mat", True, "1122/1122/1112",
         -0.09478968417011172, -0.03591857365773169),
    (2, "lexical", 2):
        ("on the", False, "112/112/111",
         -0.04483897535506665, -0.02760162700425035),
    (2, "off", 48):
        ("on the mat", True, "0000/0000/0000",
         -0.09451088029595682, -0.03581292674501573),
    (2, "off", 2):
        ("on the", False, "000/000/000",
         -0.04448243382878468, -0.027382149950146588),
}


@pytest.mark.parametrize("case", list(_PINNED_GREEDY),
                         ids=lambda case: "-".join(map(str, case)))
def test_greedy_results_are_pinned_to_the_byte(copy_model, case):
    sentence, mode, max_len = case
    scorer = (SpanSimilarity(HashedNgramEmbedder()) if mode == "semantic"
              else None)
    res = run_decoder("greedy", copy_model, SENTENCES[sentence], _PINNED_ROWS,
                      SatisfierConfig(mode=mode), scorer=scorer,
                      max_len=max_len)
    matrix = "/".join("".join(map(str, row))
                      for row in res.flag_matrix.tolist())
    tokens, finished, rows, score, normalized = _PINNED_GREEDY[case]
    assert (" ".join(res.tokens), res.finished, matrix, repr(res.score),
            repr(res.normalized_score)) == (
        tokens, finished, rows, repr(score), repr(normalized))


class TestBatchedSteps:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Rows of every decoder call, recorded by a counting wrapper."""
        rows = []
        real = Seq2SeqModel.decode_step

        def counting(self, cache, parents, last_ids, columns, draft=()):
            rows.append(len(last_ids) + len(draft))
            return real(self, cache, parents, last_ids, columns, draft)

        monkeypatch.setattr(Seq2SeqModel, "decode_step", counting)
        return rows

    def test_beam_makes_one_call_per_search_step(self, copy_model, calls):
        max_len = 10
        # with no drafts, greedy makes one call per chosen token
        decode.draft_table(copy_model).next.clear()
        g = run_decoder("greedy", copy_model, SENTENCES[0], [], OFF,
                        max_len=max_len)
        assert g.finished and len(calls) == len(g.tokens) + 1
        calls.clear()
        run_decoder("beam", copy_model, SENTENCES[0], [], OFF, beam_size=4,
                    max_len=max_len)
        # max_len steps and one closing call: the argmax trajectory rides
        # in the beam's calls, here always as one of its own rows
        assert len(calls) <= max_len + 1
        assert max(calls) <= 4

    # rows of each call of three greedy decodes of one input, from an
    # empty draft table: the first learns each successor and the second
    # sees it a second time in a row, so only the third drafts
    @pytest.mark.parametrize("rows, mode, rows_per_call", [
        ([], "off", [[1, 1, 1, 1], [1, 1, 1, 1], [4]]),
        # "cat" satisfies the constraint, and the rows drafted after it
        # ran under the column before it
        ([(1,)], "lexical", [[1, 1, 1, 1], [1, 1, 1, 1], [4, 2]]),
    ], ids=["off", "column-change"])
    def test_repeated_input_makes_fewer_calls(self, copy_model, calls, rows,
                                              mode, rows_per_call):
        decode.draft_table(copy_model).next.clear()
        counted, results = [], []
        for _ in range(3):
            results.append(_fields(run_decoder(
                "greedy", copy_model, SENTENCES[0], rows,
                SatisfierConfig(mode=mode))))
            counted.append(list(calls))
            calls.clear()
        assert counted == rows_per_call
        assert results[0] == results[1] == results[2]
        assert results[0][0] == SENTENCES[0]

    def test_cbs_makes_one_call_per_search_step(self, copy_model, calls):
        max_len = 10
        run_decoder("cbs", copy_model, ["the", "cat", "brazil"],
                    [(2,), (0,)], LEX, beam_size=2,
                    max_len=max_len)
        # every bank shares one call per step, plus one closing call
        assert len(calls) <= max_len + 1

    # input, constraint rows, then (calls, rows) with the early stop and
    # without it; the budget of 48 clamps to the model's 31 positions
    @pytest.mark.parametrize("decoder, x, rows, stopped, full", [
        ("beam", SENTENCES[2], [], (4, 13), (32, 125)),
        ("cbs", SENTENCES[2], [(1, 2)], (4, 25), (32, 353)),
        ("cbs", ["the", "cat", "brazil"], [(2,), (0,)], (14, 147),
         (32, 355)),
    ], ids=["beam", "cbs-one-row", "cbs-two-rows"])
    def test_work_counters_are_pinned(self, copy_model, calls, decoder, x,
                                      rows, stopped, full):
        counted = []
        for stop in (decode._decided, lambda *args: False):
            with mock.patch.object(decode, "_decided", stop):
                run_decoder(decoder, copy_model, x, rows, LEX, beam_size=4,
                            max_len=48)
            counted.append((len(calls), sum(calls)))
            calls.clear()
        assert counted == [stopped, full]
        # without the stop: 31 steps and one closing call, for beam and
        # cbs alike, since beam's argmax trajectory rides in its steps
        assert full[0] == 31 + 1


class TestPlumbing:
    def test_hypothesis_invariants(self, copy_model):
        res = run_decoder("beam", copy_model, SENTENCES[0], [(1,)], LEX,
                          beam_size=2)
        assert isinstance(res.score, float) and res.score <= 0.0
        assert len(res.tracker.satisfied) == 1
        h = Hypothesis([1, 2], res.tracker, score=-0.75)
        assert (h.score, h.bank, h.finished) == (-0.75, 0, False)
        # live: one chosen token per id
        assert h.normalized(0.7) == pytest.approx(-0.75 / 2 ** 0.7)
        # finished: the stop token is one chosen token more
        h = Hypothesis([1, 2], res.tracker, score=-0.75, finished=True)
        assert h.normalized(0.7) == pytest.approx(-0.75 / 3 ** 0.7)
        # nothing chosen yet divides by 1, not 0
        assert Hypothesis([], res.tracker).normalized(0.7) == 0.0

    def test_run_decoder_dispatch(self, copy_model):
        for name in ("greedy", "beam", "cbs"):
            res = run_decoder(name, copy_model, SENTENCES[0], [], OFF)
            assert isinstance(res, DecodeResult)
        # an unknown name is rejected before the input is encoded
        with mock.patch.object(copy_model, "encode") as encode:
            with pytest.raises(ValueError, match="unknown decoder"):
                run_decoder("sampling", copy_model, SENTENCES[0], [], OFF)
        encode.assert_not_called()

    @pytest.mark.parametrize("name", ["greedy", "beam", "cbs"])
    @pytest.mark.parametrize("row", [(5,), (-1,)])
    def test_out_of_range_row_is_named(self, copy_model, name, row):
        # the tracker checks the rows before CBS reads them as targets
        with pytest.raises(IndexOutOfRange, match="outside input"):
            run_decoder(name, copy_model, ["the", "cat"], [row], LEX)

    def test_decode_deterministic_across_runs(self, copy_model):
        a = run_decoder("beam", copy_model, SENTENCES[1], [(1,)], LEX,
                        beam_size=3)
        b = run_decoder("beam", copy_model, SENTENCES[1], [(1,)], LEX,
                        beam_size=3)
        assert a.tokens == b.tokens and a.score == b.score


# -------------------------------------------------- drafted argmax loop

def _one_token_loop(model, x, rows, config, scorer, max_len, beam,
                    alpha=0.7):
    """The argmax loop as one one-row decode_step call per chosen token,
    the oracle of the drafted loop: every field a result carries."""
    vocab = model.vocab
    max_len = max(1, min(max_len, model.config.max_len - 1))
    tracker = FlagTracker(x, rows, config, scorer=scorer)
    cache = model.begin_decode(model.encode(x))
    ids, score, finished = [], 0.0, False

    def step():
        nonlocal cache
        lp, cache = model.decode_step(cache, [0], [ids[-1] if ids
                                                  else vocab.bos_id],
                                      tracker.current[None])
        lp[0, vocab.never_emitted] = -np.inf
        return lp[0]

    for _ in range(max_len):
        lp = step()
        nxt = int(np.argmax(lp))
        score += float(lp[nxt])
        if nxt == vocab.eos_id:
            finished = True
            break
        ids.append(nxt)
        tracker.step(vocab.tokens[nxt])
    if beam and not finished:  # width 1 closes at budget
        score += float(step()[vocab.eos_id])
        finished = True
    return ([vocab.tokens[i] for i in ids], repr(score),
            repr(score / max(1, len(ids) + finished) ** alpha), finished,
            tracker.matrix().tobytes(), tracker.satisfied)


@pytest.fixture(scope="module")
def wild_model():
    """Untrained model far from its near-uniform init, with style
    lexicon words: its outputs run long and flip flags at random."""
    vocab = Vocabulary(sorted({t for s in SENTENCES for t in s}
                              | {"i", "my", "we", "mine"}))
    model = Seq2SeqModel(ModelConfig(dim=16, heads=2, enc_layers=2,
                                     dec_layers=2, ff=24, max_len=12,
                                     seed=6), vocab)
    rng = np.random.default_rng(6)
    for name, value in model.params.items():
        model.params[name] = value + rng.normal(0.0, 1.0, value.shape)
    model.params["flag.ek"][0] = 0.0
    model.params["flag.ev"][0] = 0.0
    return model


@pytest.mark.parametrize("name", ["greedy", "beam", "cbs"])
@pytest.mark.parametrize("x", [["the", "cat", "sat"], ["mine", "on", "mat"],
                               ["dog"]])
def test_no_decoder_emits_a_special_token(wild_model, name, x):
    """Of the special tokens only the stop token is emitted, and it ends
    the output instead of joining it: the wild model's argmax is <unk>
    at most steps."""
    for rows in ([], [(0,)]):
        res = run_decoder(name, wild_model, x, rows, LEX, beam_size=3,
                          max_len=10)
        assert not set(res.tokens) & set(SPECIALS), res.tokens


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_drafted_loop_matches_one_call_per_token(copy_model, wild_model,
                                                 data):
    """Drafted greedy and width-1 beam return every field the one-token
    loop returns, whatever the draft table holds: successors learned
    from the right output, garbage ids (stop, pad, start, unknown, out of
    range), cycles that run past the budget; also when a drafted
    token's embedding is NaN."""
    model = data.draw(st.sampled_from([copy_model, wild_model]),
                      label="model")
    vocab = model.vocab
    words = vocab.tokens[5:]
    x = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=5),
                  label="x")
    span = st.tuples(st.integers(0, len(x) - 1), st.integers(1, 2)).map(
        lambda s: tuple(range(s[0], min(len(x), s[0] + s[1]))))
    rows = data.draw(st.lists(span, max_size=2), label="rows")
    mode = data.draw(st.sampled_from(["semantic", "lexical", "off"]),
                     label="mode")
    config = SatisfierConfig(mode=mode,
                             style_enabled=data.draw(st.booleans(),
                                                     label="style"))
    max_len = data.draw(st.integers(1, model.config.max_len + 2),
                        label="max_len")
    beam = data.draw(st.booleans(), label="width-one beam")

    def scorer():
        return SpanSimilarity(HashedNgramEmbedder())

    # the tables learn the right output from the clean model
    right = _one_token_loop(model, x, rows, config, scorer(), max_len, beam)
    table = decode.DraftTable()
    if data.draw(st.sampled_from([True, True, False]), label="learned"):
        for _ in range(2):
            table.learn(vocab, vocab.encode(right[0]), right[3])
    ids = st.integers(-2, len(vocab) + 1)
    # wrong successors of learned contexts, then any entries at all
    for context in data.draw(st.lists(st.sampled_from(sorted(table.next)),
                                      max_size=3)
                             if table.next else st.just([]),
                             label="wrong"):
        table.next[context] = (data.draw(ids, label="successor"), 2)
    table.next.update(data.draw(st.dictionaries(
        st.tuples(ids, ids), st.tuples(ids, st.integers(1, 3)),
        max_size=12), label="garbage"))
    tok_emb = model.params["tok_emb"].copy()
    poisoned = data.draw(st.none() | st.sampled_from(
        vocab.encode(right[0]) or [vocab.unk_id]), label="NaN token")
    if poisoned is not None:
        tok_emb[poisoned] = np.nan
    with mock.patch.dict(model.params, {"tok_emb": tok_emb}), \
            np.errstate(all="ignore"):
        try:
            want = _one_token_loop(model, x, rows, config, scorer(),
                                   max_len, beam)
        except NonFiniteLogProbs:
            want = NonFiniteLogProbs
        model.drafts = table
        try:
            res = run_decoder("beam" if beam else "greedy", model, x, rows,
                              config, scorer=scorer(), beam_size=1,
                              max_len=max_len)
            got = (res.tokens, repr(res.score), repr(res.normalized_score),
                   res.finished, res.flag_matrix.tobytes(),
                   res.tracker.satisfied)
        except NonFiniteLogProbs:
            got = NonFiniteLogProbs
    assert got == want


def test_draft_table_guesses_only_repeated_emittable_successors():
    vocab = Vocabulary(["a", "b", "c"])
    a, b, c = vocab.encode(["a", "b", "c"])
    table = decode.DraftTable()
    table.learn(vocab, [a, b, c], True)
    assert table.guess(vocab, [], 8) == []  # each seen once
    table.learn(vocab, [a, b, c], True)
    # the stop token ends a guess; so does the budget
    assert table.guess(vocab, [], 8) == [a, b, c]
    assert table.guess(vocab, [], 2) == [a, b]
    assert table.guess(vocab, [a], 8) == [b, c]
    table.learn(vocab, [a, c], False)  # (start, a) now followed by c once
    assert table.guess(vocab, [], 8) == [a]
    # a cycle drafts MAX_DRAFT tokens at most
    for _ in range(2):
        table.learn(vocab, [a, a, a, a], False)
    assert table.guess(vocab, [a, a], 100) == [a] * decode.MAX_DRAFT


def test_draft_table_is_cleared_when_full(monkeypatch):
    monkeypatch.setattr(decode, "DRAFT_CAP", 3)
    vocab = Vocabulary(["a", "b", "c"])
    table = decode.DraftTable()
    table.learn(vocab, vocab.encode(["a", "b"]), False)
    assert len(table.next) == 2
    table.learn(vocab, vocab.encode(["a", "b", "c", "a"]), False)
    # the third new context cleared the full table before it went in
    assert len(table.next) == 1
