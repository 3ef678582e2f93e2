"""Transformer tests: a hand-worked flag-attention example, finite-difference
gradient checks over every parameter family, vanilla-equivalence at the bit
level, overfitting, determinism, and checkpointing."""

import json
import math
import os
import platform
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from restate.model import (Adam, CheckpointMismatch,
                           CheckpointVersionMismatch, LengthOverflow,
                           ModelConfig, NonFiniteLoss, Seq2SeqModel,
                           ShapeMismatch, TrainingConfig, TrainingExample,
                           Workers, assemble_batch, train)
from restate.model import nn, training
from restate.vocab import Vocabulary


def tiny_model(seed=3, dim=16, heads=2, enc_layers=2, dec_layers=2, ff=24,
               extra=()):
    vocab = Vocabulary(["the", "cat", "sat", "on", "mat", "dog", "ran",
                        *extra])
    cfg = ModelConfig(dim=dim, heads=heads, enc_layers=enc_layers,
                      dec_layers=dec_layers, ff=ff, max_len=32, seed=seed)
    return Seq2SeqModel(cfg, vocab)


def _unloadable_libc(name):
    raise OSError("no C library")


def tiny_batch(vocab):
    ex1 = TrainingExample(
        ["the", "cat", "sat"], ["the", "dog", "ran"],
        np.array([[0, 0, 0, 0], [1, 1, 2, 2], [0, 0, 0, 0]]))
    ex2 = TrainingExample(
        ["on", "the", "mat", "sat"], ["cat", "sat"],
        np.array([[0, 0, 0], [1, 1, 1], [1, 2, 2], [0, 0, 0]]))
    return assemble_batch([ex1, ex2], vocab)


def teacher_forced_logprobs(model, x_tokens, prefix_ids, m):
    """Log-probabilities of the token after prefix_ids, from the
    teacher-forced logits_batch over the whole prefix: the uncached
    reference for decode_step. m: (len(x_tokens), len(prefix_ids) + 1)
    flag columns, or None for all-zero flags."""
    src = np.asarray([model.vocab.encode(list(x_tokens))])
    tgt_in = np.asarray([[model.vocab.bos_id] + list(prefix_ids)])
    m_batch = None if m is None else np.asarray(m)[None]
    return nn.log_softmax(model.logits_batch(src, tgt_in, m_batch)[0, -1])


# ---------------------------------------------------------------- hand trace

# Setup: one head, dim 2, identity projections. Decoder states are two
# copies of [1, 0]; encoder states are [1, 0] and [0, 1]. Query 0 sees
# flag column [1, 0], query 1 sees [2, 0]. With ek1 = [.5, .25],
# ek2 = [-.3, .1], ev1 = [.2, -.4], ev2 = [.05, .15] the scalar math
# (worked out with plain math.exp, frozen below) gives:
#   logits q0 = [(1 + .5)/sqrt2, 0] -> alpha [0.742816684773193,
#                                             0.25718331522680704]
#   out q0 = a0*[1.2, -.4] + a1*[0, 1]
#   logits q1 = [(1 - .3)/sqrt2, 0] -> alpha [0.6212776533473258,
#                                             0.37872234665267435]
#   out q1 = a0*[1.05, .15] + a1*[0, 1]
HAND_OUT = np.array([
    [0.8913800217278315, -0.039943358682470176],
    [0.652341536014692, 0.47191399465477324],
])
HAND_ALPHA = np.array([
    [0.742816684773193, 0.25718331522680704],
    [0.6212776533473258, 0.37872234665267435],
])


class TestHandComputedFlagAttention:
    def setup_method(self):
        self.h_d = np.array([[1.0, 0.0], [1.0, 0.0]])
        self.h_e = np.array([[1.0, 0.0], [0.0, 1.0]])
        self.ek = np.array([[0.0, 0.0], [0.5, 0.25], [-0.3, 0.1]])
        self.ev = np.array([[0.0, 0.0], [0.2, -0.4], [0.05, 0.15]])
        self.m = np.array([[1, 2], [0, 0]])

    def attend(self, onehot):
        """nn.flagged_attention with one head and identity projections:
        q = h_d, k = v = h_e. Returns the output and the weights."""
        kv = self.h_e[None, None]
        ctx, cache = nn.flagged_attention(self.h_d[None, None], kv, kv,
                                          onehot, self.ek[:, None],
                                          self.ev[:, None])
        return ctx[0, 0], cache[6][0, 0]

    def test_against_scalar_derivation(self):
        out, w = self.attend(nn.flag_onehot(self.m[None]))
        np.testing.assert_allclose(out, HAND_OUT, atol=1e-9, rtol=0)
        np.testing.assert_allclose(w, HAND_ALPHA, atol=1e-9, rtol=0)

    def test_rederive_with_plain_python(self):
        # independent scalar recomputation, no numpy in the hot path
        for col, (eo, ea) in zip([(1, 0), (2, 0)], zip(HAND_OUT, HAND_ALPHA)):
            lg = [(1.0 + self.ek[col[0]][0]) / math.sqrt(2.0), 0.0]
            mx = max(lg)
            es = [math.exp(v - mx) for v in lg]
            a = [v / sum(es) for v in es]
            assert abs(a[0] - ea[0]) < 1e-12 and abs(a[1] - ea[1]) < 1e-12
            o0 = a[0] * (1.0 + self.ev[col[0]][0])
            o1 = a[0] * self.ev[col[0]][1] + a[1] * 1.0
            assert abs(o0 - eo[0]) < 1e-12 and abs(o1 - eo[1]) < 1e-12

    def test_weights_rows_sum_to_one(self):
        _, w = self.attend(nn.flag_onehot(self.m[None]))
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)

    def test_bad_flag_shape_rejected(self):
        # flags for three keys against two encoder states
        with pytest.raises(ShapeMismatch):
            self.attend(nn.flag_onehot(np.zeros((1, 3, 2), dtype=int)))


# ------------------------------------------------------- vanilla equivalence

class TestVanillaEquivalence:
    @pytest.mark.parametrize("padded", [False, True])
    def test_zero_onehot_attention_is_plain_attention(self, padded):
        # with every key at flag 0, the flag terms are exact zeros, so
        # flagged attention and its backward are plain attention's bytes
        rng = np.random.default_rng(5)
        q, dctx = rng.normal(size=(2, 2, 2, 3, 4))  # (B, H, Lq, Dh)
        k, v = rng.normal(size=(2, 2, 2, 4, 4))  # (B, H, Lk, Dh)
        ek3, ev3 = rng.normal(size=(2, 3, 2, 4))
        ek3[0] = ev3[0] = 0.0
        onehot = nn.flag_onehot(np.zeros((2, 4, 3), dtype=int))
        mask = (nn.padding_mask(np.array([[True] * 4, [True, True, False,
                                                       False]]))
                if padded else None)
        ctx, cache = nn.flagged_attention(q, k, v, onehot, ek3, ev3, mask)
        ref, ref_cache = nn.attention(q, k, v, mask)
        assert ctx.tobytes() == ref.tobytes()
        for got, want in zip(nn.flagged_attention_bwd(cache, dctx),
                             nn.attention_bwd(ref_cache, dctx)):
            assert got.tobytes() == want.tobytes()

    def test_zero_flags_bitwise_equal_to_vanilla_path(self):
        model = tiny_model()
        src, tgt_in, tgt_out, mb = tiny_batch(model.vocab)
        zeros = np.zeros_like(mb)
        a = model.logits_batch(src, tgt_in, zeros)
        b = model.logits_batch(src, tgt_in, None)
        assert np.array_equal(a, b)

    def test_zero_flags_bitwise_equal_gradients(self):
        model = tiny_model()
        src, tgt_in, tgt_out, mb = tiny_batch(model.vocab)
        loss_a, grads_a = model.loss_and_grads(src, tgt_in, tgt_out,
                                               np.zeros_like(mb))
        loss_b, grads_b = model.loss_and_grads(src, tgt_in, tgt_out, None)
        assert repr(loss_a) == repr(loss_b)
        assert set(grads_a) == set(grads_b) == set(model.params)
        for name in model.params:
            assert grads_a[name].tobytes() == grads_b[name].tobytes(), name

    def test_zeroed_tables_ignore_any_flags(self):
        model = tiny_model()
        src, tgt_in, tgt_out, mb = tiny_batch(model.vocab)
        model.params["flag.ek"][:] = 0.0
        model.params["flag.ev"][:] = 0.0
        a = model.logits_batch(src, tgt_in, mb)
        b = model.logits_batch(src, tgt_in, None)
        assert np.array_equal(a, b)

    def test_nonzero_flags_change_logits(self):
        model = tiny_model()
        src, tgt_in, tgt_out, mb = tiny_batch(model.vocab)
        a = model.logits_batch(src, tgt_in, mb)
        b = model.logits_batch(src, tgt_in, None)
        assert not np.allclose(a, b)

    def test_single_flag_cell_perturbs_prediction(self):
        model = tiny_model()
        x = ["the", "cat", "sat"]
        m0 = np.zeros((3, 2), dtype=int)
        m1 = m0.copy()
        m1[1, 1] = 1
        prefix = model.vocab.encode(["the"])
        a = teacher_forced_logprobs(model, x, prefix, m0)
        b = teacher_forced_logprobs(model, x, prefix, m1)
        assert np.max(np.abs(a - b)) > 1e-12

    def test_flag_row_zero_never_trains(self):
        model = tiny_model()
        exs = [TrainingExample(["the", "cat"], ["the"],
                               np.array([[1, 2], [0, 0]]))]
        train(model, exs, TrainingConfig(lr=1e-3, batch_size=1, epochs=3,
                                         seed=0))
        assert np.all(model.params["flag.ek"][0] == 0.0)
        assert np.all(model.params["flag.ev"][0] == 0.0)
        assert np.any(model.params["flag.ek"][1:] != 0.0)


# ------------------------------------------------------------ gradient check

class TestGradients:
    def test_finite_differences_every_parameter_family(self):
        vocab = Vocabulary(["a", "b", "c", "d"])
        cfg = ModelConfig(dim=8, heads=2, enc_layers=1, dec_layers=1,
                          ff=12, max_len=16, seed=11)
        model = Seq2SeqModel(cfg, vocab)
        ex1 = TrainingExample(["a", "b", "c"], ["b", "d"],
                              np.array([[0, 0, 0], [1, 2, 2], [1, 1, 1]]))
        ex2 = TrainingExample(["d", "c"], ["a", "c", "b"],
                              np.array([[1, 1, 2, 2], [0, 0, 0, 0]]))
        src, tgt_in, tgt_out, mb = assemble_batch([ex1, ex2], vocab)
        loss, grads = model.loss_and_grads(src, tgt_in, tgt_out, mb)
        rng = np.random.default_rng(7)
        eps = 1e-6
        assert set(grads) == set(model.params)
        for name, arr in model.params.items():
            for _ in range(4):
                idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
                if name.startswith("flag.") and idx[0] == 0:
                    idx = (1 + int(rng.integers(0, 2)),) + idx[1:]
                old = arr[idx]
                arr[idx] = old + eps
                lp, _ = model.loss_and_grads(src, tgt_in, tgt_out, mb)
                arr[idx] = old - eps
                lm, _ = model.loss_and_grads(src, tgt_in, tgt_out, mb)
                arr[idx] = old
                num = (lp - lm) / (2 * eps)
                ana = grads[name][idx]
                assert abs(num - ana) <= 1e-7 + 1e-4 * (abs(num) + abs(ana)), \
                    "gradient mismatch at %s%s: %r vs %r" % (name, idx,
                                                             num, ana)

    def test_pad_positions_get_no_loss_or_gradient(self):
        model = tiny_model()
        vocab = model.vocab
        ex1 = TrainingExample(["the", "cat"], ["sat"],
                              np.array([[0, 0], [0, 0]]))
        ex2 = TrainingExample(["the", "cat", "sat", "on"], ["mat", "dog",
                                                            "ran"],
                              np.array([[0] * 4] * 4))
        src, tgt_in, tgt_out, mb = assemble_batch([ex1, ex2], vocab)
        logits = model.logits_batch(src, tgt_in, mb)
        mask = (tgt_out != vocab.pad_id).astype(float)
        _, dlogits = nn.cross_entropy_terms(logits, tgt_out, mask,
                                            mask.sum())
        # rows behind the loss mask contribute nothing
        assert np.all(dlogits[0, 2:] == 0.0)


# ----------------------------------------------------------------- training

class TestTraining:
    def test_overfits_single_example(self):
        model = tiny_model(seed=5)
        ex = TrainingExample(["the", "cat", "sat"], ["the", "dog", "ran"],
                             np.array([[0, 0, 0, 0], [1, 1, 2, 2],
                                       [0, 0, 0, 0]]))
        cfg = TrainingConfig(lr=3e-3, batch_size=1, epochs=200, seed=1)
        rows = train(model, [ex], cfg)
        assert rows[-1][2] < 0.1
        assert rows[-1][2] < rows[0][2]

    def test_training_is_deterministic(self):
        logs = []
        for _ in range(2):
            model = tiny_model(seed=5)
            ex = TrainingExample(["the", "cat"], ["dog"],
                                 np.array([[0, 0], [1, 2]]))
            cfg = TrainingConfig(lr=1e-3, batch_size=1, epochs=5, seed=9)
            logs.append(train(model, [ex], cfg))
        assert repr(logs[0]) == repr(logs[1])

    def test_same_seed_same_init(self):
        a = tiny_model(seed=8)
        b = tiny_model(seed=8)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])
        c = tiny_model(seed=9)
        assert any(not np.array_equal(a.params[k], c.params[k])
                   for k in a.params)

    def test_nonfinite_loss_raises(self):
        model = tiny_model()
        model.params["out.w"][:] = np.inf
        ex = TrainingExample(["the"], ["cat"], np.array([[0, 0]]))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLoss):
                train(model, [ex], TrainingConfig(epochs=1, batch_size=1))

    def test_empty_training_set_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            train(model, [], TrainingConfig(epochs=1))

    def test_adam_first_step_is_signed_unit_step(self):
        params = {"w": np.array([2.0, -1.0])}
        cfg = TrainingConfig(lr=0.01)
        opt = Adam(params, cfg)
        opt.step(params, {"w": np.array([0.5, -0.25])})
        np.testing.assert_allclose(
            params["w"], [2.0 - 0.01 * 0.5 / (0.5 + 1e-8),
                          -1.0 + 0.01 * 0.25 / (0.25 + 1e-8)], atol=1e-12)

    def test_gradient_clipping_bounds_update(self):
        arrs = [np.full((4,), 3.0), np.full((2,), -4.0)]
        assert abs(nn.global_norm(arrs) - math.sqrt(36 + 32)) < 1e-12

    def test_bad_training_config_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(lr=0.0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError, match="epochs"):
            TrainingConfig(epochs=0)

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", float("-inf")),
        ("lr", -1e-3), ("log_every", -1)])
    def test_bad_training_config_names_its_field(self, field, value):
        with pytest.raises(ValueError, match="^%s must be " % field):
            TrainingConfig(**{field: value})

    @pytest.mark.parametrize("cdll", [_unloadable_libc,
                                      lambda name: object()],
                             ids=["unloadable", "without-mallopt"])
    def test_rows_do_not_depend_on_mallopt(self, monkeypatch, cdll):
        ex = TrainingExample(["the", "cat"], ["dog", "ran"],
                             np.array([[0, 0, 0], [1, 2, 2]]))
        cfg = TrainingConfig(lr=1e-3, batch_size=1, epochs=3, seed=4)

        def run():
            model = tiny_model(seed=5)
            return repr(train(model, [ex], cfg)), model.params

        rows, params = run()
        monkeypatch.setattr(training.ctypes, "CDLL", cdll)
        rows_without, params_without = run()
        assert rows_without == rows
        for k in params:
            assert params_without[k].tobytes() == params[k].tobytes()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is glibc's mallopt")
    def test_second_epoch_reuses_freed_heap(self, run_pinned):
        # 4 steps of the default model shape; with glibc's adaptive
        # thresholds each step faults its freed temporaries back in
        # (about 12,000 minor faults for the epoch), with train's pinned
        # thresholds they stay in the heap (under 100)
        faults = int(run_pinned("""
            import resource
            from restate import datagen
            from restate.flags import SatisfierConfig
            from restate.model import (ModelConfig, Seq2SeqModel,
                                       TrainingConfig, example_from_record,
                                       train)
            from restate.vocab import Vocabulary
            recs = [datagen.model_record(inst)
                    for inst in datagen.build_corpus(0, (64, 0, 0))]
            vocab = Vocabulary.build([r[k] for r in recs
                                      for k in ("x_tokens", "target_tokens")])
            lexical = SatisfierConfig(mode="lexical")
            examples = [example_from_record(r, lexical) for r in recs]
            model = Seq2SeqModel(ModelConfig(), vocab)
            cfg = TrainingConfig(batch_size=16, epochs=1)
            train(model, examples, cfg)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train(model, examples, cfg)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """))
        assert faults < 1000, faults


# ------------------------------------------------------------- workers

def _failure(model, batch, workers):
    """Type and message of what loss_and_grads raises on batch."""
    with Workers(workers) as pool, pytest.raises(Exception) as info:
        model.loss_and_grads(*batch, pool)
    return type(info.value), str(info.value)


class TestWorkers:
    def test_worker_count_does_not_change_bytes(self, run_pinned):
        # the CLI's default shape (dim 64): a short target's decoder
        # products have at most 18 rows, BLAS's small-matrix kernels
        out = json.loads(run_pinned("""
            import hashlib, json
            from restate import datagen
            from restate.flags import SatisfierConfig
            from restate.model import (ModelConfig, Seq2SeqModel,
                                       TrainingConfig, TrainingExample,
                                       Workers, assemble_batch,
                                       example_from_record, train, training)
            from restate.similarity import HashedNgramEmbedder, SpanSimilarity
            from restate.vocab import Vocabulary

            def digest(arrays):
                h = hashlib.sha256()
                for name in sorted(arrays):
                    h.update(name.encode())
                    h.update(arrays[name].tobytes())
                return h.hexdigest()

            recs = [datagen.model_record(inst)
                    for inst in datagen.build_corpus(0, (64, 0, 0))]
            recs.sort(key=lambda r: len(r["target_tokens"]))
            recs = recs[:8] + recs[-7:]  # 8 short targets, 7 long ones
            vocab = Vocabulary.build([r[k] for r in recs
                                      for k in ("x_tokens", "target_tokens")])
            semantic = SatisfierConfig(mode="semantic")
            scorer = SpanSimilarity(HashedNgramEmbedder())
            modes = {
                "off": [TrainingExample(r["x_tokens"], r["target_tokens"])
                        for r in recs],
                "semantic": [example_from_record(r, semantic, scorer)
                             for r in recs],
            }
            out = {}
            for mode, examples in modes.items():
                for workers in (1, 2, 3):
                    training.worker_count = lambda: workers
                    model = Seq2SeqModel(ModelConfig(), vocab)
                    # 15 examples in batches of 7, 7 and 1
                    rows = train(model, examples,
                                 TrainingConfig(batch_size=7, epochs=2,
                                                log_every=1))
                    steps = []
                    with Workers(workers) as pool:
                        # short targets only, long ones only, one example
                        for part in (examples[:5], examples[-5:],
                                     examples[7:8]):
                            loss, grads = model.loss_and_grads(
                                *assemble_batch(part, vocab), pool)
                            steps.append([repr(loss), digest(grads)])
                    out["%s/%d" % (mode, workers)] = [
                        repr(rows), digest(model.params), steps]
            print(json.dumps(out))
        """))
        for mode in ("off", "semantic"):
            assert out[mode + "/2"] == out[mode + "/1"]
            assert out[mode + "/3"] == out[mode + "/1"]

    @pytest.mark.parametrize("env, workers", [
        ({}, 1), ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
        ({"GOTO_NUM_THREADS": "many", "OMP_NUM_THREADS": "3"}, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1)])
    def test_worker_count_leaves_blas_its_threads(self, monkeypatch, env,
                                                  workers):
        for var in training.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(training.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        assert training.worker_count() == workers

    def test_no_thread_outlives_train(self, monkeypatch):
        monkeypatch.setattr(training, "worker_count", lambda: 3)
        before = set(threading.enumerate())
        extra = []
        exs = [TrainingExample(["the", "cat"], ["dog", "ran"]),
               TrainingExample(["on", "the", "mat"], ["sat"]),
               TrainingExample(["dog"], ["the", "cat", "sat"])] * 2
        train(tiny_model(), exs, TrainingConfig(batch_size=6, epochs=1,
                                                log_every=1),
              log=lambda _: extra.append(
                  len(set(threading.enumerate()) - before)))
        assert max(extra) in (1, 2)  # pool threads, reused once idle
        assert set(threading.enumerate()) == before
        overflow = TrainingExample(["the"] * 40, ["cat"])
        with pytest.raises(LengthOverflow):
            train(tiny_model(), [overflow] * 6,
                  TrainingConfig(batch_size=6, epochs=1))
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("workers", [2, 3])
    def test_block_failure_matches_one_worker(self, workers):
        model = tiny_model()
        batch = assemble_batch([TrainingExample(["the"] * 40, ["cat"])] * 6,
                               model.vocab)
        assert _failure(model, batch, workers) == \
            _failure(model, batch, 1) == \
            (LengthOverflow, "source length 40 > max_len 32")

    def test_blocks_run_under_the_callers_error_state(self):
        # only the last example holds the token whose embedding is
        # infinite, so with 3 workers only a pool thread computes the
        # inf - inf of its first layer norm
        model = tiny_model(extra=("boom",))
        model.params["tok_emb"][model.vocab.encode(["boom"])] = np.inf
        batch = assemble_batch(
            [TrainingExample(["the", "cat"], ["sat"])] * 5
            + [TrainingExample(["boom", "ran"], ["cat"])], model.vocab)
        with np.errstate(invalid="raise"):
            assert _failure(model, batch, 3) == _failure(model, batch, 1) \
                == (FloatingPointError, "invalid value encountered in"
                    " subtract")


# ------------------------------------------------------------- batch shapes

class TestBatchAssembly:
    def test_shapes_and_padding(self):
        vocab = Vocabulary(["the", "cat", "sat", "on", "mat", "dog", "ran"])
        src, tgt_in, tgt_out, mb = tiny_batch(vocab)
        assert src.shape == (2, 4) and tgt_in.shape == (2, 4)
        assert tgt_in[0, 0] == vocab.bos_id
        assert tgt_out[0, 3] == vocab.eos_id
        assert src[0, 3] == vocab.pad_id
        assert tgt_in[1, 3] == vocab.pad_id and tgt_out[1, 3] == vocab.pad_id
        assert mb.shape == (2, 4, 4)
        assert np.all(mb[1, :, 3] == 0)  # padded flag column
        assert np.all(mb[0, 3, :] == 0)  # padded source row

    def test_flag_matrix_shape_validated(self):
        vocab = Vocabulary(["a", "b"])
        ex = TrainingExample(["a"], ["b"], np.zeros((1, 3), dtype=int))
        with pytest.raises(ShapeMismatch):
            assemble_batch([ex], vocab)

    def test_flag_batch_pads_with_zeros(self):
        vocab = Vocabulary(["a", "b", "c"])
        flagged = TrainingExample(["a", "b"], ["c"], np.ones((2, 2), int))
        plain = TrainingExample(["a", "b", "c"], ["a", "b", "c"], None)
        for batch, row in (([flagged, plain], 0), ([plain, flagged], 1)):
            mb = assemble_batch(batch, vocab)[3]
            assert mb.shape == (2, 3, 4) and mb.dtype == np.int64
            assert np.all(mb[row, :2, :2] == 1) and mb[row].sum() == 4
            assert mb[1 - row].sum() == 0
        mb = assemble_batch([plain, plain], vocab)[3]
        assert mb.shape == (2, 3, 4) and mb.dtype == np.int64
        assert not mb.any()

    def test_model_rejects_wrong_flag_batch(self):
        model = tiny_model()
        src, tgt_in, _, _ = tiny_batch(model.vocab)
        with pytest.raises(ShapeMismatch):
            model.logits_batch(src, tgt_in, np.zeros((2, 4, 9), dtype=int))


# ----------------------------------------------------------- model behavior

class TestModelBehavior:
    def test_position_sensitivity(self):
        model = tiny_model()
        a = model.forward(["the", "cat"], ["sat"], None)
        b = model.forward(["cat", "the"], ["sat"], None)
        assert not np.allclose(a, b)

    def test_forward_rows_are_distributions(self):
        model = tiny_model()
        m = np.array([[0, 0], [1, 1], [0, 0]])
        probs = model.forward(["the", "cat", "sat"], ["dog"], m)
        assert probs.shape == (2, len(model.vocab))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_predict_next_matches_forward_tail(self):
        model = tiny_model()
        m = np.array([[0, 0], [1, 1], [0, 0]])
        probs = model.forward(["the", "cat", "sat"], ["dog"], m)
        henc = model.encode(["the", "cat", "sat"])
        lp = model.predict_next_from_states(henc, model.vocab.encode(["dog"]),
                                            m)
        np.testing.assert_allclose(np.exp(lp), probs[-1], atol=1e-12)

    def test_padding_attention_weight_negligible(self):
        model = tiny_model()
        src = np.array(model.vocab.encode(["the", "cat", "sat"])
                       + [model.vocab.pad_id])[None]
        real = src != model.vocab.pad_id
        henc, cache = model._encode_ids(src, real)
        for layer in cache[1]:
            alpha = layer[0][2][3]  # attention cache inside the layer cache
            assert np.all(alpha[..., -1] < 1e-6)
            np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-9)

    def test_causal_masking(self):
        # future target tokens must not influence earlier positions
        model = tiny_model()
        a = model.forward(["the", "cat"], ["sat", "on"], None)
        b = model.forward(["the", "cat"], ["sat", "mat"], None)
        np.testing.assert_allclose(a[:2], b[:2], atol=1e-12)
        assert not np.allclose(a[2], b[2])

    def test_length_overflow(self):
        model = tiny_model()
        with pytest.raises(LengthOverflow):
            model.encode(["the"] * 33)
        with pytest.raises(LengthOverflow):
            model.forward(["the"], ["cat"] * 40, None)

    def test_encoder_states_shape(self):
        model = tiny_model()
        h = model.encode(["the", "cat", "sat"])
        assert h.shape == (3, model.config.dim)

    def test_dim_heads_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(dim=10, heads=4)

    @pytest.mark.parametrize("field", ["dim", "heads", "ff", "enc_layers",
                                       "dec_layers", "max_len"])
    @pytest.mark.parametrize("value", [0, -4])
    def test_sizes_below_one_rejected(self, field, value):
        # heads=0 is checked before dim % heads can divide by it
        with pytest.raises(ValueError, match="^%s must be at least 1"
                           % field):
            ModelConfig(**{field: value})


# ------------------------------------------------------ incremental decoding

_STEP_VOCAB = tiny_model().vocab  # every seed's vocabulary


@st.composite
def _step_plans(draw):
    """A model seed, a source, and per decoder call the parent row, the
    appended token (ignored on the first call) and the flag column of
    each of its rows."""
    seed = draw(st.integers(0, 2 ** 16), label="seed")
    ls = draw(st.integers(1, 6), label="source length")
    src = draw(st.lists(st.sampled_from(_STEP_VOCAB.tokens[5:]), min_size=ls,
                        max_size=ls), label="source")
    column = st.lists(st.integers(0, 2), min_size=ls, max_size=ls)
    steps, width = [], 1
    for _ in range(draw(st.integers(1, 6), label="steps")):
        parents = draw(st.lists(st.integers(0, width - 1), min_size=1,
                                max_size=4), label="parents")
        width = len(parents)
        # any id but pad, which no decoder feeds and teacher forcing
        # reads as padding
        steps.append([(parent,
                       draw(st.integers(1, len(_STEP_VOCAB) - 1),
                            label="token"),
                       draw(column, label="column")) for parent in parents])
    return seed, src, steps


@settings(max_examples=40, deadline=None)
@given(_step_plans())
# every parent list the identity over the cached rows: one row as in
# greedy decoding, and three rows
@example((5, ["the", "cat", "sat"],
          [[(0, 0, [0, 1, 2])], [(0, 6, [1, 1, 2])], [(0, 7, [1, 2, 0])],
           [(0, 9, [2, 2, 0])]]))
@example((9, ["dog", "ran"],
          [[(0, 0, [0, 1]), (0, 0, [2, 1]), (0, 0, [1, 0])],
           [(0, 5, [1, 1]), (1, 8, [0, 2]), (2, 6, [2, 2])],
           [(0, 7, [1, 2]), (1, 7, [0, 0]), (2, 9, [2, 1])]]))
def test_cached_step_matches_full_prefix(plan):
    """Each row of a batched cached step equals the teacher-forced
    prediction on that row's whole prefix and flag matrix, whatever rows
    the parents pick, in any order and with repeats. Branching an older
    cache with other tokens leaves every cache's bytes, and stepping it
    again gives the same bytes, so no step writes into arrays another
    cache holds."""
    seed, src, steps = plan
    model = tiny_model(seed=seed)
    rng = np.random.default_rng(seed)
    for name, value in model.params.items():  # far from the near-uniform init
        model.params[name] = value + rng.normal(0.0, 0.5, value.shape)
    model.params["flag.ek"][0] = 0.0
    model.params["flag.ev"][0] = 0.0
    cache = model.begin_decode(model.encode(src))
    rows = [([], [])]  # (prefix ids, flag columns) per row of the last call
    calls = []
    for t, step in enumerate(steps):
        new = []
        for parent, token, column in step:
            prefix, history = rows[parent]
            if t:
                prefix = prefix + [token]
            new.append((prefix, history + [np.array(column)]))
        parents = [parent for parent, _, _ in step]
        last = [prefix[-1] if prefix else model.vocab.bos_id
                for prefix, _ in new]
        args = (parents, last, np.stack([h[-1] for _, h in new]))
        lp, newer = model.decode_step(cache, *args)
        calls.append((cache, args, lp, newer, _kv_bytes(newer)))
        assert lp.shape == (len(new), len(model.vocab))
        for row, (prefix, history) in enumerate(new):
            ref = teacher_forced_logprobs(model, src, prefix,
                                          np.stack(history, axis=1))
            np.testing.assert_allclose(lp[row], ref, rtol=0.0, atol=1e-9)
        rows, cache = new, newer
    # branch every cache with other tokens: a step that wrote into arrays
    # another cache holds would change that cache's bytes or what a
    # replay of an earlier call reads
    for older, (parents, last, columns), _, _, _ in calls:
        model.decode_step(older, parents,
                          [(i + 1) % len(model.vocab) for i in last], columns)
    for _, _, _, newer, kv in calls:
        assert _kv_bytes(newer) == kv
    for older, args, lp, _, kv in calls:
        again_lp, again = model.decode_step(older, *args)
        assert again_lp.tobytes() == lp.tobytes() and _kv_bytes(again) == kv


def _kv_bytes(cache):
    return [a.tobytes() for kv in cache.self_kv for a in kv]


def test_cached_step_checks_columns_and_length():
    model = tiny_model()
    cache = model.begin_decode(model.encode(["the", "cat"]))
    with pytest.raises(ShapeMismatch):
        model.decode_step(cache, [0], [model.vocab.bos_id],
                          np.zeros((1, 3), dtype=int))
    bos = [model.vocab.bos_id]
    with pytest.raises(ShapeMismatch, match="a draft extends one prefix"):
        model.decode_step(cache, [0, 0], bos * 2, np.zeros((2, 2), int),
                          draft=[5])
    for _ in range(model.config.max_len - 3):
        _, cache = model.decode_step(cache, [0], bos, np.zeros((1, 2), int))
    # a draft may fill the table's last positions, never pass them
    lp, full = model.decode_step(cache, [0], bos, np.zeros((1, 2), int),
                                 draft=[5, 6])
    assert lp.shape == (3, len(model.vocab)) and full.length == 32
    with pytest.raises(LengthOverflow, match="target length 33 > max_len 32"):
        model.decode_step(cache, [0], bos, np.zeros((1, 2), int),
                          draft=[5, 6, 7])
    for _ in range(3):
        _, cache = model.decode_step(cache, [0], bos, np.zeros((1, 2), int))
    with pytest.raises(LengthOverflow):
        model.decode_step(cache, [0], bos, np.zeros((1, 2), int))


def _far_model(seed, dim, heads):
    """tiny_model moved far from its near-uniform init."""
    model = tiny_model(seed=seed, dim=dim, heads=heads, ff=2 * dim)
    rng = np.random.default_rng(seed)
    for name, value in model.params.items():
        model.params[name] = value + rng.normal(0.0, 0.5, value.shape)
    model.params["flag.ek"][0] = 0.0
    model.params["flag.ev"][0] = 0.0
    return model


# (dim, heads): the test models' shape and the CLI default
_SHAPES = st.sampled_from([(16, 2), (64, 4)])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 16), _SHAPES, st.data())
def test_step_rows_do_not_depend_on_the_call(seed, shape, data):
    """A row of a one-position decode_step has the same log-probability
    and cached key/value bytes in a call of 1, 2, 3 or 5 rows, in any
    order, as stepped alone. Beam search's greedy shadow row and the
    drafted argmax loop rest on this."""
    model = _far_model(seed, *shape)
    words = st.sampled_from(_STEP_VOCAB.tokens[5:])
    src = data.draw(st.lists(words, min_size=1, max_size=6), label="src")
    ls = len(src)
    column = st.lists(st.integers(0, 2), min_size=ls, max_size=ls)
    token = st.integers(5, len(model.vocab) - 1)
    cache = model.begin_decode(model.encode(src))
    width = data.draw(st.integers(1, 3), label="cached rows")
    for t in range(data.draw(st.integers(0, 3), label="cached positions")):
        parents = [0] * width if t == 0 else list(range(width))
        last = ([model.vocab.bos_id] * width if t == 0 else
                data.draw(st.lists(token, min_size=width, max_size=width)))
        _, cache = model.decode_step(
            cache, parents, last,
            data.draw(st.lists(column, min_size=width, max_size=width)))
    pool = [(data.draw(st.integers(0, width - 1), label="parent"),
             data.draw(token, label="token"), data.draw(column,
                                                        label="column"))
            for _ in range(5)]
    alone = [model.decode_step(cache, [parent], [tok], [col])
             for parent, tok, col in pool]
    for b in (1, 2, 3, 5):
        picks = data.draw(st.permutations(range(5)), label="order")[:b]
        parents, last, columns = zip(*[pool[i] for i in picks])
        lp, shared = model.decode_step(cache, list(parents), list(last),
                                       np.array(columns))
        for row, i in enumerate(picks):
            lp1, one = alone[i]
            assert lp[row].tobytes() == lp1[0].tobytes(), (b, row)
            for kv, kv1 in zip(shared.self_kv, one.self_kv):
                for a, a1 in zip(kv, kv1):
                    assert a[row].tobytes() == a1[0].tobytes(), (b, row)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16), _SHAPES, st.data())
def test_drafted_rows_match_one_row_steps(seed, shape, data):
    """Row r of a drafted call is, to the byte, the row a one-row step
    returns after rows 0..r-1 under the same column, and the cache cut
    back to those rows holds the one-row steps' cache bytes."""
    model = _far_model(seed, *shape)
    words = st.sampled_from(_STEP_VOCAB.tokens[5:])
    src = data.draw(st.lists(words, min_size=1, max_size=6), label="src")
    ls = len(src)
    column = st.lists(st.integers(0, 2), min_size=ls, max_size=ls)
    token = st.integers(4, len(model.vocab) - 1)
    cache = model.begin_decode(model.encode(src))
    last = model.vocab.bos_id
    for _ in range(data.draw(st.integers(0, 4), label="cached positions")):
        _, cache = model.decode_step(cache, [0], [last],
                                     [data.draw(column, label="column")])
        last = data.draw(token, label="token")
    draft = data.draw(st.lists(token, min_size=1, max_size=8), label="draft")
    col = data.draw(column, label="draft column")
    lp, drafted = model.decode_step(cache, [0], [last], [col], draft)
    assert drafted.length == cache.length + 1 + len(draft)
    one = cache
    for r, tok in enumerate([last] + draft):
        lp1, one = model.decode_step(one, [0], [tok], [col])
        assert lp[r].tobytes() == lp1[0].tobytes(), r
        assert _kv_bytes(drafted.cut(one.length)) == _kv_bytes(one), r


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16), _SHAPES,
       st.lists(st.sampled_from(_STEP_VOCAB.tokens[4:]), min_size=1,
                max_size=12))
def test_encode_without_a_mask_matches_the_all_true_mask(seed, shape, src):
    """encode adds no padding mask; with an all-true mask, whose zeros
    only turn -0.0 logits into +0.0, the states are the same bytes."""
    model = _far_model(seed, *shape)
    ids = np.asarray([model.vocab.encode(src)])
    masked, _ = model._encode_ids(ids, np.ones_like(ids, dtype=bool))
    assert model.encode(src).tobytes() == masked[0].tobytes()


# -------------------------------------------------------------- persistence

class TestCheckpointing:
    def test_roundtrip_bitwise(self, tmp_path):
        model = tiny_model()
        path = os.path.join(tmp_path, "model.npz")
        model.save(path)
        loaded = Seq2SeqModel.load(path)
        assert loaded.vocab.tokens == model.vocab.tokens
        assert loaded.config == model.config
        for k in model.params:
            assert np.array_equal(loaded.params[k], model.params[k])
        src, tgt_in, tgt_out, mb = tiny_batch(model.vocab)
        assert np.array_equal(loaded.logits_batch(src, tgt_in, mb),
                              model.logits_batch(src, tgt_in, mb))

    def test_load_draws_nothing_and_keeps_the_order(self, tmp_path,
                                                    monkeypatch):
        # the loader builds the model from the saved arrays alone
        model = tiny_model(enc_layers=1, dec_layers=3)
        path = os.path.join(tmp_path, "model.npz")
        model.save(path)

        def no_rng(*args):
            raise AssertionError("load drew from the RNG")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded = Seq2SeqModel.load(path)
        assert list(loaded.params) == list(model.params)
        for k, v in model.params.items():
            assert loaded.params[k].dtype == np.float64
            assert loaded.params[k].tobytes() == v.tobytes()

    def test_version_mismatch_rejected(self, tmp_path):
        import json
        model = tiny_model()
        path = os.path.join(tmp_path, "model.npz")
        model.save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["format_version"] = 99
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointVersionMismatch):
            Seq2SeqModel.load(path)

    def test_missing_meta_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "stray.npz")
        np.savez(path, w=np.zeros(3))
        with pytest.raises(CheckpointVersionMismatch):
            Seq2SeqModel.load(path)

    def test_layer_count_past_the_archive_is_refused_briefly(self, tmp_path):
        # a config asking for far more layers than the archive holds is
        # refused by naming the first tensors its table wants past the
        # archive's count, not by listing every missing layer
        model = tiny_model(dim=8, ff=16, enc_layers=1, dec_layers=1)
        path = os.path.join(tmp_path, "model.npz")
        model.save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["config"]["enc_layers"] = 10_000
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointMismatch) as info:
            Seq2SeqModel.load(path)
        assert len(str(info.value)) < 64 * 1024
        assert "enc1.attn.wq" in str(info.value)
