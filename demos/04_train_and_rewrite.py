"""
Training a small rewriter and decoding with live flags
======================================================

End-to-end miniature run: generate a corpus, train a small
encoder-decoder with flag-aware cross-attention for a few epochs, then
rewrite held-out items three ways: greedy decoding with live semantic
flags, plain beam search, and constrained beam search that refuses to
finish a hypothesis until every constraint token has been emitted.

A few epochs on a small model will not produce a polished rewriter;
the point is the moving parts, not the absolute quality. Expect about
half a minute of compute.
"""

from restate import datagen
from restate.decode import run_decoder
from restate.flags import SatisfierConfig
from restate.model import (ModelConfig, Seq2SeqModel, TrainingConfig,
                           example_from_record, train)
from restate.similarity import HashedNgramEmbedder, SpanSimilarity
from restate.vocab import Vocabulary

corpus = datagen.build_corpus(seed=0, split_sizes=(1000, 100, 400))
train_recs = [datagen.model_record(i)
              for i in datagen.split_of(corpus, "train")]
test_recs = [datagen.model_record(i)
             for i in datagen.split_of(corpus, "test")[:3]]

vocab = Vocabulary.build([sorted(datagen.vocabulary_tokens())])
cfg = SatisfierConfig(mode="semantic", threshold_a=0.8, threshold_b=0.1)
scorer = SpanSimilarity(HashedNgramEmbedder())

model = Seq2SeqModel(ModelConfig(dim=64, heads=4, enc_layers=2,
                                 dec_layers=2, ff=128, max_len=64, seed=1),
                     vocab)
examples = [example_from_record(r, cfg, scorer) for r in train_recs]
log = train(model, examples,
            TrainingConfig(lr=3e-4, batch_size=16, epochs=7, seed=1))
print("final training loss: %.3f" % log[-1][2])
print()

for rec in test_recs:
    print("input:     ", " ".join(rec["x_tokens"]))
    print("reference: ", " ".join(rec["target_tokens"]))
    for name in ("greedy", "beam", "cbs"):
        res = run_decoder(name, model, rec["x_tokens"],
                          rec["constraint_rows"], cfg, scorer=scorer,
                          beam_size=4, max_len=40)
        mark = "" if res.finished else "  [unfinished]"
        print("%-7s -> %s%s" % (name, " ".join(res.tokens), mark))
    # the greedy run's final flag column: 2 = satisfied, 1 = still pending
    res = run_decoder("greedy", model, rec["x_tokens"],
                      rec["constraint_rows"], cfg, scorer=scorer, max_len=40)
    final = res.tracker.column()
    pending = [rec["x_tokens"][i] for i in range(len(final)) if final[i] == 1]
    print("pending constraint tokens after greedy:", pending or "none")
    print()
