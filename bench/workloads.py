"""Fixed recipe, set-up and measured loops of the restate benchmark.

Each workload is one closed-loop caller: a single process that decodes
(or trains) one item after another, the way `restate rewrite` and
`restate train` run. The decode workloads share one checkpoint, trained
during set-up from a fixed recipe that does not depend on the workload
seed; the seed only chooses the inputs.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from restate import datagen, decode
from restate.flags import SatisfierConfig
from restate.model import training
from restate.model.transformer import ModelConfig, Seq2SeqModel
from restate.similarity import HashedNgramEmbedder, SpanSimilarity
from restate.vocab import Vocabulary

from checks import Output

# The checkpoint recipe: `restate datagen --seed 0 --train-size 300` then
# `restate train --epochs 4 --seed 0` with the CLI's default model shape
# and satisfier.
RECIPE = {
    "corpus_seed": 0, "split_sizes": (300, 100, 400), "epochs": 4,
    "batch_size": 16, "lr": 3e-4, "dim": 64, "heads": 4, "enc_layers": 2,
    "dec_layers": 2, "ff": 128, "max_len": 96, "model_seed": 0,
    "mode": "semantic", "threshold_a": 0.8, "threshold_b": 0.3,
}
# The CLI's decoding defaults (`restate rewrite`).
DECODING = {"beam_size": 4, "alpha": 0.7, "max_len": 48}
# Split sizes of the corpus a workload seed generates its inputs from; the
# test split is large enough that no run of the greedy workload exhausts it.
INPUT_SPLIT_SIZES = (300, 100, 2000)
WARMUP_INPUTS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    decoder: str | None  # None: the training workload
    mode: str
    # leading outputs that are always produced, however short the run, so
    # the quality metrics and the output digest are fixed for a seed
    quality_n: int
    # sorted constraint lengths an input must have (None: every input)
    shape: tuple | None = None


WORKLOADS = {w.name: w for w in (
    Workload("greedy_semantic", "greedy", "semantic", 200),
    Workload("beam_lexical", "beam", "lexical", 20),
    # Not in the gated set of BENCHMARK.json: at 6-8 s per input a run
    # holds three inputs, too few to repeat within the bound. Search cost
    # grows with the number of constraint banks and inputs of mixed shapes
    # differ up to threefold, so it decodes only the corpus's most common
    # shape, three four-token constraints (about a fifth of the test split).
    Workload("cbs_semantic", "cbs", "semantic", 3, (4, 4, 4)),
    Workload("train", None, "semantic", 100),
)}


def satisfier(mode):
    return SatisfierConfig(threshold_a=RECIPE["threshold_a"],
                           threshold_b=RECIPE["threshold_b"], mode=mode)


def scorer_for(config):
    if config.mode == "semantic":
        return SpanSimilarity(HashedNgramEmbedder())
    return None


def corpus(seed, sizes):
    """(instance, model record) pairs of a generated corpus."""
    instances = datagen.build_corpus(seed, sizes)
    return [(inst, datagen.model_record(inst)) for inst in instances]


def split(pairs, name):
    return [(inst, rec) for inst, rec in pairs if inst.split == name]


def vocabulary(pairs):
    """Vocabulary over the whole corpus file, as `restate train` builds it."""
    lists = []
    for _, rec in pairs:
        lists.append(rec["x_tokens"])
        lists.append(rec["target_tokens"])
    return Vocabulary.build(lists)


def training_examples(pairs):
    config = satisfier(RECIPE["mode"])
    scorer = scorer_for(config)
    return [training.example_from_record(rec, config, scorer)
            for _, rec in split(pairs, "train")]


def new_model(vocab):
    r = RECIPE
    return Seq2SeqModel(ModelConfig(dim=r["dim"], heads=r["heads"],
                                    enc_layers=r["enc_layers"],
                                    dec_layers=r["dec_layers"], ff=r["ff"],
                                    max_len=r["max_len"],
                                    seed=r["model_seed"]), vocab)


@dataclass
class TrainRun:
    """Loss rows and timings of one recipe training."""

    epoch_s: list
    step_s: list
    final_loss: float
    losses: list


def train_recipe(model, examples, clock=None):
    """Train with the recipe, timing every optimizer step.

    log_every=1 makes train() call back after each step; the epoch mean
    is recomputed from the step losses in train()'s own summation order.
    A HostClock, when given, runs its reference kernel after each step,
    outside the step's time.
    """
    r = RECIPE
    step_s = []
    started = [time.perf_counter()]

    def log(_):
        step_s.append(time.perf_counter() - started[0])
        if clock is not None:
            clock.after_item(step_s[-1])
        started[0] = time.perf_counter()

    cfg = training.TrainingConfig(lr=r["lr"], batch_size=r["batch_size"],
                                  epochs=r["epochs"], seed=r["model_seed"],
                                  log_every=1)
    rows = training.train(model, examples, cfg, log=log)
    epoch_s, means = [], []
    for epoch in range(r["epochs"]):
        idx = [i for i, row in enumerate(rows) if row[0] == epoch]
        epoch_s.append(float(sum(step_s[i] for i in idx)))
        means.append(sum(rows[i][2] for i in idx) / max(len(idx), 1))
    return TrainRun(epoch_s, step_s, float(means[-1]),
                    [float(row[2]) for row in rows])


def params_digest(model):
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(model.params[name]).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# decode workloads


@dataclass
class DecodeBench:
    workload: Workload
    model: Seq2SeqModel
    config: SatisfierConfig
    scorer: object
    inputs: list
    checkpoint: TrainRun | None  # None: decoding a model trained elsewhere


def decode_inputs(workload, seed):
    pairs = split(corpus(seed, INPUT_SPLIT_SIZES), "test")
    if workload.shape is not None:
        pairs = [(inst, rec) for inst, rec in pairs
                 if tuple(sorted(len(r) for r in rec["constraint_rows"]))
                 == workload.shape]
    return pairs


def run_one(bench, rec):
    return decode.run_decoder(bench.workload.decoder, bench.model,
                              rec["x_tokens"], rec["constraint_rows"],
                              bench.config, scorer=bench.scorer, **DECODING)


def setup_decode(workload, seed, workdir):
    """Train the recipe checkpoint, reload it, warm up, build the inputs."""
    pairs = corpus(RECIPE["corpus_seed"], RECIPE["split_sizes"])
    model = new_model(vocabulary(pairs))
    checkpoint = train_recipe(model, training_examples(pairs))
    path = os.path.join(workdir, "checkpoint.npz")
    model.save(path)
    model = Seq2SeqModel.load(path)
    config = satisfier(workload.mode)
    bench = DecodeBench(workload, model, config, scorer_for(config), [],
                        checkpoint)
    for _, rec in split(pairs, "dev")[:WARMUP_INPUTS]:
        decode.run_decoder("greedy", model, rec["x_tokens"],
                           rec["constraint_rows"], config,
                           scorer=bench.scorer, **DECODING)
    bench.inputs = decode_inputs(workload, seed)
    return bench


@dataclass
class LoopResult:
    outputs: list      # Output, or None where decoding raised
    item_s: list       # seconds per item
    wall_s: float
    errors: list


def _decode_item(bench, inst, rec, res, clock=None):
    t = time.perf_counter()
    try:
        result = run_one(bench, rec)
    except Exception as exc:  # a failed instance is counted, not fatal
        result = None
        res.errors.append((inst.id, "%s: %s" % (type(exc).__name__, exc)))
    res.item_s.append(time.perf_counter() - t)
    res.outputs.append(None if result is None else Output.of(inst.id, result))
    if clock is not None:
        clock.after_item(res.item_s[-1])


def decode_loop(bench, seconds, clock=None):
    """Decode inputs in order until `seconds` have passed and the quality
    prefix is done. A HostClock, when given, runs its reference kernel
    after each item, outside the item's time."""
    res = LoopResult([], [], 0.0, [])
    t0 = time.perf_counter()
    for idx, (inst, rec) in enumerate(bench.inputs):
        if idx >= bench.workload.quality_n and \
                time.perf_counter() - t0 >= seconds:
            break
        _decode_item(bench, inst, rec, res, clock)
    res.wall_s = time.perf_counter() - t0
    return res


def paired_decode_loop(bench, seconds, tracer):
    """Decode each input twice back to back, untraced and traced, in
    alternating order, until the untraced decodes have taken `seconds`
    and the quality prefix is done. Pairing puts both halves of the
    overhead estimate under the same machine load. Each pass has its
    own scorer, so both start as cold as an untraced run. Returns the
    untraced and the traced LoopResult; wall_s sums their items."""
    plain, traced = LoopResult([], [], 0.0, []), LoopResult([], [], 0.0, [])
    passes = {False: (bench, plain),
              True: (replace(bench, scorer=scorer_for(bench.config)), traced)}
    for idx, (inst, rec) in enumerate(bench.inputs):
        if idx >= bench.workload.quality_n and plain.wall_s >= seconds:
            break
        tracer.item = idx
        for on in (False, True) if idx % 2 == 0 else (True, False):
            tracer.enabled = on
            b, res = passes[on]
            _decode_item(b, inst, rec, res)
            res.wall_s += res.item_s[-1]
    tracer.enabled = False
    return plain, traced


# ---------------------------------------------------------------------------
# training workload


@dataclass
class TrainBench:
    workload: Workload
    vocab: Vocabulary
    examples: list
    quality_inputs: list


def setup_train(workload, seed):
    """Replay the seed's training examples and warm up one batch."""
    pairs = corpus(seed, INPUT_SPLIT_SIZES)
    vocab = vocabulary(pairs)
    examples = training_examples(pairs)
    batch = training.assemble_batch(examples[:RECIPE["batch_size"]], vocab)
    new_model(vocab).loss_and_grads(*batch)
    return TrainBench(workload, vocab, examples,
                      split(pairs, "test")[:workload.quality_n])


@dataclass
class TrainLoopResult:
    runs: list         # TrainRun per round
    digests: list      # parameter digest per round
    model: Seq2SeqModel | None
    wall_s: float


def _train_round(bench, res, clock=None):
    t = time.perf_counter()
    res.model = new_model(bench.vocab)
    res.runs.append(train_recipe(res.model, bench.examples, clock))
    res.digests.append(params_digest(res.model))
    res.wall_s += time.perf_counter() - t


def train_loop(bench, seconds, clock=None):
    """Train fresh models with the recipe, round after round, until
    `seconds` have passed (at least one round)."""
    res = TrainLoopResult([], [], None, 0.0)
    while not res.runs or res.wall_s < seconds:
        _train_round(bench, res, clock)
    return res


def paired_train_loop(bench, seconds, tracer):
    """Train rounds in untraced and traced pairs, in alternating order,
    until the untraced rounds have taken `seconds`."""
    plain = TrainLoopResult([], [], None, 0.0)
    traced = TrainLoopResult([], [], None, 0.0)
    tracer.item = 0
    while not plain.runs or plain.wall_s < seconds:
        first = len(plain.runs) % 2 == 0
        for on in (False, True) if first else (True, False):
            tracer.enabled = on
            _train_round(bench, traced if on else plain)
    tracer.enabled = False
    return plain, traced


def target_tokens(examples):
    """Tokens one epoch predicts: every target token plus the stop token."""
    return sum(len(e.y_tokens) + 1 for e in examples)
