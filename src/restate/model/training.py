"""Adam training loop for the rewriter.

Batches are padded to the longest example; the per-example flag
matrices are rebuilt offline from the gold target with replay_flags,
so teacher forcing sees exactly the flag columns a decoder would have
produced while emitting the reference.

Each step runs on every core it may, byte for byte. loss_and_grads
splits the padded batch into contiguous blocks of two examples or more,
at most one per worker thread, and runs the per-example work (forward,
loss gradient, backward chain of input gradients) of each block on its
own thread, with the batch's padded lengths. Every cross-example
reduction (weight products, bias and layer-norm sums, flag-table
contractions, positional sums, embedding scatters, the loss sum) runs
once over the blocks concatenated in batch order and adds into the
gradients in program order. So the trained bytes do not depend on the
worker count. worker_count() gives one worker per CPU this process may
use, divided by BLAS's own thread count, which OpenBLAS takes from its
environment variables and otherwise sets to one thread per CPU. So an
unpinned BLAS gets one worker: on 2 cores, two workers above two BLAS
threads made training slower.

Heap policy: train pins glibc malloc's mmap threshold at 32 MiB and its
trim threshold at 64 MiB. A step's attention maps, logits and flag
one-hots are a few hundred KB each; under glibc's adaptive defaults
they are mmapped or their heap top is handed back to the kernel when
freed, so every step faulted about 10 MB of fresh zeroed pages back in.
The setting holds for the whole process from the first call on, and
only where the C library is glibc (elsewhere it does nothing). It
changes no arithmetic. Its cost: up to 64 MiB of freed memory stays
resident after a peak; the peak itself grows about 1% on the benchmark
workloads.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass

import numpy as np

from .. import flags as flags_mod
from ..vocab import Vocabulary
from . import nn
from .transformer import Seq2SeqModel, Workers


class NonFiniteLoss(FloatingPointError):
    """Raised when the training loss stops being a finite number."""


# Global gradient-norm bound and Adam's moment decays and denominator floor.
CLIP_NORM = 1.0
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8

# The variables OpenBLAS takes its thread count from, in its order.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")

# glibc mallopt parameters and the values train pins them to: the mmap
# threshold at the highest value glibc's adaptive rule reaches on 64-bit
# (DEFAULT_MMAP_THRESHOLD_MAX), the trim threshold at twice that, the
# adaptive rule's own ratio.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


@dataclass
class TrainingConfig:
    lr: float = 3e-4
    batch_size: int = 16
    epochs: int = 20
    seed: int = 0
    log_every: int = 0  # 0: log once per epoch

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be a positive finite number, got %r"
                             % self.lr)
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1, got %r"
                             % self.batch_size)
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1, got %r"
                             % self.epochs)
        if self.log_every < 0:
            raise ValueError("log_every must be at least 0, got %r"
                             % self.log_every)


class Adam:
    """Adam with bias correction over a named parameter dict."""

    def __init__(self, params, config: TrainingConfig):
        self.cfg = config
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for k, g in grads.items():
            self.m[k] = BETA1 * self.m[k] + (1.0 - BETA1) * g
            self.v[k] = BETA2 * self.v[k] + (1.0 - BETA2) * g * g
            mhat = self.m[k] / b1t
            vhat = self.v[k] / b2t
            params[k] -= self.cfg.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


@dataclass
class TrainingExample:
    """One teacher-forcing row: source tokens, target tokens, flag matrix.

    m has len(x_tokens) rows and len(y_tokens) + 1 columns: the leading
    initialization column plus one column per emitted token. Decoder
    position t consumes column t, so the position that predicts EOS
    reads the state reached after the final real token.
    """

    x_tokens: list
    y_tokens: list
    m: np.ndarray | None = None


def example_from_record(rec, config: flags_mod.SatisfierConfig, scorer=None):
    """Build a TrainingExample from a dataset record dict.

    Expects keys x_tokens, target_tokens, constraint_rows; the flag
    matrix is replayed against the gold target.
    """
    m = flags_mod.replay_flags(rec["x_tokens"], rec["constraint_rows"],
                               rec["target_tokens"], config, scorer=scorer)
    return TrainingExample(list(rec["x_tokens"]), list(rec["target_tokens"]),
                           m.matrix())


def assemble_batch(examples, vocab: Vocabulary):
    """Pad a list of TrainingExamples into training tensors.

    Returns (src, tgt_in, tgt_out, m_batch). tgt_in = BOS + y (padded),
    tgt_out = y + EOS (padded); m_batch column t holds the flag state
    consumed at decoder position t.
    """
    b = len(examples)
    ls = max(len(e.x_tokens) for e in examples)
    ly = max(len(e.y_tokens) for e in examples) + 1  # +1 for EOS / BOS shift
    src = np.full((b, ls), vocab.pad_id, dtype=np.int64)
    tgt_in = np.full((b, ly), vocab.pad_id, dtype=np.int64)
    tgt_out = np.full((b, ly), vocab.pad_id, dtype=np.int64)
    m_batch = None  # zero-padded (B, Ls, Lt) flags once an example has some
    for i, e in enumerate(examples):
        x = vocab.encode(list(e.x_tokens))
        y = vocab.encode(list(e.y_tokens))
        src[i, :len(x)] = x
        tgt_in[i, 0] = vocab.bos_id
        tgt_in[i, 1:len(y) + 1] = y
        tgt_out[i, :len(y)] = y
        tgt_out[i, len(y)] = vocab.eos_id
        if e.m is not None:
            m = np.asarray(e.m)
            if m.shape != (len(x), len(y) + 1):
                raise nn.ShapeMismatch(
                    "flag matrix %s does not match (%d, %d)"
                    % (m.shape, len(x), len(y) + 1))
            if m_batch is None:
                m_batch = np.zeros((b, ls, ly), dtype=np.int64)
            m_batch[i, :len(x), :len(y) + 1] = m
    return src, tgt_in, tgt_out, m_batch


def _keep_freed_heap():
    """Pin glibc's malloc thresholds (see the module docstring) so that
    the next step reuses the last step's freed temporaries instead of
    faulting fresh pages in; a no-op where there is no mallopt.

    Any mallopt call turns glibc's adaptive mmap threshold off, so both
    thresholds are set, never the trim threshold alone."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def worker_count():
    """Threads a training step runs on: one per CPU this process may use
    that BLAS's own threads leave free.

    The BLAS thread count is read as OpenBLAS reads it; where none of its
    variables holds a positive count, BLAS runs a thread on every CPU
    and a step runs on one worker."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        try:
            blas = int(os.environ[var])
        except (KeyError, ValueError):
            continue
        if blas >= 1:
            return max(1, cpus // blas)
    return 1


def train(model: Seq2SeqModel, examples, config: TrainingConfig,
          log=None) -> list[tuple[int, int, float]]:
    """Run the full loop; returns [(epoch, step, loss), ...] log rows.
    Every step runs on worker_count() workers, whose threads end with
    the call."""
    with Workers(worker_count()) as workers:
        return _train(model, examples, config, log, workers)


def _train(model, examples, config, log, workers):
    _keep_freed_heap()
    opt = Adam(model.params, config)
    rng = np.random.default_rng(config.seed)
    rows = []
    n = len(examples)
    if n == 0:
        raise ValueError("no training examples")
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        nb = 0
        for start in range(0, n, config.batch_size):
            batch = [examples[j] for j in order[start:start + config.batch_size]]
            src, tgt_in, tgt_out, m_batch = assemble_batch(batch, model.vocab)
            loss, grads = model.loss_and_grads(src, tgt_in, tgt_out, m_batch,
                                               workers)
            if not np.isfinite(loss):
                raise NonFiniteLoss("loss became %r at epoch %d step %d"
                                    % (loss, epoch, step))
            gn = nn.global_norm(grads.values())
            if gn > CLIP_NORM:
                scale = CLIP_NORM / gn
                for k in grads:
                    grads[k] *= scale
            opt.step(model.params, grads)
            step += 1
            epoch_loss += loss
            nb += 1
            if config.log_every and step % config.log_every == 0:
                rows.append((epoch, step, loss))
                if log:
                    log("epoch %d step %d loss %.6f" % (epoch, step, loss))
        if not config.log_every:
            rows.append((epoch, step, epoch_loss / max(nb, 1)))
            if log:
                log("epoch %d step %d mean_loss %.6f"
                    % (epoch, step, epoch_loss / max(nb, 1)))
    return rows
