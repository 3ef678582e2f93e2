"""Encoder-decoder transformer with flag-conditioned cross-attention.

Desk-scale by design: a few layers, float64, pure numpy, explicit
backward pass. The decoder's cross-attention adds flag key/value
embeddings E_k, E_v (3 rows, one per flag value) in every layer; the
tables are shared across layers and split across heads in contiguous
slices. Row 0 (the "not part of any constraint" flag) is pinned to
zero so unflagged positions get exactly standard attention and an
all-zero flag matrix reduces the model to its vanilla twin. Mode off is
that matrix: every cross-attention, with flags or without (None), runs
the one flagged attention, whose flag terms are then exact zeros.

Only the flag-aware cross-attention differs from a standard pre-LN
Transformer: the encoder layers and the decoder's self-attention and
feed-forward run one forward/backward pair per sublayer (_self_attn,
_feed_forward), keyed by parameter-name prefix.

Training splits loss_and_grads in two. The per-example work (the
forward, the loss gradient and the backward chain of input gradients)
runs on contiguous blocks of the padded batch, one per worker thread;
the backward functions hand every cross-example reduction of a
parameter gradient to a reduce callback instead of computing it. Once
every block has finished, each reduction runs once in the calling
thread, over the blocks' operands concatenated in batch order. The
gradients are the same bytes for any number of workers.

Teacher forcing and inference share one decoder-layer function.
Inference is incremental: begin_decode computes every layer's
cross-attention keys and values once per input, and decode_step
forwards only the newest position of each hypothesis, reusing the
self-attention keys and values cached for its earlier positions,
gathered by each row's parent. For one hypothesis it can also forward
drafted positions after the newest one in the same call; each row
attends to exactly its own prefix, and DecoderCache.cut drops the
positions of rows the caller does not keep. The drafted rows share one
softmax pass over their self-attention logits padded with -inf
(nn.chained_attention), while each row's products and sum keep its own
key count, so each row is the bytes of a one-row step. Every row
agrees, up to rounding, with the teacher-forced logits_batch on its
whole prefix.
"""

from __future__ import annotations

import contextvars
import hashlib
import itertools
import json
import tokenize
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..vocab import Vocabulary
from . import nn
from .nn import ShapeMismatch


class LengthOverflow(ValueError):
    """Raised when a sequence exceeds the positional table."""


class CheckpointMismatch(ValueError):
    """Raised when a checkpoint's tensors do not fit its own config and
    vocabulary."""


class CheckpointVersionMismatch(CheckpointMismatch):
    """Raised when loading a checkpoint written by an unknown format."""


class NonFiniteLogProbs(FloatingPointError):
    """Raised when a decoding step yields NaN log-probabilities."""


def check_logprobs(lp):
    """Raise NonFiniteLogProbs when decoder log-probabilities hold a NaN."""
    if np.isnan(lp).any():
        raise NonFiniteLogProbs("decoder log-probabilities are NaN"
                                " (non-finite model weights?)")


CHECKPOINT_VERSION = 3


@dataclass
class ModelConfig:
    dim: int = 64
    heads: int = 4
    enc_layers: int = 2
    dec_layers: int = 2
    ff: int = 128
    max_len: int = 96
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "heads", "ff", "enc_layers", "dec_layers",
                     "max_len"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1, got %r"
                                 % (name, getattr(self, name)))
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")


@dataclass(frozen=True)
class DecoderCache:
    """Decoder state of one input during incremental decoding.

    cross holds every layer's cross-attention (k, v), (1, H, Ls, Dh),
    computed once per input; self_kv every layer's self-attention
    (k, v) of the cached rows, (B, H, length, Dh), or None while no
    position is cached. A flag column is frozen once its token is
    emitted, so the cached positions never need recomputing.
    """

    cross: tuple
    self_kv: tuple | None
    length: int

    def cut(self, length) -> "DecoderCache":
        """This cache holding only its first length positions (>= 1)."""
        return DecoderCache(self.cross, tuple((k[:, :, :length],
                                               v[:, :, :length])
                                              for k, v in self.self_kv),
                            length)


def _flag_onehot(m_batch, b, ls, lt):
    """One-hot of a (B, Ls, Lt) flag batch; None is the all-zero batch
    (mode off). Raises ShapeMismatch for any other shape."""
    if m_batch is None:
        m_batch = np.zeros((b, ls, lt), dtype=np.int64)
    m_batch = np.asarray(m_batch)
    if m_batch.shape != (b, ls, lt):
        raise ShapeMismatch(
            "flag matrix %s does not match (B=%d, Ls=%d, Lt=%d)"
            % (m_batch.shape, b, ls, lt))
    return nn.flag_onehot(m_batch)


class Workers:
    """Threads that run the blocks of a training batch.

    map runs its first item in the calling thread and each other item on
    one of n - 1 pool threads, so one worker starts no thread. A pooled
    item runs in a copy of the caller's context: numpy 2 keeps its error
    state (np.errstate) in a context variable, which new threads do not
    inherit. Leaving the context manager joins the threads.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("workers must be at least 1, got %r" % n)
        self.n = n
        self._pool = ThreadPoolExecutor(n - 1) if n > 1 else None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()

    def map(self, fn, items):
        """[fn(x) for x in items], for at most n items. Waits for every
        item, then raises the first failure in item order."""
        futures = [self._pool.submit(contextvars.copy_context().run, fn, x)
                   for x in items[1:]]
        try:
            first = fn(items[0])
        finally:
            wait(futures)
        return [first] + [f.result() for f in futures]


_SERIAL = Workers(1)

# Cross-example reductions of loss_and_grads: kind -> the value of a
# reduction from its operands, each over the whole batch.
_REDUCE = {
    "matmul": nn.linear_dw,
    "sum": nn.row_sum,
    "flag": nn.flag_table_grad,
    "position": lambda dy: dy.sum(axis=0),
    "embed": lambda ids, dy: (ids, dy),  # scattered by np.add.at
}


def _cat(blocks):
    """An operand over the whole batch: its blocks concatenated in batch
    order (np.concatenate keeps their memory order), or the one block."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _layer_norm_bwd(ln, cache, dy, reduce):
    """Gradient into layer norm ln's input; hands the reductions of its
    gain and shift to reduce."""
    reduce("sum", ln + ".g", dy * cache[0])  # cache[0]: xhat
    reduce("sum", ln + ".b", dy)
    return nn.layer_norm_bwd(cache, dy)


def _param_specs(config, vocab_size):
    """(name, shape, fill) of every parameter, in the order the RNG
    draws them and np.savez, Adam and the digest walk them. fill is None
    for an N(0, 0.02^2) draw, 1.0 for a layer-norm gain and 0.0 for a
    bias or shift."""
    d, ff = config.dim, config.ff

    def ln(*names):
        for name in names:
            yield name + ".g", (d,), 1.0
            yield name + ".b", (d,), 0.0

    def layer(pre, attns, lns):
        for nm in ("wq", "wk", "wv", "wo"):
            for att in attns:
                yield "%s.%s.%s" % (pre, att, nm), (d, d), None
        yield from ln(*(pre + "." + name for name in lns))
        yield pre + ".ff.w1", (d, ff), None
        yield pre + ".ff.b1", (ff,), 0.0
        yield pre + ".ff.w2", (ff, d), None
        yield pre + ".ff.b2", (d,), 0.0

    yield "tok_emb", (vocab_size, d), None
    yield "pos_enc", (config.max_len, d), None
    yield "pos_dec", (config.max_len, d), None
    for i in range(config.enc_layers):
        yield from layer("enc%d" % i, ("attn",), ("ln1", "ln2"))
    yield from ln("enc.lnf")
    for i in range(config.dec_layers):
        yield from layer("dec%d" % i, ("self", "cross"), ("ln1", "ln2", "ln3"))
    yield from ln("dec.lnf")
    yield "flag.ek", (3, d), None
    yield "flag.ev", (3, d), None
    yield "out.w", (d, vocab_size), None
    yield "out.b", (vocab_size,), 0.0


class Seq2SeqModel:
    """Transformer rewriter; owns its vocabulary and parameters."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, *,
                 params=None):
        """Drawn from config.seed, or built on params (from the loader)."""
        self.config = config
        self.vocab = vocab
        if params is None:
            rng = np.random.default_rng(config.seed)
            params = {name: rng.normal(0.0, 0.02, size=shape)
                      if fill is None else np.full(shape, fill)
                      for name, shape, fill in _param_specs(config,
                                                            len(vocab))}
            # flag tables: row 0 is structurally zero and never trained
            params["flag.ek"][0] = params["flag.ev"][0] = 0.0
        self.params: dict[str, np.ndarray] = params

    def _flag_tables(self):
        """The flag tables E_k, E_v split across heads, each (3, H, Dh)."""
        cfg = self.config
        return tuple(self.params[name].reshape(3, cfg.heads,
                                               cfg.dim // cfg.heads)
                     for name in ("flag.ek", "flag.ev"))

    # ------------------------------------------------------- shared sublayers
    def _self_attn(self, ln, att, x, mask, past=None, chain=False):
        """Pre-LN self-attention sublayer: layer norm ln, projections
        att.wq/.wk/.wv/.wo, residual. past: (k, v) of the positions
        before x, (B, H, Lp, Dh), or None when x holds them all. Returns
        the output, the backward cache and the (k, v) of every position.

        chain: x, (B, 1, dim), holds B consecutive positions of one
        prefix, one per row, and past has one row. Row r attends to past
        and rows 0..r, over those keys alone, laid out contiguously as
        a one-row step lays them out; the (k, v) returned have one row
        of Lp + B positions and the backward cache is None. The rows
        share one softmax pass over their logits padded with -inf to
        Lp + B keys (nn.chained_attention); each row's two products and
        its sum run at exactly its own key count, and a padded key
        changes no max and gets weight 0, so each row keeps the bytes
        of a one-row step."""
        p = self.params
        heads = self.config.heads
        h, cln = nn.layer_norm(x, p[ln + ".g"], p[ln + ".b"])
        q = nn.split_heads(h @ p[att + ".wq"], heads)
        k = nn.split_heads(h @ p[att + ".wk"], heads)
        v = nn.split_heads(h @ p[att + ".wv"], heads)
        if chain:
            k, v = (a.transpose(2, 1, 0, 3) for a in (k, v))
        if past is not None:
            k = np.concatenate([past[0], k], axis=2)
            v = np.concatenate([past[1], v], axis=2)
        if chain:
            # without past, k and v are still transposed views
            k, v = np.ascontiguousarray(k), np.ascontiguousarray(v)
            ctx, catt = nn.chained_attention(q, k, v), None
        else:
            ctx, catt = nn.attention(q, k, v, mask)
        mo = nn.merge_heads(ctx)
        return x + mo @ p[att + ".wo"], (h, cln, catt, mo), (k, v)

    def _self_attn_bwd(self, ln, att, cache, dout, reduce):
        """Gradient into the self-attention sublayer's input; its
        parameters' reductions go to reduce."""
        p = self.params
        h, cln, catt, mo = cache
        reduce("matmul", att + ".wo", mo, dout)
        dctx = nn.split_heads(nn.linear_bwd(p[att + ".wo"], dout),
                              self.config.heads)
        dq, dk, dv = nn.attention_bwd(catt, dctx)
        dh = np.zeros_like(h)
        for nm, d in (("wq", dq), ("wk", dk), ("wv", dv)):
            d = nn.merge_heads(d)
            reduce("matmul", att + "." + nm, h, d)
            dh += nn.linear_bwd(p[att + "." + nm], d)
        return dout + _layer_norm_bwd(ln, cln, dh, reduce)

    def _feed_forward(self, ln, ff, x):
        """Pre-LN feed-forward sublayer: layer norm ln, ff.w1, relu,
        ff.w2, residual. Returns the output and the backward cache."""
        p = self.params
        h, cln = nn.layer_norm(x, p[ln + ".g"], p[ln + ".b"])
        z1 = h @ p[ff + ".w1"] + p[ff + ".b1"]
        r = nn.relu(z1)
        return x + r @ p[ff + ".w2"] + p[ff + ".b2"], (h, cln, z1, r)

    def _feed_forward_bwd(self, ln, ff, cache, dout, reduce):
        """Gradient into the feed-forward sublayer's input; its
        parameters' reductions go to reduce."""
        p = self.params
        h, cln, z1, r = cache
        reduce("matmul", ff + ".w2", r, dout)
        reduce("sum", ff + ".b2", dout)
        dz1 = nn.relu_bwd(z1, nn.linear_bwd(p[ff + ".w2"], dout))
        reduce("matmul", ff + ".w1", h, dz1)
        reduce("sum", ff + ".b1", dz1)
        dh = nn.linear_bwd(p[ff + ".w1"], dz1)
        return dout + _layer_norm_bwd(ln, cln, dh, reduce)

    # ------------------------------------------------------------ encoder
    def _encode_ids(self, src, src_real):
        """src: (B, Ls) ids; src_real: (B, Ls) bool, or None when src
        holds no padding. Returns henc + cache."""
        cfg = self.config
        p = self.params
        b, ls = src.shape
        if ls > cfg.max_len:
            raise LengthOverflow("source length %d > max_len %d" % (ls, cfg.max_len))
        x = p["tok_emb"][src] + p["pos_enc"][:ls]
        mask = None if src_real is None else nn.padding_mask(src_real)
        layer_caches = []
        for i in range(cfg.enc_layers):
            pre = "enc%d" % i
            x, cattn, _ = self._self_attn(pre + ".ln1", pre + ".attn", x, mask)
            x, cff = self._feed_forward(pre + ".ln2", pre + ".ff", x)
            layer_caches.append((cattn, cff))
        henc, clnf = nn.layer_norm(x, p["enc.lnf.g"], p["enc.lnf.b"])
        # a list: the backward pops the final norm's cache once used
        return henc, [src, layer_caches, clnf]

    def _encode_bwd(self, cache, dhenc, reduce):
        src, layer_caches = cache[:2]
        dx = _layer_norm_bwd("enc.lnf", cache.pop(), dhenc, reduce)
        for i in reversed(range(self.config.enc_layers)):
            pre = "enc%d" % i
            cattn, cff = layer_caches.pop()
            dx = self._feed_forward_bwd(pre + ".ln2", pre + ".ff", cff, dx,
                                        reduce)
            dx = self._self_attn_bwd(pre + ".ln1", pre + ".attn", cattn, dx,
                                     reduce)
            del cattn, cff
        reduce("embed", "tok_emb", src, dx)
        reduce("position", "pos_enc", dx)

    # ------------------------------------------------------------ decoder
    def _cross_kv(self, i, henc):
        """Cross-attention (k, v) of decoder layer i, (B, H, Ls, Dh)."""
        p = self.params
        pre = "dec%d" % i
        heads = self.config.heads
        return (nn.split_heads(henc @ p[pre + ".cross.wk"], heads),
                nn.split_heads(henc @ p[pre + ".cross.wv"], heads))

    def _decoder_layer(self, i, y, self_mask, cross_kv, cross_mask, onehot,
                       past=None, chain=False):
        """Decoder layer i over queries y: (B, Lq, dim).

        past: self-attention (k, v) of the positions before the queries,
        (B, H, Lp, Dh), or None when y holds the whole prefix; chain as
        in _self_attn. Returns the layer output, its backward cache and
        the self-attention (k, v) of every position up to the last query.
        """
        p = self.params
        pre = "dec%d" % i
        y, cself, kv = self._self_attn(pre + ".ln1", pre + ".self", y,
                                       self_mask, past, chain)
        # flag-aware cross-attention, the one sublayer the encoder lacks
        h, cln = nn.layer_norm(y, p[pre + ".ln2.g"], p[pre + ".ln2.b"])
        q = nn.split_heads(h @ p[pre + ".cross.wq"], self.config.heads)
        k, v = cross_kv
        ctx, catt = nn.flagged_attention(q, k, v, onehot,
                                         *self._flag_tables(), cross_mask)
        mo = nn.merge_heads(ctx)
        y = y + mo @ p[pre + ".cross.wo"]
        y, cff = self._feed_forward(pre + ".ln3", pre + ".ff", y)
        return y, (cself, (h, cln, catt, mo), cff), kv

    def _output_logits(self, y):
        p = self.params
        hdec, clnf = nn.layer_norm(y, p["dec.lnf.g"], p["dec.lnf.b"])
        return hdec @ p["out.w"] + p["out.b"], hdec, clnf

    def _decode_ids(self, tgt_in, tgt_real, henc, src_real, onehot):
        """tgt_in: (B, Lt) ids. onehot: (B, Lt, Ls, 3), all flag 0 in
        mode off."""
        cfg = self.config
        p = self.params
        b, lt = tgt_in.shape
        if lt > cfg.max_len:
            raise LengthOverflow("target length %d > max_len %d" % (lt, cfg.max_len))
        y = p["tok_emb"][tgt_in] + p["pos_dec"][:lt]
        self_mask = nn.causal_mask(lt) + nn.padding_mask(tgt_real)
        cross_mask = nn.padding_mask(src_real)
        layer_caches = []
        for i in range(cfg.dec_layers):
            y, lcache, _ = self._decoder_layer(i, y, self_mask,
                                               self._cross_kv(i, henc),
                                               cross_mask, onehot)
            layer_caches.append(lcache)
        logits, hdec, clnf = self._output_logits(y)
        # a list: the backward pops the final norm's cache once used
        return logits, [tgt_in, layer_caches, hdec, clnf]

    def _decode_bwd(self, cache, dlogits, henc, reduce):
        """Returns dhenc accumulated over all decoder layers."""
        cfg = self.config
        p = self.params
        tgt_in, layer_caches, hdec = cache[:3]
        reduce("matmul", "out.w", hdec, dlogits)
        reduce("sum", "out.b", dlogits)
        dy = _layer_norm_bwd("dec.lnf", cache.pop(),
                             nn.linear_bwd(p["out.w"], dlogits), reduce)
        dhenc = np.zeros_like(henc)
        for i in reversed(range(cfg.dec_layers)):
            pre = "dec%d" % i
            cself, (h, cln, catt, mo), cff = layer_caches.pop()
            dy = self._feed_forward_bwd(pre + ".ln3", pre + ".ff", cff, dy,
                                        reduce)
            # cross-attention residual
            reduce("matmul", pre + ".cross.wo", mo, dy)
            dctx = nn.split_heads(nn.linear_bwd(p[pre + ".cross.wo"], dy),
                                  cfg.heads)
            dq, dk, dv, dtf = nn.flagged_attention_bwd(catt, dctx)
            reduce("flag", "flag.ek", dtf, catt[0])  # catt[0]: q
            reduce("flag", "flag.ev", catt[7], dctx)  # amass
            dq = nn.merge_heads(dq)
            reduce("matmul", pre + ".cross.wq", h, dq)
            dh = nn.linear_bwd(p[pre + ".cross.wq"], dq)
            for nm, d in (("wk", dk), ("wv", dv)):
                d = nn.merge_heads(d)
                reduce("matmul", pre + ".cross." + nm, henc, d)
                dhenc += nn.linear_bwd(p[pre + ".cross." + nm], d)
            dy = dy + _layer_norm_bwd(pre + ".ln2", cln, dh, reduce)
            dy = self._self_attn_bwd(pre + ".ln1", pre + ".self", cself, dy,
                                     reduce)
            del cself, h, cln, catt, mo, cff
        reduce("embed", "tok_emb", tgt_in, dy)
        reduce("position", "pos_dec", dy)
        return dhenc

    # ------------------------------------------------------------- public
    def _forward(self, src, tgt_in, onehot):
        """Teacher-forced logits of ids src and tgt_in with their
        backward cache; onehot as from _flag_onehot."""
        src_real = src != self.vocab.pad_id
        tgt_real = tgt_in != self.vocab.pad_id
        henc, ecache = self._encode_ids(src, src_real)
        logits, dcache = self._decode_ids(tgt_in, tgt_real, henc, src_real,
                                          onehot)
        return logits, (ecache, dcache, henc)

    def logits_batch(self, src, tgt_in, m_batch):
        """Teacher-forced logits. m_batch: (B, Ls, Lt) int flags, or None
        for all-zero flags; pad ids in src and tgt_in mark padding."""
        src = np.asarray(src)
        tgt_in = np.asarray(tgt_in)
        onehot = _flag_onehot(m_batch, src.shape[0], src.shape[1],
                              tgt_in.shape[1])
        return self._forward(src, tgt_in, onehot)[0]

    def loss_and_grads(self, src, tgt_in, tgt_out, m_batch, workers=None):
        """Mean masked cross-entropy of a padded batch and its gradient
        for every parameter; m_batch as in logits_batch.

        Two phases. The per-example work (the forward, the loss gradient
        and the backward chain of input gradients) runs on contiguous
        blocks of the batch, one per worker and two examples or more
        each (workers: a Workers; None runs the batch as one block in the
        calling thread). Every block keeps the batch's padded lengths and
        numpy runs one product per batch element, so an example's
        arithmetic does not depend on its block. The backward functions
        hand each cross-example reduction's operands to the block's
        reduce, which keeps them in program order. Each reduction then
        runs once over the whole batch, after every block has finished,
        in the calling thread: the weight products, bias and layer-norm
        sums, the flag tables' contractions, the positional sums and the
        embedding scatters on the blocks' operands concatenated in batch
        order, each added into the gradients in program order. The loss
        mask's count is taken before the blocks and the loss sum after
        them. So the result is the same bytes for any number of workers.
        """
        workers = workers or _SERIAL
        src, tgt_in, tgt_out = map(np.asarray, (src, tgt_in, tgt_out))
        b = src.shape[0]
        onehot = _flag_onehot(m_batch, b, src.shape[1], tgt_in.shape[1])
        mask = (tgt_out != self.vocab.pad_id).astype(np.float64)
        n = mask.sum()
        # blocks of two examples or more: on a block of one, the reshapes
        # in nn.flag_select and nn.flag_mass that merge the batch axis
        # into the next give views instead of copies, and BLAS reads
        # those in another layout and rounds differently
        k = max(1, min(workers.n, b // 2))
        cuts = [b * i // k for i in range(k + 1)]
        handed = [[] for _ in range(k)]  # (kind, name, operands) per block

        def block(i):
            s = slice(cuts[i], cuts[i + 1])

            def reduce(kind, name, *operands):
                handed[i].append((kind, name, operands))

            logits, (ecache, dcache, henc) = self._forward(
                src[s], tgt_in[s], onehot[s])
            nll, dlogits = nn.cross_entropy_terms(logits, tgt_out[s],
                                                  mask[s], n)
            # the backward pops each layer's cache, the final layer norms'
            # included, and drops it once it is done with it, so that a
            # layer's arrays outlive it only as reduction operands
            del logits
            dhenc = self._decode_bwd(dcache, dlogits, henc, reduce)
            self._encode_bwd(ecache, dhenc, reduce)
            return nll

        loss = float(_cat(workers.map(block, range(k))).sum() / n)
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        for each in zip(*handed):  # one reduction: every block's hand-in
            kind, name, _ = each[0]
            operands = zip(*(ops for _, _, ops in each))
            value = _REDUCE[kind](*map(_cat, operands))
            g = grads[name]
            if kind == "embed":
                np.add.at(g, *value)
            elif kind == "position":
                g[:len(value)] += value
            else:
                g += value.reshape(g.shape)
        # row 0 of the flag tables is pinned at zero
        grads["flag.ek"][0] = 0.0
        grads["flag.ev"][0] = 0.0
        return loss, grads

    def encode(self, x_tokens) -> np.ndarray:
        """Encoder states for one token sequence, shape (len, dim).

        The sequence has no padding, so no mask is added: an all-zero
        mask would only turn -0.0 logits into +0.0, and both subtract
        and exponentiate to the same bytes in the softmax."""
        ids = np.asarray([self.vocab.encode(list(x_tokens))])
        henc, _ = self._encode_ids(ids, None)
        return henc[0]

    def forward(self, x_tokens, y_prefix, m) -> np.ndarray:
        """Teacher-forced next-token distributions for one example.

        m must have one column per decoder position: len(y_prefix) + 1
        (the leading column is the initialization state), or be None for
        all-zero flags. Returns (len(y_prefix) + 1, vocab) probabilities;
        row t conditions on y_prefix[:t].
        """
        src = np.asarray([self.vocab.encode(list(x_tokens))])
        tgt_in = np.asarray([[self.vocab.bos_id]
                             + self.vocab.encode(list(y_prefix))])
        if m is not None:
            m = np.asarray(m)[None]
        logits = self.logits_batch(src, tgt_in, m)
        return nn.softmax(logits[0])

    def predict_next_from_states(self, henc, prefix_ids, m) -> np.ndarray:
        """Log-probabilities of the token after the decoded prefix ids.

        henc: (Ls, dim) from encode(); m: (Ls, len(prefix) + 1) flag
        columns, or None for all-zero flags. Runs the whole prefix
        uncached. No decoder calls it: the model.step layer of
        bench/tracing.py still names it.
        """
        henc = np.asarray(henc)[None]
        tgt_in = np.asarray([[self.vocab.bos_id] + list(prefix_ids)])
        src_real = np.ones((1, henc.shape[1]), dtype=bool)
        tgt_real = np.ones_like(tgt_in, dtype=bool)
        if m is not None:
            m = np.asarray(m)[None]
        onehot = _flag_onehot(m, 1, henc.shape[1], tgt_in.shape[1])
        logits, _ = self._decode_ids(tgt_in, tgt_real, henc, src_real, onehot)
        return nn.log_softmax(logits[0, -1])

    def begin_decode(self, henc) -> DecoderCache:
        """Empty decoder cache for one input; henc: (Ls, dim) from encode()."""
        henc = np.asarray(henc)[None]
        return DecoderCache(tuple(self._cross_kv(i, henc)
                                  for i in range(self.config.dec_layers)),
                            None, 0)

    def decode_step(self, cache: DecoderCache, parents, last_ids, columns,
                    draft=()):
        """Next-token log-probabilities of B prefixes, forwarding only each
        prefix's newest position.

        Row r extends row parents[r] of cache (ignored while it is empty)
        by the decoder input last_ids[r] (the start symbol first) under
        its current flag column columns[r], shape (Ls,). Returns (B, vocab)
        log-probabilities and the cache extended by these rows, in the
        given order; cache itself is left as it was. Agrees up to
        rounding with the teacher-forced logits_batch on the input, the
        full prefix and its flag matrix. Raises NonFiniteLogProbs when a
        row is NaN.

        draft: token ids that follow last_ids[0] (B = 1). The call then
        forwards the 1 + len(draft) consecutive positions of the one
        prefix: row 0 is last_ids[0], row r draft[r - 1], every row under
        columns[0]. Row r attends to the cached positions and rows 0..r,
        so it is, to the byte, the row a one-row step would return after
        rows 0..r-1 under the same column. Returns (1 + len(draft),
        vocab) log-probabilities and the cache extended by every row
        (DecoderCache.cut keeps a prefix of them); only row 0 is checked
        for NaN, the caller checks each draft row it reads
        (check_logprobs).
        """
        cfg = self.config
        p = self.params
        t = cache.length
        if t + len(draft) >= cfg.max_len:
            raise LengthOverflow("target length %d > max_len %d"
                                 % (t + 1 + len(draft), cfg.max_len))
        ids = np.asarray(last_ids)
        columns = np.asarray(columns)
        ls = cache.cross[0][0].shape[2]
        if columns.shape != (ids.shape[0], ls):
            raise ShapeMismatch("flag columns %s do not match (B=%d, Ls=%d)"
                                % (columns.shape, ids.shape[0], ls))
        if draft:
            if ids.shape[0] != 1:
                raise ShapeMismatch("a draft extends one prefix, not %d"
                                    % ids.shape[0])
            ids = np.concatenate([ids, draft])
            columns = np.repeat(columns, len(ids), axis=0)
            y = p["tok_emb"][ids][:, None] + p["pos_dec"][t:t + len(ids),
                                                          None]
        else:
            y = p["tok_emb"][ids][:, None] + p["pos_dec"][t]
        onehot = nn.flag_onehot(columns[:, :, None])
        past = cache.self_kv
        if past is not None:
            past = tuple((k[parents], v[parents]) for k, v in past)
        self_kv = []
        for i in range(cfg.dec_layers):
            y, _, kv = self._decoder_layer(i, y, None, cache.cross[i], None,
                                           onehot,
                                           None if past is None else past[i],
                                           bool(draft))
            self_kv.append(kv)
        lp = nn.log_softmax(self._output_logits(y)[0][:, 0])
        check_logprobs(lp[:len(last_ids)])
        return lp, DecoderCache(cache.cross, tuple(self_kv),
                                t + 1 + len(draft))

    # -------------------------------------------------------- persistence
    def save(self, path):
        meta = {
            "format_version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "vocab_tokens": self.vocab.tokens,
            "digest": _checkpoint_digest(asdict(self.config),
                                         self.vocab.tokens, self.params),
        }
        # through an open file: given a path, np.savez appends ".npz"
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(
                json.dumps(meta, sort_keys=True).encode("utf-8"),
                dtype=np.uint8), **self.params)

    @classmethod
    def load(cls, path) -> "Seq2SeqModel":
        # numpy leaks the file of an archive it fails to open, so the
        # file is opened (and closed) here
        with open(path, "rb") as fh:
            try:
                data = np.load(fh, allow_pickle=False)
            except (ValueError, EOFError, zipfile.BadZipFile):
                data = None
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise CheckpointMismatch("%s is not an .npz archive" % path)
            with data:
                return cls._from_archive(data)

    @classmethod
    def _from_archive(cls, data) -> "Seq2SeqModel":
        # names, shapes and dtypes are checked against the table of the
        # checkpoint's own config, then the digest, before any model is
        # built: a config too large for the host is refused unallocated
        config, tokens, digest = _checkpoint_meta(data)
        try:
            cfg, vocab = ModelConfig(**config), Vocabulary(tokens)
        except ValueError as exc:
            raise CheckpointMismatch("checkpoint config %s: %s"
                                     % (config, exc)) from exc
        names = set(data.files) - {"__meta__"}
        # a table longer than the archive can never match it, so the
        # walk stops one entry past the archive's tensor count
        need = {name: shape for name, shape, _ in itertools.islice(
            _param_specs(cfg, len(vocab)), len(names) + 1)}
        if len(need) > len(names):
            raise CheckpointMismatch(
                "checkpoint config needs more than the %d tensors it holds:"
                " missing %s" % (len(names), sorted(set(need) - names)))
        if names != set(need):
            raise CheckpointMismatch(
                "checkpoint tensors do not fit its config: missing %s,"
                " unexpected %s" % (sorted(set(need) - names),
                                    sorted(names - set(need))))
        saved = {}
        for k, shape in need.items():
            saved[k] = _read_member(data, k)
            if saved[k].shape != shape:
                raise CheckpointMismatch(
                    "checkpoint tensor %s has shape %s, its config and"
                    " vocabulary need %s" % (k, saved[k].shape, shape))
            if saved[k].dtype.kind != "f":
                raise CheckpointMismatch(
                    "checkpoint tensor %s has dtype %s, not a floating-point"
                    " type" % (k, saved[k].dtype))
        # tensors of the right shapes can still belong to another
        # vocabulary order or another head count, or have lost precision
        if digest != _checkpoint_digest(config, tokens, saved):
            raise CheckpointMismatch("checkpoint digest does not match its"
                                     " config, vocabulary and tensors")
        return cls(cfg, vocab, params={k: arr.astype(np.float64)
                                       for k, arr in saved.items()})


def _read_member(data, name):
    """One array of an open checkpoint; raises CheckpointMismatch when
    its bytes are damaged."""
    try:
        return data[name]
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error,
            tokenize.TokenError) as exc:  # TokenError: an unclosed header
        raise CheckpointMismatch("checkpoint tensor %s is unreadable: %s"
                                 % (name, exc)) from exc


def _checkpoint_digest(config, tokens, tensors):
    """SHA-256 over the config (sorted-key JSON) and the vocabulary tokens,
    then each tensor's name, dtype, shape and bytes in name order."""
    h = hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8"))
    h.update(json.dumps(tokens).encode("utf-8"))
    for name in sorted(tensors):
        arr = tensors[name]
        h.update(json.dumps([name, arr.dtype.str, arr.shape]).encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()


def _checkpoint_meta(data):
    """(config, vocab_tokens, digest) from a checkpoint's metadata, the
    first two checked for form; raises CheckpointMismatch."""
    if "__meta__" not in data:
        raise CheckpointVersionMismatch("missing checkpoint metadata")
    raw = bytes(_read_member(data, "__meta__"))
    try:
        meta = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # undecodable bytes or JSON
        raise CheckpointMismatch("checkpoint metadata is not UTF-8 JSON") \
            from exc
    if not isinstance(meta, dict):
        raise CheckpointMismatch("checkpoint metadata is not a JSON object")
    if meta.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointVersionMismatch(
            "checkpoint format %r, expected %d"
            % (meta.get("format_version"), CHECKPOINT_VERSION))
    tokens = meta.get("vocab_tokens")
    if (not isinstance(tokens, list)
            or not all(isinstance(t, str) for t in tokens)):
        raise CheckpointMismatch(
            "checkpoint vocab_tokens is missing or not a list of strings")
    config = meta.get("config")
    keys = sorted(f.name for f in fields(ModelConfig))
    if not isinstance(config, dict) or sorted(config) != keys:
        raise CheckpointMismatch("checkpoint config must have exactly the"
                                 " keys %s" % ", ".join(keys))
    if not all(type(v) is int for v in config.values()):
        raise CheckpointMismatch("checkpoint config values must be integers")
    return config, tokens, meta.get("digest")

