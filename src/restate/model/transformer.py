"""Encoder-decoder transformer with flag-conditioned cross-attention.

Desk-scale by design: a few layers, float64, pure numpy, explicit
backward pass. The decoder's cross-attention adds flag key/value
embeddings E_k, E_v (3 rows, one per flag value) in every layer; the
tables are shared across layers and split across heads in contiguous
slices. Row 0 (the "not part of any constraint" flag) is pinned to
zero so unflagged positions get exactly standard attention and an
all-zero flag matrix reduces the model to its vanilla twin.

Teacher forcing and inference share one decoder-layer function.
Inference is incremental: begin_decode computes every layer's
cross-attention keys and values once per input, and decode_step
forwards only the newest position of each hypothesis, reusing the
self-attention keys and values cached for its earlier positions.
"""

from __future__ import annotations

import json
import zipfile
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


CHECKPOINT_VERSION = 1


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


def build_flag_matrix_batch(ms, lenc, ldec):
    """Stack per-example flag matrices into (B, lenc, ldec), zero-padded."""
    b = len(ms)
    out = np.zeros((b, lenc, ldec), dtype=np.int64)
    for i, m in enumerate(ms):
        if m is None:
            continue
        m = np.asarray(m)
        out[i, :m.shape[0], :m.shape[1]] = m
    return out


class Seq2SeqModel:
    """Transformer rewriter; owns its vocabulary and parameters."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary):
        self.config = config
        self.vocab = vocab
        self.params: dict[str, np.ndarray] = {}
        self._init_params()

    # ------------------------------------------------------------- params
    def _init_params(self):
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        p = self.params

        def w(name, *shape):
            p[name] = rng.normal(0.0, 0.02, size=shape)

        def ln(name):
            p[name + ".g"] = np.ones(cfg.dim)
            p[name + ".b"] = np.zeros(cfg.dim)

        vsz = len(self.vocab)
        w("tok_emb", vsz, cfg.dim)
        w("pos_enc", cfg.max_len, cfg.dim)
        w("pos_dec", cfg.max_len, cfg.dim)
        for i in range(cfg.enc_layers):
            pre = "enc%d" % i
            for nm in ("wq", "wk", "wv", "wo"):
                w("%s.attn.%s" % (pre, nm), cfg.dim, cfg.dim)
            ln(pre + ".ln1")
            ln(pre + ".ln2")
            w(pre + ".ff.w1", cfg.dim, cfg.ff)
            p[pre + ".ff.b1"] = np.zeros(cfg.ff)
            w(pre + ".ff.w2", cfg.ff, cfg.dim)
            p[pre + ".ff.b2"] = np.zeros(cfg.dim)
        ln("enc.lnf")
        for i in range(cfg.dec_layers):
            pre = "dec%d" % i
            for nm in ("wq", "wk", "wv", "wo"):
                w("%s.self.%s" % (pre, nm), cfg.dim, cfg.dim)
                w("%s.cross.%s" % (pre, nm), cfg.dim, cfg.dim)
            ln(pre + ".ln1")
            ln(pre + ".ln2")
            ln(pre + ".ln3")
            w(pre + ".ff.w1", cfg.dim, cfg.ff)
            p[pre + ".ff.b1"] = np.zeros(cfg.ff)
            w(pre + ".ff.w2", cfg.ff, cfg.dim)
            p[pre + ".ff.b2"] = np.zeros(cfg.dim)
        ln("dec.lnf")
        # flag tables: row 0 is structurally zero and never trained
        w("flag.ek", 3, cfg.dim)
        w("flag.ev", 3, cfg.dim)
        p["flag.ek"][0] = 0.0
        p["flag.ev"][0] = 0.0
        w("out.w", cfg.dim, vsz)
        p["out.b"] = np.zeros(vsz)

    def zero_grads(self):
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def _ek3(self):
        cfg = self.config
        return self.params["flag.ek"].reshape(3, cfg.heads, cfg.dim // cfg.heads)

    def _ev3(self):
        cfg = self.config
        return self.params["flag.ev"].reshape(3, cfg.heads, cfg.dim // cfg.heads)

    # ------------------------------------------------------------ encoder
    def _encode_ids(self, src, src_real):
        """src: (B, Ls) ids; src_real: (B, Ls) bool. Returns henc + cache."""
        cfg = self.config
        p = self.params
        b, ls = src.shape
        if ls > cfg.max_len:
            raise LengthOverflow("source length %d > max_len %d" % (ls, cfg.max_len))
        x = p["tok_emb"][src] + p["pos_enc"][:ls]
        mask = nn.padding_mask(src_real)
        layer_caches = []
        for i in range(cfg.enc_layers):
            pre = "enc%d" % i
            h1, cln1 = nn.layer_norm(x, p[pre + ".ln1.g"], p[pre + ".ln1.b"])
            q = nn.split_heads(h1 @ p[pre + ".attn.wq"], cfg.heads)
            k = nn.split_heads(h1 @ p[pre + ".attn.wk"], cfg.heads)
            v = nn.split_heads(h1 @ p[pre + ".attn.wv"], cfg.heads)
            ctx, catt = nn.attention(q, k, v, mask)
            mo = nn.merge_heads(ctx)
            x2 = x + mo @ p[pre + ".attn.wo"]
            h2, cln2 = nn.layer_norm(x2, p[pre + ".ln2.g"], p[pre + ".ln2.b"])
            z1 = h2 @ p[pre + ".ff.w1"] + p[pre + ".ff.b1"]
            r = nn.relu(z1)
            x3 = x2 + r @ p[pre + ".ff.w2"] + p[pre + ".ff.b2"]
            layer_caches.append((x, h1, cln1, catt, mo, x2, h2, cln2, z1, r))
            x = x3
        henc, clnf = nn.layer_norm(x, p["enc.lnf.g"], p["enc.lnf.b"])
        cache = (src, src_real, layer_caches, clnf)
        return henc, cache

    def _encode_bwd(self, cache, dhenc, grads):
        cfg = self.config
        p = self.params
        src, src_real, layer_caches, clnf = cache
        dx, dg, db = nn.layer_norm_bwd(clnf, dhenc)
        grads["enc.lnf.g"] += dg
        grads["enc.lnf.b"] += db
        for i in reversed(range(cfg.enc_layers)):
            pre = "enc%d" % i
            x, h1, cln1, catt, mo, x2, h2, cln2, z1, r = layer_caches[i]
            # feed-forward residual
            dz2 = dx
            dr, dw2 = nn.linear_bwd(r, p[pre + ".ff.w2"], dz2)
            grads[pre + ".ff.w2"] += dw2
            grads[pre + ".ff.b2"] += dz2.reshape(-1, dz2.shape[-1]).sum(axis=0)
            dz1 = nn.relu_bwd(z1, dr)
            dh2, dw1 = nn.linear_bwd(h2, p[pre + ".ff.w1"], dz1)
            grads[pre + ".ff.w1"] += dw1
            grads[pre + ".ff.b1"] += dz1.reshape(-1, dz1.shape[-1]).sum(axis=0)
            dx2, dg, db = nn.layer_norm_bwd(cln2, dh2)
            dx2 = dx + dx2
            grads[pre + ".ln2.g"] += dg
            grads[pre + ".ln2.b"] += db
            # attention residual
            dmo, dwo = nn.linear_bwd(mo, p[pre + ".attn.wo"], dx2)
            grads[pre + ".attn.wo"] += dwo
            dctx = nn.split_heads(dmo, cfg.heads)
            dq, dk, dv = nn.attention_bwd(catt, dctx)
            dh1 = np.zeros_like(h1)
            for nm, d in (("wq", dq), ("wk", dk), ("wv", dv)):
                dm = nn.merge_heads(d)
                dh, dw = nn.linear_bwd(h1, p[pre + ".attn." + nm], dm)
                grads[pre + ".attn." + nm] += dw
                dh1 += dh
            dxa, dg, db = nn.layer_norm_bwd(cln1, dh1)
            grads[pre + ".ln1.g"] += dg
            grads[pre + ".ln1.b"] += db
            dx = dx2 + dxa
        np.add.at(grads["tok_emb"], src, dx)
        grads["pos_enc"][:src.shape[1]] += dx.sum(axis=0)

    # ------------------------------------------------------------ decoder
    def _cross_kv(self, i, henc):
        """Cross-attention (k, v) of decoder layer i, (B, H, Ls, Dh)."""
        p = self.params
        pre = "dec%d" % i
        heads = self.config.heads
        return (nn.split_heads(henc @ p[pre + ".cross.wk"], heads),
                nn.split_heads(henc @ p[pre + ".cross.wv"], heads))

    def _decoder_layer(self, i, y, self_mask, cross_kv, cross_mask, onehot,
                       past=None):
        """Decoder layer i over queries y: (B, Lq, dim).

        past: self-attention (k, v) of the positions before the queries,
        (B, H, Lp, Dh), or None when y holds the whole prefix. Returns
        the layer output, its backward cache and the self-attention
        (k, v) of every position up to the last query.
        """
        cfg = self.config
        p = self.params
        pre = "dec%d" % i
        h1, cln1 = nn.layer_norm(y, p[pre + ".ln1.g"], p[pre + ".ln1.b"])
        q = nn.split_heads(h1 @ p[pre + ".self.wq"], cfg.heads)
        k = nn.split_heads(h1 @ p[pre + ".self.wk"], cfg.heads)
        v = nn.split_heads(h1 @ p[pre + ".self.wv"], cfg.heads)
        if past is not None:
            k = np.concatenate([past[0], k], axis=2)
            v = np.concatenate([past[1], v], axis=2)
        sctx, cself = nn.attention(q, k, v, self_mask)
        smo = nn.merge_heads(sctx)
        y2 = y + smo @ p[pre + ".self.wo"]
        h2, cln2 = nn.layer_norm(y2, p[pre + ".ln2.g"], p[pre + ".ln2.b"])
        qc = nn.split_heads(h2 @ p[pre + ".cross.wq"], cfg.heads)
        kc, vc = cross_kv
        if onehot is None:
            cctx, ccross = nn.attention(qc, kc, vc, cross_mask)
        else:
            cctx, ccross = nn.flagged_attention(qc, kc, vc, onehot,
                                                self._ek3(), self._ev3(),
                                                cross_mask)
        cmo = nn.merge_heads(cctx)
        y3 = y2 + cmo @ p[pre + ".cross.wo"]
        h3, cln3 = nn.layer_norm(y3, p[pre + ".ln3.g"], p[pre + ".ln3.b"])
        z1 = h3 @ p[pre + ".ff.w1"] + p[pre + ".ff.b1"]
        r = nn.relu(z1)
        y4 = y3 + r @ p[pre + ".ff.w2"] + p[pre + ".ff.b2"]
        cache = (y, h1, cln1, cself, smo, y2, h2, cln2,
                 ccross, cmo, y3, h3, cln3, z1, r)
        return y4, cache, (k, v)

    def _output_logits(self, y):
        p = self.params
        hdec, clnf = nn.layer_norm(y, p["dec.lnf.g"], p["dec.lnf.b"])
        return hdec @ p["out.w"] + p["out.b"], hdec, clnf

    def _decode_ids(self, tgt_in, tgt_real, henc, src_real, onehot):
        """tgt_in: (B, Lt) ids. onehot: (B, Lt, Ls, 3) or None for the
        vanilla cross-attention path."""
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
        cache = (tgt_in, layer_caches, clnf, hdec, onehot is not None)
        return logits, cache

    def _decode_bwd(self, cache, dlogits, henc, grads):
        """Returns dhenc accumulated over all decoder layers."""
        cfg = self.config
        p = self.params
        tgt_in, layer_caches, clnf, hdec, flagged = cache
        dhdec, dow = nn.linear_bwd(hdec, p["out.w"], dlogits)
        grads["out.w"] += dow
        grads["out.b"] += dlogits.reshape(-1, dlogits.shape[-1]).sum(axis=0)
        dy, dg, db = nn.layer_norm_bwd(clnf, dhdec)
        grads["dec.lnf.g"] += dg
        grads["dec.lnf.b"] += db
        dhenc = np.zeros_like(henc)
        dek3 = np.zeros_like(self._ek3())
        dev3 = np.zeros_like(self._ev3())
        for i in reversed(range(cfg.dec_layers)):
            pre = "dec%d" % i
            (y, h1, cln1, cself, smo, y2, h2, cln2,
             ccross, cmo, y3, h3, cln3, z1, r) = layer_caches[i]
            # feed-forward residual
            dz2 = dy
            dr, dw2 = nn.linear_bwd(r, p[pre + ".ff.w2"], dz2)
            grads[pre + ".ff.w2"] += dw2
            grads[pre + ".ff.b2"] += dz2.reshape(-1, dz2.shape[-1]).sum(axis=0)
            dz1 = nn.relu_bwd(z1, dr)
            dh3, dw1 = nn.linear_bwd(h3, p[pre + ".ff.w1"], dz1)
            grads[pre + ".ff.w1"] += dw1
            grads[pre + ".ff.b1"] += dz1.reshape(-1, dz1.shape[-1]).sum(axis=0)
            dy3, dg, db = nn.layer_norm_bwd(cln3, dh3)
            dy3 = dy + dy3
            grads[pre + ".ln3.g"] += dg
            grads[pre + ".ln3.b"] += db
            # cross-attention residual
            dcmo, dwo = nn.linear_bwd(cmo, p[pre + ".cross.wo"], dy3)
            grads[pre + ".cross.wo"] += dwo
            dcctx = nn.split_heads(dcmo, cfg.heads)
            if flagged:
                dqc, dkc, dvc, dek, dev = nn.flagged_attention_bwd(ccross, dcctx)
                dek3 += dek
                dev3 += dev
            else:
                dqc, dkc, dvc = nn.attention_bwd(ccross, dcctx)
            dh2, dwq = nn.linear_bwd(h2, p[pre + ".cross.wq"], nn.merge_heads(dqc))
            grads[pre + ".cross.wq"] += dwq
            dhe, dwk = nn.linear_bwd(henc, p[pre + ".cross.wk"], nn.merge_heads(dkc))
            grads[pre + ".cross.wk"] += dwk
            dhenc += dhe
            dhe, dwv = nn.linear_bwd(henc, p[pre + ".cross.wv"], nn.merge_heads(dvc))
            grads[pre + ".cross.wv"] += dwv
            dhenc += dhe
            dy2, dg, db = nn.layer_norm_bwd(cln2, dh2)
            dy2 = dy3 + dy2
            grads[pre + ".ln2.g"] += dg
            grads[pre + ".ln2.b"] += db
            # self-attention residual
            dsmo, dwo = nn.linear_bwd(smo, p[pre + ".self.wo"], dy2)
            grads[pre + ".self.wo"] += dwo
            dsctx = nn.split_heads(dsmo, cfg.heads)
            dq, dk, dv = nn.attention_bwd(cself, dsctx)
            dh1 = np.zeros_like(h1)
            for nm, d in (("wq", dq), ("wk", dk), ("wv", dv)):
                dh, dw = nn.linear_bwd(h1, p[pre + ".self." + nm], nn.merge_heads(d))
                grads[pre + ".self." + nm] += dw
                dh1 += dh
            dya, dg, db = nn.layer_norm_bwd(cln1, dh1)
            grads[pre + ".ln1.g"] += dg
            grads[pre + ".ln1.b"] += db
            dy = dy2 + dya
        grads["flag.ek"] += dek3.reshape(3, cfg.dim)
        grads["flag.ev"] += dev3.reshape(3, cfg.dim)
        np.add.at(grads["tok_emb"], tgt_in, dy)
        grads["pos_dec"][:tgt_in.shape[1]] += dy.sum(axis=0)
        return dhenc

    # ------------------------------------------------------------- public
    def logits_batch(self, src, tgt_in, m_batch, src_real=None, tgt_real=None,
                     want_cache=False):
        """Teacher-forced logits. m_batch: (B, Ls, Lt) int flags or None."""
        src = np.asarray(src)
        tgt_in = np.asarray(tgt_in)
        if src_real is None:
            src_real = src != self.vocab.pad_id
        if tgt_real is None:
            tgt_real = tgt_in != self.vocab.pad_id
        if m_batch is not None:
            m_batch = np.asarray(m_batch)
            if m_batch.shape != (src.shape[0], src.shape[1], tgt_in.shape[1]):
                raise ShapeMismatch(
                    "flag matrix %s does not match (B=%d, Ls=%d, Lt=%d)"
                    % (m_batch.shape, src.shape[0], src.shape[1], tgt_in.shape[1]))
            onehot = nn.flag_onehot(m_batch)
        else:
            onehot = None
        henc, ecache = self._encode_ids(src, src_real)
        logits, dcache = self._decode_ids(tgt_in, tgt_real, henc, src_real, onehot)
        if want_cache:
            return logits, (ecache, dcache, henc)
        return logits

    def backward(self, cache, dlogits):
        ecache, dcache, henc = cache
        grads = self.zero_grads()
        dhenc = self._decode_bwd(dcache, dlogits, henc, grads)
        self._encode_bwd(ecache, dhenc, grads)
        # row 0 of the flag tables is pinned at zero
        grads["flag.ek"][0] = 0.0
        grads["flag.ev"][0] = 0.0
        return grads

    def loss_and_grads(self, src, tgt_in, tgt_out, m_batch, label_smoothing=0.0):
        tgt_out = np.asarray(tgt_out)
        logits, cache = self.logits_batch(src, tgt_in, m_batch, want_cache=True)
        mask = (tgt_out != self.vocab.pad_id).astype(np.float64)
        loss, dlogits = nn.cross_entropy(logits, tgt_out, mask, label_smoothing)
        grads = self.backward(cache, dlogits)
        return loss, grads

    def encode(self, x_tokens, allow_unk: bool = True) -> np.ndarray:
        """Encoder states for one token sequence, shape (len, dim)."""
        ids = np.asarray([self.vocab.encode(list(x_tokens), allow_unk=allow_unk)])
        real = np.ones_like(ids, dtype=bool)
        henc, _ = self._encode_ids(ids, real)
        return henc[0]

    def forward(self, x_tokens, y_prefix, m) -> np.ndarray:
        """Teacher-forced next-token distributions for one example.

        m must have one column per decoder position: len(y_prefix) + 1
        (the leading column is the initialization state). Returns
        (len(y_prefix) + 1, vocab) probabilities; row t conditions on
        y_prefix[:t].
        """
        src = np.asarray([self.vocab.encode(list(x_tokens))])
        tgt_in = np.asarray([[self.vocab.bos_id]
                             + self.vocab.encode(list(y_prefix))])
        if m is not None:
            m = np.asarray(m)
            if m.ndim != 2 or m.shape != (src.shape[1], tgt_in.shape[1]):
                raise ShapeMismatch(
                    "flag matrix %s does not match (Ls=%d, Lt=%d)"
                    % (m.shape if hasattr(m, "shape") else type(m),
                       src.shape[1], tgt_in.shape[1]))
            m = m[None]
        logits = self.logits_batch(src, tgt_in, m)
        return nn.softmax(logits[0])

    def predict_next(self, src_ids, prefix_ids, m) -> np.ndarray:
        """Log-probabilities of the next token given decoded prefix ids.

        m: (Ls, len(prefix)+1) flag columns, or None for the vanilla path.
        """
        src = np.asarray([src_ids])
        real = np.ones_like(src, dtype=bool)
        henc, _ = self._encode_ids(src, real)
        return self.predict_next_from_states(henc[0], prefix_ids, m)

    def predict_next_from_states(self, henc, prefix_ids, m) -> np.ndarray:
        """Like predict_next but reusing precomputed encoder states.

        henc: (Ls, dim) from encode(). Runs the whole prefix, so it is
        the uncached reference for decode_step.
        """
        henc = np.asarray(henc)[None]
        tgt_in = np.asarray([[self.vocab.bos_id] + list(prefix_ids)])
        src_real = np.ones((1, henc.shape[1]), dtype=bool)
        tgt_real = np.ones_like(tgt_in, dtype=bool)
        if m is None:
            onehot = None
        else:
            m = np.asarray(m)
            if m.shape != (henc.shape[1], tgt_in.shape[1]):
                raise ShapeMismatch(
                    "flag matrix %s does not match (Ls=%d, Lt=%d)"
                    % (m.shape, henc.shape[1], tgt_in.shape[1]))
            onehot = nn.flag_onehot(m[None])
        logits, _ = self._decode_ids(tgt_in, tgt_real, henc, src_real, onehot)
        return nn.log_softmax(logits[0, -1])

    def begin_decode(self, henc) -> DecoderCache:
        """Empty decoder cache for one input; henc: (Ls, dim) from encode()."""
        henc = np.asarray(henc)[None]
        return DecoderCache(tuple(self._cross_kv(i, henc)
                                  for i in range(self.config.dec_layers)),
                            None, 0)

    def decode_step(self, cache: DecoderCache, parents, last_ids, columns):
        """Next-token log-probabilities of B prefixes, forwarding only each
        prefix's newest position.

        Row r extends row parents[r] of cache (ignored while it is empty)
        by the decoder input last_ids[r] (the start symbol first) under
        its current flag column columns[r], shape (Ls,). Returns (B, vocab)
        log-probabilities and the cache extended by these rows, in the
        given order. Agrees with predict_next_from_states on the full
        prefix and flag matrix up to rounding.
        """
        cfg = self.config
        p = self.params
        t = cache.length
        if t >= cfg.max_len:
            raise LengthOverflow("target length %d > max_len %d"
                                 % (t + 1, cfg.max_len))
        ids = np.asarray(last_ids)
        columns = np.asarray(columns)
        ls = cache.cross[0][0].shape[2]
        if columns.shape != (ids.shape[0], ls):
            raise ShapeMismatch("flag columns %s do not match (B=%d, Ls=%d)"
                                % (columns.shape, ids.shape[0], ls))
        y = p["tok_emb"][ids][:, None] + p["pos_dec"][t]
        onehot = nn.flag_onehot(columns[:, :, None])
        self_kv = []
        for i in range(cfg.dec_layers):
            past = None
            if cache.self_kv is not None:
                k, v = cache.self_kv[i]
                past = (k[parents], v[parents])
            y, _, kv = self._decoder_layer(i, y, None, cache.cross[i], None,
                                           onehot, past)
            self_kv.append(kv)
        lp = nn.log_softmax(self._output_logits(y)[0][:, 0])
        if np.isnan(lp).any():
            raise NonFiniteLogProbs("decoder log-probabilities are NaN"
                                    " (non-finite model weights?)")
        return lp, DecoderCache(cache.cross, tuple(self_kv), t + 1)

    # -------------------------------------------------------- persistence
    def save(self, path):
        meta = {
            "format_version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "vocab_tokens": self.vocab.tokens,
        }
        np.savez(path, __meta__=np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8),
            **self.params)

    @classmethod
    def load(cls, path) -> "Seq2SeqModel":
        try:
            data = np.load(path, allow_pickle=False)
        except (ValueError, zipfile.BadZipFile):
            data = None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise CheckpointMismatch("%s is not an .npz archive" % path)
        with data:
            config, tokens = _checkpoint_meta(data)
            try:
                model = cls(ModelConfig(**config), Vocabulary(tokens))
            except (ValueError, ArithmeticError) as exc:
                raise CheckpointMismatch("checkpoint config %s: %s"
                                         % (config, exc)) from exc
            names = set(data.files) - {"__meta__"}
            if names != set(model.params):
                raise CheckpointMismatch(
                    "checkpoint tensors do not fit its config: missing %s,"
                    " unexpected %s" % (sorted(set(model.params) - names),
                                        sorted(names - set(model.params))))
            for k, init in model.params.items():
                saved = data[k]
                if saved.shape != init.shape:
                    raise CheckpointMismatch(
                        "checkpoint tensor %s has shape %s, its config and"
                        " vocabulary need %s" % (k, saved.shape, init.shape))
                model.params[k] = saved.astype(np.float64)
        return model


def _checkpoint_meta(data):
    """(config, vocab_tokens) from a checkpoint's metadata, checked for
    form; raises CheckpointMismatch."""
    if "__meta__" not in data:
        raise CheckpointVersionMismatch("missing checkpoint metadata")
    try:
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
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
    return config, tokens


def cross_attention_flagged(h_d, h_e, m, wq, wk, wv, ek, ev, heads=1,
                            return_weights=False):
    """Functional flag-aware cross-attention on raw state matrices.

    h_d: (Lq, dim) decoder states; h_e: (Lk, dim) encoder states;
    m: flag column (Lk,) applied to every query, or full (Lk, Lq).
    No output projection; returns (Lq, dim), optionally with the
    per-head attention weights (heads, Lq, Lk).
    """
    h_d = np.atleast_2d(np.asarray(h_d, dtype=np.float64))
    h_e = np.asarray(h_e, dtype=np.float64)
    m = np.asarray(m)
    lq = h_d.shape[0]
    lk = h_e.shape[0]
    if m.ndim == 1:
        m = np.repeat(m[:, None], lq, axis=1)
    if m.shape != (lk, lq):
        raise ShapeMismatch("flag column %s does not match (Lk=%d, Lq=%d)"
                            % (m.shape, lk, lq))
    dim = h_d.shape[1]
    dh = dim // heads
    q = nn.split_heads((h_d @ wq)[None], heads)
    k = nn.split_heads((h_e @ wk)[None], heads)
    v = nn.split_heads((h_e @ wv)[None], heads)
    onehot = nn.flag_onehot(m[None])
    ek3 = np.asarray(ek).reshape(3, heads, dh)
    ev3 = np.asarray(ev).reshape(3, heads, dh)
    ctx, cache = nn.flagged_attention(q, k, v, onehot, ek3, ev3)
    out = nn.merge_heads(ctx)[0]
    if return_weights:
        alpha = cache[6][0]
        return out, alpha
    return out
