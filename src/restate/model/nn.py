"""Numpy building blocks with explicit forward/backward pairs.

Everything runs in float64 so finite-difference gradient checks are
meaningful. Shapes follow the (batch, heads, length, head_dim)
convention inside attention; masks are additive (0 keeps a key,
-1e9 removes it).

Flag-aware cross-attention: for query j and key i, the raw score is
q_j . (k_i + E_k[M(i,j)]) scaled by sqrt(head_dim), and the output is
sum_i alpha_ij (v_i + E_v[M(i,j)]). The flag tables are materialized
per head as (3, heads, head_dim) slices. The M-dependent gather goes
through a one-hot tensor: selecting each key's flag term and summing
the attention mass per flag are two explicit batched matmuls
(flag_select, flag_mass), the same reshapes and matmul numpy's einsum
planner picks for these contractions, so the backward pass stays a few
matmuls instead of a scatter loop and no call pays for planning.

Each backward splits along the batch: the *_bwd functions return only
gradients into their inputs, which are per example, and the gradients
of the parameters are separate reductions over every position of the
batch (linear_dw, row_sum, flag_table_grad), so a batch can run its
per-example work in blocks and each reduction once over the whole.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = -1e9


class ShapeMismatch(ValueError):
    """Raised when attention inputs disagree on their shared dimensions."""


def linear_bwd(w, dy):
    """Gradient into the input of x @ w."""
    return dy @ w.T


def linear_dw(x, dy):
    """Gradient of w in x @ w: one product over every position."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def row_sum(x):
    """Sum over every position: a bias's gradient, (..., n) -> (n,)."""
    return x.reshape(-1, x.shape[-1]).sum(axis=0)


def relu(x):
    return np.maximum(x, 0.0)


def relu_bwd(x, dy):
    return dy * (x > 0.0)


def layer_norm(x, g, b, eps=1e-5):
    # one pass over x - mean, summed and divided in the order of
    # numpy's x.mean and x.var, so the bytes match theirs
    n = x.shape[-1]
    d = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(d * d, axis=-1, keepdims=True) / n + eps)
    xhat = d * inv
    return g * xhat + b, (xhat, inv, g)


def layer_norm_bwd(cache, dy):
    """Gradient into layer_norm's input; g's is row_sum(dy * xhat), b's
    row_sum(dy)."""
    xhat, inv, g = cache
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2)


# softmax and log_softmax call the ufunc reductions that ndarray.max and
# ndarray.sum wrap, with the same arguments, so the bytes are theirs
def softmax(x, axis=-1):
    z = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def log_softmax(x, axis=-1):
    z = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=axis, keepdims=True))


def split_heads(x, heads):
    # (B, L, D) -> (B, H, L, D/H)
    b, l, d = x.shape
    return x.reshape(b, l, heads, d // heads).transpose(0, 2, 1, 3)


def merge_heads(x):
    # (B, H, L, Dh) -> (B, L, D)
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def attention(q, k, v, mask=None):
    """Scaled dot-product attention. q,k,v: (B,H,L,Dh)."""
    scale = math.sqrt(q.shape[-1])
    logits = q @ k.swapaxes(-1, -2) / scale
    if mask is not None:
        logits = logits + mask
    alpha = softmax(logits)
    ctx = alpha @ v
    return ctx, (q, k, v, alpha, scale)


def chained_attention(q, k, v):
    """Attention of R consecutive positions of one prefix, one per row:
    q (R,H,1,Dh); k, v (1,H,Lk,Dh); row r attends to the first
    Lk - R + 1 + r keys alone. Returns (R,H,1,Dh).

    Each row's two products and its sum run at exactly its own key
    count, on the operands attention would get for that row alone.
    The scale, max, subtract, exp and divide run once, elementwise or
    along a row, over the rows' logits padded with -inf to (R,H,1,Lk):
    a padded key adds nothing to the max and gets weight exp(-inf) = 0,
    outside the row's sum and product. So row r is, to the byte,
    attention(q[r:r+1], k[:, :, :n+r], v[:, :, :n+r]), n = Lk - R + 1.
    """
    rows, h = q.shape[:2]
    lk = k.shape[2]
    n = lk - rows + 1  # keys of row 0
    kt = k.swapaxes(-1, -2)
    logits = np.full((rows, h, 1, lk), -np.inf)
    for r in range(rows):
        logits[r:r + 1, :, :, :n + r] = q[r:r + 1] @ kt[..., :n + r]
    logits /= math.sqrt(q.shape[-1])
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    total = np.empty((rows, h, 1, 1))
    for r in range(rows):
        total[r] = np.add.reduce(e[r, :, :, :n + r], axis=-1, keepdims=True)
    alpha = e / total
    return np.concatenate([alpha[r:r + 1, :, :, :n + r] @ v[:, :, :n + r]
                           for r in range(rows)])


def attention_bwd(cache, dctx):
    q, k, v, alpha, scale = cache
    dalpha = dctx @ v.swapaxes(-1, -2)
    dv = alpha.swapaxes(-1, -2) @ dctx
    dlogits = alpha * (dalpha - (dalpha * alpha).sum(axis=-1, keepdims=True))
    draw = dlogits / scale
    dq = draw @ k
    dk = draw.swapaxes(-1, -2) @ q
    return dq, dk, dv


def flag_onehot(m):
    """(B, Lenc, Ldec) int flags -> (B, Ldec, Lenc, 3) float one-hot."""
    mt = np.transpose(np.asarray(m), (0, 2, 1))
    return (mt[..., None] == np.arange(3)).astype(np.float64)


def flag_select(t, onehot):
    """Each key's term for its own flag: t (B,H,Lq,3), onehot
    (B,Lq,Lk,3) -> (B,H,Lq,Lk), einsum "bhjf,bjif->bhji"."""
    b, h, lq, _ = t.shape
    lk = onehot.shape[2]
    x = onehot.reshape(b * lq, lk, 3) \
        @ t.transpose(0, 2, 3, 1).reshape(b * lq, 3, h)
    return x.reshape(b, lq, lk, h).transpose(0, 3, 1, 2)


def flag_mass(a, onehot):
    """Sum of a over the keys carrying each flag: a (B,H,Lq,Lk), onehot
    (B,Lq,Lk,3) -> (B,H,Lq,3), einsum "bhji,bjif->bhjf"."""
    b, h, lq, lk = a.shape
    if lk == 1:
        # nothing to sum: einsum multiplies, which keeps a's signed zeros
        return a * onehot[:, None, :, 0, :]
    x = onehot.transpose(0, 1, 3, 2).reshape(b * lq, 3, lk) \
        @ a.transpose(0, 2, 3, 1).reshape(b * lq, lk, h)
    return x.reshape(b, lq, 3, h).transpose(0, 3, 1, 2)


def flagged_attention(q, k, v, onehot, ek3, ev3, mask=None):
    """Cross-attention with additive flag key/value embeddings.

    q: (B,H,Lq,Dh); k,v: (B,H,Lk,Dh); onehot: (B,Lq,Lk,3);
    ek3, ev3: (3,H,Dh), per-head slices of the 3 x dim flag tables.
    """
    b, h, lq, dh = q.shape
    lk = k.shape[2]
    if onehot.shape != (b, lq, lk, 3):
        raise ShapeMismatch("flag tensor %s does not match (%d,%d,%d,3)"
                            % (onehot.shape, b, lq, lk))
    scale = math.sqrt(dh)
    base = q @ k.swapaxes(-1, -2)
    # tf[b,h,j,f] = q_j . ek[f]; gathered per key via the one-hot
    tf = np.einsum("bhjd,fhd->bhjf", q, ek3)
    tflag = flag_select(tf, onehot)
    logits = (base + tflag) / scale
    if mask is not None:
        logits = logits + mask
    alpha = softmax(logits)
    # amass[b,h,j,f] = total attention mass on keys flagged f
    amass = flag_mass(alpha, onehot)
    ctx = alpha @ v + np.einsum("bhjf,fhd->bhjd", amass, ev3)
    cache = (q, k, v, onehot, ek3, ev3, alpha, amass, scale)
    return ctx, cache


def flagged_attention_bwd(cache, dctx):
    """dq, dk, dv and dtf, the gradient of the per-flag query terms.
    The tables' gradients are flag_table_grad(dtf, q) for E_k and
    flag_table_grad(amass, dctx) for E_v."""
    q, k, v, onehot, ek3, ev3, alpha, amass, scale = cache
    damass = np.einsum("bhjd,fhd->bhjf", dctx, ev3)
    dalpha = dctx @ v.swapaxes(-1, -2) + flag_select(damass, onehot)
    dv = alpha.swapaxes(-1, -2) @ dctx
    dlogits = alpha * (dalpha - (dalpha * alpha).sum(axis=-1, keepdims=True))
    draw = dlogits / scale
    dtf = flag_mass(draw, onehot)
    dq = draw @ k + np.einsum("bhjf,fhd->bhjd", dtf, ek3)
    dk = draw.swapaxes(-1, -2) @ q
    return dq, dk, dv, dtf


def flag_table_grad(t, x):
    """Gradient of a (3, H, Dh) flag table whose rows entered as
    t (B,H,Lq,3) . table: the contraction over every query position."""
    return np.einsum("bhjf,bhjd->fhd", t, x)


def cross_entropy_terms(logits, targets, mask, n):
    """Per-position masked negative log-likelihoods of the targets and
    dlogits of their mean, the loss: their sum over the batch divided by
    n, the batch's count of masked positions.

    logits: (B,L,V); targets: (B,L) int; mask: (B,L) float 0/1.
    """
    if n == 0:
        raise ValueError("loss mask selects no positions")
    logp = log_softmax(logits)
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    onehot = np.zeros_like(logits)
    np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
    dlogits = (np.exp(logp) - onehot) * mask[..., None] / n
    return -picked * mask, dlogits


def causal_mask(l):
    """(1,1,L,L) additive mask hiding future positions."""
    m = np.triu(np.ones((l, l)), k=1) * NEG_INF
    return m[None, None]


def padding_mask(real):
    """(B,L) boolean of real tokens -> (B,1,1,L) additive key mask."""
    return np.where(real[:, None, None, :], 0.0, NEG_INF)


def global_norm(arrays):
    return float(np.sqrt(sum(float((a * a).sum()) for a in arrays)))
