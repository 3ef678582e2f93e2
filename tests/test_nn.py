"""Byte-exactness of the attention and layer-norm building blocks.

flag_select and flag_mass replace np.einsum(..., optimize=True), and
layer_norm computes x - mean once; all three must reproduce the bytes of
the formulas they replace, so trained parameters and decodes do not move.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from restate.model import nn

SIZES = st.sampled_from([1, 1, 2, 3, 5, 8, 17])


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def einsum_flagged_attention(q, k, v, onehot, ek3, ev3, mask=None):
    """The planned-einsum formulation the helpers replace."""
    scale = np.sqrt(q.shape[-1])
    tf = np.einsum("bhjd,fhd->bhjf", q, ek3)
    tflag = np.einsum("bhjf,bjif->bhji", tf, onehot, optimize=True)
    logits = (q @ k.swapaxes(-1, -2) + tflag) / scale
    if mask is not None:
        logits = logits + mask
    alpha = nn.softmax(logits)
    amass = np.einsum("bhji,bjif->bhjf", alpha, onehot, optimize=True)
    ctx = alpha @ v + np.einsum("bhjf,fhd->bhjd", amass, ev3)
    return ctx, (q, k, v, onehot, ek3, ev3, alpha, amass, scale)


def einsum_flagged_attention_bwd(cache, dctx):
    q, k, v, onehot, ek3, ev3, alpha, amass, scale = cache
    dev3 = np.einsum("bhjf,bhjd->fhd", amass, dctx)
    damass = np.einsum("bhjd,fhd->bhjf", dctx, ev3)
    dalpha = dctx @ v.swapaxes(-1, -2) \
        + np.einsum("bhjf,bjif->bhji", damass, onehot, optimize=True)
    dv = alpha.swapaxes(-1, -2) @ dctx
    dlogits = alpha * (dalpha - (dalpha * alpha).sum(axis=-1, keepdims=True))
    draw = dlogits / scale
    dtf = np.einsum("bhji,bjif->bhjf", draw, onehot, optimize=True)
    dq = draw @ k + np.einsum("bhjf,fhd->bhjd", dtf, ek3)
    dk = draw.swapaxes(-1, -2) @ q
    dek3 = np.einsum("bhjf,bhjd->fhd", dtf, q)
    return dq, dk, dv, dek3, dev3


@settings(max_examples=60, deadline=None)
@given(b=SIZES, h=SIZES, lq=SIZES, lk=SIZES,
       seed=st.integers(0, 2 ** 32 - 1))
def test_flag_contractions_match_planned_einsum(b, h, lq, lk, seed):
    rng = np.random.default_rng(seed)
    onehot = nn.flag_onehot(rng.integers(0, 3, (b, lk, lq)))
    t = rng.standard_normal((b, h, lq, 3))
    a = rng.standard_normal((b, h, lq, lk))
    assert same_bytes(nn.flag_select(t, onehot),
                      np.einsum("bhjf,bjif->bhji", t, onehot, optimize=True))
    # negative entries times the one-hot's zeros give signed zeros
    assert same_bytes(nn.flag_mass(a, onehot),
                      np.einsum("bhji,bjif->bhjf", a, onehot, optimize=True))


@settings(max_examples=60, deadline=None)
@given(b=SIZES, h=SIZES, lq=SIZES, lk=SIZES, dh=st.sampled_from([1, 2, 4]),
       padded=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_flagged_attention_matches_planned_einsum(b, h, lq, lk, dh, padded,
                                                  seed):
    rng = np.random.default_rng(seed)
    q, dctx = (rng.standard_normal((b, h, lq, dh)) for _ in range(2))
    k, v = (rng.standard_normal((b, h, lk, dh)) for _ in range(2))
    ek3, ev3 = (rng.standard_normal((3, h, dh)) for _ in range(2))
    onehot = nn.flag_onehot(rng.integers(0, 3, (b, lk, lq)))
    mask = None
    if padded:
        real = rng.random((b, lk)) < 0.7
        real[:, 0] = True
        mask = nn.padding_mask(real)
    ctx, cache = nn.flagged_attention(q, k, v, onehot, ek3, ev3, mask)
    ref_ctx, ref_cache = einsum_flagged_attention(q, k, v, onehot, ek3, ev3,
                                                  mask)
    assert same_bytes(ctx, ref_ctx)
    assert all(same_bytes(x, y) for x, y in zip(cache, ref_cache))
    dq, dk, dv, dtf = nn.flagged_attention_bwd(cache, dctx)
    amass = cache[7]
    grads = (dq, dk, dv, nn.flag_table_grad(dtf, q),
             nn.flag_table_grad(amass, dctx))
    ref_grads = einsum_flagged_attention_bwd(ref_cache, dctx)
    assert all(same_bytes(x, y) for x, y in zip(grads, ref_grads))


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=2),
       dim=st.integers(1, 70), offset=st.floats(-1e3, 1e3),
       spread=st.floats(1e-6, 1e3), seed=st.integers(0, 2 ** 32 - 1))
# one row, as in a decoder step over one hypothesis
@example(shape=[1], dim=64, offset=3.0, spread=0.5, seed=7)
@example(shape=[1, 1], dim=17, offset=-250.0, spread=1e-3, seed=11)
def test_layer_norm_matches_mean_var_formula(shape, dim, offset, spread,
                                             seed):
    rng = np.random.default_rng(seed)
    x = offset + spread * rng.standard_normal((*shape, dim))
    g, b = rng.standard_normal(dim), rng.standard_normal(dim)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * inv
    y, (got_xhat, got_inv, got_g) = nn.layer_norm(x, g, b)
    assert same_bytes(y, g * xhat + b)
    assert same_bytes(got_xhat, xhat) and same_bytes(got_inv, inv)
    assert got_g is g
