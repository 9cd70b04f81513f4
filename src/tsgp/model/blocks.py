"""Forward/backward pairs of the transformer's blocks on plain arrays.

A forward takes the parameter map ``p`` (name -> array) and returns its
output in the parameters' dtype: float32 for trained and loaded models,
float64 for the oracle models the tests build. Given an ``acts`` dict, it
also stores under its key (the block's parameter prefix) the activations
its backward needs. A backward takes the gradient of the block's output and
that ``acts`` dict, adds each parameter's gradient into ``grads`` and
returns the gradient of the block's input. Arrays the caller builds (the
position table, the attention biases) must already be in that dtype, or
NumPy promotes the rest of the pass to float64.

A projection folds the leading axes of its input into rows, so it and both
of its gradients are single 2-D GEMMs. Self-attention projects Q, K and V
with one (D, 3D) GEMM, cross-attention K and V with one (D, 2D) GEMM. The
fused weights are concatenated at call time, so every parameter stays one
array under its own name.
"""

from __future__ import annotations

import math

import numpy as np

from .vocab import PAD

LN_EPS = 1e-5


def _weights(p: dict, prefix: str, names: str) -> tuple:
    """Weight and bias of the projections ``names`` of ``prefix`` (the
    ``w<name>``/``b<name>`` entries), side by side when there are several."""
    if len(names) <= 1:
        return p[f"{prefix}.w{names}"], p[f"{prefix}.b{names}"]
    return (np.concatenate([p[f"{prefix}.w{n}"] for n in names], axis=1),
            np.concatenate([p[f"{prefix}.b{n}"] for n in names]))


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    rows = x.reshape(-1, x.shape[-1])
    return (rows @ w).reshape(x.shape[:-1] + w.shape[-1:]) + b


def _linear_backward(p: dict, prefix: str, names: str, x: np.ndarray,
                     dy: np.ndarray, grads: dict) -> np.ndarray:
    """Gradients of ``_linear(x, *_weights(p, prefix, names))``."""
    w, _ = _weights(p, prefix, names)
    rows = x.reshape(-1, x.shape[-1])
    g = dy.reshape(-1, dy.shape[-1])
    dw, db = rows.T @ g, g.sum(axis=0)
    width = w.shape[1] // max(1, len(names))
    for j, name in enumerate(names or [""]):
        cols = slice(j * width, (j + 1) * width)
        grads[f"{prefix}.w{name}"] += dw[:, cols]
        grads[f"{prefix}.b{name}"] += db[cols]
    return (g @ w.T).reshape(x.shape)


# -- embedding -----------------------------------------------------------------

def embed(p: dict, key: str, ids: np.ndarray, sd: np.ndarray,
          positions: np.ndarray, start: int = 0,
          acts: dict = None) -> np.ndarray:
    """[SD embedding] ++ token embeddings, plus the position table.

    With ``start`` > 0 the ids continue a sequence whose first ``start``
    positions (the SD slot among them) are already decoded.
    """
    x = p["embed.tok"][ids]  # (B, T, D)
    sd_col = np.asarray(sd, dtype=x.dtype).reshape(len(ids), 1, 1)
    if start == 0:
        sd_emb = (sd_col * p["sd_proj.w"].reshape(1, 1, -1)
                  + p["sd_proj.b"].reshape(1, 1, -1))
        x = np.concatenate([sd_emb, x], axis=1)  # (B, T+1, D)
    if acts is not None:
        acts[key] = (ids, sd_col[:, 0])
    return x + positions[None, start:start + x.shape[1], :]


def embed_backward(key: str, dx: np.ndarray, acts: dict, grads: dict):
    """Gradients of a full (``start`` 0) ``embed``."""
    ids, sd_col = acts[key]
    d_sd = dx[:, 0]
    grads["sd_proj.w"] += (d_sd * sd_col).sum(axis=0)
    grads["sd_proj.b"] += d_sd.sum(axis=0)
    np.add.at(grads["embed.tok"], ids.reshape(-1),
              dx[:, 1:].reshape(-1, dx.shape[-1]))


# -- layer norm ----------------------------------------------------------------

def layer_norm(p: dict, prefix: str, x: np.ndarray,
               acts: dict = None) -> np.ndarray:
    """Normalize the last axis, then scale by ``.g`` and shift by ``.b``.

    The mean and variance are the sums and divides ``x.mean``/``x.var``
    perform, without their Python-level wrappers, so they are bit-identical.
    """
    D = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= D
    xhat = x - mu
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= D
    var += LN_EPS
    inv = 1.0 / np.sqrt(var, out=var)
    xhat *= inv
    if acts is not None:
        acts[prefix] = (xhat, inv)
    return xhat * p[f"{prefix}.g"] + p[f"{prefix}.b"]


def layer_norm_backward(p: dict, prefix: str, dy: np.ndarray, acts: dict,
                        grads: dict) -> np.ndarray:
    xhat, inv = acts[prefix]
    D = dy.shape[-1]
    grads[f"{prefix}.g"] += (dy * xhat).reshape(-1, D).sum(axis=0)
    grads[f"{prefix}.b"] += dy.reshape(-1, D).sum(axis=0)
    gx = dy * p[f"{prefix}.g"]
    # the means as in ``layer_norm``: a sum, then a divide by D
    gmean = np.add.reduce(gx, axis=-1, keepdims=True)
    gmean /= D
    dot = np.add.reduce(gx * xhat, axis=-1, keepdims=True)
    dot /= D
    return inv * (gx - gmean - xhat * dot)


# -- attention -----------------------------------------------------------------

def project_heads(p: dict, prefix: str, names: str, x: np.ndarray,
                  n_heads: int) -> np.ndarray:
    """Project (B, T, D) with the fused ``names`` projections of ``prefix``
    and split into heads: a (len(names), B, H, T, dh) view."""
    y = _linear(x, *_weights(p, prefix, names))
    B, T, _ = y.shape
    return y.reshape(B, T, len(names), n_heads, -1).transpose(2, 0, 3, 1, 4)


def _merge_heads(*heads: np.ndarray) -> np.ndarray:
    """(B, H, T, dh) head arrays -> (B, T, n * D), the layout of a fused
    projection's output."""
    B, H, T, dh = heads[0].shape
    merged = np.stack([h.transpose(0, 2, 1, 3) for h in heads], axis=2)
    return merged.reshape(B, T, len(heads) * H * dh)


def _attend(p: dict, prefix: str, q, k, v, bias: np.ndarray,
            acts: dict) -> np.ndarray:
    """Scaled dot-product attention of (B, H, T, dh) heads under an additive
    ``bias``, then the output projection ``wo``/``bo``."""
    B, H, Tq, dh = q.shape
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(dh)) + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    ctx = (att @ v).transpose(0, 2, 1, 3).reshape(B, Tq, H * dh)
    if acts is not None:
        acts[prefix] = (q, k, v, att, ctx)
    return _linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _attend_backward(p: dict, prefix: str, dy: np.ndarray, acts: dict,
                     grads: dict) -> tuple:
    """Gradients of ``_attend``; returns those of the q, k and v heads."""
    q, k, v, att, ctx = acts[prefix]
    B, H, Tq, dh = q.shape
    dctx = _linear_backward(p, prefix, "o", ctx, dy, grads)
    dctx = dctx.reshape(B, Tq, H, dh).transpose(0, 2, 1, 3)
    datt = dctx @ v.transpose(0, 1, 3, 2)
    dv = att.transpose(0, 1, 3, 2) @ dctx
    dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
    dscores *= 1.0 / math.sqrt(dh)
    return dscores @ k, dscores.transpose(0, 1, 3, 2) @ q, dv


def self_attention(p: dict, prefix: str, x: np.ndarray, bias: np.ndarray,
                   n_heads: int, acts: dict = None, extend=None) -> np.ndarray:
    """Multi-head self-attention of ``x`` with one fused QKV projection.

    ``extend(k, v)``, when given, stores the new positions' key and value
    heads (a decode cache) and returns the heads of all positions so far.
    """
    q, k, v = project_heads(p, prefix, "qkv", x, n_heads)
    if extend is not None:
        k, v = extend(k, v)
    if acts is not None:
        acts[prefix + ".in"] = x
    return _attend(p, prefix, q, k, v, bias, acts)


def self_attention_backward(p: dict, prefix: str, dy: np.ndarray,
                            acts: dict, grads: dict) -> np.ndarray:
    dqkv = _merge_heads(*_attend_backward(p, prefix, dy, acts, grads))
    return _linear_backward(p, prefix, "qkv", acts[prefix + ".in"], dqkv,
                            grads)


def cross_attention(p: dict, prefix: str, x: np.ndarray, enc_out: np.ndarray,
                    bias: np.ndarray, n_heads: int, acts: dict = None,
                    kv: tuple = None) -> np.ndarray:
    """Multi-head attention from ``x`` to the encoder output; keys and values
    come from one fused KV projection of ``enc_out``, or from ``kv`` heads
    projected earlier (a decode cache)."""
    (q,) = project_heads(p, prefix, "q", x, n_heads)
    k, v = kv if kv is not None else project_heads(p, prefix, "kv", enc_out,
                                                   n_heads)
    if acts is not None:
        acts[prefix + ".in"] = (x, enc_out)
    return _attend(p, prefix, q, k, v, bias, acts)


def cross_attention_backward(p: dict, prefix: str, dy: np.ndarray,
                             acts: dict, grads: dict) -> tuple:
    """Returns the gradients of the decoder input and the encoder output."""
    x, enc_out = acts[prefix + ".in"]
    dq, dk, dv = _attend_backward(p, prefix, dy, acts, grads)
    dx = _linear_backward(p, prefix, "q", x, _merge_heads(dq), grads)
    denc = _linear_backward(p, prefix, "kv", enc_out, _merge_heads(dk, dv),
                            grads)
    return dx, denc


# -- feed-forward --------------------------------------------------------------

def ffn(p: dict, prefix: str, x: np.ndarray, acts: dict = None) -> np.ndarray:
    """``relu(x @ w1 + b1) @ w2 + b2``."""
    pre = _linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"])
    mask = pre > 0
    hidden = pre * mask
    if acts is not None:
        acts[prefix] = (x, mask, hidden)
    return _linear(hidden, p[f"{prefix}.w2"], p[f"{prefix}.b2"])


def ffn_backward(p: dict, prefix: str, dy: np.ndarray, acts: dict,
                 grads: dict) -> np.ndarray:
    x, mask, hidden = acts[prefix]
    dhidden = _linear_backward(p, prefix, "2", hidden, dy, grads)
    return _linear_backward(p, prefix, "1", x, dhidden * mask, grads)


# -- output --------------------------------------------------------------------

def head(p: dict, x: np.ndarray, acts: dict = None) -> np.ndarray:
    """The decoder's final layer norm and output projection: logits."""
    h = layer_norm(p, "dec.ln_f", x, acts)
    if acts is not None:
        acts["out"] = h
    return _linear(h, p["out.w"], p["out.b"])


def head_backward(p: dict, dlogits: np.ndarray, acts: dict,
                  grads: dict) -> np.ndarray:
    dh = _linear_backward(p, "out", "", acts["out"], dlogits, grads)
    return layer_norm_backward(p, "dec.ln_f", dh, acts, grads)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple:
    """Mean token cross-entropy over non-PAD targets, and its gradient with
    respect to ``logits`` (..., V)."""
    mask = targets != PAD
    count = int(mask.sum())
    if count == 0:
        raise ValueError("all-PAD target")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    idx = targets[..., None]
    loss = -(np.take_along_axis(logp, idx, axis=-1)[..., 0] * mask).sum() / count
    dlogits = np.exp(logp)
    np.put_along_axis(dlogits, idx,
                      np.take_along_axis(dlogits, idx, axis=-1) - 1.0, axis=-1)
    dlogits *= mask[..., None] * logits.dtype.type(1 / count)
    return float(loss), dlogits
