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

A teacher-forced pass keeps its activations as packed rows (``Packing``):
one (N, D) matrix of the live (non-PAD) positions of a batch of sequences,
each sequence's SD slot among them. Every per-token block (the embedding,
layer norm, each projection, the FFN, the head and the loss) runs once over
all rows. Attention runs its core (scores, softmax and context) once per
group of sequences (a ``Span``): the heads are gathered from the packed
projections into a grid cropped to the group's longest sequence, and the
context is scattered back into rows. The cached decode step runs the same
core on its (B, H, T, dh) heads.

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


def _column_sums(g: np.ndarray) -> np.ndarray:
    """Sums over the rows of a 2-D array, as one GEMV. On 400-800 packed
    float32 rows (one BLAS thread, 2-vCPU host) this is 3-5x faster than
    ``g.sum(axis=0)``, which adds row after row, and 2-3x closer to the
    exact sums."""
    return np.ones(len(g), g.dtype) @ g


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    rows = x.reshape(-1, x.shape[-1])
    return (rows @ w).reshape(x.shape[:-1] + w.shape[-1:]) + b


def _linear_backward(p: dict, prefix: str, names: str, x: np.ndarray,
                     dy: np.ndarray, grads: dict) -> np.ndarray:
    """Gradients of ``_linear(x, *_weights(p, prefix, names))``."""
    w, _ = _weights(p, prefix, names)
    rows = x.reshape(-1, x.shape[-1])
    g = dy.reshape(-1, dy.shape[-1])
    dw, db = rows.T @ g, _column_sums(g)
    width = w.shape[1] // max(1, len(names))
    for j, name in enumerate(names or [""]):
        cols = slice(j * width, (j + 1) * width)
        grads[f"{prefix}.w{name}"] += dw[:, cols]
        grads[f"{prefix}.b{name}"] += db[cols]
    return (g @ w.T).reshape(x.shape)


# -- packing -------------------------------------------------------------------

class Packing:
    """The live cells of a (B, T) grid of sequences, packed row-major into
    the rows of one (N, ...) matrix.

    Column 0 (each sequence's SD slot) must be live. ``cols`` is each row's
    position in its sequence, ``starts`` each sequence's SD row and
    ``width`` each sequence's last live column + 1.
    """

    def __init__(self, live: np.ndarray):
        B, T = live.shape
        self.live = live
        # the row of each live cell; a dead cell points at the row before it
        self.index = np.cumsum(live.ravel()).reshape(B, T) - 1
        self.cols = np.flatnonzero(live) % T
        self.starts = self.index[:, 0]
        self.width = T - np.argmax(live[:, ::-1], axis=1)

    def pack(self, grid: np.ndarray) -> np.ndarray:
        """(B, T, ...) -> the live cells' (N, ...) rows."""
        return grid[self.live]

    def unpack(self, rows: np.ndarray) -> np.ndarray:
        """(N, ...) rows -> a (B, T, ...) grid that is zero at dead cells."""
        grid = np.zeros(self.live.shape + rows.shape[1:], rows.dtype)
        grid[self.live] = rows
        return grid


class Span:
    """The sequences ``seqs`` of a ``Packing`` as a (b, W) grid of row
    indices, cropped to the longest of them; ``live`` marks its live cells.
    """

    def __init__(self, packing: Packing, seqs: np.ndarray):
        width = int(packing.width[seqs].max())
        self.idx = packing.index[seqs, :width]
        self.live = packing.live[seqs, :width]
        self.rows = self.idx[self.live]

    def gather(self, packed: np.ndarray) -> np.ndarray:
        """(N, C) packed rows -> a (b, W, C) grid; a dead cell holds some
        row."""
        return packed[self.idx]

    def gather_live(self, packed: np.ndarray) -> np.ndarray:
        """``gather``, with zeros in the dead cells."""
        grid = packed[self.idx]
        grid[~self.live] = 0
        return grid

    def scatter(self, packed: np.ndarray, grid: np.ndarray):
        """Write the live cells of a (b, W, C) grid into their rows of
        ``packed``."""
        packed[self.rows] = grid[self.live]


def length_classes(lengths: np.ndarray) -> list:
    """Sequence indices grouped by power-of-two length class: length n is
    in class ``(n - 1).bit_length()`` (1, 2, 3-4, 5-8, ...). Classes come
    in ascending order, and so do the indices within one."""
    classes = np.frexp(np.asarray(lengths, dtype=np.float64) - 1)[1]
    order = np.argsort(classes, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(classes[order])) + 1)


# -- embedding -----------------------------------------------------------------

def embed(p: dict, key: str, ids: np.ndarray, sd: np.ndarray, sd_at,
          positions: np.ndarray, acts: dict = None) -> np.ndarray:
    """Token embeddings of ``ids`` plus ``positions``, except that the
    entries ``sd_at`` (an index into ``ids``, or None) hold each sequence's
    SD embedding: ``sd`` through the affine ``sd_proj``."""
    x = p["embed.tok"][ids]
    sd_col = np.asarray(sd, dtype=x.dtype).reshape(-1, 1)
    if sd_at is not None:
        x[sd_at] = sd_col * p["sd_proj.w"] + p["sd_proj.b"]
    x += positions
    if acts is not None:
        acts[key] = (ids, sd_at, sd_col)
    return x


def embed_backward(key: str, dx: np.ndarray, acts: dict, grads: dict):
    """Gradients of an ``embed`` of packed rows."""
    ids, sd_at, sd_col = acts[key]
    d_sd = dx[sd_at]
    grads["sd_proj.w"] += _column_sums(d_sd * sd_col)
    grads["sd_proj.b"] += _column_sums(d_sd)
    tokens = np.ones(len(ids), dtype=bool)
    tokens[sd_at] = False
    # one (V, N) @ (N, D) GEMM: at 800 rows np.add.at's per-row loop took
    # 480 µs against 66 µs (one BLAS thread, 2-vCPU host)
    table = grads["embed.tok"]
    onehot = ids[tokens] == np.arange(len(table))[:, None]
    table += onehot.astype(dx.dtype) @ dx[tokens]


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
    grads[f"{prefix}.g"] += _column_sums((dy * xhat).reshape(-1, D))
    grads[f"{prefix}.b"] += _column_sums(dy.reshape(-1, D))
    gx = dy * p[f"{prefix}.g"]
    # the means as in ``layer_norm``: a sum, then a divide by D
    gmean = np.add.reduce(gx, axis=-1, keepdims=True)
    gmean /= D
    dot = np.add.reduce(gx * xhat, axis=-1, keepdims=True)
    dot /= D
    return inv * (gx - gmean - xhat * dot)


# -- attention -----------------------------------------------------------------

def attention_core(q, k, v, bias: np.ndarray) -> tuple:
    """Scaled dot-product attention of (B, H, Tq, dh) query heads over
    (B, H, Tk, dh) key and value heads under an additive ``bias``: the
    probabilities and the context (B, Tq, H * dh)."""
    B, H, Tq, dh = q.shape
    att = q @ k.transpose(0, 1, 3, 2)  # the scores, then softmax in place
    att *= 1.0 / math.sqrt(dh)
    att += bias
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    return att, (att @ v).transpose(0, 2, 1, 3).reshape(B, Tq, H * dh)


def attention_core_backward(q, k, v, att: np.ndarray,
                            dctx: np.ndarray) -> tuple:
    """Gradients of the q, k and v heads of ``attention_core`` from that of
    its context."""
    B, H, Tq, dh = q.shape
    dctx = dctx.reshape(B, Tq, H, dh).transpose(0, 2, 1, 3)
    datt = dctx @ v.transpose(0, 1, 3, 2)
    dv = att.transpose(0, 1, 3, 2) @ dctx
    dscores = datt  # in place: att * (datt - rowsum(datt * att)) / sqrt(dh)
    dscores -= (datt * att).sum(axis=-1, keepdims=True)
    dscores *= att
    dscores *= 1.0 / math.sqrt(dh)
    return dscores @ k, dscores.transpose(0, 1, 3, 2) @ q, dv


def _split_heads(y: np.ndarray, n: int, n_heads: int) -> np.ndarray:
    """(B, T, n * D) -> an (n, B, H, T, dh) view."""
    B, T, _ = y.shape
    return y.reshape(B, T, n, n_heads, -1).transpose(2, 0, 3, 1, 4)


def _merge_heads(*heads: np.ndarray) -> np.ndarray:
    """(B, H, T, dh) head arrays -> (B, T, n * D), the layout of a fused
    projection's output."""
    B, H, T, dh = heads[0].shape
    merged = np.stack([h.transpose(0, 2, 1, 3) for h in heads], axis=2)
    return merged.reshape(B, T, len(heads) * H * dh)


def project_heads(p: dict, prefix: str, names: str, x: np.ndarray,
                  n_heads: int) -> np.ndarray:
    """Project (B, T, D) with the fused ``names`` projections of ``prefix``
    and split into heads: a (len(names), B, H, T, dh) view."""
    return _split_heads(_linear(x, *_weights(p, prefix, names)), len(names),
                        n_heads)


def attend(p: dict, prefix: str, q, k, v, bias: np.ndarray) -> np.ndarray:
    """``attention_core`` of (B, H, T, dh) heads, then the output
    projection ``wo``/``bo``; keeps no activations (the cached decode
    step)."""
    return _linear(attention_core(q, k, v, bias)[1], p[f"{prefix}.wo"],
                   p[f"{prefix}.bo"])


def _attention(p: dict, prefix: str, q_rows: np.ndarray, kv_rows: np.ndarray,
               groups: list, n_heads: int, acts: dict) -> np.ndarray:
    """Attention of packed query rows over packed key/value rows (K and V
    side by side), then the output projection. ``groups`` holds
    (query ``Span``, key ``Span``, bias) triples whose query spans cover
    every query row once; the core runs once per group."""
    ctx = np.empty(q_rows.shape, q_rows.dtype)
    heads = []
    for q_span, k_span, bias in groups:
        (q,) = _split_heads(q_span.gather(q_rows), 1, n_heads)
        k, v = _split_heads(k_span.gather(kv_rows), 2, n_heads)
        att, c = attention_core(q, k, v, bias)
        q_span.scatter(ctx, c)
        heads.append((q, k, v, att))
    if acts is not None:
        acts[prefix] = (groups, heads, ctx)
    return _linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _attention_backward(p: dict, prefix: str, dy: np.ndarray, acts: dict,
                        grads: dict, dq_rows: np.ndarray,
                        dkv_rows: np.ndarray):
    """Gradients of ``_attention``, written into the rows of ``dq_rows`` and
    ``dkv_rows``; their key spans too must cover every key row once."""
    groups, heads, ctx = acts[prefix]
    dctx = _linear_backward(p, prefix, "o", ctx, dy, grads)
    for (q_span, k_span, _), (q, k, v, att) in zip(groups, heads):
        dq, dk, dv = attention_core_backward(q, k, v, att,
                                             q_span.gather_live(dctx))
        q_span.scatter(dq_rows, _merge_heads(dq))
        k_span.scatter(dkv_rows, _merge_heads(dk, dv))


def self_attention(p: dict, prefix: str, x: np.ndarray, groups: list,
                   n_heads: int, acts: dict = None) -> np.ndarray:
    """Multi-head self-attention of packed rows ``x`` with one fused QKV
    projection; ``groups`` as for ``_attention``, one span per group."""
    D = x.shape[1]
    qkv = _linear(x, *_weights(p, prefix, "qkv"))
    if acts is not None:
        acts[prefix + ".in"] = x
    return _attention(p, prefix, qkv[:, :D], qkv[:, D:], groups, n_heads,
                      acts)


def self_attention_backward(p: dict, prefix: str, dy: np.ndarray,
                            acts: dict, grads: dict) -> np.ndarray:
    x = acts[prefix + ".in"]
    D = x.shape[1]
    dqkv = np.empty((len(x), 3 * D), x.dtype)
    _attention_backward(p, prefix, dy, acts, grads, dqkv[:, :D], dqkv[:, D:])
    return _linear_backward(p, prefix, "qkv", x, dqkv, grads)


def cross_attention(p: dict, prefix: str, x: np.ndarray, enc_out: np.ndarray,
                    groups: list, n_heads: int,
                    acts: dict = None) -> np.ndarray:
    """Multi-head attention from packed decoder rows ``x`` to packed encoder
    rows ``enc_out``, whose keys and values come from one fused KV
    projection; ``groups`` as for ``_attention``."""
    q = _linear(x, *_weights(p, prefix, "q"))
    kv = _linear(enc_out, *_weights(p, prefix, "kv"))
    if acts is not None:
        acts[prefix + ".in"] = (x, enc_out)
    return _attention(p, prefix, q, kv, groups, n_heads, acts)


def cross_attention_backward(p: dict, prefix: str, dy: np.ndarray,
                             acts: dict, grads: dict) -> tuple:
    """Returns the gradients of the decoder input and the encoder output."""
    x, enc_out = acts[prefix + ".in"]
    dq = np.empty_like(x)
    dkv = np.empty((len(enc_out), 2 * enc_out.shape[1]), enc_out.dtype)
    _attention_backward(p, prefix, dy, acts, grads, dq, dkv)
    return (_linear_backward(p, prefix, "q", x, dq, grads),
            _linear_backward(p, prefix, "kv", enc_out, dkv, grads))


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
