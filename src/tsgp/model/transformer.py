"""Encoder-decoder transformer conditioned on a semantic-distance scalar.

The conditioning scalar is mapped through an affine projection to a
d_model vector and prepended as position 0 of both the encoder and the
decoder input. Pre-norm layers, sinusoidal (fixed) positions, ReLU FFN
of width 4 d_model. Sequences hold at most ``expr.MAX_TOKENS`` tokens, the
sampler's one token budget. All parameters are views into one flat buffer,
and every activation, bias and cache buffer takes that buffer's dtype.
``training.train`` and ``load_checkpoint`` build float32 models, the
precision checkpoints store, so training and search run in float32; a
model built directly is float64, the tests' oracle. The blocks and their
hand-derived backward passes are in ``blocks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .. import expr
from . import blocks
from .vocab import Vocabulary, PAD

NEG_BIAS = -1e30  # additive mask value; exp() underflows to exactly 0
# Positions a decode cache's self-attention buffers start with; they double
# as sequences grow. Desk offspring average 7-10 tokens and the longest of a
# batch of 100 has 17-33. Sampler time over the 22 batches of four desk
# searches (one BLAS thread on a 2-vCPU host), median of 10 interleaved
# rounds, by starting capacity: 8: 1.83 s, 16: 1.89, 32: 2.07, 64: 2.26,
# 102 (= MAX_TOKENS + 2, no growth): 2.25 s. A second sweep of 14 rounds put
# 4, 8 and 16 within host noise of one another (2.09, 2.06 and 1.99 s).
SELF_KV_CAPACITY = 16


@dataclass
class Hyperparams:
    d_model: int = 128
    n_heads: int = 8
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    lr: float = 1e-3
    weight_decay: float = 0.01
    epochs: int = 8
    batch_size: int = 32

    def __post_init__(self):
        for f in fields(self):  # postponed annotations: f.type is a string
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, int) or value < 1):
                raise ValueError(f"{f.name} must be a positive integer, "
                                 f"not {value!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.d_model % 2:  # the position table pairs sin and cos columns
            raise ValueError(f"d_model must be even, not {self.d_model}")

    def to_json(self) -> dict:
        # the header also carries the token budget and the FFN width, which
        # are fixed: every checkpoint has both keys at these values
        return dict(self.__dict__, max_len=expr.MAX_TOKENS,
                    ffn_dim=4 * self.d_model)

    @classmethod
    def from_json(cls, obj) -> "Hyperparams":
        # checkpoints from before dropout was removed carry an unused key
        hyper = cls(**{k: v for k, v in obj.items()
                       if k not in ("dropout", "max_len", "ffn_dim")})
        fixed = hyper.to_json()
        for key in ("max_len", "ffn_dim"):
            value = obj.get(key, fixed[key])
            if value != fixed[key] or type(value) is not int:
                raise ValueError(f"{key} must be {fixed[key]}, not {value!r}")
        return hyper


def sinusoidal_positions(n_positions: int, d_model: int) -> np.ndarray:
    pos = np.arange(n_positions)[:, None]
    i = np.arange(d_model // 2)[None, :]
    angle = pos / np.power(10000.0, 2 * i / d_model)
    table = np.zeros((n_positions, d_model))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


def _bias(allowed: np.ndarray, dtype) -> np.ndarray:
    """Additive attention mask in ``dtype``: 0 where ``allowed``, else
    ``NEG_BIAS``."""
    zero, neg = np.array([0.0, NEG_BIAS], dtype=dtype)
    return np.where(allowed, zero, neg)


def _sd_grid(ids: np.ndarray) -> tuple:
    """(B, T) ids -> the (B, T+1) grid [SD slot] ++ ids, PAD in the slot,
    and its live cells: the slot and every non-PAD id."""
    grid = np.pad(ids, ((0, 0), (1, 0)), constant_values=PAD)
    live = grid != PAD
    live[:, 0] = True
    return grid, live


def param_spec(hyper: Hyperparams, vocab_size: int) -> dict:
    """name -> (shape, init) of every parameter, in initialization order;
    init is "normal" (N(0, INIT_STD) draws), "zeros" or "ones"."""
    D, F, V = hyper.d_model, 4 * hyper.d_model, vocab_size
    spec = {"embed.tok": ((V, D), "normal"), "sd_proj.w": ((D,), "normal"),
            "sd_proj.b": ((D,), "zeros")}

    def attn(prefix):
        for nm in ("wq", "wk", "wv", "wo"):
            spec[f"{prefix}.{nm}"] = ((D, D), "normal")
        for nm in ("bq", "bk", "bv", "bo"):
            spec[f"{prefix}.{nm}"] = ((D,), "zeros")

    def ffn(prefix):
        spec[f"{prefix}.w1"] = ((D, F), "normal")
        spec[f"{prefix}.b1"] = ((F,), "zeros")
        spec[f"{prefix}.w2"] = ((F, D), "normal")
        spec[f"{prefix}.b2"] = ((D,), "zeros")

    def ln(prefix):
        spec[f"{prefix}.g"] = ((D,), "ones")
        spec[f"{prefix}.b"] = ((D,), "zeros")

    for i in range(hyper.n_encoder_layers):
        ln(f"enc.{i}.ln1")
        attn(f"enc.{i}.attn")
        ln(f"enc.{i}.ln2")
        ffn(f"enc.{i}.ffn")
    ln("enc.ln_f")
    for i in range(hyper.n_decoder_layers):
        ln(f"dec.{i}.ln1")
        attn(f"dec.{i}.self")
        ln(f"dec.{i}.ln2")
        attn(f"dec.{i}.cross")
        ln(f"dec.{i}.ln3")
        ffn(f"dec.{i}.ffn")
    ln("dec.ln_f")
    spec["out.w"] = ((D, V), "normal")
    spec["out.b"] = ((V,), "zeros")
    return spec


class SdTransformer:
    """Forward and backward passes over a flat parameter buffer; training
    lives in ``training``.

    ``params`` maps each name of ``param_spec`` to a view into ``flat``, in
    spec order; update them in place. A new model copies the ``params`` it
    is given (a checkpoint's, or another model's to change precision), or
    else draws them with ``rng``. ``dtype`` is the compute precision: the
    forward and backward passes and the decode cache run in it.
    """

    INIT_STD = 0.02

    def __init__(self, hyper: Hyperparams, vocab: Vocabulary,
                 rng: np.random.Generator = None, params: dict = None,
                 dtype=np.float64):
        self.hyper = hyper
        self.vocab = vocab
        self.dtype = np.dtype(dtype)
        # SD slot + BOS + MAX_TOKENS tokens on the decoder side
        self.positions = sinusoidal_positions(
            expr.MAX_TOKENS + 2, hyper.d_model).astype(self.dtype, copy=False)
        self._shapes = {name: shape for name, (shape, _)
                        in param_spec(hyper, vocab.size).items()}
        self.flat = np.empty(sum(math.prod(s) for s in self._shapes.values()),
                             dtype=self.dtype)
        self.params = self.views(self.flat)
        if params is not None:
            for name, arr in self.params.items():
                arr[...] = params[name]
        else:
            self._init_params(rng)

    def views(self, flat: np.ndarray) -> dict:
        """name -> view of ``flat`` for every parameter, laid out as ``flat``."""
        views, lo = {}, 0
        for name, shape in self._shapes.items():
            hi = lo + math.prod(shape)
            views[name] = flat[lo:hi].reshape(shape)
            lo = hi
        return views

    def _init_params(self, rng):
        for name, (shape, init) in param_spec(self.hyper,
                                              self.vocab.size).items():
            if init == "normal":
                self.params[name][...] = rng.normal(0.0, self.INIT_STD, shape)
            else:
                self.params[name].fill(1.0 if init == "ones" else 0.0)

    @staticmethod
    def _key_bias(valid: np.ndarray, dtype=np.float64) -> np.ndarray:
        return _bias(valid[:, None, None, :], dtype)

    @staticmethod
    def _causal_bias(T: int, dtype=np.float64) -> np.ndarray:
        return _bias(np.tril(np.ones((T, T), dtype=bool)), dtype)

    # -- forward --------------------------------------------------------------
    #
    # Teacher forcing runs on packed rows (``blocks.Packing``): the per-token
    # blocks run once over the live positions of the whole batch, and the
    # attention core once per power-of-two length class of sequences
    # (``blocks.length_classes``). With an ``acts`` dict, every block stores
    # what its backward needs in it, and ``backward`` can then run the pass
    # in reverse.

    def _encoder_grid(self, enc_ids) -> tuple:
        enc_ids = np.atleast_2d(np.asarray(enc_ids, dtype=np.int64))
        if enc_ids.shape[1] > expr.MAX_TOKENS:
            raise ValueError(f"encoder sequence {enc_ids.shape[1]} > "
                             f"{expr.MAX_TOKENS} tokens")
        return _sd_grid(enc_ids)

    @staticmethod
    def _check_decoder(positions: int):
        if positions > expr.MAX_TOKENS + 2:
            raise ValueError(
                f"decoder sequence {positions - 1} > {expr.MAX_TOKENS + 1}")

    def encode(self, enc_ids: np.ndarray, sd: np.ndarray):
        """Run the encoder stack, its rows in power-of-two classes of their
        length; returns (output, key-validity mask), the output zero at PAD
        positions."""
        grid, live = self._encoder_grid(enc_ids)
        enc = blocks.Packing(live)
        spans = [blocks.Span(enc, seqs)
                 for seqs in blocks.length_classes(live.sum(axis=1) - 1)]
        return enc.unpack(self._encode(grid, sd, enc, spans, None)), live

    def _encode(self, grid, sd, enc: blocks.Packing, spans: list,
                acts: dict) -> np.ndarray:
        """The encoder stack over the packed rows of ``grid``."""
        p, H = self.params, self.hyper.n_heads
        groups = [(s, s, self._key_bias(s.live, self.dtype)) for s in spans]
        x = blocks.embed(p, "enc", enc.pack(grid), sd, enc.starts,
                         self.positions[enc.cols], acts)
        for i in range(self.hyper.n_encoder_layers):
            h = blocks.layer_norm(p, f"enc.{i}.ln1", x, acts)
            x = x + blocks.self_attention(p, f"enc.{i}.attn", h, groups, H,
                                          acts)
            h = blocks.layer_norm(p, f"enc.{i}.ln2", x, acts)
            x = x + blocks.ffn(p, f"enc.{i}.ffn", h, acts)
        return blocks.layer_norm(p, "enc.ln_f", x, acts)

    @staticmethod
    def _spans(enc: blocks.Packing, dec: blocks.Packing) -> tuple:
        """Encoder and decoder spans of a pass's length classes; a
        sequence's class comes from the longer of its encoder input and its
        decoder positions (its target)."""
        classes = blocks.length_classes(np.maximum(enc.live.sum(axis=1) - 1,
                                                   dec.live.sum(axis=1)))
        return ([blocks.Span(enc, seqs) for seqs in classes],
                [blocks.Span(dec, seqs) for seqs in classes])

    def start_decoding(self, enc_out: np.ndarray, enc_valid: np.ndarray,
                       rows: np.ndarray) -> "DecodeCache":
        """Empty decode cache for a batch, holding the cross-attention keys
        and values projected once from the encoder output.

        Decode row i attends to encoder row ``rows[i]``, so several
        offspring of one parent share that parent's projection.
        """
        h = self.hyper
        shape = (len(rows), h.n_heads, SELF_KV_CAPACITY,
                 h.d_model // h.n_heads)
        layers = range(h.n_decoder_layers)
        return DecodeCache(
            self_kv=[(np.empty(shape, self.dtype), np.empty(shape, self.dtype))
                     for _ in layers],
            cross_kv=[tuple(np.ascontiguousarray(heads)[rows] for heads in
                            blocks.project_heads(self.params, f"dec.{i}.cross",
                                                 "kv", enc_out, h.n_heads))
                      for i in layers],
            cross_bias=self._key_bias(enc_valid[rows], self.dtype))

    def decode(self, dec_ids: np.ndarray, sd: np.ndarray,
               cache: "DecodeCache") -> np.ndarray:
        """One cached decoder step: ``dec_ids`` (B, T), no PAD, continue
        the sequences decoded so far in ``cache`` (from ``start_decoding``).

        Only the new positions are computed, the SD slot is prepended on the
        first call only, their self-attention keys and values are appended
        to the cache, and the logits (B, T', V) cover the new positions.
        Teacher forcing (``forward``) is the oracle for this path.
        """
        dec_ids = np.atleast_2d(np.asarray(dec_ids, dtype=np.int64))
        start = cache.length
        T = dec_ids.shape[1] + (start == 0)
        self._check_decoder(start + T)
        p, H = self.params, self.hyper.n_heads
        sd_at = None
        if start == 0:
            dec_ids, sd_at = _sd_grid(dec_ids)[0], (slice(None), 0)
        x = blocks.embed(p, "dec", dec_ids, sd, sd_at,
                         self.positions[start:start + T])
        self_bias = self._causal_bias(start + T, self.dtype)[start:]
        for i in range(self.hyper.n_decoder_layers):
            pre = f"dec.{i}"
            h = blocks.layer_norm(p, f"{pre}.ln1", x)
            q, k, v = blocks.project_heads(p, f"{pre}.self", "qkv", h, H)
            x = x + blocks.attend(p, f"{pre}.self", q, *cache.extend(i, k, v),
                                  self_bias)
            h = blocks.layer_norm(p, f"{pre}.ln2", x)
            (q,) = blocks.project_heads(p, f"{pre}.cross", "q", h, H)
            x = x + blocks.attend(p, f"{pre}.cross", q, *cache.cross(i),
                                  cache.cross_bias)
            h = blocks.layer_norm(p, f"{pre}.ln3", x)
            x = x + blocks.ffn(p, f"{pre}.ffn", h)
        cache.length += T
        return blocks.head(p, x)

    def _decode(self, grid, sd, enc_rows: np.ndarray, dec: blocks.Packing,
                enc_spans: list, dec_spans: list, acts: dict) -> np.ndarray:
        """The decoder stack over the packed rows of ``grid``, attending to
        the packed encoder rows ``enc_rows``; returns the rows' logits."""
        p, H, dtype = self.params, self.hyper.n_heads, self.dtype
        self_groups = [(s, s, self._key_bias(s.live, dtype)
                        + self._causal_bias(s.live.shape[1], dtype))
                       for s in dec_spans]
        cross_groups = [(d, e, self._key_bias(e.live, dtype))
                        for d, e in zip(dec_spans, enc_spans)]
        x = blocks.embed(p, "dec", dec.pack(grid), sd, dec.starts,
                         self.positions[dec.cols], acts)
        for i in range(self.hyper.n_decoder_layers):
            pre = f"dec.{i}"
            h = blocks.layer_norm(p, f"{pre}.ln1", x, acts)
            x = x + blocks.self_attention(p, f"{pre}.self", h, self_groups, H,
                                          acts)
            h = blocks.layer_norm(p, f"{pre}.ln2", x, acts)
            x = x + blocks.cross_attention(p, f"{pre}.cross", h, enc_rows,
                                           cross_groups, H, acts)
            h = blocks.layer_norm(p, f"{pre}.ln3", x, acts)
            x = x + blocks.ffn(p, f"{pre}.ffn", h, acts)
        return blocks.head(p, x, acts)

    def teacher_forced(self, enc_ids: np.ndarray, sd, dec_ids: np.ndarray,
                       acts: dict) -> tuple:
        """The full teacher-forced pass on packed rows: (logits of the live
        decoder positions, the decoder's ``Packing``)."""
        sd = np.broadcast_to(np.asarray(sd, dtype=self.dtype),
                             (np.atleast_2d(enc_ids).shape[0],))
        enc_grid, enc_live = self._encoder_grid(enc_ids)
        dec_ids = np.atleast_2d(np.asarray(dec_ids, dtype=np.int64))
        self._check_decoder(dec_ids.shape[1] + 1)
        dec_grid, dec_live = _sd_grid(dec_ids)
        enc, dec = blocks.Packing(enc_live), blocks.Packing(dec_live)
        enc_spans, dec_spans = self._spans(enc, dec)
        enc_rows = self._encode(enc_grid, sd, enc, enc_spans, acts)
        return self._decode(dec_grid, sd, enc_rows, dec, enc_spans, dec_spans,
                            acts), dec

    def forward(self, enc_ids: np.ndarray, sd, dec_ids: np.ndarray,
                acts: dict = None) -> np.ndarray:
        """Full pass; logits row t depends only on decoder positions <= t.
        The logits are ``teacher_forced``'s, zero at PAD positions."""
        logits, dec = self.teacher_forced(enc_ids, sd, dec_ids, acts)
        return dec.unpack(logits)

    # -- backward -------------------------------------------------------------

    def backward(self, acts: dict, dlogits: np.ndarray, grads: dict):
        """Back-propagate ``dlogits``, the gradient of the logit rows of the
        ``teacher_forced`` pass that filled ``acts``, adding every
        parameter's gradient into ``grads`` (laid out as ``params``)."""
        p, h = self.params, self.hyper
        dx = blocks.head_backward(p, dlogits, acts, grads)
        denc = 0.0
        for i in reversed(range(h.n_decoder_layers)):
            pre = f"dec.{i}"
            dh = blocks.ffn_backward(p, f"{pre}.ffn", dx, acts, grads)
            dx = dx + blocks.layer_norm_backward(p, f"{pre}.ln3", dh, acts,
                                                 grads)
            dh, de = blocks.cross_attention_backward(p, f"{pre}.cross", dx,
                                                     acts, grads)
            denc = denc + de
            dx = dx + blocks.layer_norm_backward(p, f"{pre}.ln2", dh, acts,
                                                 grads)
            dh = blocks.self_attention_backward(p, f"{pre}.self", dx, acts,
                                                grads)
            dx = dx + blocks.layer_norm_backward(p, f"{pre}.ln1", dh, acts,
                                                 grads)
        blocks.embed_backward("dec", dx, acts, grads)
        dx = blocks.layer_norm_backward(p, "enc.ln_f", denc, acts, grads)
        for i in reversed(range(h.n_encoder_layers)):
            pre = f"enc.{i}"
            dh = blocks.ffn_backward(p, f"{pre}.ffn", dx, acts, grads)
            dx = dx + blocks.layer_norm_backward(p, f"{pre}.ln2", dh, acts,
                                                 grads)
            dh = blocks.self_attention_backward(p, f"{pre}.attn", dx, acts,
                                                grads)
            dx = dx + blocks.layer_norm_backward(p, f"{pre}.ln1", dh, acts,
                                                 grads)
        blocks.embed_backward("enc", dx, acts, grads)


class DecodeCache:
    """Decoder state of a batch that is decoded one step at a time.

    The first ``rows`` rows of every buffer are live. ``self_kv`` holds each
    layer's self-attention (key, value) heads (B, H, capacity, dh), filled up
    to ``length``; they start at ``SELF_KV_CAPACITY`` positions and double
    when a step passes that, so the buffers follow the longest sequence
    decoded so far. ``cross_kv`` holds each layer's cross-attention heads,
    projected once per batch.
    """

    def __init__(self, self_kv: list, cross_kv: list, cross_bias: np.ndarray):
        self.self_kv, self.cross_kv = self_kv, cross_kv
        self._cross_bias = cross_bias
        self.rows = cross_bias.shape[0]
        self.length = 0

    @property
    def cross_bias(self) -> np.ndarray:
        return self._cross_bias[:self.rows]

    def cross(self, layer: int) -> tuple:
        return tuple(buf[:self.rows] for buf in self.cross_kv[layer])

    def extend(self, layer: int, k: np.ndarray, v: np.ndarray) -> tuple:
        """Write the new positions' heads; return the heads so far."""
        end = self.length + k.shape[2]
        if end > self.self_kv[layer][0].shape[2]:
            self.self_kv[layer] = tuple(self._grown(buf, end)
                                        for buf in self.self_kv[layer])
        heads = []
        for buf, new in zip(self.self_kv[layer], (k, v)):
            buf[:self.rows, :, self.length:end] = new
            heads.append(buf[:self.rows, :, :end])
        return tuple(heads)

    def _grown(self, buf: np.ndarray, end: int) -> np.ndarray:
        """A copy of ``buf``'s live rows and positions with the capacity
        doubled until ``end`` positions fit."""
        capacity = buf.shape[2]
        while capacity < end:
            capacity *= 2
        grown = np.empty((self.rows, buf.shape[1], capacity, buf.shape[3]),
                         buf.dtype)
        grown[:, :, :self.length] = buf[:self.rows, :, :self.length]
        return grown

    def retain(self, keep: np.ndarray) -> np.ndarray:
        """Drop the live rows where ``keep`` is false.

        Kept rows from the end move into the gaps, so a call copies only as
        many rows as it drops. Returns each remaining row's index before the
        call.
        """
        n = int(keep.sum())
        order = np.arange(n)
        gaps = np.flatnonzero(~keep[:n])
        movers = n + np.flatnonzero(keep[n:])
        order[gaps] = movers
        for kv in self.self_kv:
            for buf in kv:
                buf[gaps, :, :self.length] = buf[movers, :, :self.length]
        for kv in self.cross_kv:
            for buf in kv:
                buf[gaps] = buf[movers]
        self._cross_bias[gaps] = self._cross_bias[movers]
        self.rows = n
        return order


def loss(logits: np.ndarray, target_ids: np.ndarray) -> float:
    """Mean cross-entropy over non-PAD target positions."""
    targets = np.atleast_2d(np.asarray(target_ids, dtype=np.int64))
    return blocks.cross_entropy(logits, targets)[0]
