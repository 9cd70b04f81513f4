"""Encoder-decoder transformer conditioned on a semantic-distance scalar.

The conditioning scalar is mapped through an affine projection to a
d_model vector and prepended as position 0 of both the encoder and the
decoder input. Pre-norm layers, sinusoidal (fixed) positions, ReLU FFN.
All parameters live in a flat name -> Tensor map in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .vocab import Vocabulary, PAD

NEG_BIAS = -1e30  # additive mask value; exp() underflows to exactly 0


class SequenceTooLongError(Exception):
    pass


@dataclass
class Hyperparams:
    d_model: int = 128
    n_heads: int = 8
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    ffn_dim: int = None  # defaults to 4 * d_model
    max_len: int = 100
    lr: float = 1e-3
    weight_decay: float = 0.01
    epochs: int = 8
    batch_size: int = 32

    def __post_init__(self):
        if self.ffn_dim is None:
            self.ffn_dim = 4 * self.d_model
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")

    def to_json(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, obj) -> "Hyperparams":
        # checkpoints from before dropout was removed carry an unused key
        return cls(**{k: v for k, v in obj.items() if k != "dropout"})


def sinusoidal_positions(n_positions: int, d_model: int) -> np.ndarray:
    pos = np.arange(n_positions)[:, None]
    i = np.arange(d_model // 2)[None, :]
    angle = pos / np.power(10000.0, 2 * i / d_model)
    table = np.zeros((n_positions, d_model))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


def param_spec(hyper: Hyperparams, vocab_size: int) -> dict:
    """name -> (shape, init) of every parameter, in initialization order;
    init is "normal" (N(0, INIT_STD) draws), "zeros" or "ones"."""
    D, F, V = hyper.d_model, hyper.ffn_dim, vocab_size
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
    """Forward pass and parameter container; training lives in ``training``."""

    INIT_STD = 0.02

    def __init__(self, hyper: Hyperparams, vocab: Vocabulary,
                 rng: np.random.Generator = None, params: dict = None):
        self.hyper = hyper
        self.vocab = vocab
        # SD slot + BOS + max_len tokens on the decoder side
        self.positions = sinusoidal_positions(hyper.max_len + 2, hyper.d_model)
        if params is not None:
            self.params = {k: v if isinstance(v, Tensor) else Tensor(v, True)
                           for k, v in params.items()}
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            self.params = self._init_params(rng)

    # -- parameters -----------------------------------------------------------

    def _init_params(self, rng) -> dict:
        p = {}
        for name, (shape, init) in param_spec(self.hyper,
                                              self.vocab.size).items():
            if init == "normal":
                data = rng.normal(0.0, self.INIT_STD, shape)
            else:
                data = np.full(shape, 1.0 if init == "ones" else 0.0)
            p[name] = Tensor(data, True)
        return p

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    # -- building blocks ------------------------------------------------------

    def _heads(self, prefix, name, x: Tensor) -> Tensor:
        """Project (B, T, D) with ``w{name}``/``b{name}``; split into heads."""
        p = self.params
        h = self.hyper
        B, T = x.shape[0], x.shape[1]
        y = ad.add(ad.matmul(x, p[f"{prefix}.w{name}"]), p[f"{prefix}.b{name}"])
        y = ad.reshape(y, (B, T, h.n_heads, h.d_model // h.n_heads))
        return ad.transpose(y, (0, 2, 1, 3))  # (B, H, T, dh)

    def _mha(self, prefix, q_in: Tensor, kv_in: Tensor, bias: np.ndarray,
             record: dict = None, record_key: str = None,
             kv: tuple = None) -> Tensor:
        """Multi-head attention; ``kv`` supplies key/value heads projected
        earlier (a decode cache) instead of projecting ``kv_in``."""
        p = self.params
        h = self.hyper
        B, Tq = q_in.shape[0], q_in.shape[1]
        q = self._heads(prefix, "q", q_in)
        k, v = kv if kv is not None else (self._heads(prefix, "k", kv_in),
                                          self._heads(prefix, "v", kv_in))
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                          1.0 / math.sqrt(h.d_model // h.n_heads))
        att = ad.softmax(ad.add_const(scores, bias), axis=-1)
        if record is not None:
            record[record_key] = att.data
        out = ad.transpose(ad.matmul(att, v), (0, 2, 1, 3))
        out = ad.reshape(out, (B, Tq, h.d_model))
        return ad.add(ad.matmul(out, p[f"{prefix}.wo"]), p[f"{prefix}.bo"])

    def _ln(self, prefix, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    def _ffn(self, prefix, x: Tensor) -> Tensor:
        p = self.params
        hidden = ad.relu(ad.add(ad.matmul(x, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
        return ad.add(ad.matmul(hidden, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])

    def _embed_with_sd(self, ids: np.ndarray, sd: np.ndarray,
                       start: int = 0) -> Tensor:
        """[SD embedding] ++ token embeddings, plus position table.

        With ``start`` > 0 the ids continue a sequence whose first ``start``
        positions (the SD slot among them) are already decoded.
        """
        p = self.params
        B = ids.shape[0]
        x = ad.embedding(p["embed.tok"], ids)  # (B, T, D)
        if start == 0:
            sd_col = Tensor(np.asarray(sd, dtype=np.float64).reshape(B, 1, 1))
            sd_emb = ad.add(
                ad.mul(sd_col, ad.reshape(p["sd_proj.w"], (1, 1, -1))),
                ad.reshape(p["sd_proj.b"], (1, 1, -1)))
            x = ad.concat([sd_emb, x], axis=1)  # (B, T+1, D)
        return ad.add_const(
            x, self.positions[None, start:start + x.shape[1], :])

    @staticmethod
    def _key_bias(valid: np.ndarray) -> np.ndarray:
        return np.where(valid[:, None, None, :], 0.0, NEG_BIAS)

    @staticmethod
    def _causal_bias(T: int) -> np.ndarray:
        return np.where(np.tril(np.ones((T, T), dtype=bool)), 0.0, NEG_BIAS)

    # -- forward --------------------------------------------------------------

    def encode(self, enc_ids: np.ndarray, sd: np.ndarray,
               record: dict = None):
        """Run the encoder stack; returns (output Tensor, key-validity mask)."""
        enc_ids = np.atleast_2d(np.asarray(enc_ids, dtype=np.int64))
        if enc_ids.shape[1] > self.hyper.max_len:
            raise SequenceTooLongError(
                f"encoder sequence {enc_ids.shape[1]} > max_len {self.hyper.max_len}")
        valid = np.concatenate(
            [np.ones((enc_ids.shape[0], 1), dtype=bool), enc_ids != PAD], axis=1)
        bias = self._key_bias(valid)
        x = self._embed_with_sd(enc_ids, sd)
        for i in range(self.hyper.n_encoder_layers):
            h = self._ln(f"enc.{i}.ln1", x)
            x = ad.add(x, self._mha(f"enc.{i}.attn", h, h, bias,
                                    record, f"enc.{i}.attn"))
            x = ad.add(x, self._ffn(f"enc.{i}.ffn", self._ln(f"enc.{i}.ln2", x)))
        return self._ln("enc.ln_f", x), valid

    def start_decoding(self, enc_out: Tensor,
                       enc_valid: np.ndarray) -> "DecodeCache":
        """Empty decode cache for a batch, holding the cross-attention keys
        and values projected once from the encoder output."""
        h = self.hyper
        shape = (enc_out.shape[0], h.n_heads, h.max_len + 2,
                 h.d_model // h.n_heads)
        layers = range(h.n_decoder_layers)
        return DecodeCache(
            self_kv=[(np.empty(shape), np.empty(shape)) for _ in layers],
            cross_kv=[tuple(np.ascontiguousarray(
                self._heads(f"dec.{i}.cross", name, enc_out).data)
                for name in "kv") for i in layers],
            cross_bias=self._key_bias(enc_valid))

    def decode(self, dec_ids: np.ndarray, sd: np.ndarray, enc_out: Tensor,
               enc_valid: np.ndarray, record: dict = None,
               cache: "DecodeCache" = None) -> Tensor:
        """Decoder stack over [SD] ++ dec_ids; returns logits (B, T+1, V).

        With a ``cache`` from ``start_decoding``, ``dec_ids`` (no PAD)
        continue the sequence decoded so far: only the new positions are
        computed, the SD slot is prepended on the first call only, their
        self-attention keys and values are appended to the cache, and the
        logits cover the new positions. ``enc_out``/``enc_valid`` are then
        unused. Teacher forcing (no cache) is the oracle for this path.
        """
        dec_ids = np.atleast_2d(np.asarray(dec_ids, dtype=np.int64))
        start = 0 if cache is None else cache.length
        T = dec_ids.shape[1] + (start == 0)  # new positions
        if start + T > self.hyper.max_len + 2:
            raise SequenceTooLongError(
                f"decoder sequence {start + T - 1} > {self.hyper.max_len + 1}")
        if cache is None:
            valid = np.concatenate(
                [np.ones((dec_ids.shape[0], 1), dtype=bool), dec_ids != PAD],
                axis=1)
            self_bias = (self._key_bias(valid)
                         + self._causal_bias(T)[None, None, :, :])
            cross_bias = self._key_bias(enc_valid)
        else:
            self_bias = self._causal_bias(start + T)[start:]
            cross_bias = cache.cross_bias
        x = self._embed_with_sd(dec_ids, sd, start)
        for i in range(self.hyper.n_decoder_layers):
            pre = f"dec.{i}"
            h = self._ln(f"{pre}.ln1", x)
            kv = None if cache is None else cache.extend(
                i, self._heads(f"{pre}.self", "k", h),
                self._heads(f"{pre}.self", "v", h))
            x = ad.add(x, self._mha(f"{pre}.self", h, h, self_bias,
                                    record, f"{pre}.self", kv))
            h = self._ln(f"{pre}.ln2", x)
            kv = None if cache is None else cache.cross(i)
            x = ad.add(x, self._mha(f"{pre}.cross", h, enc_out, cross_bias,
                                    record, f"{pre}.cross", kv))
            x = ad.add(x, self._ffn(f"{pre}.ffn", self._ln(f"{pre}.ln3", x)))
        if cache is not None:
            cache.length += T
        x = self._ln("dec.ln_f", x)
        return ad.add(ad.matmul(x, self.params["out.w"]), self.params["out.b"])

    def forward(self, enc_ids: np.ndarray, sd, dec_ids: np.ndarray,
                record: dict = None) -> Tensor:
        """Full pass; logits row t depends only on decoder positions <= t."""
        sd = np.broadcast_to(np.asarray(sd, dtype=np.float64),
                             (np.atleast_2d(enc_ids).shape[0],))
        enc_out, enc_valid = self.encode(enc_ids, sd, record)
        return self.decode(dec_ids, sd, enc_out, enc_valid, record)


class DecodeCache:
    """Decoder state of a batch that is decoded one step at a time.

    The first ``rows`` rows of every buffer are live. ``self_kv`` holds each
    layer's self-attention (key, value) heads (B, H, T, dh) in buffers sized
    for the longest sequence, filled up to ``length``; ``cross_kv`` holds
    each layer's cross-attention heads, projected once per batch.
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
        return tuple(Tensor(buf[:self.rows]) for buf in self.cross_kv[layer])

    def extend(self, layer: int, k: Tensor, v: Tensor) -> tuple:
        """Write the new positions' heads; return the heads so far."""
        end = self.length + k.shape[2]
        heads = []
        for buf, new in zip(self.self_kv[layer], (k, v)):
            buf[:self.rows, :, self.length:end] = new.data
            heads.append(Tensor(buf[:self.rows, :, :end]))
        return tuple(heads)

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


def loss(logits: Tensor, target_ids: np.ndarray) -> Tensor:
    """Mean cross-entropy over non-PAD target positions."""
    targets = np.atleast_2d(np.asarray(target_ids, dtype=np.int64))
    mask = targets != PAD
    if not mask.any():
        raise ValueError("all-PAD target")
    return ad.cross_entropy(logits, targets, mask)
