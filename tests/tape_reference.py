"""The transformer built from ``autodiff`` tape ops: the reference forward
and gradient oracle for the hand-derived block backward in
``tsgp.model.blocks``.

``TapeModel`` wraps a model's parameters (sharing their memory) in
gradient-tracking ``Tensor``s and runs the teacher-forced encoder-decoder
op by op, exactly as the transformer did before it ran on plain arrays.
"""

from __future__ import annotations

import math

import numpy as np

from tsgp.model import autodiff as ad
from tsgp.model.autodiff import Tensor
from tsgp.model.transformer import SdTransformer
from tsgp.model.vocab import PAD


def backprop(out: Tensor, g: np.ndarray):
    """Back-propagate the upstream gradient ``g`` of ``out``: the gradient
    of the scalar ``sum(out * g)``."""
    flat = ad.reshape(out, (1, -1))
    ad.reshape(ad.matmul(flat, Tensor(g.reshape(-1, 1))), ()).backward()


class TapeModel:
    """The tape-built forward pass over ``model``'s parameters."""

    def __init__(self, model: SdTransformer):
        self.hyper = model.hyper
        self.positions = model.positions
        self.params = {k: Tensor(v, True) for k, v in model.params.items()}

    def grads(self) -> dict:
        return {k: t.grad if t.grad is not None else np.zeros_like(t.data)
                for k, t in self.params.items()}

    def _heads(self, prefix, name, x: Tensor) -> Tensor:
        p, h = self.params, self.hyper
        B, T = x.shape[0], x.shape[1]
        y = ad.add(ad.matmul(x, p[f"{prefix}.w{name}"]), p[f"{prefix}.b{name}"])
        y = ad.reshape(y, (B, T, h.n_heads, h.d_model // h.n_heads))
        return ad.transpose(y, (0, 2, 1, 3))  # (B, H, T, dh)

    def mha(self, prefix, q_in: Tensor, kv_in: Tensor,
            bias: np.ndarray) -> Tensor:
        p, h = self.params, self.hyper
        B, Tq = q_in.shape[0], q_in.shape[1]
        q = self._heads(prefix, "q", q_in)
        k, v = self._heads(prefix, "k", kv_in), self._heads(prefix, "v", kv_in)
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                          1.0 / math.sqrt(h.d_model // h.n_heads))
        att = ad.softmax(ad.add_const(scores, bias))
        out = ad.transpose(ad.matmul(att, v), (0, 2, 1, 3))
        out = ad.reshape(out, (B, Tq, h.d_model))
        return ad.add(ad.matmul(out, p[f"{prefix}.wo"]), p[f"{prefix}.bo"])

    def ln(self, prefix, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.params[f"{prefix}.g"],
                             self.params[f"{prefix}.b"])

    def ffn(self, prefix, x: Tensor) -> Tensor:
        p = self.params
        hidden = ad.relu(ad.add(ad.matmul(x, p[f"{prefix}.w1"]),
                                p[f"{prefix}.b1"]))
        return ad.add(ad.matmul(hidden, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])

    def embed(self, ids: np.ndarray, sd: np.ndarray) -> Tensor:
        p = self.params
        B = ids.shape[0]
        x = ad.embedding(p["embed.tok"], ids)
        sd_col = Tensor(np.asarray(sd, dtype=np.float64).reshape(B, 1, 1))
        sd_emb = ad.add(ad.mul(sd_col, ad.reshape(p["sd_proj.w"], (1, 1, -1))),
                        ad.reshape(p["sd_proj.b"], (1, 1, -1)))
        x = ad.concat([sd_emb, x], axis=1)
        return ad.add_const(x, self.positions[None, :x.shape[1], :])

    def head(self, x: Tensor) -> Tensor:
        x = self.ln("dec.ln_f", x)
        return ad.add(ad.matmul(x, self.params["out.w"]), self.params["out.b"])

    def forward(self, enc_ids, sd, dec_ids) -> Tensor:
        enc_ids, dec_ids = np.atleast_2d(enc_ids), np.atleast_2d(dec_ids)
        sd = np.broadcast_to(np.asarray(sd, dtype=np.float64),
                             (enc_ids.shape[0],))
        enc_valid = np.concatenate(
            [np.ones((len(enc_ids), 1), dtype=bool), enc_ids != PAD], axis=1)
        bias = SdTransformer._key_bias(enc_valid)
        x = self.embed(enc_ids, sd)
        for i in range(self.hyper.n_encoder_layers):
            h = self.ln(f"enc.{i}.ln1", x)
            x = ad.add(x, self.mha(f"enc.{i}.attn", h, h, bias))
            x = ad.add(x, self.ffn(f"enc.{i}.ffn", self.ln(f"enc.{i}.ln2", x)))
        enc_out = self.ln("enc.ln_f", x)

        T = dec_ids.shape[1] + 1
        valid = np.concatenate(
            [np.ones((len(dec_ids), 1), dtype=bool), dec_ids != PAD], axis=1)
        self_bias = (SdTransformer._key_bias(valid)
                     + SdTransformer._causal_bias(T)[None, None, :, :])
        x = self.embed(dec_ids, sd)
        for i in range(self.hyper.n_decoder_layers):
            pre = f"dec.{i}"
            h = self.ln(f"{pre}.ln1", x)
            x = ad.add(x, self.mha(f"{pre}.self", h, h, self_bias))
            h = self.ln(f"{pre}.ln2", x)
            x = ad.add(x, self.mha(f"{pre}.cross", h, enc_out, bias))
            x = ad.add(x, self.ffn(f"{pre}.ffn", self.ln(f"{pre}.ln3", x)))
        return self.head(x)


def loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    targets = np.atleast_2d(np.asarray(targets, dtype=np.int64))
    return ad.cross_entropy(logits, targets, targets != PAD)


def loss_and_grads(model: SdTransformer, batch) -> tuple:
    """Loss and gradients of one tape pass over the whole padded batch."""
    tape = TapeModel(model)
    out = loss(tape.forward(*batch[:3]), batch[3])
    out.backward()
    return float(out.data), tape.grads()
