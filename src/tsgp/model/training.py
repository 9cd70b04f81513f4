"""Teacher-forced training with AdamW over mined pairs."""

from __future__ import annotations

import numpy as np

from ..expr import PrimitiveSet
from . import autodiff as ad, transformer
from .transformer import Hyperparams, SdTransformer
from .vocab import Vocabulary, PAD, BOS, EOS


class NonFiniteLossError(Exception):
    pass


def make_batch(pairs, vocab: Vocabulary, max_len: int):
    """Pack (input tokens, output tokens, sd) records into padded id arrays.

    Returns (enc_ids, sd, dec_ids, targets). Encoder inputs longer than
    max_len are truncated (conditioning context only); outputs must fit.
    """
    enc_rows, dec_rows, tgt_rows, sds = [], [], [], []
    for p in pairs:
        enc = vocab.encode(p.input_tokens)[:max_len]
        out = vocab.encode(p.output_tokens)
        if len(out) > max_len:
            raise ValueError(f"output sequence of {len(out)} tokens > {max_len}")
        enc_rows.append(enc)
        dec_rows.append([BOS] + out)
        # targets for [SD, BOS, t1..tn]: decoder input shifted left, EOS last
        tgt_rows.append([BOS] + out + [EOS])
        sds.append(p.sd)

    def pad(rows, width):
        arr = np.full((len(rows), width), PAD, dtype=np.int64)
        for i, r in enumerate(rows):
            arr[i, :len(r)] = r
        return arr

    enc_ids = pad(enc_rows, max(len(r) for r in enc_rows))
    dec_w = max(len(r) for r in dec_rows)
    return (enc_ids, np.asarray(sds, dtype=np.float64),
            pad(dec_rows, dec_w), pad(tgt_rows, dec_w + 1))


# A step runs its batch as this many length groups (see ``grad``). Mean
# time of the first 80 desk-recipe steps (d_model 64, 2+2 layers, batch 32,
# one BLAS thread on a 2-vCPU host) by group count: 1: 292 ms, 2: 167,
# 4: 127, 6: 113, 8: 120, 12: 131, 16: 144, 32: 206 ms. Over three such
# sweeps 6, 8 and 12 groups were within host noise of one another. More
# groups crop more padding but pay more per-op Python overhead.
LENGTH_GROUPS = 8


def grad(model: SdTransformer, batch) -> tuple:
    """Loss value and exact gradients of the mean loss for every parameter.

    The padded batch from ``make_batch`` runs as up to ``LENGTH_GROUPS``
    groups of rows of similar length (sorted by the longer of encoder input
    and target, equal-count split), each cropped to its own longest row.
    Each group's mean token loss is weighted by its share of the batch's
    non-PAD targets and back-propagated into the same gradients, so loss
    and gradients are those of one pass over the whole batch up to float
    summation order: PAD keys get exactly zero attention and PAD targets
    no loss, so cropping them away changes no other value.
    """
    enc_ids, sd, dec_ids, targets = batch
    enc_len = (enc_ids != PAD).sum(axis=1)
    tgt_len = (targets != PAD).sum(axis=1)
    order = np.argsort(np.maximum(enc_len, tgt_len), kind="stable")
    total = int(tgt_len.sum())
    model.zero_grad()
    loss_val = 0.0
    for rows in np.array_split(order, min(LENGTH_GROUPS, len(order))):
        enc_w, tgt_w = int(enc_len[rows].max()), int(tgt_len[rows].max())
        logits = model.forward(enc_ids[rows, :enc_w], sd[rows],
                               dec_ids[rows, :tgt_w - 1])
        loss_t = ad.scale(transformer.loss(logits, targets[rows, :tgt_w]),
                          int(tgt_len[rows].sum()) / total)
        loss_t.backward()
        loss_val += float(loss_t.data)
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for name, t in model.params.items()}
    return loss_val, grads


class AdamWState:
    def __init__(self, params: dict):
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0


def adamw_step(model: SdTransformer, grads: dict, state: AdamWState,
               lr: float, weight_decay: float = 0.0,
               beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One decoupled-weight-decay Adam update, in place.

    Decay applies to weight matrices only (ndim >= 2); biases and layer-norm
    gains are exempt, as is conventional.
    """
    state.t += 1
    t = state.t
    for k, tensor in model.params.items():
        g = grads[k]
        state.m[k] = beta1 * state.m[k] + (1 - beta1) * g
        state.v[k] = beta2 * state.v[k] + (1 - beta2) * g * g
        mhat = state.m[k] / (1 - beta1 ** t)
        vhat = state.v[k] / (1 - beta2 ** t)
        update = mhat / (np.sqrt(vhat) + eps)
        if weight_decay and tensor.data.ndim >= 2:
            update = update + weight_decay * tensor.data
        tensor.data -= lr * update


def train(pairs, hyper: Hyperparams, vocab: Vocabulary = None, seed: int = 0,
          max_steps: int = None):
    """Train a fresh model on the given pairs.

    Each epoch shuffles the pairs; each step pads the next ``batch_size``
    of them into one batch (``make_batch``), computes the batch's loss and
    gradients in length groups (``grad``) and takes one AdamW step.
    Deterministic for a fixed seed (single numpy stream, fixed batch order
    per epoch shuffle). Returns (model, curve) where curve is a list of
    (step, loss) tuples. Raises NonFiniteLossError on divergence.
    """
    if not pairs:
        raise ValueError("no training pairs")
    vocab = vocab or Vocabulary.from_primitives(PrimitiveSet())
    rng = np.random.default_rng(seed)
    model = SdTransformer(hyper, vocab, rng=rng)
    state = AdamWState(model.params)
    curve = []
    step = 0
    epoch = 0
    while True:
        order = rng.permutation(len(pairs))
        for lo in range(0, len(pairs), hyper.batch_size):
            batch_pairs = [pairs[i] for i in order[lo:lo + hyper.batch_size]]
            batch = make_batch(batch_pairs, vocab, hyper.max_len)
            loss_val, grads = grad(model, batch)
            if not np.isfinite(loss_val):
                raise NonFiniteLossError(
                    f"loss {loss_val} at step {step} (epoch {epoch})")
            adamw_step(model, grads, state, hyper.lr, hyper.weight_decay)
            curve.append((step, loss_val))
            step += 1
            if max_steps is not None and step >= max_steps:
                return model, curve
        epoch += 1
        if max_steps is None and epoch >= hyper.epochs:
            return model, curve


def token_accuracy(model: SdTransformer, pairs, vocab: Vocabulary = None) -> float:
    """Teacher-forced next-token accuracy over non-PAD targets."""
    from .autodiff import no_grad
    vocab = vocab or model.vocab
    batch = make_batch(pairs, vocab, model.hyper.max_len)
    enc_ids, sd, dec_ids, targets = batch
    with no_grad():
        logits = model.forward(enc_ids, sd, dec_ids)
    pred = logits.data.argmax(axis=-1)
    mask = targets != PAD
    return float((pred[mask] == targets[mask]).mean())
