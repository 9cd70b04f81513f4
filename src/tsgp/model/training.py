"""Teacher-forced training with AdamW over mined pairs."""

from __future__ import annotations

import numpy as np

from ..errors import NumericError
from ..expr import PrimitiveSet
from . import blocks
from .transformer import Hyperparams, SdTransformer
from .vocab import Vocabulary, PAD, BOS, EOS

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
# one BLAS thread on a 2-vCPU host) by group count, median of three sweeps:
# 4: 105 ms, 6: 87, 8: 87, 12: 78, 16: 87, 24: 107 ms. Over six runs each,
# 6, 8 and 12 groups were within host noise of one another (medians 85, 83
# and 80 ms). More groups crop more padding but pay more per-block Python
# overhead.
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
    no loss, so cropping them away changes no other value. The gradients
    are views into one flat buffer laid out as ``model.flat``.
    """
    enc_ids, sd, dec_ids, targets = batch
    enc_len = (enc_ids != PAD).sum(axis=1)
    tgt_len = (targets != PAD).sum(axis=1)
    order = np.argsort(np.maximum(enc_len, tgt_len), kind="stable")
    total = int(tgt_len.sum())
    grads = model.views(np.zeros_like(model.flat))
    loss_val = 0.0
    for rows in np.array_split(order, min(LENGTH_GROUPS, len(order))):
        enc_w, tgt_w = int(enc_len[rows].max()), int(tgt_len[rows].max())
        acts = {}
        logits = model.forward(enc_ids[rows, :enc_w], sd[rows],
                               dec_ids[rows, :tgt_w - 1], acts=acts)
        loss, dlogits = blocks.cross_entropy(logits, targets[rows, :tgt_w])
        share = int(tgt_len[rows].sum()) / total
        dlogits *= share
        model.backward(acts, dlogits, grads)
        loss_val += loss * share
    return loss_val, grads


class AdamWState:
    """Flat first and second moments of ``params`` (a model's parameter
    map, in ``model.flat`` order), the mask of entries that decay, and
    scratch buffers for the update."""

    def __init__(self, params: dict):
        sizes = [t.size for t in params.values()]
        self.m, self.v = np.zeros(sum(sizes)), np.zeros(sum(sizes))
        # decay applies to weight matrices only (ndim >= 2); biases and
        # layer-norm gains are exempt, as is conventional
        self.decay = np.repeat([t.ndim >= 2 for t in params.values()], sizes)
        # written in place: a fresh array of this size per operation costs
        # more in page faults than in arithmetic
        self.g, self.tmp, self.update = (np.empty(sum(sizes)) for _ in range(3))
        self.t = 0


def adamw_step(model: SdTransformer, grads: dict, state: AdamWState,
               lr: float, weight_decay: float = 0.0):
    """One decoupled-weight-decay Adam update of ``model.flat``, in place.

    One vectorised update over all parameters, with the arithmetic of
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g``,
    ``update = m_hat / (sqrt(v_hat) + eps) [+ weight_decay w]`` and
    ``w -= lr update`` per entry; b1, b2 and eps are the ``ADAM_*`` constants.
    """
    state.t += 1
    t = state.t
    g, tmp, update = state.g, state.tmp, state.update
    np.concatenate([grads[k].reshape(-1) for k in model.params], out=g)
    np.multiply(g, 1 - ADAM_BETA1, out=tmp)
    state.m *= ADAM_BETA1
    state.m += tmp
    np.multiply(g, 1 - ADAM_BETA2, out=tmp)
    tmp *= g
    state.v *= ADAM_BETA2
    state.v += tmp
    np.divide(state.m, 1 - ADAM_BETA1 ** t, out=update)
    np.divide(state.v, 1 - ADAM_BETA2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    update /= tmp
    if weight_decay:
        np.multiply(model.flat, weight_decay, out=tmp)
        np.add(update, tmp, out=update, where=state.decay)
    update *= lr
    model.flat -= update


def train(pairs, hyper: Hyperparams, vocab: Vocabulary = None, seed: int = 0,
          max_steps: int = None):
    """Train a fresh model on the given pairs.

    Each epoch shuffles the pairs; each step pads the next ``batch_size``
    of them into one batch (``make_batch``), computes the batch's loss and
    gradients in length groups (``grad``) and takes one AdamW step.
    Deterministic for a fixed seed (single numpy stream, fixed batch order
    per epoch shuffle). Returns (model, curve) where curve is a list of
    (step, loss) tuples. Raises NumericError on divergence.
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
                raise NumericError(
                    f"loss {loss_val} at step {step} (epoch {epoch})")
            adamw_step(model, grads, state, hyper.lr, hyper.weight_decay)
            curve.append((step, loss_val))
            step += 1
            if max_steps is not None and step >= max_steps:
                return model, curve
        epoch += 1
        if max_steps is None and epoch >= hyper.epochs:
            return model, curve


def token_accuracy(model: SdTransformer, pairs) -> float:
    """Teacher-forced next-token accuracy over non-PAD targets."""
    enc_ids, sd, dec_ids, targets = make_batch(pairs, model.vocab,
                                               model.hyper.max_len)
    pred = model.forward(enc_ids, sd, dec_ids).argmax(axis=-1)
    mask = targets != PAD
    return float((pred[mask] == targets[mask]).mean())
