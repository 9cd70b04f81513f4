"""Teacher-forced training with AdamW over mined pairs, in float32.

A step pads its pairs into one batch (``make_batch``) and runs it as one
teacher-forced pass on packed rows and its hand-derived backward (``grad``):
per-token work once over the batch's non-PAD positions, attention once per
power-of-two length class.
"""

from __future__ import annotations

import numpy as np

from .. import expr
from ..errors import NumericError
from . import blocks
from .transformer import Hyperparams, SdTransformer
from .vocab import Vocabulary, PAD, BOS, EOS

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Compute precision of ``train``'s models: the precision checkpoints store.
# Desk-recipe training (one BLAS thread on a 2-vCPU host) ran 35-79 % more
# target tokens per second than in float64 over ten 25 s runs each, and a
# seeded 30-step loss curve stays within 5e-8 relative of float64's.
DTYPE = np.float32


def make_batch(pairs, vocab: Vocabulary):
    """Pack (input tokens, output tokens, sd) records into padded id arrays.

    Returns (enc_ids, sd, dec_ids, targets). Encoder inputs longer than
    ``expr.MAX_TOKENS`` are truncated (conditioning context only); outputs
    must fit.
    """
    enc_rows, dec_rows, tgt_rows, sds = [], [], [], []
    for p in pairs:
        enc = vocab.encode(p.input_tokens)[:expr.MAX_TOKENS]
        out = vocab.encode(p.output_tokens)
        if len(out) > expr.MAX_TOKENS:
            raise ValueError(f"output sequence of {len(out)} tokens > "
                             f"{expr.MAX_TOKENS}")
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


def grad(model: SdTransformer, batch) -> tuple:
    """Loss value and exact gradients of the mean token loss for every
    parameter.

    The padded batch from ``make_batch`` runs as one teacher-forced pass on
    packed rows (``SdTransformer.teacher_forced``): every per-token block
    and the loss run once over the batch's non-PAD positions, and only the
    attention core runs once per power-of-two length class of rows. PAD
    keys get exactly zero attention and PAD targets no loss, so loss and
    gradients are those of one pass over the whole padded batch up to float
    summation order. The rows run sorted (stable) by the longer of their
    input and target, so the rows of each length class are adjacent. The
    gradients are views into one flat buffer laid out as ``model.flat``.
    """
    key = np.maximum((batch[0] != PAD).sum(axis=1),
                     (batch[3] != PAD).sum(axis=1))
    order = np.argsort(key, kind="stable")
    enc_ids, sd, dec_ids, targets = (a[order] for a in batch)
    acts = {}
    logits, dec = model.teacher_forced(enc_ids, sd, dec_ids, acts)
    loss, dlogits = blocks.cross_entropy(logits, dec.pack(targets))
    grads = model.views(np.zeros_like(model.flat))
    model.backward(acts, dlogits, grads)
    return loss, grads


class AdamWState:
    """Flat first and second moments of ``params`` (a model's parameter
    map, in ``model.flat`` order), the mask of entries that decay, and
    scratch buffers for the update, all in the parameters' dtype."""

    def __init__(self, params: dict):
        sizes = [t.size for t in params.values()]
        n, dtype = sum(sizes), next(iter(params.values())).dtype
        self.m, self.v = np.zeros(n, dtype), np.zeros(n, dtype)
        # decay applies to weight matrices only (ndim >= 2); biases and
        # layer-norm gains are exempt, as is conventional
        self.decay = np.repeat([t.ndim >= 2 for t in params.values()], sizes)
        # written in place: a fresh array of this size per operation costs
        # more in page faults than in arithmetic
        self.g, self.tmp, self.update = (np.empty(n, dtype) for _ in range(3))
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


def train(pairs, hyper: Hyperparams, vocab: Vocabulary, seed: int = 0,
          max_steps: int = None):
    """Train a fresh ``DTYPE`` model on the given pairs.

    Each epoch shuffles the pairs; each step pads the next ``batch_size``
    of them into one batch (``make_batch``), computes the batch's loss and
    gradients in one packed pass (``grad``) and takes one AdamW step.
    Deterministic for a fixed seed (single numpy stream, fixed batch order
    per epoch shuffle). Returns (model, curve) where curve is a list of
    (step, loss) tuples. Raises NumericError on divergence.
    """
    if not pairs:
        raise ValueError("no training pairs")
    rng = np.random.default_rng(seed)
    model = SdTransformer(hyper, vocab, rng=rng, dtype=DTYPE)
    state = AdamWState(model.params)
    curve = []
    step = 0
    epoch = 0
    while True:
        order = rng.permutation(len(pairs))
        for lo in range(0, len(pairs), hyper.batch_size):
            batch_pairs = [pairs[i] for i in order[lo:lo + hyper.batch_size]]
            batch = make_batch(batch_pairs, vocab)
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
    enc_ids, sd, dec_ids, targets = make_batch(pairs, model.vocab)
    logits, dec = model.teacher_forced(enc_ids, sd, dec_ids, None)
    return float((logits.argmax(axis=-1) == dec.pack(targets)).mean())
