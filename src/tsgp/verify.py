"""Numerical verification probes shared by tests and `verify-model`."""

from __future__ import annotations

import numpy as np

from . import expr
from .corpus import TrainingPair
from .model import transformer
from .model.training import grad, make_batch
from .model.transformer import SdTransformer
from .sampler import primitives_from_vocab

PAIR_DEPTH_MAX = 3  # depth cap of random_pairs' trees
FD_STEP = 1e-5      # central-difference step of gradient_check
PROBE_LEN = 12      # encoder and decoder tokens of causality_probe


def random_pairs(model: SdTransformer, rng: np.random.Generator,
                 n: int = 4) -> list:
    prims = primitives_from_vocab(model.vocab)
    pairs = []
    for _ in range(n):
        a = expr.random_tree(expr.GROW, 1, PAIR_DEPTH_MAX, prims, rng)
        b = expr.random_tree(expr.GROW, 1, PAIR_DEPTH_MAX, prims, rng)
        pairs.append(TrainingPair(expr.serialize_prefix(a),
                                  expr.serialize_prefix(b),
                                  float(rng.random())))
    return pairs


def gradient_check(model: SdTransformer, rng: np.random.Generator,
                   n_probes: int = 200) -> float:
    """Central finite differences on randomly probed scalar parameters.

    Returns the maximum relative error against the analytic gradient.
    """
    batch = make_batch(random_pairs(model, rng), model.vocab,
                       model.hyper.max_len)
    _, grads = grad(model, batch)

    def loss_value() -> float:
        return transformer.loss(model.forward(*batch[:3]), batch[3])

    names = sorted(model.params)
    max_rel = 0.0
    for _ in range(n_probes):
        name = names[rng.integers(len(names))]
        flat = model.params[name].reshape(-1)
        i = int(rng.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + FD_STEP
        up = loss_value()
        flat[i] = orig - FD_STEP
        down = loss_value()
        flat[i] = orig
        fd = (up - down) / (2 * FD_STEP)
        an = grads[name].reshape(-1)[i]
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
        max_rel = max(max_rel, rel)
    return max_rel


def causality_probe(model: SdTransformer, rng: np.random.Generator,
                    n_positions: int = 20) -> tuple:
    """Perturb decoder tokens and measure leakage into earlier logit rows.

    Also returns the worst attention row-sum deviation from 1.
    Leakage should be exactly 0; row sums within 1e-6.
    """
    vocab = model.vocab
    content = [i for i in range(vocab.size) if i > 2]
    enc_ids = np.array([rng.choice(content, size=PROBE_LEN)])
    dec_ids = np.array([[1] + list(rng.choice(content, size=PROBE_LEN))])
    sd = np.array([0.1])

    acts = {}
    base = model.forward(enc_ids, sd, dec_ids, acts=acts)
    # attention blocks store (q, k, v, probabilities, context)
    row_err = max(float(np.abs(acts[name][3].sum(axis=-1) - 1.0).max())
                  for name in acts
                  if name.endswith((".attn", ".self", ".cross")))

    leak = 0.0
    for _ in range(n_positions):
        t = int(rng.integers(1, dec_ids.shape[1]))  # keep BOS fixed
        perturbed = dec_ids.copy()
        choices = [c for c in content if c != perturbed[0, t]]
        perturbed[0, t] = choices[rng.integers(len(choices))]
        out = model.forward(enc_ids, sd, perturbed)
        # decoder position of dec_ids[t] is t+1 (SD slot shifts by one)
        rows_before = t + 1
        leak = max(leak, float(np.abs(out[0, :rows_before]
                                      - base[0, :rows_before]).max()))
    return leak, row_err
