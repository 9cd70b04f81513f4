"""Syntax-controlled offspring sampling from the transformer, and the
search loop that uses the model as the sole variation operator.

The legality mask guarantees that every emitted sequence parses to a
valid tree within the token budget and depth limit, for any parameters
(including randomly initialized ones).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr
from .model.transformer import SdTransformer
from .model.vocab import Vocabulary, PAD, BOS, EOS, primitives_from_vocab
from .stdgp import (TOURNAMENT_SIZE, Individual, assess, evaluated, evolve,
                    fill_test_semantics, tournament_select)
from .trace import RunTrace

RESAMPLE_LIMIT = 3  # resample rounds for offspring identical to their parent


@dataclass
class SamplerState:
    """Open-subtree accounting during autoregressive emission."""

    emitted: int = 0
    need: int = 1
    depth_stack: list = field(default_factory=lambda: [0])

    @property
    def done(self) -> bool:
        return self.need == 0

    def push(self, is_operator: bool):
        self.emitted += 1
        d = self.depth_stack.pop()
        if is_operator:
            self.depth_stack.extend((d + 1, d + 1))
            self.need += 1
        else:
            self.need -= 1


def legal_mask(state: SamplerState, vocab: Vocabulary,
               max_len: int = expr.MAX_TOKENS,
               max_depth: int = expr.MAX_DEPTH) -> np.ndarray:
    """Boolean legality per vocabulary id for one sequence's next token;
    ``batch_legal_mask`` is the vectorised form the sampler uses.

    EOS only once the tree is complete; operators only while the remaining
    token budget covers this operator, a minimal terminal completion and the
    EOS, and while the current slot depth allows two more levels.
    """
    mask = np.zeros(vocab.size, dtype=bool)
    if state.done:
        mask[EOS] = True
        return mask
    operator_ok = (state.emitted + state.need + 3 <= max_len
                   and state.depth_stack[-1] < max_depth)
    for i, sym in enumerate(vocab.symbols):
        if i in (PAD, BOS, EOS):
            continue
        if sym in expr.OPERATORS:
            mask[i] = operator_ok
        else:
            mask[i] = True
    return mask


def operator_ids(vocab: Vocabulary) -> tuple:
    """(is_operator, is_terminal) boolean vectors over the vocabulary ids."""
    is_op = np.array([sym in expr.OPERATORS for sym in vocab.symbols])
    is_term = ~is_op
    is_term[[PAD, BOS, EOS]] = False
    return is_op, is_term


def batch_legal_mask(emitted: np.ndarray, need: np.ndarray,
                     depth: np.ndarray, kinds: tuple,
                     max_len: int = expr.MAX_TOKENS,
                     max_depth: int = expr.MAX_DEPTH) -> np.ndarray:
    """``legal_mask`` for a batch of rows, (B, V).

    ``emitted``/``need`` are the rows' counters, ``depth`` the depth of each
    row's current slot (``depth_stack[-1]``, ignored once done) and ``kinds``
    comes from ``operator_ids``.
    """
    is_op, is_term = kinds
    done = need == 0
    operator_ok = ((emitted + need + 3 <= max_len) & (depth < max_depth)
                   & ~done)
    mask = (is_op & operator_ok[:, None]) | (is_term & ~done[:, None])
    mask[:, EOS] = done
    return mask


def _draw_batch(probs: np.ndarray, mask: np.ndarray, rngs: list) -> np.ndarray:
    """One token per row by inverse-CDF over the legal ids' probabilities.

    Each row consumes one draw from its own generator: ``random()``, or
    ``integers`` over the legal ids when the model gives them zero mass.
    """
    p = np.where(mask, probs, 0.0)
    c = np.cumsum(p, axis=1)  # zeros leave the running sums unchanged
    total = c[:, -1]
    toks = np.empty(len(rngs), dtype=np.int64)
    u = np.zeros(len(rngs))
    for r, rng in enumerate(rngs):
        if total[r] > 0.0:
            u[r] = rng.random()
        else:
            legal = np.flatnonzero(mask[r])
            toks[r] = legal[rng.integers(len(legal))]
    above = c > (u * total)[:, None]
    last = p.shape[1] - 1 - np.argmax(p[:, ::-1] > 0.0, axis=1)
    drawn = np.where(above.any(axis=1), np.argmax(above, axis=1), last)
    return np.where(total > 0.0, drawn, toks)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sample_tokens_batch(model: SdTransformer, parents_tokens: list,
                        sd_desired: float, rngs: list,
                        temperature: float = 1.0) -> list:
    """Sample one offspring token sequence per parent (lockstep batch).

    Each sequence consumes only its own rng stream, so results are
    independent of how sequences are batched together. Each distinct parent
    is encoded once, however many rows share it. Decoding is incremental:
    each step feeds only the latest token through the decoder against a
    cache of earlier positions that grows with the longest row, and rows
    that emit EOS leave the cache.
    """
    vocab = model.vocab
    B = len(parents_tokens)
    sds = np.full(B, float(sd_desired))
    kinds = operator_ids(vocab)
    is_op = kinds[0]

    # encoder-side truncation only; each distinct parent is encoded once
    distinct = {}
    parent_row = np.array([
        distinct.setdefault(tuple(vocab.encode(t[:expr.MAX_TOKENS])),
                            len(distinct))
        for t in parents_tokens])
    enc_ids = np.full((len(distinct), max(map(len, distinct))), PAD,
                      dtype=np.int64)
    for row, ids in zip(enc_ids, distinct):
        row[:len(ids)] = ids
    enc_out, enc_valid = model.encode(enc_ids, sds[:len(distinct)])
    cache = model.start_decoding(enc_out, enc_valid, parent_row)

    # per-parent counters; depth[i, need[i] - 1] is the open slot's depth
    emitted = np.zeros(B, dtype=np.int64)
    need = np.ones(B, dtype=np.int64)
    depth = np.zeros((B, expr.MAX_TOKENS + 2), dtype=np.int64)
    seqs = np.zeros((B, expr.MAX_TOKENS), dtype=np.int64)
    rows = np.arange(B)  # parent of each cache row
    step_ids = np.full((B, 1), BOS, dtype=np.int64)
    while len(rows):
        logits = model.decode(step_ids, sds[rows], cache)[:, -1, :]
        top = depth[rows, np.maximum(need[rows] - 1, 0)]
        mask = batch_legal_mask(emitted[rows], need[rows], top, kinds)
        toks = _draw_batch(_softmax(logits / temperature), mask,
                           [rngs[i] for i in rows])
        going = toks != EOS
        if not going.all():
            order = cache.retain(going)
            rows, toks = rows[order], toks[order]
        seqs[rows, emitted[rows]] = toks
        emitted[rows] += 1
        op = is_op[toks]
        slot = need[rows] - 1
        depth[rows, slot] += op
        depth[rows[op], slot[op] + 1] = depth[rows[op], slot[op]]
        need[rows] += np.where(op, 1, -1)
        step_ids = toks[:, None]
    return [vocab.decode(seqs[i, :emitted[i]]) for i in range(B)]


@dataclass
class SearchConfig:
    sd_desired: float = 0.1
    pop_size: int = 100
    generations: int = 50

    def __post_init__(self):
        if self.sd_desired < 0:
            raise ValueError("sd_desired must be >= 0")


def run_tsgp(model: SdTransformer, dataset, config: SearchConfig,
             rng: np.random.Generator) -> RunTrace:
    """Generational loop with the transformer as the only variation operator."""
    prims = primitives_from_vocab(model.vocab)
    trace = RunTrace(method="tsgp", seed=getattr(dataset, "seed", -1))

    def vary(pop):
        parents = [tournament_select(pop, TOURNAMENT_SIZE, rng)
                   for _ in range(config.pop_size)]
        parent_tokens = [expr.serialize_prefix(p.tree) for p in parents]
        rngs = [np.random.default_rng(s)
                for s in rng.integers(0, 2 ** 63, size=config.pop_size)]
        offspring_tokens = sample_tokens_batch(
            model, parent_tokens, config.sd_desired, rngs)

        # resample offspring that came back token-identical to their parent
        for _ in range(RESAMPLE_LIMIT):
            stuck = [i for i in range(config.pop_size)
                     if offspring_tokens[i] == parent_tokens[i]]
            if not stuck:
                break
            redo = sample_tokens_batch(
                model, [parent_tokens[i] for i in stuck], config.sd_desired,
                [rngs[i] for i in stuck])
            for i, toks in zip(stuck, redo):
                offspring_tokens[i] = toks

        rows, fresh = [], []
        for parent, before, tokens in zip(parents, parent_tokens,
                                          offspring_tokens):
            varied = tokens != before
            # a token-identical child is its parent, evaluated already
            child = parent
            if varied:
                child = Individual(expr.parse_prefix(tokens, prims))
                fresh.append(child)
            rows.append((parent, child, varied))
        assess(fresh, dataset)
        return rows

    return evolve(trace, config, dataset, rng, prims,
                  lambda trees: evaluated(trees, dataset), vary,
                  fill_test_semantics)
