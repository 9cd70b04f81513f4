import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsgp import expr, semantics
from tsgp.model import Hyperparams
from tsgp.model.transformer import SdTransformer
from tsgp.model.vocab import BOS, EOS, PAD
from tsgp.sampler import (SamplerState, SearchConfig, _draw_batch,
                          batch_legal_mask, legal_mask, operator_ids,
                          primitives_from_vocab, run_tsgp, sample_tokens_batch)

from reference import from_string


class TestSamplerState:
    def test_terminal_completes(self):
        s = SamplerState()
        s.push(is_operator=False)
        assert s.done and s.emitted == 1

    def test_operator_opens_two_slots(self):
        s = SamplerState()
        s.push(is_operator=True)
        assert s.need == 2
        assert s.depth_stack == [1, 1]

    def test_tracks_full_tree(self):
        # ADD v1 MUL v2 C+0.3
        s = SamplerState()
        for is_op in (True, False, True, False, False):
            assert not s.done
            s.push(is_op)
        assert s.done and s.emitted == 5


class TestLegalMask:
    def test_done_state_only_eos(self, vocab):
        s = SamplerState(emitted=1, need=0, depth_stack=[])
        mask = legal_mask(s, vocab)
        assert mask[EOS]
        assert mask.sum() == 1

    def test_specials_never_legal_midway(self, vocab):
        mask = legal_mask(SamplerState(), vocab)
        assert not mask[PAD] and not mask[BOS] and not mask[EOS]

    def test_depth_cap_masks_operators(self, vocab):
        s = SamplerState(emitted=17, need=1, depth_stack=[17])
        mask = legal_mask(s, vocab)
        for i, sym in enumerate(vocab.symbols):
            if sym in expr.OPERATORS:
                assert not mask[i]
            elif i > 2:
                assert mask[i]

    def test_budget_masks_operators(self, vocab):
        # emitted + need + 3 > MAX_TOKENS leaves no room for op + terminals
        s = SamplerState(emitted=96, need=2, depth_stack=[3, 3])
        mask = legal_mask(s, vocab)
        assert not any(mask[i] for i, sym in enumerate(vocab.symbols)
                       if sym in expr.OPERATORS)
        s2 = SamplerState(emitted=95, need=2, depth_stack=[3, 3])
        mask2 = legal_mask(s2, vocab)
        assert any(mask2[i] for i, sym in enumerate(vocab.symbols)
                   if sym in expr.OPERATORS)


class TestBatchLegalMask:
    """The vectorised mask against ``legal_mask`` row by row."""

    @staticmethod
    def _batch(states, vocab):
        return batch_legal_mask(
            np.array([s.emitted for s in states]),
            np.array([s.need for s in states]),
            np.array([s.depth_stack[-1] if s.depth_stack else 0
                      for s in states]),
            operator_ids(vocab))

    @staticmethod
    def _random_states(vocab, rng, n_walks=40):
        """Every intermediate state of random legal emissions."""
        states = []
        for _ in range(n_walks):
            s = SamplerState()
            while not s.done:
                states.append(SamplerState(s.emitted, s.need,
                                           list(s.depth_stack)))
                legal = np.flatnonzero(legal_mask(s, vocab))
                tok = int(legal[rng.integers(len(legal))])
                s.push(vocab.symbols[tok] in expr.OPERATORS)
            states.append(s)
        return states

    @pytest.mark.parametrize("max_len,max_depth", [(100, 17), (12, 3)])
    def test_random_states(self, vocab, monkeypatch, max_len, max_depth):
        # both masks read the budget and the depth cap per call
        monkeypatch.setattr(expr, "MAX_TOKENS", max_len)
        monkeypatch.setattr(expr, "MAX_DEPTH", max_depth)
        states = self._random_states(vocab, np.random.default_rng(4))
        want = np.array([legal_mask(s, vocab) for s in states])
        got = self._batch(states, vocab)
        np.testing.assert_array_equal(got, want)

    def test_edge_states(self, vocab):
        states = [
            SamplerState(emitted=1, need=0, depth_stack=[]),  # done
            SamplerState(emitted=95, need=2, depth_stack=[3, 3]),  # == budget
            SamplerState(emitted=96, need=2, depth_stack=[3, 3]),  # over it
            SamplerState(emitted=17, need=1, depth_stack=[17]),  # depth 17
            SamplerState(emitted=16, need=1, depth_stack=[16]),
            SamplerState(),
        ]
        want = np.array([legal_mask(s, vocab) for s in states])
        np.testing.assert_array_equal(self._batch(states, vocab), want)
        assert want[1].sum() > want[2].sum()  # the budget edge matters


def reference_draw(logits, mask, rng) -> int:
    """One row's draw in float64: inverse CDF over a softmax of the legal
    ids' logits alone, clamped to the last legal id."""
    legal = np.flatnonzero(mask)
    z = logits[legal].astype(np.float64)
    p = np.exp(z - z.max())
    c = np.cumsum(p / p.sum())
    j = int(np.searchsorted(c, rng.random() * c[-1], side="right"))
    return int(legal[min(j, len(legal) - 1)])


class TestDrawBatch:
    def test_matches_reference_draw(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(0.0, 4.0, size=(300, 22))
        logits[:20] *= 200.0  # most legal ids' mass underflows to 0
        mask = rng.random(logits.shape) < 0.6
        mask[np.arange(300), rng.integers(22, size=300)] = True
        logits[20:40] += np.where(mask[20:40], 0.0, 1e4)  # illegal favourites
        got = _draw_batch(logits, mask, [np.random.default_rng(i)
                                         for i in range(300)])
        want = [reference_draw(logits[i], mask[i], np.random.default_rng(i))
                for i in range(300)]
        assert got.tolist() == want

    def test_non_finite_rows_draw_legal_ids(self):
        """A row without finite mass takes its last legal id; masked, or far
        below an illegal one, finite legal logits draw as usual. Every row
        consumes one ``random()``."""
        mask = np.zeros((5, 12), dtype=bool)
        mask[:, [2, 5, 9]] = True
        for dtype in (np.float32, np.float64):
            logits = np.zeros((5, 12), dtype=dtype)
            logits[0] = np.nan
            logits[1, 5] = np.inf
            logits[2, mask[2]] = -np.inf
            logits[3, ~mask[3]] = np.inf
            logits[4, ~mask[4]] = 1e4
            rngs = [np.random.default_rng(i) for i in range(5)]
            with np.errstate(invalid="ignore"):
                got = _draw_batch(logits, mask, rngs)
            assert mask[np.arange(5), got].all()
            assert got[:3].tolist() == [9, 9, 9]
            assert got[3:].tolist() == [
                reference_draw(logits[i], mask[i], np.random.default_rng(i))
                for i in (3, 4)]
            for i, rng in enumerate(rngs):
                once = np.random.default_rng(i)
                once.random()
                assert rng.bit_generator.state == once.bit_generator.state


def _random_model(vocab, seed: int, operator_bias: float) -> SdTransformer:
    """A small model with every parameter drawn at a scale where the parent
    and the SD visibly change the output, and ``operator_bias`` added to
    the operators' output logits."""
    model = SdTransformer(Hyperparams(d_model=16, n_heads=2,
                                      n_encoder_layers=1, n_decoder_layers=1),
                          vocab, rng=np.random.default_rng(seed))
    model.flat[:] = np.random.default_rng(seed).normal(0.0, 0.5,
                                                       model.flat.size)
    for i, sym in enumerate(vocab.symbols):
        if sym in expr.OPERATORS:
            model.params["out.b"][i] += operator_bias
    return model


class TestSampling:
    def test_random_theta_always_parses(self, tiny_model, prims):
        rng = np.random.default_rng(0)
        parents = expr.ramped_half_and_half(64, 2, 5, prims, rng)
        tokens = sample_tokens_batch(
            tiny_model, [expr.serialize_prefix(p) for p in parents], 0.1,
            [np.random.default_rng(s)
             for s in rng.integers(0, 2 ** 63, size=64)])
        for toks in tokens:
            t = expr.parse_prefix(toks, prims)
            assert len(toks) <= 100
            assert expr.depth(t) <= 17

    def test_batch_independence(self, tiny_model, prims):
        rng = np.random.default_rng(1)
        parents = [expr.serialize_prefix(t) for t in
                   expr.ramped_half_and_half(8, 2, 4, prims, rng)]
        # no parent repeats: every decode row has an encoder row of its own
        assert len({tuple(p) for p in parents}) == 8
        batched = sample_tokens_batch(
            tiny_model, parents, 0.1,
            [np.random.default_rng(100 + i) for i in range(8)])
        for i in range(8):
            solo = sample_tokens_batch(tiny_model, [parents[i]], 0.1,
                                       [np.random.default_rng(100 + i)])[0]
            assert solo == batched[i]
        assert len({len(t) for t in batched}) > 1  # rows end at other steps

    def test_batch_independence_long_rows(self, operator_heavy_model, prims):
        rng = np.random.default_rng(3)
        parents = [expr.serialize_prefix(t) for t in
                   expr.ramped_half_and_half(10, 2, 6, prims, rng)]
        batched = sample_tokens_batch(
            operator_heavy_model, parents, 0.1,
            [np.random.default_rng(200 + i) for i in range(10)])
        assert len({len(t) for t in batched}) >= 3
        for i in range(10):
            solo = sample_tokens_batch(
                operator_heavy_model, [parents[i]], 0.1,
                [np.random.default_rng(200 + i)])[0]
            assert solo == batched[i]

    @pytest.mark.parametrize("n_distinct", [1, 4])
    def test_repeated_parents_match_solo(self, vocab, prims, n_distinct):
        """Rows that share a parent share its encoding but draw from their
        own streams; a long parent sets the cross-attention width."""
        model = _random_model(vocab, 7, operator_bias=1.0)
        rng = np.random.default_rng(6)
        if n_distinct == 1:
            parents = [expr.serialize_prefix(from_string("ADD v1 v2"))] * 20
        else:
            distinct = [expr.serialize_prefix(t) for t in
                        expr.ramped_half_and_half(n_distinct, 2, 4, prims,
                                                  rng)]
            long_parent = ["ADD"] * 30 + ["v1"] * 31
            parents = ([distinct[i] for i in rng.integers(n_distinct, size=12)]
                       + [long_parent, distinct[0], long_parent])
            assert len({tuple(p) for p in parents}) == n_distinct + 1
        rngs = [np.random.default_rng(300 + i) for i in range(len(parents))]
        batched = sample_tokens_batch(model, parents, 0.1, rngs)
        for i, parent in enumerate(parents):
            solo = sample_tokens_batch(model, [parent], 0.1,
                                       [np.random.default_rng(300 + i)])[0]
            assert solo == batched[i]
        assert len({tuple(t) for t in batched}) > 1

    def test_single_offspring_deterministic(self, tiny_model, prims):
        parent = expr.serialize_prefix(from_string("ADD v1 v2"))
        a, = sample_tokens_batch(tiny_model, [parent], 0.1,
                                 [np.random.default_rng(5)])
        b, = sample_tokens_batch(tiny_model, [parent], 0.1,
                                 [np.random.default_rng(5)])
        assert a == b
        assert expr.depth(expr.parse_prefix(a, prims)) <= 17


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       scale=st.one_of(st.sampled_from([1e-3, 1e3]), st.floats(1e-3, 1e3)),
       sd_desired=st.floats(0.0, 100.0),
       operator_bias=st.floats(-4.0, 4.0),
       picks=st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_samples_always_legal(vocab, prims, seed, scale, sd_desired,
                              operator_bias, picks):
    """Any parameters and SD give offspring that parse, fit 100 tokens and
    have depth <= 17, also for parents repeated in a batch. Scaling the
    output layer reaches near-uniform (small ``scale``) and near-argmax
    (large ``scale``) draws."""
    model = _random_model(vocab, seed, operator_bias)
    model.params["out.w"] *= scale
    model.params["out.b"] *= scale
    rng = np.random.default_rng(seed)
    distinct = [expr.serialize_prefix(t)
                for t in expr.ramped_half_and_half(4, 2, 6, prims, rng)]
    parents = [distinct[i] for i in picks]
    rngs = [np.random.default_rng(s)
            for s in rng.integers(0, 2 ** 63, size=len(parents))]
    for toks in sample_tokens_batch(model, parents, sd_desired, rngs):
        assert len(toks) <= 100
        assert expr.depth(expr.parse_prefix(toks, prims)) <= 17


class _ToyDataset:
    def __init__(self, seed=0, m=40):
        rng = np.random.default_rng(seed)
        self.X_train = rng.standard_normal((m, 4))
        self.X_test = rng.standard_normal((m, 4))
        y = self.X_train[:, 0] + self.X_train[:, 1]
        self.y_train = semantics.standardize(y)
        # the test target takes the train target's scaling
        self.y_test = ((self.X_test[:, 0] + self.X_test[:, 1] - y.mean())
                       / y.std())
        self.seed = seed


class TestSearch:
    def test_config_guard(self):
        # a NaN or infinite SD would make every logit NaN
        for sd_desired in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                SearchConfig(sd_desired=sd_desired)

    def test_trace_shape_and_monotonicity(self, tiny_model):
        cfg = SearchConfig(pop_size=10, generations=3)
        trace = run_tsgp(tiny_model, _ToyDataset(), cfg,
                         np.random.default_rng(0))
        assert trace.method == "tsgp"
        assert len(trace.generations) == 4
        best = [g.best_train_rmse for g in trace.generations]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))

    def test_primitives_from_vocab(self, vocab):
        prims = primitives_from_vocab(vocab)
        assert prims.n_variables == 4
