import numpy as np
import pytest

from tsgp import expr, semantics
from tsgp.model.vocab import BOS, EOS, PAD
from tsgp.sampler import (SamplerState, SearchConfig, _draw_batch,
                          batch_legal_mask, legal_mask, operator_ids,
                          primitives_from_vocab, run_tsgp, sample_tokens_batch)


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
        # emitted + need + 3 > max_len leaves no room for op + terminals
        s = SamplerState(emitted=96, need=2, depth_stack=[3, 3])
        mask = legal_mask(s, vocab, max_len=100)
        assert not any(mask[i] for i, sym in enumerate(vocab.symbols)
                       if sym in expr.OPERATORS)
        s2 = SamplerState(emitted=95, need=2, depth_stack=[3, 3])
        mask2 = legal_mask(s2, vocab, max_len=100)
        assert any(mask2[i] for i, sym in enumerate(vocab.symbols)
                   if sym in expr.OPERATORS)


class TestBatchLegalMask:
    """The vectorised mask against ``legal_mask`` row by row."""

    @staticmethod
    def _batch(states, vocab, max_len, max_depth):
        return batch_legal_mask(
            np.array([s.emitted for s in states]),
            np.array([s.need for s in states]),
            np.array([s.depth_stack[-1] if s.depth_stack else 0
                      for s in states]),
            operator_ids(vocab), max_len, max_depth)

    @staticmethod
    def _random_states(vocab, rng, max_len, max_depth, n_walks=40):
        """Every intermediate state of random legal emissions."""
        states = []
        for _ in range(n_walks):
            s = SamplerState()
            while not s.done:
                states.append(SamplerState(s.emitted, s.need,
                                           list(s.depth_stack)))
                legal = np.flatnonzero(legal_mask(s, vocab, max_len,
                                                  max_depth))
                tok = int(legal[rng.integers(len(legal))])
                s.push(vocab.symbols[tok] in expr.OPERATORS)
            states.append(s)
        return states

    @pytest.mark.parametrize("max_len,max_depth", [(100, 17), (12, 3)])
    def test_random_states(self, vocab, max_len, max_depth):
        states = self._random_states(vocab, np.random.default_rng(4),
                                     max_len, max_depth)
        want = np.array([legal_mask(s, vocab, max_len, max_depth)
                         for s in states])
        got = self._batch(states, vocab, max_len, max_depth)
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
        np.testing.assert_array_equal(self._batch(states, vocab, 100, 17),
                                      want)
        assert want[1].sum() > want[2].sum()  # the budget edge matters


def reference_draw(probs, mask, rng) -> int:
    """One row's draw: inverse CDF over the legal ids with mass, clamped to
    the last of them; uniform over the legal ids when none has mass."""
    p = np.where(mask, probs, 0.0)
    legal = np.flatnonzero(p > 0.0)
    if len(legal) == 0:
        legal = np.flatnonzero(mask)
        return int(legal[rng.integers(len(legal))])
    c = np.cumsum(p[legal])
    j = int(np.searchsorted(c, rng.random() * c[-1], side="right"))
    return int(legal[min(j, len(legal) - 1)])


class _FixedUniform:
    """Generator stand-in whose ``random()`` returns a fixed value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestDrawBatch:
    def test_matches_reference_draw(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(0.0, 4.0, size=(300, 22))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        probs[rng.random(probs.shape) < 0.1] = 0.0  # exact zeros
        mask = rng.random(probs.shape) < 0.6
        mask[np.arange(300), rng.integers(22, size=300)] = True
        probs[:20] *= ~mask[:20]  # rows whose legal ids have no mass
        got = _draw_batch(probs, mask, [np.random.default_rng(i)
                                        for i in range(300)])
        want = [reference_draw(probs[i], mask[i], np.random.default_rng(i))
                for i in range(300)]
        assert got.tolist() == want

    def test_subnormal_mass_clamps_to_last_legal(self):
        tiny = np.nextafter(0.0, 1.0)
        probs = np.zeros((1, 12))
        probs[0, [5, 9]] = tiny
        mask = np.ones((1, 12), dtype=bool)
        # 0.9 * (2 * tiny) rounds back up to the total mass
        assert reference_draw(probs[0], mask[0], _FixedUniform(0.9)) == 9
        assert _draw_batch(probs, mask, [_FixedUniform(0.9)]).tolist() == [9]


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

    def test_single_offspring_deterministic(self, tiny_model, prims):
        parent = expr.serialize_prefix(expr.from_string("ADD v1 v2"))
        a, = sample_tokens_batch(tiny_model, [parent], 0.1,
                                 [np.random.default_rng(5)])
        b, = sample_tokens_batch(tiny_model, [parent], 0.1,
                                 [np.random.default_rng(5)])
        assert a == b
        assert expr.depth(expr.parse_prefix(a, prims)) <= 17


class _ToyDataset:
    def __init__(self, seed=0, m=40):
        rng = np.random.default_rng(seed)
        self.X_train = rng.standard_normal((m, 4))
        self.X_test = rng.standard_normal((m, 4))
        y = self.X_train[:, 0] + self.X_train[:, 1]
        self.y_train, params = semantics.standardize(y)
        self.y_test, _ = semantics.standardize(
            self.X_test[:, 0] + self.X_test[:, 1], params)
        self.seed = seed


class TestSearch:
    def test_config_guard(self):
        with pytest.raises(ValueError):
            SearchConfig(sd_desired=-1.0)

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
