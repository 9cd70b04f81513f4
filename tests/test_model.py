import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tsgp import expr
from tsgp.corpus import TrainingPair
from tsgp.errors import DataError
from tsgp.model import Vocabulary, load_checkpoint, save_checkpoint, train
from tsgp.model import autodiff as ad
from tsgp.model import blocks
from tsgp.model import checkpoint as ckpt
from tsgp.model import transformer as tfm
from tsgp.model.autodiff import Tensor
from tsgp.model.training import (AdamWState, adamw_step, grad, make_batch,
                                 token_accuracy)
from tsgp.model.transformer import SdTransformer
from tsgp.model.vocab import BOS, PAD
from tsgp.verify import causality_probe, gradient_check, random_pairs

import tape_reference


class TestVocabulary:
    def test_layout(self, vocab):
        assert vocab.size == 22  # 3 special + 4 ops + 4 vars + 11 constants
        assert vocab.symbols[:3] == ("<pad>", "<bos>", "<eos>")
        for op in ("ADD", "SUB", "MUL", "PDIV"):
            assert op in vocab.symbols
        assert "v4" in vocab.symbols and "C-0.5" in vocab.symbols

    def test_encode_decode_round_trip(self, vocab):
        toks = ["ADD", "v1", "C+0.3"]
        assert vocab.decode(vocab.encode(toks)) == toks

    def test_json_round_trip(self, vocab):
        assert Vocabulary.from_json(vocab.to_json()) == vocab

    def test_unknown_symbol(self, vocab):
        with pytest.raises(KeyError):
            vocab.encode(["SIN"])


class TestMakeBatch:
    def test_target_alignment(self, vocab):
        pair = TrainingPair(["v1"], ["ADD", "v1", "v2"], 0.5)
        enc, sd, dec, tgt = make_batch([pair], vocab)
        assert enc.tolist() == [vocab.encode(["v1"])]
        out = vocab.encode(["ADD", "v1", "v2"])
        assert dec.tolist() == [[1] + out]
        assert tgt.tolist() == [[1] + out + [2]]
        assert sd[0] == 0.5

    def test_padding(self, vocab):
        pairs = [TrainingPair(["v1"], ["v2"], 0.1),
                 TrainingPair(["ADD", "v1", "v2"], ["MUL", "v1", "v2"], 0.2)]
        enc, _, dec, tgt = make_batch(pairs, vocab)
        assert enc.shape == (2, 3)
        assert enc[0, 1] == 0 and enc[0, 2] == 0  # PAD
        assert dec.shape[1] + 1 == tgt.shape[1]

    def test_too_long_output_rejected(self, vocab):
        pair = TrainingPair(["v1"], ["v1"] * 101, 0.1)
        with pytest.raises(ValueError):
            make_batch([pair], vocab)


class TestForward:
    def test_initial_loss_near_ln_vocab(self, tiny_model, vocab):
        rng = np.random.default_rng(0)
        batch = make_batch(random_pairs(tiny_model, rng, n=8), vocab)
        val = tfm.loss(tiny_model.forward(*batch[:3]), batch[3])
        target = math.log(vocab.size)
        assert abs(val - target) / target < 0.05

    def test_sequence_too_long(self, tiny_model):
        ids = np.full((1, expr.MAX_TOKENS + 1), 3, dtype=np.int64)
        with pytest.raises(ValueError,
                           match="encoder sequence 101 > 100 tokens"):
            tiny_model.encode(ids, np.array([0.1]))

    def test_all_pad_target_rejected(self, tiny_model, vocab):
        batch = make_batch(random_pairs(tiny_model,
                                        np.random.default_rng(1)), vocab)
        logits = tiny_model.forward(batch[0], batch[1], batch[2])
        with pytest.raises(ValueError):
            tfm.loss(logits, np.zeros_like(batch[3]))


class TestIncrementalDecode:
    """The cached one-token step against teacher forcing (``forward``) on
    the same rows."""

    @staticmethod
    def _inputs(model, rng, B=3):
        V, L = model.vocab.size, expr.MAX_TOKENS
        enc = rng.integers(3, V, size=(B, 12))
        enc[0, 7:] = 0  # PAD tails of different lengths
        enc[1, 3:] = 0
        dec = rng.integers(3, V, size=(B, L))
        sd = rng.uniform(0.0, 2.0, size=B)
        return enc, dec, sd

    @pytest.mark.parametrize("model_name", ["tiny_model",
                                            "operator_heavy_model"])
    def test_step_logits_match_teacher_forcing(self, model_name, request):
        model = request.getfixturevalue(model_name)
        enc, dec, sd = self._inputs(model, np.random.default_rng(9))
        full = np.concatenate([np.full((len(dec), 1), BOS), dec], axis=1)
        rows = np.arange(len(dec))
        enc_out, enc_valid = model.encode(enc, sd)
        cache = model.start_decoding(enc_out, enc_valid, rows)
        step = model.decode(full[:, :1], sd, cache)
        ref = model.forward(enc, sd, full[:, :1])
        np.testing.assert_allclose(step, ref, rtol=0, atol=1e-12)
        for t in range(1, full.shape[1]):
            if t in (40, 70):  # drop a row, as when it emits EOS
                keep = np.ones(len(rows), dtype=bool)
                keep[0 if t == 40 else -1] = False
                rows = rows[cache.retain(keep)]
            step = model.decode(full[rows, t:t + 1], sd[rows], cache)
            ref = model.forward(enc[rows], sd[rows], full[rows, :t + 1])
            assert step.shape == (len(rows), 1, model.vocab.size)
            np.testing.assert_allclose(step[:, 0], ref[:, -1], rtol=0,
                                       atol=1e-12)
        assert cache.length == expr.MAX_TOKENS + 2
        with pytest.raises(ValueError, match="decoder sequence"):
            model.decode(full[rows, :1], sd[rows], cache)


    def test_repeated_rows_match_teacher_forcing(self, tiny_model):
        """Decode rows that share encoder rows through the index given to
        ``start_decoding``, past two capacity doublings."""
        model = tiny_model
        enc, dec, sd = self._inputs(model, np.random.default_rng(10))
        rows = np.array([2, 0, 2, 2, 1, 0, 2])
        full = np.concatenate([np.full((len(rows), 1), BOS), dec[rows]],
                              axis=1)
        enc_out, enc_valid = model.encode(enc, sd)
        cache = model.start_decoding(enc_out, enc_valid, rows)
        for t in range(40):
            step = model.decode(full[:, t:t + 1], sd[rows], cache)
            ref = model.forward(enc[rows], sd[rows], full[:, :t + 1])
            np.testing.assert_allclose(step[:, -1], ref[:, -1], rtol=0,
                                       atol=1e-12)
        assert cache.self_kv[0][0].shape[2] < expr.MAX_TOKENS + 2

    def test_one_position_step_builds_no_causal_bias(self, tiny_model,
                                                     monkeypatch):
        """Only the first step (SD slot and BOS) masks future positions; a
        one-position step sees every position decoded so far."""
        built, causal = [], SdTransformer._causal_bias
        monkeypatch.setattr(SdTransformer, "_causal_bias", staticmethod(
            lambda T, dtype: built.append(T) or causal(T, dtype)))
        enc, dec, sd = self._inputs(tiny_model, np.random.default_rng(11))
        enc_out, enc_valid = tiny_model.encode(enc, sd)
        cache = tiny_model.start_decoding(enc_out, enc_valid, np.arange(3))
        tiny_model.decode(np.full((3, 1), BOS), sd, cache)
        for t in range(5):
            tiny_model.decode(dec[:, t:t + 1], sd, cache)
        assert built == [2]


class TestGradients:
    def test_finite_difference(self, tiny_model):
        rng = np.random.default_rng(5)
        assert gradient_check(tiny_model, rng, n_probes=40) < 1e-4

    def test_unused_embedding_rows_zero_grad(self, tiny_model, vocab):
        used = {"ADD", "v1", "v2"}
        pair = TrainingPair(["v1"], ["ADD", "v1", "v2"], 0.3)
        _, grads = grad(tiny_model, make_batch([pair], vocab))
        g = grads["embed.tok"]
        for i, sym in enumerate(vocab.symbols):
            if sym not in used and i > 2:  # specials appear via BOS padding
                np.testing.assert_array_equal(g[i], 0.0)

    def test_batch_doubling_preserves_mean_grad(self, tiny_model, vocab):
        pairs = random_pairs(tiny_model, np.random.default_rng(2), n=3)
        l1, g1 = grad(tiny_model, make_batch(pairs, vocab))
        l2, g2 = grad(tiny_model, make_batch(pairs * 2, vocab))
        assert abs(l1 - l2) < 1e-9
        for k in g1:
            np.testing.assert_allclose(g1[k], g2[k], atol=1e-9)

    def test_causality_and_attention_rows(self, tiny_model):
        leak, row_err = causality_probe(tiny_model, np.random.default_rng(3))
        assert leak == 0.0
        assert row_err < 1e-6


def _spread_batch(pairs, n: int) -> list:
    """``n`` pairs evenly spaced over the length range, in seeded order."""
    by_len = sorted(pairs, key=lambda p: (len(p.input_tokens)
                                          + len(p.output_tokens)))
    picks = np.linspace(len(by_len) - 1, 0, n).astype(int)
    return [by_len[i] for i in np.random.default_rng(n).permutation(picks)]


def _ragged_batch(vocab, seed: int, lengths: list):
    """A padded ``make_batch`` batch of random tokens, one row per (input,
    output) token count in ``lengths``."""
    rng = np.random.default_rng(seed)
    symbols = vocab.symbols[3:]
    pairs = [TrainingPair([str(t) for t in rng.choice(symbols, n_in)],
                          [str(t) for t in rng.choice(symbols, n_out)],
                          float(rng.uniform(0.0, 2.0)))
             for n_in, n_out in lengths]
    return make_batch(pairs, vocab)


class TestGroupedGrad:
    """``grad`` runs a batch as one pass on packed rows through the
    hand-derived block backward, with attention per length class; the
    oracle is one tape pass over the whole padded batch."""

    @staticmethod
    def _assert_matches_tape(model, batch):
        loss, grads = grad(model, batch)
        ref_loss, ref = tape_reference.loss_and_grads(model, batch)
        assert abs(loss - ref_loss) <= 1e-10 * ref_loss
        scale = max(np.abs(g).max() for g in ref.values())
        for name, g in ref.items():
            if name.endswith(".bk"):
                # a bias shared by all keys shifts every score of a query
                # alike, so its exact gradient is 0; both are rounding noise
                assert np.abs(grads[name]).max() < 1e-15 * scale
                assert np.abs(g).max() < 1e-15 * scale
                continue
            err = np.linalg.norm(grads[name] - g)
            assert err <= 1e-10 * np.linalg.norm(g), name

    @pytest.mark.parametrize("n", [1, 3, 32])
    def test_matches_whole_batch(self, tiny_model, vocab, harvested, n):
        batch = make_batch(_spread_batch(harvested[1], n), vocab)
        if n == 32:  # the rows span short and long ones
            lengths = (batch[0] != PAD).sum(axis=1)
            assert lengths.min() <= 2 and lengths.max() >= 60
        self._assert_matches_tape(tiny_model, batch)

    def test_two_layers_match_whole_batch(self, operator_heavy_model, vocab,
                                          harvested):
        """Each encoder layer feeds the next and every decoder layer's
        cross-attention adds into the encoder output's gradient."""
        batch = make_batch(_spread_batch(harvested[1], 32), vocab)
        self._assert_matches_tape(operator_heavy_model, batch)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           lengths=st.lists(st.tuples(st.integers(1, 100),
                                      st.integers(1, 100)),
                            min_size=1, max_size=32))
    @example(seed=0, lengths=[(1, 1)] * 15 + [(100, 100)] + [(1, 1)] * 16)
    @example(seed=1, lengths=[(70, 3), (3, 70), (1, 1), (40, 40)])
    def test_ragged_batches(self, tiny_model, vocab, seed, lengths):
        """Gradients match the tape, and each row's logits match those of
        the row run alone, for rows whose input is the longer and rows
        whose target is."""
        batch = _ragged_batch(vocab, seed, lengths)
        self._assert_matches_tape(tiny_model, batch)
        enc_ids, sd, dec_ids, targets = batch
        logits = tiny_model.forward(enc_ids, sd, dec_ids)
        for i, (n_in, n_out) in enumerate(lengths):
            alone = tiny_model.forward(enc_ids[i:i + 1, :n_in], sd[i:i + 1],
                                       dec_ids[i:i + 1, :n_out + 1])
            np.testing.assert_allclose(logits[i, :n_out + 2], alone[0],
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(logits[i, n_out + 2:], 0.0)

    def test_groups_cropped_to_own_length(self, tiny_model, vocab, harvested,
                                          monkeypatch):
        """The attention core runs once per power-of-two length class of the
        longer of input and target, every length up to 16 in the first
        class, on the class's rows cropped to its own longest row."""
        batch = make_batch(_spread_batch(harvested[1], 32), vocab)
        shapes = []
        core = blocks.attention_core

        def spy(q, k, v, bias):
            shapes.append((q.shape[0], q.shape[2], k.shape[2]))
            return core(q, k, v, bias)
        monkeypatch.setattr(blocks, "attention_core", spy)
        grad(tiny_model, batch)
        enc_len = (batch[0] != PAD).sum(axis=1)
        tgt_len = (batch[3] != PAD).sum(axis=1)
        key = np.maximum(enc_len, tgt_len)
        cls = [int(max(n, 16) - 1).bit_length() for n in key]
        classes = sorted(set(cls))
        assert key.min() < 8 and classes[0] == 4 and 1 < len(classes) < 8
        # one encoder self-, one decoder self- and one cross-attention layer
        n = len(classes)
        assert len(shapes) == 3 * n
        enc, dec, cross = shapes[:n], shapes[n:2 * n], shapes[2 * n:]
        for c, (rows, enc_w, _), (_, dec_w, _), crossed in zip(classes, enc,
                                                                dec, cross):
            members = [i for i, m in enumerate(cls) if m == c]
            assert rows == len(members)
            assert enc_w == enc_len[members].max() + 1  # the SD slot
            assert dec_w == tgt_len[members].max()
            assert crossed == (rows, dec_w, enc_w)
            assert max(enc_w - 1, dec_w) <= 2 ** c
        assert enc[-1][1] == batch[0].shape[1] + 1
        assert dec[-1][1] == batch[3].shape[1]


class TestFlatMatmul:
    """N-D @ 2-D runs as one 2-D GEMM; the oracle is the batched product
    with the weight gradient summed over the batch axes."""

    @pytest.mark.parametrize("shape", [(5, 7, 6), (3, 4, 7, 6)])
    def test_matches_batched(self, shape):
        rng = np.random.default_rng(len(shape))
        a = Tensor(rng.standard_normal(shape), requires_grad=True)
        b = Tensor(rng.standard_normal((6, 9)), requires_grad=True)
        out = ad.matmul(a, b)
        np.testing.assert_allclose(out.data, a.data @ b.data, rtol=1e-12)
        g = rng.standard_normal(out.shape)
        out._backward(g)
        np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=1e-12)
        batched = np.swapaxes(a.data, -1, -2) @ g
        np.testing.assert_allclose(
            b.grad, batched.reshape(-1, 6, 9).sum(axis=0), rtol=1e-12)


def test_shared_upstream_gradient_not_aliased():
    """``add`` hands the same upstream gradient to both inputs; a later
    contribution to one must not leak into the other."""
    a, b = Tensor(np.zeros(3), True), Tensor(np.zeros(3), True)
    ad.add(a, b)._backward(np.ones(3))
    a._accumulate(np.ones(3))
    np.testing.assert_array_equal(a.grad, 2.0)
    np.testing.assert_array_equal(b.grad, 1.0)


def _per_tensor_adamw(params: dict, grads: dict, m: dict, v: dict, t: int,
                      lr: float, weight_decay: float, beta1: float = 0.9,
                      beta2: float = 0.999, eps: float = 1e-8):
    """AdamW as first written: one update per parameter tensor."""
    for k, w in params.items():
        g = grads[k]
        m[k] = beta1 * m[k] + (1 - beta1) * g
        v[k] = beta2 * v[k] + (1 - beta2) * g * g
        mhat = m[k] / (1 - beta1 ** t)
        vhat = v[k] / (1 - beta2 ** t)
        update = mhat / (np.sqrt(vhat) + eps)
        if weight_decay and w.ndim >= 2:
            update = update + weight_decay * w
        w -= lr * update


class TestAdamW:
    def test_decay_applies_to_matrices_only(self, tiny_model):
        model = SdTransformer(tiny_model.hyper, tiny_model.vocab,
                              rng=np.random.default_rng(4))
        zero_grads = {k: np.zeros_like(w) for k, w in model.params.items()}
        before = {k: w.copy() for k, w in model.params.items()}
        state = AdamWState(model.params)
        adamw_step(model, zero_grads, state, lr=0.1, weight_decay=0.01)
        for k, w in model.params.items():
            if w.ndim >= 2:
                np.testing.assert_allclose(w, before[k] * (1 - 0.001))
            else:
                np.testing.assert_array_equal(w, before[k])

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_flat_step_matches_per_tensor_loop(self, tiny_model, vocab,
                                               harvested, weight_decay):
        model = SdTransformer(tiny_model.hyper, vocab,
                              rng=np.random.default_rng(4))
        ref = {k: w.copy() for k, w in model.params.items()}
        m = {k: np.zeros_like(w) for k, w in ref.items()}
        v = {k: np.zeros_like(w) for k, w in ref.items()}
        state = AdamWState(model.params)
        pairs = harvested[1]
        for t in range(1, 6):
            batch = make_batch(pairs[8 * t:8 * t + 8], vocab)
            _, grads = grad(model, batch)
            adamw_step(model, grads, state, lr=1e-3,
                       weight_decay=weight_decay)
            _per_tensor_adamw(ref, grads, m, v, t, 1e-3, weight_decay)
            for k, w in model.params.items():
                np.testing.assert_array_equal(w, ref[k], err_msg=k)
                np.testing.assert_array_equal(w, model.views(model.flat)[k])


class TestTraining:
    def test_deterministic(self, tiny_hyper, vocab, tiny_model):
        pairs = random_pairs(tiny_model, np.random.default_rng(6), n=6)
        m1, c1 = train(pairs, tiny_hyper, vocab, seed=3, max_steps=5)
        m2, c2 = train(pairs, tiny_hyper, vocab, seed=3, max_steps=5)
        assert c1 == c2
        for k in m1.params:
            np.testing.assert_array_equal(m1.params[k], m2.params[k])

    def test_loss_decreases(self, tiny_hyper, vocab, tiny_model):
        pairs = random_pairs(tiny_model, np.random.default_rng(7), n=8)
        model, curve = train(pairs, tiny_hyper, vocab, seed=0, max_steps=60)
        assert curve[-1][1] < curve[0][1]
        assert token_accuracy(model, pairs) > 0.3


class TestCheckpoint:
    def _saved(self, tiny_model, tmp_path):
        path = tmp_path / "m.tsgp"
        save_checkpoint(tiny_model, path)
        return path

    def test_magic_and_round_trip(self, tiny_model, tmp_path):
        p1 = self._saved(tiny_model, tmp_path)
        assert p1.read_bytes()[:8] == ckpt.MAGIC == b"TSGPMDL1"
        p2 = tmp_path / "m2.tsgp"
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_logits_reproduced_exactly(self, tiny_model, vocab, tmp_path):
        path = self._saved(tiny_model, tmp_path)
        loaded = load_checkpoint(path)
        pairs = random_pairs(tiny_model, np.random.default_rng(8), n=2)
        batch = make_batch(pairs, vocab)
        # the loaded model computes in float32 on the stored values: the
        # float64 parameters rounded to float32, as the format rounds them
        f32 = SdTransformer(tiny_model.hyper, vocab, params=tiny_model.params,
                            dtype=np.float32)
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded.flat, f32.flat)
        a = f32.forward(batch[0], batch[1], batch[2])
        b = loaded.forward(batch[0], batch[1], batch[2])
        assert b.dtype == np.float32
        np.testing.assert_array_equal(a, b)

    def test_bad_magic(self, tiny_model, tmp_path):
        path = self._saved(tiny_model, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated(self, tiny_model, tmp_path):
        path = self._saved(tiny_model, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(DataError, match="payload too short"):
            load_checkpoint(path)

    def _with_header(self, path, edit):
        """Rewrite the JSON header of a saved checkpoint with ``edit``."""
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + hlen])
        edit(header)
        raw = json.dumps(header).encode()
        path.write_bytes(ckpt.MAGIC + struct.pack("<I", len(raw)) + raw
                         + blob[12 + hlen:])

    def test_header_without_vocabulary(self, tiny_model, tmp_path):
        path = self._saved(tiny_model, tmp_path)
        self._with_header(path, lambda h: h.pop("vocabulary"))
        with pytest.raises(DataError, match="vocabulary"):
            load_checkpoint(path)

    def test_legacy_dropout_key_ignored(self, tiny_model, tmp_path):
        path = self._saved(tiny_model, tmp_path)
        assert "dropout" not in tiny_model.hyper.to_json()
        self._with_header(
            path, lambda h: h["hyperparams"].update(dropout=0.0))
        loaded = load_checkpoint(path)
        assert loaded.hyper == tiny_model.hyper
        for name, w in tiny_model.params.items():
            np.testing.assert_array_equal(
                loaded.params[name], w.astype(np.float32).astype(np.float64))

    def test_unknown_hyperparameter(self, tiny_model, tmp_path):
        path = self._saved(tiny_model, tmp_path)
        self._with_header(
            path, lambda h: h["hyperparams"].update(n_experts=4))
        with pytest.raises(DataError, match="n_experts"):
            load_checkpoint(path)

    def test_wrong_tensor_shape(self, tiny_model, tmp_path):
        path = self._saved(tiny_model, tmp_path)

        def row_vector_bias(h):
            entry = next(e for e in h["tensors"] if e["name"] == "out.b")
            entry["shape"] = [1] + entry["shape"]
        self._with_header(path, row_vector_bias)
        with pytest.raises(DataError, match="out.b"):
            load_checkpoint(path)

    def test_missing_and_unknown_tensors(self, tiny_model, tmp_path):
        path = self._saved(tiny_model, tmp_path)

        def rename(h):
            entry = next(e for e in h["tensors"] if e["name"] == "out.b")
            entry["name"] = "out.bias"
        self._with_header(path, rename)
        with pytest.raises(DataError, match="out.bias"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("hyperparams", []), ("hyperparams", 3),
        ("n_encoder_layers", 10 ** 6), ("n_decoder_layers", 10 ** 30),
        ("max_len", 10 ** 30), ("max_len", expr.MAX_TOKENS + 1),
        ("max_len", 400), ("ffn_dim", 4 * 32 + 1)])
    def test_header_value_is_manifest_mismatch(self, tiny_model, tmp_path,
                                               key, value):
        """Values that once raised AttributeError, ran param_spec out of
        memory or sized a position table past NumPy's limit, and token
        budgets or FFN widths other than the fixed ones."""
        path = self._saved(tiny_model, tmp_path)

        def edit(h):
            if key == "hyperparams":
                h[key] = value
            else:
                h["hyperparams"][key] = value
        self._with_header(path, edit)
        with pytest.raises(DataError, match="malformed header"):
            load_checkpoint(path)

    def test_param_spec_matches_init(self, tiny_model):
        spec = tfm.param_spec(tiny_model.hyper, tiny_model.vocab.size)
        assert list(spec) == list(tiny_model.params)
        for name, (shape, _) in spec.items():
            assert tiny_model.params[name].shape == shape

    @pytest.fixture(scope="class")
    def saved_blob(self, tiny_model, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "m.tsgp"
        save_checkpoint(tiny_model, path)
        return path.read_bytes(), path.with_name("mutated.tsgp")

    @settings(max_examples=150, deadline=None)
    @given(edits=st.lists(st.tuples(
        st.sampled_from(["flip", "truncate", "insert"]),
        st.booleans(),  # aim at the magic, length field and JSON header
        st.integers(0, 2 ** 31),
        st.binary(min_size=1, max_size=8)), min_size=1, max_size=3))
    def test_byte_mutations_raise_checkpoint_errors(self, saved_blob, edits):
        from tsgp.cli import main
        blob, path = saved_blob
        header_end = 12 + struct.unpack("<I", blob[8:12])[0]
        blob = bytearray(blob)
        for kind, in_header, pos, data in edits:
            i = pos % max(1, min(header_end, len(blob)) if in_header
                          else len(blob))
            if kind == "flip" and blob:
                blob[i] ^= data[0] or 0xFF
            elif kind == "truncate":
                del blob[i:]
            elif kind == "insert":
                blob[i:i] = data
        path.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
        except DataError:
            assert main(["verify-model", "--model", str(path)]) == 2

    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0xFF800000],
                             ids=["nan", "signalling nan", "-inf"])
    def test_non_finite_weights(self, tiny_model, tmp_path, bits):
        path = self._saved(tiny_model, tmp_path)
        blob = bytearray(path.read_bytes())
        (hlen,) = struct.unpack("<I", blob[8:12])
        entry = next(e for e in json.loads(blob[12:12 + hlen])["tensors"]
                     if e["name"] == "out.b")
        pos = 12 + hlen + entry["offset"] + 4 * 3  # the fourth bias
        blob[pos:pos + 4] = struct.pack("<I", bits)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="tensor out.b has non-finite"):
            load_checkpoint(path)

    def test_corrupt_header(self, tiny_model, tmp_path):
        path = self._saved(tiny_model, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[12] = ord("X")  # break the JSON header
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="unreadable header"):
            load_checkpoint(path)
