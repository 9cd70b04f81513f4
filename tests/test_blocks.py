"""Each block's hand-derived backward against the tape-built reference.

Every case draws a batch shape, PAD positions (rows whose only valid key is
the SD slot among them) and random parameters, runs the block forward and
backward on plain arrays, and runs the same block built from ``autodiff``
ops. Outputs must agree exactly, gradients to 1e-10 relative by norm. The
blocks take packed rows; here every cell of the (B, T) grid is a row and
the attention core runs once over the whole grid, as the tape does.
Packing PAD cells away is checked on the whole model, in ``test_model``.
The row reductions both sides share are checked against NumPy's own at the
end.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tsgp.model import Hyperparams, blocks
from tsgp.model.autodiff import Tensor
from tsgp.model.transformer import NEG_BIAS, SdTransformer
from tsgp.model.vocab import PAD

import tape_reference
from tape_reference import TapeModel, backprop

H = 2
CASES = dict(seed=st.integers(0, 2**32 - 1), B=st.integers(1, 4),
             T=st.integers(1, 9), Tk=st.integers(1, 9))


def _model(vocab, seed: int) -> SdTransformer:
    """One layer each side, every parameter drawn at a scale where biases
    and gains matter."""
    model = SdTransformer(Hyperparams(d_model=8, n_heads=H,
                                      n_encoder_layers=1, n_decoder_layers=1),
                          vocab, rng=np.random.default_rng(seed))
    model.flat[:] = np.random.default_rng(seed).normal(0.0, 0.5,
                                                       model.flat.size)
    return model


def _valid(rng, B: int, T: int) -> np.ndarray:
    """Key-validity masks with a valid slot 0, PAD tails of random length,
    and an all-PAD row whenever B > 1."""
    lengths = rng.integers(1, T + 1, size=B)
    if B > 1:
        lengths[rng.integers(B)] = 1
    return np.arange(T)[None, :] < lengths[:, None]


def _grid_span(B: int, T: int) -> blocks.Span:
    """Every cell of a (B, T) grid as a packed row, in one span."""
    return blocks.Span(blocks.Packing(np.ones((B, T), dtype=bool)),
                       np.arange(B))


def _check(grads: dict, ref: dict, dx=None, ref_dx=None):
    scale = max(np.abs(g).max() for g in ref.values())
    for name, g in ref.items():
        if name.endswith(".bk"):
            # a bias shared by all keys shifts every score of a query alike,
            # so its exact gradient is 0; both sides are rounding noise
            assert np.abs(grads[name]).max() < 1e-15 * scale, name
            assert np.abs(g).max() < 1e-15 * scale, name
            continue
        err = np.linalg.norm(grads[name] - g)
        assert err <= 1e-10 * np.linalg.norm(g), name
    if dx is not None:
        assert np.linalg.norm(dx - ref_dx) <= 1e-10 * np.linalg.norm(ref_dx)


def _run(model, tape, out, ref_out, backward, rng):
    """Back-propagate one random upstream gradient through both sides;
    returns the block's input gradient and the parameter gradients."""
    np.testing.assert_array_equal(out, ref_out.data)
    g = rng.standard_normal(out.shape)
    grads = model.views(np.zeros_like(model.flat))
    d_in = backward(g, grads)
    backprop(ref_out, g)
    return d_in, grads, tape.grads()


@settings(max_examples=40, deadline=None)
@given(**CASES)
def test_embed(vocab, seed, B, T, Tk):
    rng = np.random.default_rng(seed)
    model = _model(vocab, seed)
    tape = TapeModel(model)
    ids = rng.integers(3, vocab.size, size=(B, T))
    ids[~_valid(rng, B, T)] = PAD
    sd = rng.uniform(0.0, 2.0, size=B)
    rows = blocks.Packing(np.ones((B, T + 1), dtype=bool))
    grid = np.pad(ids, ((0, 0), (1, 0)))  # column 0 is the SD slot
    acts = {}
    out = blocks.embed(model.params, "enc", rows.pack(grid), sd, rows.starts,
                       model.positions[rows.cols], acts)
    _, grads, ref = _run(model, tape, out.reshape(B, T + 1, 8),
                         tape.embed(ids, sd),
                         lambda g, grads: blocks.embed_backward(
                             "enc", g.reshape(-1, 8), acts, grads), rng)
    _check(grads, ref)


@settings(max_examples=40, deadline=None)
@given(**CASES)
def test_layer_norm(vocab, seed, B, T, Tk):
    rng = np.random.default_rng(seed)
    model = _model(vocab, seed)
    tape = TapeModel(model)
    x = rng.standard_normal((B, T, 8)) * 3.0 + rng.standard_normal((B, T, 1))
    x_t, acts = Tensor(x, True), {}
    out = blocks.layer_norm(model.params, "enc.0.ln1", x, acts)
    dx, grads, ref = _run(model, tape, out, tape.ln("enc.0.ln1", x_t),
                          lambda g, grads: blocks.layer_norm_backward(
                              model.params, "enc.0.ln1", g, acts, grads), rng)
    _check(grads, ref, dx, x_t.grad)


@settings(max_examples=40, deadline=None)
@given(causal=st.booleans(), **CASES)
def test_self_attention(vocab, causal, seed, B, T, Tk):
    rng = np.random.default_rng(seed)
    model = _model(vocab, seed)
    tape = TapeModel(model)
    prefix = "dec.0.self" if causal else "enc.0.attn"
    bias = SdTransformer._key_bias(_valid(rng, B, T))
    if causal:
        bias = bias + SdTransformer._causal_bias(T)[None, None]
    x = rng.standard_normal((B, T, 8))
    x_t, acts = Tensor(x, True), {}
    span = _grid_span(B, T)
    out = blocks.self_attention(model.params, prefix, x.reshape(-1, 8),
                                [(span, span, bias)], H, acts)
    (_, _, _, att), = acts[prefix][1]
    np.testing.assert_allclose(att.sum(axis=-1), 1.0, atol=1e-12)
    dx, grads, ref = _run(model, tape, out.reshape(B, T, 8),
                          tape.mha(prefix, x_t, x_t, bias),
                          lambda g, grads: blocks.self_attention_backward(
                              model.params, prefix, g.reshape(-1, 8), acts,
                              grads).reshape(B, T, 8), rng)
    _check(grads, ref, dx, x_t.grad)


@settings(max_examples=40, deadline=None)
@given(**CASES)
def test_cross_attention(vocab, seed, B, T, Tk):
    """Decoder length ``T`` and encoder length ``Tk`` are drawn apart."""
    rng = np.random.default_rng(seed)
    model = _model(vocab, seed)
    tape = TapeModel(model)
    bias = SdTransformer._key_bias(_valid(rng, B, Tk))
    x, enc = rng.standard_normal((B, T, 8)), rng.standard_normal((B, Tk, 8))
    x_t, enc_t, acts = Tensor(x, True), Tensor(enc, True), {}
    groups = [(_grid_span(B, T), _grid_span(B, Tk), bias)]
    out = blocks.cross_attention(model.params, "dec.0.cross",
                                 x.reshape(-1, 8), enc.reshape(-1, 8), groups,
                                 H, acts)
    d_in, grads, ref = _run(model, tape, out.reshape(B, T, 8),
                            tape.mha("dec.0.cross", x_t, enc_t, bias),
                            lambda g, grads: blocks.cross_attention_backward(
                                model.params, "dec.0.cross",
                                g.reshape(-1, 8), acts, grads), rng)
    dx, denc = d_in[0].reshape(B, T, 8), d_in[1].reshape(B, Tk, 8)
    _check(grads, ref, dx, x_t.grad)
    assert (np.linalg.norm(denc - enc_t.grad)
            <= 1e-10 * np.linalg.norm(enc_t.grad))


@settings(max_examples=40, deadline=None)
@given(**CASES)
def test_ffn(vocab, seed, B, T, Tk):
    rng = np.random.default_rng(seed)
    model = _model(vocab, seed)
    tape = TapeModel(model)
    x = rng.standard_normal((B, T, 8))
    x_t, acts = Tensor(x, True), {}
    out = blocks.ffn(model.params, "enc.0.ffn", x, acts)
    dx, grads, ref = _run(model, tape, out, tape.ffn("enc.0.ffn", x_t),
                          lambda g, grads: blocks.ffn_backward(
                              model.params, "enc.0.ffn", g, acts, grads), rng)
    _check(grads, ref, dx, x_t.grad)


@settings(max_examples=40, deadline=None)
@given(**CASES)
def test_head_and_cross_entropy(vocab, seed, B, T, Tk):
    """Final layer norm, output projection and the masked token loss."""
    rng = np.random.default_rng(seed)
    model = _model(vocab, seed)
    tape = TapeModel(model)
    p = model.params
    x = rng.standard_normal((B, T, 8))
    targets = rng.integers(1, vocab.size, size=(B, T))
    targets[~_valid(rng, B, T)] = PAD
    acts, grads = {}, model.views(np.zeros_like(model.flat))
    logits = blocks.head(p, x, acts)
    loss, dlogits = blocks.cross_entropy(logits, targets)
    dx = blocks.head_backward(p, dlogits, acts, grads)

    x_t = Tensor(x, True)
    ref_logits = tape.head(x_t)
    np.testing.assert_array_equal(logits, ref_logits.data)
    ref_loss = tape_reference.loss(ref_logits, targets)
    ref_loss.backward()
    assert abs(loss - float(ref_loss.data)) <= 1e-12 * float(ref_loss.data)
    _check(grads, tape.grads(), dx, x_t.grad)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 130),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_row_reductions(seed, width, dtype):
    """``_row_max`` is bit-equal to ``max``; ``_row_sums``/``_row_means``
    agree with ``sum``/``mean`` to a dtype tolerance relative to the sum of
    magnitudes; ``softmax_rows`` is exactly 0 at masked cells and its rows
    sum to 1. Row 0 has only its last cell live, every row some cell."""
    rng = np.random.default_rng(seed)
    scores = (rng.standard_normal((3, 2, width)) * 10).astype(dtype)
    live = rng.integers(width, size=(3, 2, 1))
    live[0, 0] = width - 1
    masked = rng.random(scores.shape) < 0.4
    masked[0, 0] = True
    np.put_along_axis(masked, live, False, axis=-1)
    biased = scores + np.where(masked, dtype(NEG_BIAS), dtype(0))
    for a in (scores, biased):
        m = blocks._row_max(a)
        assert m.dtype == dtype
        np.testing.assert_array_equal(m, a.max(axis=-1, keepdims=True))

    tol = 1e-6 if dtype == np.float32 else 1e-14
    magnitude = np.abs(scores).sum(axis=-1, keepdims=True)
    sums, means = blocks._row_sums(scores), blocks._row_means(scores)
    assert sums.dtype == means.dtype == dtype
    assert np.all(np.abs(sums - scores.sum(axis=-1, keepdims=True))
                  <= tol * magnitude)
    assert np.all(np.abs(means - scores.mean(axis=-1, keepdims=True))
                  <= tol * magnitude / width)

    att = blocks.softmax_rows(biased.copy())
    assert att.dtype == dtype
    assert np.all(att[masked] == 0)
    assert np.all(att[0, 0, :-1] == 0) and att[0, 0, -1] == 1
    np.testing.assert_allclose(att.sum(axis=-1), 1.0, rtol=0, atol=1e-6)
