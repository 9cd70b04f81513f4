"""Float32 compute against the float64 oracle.

Training and loaded checkpoints run the transformer in float32; a model
built directly is float64. The dtype tests check that a float32 pass holds
no float64 array: one stray float64 bias or position table would promote a
whole step to float64 without failing any other test. The desk tests run
the pinned search checkpoint and a float64 copy of it on 100 ramped parents
and the offspring the copy samples for them.
"""

import hashlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from tsgp import expr
from tsgp.corpus import TrainingPair
from tsgp.model import blocks, load_checkpoint
from tsgp.model.training import AdamWState, adamw_step, grad, make_batch
from tsgp.model.transformer import SELF_KV_CAPACITY, SdTransformer
from tsgp.model.vocab import BOS, PAD
from tsgp.sampler import sample_tokens_batch

DESK_MODEL = (Path(__file__).resolve().parents[1] / "perfbench"
              / "desk_model.tsgp")
# float32 logits may differ from float64 ones by this many float32 ulps of
# the largest logit (the desk model's largest differ by about 5)
LOGIT_ULPS = 32


def _floats(obj):
    """Every floating-point array in ``obj``, through tuples and lists."""
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _floats(item)
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        yield obj


@pytest.fixture
def block_dtypes(monkeypatch):
    """(function, dtype) of every floating-point array that a function of
    ``blocks``, or a method of its packing classes (the packed rows and the
    gathered head grids), returns, as they run. A float64 input (a bias,
    the position table) or temporary shows in some output, unless it is
    only added into a buffer in place."""
    seen = set()

    def spied(fn):
        def spy(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.update((fn.__name__, a.dtype.name) for a in _floats(out))
            return out
        return spy

    for name, obj in list(vars(blocks).items()):
        if getattr(obj, "__module__", None) != blocks.__name__:
            continue
        if inspect.isfunction(obj):
            monkeypatch.setattr(blocks, name, spied(obj))
        elif inspect.isclass(obj):
            for attr, fn in list(vars(obj).items()):
                if inspect.isfunction(fn) and attr != "__init__":
                    monkeypatch.setattr(obj, attr, spied(fn))
    return seen


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_array_of_a_step_has_the_model_dtype(tiny_hyper, vocab,
                                                   harvested, block_dtypes,
                                                   dtype):
    model = SdTransformer(tiny_hyper, vocab, rng=np.random.default_rng(1),
                          dtype=dtype)
    assert model.flat.dtype == dtype and model.positions.dtype == dtype
    batch = make_batch(harvested[1][:16], vocab)
    acts = {}
    logits = model.forward(*batch[:3], acts=acts)
    assert logits.dtype == dtype
    stray = [name for name, act in acts.items()
             if any(a.dtype != dtype for a in _floats(act))]
    assert stray == []
    _, dlogits = blocks.cross_entropy(logits, batch[3])
    assert dlogits.dtype == dtype

    _, grads = grad(model, batch)
    assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}
    state = AdamWState(model.params)
    adamw_step(model, grads, state, lr=1e-3, weight_decay=0.01)
    assert {a.dtype for a in (state.m, state.v, state.g, state.tmp,
                              state.update, model.flat)} == {np.dtype(dtype)}
    assert len(block_dtypes) > 10
    assert {"gather", "gather_live", "unpack", "attention_core",
            "attention_core_backward"} <= {fn for fn, _ in block_dtypes}
    assert {dt for _, dt in block_dtypes} == {np.dtype(dtype).name}, \
        sorted(block_dtypes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_decode_cache_has_the_model_dtype(tiny_hyper, vocab, block_dtypes,
                                          dtype):
    model = SdTransformer(tiny_hyper, vocab, rng=np.random.default_rng(2),
                          dtype=dtype)
    # two parents in two length classes, the shorter with a PAD tail
    enc_ids = np.array([[5, 9, 12, PAD, PAD, PAD, PAD],
                        [4, 7, 8, 3, 10, 11, 15]])
    enc_out, enc_valid = model.encode(enc_ids, np.full(2, 0.1))
    assert enc_out.dtype == dtype
    assert SdTransformer._key_bias(enc_valid, dtype).dtype == dtype
    assert SdTransformer._causal_bias(4, dtype).dtype == dtype
    cache = model.start_decoding(enc_out, enc_valid, np.array([0, 1, 1]))
    ids = np.full((3, 1), BOS)
    for _ in range(SELF_KV_CAPACITY + 4):  # past one capacity doubling
        logits = model.decode(ids, np.full(3, 0.1), cache)
        assert logits.dtype == dtype
        ids = logits[:, -1].argmax(axis=-1)[:, None] % 8 + 3
    assert cache.self_kv[0][0].shape[2] > SELF_KV_CAPACITY
    assert {a.dtype for a in _floats([cache.self_kv, cache.cross_kv,
                                      cache.cross_bias])} == {np.dtype(dtype)}
    assert {dt for _, dt in block_dtypes} == {np.dtype(dtype).name}, \
        sorted(block_dtypes)


@pytest.fixture(scope="module")
def desk():
    """The pinned desk checkpoint, a float64 copy, and a teacher-forcing
    batch of 100 ramped parents (depth 2-5) and the copy's offspring."""
    meta = json.loads(DESK_MODEL.with_suffix(".json").read_text())
    blob = DESK_MODEL.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == meta["sha256"]
    model = load_checkpoint(DESK_MODEL)
    oracle = SdTransformer(model.hyper, model.vocab, params=model.params)
    prims = expr.PrimitiveSet(meta["recipe"]["features"])
    rng = np.random.default_rng(21)
    parents = [expr.serialize_prefix(t)
               for t in expr.ramped_half_and_half(100, 2, 5, prims, rng)]
    rngs = [np.random.default_rng(s)
            for s in rng.integers(0, 2 ** 63, size=len(parents))]
    offspring = sample_tokens_batch(oracle, parents, 0.1, rngs)
    batch = make_batch([TrainingPair(p, o, 0.1)
                        for p, o in zip(parents, offspring)],
                       model.vocab)
    return model, oracle, batch


def test_desk_model_loads_as_float32(desk):
    model, oracle, _ = desk
    assert model.dtype == np.float32 and oracle.dtype == np.float64
    np.testing.assert_array_equal(oracle.flat, model.flat)


def test_desk_cached_decode_matches_teacher_forcing(desk):
    """Every row steps in lockstep; PAD fed after a row's end reaches no
    earlier position of that row, so the non-PAD targets are compared with
    teacher forcing (``forward``)."""
    _, oracle, (enc_ids, sd, dec_ids, targets) = desk
    ref = oracle.forward(enc_ids, sd, dec_ids)
    cache = oracle.start_decoding(*oracle.encode(enc_ids, sd),
                                  np.arange(len(dec_ids)))
    cached = np.concatenate([
        oracle.decode(dec_ids[:, t:t + 1], sd, cache)
        for t in range(dec_ids.shape[1])], axis=1)
    live = targets != PAD
    assert live.sum() > 1000
    np.testing.assert_allclose(cached[live], ref[live], rtol=0, atol=1e-12)


def test_desk_float32_logits_agree_with_float64(desk):
    model, oracle, batch = desk
    live = batch[3] != PAD
    ref = oracle.forward(*batch[:3])[live]
    logits = model.forward(*batch[:3])[live]
    assert logits.dtype == np.float32
    tol = LOGIT_ULPS * np.finfo(np.float32).eps * np.abs(ref).max()
    assert np.abs(logits - ref).max() <= tol
