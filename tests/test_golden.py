"""Golden pins for the sampler, the baseline engines, harvesting and training.

The sampler digests were recorded with the uncached reference sampler, which
re-ran the whole decoder over the prefix for every token. Any change to how
offspring are sampled must keep them byte-identical.

The stdgp, slim and corpus digests were recorded when every logged variation
re-evaluated parent and child on the test inputs (slim through
``slim_evaluate``). Caching semantics must keep them byte-identical.

The variation-probe report and the brute-force mined pairs were recorded
when subtree variation rebuilt each parent's whole node list and child tree
and the three k-NN paths each had their own exclude-and-order code.

The rng states after seeded stdgp, slim and tsgp runs and the resampling
tsgp trace were recorded when each engine ran its own generational loop.

The training losses were recorded when a step became one teacher-forced
pass on packed rows, with attention per power-of-two length class (before
that a step ran in length groups, and first as one pass over the whole
padded batch). A change to how a step is computed may move them by float
summation order only. The float32 curve must also stay within float32
rounding of the float64 one.

The checkpoint bytes were recorded when ``Hyperparams`` still had
``max_len`` and ``ffn_dim`` fields; the header keeps both keys at their
fixed values, so a saved file is byte-identical.
"""

import hashlib

import numpy as np
import pytest

from tsgp import bench, corpus, expr
from tsgp.model import save_checkpoint, train, training
from tsgp.model.transformer import SdTransformer
from tsgp.sampler import SearchConfig, run_tsgp, sample_tokens_batch
from tsgp.slim import SlimConfig, run_slim
from tsgp.stdgp import DOUBLE_TOURNAMENT, GPConfig, run_stdgp

TRACE_DIGESTS = {
    0: "989687d4ab64b6a164a18a90bca8cd7a10e7a5d9e2e6eec0e4da4c79a6b59cda",
    1: "14bebbd737a483cd69eab27614ac16b3065b69523ec5296279da7a1ac222620d",
}
BATCH_DIGEST = (
    "bc953744660efa4d932e69e62de79fe2e46f22757324624d2c8d39b7e45c21b0")
DEEP_BATCH_DIGEST = (
    "869ac0512cdef2f0871ed00bf473c73f7ae4bb1044634c617b0a21caf32e9bc4")
# bench.run_method(method, golden dataset, seed 7, 6 generations, pop 40)
ENGINE_DIGESTS = {
    "stdgp": "aa7d9b7916164590dbbf113b39cbe2eda94437902c880411982aadd6891f2d6c",
    "slim": "84a7a909869baa90ded421497a41a5d72bdd4781b911844d47c89cd6abd44141",
}
# build_corpus(2 problems, double tournament pop 60 x 6 generations, seed 12)
CORPUS_DIGEST = (
    "8b867d8e8b30536e10ad4d0c852a7a7bbc400105db4514676c750752b5ee7a1a")
# bench.variation_probe(tiny model, golden dataset 2, 48 parents, seed 9)
PROBE_DIGEST = (
    "415065b1a68f676e5c0a19e2d89e2edf3f0ecf7518eeecc9377cfb00631c7433")
# mine_pairs(harvested entries, k=3), brute force
MINED_PAIRS_DIGEST = (
    "cca04db1c39fd2a7d10c917e47a25b9fe199eb0f8f2f82da2002b0744e16f17a")
# rng state after seeded_run(method, ...), stdgp logged or not
RNG_STATES = {
    method: f"{state} c4751896ce8acebf66887f5ac070d959"
    for method, state in (("slim", "b097f5b50a47c42234d52edcd05787a4"),
                          ("stdgp", "afae484d3637324452f56a6f8983cb27"),
                          ("tsgp", "cf18791421bf2650b5c57eeae06b8fb2"))}
# seeded_run("tsgp", v1_biased_model), logged: rows resampled, some
# children still token-identical to their parents
RESAMPLED_DIGESTS = {
    True: "6fae45fc34a2b13cdcaaffdf46fae12fc0b83fa90be52cef0e2e6bd77c3fe93d",
}
# train(harvested pairs, tiny hyperparameters, seed=5): losses of steps 0-29
TRAIN_LOSSES = (
    3.0766491889953613, 3.057046890258789, 3.0432465076446533,
    3.022573947906494, 3.003439426422119, 2.969550371170044,
    2.9753453731536865, 2.9651505947113037, 2.933419942855835,
    2.917025089263916, 2.929093599319458, 2.8989245891571045,
    2.896040201187134, 2.9040756225585938, 2.862825393676758,
    2.8736095428466797, 2.8568599224090576, 2.84798264503479,
    2.822375774383545, 2.8100757598876953, 2.8156304359436035,
    2.8008029460906982, 2.8082242012023926, 2.7507309913635254,
    2.815610885620117, 2.8177740573883057, 2.7549099922180176,
    2.7433698177337646, 2.746084213256836, 2.7312231063842773)
# the same run with training.DTYPE float64
TRAIN_LOSSES_FLOAT64 = (
    3.0766494198533305, 3.0570468304699934, 3.043246559246868,
    3.0225738234245902, 3.003439360186674, 2.9695504865769826,
    2.975345527363588, 2.965150567553734, 2.9334200924508953,
    2.917024999800599, 2.9290937162030684, 2.8989246119727463,
    2.896040291974632, 2.90407574497386, 2.8628254030562186,
    2.873609642636939, 2.856859930374055, 2.847982681104157,
    2.822375595185265, 2.810075815301692, 2.815630368595292,
    2.80080285170597, 2.808224127473244, 2.750731064290393,
    2.815610798543696, 2.817773973969753, 2.7549099538444612,
    2.7433698096343404, 2.746084316117382, 2.731222947008598)

# save_checkpoint(tiny_model): magic, header and float32 payload
CHECKPOINT_DIGEST = (
    "64ff457f40ddd7db2194ffbbdd719b7c94e285aecadf6588a4bd101b9e69bfa1")


@pytest.fixture(scope="module")
def v1_biased_model(tiny_hyper, vocab):
    """``tiny_model`` with an output bias towards ``v1``: once parents are
    ``v1``, offspring come back token-identical and are resampled."""
    model = SdTransformer(tiny_hyper, vocab, rng=np.random.default_rng(11))
    model.params["out.b"][vocab.symbols.index("v1")] += 6.0
    return model


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def trace_lines(tr) -> list:
    lines = [f"g {g.generation} {float(g.best_train_rmse).hex()} {g.best_size}"
             for g in tr.generations]
    lines += [f"v {v.generation} {v.parent_size} {v.offspring_size} "
              f"{float(v.sd_test).hex()} {int(v.structurally_different)}"
              for v in tr.variations]
    lines.append(f"f {float(tr.final_best_test_rmse).hex()} "
                 f"{tr.final_best_size}")
    return lines


def golden_dataset(problem: int):
    prob = corpus.gen_synthetic_problem(4, 60, 0.1,
                                        np.random.default_rng(50 + problem))
    return bench.make_dataset("golden", prob.X, prob.y, problem)


def seeded_search(model, problem: int):
    cfg = SearchConfig(pop_size=20, generations=5)
    return run_tsgp(model, golden_dataset(problem), cfg,
                    np.random.default_rng(problem))


def seeded_run(method: str, model, log_variations: bool = True):
    """One seeded run of an engine on golden problem 1: (trace, rng). Only
    stdgp runs unlogged."""
    rng = np.random.default_rng(7)
    dataset = golden_dataset(1)
    if method == "stdgp":
        tr = run_stdgp(GPConfig(pop_size=40, generations=6), dataset, rng,
                       log_variations=log_variations)
    elif method == "slim":
        tr = run_slim(SlimConfig(pop_size=40, generations=6), dataset, rng)
    else:
        tr = run_tsgp(model, dataset, SearchConfig(pop_size=20, generations=5),
                      rng)
    return tr, rng


def rng_state(rng) -> str:
    state = rng.bit_generator.state["state"]
    return f"{state['state']:x} {state['inc']:x}"


def corpus_lines(entries) -> list:
    return [f"{e.id} {e.problem_id} {' '.join(e.tokens)} "
            + " ".join(float(x).hex() for x in e.semantics) for e in entries]


def seeded_corpus():
    cfg = GPConfig(pop_size=60, generations=6, selection=DOUBLE_TOURNAMENT)
    entries, points = corpus.build_corpus(2, cfg,
                                          rng=np.random.default_rng(12))
    return corpus_lines(entries) + [" ".join(float(x).hex()
                                             for x in points.ravel())]


def probe_lines(report) -> list:
    return [f"{key} {float(value).hex()}" for key, value
            in sorted(report.items())]


def pair_lines(pairs, dropped) -> list:
    return [f"{' '.join(p.input_tokens)} > {' '.join(p.output_tokens)} "
            f"{float(p.sd).hex()}" for p in pairs] + [f"dropped {dropped}"]


def seeded_batch(model, prims) -> list:
    rng = np.random.default_rng(2024)
    parents = expr.ramped_half_and_half(64, 2, 6, prims, rng)
    rngs = [np.random.default_rng(s)
            for s in rng.integers(0, 2 ** 63, size=64)]
    return sample_tokens_batch(
        model, [expr.serialize_prefix(p) for p in parents], 0.1, rngs)


@pytest.mark.parametrize("problem", sorted(TRACE_DIGESTS))
def test_seeded_trace_pinned(tiny_model, problem):
    tr = seeded_search(tiny_model, problem)
    assert _sha(trace_lines(tr)) == TRACE_DIGESTS[problem]


@pytest.mark.parametrize("method", sorted(ENGINE_DIGESTS))
def test_seeded_engine_trace_pinned(method):
    tr = bench.run_method(method, golden_dataset(1), 7, generations=6,
                          pop_size=40)
    assert sum(v.structurally_different for v in tr.variations) > 0
    assert _sha(trace_lines(tr)) == ENGINE_DIGESTS[method]


@pytest.mark.parametrize("method,logged", [("slim", True), ("stdgp", True),
                                           ("stdgp", False), ("tsgp", True)])
def test_rng_state_after_run_pinned(tiny_model, method, logged):
    _, rng = seeded_run(method, tiny_model, logged)
    assert rng_state(rng) == RNG_STATES[method]


def test_unlogged_stdgp_trace_is_the_logged_one_without_variations(
        tiny_model):
    tr, _ = seeded_run("stdgp", tiny_model, False)
    logged, _ = seeded_run("stdgp", tiny_model)
    assert tr.variations == [] and logged.variations
    assert trace_lines(tr) == [line for line in trace_lines(logged)
                               if not line.startswith("v ")]


@pytest.mark.parametrize("logged", sorted(RESAMPLED_DIGESTS))
def test_resampled_search_pinned(v1_biased_model, logged):
    tr, rng = seeded_run("tsgp", v1_biased_model, logged)
    unvaried = sum(not v.structurally_different for v in tr.variations)
    assert unvaried == 35
    assert _sha(trace_lines(tr)) == RESAMPLED_DIGESTS[logged]
    assert rng_state(rng) == RNG_STATES["tsgp"]


def test_harvested_corpus_pinned():
    assert _sha(seeded_corpus()) == CORPUS_DIGEST


def test_variation_probe_pinned(tiny_model):
    report = bench.variation_probe(tiny_model, golden_dataset(2), 48, seed=9)
    assert report["n_parents"] == 48
    assert _sha(probe_lines(report)) == PROBE_DIGEST


def test_brute_force_mined_pairs_pinned(harvested):
    entries, _ = harvested
    pairs, dropped = corpus.mine_pairs(entries, k=3)
    assert len(pairs) > 500
    assert _sha(pair_lines(pairs, dropped)) == MINED_PAIRS_DIGEST


def test_checkpoint_bytes_pinned(tiny_model, tmp_path):
    path = tmp_path / "m.tsgp"
    save_checkpoint(tiny_model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_DIGEST


def test_seeded_batch_tokens_pinned(tiny_model, prims):
    tokens = seeded_batch(tiny_model, prims)
    assert _sha(" ".join(t) for t in tokens) == BATCH_DIGEST


def test_operator_heavy_batch_tokens_pinned(operator_heavy_model, prims):
    tokens = seeded_batch(operator_heavy_model, prims)
    assert max(len(t) for t in tokens) > 50
    assert _sha(" ".join(t) for t in tokens) == DEEP_BATCH_DIGEST


def seeded_losses(hyper, vocab, harvested) -> list:
    _, curve = train(harvested[1], hyper, vocab, seed=5,
                     max_steps=len(TRAIN_LOSSES))
    return [loss for _, loss in curve]


@pytest.fixture(scope="module")
def float32_losses(tiny_hyper, vocab, harvested):
    return seeded_losses(tiny_hyper, vocab, harvested)


def test_seeded_training_losses_pinned(float32_losses):
    np.testing.assert_allclose(float32_losses, TRAIN_LOSSES, rtol=1e-9,
                               atol=0)


def test_float32_training_follows_float64(float32_losses):
    np.testing.assert_allclose(float32_losses, TRAIN_LOSSES_FLOAT64,
                               rtol=1e-6, atol=0)


def test_float64_training_losses_pinned(tiny_hyper, vocab, harvested,
                                        monkeypatch):
    monkeypatch.setattr(training, "DTYPE", np.float64)
    losses = seeded_losses(tiny_hyper, vocab, harvested)
    np.testing.assert_allclose(losses, TRAIN_LOSSES_FLOAT64, rtol=1e-9,
                               atol=0)
