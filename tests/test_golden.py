"""Golden pins for the sampler: seeded traces and sampled tokens.

The digests were recorded with the uncached reference sampler, which re-ran
the whole decoder over the prefix for every token. Any change to how
offspring are sampled must keep them byte-identical.
"""

import hashlib

import numpy as np
import pytest

from tsgp import bench, corpus, expr
from tsgp.sampler import SearchConfig, run_tsgp, sample_tokens_batch

TRACE_DIGESTS = {
    0: "989687d4ab64b6a164a18a90bca8cd7a10e7a5d9e2e6eec0e4da4c79a6b59cda",
    1: "14bebbd737a483cd69eab27614ac16b3065b69523ec5296279da7a1ac222620d",
}
BATCH_DIGEST = (
    "bc953744660efa4d932e69e62de79fe2e46f22757324624d2c8d39b7e45c21b0")
DEEP_BATCH_DIGEST = (
    "869ac0512cdef2f0871ed00bf473c73f7ae4bb1044634c617b0a21caf32e9bc4")


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


def seeded_search(model, problem: int):
    prob = corpus.gen_synthetic_problem(4, 60, 0.1,
                                        np.random.default_rng(50 + problem))
    ds = bench.make_dataset("golden", prob.X, prob.y, problem)
    cfg = SearchConfig(pop_size=20, generations=5)
    return run_tsgp(model, ds, cfg, np.random.default_rng(problem))


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


def test_seeded_batch_tokens_pinned(tiny_model, prims):
    tokens = seeded_batch(tiny_model, prims)
    assert _sha(" ".join(t) for t in tokens) == BATCH_DIGEST


def test_operator_heavy_batch_tokens_pinned(operator_heavy_model, prims):
    tokens = seeded_batch(operator_heavy_model, prims)
    assert max(len(t) for t in tokens) > 50
    assert _sha(" ".join(t) for t in tokens) == DEEP_BATCH_DIGEST
