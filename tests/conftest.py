import os

# One BLAS/OpenMP thread, set before NumPy loads its BLAS (as the benchmark's
# env.py does): the timed criteria must not depend on how many processes
# share the host's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from tsgp import expr
from tsgp.corpus import build_corpus, mine_pairs
from tsgp.expr import OPERATORS, PrimitiveSet
from tsgp.model import Hyperparams, Vocabulary
from tsgp.model.transformer import SdTransformer
from tsgp.stdgp import DOUBLE_TOURNAMENT, GPConfig


@pytest.fixture(scope="session")
def prims():
    return PrimitiveSet()


@pytest.fixture(scope="session")
def vocab(prims):
    return Vocabulary.from_primitives(prims)


@pytest.fixture(scope="session")
def tiny_hyper():
    return Hyperparams(d_model=32, n_heads=4, n_encoder_layers=1,
                       n_decoder_layers=1)


@pytest.fixture(scope="session")
def tiny_model(tiny_hyper, vocab):
    return SdTransformer(tiny_hyper, vocab, rng=np.random.default_rng(11))


@pytest.fixture(scope="session")
def operator_heavy_model(vocab):
    """Two layers each side and an output bias towards operators, so that
    samples run into the depth cap and the token budget."""
    model = SdTransformer(Hyperparams(d_model=32, n_heads=4,
                                      n_encoder_layers=2, n_decoder_layers=2),
                          vocab, rng=np.random.default_rng(12))
    for i, sym in enumerate(vocab.symbols):
        if sym in OPERATORS:
            model.params["out.b"][i] += 2.0
    return model


@pytest.fixture(scope="session")
def harvested():
    """A small harvested corpus and its mined pairs (about 1,000 pairs of
    1 to 65 tokens, with the duplicate semantics of real harvests)."""
    gp_cfg = GPConfig(pop_size=100, generations=8, selection=DOUBLE_TOURNAMENT)
    entries, _ = build_corpus(1, gp_cfg, rng=np.random.default_rng(8))
    pairs, _ = mine_pairs(entries, k=3)
    return entries, pairs


@pytest.fixture
def evaluations(monkeypatch):
    """``(tree, inputs)`` for every tree evaluated, in call order. Every
    evaluation, ``expr.evaluate`` included, passes through
    ``expr.evaluate_many``, so that is where they are recorded."""
    seen = []
    many = expr.evaluate_many
    monkeypatch.setattr(
        expr, "evaluate_many",
        lambda trees, X: seen.extend((t, X) for t in trees) or many(trees, X))
    return seen
