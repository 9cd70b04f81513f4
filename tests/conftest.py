import numpy as np
import pytest

from tsgp.expr import OPERATORS, PrimitiveSet
from tsgp.model import Hyperparams, Vocabulary
from tsgp.model.transformer import SdTransformer


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
            model.params["out.b"].data[i] += 2.0
    return model
