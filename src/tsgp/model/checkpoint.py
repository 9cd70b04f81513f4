"""Bit-exact binary checkpoint format.

Layout: 8-byte magic ``TSGPMDL1``, little-endian u32 JSON header length,
JSON header (hyperparams, vocabulary, tensor manifest with name/shape/byte
offset), then concatenated little-endian float32 tensor payloads in
manifest order. Saving is deterministic: sorted tensor names, canonical
JSON. The hyperparameters carry two fixed keys: ``max_len``, the token
budget ``expr.MAX_TOKENS`` (100), and ``ffn_dim``, 4 × ``d_model``; a header
with any other value for either is malformed. Loading accepts only the
manifest ``tensor_layout`` gives the header's hyperparameters and
vocabulary, only the vocabulary of its own variable count, and only the
``SD_CONDITIONING`` scheme. A loaded model computes in
float32 on exactly the values that were stored; saving a float64 model
rounds its parameters to float32.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from ..errors import DataError
from .transformer import Hyperparams, SdTransformer, param_spec
from .vocab import Vocabulary, primitives_from_vocab

MAGIC = b"TSGPMDL1"

SD_CONDITIONING = "affine-scalar-prepended"  # the only scheme loaded


def tensor_layout(hyper: Hyperparams, vocab_size: int) -> list:
    """The header's tensor manifest: every parameter in sorted name order,
    with its ``param_spec`` shape and the byte offset of its float32
    payload."""
    spec = param_spec(hyper, vocab_size)
    layout, offset = [], 0
    for name in sorted(spec):
        shape = spec[name][0]
        layout.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 4 * math.prod(shape)
    return layout


def save_checkpoint(model: SdTransformer, path):
    header = {
        "hyperparams": model.hyper.to_json(),
        "vocabulary": model.vocab.to_json(),
        "sd_conditioning": SD_CONDITIONING,
        "tensors": tensor_layout(model.hyper, model.vocab.size),
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for name in sorted(model.params):
            fh.write(model.params[name].astype("<f4").tobytes())


def load_checkpoint(path) -> SdTransformer:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise DataError(f"bad magic {blob[:8]!r}")
    if len(blob) < 12:
        raise DataError("file ends inside the header length field")
    (hlen,) = struct.unpack("<I", blob[8:12])
    if len(blob) < 12 + hlen:
        raise DataError("file ends inside the JSON header")
    try:
        header = json.loads(blob[12:12 + hlen].decode("utf-8"))
    except ValueError as e:  # bad UTF-8 or JSON, or an over-long integer
        raise DataError(f"unreadable header: {e}") from None

    try:
        hyper = Hyperparams.from_json(header["hyperparams"])
        vocab = Vocabulary.from_json(header["vocabulary"])
        # the sampler and search take the primitives from the vocabulary
        prims = primitives_from_vocab(vocab)
        if vocab != Vocabulary.from_primitives(prims):
            raise ValueError("vocabulary is not the one of "
                             f"{prims.n_variables} variables")
        tensors = list(header["tensors"])
        # every layer has tensors: check before param_spec lists them all
        layers = hyper.n_encoder_layers + hyper.n_decoder_layers
        if layers > len(tensors):
            raise ValueError(f"{layers} layers but {len(tensors)} tensors")
        layout = tensor_layout(hyper, vocab.size)
        if header.get("sd_conditioning") != SD_CONDITIONING:
            raise ValueError(
                f"sd_conditioning is {header.get('sd_conditioning')!r}, "
                f"this build reads {SD_CONDITIONING!r}")
    except (AttributeError, KeyError, TypeError, ValueError,
            ArithmeticError) as e:
        raise DataError(f"malformed header: {type(e).__name__}: {e}") from None
    if tensors != layout:
        i = next((i for i, (g, w) in enumerate(zip(tensors, layout))
                  if g != w), min(len(tensors), len(layout)))
        got = tensors[i] if i < len(tensors) else "missing"
        want = layout[i] if i < len(layout) else "nothing"
        raise DataError(f"tensor entry {i} is {got}, the layout has {want}")
    payload = blob[12 + hlen:]
    last = layout[-1]
    end = last["offset"] + 4 * math.prod(last["shape"])
    if len(payload) > end:
        raise DataError(f"payload has {len(payload) - end} trailing bytes")

    params = {}
    for entry in layout:
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        count = math.prod(shape)
        if offset + 4 * count > len(payload):
            raise DataError(f"payload too short for tensor {name}")
        flat = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(flat).all():
            raise DataError(f"tensor {name} has non-finite weights")
        params[name] = flat.reshape(shape)
    return SdTransformer(hyper, vocab, params=params, dtype=np.float32)
