"""Bit-exact binary checkpoint format.

Layout: 8-byte magic ``TSGPMDL1``, little-endian u32 JSON header length,
JSON header (hyperparams, vocabulary, tensor manifest with name/shape/byte
offset), then concatenated little-endian float32 tensor payloads in
manifest order. Saving is deterministic: sorted tensor names, canonical
JSON. Loading reproduces exactly the float32 values that were stored.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ..errors import DataError
from .transformer import Hyperparams, SdTransformer, param_spec
from .vocab import Vocabulary

MAGIC = b"TSGPMDL1"

SD_CONDITIONING = "affine-scalar-prepended"  # recorded for provenance


def save_checkpoint(model: SdTransformer, path):
    names = sorted(model.params)
    manifest = []
    offset = 0
    payloads = []
    for name in names:
        data = model.params[name].astype("<f4")
        manifest.append({"name": name, "shape": list(data.shape),
                         "offset": offset})
        payloads.append(data.tobytes())
        offset += data.nbytes
    header = {
        "hyperparams": model.hyper.to_json(),
        "vocabulary": model.vocab.to_json(),
        "sd_conditioning": SD_CONDITIONING,
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for p in payloads:
            fh.write(p)


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
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"unreadable header: {e}") from None

    try:
        hyper = Hyperparams.from_json(header["hyperparams"])
        vocab = Vocabulary.from_json(header["vocabulary"])
        manifest = [(str(e["name"]), tuple(e["shape"]), e["offset"])
                    for e in header["tensors"]]
        # every layer has tensors: check before param_spec lists them all
        layers = hyper.n_encoder_layers + hyper.n_decoder_layers
        if layers > len(manifest):
            raise ValueError(f"{layers} layers but {len(manifest)} tensors")
        spec = param_spec(hyper, vocab.size)
    except (AttributeError, KeyError, TypeError, ValueError,
            ArithmeticError) as e:
        raise DataError(f"malformed header: {type(e).__name__}: {e}") from None
    payload = blob[12 + hlen:]

    params = {}
    expected_offset = 0
    for name, shape, offset in manifest:
        if name in params or name not in spec:
            raise DataError(f"unexpected tensor {name!r}")
        if shape != spec[name][0]:
            raise DataError(
                f"tensor {name} has shape {shape}, expected {spec[name][0]}")
        nbytes = int(np.prod(shape)) * 4
        if offset != expected_offset:
            raise DataError(
                f"tensor {name} offset {offset} != {expected_offset}")
        if offset + nbytes > len(payload):
            raise DataError(f"payload too short for tensor {name}")
        flat = np.frombuffer(payload, dtype="<f4", count=int(np.prod(shape)),
                             offset=offset)
        if not np.isfinite(flat).all():
            raise DataError(f"tensor {name} has non-finite weights")
        params[name] = flat.reshape(shape).astype(np.float64)
        expected_offset += nbytes
    if expected_offset != len(payload):
        raise DataError(
            f"payload has {len(payload) - expected_offset} trailing bytes")
    if len(params) != len(spec):
        missing = sorted(set(spec) - set(params))
        raise DataError(f"missing tensors {missing}")
    return SdTransformer(hyper, vocab, params=params)
