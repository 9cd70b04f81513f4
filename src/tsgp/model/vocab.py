"""Token vocabulary shared by training, sampling and checkpoints."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..expr import OPERATORS, PrimitiveSet

PAD, BOS, EOS = 0, 1, 2


@dataclass(frozen=True)
class Vocabulary:
    """Bijective symbol<->id map: PAD, BOS, EOS, operators, variables, constants."""

    symbols: tuple

    @classmethod
    def from_primitives(cls, prims: PrimitiveSet) -> "Vocabulary":
        return cls(symbols=("<pad>", "<bos>", "<eos>")
                   + OPERATORS + prims.variables + prims.constants)

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def _index(self) -> dict:
        return {s: i for i, s in enumerate(self.symbols)}

    def encode(self, tokens) -> list:
        index = self._index
        return [index[t] for t in tokens]

    def decode(self, ids) -> list:
        return [self.symbols[i] for i in ids]

    def to_json(self) -> list:
        return list(self.symbols)

    @classmethod
    def from_json(cls, obj) -> "Vocabulary":
        return cls(symbols=tuple(obj))
