"""SD-conditioned encoder-decoder transformer: forward/backward, training,
checkpointing."""

from .vocab import Vocabulary
from .transformer import Hyperparams, SdTransformer, SequenceTooLongError
from .training import train, adamw_step, NonFiniteLossError
from .checkpoint import (save_checkpoint, load_checkpoint, CheckpointError,
                         BadMagicError, ManifestMismatchError, TruncatedError)

__all__ = [
    "Vocabulary", "Hyperparams", "SdTransformer", "SequenceTooLongError",
    "train", "adamw_step", "NonFiniteLossError",
    "save_checkpoint", "load_checkpoint",
    "CheckpointError", "BadMagicError", "ManifestMismatchError",
    "TruncatedError",
]
