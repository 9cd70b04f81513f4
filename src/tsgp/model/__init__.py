"""SD-conditioned encoder-decoder transformer: forward/backward, training,
checkpointing."""

from .vocab import Vocabulary
from .transformer import Hyperparams, SdTransformer
from .training import train, adamw_step
from .checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Vocabulary", "Hyperparams", "SdTransformer",
    "train", "adamw_step",
    "save_checkpoint", "load_checkpoint",
]
