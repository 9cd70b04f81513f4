"""Rebuild the pinned search checkpoint with the desk recipe.

    python3 perfbench/make_checkpoint.py

Runs the repository's own pipeline (corpus -> brute-force pairs -> train)
and writes ``desk_model.tsgp`` plus ``desk_model.json`` (recipe, sha256,
corpus/pair counts) next to this file. The ``search`` workload loads that
file and refuses to run if its digest differs from the recorded one, so a
change to training numerics cannot silently change the search input.
Rebuilding takes about four minutes on one core.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import env  # noqa: F401  (pins BLAS threads and puts src/ on sys.path)

import numpy as np

from tsgp.corpus import build_corpus, mine_pairs
from tsgp.expr import PrimitiveSet
from tsgp.model import Hyperparams, Vocabulary, save_checkpoint, train
from tsgp.stdgp import DOUBLE_TOURNAMENT, GPConfig

RECIPE = {
    "corpus_seed": 12, "problems": 3, "pop": 200, "gens": 15,
    "selection": DOUBLE_TOURNAMENT, "k": 3,
    "d_model": 64, "n_heads": 8, "layers": 2, "epochs": 2,
    "batch_size": 32, "lr": 1e-3, "weight_decay": 0.01,
    "features": 4, "train_seed": 0,
}


def main() -> int:
    t0 = time.perf_counter()
    r = RECIPE
    gp_cfg = GPConfig(pop_size=r["pop"], generations=r["gens"],
                      selection=r["selection"])
    entries, _ = build_corpus(r["problems"], gp_cfg,
                              rng=np.random.default_rng(r["corpus_seed"]))
    pairs, _ = mine_pairs(entries, k=r["k"])
    hyper = Hyperparams(d_model=r["d_model"], n_heads=r["n_heads"],
                        n_encoder_layers=r["layers"],
                        n_decoder_layers=r["layers"], epochs=r["epochs"],
                        batch_size=r["batch_size"], lr=r["lr"],
                        weight_decay=r["weight_decay"])
    vocab = Vocabulary.from_primitives(PrimitiveSet(r["features"]))
    model, curve = train(pairs, hyper, vocab, seed=r["train_seed"])
    save_checkpoint(model, env.CHECKPOINT)
    digest = hashlib.sha256(env.CHECKPOINT.read_bytes()).hexdigest()
    meta = {"recipe": RECIPE, "sha256": digest,
            "corpus_entries": len(entries), "pairs": len(pairs),
            "train_steps": len(curve), "final_loss": curve[-1][1]}
    env.CHECKPOINT_META.write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {env.CHECKPOINT.name} sha256 {digest} "
          f"({len(entries)} entries, {len(pairs)} pairs, {len(curve)} steps, "
          f"{time.perf_counter() - t0:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
