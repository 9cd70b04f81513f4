"""Per-run trace records shared by all three search engines."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field


@dataclass
class GenRecord:
    generation: int
    best_train_rmse: float
    best_size: int


@dataclass
class VariationRecord:
    generation: int
    parent_size: int
    offspring_size: int
    sd_test: float  # NaN when either semantics is non-finite
    structurally_different: bool


@dataclass
class RunTrace:
    method: str
    seed: int
    generations: list = field(default_factory=list)
    variations: list = field(default_factory=list)
    final_best_test_rmse: float = math.nan
    final_best_size: int = 0

    def record(self, generation: int, best_train_rmse: float, best_size: int):
        self.generations.append(GenRecord(generation, best_train_rmse, best_size))

    def log_variation(self, generation: int, parent_size: int, offspring_size: int,
                      sd_test: float, structurally_different: bool):
        self.variations.append(
            VariationRecord(generation, parent_size, offspring_size,
                            sd_test, structurally_different))


def write_trace_csv(trace: RunTrace, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "seed", "generation", "best_train_rmse", "best_size"])
        for g in trace.generations:
            w.writerow([trace.method, trace.seed, g.generation,
                        repr(float(g.best_train_rmse)), g.best_size])


def write_variation_csv(trace: RunTrace, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "seed", "generation", "parent_size",
                    "offspring_size", "sd_test", "structurally_different"])
        for v in trace.variations:
            w.writerow([trace.method, trace.seed, v.generation, v.parent_size,
                        v.offspring_size, repr(float(v.sd_test)),
                        int(v.structurally_different)])
