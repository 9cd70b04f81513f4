"""Additive geometric-semantic baseline with inflate and deflate operators.

An individual is a base tree plus an ordered list of blocks; its output is

    evaluate(base) + sum_i ms_i * (sigmoid(evaluate(R1_i)) - sigmoid(evaluate(R2_i)))

Train-set semantics are cached and updated incrementally by the operators;
a block keeps its train contribution, so deflate subtracts it without
evaluating the block again. Test-set semantics, needed only to log
variations, are built from parts that are each evaluated once per run: the
base tree's output, which children inherit, and each block's contribution,
which the block keeps.
No geometric crossover: variation is inflate (probability ``INFLATE_PROB``)
or deflate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr, semantics
from .expr import Node, PrimitiveSet
from .stdgp import TOURNAMENT_SIZE, evolve, tournament_select
from .trace import RunTrace

INFLATE_PROB = 0.2


def sigmoid(t: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


@dataclass
class Block:
    ms: float
    r1: Node
    r2: Node
    train_semantics: np.ndarray = field(default=None, compare=False, repr=False)
    test_semantics: np.ndarray = field(default=None, compare=False, repr=False)

    @cached_property
    def size(self) -> int:
        return expr.size(self.r1) + expr.size(self.r2)

    def contribution(self, X: np.ndarray) -> np.ndarray:
        return self.ms * (sigmoid(expr.evaluate(self.r1, X))
                          - sigmoid(expr.evaluate(self.r2, X)))

    def semantics_on_train(self, X_train) -> np.ndarray:
        """Contribution on the run's train inputs, evaluated on first use."""
        if self.train_semantics is None:
            self.train_semantics = self.contribution(X_train)
        return self.train_semantics

    def semantics_on_test(self, X_test) -> np.ndarray:
        """Contribution on the run's test inputs, evaluated on first use."""
        if self.test_semantics is None:
            self.test_semantics = self.contribution(X_test)
        return self.test_semantics


@dataclass
class SlimIndividual:
    base: Node
    blocks: list = field(default_factory=list)
    train_semantics: np.ndarray = None
    fitness: float = math.inf
    # base tree's output on the test inputs, shared by all its descendants
    base_test: np.ndarray = field(default=None, compare=False, repr=False)
    test_semantics: np.ndarray = field(default=None, compare=False, repr=False)

    @cached_property
    def size(self) -> int:
        return expr.size(self.base) + sum(b.size for b in self.blocks)

    def semantics_on_test(self, X_test) -> np.ndarray:
        """``slim_evaluate(self, X_test)`` from the cached parts, summed in
        the same order, so the result is bit-identical."""
        if self.test_semantics is None:
            if self.base_test is None:
                self.base_test = expr.evaluate(self.base, X_test)
            out = self.base_test
            for b in self.blocks:
                out = out + b.semantics_on_test(X_test)
            self.test_semantics = out
        return self.test_semantics


def slim_evaluate(ind: SlimIndividual, X: np.ndarray) -> np.ndarray:
    """Full (non-cached) evaluation on arbitrary inputs."""
    out = expr.evaluate(ind.base, X)
    for b in ind.blocks:
        out = out + b.contribution(X)
    return out


def _with_fitness(ind: SlimIndividual, y_train) -> SlimIndividual:
    ind.fitness = semantics.rmse(y_train, ind.train_semantics)
    return ind


def make_individuals(bases: list, X_train, y_train) -> list:
    """Individuals with no blocks, their train semantics from one batched
    evaluation of ``bases``."""
    return [_with_fitness(SlimIndividual(base=base, train_semantics=out),
                          y_train)
            for base, out in zip(bases, expr.evaluate_many(bases, X_train))]


def inflate(ind: SlimIndividual, prims: PrimitiveSet, rng: np.random.Generator,
            X_train, y_train) -> SlimIndividual:
    """Append one block: ms ~ U(0,1), R1/R2 fresh GROW trees of depth <= 2."""
    block = Block(ms=float(rng.random()),
                  r1=expr.random_tree(expr.GROW, 0, 2, prims, rng),
                  r2=expr.random_tree(expr.GROW, 0, 2, prims, rng))
    child = SlimIndividual(
        base=ind.base,
        blocks=ind.blocks + [block],
        train_semantics=(ind.train_semantics
                         + block.semantics_on_train(X_train)),
        base_test=ind.base_test)
    return _with_fitness(child, y_train)


def deflate(ind: SlimIndividual, rng: np.random.Generator,
            X_train, y_train) -> SlimIndividual:
    """Remove one uniformly chosen block; the base tree is never removed."""
    if not ind.blocks:
        return ind
    i = int(rng.integers(len(ind.blocks)))
    removed = ind.blocks[i]
    child = SlimIndividual(
        base=ind.base,
        blocks=ind.blocks[:i] + ind.blocks[i + 1:],
        train_semantics=(ind.train_semantics
                         - removed.semantics_on_train(X_train)),
        base_test=ind.base_test)
    return _with_fitness(child, y_train)


@dataclass
class SlimConfig:
    pop_size: int = 100
    generations: int = 50
    init_depth_min: int = 2
    init_depth_max: int = 5


def run_slim(config: SlimConfig, dataset, rng: np.random.Generator,
             log_variations: bool = True) -> RunTrace:
    """Generational loop; trace schema identical to the stdGP engine.

    With ``log_variations`` a parent's test semantics are filled before it
    is varied, so its child inherits the base tree's test output.
    """
    prims = PrimitiveSet(dataset.X_train.shape[1])
    Xtr, ytr = dataset.X_train, dataset.y_train
    trace = RunTrace(method="slim", seed=getattr(dataset, "seed", -1))

    def vary(pop):
        offspring, variations = [], []
        for _ in range(config.pop_size):
            parent = tournament_select(pop, TOURNAMENT_SIZE, rng)
            if log_variations:
                parent.semantics_on_test(dataset.X_test)
            if rng.random() < INFLATE_PROB:
                child = inflate(parent, prims, rng, Xtr, ytr)
            else:
                child = deflate(parent, rng, Xtr, ytr)
            offspring.append(child)
            if log_variations:
                variations.append((parent, child, child.size != parent.size))
        return offspring, variations

    return evolve(trace, config, dataset, rng, prims,
                  lambda trees: make_individuals(trees, Xtr, ytr), vary)
