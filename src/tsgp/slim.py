"""Additive geometric-semantic baseline with inflate and deflate operators.

An individual is a base tree plus an ordered list of blocks; its output is

    base(X) + sum_i ms_i * (sigmoid(R1_i(X)) - sigmoid(R2_i(X)))

Each part is evaluated once per input set. ``inflate`` only draws a block;
once a generation is built, ``add_new_blocks`` evaluates all its new blocks
on the train inputs in one ``expr.evaluate_many`` call, and a logged run
their test contributions in one more. A block keeps both contributions,
so deflate evaluates nothing. A base tree's test output is evaluated when
its first individual needs it, and every descendant inherits it.
No geometric crossover: variation is inflate (probability ``INFLATE_PROB``)
or deflate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    @property
    def size(self) -> int:
        return self.r1.n_nodes + self.r2.n_nodes


@dataclass
class SlimIndividual:
    base: Node
    size: int  # nodes of the base tree and of every block, set when built
    blocks: list = field(default_factory=list)
    train_semantics: np.ndarray = None
    fitness: float = math.inf
    # base tree's output on the test inputs, shared by all its descendants
    base_test: np.ndarray = field(default=None, compare=False, repr=False)
    test_semantics: np.ndarray = field(default=None, compare=False, repr=False)

    def semantics_on_test(self, X_test) -> np.ndarray:
        """Output on the run's test inputs: the base tree's output plus each
        block's contribution, summed in block order. A missing base output
        is evaluated alone, the missing contributions in one batch."""
        if self.test_semantics is None:
            if self.base_test is None:
                self.base_test = expr.evaluate(self.base, X_test)
            add_test_contributions(self.blocks, X_test)
            self.test_semantics = sum((b.test_semantics for b in self.blocks),
                                      self.base_test)
        return self.test_semantics


def _contributions(blocks: list, X) -> list:
    """Each block's ``ms * (sigmoid(R1) - sigmoid(R2))`` on ``X``, from one
    batched evaluation; none for no blocks."""
    if not blocks:
        return []
    outs = expr.evaluate_many([t for b in blocks for t in (b.r1, b.r2)], X)
    return [b.ms * (sigmoid(o1) - sigmoid(o2))
            for b, o1, o2 in zip(blocks, outs[::2], outs[1::2])]


def add_test_contributions(blocks: list, X_test) -> None:
    """Give each of ``blocks`` that has no test contribution its own, all
    from one batched evaluation."""
    todo = [b for b in blocks if b.test_semantics is None]
    for b, out in zip(todo, _contributions(todo, X_test)):
        b.test_semantics = out


def _with_fitness(ind: SlimIndividual, y_train) -> SlimIndividual:
    ind.fitness = semantics.rmse(y_train, ind.train_semantics)
    return ind


def make_individuals(bases: list, X_train, y_train) -> list:
    """Individuals with no blocks, their train semantics from one batched
    evaluation of ``bases``."""
    return [_with_fitness(SlimIndividual(base=base, size=base.n_nodes,
                                         train_semantics=out),
                          y_train)
            for base, out in zip(bases, expr.evaluate_many(bases, X_train))]


def inflate(ind: SlimIndividual, prims: PrimitiveSet,
            rng: np.random.Generator) -> SlimIndividual:
    """Append one block: ms ~ U(0,1), R1/R2 fresh GROW trees of depth <= 2;
    the child's train semantics wait for ``add_new_blocks``."""
    block = Block(ms=float(rng.random()),
                  r1=expr.random_tree(expr.GROW, 0, 2, prims, rng),
                  r2=expr.random_tree(expr.GROW, 0, 2, prims, rng))
    return SlimIndividual(base=ind.base, size=ind.size + block.size,
                          blocks=ind.blocks + [block], base_test=ind.base_test)


def add_new_blocks(inflated: list, X_train, y_train) -> None:
    """Set the train semantics and fitness of each ``child =
    inflate(parent, ...)`` of the ``(parent, child)`` pairs ``inflated``,
    evaluating all the new blocks in one batch."""
    new = [child.blocks[-1] for _, child in inflated]
    for (parent, child), out in zip(inflated, _contributions(new, X_train)):
        child.blocks[-1].train_semantics = out
        child.train_semantics = parent.train_semantics + out
        _with_fitness(child, y_train)


def deflate(ind: SlimIndividual, rng: np.random.Generator,
            y_train) -> SlimIndividual:
    """Remove one uniformly chosen block; the base tree is never removed."""
    if not ind.blocks:
        return ind
    i = int(rng.integers(len(ind.blocks)))
    removed = ind.blocks[i]
    child = SlimIndividual(
        base=ind.base,
        size=ind.size - removed.size,
        blocks=ind.blocks[:i] + ind.blocks[i + 1:],
        train_semantics=ind.train_semantics - removed.train_semantics,
        base_test=ind.base_test)
    return _with_fitness(child, y_train)


@dataclass
class SlimConfig:
    pop_size: int = 100
    generations: int = 50


def run_slim(config: SlimConfig, dataset, rng: np.random.Generator,
             log_variations: bool = True) -> RunTrace:
    """Generational loop; trace schema identical to the stdGP engine.

    With ``log_variations`` a parent's test semantics are filled before it
    is varied, so its child inherits the base tree's test output; after
    the first generation that needs no evaluation. Once a generation's
    offspring are drawn, its new blocks are evaluated on the train inputs
    in one batch, and when logging on the test inputs in one more.
    Evaluation draws nothing from ``rng``.
    """
    prims = PrimitiveSet(dataset.X_train.shape[1])
    Xtr, ytr = dataset.X_train, dataset.y_train
    trace = RunTrace(method="slim", seed=getattr(dataset, "seed", -1))

    def vary(pop):
        offspring, variations, inflated = [], [], []
        for _ in range(config.pop_size):
            parent = tournament_select(pop, TOURNAMENT_SIZE, rng)
            if log_variations:
                parent.semantics_on_test(dataset.X_test)
            if rng.random() < INFLATE_PROB:
                child = inflate(parent, prims, rng)
                inflated.append((parent, child))
            else:
                child = deflate(parent, rng, ytr)
            offspring.append(child)
            if log_variations:
                variations.append((parent, child, child.size != parent.size))
        add_new_blocks(inflated, Xtr, ytr)
        if log_variations:
            add_test_contributions([child.blocks[-1] for _, child in inflated],
                                   dataset.X_test)
        return offspring, variations

    return evolve(trace, config, dataset, rng, prims,
                  lambda trees: make_individuals(trees, Xtr, ytr), vary)
