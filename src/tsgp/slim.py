"""Additive geometric-semantic baseline with inflate and deflate operators.

An individual is a base tree plus an ordered list of blocks; its output is

    base(X) + sum_i ms_i * (sigmoid(R1_i(X)) - sigmoid(R2_i(X)))

Each part is evaluated once per input set. ``inflate`` only draws a block;
once a generation is built, ``add_new_blocks`` evaluates all its new blocks
on the train inputs in one ``expr.evaluate_many`` call. A block keeps its
train and test contributions, so deflate evaluates nothing.
``fill_test_semantics`` gives test outputs: each base tree's once per
lineage, and the missing block contributions in one batch.
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


def _contributions(blocks: list, X) -> list:
    """Each block's ``ms * (sigmoid(R1) - sigmoid(R2))`` on ``X``, from one
    batched evaluation; none for no blocks."""
    if not blocks:
        return []
    outs = expr.evaluate_many([t for b in blocks for t in (b.r1, b.r2)], X)
    return [b.ms * (sigmoid(o1) - sigmoid(o2))
            for b, o1, o2 in zip(blocks, outs[::2], outs[1::2])]


def fill_test_semantics(individuals: list, X_test) -> None:
    """Give each of ``individuals`` that has no test semantics yet its
    output on ``X_test``: the base tree's output plus each block's
    contribution, summed in block order. Each distinct missing base tree is
    evaluated once, and the missing contributions in one batch; an
    individual or block listed several times is evaluated once."""
    todo = {id(ind): ind for ind in individuals
            if ind.test_semantics is None}.values()
    bases = {}
    for ind in todo:
        if ind.base_test is None:
            if id(ind.base) not in bases:
                bases[id(ind.base)] = expr.evaluate(ind.base, X_test)
            ind.base_test = bases[id(ind.base)]
    blocks = list({id(b): b for ind in todo for b in ind.blocks
                   if b.test_semantics is None}.values())
    for b, out in zip(blocks, _contributions(blocks, X_test)):
        b.test_semantics = out
    for ind in todo:
        ind.test_semantics = sum((b.test_semantics for b in ind.blocks),
                                 ind.base_test)


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


def run_slim(config: SlimConfig, dataset, rng: np.random.Generator
             ) -> RunTrace:
    """Generational loop; trace schema identical to the stdGP engine.

    Once a generation's offspring are drawn, its new blocks are evaluated
    on the train inputs in one batch; evaluation draws nothing from ``rng``.
    """
    prims = PrimitiveSet(dataset.X_train.shape[1])
    Xtr, ytr = dataset.X_train, dataset.y_train
    trace = RunTrace(method="slim", seed=getattr(dataset, "seed", -1))

    def vary(pop):
        rows, inflated = [], []
        for _ in range(config.pop_size):
            parent = tournament_select(pop, TOURNAMENT_SIZE, rng)
            if rng.random() < INFLATE_PROB:
                child = inflate(parent, prims, rng)
                inflated.append((parent, child))
            else:
                child = deflate(parent, rng, ytr)
            rows.append((parent, child, child.size != parent.size))
        add_new_blocks(inflated, Xtr, ytr)
        return rows

    return evolve(trace, config, dataset, rng, prims,
                  lambda trees: make_individuals(trees, Xtr, ytr), vary,
                  fill_test_semantics)
