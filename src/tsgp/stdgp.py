"""Standard GP engine: tournaments, subtree crossover/mutation, generational loop.

Doubles as the corpus-generation driver (double tournament selection plus a
per-generation population callback).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr, semantics
from .expr import Node, PrimitiveSet
from .trace import RunTrace

TOURNAMENT = "tournament"
DOUBLE_TOURNAMENT = "double_tournament"


@dataclass
class Individual:
    tree: Node
    fitness: float = math.inf
    test_semantics: np.ndarray = field(default=None, compare=False, repr=False)

    @cached_property
    def size(self) -> int:
        return expr.size(self.tree)

    def semantics_on_test(self, X_test) -> np.ndarray:
        """Output on the run's test inputs, evaluated on first use."""
        if self.test_semantics is None:
            self.test_semantics = expr.evaluate(self.tree, X_test)
        return self.test_semantics


@dataclass
class GPConfig:
    pop_size: int = 100
    generations: int = 50
    tournament_size: int = 5
    crossover_prob: float = 0.9
    mutation_prob: float = 0.1
    terminal_bias: float = 0.1
    max_depth: int = 17
    init_depth_min: int = 2
    init_depth_max: int = 5
    selection: str = TOURNAMENT
    fitness_size: int = 5      # double tournament only
    parsimony_prob: float = 0.7  # double tournament only

    def __post_init__(self):
        if not 0 <= self.crossover_prob <= 1 or not 0 <= self.mutation_prob <= 1:
            raise ValueError("probabilities must be in [0, 1]")
        if self.crossover_prob + self.mutation_prob > 1:
            raise ValueError("crossover_prob + mutation_prob must be <= 1")


def tournament_select(pop: list, k: int, rng: np.random.Generator) -> Individual:
    """Sample k with replacement, return the (earliest) fitness argmin."""
    best = pop[rng.integers(len(pop))]
    for _ in range(k - 1):
        cand = pop[rng.integers(len(pop))]
        if cand.fitness < best.fitness:
            best = cand
    return best


def double_tournament_select(pop: list, fitness_size: int, parsimony_prob: float,
                             rng: np.random.Generator) -> Individual:
    """Two fitness tournaments, then a probabilistic size (parsimony) round."""
    a = tournament_select(pop, fitness_size, rng)
    b = tournament_select(pop, fitness_size, rng)
    smaller, larger = (a, b) if a.size <= b.size else (b, a)
    if a.size == b.size:
        smaller = a  # tie -> first finalist
    return smaller if rng.random() < parsimony_prob else larger


def _nodes_with_depth(tree: Node) -> list:
    """Preorder list of (index, node, depth)."""
    out = []
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        out.append((len(out), node, d))
        for child in reversed(node.children):
            stack.append((child, d + 1))
    return out


def _replace_subtree(root: Node, target: int, new: Node) -> Node:
    """Return a copy of root with the subtree at preorder index ``target`` swapped."""
    i = -1

    def rec(node: Node) -> Node:
        nonlocal i
        i += 1
        if i == target:
            return new
        if node.is_leaf:
            return node
        return Node(node.symbol, tuple(rec(c) for c in node.children))

    return rec(root)


def _pick_node(tree: Node, terminal_bias: float, rng: np.random.Generator):
    """Pick a node index: terminal with probability ``terminal_bias``, else internal.

    Falls back to whichever class exists when the other is absent.
    """
    nodes = _nodes_with_depth(tree)
    terms = [i for i, n, _ in nodes if n.is_leaf]
    internals = [i for i, n, _ in nodes if not n.is_leaf]
    pool = terms if rng.random() < terminal_bias else internals
    if not pool:
        pool = terms or internals
    return pool[rng.integers(len(pool))], nodes


def subtree_crossover(p1: Node, p2: Node, terminal_bias: float,
                      rng: np.random.Generator, max_depth: int = 17) -> Node:
    """Graft a biased-chosen subtree of p2 into a biased-chosen slot of p1."""
    slot, _ = _pick_node(p1, terminal_bias, rng)
    donor_idx, donor_nodes = _pick_node(p2, terminal_bias, rng)
    donor = donor_nodes[donor_idx][1]
    child = _replace_subtree(p1, slot, donor)
    if expr.depth(child) > max_depth:
        return p1
    return child


def subtree_mutation(p: Node, prims: PrimitiveSet, rng: np.random.Generator,
                     max_depth: int = 17) -> Node:
    """Replace a uniformly chosen subtree with a FULL tree of depth in {0, 1, 2}."""
    nodes = _nodes_with_depth(p)
    slot = int(rng.integers(len(nodes)))
    new = expr.random_tree(expr.FULL, 0, 2, prims, rng)
    child = _replace_subtree(p, slot, new)
    if expr.depth(child) > max_depth:
        return p
    return child


def _select(pop, config: GPConfig, rng) -> Individual:
    if config.selection == DOUBLE_TOURNAMENT:
        return double_tournament_select(pop, config.fitness_size,
                                        config.parsimony_prob, rng)
    return tournament_select(pop, config.tournament_size, rng)


def run_stdgp(config: GPConfig, dataset, rng: np.random.Generator,
              prims: PrimitiveSet = None, on_generation=None,
              log_variations: bool = True) -> RunTrace:
    """Generational loop on a standardized, split dataset.

    ``dataset`` needs X_train, y_train, X_test, y_test attributes.
    ``on_generation(generation, population)`` is called after evaluation of
    every generation (including the initial one); used by corpus harvesting.
    A child that is a parent's whole tree (reproduction, a crossover or
    mutation rejected for depth, or a crossover of both roots) is that
    parent individual, so its fitness, size and test semantics are not
    computed again.
    """
    prims = prims or PrimitiveSet(n_variables=dataset.X_train.shape[1])
    trace = RunTrace(method="stdgp", seed=getattr(dataset, "seed", -1))

    def evaluated(tree: Node) -> Individual:
        pred = expr.evaluate(tree, dataset.X_train)
        return Individual(tree, semantics.rmse(dataset.y_train, pred))

    pop = [evaluated(t) for t in expr.ramped_half_and_half(
        config.pop_size, config.init_depth_min, config.init_depth_max, prims, rng)]
    best = min(pop, key=lambda ind: ind.fitness)
    trace.record(0, best.fitness, best.size)
    if on_generation is not None:
        on_generation(0, pop)

    for gen in range(1, config.generations + 1):
        offspring = []
        for _ in range(config.pop_size):
            r = rng.random()
            p1 = p2 = _select(pop, config, rng)
            if r < config.crossover_prob:
                p2 = _select(pop, config, rng)
                child_tree = subtree_crossover(p1.tree, p2.tree,
                                               config.terminal_bias, rng,
                                               config.max_depth)
                varied = True
            elif r < config.crossover_prob + config.mutation_prob:
                child_tree = subtree_mutation(p1.tree, prims, rng, config.max_depth)
                varied = True
            else:
                child_tree = p1.tree
                varied = False
            if child_tree is p1.tree:
                child = p1
            elif child_tree is p2.tree:  # crossover of both roots
                child = p2
            else:
                child = evaluated(child_tree)
            offspring.append(child)
            if varied and log_variations:
                trace.log_variation(gen, p1.size, child.size,
                                    semantics.sd_on_test(p1, child,
                                                         dataset.X_test),
                                    child_tree != p1.tree)
        pop = offspring
        gen_best = min(pop, key=lambda ind: ind.fitness)
        if gen_best.fitness < best.fitness:
            best = gen_best
        trace.record(gen, best.fitness, best.size)
        if on_generation is not None:
            on_generation(gen, pop)

    trace.final_best_test_rmse = semantics.rmse(
        dataset.y_test, best.semantics_on_test(dataset.X_test))
    trace.final_best_size = best.size
    return trace
