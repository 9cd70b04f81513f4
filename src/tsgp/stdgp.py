"""Standard GP engine: tournaments, subtree crossover/mutation, and the
generational loop (``evolve``) that the slim and tsgp engines share.

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


def _nth_node(tree: Node, j: int, leaves: bool, internals: bool) -> tuple:
    """The j-th node in preorder among the counted kind (leaves, internal
    nodes or both), found by walking down from the root by subtree counts.

    Returns (path, node): path lists (ancestor, went_right) from the root.
    """
    path = []
    node = tree
    while node.children:
        if internals:
            if j == 0:
                break
            j -= 1
        left, right = node.children
        n = left.n_nodes  # a binary tree of n nodes has (n + 1) // 2 leaves
        in_left = leaves * ((n + 1) // 2) + internals * ((n - 1) // 2)
        if j < in_left:
            path.append((node, False))
            node = left
        else:
            j -= in_left
            path.append((node, True))
            node = right
    return path, node


def _graft(path: list, new: Node) -> Node:
    """Rebuild only the root-to-slot ``path`` around ``new``; every subtree
    off the path is shared with the parent. An empty path returns ``new``."""
    for parent, went_right in reversed(path):
        left, right = parent.children
        new = Node(parent.symbol, (left, new) if went_right else (new, right))
    return new


def _pick_node(tree: Node, terminal_bias: float, rng: np.random.Generator):
    """Pick a node: terminal with probability ``terminal_bias``, else internal.

    Falls back to a terminal when the tree has no internal node. Draws the
    index uniformly within the chosen class; returns (path, node).
    """
    n_leaves = (tree.n_nodes + 1) // 2
    if rng.random() < terminal_bias or not tree.children:
        return _nth_node(tree, int(rng.integers(n_leaves)), True, False)
    return _nth_node(tree, int(rng.integers(tree.n_nodes - n_leaves)),
                     False, True)


def subtree_crossover(p1: Node, p2: Node, terminal_bias: float,
                      rng: np.random.Generator, max_depth: int = 17) -> Node:
    """Graft a biased-chosen subtree of p2 into a biased-chosen slot of p1."""
    slot_path, _ = _pick_node(p1, terminal_bias, rng)
    _, donor = _pick_node(p2, terminal_bias, rng)
    child = _graft(slot_path, donor)
    return p1 if child.height > max_depth else child


def subtree_mutation(p: Node, prims: PrimitiveSet, rng: np.random.Generator,
                     max_depth: int = 17) -> Node:
    """Replace a uniformly chosen subtree with a FULL tree of depth in {0, 1, 2}."""
    slot_path, _ = _nth_node(p, int(rng.integers(p.n_nodes)), True, True)
    new = expr.random_tree(expr.FULL, 0, 2, prims, rng)
    child = _graft(slot_path, new)
    return p if child.height > max_depth else child


def _select(pop, config: GPConfig, rng) -> Individual:
    if config.selection == DOUBLE_TOURNAMENT:
        return double_tournament_select(pop, config.fitness_size,
                                        config.parsimony_prob, rng)
    return tournament_select(pop, config.tournament_size, rng)


def evaluated(tree: Node, dataset) -> Individual:
    """An individual for ``tree`` with its fitness on the train split."""
    pred = expr.evaluate(tree, dataset.X_train)
    return Individual(tree, semantics.rmse(dataset.y_train, pred))


def evolve(trace: RunTrace, config, dataset, rng: np.random.Generator,
           prims: PrimitiveSet, make, vary, on_generation=None) -> RunTrace:
    """The generational loop every engine runs; only ``vary`` differs.

    ``make(tree)`` builds an evaluated individual for each tree of the
    ramped half-and-half initial population. ``vary(pop)`` makes one
    generation and returns ``(offspring, variations)``, where
    ``variations`` lists ``(parent, child, structurally_different)`` for
    each row to log (none when the run does not log). ``config`` supplies
    pop_size, generations and the init depths. ``on_generation(generation,
    population)`` is called after every generation, the initial one
    included.

    Fills and returns ``trace``. Each engine builds it from its own
    module's ``RunTrace``, which ``perfbench`` replaces per module to time
    generations.
    """
    pop = [make(t) for t in expr.ramped_half_and_half(
        config.pop_size, config.init_depth_min, config.init_depth_max, prims, rng)]
    best = min(pop, key=lambda ind: ind.fitness)
    trace.record(0, best.fitness, best.size)
    if on_generation is not None:
        on_generation(0, pop)

    for gen in range(1, config.generations + 1):
        pop, variations = vary(pop)
        for parent, child, different in variations:
            trace.log_variation(gen, parent.size, child.size,
                                semantics.sd_on_test(parent, child,
                                                     dataset.X_test),
                                different)
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

    def vary(pop):
        offspring, variations = [], []
        for _ in range(config.pop_size):
            r = rng.random()
            p1 = p2 = _select(pop, config, rng)
            if r < config.crossover_prob:
                p2 = _select(pop, config, rng)
                child_tree = subtree_crossover(p1.tree, p2.tree,
                                               config.terminal_bias, rng,
                                               config.max_depth)
            elif r < config.crossover_prob + config.mutation_prob:
                child_tree = subtree_mutation(p1.tree, prims, rng,
                                              config.max_depth)
            else:  # reproduction: not a variation, so never logged
                offspring.append(p1)
                continue
            if child_tree is p1.tree:
                child = p1
            elif child_tree is p2.tree:  # crossover of both roots
                child = p2
            else:
                child = evaluated(child_tree, dataset)
            offspring.append(child)
            if log_variations:
                variations.append((p1, child, child_tree != p1.tree))
        return offspring, variations

    return evolve(trace, config, dataset, rng, prims,
                  lambda tree: evaluated(tree, dataset), vary, on_generation)
