"""Standard GP engine: tournaments, subtree crossover/mutation, and the
generational loop (``evolve``) that the slim and tsgp engines share.

Doubles as the corpus-generation driver (double tournament selection plus a
per-generation population callback).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr, semantics
from .expr import Node, PrimitiveSet
from .trace import RunTrace

TOURNAMENT = "tournament"
DOUBLE_TOURNAMENT = "double_tournament"

TOURNAMENT_SIZE = 5   # every engine's selection tournament
CROSSOVER_PROB = 0.9  # a selected parent that does not cross over is mutated
TERMINAL_BIAS = 0.1   # chance that crossover picks a terminal node
INIT_DEPTH_MIN, INIT_DEPTH_MAX = 2, 5  # every engine's ramped initial trees
FITNESS_SIZE = 5      # double tournament: fitness round size
PARSIMONY_PROB = 0.7  # double tournament: chance the smaller finalist wins


@dataclass
class Individual:
    tree: Node
    fitness: float = math.inf
    test_semantics: np.ndarray = field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        return self.tree.n_nodes


@dataclass
class GPConfig:
    pop_size: int = 100
    generations: int = 50
    selection: str = TOURNAMENT


def tournament_select(pop: list, k: int, rng: np.random.Generator) -> Individual:
    """Sample k with replacement, return the (earliest) fitness argmin.

    One ``rng.integers(n, size=k)`` call draws the same k indices, and leaves
    the generator in the same state, as k scalar draws.
    """
    picks = rng.integers(len(pop), size=k).tolist()
    best = pop[picks[0]]
    for i in picks[1:]:
        if pop[i].fitness < best.fitness:
            best = pop[i]
    return best


def double_tournament_select(pop: list, fitness_size: int, parsimony_prob: float,
                             rng: np.random.Generator) -> Individual:
    """Two fitness tournaments, then a probabilistic size (parsimony) round."""
    a = tournament_select(pop, fitness_size, rng)
    b = tournament_select(pop, fitness_size, rng)
    smaller, larger = (a, b) if a.size <= b.size else (b, a)  # tie -> first finalist
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
                      rng: np.random.Generator,
                      max_depth: int = expr.MAX_DEPTH) -> Node:
    """Graft a biased-chosen subtree of p2 into a biased-chosen slot of p1."""
    slot_path, _ = _pick_node(p1, terminal_bias, rng)
    _, donor = _pick_node(p2, terminal_bias, rng)
    child = _graft(slot_path, donor)
    return p1 if child.height > max_depth else child


def subtree_mutation(p: Node, prims: PrimitiveSet, rng: np.random.Generator,
                     max_depth: int = expr.MAX_DEPTH) -> Node:
    """Replace a uniformly chosen subtree with a FULL tree of depth in {0, 1, 2}."""
    slot_path, _ = _nth_node(p, int(rng.integers(p.n_nodes)), True, True)
    new = expr.random_tree(expr.FULL, 0, 2, prims, rng)
    child = _graft(slot_path, new)
    return p if child.height > max_depth else child


def _select(pop, config: GPConfig, rng) -> Individual:
    if config.selection == DOUBLE_TOURNAMENT:
        return double_tournament_select(pop, FITNESS_SIZE, PARSIMONY_PROB, rng)
    return tournament_select(pop, TOURNAMENT_SIZE, rng)


def assess(individuals: list, dataset) -> list:
    """Set each individual's fitness on the train split, from one batched
    evaluation of their trees; returns ``individuals``."""
    preds = expr.evaluate_many([ind.tree for ind in individuals],
                               dataset.X_train)
    for ind, pred in zip(individuals, preds):
        ind.fitness = semantics.rmse(dataset.y_train, pred)
    return individuals


def evaluated(trees: list, dataset) -> list:
    """An individual for each of ``trees``, with its fitness on the train
    split, from one batched evaluation."""
    return assess([Individual(t) for t in trees], dataset)


def fill_test_semantics(individuals: list, X_test) -> None:
    """Give each of ``individuals`` that has no test semantics yet its
    output on ``X_test``, from one batched evaluation; an individual listed
    several times is evaluated once."""
    todo = {id(ind): ind for ind in individuals if ind.test_semantics is None}
    outs = expr.evaluate_many([ind.tree for ind in todo.values()], X_test)
    for ind, out in zip(todo.values(), outs):
        ind.test_semantics = out


def evolve(trace: RunTrace, config, dataset, rng: np.random.Generator,
           prims: PrimitiveSet, make, vary, fill_test,
           log_variations: bool = True, on_generation=None) -> RunTrace:
    """The generational loop of every engine, and the one place that decides
    what is logged and when test outputs are evaluated.

    ``make(trees)`` builds the evaluated ramped half-and-half initial
    population (depths ``INIT_DEPTH_MIN`` to ``INIT_DEPTH_MAX``).
    ``vary(pop)`` returns one ``(parent, child, structurally_different)``
    row per offspring, the new children evaluated on the train split; the
    children are the next population. ``fill_test(individuals, X_test)``
    gives each of ``individuals`` without test semantics its output on
    ``X_test``, in one batch: once a generation on the rows' parents and
    children when ``log_variations``, and on the final best.
    ``on_generation(generation, population)`` is called after every
    generation, the initial one included.

    Fills and returns ``trace``. Each engine builds it from its own
    module's ``RunTrace``, which ``perfbench`` replaces per module to time
    generations.
    """
    pop = make(expr.ramped_half_and_half(
        config.pop_size, INIT_DEPTH_MIN, INIT_DEPTH_MAX, prims, rng))
    best = min(pop, key=lambda ind: ind.fitness)
    trace.record(0, best.fitness, best.size)
    if on_generation is not None:
        on_generation(0, pop)

    for gen in range(1, config.generations + 1):
        rows = vary(pop)
        pop = [child for _, child, _ in rows]
        if log_variations:
            fill_test([ind for row in rows for ind in row[:2]], dataset.X_test)
            for p, c, different in rows:
                sd = semantics.sd_on_test(p.test_semantics, c.test_semantics)
                trace.log_variation(gen, p.size, c.size, sd, different)
        gen_best = min(pop, key=lambda ind: ind.fitness)
        if gen_best.fitness < best.fitness:
            best = gen_best
        trace.record(gen, best.fitness, best.size)
        if on_generation is not None:
            on_generation(gen, pop)

    fill_test([best], dataset.X_test)
    trace.final_best_test_rmse = semantics.rmse(dataset.y_test,
                                                best.test_semantics)
    trace.final_best_size = best.size
    return trace


def run_stdgp(config: GPConfig, dataset, rng: np.random.Generator,
              on_generation=None, log_variations: bool = True) -> RunTrace:
    """Generational loop on a standardized, split dataset.

    ``dataset`` needs X_train, y_train, X_test, y_test attributes.
    ``on_generation(generation, population)`` is called after evaluation of
    every generation (including the initial one); used by corpus harvesting,
    which also turns ``log_variations`` off.
    Each child is a crossover with probability ``CROSSOVER_PROB``, else a
    mutation. A child that is a parent's whole tree (a crossover or
    mutation rejected for depth, or a crossover of both roots) is that
    parent individual, so its fitness, size and test semantics are not
    computed again. The new children are evaluated together once the
    generation is built; evaluation draws nothing from ``rng``.
    """
    prims = PrimitiveSet(dataset.X_train.shape[1])
    trace = RunTrace(method="stdgp", seed=getattr(dataset, "seed", -1))

    def vary(pop):
        rows, fresh = [], []
        for _ in range(config.pop_size):
            r = rng.random()
            p1 = p2 = _select(pop, config, rng)
            if r < CROSSOVER_PROB:
                p2 = _select(pop, config, rng)
                child_tree = subtree_crossover(p1.tree, p2.tree, TERMINAL_BIAS,
                                               rng)
            else:
                child_tree = subtree_mutation(p1.tree, prims, rng)
            if child_tree is p1.tree:
                child = p1
            elif child_tree is p2.tree:  # crossover of both roots
                child = p2
            else:
                child = Individual(child_tree)
                fresh.append(child)
            # only a logged run reads the flag, so only it pays for it
            rows.append((p1, child, log_variations and child_tree != p1.tree))
        assess(fresh, dataset)
        return rows

    return evolve(trace, config, dataset, rng, prims,
                  lambda trees: evaluated(trees, dataset), vary,
                  fill_test_semantics, log_variations, on_generation)
