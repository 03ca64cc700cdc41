"""Random tree and forest generation for benchmarks and tests.

Forests produced here are compatible by construction: every member is a
restriction of one hidden master tree, so the master displays them all.
Generation is deterministic for a given seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from .phylo import PhyloTree, leaf, restrict_and_suppress

_ARITIES = (2, 2, 2, 3, 3, 4)


def species_labels(n: int) -> list[str]:
    return [f"s{i:03d}" for i in range(n)]


def _random_blocks(items: list, k: int, rng: random.Random) -> list[list]:
    """Split items into k non-empty blocks at random."""
    items = items[:]
    rng.shuffle(items)
    cuts = sorted(rng.sample(range(1, len(items)), k - 1))
    blocks = []
    prev = 0
    for c in cuts + [len(items)]:
        blocks.append(items[prev:c])
        prev = c
    return blocks


def random_tree(labels: Sequence[str], rng: random.Random, binary: bool = False) -> PhyloTree:
    """Random rooted tree with mixed arities over the given leaves."""
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one leaf")

    def build(block: list[str]) -> PhyloTree:
        if len(block) == 1:
            return leaf(block[0])
        k = 2 if binary else min(rng.choice(_ARITIES), len(block))
        return PhyloTree(children=tuple(build(b) for b in _random_blocks(block, k, rng)))

    return build(labels)


def random_forest(
    n_leaves: int,
    n_trees: int,
    prune: float,
    rng: random.Random,
    binary: bool = False,
) -> list[PhyloTree]:
    """Compatible forest: leaf-subset restrictions of one random tree."""
    if not 0.0 <= prune < 1.0:
        raise ValueError("prune must be in [0, 1)")
    if n_trees < 1:
        raise ValueError(f"n_trees must be at least 1, got {n_trees}")
    labels = species_labels(n_leaves)
    master = random_tree(labels, rng, binary=binary)
    subsets = []
    for _ in range(n_trees):
        subset = {lab for lab in labels if rng.random() >= prune}
        while len(subset) < min(2, n_leaves):
            subset.add(rng.choice(labels))
        subsets.append(subset)
    for lab in labels:  # every species occurs somewhere in the forest
        if not any(lab in s for s in subsets):
            subsets[rng.randrange(n_trees)].add(lab)
    return [restrict_and_suppress(master, s) for s in subsets]
