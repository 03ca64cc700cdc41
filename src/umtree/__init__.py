"""Supertree construction by bounds-consistent ultrametric propagation."""

from .store import Checkpoint, Event, StaleCheckpointError, Store
from .engine import Engine, PropagateResult, Propagator, RunStats
from .ultrametric import MrcaMatrix, UltrametricMatrix, post_um_matrix
from .relations import post_atom, post_eq2, post_eq3, post_fan, post_le, post_lt, post_triple
from .phylo import (
    Fan,
    NewickParseError,
    PhyloTree,
    Triple,
    UltrametricIntMatrix,
    atom_holds,
    canonical_form,
    depth_labels,
    displays,
    hard_breakup,
    isomorphic,
    leaf,
    leaf_labels,
    node,
    parse_atom,
    parse_newick,
    parse_newick_many,
    perfectly_displays,
    restrict_and_suppress,
    serialize_newick,
    soft_breakup,
    tree_to_matrix,
)
from .supertree import (
    BuildOutcome,
    ConflictCore,
    DateBounds,
    Forest,
    GreedyReport,
    IncompatibleNestedError,
    NestedContradictionError,
    Predates,
    PreconditionError,
    RankAssign,
    SpeciesNotFoundError,
    SupertreeModel,
    apply_date_bounds,
    apply_nested_taxa,
    apply_predates,
    apply_ranks,
    attach_labels,
    build_model,
    build_supertree,
    cp_build,
    enumerate_supertrees,
    explain_conflict,
    greedy_build,
    necessity,
    nested_preprocess,
    taxa_descendants,
)
from .generate import random_forest, random_tree, species_labels

__version__ = "0.1.0"
