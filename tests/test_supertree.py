import gc
import itertools
import random
import statistics
import sys
import weakref

import numpy as np
import pytest

from umtree import (
    DateBounds,
    Fan,
    Forest,
    PhyloTree,
    PreconditionError,
    Predates,
    PropagateResult,
    RankAssign,
    SpeciesNotFoundError,
    Triple,
    apply_date_bounds,
    apply_predates,
    apply_ranks,
    atom_holds,
    build_model,
    build_supertree,
    cp_build,
    displays,
    enumerate_supertrees,
    explain_conflict,
    greedy_build,
    hard_breakup,
    isomorphic,
    leaf,
    leaf_labels,
    necessity,
    node,
    parse_newick,
    post_atom,
    restrict_and_suppress,
    serialize_newick,
    species_labels,
    tree_to_matrix,
)
from umtree import supertree
from umtree.generate import random_forest, random_tree
from umtree.phylo import canonical_form, clusters, fold, iter_nodes
from umtree.ultrametric import UltrametricMatrix

import oracles
from oracles import (
    atom_code,
    build_compatible,
    candidates_with_codes,
    greedy_atom_by_atom,
    oracle_compatible,
    oracle_necessary,
    oracle_supertrees,
    swap_leaves,
)


def _forest(*newicks):
    return Forest.from_trees([parse_newick(t) for t in newicks])


def _atom_forest(atoms):
    """One 3-leaf tree per atom, so breakup reproduces the atom list."""
    trees = []
    for a in atoms:
        if isinstance(a, Triple):
            trees.append(parse_newick(f"(({a.x},{a.y}),{a.z});"))
        else:
            trees.append(parse_newick(f"({a.x},{a.y},{a.z});"))
    return Forest.from_trees(trees)


# -- build_model ----------------------------------------------------------------


def test_build_model_single_tree_soft():
    f = _forest("((a,b),c);")
    m = build_model(f, "soft")
    assert m.matrix is not None and len(m.matrix.cell_vars) == 3
    assert list(m.atoms) == [Triple.of("a", "b", "c")]


def test_build_model_fan_hard():
    m = build_model(_forest("(a,b,c);"), "hard")
    assert list(m.atoms) == [Fan.of("a", "b", "c")]


def test_build_model_two_trees_dedup_and_provenance():
    f = _forest("((a,b),c);", "((a,b),d);")
    m = build_model(f, "soft")
    assert list(m.atoms) == [Triple.of("a", "b", "c"), Triple.of("a", "b", "d")]
    assert f.n == 4 and len(m.matrix.cell_vars) == 6

    f2 = _forest("((a,b),c);", "((a,b),c);")
    m2 = build_model(f2, "soft")
    assert m2.atoms == {Triple.of("a", "b", "c"): [0, 1]}


# -- cp_build ---------------------------------------------------------------------


def test_cp_build_single_triple():
    tree = cp_build(build_model(_atom_forest([Triple.of("a", "b", "c")]), "soft"))
    assert isomorphic(tree, parse_newick("((a,b),c);"))


def test_cp_build_incompatible_pair():
    f = _atom_forest([Triple.of("a", "b", "c"), Triple.of("a", "c", "b")])
    assert cp_build(build_model(f, "soft")) is None


def test_cp_build_two_triples_four_species():
    atoms = [Triple.of("a", "b", "c"), Triple.of("c", "d", "b")]
    f = _atom_forest(atoms)
    model = build_model(f, "soft")
    tree = cp_build(model)
    assert tree is not None
    m = tree_to_matrix(tree)
    assert all(atom_holds(m, a) for a in atoms)
    assert model.engine.stats.search_nodes == 0


def test_cp_build_degenerate_sizes():
    assert serialize_newick(cp_build(build_model(_forest("a;"), "hard"))) == "a;"
    assert isomorphic(cp_build(build_model(_forest("(a,b);"), "hard")), parse_newick("(a,b);"))


@pytest.mark.parametrize("newick", ["a;", "(a,b);"])
def test_one_and_two_species_forests_get_the_matrix_model(newick):
    f = _forest(newick)
    model = build_model(f, "hard")
    assert model.matrix.n == f.n and len(model.engine.propagators) == 1
    assert serialize_newick(cp_build(model)) == newick
    tree, report = greedy_build(f)
    assert serialize_newick(tree) == newick and report.rejected == ()
    assert [serialize_newick(t) for t in enumerate_supertrees(build_model(f), 5)] == [newick]
    with pytest.raises(PreconditionError):
        explain_conflict(f)


def test_sides_apply_to_two_species_forests():
    f = _forest("(a,b);")
    assert cp_build(build_model(f, sides=[DateBounds("a", "b", 1, 5)])) is not None
    assert cp_build(build_model(f, sides=[DateBounds("a", "b", 2, 5)])) is None
    assert cp_build(build_model(f, sides=[RankAssign(parse_newick("(a,b)#2;"))])) is None
    with pytest.raises(SpeciesNotFoundError):
        build_model(f, sides=[DateBounds("a", "z", 1, 1)])


def test_lb_solution_satisfies_all_atoms():
    rng = random.Random(21)
    for _ in range(30):
        forest = Forest.from_trees(random_forest(rng.randint(4, 15), 3, 0.3, rng))
        model = build_model(forest, "hard")
        tree = cp_build(model)
        assert tree is not None
        m = tree_to_matrix(tree)
        assert all(atom_holds(m, a) for a in model.atoms)
        assert all(displays(tree, t) for t in forest.trees)


def test_cp_build_verdict_matches_oracle_small():
    rng = random.Random(22)
    species = tuple(f"s{i}" for i in range(5))
    for _ in range(40):
        atoms = []
        for _ in range(rng.randint(1, 6)):
            a, b, c = rng.sample(species, 3)
            atoms.append(Triple.of(a, b, c) if rng.random() < 0.7 else Fan.of(a, b, c))
        f = _atom_forest(atoms)
        got = cp_build(build_model(f, "hard")) is not None
        assert got == oracle_compatible(list(f.trees), f.species)


def test_build_oracle_matches_brute_force_small():
    # triple sets over 5 species, then triples and fans over 3-6 species,
    # where the fan closure decides
    rng = random.Random(23)
    species = tuple(f"s{i}" for i in range(6))
    cases = [
        [Triple.of(*rng.sample(species[:5], 3)) for _ in range(rng.randint(1, 6))] for _ in range(60)
    ]
    for _ in range(150):
        some = species[: rng.randint(3, 6)]
        kinds = [rng.choice((Triple.of, Fan.of)) for _ in range(rng.randint(1, 7))]
        cases.append([of(*rng.sample(some, 3)) for of in kinds])
    verdicts = set()
    for atoms in cases:
        f = _atom_forest(atoms)
        want = oracle_compatible(list(f.trees), f.species)
        assert build_compatible(atoms, f.species) == want, atoms
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(36))
def test_cp_build_verdict_matches_build_at_size(seed):
    # BUILD with the fan closure decides compatibility independently of
    # the propagator. Seeds 0-19 draw binary forests, which break up into
    # triples only in both modes; seeds 20-31 multifurcating ones. Seeds
    # 32-35 draw leaf-swapped forests at n=150-300, binary and
    # multifurcating, which a cluster closure refutes in about one round.
    binary = seed < 20 or seed in (32, 34)
    rng = random.Random(seed)
    n = rng.randint(40, 80) if seed < 32 else 50 * (seed - 29)
    trees = random_forest(n, 3, 0.25, rng, binary=binary)
    if seed % 2 or seed >= 32:
        trees[0] = swap_leaves(trees[0], *rng.sample(sorted(leaf_labels(trees[0])), 2))
    forest = Forest.from_trees(trees)
    for mode in ("hard", "soft"):
        model = build_model(forest, mode)
        if binary:
            assert all(isinstance(a, Triple) for a in model.atoms)
        got = cp_build(model) is not None
        assert got == build_compatible(model.atoms, forest.species)


# -- necessity ---------------------------------------------------------------------


def test_necessity_examples():
    f = _forest("((a,b),c);")
    assert necessity(f, Triple.of("a", "b", "c"), "soft") is True
    assert necessity(f, Triple.of("a", "c", "b"), "soft") is False


def test_necessity_unconstrained_species():
    f = _forest("((a,b),c);", "(d,e);")
    assert necessity(f, Triple.of("a", "d", "e"), "soft") is False
    assert necessity(f, Fan.of("a", "d", "e"), "soft") is False


def test_necessity_fan_queries():
    f = _forest("(a,b,c);")
    assert necessity(f, Fan.of("a", "b", "c"), "hard") is True
    assert necessity(f, Fan.of("a", "b", "c"), "soft") is False


def test_necessity_precondition_and_species_errors():
    incompatible = _forest("((a,b),c);", "((a,c),b);")
    with pytest.raises(PreconditionError):
        necessity(incompatible, Triple.of("a", "b", "c"), "soft")
    with pytest.raises(SpeciesNotFoundError):
        necessity(_forest("((a,b),c);"), Triple.of("a", "b", "z"), "soft")


def test_hard_breakup_is_exact_displays_encoding():
    # a candidate displays T iff it displays every hard-breakup atom of T,
    # which is what makes the displays-based necessity oracle applicable
    rng = random.Random(24)
    from oracles import candidates_with_codes, triple_codes, displays_by_codes, atom_code

    for _ in range(12):
        labels = tuple(sorted(f"s{i}" for i in range(rng.randint(3, 6))))
        t = random_tree(labels, rng)
        atoms = [atom_code(a) for a in hard_breakup(t)]
        want_codes = triple_codes(t)
        for cand, codes in candidates_with_codes(labels):
            via_tree = displays_by_codes(codes, want_codes)
            via_atoms = all(codes[key] == c for key, c in atoms)
            assert via_tree == via_atoms


def test_necessity_matches_oracle_random():
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        forest = Forest.from_trees(
            random_forest(rng.randint(3, 6), rng.randint(1, 3), 0.3, rng)
        )
        if forest.n < 3:
            continue
        species = forest.species
        x, y, z = rng.sample(species, 3)
        atom = Triple.of(x, y, z) if rng.random() < 0.7 else Fan.of(x, y, z)
        got = necessity(forest, atom, "hard")
        want = oracle_necessary(list(forest.trees), species, atom)
        assert got == want
        checked += 1


def _necessity_fresh_models(forest, atom, mode):
    """Reference: a compatibility build, then each alternative resolution
    of the atom's species triple on a fresh model of its own."""
    if cp_build(build_model(forest, mode)) is None:
        raise PreconditionError("incompatible forest")
    x, y, z = atom.species
    resolutions = {Triple.of(x, y, z), Triple.of(x, z, y), Triple.of(y, z, x), Fan.of(x, y, z)}
    for alt in resolutions - {atom}:
        model = build_model(forest, mode)
        post_atom(model.engine, model.matrix, alt)
        if model.engine.propagate() is PropagateResult.FIXPOINT:
            return False
    return True


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_necessity_on_one_model_matches_fresh_models(mode):
    rng = random.Random(31)
    answers = {True: 0, False: 0}
    for _ in range(6):
        forest = Forest.from_trees(random_forest(rng.randint(12, 30), 4, 0.3, rng))
        inputs = list(build_model(forest, mode).atoms)
        queries = rng.sample(inputs, 3)
        while len(queries) < 7:
            x, y, z = rng.sample(forest.species, 3)
            atom = Triple.of(x, y, z) if rng.random() < 0.7 else Fan.of(x, y, z)
            if atom not in inputs:
                queries.append(atom)
        for atom in queries:
            got = necessity(forest, atom, mode)
            assert got == _necessity_fresh_models(forest, atom, mode)
            answers[got] += 1
    assert answers[True] and answers[False]


def test_necessity_builds_one_model(monkeypatch):
    import umtree.supertree as st

    built = []

    class CountingModel(st.SupertreeModel):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(st, "SupertreeModel", CountingModel)
    f = _forest("((a,b),c);", "((a,b),d);")
    for atom, necessary in ((Triple.of("a", "b", "c"), True), (Triple.of("a", "c", "b"), False)):
        built.clear()
        assert necessity(f, atom, "hard") is necessary
        assert len(built) == 1


# -- greedy --------------------------------------------------------------------------


def test_greedy_accepts_first_rejects_second():
    f = _atom_forest([Triple.of("a", "b", "c"), Triple.of("a", "c", "b")])
    tree, report = greedy_build(f, "soft")
    assert report.accepted == (Triple.of("a", "b", "c"),)
    assert report.rejected == (Triple.of("a", "c", "b"),)
    assert isomorphic(tree, parse_newick("((a,b),c);"))
    assert report.violated == report.rejected


def test_greedy_order_dependence_documented():
    f = _atom_forest([Triple.of("a", "c", "b"), Triple.of("a", "b", "c")])
    tree, report = greedy_build(f, "soft")
    assert report.accepted == (Triple.of("a", "c", "b"),)
    assert report.rejected == (Triple.of("a", "b", "c"),)
    assert isomorphic(tree, parse_newick("((a,c),b);"))


def test_greedy_compatible_equals_cp_build():
    # on compatible input greedy keeps every atom and writes cp_build's
    # tree byte for byte: n=4-12, then n=20-60, binary and multifurcating
    rng = random.Random(31)
    for i in range(24):
        n = rng.randint(4, 12) if i < 8 else rng.randint(20, 60)
        forest = Forest.from_trees(random_forest(n, 3, 0.3, rng, binary=i % 2 == 0))
        for mode in ("hard", "soft"):
            tree, report = greedy_build(forest, mode)
            assert report.rejected == ()
            assert serialize_newick(tree) == serialize_newick(cp_build(build_model(forest, mode)))


def test_greedy_output_displays_accepted_atoms():
    rng = random.Random(32)
    for _ in range(15):
        species = [f"s{i}" for i in range(6)]
        atoms = []
        for _ in range(8):
            a, b, c = rng.sample(species, 3)
            atoms.append(Triple.of(a, b, c) if rng.random() < 0.7 else Fan.of(a, b, c))
        f = _atom_forest(atoms)
        tree, report = greedy_build(f, "hard")
        assert set(report.accepted) | set(report.rejected) == set(
            build_model(f, "hard").atoms
        )
        m = tree_to_matrix(tree)
        assert all(atom_holds(m, a) for a in report.accepted)
        assert report.violated == tuple(a for a in report.rejected if not atom_holds(m, a))


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_greedy_judges_atoms_like_the_output_matrix(mode):
    # greedy judges its rejected atoms by the output tree's clusters; the
    # output's mrca matrix judges them independently. A rejected atom
    # always breaks the output, so random atoms, which may hold, check the
    # cluster rule both ways
    outcomes = set()
    for seed in range(20):
        rng = random.Random(seed)
        trees = random_forest(rng.randint(6, 30), 3, 0.25, rng, binary=seed % 2 == 0)
        trees[0] = swap_leaves(trees[0], *rng.sample(sorted(leaf_labels(trees[0])), 2))
        tree, report = greedy_build(Forest.from_trees(trees), mode)
        m = tree_to_matrix(tree)
        assert report.violated == tuple(a for a in report.rejected if not atom_holds(m, a))
        spans = clusters(tree).values()
        for _ in range(30):
            a, b, c = rng.sample(m.labels, 3)
            atom = Triple.of(a, b, c) if rng.random() < 0.5 else Fan.of(a, b, c)
            holds = atom_holds(m, atom)
            assert supertree._displayed(spans, atom) == holds
            outcomes.add((type(atom), holds))
    assert len(outcomes) == 4


def _assert_greedy_matches_atom_by_atom(forest, mode):
    """The tree and report of `greedy_build_with_model` equal the atom-by-atom
    loop's; it fails at most one probe more. Returns its report."""
    tree, report, model = supertree.greedy_build_with_model(forest, mode)
    want_tree, want, want_model = greedy_atom_by_atom(forest, mode)
    assert serialize_newick(tree) == serialize_newick(want_tree)
    assert (report.accepted, report.rejected, report.violated) == (
        want.accepted,
        want.rejected,
        want.violated,
    )
    assert model.engine.stats.failures <= want_model.engine.stats.failures + 1
    return report


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_greedy_by_tree_matches_atom_by_atom(mode):
    # compatible and leaf-swapped forests, n = 6-80 and 2-6 trees; the
    # swapped tree is the first, the last or one drawn at random
    rng = random.Random(41)
    rejecting = 0
    for i in range(36):
        n, k = rng.randint(6, 80), rng.randint(2, 6)
        trees = random_forest(n, k, rng.random() * 0.4, rng, binary=i % 4 == 0)
        if i % 3:
            ti = (0, k - 1, rng.randrange(k))[i % 3]
            trees[ti] = swap_leaves(trees[ti], *rng.sample(sorted(leaf_labels(trees[ti])), 2))
        rejecting += bool(_assert_greedy_matches_atom_by_atom(Forest.from_trees(trees), mode).rejected)
    assert rejecting >= 12


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_greedy_by_tree_when_every_later_tree_conflicts(mode):
    # each later tree is the first with two of its leaves swapped, so
    # every group after the first fails and is probed atom by atom
    rng = random.Random(42)
    first = random_tree([f"s{i:02d}" for i in range(30)], rng, binary=True)
    trees = [first] + [swap_leaves(first, *rng.sample(sorted(leaf_labels(first)), 2)) for _ in range(4)]
    forest = Forest.from_trees(trees)
    report = _assert_greedy_matches_atom_by_atom(forest, mode)
    sources = build_model(forest, mode, post_atoms=False).atoms
    assert {sources[a][0] for a in report.rejected} == {1, 2, 3, 4}


def test_greedy_report_json():
    f = _atom_forest([Triple.of("a", "b", "c"), Triple.of("a", "c", "b")])
    _, report = greedy_build(f, "soft")
    j = report.to_json()
    assert j["accepted"] == ["(a,b)c"] and j["rejected"] == ["(a,c)b"]


# -- conflict explanation ---------------------------------------------------------------


def _probe_atoms_consistent(atoms):
    if not atoms:
        return True
    f = _atom_forest(list(atoms))
    return cp_build(build_model(f, "hard")) is not None


def test_explain_conflict_pair_core():
    atoms = [Triple.of("a", "b", "c"), Triple.of("a", "c", "b"), Triple.of("c", "d", "a")]
    core = explain_conflict(_atom_forest(atoms), "soft")
    assert set(core.atoms) == {Triple.of("a", "b", "c"), Triple.of("a", "c", "b")}


def test_explain_conflict_rotating_triples():
    atoms = [Triple.of("a", "b", "c"), Triple.of("b", "c", "a"), Triple.of("c", "a", "b")]
    core = explain_conflict(_atom_forest(atoms), "soft")
    assert len(core.atoms) == 2


def test_explain_conflict_minimality_random():
    rng = random.Random(41)
    found = 0
    while found < 12:
        species = [f"s{i}" for i in range(rng.randint(4, 7))]
        atoms = []
        for _ in range(rng.randint(3, 9)):
            a, b, c = rng.sample(species, 3)
            atoms.append(Triple.of(a, b, c) if rng.random() < 0.7 else Fan.of(a, b, c))
        f = _atom_forest(atoms)
        if cp_build(build_model(f, "hard")) is not None:
            continue
        found += 1
        core = explain_conflict(f, "hard")
        assert not _probe_atoms_consistent(core.atoms)
        for drop in core.atoms:
            assert _probe_atoms_consistent([a for a in core.atoms if a != drop])


def test_explain_core_is_minimal_under_build_at_size():
    # BUILD judges explain's core independently of the propagator: the
    # core is incompatible, and dropping any one atom makes it compatible.
    # Leaf-swapped forests of 20-40 species, binary on even seeds and
    # multifurcating on odd ones, in both modes; only the forests BUILD
    # calls incompatible count, until 20 cores are checked
    checked = 0
    for seed in range(100):
        rng = random.Random(seed)
        trees = random_forest(rng.randint(20, 40), 3, 0.25, rng, binary=seed % 2 == 0)
        trees[0] = swap_leaves(trees[0], *rng.sample(sorted(leaf_labels(trees[0])), 2))
        forest = Forest.from_trees(trees)
        for mode in ("hard", "soft"):
            if build_compatible(build_model(forest, mode, post_atoms=False).atoms, forest.species):
                continue
            core = explain_conflict(forest, mode).atoms
            assert not build_compatible(core, forest.species)
            for drop in core:
                assert build_compatible([a for a in core if a != drop], forest.species)
            checked += 1
        if checked >= 20:
            break
    assert checked >= 20


def test_explain_matches_the_reposting_quickxplain():
    # the base stays posted and each check posts only its delta; the
    # reference re-posts the whole base on the root fixpoint. Same core,
    # same order, same probes, on leaf-swapped forests of 6-60 species,
    # mostly multifurcating, in both modes
    checked, modes, fans = 0, set(), 0
    for seed in range(40):
        rng = random.Random(seed)
        trees = random_forest(rng.randint(6, 60), 3, 0.25, rng, binary=seed % 4 == 0)
        for _ in range(1 + seed % 2):
            ti = rng.randrange(len(trees))
            trees[ti] = swap_leaves(trees[ti], *rng.sample(sorted(leaf_labels(trees[ti])), 2))
        forest = Forest.from_trees(trees)
        for mode in ("hard", "soft"):
            if cp_build(build_model(forest, mode)) is not None:
                continue
            got, want = explain_conflict(forest, mode), oracles.quickxplain_reposting(forest, mode)
            assert (got.atoms, got.probes) == (want.atoms, want.probes)
            checked += 1
            modes.add(mode)
            fans += any(isinstance(a, Fan) for a in got.atoms)
    assert checked >= 60 and modes == {"hard", "soft"} and fans >= 10


@pytest.mark.parametrize("n, mode", [(100, "hard"), (200, "hard"), (200, "soft")])
def test_explain_matches_the_reposting_quickxplain_at_size(n, mode):
    # the ladder's leaf-swapped forests (soft n=100 at seed 0 is compatible)
    forest = _bench19_swapped(n, 0)
    got, want = explain_conflict(forest, mode), oracles.quickxplain_reposting(forest, mode)
    assert (got.atoms, got.probes) == (want.atoms, want.probes)
    assert len(got.atoms) >= 2


def test_explain_conflict_on_compatible_is_usage_error():
    with pytest.raises(PreconditionError):
        explain_conflict(_forest("((a,b),c);"), "soft")


def test_explain_conflict_probe_budget():
    import math

    rng = random.Random(42)
    found = 0
    while found < 25:
        species = [f"s{i}" for i in range(rng.randint(4, 8))]
        atoms = []
        for _ in range(rng.randint(3, 14)):
            a, b, c = rng.sample(species, 3)
            atoms.append(Triple.of(a, b, c) if rng.random() < 0.7 else Fan.of(a, b, c))
        f = _atom_forest(atoms)
        model = build_model(f, "hard")
        if cp_build(model) is not None:
            continue
        found += 1
        core = explain_conflict(f, "hard")
        k, n = len(core.atoms), len(model.atoms)
        bound = 2 * k * math.log2(n / k) + 2 * k
        assert core.probes <= max(bound, 2 * k)


def test_conflict_core_json():
    atoms = [Triple.of("a", "b", "c"), Triple.of("a", "c", "b")]
    core = explain_conflict(_atom_forest(atoms), "soft")
    assert core.to_json() == ["(a,b)c", "(a,c)b"]


# -- ranks, predates, date bounds --------------------------------------------------------


def test_apply_ranks_example():
    f = _forest("((a,b)#2,c)#1;")
    model = build_model(f, "soft")
    apply_ranks(model, f.trees[0])
    assert model.engine.propagate() is PropagateResult.FIXPOINT
    s = model.store
    assert s.domain(model.cell("a", "b")) == (2, 2)
    assert s.domain(model.cell("a", "c")) == (1, 1)
    assert s.domain(model.cell("b", "c")) == (1, 1)


def test_apply_ranks_two_consistent_trees():
    f = _forest("((a,b)#2,c)#1;", "((a,b)#2,d)#1;")
    model = build_model(f, "soft", sides=[RankAssign(f.trees[0]), RankAssign(f.trees[1])])
    tree = cp_build(model)
    assert tree is not None
    assert displays(tree, f.trees[0]) and displays(tree, f.trees[1])


def test_apply_ranks_conflicting_assignments_fail():
    f = _forest("((a,b)#2,c)#1;", "((a,b)#3,d)#1;")
    model = build_model(f, "soft", sides=[RankAssign(f.trees[0]), RankAssign(f.trees[1])])
    assert cp_build(model) is None


def test_apply_ranks_validates():
    f = _forest("((a,b)#1,c)#2;")  # child rank not greater than parent
    model = build_model(f, "soft")
    with pytest.raises(ValueError):
        apply_ranks(model, f.trees[0])
    f2 = _forest("((a,b),c)#1;")  # unranked internal node
    model2 = build_model(f2, "soft")
    with pytest.raises(ValueError):
        apply_ranks(model2, f2.trees[0])


@pytest.mark.parametrize("seed", range(8))
def test_apply_ranks_pins_cells_to_mrca_rank(seed):
    # ranks 2*depth+1 differ from depths; a spare species block widens the
    # [1, n-1] domains so that every rank fits
    rng = random.Random(seed)
    labels = [f"s{i}" for i in range(rng.randint(3, 14))]

    def ranked(nd, depth):
        if nd.is_leaf:
            return nd
        kids = tuple(ranked(c, depth + 1) for c in nd.children)
        return PhyloTree(children=kids, rank=2 * depth + 1)

    tree = ranked(random_tree(labels, rng), 1)
    spare = node([leaf(f"x{i}") for i in range(2 * len(labels))])
    model = build_model(Forest.from_trees([tree, spare]), "soft")
    apply_ranks(model, tree)
    assert not model.store.failed
    internal = [nd for nd in iter_nodes(tree) if not nd.is_leaf]
    for a, b in itertools.combinations(labels, 2):
        # ranks grow with depth, so the mrca has the largest common rank
        want = max(nd.rank for nd in internal if {a, b} <= leaf_labels(nd))
        assert model.store.domain(model.cell(a, b)) == (want, want)
    assert model.store.domain(model.cell("x0", "x1")) == (1, model.n - 1)


def test_predates_example():
    f = _forest("((a,c),x);", "(b,x);")
    model = build_model(f, "soft", sides=[Predates("a", "c", "a", "b")])
    tree = cp_build(model)
    assert tree is not None
    s = model.store
    assert s.lbs[model.cell("a", "c")] < s.lbs[model.cell("a", "b")]
    assert displays(tree, f.trees[0]) and displays(tree, f.trees[1])


def test_predates_self_pair_fails():
    f = _forest("((a,b),c);")
    model = build_model(f, "soft")
    apply_predates(model, "a", "b", "a", "b")
    assert cp_build(model) is None


def test_date_bounds():
    f = _forest("((a,b),c);")
    model = build_model(f, "soft", sides=[DateBounds("a", "b", 2, 2)])
    assert cp_build(model) is not None
    assert model.store.domain(model.cell("a", "b")) == (2, 2)

    model2 = build_model(f, "soft")
    apply_date_bounds(model2, "a", "c", 2, 2)  # (ab)c forces M_ac = 1: contradiction
    assert cp_build(model2) is None


def test_side_unknown_species():
    f = _forest("((a,b),c);")
    with pytest.raises(SpeciesNotFoundError):
        build_model(f, "soft", sides=[Predates("a", "z", "a", "b")])


# -- enumeration -----------------------------------------------------------------------


def test_enumerate_unconstrained_three_species():
    model = build_model(_forest("(a,b,c);"), "soft")  # soft fan: no atoms
    trees = enumerate_supertrees(model, 100)
    assert len(trees) == 4


def test_enumerate_single_triple():
    model = build_model(_forest("((a,b),c);"), "soft")
    trees = enumerate_supertrees(model, 100)
    assert len(trees) == 1
    assert isomorphic(trees[0], parse_newick("((a,b),c);"))


def test_enumerate_first_is_cp_build_answer():
    f = _forest("((a,b),c);", "((a,b),d);")
    reference = cp_build(build_model(f, "soft"))
    got = enumerate_supertrees(build_model(f, "soft"), 1)
    assert len(got) == 1 and isomorphic(got[0], reference)


def test_enumerate_matches_oracle_supertree_sets():
    rng = random.Random(51)
    for _ in range(10):
        forest = Forest.from_trees(random_forest(rng.randint(3, 5), 2, 0.3, rng))
        model = build_model(forest, "hard")
        got = {serialize_and_canon(t) for t in enumerate_supertrees(model, 10_000)}
        want = {
            serialize_and_canon(t)
            for t in oracle_supertrees(list(forest.trees), forest.species)
        }
        assert got == want


def serialize_and_canon(tree):
    from umtree import canonical_form

    return canonical_form(tree, with_internal_labels=False)


def test_enumerate_incompatible_is_empty():
    f = _atom_forest([Triple.of("a", "b", "c"), Triple.of("a", "c", "b")])
    assert enumerate_supertrees(build_model(f, "soft"), 5) == []


def test_enumerate_counts_search_nodes():
    model = build_model(_forest("(a,b,c);"), "soft")
    enumerate_supertrees(model, 100)
    assert model.engine.stats.search_nodes > 0


def _topologies(trees):
    return {canonical_form(t, with_internal_labels=False) for t in trees}


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_enumerate_is_every_tree_holding_the_model_atoms(mode):
    # brute force over the model's own atoms, not over the inputs, so a
    # breakup that loses an input cluster cannot hide a search mismatch
    rng = random.Random(71)
    totals = []
    for k in range(24):
        trees = random_forest(rng.randint(3, 6), rng.randint(1, 3), 0.4, rng, binary=k % 3 == 0)
        if k % 2:
            labels = sorted(leaf_labels(trees[0]))
            if len(labels) >= 2:
                trees[0] = swap_leaves(trees[0], *rng.sample(labels, 2))
        forest = Forest.from_trees(trees)
        model = build_model(forest, mode)
        codes = [atom_code(a) for a in model.atoms]
        want = {
            canonical_form(cand, with_internal_labels=False)
            for cand, cand_codes in candidates_with_codes(forest.species)
            if all(cand_codes[t] == c for t, c in codes)
        }
        got = enumerate_supertrees(model, 10_000)
        assert len(got) == len(_topologies(got))
        assert _topologies(got) == want
        for limit in (1, 3):
            assert len(enumerate_supertrees(build_model(forest, mode), limit)) == min(len(want), limit)
        reference = cp_build(build_model(forest, mode))
        if got:
            assert serialize_newick(got[0]) == serialize_newick(reference)
        else:
            assert reference is None
        totals.append(len(want))
    assert 0 in totals and max(totals) > 3


# Topologies of hard random_forest(10, 4, 0.3, Random(seed)) as listed by
# the search over depth labellings that the cluster-merge search replaced.
# That search took 62,643, 39,966 and 6,444 search nodes on them.
SPARSE_N10_TOPOLOGIES = {
    0: {
        "((((s000,s003),s004),(s005,s006,s007)),((s001,s009),s008),s002)",
        "((((s000,s004),s003),(s005,s006,s007)),((s001,s009),s008),s002)",
        "((((s003,s004),s000),(s005,s006,s007)),((s001,s009),s008),s002)",
        "(((s000,s003,s004),(s005,s006,s007)),((s001,s009),s008),s002)",
    },
    1: {
        "(((s000,s001,s003,s004),(s005,s009)),((s002,s008),(s006,s007)))",
    },
    2: {
        "((((s001,s009),(s003,s008)),((s002,s004,s006),s005),s000),s007)",
    },
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_enumerate_sparse_n10_forests_in_few_nodes(seed):
    forest = Forest.from_trees(random_forest(10, 4, 0.3, random.Random(seed)))
    model = build_model(forest, "hard")
    trees = enumerate_supertrees(model, 5)
    assert _topologies(trees) == SPARSE_N10_TOPOLOGIES[seed]
    assert len(trees) == len(SPARSE_N10_TOPOLOGIES[seed])
    assert model.engine.stats.search_nodes < 200


def _relabelled(tree, names):
    return fold(tree, lambda nd: leaf(names[nd.label]), lambda nd, kids: PhyloTree(children=tuple(kids)))


@pytest.mark.parametrize("mode, binary", [("hard", False), ("hard", True), ("soft", True)])
def test_enumerate_commutes_with_relabelling_at_size(mode, binary):
    # the species order decides the cell order and so the branching, but
    # not the set of topologies
    rng = random.Random(73)
    limit = 200
    counts = []
    for n in (12, 18, 24, 30):
        trees = random_forest(n, 3, 0.25, rng, binary=binary)
        forest = Forest.from_trees(trees)
        got = enumerate_supertrees(build_model(forest, mode), limit)
        assert len(got) < limit
        counts.append(len(got))
        labels = sorted(forest.species)
        names = dict(zip(labels, rng.sample([f"t{i:02d}" for i in range(n)], n)))
        moved = Forest.from_trees([_relabelled(t, names) for t in reversed(trees)])
        again = enumerate_supertrees(build_model(moved, mode), limit)
        assert _topologies(again) == _topologies(_relabelled(t, names) for t in got)
    assert max(counts) > 1


def test_enumerate_pins_each_listed_tree_at_size():
    # every listed tree T displays the forest, so the forest plus T has T alone
    rng = random.Random(80)
    for n in (12, 20, 30):
        trees = random_forest(n, 3, 0.25, rng, binary=True)
        got = enumerate_supertrees(build_model(Forest.from_trees(trees), "hard"), 200)
        assert 1 < len(got) < 200
        for tree in got:
            pinned = enumerate_supertrees(build_model(Forest.from_trees(trees + [tree]), "hard"), 2)
            assert _topologies(pinned) == _topologies([tree]) and len(pinned) == 1


# -- read-off -------------------------------------------------------------------------------


@pytest.fixture
def readoffs(monkeypatch):
    """Check every read-off of cp_build, greedy and enumerate against the
    Prim read-off of the gathered lower bounds, Newick byte for byte
    (child order included). The returned list holds, per read-off,
    whether its lower bounds skip a level."""
    seen = []
    readoff = supertree.matrix_to_tree

    def checked(model):
        tree = readoff(model)
        lb = model.lb_matrix()
        assert serialize_newick(tree) == serialize_newick(oracles.matrix_to_tree(lb))
        depths = set(np.asarray(lb.values).flat) - {0}
        seen.append(depths != set(range(1, len(depths) + 1)))
        return tree

    monkeypatch.setattr(supertree, "matrix_to_tree", checked)
    return seen


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_readoff_matches_prim_on_random_forests(readoffs, mode):
    rng = random.Random(90)
    forests = [_forest("a;"), _forest("(a,b);"), _forest("(a,b);", "a;")]
    for n in (3, 5, 8, 14, 30, 60, 120, 300):
        binary = rng.random() < 0.5
        forests.append(Forest.from_trees(random_forest(n, 3, 0.25, rng, binary=binary)))
    for forest in forests:
        assert cp_build(build_model(forest, mode)) is not None
    assert len(readoffs) == len(forests)


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_readoff_matches_prim_after_restores(readoffs, mode):
    # greedy-like probes on one model: read off at every fixpoint a probe
    # reaches and after every restore, failed probes included
    rng = random.Random(91)
    for n in (12, 40):
        trees = random_forest(n, 3, 0.25, rng)
        model = build_model(Forest.from_trees(trees), mode)
        assert model.engine.propagate() is PropagateResult.FIXPOINT
        supertree.matrix_to_tree(model)
        for t in rng.sample(trees, 2):
            swapped = swap_leaves(t, *rng.sample(sorted(leaf_labels(t)), 2))
            for atom in rng.sample(hard_breakup(swapped), 5):
                cp = model.engine.checkpoint()
                post_atom(model.engine, model.matrix, atom)
                if model.engine.propagate() is PropagateResult.FIXPOINT:
                    supertree.matrix_to_tree(model)
                if model.store.failed or rng.random() < 0.5:
                    model.engine.restore(cp)
                    supertree.matrix_to_tree(model)
    assert len(readoffs) > 20


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_readoff_matches_prim_on_greedy_and_enumerate(readoffs, mode):
    rng = random.Random(92)
    for _ in range(6):  # greedy's final fixpoint on leaf-swapped forests
        trees = random_forest(14, 3, 0.2, rng)
        a, b = rng.sample(sorted(leaf_labels(trees[0])), 2)
        greedy_build(Forest.from_trees([swap_leaves(trees[0], a, b)] + trees[1:]), mode)
    assert len(readoffs) == 6
    listed = 0
    for _ in range(8):  # every enumerate solution
        trees = random_forest(rng.randint(5, 10), 4, 0.3, rng)
        listed += len(enumerate_supertrees(build_model(Forest.from_trees(trees), mode), 30))
    assert len(readoffs) == 6 + listed and listed > 8


def _gapped_ranks(tree, rng, n):
    """The tree ranked with gaps: each internal node 1-3 below its parent,
    the root at 1 or 2, every rank at most n - 1; None if they do not fit."""
    ranks = {tree: rng.randint(1, 2)}
    for nd in iter_nodes(tree):  # preorder: parents are ranked first
        for c in nd.children:
            if not c.is_leaf:
                ranks[c] = ranks[nd] + rng.randint(1, 3)
    if max(ranks.values()) > n - 1:
        return None
    return fold(tree, lambda nd: nd, lambda nd, kids: PhyloTree(children=tuple(kids), rank=ranks[nd]))


def test_readoff_matches_prim_where_the_bounds_skip_levels(readoffs):
    # rank gaps and date bounds leave depths that no lower bound reaches,
    # so the read-off goes one level deeper on a single group
    rng = random.Random(93)
    built = 0
    while built < 30:
        n = rng.randint(6, 40)
        labels = species_labels(n)
        master = _gapped_ranks(random_tree(labels, rng), rng, n)
        if master is None:
            continue
        trees = [restrict_and_suppress(master, rng.sample(labels, rng.randint(3, n))) for _ in "ab"]
        forest = Forest.from_trees([master if rng.random() < 0.3 else trees[0]] + trees)
        outcome = build_supertree(forest, rng.choice(("hard", "soft")))
        built += outcome.status == "compatible"
    ranked = sum(readoffs)
    for n in (5, 12, 30):  # a date bound deepens a cherry of the first tree
        trees = random_forest(n, 3, 0.25, rng)
        a, b = next(
            [c.label for c in nd.children]
            for nd in iter_nodes(trees[0])
            if len(nd.children) == 2 and all(c.is_leaf for c in nd.children)
        )
        forest = Forest.from_trees(trees)
        cp_build(build_model(forest, "hard", sides=[DateBounds(a, b, forest.n - 1, forest.n - 1)]))
    assert ranked > 10 and sum(readoffs) > ranked


def test_readoff_does_not_recurse():
    # a 150-species caterpillar read off a few dozen frames under the
    # recursion limit
    n = 150
    cat = leaf("s000")
    for i in range(1, n):
        cat = PhyloTree(children=(cat, leaf(f"s{i:03d}")))
    model = build_model(Forest.from_trees([cat]), "hard")
    assert model.engine.propagate() is PropagateResult.FIXPOINT
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        tree = model.ultrametric.tree()
    finally:
        sys.setrecursionlimit(limit)
    for i in range(n - 1, 0, -1):  # the caterpillar itself, children in the same order
        tree, last = tree.children
        assert last.label == f"s{i:03d}"
    assert tree.label == "s000"


# -- metamorphic verdicts at size -------------------------------------------------------------
# A compatible forest's lower-bound fixpoint is its least solution, so it
# cannot depend on the species order, and a solution of more atoms is a
# solution of fewer. These properties need no oracle, so they check the
# read-off at sizes that no reference propagator reaches.


@pytest.mark.parametrize("n, mode, binary", [(300, "hard", False), (1000, "hard", True)])
def test_relabelled_reversed_forest_gives_the_relabelled_tree(n, mode, binary):
    rng = random.Random(n)
    trees = random_forest(n, 3, 0.25, rng, binary=binary)
    forest = Forest.from_trees(trees)
    names = dict(zip(forest.species, rng.sample(forest.species, n)))
    moved = Forest.from_trees([_relabelled(t, names) for t in reversed(trees)])
    got = cp_build(build_model(moved, mode))
    assert canonical_form(got) == canonical_form(_relabelled(cp_build(build_model(forest, mode)), names))


@pytest.mark.parametrize("n, mode, binary", [(400, "soft", True), (600, "hard", False)])
def test_a_restriction_of_the_output_leaves_it_unchanged(n, mode, binary):
    rng = random.Random(n)
    trees = random_forest(n, 3, 0.25, rng, binary=binary)
    tree = cp_build(build_model(Forest.from_trees(trees), mode))
    part = restrict_and_suppress(tree, rng.sample(sorted(leaf_labels(tree)), n // 2))
    again = cp_build(build_model(Forest.from_trees(trees + [part]), mode))
    assert canonical_form(again) == canonical_form(tree)


@pytest.mark.parametrize("n, mode, binary", [(300, "soft", False), (500, "hard", True)])
def test_a_sub_forest_has_no_higher_lower_bound(n, mode, binary):
    rng = random.Random(n)
    trees = random_forest(n, 3, 0.25, rng, binary=binary)
    models = [build_model(Forest.from_trees(f), mode) for f in (trees, trees[1:])]
    for m in models:
        assert m.engine.propagate() is PropagateResult.FIXPOINT
    full, sub = models
    at = [full.matrix.index[s] for s in sub.forest.species]
    lb = np.asarray(full.matrix.lower_bounds())[np.ix_(at, at)]
    assert (np.asarray(sub.matrix.lower_bounds()) <= lb).all()


@pytest.mark.parametrize(
    "n, mode",
    [(30, "soft"), (45, "hard"), (60, "soft"), (60, "hard"), (100, "soft"), (150, "hard"), (200, "soft"), (200, "hard")],
)
def test_a_super_forest_of_an_incompatible_forest_is_incompatible(n, mode):
    # a solution of more atoms is a solution of fewer, so adding trees to
    # an incompatible forest cannot make it compatible
    rng = random.Random(n)
    trees = random_forest(n, 3, 0.25, rng, binary=mode == "soft")
    labels = sorted(leaf_labels(trees[0]))
    for _ in range(20):  # swap two leaves until the forest is incompatible
        swapped = [swap_leaves(trees[0], *rng.sample(labels, 2))] + trees[1:]
        if cp_build(build_model(Forest.from_trees(swapped), mode)) is None:
            break
    else:
        pytest.fail("no leaf swap made the forest incompatible")
    extra = [trees[0], random_tree(rng.sample(labels, len(labels) // 2), rng)]
    extra += random_forest(n, 2, 0.5, rng)
    for more in (extra[:1], extra[1:2], extra):
        assert cp_build(build_model(Forest.from_trees(swapped + more), mode)) is None
        assert cp_build(build_model(Forest.from_trees(more + swapped[::-1]), mode)) is None


# -- refutation by cluster closure --------------------------------------------------------


@pytest.fixture
def closures(monkeypatch):
    """(species labels of S, verdict) of every closure the matrix
    propagator runs; a True verdict fails the store."""
    seen = []
    connected = UltrametricMatrix._connected

    def recording(self, S, d):
        got = connected(self, S, d)
        seen.append((frozenset(self.matrix.labels[x] for x in S), got))
        return got

    monkeypatch.setattr(UltrametricMatrix, "_connected", recording)
    return seen


def _bench19_swapped(n, seed):
    """random_forest(n, 3, 0.25) with two leaves of its first tree
    exchanged, both drawn the way the BENCH_*.json ladders draw them."""
    trees = random_forest(n, 3, 0.25, random.Random(seed))
    trees[0] = swap_leaves(trees[0], *random.Random(seed).sample(sorted(leaf_labels(trees[0])), 2))
    return Forest.from_trees(trees)


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_each_refuting_cluster_is_rejected_by_build(closures, mode):
    # the rule is sound: BUILD, run on the atoms inside the failing S
    # alone, finds no tree on S either
    rng = random.Random(7)
    fired = 0
    for n in (20, 40, 80, 120, 200):
        for binary in (True, False):
            trees = random_forest(n, 3, 0.25, rng, binary=binary)
            trees[0] = swap_leaves(trees[0], *rng.sample(sorted(leaf_labels(trees[0])), 2))
            forest = Forest.from_trees(trees)
            closures.clear()
            model = build_model(forest, mode)
            got = cp_build(model)
            failing = [S for S, connected in closures if connected]
            assert len(failing) <= (got is None)  # a small refutation may fail before any closure
            for S in failing:
                inside = [a for a in model.atoms if set(a.species) <= S]
                assert not build_compatible(inside, sorted(S))
            fired += len(failing)
    assert fired >= 4


def test_the_rule_never_fires_on_compatible_models(closures):
    rng = random.Random(11)
    for n in (20, 60, 150):  # plain forests, both modes
        for mode in ("hard", "soft"):
            assert cp_build(build_model(Forest.from_trees(random_forest(n, 3, 0.25, rng)), mode))
    built = 0
    while built < 20:  # ranked with gaps: clusters stay unsplit for a level, so closures run
        n = rng.randint(6, 40)
        labels = species_labels(n)
        master = _gapped_ranks(random_tree(labels, rng), rng, n)
        if master is None:
            continue
        trees = [restrict_and_suppress(master, rng.sample(labels, rng.randint(3, n))) for _ in "ab"]
        outcome = build_supertree(Forest.from_trees([master] + trees), rng.choice(("hard", "soft")))
        assert outcome.status == "compatible"
        built += 1
    ran = len(closures)
    for n in (12, 30, 60):  # date bounds and predates that the supertree meets
        forest = Forest.from_trees(random_forest(n, 3, 0.25, rng))
        tree = cp_build(build_model(forest))
        depth = tree_to_matrix(tree)
        sides = []
        for _ in range(n):
            a, b, c, d = rng.sample(forest.species, 4)
            if depth.value(c, d) < depth.value(a, b):
                sides.append(Predates(c, d, a, b))
            sides.append(DateBounds(a, b, rng.randint(1, depth.value(a, b)), n - 1))
        for nd in iter_nodes(tree):  # every cherry as deep as it can go
            if len(nd.children) == 2 and all(k.is_leaf for k in nd.children):
                sides.append(DateBounds(nd.children[0].label, nd.children[1].label, n - 1, n - 1))
        assert canonical_form(cp_build(build_model(forest, "hard", sides=sides))) == canonical_form(tree)
    for newicks in (  # nested taxa: their rows name taxon variables
        ("((a,b)T,c);", "(T,d);"),
        ("(((a,b)P,c)Q,(d,e));", "((Q,f),g);", "((a,b),(c,h));"),
    ):
        assert build_supertree(_forest(*newicks)).status == "compatible"
    trees = random_forest(40, 3, 0.25, rng)
    named = fold(
        trees[0],
        lambda nd: nd,
        lambda nd, kids: PhyloTree(children=tuple(kids), label=f"T{min(leaf_labels(nd))}_{len(leaf_labels(nd))}"),
    )
    assert build_supertree(Forest.from_trees([named] + trees[1:])).status == "compatible"
    assert ran > 0 and not any(connected for _, connected in closures)


def test_bench_swapped_forest_is_refuted_in_few_trail_records():
    # climbing every cell to n - 1 took 3.74M trail records here
    model = build_model(_bench19_swapped(200, 0), "hard")
    assert model.engine.propagate() is PropagateResult.FAILURE
    assert len(model.store.trail) <= 100_000


def test_a_propagated_model_is_freed_without_the_cycle_collector():
    forest = Forest.from_trees(random_forest(30, 3, 0.25, random.Random(5)))
    gc.collect()
    gc.disable()
    try:
        for probe in (False, True):
            model = build_model(forest)
            assert model.engine.propagate() is PropagateResult.FIXPOINT
            if probe:  # a failed probe, then restored
                cp = model.engine.checkpoint()
                a = next(iter(model.atoms))
                for alt in supertree._alternatives(a):
                    post_atom(model.engine, model.matrix, alt)
                assert model.engine.propagate() is PropagateResult.FAILURE
                model.engine.restore(cp)
            refs = weakref.ref(model), weakref.ref(model.engine)
            del model
            assert [r() for r in refs] == [None, None]
        model = build_model(_bench19_swapped(40, 1))
        assert model.engine.propagate() is PropagateResult.FAILURE
        refs = weakref.ref(model), weakref.ref(model.engine)
        del model
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


# -- statistics ---------------------------------------------------------------------------


def test_space_claim_counts():
    rng = random.Random(61)
    for n in (10, 20):
        forest = Forest.from_trees(random_forest(n, 3, 0.25, rng))
        model = build_model(forest, "hard")
        cp_build(model)
        stats = model.engine.stats
        assert model.store.num_vars == n * (n - 1) // 2
        triples = sum(isinstance(a, Triple) for a in model.atoms)
        fans = len(model.atoms) - triples
        # one table per relation kind: a triple is a Less row and an Equal
        # row, a fan an Equal row
        assert stats.peak_propagators <= 4
        rows = {type(p).__name__: p.size() for p in model.engine.propagators}
        # the matrix's undo log: one entry per cell whose ub fell below n - 1,
        # plus at most n - 1 merges per depth 2..n-1
        lowered = sum(model.store.ubs[v] < n - 1 for v in model.matrix.cell_vars)
        assert lowered <= rows.pop("UltrametricMatrix") <= lowered + (n - 1) * (n - 2)
        assert rows == {"Less": triples, "Equal": triples + fans}
        matrix_props = [p for p in model.engine.propagators if isinstance(p, UltrametricMatrix)]
        assert len(matrix_props) == 1


def test_unsolvable_tends_to_wake_more():
    # reported as an observation, not asserted (matches the stated caveat)
    rng = random.Random(62)
    wakes_ok, wakes_fail = [], []
    while len(wakes_ok) < 10 or len(wakes_fail) < 10:
        species = [f"s{i}" for i in range(8)]
        atoms = []
        for _ in range(10):
            a, b, c = rng.sample(species, 3)
            atoms.append(Triple.of(a, b, c))
        model = build_model(_atom_forest(atoms), "hard")
        ok = cp_build(model) is not None
        (wakes_ok if ok else wakes_fail).append(model.engine.stats.wakes)
    print(
        f"mean wakes compatible={statistics.mean(wakes_ok):.1f} "
        f"incompatible={statistics.mean(wakes_fail):.1f}"
    )
