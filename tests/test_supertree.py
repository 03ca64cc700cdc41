import itertools
import random
import statistics

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
    serialize_newick,
    tree_to_matrix,
)
from umtree.generate import random_forest, random_tree
from umtree.phylo import iter_nodes
from umtree.ultrametric import UltrametricMatrix

from oracles import oracle_compatible, oracle_necessary, oracle_supertrees


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
    assert m.atoms == [Triple.of("a", "b", "c")]


def test_build_model_fan_hard():
    m = build_model(_forest("(a,b,c);"), "hard")
    assert m.atoms == [Fan.of("a", "b", "c")]


def test_build_model_two_trees_dedup_and_provenance():
    f = _forest("((a,b),c);", "((a,b),d);")
    m = build_model(f, "soft")
    assert m.atoms == [Triple.of("a", "b", "c"), Triple.of("a", "b", "d")]
    assert f.n == 4 and len(m.matrix.cell_vars) == 6

    f2 = _forest("((a,b),c);", "((a,b),c);")
    m2 = build_model(f2, "soft")
    assert m2.atoms == [Triple.of("a", "b", "c")]
    assert m2.atom_sources[m2.atoms[0]] == [0, 1]


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
        inputs = build_model(forest, mode).atoms
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
    rng = random.Random(31)
    for _ in range(15):
        forest = Forest.from_trees(random_forest(rng.randint(4, 12), 3, 0.3, rng))
        mode = rng.choice(["hard", "soft"])
        tree, report = greedy_build(forest, mode)
        assert report.rejected == ()
        assert isomorphic(tree, cp_build(build_model(forest, mode)))


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
        assert set(report.violated) <= set(report.rejected)


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


# -- statistics ---------------------------------------------------------------------------


def test_space_claim_counts():
    rng = random.Random(61)
    for n in (10, 20):
        forest = Forest.from_trees(random_forest(n, 3, 0.25, rng))
        model = build_model(forest, "hard")
        cp_build(model)
        stats = model.engine.stats
        assert stats.peak_vars == n * (n - 1) // 2
        triples = sum(isinstance(a, Triple) for a in model.atoms)
        fans = len(model.atoms) - triples
        # one table per relation kind: a triple is a Less row and an Equal
        # row, a fan an Equal row
        assert stats.peak_propagators <= 4
        rows = {type(p).__name__: p.size() for p in model.engine.propagators}
        assert rows == {"UltrametricMatrix": 0, "Less": triples, "Equal": triples + fans}
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
